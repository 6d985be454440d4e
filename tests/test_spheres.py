"""Unstable operations: suspension, stabilization, Gamma, antipode, kernels."""

import itertools
import random
import traceback

import pytest

from coincalc.fgab import Cmp, FgAbError, FgAbGroup, subgroup_cmp
from coincalc.spheres import Membership, MissingDataError, SphereTables, Unknown
from coincalc.tables import GenAnnotations, OutOfTabulatedRange, SphereEntry, TableSet


class TestSuspend:
    def test_hopf_class(self, tables):
        out = tables.suspend(tables.named("hopfC"))
        assert (out.m, out.q) == (4, 3) and out.value.coeffs == (1,)

    def test_zero(self, tables):
        out = tables.suspend(tables.zero(5, 2))
        assert out.is_zero

    def test_whitehead_squares_suspend_to_zero(self, tables):
        for q in (2, 5):
            w = tables.whitehead(q)
            out = tables.suspend(w)
            assert not isinstance(out, Unknown)
            assert out.is_zero, q

    def test_missing_annotation_is_unknown(self, tables):
        out = tables.suspend(tables.generator(9, 3, "alpha1_alpha1"))
        assert isinstance(out, Unknown)

    def test_linearity(self, tables):
        rng = random.Random(5)
        for (m, q) in [(3, 2), (5, 2), (6, 3), (7, 4)]:
            entry = tables.lookup(m, q)
            for _ in range(10):
                x = tables.cls(m, q, [rng.randint(-6, 6) for _ in range(entry.group.rank)])
                y = tables.cls(m, q, [rng.randint(-6, 6) for _ in range(entry.group.rank)])
                ex, ey = tables.suspend(x), tables.suspend(y)
                exy = tables.suspend(x + y)
                assert exy.value == (ex + ey).value


class TestStabilize:
    def test_hopf_class_stabilizes_to_eta(self, tables):
        out = tables.stabilize(tables.named("hopfC"))
        assert out == tables.ring.named("eta")

    def test_24_hopfH_dies(self, tables):
        out = tables.stabilize(tables.named("hopfH").scale(24))
        assert out.is_zero and out.degree == 3

    def test_identity_class(self, tables):
        out = tables.stabilize(tables.cls(6, 6, [1]))
        assert out == tables.ring.named("iota")

    def test_stabilize_commutes_with_suspension(self, tables):
        for (m, q, name) in [
            (3, 2, "eta_2"),
            (4, 2, "eta_2_eta"),
            (5, 2, "eta_2_eta_sq"),
            (6, 3, "nu_p"),
            (7, 4, "nu_4"),
        ]:
            x = tables.generator(m, q, name)
            ex = tables.suspend(x)
            assert tables.stabilize(ex) == tables.stabilize(x)


class TestGamma:
    def test_components_start_with_stabilization(self, tables):
        rng = random.Random(11)
        for (m, q) in [(3, 2), (6, 2), (9, 2), (6, 3), (7, 4), (9, 5)]:
            entry = tables.lookup(m, q)
            for _ in range(5):
                x = tables.cls(m, q, [rng.randint(-5, 5) for _ in range(entry.group.rank)])
                g = tables.gamma(x)
                assert g.component(1) == tables.stabilize(x)

    def test_gamma_of_hopf_class_sees_the_hopf_invariant(self, tables):
        g = tables.gamma(tables.named("hopfC"))
        assert g.is_zero() is False
        assert g.component(2).value.coeffs == (1,)

    def test_gamma_vanishes_on_whitehead_5(self, tables):
        assert tables.gamma(tables.whitehead(5)).is_zero() is True

    def test_gamma_identically_zero_on_3_torsion(self, tables):
        # pi_9(S^3) = Z/3 maps into 2-primary and integral stems only.
        entry = tables.lookup(9, 3)
        for k in range(3):
            x = tables.cls(9, 3, [k])
            assert tables.gamma(x).is_zero() is True

    def test_linearity(self, tables):
        rng = random.Random(7)
        for (m, q) in [(6, 2), (9, 2), (8, 3), (7, 4)]:
            entry = tables.lookup(m, q)
            for _ in range(8):
                x = tables.cls(m, q, [rng.randint(-9, 9) for _ in range(entry.group.rank)])
                y = tables.cls(m, q, [rng.randint(-9, 9) for _ in range(entry.group.rank)])
                gx, gy, gxy = tables.gamma(x), tables.gamma(y), tables.gamma(x + y)
                for (k, vx), (_, vy), (_, vxy) in zip(
                    gx.components, gy.components, gxy.components
                ):
                    assert vxy == vx + vy

    @staticmethod
    def target_shape(tables, m, q):
        entry = tables.lookup(m, q)
        return [str(tables.ring.group(entry.gamma_degree(k))) for k in range(1, entry.k_max + 1)]

    def test_target_shape_at_9_2(self, tables):
        assert self.target_shape(tables, 9, 2) == [
            "Z_240", "Z_2", "0", "0", "Z_24", "Z_2", "Z_2", "Z",
        ]

    def test_target_shape_at_9_3(self, tables):
        assert self.target_shape(tables, 9, 3) == ["Z_2", "0", "Z_2", "Z"]


class TestAntipodal:
    def test_identity_for_odd_q(self, tables):
        rng = random.Random(3)
        for (m, q) in [(6, 3), (9, 3), (8, 5), (9, 5)]:
            entry = tables.lookup(m, q)
            for _ in range(5):
                x = tables.cls(m, q, [rng.randint(-5, 5) for _ in range(entry.group.rank)])
                assert tables.antipodal_compose(x).value == x.value

    def test_degree_flip_on_identity_classes(self, tables):
        x = tables.cls(4, 4, [5])
        out = tables.antipodal_compose(x)
        assert out.value.coeffs == (-5,)
        x = tables.cls(3, 3, [5])
        assert tables.antipodal_compose(x).value.coeffs == (5,)

    def test_hopf_class_is_fixed(self, tables):
        h = tables.named("hopfC")
        assert tables.antipodal_compose(h).value == h.value

    def test_involution_on_pi7_s4(self, tables):
        rng = random.Random(9)
        for _ in range(10):
            x = tables.cls(7, 4, [rng.randint(-9, 9), rng.randint(0, 11)])
            once = tables.antipodal_compose(x)
            assert tables.antipodal_compose(once).value == x.value

    def test_zero(self, tables):
        out = tables.antipodal_compose(tables.zero(7, 4))
        assert out.is_zero


def _apply_by_elements(tables, x, kind, target):
    """The annotated map of kind on x, summed one scaled element at a time."""
    out = target.zero()
    if target.is_trivial or x.is_zero:
        return out
    entry = tables.lookup(x.m, x.q)
    for i, c in enumerate(x.value.coeffs):
        if c:
            column = tables._column(entry, i, kind)
            if isinstance(column, Unknown):
                return column
            out = out + target.element(column).scale(c)
    return out


class TestSummedMaps:
    def test_every_tabulated_map_on_small_classes(self, tables):
        checked = 0
        for (m, q), entry in sorted(tables.raw.entries.items()):
            targets = [("antip", entry.group)]
            try:
                targets.append(("susp", tables.lookup(m + 1, q + 1).group))
            except OutOfTabulatedRange:
                pass
            for k in range(1, entry.k_max + 1):
                stem = tables.raw.stems.get(entry.gamma_degree(k))
                if stem is not None:
                    targets.append((k, stem.group))
            for coeffs in itertools.product(range(-2, 3), repeat=entry.group.rank):
                x = tables.cls(m, q, coeffs)
                for kind, target in targets:
                    got = tables._apply(x, kind, target, lambda value: value)
                    want = _apply_by_elements(tables, x, kind, target)
                    assert got == want, (m, q, coeffs, kind)
                    checked += 1
        assert checked > 500

    def test_wrong_length_column_raises(self):
        entry = SphereEntry(
            5, 2, FgAbGroup(0, (2,)), ("g",), (GenAnnotations(antip=(1, 0)),)
        )
        tables = SphereTables(TableSet(entries={(5, 2): entry}))
        with pytest.raises(FgAbError, match="length 2 for group of rank 1"):
            tables.antipodal_compose(tables.generator(5, 2, "g"))


class TestSuspensionImage:
    def test_zero_is_always_in_the_image(self, tables):
        assert tables.suspension_image_contains(4, 3, tables.zero(4, 3)) is Membership.YES

    def test_suspended_hopf_class(self, tables):
        x = tables.generator(4, 3, "eta_3")
        assert tables.suspension_image_contains(4, 3, x) is Membership.YES

    def test_whitehead_2_not_a_suspension(self, tables):
        w2 = tables.named("whitehead2")
        assert tables.suspension_image_contains(3, 2, w2) is Membership.NO

    def test_monotone_under_addition(self, tables):
        x = tables.generator(4, 3, "eta_3")
        assert tables.suspension_image_contains(4, 3, x + x) is Membership.YES


class TestKernelChain:
    def test_injective_gamma_on_the_hopf_group(self, tables):
        # Gamma = (E^inf, Hopf invariant) is injective on pi_3(S^2).
        kg, _kh, _whole = tables.kernel_chain(3, 2, "C")
        assert kg.is_trivial
        kg, _kh, _whole = tables.kernel_chain(3, 2, "R")
        assert kg.is_trivial

    def test_chain_values_at_3_2_complex(self, tables):
        kg, kh, whole = tables.kernel_chain(3, 2, "C")
        assert kg.is_trivial
        assert not kh.is_whole()
        assert kh.contains(tables.cls(3, 2, [2]).value)
        assert not kh.contains(tables.cls(3, 2, [1]).value)

    def test_whole_kernel_on_3_torsion(self, tables):
        kg, kh, whole = tables.kernel_chain(9, 3, "R")
        assert subgroup_cmp(kg, whole) is Cmp.EQUAL
        assert subgroup_cmp(kh, whole) is Cmp.EQUAL

    def test_trivial_group(self, tables):
        kg, kh, whole = tables.kernel_chain(2, 3, "C")
        assert kg.is_trivial and kh.is_trivial and whole.is_trivial

    def test_nesting_everywhere(self, tables):
        for (m, q) in sorted(tables.raw.entries):
            if tables.lookup(m, q).group.is_trivial:
                continue
            for tag in ("R", "C", "H"):
                try:
                    kg, kh, whole = tables.kernel_chain(m, q, tag)
                except MissingDataError:
                    continue
                assert subgroup_cmp(kg, kh) in (Cmp.EQUAL, Cmp.PROPER_SUB)
                assert whole.contains_subgroup(kh)

    def test_missing_data_is_an_error_not_a_guess(self, tables, table_text):
        from coincalc.tables import parse_tables

        # Drop a gamma annotation: the kernel chain must refuse to answer.
        faulty = table_text.replace("gamma 2 3 14\n", "")
        ts = SphereTables(parse_tables(faulty))
        with pytest.raises(MissingDataError) as err:
            ts.kernel_chain(6, 2, "R")
        assert "gamma k=2" in str(err.value)

    def test_one_missing_annotation_one_reason(self, table_text):
        from coincalc.tables import parse_tables

        # Drop the stabilization of eta_2: E^inf, Gamma and the kernel chain
        # must all name the same gap in the same words.
        faulty = table_text.replace("gen eta_2\nsusp 1\nstab 1 1\n", "gen eta_2\nsusp 1\n")
        assert faulty != table_text
        ts = SphereTables(parse_tables(faulty))
        x = ts.generator(3, 2, "eta_2")
        stab, first = ts.stabilize(x), ts.gamma(x).component(1)
        with pytest.raises(MissingDataError) as err:
            ts.kernel_chain(3, 2, "C")
        assert isinstance(stab, Unknown) and isinstance(first, Unknown)
        reason = "stabilization of generator eta_2 of pi_3(S^2) is not annotated"
        assert stab.reason == first.reason == str(err.value) == reason

    def test_repeated_chain_is_equal(self, table_text):
        from coincalc.tables import parse_tables

        ts = SphereTables(parse_tables(table_text))
        for m, q, tag in ((3, 2, "C"), (6, 2, "R"), (7, 4, "H"), (9, 3, "R")):
            first = ts.kernel_chain(m, q, tag)
            assert ts.kernel_chain(m, q, tag) == first

    def test_repeated_gap_raises_fresh_errors(self, table_text):
        from coincalc.tables import parse_tables

        # A cached gap is raised again with the same text, each time as a
        # new exception object (so no traceback grows across calls).
        ts = SphereTables(parse_tables(table_text.replace("gamma 2 3 14\n", "")))
        errors = []
        for _ in range(3):
            with pytest.raises(MissingDataError) as err:
                ts.kernel_chain(6, 2, "R")
            errors.append(err.value)
        assert len({str(e) for e in errors}) == 1 and "gamma k=2" in str(errors[0])
        assert len({id(e) for e in errors}) == 3
        depths = {len(traceback.extract_tb(e.__traceback__)) for e in errors}
        assert len(depths) == 1

    def test_each_table_keeps_its_own_chains(self, table_text):
        from coincalc.tables import parse_tables

        # The memo lives on the instance: a bundled and a gapped table in one
        # process each answer as if it were alone, whichever asks first.
        gapped_text = table_text.replace("gamma 2 3 14\n", "")
        alone = SphereTables(parse_tables(table_text)).kernel_chain(6, 2, "R")
        bundled = SphereTables(parse_tables(table_text))
        gapped = SphereTables(parse_tables(gapped_text))
        for _ in range(2):
            with pytest.raises(MissingDataError):
                gapped.kernel_chain(6, 2, "R")
            assert bundled.kernel_chain(6, 2, "R") == alone
        assert [str(k) for k in alone] == ["<0>", "<(1)>", "<(1)>"]


@pytest.mark.parametrize("m, q, k, coeffs", [
    (3, 2, 1, (1, 0)),  # E^inf column into pi_1^S = Z_2, one entry too many
    (3, 2, 1, ()),
    (6, 2, 2, (14, 1)),  # gamma k=2 column into pi_3^S = Z_24
    (6, 2, 2, ()),
])
def test_chain_rejects_a_column_of_the_wrong_length(table_text, m, q, k, coeffs):
    from coincalc.tables import parse_tables

    # The parser rejects such columns; a TableSet built in code must still
    # get an error, never a truncated column or an IndexError.
    raw = parse_tables(table_text)
    entry = raw.entries[(m, q)]
    ann = entry.annotations[0]
    if k == 1:
        gammas, stab = ann.gammas, coeffs
    else:
        gammas, stab = tuple((kk, coeffs if kk == k else c) for kk, c in ann.gammas), ann.stab
    bad = GenAnnotations(ann.susp, stab, gammas, ann.antip, ann.source)
    raw.entries[(m, q)] = SphereEntry(
        m, q, entry.group, entry.gen_names, (bad,) + entry.annotations[1:], entry.source
    )
    with pytest.raises(FgAbError, match=f"coefficient vector of length {len(coeffs)} for group of rank 1"):
        SphereTables(raw).kernel_chain(m, q, "C")


def test_chain_wrong_dimension_errors(tables):
    from coincalc.fgab import FgAbError

    with pytest.raises(FgAbError):
        tables.suspension_image_contains(4, 3, tables.zero(5, 3))


def test_two_lift_routes_agree(tables):
    # For m >= 3 every class of pi_m(S^2) factors through the Hopf class, and
    # pi_m(S^2) = pi_m(S^3); the total invariant may be computed on either
    # side.  The curated annotations must give matching verdicts: same kernel
    # triviality for Gamma, and the doubled stable class always dies.
    for m in range(3, 10):
        kg2, kh2, whole2 = tables.kernel_chain(m, 2, "R")
        kg3, kh3, whole3 = tables.kernel_chain(m, 3, "C")
        assert tables.lookup(m, 2).group == tables.lookup(m, 3).group
        assert kg2.is_trivial == kg3.is_trivial, m
        # 2 . E^inf kills eta-multiples: the whole group on the S^2 side.
        assert kh2.is_whole(), m
