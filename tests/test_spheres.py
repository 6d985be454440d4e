"""Unstable operations: suspension, stabilization, Gamma, antipode, kernels."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincalc import spheres as spheres_module
from coincalc.fgab import Cmp, FgAbError, FgAbGroup, subgroup_cmp
from coincalc.invariants import sphere_report
from coincalc.spheres import GammaValue, SphereTables, Unknown
from coincalc.stable import StableElement
from coincalc.tables import (
    GenAnnotations,
    NamedClass,
    OutOfTabulatedRange,
    ParseError,
    SchemaError,
    SphereEntry,
    StemEntry,
    TableError,
    TableSet,
    map_target,
    parse_tables,
)
from test_bench_replay import EXPECTED, wl
from test_invariants import kernel_chain_cases
from test_validate_golden import sweep


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
                    assert vxy.value == vx.value + vy.value

    @staticmethod
    def composed(tables, x):
        """Gamma of x composed from stabilize and the annotated-map images,
        one component at a time."""
        k_max = tables.lookup(x.m, x.q).k_max
        comps = ((1, tables.stabilize(x)),)
        comps += tuple((k, tables._apply(x, k)) for k in range(2, k_max + 1))
        return GammaValue(x.m, x.q, comps)

    def test_record_matches_the_composed_components(self, table_text):
        # The bundled table and each table with one stab, gamma or prod line
        # dropped, so that gaps and untabulated stems are read too: every
        # tabulated (m, q) with q >= 2 and the closed forms m = q, on the zero
        # class, each generator and each sum of two generators.
        lines = table_text.splitlines(keepends=True)
        texts = [table_text] + [
            "".join(lines[:i] + lines[i + 1:])
            for i, line in enumerate(lines) if line.split(" ")[0] in ("stab", "gamma", "prod")
        ]
        assert len(texts) == 57
        checked = gaps = 0
        for text in texts:
            ts = SphereTables(parse_tables(text))
            groups = sorted((m, q) for m, q in ts.raw.entries if q >= 2)
            for m, q in groups + [(q, q) for q in range(2, 8)]:
                gens = [ts.generator(m, q, name) for name in ts.lookup(m, q).gen_names]
                sums = [a + b for a, b in itertools.combinations_with_replacement(gens, 2)]
                for x in [ts.zero(m, q)] + gens + sums:
                    got = ts.gamma(x)
                    assert got == self.composed(ts, x), (m, q, x)
                    checked += 1
                    gaps += any(isinstance(v, Unknown) for _k, v in got.components)
        assert (checked, gaps) == (4332, 74)

    def test_record_is_built_once_and_shares_constant_components(self, tables):
        class CountingDict(dict):
            def __setitem__(self, key, value):
                builds[key] = builds.get(key, 0) + 1
                super().__setitem__(key, value)

        builds = {}
        ts = SphereTables(tables.raw)
        ts._gammas = CountingDict()
        seen = {}  # (m, q, k) -> every value gamma gave for that component
        compute = ts.gamma

        def gamma(x):
            value = compute(x)
            for k, v in value.components:
                seen.setdefault((x.m, x.q, k), []).append(v)
            return value

        ts.gamma = gamma
        groups = sorted(tables.raw.entries)
        for _sweep in range(2):
            for m, q in groups:
                gens = [ts.generator(m, q, name) for name in ts.lookup(m, q).gen_names]
                classes = [ts.zero(m, q)] + gens + [g.scale(3) for g in gens]
                for f1, f2 in itertools.product(classes, repeat=2):
                    sphere_report(ts, m, q, f1, f2)
                for tag in ("R", "C", "H"):
                    ts.kernel_chain(m, q, tag)
        # A trivial group has no nonzero difference class and a trivial chain.
        assert builds == {key: 1 for key in groups if not tables.lookup(*key).group.is_trivial}
        shared = varying = 0
        for (m, q, k), values in seen.items():
            if ts._gammas[m, q][k - 1][3] is None:
                varying += 1
            else:
                assert all(v is values[0] for v in values), (m, q, k)
                shared += 1
        assert (shared, varying) == (34, 23)

    def test_chain_makes_no_zero_component_values(self, tables, monkeypatch):
        # A zero component adds no condition to Ker Gamma; its value is made
        # only when gamma() first needs it, then kept.  The chain store starts
        # empty, so that every chain is built here and reads the Gamma records.
        monkeypatch.setattr(spheres_module, "_CHAINS", {})
        ts = SphereTables(tables.raw)
        for m, q in sorted(tables.raw.entries):
            ts.kernel_chain(m, q, "C")
        records = [(m, q, record) for (m, q), record in ts._gammas.items()]
        assert not any(isinstance(item[3], StableElement) for _m, _q, record in records
                       for item in record)
        zeros = [(m, q, k) for m, q, record in records
                 for k, item in enumerate(record, 1) if item[3] is not None
                 and not isinstance(item[3], Unknown)]
        assert zeros
        m, q, k = zeros[0]
        first = ts.gamma(ts.zero(m, q)).component(k)
        assert first.is_zero and ts.gamma(ts.zero(m, q)).component(k) is first

    @staticmethod
    def target_shape(tables, m, q):
        entry = tables.lookup(m, q)
        return [str(tables.ring.stem(entry.gamma_degree(k)).group) for k in range(1, entry.k_max + 1)]

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


def _raw_row(ann, kind):
    """The stored row of kind in one generator's annotations, and what the
    reason for its absence calls the map."""
    if kind == "susp":
        return ann.susp, "suspension of"
    if kind == "antip":
        return ann.antip, "antipodal action on"
    if kind == 1:
        return ann.stab, "stabilization of"
    return ann.gamma_component(kind), f"gamma k={kind} of"


def _apply_by_elements(tables, x, kind, target):
    """The annotated map of kind on x, summed one scaled element at a time
    from the raw rows of entry.annotations, independently of the column store."""
    out = target.zero()
    if target.is_trivial or x.is_zero:
        return out
    entry = tables.lookup(x.m, x.q)
    for name, ann, c in zip(entry.gen_names, entry.annotations, x.value.coeffs):
        if c:
            row, what = _raw_row(ann, kind)
            if row is None:
                return Unknown(f"{what} generator {name} of pi_{x.m}(S^{x.q}) is not annotated")
            out = out + target.element(row).scale(c)
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
                    got = tables._apply(x, kind)
                    want = _apply_by_elements(tables, x, kind, target)
                    assert getattr(got, "value", got) == want, (m, q, coeffs, kind)
                    checked += 1
        assert checked > 500

    def test_wrong_length_column_raises(self):
        entry = SphereEntry(
            5, 2, FgAbGroup(0, (2,)), ("g",), (GenAnnotations(antip=(1, 0)),)
        )
        tables = SphereTables(TableSet(entries={(5, 2): entry}))
        with pytest.raises(FgAbError, match="length 2 for group of rank 1"):
            tables.antipodal_compose(tables.generator(5, 2, "g"))
        # The whole map is checked on its first use, so a bad row on g also
        # fails a query that touches only h.
        entry = SphereEntry(
            5, 2, FgAbGroup(0, (2, 2)), ("g", "h"),
            (GenAnnotations(antip=(1, 0, 0)), GenAnnotations(antip=(0, 1))),
        )
        tables = SphereTables(TableSet(entries={(5, 2): entry}))
        with pytest.raises(FgAbError, match="length 3 for group of rank 2"):
            tables.antipodal_compose(tables.generator(5, 2, "h"))


def _maps(tables, m, q):
    """(kind, target group, object-API map) for every annotated map out of
    pi_m(S^q) whose target is tabulated; kind k >= 1 is Gamma component k."""
    entry = tables.lookup(m, q)
    out = []
    try:
        out.append(("susp", tables.lookup(m + 1, q + 1).group, tables.suspend))
    except OutOfTabulatedRange:
        pass
    for k in range(1, entry.k_max + 1):
        stem = tables.raw.stems.get(entry.gamma_degree(k))
        if stem is not None:
            out.append((k, stem.group, lambda x, k=k: tables.gamma(x).component(k)))
    if q % 2 == 0:
        out.append(("antip", entry.group, tables.antipodal_compose))
    return out


def _coeffs(value):
    """The coordinates of an object-API answer, or the Unknown itself."""
    return value if isinstance(value, Unknown) else value.value.coeffs


def _image_coeffs(tables, entry, coeffs, kind, target):
    """The coordinates _image gives, after checking that they lie in target,
    or its Unknown."""
    image = tables._image(entry, coeffs, kind)
    if isinstance(image, Unknown):
        return image
    assert image[0].group == target
    return image[1]


class TestSharedCores:
    """SphereTables._map is the one store of annotated-map columns and _image
    the one place a map is summed: the object API, the kernel chain, Im E and
    validate() all read them."""

    def test_image_of_each_generator_matches_the_object_api(self, tables):
        checked = 0
        for (m, q), entry in sorted(tables.raw.entries.items()):
            rank = entry.group.rank
            for i, name in enumerate(entry.gen_names):
                unit = tuple(int(i == j) for j in range(rank))
                gen = tables.generator(m, q, name)
                for kind, target, api in _maps(tables, m, q):
                    assert _image_coeffs(tables, entry, unit, kind, target) == _coeffs(api(gen))
                    checked += 1
        assert checked > 70

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_maps_are_additive_where_known(self, tables, data):
        known = 0
        for (m, q), entry in sorted(tables.raw.entries.items()):
            vector = st.lists(st.integers(-30, 30), min_size=entry.group.rank,
                              max_size=entry.group.rank)
            x, y = tables.cls(m, q, data.draw(vector)), tables.cls(m, q, data.draw(vector))
            for kind, target, api in _maps(tables, m, q):
                fx, fy, fxy = api(x), api(y), api(x + y)
                for z, fz in ((x, fx), (y, fy), (x + y, fxy)):
                    image = _image_coeffs(tables, entry, z.value.coeffs, kind, target)
                    assert image == _coeffs(fz)
                if not any(isinstance(f, Unknown) for f in (fx, fy, fxy)):
                    assert fxy.value == fx.value + fy.value, (m, q, kind)
                    known += 1
        assert known > 50


def _deletions(text):
    """text without one of its lines, then without one of its group or stem
    blocks (the header and every line up to the next group, stem, prod or
    name line)."""
    lines = text.splitlines(keepends=True)
    heads = [i for i, line in enumerate(lines)
             if line.split(" ")[0] in ("group", "stem", "prod", "name")] + [len(lines)]
    for i in range(len(lines)):
        yield "".join(lines[:i] + lines[i + 1:])
    for start, stop in zip(heads, heads[1:]):
        if lines[start].split(" ")[0] in ("group", "stem"):
            yield "".join(lines[:start] + lines[stop:])


def test_stored_rows_reach_their_targets(table_text):
    # What the parser accepts, the evaluators can reach: on the bundled table
    # and on each of its deletions that loads, every stored susp, stab and
    # gamma row lands in a tabulated group of the row's length, and _image of
    # its generator never reports that group as not tabulated.  Deleting a
    # whole block is what leaves another entry's row without a target.
    loaded = rows = 0
    for text in (table_text, *_deletions(table_text)):
        try:
            raw = parse_tables(text)
        except TableError:
            continue
        tables, loaded = SphereTables(raw), loaded + 1
        for entry in raw.entries.values():
            for g, ann in enumerate(entry.annotations):
                unit = tuple(int(g == j) for j in range(entry.group.rank))
                for kind, row in (("susp", ann.susp), (1, ann.stab), *ann.gammas):
                    if row is None:
                        continue
                    target = map_target(raw, entry, kind)
                    assert not isinstance(target, str), (entry.m, entry.q, kind, target)
                    assert target.group.rank == len(row)
                    image = tables._image(entry, unit, kind)
                    assert not (isinstance(image, Unknown) and "not tabulated" in image.reason)
                    rows += 1
    assert (loaded, rows) == (220, 12890)


class TestSuspensionImage:
    def test_zero_is_always_in_the_image(self, tables):
        assert tables.suspension_image_contains(4, 3, tables.zero(4, 3)) is True

    def test_suspended_hopf_class(self, tables):
        x = tables.generator(4, 3, "eta_3")
        assert tables.suspension_image_contains(4, 3, x) is True

    def test_whitehead_2_not_a_suspension(self, tables):
        w2 = tables.named("whitehead2")
        assert tables.suspension_image_contains(3, 2, w2) is False

    def test_monotone_under_addition(self, tables):
        x = tables.generator(4, 3, "eta_3")
        assert tables.suspension_image_contains(4, 3, x + x) is True


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
                kg, kh, whole = tables.kernel_chain(m, q, tag)
                if isinstance(kh, Unknown):
                    continue
                assert whole.contains_subgroup(kh)
                if not isinstance(kg, Unknown):
                    assert subgroup_cmp(kg, kh) in (Cmp.EQUAL, Cmp.PROPER_SUB)

    @pytest.mark.parametrize("tag", ["R", "C", "H"])
    def test_rank_two_kernels_hold_exactly_the_classes_sent_to_zero(self, tables, tag):
        # pi_7(S^4) = Z + Z_12 is the one tabulated group that is not cyclic,
        # so its kernels come from the graph HNF, not the closed form.
        kg, kh, _whole = tables.kernel_chain(7, 4, tag)
        hopf = tables.ring.hopf_stable(tag)
        assert tables.lookup(7, 4).group.rank == 2
        classes = [tables.cls(7, 4, c) for c in itertools.product(range(-2, 3), range(12))]
        for x in classes:
            assert kg.contains(x.value) == (tables.gamma(x).is_zero() is True), x
            assert kh.contains(x.value) == tables.ring.multiply(hopf, tables.stabilize(x)).is_zero, x

    def test_missing_data_is_unknown_not_a_guess(self, table_text):
        # Drop a gamma annotation: Ker Gamma must refuse to answer, while
        # Ker(h_K . E^inf), which reads only the E^inf columns, stays known.
        faulty = table_text.replace("gamma 2 3 14\n", "")
        ts = SphereTables(parse_tables(faulty))
        kg, kh, whole = ts.kernel_chain(6, 2, "R")
        assert isinstance(kg, Unknown) and "gamma k=2" in kg.reason
        assert kh == whole == SphereTables(parse_tables(table_text)).kernel_chain(6, 2, "R")[1]
        assert tuple(map(str, ts.kernel_chain(6, 2, "R"))) == (str(kg), "<(1)>", "<(1)>")

    def test_one_missing_annotation_one_reason(self, table_text):
        # Drop the stabilization of eta_2: E^inf, Gamma and both kernels of
        # the chain, which each read the E^inf column, must all name the
        # same gap in the same words.
        faulty = table_text.replace("gen eta_2\nsusp 1\nstab 1 1\n", "gen eta_2\nsusp 1\n")
        assert faulty != table_text
        ts = SphereTables(parse_tables(faulty))
        x = ts.generator(3, 2, "eta_2")
        stab, first = ts.stabilize(x), ts.gamma(x).component(1)
        kg, kh, _whole = ts.kernel_chain(3, 2, "C")
        assert all(isinstance(v, Unknown) for v in (stab, first, kg, kh))
        reason = "stabilization of generator eta_2 of pi_3(S^2) is not annotated"
        assert stab.reason == first.reason == kg.reason == kh.reason == reason

    def test_repeated_chain_is_equal(self, table_text):
        ts = SphereTables(parse_tables(table_text))
        for m, q, tag in ((3, 2, "C"), (6, 2, "R"), (7, 4, "H"), (9, 3, "R")):
            first = ts.kernel_chain(m, q, tag)
            assert ts.kernel_chain(m, q, tag) == first

    def test_repeated_gap_returns_an_equal_unknown(self, table_text):
        ts = SphereTables(parse_tables(table_text.replace("gamma 2 3 14\n", "")))
        chains = [ts.kernel_chain(6, 2, "R") for _ in range(3)]
        gap = chains[0][0]
        assert isinstance(gap, Unknown) and "gamma k=2" in gap.reason
        assert chains[1] == chains[0] and chains[2] == chains[0]

    def test_each_table_keeps_its_own_chains(self, table_text):
        # Chains are kept by the entry they read: a bundled and a gapped table
        # in one process each answer as if it were alone, whichever asks first.
        gapped_text = table_text.replace("gamma 2 3 14\n", "")
        alone = SphereTables(parse_tables(table_text)).kernel_chain(6, 2, "R")
        bundled = SphereTables(parse_tables(table_text))
        gapped = SphereTables(parse_tables(gapped_text))
        for _ in range(2):
            kg, kh, whole = gapped.kernel_chain(6, 2, "R")
            assert isinstance(kg, Unknown) and (kh, whole) == alone[1:]
            assert bundled.kernel_chain(6, 2, "R") == alone
        assert [str(k) for k in alone] == ["<0>", "<(1)>", "<(1)>"]


def _pointwise_gaps(tables, m, q, tag):
    """The first Unknown reason the pointwise cores give for the generators
    of pi_m(S^q) under K = tag, or None, for each kernel of the chain:
    Gamma component k = 1..k_max, generator by generator within each k; and
    E^inf of each generator, then h_K . E^inf (every table here registers
    the Hopf classes)."""
    entry = tables.lookup(m, q)
    gens = [tables.generator(m, q, name) for name in entry.gen_names]
    gammas = [tables.gamma(g) for g in gens]
    gamma_gap = next((c.reason for k in range(1, entry.k_max + 1) for gamma in gammas
                      if isinstance(c := gamma.component(k), Unknown)), None)
    stabs = [tables.stabilize(g) for g in gens]
    hopf_gap = next((s.reason for s in stabs if isinstance(s, Unknown)), None)
    if hopf_gap is None:
        hopf = tables.ring.hopf_stable(tag)
        products = [tables.ring.multiply(hopf, s) for s in stabs]
        hopf_gap = next((p.reason for p in products if isinstance(p, Unknown)), None)
    return gamma_gap, hopf_gap


def _chain_gaps(texts):
    """(chains, Ker Gamma gaps, Ker(h_K . E^inf) gaps, chains with a gap)
    over every tabulated (m, q) and K of each table, after checking that
    each kernel's gap is the one the pointwise cores of its criterion find."""
    chains = gamma_gaps = hopf_gaps = either = 0
    for text in texts:
        tables = SphereTables(parse_tables(text))
        for m, q in sorted(tables.raw.entries):
            for tag in ("R", "C", "H"):
                kg, kh, _whole = tables.kernel_chain(m, q, tag)
                got = tuple(k.reason if isinstance(k, Unknown) else None for k in (kg, kh))
                want = _pointwise_gaps(tables, m, q, tag)
                assert got == want, (m, q, tag)
                chains += 1
                gamma_gaps += want[0] is not None
                hopf_gaps += want[1] is not None
                either += want != (None, None)
    return chains, gamma_gaps, hopf_gaps, either


def test_chain_gaps_agree_with_the_pointwise_cores(table_text):
    # The bundled table and each table with one stab, gamma or prod line
    # dropped: each kernel is Unknown exactly when the pointwise core of its
    # criterion is for some generator, and with the first such reason.
    lines = table_text.splitlines(keepends=True)
    texts = [table_text] + [
        "".join(lines[:i] + lines[i + 1:])
        for i, line in enumerate(lines) if line.split(" ")[0] in ("stab", "gamma", "prod")
    ]
    # 154 chains have a gap, as many as were all-Unknown before the kernels
    # carried their own: 10 of them in Ker(h_K . E^inf) alone.
    assert (len(texts), *_chain_gaps(texts)) == (57, 3249, 144, 52, 154)
    # Stems that stop below m - q: the first gap of both kernels is the
    # missing stem pi_1^S, with or without the class two (stem 0) registered.
    short = ["group 3 2 1\ngen eta_2\n", "stem 0 1\ngen iota\ngroup 3 2 1\ngen eta_2\n"]
    assert _chain_gaps(short) == (6, 6, 6, 6)
    for text in short:
        tables = SphereTables(parse_tables(text))
        first = tables.gamma(tables.generator(3, 2, "eta_2")).component(1)
        assert first == Unknown("pi_1^S is not tabulated")
        assert all(tables.kernel_chain(3, 2, tag)[:2] == (first, first) for tag in ("R", "C", "H"))
    # A product past the last stem blocks Ker(h_C . E^inf) alone.
    tables = SphereTables(parse_tables(
        "stem 0 1\ngen iota\nstem 1 0 2\ngen eta\ngroup 4 3 0 2\ngen eta_3\nstab 1 1\n"))
    kg, kh, _whole = tables.kernel_chain(4, 3, "C")
    assert kg.is_trivial and kh == Unknown("product degree 2 beyond tabulated stems (max 1)")


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


# Two tables that differ only in stem 1: their group blocks parse to the same
# entries, and pi_3(S^2)'s stabilization 2 equals E^inf of its suspension,
# 0, in Z/2 but not in Z/4.
_STEM_EDITS = [
    f"stem 0 1\ngen iota\nstem 1 0 {order}\ngen eta\n"
    "group 3 2 1\ngen a\nsusp 1\nstab 1 2\ngroup 4 3 0 2\ngen b\nstab 1 0\n"
    for order in (2, 4)
]


def _parsed(text):
    try:
        return parse_tables(text)
    except (ParseError, SchemaError):
        return None


def _report(raw):
    """validate()'s (path, message) pairs, or what it raised."""
    try:
        return [(v.path, v.message) for v in SphereTables(raw).validate().violations]
    except Exception as exc:  # some sweep tables make validate() raise
        return type(exc), str(exc)


def _count_checks(monkeypatch) -> list:
    """The (m, q) of each entry checked from here on."""
    checked = []
    check = SphereTables._entry_violations

    def counted(self, key, entry, hopfs):
        checked.append(key)
        return check(self, key, entry, hopfs)
    monkeypatch.setattr(SphereTables, "_entry_violations", counted)
    return checked


class TestCheckStore:
    def test_a_cold_and_a_warm_store_give_the_same_reports(self, table_text, monkeypatch):
        lines = table_text.splitlines()
        texts = [wl.variant_text(lines, item["edit"]) for item in EXPECTED["table_curation"]]
        assert len(texts) == 233
        texts += [text for _label, text in sweep(table_text)] + _STEM_EDITS
        tables = [raw for raw in map(_parsed, texts) if raw is not None]
        bundled = parse_tables(table_text)
        store = {}
        monkeypatch.setattr(spheres_module, "_CHECKED", store)
        cold = []
        for raw in tables:
            store.clear()
            cold.append(_report(raw))
        in_z2, in_z4 = cold[-2:]
        assert [pair for pair in in_z4 if pair not in in_z2] == [(
            "pi_3(S^2) gen a",
            "stabilization not suspension-invariant: (2) in pi_1^S vs (0) in pi_1^S after E",
        )]
        # The store is filled by the bundled table and every other table, in
        # one order and then in the other, before each table is checked.
        for order in (list(range(len(tables))), list(range(len(tables)))[::-1]):
            store.clear()
            for raw in [bundled, *(tables[i] for i in order)]:
                _report(raw)
            assert [_report(tables[i]) for i in order] == [cold[i] for i in order]

    def test_an_entry_is_checked_again_only_when_what_it_reads_changes(
        self, table_text, monkeypatch
    ):
        monkeypatch.setattr(spheres_module, "_CHECKED", {})
        checked = _count_checks(monkeypatch)
        raw = parse_tables(table_text)
        assert _report(raw) == [] and len(checked) == len(raw.entries) == 19
        del checked[:]
        assert _report(parse_tables(table_text)) == [] and checked == []
        # One group block edited: its entry and the entry whose susp lands in it.
        group = "group 5 3 0 2\n"
        edited = table_text.replace(group + "src", group + "# edited\nsrc")
        assert edited != table_text
        assert _report(parse_tables(edited)) == [] and checked == [(4, 2), (5, 3)]
        del checked[:]
        broken = table_text.replace("gen eta_3_sq\nstab 2 1\n", "gen eta_3_sq\nstab 2 0\n")
        assert _report(parse_tables(broken)) == [(
            "pi_4(S^2) gen eta_2_eta",
            "stabilization not suspension-invariant: (1) in pi_2^S vs (0) in pi_2^S after E",
        )]
        assert checked == [(4, 2), (5, 3)]
        # A product row is read by every entry's h_K . E^inf check.
        del checked[:]
        product = "prod eta eta -> 2 1\n"
        assert product in table_text
        _report(parse_tables(table_text.replace(product, "prod eta eta -> 2 0\n")))
        assert checked == sorted(raw.entries)

    def test_a_susp_row_into_an_untabulated_group_is_a_violation(self, monkeypatch):
        # The parser refuses the row, so only a TableSet built by hand holds
        # one; validate() reports it in the parser's words, cold and warm.
        text = "stem 0 1\ngen iota\nstem 1 0 2\ngen eta\ngroup 3 2 1\ngen a\nsusp 1\nstab 1 1\n"
        with pytest.raises(SchemaError) as err:
            parse_tables(text)
        path = err.value.path
        assert str(err.value) == f"{path}: susp target pi_4(S^3) is not tabulated"
        raw = parse_tables(text.replace("susp 1\n", ""))
        ann = GenAnnotations(susp=(1,), stab=(1,))
        raw.entries[3, 2] = SphereEntry(3, 2, FgAbGroup.free(1), ("a",), (ann,))
        monkeypatch.setattr(spheres_module, "_CHECKED", {})
        for _store in ("cold", "warm"):
            report = _report(raw)
            assert (path, "susp target pi_4(S^3) is not tabulated") in report, report

    @pytest.mark.parametrize("name, m, q", [("whitehead3", 5, 3), ("alpha1_3", 6, 3)])
    def test_a_name_in_an_untabulated_group_is_a_violation(self, name, m, q):
        # The parser refuses the name, so only a TableSet built by hand holds
        # one; validate() reports it in the parser's words instead of raising.
        stems = "stem 0 1\ngen iota\nstem 1 0 2\ngen eta\n"
        with pytest.raises(SchemaError) as err:
            parse_tables(stems + f"name {name} {m} {q} 0\n")
        message = f"registered in untabulated pi_{m}(S^{q})"
        assert str(err.value) == f"name {name}: {message}"
        raw = parse_tables(stems)
        raw.named[name] = NamedClass(m, q, (0,))
        assert _report(raw) == [(f"name {name}", message)]

    @pytest.mark.parametrize("new_stems", [False, True], ids=["entries", "stems"])
    def test_an_id_is_not_reused_while_its_key_is_stored(self, new_stems, monkeypatch):
        # Tables built by hand are in no parse store: each is dropped before
        # the next one, whose values may take its ids, is built.
        store = {}

        def stem_entries():
            return {0: StemEntry(0, FgAbGroup.free(1), ("iota",)),
                    1: StemEntry(1, FgAbGroup(0, (2,)), ("eta",))}
        shared = stem_entries()
        for c in range(40):
            stems = stem_entries() if new_stems else shared
            ann = GenAnnotations(stab=(c % 2,), gammas=((1, (c,)),))
            entry = SphereEntry(3, 2, FgAbGroup.free(1), ("eta_2",), (ann,))
            raw = TableSet({(3, 2): entry}, stems, stem_gen_degrees={"iota": 0, "eta": 1})
            monkeypatch.setattr(spheres_module, "_CHECKED", store)
            warm = _report(raw)
            monkeypatch.setattr(spheres_module, "_CHECKED", {})
            assert warm == _report(raw)
            del stems, ann, entry, raw
        assert len(store) == (40 if new_stems else 1)


_FIELDS = ("R", "C", "H")

# Two tables that differ only in stem 1: the group block parses to one entry,
# whose stabilization 2 is zero in Z/2 but not in Z/4, so Ker Gamma differs.
_STEM_CHAINS = [
    f"stem 0 1\ngen iota\nstem 1 0 {order}\ngen eta\ngroup 4 3 1\ngen b\nstab 1 2\n"
    for order in (2, 4)
]


def _chain_answers(raw, pairs):
    """Each kernel chain of a fresh SphereTables over raw, or the type and
    text of what it raised, at each (m, q) of pairs and each field."""
    tables = SphereTables(raw)
    answers = []
    for m, q in pairs:
        for tag in _FIELDS:
            try:
                answers.append(tables.kernel_chain(m, q, tag))
            except Exception as exc:  # a broken chain or a gap the chain refuses
                answers.append((type(exc), str(exc)))
    return answers


def _count_builds(monkeypatch) -> list:
    """The (m, q, field) of each chain built from here on."""
    built = []
    build = SphereTables._build_chain

    def counted(self, m, q, field_tag):
        built.append((m, q, field_tag))
        return build(self, m, q, field_tag)
    monkeypatch.setattr(SphereTables, "_build_chain", counted)
    return built


class TestChainStore:
    def test_a_cold_and_a_warm_store_give_the_same_chains(self, tables, table_text, monkeypatch):
        # The tables of test_partial_scans_match_pointwise_reports (one stab,
        # gamma or prod line dropped; eta or nu renamed), a shifted product,
        # the two stem edits, and tables built by hand that share the second
        # one's stems and entries but not its stem generators' names, or that
        # hold its stem 1 at degree 2: every chain of kernel_chain_cases and
        # of each table's own entries.
        pairs = sorted({(m, sp.q) for sp, m in kernel_chain_cases(tables)})
        lines = table_text.splitlines(keepends=True)
        texts = ["".join(lines[:i] + lines[i + 1:]) for i, line in enumerate(lines)
                 if line.split(" ")[0] in ("stab", "gamma", "prod")]
        for hopf in ("eta", "nu"):
            texts.append(re.sub(
                r"^(gen|prod) .*$", lambda line: re.sub(rf"\b{hopf}\b", hopf + "1", line.group(0)),
                table_text, flags=re.M))
        product = "prod eta eta -> 2 1\n"
        assert product in table_text
        texts += [table_text.replace(product, "prod eta eta -> 2 0\n"), *_STEM_CHAINS]
        raws = [parse_tables(text) for text in texts]
        small = raws[-1]
        raws += [TableSet(dict(small.entries), small.stems, small.products, small.named, {"iota": 0}),
                 TableSet(dict(small.entries), {0: small.stems[0], 2: small.stems[1]},
                          small.products, small.named, small.stem_gen_degrees)]
        bundled = parse_tables(table_text)
        store = {}
        monkeypatch.setattr(spheres_module, "_CHAINS", store)
        asked = [sorted(set(pairs) | set(raw.entries)) for raw in raws]
        cold = []
        for raw, own in zip(raws, asked):
            store.clear()
            cold.append(_chain_answers(raw, own))
        # The edits each change a chain the others share.
        assert cold[-4] != cold[-3] != cold[-2] and cold[-3] != cold[-1]
        assert cold[-5] != _chain_answers(bundled, asked[-5])
        # The store is filled by the bundled table and every other table, in
        # one order and then in the other, before each table is asked.
        for order in (list(range(len(raws))), list(range(len(raws)))[::-1]):
            store.clear()
            for raw, own in [(bundled, pairs), *((raws[i], asked[i]) for i in order)]:
                _chain_answers(raw, own)
            assert [_chain_answers(raws[i], asked[i]) for i in order] == [cold[i] for i in order]

    def test_a_chain_is_built_again_only_when_what_it_reads_changes(
        self, table_text, monkeypatch
    ):
        monkeypatch.setattr(spheres_module, "_CHAINS", {})
        built = _count_builds(monkeypatch)
        raw = parse_tables(table_text)
        pairs = sorted(key for key in raw.entries if key[1] >= 2) + [(q, q) for q in range(2, 8)]
        first = _chain_answers(raw, pairs)
        assert len(built) == len(first) == 3 * len(pairs)
        # A second session over the same TableSet, or over a new parse of the
        # same text, builds none.
        del built[:]
        assert _chain_answers(raw, pairs) == first and built == []
        assert _chain_answers(parse_tables(table_text), pairs) == first and built == []
        # One group block edited: only its entry's chains.  A chain does not
        # read the susp target, so pi_4(S^2)'s chains stay.
        group = "group 5 3 0 2\n"
        edited = table_text.replace(group + "src", group + "# edited\nsrc")
        assert edited != table_text
        assert _chain_answers(parse_tables(edited), pairs) == first
        assert built == [(5, 3, tag) for tag in _FIELDS]
        # A product row is read by every chain's Ker(h_K . E^inf).
        del built[:]
        product = "prod eta eta -> 2 1\n"
        _chain_answers(parse_tables(table_text.replace(product, "prod eta eta -> 2 0\n")), pairs)
        assert built == [(m, q, tag) for m, q in pairs for tag in _FIELDS]

    @pytest.mark.parametrize("new_stems", [False, True], ids=["entries", "stems"])
    def test_an_id_is_not_reused_while_its_key_is_stored(self, new_stems, monkeypatch):
        # Tables built by hand are in no parse store: each is dropped before
        # the next one, whose values may take its ids, is built.  Either the
        # entry is new with a stabilization that runs through 0, 1, 2 into
        # stem 1 = Z/4, or the stems are new with a stem 1 that runs through
        # Z/2, Z/4, Z/8 under one entry whose stabilization is 2: three
        # chains each, so ids that come back every second table show too.
        store = {}

        def stem_entries(order):
            return {0: StemEntry(0, FgAbGroup.free(1), ("iota",)),
                    1: StemEntry(1, FgAbGroup(0, (order,)), ("eta",))}

        def sphere_entry(stab):
            return SphereEntry(4, 3, FgAbGroup.free(1), ("b",), (GenAnnotations(stab=(stab,)),))
        shared_stems, shared_entry = stem_entries(4), sphere_entry(2)
        for c in range(40):
            if new_stems:
                stems, entry = stem_entries(2 ** (1 + c % 3)), shared_entry
            else:
                stems, entry = shared_stems, sphere_entry(c % 3)
            raw = TableSet({(4, 3): entry}, stems, stem_gen_degrees={"iota": 0, "eta": 1})
            monkeypatch.setattr(spheres_module, "_CHAINS", store)
            warm = _chain_answers(raw, [(4, 3)])
            monkeypatch.setattr(spheres_module, "_CHAINS", {})
            assert warm == _chain_answers(raw, [(4, 3)])
            del stems, entry, raw
        assert len(store) == (40 if new_stems else 1)

    def test_a_broken_chain_raises_on_a_warm_store(self, table_text, monkeypatch):
        # The table of test_broken_kernel_chain_exits_3 edits a group and a
        # product row; the store first holds the chains of the bundled table
        # and of each table with one of the two edits, whose chains are whole.
        edits = (("group 5 3 0 2\n", "group 5 3 0 4\n"),
                 ("prod eta eta2 -> 3 12\n", "prod eta eta2 -> 3 1\n"))

        def edited(*rows):
            text = table_text
            for row, bad in rows:
                assert text.count(row) == 1
                text = text.replace(row, bad)
            return parse_tables(text)
        monkeypatch.setattr(spheres_module, "_CHAINS", {})
        for raw in (parse_tables(table_text), edited(edits[0]), edited(edits[1])):
            answers = _chain_answers(raw, sorted(raw.entries))
            assert not any(isinstance(answer[0], type) for answer in answers)
        broken = edited(*edits)
        message = "kernel chain broken for K=C: Ker Gamma is not contained in Ker(h_K . E^inf)"
        for _session in range(2):
            tables = SphereTables(broken)
            for _ in range(2):
                with pytest.raises(SchemaError, match=re.escape(message)) as caught:
                    tables.kernel_chain(5, 3, "C")
                assert caught.value.path == "pi_5(S^3)"
