"""Unstable operations: suspension, stabilization, Gamma, antipode, kernels."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincalc.fgab import Cmp, FgAbError, FgAbGroup, subgroup_cmp
from coincalc.invariants import sphere_report
from coincalc.spheres import GammaValue, SphereTables, Unknown
from coincalc.stable import StableElement
from coincalc.tables import (
    GenAnnotations,
    OutOfTabulatedRange,
    SphereEntry,
    TableError,
    TableSet,
    map_target,
    parse_tables,
)


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

    def test_chain_makes_no_zero_component_values(self, tables):
        # A zero component adds no condition to Ker Gamma; its value is made
        # only when gamma() first needs it, then kept.
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
        # The memo lives on the instance: a bundled and a gapped table in one
        # process each answer as if it were alone, whichever asks first.
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
