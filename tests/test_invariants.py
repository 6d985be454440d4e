"""The decision core: reports, criteria, scans, Wecken status, chain."""

import itertools
import math
import random
import re

import pytest

from coincalc.fgab import FgAbError, GroupElement, InputError, Subgroup
from coincalc.invariants import (
    CIRCLE,
    INF,
    LIFT,
    M_ONE,
    SPHERE,
    Report,
    SCAN_KEYS,
    ScanResult,
    ScanVerdict,
    WeckenStatus,
    chain_check,
    dichotomy_check,
    equivalence_scan,
    fin,
    kervaire_exception,
    projective_report,
    route,
    sphere_report,
    unk,
    wecken_status,
)
from coincalc.projective import space
from coincalc.selfco import Verdict, fiber_projection_self_loose, self_loose
from coincalc.spheres import GammaValue, SphereClass, SphereTables, Unknown
from coincalc.stable import StableElement
from coincalc.tables import OutOfTabulatedRange, TableError, parse_tables


# n' <= 7 with 2 <= m <= 15, and HP(23) with 92 <= m <= 95: the first
# quaternionic target that passes the looseness gate (n' = 23 mod 24).
_CHAIN_RANGES = [(tag, n_prime, range(2, 16)) for tag in ("R", "C", "H")
                 for n_prime in range(1, 8)] + [("H", 23, range(92, 96))]


def kernel_chain_cases(tables):
    """(target, m) over _CHAIN_RANGES that equivalence_scan decides by
    comparing the kernels of the bundled table."""
    for tag, n_prime, ms in _CHAIN_RANGES:
        sp = space(tag, n_prime)
        for m in ms:
            try:
                way, loose = route(tables, sp, m)
                if way is not LIFT or loose.verdict is not Verdict.LOOSE:
                    continue
                tables.kernel_chain(m, sp.q, tag)
            except OutOfTabulatedRange:
                continue
            yield sp, m


def small_classes(tables, m, q):
    """Every class of pi_m(S^q) with free coordinates in -2..2."""
    group = tables.lookup(m, q).group
    ranges = [range(-2, 3)] * group.free_rank + [range(t) for t in group.torsion]
    return [tables.cls(m, q, c) for c in itertools.product(*ranges)]


def assert_clean(rep):
    ok, violations = chain_check(rep)
    assert ok, violations
    if rep.R.is_finite:
        assert not dichotomy_check(rep, rep.R.value), rep.render()
    return rep


class TestSphereClosedForms:
    def test_circle_degrees(self, tables):
        rep = sphere_report(tables, 1, 1, tables.cls(1, 1, [3]), tables.cls(1, 1, [5]))
        for name in ("MC", "MCC", "N_sharp", "N_tilde", "N_plain", "N_z"):
            assert getattr(rep, name) == fin(2)
        assert rep.R == fin(2)
        assert_clean(rep)

    @pytest.mark.parametrize("m, n", [(3.0, 2), (3, 2.0), (True, 1)])
    def test_a_degree_that_is_no_int_is_refused(self, tables, m, n):
        f = tables.zero(int(m), int(n))
        with pytest.raises(InputError, match=r"^[mn] must be an int, got "):
            sphere_report(tables, m, n, f, f)

    def test_circle_equal_degrees(self, tables):
        rep = sphere_report(tables, 1, 1, tables.cls(1, 1, [4]), tables.cls(1, 1, [4]))
        assert rep.MCC == fin(0) and rep.R == INF

    def test_circle_target_higher_domain(self, tables):
        rep = sphere_report(tables, 5, 1, tables.zero(5, 1), tables.zero(5, 1))
        assert rep.MCC == fin(0) and rep.MC == fin(0)

    def test_identity_pair_odd_sphere(self, tables):
        # f1 = f2 = iota on an odd sphere: the antipode is homotopic to the
        # identity, so the pair can be pushed apart.
        rep = sphere_report(tables, 5, 5, tables.cls(5, 5, [1]), tables.cls(5, 5, [1]))
        for name in ("MC", "MCC", "N_sharp", "N_tilde", "N_plain", "N_z"):
            assert getattr(rep, name) == fin(0)
        assert_clean(rep)

    def test_identity_pair_even_sphere(self, tables):
        # On an even sphere the identity cannot avoid itself: delta = 2 iota.
        rep = sphere_report(tables, 4, 4, tables.cls(4, 4, [1]), tables.cls(4, 4, [1]))
        for name in ("MC", "MCC", "N_sharp", "N_tilde", "N_plain", "N_z"):
            assert getattr(rep, name) == fin(1)
        assert_clean(rep)

    def test_equal_dimension_all_six_agree(self, tables):
        rng = random.Random(41)
        seen_nonzero = False
        for _ in range(10):
            m = rng.choice([2, 3, 4, 5, 7])
            d1, d2 = rng.randint(-4, 4), rng.randint(-4, 4)
            rep = sphere_report(tables, m, m, tables.cls(m, m, [d1]), tables.cls(m, m, [d2]))
            vals = {rep.MC, rep.MCC, rep.N_sharp, rep.N_tilde, rep.N_plain, rep.N_z}
            assert len(vals) == 1
            seen_nonzero = seen_nonzero or rep.MCC == fin(1)
            assert_clean(rep)
        assert seen_nonzero

    def test_whitehead_square_mc_infinite(self, tables):
        # [iota_2, iota_2] = 2 eta_2 is not a suspension: MC is infinite.
        rep = sphere_report(tables, 3, 2, tables.named("whitehead2"), tables.zero(3, 2))
        assert rep.MC == INF and rep.MCC == fin(1)
        assert_clean(rep)

    def test_whitehead_5_splits_sharp_from_tilde(self, tables):
        rep = sphere_report(tables, 9, 5, tables.whitehead(5), tables.zero(9, 5))
        assert rep.N_sharp == fin(1) and rep.MCC == fin(1)
        assert rep.N_tilde == fin(0) and rep.N_plain == fin(0)
        assert_clean(rep)

    def test_hp1_hopf_multiple(self, tables):
        rep = sphere_report(tables, 7, 4, tables.named("hopfH").scale(24), tables.zero(7, 4))
        assert rep.N_tilde == fin(1) and rep.N_plain == fin(0)
        assert_clean(rep)

    def test_input_groups_checked(self, tables):
        with pytest.raises(FgAbError):
            sphere_report(tables, 4, 3, tables.zero(4, 2), tables.zero(4, 3))


class TestSymmetryAndTranslation:
    def test_sharp_and_tilde_symmetric_in_the_constant(self, tables):
        for cls in (tables.named("hopfC"), tables.named("whitehead2")):
            left = sphere_report(tables, 3, 2, cls, tables.zero(3, 2))
            right = sphere_report(tables, 3, 2, tables.zero(3, 2), cls)
            assert left.N_sharp == right.N_sharp
            assert left.N_tilde == right.N_tilde

    def test_sphere_reports_symmetric_everywhere(self, tables):
        # N(f1, f2) = N(f2, f1) for every invariant: over every tabulated
        # pi_m(S^q), all pairs of classes with free coordinates in -2..2.
        pairs = 0
        for m, q in sorted(tables.raw.entries):
            classes = small_classes(tables, m, q)
            for i, f1 in enumerate(classes):
                for f2 in classes[i:]:
                    left = sphere_report(tables, m, q, f1, f2).values()
                    right = sphere_report(tables, m, q, f2, f1).values()
                    assert left == right, (m, q, f1.value, f2.value)
                    pairs += 2 if f1 != f2 else 1
        assert pairs == 4552

    def test_projective_reports_symmetric_and_translation_invariant(self, tables):
        # Every tabulated lift group pi_m(S^q) of a KP(n') with n > 1 and a
        # valid lift decomposition, all pairs of lifts with free coordinates
        # in -2..2: swapping the lifts, or adding -lift1 to both, changes no
        # value.  Looseness is assumed, so that no pair is withheld.
        cases = pairs = 0
        for m, q in sorted(tables.raw.entries):
            for tag, d in (("R", 1), ("C", 2), ("H", 4)):
                n_prime = (q + 1) // d - 1
                if (q + 1) % d or n_prime < 1:
                    continue
                sp = space(tag, n_prime)
                if route(tables, sp, m)[0] is not LIFT:
                    continue
                cases += 1
                classes = small_classes(tables, m, q)

                def values(f1, f2):
                    return projective_report(
                        tables, sp, m, f1, f2, assume_self_loose=True
                    ).values()

                for i, f1 in enumerate(classes):
                    for f2 in classes[i:]:
                        value, where = values(f1, f2), (sp.name, m, f1.value, f2.value)
                        assert values(f2, f1) == value, where
                        assert values(f1 - f1, f2 - f1) == value, where
                        pairs += 1
        assert (cases, pairs) == (28, 2749)

    def test_translation_invariance(self, tables):
        sp = space("R", 2)
        rng = random.Random(13)
        for _ in range(10):
            x = tables.cls(3, 2, [rng.randint(-3, 3)])
            y = tables.cls(3, 2, [rng.randint(-3, 3)])
            a = projective_report(tables, sp, 3, x, y)
            b = projective_report(tables, sp, 3, tables.zero(3, 2), y - x)
            assert a.values() == b.values()

    def test_rp2_factor_two_at_every_tabulated_m(self, tables):
        # Lifted Nielsen numbers double the spherical ones on RP(2).
        sp = space("R", 2)
        rng = random.Random(29)
        for m in range(3, 10):
            rank = tables.lookup(m, 2).group.rank
            for _ in range(4):
                x = tables.cls(m, 2, [rng.randint(-6, 6) for _ in range(rank)])
                y = tables.cls(m, 2, [rng.randint(-6, 6) for _ in range(rank)])
                lifted = projective_report(tables, sp, m, x, y)
                spherical = sphere_report(tables, m, 2, x, y)
                assert lifted.N_sharp.value == 2 * spherical.N_sharp.value
                assert lifted.N_tilde.value == 2 * spherical.N_tilde.value
                # On RP(2) the two weakest counts agree at every m.
                assert lifted.N_plain == lifted.N_z


class TestProjectiveReports:
    def test_rp2_hopf_chain(self, tables):
        rep = projective_report(tables, space("R", 2), 3, tables.named("hopfC"), tables.zero(3, 2))
        assert (rep.N_sharp, rep.N_tilde, rep.N_plain, rep.N_z) == (
            fin(2), fin(2), fin(0), fin(0),
        )
        assert rep.R == fin(2)
        assert_clean(rep)

    def test_equal_lifts_vanish(self, tables):
        h = tables.named("hopfC")
        rep = projective_report(tables, space("R", 2), 3, h, h)
        for name in ("MC", "MCC", "N_sharp", "N_tilde", "N_plain", "N_z"):
            assert getattr(rep, name) == fin(0)

    def test_cp1_routes_through_the_lift_criteria(self, tables):
        rep = projective_report(
            tables, space("C", 1), 4, tables.cls(4, 3, [1]), tables.zero(4, 3)
        )
        assert rep.N_sharp == rep.N_tilde == rep.N_plain == fin(1)
        assert rep.N_z == fin(0)
        assert_clean(rep)

    def test_hp1_routes_through_the_sphere(self, tables):
        rep = projective_report(
            tables, space("H", 1), 7, tables.cls(7, 4, [24, 0]), tables.zero(7, 4)
        )
        assert rep.N_tilde == fin(1) and rep.N_plain == fin(0)
        assert "S^4" in rep.target
        assert_clean(rep)

    def test_rp1_is_all_zero(self, tables):
        rep = projective_report(tables, space("R", 1), 5, None, None)
        assert rep.MCC == fin(0) and rep.R == fin(1)

    def test_hypothesis_gate(self, tables):
        # CP(2): n' even, not covered by the congruence region.
        sp = space("C", 2)
        x = tables.generator(6, 5, "eta_5")
        rep = projective_report(tables, sp, 6, x, tables.zero(6, 5))
        assert rep.MCC.is_unknown and rep.N_sharp.is_unknown
        assert rep.R == fin(1)
        forced = projective_report(tables, sp, 6, x, tables.zero(6, 5), assume_self_loose=True)
        assert forced.MCC == fin(1)
        assert any("ASSUMED" in note for note in forced.hypothesis_notes)

    def test_gate_passes_for_trivial_pair(self, tables):
        # Even without the looseness criteria, two nullhomotopic maps are loose.
        sp = space("C", 2)
        rep = projective_report(tables, sp, 6, tables.zero(6, 5), tables.zero(6, 5))
        assert rep.MCC == fin(0)

    def test_domain_must_be_simply_connected(self, tables):
        with pytest.raises(FgAbError):
            projective_report(tables, space("R", 2), 1, None, None)

    def test_inputs_must_be_lifts_in_pi_m_of_s_q(self, tables):
        sp = space("R", 2)  # q = 2
        hopf = tables.named("hopfC")
        for bad in (tables.zero(4, 2), tables.zero(3, 3), hopf.value, 1):
            with pytest.raises(FgAbError):
                projective_report(tables, sp, 3, bad, hopf)
            with pytest.raises(FgAbError):
                projective_report(tables, sp, 3, hopf, bad)


# The pointwise values each scan relation compares.
_RELATION_VALUES = {
    "nsharp_eq_ntilde": ("N_sharp", "N_tilde"),
    "ntilde_eq_n": ("N_tilde", "N_plain"),
    "n_eq_zero": ("N_plain",),
    "n_eq_nz": ("N_plain", "N_z"),
}


def _assert_scan_agrees(tables, sp, m):
    """The scan at m, once each relation it decides is checked against the
    projective reports of (x, 0), x over the group of the classes (the lift
    group, or pi_m(S^n) on the sphere route): the values the relation compares
    are known for every x, and it holds exactly when they agree (N == 0: when
    N is 0) for every x.  NZ == 0 is checked likewise."""
    q = sp.n if route(tables, sp, m)[0] is SPHERE else sp.q
    group = tables.lookup(m, q).group
    if group.is_finite:
        lifts = [SphereClass(m, q, x) for x in group.elements()]
    else:
        assert str(group) == "Z"
        lifts = [tables.cls(m, q, [c]) for c in range(-24, 25)]
    zero = tables.zero(m, q)
    reps = [projective_report(tables, sp, m, x, zero) for x in lifts]
    scan = equivalence_scan(tables, sp, m)
    for key, names in _RELATION_VALUES.items():
        verdict = scan.verdicts[key][0]
        if verdict is ScanVerdict.UNKNOWN:
            continue
        values = [[getattr(r, name) for name in names] for r in reps]
        assert not any(v.is_unknown for row in values for v in row), (sp.name, m, key)
        holds = all(row[0] == (row[1] if len(row) == 2 else fin(0)) for row in values)
        assert verdict is (ScanVerdict.HOLDS if holds else ScanVerdict.FAILS), (sp.name, m, key)
    assert scan.nz_vanishes == all(r.N_z == fin(0) for r in reps), (sp.name, m)
    return scan


_GATE_REASONS = ("lift decomposition invalid", "self-coincidence looseness not established")


class TestRoute:
    def test_census_over_the_scan_survey(self, tables):
        # The queries of the scan golden dump: R n' <= 12, C n' <= 6,
        # H n' <= 4 and 1 <= m <= 21.  HP(1) has no lift decomposition at
        # m = 4 ... 10, and past m = 10 its correction group pi_{m-1}(S^3) is
        # not tabulated.  Every scan the gate withholds carries the reason of
        # its route, and no other scan is withheld.
        counts: dict[str, int] = {}
        withheld_scans = 0
        for tag, top in (("R", 12), ("C", 6), ("H", 4)):
            for n_prime in range(1, top + 1):
                sp = space(tag, n_prime)
                for m in range(1, 22):
                    try:
                        way, loose = route(tables, sp, m)
                    except OutOfTabulatedRange as exc:
                        assert (sp.name, str(exc)) == ("HP(1)", f"pi_{m - 1}(S^3) is not tabulated")
                        kind, reason = "raises", None
                    else:
                        kind, reason = way, None
                        if way is SPHERE and m != sp.n:
                            kind = "sphere, withheld"
                            reason = Unknown(f"lift decomposition invalid for {sp} at m = {m}")
                        elif way is LIFT:
                            kind = f"lift, {loose.verdict.value}"
                            if loose.verdict is not Verdict.LOOSE:
                                reason = Unknown("self-coincidence looseness not established: "
                                                 f"{loose.reason}", loose.reason)
                    counts[kind] = counts.get(kind, 0) + 1
                    if kind == "raises":
                        continue
                    try:
                        scan = equivalence_scan(tables, sp, m)
                    except OutOfTabulatedRange:
                        assert way is LIFT and reason is None
                        continue
                    if reason:
                        assert scan.verdicts == {k: (ScanVerdict.UNKNOWN, reason) for k in SCAN_KEYS}
                        assert scan.nz_vanishes is None
                        withheld_scans += 1
                    else:
                        assert not any(str(w).startswith(_GATE_REASONS)
                                       for _v, w in scan.verdicts.values())
        assert counts == {
            CIRCLE: 21, M_ONE: 21, SPHERE: 2, "sphere, withheld": 6,
            "lift, loose": 178, "lift, unknown": 223, "raises": 11,
        }
        assert withheld_scans == 229

    @pytest.mark.parametrize("m", [0, -3])
    def test_raises_below_m_1(self, tables, m):
        with pytest.raises(InputError, match=r"^m >= 1 required$"):
            route(tables, space("C", 2), m)


class TestEquivalenceScan:
    def test_cp1_rows(self, tables):
        sp = space("C", 1)
        want = {
            2: "N# == N~ == N == NZ != 0",
            3: "N# == N~ != N != NZ == 0",
            4: "N# == N~ == N != NZ == 0",
            5: "N# == N~ == N != NZ == 0",
            6: "N# == N~ != N == NZ == 0",
            7: "N# == N~ != N == NZ == 0",
            8: "N# == N~ != N == NZ == 0",
            9: "N# != N~ == N == NZ == 0",
        }
        for m, pattern in want.items():
            assert equivalence_scan(tables, sp, m).pattern() == pattern, m

    def test_rp2_keeps_n_equal_nz(self, tables):
        sp = space("R", 2)
        for m in range(3, 10):
            scan = equivalence_scan(tables, sp, m)
            assert scan.verdicts["n_eq_nz"][0] is ScanVerdict.HOLDS, m
            assert scan.verdicts["n_eq_zero"][0] is ScanVerdict.HOLDS, m

    def test_sphere_route_at_m_equal_n_matches_pointwise_reports(self, tables):
        # CP(1) = S^2 at m = 2 and HP(1) = S^4 at m = 4: classes live in
        # pi_n(S^n) = Z, and N = 1 for every c . iota with c != 0.
        for sp, m in ((space("C", 1), 2), (space("H", 1), 4)):
            scan = _assert_scan_agrees(tables, sp, m)
            assert [v for v, _w in scan.verdicts.values()].count(ScanVerdict.FAILS) == 1
            assert scan.verdicts["n_eq_zero"][0] is ScanVerdict.FAILS

    def test_scan_matches_pointwise_reports(self, tables):
        # Oracle equivalence over the whole tabulated range: each report of
        # (x, 0) depends on the pair only through delta = x, so running x over
        # the lift group (the multiples |c| <= 24 of the generator of a Z)
        # covers every pair the scan speaks about.
        cases = list(kernel_chain_cases(tables))
        groups = [tables.lookup(m, sp.q).group for sp, m in cases]
        assert len(cases) == 69
        assert sum(1 for g in groups if not g.is_finite) == 9
        assert sum(math.prod(g.torsion) for g in groups if g.is_finite) == 136
        for sp, m in cases:
            scan = _assert_scan_agrees(tables, sp, m)
            assert ScanVerdict.UNKNOWN not in [v for v, _w in scan.verdicts.values()]

    def test_partial_scans_match_pointwise_reports(self, tables, table_text):
        # Each table with one stab, gamma or prod line dropped, and the tables
        # without the Hopf class eta or nu (its stem generator renamed in its
        # gen and prod lines), at every case of the bundled range whose chain
        # has a gap: every relation the scan still decides agrees with the
        # pointwise reports, and each needed pointwise value is known for
        # every delta, so a known kernel gives known values.  The counts are
        # (gapped chains, with Ker Gamma known, with Ker(h . E^inf) known,
        # relations decided, relations unknown).
        cases = list(kernel_chain_cases(tables))
        lines = table_text.splitlines(keepends=True)
        texts = ["".join(lines[:i] + lines[i + 1:]) for i, line in enumerate(lines)
                 if line.split(" ")[0] in ("stab", "gamma", "prod")]
        for hopf in ("eta", "nu"):
            texts.append(re.sub(
                r"^(gen|prod) .*$", lambda line: re.sub(rf"\b{hopf}\b", hopf + "1", line.group(0)),
                table_text, flags=re.M))
        counts = [0] * 5
        for text in texts:
            gapped = SphereTables(parse_tables(text))
            for sp, m in cases:
                kg, kh, _whole = gapped.kernel_chain(m, sp.q, sp.field.tag)
                if not (isinstance(kg, Unknown) or isinstance(kh, Unknown)):
                    continue
                scan = _assert_scan_agrees(gapped, sp, m)
                verdicts = [v for v, _w in scan.verdicts.values()]
                unknown = verdicts.count(ScanVerdict.UNKNOWN)
                for j, n in enumerate((1, not isinstance(kg, Unknown), not isinstance(kh, Unknown),
                                       len(verdicts) - unknown, unknown)):
                    counts[j] += n
        # Without eta, the ten CP(n') chains of this range have Ker(h . E^inf)
        # unknown; without nu, so has HP(23) at m = 95, where pi_95(S^95) = Z.
        assert counts == [68, 13, 40, 93, 179]

    def test_scan_unknown_on_table_gap(self, table_text):
        # A gamma k=2 gap blocks Ker Gamma only: the relations that read it
        # are unknown with its reason, and Ker(h . E^inf) still decides N == 0.
        gapped = SphereTables(parse_tables(table_text.replace("gamma 2 3 14\n", "")))
        scan = equivalence_scan(gapped, space("R", 2), 6)
        gap = (ScanVerdict.UNKNOWN,
               Unknown("gamma k=2 of generator eta_2_nu_p of pi_6(S^2) is not annotated"))
        assert scan.verdicts["nsharp_eq_ntilde"][1] is gapped.kernel_chain(6, 2, "R")[0]
        # A decided witness keeps the subgroups it names; it is read as text.
        texts = {k: (v, w if isinstance(w, Unknown) else str(w))
                 for k, (v, w) in scan.verdicts.items()}
        assert texts == {
            "nsharp_eq_ntilde": gap,
            "ntilde_eq_n": gap,
            "n_eq_zero": (ScanVerdict.HOLDS, "Ker(h . E^inf) = <(1)> vs whole = <(1)>"),
            "n_eq_nz": (ScanVerdict.HOLDS,
                        "m != n: NZ vanishes identically, so N == NZ iff N == 0"),
        }
        assert scan.nz_vanishes is True
        assert scan.pattern() == "N# ?? N~ ?? N == NZ == 0"

    def test_scan_unknown_when_hypotheses_fail(self, tables):
        scan = equivalence_scan(tables, space("C", 2), 6)
        assert all(v is ScanVerdict.UNKNOWN for v, _w in scan.verdicts.values())


def _eta2(ts):
    return ts.generator(3, 2, "eta_2")


# One dropped table line per annotation kind: (kept text, text after the
# drop, [(probe, the exact text its Unknown prints, None or the query whose
# very Unknown it must be)]).  A probe past the first reads an Unknown that
# either passes through unchanged or restates another as its cause.  The
# product probe's query reads what the last StableRing.multiply returned.
_GAPS = {
    "susp": (
        "gen eta_2\nsusp 1\n",
        "gen eta_2\n",
        [(lambda ts: ts.suspend(_eta2(ts)),
          "suspension of generator eta_2 of pi_3(S^2) is not annotated", None),
         (lambda ts: sphere_report(
             ts, 4, 3, ts.generator(4, 3, "eta_3"), ts.zero(4, 3)).MC.reason.cause,
          "suspension of generator eta_2 of pi_3(S^2) is not annotated",
          lambda ts: ts.suspend(_eta2(ts)))],
    ),
    "antip": (
        "gamma 2 0 1\nantip 1\n",
        "gamma 2 0 1\n",
        [(lambda ts: ts.antipodal_compose(_eta2(ts)),
          "antipodal action on generator eta_2 of pi_3(S^2) is not annotated", None),
         (lambda ts: sphere_report(ts, 3, 2, ts.zero(3, 2), _eta2(ts)).N_plain.reason,
          "antipodal action on generator eta_2 of pi_3(S^2) is not annotated",
          lambda ts: ts.antipodal_compose(_eta2(ts)))],
    ),
    "stab": (
        "gen eta_2\nsusp 1\nstab 1 1\n",
        "gen eta_2\nsusp 1\n",
        [(lambda ts: ts.stabilize(_eta2(ts)),
          "stabilization of generator eta_2 of pi_3(S^2) is not annotated", None),
         (lambda ts: ts.gamma(_eta2(ts)).component(1),
          "stabilization of generator eta_2 of pi_3(S^2) is not annotated",
          lambda ts: ts.stabilize(_eta2(ts))),
         (lambda ts: projective_report(
             ts, space("R", 2), 3, _eta2(ts), ts.zero(3, 2)).N_plain.reason,
          "stabilization of generator eta_2 of pi_3(S^2) is not annotated",
          lambda ts: ts.stabilize(_eta2(ts)))],
    ),
    "gamma": (
        "gamma 2 6 0\n",
        "",
        [(lambda ts: ts.gamma(ts.generator(9, 2, "eta_2_alpha")).component(2),
          "gamma k=2 of generator eta_2_alpha of pi_9(S^2) is not annotated", None),
         (lambda ts: projective_report(
             ts, space("R", 2), 9, ts.generator(9, 2, "eta_2_alpha"), ts.zero(9, 2)
         ).N_tilde.reason,
          "Gamma undetermined: k=1: (0) in pi_7^S; k=2: unknown (gamma k=2 of "
          "generator eta_2_alpha of pi_9(S^2) is not annotated); k=3: () in "
          "pi_5^S; k=4: () in pi_4^S; k=5: (0) in pi_3^S; k=6: (0) in pi_2^S; "
          "k=7: (0) in pi_1^S; k=8: (0) in pi_0^S", None),
         (lambda ts: projective_report(
             ts, space("R", 2), 9, ts.generator(9, 2, "eta_2_alpha"), ts.zero(9, 2)
         ).N_tilde.reason.cause,
          "gamma k=2 of generator eta_2_alpha of pi_9(S^2) is not annotated",
          lambda ts: ts.gamma(ts.generator(9, 2, "eta_2_alpha")).component(2))],
    ),
    "prod": (
        "prod eta eta -> 2 1\n",
        "",
        [(lambda ts: ts.ring.multiply(ts.ring.named("eta"), ts.ring.named("eta")),
          "product eta * eta (degrees 1+1) not tabulated", None),
         (lambda ts: projective_report(
             ts, space("C", 2), 6, ts.cls(6, 5, [1]), ts.zero(6, 5),
             assume_self_loose=True,
         ).N_plain.reason,
          "product eta * eta (degrees 1+1) not tabulated",
          lambda ts: ts.ring.products[-1])],
    ),
}


@pytest.mark.parametrize("kind", sorted(_GAPS))
def test_unknown_reason_for_each_dropped_line(table_text, kind):
    kept, dropped, probes = _GAPS[kind]
    assert table_text.count(kept) == 1
    gapped = SphereTables(parse_tables(table_text.replace(kept, dropped)))
    ring, products = gapped.ring, []
    multiply = ring.multiply

    def recording_multiply(a, b):
        products.append(multiply(a, b))
        return products[-1]

    ring.multiply, ring.products = recording_multiply, products
    for probe, text, query in probes:
        got = probe(gapped)
        assert isinstance(got, Unknown) and str(got) == text
        if query is not None:
            assert got is query(gapped)


_MEMBERSHIP = "suspension image membership undetermined"


def _cause_chain(u) -> list[str]:
    """The texts along u's .cause links, after checking that each link is an
    Unknown, that each one with a cause restates it (the Gamma and looseness
    lines print the cause's text; the membership line prints none, so its
    caller checks the cause), and that the last restates nothing."""
    texts = [str(u)]
    while isinstance(u, Unknown) and u.cause is not None:
        text, cause = u.reason, str(u.cause)
        assert (text == _MEMBERSHIP
                or text.startswith("Gamma undetermined: ") and f"unknown ({cause})" in text
                or text in (f"looseness of (f1, f1) not established: {cause}",
                            f"self-coincidence looseness not established: {cause}")), text
        u = u.cause
        texts.append(cause)
        assert len(texts) <= 3
    assert isinstance(u, Unknown), u
    assert not u.reason.startswith(("Gamma undetermined", "looseness", "self-coincidence"))
    assert u.reason != _MEMBERSHIP
    return texts


@pytest.mark.parametrize("gap", [None, *sorted(_GAPS)])
def test_every_undecided_answer_holds_its_cause(table_text, gap):
    # Over the survey range (R n' <= 12, C n' <= 6, H n' <= 4, m <= 21), on
    # the bundled table and on each table of _GAPS, every undecided report
    # value, scan relation and looseness verdict holds an Unknown, and its
    # .cause links end at the Unknown of a table gap or of a gate (see
    # _cause_chain).  The membership line's cause is the very Unknown that
    # suspension_image_contains gives for the report's difference class.
    text = table_text if gap is None else table_text.replace(*_GAPS[gap][:2])
    ts = SphereTables(parse_tables(text))
    heads = set()

    def check(u):
        texts = _cause_chain(u)
        heads.add(texts[0].split(":")[0] if len(texts) > 1 else "table or gate")

    for tag, top in (("R", 12), ("C", 6), ("H", 4)):
        for n_prime in range(1, top + 1):
            sp = space(tag, n_prime)
            q = sp.q
            for m in range(2, 22):
                loose = self_loose(tag, m, n_prime)
                if loose.verdict is Verdict.UNKNOWN:
                    check(loose.reason)
                try:
                    scan = equivalence_scan(ts, sp, m)
                    rank = ts.lookup(m, q).group.rank
                except OutOfTabulatedRange:
                    continue
                for verdict, witness in scan.verdicts.values():
                    if verdict is ScanVerdict.UNKNOWN:
                        check(witness)
                zero = (0,) * rank
                units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
                for c in units + [(1,) * rank]:
                    for c1, c2 in ((c, zero), (zero, c)):
                        f1, f2 = ts.cls(m, q, c1), ts.cls(m, q, c2)
                        reports = [sphere_report(ts, m, q, f1, f2)]
                        for assume in (False, True):
                            try:
                                reports.append(projective_report(ts, sp, m, f1, f2, assume))
                            except (FgAbError, TableError):
                                pass  # a KP(1) = S^n whose inputs live in pi_m(S^n)
                        for value in (v for rep in reports for v in rep.values().values()):
                            if value.is_unknown:
                                check(value.reason)
                        mc = reports[0].MC
                        if mc.is_unknown and str(mc.reason) == _MEMBERSHIP:
                            delta = f1 - ts.antipodal_compose(f2)
                            assert mc.reason.cause is ts.suspension_image_contains(m, q, delta)
    # Only the dropped gamma row leaves Gamma undecided on these classes.
    restated = {"looseness of (f1, f1) not established", _MEMBERSHIP,
                "self-coincidence looseness not established"}
    if gap == "gamma":
        restated.add("Gamma undetermined")
    assert heads == {"table or gate", *restated}


def _answer(ask):
    """A report's dict (a scan as it is), or the type and text of what asking
    raised."""
    try:
        answer = ask()
    except (FgAbError, TableError) as exc:
        return type(exc).__name__, str(exc)
    return answer if isinstance(answer, ScanResult) else answer.to_dict()


@pytest.mark.parametrize("gap", [None, "susp"])
def test_kept_lookups_and_images_answer_as_fresh_tables(table_text, gap):
    # One long-lived SphereTables keeps entries, map columns, suspension
    # images and chains across queries; a fresh instance per query keeps
    # nothing.  Over the survey range (R n' <= 12, C n' <= 6, H n' <= 4,
    # m <= 21) both give the same equivalence scan at every (K, n', m), the
    # same values and derivation lines for every pair of a few classes (zero,
    # each generator, the sum of all and its double), and at the end the same
    # validate() report.  Both tables leave suspension-image membership
    # undecided, the one without the susp row of eta_2 also from pi_3(S^2).
    text = table_text if gap is None else table_text.replace(*_GAPS[gap][:2])
    raw = parse_tables(text)
    kept = SphereTables(raw)
    sphere_groups = set()
    asked = untabulated = scans = 0
    derivations = []
    for tag, top in (("R", 12), ("C", 6), ("H", 4)):
        for n_prime in range(1, top + 1):
            sp = space(tag, n_prime)
            q = sp.q
            for m in range(2, 22):
                scan = _answer(lambda: equivalence_scan(kept, sp, m))
                assert scan == _answer(lambda: equivalence_scan(SphereTables(raw), sp, m)), (sp, m)
                scans += isinstance(scan, ScanResult)
                try:
                    rank = kept.lookup(m, q).group.rank
                except OutOfTabulatedRange:
                    with pytest.raises(OutOfTabulatedRange):
                        kept.lookup(m, q)  # raised again, never kept
                    untabulated += 1
                    continue
                units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
                vectors = [(0,) * rank, *units, (1,) * rank, (2,) * rank]
                ask_sphere = (m, q) not in sphere_groups
                sphere_groups.add((m, q))
                for c1, c2 in itertools.product(vectors, repeat=2):
                    asks = [lambda ts: projective_report(
                        ts, sp, m, ts.cls(m, q, c1), ts.cls(m, q, c2), assume_self_loose=True)]
                    if ask_sphere:
                        asks.append(lambda ts: sphere_report(
                            ts, m, q, ts.cls(m, q, c1), ts.cls(m, q, c2)))
                    for ask in asks:
                        answer = _answer(lambda: ask(kept))
                        assert answer == _answer(lambda: ask(SphereTables(raw))), (sp, m, c1, c2)
                        if isinstance(answer, dict):
                            derivations += answer["derivation"]
                        asked += 1
    assert untabulated > 200 and asked > 3000 and scans > 300
    assert kept.validate() == SphereTables(raw).validate()
    assert "delta in E(pi_8(S^4))? unknown" in derivations
    assert ("delta in E(pi_3(S^2))? unknown" in derivations) == (gap == "susp")


def _survey_answers(ts):
    """Over the survey range (R n' <= 12, C n' <= 6, H n' <= 4, m <= 21):
    every equivalence scan, and the sphere and projective reports (with and
    without assumed looseness) of each pair of zero, each generator and
    their sum, as computed and not yet printed."""
    answers = []
    for tag, top in (("R", 12), ("C", 6), ("H", 4)):
        for n_prime in range(1, top + 1):
            sp = space(tag, n_prime)
            q = sp.q
            for m in range(1, 22):
                try:
                    answers.append(equivalence_scan(ts, sp, m))
                    rank = ts.lookup(m, q).group.rank
                except OutOfTabulatedRange:
                    continue
                units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
                vectors = [(0,) * rank, *units, (1,) * rank]
                for c1, c2 in itertools.product(vectors, repeat=2):
                    f1, f2 = ts.cls(m, q, c1), ts.cls(m, q, c2)
                    answers.append(sphere_report(ts, m, q, f1, f2))
                    for assume in (False, True) if m >= 2 else ():
                        try:
                            answers.append(projective_report(ts, sp, m, f1, f2, assume))
                        except (FgAbError, TableError):
                            pass  # a KP(1) = S^n whose inputs live in pi_m(S^n)
    return answers


def _printed(answer):
    """All the text of a report or a scan."""
    if isinstance(answer, ScanResult):
        return answer.row(), [str(w) for _v, w in answer.verdicts.values()]
    return answer.render(), answer.to_dict()


def test_computing_formats_no_value(table_text, monkeypatch):
    # Reports and scans keep the values their text names: while they are
    # computed, no group element, subgroup, stable element or Gamma value is
    # formatted.  Printed afterwards, they read as those of a run in which
    # formatting was allowed throughout.
    raw = parse_tables(table_text)

    def refuse(value):
        raise AssertionError(f"{type(value).__name__} formatted while computing")

    with monkeypatch.context() as patch:
        for cls in (GroupElement, Subgroup, StableElement, GammaValue):
            patch.setattr(cls, "__str__", refuse)
        computed = _survey_answers(SphereTables(raw))
    plain = _survey_answers(SphereTables(raw))
    assert len(computed) == len(plain) > 3000
    assert sum(isinstance(a, ScanResult) for a in computed) > 300
    for lazy, eager in zip(computed, plain):
        assert _printed(lazy) == _printed(eager)


def test_short_form_of_each_value(tables):
    # The seven values as 'R,MC,MCC,N#,N~,N,NZ', the form the benchmark
    # records for a report.
    rep = sphere_report(tables, 3, 2, tables.named("hopfC"), tables.zero(3, 2))
    assert ",".join(v.short() for v in rep.values().values()) == "1,inf,1,1,1,1,0"
    assert unk(Unknown("gap")).short() == "?"


class TestChainCheck:
    @pytest.mark.parametrize("n, values, violations", [
        (3, (fin(3), fin(3), fin(0), fin(0), fin(0), fin(0)), ["MCC = 3 exceeds R = 1"]),
        (2, (fin(3), fin(3), fin(0), fin(0), fin(0), fin(0)), ["MCC = 3 exceeds R = 1"]),
        (3, (fin(0),) * 5 + (fin(-1),), ["negative invariant"]),
        (3, (INF, fin(1), fin(1), fin(1), fin(1), INF),
         [f"{name} = 1 < N_z = infinite" for name in ("MCC", "N_sharp", "N_tilde", "N_plain")]),
    ], ids=["above-R", "above-R-at-n-2", "negative", "infinite-NZ"])
    def test_each_failing_branch(self, n, values, violations):
        rep = Report(f"S^{n}", 5, n, "", fin(1), *values)
        assert chain_check(rep) == (False, violations)

    def test_injected_violation(self, tables):
        rep = sphere_report(tables, 9, 5, tables.whitehead(5), tables.zero(9, 5))
        rep.N_tilde = fin(1)
        rep.N_sharp = fin(0)
        ok, violations = chain_check(rep)
        assert not ok and violations

    def test_all_unknown_passes_vacuously(self, tables):
        rep = sphere_report(tables, 9, 5, tables.whitehead(5), tables.zero(9, 5))
        for name in ("MC", "MCC", "N_sharp", "N_tilde", "N_plain", "N_z"):
            setattr(rep, name, unk("forced"))
        ok, violations = chain_check(rep)
        assert ok and not violations


class TestWecken:
    def test_kervaire_witness(self, tables):
        rep = kervaire_exception("R", 16, 30)
        assert rep is not None
        assert rep.R == fin(2) and rep.MCC == fin(1) and rep.N_sharp == fin(0)
        assert rep.non_wecken
        ok, violations = chain_check(rep)
        assert ok, violations
        # The {0, R} dichotomy genuinely fails here; that is the point.
        assert dichotomy_check(rep, 2)

    def test_non_wecken_is_read_from_mcc_and_nsharp(self, tables):
        witness = kervaire_exception("R", 16, 30)
        assert witness.to_dict()["non_wecken"] is True
        assert "  non-Wecken: MCC differs from N#" in witness.render().splitlines()
        rep = sphere_report(tables, 9, 5, tables.whitehead(5), tables.zero(9, 5))
        assert rep.MCC == rep.N_sharp == fin(1) and not rep.non_wecken
        rep.N_sharp = fin(0)
        assert rep.non_wecken
        gap, other = unk(Unknown("gap a")), unk(Unknown("gap b"))
        for mcc, n_sharp in ((gap, fin(0)), (fin(1), gap), (gap, gap), (gap, other)):
            rep.MCC, rep.N_sharp = mcc, n_sharp
            assert not rep.non_wecken and rep.to_dict()["non_wecken"] is False
            assert "non-Wecken" not in rep.render()
        # A flag, not a field: neither stored nor passed.
        assert "non_wecken" not in Report.__slots__
        with pytest.raises(AttributeError):
            rep.non_wecken = True
        with pytest.raises(TypeError):
            Report("S^5", 9, 5, "", *(fin(1),) * 7, non_wecken=True)

    def test_kervaire_non_cases(self):
        assert kervaire_exception("R", 16, 29) is None
        assert kervaire_exception("R", 128, 254) is None
        assert kervaire_exception("C", 16, 30) is None

    def test_status_values(self, tables):
        assert wecken_status(space("R", 16), 30).status is WeckenStatus.FAILS_WITH_WITNESS
        assert wecken_status(space("C", 3), 8).status is WeckenStatus.HOLDS
        assert wecken_status(space("H", 23), 9).status is WeckenStatus.HOLDS
        answer = wecken_status(space("H", 2), 12)
        assert answer.status is WeckenStatus.UNKNOWN
        assert "open question" in answer.reason

    @pytest.mark.parametrize("tag", ["R", "C", "H"])
    def test_holds_exactly_where_the_fiber_projection_is_loose(self, tag):
        # One congruence region decides both; m = 2n - 2 is where an exotic
        # (Kervaire) pair would otherwise make the status FAILS_WITH_WITNESS.
        for n_prime in range(1, 101):
            sp = space(tag, n_prime)
            holds = wecken_status(sp, max(1, 2 * sp.n - 2)).status is WeckenStatus.HOLDS
            loose = fiber_projection_self_loose(tag, n_prime).verdict is Verdict.LOOSE
            assert holds == loose, (tag, n_prime)

    def test_unresolved_dimension_is_flagged(self):
        answer = wecken_status(space("R", 128), 254)
        assert answer.status is WeckenStatus.UNKNOWN
        assert "unresolved" in answer.reason
