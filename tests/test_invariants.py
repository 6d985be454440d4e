"""The decision core: reports, criteria, scans, Wecken status, chain."""

import itertools
import random

import pytest

from coincalc.fgab import FgAbError
from coincalc.invariants import (
    INF,
    ScanVerdict,
    WeckenStatus,
    chain_check,
    dichotomy_check,
    equivalence_scan,
    fin,
    kervaire_exception,
    projective_report,
    sphere_report,
    unk,
    wecken_status,
)
from coincalc.projective import decompose_valid, space
from coincalc.selfco import Verdict, fiber_projection_self_loose, self_loose
from coincalc.spheres import SphereClass, SphereTables
from coincalc.tables import OutOfTabulatedRange, parse_tables


def kernel_chain_cases(tables):
    """(target, m) with n' <= 7 and 2 <= m <= 15 that equivalence_scan
    decides by comparing the kernels of the bundled table."""
    for tag in ("R", "C", "H"):
        for n_prime in range(1, 8):
            sp = space(tag, n_prime)
            for m in range(2, 16):
                if sp.n == 1 or (n_prime == 1 and m == sp.n):
                    continue
                try:
                    if not decompose_valid(tables, sp, m):
                        continue
                    tables.kernel_chain(m, sp.q, tag)
                except OutOfTabulatedRange:
                    continue
                if self_loose(tag, m, n_prime).verdict is Verdict.LOOSE:
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
                if sp.n == 1 or not decompose_valid(tables, sp, m):
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

    def test_mapclass_inputs_agree_with_raw_lifts(self, tables):
        from coincalc.projective import MapClass

        sp = space("R", 2)
        h = tables.named("hopfC")
        mc1 = MapClass.build(tables, sp, 3, h)
        mc2 = MapClass.build(tables, sp, 3, tables.zero(3, 2))
        via_mapclass = projective_report(tables, sp, 3, mc1, mc2)
        via_lifts = projective_report(tables, sp, 3, h, tables.zero(3, 2))
        assert via_mapclass.values() == via_lifts.values()

    def test_correction_classes_never_change_the_numbers(self, tables):
        from coincalc.projective import MapClass, correction_group

        sp = space("H", 2)  # q = 11; corrections live in pi_6(S^3) = Z_12
        corr = correction_group(tables, sp, 7).element([5])
        with_corr = MapClass.build(tables, sp, 7, tables.zero(7, 11), corr)
        plain = MapClass.build(tables, sp, 7, tables.zero(7, 11))
        a = projective_report(tables, sp, 7, with_corr, plain, assume_self_loose=True)
        b = projective_report(tables, sp, 7, plain, plain, assume_self_loose=True)
        assert a.values() == b.values()
        assert any("correction" in note for note in a.hypothesis_notes)


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

    def test_scan_matches_pointwise_reports(self, tables):
        # Oracle equivalence over the whole tabulated range: each report of
        # (x, 0) depends on the pair only through delta = x, so running x over
        # the lift group (the multiples |c| <= 24 of the generator of a Z)
        # covers every pair the scan speaks about.
        cases = list(kernel_chain_cases(tables))
        groups = [tables.lookup(m, sp.q).group for sp, m in cases]
        assert len(cases) == 65
        assert sum(1 for g in groups if not g.is_finite) == 8
        assert sum(g.order() for g in groups if g.is_finite) == 133
        for (sp, m), group in zip(cases, groups):
            if group.is_finite:
                lifts = [SphereClass(m, sp.q, x) for x in group.elements()]
            else:
                assert str(group) == "Z"
                lifts = [tables.cls(m, sp.q, [c]) for c in range(-24, 25)]
            zero = tables.zero(m, sp.q)
            reps = [projective_report(tables, sp, m, x, zero) for x in lifts]
            pointwise = {
                "nsharp_eq_ntilde": all(r.N_sharp == r.N_tilde for r in reps),
                "ntilde_eq_n": all(r.N_tilde == r.N_plain for r in reps),
                "n_eq_zero": all(r.N_plain == fin(0) for r in reps),
                "n_eq_nz": all(r.N_plain == r.N_z for r in reps),
            }
            scan = equivalence_scan(tables, sp, m)
            for key, holds in pointwise.items():
                want = ScanVerdict.HOLDS if holds else ScanVerdict.FAILS
                assert scan.verdicts[key][0] is want, (sp.name, m, key)
            assert scan.nz_vanishes == all(r.N_z == fin(0) for r in reps), (sp.name, m)

    def test_scan_unknown_on_table_gap(self, table_text):
        gapped = SphereTables(parse_tables(table_text.replace("gamma 2 3 14\n", "")))
        scan = equivalence_scan(gapped, space("R", 2), 6)
        reason = "gamma k=2 of generator eta_2_nu_p of pi_6(S^2) is not annotated"
        assert scan.verdicts == {k: (ScanVerdict.UNKNOWN, reason) for k in scan.verdicts}
        assert scan.nz_vanishes is None

    def test_scan_unknown_when_hypotheses_fail(self, tables):
        scan = equivalence_scan(tables, space("C", 2), 6)
        assert all(v is ScanVerdict.UNKNOWN for v, _w in scan.verdicts.values())


def _eta2(ts):
    return ts.generator(3, 2, "eta_2")


# One dropped table line per annotation kind: (kept text, text after the
# drop, [(probe, the exact reason it must report)]).
_GAPS = {
    "susp": (
        "gen eta_2\nsusp 1\n",
        "gen eta_2\n",
        [(lambda ts: ts.suspend(_eta2(ts)).reason,
          "suspension of generator eta_2 of pi_3(S^2) is not annotated")],
    ),
    "antip": (
        "gamma 2 0 1\nantip 1\n",
        "gamma 2 0 1\n",
        [(lambda ts: ts.antipodal_compose(_eta2(ts)).reason,
          "antipodal action on generator eta_2 of pi_3(S^2) is not annotated"),
         (lambda ts: sphere_report(ts, 3, 2, ts.zero(3, 2), _eta2(ts)).N_plain.reason,
          "antipodal action on generator eta_2 of pi_3(S^2) is not annotated")],
    ),
    "stab": (
        "gen eta_2\nsusp 1\nstab 1 1\n",
        "gen eta_2\nsusp 1\n",
        [(lambda ts: ts.stabilize(_eta2(ts)).reason,
          "stabilization of generator eta_2 of pi_3(S^2) is not annotated"),
         (lambda ts: ts.gamma(_eta2(ts)).component(1).reason,
          "stabilization of generator eta_2 of pi_3(S^2) is not annotated"),
         (lambda ts: projective_report(
             ts, space("R", 2), 3, _eta2(ts), ts.zero(3, 2)).N_plain.reason,
          "stabilization of generator eta_2 of pi_3(S^2) is not annotated")],
    ),
    "gamma": (
        "gamma 2 6 0\n",
        "",
        [(lambda ts: ts.gamma(ts.generator(9, 2, "eta_2_alpha")).component(2).reason,
          "gamma k=2 of generator eta_2_alpha of pi_9(S^2) is not annotated"),
         (lambda ts: projective_report(
             ts, space("R", 2), 9, ts.generator(9, 2, "eta_2_alpha"), ts.zero(9, 2)
         ).N_tilde.reason,
          "Gamma undetermined: k=1: (0) in pi_7^S; k=2: unknown (gamma k=2 of "
          "generator eta_2_alpha of pi_9(S^2) is not annotated); k=3: () in "
          "pi_5^S; k=4: () in pi_4^S; k=5: (0) in pi_3^S; k=6: (0) in pi_2^S; "
          "k=7: (0) in pi_1^S; k=8: (0) in pi_0^S")],
    ),
    "prod": (
        "prod eta eta -> 2 1\n",
        "",
        [(lambda ts: ts.ring.multiply(ts.ring.named("eta"), ts.ring.named("eta")).reason,
          "product eta * eta (degrees 1+1) not tabulated"),
         (lambda ts: projective_report(
             ts, space("C", 2), 6, ts.cls(6, 5, [1]), ts.zero(6, 5),
             assume_self_loose=True,
         ).N_plain.reason,
          "product eta * eta (degrees 1+1) not tabulated")],
    ),
}


@pytest.mark.parametrize("kind", sorted(_GAPS))
def test_unknown_reason_for_each_dropped_line(table_text, kind):
    kept, dropped, probes = _GAPS[kind]
    assert table_text.count(kept) == 1
    gapped = SphereTables(parse_tables(table_text.replace(kept, dropped)))
    for probe, reason in probes:
        assert probe(gapped) == reason


class TestChainCheck:
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
