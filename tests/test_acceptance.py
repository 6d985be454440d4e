"""Acceptance suite: one test per contract criterion, exact tolerances.

Every criterion prints a PASS line (run with -s or -v to see them); each
assertion is exact -- integer or rational equality, never a float tolerance.
"""

import os
import random

from coincalc.cli import main as cli_main
from coincalc.fgab import (
    Cmp,
    FgAbGroup,
    Homomorphism,
    Subgroup,
    direct_sum,
    image,
    int_det,
    kernel,
    smith_normal_form,
    subgroup_cmp,
)
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
    wecken_status,
)
from coincalc.projective import space
from coincalc.selfco import (
    Verdict,
    fiber_projection_self_loose,
    quaternion_counterexample,
    residual_not_parallel,
    sample_unit_vectors,
    self_loose,
    selfmap_s,
)
from coincalc.spheres import SphereTables
from coincalc.tables import ParseError, SchemaError, parse_tables

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cp1_compare_2_9.txt")

def passed(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_equivalence_table_reproduction(capsys):
    code = cli_main(["compare", "--surface", "CP1", "--m-range", "2..9"])
    out = capsys.readouterr().out
    assert code == 0
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    assert out == golden, "compare output differs from the golden table"
    with capsys.disabled():
        passed(1, "CP1 comparison table m=2..9 matches the golden file exactly")


# Each criterion 2-5 builds its reports in one helper, which criterion 9(iii)
# calls too, so that every test sweeps only reports it has built itself.


def rp2_factor_two_reports(tables):
    """RP(2) at m = 3 on (hopfC, 0), then (lifted, spherical) on each of the
    9 pairs drawn from 0, hopfC and -hopfC."""
    rp2 = space("R", 2)
    h = tables.named("hopfC")
    zero = tables.zero(3, 2)
    pairs = [
        (projective_report(tables, rp2, 3, x, y), sphere_report(tables, 3, 2, x, y))
        for x in (zero, h, -h)
        for y in (zero, h, -h)
    ]
    return projective_report(tables, rp2, 3, h, zero), pairs


def cp1_z2_reports(tables, m):
    """CP(1) at m on the 4 pairs of classes of pi_m(S^3) = Z_2."""
    cp1 = space("C", 1)
    return [
        projective_report(tables, cp1, m, tables.cls(m, 3, [a]), tables.cls(m, 3, [b]))
        for a in range(2)
        for b in range(2)
    ]


def rp3_three_torsion_reports(tables):
    """RP(3) at m = 9 on (k, 0) for each k of pi_9(S^3) = Z_3."""
    rp3 = space("R", 3)
    return [
        projective_report(tables, rp3, 9, tables.cls(9, 3, [k]), tables.zero(9, 3))
        for k in range(3)
    ]


def witness_reports(tables):
    """Criterion 5's witnesses, by label."""
    rp5 = space("R", 5)
    w5 = tables.whitehead(5)
    eta5 = tables.suspend_iter(tables.named("hopfC"), 3)
    e2a = tables.suspend_iter(tables.named("alpha1_3"), 2)
    return {
        # (a) The Whitehead square of S^5: N# = 1 without any stabilized trace.
        "a": sphere_report(tables, 9, 5, w5, tables.zero(9, 5)),
        "a2": projective_report(tables, rp5, 9, w5, tables.zero(9, 5)),
        # (b) Triple suspension of the complex Hopf class at (6, 5): the
        # stabilized invariant survives (N~ = 1 on the sphere) but twice it
        # dies (N = 0 on RP(5)).
        "b": sphere_report(tables, 6, 5, eta5, tables.zero(6, 5)),
        "b2": projective_report(tables, rp5, 6, eta5, tables.zero(6, 5)),
        # (b') 24 times the quaternionic Hopf class on HP(1) = S^4.
        "b3": projective_report(
            tables, space("H", 1), 7, tables.cls(7, 4, [24, 0]), tables.zero(7, 4)
        ),
        # (c) Double suspension of the order-12 class of pi_6(S^3): N = 1, NZ = 0.
        "c": sphere_report(tables, 8, 5, e2a, tables.zero(8, 5)),
        "c2": projective_report(tables, rp5, 8, e2a, tables.zero(8, 5)),
    }


def test_criterion_02_rp2_factor_two_chain(tables):
    rep, pairs = rp2_factor_two_reports(tables)
    assert rep.N_sharp == fin(2)
    assert rep.N_tilde == fin(2)
    assert rep.N_plain == fin(0)
    assert rep.N_z == fin(0)
    assert len(pairs) == 9
    for lifted, spherical in pairs:
        assert lifted.N_sharp.value == 2 * spherical.N_sharp.value
        assert lifted.N_tilde.value == 2 * spherical.N_tilde.value
    passed(2, "RP(2) values (2,2,0,0) and both factor-2 relations on all 9 pairs")


def test_criterion_03_pointwise_vs_kernel_scan(tables):
    cp1 = space("C", 1)
    for m in (4, 5):
        assert str(tables.lookup(m, 3).group) == "Z_2"
        nonzero_seen = False
        for rep in cp1_z2_reports(tables, m):
            assert rep.N_sharp == rep.N_tilde == rep.N_plain
            assert rep.N_z == fin(0)
            nonzero_seen = nonzero_seen or rep.N_sharp == fin(1)
        assert nonzero_seen
        scan = equivalence_scan(tables, cp1, m)
        assert scan.verdicts["nsharp_eq_ntilde"][0] is ScanVerdict.HOLDS
        assert scan.verdicts["ntilde_eq_n"][0] is ScanVerdict.HOLDS
        assert scan.verdicts["n_eq_zero"][0] is ScanVerdict.FAILS
    passed(3, "m=4,5 lift criteria agree pointwise and with the kernel scan")


def test_criterion_04_forced_vanishing_on_three_torsion(tables):
    ker_gamma, ker_hopf, whole = tables.kernel_chain(9, 3, "R")
    assert subgroup_cmp(ker_gamma, whole) is Cmp.EQUAL
    for k in range(3):
        x = tables.cls(9, 3, [k])
        assert tables.gamma(x).is_zero() is True
    for rep in rp3_three_torsion_reports(tables):
        assert rep.N_tilde == fin(0)
    passed(4, "Ker Gamma is all of pi_9(S^3) = Z_3; N~ vanishes identically at m=9")


def test_criterion_05_witnesses(tables):
    assert tables.suspend_iter(tables.named("alpha1_3"), 2).value.coeffs == (8,)
    rep = witness_reports(tables)
    assert rep["a"].N_sharp == fin(1) and rep["a"].N_tilde == fin(0)
    assert rep["a2"].N_sharp == fin(2) and rep["a2"].N_tilde == fin(0)
    assert rep["b"].N_tilde == fin(1)
    assert rep["b2"].N_plain == fin(0) and rep["b2"].N_tilde == fin(2)
    assert rep["b2"].N_tilde.value == 2 * rep["b"].N_tilde.value
    assert rep["b3"].N_tilde == fin(1) and rep["b3"].N_plain == fin(0)
    assert rep["c"].N_plain == fin(1) and rep["c"].N_z == fin(0)
    assert rep["c2"].N_plain == fin(2) and rep["c2"].N_z == fin(0)
    passed(5, "witness values (a) N#=1>0=N~, (b) N~=1,N=0 twice, (c) N=1,NZ=0")


def test_criterion_06_looseness_truth_table():
    d_of = {"R": 1, "C": 2, "H": 4}
    cases = 0
    for tag in ("R", "C", "H"):
        for nprime in range(1, 49):
            want_fiber = (
                nprime % 2 == 1 if tag in ("R", "C") else nprime % 24 == 23
            )
            got = fiber_projection_self_loose(tag, nprime)
            assert (got.verdict is Verdict.LOOSE) is want_fiber, (tag, nprime)
            assert got.verdict in (Verdict.LOOSE, Verdict.NOT_LOOSE)
            cases += 1
            n = d_of[tag] * nprime
            for m in range(1, 8):
                region = want_fiber or n <= 3
                want = region and (m, n) != (2, 2)
                verdict = self_loose(tag, m, nprime).verdict
                assert (verdict is Verdict.LOOSE) is want, (tag, m, nprime)
                if not want:
                    assert verdict is Verdict.UNKNOWN
    assert cases == 144
    passed(6, "self-coincidence truth tables exhaustively correct (144+ cases)")


def test_criterion_07_exact_geometry():
    for tag in ("R", "C"):
        for nprime in (1, 3, 5):
            for vec in sample_unit_vectors(tag, nprime, 1000, seed=0):
                assert residual_not_parallel(vec) > 0
    x, lam = quaternion_counterexample()
    assert (selfmap_s(x) - x.scalar_mul_left(lam)).is_zero
    assert residual_not_parallel(x) == 0
    passed(7, "6000 exact residuals positive over R, C; s(x) = i x exactly over H")


def test_criterion_08_kervaire_exception(tables):
    rep = kervaire_exception("R", 16, 30)
    assert rep is not None
    assert rep.R == fin(2) and rep.MCC == fin(1) and rep.N_sharp == fin(0)
    assert rep.non_wecken
    ok, violations = chain_check(rep)
    assert ok, violations
    answer = wecken_status(space("R", 16), 30)
    assert answer.status is WeckenStatus.FAILS_WITH_WITNESS
    assert answer.witness is not None and answer.witness.MCC == fin(1)
    for nprime in (1, 3, 5, 7):
        for m in range(2, 13):
            assert wecken_status(space("C", nprime), m).status is WeckenStatus.HOLDS
    for m in range(2, 13):
        assert wecken_status(space("H", 23), m).status is WeckenStatus.HOLDS
    assert kervaire_exception("R", 16, 29) is None
    assert kervaire_exception("R", 128, 254) is None
    assert "unresolved" in wecken_status(space("R", 128), 254).reason
    passed(8, "Kervaire exception report, Wecken failure at RP(16), Wecken holds on the congruence region")


def _random_finite_group(rng, max_order):
    orders = []
    total = 1
    for _ in range(rng.randint(1, 3)):
        t = rng.choice([2, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27])
        if total * t > max_order:
            break
        orders.append(t)
        total *= t
    if not orders:
        orders = [rng.choice([2, 3])]
    return direct_sum([FgAbGroup.cyclic(t) for t in orders])


def test_criterion_09i_fgab_oracle_equivalence():
    rng = random.Random(90210)
    for trial in range(200):
        # Mostly small groups, a few close to the 10^4 cap.
        cap = 10_000 if trial % 40 == 0 else 400
        dom = _random_finite_group(rng, cap)
        cod = _random_finite_group(rng, 200)
        cols = []
        for t in dom.coord_orders():
            while True:
                cand = cod.element([rng.randint(0, 11) for _ in range(cod.rank)])
                if cand.scale(t).is_zero:
                    cols.append(cand)
                    break
        h = Homomorphism.from_columns(dom, cod, cols)
        ker = kernel(h)
        brute_ker = {x.coeffs for x in dom.elements() if h.apply(x).is_zero}
        assert ker.enumerate() == brute_ker
        img = image(h)
        brute_img = {h.apply(x).coeffs for x in dom.elements()}
        assert img.enumerate() == brute_img
        sub = Subgroup(dom, tuple(ker.generators_[:1]))
        fwd = ker.enumerate() >= sub.enumerate()
        bwd = sub.enumerate() >= ker.enumerate()
        want = {
            (True, True): Cmp.EQUAL,
            (True, False): Cmp.PROPER_SUB,
            (False, True): Cmp.PROPER_SUPER,
            (False, False): Cmp.INCOMPARABLE,
        }[(fwd, bwd)]
        assert subgroup_cmp(sub, ker) is want
    passed(9, "(i) kernel/image/comparison agree with enumeration on 200 random groups")


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_criterion_09ii_snf_on_500_matrices():
    rng = random.Random(172)
    for _ in range(500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(matrix)
        assert _mat_mul(_mat_mul(u, matrix), v) == d
        assert abs(int_det(u)) == 1 and abs(int_det(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    passed(9, "(ii) U*M*V = D with unimodular U, V on 500 random matrices")


def test_criterion_09iii_chain_and_dichotomy_on_all_reports(tables):
    # The reports of criteria 2-5, then a sweep over targets and classes.
    first, pairs = rp2_factor_two_reports(tables)
    reports = [first, *(rep for pair in pairs for rep in pair)]
    reports += cp1_z2_reports(tables, 4) + cp1_z2_reports(tables, 5)
    reports += rp3_three_torsion_reports(tables)
    reports += witness_reports(tables).values()
    sweeps = [
        (space("R", 2), 3, tables.named("whitehead2"), tables.zero(3, 2)),
        (space("R", 3), 6, tables.named("alpha1_3"), tables.zero(6, 3)),
        (space("R", 5), 6, tables.generator(6, 5, "eta_5"), tables.zero(6, 5)),
        (space("C", 1), 9, tables.cls(9, 3, [2]), tables.cls(9, 3, [1])),
        (space("C", 1), 6, tables.cls(6, 3, [7]), tables.cls(6, 3, [1])),
        (space("H", 1), 7, tables.cls(7, 4, [1, 3]), tables.cls(7, 4, [0, 1])),
    ]
    for sp, m, a, b in sweeps:
        reports.append(projective_report(tables, sp, m, a, b))
    rng = random.Random(6)
    for _ in range(10):
        mm = rng.choice([2, 3, 5])
        reports.append(
            sphere_report(
                tables, mm, mm,
                tables.cls(mm, mm, [rng.randint(-3, 3)]),
                tables.cls(mm, mm, [rng.randint(-3, 3)]),
            )
        )
    assert len(reports) >= 30
    for rep in reports:
        ok, violations = chain_check(rep)
        assert ok, (rep.target, rep.m, violations)
        # Only the exotic pairs of criterion 8 are non-Wecken; none is swept.
        assert not rep.non_wecken, rep.render()
        if rep.R.is_finite:
            assert not dichotomy_check(rep, rep.R.value), rep.render()
    passed(9, f"(iii) chain and dichotomy hold on all {len(reports)} swept reports")


FAULTS = [
    # (label, transform) -- each produces >= 1 violation at load or validate.
    (
        "diagram consistency break",
        lambda text: text.replace(
            "gen eta_2\nsusp 1\nstab 1 1\n",
            "gen eta_2\nsusp 1\nstab 1 1\ngamma 1 1 0\n",
        ),
    ),
    ("divisibility break", lambda text: text.replace("stem 8 0 2,2", "stem 8 0 4,2")),
    (
        "degree mismatch",
        lambda text: text.replace("stab 3 2\ngamma 2 1 1", "stab 4 2\ngamma 2 1 1"),
    ),
    (
        "antipodal parity break",
        lambda text: text.replace(
            "stab 3 2\ngamma 2 1 1\nantip 1", "stab 3 2\ngamma 2 1 1\nantip -1"
        ),
    ),
    (
        "whitehead order break",
        lambda text: text.replace("name whitehead3 5 3 0", "name whitehead3 5 3 1"),
    ),
]


def test_criterion_09iv_validator_and_faults(tables, table_text):
    assert tables.validate().ok
    for label, transform in FAULTS:
        text = transform(table_text)
        assert text != table_text, label
        try:
            report = SphereTables(parse_tables(text)).validate()
            count = len(report.violations)
        except (ParseError, SchemaError):
            count = 1
        assert count >= 1, label
    passed(9, "(iv) shipped data clean; every injected fault caught")


def test_criterion_10_sphere_closed_forms(tables):
    rep = sphere_report(tables, 1, 1, tables.cls(1, 1, [3]), tables.cls(1, 1, [5]))
    assert rep.MCC == fin(2) and rep.MC == fin(2)

    rep = sphere_report(tables, 3, 2, tables.named("whitehead2"), tables.zero(3, 2))
    assert rep.MC == INF and rep.MCC == fin(1)

    rng = random.Random(99)
    for _ in range(10):
        m = rng.choice([2, 3, 4, 5, 6, 7])
        d1, d2 = rng.randint(-5, 5), rng.randint(-5, 5)
        rep = sphere_report(tables, m, m, tables.cls(m, m, [d1]), tables.cls(m, m, [d2]))
        vals = [rep.MC, rep.MCC, rep.N_sharp, rep.N_tilde, rep.N_plain, rep.N_z]
        assert len(set(vals)) == 1, rep.render()
    passed(10, "circle degrees, infinite MC instance, m = n spheres all-equal")
