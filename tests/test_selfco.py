"""Exact quaternion algebra, the pairwise rotation, looseness verdicts."""

from fractions import Fraction

import pytest

from coincalc.projective import parse_field
from coincalc.stable import Unknown
from coincalc.selfco import (
    KVector,
    Looseness,
    Verdict,
    fiber_projection_self_loose,
    line_coefficient,
    quaternion_counterexample,
    residual_not_parallel,
    s_conj,
    s_mul,
    s_norm2,
    s_zero,
    sample_unit_vectors,
    scalar,
    self_loose,
    selfmap_s,
)

H = parse_field("H")
ONE = scalar(H, 1, 0, 0, 0)
I = scalar(H, 0, 1, 0, 0)
J = scalar(H, 0, 0, 1, 0)
K = scalar(H, 0, 0, 0, 1)


def kvector(field_tag, entries):
    """The vector over the named field with these scalar component tuples."""
    field = parse_field(field_tag)
    return KVector(field, tuple(scalar(field, *e) for e in entries))


class TestQuaternions:
    def test_hamilton_table(self):
        basis = {"1": ONE, "i": I, "j": J, "k": K}
        neg = lambda s: tuple(-x for x in s)
        expected = {
            ("1", "1"): ONE, ("1", "i"): I, ("1", "j"): J, ("1", "k"): K,
            ("i", "1"): I, ("i", "i"): neg(ONE), ("i", "j"): K, ("i", "k"): neg(J),
            ("j", "1"): J, ("j", "i"): neg(K), ("j", "j"): neg(ONE), ("j", "k"): I,
            ("k", "1"): K, ("k", "i"): J, ("k", "j"): neg(I), ("k", "k"): neg(ONE),
        }
        for (a, b), want in expected.items():
            assert s_mul(H, basis[a], basis[b]) == want, (a, b)

    def test_conjugation_is_an_antiautomorphism(self):
        samples = [scalar(H, 1, 2, -3, 4), scalar(H, 0, 1, 1, -2), scalar(H, 5, 0, 2, 7)]
        for a in samples:
            for b in samples:
                assert s_conj(s_mul(H, a, b)) == s_mul(H, s_conj(b), s_conj(a))

    def test_norm_is_multiplicative(self):
        a, b = scalar(H, 1, -2, 3, 4), scalar(H, 2, 1, 0, -5)
        assert s_norm2(s_mul(H, a, b)) == s_norm2(a) * s_norm2(b)


class TestSelfmap:
    def test_real_example(self):
        x = kvector("R", [(1,), (0,)])
        assert selfmap_s(x).entries == ((Fraction(0),), (Fraction(1),))

    def test_complex_example(self):
        # (i, 1+i) -> (-conj(1+i), conj(i)) = (-1+i, -i), computed exactly.
        x = kvector("C", [(0, 1), (1, 1)])
        s = selfmap_s(x)
        assert s.entries == (
            (Fraction(-1), Fraction(1)),
            (Fraction(0), Fraction(-1)),
        )

    def test_quaternion_example(self):
        x = kvector("H", [(0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0)])
        s = selfmap_s(x)
        assert s.entries[0] == K and s.entries[1] == tuple(-c for c in J)

    def test_norm_preserved(self):
        for field, nprime in [("R", 3), ("C", 1), ("H", 1)]:
            for vec in sample_unit_vectors(field, nprime, 25, seed=4):
                assert selfmap_s(vec).norm2() == vec.norm2()

    def test_double_application_is_minus_identity_over_R(self):
        for vec in sample_unit_vectors("R", 5, 25, seed=8):
            twice = selfmap_s(selfmap_s(vec))
            assert twice.entries == tuple(
                tuple(-c for c in e) for e in vec.entries
            )

    def test_odd_pairing_required(self):
        with pytest.raises(ValueError):
            selfmap_s(kvector("R", [(1,), (0,), (0,)]))  # n' = 2, unpaired


class TestResidual:
    def test_real_orthogonal_case(self):
        assert residual_not_parallel(kvector("R", [(1,), (0,)])) == 1

    def test_positive_over_commutative_fields(self):
        for field in ("R", "C"):
            for nprime in (1, 3, 5):
                for vec in sample_unit_vectors(field, nprime, 60, seed=2):
                    assert residual_not_parallel(vec) > 0

    def test_quaternion_collapse(self):
        x = kvector("H", [(0, 0, 1, 0), (0, 0, 0, 1)])
        assert residual_not_parallel(x) == 0
        lam = line_coefficient(x, selfmap_s(x))
        assert lam == I

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            residual_not_parallel(kvector("C", [(0, 0), (0, 0)]))

    def test_counterexample_exact(self):
        x, lam = quaternion_counterexample()
        assert lam == I
        assert s_norm2(lam) == 1
        assert (selfmap_s(x) - x.scalar_mul_left(lam)).is_zero


class TestExactness:
    """The geometry stays in rationals: no component turns int or float."""

    @pytest.mark.parametrize("tag", ["R", "C", "H"])
    def test_every_component_is_a_fraction(self, tag):
        field = parse_field(tag)
        parts = [scalar(field, *range(1, field.d + 1)), s_zero(field)]
        vectors = sample_unit_vectors(tag, 3, 10, seed=5)
        parts += [e for vec in vectors for e in vec.entries]
        parts.append(tuple(residual_not_parallel(vec) for vec in vectors))
        parts.append((residual_not_parallel(quaternion_counterexample()[0]),))
        assert all(type(c) is Fraction for part in parts for c in part)


class TestLooseness:
    @pytest.mark.parametrize(
        "tag,m,nprime,verdict",
        [
            ("C", 9, 1, Verdict.LOOSE),
            ("H", 50, 23, Verdict.LOOSE),
            ("C", 2, 1, Verdict.UNKNOWN),  # the degree obstruction on S^2
            ("R", 5, 3, Verdict.LOOSE),
            ("R", 2, 2, Verdict.UNKNOWN),  # (m, n) = (2, 2)
            ("R", 7, 2, Verdict.LOOSE),    # n = 2 <= 3
            ("H", 9, 2, Verdict.UNKNOWN),
        ],
    )
    def test_self_loose(self, tag, m, nprime, verdict):
        assert self_loose(tag, m, nprime).verdict is verdict

    @pytest.mark.parametrize(
        "tag,nprime,verdict",
        [
            ("R", 4, Verdict.NOT_LOOSE),
            ("H", 5, Verdict.NOT_LOOSE),
            ("H", 47, Verdict.LOOSE),
            ("C", 3, Verdict.LOOSE),
            ("R", 1, Verdict.LOOSE),
        ],
    )
    def test_fiber_projection(self, tag, nprime, verdict):
        assert fiber_projection_self_loose(tag, nprime).verdict is verdict

    def test_fiber_loose_implies_self_loose(self):
        # Congruence consistency across the two verdicts.
        for tag in ("R", "C", "H"):
            for nprime in range(1, 49):
                if fiber_projection_self_loose(tag, nprime).verdict is Verdict.LOOSE:
                    d = parse_field(tag).d
                    for m in range(1, 12):
                        if (m, d * nprime) == (2, 2):
                            continue
                        assert self_loose(tag, m, nprime).verdict is Verdict.LOOSE


TARGETS = [(tag, n_prime) for tag, top in (("R", 41), ("C", 21), ("H", 47))
           for n_prime in range(1, top + 1)]


def _expected_self_loose(tag, m, n_prime):
    n = parse_field(tag).d * n_prime
    if (m, n) == (2, 2):
        return Verdict.UNKNOWN, Unknown(
            "(m, n) = (2, 2): a self map of a surface with nonzero degree "
            "cannot be pushed off itself")
    if (n_prime % 2 == 1) if tag != "H" else (n_prime % 24 == 23):
        return Verdict.LOOSE, "scalar congruence region"
    if n <= 3:
        return Verdict.LOOSE, "low-dimensional target (n <= 3)"
    return Verdict.UNKNOWN, Unknown("not covered by the congruence criteria")


def test_one_shared_looseness_per_verdict():
    """Every verdict with its reason is one shared value, equal to a freshly
    built Looseness."""
    shared = {}
    for tag, n_prime in TARGETS:
        for m in range(1, 41):
            got = self_loose(tag, m, n_prime)
            verdict, reason = _expected_self_loose(tag, m, n_prime)
            assert got == Looseness(verdict, reason)
            assert shared.setdefault((verdict, str(reason)), got) is got
    assert len(shared) == 4

    fibers = {}
    for tag, n_prime in TARGETS:
        got = fiber_projection_self_loose(tag, n_prime)
        assert got == Looseness(got.verdict, got.reason)
        assert fibers.setdefault((got.verdict, got.reason), got) is got
    assert len(fibers) == 4
