"""Target descriptors, Reidemeister numbers, lift decomposition."""

import random

import pytest

from coincalc.fgab import FgAbError
from coincalc.projective import decompose_valid, parse_field, space


class TestSpaces:
    def test_rp2(self):
        sp = space("R", 2)
        assert (sp.n, sp.q, sp.reidemeister) == (2, 2, 2)

    def test_hp1(self):
        sp = space("H", 1)
        assert (sp.n, sp.q, sp.reidemeister) == (4, 7, 1)

    def test_cp1(self):
        sp = space("C", 1)
        assert (sp.n, sp.q, sp.reidemeister) == (2, 3, 1)

    def test_rp1_reidemeister_pinned_to_one(self):
        # Contract: the circle target reports R = 1 alongside all-zero numbers.
        assert space("R", 1).reidemeister == 1

    def test_bad_inputs(self):
        with pytest.raises(FgAbError):
            space("R", 0)
        with pytest.raises(FgAbError):
            space("X", 2)
        with pytest.raises(FgAbError):
            parse_field("Q")

    def test_dimension_identities(self):
        rng = random.Random(1)
        for _ in range(50):
            tag = rng.choice(["R", "C", "H"])
            np_ = rng.randint(1, 40)
            sp = space(tag, np_)
            assert sp.n == sp.d * np_
            assert sp.q == sp.n + sp.d - 1
            assert sp.q == sp.d * (np_ + 1) - 1
            assert sp.reidemeister in (1, 2)
            assert (sp.reidemeister == 2) == (tag == "R" and sp.n >= 2)


def test_reidemeister_op():
    assert space("R", 5).reidemeister == 2
    assert space("C", 3).reidemeister == 1
    assert space("H", 2).reidemeister == 1
    assert space("R", 1).reidemeister == 1


class TestDecomposition:
    @pytest.mark.parametrize(
        "tag,nprime,m,want",
        [
            ("R", 1, 5, True),   # pi_4(S^0) = 0
            ("C", 1, 2, False),  # pi_1(S^1) = Z
            ("C", 1, 3, True),
            ("H", 1, 7, False),  # pi_6(S^3) = Z_12
            ("H", 1, 4, False),  # pi_3(S^3) = Z
            ("R", 2, 2, True),   # n' >= 2 always splits
            ("H", 2, 9, True),
            ("R", 3, 9, True),   # pi_8(S^0) = 0
            ("C", 2, 2, True),   # pi_1(S^1) = Z, but n' >= 2
            ("H", 2, 7, True),   # pi_6(S^3) = Z_12, but n' >= 2
        ],
    )
    def test_decompose_valid(self, tables, tag, nprime, m, want):
        assert decompose_valid(tables, space(tag, nprime), m) is want

