"""Target descriptors, Reidemeister numbers, lift decomposition."""

import random

import pytest

from coincalc import projective
from coincalc.fgab import InputError
from coincalc.invariants import SPHERE, equivalence_scan, projective_report, route
from coincalc.projective import ProjSpace, decompose_valid, parse_field, space
from coincalc.selfco import Looseness
from coincalc.spheres import SphereTables
from coincalc.tables import OutOfTabulatedRange


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
        with pytest.raises(InputError):
            space("R", 0)
        with pytest.raises(InputError):
            space("X", 2)
        with pytest.raises(InputError):
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


TARGETS = [(tag, n_prime) for tag, top in (("R", 41), ("C", 21), ("H", 47))
           for n_prime in range(1, top + 1)]


def test_one_shared_value_per_target():
    shared = {}
    for tag, n_prime in TARGETS:
        sp = shared[tag, n_prime] = space(tag, n_prime)
        assert space(tag, n_prime) is sp
        d = parse_field(tag).d
        assert (sp.d, sp.n, sp.q) == (d, d * n_prime, d * n_prime + d - 1)
        assert sp.reidemeister == (2 if tag == "R" and n_prime >= 2 else 1)
        assert sp.name == str(sp) == f"{tag}P({n_prime})"
        built = ProjSpace(parse_field(tag), n_prime)
        assert built is not sp and built == sp and hash(built) == hash(sp)
        assert repr(built) == repr(sp)
    assert len({id(sp) for sp in shared.values()}) == len(TARGETS)


@pytest.mark.parametrize("tag", ["R", "C", "H"])
def test_parse_field_returns_a_field_as_it_is(tag):
    field = parse_field(tag)
    assert parse_field(field) is field


def _counting(monkeypatch, cls, calls):
    init = cls.__init__

    def counted(self, *args, **kwargs):
        calls[cls.__name__] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)


def test_targets_and_verdicts_are_built_once(tables, monkeypatch):
    """Over the 462-query scan survey and one projective-report sweep on its
    targets, each target is built once, on its first query, and no looseness
    verdict is built at all."""
    calls = {"ProjSpace": 0, "Looseness": 0}
    _counting(monkeypatch, ProjSpace, calls)
    _counting(monkeypatch, Looseness, calls)
    monkeypatch.setattr(projective, "_SPACES", {})
    survey = [(tag, n_prime) for tag, top in (("R", 12), ("C", 6), ("H", 4))
              for n_prime in range(1, top + 1)]
    scans = SphereTables(tables.raw)
    for tag, n_prime in survey:
        for m in range(1, 22):
            try:
                equivalence_scan(scans, space(tag, n_prime), m)
            except OutOfTabulatedRange:
                pass
    reports = 0
    for tag, n_prime in survey:
        sp = space(tag, n_prime)
        for m in range(2, 22):
            try:
                q = sp.n if route(tables, sp, m)[0] is SPHERE else sp.q
                group = tables.lookup(m, q).group
            except OutOfTabulatedRange:
                continue
            first = [1] + [0] * (group.rank - 1) if group.rank else []
            projective_report(tables, sp, m, tables.cls(m, q, first), tables.zero(m, q))
            reports += 1
    assert reports > 200
    assert calls == {"ProjSpace": len(survey), "Looseness": 0}


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

