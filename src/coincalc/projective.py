"""Projective-space targets and the lift/correction decomposition.

A target KP(n') over K = R, C or H is described by its real dimension data
(d, n = d*n', fibration sphere dimension q = n + d - 1) and its Reidemeister
number.  A map class into KP(n') is given by its lift class in pi_m(S^q)
wherever the decomposition is valid.  Its correction class in
pi_{m-1}(S^{d-1}) never enters the vanishing criteria, so it is not modelled;
only its group is, to decide where the decomposition is valid.
"""

from __future__ import annotations

from .fgab import FgAbError, FgAbGroup, _Value, _setattr
from .spheres import SphereTables


class Field(_Value):
    """One of the three real division fields R, C, H."""

    __slots__ = ("tag", "d")

    def __init__(self, tag: str, d: int):
        expected = {"R": 1, "C": 2, "H": 4}
        if tag not in expected or expected[tag] != d:
            raise FgAbError(f"bad field ({tag}, d={d})")
        _setattr(self, "tag", tag)
        _setattr(self, "d", d)


REAL = Field("R", 1)
COMPLEX = Field("C", 2)
QUATERNION = Field("H", 4)
FIELDS = {"R": REAL, "C": COMPLEX, "H": QUATERNION}


def parse_field(tag) -> Field:
    try:
        return FIELDS[str(tag)]
    except KeyError:
        raise FgAbError(f"unknown field {tag!r}; expected R, C or H") from None


class ProjSpace(_Value):
    """The target KP(n') with its derived dimension data."""

    __slots__ = ("field", "n_prime")

    def __init__(self, field: Field, n_prime: int):
        if n_prime < 1:
            raise FgAbError("n' must be >= 1")
        _setattr(self, "field", field)
        _setattr(self, "n_prime", n_prime)

    @property
    def d(self) -> int:
        return self.field.d

    @property
    def n(self) -> int:
        return self.d * self.n_prime

    @property
    def q(self) -> int:
        return self.n + self.d - 1

    @property
    def reidemeister(self) -> int:
        """Order of the fundamental group: 2 for RP(n >= 2), else 1."""
        return 2 if (self.field.tag == "R" and self.n >= 2) else 1

    @property
    def name(self) -> str:
        return f"{self.field.tag}P({self.n_prime})"

    def __str__(self) -> str:
        return self.name


def space(field_tag, n_prime: int) -> ProjSpace:
    return ProjSpace(parse_field(field_tag), n_prime)


def correction_group(tables: SphereTables, sp: ProjSpace, m: int) -> FgAbGroup:
    """pi_{m-1}(S^{d-1}), where the non-lift part of a map class lives."""
    if m < 2:
        raise FgAbError("map classes need m >= 2")
    return tables.lookup(m - 1, sp.d - 1).group


def decompose_valid(tables: SphereTables, sp: ProjSpace, m: int) -> bool:
    """Whether every class of pi_m(KP(n')) splits as lift + correction:
    n' >= 2, or the correction group pi_{m-1}(S^{d-1}) vanishes."""
    if m < 2:
        raise FgAbError("decomposition is defined for m >= 2")
    if sp.n_prime >= 2:
        return True
    return correction_group(tables, sp, m).is_trivial

