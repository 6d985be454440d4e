"""Projective-space targets and the lift/correction decomposition.

A target KP(n') over K = R, C or H is described by its real dimension data
(d, n = d*n', fibration sphere dimension q = n + d - 1) and its Reidemeister
number.  A map class into KP(n') is given by its lift class in pi_m(S^q)
wherever the decomposition is valid.  Its correction class in
pi_{m-1}(S^{d-1}) never enters the vanishing criteria, so it is not modelled;
only its group is, to decide where the decomposition is valid.
"""

from __future__ import annotations

from .fgab import FgAbError, InputError, _Value, _require_int, _setattr
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
    """The Field of a tag R, C or H; a Field is returned as it is."""
    if isinstance(tag, Field):
        return tag
    try:
        return FIELDS[str(tag)]
    except KeyError:
        raise InputError(f"unknown field {tag!r}; expected R, C or H") from None


class ProjSpace(_Value, compare=("field", "n_prime")):
    """The target KP(n') with its dimension data, stored when it is built.

    Only the field and n' are compared and hashed; the rest follows from them.
    """

    __slots__ = ("field", "n_prime", "d", "n", "q", "reidemeister", "name")

    def __init__(self, field: Field, n_prime: int):
        _require_int(n_prime, "n'")
        if n_prime < 1:
            raise InputError("n' must be >= 1")
        d = field.d
        n = d * n_prime
        _setattr(self, "field", field)
        _setattr(self, "n_prime", n_prime)
        _setattr(self, "d", d)
        _setattr(self, "n", n)
        _setattr(self, "q", n + d - 1)
        # The order of the fundamental group: 2 for RP(n >= 2), else 1.
        _setattr(self, "reidemeister", 2 if field.tag == "R" and n >= 2 else 1)
        _setattr(self, "name", f"{field.tag}P({n_prime})")

    def __str__(self) -> str:
        return self.name


# One shared KP(n') per (K tag, n') that the process names.
_SPACES: dict[tuple[str, int], ProjSpace] = {}


def space(field_tag, n_prime: int) -> ProjSpace:
    """The one KP(n') value of this target, built when first named."""
    _require_int(n_prime, "n'")
    field = parse_field(field_tag)
    sp = _SPACES.get((field.tag, n_prime))
    if sp is None:
        sp = _SPACES[field.tag, n_prime] = ProjSpace(field, n_prime)
    return sp


def decompose_valid(tables: SphereTables, sp: ProjSpace, m: int) -> bool:
    """Whether every class of pi_m(KP(n')) splits as lift + correction:
    n' >= 2, or the correction group pi_{m-1}(S^{d-1}) vanishes."""
    if m < 2:
        raise FgAbError("decomposition is defined for m >= 2")
    return sp.n_prime >= 2 or tables.lookup(m - 1, sp.d - 1).group.is_trivial
