"""Self-coincidence verdicts and the exact geometry behind them.

Whether a pair (f, f) of identical maps into KP(n') can be deformed off
itself is decided by closed congruence conditions; the geometric mechanism
is a norm-preserving pairwise-rotation self map s of the total sphere, which
works over R and C because scalars commute, and fails over H on an explicit
vector.  Both the generic positivity and the quaternionic counterexample are
verified in exact rational arithmetic: s(x) = i x is checked as an identity,
not up to tolerance.
"""

from __future__ import annotations

import enum

from .fgab import _Value, _setattr
from .projective import Field, parse_field
from .stable import Unknown

# `fractions` and `random` are imported by the few functions that build
# rationals, so a call that never touches this geometry does not load them.
Scalar = tuple["Fraction", ...]  # length 1 (R), 2 (C) or 4 (H)


class Verdict(enum.Enum):
    LOOSE = "loose"
    NOT_LOOSE = "not loose"
    UNKNOWN = "unknown"


class Looseness(_Value):
    __slots__ = ("verdict", "reason")

    def __init__(self, verdict: Verdict, reason: str | Unknown):
        _setattr(self, "verdict", verdict)
        _setattr(self, "reason", reason)

    def __str__(self) -> str:
        return f"{self.verdict.value} ({self.reason})"


def scalar(field: Field, *parts) -> Scalar:
    from fractions import Fraction

    parts = tuple(Fraction(p) for p in parts)
    if len(parts) != field.d:
        raise ValueError(f"{field.tag} scalars have {field.d} components")
    return parts


def s_zero(field: Field) -> Scalar:
    from fractions import Fraction

    return (Fraction(0),) * field.d


def s_add(a: Scalar, b: Scalar) -> Scalar:
    return tuple(x + y for x, y in zip(a, b))


def s_neg(a: Scalar) -> Scalar:
    return tuple(-x for x in a)


def s_conj(a: Scalar) -> Scalar:
    return (a[0],) + tuple(-x for x in a[1:])


def s_mul(field: Field, a: Scalar, b: Scalar) -> Scalar:
    if field.d == 1:
        return (a[0] * b[0],)
    if field.d == 2:
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def s_norm2(a: Scalar) -> Fraction:
    return sum(x * x for x in a)


class KVector(_Value):
    """A vector in K^{n'+1} with exact rational scalar components."""

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: tuple[Scalar, ...]):
        for e in entries:
            if len(e) != field.d:
                raise ValueError("entry with the wrong number of components")
        _setattr(self, "field", field)
        _setattr(self, "entries", entries)

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for e in self.entries for x in e)

    def norm2(self) -> Fraction:
        return sum(s_norm2(e) for e in self.entries)

    def scalar_mul_left(self, lam: Scalar) -> "KVector":
        return KVector(
            self.field, tuple(s_mul(self.field, lam, e) for e in self.entries)
        )

    def __sub__(self, other: "KVector") -> "KVector":
        return KVector(
            self.field,
            tuple(s_add(a, s_neg(b)) for a, b in zip(self.entries, other.entries)),
        )


def selfmap_s(x: KVector) -> KVector:
    """The pairwise rotation (x1, x2; ...) -> (-conj(x2), conj(x1); ...).

    Defined when the coordinates pair up completely, i.e. n' is odd; it
    preserves the norm exactly.
    """
    if len(x.entries) % 2 != 0:
        raise ValueError("selfmap needs n' odd (an even number of coordinates)")
    if x.is_zero:
        raise ValueError("selfmap is defined on the unit sphere, not at 0")
    out = []
    for i in range(0, len(x.entries), 2):
        a, b = x.entries[i], x.entries[i + 1]
        out.append(s_neg(s_conj(b)))
        out.append(s_conj(a))
    return KVector(x.field, tuple(out))


def line_coefficient(x: KVector, y: KVector) -> Scalar:
    """The scalar lam minimizing |y - lam x|^2 (left multiplication)."""
    c = s_zero(x.field)
    for xi, yi in zip(x.entries, y.entries):
        c = s_add(c, s_mul(x.field, xi, s_conj(yi)))
    n2 = x.norm2()
    return tuple(comp / n2 for comp in s_conj(c))


def residual_not_parallel(x: KVector) -> Fraction:
    """Squared distance from s(x)/|x| to the K-line through x/|x|.

    Exact rational; strictly positive for K = R, C (commuting scalars force
    any solution of s(x) = lam x down to x = 0).
    """
    if x.is_zero:
        raise ValueError("residual undefined at the zero vector")
    # |s(x)| = |x|, so the normalized residual is 1 - |lam|^2 for the best lam.
    return 1 - s_norm2(line_coefficient(x, selfmap_s(x)))


def quaternion_counterexample() -> tuple[KVector, Scalar]:
    """The vector x = (j, k) and the scalar i, for which s(x) = i x.

    The identity is not checked here: `verify-s --field H` checks it exactly
    and reports a failure.
    """
    h = parse_field("H")
    x = KVector(h, (scalar(h, 0, 0, 1, 0), scalar(h, 0, 0, 0, 1)))
    return x, scalar(h, 0, 1, 0, 0)


def _congruence_ok(field: Field, n_prime: int) -> bool:
    if field.tag in ("R", "C"):
        return n_prime % 2 == 1
    return n_prime % 24 == 23


def fiber_projection_self_loose(field_tag, n_prime: int) -> Looseness:
    """Looseness of (p, p) for the fibration p: S^{n+d-1} -> KP(n')."""
    field = parse_field(field_tag)
    if n_prime < 1:
        raise ValueError("n' must be >= 1")
    if _congruence_ok(field, n_prime):
        return Looseness(
            Verdict.LOOSE,
            "a fiberwise self map without eigenvector exists "
            + ("(pairwise rotation)" if field.tag != "H" else "(mod-24 congruence)"),
        )
    if field.tag == "H":
        return Looseness(
            Verdict.NOT_LOOSE,
            "n' != 23 mod 24: the quaternionic Stiefel fibration has no section",
        )
    return Looseness(
        Verdict.NOT_LOOSE,
        "n' even: the Stiefel fibration over the total sphere has no section",
    )


def self_loose(field_tag, m: int, n_prime: int) -> Looseness:
    """Looseness of (f, f) for every map f: S^m -> KP(n').

    Loose on the region [n' odd over R or C, or n' = 23 mod 24 over H, or
    n <= 3], minus (m, n) = (2, 2); everything else is honestly Unknown.
    """
    field = parse_field(field_tag)
    if m < 1 or n_prime < 1:
        raise ValueError("m and n' must be >= 1")
    n = field.d * n_prime
    if (m, n) == (2, 2):
        return Looseness(Verdict.UNKNOWN, Unknown(
            "(m, n) = (2, 2): a self map of a surface with nonzero degree "
            "cannot be pushed off itself"))
    if _congruence_ok(field, n_prime):
        return Looseness(Verdict.LOOSE, "scalar congruence region")
    if n <= 3:
        return Looseness(Verdict.LOOSE, "low-dimensional target (n <= 3)")
    return Looseness(Verdict.UNKNOWN, Unknown("not covered by the congruence criteria"))


def sample_unit_vectors(
    field_tag, n_prime: int, count: int, seed: int = 0
) -> list[KVector]:
    """Deterministic pseudo-random nonzero rational vectors in K^{n'+1}."""
    import random
    from fractions import Fraction

    field = parse_field(field_tag)
    if n_prime < 1:
        raise ValueError("n' must be >= 1")
    rng = random.Random((seed, field.tag, n_prime, count).__repr__())
    out = []
    while len(out) < count:
        entries = tuple(
            tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(field.d)
            )
            for _ in range(n_prime + 1)
        )
        vec = KVector(field, entries)
        if not vec.is_zero:
            out.append(vec)
    return out
