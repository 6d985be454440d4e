"""Tabulated stable stems and their partial composition product.

The stems pi_k^S come straight from the table file; products are defined on
generator pairs and extended bilinearly.  Products that land in a trivial
stem, or have the unit iota or a zero factor, are computed without a table
entry.  Anything else that is not stored comes back as Unknown: the ring
never guesses, because the coincidence criteria must degrade to Unknown
rather than report a wrong vanishing.  Unknown is the one "the tables cannot
decide" value of the package, held as it is up to the CLI and naming as its
cause the Unknown whose reason it restates, if any.
"""

from __future__ import annotations

from typing import Optional, Union

from .fgab import GroupElement, _Value, _setattr
from .tables import OutOfTabulatedRange, StemEntry, TableSet, UnregisteredName

# Registry entries beyond the raw stem generators: (degree, coefficients).
_DERIVED_NAMES: dict[str, tuple[int, tuple[int, ...]]] = {
    "two": (0, (2,)),  # twice the unit; the stable class of the real Hopf map
    "eta3": (3, (12,)),  # eta^3 = 12 nu, the order-2 class of pi_3^S
    "einf_alpha1_3": (3, (8,)),  # stable image of alpha_1(3), order 3
}

# The registered name of the stable class of each Hopf projection.
_HOPF_NAMES = {"R": "two", "C": "eta", "H": "nu"}


class Unknown(_Value):
    """A value the tables cannot determine: its reason, and the Unknown it restates."""

    __slots__ = ("reason", "cause")

    def __init__(self, reason: str, cause: Optional["Unknown"] = None):
        _setattr(self, "reason", reason)
        _setattr(self, "cause", cause)

    def __str__(self) -> str:
        return self.reason


class StableElement(_Value):
    """An element of a stable stem pi_degree^S."""

    __slots__ = ("degree", "value")

    def __init__(self, degree: int, value: GroupElement):
        _setattr(self, "degree", degree)
        _setattr(self, "value", value)

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero

    def order(self) -> Optional[int]:
        return self.value.order()

    def __str__(self) -> str:
        return f"{self.value} in pi_{self.degree}^S"


ProductResult = Union[StableElement, Unknown]


class StableRing:
    """Query view over the tabulated stems and the partial product table.

    The ring holds its own copy of the TableSet's stems and products, which
    is all it reads: a generator's degree is the key of the stem that names
    it.  So one ring answers for every TableSet with the same stems and
    products, and a later edit of a TableSet's dicts does not reach it."""

    def __init__(self, tables: TableSet):
        self._stems = dict(tables.stems)
        self._products = {pair: tuple(coeffs) for pair, coeffs in tables.products.items()}
        self.max_degree = max(self._stems, default=-1)
        # field tag -> its Hopf class, or the Unknown of an unregistered one.
        self._hopf: dict[str, ProductResult] = {}

    def stem(self, k: int) -> StemEntry:
        """The tabulated stem pi_k^S; errors outside the curated range."""
        if k < 0:
            raise OutOfTabulatedRange(f"stable stem degree {k} < 0")
        stem = self._stems.get(k)
        if stem is None:
            raise OutOfTabulatedRange(f"pi_{k}^S is not tabulated")
        return stem

    def element(self, k: int, coeffs) -> StableElement:
        return StableElement(k, self.stem(k).group.element(coeffs))

    def _derived(self, name: str) -> Optional[tuple[int, tuple[int, ...]]]:
        """(degree, coefficients) of a derived class whose stem is tabulated
        with the rank of its vector, else None."""
        k, coeffs = _DERIVED_NAMES.get(name, (-1, ()))
        stem = self._stems.get(k)
        return (k, coeffs) if stem is not None and stem.group.rank == len(coeffs) else None

    def available_names(self) -> list[str]:
        names = {name for stem in self._stems.values() for name in stem.gen_names}
        return sorted(names | set(filter(self._derived, _DERIVED_NAMES)))

    def named(self, name: str) -> StableElement:
        """Resolve a registered stable class by name."""
        for k, stem in self._stems.items():
            if name in stem.gen_names:
                coeffs = [0] * stem.group.rank
                coeffs[stem.gen_names.index(name)] = 1
                return self.element(k, coeffs)
        derived = self._derived(name)
        if derived is not None:
            return self.element(*derived)
        raise UnregisteredName(
            f"unknown stable class {name!r}; available: "
            + (", ".join(self.available_names()) or "none")
        )

    def hopf_stable(self, field_tag: str) -> ProductResult:
        """Stable class of the Hopf projection: 2*iota, eta, nu for R, C, H,
        or the Unknown of a table that does not register it; resolved once
        per ring."""
        hopf = self._hopf.get(field_tag)
        if hopf is None:
            name = _HOPF_NAMES.get(field_tag)
            if name is None:
                raise ValueError(f"unknown field tag {field_tag!r}")
            try:
                hopf = self.named(name)
            except UnregisteredName as exc:
                hopf = Unknown(str(exc))
            self._hopf[field_tag] = hopf
        return hopf

    def _gen_product(
        self, name_a: str, ka: int, name_b: str, kb: int
    ) -> Union[tuple[int, tuple[int, ...]], Unknown]:
        """(sign, stored vector) of A*B, for generators A of pi_ka^S and B of
        pi_kb^S: as stored, or from B*A with the graded sign."""
        coeffs = self._products.get((name_a, name_b))
        if coeffs is not None:
            return 1, coeffs
        coeffs = self._products.get((name_b, name_a))
        if coeffs is not None:
            return (-1 if (ka % 2 == 1 and kb % 2 == 1) else 1), coeffs
        return Unknown(
            f"product {name_a} * {name_b} (degrees {ka}+{kb}) not tabulated"
        )

    def product(self, ka: int, a: tuple, kb: int, b: tuple) -> Union[tuple[int, ...], Unknown]:
        """Reduced coordinates of a * b, for reduced coordinates a in pi_ka^S and
        b in pi_kb^S, or the Unknown of a degree past the last stem or of the
        first missing generator product.  A trivial target, a zero factor or a
        degree-0 factor needs no stored product."""
        k = ka + kb
        if k > self.max_degree:
            return Unknown(f"product degree {k} beyond tabulated stems (max {self.max_degree})")
        target = self.stem(k).group
        if target.is_trivial or not any(a) or not any(b):
            return (0,) * (target.free_rank + len(target.torsion))
        if ka == 0:
            return target.combine([(a[0], b)])
        if kb == 0:
            return target.combine([(b[0], a)])
        terms = []
        names_a, names_b = self.stem(ka).gen_names, self.stem(kb).gen_names
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                part = self._gen_product(names_a[i], ka, names_b[j], kb)
                if isinstance(part, Unknown):
                    return part
                sign, coeffs = part
                terms.append((sign * ca * cb, coeffs))
        return target.combine(terms)

    def multiply(self, a: StableElement, b: StableElement) -> ProductResult:
        """Composition product, extended bilinearly from generator pairs."""
        k = a.degree + b.degree
        coeffs = self.product(a.degree, a.value.coeffs, b.degree, b.value.coeffs)
        if isinstance(coeffs, Unknown):
            return coeffs
        return StableElement(k, GroupElement._reduced(self.stem(k).group, coeffs))
