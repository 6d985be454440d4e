"""Exact arithmetic for finitely generated abelian groups.

Groups are kept in invariant-factor normal form (torsion orders t1 | t2 | ...),
elements are integer coefficient vectors with torsion coordinates reduced to
[0, t), and homomorphisms are integer matrices acting on generator coordinates.
The one lattice algorithm at run time is a canonical Hermite normal form
(HNF) taken modulo the torsion orders: a subgroup value is its HNF basis, so
membership is a row reduction and equality is equality of values, and a
kernel is read off the HNF of the graph of its map, or, for a cyclic
domain, from the order of the generator's image.  The Smith normal form,
one pivot loop over the diagonal places, stays as a library function and as
the oracle the tests check against.
Every answer is exact, and all values are immutable after construction.
"""

from __future__ import annotations

import enum
from itertools import product as _iproduct
from math import gcd, lcm
from operator import attrgetter
from typing import Iterator, Optional, Sequence

Matrix = list[list[int]]


class FgAbError(ValueError):
    """Domain error: mismatched parents, malformed matrices, bad orders."""


class InputError(ValueError):
    """A deliberate check of a caller's argument failed: bad input, or a query
    outside what is defined.  The CLI reports it and exits 2."""


def _require_int(value, what: str) -> None:
    # True and 2.0 equal 1 and 2 as keys, so they are refused before any lookup.
    if type(value) is not int:
        raise InputError(f"{what} must be an int, got {value!r}")


# Sets a field of a frozen value past its __setattr__ guard.
_setattr = object.__setattr__


class _Value:
    """Base of the package's value classes; defining one generates no code.

    A subclass names its fields in `__slots__` and sets them in `__init__`,
    with `_setattr` (`object.__setattr__`, bound once) unless it is declared
    `frozen=False` (mutable and unhashable).  Equality (same class only),
    hashing and the repr `Name(field=value, ...)` read the fields through one
    attrgetter; `compare` limits the fields equality and hashing read.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True, compare: tuple[str, ...] = ()):
        cls._key = attrgetter(*(compare or cls.__slots__))
        if not frozen:
            cls.__setattr__ = _setattr
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and unpickle: (None, {slot: value})
        for name, value in state[1].items():
            _setattr(self, name, value)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        quo = g // next_g
        x, next_x = next_x, x - quo * next_x
        y, next_y = next_y, y - quo * next_y
        g, next_g = next_g, g - quo * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise FgAbError("determinant of non-square matrix")
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix by unimodular transformations.

    Returns (U, D, V) with D == U * matrix * V, U and V unimodular, D diagonal
    with non-negative entries satisfying d_i | d_{i+1}.  Any rectangular
    matrix is accepted, including empty ones.

    One loop over the diagonal places t (Cohen, GTM 138, section 2.4): the
    smallest nonzero entry p of the trailing block moves to (t, t), and
    floor-division steps clear column t and row t.  If a remainder is left
    there, the place starts again.  If instead an entry of the block is no
    multiple of p, its row is added to row t, one more column step leaves
    its remainder in row t, and the place starts again.  So every restart
    leaves a nonzero entry smaller than |p| in the block: the pivot strictly
    shrinks and the loop ends.  Once the block is all multiples of p, it
    stays so, which gives the divisibility chain.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if any(len(row) != cols for row in matrix):
        raise FgAbError("ragged matrix")
    d = [list(row) for row in matrix]
    u = _identity(rows)
    v = _identity(cols)

    def add_row(dst, src, q):  # row dst += q * row src, in D and in U
        for m in (d, u):
            m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]

    def add_col(dst, src, q):  # column dst += q * column src, in D and in V
        for row in d + v:
            row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
        block = [(abs(d[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if d[i][j]]
        if not block:
            break
        _, i, j = min(block)
        d[t], d[i], u[t], u[i] = d[i], d[t], u[i], u[t]
        for row in d + v:
            row[t], row[j] = row[j], row[t]
        p = d[t][t]
        for i in range(t + 1, rows):
            if d[i][t]:
                add_row(i, t, -(d[i][t] // p))
        for j in range(t + 1, cols):
            if d[t][j]:
                add_col(j, t, -(d[t][j] // p))
        if any(d[t][t + 1:]) or any(d[i][t] for i in range(t + 1, rows)):
            continue
        left = next(((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols)
                     if d[i][j] % p), None)
        if left:
            i, j = left
            add_row(t, i, 1)
            add_col(j, t, -(d[t][j] // p))
            continue
        if p < 0:
            d[t], u[t] = [-a for a in d[t]], [-a for a in u[t]]
        t += 1
    return u, d, v


class FgAbGroup(_Value):
    """A finitely generated abelian group Z^r + Z/t1 + ... + Z/tk.

    The torsion orders are in invariant-factor form: each t_i >= 2 and
    t_i | t_{i+1}.  Equality of groups is structural equality of this
    normal form.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise FgAbError("negative free rank")
        torsion = tuple(map(int, torsion))
        for t in torsion:
            if t < 2:
                raise FgAbError(f"torsion order {t} < 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise FgAbError(
                    f"torsion orders {list(torsion)} violate divisibility chain"
                )
        _setattr(self, "free_rank", free_rank)
        _setattr(self, "torsion", torsion)

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgAbGroup":
        """Z for n == 0, Z/n for n >= 2, trivial for n == 1."""
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls(0, ())
        return cls(0, (n,))

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def coord_orders(self) -> tuple[int, ...]:
        """Per-coordinate orders, 0 for free coordinates."""
        return (0,) * self.free_rank + self.torsion

    def element(self, coeffs: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(coeffs))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def combine(self, terms: Sequence[tuple[int, Sequence[int]]]) -> tuple[int, ...]:
        """Reduced coordinates of the sum of c * column over (c, column) in terms.

        Reduction modulo the torsion orders is linear, so this equals summing
        the elements column.scale(c) one by one.
        """
        off, torsion = self.free_rank, self.torsion
        total = [0] * (off + len(torsion))
        for c, column in terms:
            if len(column) != len(total):
                raise FgAbError(
                    f"coefficient vector of length {len(column)} for group of rank {len(total)}"
                )
            total = [t + c * a for t, a in zip(total, column)]
        for i, t in enumerate(torsion):
            total[off + i] %= t
        return tuple(total)

    def elements(self) -> Iterator["GroupElement"]:
        """Enumerate all elements (finite groups only)."""
        if not self.is_finite:
            raise FgAbError("cannot enumerate an infinite group")
        for coeffs in _iproduct(*(range(t) for t in self.torsion)):
            yield self.element(coeffs)

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z_{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


class GroupElement(_Value):
    """An element of an FgAbGroup, stored in canonical coordinates."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FgAbGroup, coeffs: tuple[int, ...]):
        reduced = list(map(int, coeffs))
        off, torsion = group.free_rank, group.torsion
        if len(reduced) != off + len(torsion):
            raise FgAbError(
                f"coefficient vector of length {len(reduced)} for group of rank {group.rank}"
            )
        for i, t in enumerate(torsion):
            reduced[off + i] %= t
        _setattr(self, "group", group)
        _setattr(self, "coeffs", tuple(reduced))

    @classmethod
    def _reduced(cls, group: FgAbGroup, coeffs: tuple[int, ...]) -> "GroupElement":
        """The element with these coordinates, already reduced and of the
        group's rank; neither is checked again."""
        x = object.__new__(cls)
        _setattr(x, "group", group)
        _setattr(x, "coeffs", coeffs)
        return x

    def _check_same(self, other: "GroupElement"):
        if self.group != other.group:
            raise FgAbError("elements belong to different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_same(other)
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check_same(other)
        return GroupElement(
            self.group, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.coeffs))

    def scale(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(k * a for a in self.coeffs))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def order(self) -> Optional[int]:
        """Least k >= 1 with k*x == 0; None if the free part is nonzero."""
        return _order(self.coeffs, self.group.coord_orders()) or None

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


class Homomorphism(_Value):
    """A homomorphism given by its integer matrix on generator coordinates.

    Column j of `matrix` holds the codomain coordinates of the image of the
    j-th domain generator.  Construction rejects matrices that violate the
    domain's torsion relations.
    """

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(
        self, domain: FgAbGroup, codomain: FgAbGroup, matrix: tuple[tuple[int, ...], ...]
    ):
        mat = tuple(tuple(int(x) for x in row) for row in matrix)
        if len(mat) != codomain.rank or any(len(row) != domain.rank for row in mat):
            raise FgAbError(
                f"matrix of shape {len(mat)}x{len(mat[0]) if mat else 0} for map "
                f"rank {domain.rank} -> rank {codomain.rank}"
            )
        off = domain.free_rank
        for j, t in enumerate(domain.torsion):
            col = [mat[i][off + j] for i in range(codomain.rank)]
            image = codomain.element(col).scale(t)
            if not image.is_zero:
                raise FgAbError(
                    f"matrix not well defined: order-{t} generator maps to an "
                    f"element not killed by {t}"
                )
        _setattr(self, "domain", domain)
        _setattr(self, "codomain", codomain)
        _setattr(self, "matrix", mat)

    @classmethod
    def from_columns(
        cls, domain: FgAbGroup, codomain: FgAbGroup, columns: Sequence[GroupElement]
    ) -> "Homomorphism":
        if len(columns) != domain.rank:
            raise FgAbError("one image column required per domain generator")
        mat = [
            [col.coeffs[i] for col in columns] for i in range(codomain.rank)
        ]
        return cls(domain, codomain, tuple(tuple(r) for r in mat))

    def apply(self, x: GroupElement) -> GroupElement:
        if x.group != self.domain:
            raise FgAbError("argument not in the domain of this homomorphism")
        coeffs = [
            sum(self.matrix[i][j] * x.coeffs[j] for j in range(self.domain.rank))
            for i in range(self.codomain.rank)
        ]
        return self.codomain.element(coeffs)


class Cmp(enum.Enum):
    EQUAL = "equal"
    PROPER_SUB = "proper_sub"
    PROPER_SUPER = "proper_super"
    INCOMPARABLE = "incomparable"


def _relations(coord_orders: Sequence[int]) -> dict[int, list[int]]:
    """The relation row t_i * e_i of each torsion coordinate i, keyed by i."""
    dim = len(coord_orders)
    return {i: [t if j == i else 0 for j in range(dim)] for i, t in enumerate(coord_orders) if t}


def _hnf(rows: Sequence[Sequence[int]], coord_orders: Sequence[int]) -> Matrix:
    """Canonical row Hermite normal form of the lattice spanned by `rows`
    together with the relations t_i * e_i for the nonzero coord_orders.

    Rows come back sorted by pivot column, zero rows dropped, each pivot
    positive and every entry above a pivot reduced into [0, pivot): the
    unique basis of that lattice in this shape.  Each torsion coordinate has
    a pivot dividing its order, since its relation lies in the lattice, so
    entries there stay below that order (HNF modulo D, Cohen GTM 138, 2.4).
    """
    dim = len(coord_orders)
    piv = _relations(coord_orders)
    for row in rows:
        v = list(row)
        for c in range(dim):
            if coord_orders[c]:
                v[c] %= coord_orders[c]
            a = v[c]
            if a == 0:
                continue
            p = piv.get(c)
            if p is None:
                piv[c] = v if a > 0 else [-x for x in v]
                break
            b = p[c]
            if a % b == 0:
                quo = a // b
                v = [x - quo * y for x, y in zip(v, p)]
                continue
            g, x, y = xgcd(b, a)
            piv[c] = [x * pp + y * vv for pp, vv in zip(p, v)]
            v = [(b // g) * vv - (a // g) * pp for pp, vv in zip(p, v)]
    cols = sorted(piv)
    for n, c in reversed(list(enumerate(cols))):
        row = piv[c]
        for d in cols[n + 1 :]:
            quo = row[d] // piv[d][d]
            if quo:
                row = [x - quo * y for x, y in zip(row, piv[d])]
        piv[c] = row
    return [piv[c] for c in cols]


def _pivot(row: Sequence[int]) -> int:
    return next(j for j, x in enumerate(row) if x)


def _reduces_to_zero(v: Sequence[int], basis: Sequence[Sequence[int]]) -> bool:
    """Is v in the lattice with this canonical basis?  Clear v's entry at
    each pivot, left to right; v is in it iff nothing is left."""
    v = list(v)
    for p in basis:
        c = _pivot(p)
        quo, rem = divmod(v[c], p[c])
        if rem:
            return False
        v = [x - quo * y for x, y in zip(v, p)]
    return not any(v)


class Subgroup(_Value, compare=("ambient", "generators_")):
    """A subgroup of an ambient group, kept in canonical form.

    Construction computes `basis`, the row HNF of the given generators with
    the ambient torsion relations, and keeps as `generators_` its rows that
    are nonzero elements; so two Subgroup values are equal, and hash alike,
    exactly when they are the same subgroup.
    """

    __slots__ = ("ambient", "generators_", "basis")

    def __init__(self, ambient: FgAbGroup, generators_: tuple[GroupElement, ...]):
        for g in generators_:
            if g.group != ambient:
                raise FgAbError("subgroup generator outside the ambient group")
        self._adopt(ambient, _hnf([g.coeffs for g in generators_], ambient.coord_orders()))

    @classmethod
    def _canonical(cls, ambient: FgAbGroup, basis: Sequence[Sequence[int]]) -> "Subgroup":
        """The subgroup whose canonical basis, in the shape `_hnf` returns,
        is `basis`; the basis is taken as it is, not put through `_hnf`."""
        sub = object.__new__(cls)
        sub._adopt(ambient, basis)
        return sub

    def _adopt(self, ambient: FgAbGroup, basis: Sequence[Sequence[int]]):
        # Every entry of a canonical row is already reduced, except the pivot
        # t_i of a relation row t_i * e_i: the one row that is the zero element.
        basis = tuple(map(tuple, basis))
        orders = ambient.coord_orders()
        gens = []
        for row in basis:
            c = _pivot(row)
            if row[c] != orders[c]:
                gens.append(GroupElement._reduced(ambient, row))
        _setattr(self, "ambient", ambient)
        _setattr(self, "generators_", tuple(gens))
        _setattr(self, "basis", basis)

    @classmethod
    def trivial(cls, ambient: FgAbGroup) -> "Subgroup":
        """The zero subgroup, built once and shared by the whole process: one
        value per group value that it names.  The key compares by value, so
        the ambient of the value returned may be an equal group of another
        table; nothing may rely on its identity."""
        sub = _TRIVIALS.get(ambient)
        if sub is None:
            sub = _TRIVIALS[ambient] = _trivial_subgroup(ambient)
        return sub

    @classmethod
    def whole(cls, ambient: FgAbGroup) -> "Subgroup":
        """The whole group as a subgroup, shared as `trivial` is."""
        sub = _WHOLES.get(ambient)
        if sub is None:
            sub = _WHOLES[ambient] = _whole_subgroup(ambient)
        return sub

    def contains(self, x: GroupElement) -> bool:
        if x.group != self.ambient:
            raise FgAbError("membership test against a different ambient group")
        return _reduces_to_zero(x.coeffs, self.basis)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        if other.ambient != self.ambient:
            raise FgAbError("subgroup comparison across ambient groups")
        return all(_reduces_to_zero(row, self.basis) for row in other.basis)

    @property
    def is_trivial(self) -> bool:
        return not self.generators_

    def is_whole(self) -> bool:
        # A canonical basis of `rank` rows has its pivots on the diagonal, and
        # with each pivot 1 every entry above it is reduced to 0: the identity.
        basis = self.basis
        return len(basis) == self.ambient.rank and all(r[i] == 1 for i, r in enumerate(basis))

    def enumerate(self) -> set[tuple[int, ...]]:
        """All element coordinate tuples (finite ambient groups only)."""
        if not self.ambient.is_finite:
            raise FgAbError("cannot enumerate a subgroup of an infinite group")
        seen = {self.ambient.zero().coeffs}
        frontier = [self.ambient.zero()]
        while frontier:
            x = frontier.pop()
            for g in self.generators_:
                y = x + g
                if y.coeffs not in seen:
                    seen.add(y.coeffs)
                    frontier.append(y)
        return seen

    def __str__(self) -> str:
        if self.is_trivial:
            return "<0>"
        return "<" + ", ".join(str(g) for g in self.generators_) + ">"


# The trivial and the whole subgroup of each group value the process names.
# No table decides them, so they are shared across tables; kernels are not.
_TRIVIALS: dict[FgAbGroup, Subgroup] = {}
_WHOLES: dict[FgAbGroup, Subgroup] = {}


def _trivial_subgroup(ambient: FgAbGroup) -> Subgroup:
    return Subgroup._canonical(ambient, _relations(ambient.coord_orders()).values())


def _whole_subgroup(ambient: FgAbGroup) -> Subgroup:
    # The identity is canonical, and each of its rows a nonzero element.
    return Subgroup._canonical(ambient, _identity(ambient.rank))


def _order(coeffs: Sequence[int], coord_orders: Sequence[int]) -> int:
    """The order of a vector in coordinates of these orders (0 = free): the
    lcm of t / gcd(c, t) over the torsion coordinates, or 0, for infinite
    order, once a free coordinate is nonzero."""
    k = 1
    for c, t in zip(coeffs, coord_orders):
        if t:
            k = lcm(k, t // gcd(c, t))
        elif c:
            return 0
    return k


def kernel(h: Homomorphism) -> Subgroup:
    """The kernel of a homomorphism, as a subgroup of its domain."""
    return kernel_into_coords(h.domain, h.matrix, h.codomain.coord_orders())


def kernel_into_coords(
    domain: FgAbGroup, rows: Sequence[Sequence[int]], coord_orders: Sequence[int]
) -> Subgroup:
    """Kernel of the map given by `rows` into coordinates with the given
    orders (0 = free).  Used when the codomain is a plain coordinate block,
    e.g. a direct sum of tabulated stems, without renormalizing it.

    A cyclic domain (Z, or Z/d) needs no lattice.  Its kernel is generated
    by k and d, where k is the order of the generator's image: the lcm of
    t / gcd(v, t) over the torsion coordinates, or 0 once a free coordinate
    has v != 0.  Its canonical basis is the one row (gcd(k, d),), taking
    d = 0 for Z, or no row when that gcd is 0.  The rows need not be well
    defined on Z/d; the answer is the one the graph HNF below gives.

    A domain of rank >= 2 takes the graph rows (M e_j | e_j), with the
    torsion relations of both sides.  They span a lattice whose HNF rows
    with a zero codomain part are exactly the kernel's canonical basis."""
    if len(rows) != len(coord_orders):
        raise FgAbError("one coordinate order per matrix row required")
    for row in rows:
        if len(row) != domain.rank:
            raise FgAbError("matrix width must match domain rank")
    if domain.rank == 1:
        g = gcd(_order([v for (v,) in rows], coord_orders), domain.coord_orders()[0])
        return Subgroup._canonical(domain, ((g,),) if g else ())
    c_dim = len(rows)
    graph = [
        [row[j] for row in rows] + [int(i == j) for i in range(domain.rank)]
        for j in range(domain.rank)
    ]
    hnf = _hnf(graph, tuple(coord_orders) + domain.coord_orders())
    return Subgroup._canonical(domain, [r[c_dim:] for r in hnf if not any(r[:c_dim])])


def image(h: Homomorphism) -> Subgroup:
    """The image of a homomorphism, as a subgroup of its codomain."""
    cols = [
        h.codomain.element([h.matrix[i][j] for i in range(h.codomain.rank)])
        for j in range(h.domain.rank)
    ]
    return Subgroup(h.codomain, tuple(cols))


def subgroup_cmp(a: Subgroup, b: Subgroup) -> Cmp:
    """Compare two subgroups of the same ambient group."""
    if a.ambient != b.ambient:
        raise FgAbError("subgroup comparison across ambient groups")
    if a == b:
        return Cmp.EQUAL
    if b.contains_subgroup(a):
        return Cmp.PROPER_SUB
    if a.contains_subgroup(b):
        return Cmp.PROPER_SUPER
    return Cmp.INCOMPARABLE


def direct_sum(groups: Sequence[FgAbGroup]) -> FgAbGroup:
    """Direct sum in invariant-factor form.  Z/a + Z/b = Z/gcd + Z/lcm,
    applied to every pair of torsion orders in turn, leaves t_1 | t_2 | ...;
    the trivial summands among them are dropped."""
    orders = [t for g in groups for t in g.torsion]
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            a, b = orders[i], orders[j]
            d = gcd(a, b)
            orders[i], orders[j] = d, a * b // d
    return FgAbGroup(sum(g.free_rank for g in groups), tuple(t for t in orders if t > 1))
