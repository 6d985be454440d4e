"""Query layer over the curated unstable homotopy tables.

Wraps a parsed TableSet with the operations the coincidence criteria need:
lookup with closed-form synthesis, suspension, stabilization, the total
stabilized Hopf-James invariant, the antipodal action, suspension-image
membership, and the kernel chain Ker(Gamma) <= Ker(h_K . E^inf) <= pi_m(S^q).
Wherever an annotation is missing the answer is a tagged Unknown, never a
guess; the one exception is data that is forced (images inside trivial
groups).  Also hosts the deep dataset validator.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Optional, Union

from .fgab import FgAbError, FgAbGroup, GroupElement, Subgroup, _Value, kernel_into_coords
from .stable import StableElement, StableRing, Unknown
from .tables import (
    OutOfTabulatedRange,
    SphereEntry,
    TableError,
    TableSet,
    UnregisteredName,
    resolve_entry,
)


class SphereClass(_Value):
    """A homotopy class in pi_m(S^q), in the entry's generator coordinates."""

    __slots__ = ("m", "q", "value")

    def __init__(self, m: int, q: int, value: GroupElement):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "value", value)

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero

    def _check(self, other: "SphereClass"):
        if (self.m, self.q) != (other.m, other.q):
            raise FgAbError("classes live in different homotopy groups")

    def __add__(self, other: "SphereClass") -> "SphereClass":
        self._check(other)
        return SphereClass(self.m, self.q, self.value + other.value)

    def __sub__(self, other: "SphereClass") -> "SphereClass":
        self._check(other)
        return SphereClass(self.m, self.q, self.value - other.value)

    def __neg__(self) -> "SphereClass":
        return SphereClass(self.m, self.q, -self.value)

    def scale(self, k: int) -> "SphereClass":
        return SphereClass(self.m, self.q, self.value.scale(k))

    def __str__(self) -> str:
        return f"{self.value} in pi_{self.m}(S^{self.q})"


class GammaValue(_Value):
    """Total stabilized Hopf-James invariant, one component per k."""

    __slots__ = ("m", "q", "components")

    def __init__(
        self, m: int, q: int, components: tuple[tuple[int, Union[StableElement, Unknown]], ...]
    ):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "components", components)

    @property
    def all_known(self) -> bool:
        return all(not isinstance(v, Unknown) for _k, v in self.components)

    def component(self, k: int) -> Union[StableElement, Unknown]:
        for kk, v in self.components:
            if kk == k:
                return v
        raise KeyError(f"no component k={k}")

    def is_zero(self) -> Optional[bool]:
        """True/False when decidable, None when unknowns block the answer."""
        for _k, v in self.components:
            if not isinstance(v, Unknown) and not v.is_zero:
                return False
        if self.all_known:
            return True
        return None

    def __str__(self) -> str:
        parts = []
        for k, v in self.components:
            parts.append(f"k={k}: " + (f"unknown ({v.reason})" if isinstance(v, Unknown) else str(v)))
        return "; ".join(parts) if parts else "(no components)"


class Membership(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class MissingDataError(TableError):
    """An operation that must not degrade to Unknown hit missing data."""


class Violation(_Value):
    __slots__ = ("path", "message")

    def __init__(self, path: str, message: str):
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "message", message)

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class ValidationReport(_Value, frozen=False):
    __slots__ = ("violations",)

    def __init__(self, violations: list[Violation]):
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "dataset consistent: 0 violations"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


Chain = tuple[Subgroup, Subgroup, Subgroup]
ChainTexts = tuple[str, str, str]


class SphereTables:
    """The full query interface over one loaded TableSet.

    The table is never changed after construction, so kernel chains, and
    the texts of their subgroups, are computed once per (m, q, field) and
    kept on the instance.
    """

    def __init__(self, tables: TableSet):
        self.raw = tables
        self.ring = StableRing(tables)
        # (m, q, field_tag) -> the chain and the text of each subgroup in it,
        # or the reason text of its MissingDataError; bounded by the
        # tabulated (m, q) times 3 fields.
        self._chains: dict[tuple[int, int, str], Union[tuple[Chain, ChainTexts], str]] = {}

    # ------------------------------------------------------------- lookup

    def lookup(self, m: int, q: int) -> SphereEntry:
        return resolve_entry(self.raw, m, q)

    def cls(self, m: int, q: int, coeffs) -> SphereClass:
        entry = self.lookup(m, q)
        return SphereClass(m, q, entry.group.element(coeffs))

    def zero(self, m: int, q: int) -> SphereClass:
        entry = self.lookup(m, q)
        return SphereClass(m, q, entry.group.zero())

    def generator(self, m: int, q: int, name: str) -> SphereClass:
        entry = self.lookup(m, q)
        idx = entry.gen_index(name)
        coeffs = [0] * entry.group.rank
        coeffs[idx] = 1
        return SphereClass(m, q, entry.group.element(coeffs))

    def named(self, name: str) -> SphereClass:
        """Resolve a registered class (hopfC, whitehead5, alpha1_3, ...)."""
        nc = self.raw.named.get(name)
        if nc is None:
            raise UnregisteredName(
                f"unknown named class {name!r}; available: "
                + ", ".join(sorted(self.raw.named))
            )
        return self.cls(nc.m, nc.q, nc.coeffs)

    def whitehead(self, q: int) -> SphereClass:
        """The Whitehead square of the identity of S^q, if registered."""
        return self.named(f"whitehead{q}")

    # -------------------------------------------------------- suspension

    def suspend(self, x: SphereClass) -> Union[SphereClass, Unknown]:
        """One suspension step pi_m(S^q) -> pi_{m+1}(S^{q+1})."""
        try:
            target = self.lookup(x.m + 1, x.q + 1)
        except OutOfTabulatedRange:
            return Unknown(f"pi_{x.m + 1}(S^{x.q + 1}) is not tabulated")
        make = partial(SphereClass, x.m + 1, x.q + 1)
        return self._apply(x, "susp", target.group, make)

    def suspend_iter(self, x: SphereClass, times: int) -> Union[SphereClass, Unknown]:
        for _ in range(times):
            x = self.suspend(x)
            if isinstance(x, Unknown):
                return x
        return x

    # ------------------------------------------------------ annotated maps

    def _column(
        self, entry: SphereEntry, i: int, kind: Union[str, int]
    ) -> Union[tuple[int, ...], Unknown]:
        """Stored image of generator i under kind: "susp", "antip", or the
        Hopf-James component k >= 1 (k = 1 is E^inf)."""
        ann = entry.annotations[i]
        if kind == "susp":
            coeffs, what = ann.susp, "suspension of"
        elif kind == "antip":
            coeffs, what = ann.antip, "antipodal action on"
        elif kind == 1:
            coeffs, what = ann.stab, "stabilization of"
        else:
            coeffs, what = ann.gamma_component(kind), f"gamma k={kind} of"
        if coeffs is None:
            return Unknown(
                f"{what} generator {entry.gen_names[i]} of "
                f"pi_{entry.m}(S^{entry.q}) is not annotated"
            )
        return coeffs

    def _apply(self, x: SphereClass, kind: Union[str, int], target: FgAbGroup, make):
        """make(image of x in target under kind): zero when x or the target
        is, else the sum of x's columns, or the first missing one's Unknown."""
        if target.is_trivial or x.is_zero:
            return make(target.zero())
        entry = self.lookup(x.m, x.q)
        terms = []
        for i, c in enumerate(x.value.coeffs):
            if c == 0:
                continue
            coeffs = self._column(entry, i, kind)
            if isinstance(coeffs, Unknown):
                return coeffs
            terms.append((c, coeffs))
        return make(target.combination(terms))

    def _component(self, x: SphereClass, k: int) -> Union[StableElement, Unknown]:
        """Component k of Gamma(x) (k = 1 is E^inf)."""
        degree = self.lookup(x.m, x.q).gamma_degree(k)
        try:
            stem = self.ring.stem(degree)
        except OutOfTabulatedRange:
            return Unknown(f"pi_{degree}^S is not tabulated")
        return self._apply(x, k, stem.group, partial(StableElement, degree))

    def stabilize(self, x: SphereClass) -> Union[StableElement, Unknown]:
        """E^inf: pi_m(S^q) -> pi_{m-q}^S."""
        if x.m < x.q:
            raise FgAbError("stabilization needs m >= q")
        return self._component(x, 1)

    def gamma(self, x: SphereClass) -> GammaValue:
        """Total stabilized Hopf-James invariant of x (component 1 = E^inf)."""
        if x.q < 2:
            raise FgAbError("the Hopf-James invariant needs q >= 2")
        k_max = self.lookup(x.m, x.q).k_max
        comps = [(1, self.stabilize(x))]
        comps += [(k, self._component(x, k)) for k in range(2, k_max + 1)]
        return GammaValue(x.m, x.q, tuple(comps))

    # -------------------------------------------------------- antipodal map

    def antipodal_compose(self, x: SphereClass) -> Union[SphereClass, Unknown]:
        """The class of a . f, a the antipodal map of the target sphere."""
        if x.q % 2 == 1:
            return x  # deg a = +1, a homotopic to the identity
        group = self.lookup(x.m, x.q).group
        return self._apply(x, "antip", group, partial(SphereClass, x.m, x.q))

    # -------------------------------------------- suspension image membership

    def suspension_image_contains(self, m: int, q: int, x: SphereClass) -> Membership:
        """Is x in the image of E: pi_{m-1}(S^{q-1}) -> pi_m(S^q)?"""
        if (x.m, x.q) != (m, q):
            raise FgAbError("class does not live in the stated group")
        if x.is_zero:
            return Membership.YES
        try:
            source = self.lookup(m - 1, q - 1)
        except OutOfTabulatedRange:
            return Membership.UNKNOWN
        target = self.lookup(m, q).group
        columns = [self._column(source, i, "susp") for i in range(source.group.rank)]
        known = [target.element(c) for c in columns if not isinstance(c, Unknown)]
        if Subgroup(target, tuple(known)).contains(x.value):
            return Membership.YES
        return Membership.NO if len(known) == len(columns) else Membership.UNKNOWN

    # ------------------------------------------------------- kernel chain

    def kernel_chain(self, m: int, q: int, field_tag: str) -> Chain:
        """(Ker Gamma, Ker(h_K . E^inf), whole group) for pi_m(S^q).

        Raises MissingDataError when an annotation or stable product the
        criteria need is absent.  Ker Gamma <= Ker(h_K . E^inf) is checked;
        the other inclusions hold by construction, since each kernel is a
        subgroup of the whole group.  Each answer is computed once; a
        repeated gap raises a fresh error with the same text.
        """
        return self._chain_entry(m, q, field_tag)[0]

    def kernel_chain_texts(self, m: int, q: int, field_tag: str) -> ChainTexts:
        """str() of each subgroup of kernel_chain(m, q, field_tag), formatted
        once when the chain is built and kept with it."""
        return self._chain_entry(m, q, field_tag)[1]

    def _chain_entry(self, m: int, q: int, field_tag: str) -> tuple[Chain, ChainTexts]:
        key = (m, q, field_tag)
        entry = self._chains.get(key)
        if entry is None:
            try:
                chain = self._build_chain(m, q, field_tag)
                entry = (chain, tuple(map(str, chain)))
            except MissingDataError as exc:
                entry = str(exc)
            self._chains[key] = entry
        if isinstance(entry, str):
            raise MissingDataError(entry)
        return entry

    def _build_chain(self, m: int, q: int, field_tag: str) -> Chain:
        entry = self.lookup(m, q)
        group = entry.group
        whole = Subgroup.whole(group)
        if group.is_trivial:
            triv = Subgroup.trivial(group)
            return triv, triv, whole

        def known(value):
            if isinstance(value, Unknown):
                raise MissingDataError(value.reason)
            return value

        def columns(k: int) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
            """Component k of each generator as an integer column, with the
            coordinate orders of its stem; no rows into a trivial stem."""
            degree = entry.gamma_degree(k)
            stem = self.ring.stem(degree).group
            if stem.is_trivial:
                return [()] * group.rank, ()
            cols = [known(self._column(entry, i, k)) for i in range(group.rank)]
            for c in cols:
                if len(c) != stem.rank:
                    raise FgAbError(
                        f"coefficient vector of length {len(c)} for group of rank {stem.rank}"
                    )
            return cols, stem.coord_orders()

        def kernel(blocks: list[tuple[list[tuple[int, ...]], tuple[int, ...]]]) -> Subgroup:
            """Common kernel of the maps sending generator i to column i of
            each block."""
            rows: list[list[int]] = []
            orders: list[int] = []
            for cols, block_orders in blocks:
                rows += [[c[r] for c in cols] for r in range(len(block_orders))]
                orders += block_orders
            return kernel_into_coords(group, rows, orders)

        stab = columns(1)
        ker_gamma = kernel([stab] + [columns(k) for k in range(2, entry.k_max + 1)])

        try:
            hopf = self.ring.hopf_stable(field_tag)
        except UnregisteredName as exc:
            raise MissingDataError(str(exc)) from None
        degree = entry.gamma_degree(1)
        products = [known(self.ring.multiply(hopf, self.ring.element(degree, c))) for c in stab[0]]
        target = products[0].value.group
        ker_hopf = kernel([([p.value.coeffs for p in products], target.coord_orders())])

        if not ker_hopf.contains_subgroup(ker_gamma):
            raise FgAbError(
                f"kernel chain broken for pi_{m}(S^{q}), K={field_tag}: "
                f"Ker Gamma is not contained in Ker(h_K . E^inf)"
            )
        return ker_gamma, ker_hopf, whole

    # ---------------------------------------------------------- validation

    def validate(self) -> ValidationReport:
        """Deep internal-consistency check of the loaded dataset."""
        v: list[Violation] = []

        def bad(path, message):
            v.append(Violation(path, message))

        # Each generator's h_K . E^inf is checked below; a table without
        # generators needs no Hopf class.
        hopfs = {}
        for tag in ("R", "C", "H") if self.raw.entries else ():
            try:
                hopfs[tag] = self.ring.hopf_stable(tag)
            except UnregisteredName as exc:
                bad(f"h_{tag}", str(exc))

        for (m, q), entry in sorted(self.raw.entries.items()):
            path = f"pi_{m}(S^{q})"
            for name, ann in zip(entry.gen_names, entry.annotations):
                gpath = f"{path} gen {name}"
                gen = self.generator(m, q, name)
                # Diagram consistency at k = 1: a stored first component must
                # equal the stabilization, and the Hopf products h_K . E^inf
                # needed by the weakest criterion must be computable.
                gamma1 = ann.gamma_component(1)
                if gamma1 is not None:
                    if ann.stab is None:
                        bad(gpath, "gamma k=1 stored but stabilization missing")
                    elif tuple(gamma1) != tuple(ann.stab):
                        bad(
                            gpath,
                            "gamma k=1 component disagrees with the stabilization "
                            f"({list(gamma1)} vs {list(ann.stab)})",
                        )
                s1 = self.stabilize(gen)
                if not isinstance(s1, Unknown):
                    for tag, hopf in hopfs.items():
                        if (m - q) + hopf.degree > self.ring.max_degree:
                            bad(gpath, f"h_{tag} product degree exceeds tabulated stems")
                            continue
                        prod = self.ring.multiply(hopf, s1)
                        if isinstance(prod, Unknown):
                            bad(gpath, f"h_{tag} . E^inf not computable: {prod.reason}")
                # Stabilize-suspend coherence.
                if ann.susp is not None and not isinstance(s1, Unknown):
                    susp = self.suspend(gen)
                    s2 = susp if isinstance(susp, Unknown) else self.stabilize(susp)
                    if not isinstance(s2, Unknown) and s1.value != s2.value:
                        bad(
                            gpath,
                            f"stabilization not suspension-invariant: "
                            f"{s1} vs {s2} after E",
                        )
                # Antipodal constraints.
                if q % 2 == 1 and ann.antip is not None:
                    if entry.group.element(ann.antip) != gen.value:
                        bad(gpath, "antipodal action must be the identity for odd q")
            # Antipodal involution (even q, fully annotated entries).
            if q % 2 == 0 and all(a.antip is not None for a in entry.annotations):
                for name in entry.gen_names:
                    g = self.generator(m, q, name)
                    if self.antipodal_compose(self.antipodal_compose(g)).value != g.value:
                        bad(path, f"antipodal action is not an involution on {name}")

        # Registry constraints.
        for name, nc in sorted(self.raw.named.items()):
            if not name.startswith("whitehead"):
                continue
            q = int(name[len("whitehead"):])
            try:
                w = self.named(name)
            except (LookupError, TableError):
                bad(f"name {name}", "cannot resolve registered class")
                continue
            if (w.m, w.q) != (2 * q - 1, q):
                bad(f"name {name}", f"must live in pi_{2 * q - 1}(S^{q})")
                continue
            if q % 2 == 1:
                order = w.value.order()
                if order is None or order > 2:
                    bad(f"name {name}", "Whitehead square of odd identity must have order <= 2")
            if q in (1, 3, 7):
                if not w.is_zero:
                    bad(f"name {name}", f"Whitehead square must vanish for q={q}")
            elif w.is_zero:
                bad(f"name {name}", f"Whitehead square must be nonzero for q={q}")
        if "alpha1_3" in self.raw.named:
            a13 = self.named("alpha1_3")
            if (a13.m, a13.q) != (6, 3):
                bad("name alpha1_3", "must live in pi_6(S^3)")
            else:
                stab = self.stabilize(a13)
                if isinstance(stab, Unknown) or stab.order() != 3:
                    bad("name alpha1_3", "stable image must have order 3")
        return ValidationReport(v)
