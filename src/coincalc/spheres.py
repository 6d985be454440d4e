"""Query layer over the curated unstable homotopy tables.

Wraps a parsed TableSet with the operations the coincidence criteria need:
lookup with closed-form synthesis, suspension, stabilization, the total
stabilized Hopf-James invariant, the antipodal action, suspension-image
membership (True, False, or the Unknown that blocks it), and the kernel
chain Ker(Gamma) <= Ker(h_K . E^inf) <= pi_m(S^q).
Wherever an annotation is missing the answer is a tagged Unknown, never a
guess; the one exception is data that is forced (images inside trivial
groups).  Also hosts the deep dataset validator.
"""

from __future__ import annotations

from typing import Optional, Union

from .fgab import (
    FgAbError,
    FgAbGroup,
    GroupElement,
    Subgroup,
    _Value,
    _require_int,
    _setattr,
    kernel_into_coords,
)
from .stable import StableElement, StableRing, Unknown
from .tables import (
    OutOfTabulatedRange,
    SchemaError,
    SphereEntry,
    TableSet,
    UnregisteredName,
    map_target,
    resolve_entry,
)


class SphereClass(_Value):
    """A homotopy class in pi_m(S^q), in the entry's generator coordinates."""

    __slots__ = ("m", "q", "value")

    def __init__(self, m: int, q: int, value: GroupElement):
        _setattr(self, "m", m)
        _setattr(self, "q", q)
        _setattr(self, "value", value)

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


class GammaValue(_Value):
    """Total stabilized Hopf-James invariant, one component per k."""

    __slots__ = ("m", "q", "components")

    def __init__(
        self, m: int, q: int, components: tuple[tuple[int, Union[StableElement, Unknown]], ...]
    ):
        _setattr(self, "m", m)
        _setattr(self, "q", q)
        _setattr(self, "components", components)

    def component(self, k: int) -> Union[StableElement, Unknown]:
        for kk, v in self.components:
            if kk == k:
                return v
        raise KeyError(f"no component k={k}")

    def is_zero(self) -> Union[bool, Unknown]:
        """True or False when decidable, else the first Unknown component."""
        for _k, v in self.components:
            if not isinstance(v, Unknown) and not v.is_zero:
                return False
        return next((v for _k, v in self.components if isinstance(v, Unknown)), True)

    def __str__(self) -> str:
        parts = [f"k={k}: " + (f"unknown ({v})" if isinstance(v, Unknown) else str(v))
                 for k, v in self.components]
        return "; ".join(parts) if parts else "(no components)"


class Violation(_Value):
    __slots__ = ("path", "message")

    def __init__(self, path: str, message: str):
        _setattr(self, "path", path)
        _setattr(self, "message", message)

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


def _unit(rank: int, i: int) -> tuple[int, ...]:
    """Coordinates of generator i in a group of this rank."""
    return (0,) * i + (1,) + (0,) * (rank - 1 - i)


def _touched(group: FgAbGroup, coeffs, columns) -> Union[tuple[int, ...], Unknown]:
    """Reduced coordinates in group of the sum of the _map columns the class
    coeffs touches, or the Unknown of the first gap it touches."""
    terms = []
    for c, column in zip(coeffs, columns):
        if c:
            if isinstance(column, Unknown):
                return column
            terms.append((c, column))
    return group.combine(terms)


# A Gamma record's value for a component that is zero on every class, until
# gamma() first needs that zero.
_ZERO = object()

# The violations of each curated entry's own checks (see
# SphereTables._entry_violations), once per process for each distinct set of
# the inputs they read.  The outer key is the table's ring key (see
# SphereTables._shared).  Under it, an entry is keyed by its (m, q), its id
# and the id of its curated susp target, or of None if it has none.  Each
# value holds the objects whose ids its key has, so no id is reused while the
# key is stored.
_CHECKED: dict[tuple, tuple[tuple, dict]] = {}

# Each kernel chain, once per process for each distinct set of the inputs it
# reads: the entry, the stems its Gamma record lands in, the Hopf class (stem
# generator names and degrees) and the products.  The outer key is the
# table's ring key (see SphereTables._shared).  Under it, a chain is keyed by
# (m, q, field_tag, id of the curated or closed-form entry pi_m(S^q)), and
# its value is (entry, chain), so no id is reused while the key is stored.
# A raise (a broken chain, q < 2, a column of the wrong length, an
# untabulated group) is never stored.
_CHAINS: dict[tuple, tuple[tuple, dict]] = {}

Kernel = Union[Subgroup, Unknown]
Chain = tuple[Kernel, Kernel, Subgroup]


class SphereTables:
    """The full query interface over one loaded TableSet.

    The table is never changed after construction, so each looked-up entry,
    each annotated map's columns (the one store that the pointwise maps, the
    kernel chain, Im E and validate() read), each Gamma record (the one store
    that gamma() and the kernel chain read) and each suspension image is
    computed once and kept.  These stay with this instance.  What no table
    decides is shared by the whole process instead: each closed-form entry
    (see tables.closed_form_entry) and the trivial and whole subgroups of a
    group (Subgroup.trivial, Subgroup.whole), so a fresh SphereTables builds
    none of those that an earlier one has.  The parsed entries themselves
    are shared by text: TableSets parsed from one group or stem block hold
    its one entry (see tables._BLOCKS), each in dicts of its own.  The
    violations of each entry's own checks in validate() and each kernel
    chain are shared as well, keyed by the objects they read (see _CHECKED
    and _CHAINS): a table that shares an entry, the stems and the products
    with an earlier one neither checks that entry again (if it also shares
    its susp target) nor builds its chains again.
    """

    def __init__(self, tables: TableSet):
        self.raw = tables
        self.ring = StableRing(tables)
        # Each memo holds only what was asked for: at most one value per
        # resolved (m, q), times each kind of map.
        # (m, q) -> its entry; an untabulated (m, q) raises and is not kept.
        self._entries: dict[tuple[int, int], SphereEntry] = {}
        # (m, q, kind) -> the _map record (target, columns, first gap).
        self._maps: dict[tuple[int, int, Union[str, int]], tuple] = {}
        # (m, q) -> its Gamma record, one item per Hopf-James component.
        self._gammas: dict[tuple[int, int], list] = {}
        # (m, q) -> (Im E from the known susp columns of pi_{m-1}(S^{q-1}), the
        # first missing column or None); (None, why) if the source is untabulated.
        self._susp_images: dict[tuple[int, int], tuple[Optional[Subgroup], Optional[Unknown]]] = {}
        # The ring key of _shared and this table's part of _CHAINS, each found
        # when first needed.
        self._ring: Optional[tuple] = None
        self._chain_store: Optional[dict] = None

    def _shared(self, store: dict) -> dict:
        """This table's part of a process-wide store (_CHECKED, _CHAINS), kept
        under its ring key: what the stable ring reads, the stems' degrees and
        ids, the products and the stem generator names and degrees (the parser
        derives these from the stems; a TableSet built by hand need not).  The
        key is built once per instance; the stored value holds the stems, so
        no id is reused while the key is stored.  It is one flat tuple, led by
        the lengths that fix where each run of it starts: CPython keeps up to
        2000 freed tuples of each length up to 20 for reuse, so the short
        tuples of a nested key, dropped with each session, would stay resident
        (about 0.4 MB with the bundled table's 20 stems)."""
        key = self._ring
        if key is None:
            raw = self.raw
            key = self._ring = (
                len(raw.stems), len(raw.products), *raw.stems, *map(id, raw.stems.values()),
                *raw.products, *raw.products.values(),
                *raw.stem_gen_degrees, *raw.stem_gen_degrees.values())
        held = store.get(key)
        if held is None:
            held = store[key] = tuple(self.raw.stems.values()), {}
        return held[1]

    # ------------------------------------------------------------- lookup

    def lookup(self, m: int, q: int) -> SphereEntry:
        """The entry pi_m(S^q).  A degree that is no int is refused before it
        is first kept; a later equal key (2.0 for 2) finds the int entry."""
        entry = self._entries.get((m, q))
        if entry is None:
            _require_int(m, "m")
            _require_int(q, "q")
            entry = self._entries[m, q] = resolve_entry(self.raw, m, q)
        return entry

    # A class takes its degrees from its entry, so they are ints.
    def cls(self, m: int, q: int, coeffs) -> SphereClass:
        entry = self.lookup(m, q)
        return SphereClass(entry.m, entry.q, entry.group.element(coeffs))

    def zero(self, m: int, q: int) -> SphereClass:
        entry = self.lookup(m, q)
        return SphereClass(entry.m, entry.q, entry.group.zero())

    def generator(self, m: int, q: int, name: str) -> SphereClass:
        entry = self.lookup(m, q)
        idx = entry.gen_index(name)
        coeffs = [0] * entry.group.rank
        coeffs[idx] = 1
        return SphereClass(entry.m, entry.q, entry.group.element(coeffs))

    def named(self, name: str) -> SphereClass:
        """Resolve a registered class (hopfC, whitehead5, alpha1_3, ...)."""
        nc = self.raw.named.get(name)
        if nc is None:
            raise UnregisteredName(
                f"unknown named class {name!r}; available: "
                + (", ".join(sorted(self.raw.named)) or "none")
            )
        return self.cls(nc.m, nc.q, nc.coeffs)

    def whitehead(self, q: int) -> SphereClass:
        """The Whitehead square of the identity of S^q, if registered."""
        return self.named(f"whitehead{q}")

    # -------------------------------------------------------- suspension

    def suspend(self, x: SphereClass) -> Union[SphereClass, Unknown]:
        """One suspension step pi_m(S^q) -> pi_{m+1}(S^{q+1})."""
        return self._apply(x, "susp")

    def suspend_iter(self, x: SphereClass, times: int) -> Union[SphereClass, Unknown]:
        for _ in range(times):
            x = self.suspend(x)
            if isinstance(x, Unknown):
                return x
        return x

    # ------------------------------------------------------ annotated maps

    def _map(self, entry: SphereEntry, kind: Union[str, int]) -> tuple:
        """The annotated map kind ("susp", "antip", or Hopf-James component k >= 1,
        k = 1 being E^inf) out of entry, resolved once: (target, one column per
        generator, first gap or None).  A column is the reduced stored row, zero
        in a trivial target, or a missing row's Unknown; an untabulated target
        is None, and its reason's Unknown is every column and the gap."""
        key = (entry.m, entry.q, kind)
        stored = self._maps.get(key)
        if stored is not None:
            return stored
        target = map_target(self.raw, entry, kind)
        if isinstance(target, str):
            gap = Unknown(target)
            stored = self._maps[key] = None, (gap,) * entry.group.rank, gap
            return stored
        if target.group.is_trivial:
            stored = self._maps[key] = target, ((),) * entry.group.rank, None
            return stored
        combine, columns, gap = target.group.combine, [], None
        for name, ann in zip(entry.gen_names, entry.annotations):
            if kind == 1:
                row, what = ann.stab, "stabilization of"
            elif kind == "susp":
                row, what = ann.susp, "suspension of"
            elif kind == "antip":
                row, what = ann.antip, "antipodal action on"
            else:
                row, what = ann.gamma_component(kind), f"gamma k={kind} of"
            if row is not None:
                columns.append(combine([(1, row)]))
            else:
                columns.append(Unknown(
                    f"{what} generator {name} of pi_{entry.m}(S^{entry.q}) is not annotated"))
                gap = gap or columns[-1]
        stored = self._maps[key] = target, tuple(columns), gap
        return stored

    def _image(self, entry: SphereEntry, coeffs, kind: Union[str, int]) -> Union[tuple, Unknown]:
        """(target, reduced coordinates in it) of the class coeffs of entry under
        kind, or the Unknown of an untabulated target or of _touched's gap."""
        target, columns, gap = self._map(entry, kind)
        if target is None:
            return gap
        coords = _touched(target.group, coeffs, columns)
        return coords if isinstance(coords, Unknown) else (target, coords)

    def _apply(self, x: SphereClass, kind: Union[str, int]):
        """The image of x under kind (Gamma component k is a StableElement), or
        the Unknown of _image."""
        image = self._image(self.lookup(x.m, x.q), x.value.coeffs, kind)
        if isinstance(image, Unknown):
            return image
        target, coeffs = image
        value = GroupElement._reduced(target.group, coeffs)
        if isinstance(target, SphereEntry):
            return SphereClass(target.m, target.q, value)
        return StableElement(target.degree, value)

    def stabilize(self, x: SphereClass) -> Union[StableElement, Unknown]:
        """E^inf: pi_m(S^q) -> pi_{m-q}^S."""
        if x.m < x.q:
            raise FgAbError("stabilization needs m >= q")
        return self._apply(x, 1)

    def _gamma_record(self, entry: SphereEntry) -> list:
        """The Gamma record of entry, built once: for each k = 1..k_max the
        _map record (stem, columns, first gap) and the value the component
        takes on every class, if it has one.  That value is the gap's Unknown
        of an untabulated stem, or _ZERO where every column is zero (also in
        a trivial stem), replaced by the stem's zero when gamma() first needs
        it; a component that depends on the class has None."""
        record = self._gammas.get((entry.m, entry.q))
        if record is None:
            record = []
            for k in range(1, entry.k_max + 1):
                stem, columns, gap = self._map(entry, k)
                if stem is None:
                    value = gap
                elif gap is None and not any(map(any, columns)):
                    value = _ZERO
                else:
                    value = None
                record.append((stem, columns, gap, value))
            self._gammas[entry.m, entry.q] = record
        return record

    def gamma(self, x: SphereClass) -> GammaValue:
        """Total stabilized Hopf-James invariant of x (component 1 = E^inf),
        read from the Gamma record: a component with one value for every
        class is that shared value, any other the _touched sum of its columns."""
        if x.q < 2:
            raise FgAbError("the Hopf-James invariant needs q >= 2")
        record = self._gammas.get((x.m, x.q)) or self._gamma_record(self.lookup(x.m, x.q))
        if x.m < x.q:
            raise FgAbError("stabilization needs m >= q")
        coeffs, comps = x.value.coeffs, []
        for k, (stem, columns, gap, value) in enumerate(record, 1):
            if value is None:
                value = _touched(stem.group, coeffs, columns)
                if not isinstance(value, Unknown):
                    value = StableElement(stem.degree, GroupElement._reduced(stem.group, value))
            elif value is _ZERO:
                value = StableElement(stem.degree, stem.group.zero())
                record[k - 1] = stem, columns, gap, value
            comps.append((k, value))
        return GammaValue(x.m, x.q, tuple(comps))

    # -------------------------------------------------------- antipodal map

    def antipodal_compose(self, x: SphereClass) -> Union[SphereClass, Unknown]:
        """The class of a . f, a the antipodal map of the target sphere."""
        if x.q % 2 == 1:
            return x  # deg a = +1, a homotopic to the identity
        return self._apply(x, "antip")

    # -------------------------------------------- suspension image membership

    def suspension_image_contains(self, m: int, q: int, x: SphereClass) -> Union[bool, Unknown]:
        """Is x in the image of E: pi_{m-1}(S^{q-1}) -> pi_m(S^q)?  True, False, or
        the Unknown of an untabulated source or of its first missing susp column."""
        if (x.m, x.q) != (m, q):
            raise FgAbError("class does not live in the stated group")
        if x.is_zero:
            return True
        image = self._susp_images.get((m, q))
        if image is None:
            try:
                source = self.lookup(m - 1, q - 1)
            except OutOfTabulatedRange as exc:
                image = None, Unknown(str(exc))
            else:
                target, columns, gap = self._map(source, "susp")
                known = [target.group.element(c) for c in columns if not isinstance(c, Unknown)]
                image = Subgroup(target.group, tuple(known)), gap
            self._susp_images[m, q] = image
        subgroup, gap = image
        if subgroup is not None and subgroup.contains(x.value):
            return True
        return False if gap is None else gap

    # ------------------------------------------------------- kernel chain

    def kernel_chain(self, m: int, q: int, field_tag: str) -> Chain:
        """(Ker Gamma, Ker(h_K . E^inf), whole group) for pi_m(S^q), each kernel
        a Subgroup or the Unknown of its own first gap, so a gap in one leaves
        the other known.  When both are known, a table that breaks Ker Gamma <=
        Ker(h_K . E^inf) raises SchemaError.  Each answer is computed once per
        process for its entry, stems, Hopf class and products (see _CHAINS),
        so a fresh SphereTables over a table that shares them with an earlier
        one builds none of its chains; a raise is not kept."""
        if q < 2:
            raise FgAbError("the Hopf-James invariant needs q >= 2")
        entry = self.lookup(m, q)
        chains = self._chain_store
        if chains is None:
            chains = self._chain_store = self._shared(_CHAINS)
        key = m, q, field_tag, id(entry)
        held = chains.get(key)
        if held is None:
            held = chains[key] = entry, self._build_chain(m, q, field_tag)
        return held[1]

    def _build_chain(self, m: int, q: int, field_tag: str) -> Chain:
        """The chain from the integer cores: Ker Gamma from the Gamma record's
        blocks of k = 1..k_max (first gap: first k, then generator; a zero
        block adds no condition), Ker(h_K . E^inf) from ring.product of each
        E^inf column of block 1 (first gap: a missing E^inf column, then the
        Hopf class, then a product)."""
        entry = self.lookup(m, q)
        group = entry.group
        if group.is_trivial:
            triv = Subgroup.trivial(group)
            return triv, triv, triv  # the whole of a trivial group is trivial
        whole = Subgroup.whole(group)
        rows: list[tuple[int, ...]] = []  # one per coordinate of each Gamma component's stem
        orders: list[int] = []
        stab = None
        for k, (stem, columns, ker_gamma, value) in enumerate(self._gamma_record(entry), 1):
            if ker_gamma is not None:  # the block's first gap
                break
            if k == 1:
                stab = columns
            if value is None:
                rows += zip(*columns)
                orders += stem.group.coord_orders()
        else:
            ker_gamma = kernel_into_coords(group, rows, orders)
        if stab is None:
            return ker_gamma, ker_gamma, whole  # both kernels need every E^inf column
        hopf = self.ring.hopf_stable(field_tag)
        if isinstance(hopf, Unknown):
            ker_hopf = hopf
        else:
            products = []
            for column in stab:
                product = self.ring.product(hopf.degree, hopf.value.coeffs, m - q, column)
                if isinstance(product, Unknown):
                    ker_hopf = product
                    break
                products.append(product)
            else:
                target = self.ring.stem(hopf.degree + m - q).group
                ker_hopf = kernel_into_coords(group, list(zip(*products)), target.coord_orders())
        if isinstance(ker_gamma, Subgroup) and isinstance(ker_hopf, Subgroup) \
                and not ker_hopf.contains_subgroup(ker_gamma):
            # The table's rows are inconsistent, a data fault; the raise is
            # not kept, so each ask raises again.
            raise SchemaError(
                f"kernel chain broken for K={field_tag}: "
                f"Ker Gamma is not contained in Ker(h_K . E^inf)",
                f"pi_{m}(S^{q})",
            )
        return ker_gamma, ker_hopf, whole

    # ---------------------------------------------------------- validation

    def validate(self) -> ValidationReport:
        """Deep internal-consistency check of the loaded dataset.

        Checks, in report order:
        - the Hopf classes two, eta, nu are registered (if any entry is);
        - per generator g of each curated pi_m(S^q): a gamma k=1 row needs
          and equals the stab row; h_K . E^inf(g) is computable (degree
          within the stems, every generator product stored); E^inf(g) =
          E^inf(E g) through the susp row and the stab rows above; for odd
          q, the antip row is g;
        - for even q with every antip row present: antip is an involution;
        - whitehead<q> lives in pi_{2q-1}(S^q), has order <= 2 for odd q and
          is zero exactly for q = 1, 3, 7; any other whitehead... name fails;
        - alpha1_3 lives in pi_6(S^3), with a stable image of order 3;
        - each of these two names lies in a tabulated group (the parser
          refuses any other name; a TableSet built by hand is told so).
        Images are integer vectors; objects and text are made for violations.

        The checks of one entry (_entry_violations) run once per process
        for each distinct set of the inputs they read, kept in _CHECKED: a
        table that shares all but one group block with an earlier one
        re-checks only that block's entry and the entry whose susp lands in
        it.  The Hopf-class and registry checks run on every call.

        It cannot catch a Hopf-James component with k >= 2 (never read) or a
        product row no identity constrains (`prod eta eta -> 2 1` shifted to
        0): of the 204 +-1 shifts of one annotation, product or name coefficient
        in the bundled table, 113 pass, 14 of them changing a tabulated-range scan.
        """
        v: list[Violation] = []

        def bad(path, message):
            v.append(Violation(path, message))

        raw = self.raw
        # Each generator's h_K . E^inf is checked below; a table without
        # generators needs no Hopf class.
        hopfs = []
        for tag in ("R", "C", "H") if raw.entries else ():
            hopf = self.ring.hopf_stable(tag)
            if isinstance(hopf, Unknown):
                bad(f"h_{tag}", hopf.reason)
            else:
                hopfs.append((tag, hopf.degree, hopf.value.coeffs))

        checked = self._shared(_CHECKED)
        for key, entry in sorted(raw.entries.items()):
            # The susp target, or None where (m + 1, q + 1) is not curated:
            # a closed form is then decided by the entry's own degrees.
            above = raw.entries.get((entry.m + 1, entry.q + 1))
            ids = key, id(entry), id(above)
            found = checked.get(ids)
            if found is None:
                found = checked[ids] = entry, above, self._entry_violations(key, entry, hopfs)
            v += found[2]

        def registered(name):
            """The class name registers, or None once an untabulated group or
            a vector that does not fit its group is reported: the parser
            refuses such a name, and a TableSet built by hand is told so in
            the parser's words."""
            nc = raw.named[name]
            try:
                entry = self.lookup(nc.m, nc.q)
            except OutOfTabulatedRange:
                bad(f"name {name}", f"registered in untabulated pi_{nc.m}(S^{nc.q})")
                return None
            if len(nc.coeffs) != entry.group.rank:
                bad(f"name {name}", f"vector length {len(nc.coeffs)} != rank {entry.group.rank}")
                return None
            return SphereClass(entry.m, entry.q, entry.group.element(nc.coeffs))

        # Registry constraints.
        for name in sorted(self.raw.named):
            if not name.startswith("whitehead"):
                continue
            digits = name[len("whitehead"):]
            if not (digits.isascii() and digits.isdigit()) or str(int(digits)) != digits:
                bad(f"name {name}", "not whitehead<q> with q in decimal digits and no leading zero")
                continue
            q = int(digits)
            w = registered(name)
            if w is None:
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
        if "alpha1_3" in self.raw.named and (a13 := registered("alpha1_3")) is not None:
            if (a13.m, a13.q) != (6, 3):
                bad("name alpha1_3", "must live in pi_6(S^3)")
            else:
                stab = self.stabilize(a13)
                if isinstance(stab, Unknown) or stab.order() != 3:
                    bad("name alpha1_3", "stable image must have order 3")
        return ValidationReport(v)

    def _entry_violations(self, key, entry: SphereEntry, hopfs: list) -> tuple[Violation, ...]:
        """The violations of the curated entry stored under key (m, q), in
        report order: its generators' checks, then the involution check.
        hopfs holds (tag, degree, coefficients) of each registered Hopf class.
        Besides the entry, the checks read only its susp target, the stems
        (which fix hopfs), the stem generator degrees and the products: the
        inputs that _CHECKED keys."""
        v: list[Violation] = []

        def bad(message, gen=None):
            path = "pi_{}(S^{})".format(*key)
            v.append(Violation(path if gen is None else f"{path} gen {gen}", message))

        m, q = key
        rank, stem = entry.group.rank, m - q
        max_degree, product = self.ring.max_degree, self.ring.product
        # The susp and antip columns are read once, when a check first needs them.
        susp_map = antips = None
        stabs = self._map(entry, 1)[1]
        for i, (name, ann, stab) in enumerate(zip(entry.gen_names, entry.annotations, stabs)):
            gamma1 = ann.gamma_component(1)
            if gamma1 is not None:
                if ann.stab is None:
                    bad("gamma k=1 stored but stabilization missing", name)
                elif tuple(gamma1) != tuple(ann.stab):
                    bad(
                        "gamma k=1 component disagrees with the stabilization "
                        f"({list(gamma1)} vs {list(ann.stab)})",
                        name,
                    )
            s1 = None if isinstance(stab, Unknown) else stab
            for tag, degree, coeffs in hopfs if s1 is not None else ():
                if stem + degree > max_degree:
                    bad(f"h_{tag} product degree exceeds tabulated stems", name)
                    continue
                prod = product(degree, coeffs, stem, s1)
                if isinstance(prod, Unknown):
                    bad(f"h_{tag} . E^inf not computable: {prod.reason}", name)
            if ann.susp is not None:
                if susp_map is None:
                    susp_map = self._map(entry, "susp")
                above, susps, gap = susp_map
                if above is None:
                    # The parser refuses such a row; a TableSet built by hand
                    # is told so in the parser's words.
                    bad(f"susp target {gap.reason}", name)
                elif s1 is not None:
                    s2 = self._image(above, susps[i], 1)
                    if not isinstance(s2, Unknown) and s1 != s2[1]:
                        bad(
                            f"stabilization not suspension-invariant: "
                            f"{self.ring.element(m - q, s1)} vs "
                            f"{self.ring.element(m - q, s2[1])} after E",
                            name,
                        )
            if q % 2 == 1 and ann.antip is not None:
                if antips is None:
                    antips = self._map(entry, "antip")[1]
                if antips[i] != _unit(rank, i):
                    bad("antipodal action must be the identity for odd q", name)
        if q % 2 == 0 and all(a.antip is not None for a in entry.annotations):
            antips = self._map(entry, "antip")[1]
            for i, (name, once) in enumerate(zip(entry.gen_names, antips)):
                if self._image(entry, once, "antip")[1] != _unit(rank, i):
                    bad(f"antipodal action is not an involution on {name}")
        return tuple(v)
