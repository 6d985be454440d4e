"""Line-oriented table format for curated homotopy group data.

One plain-text UTF-8 file carries everything the calculator knows about
homotopy groups: unstable entries pi_m(S^q) with per-generator annotations
(suspension, stabilization, higher Hopf-James components, antipodal action),
stable stems with named generators, a partial product table for the stems,
and a registry of named classes.  Parsing is all-or-nothing: either the whole
file is structurally sound or loading fails with a positioned error.

Grammar (one directive per line, `#` starts a comment line):

    group m q free_rank [t1,t2,...]   begin an unstable entry pi_m(S^q)
    stem k free_rank [t1,t2,...]      begin a stable stem pi_k^S
    gen NAME                          declare a generator of the open entity
    susp c1,...,cr                    suspension image in entry (m+1, q+1)
    stab degree c1,...,cr             stable image in stem(m - q)
    gamma k degree c1,...,cr          stabilized k-th Hopf-James component
    antip c1,...,cr                   image under composition with the antipode
    src "citation"                    provenance for the open entity
    prod A B -> degree c1,...,cr      stable product of stem generators A, B
    name NAME m q c1,...,cr           register a named class

Coefficient vectors are comma-separated integers in generator order of the
group they land in (free generators first, then torsion generators).  Every
integer is written in ASCII as -?[0-9]+; a free rank as [0-9]+.  The stems
run from 0 up without a gap.  A `src` line cites what it follows: a group or
stem before its first `gen`, the last group generator, or a `name`; each of
these takes one `src` at most, so a stem's `src` comes before its `gen` lines.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .fgab import FgAbError, FgAbGroup, _Value

CLOSED_FORM_NOTE = "synthesized closed form"


class TableError(Exception):
    """Base class for table data failures."""


class ParseError(TableError):
    """Structural failure in the table text, with line/column position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SchemaError(TableError):
    """Semantic failure (bad orders, lengths, degrees), with an entity path."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class OutOfTabulatedRange(TableError, LookupError):
    """The requested group is outside the curated dataset."""


class UnregisteredName(TableError, LookupError):
    """A class the code needs by name is not registered in the loaded table."""


class GenAnnotations(_Value):
    """Per-generator annotation record of an unstable entry."""

    __slots__ = ("susp", "stab", "gammas", "antip", "source")

    def __init__(
        self, susp: Optional[tuple[int, ...]] = None, stab: Optional[tuple[int, ...]] = None,
        gammas: tuple[tuple[int, tuple[int, ...]], ...] = (),
        antip: Optional[tuple[int, ...]] = None, source: str = "",
    ):
        object.__setattr__(self, "susp", susp)
        object.__setattr__(self, "stab", stab)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "antip", antip)
        object.__setattr__(self, "source", source)

    def gamma_component(self, k: int) -> Optional[tuple[int, ...]]:
        for kk, coeffs in self.gammas:
            if kk == k:
                return coeffs
        return None


class SphereEntry(_Value):
    """A tabulated (or synthesized) homotopy group pi_m(S^q)."""

    __slots__ = ("m", "q", "group", "gen_names", "annotations", "source", "synthesized")

    def __init__(
        self, m: int, q: int, group: FgAbGroup, gen_names: tuple[str, ...] = (),
        annotations: tuple[GenAnnotations, ...] = (), source: str = "", synthesized: bool = False,
    ):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "gen_names", gen_names)
        object.__setattr__(self, "annotations", annotations)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "synthesized", synthesized)

    @property
    def k_max(self) -> int:
        """Largest k with a Hopf-James component, floor((m-1)/(q-1))."""
        if self.q < 2:
            return 1
        return max(1, (self.m - 1) // (self.q - 1))

    def gamma_degree(self, k: int) -> int:
        return self.m - 1 - k * (self.q - 1)

    def gen_index(self, name: str) -> int:
        try:
            return self.gen_names.index(name)
        except ValueError:
            raise SchemaError(
                f"no generator named {name!r} (have {list(self.gen_names)})",
                f"pi_{self.m}(S^{self.q})",
            ) from None


class StemEntry(_Value):
    """A tabulated stable stem pi_k^S."""

    __slots__ = ("degree", "group", "gen_names", "source")

    def __init__(
        self, degree: int, group: FgAbGroup, gen_names: tuple[str, ...] = (), source: str = ""
    ):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "gen_names", gen_names)
        object.__setattr__(self, "source", source)


class ProductEntry(_Value):
    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: tuple[int, ...]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)


class NamedClass(_Value):
    __slots__ = ("m", "q", "coeffs", "source")

    def __init__(self, m: int, q: int, coeffs: tuple[int, ...], source: str = ""):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "source", source)


class TableSet(_Value):
    """Everything parsed from one table file.  Each omitted dict is a new one."""

    __slots__ = ("entries", "stems", "products", "named", "stem_gen_degrees")

    def __init__(
        self, entries: Optional[dict[tuple[int, int], SphereEntry]] = None,
        stems: Optional[dict[int, StemEntry]] = None,
        products: Optional[dict[tuple[str, str], ProductEntry]] = None,
        named: Optional[dict[str, NamedClass]] = None,
        stem_gen_degrees: Optional[dict[str, int]] = None,  # generator -> k
    ):
        fields = (entries, stems, products, named, stem_gen_degrees)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, {} if value is None else value)


def closed_form_entry(m: int, q: int) -> Optional[SphereEntry]:
    """Entries known without table data: q <= 1, m < q, and m == q."""
    if m < 1 or q < 0:
        return None
    if q == 0 or (q == 1 and m >= 2) or (q >= 1 and m < q):
        return SphereEntry(
            m, q, FgAbGroup.trivial(), source=CLOSED_FORM_NOTE, synthesized=True
        )
    if m == q:
        ann = GenAnnotations(
            susp=(1,),
            stab=(1,),
            gammas=(),
            antip=((-1) ** (q + 1),),
            source=CLOSED_FORM_NOTE,
        )
        return SphereEntry(
            m,
            q,
            FgAbGroup.free(1),
            gen_names=(f"iota{q}",),
            annotations=(ann,),
            source=CLOSED_FORM_NOTE,
            synthesized=True,
        )
    return None


def resolve_entry(tables: TableSet, m: int, q: int) -> SphereEntry:
    """Look up pi_m(S^q): the curated table, then the closed forms it never holds."""
    if m < 1:
        raise OutOfTabulatedRange(f"pi_{m}(S^{q}) requires m >= 1")
    entry = tables.entries.get((m, q)) or closed_form_entry(m, q)
    if entry is None:
        raise OutOfTabulatedRange(f"pi_{m}(S^{q}) is not tabulated")
    return entry


def map_target(tables: TableSet, entry: SphereEntry, kind) -> Union[SphereEntry, StemEntry, str]:
    """Where the annotated map `kind` out of entry lands: the SphereEntry
    pi_{m+1}(S^{q+1}) for susp, the entry itself for antip, the StemEntry of
    degree gamma_degree(k) for Gamma component k (stab is k = 1); or, where
    that group is not tabulated, the reason as a string."""
    if kind == "antip":
        return entry
    if kind == "susp":
        try:
            return resolve_entry(tables, entry.m + 1, entry.q + 1)
        except OutOfTabulatedRange as exc:
            return str(exc)
    degree = entry.gamma_degree(1 if kind == "stab" else kind)
    return tables.stems.get(degree) or f"pi_{degree}^S is not tabulated"


# Lines are tokenized with str.split(), which splits on the same characters
# as this pattern; its matches are searched only to position an error.
_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"-?[0-9]+")
_INT_LIST = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")
_FREE_RANK = re.compile(r"[0-9]+")
_SRC = re.compile(r'src\s+"([^"]*)"\s*$')

# Annotation directive -> (integer fields before its coefficient vector, what
# a short line lacks, the message for a bad integer field).
_ANNOTATIONS = {
    "susp": (0, "a coefficient vector", None),
    "antip": (0, "a coefficient vector", None),
    "stab": (1, "degree and a coefficient vector", "stab degree must be an integer"),
    "gamma": (2, "k, degree and a coefficient vector", "gamma k/degree must be integers"),
}


def _token_column(line: str, index: int) -> int:
    """1-based column of token `index` of `line`."""
    return [match.start() + 1 for match in _TOKEN.finditer(line)][index]


def _need(tokens: list[str], n: int, what: str, line_no: int, line: str) -> None:
    if len(tokens) <= n:
        raise ParseError(f"{tokens[0]!r} needs {what}", line_no, len(line))


def _read_ints(
    tokens: list[str], start: int, stop: int, message: str, line_no: int, line: str
) -> list[int]:
    """The integer fields start..stop-1; a bad one is reported at the column
    of field `start`."""
    values = []
    for field in tokens[start:stop]:
        # isascii() and isdigit() match [0-9]+, the common case, without the regex.
        if not (field.isascii() and field.isdigit()) and not _INT.fullmatch(field):
            raise ParseError(message, line_no, _token_column(line, start))
        values.append(int(field))
    return values


def _split_ints(tokens: list[str], index: int, line_no: int, line: str) -> tuple[int, ...]:
    """The comma-separated integers of token `index`, () past the last token."""
    if index >= len(tokens):
        return ()
    text = tokens[index]
    if _INT_LIST.fullmatch(text):
        return tuple(map(int, text.split(",")))
    bad = next(p for p in text.split(",") if not _INT.fullmatch(p))
    raise ParseError(
        f"bad integer {bad!r} in coefficient list", line_no, _token_column(line, index)
    )


def _group_from_fields(
    tokens: list[str], index: int, line_no: int, line: str, path: str
) -> FgAbGroup:
    """The group given by token `index` (free rank) and an optional torsion
    list after it."""
    if not _FREE_RANK.fullmatch(tokens[index]):
        raise ParseError(
            f"bad free rank {tokens[index]!r}", line_no, _token_column(line, index)
        )
    torsion = _split_ints(tokens, index + 1, line_no, line)
    try:
        return FgAbGroup(int(tokens[index]), torsion)
    except FgAbError as exc:
        raise SchemaError(str(exc), path) from None


def _gen_path(m: int, q: int, name: str) -> str:
    return f"pi_{m}(S^{q}) gen {name}"


def _label(key) -> str:
    """How messages name the annotation stored under `key`: the directive, or
    the Hopf-James component k."""
    return key if type(key) is str else f"gamma k={key}"


class _OpenEntity:
    def __init__(self, kind: str, key, path: str, group: FgAbGroup):
        self.kind = kind  # "group" with key (m, q) | "stem" with key k
        self.key = key
        self.path = path
        self.group = group
        self.ann: dict = {}  # the entity's own src
        # (name, annotations keyed susp/stab/antip/src or gamma k, declared
        # degrees keyed stab or k), one per gen line
        self.gens: list[tuple[str, dict, dict]] = []

    def close(self, entries: dict, stems: dict) -> None:
        """Check what needs all of the entity's lines, then store its entry."""
        if len(self.gens) != self.group.rank:
            raise SchemaError(
                f"{len(self.gens)} generators declared for a group of rank "
                f"{self.group.rank}",
                self.path,
            )
        gen_names = tuple(name for name, _ann, _degrees in self.gens)
        if self.kind == "stem":
            stems[self.key] = StemEntry(self.key, self.group, gen_names, self.ann.get("src", ""))
            return
        m, q = self.key
        anns = tuple(
            GenAnnotations(ann.get("susp"), ann.get("stab"), tuple(sorted(
                kv for kv in ann.items() if type(kv[0]) is int
            )), ann.get("antip"), ann.get("src", "")) for _name, ann, _degrees in self.gens
        )
        entry = SphereEntry(m, q, self.group, gen_names, anns, self.ann.get("src", ""))
        for name, ann, degrees in self.gens:
            # The Hopf-James components in the order given, then stab, which
            # lands in the degree of the component k = 1.
            if "stab" in degrees:
                degrees["stab"] = degrees.pop("stab")
            for key, degree in degrees.items():
                expected = entry.gamma_degree(1 if key == "stab" else key)
                if degree != expected:
                    raise SchemaError(
                        f"{_label(key)} declares degree {degree}, expected {expected}",
                        _gen_path(m, q, name),
                    )
            if "antip" in ann and len(ann["antip"]) != self.group.rank:
                raise SchemaError(
                    f"antip vector of length {len(ann['antip'])}, expected "
                    f"{self.group.rank}",
                    _gen_path(m, q, name),
                )
        entries[(m, q)] = entry



def parse_tables(text: str) -> TableSet:
    """Parse and structurally validate a table file.  All-or-nothing."""
    entries: dict[tuple[int, int], SphereEntry] = {}
    stems: dict[int, StemEntry] = {}
    products: dict[tuple[str, str], ProductEntry] = {}
    named: dict[str, NamedClass] = {}
    stem_gen_degrees: dict[str, int] = {}
    raw_products: list[tuple[str, str, int, tuple[int, ...]]] = []
    raw_names: dict[str, tuple[int, int, tuple[int, ...], dict]] = {}  # m, q, coeffs, src
    open_entity: Optional[_OpenEntity] = None
    open_name: Optional[str] = None

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line[0] == "#":
            continue
        tokens = line.split()
        head = tokens[0]
        if head in ("group", "stem", "prod", "name"):  # each ends the open entity
            if open_entity is not None:
                open_entity.close(entries, stems)
            open_entity = open_name = None

        if head in _ANNOTATIONS:
            n_ints, needs, bad_int = _ANNOTATIONS[head]
            _need(tokens, n_ints + 1, needs, line_no, line)
            if open_entity is None or open_entity.kind != "group" or not open_entity.gens:
                raise ParseError(f"{head} outside of a group generator", line_no)
            ints = _read_ints(tokens, 1, n_ints + 1, bad_int, line_no, line) if n_ints else ()
            coeffs = _split_ints(tokens, n_ints + 1, line_no, line)
            key = ints[0] if head == "gamma" else head
            if head == "gamma" and key < 1:
                raise SchemaError("gamma component index must be >= 1", open_entity.path)
            name, ann, degrees = open_entity.gens[-1]
            if key in ann:
                what = key if head != "gamma" else f"gamma component k={key}"
                raise SchemaError(f"duplicate {what}", _gen_path(*open_entity.key, name))
            ann[key] = coeffs
            if ints:
                degrees[key] = ints[-1]
        elif head == "gen":
            _need(tokens, 1, "a generator name", line_no, line)
            if open_entity is None:
                raise ParseError("gen outside of a group/stem", line_no)
            name = tokens[1]
            if any(gen[0] == name for gen in open_entity.gens):
                raise SchemaError(
                    f"duplicate generator {name!r}", open_entity.path
                )
            if len(open_entity.gens) >= open_entity.group.rank:
                raise SchemaError(
                    f"more generators than the rank {open_entity.group.rank}",
                    open_entity.path,
                )
            open_entity.gens.append((name, {}, {}))
        elif head == "src":
            match = _SRC.match(line)
            if not match:
                raise ParseError('src needs a quoted string: src "..."', line_no)
            if open_name is not None:
                holder, path = raw_names[open_name][3], f"name {open_name}"
            elif open_entity is None:
                raise ParseError("src outside of any entity", line_no)
            elif not open_entity.gens:
                holder, path = open_entity.ann, open_entity.path
            elif open_entity.kind == "stem":
                raise ParseError("src of a stem must come before its gen lines", line_no)
            else:
                name, holder, _degrees = open_entity.gens[-1]
                path = _gen_path(*open_entity.key, name)
            if "src" in holder:
                raise SchemaError("duplicate src", path)
            holder["src"] = match.group(1)
        elif head == "group":
            _need(tokens, 3, "m q free_rank [torsion]", line_no, line)
            m, q = _read_ints(tokens, 1, 3, "m and q must be integers", line_no, line)
            path = f"pi_{m}(S^{q})"
            if (m, q) in entries:
                raise SchemaError("duplicate entry", path)
            if q <= 1 or m <= q:
                raise SchemaError(
                    "entry lies in the closed-form range (q <= 1, m <= q) and "
                    "must not be tabulated",
                    path,
                )
            group = _group_from_fields(tokens, 3, line_no, line, path)
            open_entity = _OpenEntity("group", (m, q), path, group)
        elif head == "stem":
            _need(tokens, 2, "k free_rank [torsion]", line_no, line)
            (k,) = _read_ints(tokens, 1, 2, "stem degree must be an integer", line_no, line)
            path = f"pi_{k}^S"
            if k < 0:
                raise SchemaError("negative stem degree", path)
            if k in stems:
                raise SchemaError("duplicate stem", path)
            group = _group_from_fields(tokens, 2, line_no, line, path)
            open_entity = _OpenEntity("stem", k, path, group)
        elif head == "prod":
            _need(tokens, 4, "A B -> degree [coeffs]", line_no, line)
            if tokens[3] != "->":
                raise ParseError("prod syntax: prod A B -> degree c1,...", line_no)
            (degree,) = _read_ints(
                tokens, 4, 5, "product degree must be an integer", line_no, line
            )
            coeffs = _split_ints(tokens, 5, line_no, line)
            raw_products.append((tokens[1], tokens[2], degree, coeffs))
        elif head == "name":
            _need(tokens, 3, "NAME m q [coeffs]", line_no, line)
            m, q = _read_ints(tokens, 2, 4, "name m/q must be integers", line_no, line)
            if tokens[1] in raw_names:
                raise SchemaError("duplicate name", f"name {tokens[1]}")
            raw_names[tokens[1]] = (m, q, _split_ints(tokens, 4, line_no, line), {})
            open_name = tokens[1]
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    if open_entity is not None:
        open_entity.close(entries, stems)
    tables = TableSet(entries, stems, products, named, stem_gen_degrees)

    # Second pass: resolve lengths and degrees that may reference entities
    # declared anywhere in the file.  Every lookup of a stem up to the
    # highest one relies on the stems having no gap.
    for k in range(len(stems)):
        if k not in stems:
            raise SchemaError(
                f"missing below pi_{max(stems)}^S: stems must run from 0 without a gap",
                f"pi_{k}^S",
            )
    for (m, q), entry in entries.items():
        for name, ann in zip(entry.gen_names, entry.annotations):
            # Each vector must fit the group its map lands in.
            for key, coeffs in (("susp", ann.susp), ("stab", ann.stab), *ann.gammas):
                if coeffs is None:
                    continue
                if type(key) is int and key > entry.k_max:
                    raise SchemaError(
                        f"gamma component k={key} beyond k_max={entry.k_max}",
                        _gen_path(m, q, name),
                    )
                target = map_target(tables, entry, key)
                if isinstance(target, str):
                    fault = f"target {target}"
                elif len(coeffs) != target.group.rank:
                    fault = f"vector length {len(coeffs)} != rank {target.group.rank}"
                else:
                    continue
                raise SchemaError(f"{_label(key)} {fault}", _gen_path(m, q, name))

    for k, stem in stems.items():
        for g in stem.gen_names:
            if g in stem_gen_degrees:
                raise SchemaError(
                    f"stem generator name {g!r} reused across stems", f"pi_{k}^S"
                )
            stem_gen_degrees[g] = k
    for a, b, degree, coeffs in raw_products:
        unknown = [g for g in (a, b) if g not in stem_gen_degrees]
        stem = stems.get(degree)
        if unknown:
            fault = f"unknown stem generator {unknown[0]!r}"
        elif degree != (expected := stem_gen_degrees[a] + stem_gen_degrees[b]):
            fault = f"declares degree {degree}, expected {expected}"
        elif stem is None:
            fault = f"product degree {degree} outside tabulated stems"
        elif len(coeffs) != stem.group.rank:
            fault = f"vector length {len(coeffs)} != rank {stem.group.rank}"
        elif (a, b) in products:
            fault = "duplicate product"
        else:
            products[(a, b)] = ProductEntry(degree, coeffs)
            continue
        raise SchemaError(fault, f"prod {a} {b}")

    for name, (m, q, coeffs, ann) in raw_names.items():
        try:
            entry = resolve_entry(tables, m, q)
        except OutOfTabulatedRange:
            raise SchemaError(
                f"registered in untabulated pi_{m}(S^{q})", f"name {name}"
            )
        if len(coeffs) != entry.group.rank:
            raise SchemaError(
                f"vector length {len(coeffs)} != rank {entry.group.rank}",
                f"name {name}",
            )
        named[name] = NamedClass(m, q, coeffs, ann.get("src", ""))
    return tables


def _fmt_vec(coeffs: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in coeffs)


def _fmt_tail(line: str, coeffs: tuple[int, ...]) -> str:
    """`line` and then its trailing vector, which is left out when empty."""
    return f"{line} {_fmt_vec(coeffs)}" if coeffs else line


def serialize_tables(tables: TableSet) -> str:
    """Emit a canonical text form; parse(serialize(parse(x))) == parse(x)."""
    out: list[str] = []
    for k in sorted(tables.stems):
        stem = tables.stems[k]
        out.append(_fmt_tail(f"stem {k} {stem.group.free_rank}", stem.group.torsion))
        if stem.source:
            out.append(f'src "{stem.source}"')
        for g in stem.gen_names:
            out.append(f"gen {g}")
    for (a, b) in sorted(tables.products):
        pe = tables.products[(a, b)]
        out.append(_fmt_tail(f"prod {a} {b} -> {pe.degree}", pe.coeffs))
    for (m, q) in sorted(tables.entries):
        entry = tables.entries[(m, q)]
        out.append(_fmt_tail(f"group {m} {q} {entry.group.free_rank}", entry.group.torsion))
        if entry.source:
            out.append(f'src "{entry.source}"')
        for name, ann in zip(entry.gen_names, entry.annotations):
            out.append(f"gen {name}")
            if ann.susp is not None:
                out.append(f"susp {_fmt_vec(ann.susp)}")
            if ann.stab is not None:
                out.append(f"stab {m - q} {_fmt_vec(ann.stab)}")
            for k, coeffs in ann.gammas:
                out.append(f"gamma {k} {entry.gamma_degree(k)} {_fmt_vec(coeffs)}")
            if ann.antip is not None:
                out.append(f"antip {_fmt_vec(ann.antip)}")
            if ann.source:
                out.append(f'src "{ann.source}"')
    for name in sorted(tables.named):
        nc = tables.named[name]
        out.append(_fmt_tail(f"name {name} {nc.m} {nc.q}", nc.coeffs))
        if nc.source:
            out.append(f'src "{nc.source}"')
    return "\n".join(out) + "\n"


def load_tables(source) -> TableSet:
    """Load from a byte stream, text stream, or string."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            column = exc.start - data.rfind(b"\n", 0, exc.start)
            raise ParseError(f"not UTF-8 text ({exc.reason})", line, column) from None
    return parse_tables(data)
