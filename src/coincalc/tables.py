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
group they land in (free generators first, then torsion generators).
"""

from __future__ import annotations

import re
from typing import Optional

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
    __slots__ = ("degree", "coeffs", "source")

    def __init__(self, degree: int, coeffs: tuple[int, ...], source: str = ""):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "source", source)


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
    """Look up pi_m(S^q): closed forms first, then the curated table."""
    if m < 1:
        raise OutOfTabulatedRange(f"pi_{m}(S^{q}) requires m >= 1")
    closed = closed_form_entry(m, q)
    if closed is not None:
        return closed
    entry = tables.entries.get((m, q))
    if entry is None:
        raise OutOfTabulatedRange(f"pi_{m}(S^{q}) is not tabulated")
    return entry


# Lines are tokenized with str.split(), which splits on the same characters
# as this pattern; its matches are searched only to position an error.
_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"-?\d+")
_INT_LIST = re.compile(r"-?\d+(?:,-?\d+)*")
_FREE_RANK = re.compile(r"[0-9]+")
_SRC = re.compile(r'src\s+"([^"]*)"\s*$')


def _token_column(line: str, index: int) -> int:
    """1-based column of token `index` of `line`."""
    return [match.start() + 1 for match in _TOKEN.finditer(line)][index]


def _split_ints(tokens: list[str], index: int, line_no: int, line: str) -> tuple[int, ...]:
    """The comma-separated integers of token `index`."""
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
    torsion: tuple[int, ...] = ()
    if len(tokens) > index + 1:
        torsion = _split_ints(tokens, index + 1, line_no, line)
    try:
        return FgAbGroup(int(tokens[index]), torsion)
    except FgAbError as exc:
        raise SchemaError(str(exc), path) from None


def _gen_path(m: int, q: int, name: str) -> str:
    return f"pi_{m}(S^{q}) gen {name}"


class _OpenGen:
    def __init__(self, name: str):
        self.name = name
        self.susp: Optional[tuple[int, ...]] = None
        self.stab: Optional[tuple[int, ...]] = None
        self.stab_degree: Optional[int] = None
        self.gammas: list[tuple[int, int, tuple[int, ...]]] = []  # (k, degree, coeffs)
        self.antip: Optional[tuple[int, ...]] = None
        self.source = ""


class _OpenEntity:
    def __init__(self, kind: str, key, group: FgAbGroup, line_no: int):
        self.kind = kind  # "group" | "stem"
        self.key = key
        self.group = group
        self.line_no = line_no
        self.gens: list[_OpenGen] = []
        self.source = ""

    @property
    def path(self) -> str:
        if self.kind == "group":
            m, q = self.key
            return f"pi_{m}(S^{q})"
        return f"pi_{self.key}^S"


def parse_tables(text: str) -> TableSet:
    """Parse and structurally validate a table file.  All-or-nothing."""
    entries: dict[tuple[int, int], SphereEntry] = {}
    stems: dict[int, StemEntry] = {}
    products: dict[tuple[str, str], ProductEntry] = {}
    named: dict[str, NamedClass] = {}
    stem_gen_degrees: dict[str, int] = {}
    raw_products: list[tuple[str, str, int, tuple[int, ...], str, int]] = []
    open_entity: Optional[_OpenEntity] = None
    open_name: Optional[str] = None

    def close_entity():
        nonlocal open_entity
        if open_entity is None:
            return
        ent = open_entity
        open_entity = None
        if len(ent.gens) != ent.group.rank:
            raise SchemaError(
                f"{len(ent.gens)} generators declared for a group of rank "
                f"{ent.group.rank}",
                ent.path,
            )
        if ent.kind == "stem":
            stems[ent.key] = StemEntry(
                ent.key,
                ent.group,
                tuple(g.name for g in ent.gens),
                ent.source,
            )
            return
        m, q = ent.key
        anns = []
        for g in ent.gens:
            for k, degree, _c in g.gammas:
                expected = m - 1 - k * (q - 1)
                if degree != expected:
                    raise SchemaError(
                        f"gamma k={k} declares degree {degree}, expected {expected}",
                        f"{ent.path} gen {g.name}",
                    )
            if g.stab is not None and g.stab_degree != m - q:
                raise SchemaError(
                    f"stab declares degree {g.stab_degree}, expected {m - q}",
                    f"{ent.path} gen {g.name}",
                )
            if g.antip is not None and len(g.antip) != ent.group.rank:
                raise SchemaError(
                    f"antip vector of length {len(g.antip)}, expected "
                    f"{ent.group.rank}",
                    f"{ent.path} gen {g.name}",
                )
            anns.append(
                GenAnnotations(
                    susp=g.susp,
                    stab=g.stab,
                    gammas=tuple(sorted((k, c) for k, _d, c in g.gammas)),
                    antip=g.antip,
                    source=g.source,
                )
            )
        entries[(m, q)] = SphereEntry(
            m,
            q,
            ent.group,
            tuple(g.name for g in ent.gens),
            tuple(anns),
            ent.source,
        )

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head = tokens[0]

        def need(n: int, what: str):
            if len(tokens) < n + 1:
                raise ParseError(f"{head!r} needs {what}", line_no, len(line))

        if head == "group":
            close_entity()
            open_name = None
            need(3, "m q free_rank [torsion]")
            try:
                m, q = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(
                    "m and q must be integers", line_no, _token_column(line, 1)
                )
            if (m, q) in entries:
                raise SchemaError("duplicate entry", f"pi_{m}(S^{q})")
            if q <= 1 or m <= q:
                raise SchemaError(
                    "entry lies in the closed-form range (q <= 1, m <= q) and "
                    "must not be tabulated",
                    f"pi_{m}(S^{q})",
                )
            group = _group_from_fields(tokens, 3, line_no, line, f"pi_{m}(S^{q})")
            open_entity = _OpenEntity("group", (m, q), group, line_no)
        elif head == "stem":
            close_entity()
            open_name = None
            need(2, "k free_rank [torsion]")
            try:
                k = int(tokens[1])
            except ValueError:
                raise ParseError(
                    "stem degree must be an integer", line_no, _token_column(line, 1)
                )
            if k < 0:
                raise SchemaError("negative stem degree", f"pi_{k}^S")
            if k in stems:
                raise SchemaError("duplicate stem", f"pi_{k}^S")
            group = _group_from_fields(tokens, 2, line_no, line, f"pi_{k}^S")
            open_entity = _OpenEntity("stem", k, group, line_no)
        elif head == "gen":
            need(1, "a generator name")
            if open_entity is None:
                raise ParseError("gen outside of a group/stem", line_no)
            name = tokens[1]
            if any(g.name == name for g in open_entity.gens):
                raise SchemaError(
                    f"duplicate generator {name!r}", open_entity.path
                )
            if len(open_entity.gens) >= open_entity.group.rank:
                raise SchemaError(
                    f"more generators than the rank {open_entity.group.rank}",
                    open_entity.path,
                )
            open_entity.gens.append(_OpenGen(name))
        elif head in ("susp", "antip"):
            need(1, "a coefficient vector")
            if open_entity is None or open_entity.kind != "group" or not open_entity.gens:
                raise ParseError(f"{head} outside of a group generator", line_no)
            coeffs = _split_ints(tokens, 1, line_no, line)
            gen = open_entity.gens[-1]
            if head == "susp":
                if gen.susp is not None:
                    raise SchemaError(
                        "duplicate susp", f"{open_entity.path} gen {gen.name}"
                    )
                gen.susp = coeffs
            else:
                if gen.antip is not None:
                    raise SchemaError(
                        "duplicate antip", f"{open_entity.path} gen {gen.name}"
                    )
                gen.antip = coeffs
        elif head == "stab":
            need(2, "degree and a coefficient vector")
            if open_entity is None or open_entity.kind != "group" or not open_entity.gens:
                raise ParseError("stab outside of a group generator", line_no)
            try:
                degree = int(tokens[1])
            except ValueError:
                raise ParseError(
                    "stab degree must be an integer", line_no, _token_column(line, 1)
                )
            gen = open_entity.gens[-1]
            if gen.stab is not None:
                raise SchemaError(
                    "duplicate stab", f"{open_entity.path} gen {gen.name}"
                )
            gen.stab = _split_ints(tokens, 2, line_no, line)
            gen.stab_degree = degree
        elif head == "gamma":
            need(3, "k, degree and a coefficient vector")
            if open_entity is None or open_entity.kind != "group" or not open_entity.gens:
                raise ParseError("gamma outside of a group generator", line_no)
            try:
                k = int(tokens[1])
                degree = int(tokens[2])
            except ValueError:
                raise ParseError(
                    "gamma k/degree must be integers", line_no, _token_column(line, 1)
                )
            if k < 1:
                raise SchemaError(
                    "gamma component index must be >= 1", open_entity.path
                )
            gen = open_entity.gens[-1]
            if any(kk == k for kk, _d, _c in gen.gammas):
                raise SchemaError(
                    f"duplicate gamma component k={k}",
                    f"{open_entity.path} gen {gen.name}",
                )
            gen.gammas.append((k, degree, _split_ints(tokens, 3, line_no, line)))
        elif head == "src":
            match = _SRC.match(line)
            if not match:
                raise ParseError('src needs a quoted string: src "..."', line_no)
            citation = match.group(1)
            if open_name is not None:
                nc = named[open_name]
                named[open_name] = NamedClass(nc.m, nc.q, nc.coeffs, citation)
            elif open_entity is not None:
                if open_entity.gens:
                    open_entity.gens[-1].source = citation
                else:
                    open_entity.source = citation
            else:
                raise ParseError("src outside of any entity", line_no)
        elif head == "prod":
            close_entity()
            open_name = None
            need(4, "A B -> degree [coeffs]")
            if tokens[3] != "->":
                raise ParseError("prod syntax: prod A B -> degree c1,...", line_no)
            try:
                degree = int(tokens[4])
            except ValueError:
                raise ParseError(
                    "product degree must be an integer", line_no, _token_column(line, 4)
                )
            coeffs = _split_ints(tokens, 5, line_no, line) if len(tokens) > 5 else ()
            raw_products.append((tokens[1], tokens[2], degree, coeffs, "", line_no))
        elif head == "name":
            close_entity()
            need(3, "NAME m q [coeffs]")
            try:
                m, q = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(
                    "name m/q must be integers", line_no, _token_column(line, 2)
                )
            if tokens[1] in named:
                raise SchemaError("duplicate name", f"name {tokens[1]}")
            coeffs = _split_ints(tokens, 4, line_no, line) if len(tokens) > 4 else ()
            named[tokens[1]] = NamedClass(m, q, coeffs, "")
            open_name = tokens[1]
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    close_entity()
    tables = TableSet(entries, stems, products, named, stem_gen_degrees)

    # Second pass: resolve lengths and degrees that may reference entities
    # declared anywhere in the file.  Error paths are formatted only to raise.
    for (m, q), entry in entries.items():
        for name, ann in zip(entry.gen_names, entry.annotations):
            if ann.susp is not None:
                try:
                    target = resolve_entry(tables, m + 1, q + 1)
                except OutOfTabulatedRange:
                    raise SchemaError(
                        f"susp target pi_{m + 1}(S^{q + 1}) is not tabulated",
                        _gen_path(m, q, name),
                    )
                if len(ann.susp) != target.group.rank:
                    raise SchemaError(
                        f"susp vector length {len(ann.susp)} != rank "
                        f"{target.group.rank} of pi_{m + 1}(S^{q + 1})",
                        _gen_path(m, q, name),
                    )
            if ann.stab is not None:
                stem = stems.get(m - q)
                if stem is None:
                    raise SchemaError(
                        f"stab target pi_{m - q}^S is not tabulated", _gen_path(m, q, name)
                    )
                if len(ann.stab) != stem.group.rank:
                    raise SchemaError(
                        f"stab vector length {len(ann.stab)} != rank "
                        f"{stem.group.rank} of pi_{m - q}^S",
                        _gen_path(m, q, name),
                    )
            for k, coeffs in ann.gammas:
                if k > entry.k_max:
                    raise SchemaError(
                        f"gamma component k={k} beyond k_max={entry.k_max}",
                        _gen_path(m, q, name),
                    )
                degree = entry.gamma_degree(k)
                stem = stems.get(degree)
                if stem is None:
                    raise SchemaError(
                        f"gamma k={k} target pi_{degree}^S is not tabulated",
                        _gen_path(m, q, name),
                    )
                if len(coeffs) != stem.group.rank:
                    raise SchemaError(
                        f"gamma k={k} vector length {len(coeffs)} != rank "
                        f"{stem.group.rank} of pi_{degree}^S",
                        _gen_path(m, q, name),
                    )

    for k, stem in stems.items():
        for g in stem.gen_names:
            if g in stem_gen_degrees:
                raise SchemaError(
                    f"stem generator name {g!r} reused across stems", f"pi_{k}^S"
                )
            stem_gen_degrees[g] = k
    for a, b, degree, coeffs, source, line_no in raw_products:
        for g in (a, b):
            if g not in stem_gen_degrees:
                raise SchemaError(
                    f"unknown stem generator {g!r}", f"prod {a} {b}"
                )
        expected = stem_gen_degrees[a] + stem_gen_degrees[b]
        if degree != expected:
            raise SchemaError(
                f"declares degree {degree}, expected {expected}", f"prod {a} {b}"
            )
        stem = stems.get(degree)
        if stem is None:
            raise SchemaError(
                f"product degree {degree} outside tabulated stems", f"prod {a} {b}"
            )
        if len(coeffs) != stem.group.rank:
            raise SchemaError(
                f"vector length {len(coeffs)} != rank {stem.group.rank}",
                f"prod {a} {b}",
            )
        if (a, b) in products:
            raise SchemaError("duplicate product", f"prod {a} {b}")
        products[(a, b)] = ProductEntry(degree, coeffs, source)

    for name, nc in named.items():
        try:
            entry = resolve_entry(tables, nc.m, nc.q)
        except OutOfTabulatedRange:
            raise SchemaError(
                f"registered in untabulated pi_{nc.m}(S^{nc.q})", f"name {name}"
            )
        if len(nc.coeffs) != entry.group.rank:
            raise SchemaError(
                f"vector length {len(nc.coeffs)} != rank {entry.group.rank}",
                f"name {name}",
            )
    return tables


def _fmt_vec(coeffs: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in coeffs)


def _fmt_group_tail(group: FgAbGroup) -> str:
    tail = f"{group.free_rank}"
    if group.torsion:
        tail += " " + _fmt_vec(group.torsion)
    return tail


def serialize_tables(tables: TableSet) -> str:
    """Emit a canonical text form; parse(serialize(parse(x))) == parse(x)."""
    out: list[str] = []
    for k in sorted(tables.stems):
        stem = tables.stems[k]
        out.append(f"stem {k} {_fmt_group_tail(stem.group)}")
        if stem.source:
            out.append(f'src "{stem.source}"')
        for g in stem.gen_names:
            out.append(f"gen {g}")
    for (a, b) in sorted(tables.products):
        pe = tables.products[(a, b)]
        line = f"prod {a} {b} -> {pe.degree}"
        if pe.coeffs:
            line += f" {_fmt_vec(pe.coeffs)}"
        out.append(line)
    for (m, q) in sorted(tables.entries):
        entry = tables.entries[(m, q)]
        out.append(f"group {m} {q} {_fmt_group_tail(entry.group)}")
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
        line = f"name {name} {nc.m} {nc.q}"
        if nc.coeffs:
            line += f" {_fmt_vec(nc.coeffs)}"
        out.append(line)
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
