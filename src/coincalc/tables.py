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
integer is written in ASCII as -?[0-9]+; a free rank as [0-9]+.  One with more
digits than int() converts (sys.get_int_max_str_digits()) is an error at its
own column.  A byte order mark (U+FEFF) that starts the file is not part of
its first line, and lines end where str.splitlines() ends them.  The stems
run from 0 up without a gap.  A `src` line cites what it follows: a group or
stem before its first `gen`, the last group generator, or a `name`; each of
these takes one `src` at most, so a stem's `src` comes before its `gen` lines.
Each fact is checked once, at the first stage whose data decides it: a line
against its entity's header (stab's degree m - q, antip's length), an entity
when it closes (a gamma row's degree, then k <= k_max; a stem's generator
names, unique across stems), and the file after its last line (the stems, the
lengths of rows against their targets, the products and the named classes).

A parse joins the stripped lines with "\n" and cuts the result once, before
each line whose first token is group, stem, prod or name (_HEADS: re's \\s
holds where str.isspace() does, on the characters str.split() splits on).
A piece's line and entity stages read nothing but its text, so what they
give is a pure function of it: the process-wide store _BLOCKS maps the text
of each distinct piece that read without error to its line count and that
value.  A group keeps its entry and the demands its rows make on the file
stage (each distinct map and vector length, with its first generator), a
stem its entry, a prod piece its product, a name piece its NamedClass, and
a prelude of comments nothing.  A parse that meets a stored piece takes its
value and counts its lines without reading them.  What reads another piece
runs on every parse, for a stored piece as for a read one: the refusal of a
second group (m, q), stem k or name, a stem's generator names against the
other stems, and the file stage, which checks each group's demands in place
of its rows.  A warm parse of the bundled table takes about 0.08 ms, and the
benchmark's table_curation operation (parse, validate, serialize) about 1.9
times its reference loop (median; Python 3.11, shared 2-core x86-64).
Entries and named classes are frozen values, so TableSets parsed from one
text share them; each TableSet has dicts of its own.  serialize_tables
formats each stem and group once per process as well, kept in _TEXTS by its
dict key and its id.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .fgab import FgAbError, FgAbGroup, _Value, _setattr

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
        _setattr(self, "susp", susp)
        _setattr(self, "stab", stab)
        _setattr(self, "gammas", gammas)
        _setattr(self, "antip", antip)
        _setattr(self, "source", source)

    def gamma_component(self, k: int) -> Optional[tuple[int, ...]]:
        for kk, coeffs in self.gammas:
            if kk == k:
                return coeffs
        return None


class SphereEntry(_Value):
    """A tabulated (or synthesized) homotopy group pi_m(S^q)."""

    __slots__ = ("m", "q", "group", "gen_names", "annotations", "source")

    def __init__(
        self, m: int, q: int, group: FgAbGroup, gen_names: tuple[str, ...] = (),
        annotations: tuple[GenAnnotations, ...] = (), source: str = "",
    ):
        _setattr(self, "m", m)
        _setattr(self, "q", q)
        _setattr(self, "group", group)
        _setattr(self, "gen_names", gen_names)
        _setattr(self, "annotations", annotations)
        _setattr(self, "source", source)

    @property
    def k_max(self) -> int:
        """Largest k with a Hopf-James component, floor((m-1)/(q-1)); q >= 2."""
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
        _setattr(self, "degree", degree)
        _setattr(self, "group", group)
        _setattr(self, "gen_names", gen_names)
        _setattr(self, "source", source)


class NamedClass(_Value):
    __slots__ = ("m", "q", "coeffs", "source")

    def __init__(self, m: int, q: int, coeffs: tuple[int, ...], source: str = ""):
        _setattr(self, "m", m)
        _setattr(self, "q", q)
        _setattr(self, "coeffs", coeffs)
        _setattr(self, "source", source)


class TableSet(_Value):
    """Everything parsed from one table file.  Each omitted dict is a new one.
    products maps stem generators (A, B) to A*B's vector in stem deg A + deg B."""

    __slots__ = ("entries", "stems", "products", "named", "stem_gen_degrees")

    def __init__(
        self, entries: Optional[dict[tuple[int, int], SphereEntry]] = None,
        stems: Optional[dict[int, StemEntry]] = None,
        products: Optional[dict[tuple[str, str], tuple[int, ...]]] = None,
        named: Optional[dict[str, NamedClass]] = None,
        stem_gen_degrees: Optional[dict[str, int]] = None,  # generator -> k
    ):
        fields = (entries, stems, products, named, stem_gen_degrees)
        for name, value in zip(self.__slots__, fields):
            _setattr(self, name, {} if value is None else value)


# One shared closed-form entry per (m, q) that the process names: no table
# decides these values, so every SphereTables reads the same one.
_CLOSED_FORMS: dict[tuple[int, int], SphereEntry] = {}


def closed_form_entry(m: int, q: int) -> Optional[SphereEntry]:
    """Entries known without table data: q <= 1, m < q, and m == q.

    Each is built on first use and shared by the whole process, one entry
    per closed-form (m, q) that it names; the None of any other (m, q) is
    not kept.  The curated entries stay with their TableSet."""
    entry = _CLOSED_FORMS.get((m, q))
    if entry is None:
        entry = _closed_form(m, q)
        # True and 2.0 equal 1 and 2 as keys: only an int pair is kept, so
        # the shared entry has int fields.
        if entry is not None and type(m) is int and type(q) is int:
            _CLOSED_FORMS[m, q] = entry
    return entry


def _closed_form(m: int, q: int) -> Optional[SphereEntry]:
    """A new closed-form entry for (m, q), or None outside their range."""
    if m < 1 or q < 0:
        return None
    if q == 0 or (q == 1 and m >= 2) or (q >= 1 and m < q):
        return SphereEntry(m, q, FgAbGroup.trivial(), source=CLOSED_FORM_NOTE)
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


_INT = re.compile(r"-?[0-9]+")
_SRC = re.compile(r'src\s+"([^"]*)"\s*$')

# Annotation directive -> (integer fields before its coefficient vector, what
# a short line lacks, the message for a bad integer field, the index of its
# row in a generator record; gamma rows go into the dict there).
_ANNOTATIONS = {
    "susp": (0, "a coefficient vector", None, 0),
    "antip": (0, "a coefficient vector", None, 3),
    "stab": (1, "degree and a coefficient vector", "stab degree must be an integer", 1),
    "gamma": (2, "k, degree and a coefficient vector", "gamma k/degree must be integers", 2),
}

# Where the stripped lines, joined with "\n", are cut into pieces: before each
# line whose first token is group, stem, prod or name (see the module
# docstring).
_HEADS = re.compile(r"\n(?=(?:group|stem|prod|name)(?:\s|$))")

# A piece's text (its stripped lines joined with "\n") -> (its line count, its
# kind, its value), for each distinct piece that read without error in this
# process: a "group" keeps (m, q), its entry and its demands on the file stage
# (see _OpenEntity.close); a "stem" its entry; a "prod" (A, B, degree,
# coeffs); a "name" the name and its NamedClass; a piece of comments and blank
# lines ("") None (see the module docstring).
_BLOCKS: dict[str, tuple] = {}


def _token_column(line: str, index: int) -> int:
    """1-based column of token `index` of `line`.  Lines are tokenized with
    str.split(), which splits on the same characters as \\S+ does; its matches
    are searched only to position an error."""
    return [match.start() + 1 for match in re.finditer(r"\S+", line)][index]


def _too_long(exc: ValueError, line_no: int, line: str, index: int) -> ParseError:
    """int()'s refusal of an integer in token `index`, past the interpreter's
    digit limit, at that token's column."""
    return ParseError(f"integer too long: {exc}", line_no, _token_column(line, index))


def _read_ints(
    tokens: list[str], start: int, stop: int, message: Optional[str], line_no: int, line: str
) -> list[int]:
    """The integer fields start..stop-1, read in order: one that is not
    -?[0-9]+ is reported with `message` at the column of field `start`, one
    past the digit limit at its own column."""
    values = []
    for field in tokens[start:stop]:
        if not (field.isascii() and field.isdigit()) and not _INT.fullmatch(field):
            raise ParseError(message, line_no, _token_column(line, start))
        try:
            values.append(int(field))
        except ValueError as exc:
            raise _too_long(exc, line_no, line, start + len(values)) from None
    return values


def _split_ints(tokens: list[str], index: int, line_no: int, line: str) -> tuple[int, ...]:
    """The comma-separated integers of token `index`, () past the last token.

    int() alone accepts more than -?[0-9]+: '+', '_' and non-ASCII decimal
    digits, which the test before it rules out.  A list that int() then
    refuses but that matches the grammar holds an integer past the digit
    limit; any other names its first bad integer."""
    if index >= len(tokens):
        return ()
    text = tokens[index]
    if text.isascii() and "_" not in text and "+" not in text:
        try:
            return tuple(map(int, text.split(",")))
        except ValueError as exc:
            if re.fullmatch(r"-?[0-9]+(?:,-?[0-9]+)*", text):
                raise _too_long(exc, line_no, line, index) from None
    bad = next(p for p in text.split(",") if not _INT.fullmatch(p))
    raise ParseError(
        f"bad integer {bad!r} in coefficient list", line_no, _token_column(line, index)
    )


def _group_from_fields(
    tokens: list[str], index: int, line_no: int, line: str, key
) -> FgAbGroup:
    """The group given by token `index` (free rank, [0-9]+) and an optional
    torsion list after it, on the header of the group or stem `key`."""
    free_rank = tokens[index]
    if not (free_rank.isascii() and free_rank.isdigit()):
        raise ParseError(f"bad free rank {free_rank!r}", line_no, _token_column(line, index))
    torsion = _split_ints(tokens, index + 1, line_no, line)
    try:
        return FgAbGroup(int(free_rank), torsion)
    except FgAbError as exc:
        raise SchemaError(str(exc), _path(key)) from None
    except ValueError as exc:  # int() past the digit limit
        raise _too_long(exc, line_no, line, index) from None


def _gen_path(m: int, q: int, name: str) -> str:
    return f"pi_{m}(S^{q}) gen {name}"


def _path(key) -> str:
    """How messages name the group (m, q) or the stem k."""
    return f"pi_{key}^S" if type(key) is int else f"pi_{key[0]}(S^{key[1]})"


def _claim(tables: TableSet, key) -> None:
    """Refuse a second group (m, q) or stem k."""
    if type(key) is int:
        if key in tables.stems:
            raise SchemaError("duplicate stem", _path(key))
    elif key in tables.entries:
        raise SchemaError("duplicate entry", _path(key))


def _label(key) -> str:
    """How messages name the annotation stored under `key`: the directive, or
    the Hopf-James component k."""
    return key if type(key) is str else f"gamma k={key}"


class _OpenEntity:
    """A group or stem whose lines are being read."""

    __slots__ = ("key", "group", "rank", "src", "names", "gens")

    def __init__(self, key, group: FgAbGroup, is_group: bool):
        self.key = key  # (m, q) of a group, k of a stem
        self.group = group
        self.rank = group.rank
        self.src: Optional[str] = None
        self.names: list[str] = []
        # A group's record per gen line, [susp, stab, gammas, antip, src],
        # gammas a dict k -> (coeffs, degree) in the order given; an absent
        # row or src is None.  A stem keeps no records.  Rows are checked on
        # their line, gamma degrees and k at close(), lengths against their
        # targets in the file stage.
        self.gens: Optional[list[list]] = [] if is_group else None

    def close(self) -> tuple:
        """Check what needs all of the entity's lines, then return the kind
        and value that _BLOCKS keeps of it: a stem's entry, or a group's
        (m, q), entry and demands on its rows."""
        names, rank = self.names, self.rank
        if len(names) != rank:
            raise SchemaError(
                f"{len(names)} generators declared for a group of rank {rank}", _path(self.key)
            )
        if self.gens is None:
            return "stem", StemEntry(self.key, self.group, tuple(names), self.src or "")
        m, q = self.key
        anns = []
        for susp, stab, gammas, antip, src in self.gens:
            if gammas:
                gammas = tuple(sorted([(k, row[0]) for k, row in gammas.items()]))
            anns.append(GenAnnotations(susp, stab, gammas or (), antip, src or ""))
        entry = SphereEntry(m, q, self.group, tuple(names), tuple(anns), self.src or "")
        k_max = entry.k_max
        # What the file stage checks of the susp, stab and gamma rows: each
        # distinct (map key, vector length) with its first generator, in
        # reading order (generator by generator: susp, stab, then gamma by
        # k), flat as key, target, length, generator, key, ...  target is
        # (m + 1, q + 1) for susp, else the degree of the stem the row lands
        # in.  A row fits its target exactly when the first row of its (key,
        # length) does, so the first demand that does not fit names the
        # first row that does not.
        above, demands, seen = (m + 1, q + 1), [], set()
        for name, (susp, stab, gammas, _antip, _src), ann in zip(names, self.gens, anns):
            # In the order given.  A degree is checked only here, once every
            # row is read: a k that a later row repeats reads as the duplicate.
            for k, (_coeffs, degree) in gammas.items():
                if degree != (expected := entry.gamma_degree(k)):
                    fault = f"gamma k={k} declares degree {degree}, expected {expected}"
                elif k > k_max:
                    fault = f"gamma component k={k} beyond k_max={k_max}"
                else:
                    continue
                raise SchemaError(fault, _gen_path(m, q, name))
            if susp is not None and ("susp", len(susp)) not in seen:
                seen.add(("susp", len(susp)))
                demands += "susp", above, len(susp), name
            if stab is not None and ("stab", len(stab)) not in seen:
                seen.add(("stab", len(stab)))
                demands += "stab", m - q, len(stab), name
            for k, coeffs in ann.gammas:
                if (k, len(coeffs)) not in seen:
                    seen.add((k, len(coeffs)))
                    demands += k, entry.gamma_degree(k), len(coeffs), name
        return "group", (self.key, entry, tuple(demands))


def _read_piece(piece: str, start: int, tables: TableSet) -> tuple:
    """Read a piece that is not in _BLOCKS, whose first line is line start + 1,
    and return what _BLOCKS keeps of it: (its line count, kind, value).  A
    group, stem or name that tables already holds is refused at its header."""
    lines = piece.split("\n")
    entity: Optional[_OpenEntity] = None
    gen: Optional[list] = None  # the record of the open group's last generator
    kind, value = "", None
    named: Optional[list] = None  # the open name's [name, m, q, coeffs, src or None]
    for line_no, line in enumerate(lines, start + 1):
        if not line or line[0] == "#":
            continue
        tokens = line.split()
        head = tokens[0]
        spec = _ANNOTATIONS.get(head)
        if spec is not None:
            n_ints, needs, bad_int, slot = spec
            if len(tokens) <= n_ints + 1:
                raise ParseError(f"{head!r} needs {needs}", line_no, len(line))
            if gen is None:
                raise ParseError(f"{head} outside of a group generator", line_no)
            ints = _read_ints(tokens, 1, n_ints + 1, bad_int, line_no, line) if n_ints else ()
            coeffs = _split_ints(tokens, n_ints + 1, line_no, line)
            m, q = entity.key
            if n_ints == 2:  # gamma k degree
                k, degree = ints
                if k < 1:
                    raise SchemaError("gamma component index must be >= 1", _path(entity.key))
                if k in gen[2]:
                    fault = f"duplicate gamma component k={k}"
                else:
                    gen[2][k] = coeffs, degree
                    continue
            elif gen[slot] is not None:
                fault = f"duplicate {head}"
            elif head == "stab" and ints[0] != m - q:  # stab lands in stem m - q
                fault = f"stab declares degree {ints[0]}, expected {m - q}"
            elif head == "antip" and len(coeffs) != entity.rank:
                fault = f"antip vector of length {len(coeffs)}, expected {entity.rank}"
            else:
                gen[slot] = coeffs
                continue
            raise SchemaError(fault, _gen_path(m, q, entity.names[-1]))
        elif head == "gen":
            if len(tokens) <= 1:
                raise ParseError("'gen' needs a generator name", line_no, len(line))
            if entity is None:
                raise ParseError("gen outside of a group/stem", line_no)
            name, names = tokens[1], entity.names
            if name in names:
                raise SchemaError(f"duplicate generator {name!r}", _path(entity.key))
            if len(names) >= entity.rank:
                raise SchemaError(f"more generators than the rank {entity.rank}", _path(entity.key))
            names.append(name)
            if entity.gens is not None:
                gen = [None, None, {}, None, None]
                entity.gens.append(gen)
        elif head == "src":
            match = _SRC.match(line)
            if not match:
                raise ParseError('src needs a quoted string: src "..."', line_no)
            if named is not None:
                record = named
            elif entity is None:
                raise ParseError("src outside of any entity", line_no)
            elif not entity.names:
                if entity.src is not None:
                    raise SchemaError("duplicate src", _path(entity.key))
                entity.src = match.group(1)
                continue
            elif gen is None:
                raise ParseError("src of a stem must come before its gen lines", line_no)
            else:
                record = gen
            if record[4] is not None:
                raise SchemaError("duplicate src", f"name {named[0]}" if record is named
                                  else _gen_path(*entity.key, entity.names[-1]))
            record[4] = match.group(1)
        elif head == "group":
            if len(tokens) <= 3:
                raise ParseError("'group' needs m q free_rank [torsion]", line_no, len(line))
            m, q = _read_ints(tokens, 1, 3, "m and q must be integers", line_no, line)
            key = m, q
            _claim(tables, key)
            if q <= 1 or m <= q:
                raise SchemaError(
                    "entry lies in the closed-form range (q <= 1, m <= q) and "
                    "must not be tabulated",
                    _path(key),
                )
            entity = _OpenEntity(key, _group_from_fields(tokens, 3, line_no, line, key), True)
        elif head == "stem":
            if len(tokens) <= 2:
                raise ParseError("'stem' needs k free_rank [torsion]", line_no, len(line))
            (k,) = _read_ints(tokens, 1, 2, "stem degree must be an integer", line_no, line)
            _claim(tables, k)  # a negative k is never stored
            if k < 0:
                raise SchemaError("negative stem degree", _path(k))
            entity = _OpenEntity(k, _group_from_fields(tokens, 2, line_no, line, k), False)
        elif head == "prod":
            if len(tokens) <= 4:
                raise ParseError("'prod' needs A B -> degree [coeffs]", line_no, len(line))
            if tokens[3] != "->":
                raise ParseError("prod syntax: prod A B -> degree c1,...", line_no)
            (degree,) = _read_ints(
                tokens, 4, 5, "product degree must be an integer", line_no, line
            )
            coeffs = _split_ints(tokens, 5, line_no, line)
            kind, value = "prod", (tokens[1], tokens[2], degree, coeffs)
        elif head == "name":
            if len(tokens) <= 3:
                raise ParseError("'name' needs NAME m q [coeffs]", line_no, len(line))
            m, q = _read_ints(tokens, 2, 4, "name m/q must be integers", line_no, line)
            if tokens[1] in tables.named:
                raise SchemaError("duplicate name", f"name {tokens[1]}")
            named = [tokens[1], m, q, _split_ints(tokens, 4, line_no, line), None]
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)
    if entity is not None:
        kind, value = entity.close()
    elif named is not None:
        name, m, q, coeffs, src = named
        kind, value = "name", (name, NamedClass(m, q, coeffs, src or ""))
    return len(lines), kind, value


def parse_tables(text: str) -> TableSet:
    """Parse and structurally validate a table file.  All-or-nothing.

    Each piece (a group, stem, prod or name piece, or the comment prelude;
    see the module docstring) stored by an earlier parse is taken from
    _BLOCKS unread, and only the checks that read other pieces run on it: a
    second group (m, q), stem k or name, and a stem's generator names
    against the other stems.  Any other piece is read, and kept in _BLOCKS
    once those checks pass.  The file stage runs on every parse: the stem
    gap, each group's demands against its maps' targets, the products and
    the names.  A warm parse of the bundled table takes about 0.08 ms, and
    a table_curation operation about 1.9 times the benchmark's reference
    loop."""
    tables = TableSet()
    entries, stems, named = tables.entries, tables.stems, tables.named
    stem_gen_degrees = tables.stem_gen_degrees
    groups: list[tuple] = []  # the (key, entry, demands) of each group, in order
    raw_products: list[tuple[str, str, int, tuple[int, ...]]] = []
    if text[:1] == "\ufeff":  # a byte order mark, kept by the utf-8 codec
        text = text[1:]
    line_no = 0  # the number of lines before the piece
    for piece in _HEADS.split("\n".join([line.strip() for line in text.splitlines()])):
        held = _BLOCKS.get(piece)
        read = held is None
        if read:
            held = _read_piece(piece, line_no, tables)
        count, kind, value = held
        if kind == "group":
            key = value[0]
            if key in entries:
                raise SchemaError("duplicate entry", _path(key))
            entries[key] = value[1]
            groups.append(value)
        elif kind == "stem":
            k = value.degree
            if k in stems:
                raise SchemaError("duplicate stem", _path(k))
            for name in value.gen_names:
                if name in stem_gen_degrees:
                    raise SchemaError(
                        f"stem generator name {name!r} reused across stems", _path(k)
                    )
                stem_gen_degrees[name] = k
            stems[k] = value
        elif kind == "prod":
            raw_products.append(value)
        elif kind == "name":
            name, nc = value
            if name in named:
                raise SchemaError("duplicate name", f"name {name}")
            named[name] = nc
        if read:
            _BLOCKS[piece] = held
        line_no += count

    # File stage: what refers to entities declared anywhere in the file.
    # Every lookup of a stem up to the highest one relies on the stems
    # having no gap.
    for k in range(len(stems)):
        if k not in stems:
            raise SchemaError(
                f"missing below pi_{max(stems)}^S: stems must run from 0 without a gap",
                f"pi_{k}^S",
            )
    for (m, q), entry, demands in groups:
        # Each vector must fit the group its map lands in (see _OpenEntity.close).
        fields = iter(demands)
        for key, target, length, name in zip(fields, fields, fields, fields):
            found = (stems if type(target) is int else entries).get(target)
            if found is not None and found.group.rank == length:
                continue
            target = map_target(tables, entry, key)
            if isinstance(target, str):
                fault = f"target {target}"
            elif target.group.rank != length:
                fault = f"vector length {length} != rank {target.group.rank}"
            else:
                continue
            raise SchemaError(f"{_label(key)} {fault}", _gen_path(m, q, name))

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
        elif (a, b) in tables.products:
            fault = "duplicate product"
        else:
            tables.products[(a, b)] = coeffs
            continue
        raise SchemaError(fault, f"prod {a} {b}")

    for name, nc in named.items():
        try:
            entry = resolve_entry(tables, nc.m, nc.q)
        except OutOfTabulatedRange:
            raise SchemaError(
                f"registered in untabulated pi_{nc.m}(S^{nc.q})", f"name {name}"
            ) from None
        if len(nc.coeffs) != entry.group.rank:
            raise SchemaError(
                f"vector length {len(nc.coeffs)} != rank {entry.group.rank}",
                f"name {name}",
            )
    return tables


def _fmt_vec(coeffs: tuple[int, ...]) -> str:
    return ",".join(map(str, coeffs))


def _fmt_tail(line: str, coeffs: tuple[int, ...]) -> str:
    """`line` and then its trailing vector, which is left out when empty."""
    return f"{line} {_fmt_vec(coeffs)}" if coeffs else line


def _fmt_stem(k: int, stem: StemEntry) -> str:
    """The lines of the stem stored under k, joined with "\n"."""
    out = [_fmt_tail(f"stem {k} {stem.group.free_rank}", stem.group.torsion)]
    if stem.source:
        out.append(f'src "{stem.source}"')
    out += [f"gen {g}" for g in stem.gen_names]
    return "\n".join(out)


def _fmt_group(key: tuple[int, int], entry: SphereEntry) -> str:
    """The lines of the group stored under key (m, q), joined with "\n"."""
    m, q = key
    out = [_fmt_tail(f"group {m} {q} {entry.group.free_rank}", entry.group.torsion)]
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
    return "\n".join(out)


# (dict key, id) of each stem or group that serialize_tables wrote -> (that
# stem or group, its text), once per process.  Each value holds the object
# whose id its key has, so no id is reused while the key is stored.  Only a
# key of ints is kept: True and 2.0 equal 1 and 2 as keys but are written
# otherwise.
_TEXTS: dict[tuple, tuple] = {}


def _kept_text(fmt, key, entity) -> str:
    """fmt(key, entity), formatted once per process for a key of ints."""
    if not (type(key) is int or type(key) is tuple and type(key[0]) is type(key[1]) is int):
        return fmt(key, entity)
    held = _TEXTS.get((key, id(entity)))
    if held is None:
        held = _TEXTS[key, id(entity)] = entity, fmt(key, entity)
    return held[1]


def serialize_tables(tables: TableSet) -> str:
    """Emit a canonical text form; parse(serialize(parse(x))) == parse(x).
    Each stem and group is formatted once per process (see _TEXTS)."""
    stems, entries, degrees = tables.stems, tables.entries, tables.stem_gen_degrees
    out = [_kept_text(_fmt_stem, k, stems[k]) for k in sorted(stems)]
    for (a, b), coeffs in sorted(tables.products.items()):
        out.append(_fmt_tail(f"prod {a} {b} -> {degrees[a] + degrees[b]}", coeffs))
    out += [_kept_text(_fmt_group, key, entries[key]) for key in sorted(entries)]
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
            # Counted as parse_tables counts: lines by str.splitlines() after a
            # byte order mark, the column in characters from the line's first
            # non-blank one.  A stand-in "?" for the bad byte ends the text.
            lines = (data[: exc.start].decode("utf-8-sig") + "?").splitlines()
            column = len(lines[-1].lstrip())
            raise ParseError(f"not UTF-8 text ({exc.reason})", len(lines), column) from None
    return parse_tables(data)
