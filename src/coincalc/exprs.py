"""Tiny expression language for homotopy classes on the command line.

    EXPR  := TERM ('+' TERM)*
    TERM  := INT '*' ATOM | ATOM
    ATOM  := INT | GEN | NAMED
    NAMED := zero | iota | whitehead(q) | hopfR | hopfC | hopfH | alpha1_3
           | susp(EXPR [, k])
    INT   := -?[0-9]+                       (ASCII digits only)

GEN is a generator name of the context entry pi_m(S^q); a bare INT is the
corresponding multiple of iota and only makes sense when m = q.  Named
classes must land in the context entry; susp(EXPR, k) evaluates EXPR in
pi_{m-k}(S^{q-k}) and suspends k times (k defaults to 1).  The q of
whitehead(q) is written without a leading zero, as in the table's names.  An
integer, term or sum with more digits than the interpreter converts is an
error at its position.

An expression is read whole before anything in it is looked up, so a
malformed one is reported at its first fault in reading order; only a
well-formed one is evaluated in its context, left to right.  One nested past
the interpreter's recursion limit (a few hundred susp levels) is an error.
"""

from __future__ import annotations

import re

from .spheres import SphereClass, SphereTables, Unknown
from .tables import _INT, SchemaError


class ExprError(ValueError):
    """Parse or evaluation failure, with the offending position."""


_TOKEN_RE = re.compile(r"\s*(-?[0-9]+|[A-Za-z_][A-Za-z_0-9]*|[()*,+])")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip() == "":
                break
            raise ExprError(
                f"cannot read expression at position {pos}: {text[pos:]!r}"
            )
        tok, pos = match.group(1), match.start(1)
        if tok[0] in "-0123456789":
            try:
                int(tok)
            except ValueError as exc:  # past the interpreter's digit limit
                raise ExprError(f"integer at position {pos} is too long: {exc}") from None
        tokens.append((tok, pos))
        pos = match.end()
    return tokens


class _Reader:
    """Reads a token list into a tree in one left-to-right pass and looks
    nothing up.  Every node is (kind, position, a, b):

        ("+", pos, [TERM, ...], [position of each '+'])
        ("*", pos, INT or None, ATOM)      a term; pos is its first token
        ("int", pos, value, None)          ("name", pos, name, None)
        ("whitehead", pos, q, None)        ("susp", pos, EXPR, k)
    """

    def __init__(self, tokens: list[tuple[str, int]]):
        self.tokens = tokens
        self.index = 0

    def peek(self, ahead: int = 0) -> str:
        at = self.index + ahead
        return self.tokens[at][0] if at < len(self.tokens) else ""

    def take(self, expected=None):
        if self.index == len(self.tokens):
            tok, pos = self.tokens[-1] if self.tokens else ("", 0)
            wanted = "" if expected is None else f", wanted {expected!r}"
            raise ExprError(f"unexpected end of expression at position {pos + len(tok)}{wanted}")
        tok, pos = self.tokens[self.index]
        if expected is not None and tok != expected:
            raise ExprError(f"expected {expected!r} at position {pos}, got {tok!r}")
        self.index += 1
        return tok, pos

    def expr(self) -> tuple:
        terms, pluses = [self.term()], []
        while self.peek() == "+":
            pluses.append(self.take()[1])
            terms.append(self.term())
        return ("+", terms[0][1], terms, pluses)

    def term(self) -> tuple:
        if _INT.fullmatch(self.peek()) and self.peek(1) == "*":
            tok, pos = self.take()
            self.take()
            return ("*", pos, int(tok), self.atom())
        atom = self.atom()
        return ("*", atom[1], None, atom)

    def atom(self) -> tuple:
        tok, pos = self.take()
        if _INT.fullmatch(tok):
            return ("int", pos, int(tok), None)
        if tok == "whitehead":
            self.take("(")
            qq, qpos = self.take()
            # As in the table's whitehead<q> names: one spelling per q.
            if not _INT.fullmatch(qq) or str(int(qq)) != qq:
                what = "q without a leading zero" if _INT.fullmatch(qq) else "an integer q"
                raise ExprError(f"whitehead(q) needs {what}, got {qq!r} at position {qpos}")
            self.take(")")
            return ("whitehead", pos, qq, None)
        if tok == "susp":
            return self.susp(pos)
        if tok in "()*,+":
            hint = ": parentheses only follow susp and whitehead" if tok == "(" else ""
            raise ExprError(f"unexpected {tok!r} at position {pos}{hint}")
        return ("name", pos, tok, None)

    def susp(self, pos: int) -> tuple:
        _tok, open_at = self.take("(")
        inner = self.expr()
        times = 1
        if self.peek() == ",":
            self.take()
            count, at = self.take()
            ok = count.isdigit() and int(count) >= 1
            if not ok or self.peek() not in ("", ")"):
                count, at = self.tokens[self.index] if ok else (count, at)  # a second token
                raise ExprError(
                    f"susp(EXPR, k) needs a positive integer k, got {count!r} at position {at}"
                )
            times = int(count)
        if not self.peek():
            raise ExprError(f"unbalanced parentheses: '(' at position {open_at} is never closed")
        tok, at = self.take()
        if tok != ")":
            raise ExprError(f"unexpected {tok!r} at position {at} inside susp(...)")
        return ("susp", pos, inner, times)


def _printable(cls: SphereClass, what: str, pos: int) -> SphereClass:
    """cls, unless a coefficient has more digits than str() converts, which
    every report that shows the class would then fail on."""
    try:
        str(cls.value)
    except ValueError as exc:
        raise ExprError(f"{what} at position {pos} is too large: {exc}") from None
    return cls


def _fit(cls: SphereClass, m: int, q: int, what: str, pos: int) -> SphereClass:
    if (cls.m, cls.q) != (m, q):
        raise ExprError(
            f"{what} lives in pi_{cls.m}(S^{cls.q}) but the context is "
            f"pi_{m}(S^{q}) (position {pos})"
        )
    return cls


def _evaluate(tables: SphereTables, node: tuple, m: int, q: int) -> SphereClass:
    """The class of a tree node in pi_m(S^q)."""
    kind, pos, a, b = node
    if kind == "+":
        total = _evaluate(tables, a[0], m, q)
        for plus, term in zip(b, a[1:]):
            total = _printable(total + _evaluate(tables, term, m, q), "sum", plus)
        return total
    if kind == "*":
        cls = _evaluate(tables, b, m, q)
        return _printable(cls if a is None else cls.scale(a), "term", pos)
    if kind == "susp":
        out = tables.suspend_iter(_evaluate(tables, a, m - b, q - b), b)
        if isinstance(out, Unknown):
            raise ExprError(f"cannot suspend {b} time(s): {out.reason}")
        return out
    if kind == "int":
        if m != q:
            raise ExprError(
                f"bare integer at position {pos} is a degree and needs "
                f"m = q; context is pi_{m}(S^{q})"
            )
        return tables.cls(m, q, [a])
    named = tables.raw.named
    if kind == "whitehead":
        if f"whitehead{a}" not in named:
            raise ExprError(
                f"whitehead({a}) at position {pos} is not registered; named "
                f"classes are {sorted(named)}"
            )
        return _fit(tables.whitehead(int(a)), m, q, f"whitehead({a})", pos)
    if a == "zero":
        return tables.zero(m, q)
    if a == "iota":
        if m != q:
            raise ExprError(f"iota lives in pi_{q}(S^{q}); context is pi_{m}(S^{q})")
        return tables.cls(m, q, [1])
    if a in named:
        return _fit(tables.named(a), m, q, a, pos)
    try:
        return tables.generator(m, q, a)
    except SchemaError:
        entry = tables.lookup(m, q)
        raise ExprError(
            f"unknown name {a!r} at position {pos}; generators of "
            f"pi_{m}(S^{q}) are {list(entry.gen_names)}, named classes are "
            f"{sorted(named)}"
        ) from None


def parse_class(tables: SphereTables, text: str, m: int, q: int) -> SphereClass:
    """Evaluate an expression as a class of pi_m(S^q)."""
    reader = _Reader(_tokenize(text))
    try:
        tree = reader.expr()
        if reader.index < len(reader.tokens):
            tok, pos = reader.tokens[reader.index]
            raise ExprError(f"unexpected trailing {tok!r} at position {pos}")
        return _evaluate(tables, tree, m, q)
    except RecursionError:
        # Reading and evaluating recurse a few frames per nesting level.
        raise ExprError("expression is nested too deeply") from None
