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
"""

from __future__ import annotations

import re
from typing import Optional

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


def _printable(cls: SphereClass, what: str, pos: int) -> SphereClass:
    """cls, unless a coefficient has more digits than str() converts, which
    every report that shows the class would then fail on."""
    try:
        str(cls.value)
    except ValueError as exc:
        raise ExprError(f"{what} at position {pos} is too large: {exc}") from None
    return cls


class _Parser:
    """Reads tokens[start:end]; the token at end, if any, closes a susp(...)
    argument and is where a short argument is reported."""

    def __init__(self, tables: SphereTables, tokens: list[tuple[str, int]],
                 start: int = 0, end: Optional[int] = None):
        self.tables = tables
        self.tokens = tokens
        self.index = start
        self.end = len(tokens) if end is None else end

    def peek(self, ahead: int = 0):
        at = self.index + ahead
        return self.tokens[at][0] if at < self.end else None

    def take(self, expected=None):
        if self.index >= self.end:
            wanted = "" if expected is None else f", wanted {expected!r}"
            if self.end == len(self.tokens):
                tok, pos = self.tokens[-1] if self.tokens else ("", 0)
                raise ExprError(f"unexpected end of expression at position {pos + len(tok)}{wanted}")
            tok, pos = self.tokens[self.end]
            raise ExprError(f"unexpected {tok!r} at position {pos}{wanted}")
        tok, pos = self.tokens[self.index]
        if expected is not None and tok != expected:
            raise ExprError(f"expected {expected!r} at position {pos}, got {tok!r}")
        self.index += 1
        return tok, pos

    def expr(self, m: int, q: int) -> SphereClass:
        total = self.term(m, q)
        while self.peek() == "+":
            _tok, pos = self.take("+")
            total = _printable(total + self.term(m, q), "sum", pos)
        return total

    def term(self, m: int, q: int) -> SphereClass:
        start = self.index
        tok = self.peek()
        if tok is not None and _INT.fullmatch(tok) and self.peek(1) == "*":
            self.take()
            self.take("*")
            cls = self.atom(m, q).scale(int(tok))
        else:
            cls = self.atom(m, q)
        return _printable(cls, "term", self.tokens[start][1])

    def _susp(self, m: int, q: int) -> SphereClass:
        _tok, open_at = self.take("(")
        # Find the matching ")" and a possible top-level ", k" to learn the
        # suspension depth before parsing the inner expression.
        depth = 1
        comma_at = None
        close_at = None
        for j in range(self.index, len(self.tokens)):
            tok = self.tokens[j][0]
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if depth == 0:
                    close_at = j
                    break
            elif tok == "," and depth == 1 and comma_at is None:
                comma_at = j
        if close_at is None:
            raise ExprError(f"unbalanced parentheses: '(' at position {open_at} is never closed")
        times = 1
        inner_end = close_at
        if comma_at is not None:
            k_tokens = self.tokens[comma_at + 1 : close_at + 1]  # k, then the ")"
            count = k_tokens[0][0]
            ok = count.isdigit() and int(count) >= 1
            if not ok or len(k_tokens) != 2:
                tok, pos = k_tokens[1 if ok else 0]  # a bad or missing k, or a second token
                raise ExprError(
                    f"susp(EXPR, k) needs a positive integer k, got {tok!r} at position {pos}"
                )
            times = int(count)
            inner_end = comma_at
        inner = _Parser(self.tables, self.tokens, self.index, inner_end)
        cls = inner.expr(m - times, q - times)
        if inner.peek() is not None:
            tok, pos = inner.tokens[inner.index]
            raise ExprError(f"unexpected {tok!r} at position {pos} inside susp(...)")
        self.index = close_at + 1
        out = self.tables.suspend_iter(cls, times)
        if isinstance(out, Unknown):
            raise ExprError(f"cannot suspend {times} time(s): {out.reason}")
        return out

    def atom(self, m: int, q: int) -> SphereClass:
        tok, pos = self.take()
        if _INT.fullmatch(tok):
            if m != q:
                raise ExprError(
                    f"bare integer at position {pos} is a degree and needs "
                    f"m = q; context is pi_{m}(S^{q})"
                )
            return self.tables.cls(m, q, [int(tok)])
        if tok == "zero":
            return self.tables.zero(m, q)
        if tok == "iota":
            if m != q:
                raise ExprError(
                    f"iota lives in pi_{q}(S^{q}); context is pi_{m}(S^{q})"
                )
            return self.tables.cls(m, q, [1])
        if tok == "whitehead":
            self.take("(")
            qq, qpos = self.take()
            self.take(")")
            if not _INT.fullmatch(qq):
                raise ExprError(
                    f"whitehead(q) needs an integer q, got {qq!r} at position {qpos}"
                )
            if str(int(qq)) != qq:
                # As in the table's whitehead<q> names: one spelling per q.
                raise ExprError(
                    f"whitehead(q) needs q without a leading zero, got {qq!r} at position {qpos}"
                )
            if f"whitehead{qq}" not in self.tables.raw.named:
                raise ExprError(
                    f"whitehead({qq}) at position {pos} is not registered; named "
                    f"classes are {sorted(self.tables.raw.named)}"
                )
            return self._fit(self.tables.whitehead(int(qq)), m, q, f"whitehead({qq})", pos)
        if tok == "susp":
            return self._susp(m, q)
        if tok in "()*,+":
            hint = ": parentheses only follow susp and whitehead" if tok == "(" else ""
            raise ExprError(f"unexpected {tok!r} at position {pos}{hint}")
        if tok in self.tables.raw.named:
            return self._fit(self.tables.named(tok), m, q, tok, pos)
        try:
            return self.tables.generator(m, q, tok)
        except SchemaError:
            entry = self.tables.lookup(m, q)
            raise ExprError(
                f"unknown name {tok!r} at position {pos}; generators of "
                f"pi_{m}(S^{q}) are {list(entry.gen_names)}, named classes are "
                f"{sorted(self.tables.raw.named)}"
            ) from None

    @staticmethod
    def _fit(cls: SphereClass, m: int, q: int, what: str, pos: int) -> SphereClass:
        if (cls.m, cls.q) != (m, q):
            raise ExprError(
                f"{what} lives in pi_{cls.m}(S^{cls.q}) but the context is "
                f"pi_{m}(S^{q}) (position {pos})"
            )
        return cls


def parse_class(tables: SphereTables, text: str, m: int, q: int) -> SphereClass:
    """Evaluate an expression as a class of pi_m(S^q)."""
    parser = _Parser(tables, _tokenize(text))
    out = parser.expr(m, q)
    if parser.peek() is not None:
        tok, pos = parser.tokens[parser.index]
        raise ExprError(f"unexpected trailing {tok!r} at position {pos}")
    return out
