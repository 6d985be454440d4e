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
well-formed one is evaluated in its context, left to right.  Neither step
recurses, so an answer does not depend on how deep susp( is nested.
"""

from __future__ import annotations

import re

from .fgab import InputError
from .spheres import SphereClass, SphereTables, Unknown
from .tables import _INT, SchemaError


class ExprError(InputError):
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
    """Reads a token list in one left-to-right pass, looking nothing up, into
    steps (kind, position, a) in evaluation order: a leaf ("int", "name" or
    "whitehead"); ("*", first token, INT or None), which ends a term; ("+",
    the '+', None); and ["(", pos, k] ... (")", pos, k) around each susp(EXPR,
    k), whose '(' step is filled in once k has been read.  One frame per open
    susp( keeps its '(' step and the term, and the '+' before it, that it ends.
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

    def steps(self) -> list:
        steps, frames, plus = [], [], None  # plus: the '+' before the term being read
        while True:
            coeff = start = None
            if _INT.fullmatch(self.peek()) and self.peek(1) == "*":
                coeff, start = self.take()
                self.take()
            tok, pos = self.take()
            term = ("*", pos, None) if coeff is None else ("*", start, int(coeff))
            if tok == "susp":
                frames.append((len(steps), self.take("(")[1], term, plus))
                steps.append(["(", pos, 1])
                plus = None
                continue
            steps += (self.leaf(tok, pos), term)
            while True:  # the term is read: add it, then close each susp( it ends
                if plus is not None:
                    steps.append(("+", plus, None))
                if self.peek() == "+":
                    plus = self.take()[1]
                    break
                if not frames:
                    if self.index < len(self.tokens):
                        tok, pos = self.tokens[self.index]
                        raise ExprError(f"unexpected trailing {tok!r} at position {pos}")
                    return steps
                at, open_at, term, plus = frames.pop()
                steps[at][2] = times = self.close(open_at)
                steps += ((")", open_at, times), term)

    def leaf(self, tok: str, pos: int) -> tuple:
        if _INT.fullmatch(tok):
            return ("int", pos, int(tok))
        if tok == "whitehead":
            self.take("(")
            qq, qpos = self.take()
            # As in the table's whitehead<q> names: one spelling per q.
            if not _INT.fullmatch(qq) or str(int(qq)) != qq:
                what = "q without a leading zero" if _INT.fullmatch(qq) else "an integer q"
                raise ExprError(f"whitehead(q) needs {what}, got {qq!r} at position {qpos}")
            self.take(")")
            return ("whitehead", pos, qq)
        if tok in "()*,+":
            hint = ": parentheses only follow susp and whitehead" if tok == "(" else ""
            raise ExprError(f"unexpected {tok!r} at position {pos}{hint}")
        return ("name", pos, tok)

    def close(self, open_at: int) -> int:
        """Reads the [, k] ')' that close the susp( opened at open_at; returns k."""
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
        return times


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


def _leaf(tables: SphereTables, kind: str, pos: int, a, m: int, q: int) -> SphereClass:
    """The class of a leaf step in pi_m(S^q)."""
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
    """Evaluate an expression as a class of pi_m(S^q): its steps run in one
    loop over a stack of values and a stack of (m, q) contexts."""
    values: list[SphereClass] = []
    contexts = [(m, q)]
    for kind, pos, a in _Reader(_tokenize(text)).steps():
        m, q = contexts[-1]
        if kind == "(":
            contexts.append((m - a, q - a))
        elif kind == ")":
            contexts.pop()
            out = tables.suspend_iter(values.pop(), a)
            if isinstance(out, Unknown):
                raise ExprError(f"cannot suspend {a} time(s): {out.reason}")
            values.append(out)
        elif kind == "*":
            values[-1] = _printable(values[-1] if a is None else values[-1].scale(a), "term", pos)
        elif kind == "+":
            term = values.pop()
            values[-1] = _printable(values[-1] + term, "sum", pos)
        else:
            values.append(_leaf(tables, kind, pos, a, m, q))
    return values[0]
