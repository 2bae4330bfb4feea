"""Concrete syntax.

Grammar (whitespace-insensitive between tokens)::

    meta  ::= '{' name ':=' meta '}' meta     substitution to perform now
            | expr
    expr  ::= '\\' name '.' expr              abstraction (λ also accepted)
            | '[' name ':=' expr ']' expr     explicit substitution
            | app
    app   ::= app atom | atom                 application, left-associative
    atom  ::= name | '(' expr ')'

``name`` is ``[A-Za-z][A-Za-z0-9]*``; trailing digits form the atom's
index, so ``y0`` is the atom with base ``y`` and index 0.  An index of two
or more digits may not start with ``0``: no atom displays as ``x01``.
Binder forms (``\\x.``, ``[x := u]`` and ``{x := u}``) extend as far right
as possible, so they need parentheses when used as applicands.  ``λ`` is
the only non-ASCII token accepted.

A brace form ``{x := u} t`` denotes the substitution itself, carried out by
:func:`eval_meta`; the bracket form builds a term and is not evaluated.

Bad input raises :class:`ParseError` at a 1-based line and column counted
in characters (a tab, ``\\r`` or ``λ`` is one column); the CLI prints
``parse error: LINE:COLUMN: expected ... found ...`` and exits 2.
"""

from __future__ import annotations

from typing import Union

from .atoms import Atom, _atom, parse_atom
from .msubst import msubst
from .term import _LEAVES, Term, _abs, _app, _esub, _fill, _Record, _term


class ParseError(Exception):
    """Syntax error with a 1-based position and the tokens that were
    acceptable at that point."""

    def __init__(self, line: int, column: int, expected: tuple[str, ...], found: str):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(
            f"{line}:{column}: expected {' or '.join(expected)}, found {found}"
        )


class Lit(_Record):
    __slots__ = __match_args__ = ("term",)
    term: Term

    def __init__(self, term: Term) -> None:
        _fill(self, _term(term))


class Meta(_Record):
    """``{var := arg} target``, evaluated by :func:`eval_meta`."""

    __slots__ = __match_args__ = ("target", "var", "arg")
    target: "MetaExpr"
    var: Atom
    arg: "MetaExpr"

    def __init__(self, target: "MetaExpr", var: Atom, arg: "MetaExpr") -> None:
        for e in (target, arg):
            if type(e) not in (Lit, Meta):
                raise TypeError(f"not a meta expression: {e!r}")
        _fill(self, target, _atom(var), arg)


MetaExpr = Union[Lit, Meta]

# (kind, text, offset): a punctuation mark's kind is its own text, and λ's
# is a backslash's; a name's kind is "name", the end's "end"
_Token = tuple[str, str, int]


def _unexpected(text: str, tok: _Token, expected: tuple[str, ...]) -> ParseError:
    kind, value, i = tok
    found = {"name": f"name {value!r}", "end": "end of input"}.get(kind, repr(value))
    line = text.count("\n", 0, i) + 1
    return ParseError(line, i - text.rfind("\n", 0, i), expected, found)


_ALL_TOKENS = (
    "name", "'\\'", "'λ'", "'.'", "':='",
    "'('", "')'", "'['", "']'", "'{'", "'}'",
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c in "\\λ.()[]{}":
            tokens.append(("\\" if c == "λ" else c, c, i))
            i += 1
        elif text.startswith(":=", i):
            tokens.append((":=", ":=", i))
            i += 2
        elif c.isascii() and c.isalpha():
            j = i + 1
            while j < n and text[j].isascii() and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            expected = ("':='",) if c == ":" else _ALL_TOKENS
            raise _unexpected(text, (c, c, i), expected)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self._text = text
        self._tokens = _tokenize(text)
        self._pos = 0

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def take(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok[0] != kind:
            what = {"name": "name", "end": "end of input"}.get(kind, f"'{kind}'")
            raise _unexpected(self._text, tok, (what,))
        return self.take()

    def name(self) -> Atom:
        tok = self.expect("name")
        try:
            return parse_atom(tok[1])
        except ValueError:  # an index with a leading zero
            expected = ("name without a leading zero in its index",)
            raise _unexpected(self._text, tok, expected) from None

    def meta(self) -> MetaExpr:
        if self.peek()[0] == "{":
            self.take()
            var = self.name()
            self.expect(":=")
            arg = self.meta()
            self.expect("}")
            return Meta(self.meta(), var, arg)
        return Lit(self.expr(extra=("'{'",)))

    def expr(self, extra: tuple[str, ...] = ()) -> Term:
        kind = self.peek()[0]
        if kind == "\\":
            self.take()
            binder = self.name()
            self.expect(".")
            return _abs(binder, self.expr())
        if kind == "[":
            self.take()
            binder = self.name()
            self.expect(":=")
            arg = self.expr()
            self.expect("]")
            return _esub(self.expr(), binder, arg)
        if kind in ("name", "("):
            return self.app()
        expected = ("name", "'('", "'\\'", "'['") + extra
        raise _unexpected(self._text, self.peek(), expected)

    def app(self) -> Term:
        t = self.atom()
        while self.peek()[0] in ("name", "("):
            t = _app(t, self.atom())
        return t

    def atom(self) -> Term:
        if self.peek()[0] == "name":
            return _LEAVES[self.name()]
        self.take()
        t = self.expr()
        self.expect(")")
        return t


def parse(text: str) -> MetaExpr:
    """Parse ``text``; raises :class:`ParseError` on bad input (including
    empty input and unbalanced brackets)."""
    parser = _Parser(text)
    out = parser.meta()
    parser.expect("end")
    return out


def eval_meta(e: MetaExpr) -> Term:
    """Carry out the pending substitutions, innermost first."""
    match e:
        case Lit(t):
            return t
        case Meta(target, var, arg):
            return msubst(eval_meta(target), eval_meta(arg), var)
    raise TypeError(f"not a meta expression: {e!r}")
