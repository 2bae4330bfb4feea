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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .atoms import Atom, parse_atom
from .msubst import msubst
from .term import Abs, App, ESub, Term, Var


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


@dataclass(frozen=True, slots=True)
class Lit:
    term: Term


@dataclass(frozen=True, slots=True)
class Meta:
    """``{var := arg} target``, evaluated by :func:`eval_meta`."""

    target: "MetaExpr"
    var: Atom
    arg: "MetaExpr"


MetaExpr = Union[Lit, Meta]


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int

    def describe(self) -> str:
        if self.kind == "name":
            return f"name {self.value!r}"
        if self.kind == "end":
            return "end of input"
        return f"{self.value!r}"


_SINGLE = {
    ".": "dot",
    "(": "lparen",
    ")": "rparen",
    "[": "lbracket",
    "]": "rbracket",
    "{": "lbrace",
    "}": "rbrace",
}

_ALL_TOKENS = (
    "name", "'\\'", "'λ'", "'.'", "':='",
    "'('", "')'", "'['", "']'", "'{'", "'}'",
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if c in " \t\r":
            column += 1
            i += 1
            continue
        if c == "\\" or c == "λ":
            tokens.append(_Token("lambda", c, line, column))
            column += 1
            i += 1
            continue
        if c in _SINGLE:
            tokens.append(_Token(_SINGLE[c], c, line, column))
            column += 1
            i += 1
            continue
        if c == ":":
            if i + 1 < n and text[i + 1] == "=":
                tokens.append(_Token("assign", ":=", line, column))
                column += 2
                i += 2
                continue
            raise ParseError(line, column, ("':='",), repr(c))
        if c.isascii() and c.isalpha():
            j = i + 1
            while j < n and text[j].isascii() and text[j].isalnum():
                j += 1
            tokens.append(_Token("name", text[i:j], line, column))
            column += j - i
            i = j
            continue
        raise ParseError(line, column, _ALL_TOKENS, repr(c))
    tokens.append(_Token("end", "", line, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def take(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.line, tok.column, (what,), tok.describe())
        return self.take()

    def name(self) -> Atom:
        tok = self.expect("name", "name")
        try:
            return parse_atom(tok.value)
        except ValueError:  # an index with a leading zero
            raise ParseError(
                tok.line, tok.column, ("name without a leading zero in its index",),
                tok.describe(),
            ) from None

    def meta(self) -> MetaExpr:
        if self.peek().kind == "lbrace":
            self.take()
            var = self.name()
            self.expect("assign", "':='")
            arg = self.meta()
            self.expect("rbrace", "'}'")
            return Meta(self.meta(), var, arg)
        return Lit(self.expr(extra=("'{'",)))

    def expr(self, extra: tuple[str, ...] = ()) -> Term:
        tok = self.peek()
        if tok.kind == "lambda":
            self.take()
            binder = self.name()
            self.expect("dot", "'.'")
            return Abs(binder, self.expr())
        if tok.kind == "lbracket":
            self.take()
            binder = self.name()
            self.expect("assign", "':='")
            arg = self.expr()
            self.expect("rbracket", "']'")
            return ESub(self.expr(), binder, arg)
        if tok.kind in ("name", "lparen"):
            return self.app()
        raise ParseError(
            tok.line, tok.column,
            ("name", "'('", "'\\'", "'['") + extra,
            tok.describe(),
        )

    def app(self) -> Term:
        t = self.atom()
        while self.peek().kind in ("name", "lparen"):
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        if self.peek().kind == "name":
            return Var(self.name())
        self.take()
        t = self.expr()
        self.expect("rparen", "')'")
        return t


def parse(text: str) -> MetaExpr:
    """Parse ``text``; raises :class:`ParseError` on bad input (including
    empty input and unbalanced brackets)."""
    parser = _Parser(_tokenize(text))
    out = parser.meta()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(tok.line, tok.column, ("end of input",), tok.describe())
    return out


def eval_meta(e: MetaExpr) -> Term:
    """Carry out the pending substitutions, innermost first."""
    match e:
        case Lit(t):
            return t
        case Meta(target, var, arg):
            return msubst(eval_meta(target), eval_meta(arg), var)
    raise TypeError(f"not a meta expression: {e!r}")
