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

from .atoms import Atom, _atom, _typed, parse_atom
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
        target, arg = _meta(target), _meta(arg)
        _fill(self, target, _atom(var), arg)


MetaExpr = Union[Lit, Meta]
_meta = _typed((Lit, Meta), "a meta expression")


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


def _name(text: str, tok: _Token) -> Atom:
    if tok[0] != "name":
        raise _unexpected(text, tok, ("name",))
    try:
        return parse_atom(tok[1])
    except ValueError:  # an index with a leading zero
        expected = ("name without a leading zero in its index",)
        raise _unexpected(text, tok, expected) from None


def parse(text: str) -> MetaExpr:
    """Parse ``text``; raises :class:`ParseError` on bad input (including
    empty input and unbalanced brackets)."""
    # One loop over the tokens, with a stack of open frames: the input's,
    # and one per open '(', '[x :=' or '{x :='.  A frame is [the token kind
    # that closes it, the binder forms to wrap round it as (kind, binder,
    # arg), outermost first, its application so far or None, whether '{'
    # may open there].  A binder form extends as far right as it can, so it
    # only adds a wrap to the frame it starts in, and only the closer may
    # follow a finished application.
    tokens = _tokenize(text)
    stack = [["end", [], None, True]]
    i = 0
    while True:
        frame = stack[-1]
        closer, wraps, app, meta_ok = frame
        tok = tokens[i]
        kind = tok[0]
        i += 1
        if kind == "name":
            leaf = _LEAVES[_name(text, tok)]
            frame[2] = leaf if app is None else _app(app, leaf)
        elif kind == "(":
            stack.append([")", [], None, False])
        elif app is None:
            if kind not in ("\\", "[") and not (kind == "{" and meta_ok):
                extra = ("'{'",) if meta_ok else ()
                raise _unexpected(text, tok, ("name", "'('", "'\\'", "'['") + extra)
            binder = _name(text, tokens[i])
            sep = "." if kind == "\\" else ":="
            if tokens[i + 1][0] != sep:
                raise _unexpected(text, tokens[i + 1], (f"'{sep}'",))
            i += 2
            wraps.append((kind, binder, None))
            frame[3] = kind == "{"
            if kind != "\\":
                stack.append(["]" if kind == "[" else "}", [], None, kind == "{"])
        elif kind != closer:
            what = "end of input" if closer == "end" else f"'{closer}'"
            raise _unexpected(text, tok, (what,))
        else:
            t = app
            for k, x, u in reversed(wraps):
                if k == "\\":
                    t = _abs(x, t)
                elif k == "[":
                    t = _esub(t, x, u)
                else:
                    t = Meta(t if type(t) is Meta else Lit(t), x, u)
            if closer in ("}", "end") and type(t) is not Meta:
                t = Lit(t)
            if closer == "end":
                return t
            stack.pop()
            parent = stack[-1]
            if closer == ")":
                parent[2] = t if parent[2] is None else _app(parent[2], t)
            else:  # the argument of the wrap that opened this frame
                parent[1][-1] = parent[1][-1][:2] + (t,)


def eval_meta(e: MetaExpr) -> Term:
    """Carry out the pending substitutions, innermost first."""
    # A postorder fold from one stack; ``Meta`` checks its own operands.
    # A ``Meta`` pushes its variable, as the marker that both its operands
    # are done, under its argument and its target, so the target is
    # evaluated first and then the argument: fresh names depend on it.
    done: list[Term] = []
    stack: list = [_meta(e)]
    while stack:
        node = stack.pop()
        tp = type(node)
        if tp is Lit:
            done.append(node.term)
        elif tp is Meta:
            stack += (node.var, node.arg, node.target)
        else:
            arg = done.pop()
            done.append(msubst(done.pop(), arg, node))
    return done[0]
