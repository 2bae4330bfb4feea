"""Alpha-equivalence: a rule-based decision procedure plus an independent
nameless (index-based) normal form used to cross-check it."""

from __future__ import annotations

from typing import Union

from .atoms import Atom, _atom
from .term import Abs, App, ESub, Term, Var, _layout, _new, _Record, _term


# Like the term classes, each nameless class keeps its fields in the slots
# of a private field class: its constructor checks them and calls its
# builder, and ``_canon`` calls the builders directly.
class _BVarFields:
    __slots__ = ("index",)


class _FVarFields:
    __slots__ = ("atom",)


class _CLamFields:
    __slots__ = ("body",)


class _CAppFields:
    __slots__ = ("fun", "arg")


class _CSubFields:
    __slots__ = ("body", "arg")


class BVar(_BVarFields, _Record):
    __slots__ = ()
    __match_args__ = ("index",)
    index: int

    def __new__(cls, index: int) -> BVar:
        if type(index) is not int:
            raise TypeError(f"not an index: {index!r}")
        if index < 0:
            raise ValueError(f"negative index: {index!r}")
        return _bvar(index)


class FVar(_FVarFields, _Record):
    __slots__ = ()
    __match_args__ = ("atom",)
    atom: Atom

    def __new__(cls, atom: Atom) -> FVar:
        return _fvar(_atom(atom))


class CLam(_CLamFields, _Record):
    __slots__ = ()
    __match_args__ = ("body",)
    body: "CanonicalTerm"

    def __new__(cls, body: "CanonicalTerm") -> CLam:
        return _clam(_canonical(body))


class CApp(_CAppFields, _Record):
    __slots__ = ()
    __match_args__ = ("fun", "arg")
    fun: "CanonicalTerm"
    arg: "CanonicalTerm"

    def __new__(cls, fun: "CanonicalTerm", arg: "CanonicalTerm") -> CApp:
        return _capp(_canonical(fun), _canonical(arg))


class CSub(_CSubFields, _Record):
    """Nameless explicit substitution: ``body`` sits under one binder,
    ``arg`` does not."""

    __slots__ = ()
    __match_args__ = ("body", "arg")
    body: "CanonicalTerm"
    arg: "CanonicalTerm"

    def __new__(cls, body: "CanonicalTerm", arg: "CanonicalTerm") -> CSub:
        return _csub(_canonical(body), _canonical(arg))


# Unchecked builders, sealed like the term builders in ``nes.term``.

def _bvar(index: int) -> BVar:
    node = _new(_BVarFields)
    node.index = index
    node.__class__ = BVar
    return node


def _fvar(atom: Atom) -> FVar:
    node = _new(_FVarFields)
    node.atom = atom
    node.__class__ = FVar
    return node


def _clam(body: CanonicalTerm) -> CLam:
    node = _new(_CLamFields)
    node.body = body
    node.__class__ = CLam
    return node


def _capp(fun: CanonicalTerm, arg: CanonicalTerm) -> CApp:
    node = _new(_CAppFields)
    node.fun = fun
    node.arg = arg
    node.__class__ = CApp
    return node


def _csub(body: CanonicalTerm, arg: CanonicalTerm) -> CSub:
    node = _new(_CSubFields)
    node.body = body
    node.arg = arg
    node.__class__ = CSub
    return node


CanonicalTerm = Union[BVar, FVar, CLam, CApp, CSub]
_CANONICAL = frozenset((BVar, FVar, CLam, CApp, CSub))


def _canonical(c: object) -> CanonicalTerm:
    # ``c`` itself, once it is known to be a canonical term
    if type(c) not in _CANONICAL:
        raise TypeError(f"not a canonical term: {c!r}")
    return c


def canonicalize(t: Term) -> CanonicalTerm:
    """Replace bound atoms by binder-distance indices (innermost = 0).

    Abstractions and the body position of an explicit substitution each
    introduce one binder; the substitution's argument stays outside it.
    Free atoms are kept by name, so two terms are alpha-equivalent exactly
    when their canonical forms are structurally equal.
    """
    return _canon(_term(t), [])


# ``bound`` lists the binders above ``t``, innermost last
def _canon(t: Term, bound: list[Atom]) -> CanonicalTerm:
    match t:
        case Var(a):
            for i in range(len(bound) - 1, -1, -1):
                if bound[i] is a:
                    return _bvar(len(bound) - 1 - i)
            return _fvar(a)
        case Abs(x, body):
            bound.append(x)
            out = _clam(_canon(body, bound))
            bound.pop()
            return out
        case App(fun, arg):
            return _capp(_canon(fun, bound), _canon(arg, bound))
        case ESub(body, x, arg):
            carg = _canon(arg, bound)
            bound.append(x)
            cbody = _canon(body, bound)
            bound.pop()
            return _csub(cbody, carg)


def aeq(t1: Term, t2: Term) -> bool:
    """Decide alpha-equivalence.

    Syntax-directed: variables by atom equality, applications component-wise,
    binder forms by direct body comparison when the binders coincide, and
    otherwise by ``x not free in the other body`` plus comparison against the
    swapped body.  For explicit substitutions the arguments, which sit
    outside the binder, are compared first.

    The swaps on ``t2``'s side are not built: they are suspended in one
    permutation ``pi`` (and its inverse), composed one transposition per
    renamed binder and applied as ``t2``'s atoms are read, so each step
    compares ``t1`` with ``pi . t2``.  The premise ``x not in fv(pi . body)``
    is asked as ``pi^-1(x) not free in body``: one bit of the free-atom mask
    the body's node keeps.  Under the empty permutation a subterm compared
    with itself is equal at once.  Every recursive call strictly decreases
    term size.
    """
    # a constructor takes only terms as children, so only the roots are
    # checked
    return _aeq(_term(t1), _term(t2), {}, {})


# whether t1 is alpha-equal to pi . t2; inv is pi's inverse
def _aeq(t1: Term, t2: Term, pi: dict[Atom, Atom], inv: dict[Atom, Atom]) -> bool:
    if t1 is t2 and not pi:
        return True
    tp = type(t1)
    if tp is not type(t2):
        return False
    if tp is Var:
        a = t2.atom
        return t1.atom is (pi.get(a, a) if pi else a)
    if tp is App:
        return _aeq(t1.fun, t2.fun, pi, inv) and _aeq(t1.arg, t2.arg, pi, inv)
    if tp is ESub and not _aeq(t1.arg, t2.arg, pi, inv):
        return False
    x, b = t1.binder, t2.binder
    y = pi.get(b, b) if pi else b  # the binder of pi . t2
    if x is not y:
        ix = inv.get(x, x)
        if t2.body._free & ix._bit:
            return False
        # the bodies compare under (y x) . pi
        pi, inv = {**pi, b: x, ix: y}, {**inv, x: b, y: ix}
    return _aeq(t1.body, t2.body, pi, inv)


def render_canonical(c: CanonicalTerm) -> str:
    """Concrete syntax for a nameless term: bound indices print as ``#k``,
    binders as ``\\.`` and ``[:= arg]``."""
    return _layout(_canonical(c), _pieces)


# contexts as in ``nes.term._pieces``
def _pieces(c: CanonicalTerm, ctx: int) -> str | list:
    tp = type(c)
    if tp is BVar:
        return f"#{c.index}"
    if tp is FVar:
        return str(c.atom)
    if tp is CApp:
        s = [(c.fun, 1), " ", (c.arg, 2)]
        return ["(", *s, ")"] if ctx == 2 else s
    if tp is CLam:
        s = ["\\. ", (c.body, 0)]
    else:
        s = ["[:= ", (c.arg, 0), "] ", (c.body, 0)]
    return ["(", *s, ")"] if ctx >= 1 else s
