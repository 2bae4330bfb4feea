"""Alpha-equivalence: a rule-based decision procedure plus an independent
nameless (index-based) normal form used to cross-check it."""

from __future__ import annotations

from typing import Union

from .atoms import Atom, _typed
from .term import Abs, App, ESub, Term, Var, _layout, _new, _Record, _term


# A nameless class makes its records in ``__new__``: it checks its fields,
# then stores them on a new object through ``object.__setattr__``, which
# goes round ``_Record.__setattr__``.  ``_canon`` builds through these
# constructors, so every nameless record is checked.
_set = object.__setattr__
_index = _typed((int,), "an index")


class BVar(_Record):
    __slots__ = __match_args__ = ("index",)
    index: int

    def __new__(cls, index: int) -> BVar:
        if _index(index) < 0:
            raise ValueError(f"negative index: {index!r}")
        node = _new(cls)
        _set(node, "index", index)
        return node


class CLam(_Record):
    __slots__ = __match_args__ = ("body",)
    body: "CanonicalTerm"

    def __new__(cls, body: "CanonicalTerm") -> CLam:
        node = _new(cls)
        _set(node, "body", _canonical(body))
        return node


class CApp(_Record):
    __slots__ = __match_args__ = ("fun", "arg")
    fun: "CanonicalTerm"
    arg: "CanonicalTerm"

    def __new__(cls, fun: "CanonicalTerm", arg: "CanonicalTerm") -> CApp:
        node = _new(cls)
        _set(node, "fun", _canonical(fun))
        _set(node, "arg", _canonical(arg))
        return node


class CSub(_Record):
    """Nameless explicit substitution: ``body`` sits under one binder,
    ``arg`` does not."""

    __slots__ = __match_args__ = ("body", "arg")
    body: "CanonicalTerm"
    arg: "CanonicalTerm"

    def __new__(cls, body: "CanonicalTerm", arg: "CanonicalTerm") -> CSub:
        node = _new(cls)
        _set(node, "body", _canonical(body))
        _set(node, "arg", _canonical(arg))
        return node


# A free variable of a canonical term is its atom itself.
CanonicalTerm = Union[BVar, Atom, CLam, CApp, CSub]
_canonical = _typed((BVar, Atom, CLam, CApp, CSub), "a canonical term")


def canonicalize(t: Term) -> CanonicalTerm:
    """Replace bound atoms by binder-distance indices (innermost = 0).

    Abstractions and the body position of an explicit substitution each
    introduce one binder; the substitution's argument stays outside it.
    A free atom stands for itself, so two terms are alpha-equivalent
    exactly when their canonical forms are structurally equal.
    """
    return _canon(_term(t), [])


# ``bound`` lists the binders above ``t``, innermost last
def _canon(t: Term, bound: list[Atom]) -> CanonicalTerm:
    tp = type(t)
    if tp is Var:
        a = t.atom
        for i in range(len(bound) - 1, -1, -1):
            if bound[i] is a:
                return BVar(len(bound) - 1 - i)
        return a
    if tp is App:
        return CApp(_canon(t.fun, bound), _canon(t.arg, bound))
    # the argument of an ESub sits outside its binder
    arg = _canon(t.arg, bound) if tp is ESub else None
    bound.append(t.binder)
    body = _canon(t.body, bound)
    bound.pop()
    return CLam(body) if tp is Abs else CSub(body, arg)


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
    if tp is Atom:
        return str(c)
    if tp is CApp:
        s = [(c.fun, 1), " ", (c.arg, 2)]
        return ["(", *s, ")"] if ctx == 2 else s
    if tp is CLam:
        s = ["\\. ", (c.body, 0)]
    else:
        s = ["[:= ", (c.arg, 0), "] ", (c.body, 0)]
    return ["(", *s, ")"] if ctx >= 1 else s
