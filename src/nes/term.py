"""The term datatype and its structural operations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .atoms import Atom, AtomSet


@dataclass(frozen=True, slots=True)
class Var:
    atom: Atom


@dataclass(frozen=True, slots=True)
class Abs:
    binder: Atom
    body: "Term"


@dataclass(frozen=True, slots=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True)
class ESub:
    """``[binder := arg] body``: an object-level substitution constructor.

    It carries no evaluation rules here; it only binds ``binder`` in
    ``body`` (the argument is outside the binder's scope).
    """

    body: "Term"
    binder: Atom
    arg: "Term"


Term = Union[Var, Abs, App, ESub]


def size(t: Term) -> int:
    """Node count; always at least 1."""
    n = 0
    stack = [t]
    while stack:
        node = stack.pop()
        n += 1
        tp = type(node)
        if tp is Abs:
            stack.append(node.body)
        elif tp is App:
            stack.append(node.fun)
            stack.append(node.arg)
        elif tp is ESub:
            stack.append(node.body)
            stack.append(node.arg)
        elif tp is not Var:
            raise TypeError(f"not a term: {node!r}")
    return n


def _fv(t: Term) -> set[Atom]:
    # One pass with shadow counts per atom: entries on the stack are either
    # a term to visit or (atom,) marking the end of that binder's scope.
    out: set[Atom] = set()
    shadow: dict[Atom, int] = {}
    stack: list = [t]
    while stack:
        node = stack.pop()
        tp = type(node)
        if tp is Var:
            a = node.atom
            if not shadow.get(a):
                out.add(a)
        elif tp is App:
            stack.append(node.fun)
            stack.append(node.arg)
        elif tp is Abs:
            x = node.binder
            shadow[x] = shadow.get(x, 0) + 1
            stack.append((x,))
            stack.append(node.body)
        elif tp is ESub:
            x = node.binder
            stack.append(node.arg)  # the argument sits outside the binder
            shadow[x] = shadow.get(x, 0) + 1
            stack.append((x,))
            stack.append(node.body)
        elif tp is tuple:
            shadow[node[0]] -= 1
        else:
            raise TypeError(f"not a term: {node!r}")
    return out


def _fv_and_atoms(t: Term) -> tuple[set[Atom], set[Atom]]:
    # _fv's pass that also collects every occurring atom, binders included
    out: set[Atom] = set()
    occurring: set[Atom] = set()
    shadow: dict[Atom, int] = {}
    stack: list = [t]
    while stack:
        node = stack.pop()
        tp = type(node)
        if tp is Var:
            a = node.atom
            occurring.add(a)
            if not shadow.get(a):
                out.add(a)
        elif tp is App:
            stack.append(node.fun)
            stack.append(node.arg)
        elif tp is Abs or tp is ESub:
            x = node.binder
            occurring.add(x)
            if tp is ESub:
                stack.append(node.arg)
            shadow[x] = shadow.get(x, 0) + 1
            stack.append((x,))
            stack.append(node.body)
        elif tp is tuple:
            shadow[node[0]] -= 1
        else:
            raise TypeError(f"not a term: {node!r}")
    return out, occurring


def fv_nom(t: Term) -> AtomSet:
    """Free atoms of ``t``.  Both binder forms remove their bound name from
    the body's contribution; an explicit substitution's argument is free."""
    return AtomSet(_fv(t))


def all_atoms(t: Term) -> AtomSet:
    """Every atom occurring in ``t``, bound or free, binders included."""
    out: set[Atom] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        tp = type(node)
        if tp is Var:
            out.add(node.atom)
        elif tp is Abs:
            out.add(node.binder)
            stack.append(node.body)
        elif tp is App:
            stack.append(node.fun)
            stack.append(node.arg)
        elif tp is ESub:
            out.add(node.binder)
            stack.append(node.body)
            stack.append(node.arg)
        else:
            raise TypeError(f"not a term: {node!r}")
    return AtomSet(out)


def free_in(a: Atom, t: Term) -> bool:
    """Whether ``a`` is free in ``t``: ``a in fv_nom(t)`` without building
    the set.  Stops at the first free occurrence and never descends under
    a binder named ``a``."""
    stack = [t]
    while stack:
        node = stack.pop()
        tp = type(node)
        if tp is Var:
            if node.atom is a:
                return True
        elif tp is App:
            stack.append(node.fun)
            stack.append(node.arg)
        elif tp is Abs:
            if node.binder is not a:
                stack.append(node.body)
        elif tp is ESub:
            stack.append(node.arg)  # the argument sits outside the binder
            if node.binder is not a:
                stack.append(node.body)
        else:
            raise TypeError(f"not a term: {node!r}")
    return False


def vswap(x: Atom, y: Atom, z: Atom) -> Atom:
    """Exchange x and y: returns y if z is x, x if z is y, else z itself."""
    if z == x:
        return y
    if z == y:
        return x
    return z


def permute(pi: dict[Atom, Atom], t: Term) -> Term:
    """Apply the atom permutation ``pi`` (or its restriction to ``t``'s
    atoms) at every atom position of ``t``, binders included, in one pass.
    Atoms absent from ``pi`` are fixed; a subterm that does not change
    comes back as the same object."""
    if not pi:
        return t
    get = pi.get

    def go(t: Term) -> Term:
        tp = type(t)
        if tp is Var:
            a = get(t.atom, t.atom)
            return t if a is t.atom else Var(a)
        if tp is Abs:
            x, body = get(t.binder, t.binder), go(t.body)
            return t if x is t.binder and body is t.body else Abs(x, body)
        if tp is App:
            fun, arg = go(t.fun), go(t.arg)
            return t if fun is t.fun and arg is t.arg else App(fun, arg)
        if tp is ESub:
            body, x, arg = go(t.body), get(t.binder, t.binder), go(t.arg)
            if body is t.body and x is t.binder and arg is t.arg:
                return t
            return ESub(body, x, arg)
        raise TypeError(f"not a term: {t!r}")

    return go(t)


def swap(x: Atom, y: Atom, t: Term) -> Term:
    """Exchange x and y at every atom position of ``t``, binders included:
    ``permute`` by one transposition, so ``t`` itself when x is y."""
    if x is y:
        return t
    return permute({x: y, y: x}, t)


def render(t: Term) -> str:
    """Concrete syntax for ``t``.

    Single spaces between applicands, ``\\x. body`` for abstractions,
    ``[x := u] t`` for explicit substitutions; parentheses only where the
    grammar requires them (binder forms used as applicands, applications
    used as arguments).
    """
    return _render(t, 0)


# Context: 0 = unconstrained (bodies, bracket interiors, top level),
# 1 = function position of an application, 2 = argument position.
def _render(t: Term, ctx: int) -> str:
    match t:
        case Var(a):
            return str(a)
        case App(fun, arg):
            s = f"{_render(fun, 1)} {_render(arg, 2)}"
            return f"({s})" if ctx == 2 else s
        case Abs(x, body):
            s = f"\\{x}. {_render(body, 0)}"
            return f"({s})" if ctx >= 1 else s
        case ESub(body, x, arg):
            s = f"[{x} := {_render(arg, 0)}] {_render(body, 0)}"
            return f"({s})" if ctx >= 1 else s
    raise TypeError(f"not a term: {t!r}")
