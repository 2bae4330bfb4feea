"""The term datatype and its structural operations."""

from __future__ import annotations

from typing import Union

from .atoms import Atom


class _Record:
    """The base of every record class in ``nes``: an immutable object whose
    fields are its ``__slots__`` named, in order, by ``__match_args__``.

    Those fields drive ``match`` patterns, a ``repr`` that names them
    (``Var(atom=Atom('x'))``), copying and pickling (``__reduce__`` calls
    the class again with them), and structural ``==`` and ``hash`` among
    records of one class.  ``==``, ``hash`` and ``repr`` walk an explicit
    stack through nested records, so they work at any depth.  A slot
    outside ``__match_args__``, such as a cache, takes no part in any of
    this.

    Assigning or deleting an attribute raises ``AttributeError``, so an
    ``__init__`` sets each field once: a class built by the thousand
    through its slot descriptors' setters (``Var.atom.__set__``), which
    cost less than a loop over the fields, and any other through this
    ``__init__``."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (type(self), tuple(getattr(self, f) for f in self.__match_args__))

    def __repr__(self) -> str:
        # entries are text (a str) or a value still to print (in a
        # one-element list), so no field value is ever taken for text
        parts: list[str] = []
        stack: list = [[self]]
        while stack:
            entry = stack.pop()
            if type(entry) is str:
                parts.append(entry)
                continue
            value = entry[0]
            if not isinstance(value, _Record):
                parts.append(repr(value))
                continue
            pieces: list = [f"{type(value).__qualname__}("]
            for i, f in enumerate(value.__match_args__):
                pieces += (f"{', ' if i else ''}{f}=", [getattr(value, f)])
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(parts)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return _equal(self, other)

    def __hash__(self) -> int:
        return _hash(self)


class Var(_Record):
    __slots__ = ("atom",)
    __match_args__ = ("atom",)
    atom: Atom

    def __init__(self, atom: Atom) -> None:
        _set_atom(self, atom)


class Abs(_Record):
    __slots__ = ("binder", "body", "_free", "_atoms")
    __match_args__ = ("binder", "body")
    binder: Atom
    body: "Term"

    def __init__(self, binder: Atom, body: "Term") -> None:
        _set_abs_binder(self, binder)
        _set_abs_body(self, body)


class App(_Record):
    __slots__ = ("fun", "arg", "_free", "_atoms")
    __match_args__ = ("fun", "arg")
    fun: "Term"
    arg: "Term"

    def __init__(self, fun: "Term", arg: "Term") -> None:
        _set_fun(self, fun)
        _set_app_arg(self, arg)


class ESub(_Record):
    """``[binder := arg] body``: an object-level substitution constructor.

    It carries no evaluation rules here; it only binds ``binder`` in
    ``body`` (the argument is outside the binder's scope).
    """

    __slots__ = ("body", "binder", "arg", "_free", "_atoms")
    __match_args__ = ("body", "binder", "arg")
    body: "Term"
    binder: Atom
    arg: "Term"

    def __init__(self, body: "Term", binder: Atom, arg: "Term") -> None:
        _set_esub_body(self, body)
        _set_esub_binder(self, binder)
        _set_esub_arg(self, arg)


_set_atom = Var.atom.__set__
_set_abs_binder, _set_abs_body = Abs.binder.__set__, Abs.body.__set__
_set_fun, _set_app_arg = App.fun.__set__, App.arg.__set__
_set_esub_body, _set_esub_binder, _set_esub_arg = (
    ESub.body.__set__, ESub.binder.__set__, ESub.arg.__set__
)

Term = Union[Var, Abs, App, ESub]


def _equal(s: _Record, t: _Record) -> bool:
    # record pairs still to compare field by field: shared values are equal
    # at once, record pairs are pushed, and other values compare by ``!=``
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        for f in a.__match_args__:
            u, v = getattr(a, f), getattr(b, f)
            if u is v:
                continue
            if isinstance(u, _Record):
                stack.append((u, v))
            elif u != v:
                return False
    return True


def _hash(t: _Record) -> int:
    # The preorder of record classes and the other values in their fields
    # (atoms, for a term): each class fixes how many fields follow it, so
    # equal records, and only they, give equal tokens.
    tokens: list = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, _Record):
            tokens.append(type(node))
            stack.extend([getattr(node, f) for f in reversed(node.__match_args__)])
        else:
            tokens.append(node)
    return hash(tuple(tokens))


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


def _fv(t: Term) -> tuple[set[Atom], dict[Atom, int]]:
    # One pass with shadow counts per atom: entries on the stack are either
    # a term to visit or (atom,) marking the end of that binder's scope.
    # Returns the free atoms and the binders (the shadow map's keys).
    free: set[Atom] = set()
    shadow: dict[Atom, int] = {}
    stack: list = [t]
    while stack:
        node = stack.pop()
        tp = type(node)
        if tp is Var:
            a = node.atom
            if not shadow.get(a):
                free.add(a)
        elif tp is App:
            stack.append(node.fun)
            stack.append(node.arg)
        elif tp is Abs or tp is ESub:
            x = node.binder
            if tp is ESub:
                stack.append(node.arg)  # the argument sits outside the binder
            shadow[x] = shadow.get(x, 0) + 1
            stack.append((x,))
            stack.append(node.body)
        elif tp is tuple:
            shadow[node[0]] -= 1
        else:
            raise TypeError(f"not a term: {node!r}")
    return free, shadow


def _free_and_occurring(t: Term) -> tuple[frozenset[Atom], frozenset[Atom]]:
    """``t``'s free and occurring atoms, kept on a compound node.

    ``Abs``, ``App`` and ``ESub`` keep them as frozensets in ``_free``/
    ``_atoms`` slots that start empty and are filled together, by one walk
    (so a node keeps both sets or neither), only at a node asked directly
    (``fv_nom``, ``all_atoms``, ``msubst``'s ``fv(u)``), never at the
    subterms a traversal passes through: a forced rename in ``msubst``
    asks ``free_in`` of the binder's own term and keeps nothing.  A ``Var``
    keeps nothing either; only this module reads or fills the slots."""
    if type(t) is Var:
        atoms = frozenset((t.atom,))
        return atoms, atoms
    atoms = getattr(t, "_atoms", None)
    if atoms is None:
        free, binders = _fv(t)
        # an atom of a Var that is not free is bound, so the free atoms and
        # the binders cover every occurring atom
        atoms = frozenset(free.union(binders))
        object.__setattr__(t, "_free", frozenset(free))
        object.__setattr__(t, "_atoms", atoms)
    return t._free, atoms


def fv_nom(t: Term) -> frozenset[Atom]:
    """Free atoms of ``t``.  Both binder forms remove their bound name from
    the body's contribution; an explicit substitution's argument is free.
    The set is kept on ``t``'s node, so asking again costs no walk."""
    return _free_and_occurring(t)[0]


def all_atoms(t: Term) -> frozenset[Atom]:
    """Every atom occurring in ``t``, bound or free, binders included; kept
    on ``t``'s node like ``fv_nom``."""
    return _free_and_occurring(t)[1]


def free_in(a: Atom, t: Term) -> bool:
    """Whether ``a`` is free in ``t``: ``a in fv_nom(t)``, read from ``t``'s
    node when its free atoms are kept there, and otherwise without building
    the set.  The walk stops at the first free occurrence and never
    descends under a binder named ``a``."""
    known = getattr(t, "_free", None)
    if known is not None:
        return a in known
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
    if z is x:
        return y
    if z is y:
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
