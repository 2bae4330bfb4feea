"""The term datatype and its structural operations."""

from __future__ import annotations

from typing import Any, Callable, Union

from .atoms import Atom, _atom, _typed, atoms_of


class _Record:
    """The base of every record class in ``nes``: an immutable object whose
    fields are its ``__slots__`` named, in order, by ``__match_args__``.

    Those fields drive ``match`` patterns, a ``repr`` that names them
    (``Var(atom=Atom('x'))``), copying and pickling (``__reduce__`` calls
    the class again with them), and structural ``==`` and ``hash`` among
    records of one class.  ``==``, ``hash`` and ``repr`` (through
    ``_layout``) walk an explicit stack through nested records, so they
    work at any depth.  A slot outside ``__match_args__``, such as a
    cache, takes no part in any of this.

    Assigning or deleting an attribute raises ``AttributeError``, so each
    field is set once, when the record is made.  Only the four term
    classes keep their fields in the slots of a private field class, which
    takes plain slot stores: a term builder (see ``_abs``) fills an object
    of that class and then seals it by giving it the term's class.  A
    nameless class (``nes.alpha``) checks its fields in its ``__new__`` and
    stores them on ``_new(cls)`` through ``object.__setattr__``; any other
    class fills its fields in its ``__init__``, through ``_fill``.  A class
    that makes its records in ``__new__`` defines no ``__init__``, so the
    inherited ``object.__init__`` ignores the arguments."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (type(self), tuple(getattr(self, f) for f in self.__match_args__))

    def __repr__(self) -> str:
        return _layout(self, _fields)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return _equal(self, other)

    def __hash__(self) -> int:
        return _hash(self)


# A term class adds no slot of its own: its fields are the slots of a
# private field class, whose objects take plain stores (see the builders).
class _VarFields:
    __slots__ = ("atom", "_free", "_atoms")


class _AbsFields:
    __slots__ = ("binder", "body", "_free", "_atoms")


class _AppFields:
    __slots__ = ("fun", "arg", "_free", "_atoms")


class _ESubFields:
    __slots__ = ("body", "binder", "arg", "_free", "_atoms")


class Var(_VarFields, _Record):
    """A variable occurrence.  There is one leaf per atom: ``Var(a)``
    returns ``a``'s leaf, built the first time it is asked for, so
    ``Var(a) is Var(a)``, as ``Atom(...)`` returns the one atom."""

    __slots__ = ()
    __match_args__ = ("atom",)
    atom: Atom

    def __new__(cls, atom: Atom) -> Var:
        return _LEAVES[_atom(atom)]


class Abs(_AbsFields, _Record):
    __slots__ = ()
    __match_args__ = ("binder", "body")
    binder: Atom
    body: "Term"

    def __new__(cls, binder: Atom, body: "Term") -> Abs:
        return _abs(_atom(binder), _term(body))


class App(_AppFields, _Record):
    __slots__ = ()
    __match_args__ = ("fun", "arg")
    fun: "Term"
    arg: "Term"

    def __new__(cls, fun: "Term", arg: "Term") -> App:
        return _app(_term(fun), _term(arg))


class ESub(_ESubFields, _Record):
    """``[binder := arg] body``: an object-level substitution constructor.

    It carries no evaluation rules here; it only binds ``binder`` in
    ``body`` (the argument is outside the binder's scope).
    """

    __slots__ = ()
    __match_args__ = ("body", "binder", "arg")
    body: "Term"
    binder: Atom
    arg: "Term"

    def __new__(cls, body: "Term", binder: Atom, arg: "Term") -> ESub:
        return _esub(_term(body), _atom(binder), _term(arg))


# Every node keeps two atom masks (see ``nes.atoms``) in its slots, filled
# by its builder from its children's: ``_free``, its free atoms, and
# ``_atoms``, every atom occurring in it, binders included.
_TERMS = frozenset((Var, Abs, App, ESub))
_new = object.__new__

Term = Union[Var, Abs, App, ESub]


_term = _typed(_TERMS, "a term")
_dict = _typed((dict,), "a dict")


# The builders store a node whose children are known to be an atom and
# terms: the public constructors call them once their checks pass, and the
# walks that recombine parts of terms they already hold call them directly.
# ``_Record.__setattr__`` refuses every store, and a store through a slot
# descriptor's setter (``Abs.body.__set__``) is a call, so a builder makes
# an object of the node's field class, fills it with plain slot stores,
# and seals it by giving it the node's class, which has the same layout.
# No node leaves a builder unsealed.

def _abs(binder: Atom, body: Term) -> Abs:
    bit = binder._bit
    node = _new(_AbsFields)
    node.binder = binder
    node.body = body
    node._free = (body._free | bit) ^ bit
    node._atoms = body._atoms | bit
    node.__class__ = Abs
    return node


def _app(fun: Term, arg: Term) -> App:
    node = _new(_AppFields)
    node.fun = fun
    node.arg = arg
    node._free = fun._free | arg._free
    node._atoms = fun._atoms | arg._atoms
    node.__class__ = App
    return node


def _esub(body: Term, binder: Atom, arg: Term) -> ESub:
    bit = binder._bit
    node = _new(_ESubFields)
    node.body = body
    node.binder = binder
    node.arg = arg
    node._free = (body._free | bit) ^ bit | arg._free
    node._atoms = body._atoms | bit | arg._atoms
    node.__class__ = ESub
    return node


class _Leaves(dict):
    """Each atom's one leaf, by atom: ``_LEAVES[a]`` is ``Var(a)`` for an
    atom ``a``, built on the first lookup."""

    __slots__ = ()

    def __missing__(self, atom: Atom) -> Var:
        leaf = _new(_VarFields)
        leaf.atom = atom
        leaf._free = leaf._atoms = atom._bit
        leaf.__class__ = Var
        # a leaf that loses a race for its atom here is dropped
        return self.setdefault(atom, leaf)


_LEAVES = _Leaves()


def _fill(record: _Record, *values: object) -> None:
    """Set ``record``'s fields, in ``__match_args__`` order, to ``values``."""
    for name, value in zip(record.__match_args__, values):
        object.__setattr__(record, name, value)


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
    stack = [_term(t)]
    while stack:
        node = stack.pop()
        n += 1
        tp = type(node)
        if tp is Abs:
            stack.append(node.body)
        elif tp is App:
            stack += node.fun, node.arg
        elif tp is ESub:
            stack += node.body, node.arg
    return n


def fv_nom(t: Term) -> frozenset[Atom]:
    """Free atoms of ``t``.  Both binder forms remove their bound name from
    the body's contribution; an explicit substitution's argument is free.
    Decoded from the mask ``t``'s node keeps, so it walks nothing."""
    return atoms_of(_term(t)._free)


def all_atoms(t: Term) -> frozenset[Atom]:
    """Every atom occurring in ``t``, bound or free, binders included;
    decoded from ``t``'s node like ``fv_nom``."""
    return atoms_of(_term(t)._atoms)


def free_in(a: Atom, t: Term) -> bool:
    """Whether ``a`` is free in ``t``: ``a in fv_nom(t)``, read as one bit
    of the free-atom mask ``t``'s node keeps."""
    return _term(t)._free & _atom(a)._bit != 0


def vswap(x: Atom, y: Atom, z: Atom) -> Atom:
    """Exchange x and y: returns y if z is x, x if z is y, else z itself."""
    for a in (x, y, z):
        _atom(a)
    if z is x:
        return y
    if z is y:
        return x
    return z


def permute(pi: dict[Atom, Atom], t: Term) -> Term:
    """Apply the atom permutation ``pi``, a dict whose moved atoms are its
    images, at every atom position of ``t``, binders included, in one pass.
    Atoms absent from ``pi`` are fixed.  A subterm whose atom mask holds
    none of the atoms ``pi`` moves does not change, and comes back as the
    same object without being entered; every other subterm changes."""
    moved = images = 0
    for a, b in _dict(pi).items():
        if _atom(a) is not _atom(b):
            moved, images = moved | a._bit, images | b._bit
    if moved != images:
        raise ValueError(f"not a permutation: {pi!r}")
    return _permute(_term(t), pi, moved)


# ``moved`` is the mask of the atoms ``pi`` moves
def _permute(t: Term, pi: dict[Atom, Atom], moved: int) -> Term:
    if not t._atoms & moved:
        return t
    tp = type(t)
    if tp is Var:
        return _LEAVES[pi.get(t.atom)]
    if tp is Abs:
        return _abs(pi.get(t.binder, t.binder), _permute(t.body, pi, moved))
    if tp is App:
        return _app(_permute(t.fun, pi, moved), _permute(t.arg, pi, moved))
    return _esub(_permute(t.body, pi, moved), pi.get(t.binder, t.binder),
                 _permute(t.arg, pi, moved))


def swap(x: Atom, y: Atom, t: Term) -> Term:
    """Exchange x and y at every atom position of ``t``, binders included:
    ``permute`` by one transposition, so ``t`` itself when x is y."""
    moved = _atom(x)._bit ^ _atom(y)._bit
    return _permute(_term(t), {x: y, y: x}, moved)


def render(t: Term) -> str:
    """Concrete syntax for ``t``.

    Single spaces between applicands, ``\\x. body`` for abstractions,
    ``[x := u] t`` for explicit substitutions; parentheses only where the
    grammar requires them (binder forms used as applicands, applications
    used as arguments).
    """
    return _layout(_term(t), _pieces)


# Context: 0 = unconstrained (bodies, bracket interiors, top level),
# 1 = function position of an application, 2 = argument position.
def _pieces(t: Term, ctx: int) -> str | list:
    tp = type(t)
    if tp is Var:
        return str(t.atom)
    if tp is App:
        s = [(t.fun, 1), " ", (t.arg, 2)]
        return ["(", *s, ")"] if ctx == 2 else s
    if tp is Abs:
        s = [f"\\{t.binder}. ", (t.body, 0)]
    else:
        s = [f"[{t.binder} := ", (t.arg, 0), "] ", (t.body, 0)]
    return ["(", *s, ")"] if ctx >= 1 else s


# The text of ``value``, from one explicit stack of entries: text, or a
# ``(value, context)`` pair that ``pieces`` turns into its text or into the
# entries it is made of, in order.  So no value is ever taken for text.
def _layout(value: object, pieces: Callable[[Any, Any], str | list]) -> str:
    out: list[str] = []
    stack: list = [(value, 0)]
    while stack:
        entry = stack.pop()
        if type(entry) is not str:
            entry = pieces(*entry)
            if type(entry) is not str:
                stack.extend(reversed(entry))
                continue
        out.append(entry)
    return "".join(out)


def _fields(value: object, ctx: int) -> str | list:
    # a record's class name and its fields by name (see ``_Record``)
    if not isinstance(value, _Record):
        return repr(value)
    entries: list = [f"{type(value).__qualname__}("]
    for i, f in enumerate(value.__match_args__):
        entries += (f"{', ' if i else ''}{f}=", (getattr(value, f), 0))
    return entries + [")"]
