"""Variable names ("atoms") and deterministic fresh-name generation.

A finite set of atoms is a plain ``frozenset``: it has no order, and
``sorted(atoms, key=Atom.sort_key)`` gives the display order.  Inside the
library a set of atoms is also a bit mask: each atom owns the bit
``1 << k`` of its interning number ``k``, so a union is ``|`` and a
membership test is ``&``; ``atoms_of`` decodes a mask, and ``fresh``
takes one as its avoid set.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable

# Every atom ever built, keyed by (base, index).  Only valid atoms enter.
_INTERNED: dict[tuple[str, int | None], Atom] = {}
# The same atoms by interning number: the atom of bit ``1 << k`` is
# ``_BY_NUMBER[k]``.  Numbers come from one counter, whose ``next`` no
# other thread can interleave, so no two atoms share a bit.
_NUMBERS = count()
_BY_NUMBER: dict[int, Atom] = {}


class Atom:
    """A variable name: a base identifier plus an optional numeric index.

    ``Atom("x")`` and ``Atom("x", 0)`` are distinct atoms; the latter
    displays as ``x0``.  Atoms are interned: there is exactly one object
    per (base, index), so ``Atom("x") is Atom("x")`` and equality and
    hashing are object identity.  Immutable; copying or unpickling an
    atom returns that same object.  ``_bit`` is ``1 << k`` for the atom's
    interning number ``k``: its place in every atom mask.
    """

    __slots__ = ("base", "index", "_bit")

    base: str
    index: int | None

    def __new__(cls, base: str, index: int | None = None) -> "Atom":
        # Checked before the lookup: 1.0 and True are equal to 1 as keys.
        if index is not None and (type(index) is not int or index < 0):
            raise ValueError(f"bad atom index: {index!r}")
        atom = _INTERNED.get((base, index))
        if atom is None:
            if not _is_base(base):
                raise ValueError(f"bad atom base: {base!r}")
            atom = object.__new__(cls)
            object.__setattr__(atom, "base", base)
            object.__setattr__(atom, "index", index)
            k = next(_NUMBERS)
            object.__setattr__(atom, "_bit", 1 << k)
            _BY_NUMBER[k] = atom
            # an atom that loses a race for its name here is dropped, and
            # its number is never used
            atom = _INTERNED.setdefault((base, index), atom)
        return atom

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("atoms are immutable")

    def __reduce__(self) -> tuple:
        return (Atom, (self.base, self.index))

    def sort_key(self) -> tuple[str, int]:
        # Total order: lexicographic on base, then index with "absent" first.
        return (self.base, -1 if self.index is None else self.index)

    def __str__(self) -> str:
        return self.base if self.index is None else f"{self.base}{self.index}"

    def __repr__(self) -> str:
        return f"Atom({str(self)!r})"


def _atom(a: object) -> Atom:
    # ``a`` itself, once it is known to be an atom
    if type(a) is not Atom:
        raise TypeError(f"not an atom: {a!r}")
    return a


def _is_base(text: str) -> bool:
    """Whether ``text`` is an ASCII identifier that does not end in a digit,
    so that the display form "base + decimal index" decodes one way.
    ``str.isascii`` is called unbound so that a non-``str`` raises
    ``TypeError``."""
    return (str.isascii(text) and text.isalnum()
            and text[0].isalpha() and text[-1].isalpha())


def atoms_of(mask: int) -> frozenset[Atom]:
    """The atoms whose bits are set in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(_BY_NUMBER[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def parse_atom(text: str) -> Atom:
    """Decode the display form of an atom: trailing digits are the index.
    An index of two or more digits may not start with ``0`` (``x01`` is no
    atom's display form), so distinct names never alias one atom."""
    base = str.rstrip(text, "0123456789")  # unbound: a non-str raises TypeError
    index = text[len(base):]
    if not _is_base(base) or index[:1] == "0" and len(index) > 1:
        raise ValueError(f"not a variable name: {text!r}")
    return Atom(base, int(index) if index else None)


def fresh(avoid: int | Iterable[Atom], hint: Atom) -> Atom:
    """The first atom not in ``avoid``, an atom mask (a nonnegative int)
    or an iterable of atoms: the hint itself, then the hint's base with
    indices 0, 1, 2, ... in order, which are unbounded, so some candidate
    is always free.  A candidate never interned is in no mask and ends the
    search; only the returned atom is built.  Total and deterministic.
    """
    if type(avoid) is not int:
        mask = 0
        for a in avoid:
            mask |= _atom(a)._bit
        avoid = mask
    elif avoid < 0:  # every atom's bit is set in a negative int
        raise ValueError(f"negative atom mask: {avoid!r}")
    if not avoid & _atom(hint)._bit:
        return hint
    for i in count():
        candidate = _INTERNED.get((hint.base, i))
        if candidate is None:
            return Atom(hint.base, i)
        if not avoid & candidate._bit:
            return candidate
