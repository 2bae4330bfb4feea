"""Capture-avoiding substitution of a term for a free variable.

``msubst(t, u, x)`` replaces the free occurrences of ``x`` in ``t`` by
``u``, renaming every binder it crosses to a name that avoids the free
atoms of ``u``, the free atoms of the binder's own term, and ``x``:

    x            ->  u
    y            ->  y                                (x != y)
    t1 t2        ->  {x := u}t1  {x := u}t2
    \\x. t1       ->  \\x. t1
    \\y. t1       ->  \\z. {x := u}(swap y z t1)       (x != y, z fresh)
    [x := t2]t1  ->  [x := {x := u}t2] t1
    [y := t2]t1  ->  [z := {x := u}t2] {x := u}(swap y z t1)
                                                      (x != y, z fresh)

Fresh names come from :func:`nes.atoms.fresh` with the original binder as
the hint, so the result is a pure function of the inputs.  Only a hint free
in ``u`` or in an explicit substitution's argument is refused, and only
then is the avoid set built, as one atom mask.  The recursion terminates
because swapping preserves size, so every call strictly decreases it.

The equations are computed as written, but the swaps are not built: the
renamings on the way down are carried as one atom permutation, composed one
transposition per renamed binder and applied as atoms are read (a subterm
left alone under ``x``'s own binder is permuted once, in one pass).  A node
whose rebuilt children are the very objects it holds comes back itself.
"""

from __future__ import annotations

from .atoms import Atom, _atom, fresh
from .term import (
    _LEAVES, Abs, App, ESub, Term, Var, _abs, _app, _esub, _permute, _term,
)


def msubst(t: Term, u: Term, x: Atom) -> Term:
    _atom(x)
    # a constructor takes only terms as children, so only the roots are checked
    return _msubst(_term(t), _term(u), x, {}, {})


# _msubst(t, u, x, pi, inv) substitutes u for x in pi . t, where pi (with
# its inverse inv) is the composition of the binder renamings made above t
def _msubst(t: Term, u: Term, x: Atom,
            pi: dict[Atom, Atom], inv: dict[Atom, Atom]) -> Term:
    tp = type(t)
    if tp is Var:
        a = pi.get(t.atom, t.atom) if pi else t.atom
        # leaves are shared, so an unmoved atom's leaf is ``t`` itself
        return u if a is x else _LEAVES[a]
    if tp is App:
        fun = _msubst(t.fun, u, x, pi, inv)
        arg = _msubst(t.arg, u, x, pi, inv)
        return t if fun is t.fun and arg is t.arg else _app(fun, arg)
    b = t.binder
    y = pi.get(b, b) if pi else b  # the binder of pi . t
    # y is not free in pi . t, so unless it is x it is taken only if it is
    # free in u or, for an ESub, in pi . arg (that is, b free in arg)
    z = y
    if y is not x and (u._free & y._bit or tp is ESub and t.arg._free & b._bit):
        z = fresh(_image(t._free, pi) | u._free | x._bit, y)
    # the argument sits outside the binder, under the renamings above t
    arg = _msubst(t.arg, u, x, pi, inv) if tp is ESub else None
    if z is not y:
        # the body is swap y z (pi . body) = ((y z) . pi) . body
        iz = inv.get(z, z)
        pi, inv = {**pi, b: z, iz: y}, {**inv, z: b, y: iz}
    if y is x:
        # x is bound in the body, which is only permuted; pi's keys are
        # distinct atoms, so the sum of the moved ones' bits is their mask
        body = _permute(t.body, pi, sum(a._bit for a, c in pi.items() if a is not c))
    else:
        body = _msubst(t.body, u, x, pi, inv)
    if z is b and body is t.body and (tp is Abs or arg is t.arg):
        return t
    return _abs(z, body) if tp is Abs else _esub(body, z, arg)


def _image(mask: int, pi: dict[Atom, Atom]) -> int:
    """``pi``'s image of the atoms of ``mask``: the bits of the atoms it
    moves are cleared, then the bits of their images are set."""
    gone = come = 0
    for a, c in pi.items():
        if mask & a._bit:
            gone |= a._bit
            come |= c._bit
    return mask & ~gone | come
