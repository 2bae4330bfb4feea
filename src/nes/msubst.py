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
the hint, so the result is a pure function of the inputs.  The avoid set is
never built: ``fresh`` asks each candidate's membership of a predicate that
tests its bit in the free-atom mask of ``u``, compares it with ``x`` and
asks ``free_in`` of the binder's own term, a test of one bit of the mask
that term's node keeps, so each probe costs the same at any size.  The
recursion terminates because swapping preserves size, so every call
strictly decreases it.

The equations are computed as written, but the swaps are not built: the
renamings on the way down are carried as one atom permutation, composed one
transposition per renamed binder and applied as atoms are read (a subterm
left alone under ``x``'s own binder is permuted once, in one pass).  A node
whose rebuilt children are the very objects it holds comes back itself.
"""

from __future__ import annotations

from .atoms import Atom, fresh
from .term import (
    _LEAVES, Abs, App, ESub, Term, Var, _abs, _app, _esub, _term, free_in,
    permute,
)


class _Avoid:
    """The avoid set ``pi(fv(t)) | fv(u) | {x}`` of a forced rename, asked
    one candidate at a time: ``c = pi(a)`` exactly when ``a = inv(c)``, so
    ``c`` is in ``pi(fv(t))`` exactly when ``inv(c)`` is free in ``t``.
    ``fv(u)`` is ``u``'s free-atom mask, so every question is a few bit
    tests and a ``free_in``, itself one bit test.  The caller has found the
    hint taken, so asking it asks nothing more."""

    __slots__ = ("hint", "fv_u", "x", "t", "inv")

    def __init__(self, hint: Atom, fv_u: int, x: Atom, t: Term,
                 inv: dict[Atom, Atom]) -> None:
        self.hint, self.fv_u, self.x, self.t, self.inv = hint, fv_u, x, t, inv

    def __contains__(self, c: Atom) -> bool:
        return (c is self.hint or self.fv_u & c._bit != 0 or c is self.x
                or free_in(self.inv.get(c, c), self.t))


def msubst(t: Term, u: Term, x: Atom) -> Term:
    fv_u = _term(u)._free  # u's free atoms, as a mask
    # a constructor takes only terms as children, so only the root is checked
    return _msubst(_term(t), u, x, fv_u, {}, {})


# _msubst(t, u, x, fv_u, pi, inv) substitutes u for x in pi . t, where pi
# (with its inverse inv) is the composition of the binder renamings made
# above t and fv_u is u's free-atom mask
def _msubst(t: Term, u: Term, x: Atom, fv_u: int,
            pi: dict[Atom, Atom], inv: dict[Atom, Atom]) -> Term:
    tp = type(t)
    if tp is Var:
        a = pi.get(t.atom, t.atom) if pi else t.atom
        # leaves are shared, so an unmoved atom's leaf is ``t`` itself
        return u if a is x else _LEAVES[a]
    if tp is App:
        fun = _msubst(t.fun, u, x, fv_u, pi, inv)
        arg = _msubst(t.arg, u, x, fv_u, pi, inv)
        return t if fun is t.fun and arg is t.arg else _app(fun, arg)
    b = t.binder
    y = pi.get(b, b) if pi else b  # the binder of pi . t
    if y is x:
        if tp is Abs:
            return permute(pi, t)
        body, arg = permute(pi, t.body), _msubst(t.arg, u, x, fv_u, pi, inv)
        if body is t.body and y is b and arg is t.arg:
            return t
        return _esub(body, y, arg)
    # The avoid set is pi(fv(t)) | fv(u) | {x}.  y is not free in pi . t
    # and is not x, so the hint y is taken unless it is in fv(u) or, for
    # an ESub, free in pi . arg (that is, b free in arg).  Only a failed
    # hint asks fresh, which probes the set through _Avoid.
    z = y
    if fv_u & y._bit or tp is ESub and free_in(b, t.arg):
        z = fresh(_Avoid(y, fv_u, x, t, inv), y)
    # the argument sits outside the binder, under the renamings above t
    arg = _msubst(t.arg, u, x, fv_u, pi, inv) if tp is ESub else None
    if z is not y:
        # the body is swap y z (pi . body) = ((y z) . pi) . body
        iz = inv.get(z, z)
        pi, inv = {**pi, b: z, iz: y}, {**inv, z: b, y: iz}
    body = _msubst(t.body, u, x, fv_u, pi, inv)
    if z is b and body is t.body and (tp is Abs or arg is t.arg):
        return t
    return _abs(z, body) if tp is Abs else _esub(body, z, arg)
