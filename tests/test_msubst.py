import hashlib
import itertools

import pytest
from hypothesis import given

from nes import (
    Abs,
    App,
    Atom,
    ESub,
    Var,
    aeq,
    canonicalize,
    enumerate_terms,
    fresh,
    fv_nom,
    msubst,
    render,
    swap,
)
from nes.properties import DEFAULT_POOL, GenConfig, gen_term
from strategies import _free_by_scope_walk, atoms, terms

x, y, z, w = Atom("x"), Atom("y"), Atom("z"), Atom("w")
y0, y1 = Atom("y", 0), Atom("y", 1)


def test_var_cases():
    u = App(Var(y), Var(z))
    assert msubst(Var(x), u, x) == u
    assert msubst(Var(y), u, x) == Var(y)


def test_abs_same_binder_untouched():
    assert msubst(Abs(x, Var(x)), Var(y), x) == Abs(x, Var(x))
    assert msubst(Abs(x, App(Var(x), Var(y))), Var(z), x) == Abs(
        x, App(Var(x), Var(y))
    )


def test_abs_renames_with_deterministic_fresh_name():
    # avoid = {x, y}, so the binder y becomes y0
    got = msubst(Abs(y, Var(x)), Var(y), x)
    assert got == Abs(y0, Var(y))
    for other in (w, z, Atom("y", 7)):
        assert aeq(got, Abs(other, Var(y)))


def test_esub_same_binder_substitutes_argument_only():
    t1, t2, u = Var(x), App(Var(x), Var(y)), Var(z)
    assert msubst(ESub(t1, x, t2), u, x) == ESub(t1, x, msubst(t2, u, x))


def test_function_application_redex():
    # ((\x. \y. x y) y) steps to a term equivalent to \z. y z
    body = Abs(y, App(Var(x), Var(y)))
    got = msubst(body, Var(y), x)
    assert got == Abs(y0, App(Var(y), Var(y0)))
    assert aeq(got, Abs(z, App(Var(y), Var(z))))


def test_deterministic():
    t = ESub(Abs(y, App(Var(x), Var(y))), z, App(Var(x), Var(z)))
    u = App(Var(y), Var(z))
    assert msubst(t, u, x) == msubst(t, u, x)


def _msubst_direct(t, u, x):
    # The defining equations, written with the avoid set materialized up
    # front; the library version computes the same fresh names lazily.
    if isinstance(t, Var):
        return u if t.atom == x else t
    if isinstance(t, App):
        return App(_msubst_direct(t.fun, u, x), _msubst_direct(t.arg, u, x))
    avoid = _free_by_scope_walk(u) | _free_by_scope_walk(t) | {x}
    if isinstance(t, Abs):
        if t.binder == x:
            return t
        zz = fresh(avoid, t.binder)
        return Abs(zz, _msubst_direct(swap(t.binder, zz, t.body), u, x))
    if t.binder == x:
        return ESub(t.body, t.binder, _msubst_direct(t.arg, u, x))
    zz = fresh(avoid, t.binder)
    return ESub(
        _msubst_direct(swap(t.binder, zz, t.body), u, x),
        zz,
        _msubst_direct(t.arg, u, x),
    )


@given(terms, terms, atoms)
def test_matches_direct_definition(t, u, a):
    assert msubst(t, u, a) == _msubst_direct(t, u, a)


# y0 is the first fresh name for y, so nested renames can pick a name that
# an outer rename already moved.  With y1 in the pool too, a nested rename
# must skip a candidate that is the image of an outer rename; at size 4 it
# must also reuse a name an outer rename moved away, and read the inverse
# renaming to find what a fresh name stood for.
@pytest.mark.parametrize(
    "max_size, pool",
    [(4, (x, y)), (3, (x, y, y0)), (3, (x, y, y0, y1)), (4, (x, y, y0, y1))],
)
def test_matches_direct_definition_exhaustively(max_size, pool):
    # Structural equality: every renamed binder must get the same fresh name.
    replacements = enumerate_terms(2, pool)
    for t in enumerate_terms(max_size, pool):
        for u, a in itertools.product(replacements, pool):
            assert msubst(t, u, a) == _msubst_direct(t, u, a), (render(t), render(u), a)


def test_fresh_names_on_drawn_inputs_are_pinned():
    # The exhaustive rows stop at size 4; this pins the names msubst picks
    # on the size-20 terms the catalogue draws (2 963 forced renames), one
    # rendered result per line.
    cfg = GenConfig(seed=0)
    h = hashlib.sha256()
    for i in range(2000):
        t, u = gen_term(cfg, 2 * i), gen_term(cfg, 2 * i + 1)
        h.update(f"{render(msubst(t, u, DEFAULT_POOL[i % 5]))}\n".encode())
    assert h.hexdigest() == (
        "f52add435b973e50479daf9179d85b5581242eb9da2fb361bcbaed722b9adaf7"
    )


@pytest.mark.parametrize("junk", ["x", None, Var(x)])
def test_rejects_a_non_atom_variable(junk):
    with pytest.raises(TypeError, match="not an atom"):
        msubst(Abs(y, Var(y)), Var(y), junk)


def test_taken_esub_hint_is_not_walked_twice():
    # y is free in the argument, so the binder y is renamed to y0
    t = ESub(App(Var(x), Var(y)), y, Var(y))
    assert msubst(t, Var(z), x) == ESub(App(Var(z), Var(y0)), y0, Var(y))


def test_free_variable_soundness_brute_force():
    pool = (x, y)
    small = enumerate_terms(3, pool)
    replacements = [Var(y), App(Var(x), Var(y)), Abs(x, Var(z))]
    for t, u in itertools.product(small, replacements):
        result_fv = _free_by_scope_walk(msubst(t, u, x))
        t_fv = _free_by_scope_walk(t)
        u_fv = _free_by_scope_walk(u)
        bound = (t_fv - {x}) | u_fv
        assert result_fv <= bound, render(t)
        if x in t_fv:
            assert result_fv == bound, render(t)


@given(terms, terms, atoms)
def test_free_variable_soundness_random(t, u, a):
    result = set(fv_nom(msubst(t, u, a)))
    bound = (set(fv_nom(t)) - {a}) | set(fv_nom(u))
    assert result <= bound
    if a in fv_nom(t):
        assert result == bound


@given(terms, terms, atoms)
def test_not_free_means_alpha_invariant(t, u, a):
    if a not in fv_nom(t):
        assert aeq(msubst(t, u, a), t)


@given(terms, terms, atoms, atoms)
def test_substitution_composition_small(t1, t2, a, b):
    # composition law, cross-checked with the nameless oracle
    if a == b:
        return
    t3 = Var(b)  # a is trivially not free in Var(b) since a != b
    lhs = msubst(msubst(t1, t2, a), t3, b)
    rhs = msubst(msubst(t1, t3, b), msubst(t2, t3, b), a)
    assert aeq(lhs, rhs)
    assert canonicalize(lhs) == canonicalize(rhs)
