import copy
import itertools
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from nes import (
    Abs,
    App,
    Atom,
    BVar,
    CApp,
    CLam,
    CSub,
    ESub,
    Var,
    aeq,
    canonicalize,
    enumerate_terms,
    fv_nom,
    render_canonical,
    size,
    swap,
)
from strategies import _free_by_scope_walk, atoms, terms

x, y, z = Atom("x"), Atom("y"), Atom("z")


def test_aeq_identity_functions():
    assert aeq(Abs(x, Var(x)), Abs(y, Var(y)))


def test_aeq_free_variable_mismatch():
    assert not aeq(Abs(x, Var(y)), Abs(y, Var(y)))


def test_aeq_esub_binders():
    t1 = ESub(Var(x), x, Var(z))
    t2 = ESub(Var(y), y, Var(z))
    assert aeq(t1, t2)
    assert canonicalize(t1) == canonicalize(t2)


def test_aeq_different_shapes():
    assert not aeq(Var(x), Abs(x, Var(x)))
    assert not aeq(App(Var(x), Var(x)), ESub(Var(x), x, Var(x)))


def test_canonicalize():
    assert canonicalize(Abs(x, Var(x))) == CLam(BVar(0))
    assert canonicalize(Abs(x, Var(y))) == CLam(y)
    assert canonicalize(ESub(Var(x), x, Var(x))) == CSub(BVar(0), x)


def test_a_canonical_free_variable_is_its_atom():
    # the interned atom itself, through canonicalize, copies and rendering
    assert canonicalize(Var(x)) is x
    c = canonicalize(ESub(App(Var(x), Var(y)), x, Var(z)))
    assert c == CSub(CApp(BVar(0), y), z)
    assert c.body.arg is y and c.arg is z
    copied = pickle.loads(pickle.dumps(c))
    assert copied == c and copied.body.arg is y and copied.arg is z
    assert copy.deepcopy(c).arg is z
    assert render_canonical(x) == "x" and render_canonical(c) == "[:= z] #0 y"


def test_canonicalize_nested_binders():
    t = Abs(x, Abs(y, App(Var(x), Var(y))))
    assert canonicalize(t) == CLam(CLam(CApp(BVar(1), BVar(0))))
    shadow = Abs(x, Abs(x, Var(x)))
    assert canonicalize(shadow) == CLam(CLam(BVar(0)))


def test_render_canonical():
    assert render_canonical(canonicalize(Abs(x, Var(x)))) == "\\. #0"
    assert render_canonical(canonicalize(ESub(Var(x), x, Var(x)))) == "[:= x] #0"
    t = App(Abs(x, Var(x)), Var(y))
    assert render_canonical(canonicalize(t)) == "(\\. #0) y"


def test_render_canonical_at_any_depth():
    # built by hand, since canonicalize recurses; repr of such chains is
    # checked in test_records.py
    n, c = 10**5, BVar(0)
    for _ in range(n):
        c = CLam(CApp(c, x))
    assert render_canonical(c) == "\\. " + "(\\. " * (n - 1) + "#0 x" + ") x" * (n - 1)


def test_oracle_agreement_exhaustive_small():
    pool = (x, y)
    universe = enumerate_terms(3, pool)
    for t1, t2 in itertools.product(universe, repeat=2):
        assert aeq(t1, t2) == (canonicalize(t1) == canonicalize(t2))


def _aeq_swap_rule(t1, t2):
    # The slow reference: the swap rule with every swap built as a new term
    # and every premise asked of a free-variable set.
    tp = type(t1)
    if tp is not type(t2):
        return False
    if tp is Var:
        return t1.atom == t2.atom
    if tp is App:
        return _aeq_swap_rule(t1.fun, t2.fun) and _aeq_swap_rule(t1.arg, t2.arg)
    x, y = t1.binder, t2.binder
    if tp is Abs:
        if x == y:
            return _aeq_swap_rule(t1.body, t2.body)
        return x not in _free_by_scope_walk(t2.body) and _aeq_swap_rule(
            t1.body, swap(y, x, t2.body)
        )
    if x == y:
        return _aeq_swap_rule(t1.body, t2.body) and _aeq_swap_rule(t1.arg, t2.arg)
    return (
        _aeq_swap_rule(t1.arg, t2.arg)
        and x not in _free_by_scope_walk(t2.body)
        and _aeq_swap_rule(t1.body, swap(y, x, t2.body))
    )


@pytest.mark.parametrize("max_size, pool", [(4, (x, y)), (3, (x, y, z))])
def test_aeq_agrees_with_the_swap_rule_exhaustively(max_size, pool):
    universe = enumerate_terms(max_size, pool)
    for t1, t2 in itertools.product(universe, repeat=2):
        assert aeq(t1, t2) == _aeq_swap_rule(t1, t2)


# A term and a chain of swaps of it: the renamed-binder pairs the rule's
# permutation has to track across several binders.
swap_chains = st.tuples(terms, st.lists(st.tuples(atoms, atoms), min_size=1, max_size=4))


@given(swap_chains, terms)
def test_aeq_agrees_with_the_swap_rule_on_swap_variants(chain, other):
    t, pairs = chain
    free = fv_nom(t)
    moved = variant = t
    for a, b in pairs:
        moved = swap(a, b, moved)
        if a not in free and b not in free:
            variant = swap(a, b, variant)
    assert aeq(t, variant)
    for t1, t2 in ((t, variant), (variant, t), (t, moved), (moved, t), (moved, other)):
        assert aeq(t1, t2) == _aeq_swap_rule(t1, t2)


def test_exhaustive_oracle_script(child_env):
    root = Path(__file__).resolve().parents[1]
    script = root / "scripts" / "exhaustive_oracle.py"
    # two atoms up to size 5, and three atoms up to size 4
    for args in (["--max-size", "5"], ["--max-size", "4", "--atoms", "3"]):
        result = subprocess.run(
            [sys.executable, str(script), *args],
            env=child_env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "disagreements: 0" in result.stdout


@pytest.mark.parametrize(
    "args", [["--atoms", "0"], ["--atoms", "6"], ["--atoms", "7"], ["--max-size", "0"]]
)
def test_exhaustive_oracle_script_rejects_empty_runs(args, child_env):
    root = Path(__file__).resolve().parents[1]
    script = root / "scripts" / "exhaustive_oracle.py"
    result = subprocess.run(
        [sys.executable, str(script), *args],
        env=child_env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "disagreements" not in result.stdout
    assert args[0] in result.stderr


@given(terms, terms)
def test_oracle_agreement_random_pairs(t1, t2):
    assert aeq(t1, t2) == (canonicalize(t1) == canonicalize(t2))


@given(terms, atoms, atoms)
def test_oracle_agreement_on_swapped_variants(t, a, b):
    if a not in fv_nom(t) and b not in fv_nom(t):
        variant = swap(a, b, t)
        assert aeq(t, variant)
        assert canonicalize(t) == canonicalize(variant)


@given(terms)
def test_aeq_reflexive(t):
    assert aeq(t, t)


@given(terms, terms)
def test_aeq_symmetric(t1, t2):
    assert aeq(t1, t2) == aeq(t2, t1)


@given(terms, terms)
def test_aeq_size_and_fv(t1, t2):
    if aeq(t1, t2):
        assert size(t1) == size(t2)
        assert fv_nom(t1) == fv_nom(t2)


@given(terms, terms, atoms, atoms)
def test_aeq_swap_stability(t1, t2, a, b):
    assert aeq(t1, t2) == aeq(swap(a, b, t1), swap(a, b, t2))
