"""The term walks leave nothing for the cyclic collector: everything they
allocate is freed by reference counting as soon as it is dropped.

Each check warms the operation once, collects, then runs it again with
the collector off and asserts that a collection finds no unreachable
object."""

import gc

import pytest

from nes import (
    Abs,
    App,
    Atom,
    ESub,
    GenConfig,
    Var,
    aeq,
    canonicalize,
    gen_term,
    msubst,
    parse,
    render,
    run_property,
    swap,
)
from nes.term import permute

x, y, z = Atom("x"), Atom("y"), Atom("z")
# a default drawn term of 18 nodes that binds x and y and has y free
TERM = gen_term(GenConfig(), 5)


def _garbage(call) -> int:
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "call",
    [
        lambda: Var(x),
        # a new config, so the term is drawn rather than read from a memo
        lambda: gen_term(GenConfig(), 5),
        lambda: swap(x, y, TERM),
        lambda: permute({x: y, y: z, z: x}, TERM),
        # renames binders: the bodies compare under a nonempty permutation
        lambda: aeq(Abs(x, App(Var(x), Abs(y, Var(y)))),
                    Abs(z, App(Var(z), Abs(x, Var(x))))),
        lambda: canonicalize(TERM),
        # y is free in the argument, so the binder y is renamed to y0
        lambda: msubst(ESub(App(Var(x), Var(y)), y, Var(y)), Var(z), x),
        lambda: render(parse(r"[y := \x. x y] (\y. y x) z")),
        lambda: run_property("m_subst_lemma", GenConfig(cases=20)),
        lambda: run_property("aeq_m_subst_eq", GenConfig(cases=20)),
    ],
    ids=["var", "gen_term", "swap", "permute", "aeq", "canonicalize", "msubst", "parse-render",
         "m_subst_lemma", "aeq_m_subst_eq"],
)
def test_walk_leaves_no_cyclic_garbage(call):
    assert _garbage(call) == 0
