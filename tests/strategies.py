"""Shared hypothesis strategies: small atom pools keep binder collisions
frequent, which is where the binder-renaming cases live."""

import hypothesis.strategies as st

from nes import Abs, App, Atom, ESub, Var

POOL = (Atom("x"), Atom("y"), Atom("z"), Atom("x", 0))

atoms = st.sampled_from(POOL)

terms = st.recursive(
    st.builds(Var, atoms),
    lambda sub: st.one_of(
        st.builds(Abs, atoms, sub),
        st.builds(App, sub, sub),
        st.builds(ESub, sub, atoms, sub),
    ),
    max_leaves=25,
)


def _free_by_scope_walk(t, bound=frozenset()):
    # Independent free-variable computation: carry the bound names down.
    if isinstance(t, Var):
        return set() if t.atom in bound else {t.atom}
    if isinstance(t, App):
        return _free_by_scope_walk(t.fun, bound) | _free_by_scope_walk(t.arg, bound)
    if isinstance(t, Abs):
        return _free_by_scope_walk(t.body, bound | {t.binder})
    return _free_by_scope_walk(t.body, bound | {t.binder}) | _free_by_scope_walk(
        t.arg, bound
    )
