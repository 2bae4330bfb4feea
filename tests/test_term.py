import copy
import pickle

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
    GenConfig,
    Var,
    all_atoms,
    canonicalize,
    enumerate_terms,
    fv_nom,
    gen_term,
    msubst,
    parse,
    render,
    size,
    swap,
    vswap,
)
from nes.atoms import atoms_of
from nes.term import _TERMS, free_in, permute
from strategies import POOL, _free_by_scope_walk, atoms, terms

x, y, z, w = Atom("x"), Atom("y"), Atom("z"), Atom("w")


def test_size():
    assert size(Var(x)) == 1
    assert size(Abs(x, Var(x))) == 2
    assert size(ESub(App(Var(x), Var(x)), x, Var(y))) == 5


def test_fv_nom():
    assert fv_nom(Var(x)) == frozenset([x])
    assert fv_nom(Abs(x, App(Var(x), Var(y)))) == frozenset([y])
    assert fv_nom(ESub(Var(x), x, Var(y))) == frozenset([y])


def test_fv_nom_esub_argument_is_outside_the_binder():
    # the binder scopes over the body only
    assert fv_nom(ESub(Var(x), x, Var(x))) == frozenset([x])
    assert fv_nom(ESub(App(Var(x), Var(z)), x, Var(y))) == frozenset([y, z])


def test_vswap():
    assert vswap(x, y, x) == y
    assert vswap(x, y, y) == x
    assert vswap(x, x, y) == y
    assert vswap(x, y, z) == z


def test_swap():
    assert swap(x, y, Abs(x, App(Var(x), Var(z)))) == Abs(y, App(Var(y), Var(z)))
    t = ESub(Var(x), x, Var(y))
    assert swap(x, y, swap(x, y, t)) == t
    assert swap(x, y, ESub(Var(y), z, Var(x))) == ESub(Var(x), z, Var(y))


def test_all_atoms_includes_binders():
    assert all_atoms(Abs(x, Var(y))) == frozenset([x, y])
    assert all_atoms(ESub(Var(z), x, Var(y))) == frozenset([x, y, z])


@pytest.mark.parametrize("junk", ["junk", None])
def test_all_atoms_rejects_non_terms(junk):
    with pytest.raises(TypeError, match="not a term"):
        all_atoms(junk)


@pytest.mark.parametrize(
    "build, args, message",
    [
        (App, (Var(x), "junk"), "not a term"),
        (App, (None, Var(x)), "not a term"),
        (Abs, (x, 3), "not a term"),
        (ESub, ("junk", x, Var(y)), "not a term"),
        (ESub, (Var(x), x, Abs), "not a term"),
        (Var, ("x",), "not an atom"),
        (Abs, (Var(x), Var(x)), "not an atom"),
        (ESub, (Var(x), None, Var(y)), "not an atom"),
    ],
    ids=["app-arg", "app-fun", "abs-body", "esub-body", "esub-arg",
         "var-atom", "abs-binder", "esub-binder"],
)
def test_constructors_reject_bad_input(build, args, message):
    with pytest.raises(TypeError, match=message):
        build(*args)


@pytest.mark.parametrize("junk", ["junk", Atom])
def test_free_in_rejects_bad_input(junk):
    with pytest.raises(TypeError, match="not a term"):
        free_in(x, junk)
    with pytest.raises(TypeError, match="not an atom"):
        free_in(junk, Var(x))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: swap(x, x, 5), "not a term: 5"),
        (lambda: swap(x, y, "junk"), "not a term: 'junk'"),
        (lambda: swap(5, y, Var(x)), "not an atom: 5"),
        (lambda: swap(x, None, Var(x)), "not an atom: None"),
        (lambda: swap(Var(x), Var(x), Var(x)), "not an atom: Var"),
        (lambda: permute({x: 5}, Var(x)), "not an atom: 5"),
        (lambda: permute({5: x}, Var(x)), "not an atom: 5"),
        (lambda: permute({z: "w"}, Var(x)), "not an atom: 'w'"),
        (lambda: permute({}, None), "not a term: None"),
    ],
    ids=["swap-same-atoms-int-term", "swap-str-term", "swap-int-atom",
         "swap-none-atom", "swap-var-atoms", "permute-int-image",
         "permute-int-key", "permute-unused-str-image", "permute-none-term"],
)
def test_swap_and_permute_reject_bad_input(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def _occurring_by_walk(t):
    # Independent occurring-atom computation: every atom position, binders
    # included.
    if isinstance(t, Var):
        return {t.atom}
    if isinstance(t, App):
        return _occurring_by_walk(t.fun) | _occurring_by_walk(t.arg)
    if isinstance(t, Abs):
        return {t.binder} | _occurring_by_walk(t.body)
    return {t.binder} | _occurring_by_walk(t.body) | _occurring_by_walk(t.arg)


def test_free_in_matches_fv_nom_exhaustively():
    for t in enumerate_terms(4, (x, y)):
        free, occurring = _free_by_scope_walk(t), _occurring_by_walk(t)
        assert fv_nom(t) == free and all_atoms(t) == occurring
        for a in (x, y, z):
            assert free_in(a, t) == (a in fv_nom(t))


def test_swap_returns_the_term_itself_when_nothing_moves():
    t = ESub(Abs(x, App(Var(x), Var(y))), y, Var(x))
    assert swap(x, x, t) is t
    assert swap(z, w, t) is t
    assert permute({}, t) is t
    moved = swap(y, z, t)
    assert moved.body.body.fun is t.body.body.fun  # the x leaf is shared


@given(st.lists(st.tuples(atoms, atoms), max_size=4), terms)
def test_permute_of_composed_swaps_is_the_sequential_swaps(pairs, t):
    pi = {a: a for a in POOL}
    expected = t
    for a, b in pairs:
        pi = {k: vswap(a, b, v) for k, v in pi.items()}
        expected = swap(a, b, expected)
    assert permute(pi, t) == expected


def test_render():
    assert render(Abs(x, Var(x))) == "\\x. x"
    assert render(ESub(Var(x), x, Var(y))) == "[x := y] x"
    assert render(App(App(Var(x), Var(y)), Var(z))) == "x y z"


def test_render_parenthesization():
    assert render(App(Var(x), App(Var(y), Var(z)))) == "x (y z)"
    assert render(App(Abs(x, Var(x)), Var(y))) == "(\\x. x) y"
    assert render(App(Var(x), Abs(y, Var(y)))) == "x (\\y. y)"
    assert render(Abs(x, App(Var(x), Var(y)))) == "\\x. x y"
    assert render(ESub(App(Var(x), Var(z)), x, Var(y))) == "[x := y] x z"
    assert render(App(ESub(Var(x), x, Var(y)), Var(z))) == "([x := y] x) z"
    assert render(ESub(Var(x), x, Abs(y, Var(y)))) == "[x := \\y. y] x"


@given(atoms, atoms, terms)
def test_swap_size_eq(a, b, t):
    assert size(swap(a, b, t)) == size(t)


@given(atoms, atoms, terms)
def test_swap_symmetric(a, b, t):
    assert swap(a, b, t) == swap(b, a, t)


@given(atoms, atoms, terms)
def test_swap_involutive(a, b, t):
    assert swap(a, b, swap(a, b, t)) == t


@given(atoms, terms)
def test_swap_identity(a, t):
    assert swap(a, a, t) == t


@given(atoms, atoms, atoms, atoms, terms)
def test_swap_equivariance(a, b, c, d, t):
    assert swap(a, b, swap(c, d, t)) == swap(
        vswap(a, b, c), vswap(a, b, d), swap(a, b, t)
    )


@given(atoms, atoms, terms)
def test_fv_nom_swap(a, b, t):
    if a not in fv_nom(t):
        assert b not in fv_nom(swap(b, a, t))


DEEP = 10**5


def _chain(n, leaf):
    t = leaf
    for _ in range(n):
        t = Abs(x, t)
    return t


def _spine(n, leaf):
    t = Var(x)
    for _ in range(n):
        t = App(t, Var(y))
    return App(t, leaf)


def _chain_text(n, leaf):
    return "Abs(binder=Atom('x'), body=" * n + repr(leaf) + ")" * n


def _spine_text(n, leaf):
    return (
        "App(fun=" * (n + 1) + "Var(atom=Atom('x'))"
        + ", arg=Var(atom=Atom('y')))" * n + f", arg={leaf!r})"
    )


@pytest.mark.parametrize("build", [_chain, _spine])
def test_equality_and_hash_are_stack_safe(build):
    text = {_chain: _chain_text, _spine: _spine_text}[build]
    s, t, other = build(DEEP, Var(z)), build(DEEP, Var(z)), build(DEEP, Var(w))
    assert s is not t
    assert s == t and not (s != t)
    assert s != other and not (s == other)
    assert hash(s) == hash(t)
    assert repr(s) == text(DEEP, Var(z))
    assert repr(other) == text(DEEP, Var(w))


def test_equality_is_structural_and_equal_terms_hash_equal():
    ts = enumerate_terms(4, (x, y))
    twins = [copy.deepcopy(t) for t in ts]  # equal terms built separately
    for s, text in zip(ts, map(render, ts)):
        for t in twins:
            assert (s == t) is (text == render(t)) is not (s != t)
            if s == t:
                assert hash(s) == hash(t)
    assert len(set(map(hash, ts))) == len(ts)  # and distinct ones do not collide
    assert Var(x) != Abs(x, Var(x)) and Var(x) != "x"


def _subterms(t):
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(getattr(node, f) for f in ("body", "fun", "arg") if hasattr(node, f))


def _assert_masks_match_the_walks(t):
    for node in _subterms(t):
        assert atoms_of(node._free) == _free_by_scope_walk(node), node
        assert atoms_of(node._atoms) == _occurring_by_walk(node), node


def test_every_node_keeps_masks_that_match_the_walks():
    u = App(Var(z), Abs(x, Var(y)))
    for t in enumerate_terms(5, (x, y)):
        for s in (
            t, swap(x, y, t), swap(y, z, t), permute({x: z, z: y, y: x}, t),
            msubst(t, u, x), msubst(t, Var(x), y),
            parse(render(t)).term,
            copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t)),
        ):
            _assert_masks_match_the_walks(s)
            assert [free_in(a, s) for a in (x, y, z)] == [
                a in _free_by_scope_walk(s) for a in (x, y, z)
            ]


def _masks(t):
    return [(node._free, node._atoms) for node in _subterms(t)]


def test_kept_atom_sets_match_the_walks_cold_and_warm():
    for t in enumerate_terms(5, (x, y)):
        t = copy.deepcopy(t)  # built afresh, never asked before
        free, occurring = _free_by_scope_walk(t), _occurring_by_walk(t)
        cold = _masks(t)  # filled by the constructors, before any ask
        for _ in range(2):  # asking keeps and changes nothing
            assert [free_in(a, t) for a in (x, y, z)] == [a in free for a in (x, y, z)]
            assert all_atoms(t) == occurring
            assert fv_nom(t) == free
            assert _masks(t) == cold


def test_msubst_keeps_no_atom_set_below_the_asked_node():
    # every binder b_i is free in u, so each one is renamed on the way down;
    # msubst reads the inputs' masks and writes none of them
    binders = [Atom("b", i) for i in range(200)]
    body = Var(x)
    for b in binders:
        body = App(body, Var(b))
    t = body
    for b in reversed(binders):
        t = Abs(b, t)
    u = Var(binders[0])
    for b in binders[1:]:
        u = App(u, Var(b))
    before_t, before_u = _masks(t), _masks(u)
    result = msubst(t, u, x)
    assert result.binder is not binders[0]
    assert _masks(t) == before_t and _masks(u) == before_u
    _assert_masks_match_the_walks(result)


def test_a_node_keeps_both_atom_sets_or_neither():
    # a node keeps both masks, always: free atoms within the occurring ones,
    # and a leaf's two masks are one and the same
    asked_fv, asked_atoms, substituted = (
        [copy.deepcopy(t) for t in enumerate_terms(4, (x, y))] for _ in range(3)
    )
    for t in asked_fv:
        assert fv_nom(t) == fv_nom(t)
    for t in asked_atoms:
        assert all_atoms(t) == all_atoms(t)
    renaming = Abs(y, App(Var(x), Var(y)))
    results = [msubst(renaming, u, x) for u in substituted]
    for t in [*asked_fv, *asked_atoms, *substituted, *results, renaming]:
        for node in _subterms(t):
            free, atoms = node._free, node._atoms
            assert type(free) is int and type(atoms) is int, node
            assert free & ~atoms == 0, node
            if type(node) is Var:
                assert free == atoms == node.atom._bit, node
        _assert_masks_match_the_walks(t)


@pytest.mark.parametrize("build", [_chain, _spine])
def test_deep_terms_build_and_answer_free_in(build):
    t = build(DEEP, Var(z))
    free, occurring = {_chain: ({z}, {x, z}), _spine: ({x, y, z}, {x, y, z})}[build]
    assert [free_in(a, t) for a in (x, y, z, w)] == [a in free for a in (x, y, z, w)]
    assert fv_nom(t) == free and all_atoms(t) == occurring


def test_one_leaf_per_atom():
    leaf = Var(x)
    assert Var(x) is leaf and Var(Atom("x")) is leaf
    assert copy.copy(leaf) is leaf and copy.deepcopy(leaf) is leaf
    assert pickle.loads(pickle.dumps(leaf)) is leaf
    assert swap(x, y, leaf) is Var(y)
    assert Var(Atom("leaf", 7)) is Var(Atom("leaf", 7))  # a new atom's too


def _rebuilt(t):
    # ``t`` again, every node made through the public constructors
    match t:
        case Var(a):
            return Var(a)
        case Abs(a, body):
            return Abs(a, _rebuilt(body))
        case App(fun, arg):
            return App(_rebuilt(fun), _rebuilt(arg))
        case ESub(body, a, arg):
            return ESub(_rebuilt(body), a, _rebuilt(arg))


def test_walks_build_what_the_public_constructors_build():
    # u has y and z free, so msubst renames binders y on its way down
    u = App(Var(z), Abs(x, Var(y)))
    config = GenConfig(max_size=4, atom_pool=(x, y))
    universe = enumerate_terms(4, (x, y))
    built = [gen_term(config, i) for i in range(200)] + universe
    for t in universe:
        built += [
            swap(x, y, t), permute({x: z, z: y, y: x}, t),
            msubst(t, u, x), msubst(t, Var(x), y), parse(render(t)).term,
        ]
    for t in built:
        twin = _rebuilt(t)
        assert t == twin and _masks(t) == _masks(twin), t


PUBLIC = _TERMS | {BVar, CLam, CApp, CSub}


def test_nodes_built_by_walks_are_sealed():
    # Every node a walk returns has exactly a public class, so a builder
    # that left a node in its field class fails here, and every such node
    # refuses assignment and deletion like one the constructors built.
    u = App(Var(z), Abs(x, Var(y)))
    config = GenConfig(max_size=4, atom_pool=(x, y))
    universe = enumerate_terms(4, (x, y))
    built = [gen_term(config, i) for i in range(200)] + universe
    for t in universe:
        built += [
            swap(x, y, t), permute({x: z, z: y, y: x}, t), msubst(t, u, x),
            msubst(t, Var(x), y), parse(render(t)).term, canonicalize(t),
        ]
    while built:
        node = built.pop()
        if type(node) is Atom:  # a field, or a canonical form's free variable
            continue
        assert type(node) in PUBLIC, type(node)
        for field in node.__match_args__:
            with pytest.raises(AttributeError):
                setattr(node, field, None)
            with pytest.raises(AttributeError):
                delattr(node, field)
        values = [getattr(node, field) for field in node.__match_args__]
        built += [v for v in values if type(v) is not int]


def test_copies_are_equal_and_fields_are_read_only():
    t = ESub(Abs(x, App(Var(x), Var(y))), z, Var(w))
    fv_nom(t)
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin == t and repr(twin) == repr(t)
    assert repr(t) == (
        "ESub(body=Abs(binder=Atom('x'), body=App(fun=Var(atom=Atom('x')), "
        "arg=Var(atom=Atom('y')))), binder=Atom('z'), arg=Var(atom=Atom('w')))"
    )
    for node, field in ((t, "binder"), (t.body, "body"), (t.body.body, "fun"), (t.arg, "atom")):
        with pytest.raises(AttributeError):
            setattr(node, field, Var(x))
        with pytest.raises(AttributeError):
            delattr(node, field)
    with pytest.raises(AttributeError):
        t._free = frozenset()
