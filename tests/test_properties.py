import hashlib
import random
import sys
import zlib
from types import SimpleNamespace

import pytest

from nes import (
    Abs,
    App,
    Atom,
    ESub,
    GenConfig,
    PROPERTY_NAMES,
    UnknownPropertyError,
    Var,
    aeq,
    all_atoms,
    enumerate_terms,
    eval_meta,
    fv_nom,
    gen_term,
    parse,
    parse_atom,
    render,
    run_property,
    size,
)
import nes.properties as properties
import nes.term as term

x, y = Atom("x"), Atom("y")

EXPECTED_NAMES = (
    "vswap_id", "swap_id", "swap_neq", "swap_size_eq", "swap_symmetric",
    "swap_involutive", "shuffle_swap", "swap_equivariance", "fv_nom_swap",
    "notin_fv_nom_equivariance", "notin_fv_nom_remove_swap", "aeq_refl",
    "aeq_sym", "aeq_trans", "aeq_size", "aeq_fv_nom", "aeq_swap",
    "swap_reduction", "aeq_swap_swap", "aeq_oracle", "m_subst_notin",
    "m_subst_abs_eq", "m_subst_sub_eq", "m_subst_abs_neq", "m_subst_sub_neq",
    "aeq_m_subst_in", "aeq_m_subst_out", "aeq_m_subst_eq",
    "swap_subst_rec_fun", "m_subst_lemma", "parse_roundtrip",
)


def test_catalogue_names():
    assert PROPERTY_NAMES == EXPECTED_NAMES
    assert len(PROPERTY_NAMES) == 31


def test_gen_term_is_deterministic():
    cfg = GenConfig(max_size=15, seed=99)
    for pos in range(50):
        assert gen_term(cfg, pos) == gen_term(cfg, pos)
    other = GenConfig(max_size=15, seed=100)
    assert any(gen_term(cfg, p) != gen_term(other, p) for p in range(50))


def test_gen_term_memo_returns_the_stored_term():
    cfg = GenConfig(max_size=15, seed=3)
    before = (hash(cfg), repr(cfg))
    first = [gen_term(cfg, pos) for pos in range(100)]
    assert all(gen_term(cfg, pos) is t for pos, t in enumerate(first))
    # an equal but distinct config draws equal terms from its own memo
    twin = GenConfig(max_size=15, seed=3)
    assert [gen_term(twin, pos) for pos in range(100)] == first
    # the memo takes no part in ==, hash or repr
    empty = GenConfig(max_size=15, seed=3)
    assert cfg == twin == empty
    assert (hash(cfg), repr(cfg)) == before == (hash(empty), repr(empty))


def test_replaced_config_starts_an_empty_memo():
    cfg = GenConfig(max_size=15, seed=1)
    for pos in range(50):
        gen_term(cfg, pos)
    other = cfg.replace(seed=2)
    assert other._terms == {}
    with pytest.raises(ValueError):
        cfg.replace(seed=-1)
    fresh_cfg = GenConfig(max_size=15, seed=2)
    assert [gen_term(other, p) for p in range(50)] == [
        gen_term(fresh_cfg, p) for p in range(50)
    ]
    assert any(gen_term(other, p) != gen_term(cfg, p) for p in range(50))


def test_gen_term_memo_is_bounded():
    cfg = GenConfig(max_size=10_000)
    limit = properties._MEMO_NODES // (cfg.max_size + properties._ENTRY_NODES)
    for pos in range(limit + 20):
        rng = properties._Stream(properties._mix(cfg.seed, pos))
        assert gen_term(cfg, pos) == properties._gen(rng, cfg.max_size, cfg.atom_pool)
        assert len(cfg._terms) <= limit
    assert len(cfg._terms) == limit


_GAMMA, _M64 = 0x9E3779B97F4A7C15, (1 << 64) - 1


def _splitmix64(state):
    # the textbook generator: step the state by gamma, then mix it
    while True:
        state = (state + _GAMMA) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


def test_stream_is_splitmix64():
    rng = properties._Stream(0)
    assert [rng.choose(1 << 64), rng.choose(1 << 64)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    pick = random.Random(0)
    for _ in range(10_000):
        a, b = pick.getrandbits(64), pick.getrandbits(64)
        # _mix(a, b) is the first output from the state a * gamma + b - gamma
        start = (a * _GAMMA + b - _GAMMA) & _M64
        assert properties._mix(a, b) == next(_splitmix64(start))
    for state in (0, 1, _M64, pick.getrandbits(64)):
        rng, textbook = properties._Stream(state), _splitmix64(state)
        assert [rng.choose(1 << 64) for _ in range(8)] == [next(textbook) for _ in range(8)]


def test_gen_term_single_leaf():
    cfg = GenConfig(max_size=1, atom_pool=(x,))
    assert gen_term(cfg, 0) == Var(x)
    assert gen_term(cfg, 7) == Var(x)


def test_gen_term_respects_bounds_and_pool():
    cfg = GenConfig(max_size=12, atom_pool=(x, y))
    pool = {x, y}
    for pos in range(300):
        t = gen_term(cfg, pos)
        assert 1 <= size(t) <= 12
        assert set(all_atoms(t)) <= pool


def test_gen_term_covers_all_constructors():
    cfg = GenConfig(max_size=20, atom_pool=(Atom("x"), Atom("y"), Atom("z")))
    seen = set()
    for pos in range(10_000):
        node = gen_term(cfg, pos)
        stack = [node]
        while stack:
            t = stack.pop()
            seen.add(type(t))
            if isinstance(t, Abs):
                stack.append(t.body)
            elif isinstance(t, App):
                stack.extend((t.fun, t.arg))
            elif isinstance(t, ESub):
                stack.extend((t.body, t.arg))
        if len(seen) == 4:
            break
    assert seen == {Var, Abs, App, ESub}


def _depth(t):
    # nodes on the longest path from the root to a leaf
    deepest, stack = 0, [(t, 1)]
    while stack:
        t, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(t, Abs):
            stack.append((t.body, depth + 1))
        elif isinstance(t, App):
            stack += [(t.fun, depth + 1), (t.arg, depth + 1)]
        elif isinstance(t, ESub):
            stack += [(t.body, depth + 1), (t.arg, depth + 1)]
    return deepest


def test_drawn_terms_are_shallow_at_any_max_size():
    # Drawn terms grow in depth far more slowly than in size: at max size
    # 20 000 the deepest of the first 100 is 50 deep.  So nes check runs
    # under the default recursion limit (1 000) at any --max-size; the
    # bound of 100 leaves room below that limit for the recursive walks of
    # swap, aeq, canonicalize and msubst.
    cfg = GenConfig(max_size=20_000, seed=0)
    assert max(_depth(gen_term(cfg, i)) for i in range(100)) <= 100


def test_gen_term_expected_size_tracks_max_size():
    cfg = GenConfig(max_size=20)
    sizes = [size(gen_term(cfg, pos)) for pos in range(2000)]
    mean = sum(sizes) / len(sizes)
    assert 7 <= mean <= 20


@pytest.mark.parametrize(
    "pool, expected",
    [
        (
            properties.DEFAULT_POOL,
            "7582347de3d9d81b7708fe7db25bdb53f35185adc5381ebf2eda54c67e46361d",
        ),
        ((x,), "03a6213323e4aeab77ad38c7f9482539bc1f9b3b7ad1043e00648f76a0a55c01"),
        (
            (Atom("a", 0), Atom("a")),
            "cf4475f6e464397f75d74dd3405e345e6179c3dc4083ece9303ea1443317aecd",
        ),
    ],
)
def test_drawn_inputs_are_pinned(pool, expected):
    # A seed must keep its meaning across code changes: every law's first
    # 200 drawn input dicts (names, key order, rendered values) hash to a
    # fixed digest.
    cfg = GenConfig(atom_pool=pool)
    h = hashlib.sha256()
    for name in PROPERTY_NAMES:
        prop = properties._CATALOGUE[name]
        digest = zlib.crc32(name.encode())
        for case in range(200):
            for key, value in prop.draw(properties._Draw(cfg, digest, case)).items():
                shown = str(value) if isinstance(value, Atom) else render(value)
                h.update(f"{name}\t{key}\t{shown}\n".encode())
    assert h.hexdigest() == expected


def test_a_draw_moved_to_a_case_draws_what_a_new_one_does():
    # run_property seeds each law once and moves one _Draw from case to case;
    # the shrinker replays tapes on it in between (None below), and start
    # must leave replay mode
    cfg = GenConfig(max_size=8)
    for name in (
        "aeq_swap_swap", "m_subst_sub_neq", "aeq_m_subst_eq", "m_subst_lemma",
        "aeq_m_subst_in",
    ):
        prop, digest = properties._CATALOGUE[name], zlib.crc32(name.encode())
        moved = properties._Draw(cfg, digest, 0)
        for case in (3, 0, None, 41, 42):
            if case is None:
                prop.draw(moved.replay([properties._Tape([]) for _ in range(5)]))
                continue
            assert prop.draw(moved.start(case)) == prop.draw(
                properties._Draw(cfg, digest, case)
            )


def test_replaying_recorded_tapes_draws_the_recorded_case():
    cfg = GenConfig()
    for name in PROPERTY_NAMES:
        prop, digest = properties._CATALOGUE[name], zlib.crc32(name.encode())
        d = properties._Draw(cfg, digest, 0)
        for case in range(50):
            drawn = prop.draw(properties._Draw(cfg, digest, case))
            tapes = d.record(case)
            assert prop.draw(d.replay(tapes)) == drawn, (name, case)
            replayed = [properties._Tape(tape.choices) for tape in tapes]
            assert prop.draw(d.replay(replayed)) == drawn, (name, case)
            assert all(tape.read == len(tape.choices) for tape in replayed)


def test_tape_reads_zero_past_its_end_and_out_of_range():
    tape = properties._Tape([2, 7, 1])
    assert [tape.choose(5), tape.choose(5), tape.choose(2), tape.choose(9)] == [2, 0, 1, 0]
    assert tape.read == 4


def test_run_property_trivial_case():
    report = run_property("aeq_refl", GenConfig(cases=1, max_size=1))
    assert report.failures == 0
    assert report.cases_run == 1
    assert report.counterexample is None


def test_run_property_swap_involutive():
    report = run_property("swap_involutive", GenConfig(cases=1000))
    assert report.failures == 0


def test_run_property_unknown_name():
    with pytest.raises(UnknownPropertyError) as info:
        run_property("no_such_lemma", GenConfig(cases=1))
    assert "m_subst_lemma" in str(info.value)


def test_run_property_deterministic_reports():
    cfg = GenConfig(cases=300, seed=5)
    assert run_property("aeq_oracle", cfg) == run_property("aeq_oracle", cfg)


def test_genconfig_validation():
    for bad in (
        dict(max_size=0),
        dict(cases=0),
        dict(atom_pool=()),
        dict(seed=-1),
        dict(seed=1 << 64),
    ):
        with pytest.raises(ValueError):
            GenConfig(**bad)


def test_enumerate_terms_counts():
    pool = (x, y)
    per_size = [len([t for t in enumerate_terms(n, pool) if size(t) == n]) for n in (1, 2, 3, 4)]
    assert per_size == [2, 4, 20, 88]
    assert len(enumerate_terms(4, pool)) == 114


def test_enumerate_terms_below_size_one_is_empty():
    assert enumerate_terms(0, (x, y)) == []
    assert enumerate_terms(-3, (x, y)) == []


@pytest.mark.parametrize(
    "pool, message",
    [((), "atom_pool must be nonempty"), ([x, "y"], "atom_pool must hold atoms, not str"),
     ((None,), "atom_pool must hold atoms, not NoneType")],
)
def test_enumerate_terms_checks_its_pool_as_genconfig_does(pool, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GenConfig(atom_pool=pool)
    for max_size in (2, 0):
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumerate_terms(max_size, pool)


@pytest.mark.parametrize("junk", ["s", 2.0, True, None])
def test_enumerate_terms_checks_max_size_as_genconfig_does(junk):
    with pytest.raises(Exception) as from_config:
        GenConfig(max_size=junk)
    with pytest.raises(Exception) as from_enumerate:
        enumerate_terms(junk, (x, y))
    assert type(from_enumerate.value) is type(from_config.value) is ValueError
    assert str(from_enumerate.value) == str(from_config.value)
    assert str(from_config.value) == f"max_size must be an int, not {type(junk).__name__}"


@pytest.mark.parametrize("junk", [None, 20, properties.DEFAULT_POOL])
def test_gen_term_rejects_non_configs(junk):
    with pytest.raises(TypeError, match="not a GenConfig: "):
        gen_term(junk, 0)


@pytest.mark.parametrize("junk", [None, 20, properties._Draw(GenConfig(), 0, 0)])
def test_run_property_rejects_non_configs(junk):
    with pytest.raises(TypeError, match="not a GenConfig: "):
        run_property("swap_id", junk)


class _SubConfig(GenConfig):
    __slots__ = ()


# look-alikes that carry a memo, with atoms and with strings in the pool
@pytest.mark.parametrize("junk", [
    SimpleNamespace(_terms={}, seed=0, max_size=5, atom_pool=(x,)),
    SimpleNamespace(_terms={}, seed=0, max_size=5, atom_pool=("x",)),
    _SubConfig(),
])
def test_only_a_genconfig_is_a_config(junk):
    for check in (lambda: gen_term(junk, 0), lambda: run_property("swap_id", junk)):
        with pytest.raises(TypeError) as info:
            check()
        assert str(info.value) == f"not a GenConfig: {junk!r}"


# A vacuity audit of the repairs.  Each helper is replaced by its unrepaired
# draw (``b`` for ``_distinct_from(a, b)``, ``t`` for ``_swap_out(t, a)``, a
# pool atom for ``_not_free_in`` and an independent term for
# ``_alpha_variant``) and each law that calls it runs without its
# hypothesis.  ``_pick_avoiding`` serves three conjuncts of m_subst_abs_neq
# and m_subst_sub_neq, so each part of its avoid mask (_AVOIDED) is dropped
# in turn.  True marks a law that must then fail: 38 cases at seed 0 is the
# smallest count at which all of them do (m_subst_sub_neq without x in the
# mask first fails at case 37).
# m_subst_abs_neq and m_subst_sub_neq still hold with x = y: then z != x and
# z not free in the binder node leave x not free in swap y z t, so both
# sides are alpha-equal, and their x != y conjunct is not needed.  aeq_sym,
# aeq_swap and aeq_oracle have no hypothesis and hold for any pair.
_UNREPAIRED = {
    "_distinct_from": lambda a, b: b,
    "_swap_out": lambda t, a: t,
    "_not_free_in": lambda d, t: d.atom(),
    "_alpha_variant": lambda d, t: d.term(),
}
_AVOIDED = {
    "u": lambda i: i["u"]._free,
    "binder": lambda i: (
        Abs(i["y"], i["t"]) if "t" in i else ESub(i["t1"], i["y"], i["t2"])
    )._free,
    "x": lambda i: i["x"]._bit,
}
_NEEDED = {
    "_distinct_from": {
        "swap_neq": True, "shuffle_swap": True, "m_subst_abs_neq": False,
        "m_subst_sub_neq": False, "m_subst_lemma": True,
    },
    "_swap_out": {
        "fv_nom_swap": True, "notin_fv_nom_equivariance": True,
        "notin_fv_nom_remove_swap": True, "m_subst_notin": True,
        "m_subst_lemma": True,
    },
    "_not_free_in": {"swap_reduction": True, "aeq_swap_swap": True},
    "_alpha_variant": {
        "aeq_sym": False, "aeq_trans": True, "aeq_size": True, "aeq_fv_nom": True,
        "aeq_swap": False, "aeq_oracle": False, "aeq_m_subst_in": True,
        "aeq_m_subst_out": True, "aeq_m_subst_eq": True,
    },
    **{
        f"_pick_avoiding without {part}": {
            "m_subst_abs_neq": True, "m_subst_sub_neq": True,
        }
        for part in _AVOIDED
    },
}


@pytest.mark.parametrize("helper", sorted(_NEEDED))
def test_repairs_are_needed_where_the_audit_says(monkeypatch, helper):
    callers = set()
    attr, _, dropped = helper.partition(" without ")
    pick = properties._pick_avoiding

    def unrepaired(*args):
        callers.add(name)  # the law being drawn
        if dropped:
            return None  # z is picked below, once the other inputs are drawn
        return _UNREPAIRED[helper](*args)

    monkeypatch.setattr(properties, attr, unrepaired)
    cfg = GenConfig(cases=38, seed=0)
    failing = {}
    for name in PROPERTY_NAMES:
        prop = properties._CATALOGUE[name]
        bare = properties._Prop(prop.draw, prop.body)
        d = properties._Draw(cfg, zlib.crc32(name.encode()), 0)
        failures = 0
        for case in range(cfg.cases):
            inputs = properties._draw_case(name, bare, d.start(case), case)
            if dropped and name in callers:
                # the pick is the drawer's last choice, so d's stream stands
                # where the drawer's call would read it
                avoid = 0
                for part, mask in _AVOIDED.items():
                    if part != dropped:
                        avoid |= mask(inputs)
                inputs["z"] = pick(d, avoid)
            failures += not properties._holds(bare, inputs)
        if name in callers:
            failing[name] = failures > 0
    assert failing == _NEEDED[helper]


@pytest.mark.parametrize("pool", [properties.DEFAULT_POOL, (x,)])
def test_alpha_variant_and_not_free_are_sound(monkeypatch, pool):
    not_free = properties._not_free
    fallbacks = 0

    def checked(d, candidates, atoms):  # t is the loop's current term
        nonlocal fallbacks
        a = not_free(d, candidates, atoms)
        assert a not in fv_nom(t)
        fallbacks += a not in pool and a not in all_atoms(t)
        return a

    monkeypatch.setattr(properties, "_not_free", checked)
    cfg = GenConfig(atom_pool=pool)
    for case in range(2000):
        d = properties._Draw(cfg, 0, case)
        t = d.term()
        variant = properties._alpha_variant(d, t)
        assert aeq(variant, t)
        assert fv_nom(variant) == fv_nom(t)
        properties._not_free_in(d, t)
    if pool == (x,):
        assert fallbacks > 0


@pytest.fixture
def broken_law(monkeypatch):
    # a deliberately false statement, to exercise counting and shrinking
    prop = properties._Prop(
        draw=lambda d: {"t": d.term()},
        body=lambda t: not isinstance(t, App),
    )
    monkeypatch.setitem(properties._CATALOGUE, "every_term_is_app_free", prop)
    return "every_term_is_app_free"


def test_failure_counting_and_counterexample(broken_law):
    report = run_property(broken_law, GenConfig(cases=200))
    assert report.failures > 1
    assert report.counterexample is not None
    assert report.counterexample == (("t", "x x"),)


def test_capturing_msubst_is_killed_and_shrinks_small(monkeypatch):
    # A capturing mutant: msubst keeps every binder it should rename.  The
    # attribute nes.msubst is the function, so the module comes from
    # sys.modules.
    monkeypatch.setattr(sys.modules["nes.msubst"], "fresh", lambda avoid, hint: hint)
    cfg = GenConfig(cases=100)
    for name in (
        "m_subst_abs_neq", "m_subst_sub_neq", "aeq_m_subst_out",
        "aeq_m_subst_eq", "m_subst_lemma",
    ):
        report = run_property(name, cfg)
        assert report.failures > 0, name
        prop = properties._CATALOGUE[name]
        shapes = prop.draw(properties._Draw(cfg, 0, 0))
        inputs = {
            k: parse_atom(v) if isinstance(shapes[k], Atom) else eval_meta(parse(v))
            for k, v in report.counterexample
        }
        # shrinking replays the repairs, so the hypothesis still holds
        assert prop.pre is None or prop.pre(**inputs), name
        assert not properties._holds(prop, inputs), name
        terms = [v for v in inputs.values() if not isinstance(v, Atom)]
        assert max(map(size, terms)) <= 2, report.counterexample


def test_report_tsv_lines(broken_law):
    ok = run_property("vswap_id", GenConfig(cases=10))
    assert ok.tsv_lines() == ok.lines() == ["vswap_id\t10\t0\t0"]
    failing = run_property(broken_law, GenConfig(cases=50, seed=3))
    lines = failing.tsv_lines()
    assert lines == failing.lines("tsv")
    assert lines[0].startswith("every_term_is_app_free\t50\t")
    assert lines[1] == "# counterexample:"
    assert any(line.startswith("#   t = ") for line in lines[2:])
    # the text layout of the same two reports
    assert ok.lines("text") == [
        "ok   vswap_id                   cases=10 failures=0 seed=0"
    ]
    lines = failing.lines("text")
    assert lines[0].startswith("FAIL every_term_is_app_free     cases=50 failures=")
    assert lines[0].endswith(" seed=3")
    assert lines[1] == "     counterexample:"
    assert lines[2:] == [f"       {k} = {v}" for k, v in failing.counterexample]
    with pytest.raises(ValueError, match="^format must be text or tsv, not 'json'$"):
        ok.lines("json")


def test_repair_recheck_raises_on_bad_generator(monkeypatch):
    prop = properties._Prop(
        draw=lambda d: {"t": d.term()},
        body=lambda t: True,
        pre=lambda t: False,
    )
    monkeypatch.setitem(properties._CATALOGUE, "impossible_hypothesis", prop)
    with pytest.raises(RuntimeError):
        run_property("impossible_hypothesis", GenConfig(cases=1))


def test_exception_in_body_counts_as_failure(monkeypatch):
    def explode(t):
        raise ZeroDivisionError

    prop = properties._Prop(draw=lambda d: {"t": d.term()}, body=explode)
    monkeypatch.setitem(properties._CATALOGUE, "always_raises", prop)
    report = run_property("always_raises", GenConfig(cases=5))
    assert report.failures == 5
    assert report.counterexample is not None


def test_nodes_built_by_the_catalogue_stay_under_a_bound(monkeypatch):
    # Counted work, so a change in how many nodes the laws build shows
    # without timing: the builders of Abs, App and ESub, wherever they are
    # called from, and the leaf table's misses.  All 31 laws at 20 cases
    # and seed 0 built 6 992 nodes, 15 of them leaves, when this bound was
    # set; building a leaf per occurrence, as before leaves were shared,
    # took 8 812.
    built = [0]
    modules = [sys.modules[m] for m in ("nes.term", "nes.msubst", "nes.parser",
                                        "nes.properties")]
    for name in ("_abs", "_app", "_esub"):
        builder = getattr(term, name)

        def counted(*args, _builder=builder):
            built[0] += 1
            return _builder(*args)

        for module in modules:
            if getattr(module, name, None) is builder:
                monkeypatch.setattr(module, name, counted)
    build_leaf = term._Leaves.__missing__

    def counted_leaf(leaves, atom):
        built[0] += 1
        return build_leaf(leaves, atom)

    monkeypatch.setattr(term._Leaves, "__missing__", counted_leaf)
    config = GenConfig(cases=20, seed=0)
    for name in PROPERTY_NAMES:
        assert run_property(name, config).failures == 0, name
    assert 0 < built[0] <= 7_200


def test_full_catalogue_quick_pass():
    cfg = GenConfig(cases=60, max_size=12, seed=11)
    for name in PROPERTY_NAMES:
        report = run_property(name, cfg)
        assert report.failures == 0, name
