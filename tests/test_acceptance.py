"""Acceptance suite: each test exercises one release criterion at full scale
and prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to see them).
"""

import itertools
import subprocess
import sys

from nes import (
    Abs,
    App,
    Atom,
    ESub,
    GenConfig,
    Lit,
    Meta,
    PROPERTY_NAMES,
    Var,
    aeq,
    all_atoms,
    canonicalize,
    enumerate_terms,
    fresh,
    fv_nom,
    gen_term,
    msubst,
    parse,
    render,
    run_property,
    size,
    swap,
    vswap,
)

x, y, z, w, v = Atom("x"), Atom("y"), Atom("z"), Atom("w"), Atom("v")
POOL = (x, y, z, w, v)


def _report(criterion: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    return ok


def _swap_out(t, a):
    if a not in fv_nom(t):
        return t
    return swap(a, fresh(all_atoms(t) | {a}, a), t)


def _forced_variant(t):
    # rename up to two bound atoms, met in display order so the run is the
    # same in every process; sound because the swapped atoms are not free
    # in t
    variant = t
    renamed = 0
    for a in sorted(all_atoms(t), key=Atom.sort_key):
        if a in fv_nom(t):
            continue
        variant = swap(a, fresh(all_atoms(variant) | {a}, a), variant)
        renamed += 1
        if renamed == 2:
            break
    return variant


def test_criterion_1_lemma_suite():
    config = GenConfig(cases=10_000, max_size=20, atom_pool=POOL, seed=0)
    failing = []
    for name in PROPERTY_NAMES:
        report = run_property(name, config)
        if report.failures:
            failing.append((name, report.failures))
    ok = _report(
        "criterion 1: all 31 lemmas, 10000 cases each, zero failures", not failing
    )
    assert ok, failing


def test_criterion_2_oracle_equivalence():
    # exhaustive: every pair of terms of size <= 4 over two atoms
    universe = enumerate_terms(4, (x, y))
    assert len(universe) == 114
    disagreements = 0
    canon = [canonicalize(t) for t in universe]
    for (i, t1), (j, t2) in itertools.product(enumerate(universe), repeat=2):
        if aeq(t1, t2) != (canon[i] == canon[j]):
            disagreements += 1
    # randomized: 10000 pairs at size <= 20, half of them forced variants
    config = GenConfig(max_size=20, atom_pool=POOL, seed=0)
    for case in range(10_000):
        t1 = gen_term(config, 2 * case)
        t2 = _forced_variant(t1) if case % 2 else gen_term(config, 2 * case + 1)
        if aeq(t1, t2) != (canonicalize(t1) == canonicalize(t2)):
            disagreements += 1
    ok = _report(
        "criterion 2: rule-based aeq agrees with the nameless oracle "
        "(exhaustive size<=4 plus 10000 random pairs)",
        disagreements == 0,
    )
    assert ok, disagreements


def test_criterion_3_substitution_lemma_dual_checked():
    config = GenConfig(max_size=20, atom_pool=POOL, seed=0)
    failures = 0
    for case in range(10_000):
        t1 = gen_term(config, 3 * case)
        t2 = gen_term(config, 3 * case + 1)
        t3 = gen_term(config, 3 * case + 2)
        a = POOL[case % len(POOL)]
        b = POOL[(case + 1 + case % 3) % len(POOL)]
        if b == a:
            b = POOL[(POOL.index(a) + 1) % len(POOL)]
        t3 = _swap_out(t3, a)
        assert a != b and a not in fv_nom(t3)
        lhs = msubst(msubst(t1, t2, a), t3, b)
        rhs = msubst(msubst(t1, t3, b), msubst(t2, t3, b), a)
        if not aeq(lhs, rhs) or canonicalize(lhs) != canonicalize(rhs):
            failures += 1
    ok = _report(
        "criterion 3: substitution composition, 10000 cases, "
        "checked by aeq and by the nameless oracle",
        failures == 0,
    )
    assert ok, failures


def test_criterion_4_faithfulness_spot_checks():
    checks = []
    # the motivating function-application step
    got = msubst(Abs(y, App(Var(x), Var(y))), Var(y), x)
    checks.append(aeq(got, Abs(z, App(Var(y), Var(z)))))
    # substituting for the abstraction's own binder changes nothing
    for t, u in ((Var(y), Var(z)), (App(Var(x), Var(y)), Abs(y, Var(x)))):
        checks.append(msubst(Abs(x, t), u, x) == Abs(x, t))
    # substituting for the explicit substitution's own binder only touches
    # the argument
    t1, t2, u = App(Var(x), Var(y)), App(Var(x), Var(z)), Var(w)
    checks.append(msubst(ESub(t1, x, t2), u, x) == ESub(t1, x, msubst(t2, u, x)))
    ok = _report("criterion 4: worked-example spot checks", all(checks))
    assert ok, checks


def test_criterion_5_syntactic_equality_lemmas():
    config = GenConfig(max_size=20, atom_pool=POOL, seed=0)
    failures = []
    for case in range(10_000):
        t = gen_term(config, case)
        a = POOL[case % 5]
        b = POOL[(case // 5) % 5]
        c = POOL[(case // 25) % 5]
        d = POOL[(case // 125) % 5]
        if size(swap(a, b, t)) != size(t):
            failures.append(("swap_size_eq", case))
        if swap(a, b, t) != swap(b, a, t):
            failures.append(("swap_symmetric", case))
        if swap(a, b, swap(a, b, t)) != t:
            failures.append(("swap_involutive", case))
        if swap(a, b, swap(c, d, t)) != swap(
            vswap(a, b, c), vswap(a, b, d), swap(a, b, t)
        ):
            failures.append(("swap_equivariance", case))
        # shuffle needs a != c and b != c
        sa = a if a != c else fresh((c,), a)
        sb = b if b != c else fresh((c,), b)
        if swap(sa, sb, swap(sb, c, t)) != swap(sa, c, swap(sa, sb, t)):
            failures.append(("shuffle_swap", case))
    ok = _report(
        "criterion 5: swap lemmas hold as structural equality on 10000 terms",
        not failures,
    )
    assert ok, failures[:5]


CORPUS = [
    ("x", Lit(Var(x))),
    ("x0", Lit(Var(Atom("x", 0)))),
    ("x y", Lit(App(Var(x), Var(y)))),
    ("x y z", Lit(App(App(Var(x), Var(y)), Var(z)))),
    ("x (y z)", Lit(App(Var(x), App(Var(y), Var(z))))),
    ("(x y) z", Lit(App(App(Var(x), Var(y)), Var(z)))),
    ("((x))", Lit(Var(x))),
    ("\\x. x", Lit(Abs(x, Var(x)))),
    ("λx. x", Lit(Abs(x, Var(x)))),
    ("\\x. x y", Lit(Abs(x, App(Var(x), Var(y))))),
    ("(\\x. x) y", Lit(App(Abs(x, Var(x)), Var(y)))),
    ("x (\\y. y)", Lit(App(Var(x), Abs(y, Var(y))))),
    ("\\x. \\y. x y", Lit(Abs(x, Abs(y, App(Var(x), Var(y)))))),
    ("(\\x. \\y. x y) y", Lit(App(Abs(x, Abs(y, App(Var(x), Var(y)))), Var(y)))),
    ("[x := y] x", Lit(ESub(Var(x), x, Var(y)))),
    ("[x := y z] x w", Lit(ESub(App(Var(x), Var(w)), x, App(Var(y), Var(z))))),
    ("([x := y] x) z", Lit(App(ESub(Var(x), x, Var(y)), Var(z)))),
    ("x ([y := z] y)", Lit(App(Var(x), ESub(Var(y), y, Var(z))))),
    ("[x := \\y. y] x", Lit(ESub(Var(x), x, Abs(y, Var(y))))),
    ("[x := [y := z] y] x", Lit(ESub(Var(x), x, ESub(Var(y), y, Var(z))))),
    ("\\x. [y := x] y", Lit(Abs(x, ESub(Var(y), y, Var(x))))),
    ("{x := y} x", Meta(Lit(Var(x)), x, Lit(Var(y)))),
    ("{x := y} (\\y. x y)", Meta(Lit(Abs(y, App(Var(x), Var(y)))), x, Lit(Var(y)))),
    ("{x := {y := z} y} x", Meta(Lit(Var(x)), x, Meta(Lit(Var(y)), y, Lit(Var(z))))),
    ("  \\x .   x\ty ", Lit(Abs(x, App(Var(x), Var(y))))),
]


def test_criterion_6_parser_roundtrip():
    report = run_property(
        "parse_roundtrip", GenConfig(cases=10_000, max_size=50, atom_pool=POOL, seed=0)
    )
    corpus_bad = [text for text, tree in CORPUS if parse(text) != tree]
    assert len(CORPUS) >= 20
    ok = _report(
        "criterion 6: parse/render round-trip (10000 terms at size<=50) "
        "and the fixed corpus",
        report.failures == 0 and not corpus_bad,
    )
    assert ok, (report.failures, corpus_bad)


def test_criterion_7_determinism(child_env):
    flags = [
        sys.executable, "-m", "nes.cli", "check",
        "--cases", "400", "--seed", "7", "--max-size", "15",
    ]
    first = subprocess.run(flags, env=child_env, capture_output=True)
    second = subprocess.run(flags, env=child_env, capture_output=True)
    runs_identical = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    config = GenConfig(max_size=20, atom_pool=POOL, seed=0)
    pure = all(
        msubst(gen_term(config, 2 * i), gen_term(config, 2 * i + 1), POOL[i % 5])
        == msubst(gen_term(config, 2 * i), gen_term(config, 2 * i + 1), POOL[i % 5])
        for i in range(300)
    )
    ok = _report(
        "criterion 7: byte-identical check runs and pure substitution",
        runs_identical and pure,
    )
    assert ok, (first.returncode, second.returncode, pure)
