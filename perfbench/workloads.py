"""The four workloads: their inputs, their ops and the checks on each op.

An op is one unit a user waits for.  ``build`` draws a workload's inputs
from the seed and returns its ops in a fixed order, one cycle; the runner
builds the cycle afresh each round and runs it once, so every round has the
same mix and every op repeats exactly.  Library functions are looked up
on ``lib`` at call time, so the tracer's wrappers on ``lib`` see every
call the benchmark makes.

``check`` is the correctness oracle for an op's output.  The runner calls it
outside the timed region, once per op, on the first output; every later
repetition must reproduce that output (the part ``keep`` selects).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import terms

# Random terms per size in one cycle.  The runner reports each op's best
# time over the rounds, and the median and tail over the ops; the counts
# put both inside a group of ops of like cost, not on the edge between two
# groups, where they would jump from seed to seed.
SMALL, MEDIUM, LARGE = 100, 1_000, 10_000
# alpha_large: 72 ops, sorted by cost 20 of 10^2 nodes, 40 of 10^3, 8
# chains and 4 of 10^4; the median lies among the 10^3-node ops and the
# tail (p85, 10.8 ops beyond) among the chains.
ALPHA_TERMS = {SMALL: 10, MEDIUM: 20, LARGE: 2}
CHAINS = 8
# subst_large: 40 ops, 14 of 10^2 nodes, 18 of 10^3 and 8 of 10^4; the
# median lies among the 10^3-node ops and the tail (p75, 10 ops beyond)
# at the top of them.
SUBST_TERMS = {SMALL: 7, MEDIUM: 9, LARGE: 4}


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    # the part of an output that repetitions must reproduce
    keep: Callable[[object], object] = lambda out: out


def _expect(want) -> Callable[[object], bool]:
    return lambda got: got == want


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def _sized_terms(kit: terms.TermKit, rng: random.Random, counts: dict[int, int]):
    """(size, term) for every random term of one cycle, smallest first."""
    for n, count in counts.items():
        for _ in range(count):
            yield n, kit.random_term(rng, n)


# ----------------------------------------------------------------------
# alpha_large


def _aeq_op(lib, label: str, t1, t2, expected: bool) -> Op:
    def check(verdict) -> bool:
        oracle = lib.canonicalize(t1) == lib.canonicalize(t2)
        return verdict is expected and oracle is expected

    return Op(label, lambda: lib.aeq(t1, t2), check)


def build_alpha(lib, seed: int) -> list[Op]:
    kit = terms.TermKit(lib)
    rng = _rng(seed, "alpha_large")
    ops = []
    for n, t in _sized_terms(kit, rng, ALPHA_TERMS):
        variant = kit.rename_apart(t, terms.VARIANT_BASE)
        ops.append(_aeq_op(lib, f"variant.{n}", t, variant, True))
        ops.append(_aeq_op(lib, f"twin.{n}", t, kit.change_last_leaf(variant), False))
    for _ in range(CHAINS):
        t = kit.chain(rng)
        ops.append(_aeq_op(lib, "chain", t, kit.rename_apart(t, terms.VARIANT_BASE), True))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# subst_large


def _subst_op(lib, kit: terms.TermKit, label: str, t, u, x) -> Op:
    text = f"{{{x} := {kit.text(u)}}} {kit.text(t)}"

    def call():
        result = lib.eval_meta(lib.parse(text))
        return result, lib.render(result)

    def check(out) -> bool:
        result, rendered = out
        reference = kit.subst_reference(t, u, x)
        return (
            lib.canonicalize(result) == lib.canonicalize(reference)
            and rendered == kit.text(result)
        )

    return Op(label, call, check, keep=lambda out: out[1])


def build_subst(lib, seed: int) -> list[Op]:
    kit = terms.TermKit(lib)
    rng = _rng(seed, "subst_large")
    x = lib.Atom(terms.SUBST_VAR)
    free = [lib.Atom(a) for a in terms.FREE if a != terms.SUBST_VAR]
    ops = []
    for n, t in _sized_terms(kit, rng, SUBST_TERMS):
        # u's free atoms avoid every binder: each hint is accepted
        accept = kit.spine(rng.sample(free, len(free)))
        # u mentions every binder name: each binder crossed is renamed
        rename = kit.spine(rng.sample(kit.binders, len(kit.binders)) + free)
        ops.append(_subst_op(lib, kit, f"accept.{n}", t, accept, x))
        ops.append(_subst_op(lib, kit, f"rename.{n}", t, rename, x))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# catalogue

CATALOGUE_CASES = 100
# Generator seeds per cycle; later rounds repeat them, so every verdict's
# report is also checked to be byte-identical on repetition.
CATALOGUE_SEEDS = 3


def catalogue_configs(lib, seed: int) -> list:
    """The release configuration (max size 20, pool x,y,z,w,v) with a
    reduced case count, at CATALOGUE_SEEDS seeds drawn from ``seed``."""
    rng = _rng(seed, "catalogue")
    return [
        lib.GenConfig(
            max_size=20,
            atom_pool=lib.DEFAULT_POOL,
            seed=rng.getrandbits(64),
            cases=CATALOGUE_CASES,
        )
        for _ in range(CATALOGUE_SEEDS)
    ]


def build_catalogue(lib, seed: int) -> list[Op]:
    """One op per law and generator seed; an op is one law's verdict."""
    ops = []
    for config in catalogue_configs(lib, seed):
        for name in lib.PROPERTY_NAMES:
            ops.append(_law_op(lib, name, config))
    return ops


def _law_op(lib, name: str, config) -> Op:
    def call():
        report = lib.run_property(name, config)
        return tuple(report.tsv_lines())

    return Op(name, call, _expect((f"{name}\t{config.cases}\t0\t{config.seed}",)))


# ----------------------------------------------------------------------
# cli

# (arguments, exit status, stdout), written out by hand.  ``{seed}`` and
# ``{seed2}`` are the run's check seeds.  The check command appears twice,
# so the p90 lies inside the slowest group of runs rather than on its edge.
CLI_CASES = [
    (["parse", "(\\x. \\y. x y) y"], 0, "(\\x. \\y. x y) y\n"),
    (
        ["parse", "{x := \\z. z y} (\\y. x y) (x z)"],
        0,
        "(\\y0. (\\z. z y) y0) ((\\z. z y) z)\n",
    ),
    (["fv", "[x := y] x z (\\z. z w)"], 0, "w\ny\nz\n"),
    (["swap", "x", "y", "\\x. x z ([y := x] y w)"], 0, "\\y. y z ([x := y] x w)\n"),
    (["subst", "x", "y", "\\y. x y"], 0, "\\y0. y y0\n"),
    (
        ["subst", "x", "\\z. y z", "[y := x] (\\y. x y) y"],
        0,
        "[y0 := \\z. y z] (\\y0. (\\z. y z) y0) y0\n",
    ),
    (["aeq", "\\x. \\y. x y", "\\y. \\x. y x"], 0, "true\n"),
    (["aeq", "\\x. x y", "\\y. y x"], 1, "false\n"),
    (["canon", "\\x. [y := x] (\\z. x y z) z"], 0, "\\. [:= #0] (\\. #2 #1 #0) z\n"),
    (
        ["check", "--lemma", "m_subst_lemma", "--cases", "40", "--seed", "{seed}",
         "--format", "tsv"],
        0,
        "m_subst_lemma\t40\t0\t{seed}\n",
    ),
    (
        ["check", "--lemma", "m_subst_lemma", "--cases", "40", "--seed", "{seed2}",
         "--format", "tsv"],
        0,
        "m_subst_lemma\t40\t0\t{seed2}\n",
    ),
]


def cli_env(src: str) -> dict:
    """Environment for CLI runs: the checkout's sources first on the path,
    and byte-code caching on, as for an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _cli_cases(seed: int) -> list[tuple[list[str], int, str]]:
    rng = _rng(seed, "cli")
    seeds = {"{seed}": str(rng.getrandbits(32)), "{seed2}": str(rng.getrandbits(32))}

    def fill(text: str) -> str:
        for key, value in seeds.items():
            text = text.replace(key, value)
        return text

    cases = [([fill(a) for a in argv], code, fill(out)) for argv, code, out in CLI_CASES]
    rng.shuffle(cases)
    return cases


# Runs nes.cli as ``python -m nes.cli`` does, then writes the process's
# peak resident memory to stderr.  It is read from VmHWM, which covers
# this program alone: a child's ru_maxrss also counts the pages of the
# process that forked it, here the benchmark.
CLI_MAIN = """\
import runpy, sys
try:
    runpy.run_module("nes.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write("\\n" + "".join(l for l in status if l.startswith("VmHWM:")))
"""

# Peak resident memory, in kB, of each CLI run so far.
cli_peaks_kb: list[int] = []


def build_cli(lib, seed: int, root: str, src: str) -> list[Op]:
    """Each op is one cold ``nes.cli`` process, started through CLI_MAIN."""
    env = cli_env(src)
    ops = []
    for argv, code, out in _cli_cases(seed):
        def call(argv=argv):
            p = subprocess.run(
                [sys.executable, "-c", CLI_MAIN, *argv],
                cwd=root, env=env, capture_output=True, text=True, timeout=60,
            )
            cli_peaks_kb.append(int(p.stderr.rsplit("VmHWM:", 1)[1].split()[0]))
            return p.returncode, p.stdout

        ops.append(Op(argv[0], call, _expect((code, out))))
    return ops


def build_cli_inprocess(lib, seed: int) -> list[Op]:
    """The same commands through ``nes.cli.main`` in this process, so the
    tracer sees the library calls behind each command."""
    ops = []
    for argv, code, out in _cli_cases(seed):
        def call(argv=argv):
            stdout = io.StringIO()
            limit = sys.getrecursionlimit()  # main may raise it; keep ours
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    status = lib.cli.main(argv)
            finally:
                sys.setrecursionlimit(limit)
            return status, stdout.getvalue()

        ops.append(Op(argv[0], call, _expect((code, out))))
    return ops
