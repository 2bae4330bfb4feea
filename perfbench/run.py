#!/usr/bin/env python3
"""The nes benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload catalogue --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --all --seeds 0,1,2 --out perfbench/results/NAME.json

Run from the root of a checkout; the library is imported from ``src/``.
One process drives the library with one closed-loop client and no extra
threads: an op starts when the previous one has finished.  CLI ops are
sequential subprocesses.

``--trace 0`` runs rounds for ``--seconds`` (at least MIN_ROUNDS): each
round sets the workload up afresh and runs its ops once, every set-up and
op timed, and the end-to-end metrics come from each op's best time over
the rounds (see ``end_to_end``).  ``--trace 1`` runs a
fixed number of cycles with the library's public names wrapped (see
``layers.py``), so its counts repeat exactly for a seed, and prints the
per-layer metrics.  Both print, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines
starting with ``#`` give context (environment, tail percentile and sample
count, medians over all samples, per-group latencies, a reference loop).
``--all`` runs every workload that ``BENCHMARK.json`` lists end to end on
each of ``--seeds`` and traced twice, prints every metric by name and unit
with each end-to-end metric's quartile spread over the seeds, and fails if
an op failed, a count differs between the two traced runs, or the metrics
differ from ``BENCHMARK.json``.

Every op's output is checked outside the timed region; a wrong output, an
exception or a ``RecursionError`` counts as a failed op.  The benchmark
never raises the recursion limit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Percentiles the tail may be, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0)
# Runs of the import-time probe per traced run.
IMPORT_PROBES = 5
# Fewest rounds an end-to-end run makes, however long they take.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    build: Callable  # (lib, seed) -> list of ops, one cycle
    trace_cycles: int
    trace_build: Callable | None = None  # ops for --trace 1, if different
    warmup_ops: int = 0  # untimed ops before the first round, to fill caches


def tail_percentile(samples: int) -> float:
    """The highest percentile on the ladder with at least ten of
    ``samples`` beyond it, or 100 (the slowest sample) if there is none."""
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 100.0


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (len(sorted_values) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


# ----------------------------------------------------------------------
# Loading the library


def load_library(with_cli: bool) -> types.SimpleNamespace:
    """Import the library afresh (dropping any earlier import) and return
    the names the benchmark calls, looked up from their defining modules."""
    for name in [m for m in sys.modules if m == "nes" or m.startswith("nes.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("nes")
    if with_cli:
        importlib.import_module("nes.cli")
    mods = sys.modules
    if not str(Path(mods["nes"].__file__).resolve()).startswith(str(SRC)):
        raise RuntimeError(f"nes imported from {mods['nes'].__file__}, not from {SRC}")
    term, alpha = mods["nes.term"], mods["nes.alpha"]
    parser, props = mods["nes.parser"], mods["nes.properties"]
    return types.SimpleNamespace(
        Atom=mods["nes.atoms"].Atom,
        Var=term.Var, Abs=term.Abs, App=term.App, ESub=term.ESub,
        size=term.size, render=term.render,
        aeq=alpha.aeq, canonicalize=alpha.canonicalize,
        parse=parser.parse, eval_meta=parser.eval_meta,
        GenConfig=props.GenConfig, DEFAULT_POOL=props.DEFAULT_POOL,
        PROPERTY_NAMES=props.PROPERTY_NAMES, run_property=props.run_property,
        cli=mods.get("nes.cli"),
    )


# ----------------------------------------------------------------------
# Measuring


_REF_DATA = [1] * 200_000


def reference_loop_ms() -> float:
    """Median of five timings of an integer loop that allocates nothing
    (small ints are cached): a gauge of the host's speed at the time."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for v in _REF_DATA:
            acc ^= v
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


class Outcomes:
    """Latencies and failures of the ops run, kept per op.

    The first output of each op is checked as soon as it appears, with the
    clock stopped; later repetitions must equal it.  Only the part of an
    output that repetitions are compared on is kept, so that retained
    outputs do not slow the library's garbage collections.
    """

    def __init__(self, ops):
        self.labels = [op.label for op in ops]
        self.times: list[list[float]] = [[] for _ in ops]  # seconds, per op
        self.attempted = 0
        self.failed = 0
        self.first: list = [None] * len(ops)
        self.wrong = [None] * len(ops)  # None until the first output is seen
        self.errors: list[str] = []

    def run_cycles(self, ops, cycles: int) -> float:
        """Run ``ops`` in order, ``cycles`` times, timing each op.  Returns
        the time spent, not counting the checks."""
        clock = time.perf_counter
        first, wrong, times = self.first, self.wrong, self.times
        start = clock()
        checking = 0.0
        for _ in range(cycles):
            for i, op in enumerate(ops):
                self.attempted += 1
                t0 = clock()
                try:
                    out = op.call()
                except Exception as err:  # any exception is a failed op
                    times[i].append(clock() - t0)
                    self._fail(f"{op.label}: {type(err).__name__}: {err}")
                    continue
                times[i].append(clock() - t0)
                if wrong[i] is None:
                    c0 = clock()
                    wrong[i] = not self._check(op, out)
                    first[i] = op.keep(out)
                    checking += clock() - c0
                    if wrong[i]:
                        self._fail(f"{op.label}: wrong output")
                elif op.keep(out) != first[i]:
                    self._fail(f"{op.label}: output differs on repetition")
                elif wrong[i]:
                    self.failed += 1
        return clock() - start - checking

    def _check(self, op, out) -> bool:
        try:
            return op.check(out)
        except Exception as err:
            self._fail(f"{op.label}: check raised {type(err).__name__}: {err}")
            return False

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message[:300])


def setup(workload: Workload, seed: int, traced: bool):
    """Import the library afresh and build the ops; return both and the
    time taken."""
    build = workload.trace_build if traced and workload.trace_build else workload.build
    # typing caches the unions a module builds at import; clear them, or
    # they keep every earlier import's classes alive and memory creeps up
    # round after round
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()
    t0 = time.perf_counter()
    lib = load_library(with_cli=traced and workload.trace_build is not None)
    ops = build(lib, seed)
    return lib, ops, time.perf_counter() - t0


def settle() -> None:
    """Collect garbage, then exempt everything alive (the library and the
    inputs) from later collections, so that collection pauses during the
    measurement scale with the library's own garbage, not the inputs."""
    gc.collect()
    gc.freeze()


def end_to_end(name: str, workload: Workload, args) -> tuple[dict, Outcomes]:
    """Rounds until ``--seconds`` have passed (and at least MIN_ROUNDS).  A
    round sets up afresh, timed, and runs every op once, each timed; the
    previous round's library and inputs are freed first.

    A shared host's speed swings from one moment to the next (by up to
    1.7x within a second on a 2-vCPU VM), and a slow phase only ever adds
    time, so every time reported is the fastest of its repetitions: an
    op's latency is its best over the rounds (ops repeat exactly, round
    after round), and set-up time is the best round's.  ``ops_per_s`` is
    the cycle's ops over the sum of their best latencies.  Medians over all
    samples go to ``#`` lines, where the slow phases show.
    """
    clock = time.perf_counter
    start = clock()
    ref_before = reference_loop_ms()
    setups: list[float] = []
    out = None
    wall = 0.0
    while len(setups) < MIN_ROUNDS or clock() - start < args.seconds:
        lib, ops, setup_s = setup(workload, args.seed, traced=False)
        setups.append(setup_s)
        if out is None:
            out = Outcomes(ops)
            for op in ops[:workload.warmup_ops]:
                op.call()
        settle()
        wall += out.run_cycles(ops, 1)
        gc.unfreeze()
        lib = ops = None
    ref_after = reference_loop_ms()

    best = [min(t) * 1e3 for t in out.times]
    lat = sorted(best)
    tail_p = tail_percentile(len(lat))
    if name == "cli":  # the CLI processes' peak, not the benchmark's
        import workloads
        peak_kb = max(workloads.cli_peaks_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (len(best) / sum(best) * 1e3, "ops/s"),
        "latency_ms.p50": (percentile(lat, 50.0), "ms"),
        "latency_ms.tail": (percentile(lat, tail_p), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (min(setups), "s"),
    }
    every = sorted(x * 1e3 for t in out.times for x in t)
    print(f"# latency tail=p{tail_p:g} samples={len(lat)} (best of {len(setups)} rounds per op)")
    print(f"# all samples: n={len(every)} p50_ms={percentile(every, 50):.3f} "
          f"ops_per_s={len(every) / wall:.3f} setup_s median={statistics.median(setups):.4f}")
    groups: dict[str, list[float]] = {}
    for label, x in zip(out.labels, best):
        groups.setdefault(label, []).append(x)
    for label in sorted(groups):
        g = sorted(groups[label])
        print(f"# op {label:<24} n={len(g):<5} best p50_ms={percentile(g, 50):.3f} "
              f"max_ms={g[-1]:.3f}")
    print(f"# context ref_loop_ms before={ref_before:.3f} after={ref_after:.3f}")
    return metrics, out


def traced(name: str, workload: Workload, args) -> tuple[dict, Outcomes]:
    import layers
    import workloads

    lib, ops, _ = setup(workload, args.seed, traced=True)
    settle()
    ref_before = reference_loop_ms()
    # the same cycles untraced, for the tracing overhead
    untraced_wall = Outcomes(ops).run_cycles(ops, workload.trace_cycles)

    tracer = layers.Tracer()
    tracer.install({"bench": lib}, lib.size)
    results = []
    try:
        for _ in range(2):  # twice: the counts must repeat exactly
            tracer.reset()
            out = Outcomes(ops)
            wall = out.run_cycles(ops, workload.trace_cycles)
            results.append((tracer.metrics(lib.PROPERTY_NAMES), out, wall))
    finally:
        tracer.uninstall()
    (metrics, out, wall), (again, out2, _) = results
    out.failed += out2.failed
    out.attempted += out2.attempted
    out.errors += out2.errors
    if layers.count_metrics(metrics) != layers.count_metrics(again):
        diff = sorted(k for k, v in layers.count_metrics(metrics).items()
                      if again.get(k) != v)
        out.errors.append(f"counts differ between two traced passes: {diff}")
        out.failed += 1

    metrics.update(layers.cli_import_metrics(
        sys.executable, str(ROOT), workloads.cli_env(str(SRC)), IMPORT_PROBES))
    metrics["trace.overhead_pct"] = ((wall / untraced_wall - 1.0) * 100.0, "%")
    ref_after = reference_loop_ms()
    metrics["host.ref_loop_ms"] = ((ref_before + ref_after) / 2.0, "ms")
    print(f"# trace cycles={workload.trace_cycles} untraced_wall_s={untraced_wall:.3f} "
          f"traced_wall_s={wall:.3f} spans={len(tracer.spans)}")
    print(f"# context ref_loop_ms before={ref_before:.3f} after={ref_after:.3f}")
    return metrics, out


# ----------------------------------------------------------------------
# Workload table


def workload_table() -> dict[str, Workload]:
    import workloads as w

    return {
        # 93 law verdicts a cycle: the tail is p85, with 14 beyond
        "catalogue": Workload(w.build_catalogue, trace_cycles=1),
        # 72 aeq decisions a cycle: the tail is p85, with 10.8 beyond
        "alpha_large": Workload(w.build_alpha, trace_cycles=1),
        # 40 substitutions a cycle: the tail is p75, with 10 beyond
        "subst_large": Workload(w.build_subst, trace_cycles=1),
        # 11 CLI runs a cycle: too few for a percentile with ten beyond, so
        # the tail is the slowest run
        "cli": Workload(
            lambda lib, seed: w.build_cli(lib, seed, str(ROOT), str(SRC)),
            trace_cycles=2,
            trace_build=w.build_cli_inprocess,
            warmup_ops=1,
        ),
    }


# ----------------------------------------------------------------------
# Reporting


def environment() -> str:
    """Interpreter, CPU count, git commit and a digest of the library's
    sources (the checkout a benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return (f"python={sys.version.split()[0]} cpus={os.cpu_count()} "
            f"git={git_sha()} src_sha256={digest.hexdigest()[:16]}")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def run_one(args) -> int:
    table = workload_table()
    workload = table[args.workload]
    print(f"# nes-bench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {environment()}")
    run = traced if args.trace else end_to_end
    metrics, out = run(args.workload, workload, args)
    for message in out.errors:
        print(f"# error {message}")
    attempted = out.attempted
    print(f"# fail_ratio={out.failed / attempted:g} failed={out.failed} attempted={attempted}")
    result = {
        "correct": out.failed == 0 and not out.errors,
        "attempted": attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise RuntimeError(f"{name} seed={seed} trace={trace}: exit {p.returncode}: "
                           f"{p.stderr[-500:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Every workload end to end on each seed and traced twice on the first,
    in child processes; prints every metric, and each end-to-end metric's
    median and quartile spread over the seeds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    problems: list[str] = []
    summary: dict = {"environment": environment(), "seeds": seeds,
                     "seconds": args.seconds, "workloads": {}}

    def verify(name: str, r: dict, kind: str) -> None:
        if not r["correct"] or r["failed"]:
            problems.append(f"{name}: {r['failed']} of {r['attempted']} ops failed")
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        if got != declared:
            problems.append(f"{name}: {kind} metrics or units differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(declared.items()))}")

    for w in spec["workloads"]:
        name = w["name"]
        runs = [run_child(name, s, args.seconds, 0) for s in seeds]
        tr1, tr2 = (run_child(name, seeds[0], args.seconds, 1) for _ in range(2))
        for r in runs:
            verify(name, r, "end_to_end")
        verify(name, tr1, "per_layer")
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r in (tr1, tr2)]
        if counts[0] != counts[1]:
            problems.append(f"{name}: counts differ between traced runs: "
                            f"{sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))}")
        e2e = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            e2e[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "unit": m["unit"],
                              "values": values}
            print(f"{name:<12} {m['name']:<44} {med:>16.6g} {m['unit']:<8} "
                  f"spread={(q3 - q1) / med:.3f} bound={m['bound']}")
        for metric, v in tr1["metrics"].items():
            print(f"{name:<12} {metric:<44} {v['value']:>16.6g} {v['unit']}")
        summary["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in tr1["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    for p in problems:
        print(f"PROBLEM {p}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload in both modes and print all metrics")
    ap.add_argument("--seeds", help="with --all: comma-separated seeds for the "
                    "end-to-end runs (default: --seed)")
    ap.add_argument("--out", help="with --all: write medians and spreads here as JSON")
    args = ap.parse_args(argv)
    if not (SRC / "nes" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'nes'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False  # cache byte code as an installed package would
    if args.all:
        return run_all(args)
    if args.workload not in workload_table():
        ap.error(f"--workload must be one of {', '.join(workload_table())}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
