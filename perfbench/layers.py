"""Per-layer tracing from outside the library.

The tracer replaces, in each *caller's* namespace, the library names that
caller looks up at call time (``nes.alpha`` calls ``swap`` and ``_fv``,
``nes.properties`` calls ``aeq``, and so on).  A defining module's own name
is never replaced, so ``aeq`` calling itself, ``eval_meta`` calling itself
and ``fv_nom`` calling ``_fv`` inside ``nes.term`` stay unwrapped and one
top-level call is one span.  Modules are reached through ``sys.modules``:
the package attribute ``nes.msubst`` is the function, not the module.

Spans stay in memory.  The wrapper's own bookkeeping (measuring argument
sizes) is timed and subtracted from every enclosing span, so a span's time
is the library's time; self time is a span's time minus its child spans'.
A name the library no longer has is skipped, and the metrics that only it
fed are left out rather than reported as zero.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from collections import defaultdict

# Span keys, each naming the layer and operation that the wrapped name is.
SWAP, FV, RENDER = "term.swap", "term.fv", "term.render"
AEQ, CANON = "alpha.aeq", "alpha.canonicalize"
MSUBST, FRESH = "msubst", "atoms.fresh"
PARSE, EVAL = "parser.parse", "parser.eval_meta"
GEN, LAW = "properties.gen_term", "properties.run_property"

# name looked up at call time -> span key
_KEYS = {
    "swap": SWAP, "_fv": FV, "fv_nom": FV, "render": RENDER,
    "aeq": AEQ, "canonicalize": CANON,
    "msubst": MSUBST, "fresh": FRESH,
    "parse": PARSE, "eval_meta": EVAL,
    "gen_term": GEN, "run_property": LAW,
}

# caller module -> the names it looks up in its own namespace
CALLERS = {
    "nes.alpha": ("swap", "_fv"),
    "nes.msubst": ("swap", "_fv", "fresh"),
    "nes.parser": ("msubst",),
    "nes.properties": (
        "aeq", "canonicalize", "fresh", "fv_nom", "swap", "render",
        "msubst", "parse", "gen_term",
    ),
    "nes.cli": (
        "aeq", "canonicalize", "msubst", "parse", "eval_meta", "render",
        "swap", "fv_nom", "run_property",
    ),
}

COUNT_UNITS = ("count",)


class Tracer:
    """Installs wrappers, records spans, and turns them into metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._excluded = [0.0]  # bookkeeping time so far, kept out of spans
        self._installed: list[tuple[object, str, object]] = []
        self.keys: set[str] = set()

    # ------------------------------------------------------------------
    # Installing

    def install(self, namespaces: dict[str, object], size) -> None:
        """Wrap the names in ``CALLERS`` plus every name of the given extra
        namespaces (caller label -> object whose attributes are library
        functions).  ``size`` counts a term's nodes."""
        targets = [(mod, sys.modules.get(mod), names) for mod, names in CALLERS.items()]
        targets += [(label, ns, tuple(vars(ns))) for label, ns in namespaces.items()]
        recorders = _recorders(size)
        for caller, ns, names in targets:
            if ns is None:
                continue
            for name in names:
                fn = getattr(ns, name, None)
                key = _KEYS.get(name)
                if fn is None or key is None:
                    continue
                pre, post = recorders.get(name, (None, None))
                setattr(ns, name, self._wrap(fn, key, caller, pre, post))
                self._installed.append((ns, name, fn))
                self.keys.add(key)

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._installed):
            setattr(ns, name, fn)
        self._installed.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._open.clear()
        self._excluded[0] = 0.0

    def _wrap(self, fn, key: str, caller: str, pre, post):
        spans, stack, excluded = self.spans, self._open, self._excluded
        clock = time.perf_counter

        def traced(*args, **kwargs):
            b0 = clock()
            info = pre(args) if pre is not None else None
            # [key, caller, parent, from args, from result, start, end, excluded]
            rec = [key, caller, stack[-1] if stack else -1, info, None, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            start = clock()
            excluded[0] += start - b0
            before = excluded[0]
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[5], rec[6], rec[7] = start, end, excluded[0] - before
            if post is not None:
                rec[4] = post(out)
            excluded[0] += clock() - end
            return out

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Metrics

    def metrics(self, law_names) -> dict[str, tuple[float, str]]:
        """Per-layer metrics (name -> (value, unit)) from the recorded spans."""
        spans = self.spans
        dur = [s[6] - s[5] - s[7] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[2] >= 0:
                child[s[2]] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        secs: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        nodes: dict[str, int] = defaultdict(int)
        law_s: dict[str, float] = defaultdict(float)
        chars = {RENDER: 0, PARSE: 0}
        probes = renames = 0
        for i, (key, caller, _, info, out, *_rest) in enumerate(spans):
            calls[key] += 1
            secs[key] += dur[i]
            self_s[key] += dur[i] - child[i]
            if key in (SWAP, FV):
                nodes[key] += info
            elif key == PARSE:
                chars[PARSE] += info
            elif key == RENDER:
                chars[RENDER] += out
            elif key == LAW:
                law_s[info] += dur[i]
            elif key == FRESH:
                hint = info
                probes += 1 if out == hint else out.index + 2
                if caller == "nes.msubst" and out != hint:
                    renames += 1

        have = self.keys.__contains__
        m: dict[str, tuple[float, str]] = {}
        for key in (SWAP, FV):
            if have(key):
                m[f"{key}.calls"] = (calls[key], "count")
                m[f"{key}.nodes"] = (nodes[key], "count")
                m[f"{key}.s"] = (secs[key], "s")
        if have(RENDER):
            m["term.render.s"] = (secs[RENDER], "s")
            m["term.render.chars"] = (chars[RENDER], "count")
        if have(AEQ):
            m["alpha.aeq.calls"] = (calls[AEQ], "count")
            m["alpha.aeq.s"] = (secs[AEQ], "s")
            m["alpha.aeq.self_s"] = (self_s[AEQ], "s")
        if have(CANON):
            m["alpha.canonicalize.s"] = (secs[CANON], "s")
        if have(MSUBST):
            m["msubst.calls"] = (calls[MSUBST], "count")
            m["msubst.s"] = (secs[MSUBST], "s")
            m["msubst.self_s"] = (self_s[MSUBST], "s")
            if have(FRESH):
                m["msubst.renames"] = (renames, "count")
        if have(FRESH):
            m["atoms.fresh.calls"] = (calls[FRESH], "count")
            m["atoms.fresh.probes"] = (probes, "count")
            m["atoms.fresh.s"] = (secs[FRESH], "s")
        if have(PARSE):
            m["parser.parse.s"] = (secs[PARSE], "s")
            rate = chars[PARSE] / secs[PARSE] if secs[PARSE] > 0 else 0.0
            m["parser.parse.chars_per_s"] = (rate, "chars/s")
        if have(EVAL):
            m["parser.eval_meta.s"] = (secs[EVAL], "s")
        if have(GEN):
            m["properties.gen_term.calls"] = (calls[GEN], "count")
            m["properties.gen_term.s"] = (secs[GEN], "s")
        if have(LAW):
            m["properties.self_s"] = (self_s[LAW], "s")
            for name in law_names:
                m[f"properties.law.{name}.s"] = (law_s[name], "s")
        return m


def _recorders(size) -> dict:
    """What a wrapper records about a call, outside its span: a function of
    the arguments and one of the result, per wrapped name."""
    return {
        "swap": (lambda args: size(args[2]), None),
        "_fv": (lambda args: size(args[0]), None),
        "fv_nom": (lambda args: size(args[0]), None),
        "parse": (lambda args: len(args[0]), None),
        "render": (None, len),
        "run_property": (lambda args: args[0], None),
        "fresh": (lambda args: args[1], lambda out: out),
    }


def count_metrics(metrics: dict) -> dict:
    """The subset of metrics that are counts and must repeat exactly."""
    return {k: v for k, v in metrics.items() if v[1] in COUNT_UNITS}


def cli_import_metrics(python: str, cwd: str, env: dict, runs: int) -> dict:
    """Import cost of the CLI from ``-X importtime`` (median of ``runs``
    fresh interpreters): ``nes.cli`` in total, each ``nes`` module's self
    time, and the bare interpreter's wall time, which no change to the
    library can move."""
    def run(*args):
        return subprocess.run([python, *args], cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=60, check=True)

    run("-c", "import nes.cli")  # writes the byte-code cache if missing
    total: list[float] = []
    self_ms: dict[str, list[float]] = defaultdict(list)
    bare: list[float] = []
    for _ in range(runs):
        t0 = time.perf_counter()
        run("-c", "pass")
        bare.append((time.perf_counter() - t0) * 1e3)
        for line in run("-X", "importtime", "-c", "import nes.cli").stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name == "nes" or name.startswith("nes."):
                self_ms[name].append(int(fields[0]) / 1e3)
                if name == "nes.cli":
                    total.append(int(fields[1]) / 1e3)
    m = {f"cli.import.{name}.ms": (statistics.median(v), "ms") for name, v in self_ms.items()}
    if total:
        m["cli.import_ms"] = (statistics.median(total), "ms")
    m["cli.interpreter_ms"] = (statistics.median(bare), "ms")
    return m
