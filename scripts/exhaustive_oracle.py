#!/usr/bin/env python3
"""Exhaustively cross-check the rule-based alpha-equivalence against the
nameless canonical form on every pair of small terms.

Pair counts grow fast (114 terms of size <= 4 over two atoms, so 12996
pairs); sizes much beyond 5 get slow.
"""

import argparse
import itertools
import sys
import time

from nes import Atom, aeq, canonicalize, enumerate_terms, render, size


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=int, default=4)
    ap.add_argument("--atoms", type=int, default=2, help="pool size (x, y, ...), 1 to 5")
    args = ap.parse_args()
    # a run over no terms, or over fewer atoms than asked for, would
    # report agreement without checking what was asked
    bases = "xyzwv"
    if not 1 <= args.atoms <= len(bases):
        ap.error(f"--atoms must be between 1 and {len(bases)}")
    if args.max_size < 1:
        ap.error("--max-size must be at least 1")

    pool = tuple(Atom(b) for b in bases[: args.atoms])
    universe = enumerate_terms(args.max_size, pool)
    by_size = {}
    for t in universe:
        by_size[size(t)] = by_size.get(size(t), 0) + 1
    print(f"terms: {len(universe)} over {len(pool)} atoms "
          f"({', '.join(f'size {k}: {v}' for k, v in sorted(by_size.items()))})")

    canon = [canonicalize(t) for t in universe]
    start = time.perf_counter()
    disagreements = []
    equivalent = 0
    for (i, t1), (j, t2) in itertools.product(enumerate(universe), repeat=2):
        rule = aeq(t1, t2)
        oracle = canon[i] == canon[j]
        if rule:
            equivalent += 1
        if rule != oracle:
            disagreements.append((t1, t2, rule, oracle))
    elapsed = time.perf_counter() - start

    pairs = len(universe) ** 2
    print(f"pairs: {pairs}, equivalent: {equivalent}, "
          f"disagreements: {len(disagreements)} [{elapsed:.1f}s]")
    for t1, t2, rule, oracle in disagreements[:10]:
        print(f"  rule={rule} oracle={oracle}  {render(t1)}  ~  {render(t2)}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
