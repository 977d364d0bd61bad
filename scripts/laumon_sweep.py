#!/usr/bin/env python3
"""Sweep the stationary-phase factorization identity over random triples.

For every sampled triple the script checks, in exact arithmetic, that the
three factors (determinant twist, stationary local constant, lambda of the
covering) multiply to 1, and, on every N-th triple with --oracle-every N,
that the closed-form local constant equals the Tate-integral oracle; it
tallies the quadratic-symbol parity branches that were hit.

    python3 scripts/laumon_sweep.py --count 40 --oracle-every 10
"""

import argparse
import random
import sys
import time
from collections import Counter

from ramify.fields import field_from_q
from ramify.lft import character_for_triple, random_legendre_triple, verify_laumon


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, nargs="+", default=[3, 5, 9])
    parser.add_argument("--m", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--count", type=int, default=30,
                        help="triples per (q, m) configuration")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--oracle-every", type=int, default=0,
                        help="re-check every N-th instance against the "
                             "sum-over-cosets oracle (0 = never)")
    args = parser.parse_args()

    fields = {q: field_from_q(q) for q in args.q}

    branches = Counter()
    checked = 0
    started = time.monotonic()
    for q in args.q:
        for m in args.m:
            rng = random.Random(args.seed + 7919 * q + m)
            for i in range(args.count):
                tri = random_legendre_triple(fields[q], m, rng)
                chi = character_for_triple(tri)
                oracle = bool(args.oracle_every) and checked % args.oracle_every == 0
                report = verify_laumon(chi, tri.b, tri.c, oracle=oracle)
                if not report.ok:
                    print(f"FAIL q={q} m={m} conductor={report.conductor}: "
                          f"{report.mismatch}")
                    return 1
                branches[(tri.n % 2, report.degree % 2)] += 1
                checked += 1
    elapsed = time.monotonic() - started

    print(f"{checked} triples verified in {elapsed:.1f}s "
          f"(q in {args.q}, m in {args.m})")
    print("parity branches (n mod 2, degree mod 2):")
    for key in sorted(branches):
        print(f"  {key}: {branches[key]}")
    missing = {(0, 0), (0, 1), (1, 0), (1, 1)} - set(branches)
    if missing:
        print(f"note: branches never hit: {sorted(missing)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
