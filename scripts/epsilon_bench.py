#!/usr/bin/env python3
"""Closed formulas against the Tate-integral oracle, by conductor exponent.

Samples random ramified characters bucketed by Swan conductor, checks the
closed-form local constant against the coset-sum oracle exactly, and prints
a timing table showing how the two scale.

    python3 scripts/epsilon_bench.py --q 3 --sw-max 5
"""

import argparse
import random
import sys
import time

from ramify.characters import AdditiveCharacter, QuasiCharacter, conductor
from ramify.cyclo import root_of_unity
from ramify.epsilon import epsilon0, epsilon_tate_oracle
from ramify.fields import field_from_q
from ramify.series import LaurentSeries
from ramify.witt import WittVector

PREC = 24


def sample_with_swan(field, rng, sw):
    """A random character with exactly the requested Swan conductor."""
    while True:
        terms = {-sw: field.from_index(1 + rng.randrange(field.q - 1))}
        for e in range(-sw + 1, 1):
            idx = rng.randrange(field.q)
            if idx:
                terms[e] = field.from_index(idx)
        wild = WittVector(0, [LaurentSeries.from_terms(field, terms, PREC)])
        chi = QuasiCharacter(
            field, rng.randrange(field.q - 1),
            root_of_unity(8, rng.randrange(8)), wild,
        )
        if conductor(chi)[1] == sw:
            return chi


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--sw-max", type=int, default=5)
    parser.add_argument("--per-bucket", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    field = field_from_q(args.q)
    p = field.p
    psi = AdditiveCharacter(LaurentSeries.from_terms(field, {0: field.one}, PREC))
    rng = random.Random(args.seed)

    print(f"q = {args.q}: closed form vs oracle, {args.per_bucket} per bucket")
    print(f"{'sw':>4} {'closed (ms)':>12} {'oracle (ms)':>12} {'match':>6}")
    for sw in range(1, args.sw_max + 1):
        if sw % p == 0:
            # length-1 classes have prime-to-p Swan conductor only: a pole
            # of order divisible by p reduces away
            print(f"{sw:>4}   unreachable for m = 0")
            continue
        closed_ms = oracle_ms = 0.0
        for _ in range(args.per_bucket):
            chi = sample_with_swan(field, rng, sw)
            t0 = time.perf_counter()
            eps = epsilon0(chi, psi)
            t1 = time.perf_counter()
            oracle = epsilon_tate_oracle(chi, psi)
            t2 = time.perf_counter()
            if eps.value != oracle:
                print(f"MISMATCH at sw={sw}")
                return 1
            closed_ms += (t1 - t0) * 1000
            oracle_ms += (t2 - t1) * 1000
        n = args.per_bucket
        print(f"{sw:>4} {closed_ms / n:>12.2f} {oracle_ms / n:>12.2f} {'yes':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
