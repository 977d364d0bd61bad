"""Time the cyclotomic layer on fixed operands: ``*``, ``inverse``, ``pretty``
and ``hash`` at N = 144, then ``gauss_sum(F_243, 1)`` and its ``pretty``.
Prints one line ``name milliseconds`` per row, each the median of a few
repeats.  Run it on two checkouts to compare them on the same operands:

    PYTHONPATH=src python scripts/cyclo_timing.py
"""

import random
import statistics
import time
from fractions import Fraction

from ramify.cyclo import CycloNumber, embed, euler_phi, pretty
from ramify.epsilon import gauss_sum
from ramify.fields import make_field

N = 144


def median_ms(fn, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main():
    rng = random.Random(144)
    deg = euler_phi(N)
    dense = [CycloNumber(N, [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                             for _ in range(deg)]) for _ in range(8)]
    integral = [CycloNumber(N, [rng.randrange(-6, 7) for _ in range(deg)]) for _ in range(2)]
    # numbers of level 24 written at level 144, so that pretty and hash descend
    low = [embed(CycloNumber(24, [rng.randrange(-6, 7) for _ in range(8)]), N) for _ in range(8)]
    rows = {
        "mul": (lambda: [a * b for a, b in zip(dense, dense[1:])], 7),
        "inverse": (lambda: [x.inverse() for x in integral], 2),
        "pretty": (lambda: [pretty(x) for x in dense], 8),
        "pretty_level24": (lambda: [pretty(x) for x in low], 8),
        "hash": (lambda: [hash(x) for x in dense], 8),
        "hash_level24": (lambda: [hash(x) for x in low], 8),
    }
    for name, (fn, count) in rows.items():
        print(f"N{N}.{name} {median_ms(fn) / count:.3f}")
    field = make_field(3, 5)
    start = time.perf_counter()
    g = gauss_sum(field, 1)
    print(f"gauss_sum_F243 {(time.perf_counter() - start) * 1e3:.3f}")
    start = time.perf_counter()
    pretty(g)
    print(f"gauss_sum_F243.pretty {(time.perf_counter() - start) * 1e3:.3f}")


if __name__ == "__main__":
    main()
