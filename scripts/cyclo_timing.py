"""Time the cyclotomic layer on fixed operands: ``*``, ``inverse`` (down the
tower of levels), ``pretty`` and ``hash`` at N = 144, ``inverse`` of
``quad_gauss(F_211)`` and ``quad_gauss(F_1009)`` (by the complex conjugate,
as G Gbar = q), then ``gauss_sum(F_243, 1)`` and its ``pretty``,
``gauss_sum(F_211, 1)`` and its ``pretty``, ``gauss_sum(F_2003, 0)``,
``root_of_unity(44310, 211)`` (44310 = 210 * 211, the character level of
F_211) and zeta_N + zeta_N^-1 at N = 14630, 22155 and 44310, which has a
term above degree phi(N) and so takes a full reduction mod Phi_N.  Prints
one line ``name milliseconds`` per row, the first six each the median of a
few repeats, the rest one run each.  Run it on two checkouts to compare
them on the same operands:

    PYTHONPATH=src python scripts/cyclo_timing.py
"""

import random
import statistics
import time
from fractions import Fraction

from ramify.cyclo import CycloNumber, embed, euler_phi, pretty, root_of_unity
from ramify.epsilon import gauss_sum, quad_gauss
from ramify.fields import make_field

N = 144


def median_ms(fn, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def once_ms(name, fn):
    """Run fn once, print its row and return its value."""
    start = time.perf_counter()
    out = fn()
    print(f"{name} {(time.perf_counter() - start) * 1e3:.3f}")
    return out


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
    for q in (211, 1009):
        G = quad_gauss(make_field(q, 1))
        once_ms(f"quad_gauss_F{q}.inverse", G.inverse)
    for p, f in ((3, 5), (211, 1)):
        field = make_field(p, f)
        g = once_ms(f"gauss_sum_F{field.q}", lambda: gauss_sum(field, 1))
        once_ms(f"gauss_sum_F{field.q}.pretty", lambda: pretty(g))
    field = make_field(2003, 1)
    once_ms("gauss_sum_F2003", lambda: gauss_sum(field, 0))
    once_ms("root_of_unity_44310", lambda: root_of_unity(44310, 211))
    for n in (14630, 22155, 44310):
        once_ms(f"zeta_plus_inverse_{n}", lambda: CycloNumber.from_monomials(n, [(1, 1), (-1, 1)]))


if __name__ == "__main__":
    main()
