"""Time the epsilon closed form per (q, m, a) class at input windows 24 and
96, and the Tate-integral oracle at window 24: seeded characters and
additive characters with random digits over the whole window, the wild part
reduced first, then ``epsilon0`` or ``epsilon_tate_oracle`` timed alone.
Each draw is timed in REPEATS whole passes over all draws, each time on a
fresh ``QuasiCharacter`` and ``AdditiveCharacter`` so that their memos start
cold, and keeps its minimum.  Prints one line ``q m a ms@24 ms@96
oracle@24`` per class, each the median over the class's draws.  Run it on
two checkouts to compare them on the same draws:

    PYTHONPATH=src python scripts/closed_form_timing.py
"""

import math
import random
import statistics
import time

from ramify.characters import AdditiveCharacter, QuasiCharacter, conductor
from ramify.cyclo import root_of_unity
from ramify.epsilon import epsilon0, epsilon_tate_oracle
from ramify.fields import field_from_q
from ramify.series import LaurentSeries
from ramify.witt import WittVector

CLASSES = [(3, 0, 2), (3, 0, 3), (3, 0, 5), (3, 1, 2), (3, 1, 3), (3, 1, 5),
           (5, 0, 2), (5, 0, 4), (5, 1, 2), (5, 1, 3), (9, 0, 2), (9, 1, 2)]
WINDOWS = (24, 96)
ORACLE_WINDOW = 24
DRAWS = 7
REPEATS = 5


def series(field, rng, vmin, prec, lead):
    terms = {e: field.from_index(rng.randrange(field.q)) for e in range(vmin, prec)}
    terms[lead] = field.from_index(rng.randrange(1, field.q))
    return LaurentSeries.from_terms(field, terms, prec)


def draw(q, m, a, prec, rng):
    """One draw of conductor exactly a: the arguments of its character and
    the 1-form of its additive character."""
    field, sw = field_from_q(q), a - 1
    while True:
        entries = [series(field, rng, -(sw // field.p ** (m - i)), prec, -sw if i == m else 1)
                   for i in range(m + 1)]
        args = (field, rng.randrange(q - 1), root_of_unity(8, rng.randrange(8)),
                WittVector(m, entries))
        if conductor(QuasiCharacter(*args))[0] == a:
            break
    d = rng.randrange(-1, 2)
    return args, series(field, rng, d, prec, d)


def timed_ms(func, args, omega):
    """The ms that ``func`` takes on fresh characters, the wild part
    reduced first."""
    chi, psi = QuasiCharacter(*args), AdditiveCharacter(omega)
    conductor(chi)
    start = time.perf_counter()
    func(chi, psi)
    return (time.perf_counter() - start) * 1e3


def main():
    draws = {}
    for q, m, a in CLASSES:
        for prec in WINDOWS:
            rng = random.Random(f"{q} {m} {a}")
            draws[q, m, a, prec] = [draw(q, m, a, prec, rng) for _ in range(DRAWS)]
    timings = [(epsilon0, key) for key in draws] + [
        (epsilon_tate_oracle, key) for key in draws if key[3] == ORACLE_WINDOW]
    best = {timing: [math.inf] * DRAWS for timing in timings}
    for _ in range(REPEATS):  # whole passes, so a slow spell of the host spoils one
        for func, key in timings:
            best[func, key] = [min(ms, timed_ms(func, *d))
                               for ms, d in zip(best[func, key], draws[key])]
    for q, m, a in CLASSES:
        cols = [statistics.median(best[epsilon0, (q, m, a, prec)]) for prec in WINDOWS]
        cols.append(statistics.median(best[epsilon_tate_oracle, (q, m, a, ORACLE_WINDOW)]))
        print(q, m, a, " ".join(f"{ms:.3f}" for ms in cols))


if __name__ == "__main__":
    main()
