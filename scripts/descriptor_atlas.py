#!/usr/bin/env python3
"""Atlas of transform descriptors for monomial characters.

Walks the characters with wild part x * t^(-n) through coverings t = s^d
and prints the resulting descriptor rows: target point, degree, Swan,
rank, and the pushed tame exponent.  Degenerate cells are marked: 'p | n'
(no such depth), 'insep' (the stationary scale has no separable window),
and 'slope 1' (transform from infinity degenerates).

    python3 scripts/descriptor_atlas.py --q 5 --n-max 6
"""

import argparse
import sys

from ramify.characters import QuasiCharacter
from ramify.cyclo import CycloNumber
from ramify.epsilon import TotallyRamifiedExt, induced_swan
from ramify.errors import (
    NotLegendre,
    PrecisionExhausted,
    SlopeConditionViolated,
)
from ramify.fields import field_from_q
from ramify.lft import lft_descriptor, stationary_c
from ramify.series import LaurentSeries
from ramify.witt import WittVector

PREC = 24


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--d-max", type=int, default=4)
    parser.add_argument("--source", choices=("0", "infinity"), default="0")
    args = parser.parse_args()

    field = field_from_q(args.q)
    p = field.p

    print(f"q = {args.q}, source = {args.source}; "
          f"wild part t^(-n), covering t = s^d")
    print(f"{'n':>3} {'d':>3} {'target':>9} {'deg':>4} {'swan':>5} "
          f"{'rank':>5} {'tame':>5}")
    for n in range(1, args.n_max + 1):
        if n % p == 0:
            print(f"{n:>3}   -       p | n")
            continue
        wild = WittVector(
            0, [LaurentSeries.from_terms(field, {-n: field.one}, PREC)]
        )
        chi = QuasiCharacter(field, 0, CycloNumber.from_rational(1, 1), wild)
        for d in range(1, args.d_max + 1):
            if d % p == 0:
                continue
            e = d if args.source == "0" else -d
            b = LaurentSeries.t_power(field, e, PREC)
            if args.source == "infinity":
                ext = TotallyRamifiedExt(b.inverse())
                if induced_swan(ext, chi) == ext.degree:
                    print(f"{n:>3} {d:>3}   slope 1")
                    continue
            try:
                c = stationary_c(chi.wild, b)
                desc = lft_descriptor(chi, b, c, source=args.source)
            except SlopeConditionViolated:
                print(f"{n:>3} {d:>3}   slope 1")
                continue
            except PrecisionExhausted:
                print(f"{n:>3} {d:>3}   insep")
                continue
            except NotLegendre as exc:
                print(f"{n:>3} {d:>3}   rejected: {exc}")
                continue
            print(f"{n:>3} {d:>3} {desc.target:>9} {desc.degree:>4} "
                  f"{desc.swan:>5} {desc.rank:>5} "
                  f"{desc.pushed.tame_exponent:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
