"""Layer and class timings of the epsilon path, for one or more source trees.

    python scripts/bench.py SRC [SRC ...] --out BENCH.json [--rounds 3]

Each SRC is a ``src`` directory holding the ``ramify`` package, such as
the ``src`` of this checkout and that of a copy of its parent commit.  Every
round times each SRC once, in a fresh process, in the order given, so two
trees alternate on one host; a row keeps its minimum over the rounds.  The
JSON file records, per SRC in the order given, its git sha (None outside a
repository), whether it has uncommitted changes, a digest of the package
and every row; and once, the host's ``nproc`` and the Python version.

The layer rows are ms per call, each the median of a few repeats of a fixed
batch on seeded operands: F_p, F_9 and Z/p^(m+1) products, series ``*``,
``inverse`` and ``derivative`` over F_5 and Z/25 (f = 1), over F_9 and its
Witt coefficient ring Z9[X]/h at m = 1 (f = 2), and over F_6561 (f = 8, the
field of ``swan --q 6561``), the residue pairing
``witt_pairing``, the oracle's table of unit pairings, ``digit_traces`` on
a fresh additive character, and the cyclotomic layer: ``*``, ``inverse``
(down the tower of levels), ``**`` of a monomial and of a dense number,
``pretty`` and ``hash`` at N = 144, ``inverse`` of ``quad_gauss(F_211)``
and ``quad_gauss(F_1009)`` (by the complex conjugate), then, once each,
``gauss_sum`` over F_243, F_211 and F_2003 with the first two ``pretty``,
``root_of_unity(44310, 211)`` and zeta_N + zeta_N^-1 at N = 14630, 22155 and
44310, which takes a full reduction mod Phi_N; last, ``witt_add`` of
length-(m+1) vectors over F_(p^f) at window 24 for each (p, f, m) in
WITT_CLASSES.

The class rows time ``epsilon0`` at input windows 24 and 96 and
``epsilon_tate_oracle`` at window 24 for each (q, m, a) class, on seeded
characters with random digits over the whole window, the wild part reduced
first; each draw runs on fresh characters, so their memos start cold, and
keeps its minimum over the repeats; a row is the median over the draws.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROUND_TIMEOUT_S = 600
CLASSES = [(3, 0, 2), (3, 0, 3), (3, 0, 5), (3, 1, 2), (3, 1, 3), (3, 1, 5),
           (5, 0, 2), (5, 0, 4), (5, 1, 2), (5, 1, 3), (9, 0, 2), (9, 1, 2)]
WINDOWS = (24, 96)
ORACLE_WINDOW = 24
DRAWS = 7
REPEATS = 3
N = 144
WITT_CLASSES = [(3, 1, 1), (5, 1, 1), (7, 1, 1), (3, 2, 1), (3, 3, 1), (3, 1, 2), (5, 1, 2)]


def median_ms(fn, count, repeats=5):
    """ms per call of fn, which makes ``count`` calls: the median of repeats."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3 / count


def once_ms(fn):
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1e3


def import_ramify():
    """Bind every library name the timings read, from the ramify on sys.path."""
    global AdditiveCharacter, QuasiCharacter, conductor, witt_pairing, CycloNumber, embed
    global euler_phi, pretty, root_of_unity, _unit_pairings, epsilon0, epsilon_tate_oracle
    global gauss_sum, quad_gauss, WittCoeffRing, field_from_q, make_field, LaurentSeries
    global WittVector, witt_add
    from ramify.characters import AdditiveCharacter, QuasiCharacter, conductor, witt_pairing
    from ramify.cyclo import CycloNumber, embed, euler_phi, pretty, root_of_unity
    from ramify.epsilon import (_unit_pairings, epsilon0, epsilon_tate_oracle, gauss_sum,
                                quad_gauss)
    from ramify.fields import WittCoeffRing, field_from_q, make_field
    from ramify.series import LaurentSeries
    from ramify.witt import WittVector, witt_add


def layer_rows():
    rng = random.Random(42)
    rows = {}
    F5, F9 = make_field(5, 1), make_field(3, 2)
    rings = {"F5": F5, "F9": F9, "Z25": WittCoeffRing.for_field(F5, 1),
             "Z9[X]/h": WittCoeffRing.for_field(F9, 1)}

    def draw(ring, unit=False):
        if isinstance(ring, WittCoeffRing):
            digits = [rng.randrange(ring.modulus_int) for _ in range(ring.f)]
            if unit:
                digits[0] = 1 + rng.randrange(ring.modulus_int - 1) // ring.field.p * ring.field.p
            return type(ring.one)(ring, digits)
        return ring.from_index(rng.randrange(1 if unit else 0, ring.q))

    for name, ring in rings.items():
        xs = [draw(ring) for _ in range(200)]
        rows[f"fields.mul.{name}"] = median_ms(lambda: [a * b for a, b in zip(xs, xs[1:])], 199)
    for name in ("F5", "Z25", "F9", "Z9[X]/h", "F6561"):
        ring = rings.get(name) or make_field(3, 8)
        series = [LaurentSeries.make(ring, -3, [draw(ring, unit=True)] + [
            draw(ring) for _ in range(23)], 21) for _ in range(8)]
        rows[f"series.mul.{name}"] = median_ms(
            lambda: [a * b for a, b in zip(series, series[1:])], 7)
        rows[f"series.inverse.{name}"] = median_ms(lambda: [a.inverse() for a in series], 8)
        rows[f"series.derivative.{name}"] = median_ms(
            lambda: [a.derivative() for a in series], 8)

    def wild_char(field, m):
        entries = [LaurentSeries.make(field, -6 + 2 * i, [draw(field, unit=True)] + [
            draw(field) for _ in range(39)], 34 + 2 * i) for i in range(m + 1)]
        return QuasiCharacter(field, 1, root_of_unity(8, 3), WittVector(m, entries))

    for field, m in ((F5, 1), (F9, 1)):
        chi = wild_char(field, m)
        z = chi.reduced_wild()
        units = [LaurentSeries.make(field, 0, [draw(field, unit=True)] + [
            draw(field) for _ in range(39)], 40) for _ in range(8)]
        rows[f"characters.witt_pairing.q{field.q}"] = median_ms(
            lambda: [witt_pairing(z, u) for u in units], 8)
        chi.pairing_series()
        rows[f"epsilon.unit_pairings.q{field.q}"] = median_ms(lambda: _unit_pairings(chi, 7), 1)
    for q, field in ((9, F9), (25, make_field(5, 2))):
        omega = LaurentSeries.make(field, -1, [draw(field, unit=True)] + [
            draw(field) for _ in range(7)], 7)
        rows[f"characters.digit_traces.q{q}"] = median_ms(
            lambda: [AdditiveCharacter(omega).digit_traces(n) for n in range(-1, 7)], 8)

    deg = euler_phi(N)
    dense = [CycloNumber(N, [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                             for _ in range(deg)]) for _ in range(8)]
    integral = [CycloNumber(N, [rng.randrange(-6, 7) for _ in range(deg)]) for _ in range(2)]
    # numbers of level 24 written at level 144, so that pretty and hash descend
    low = [embed(CycloNumber(24, [rng.randrange(-6, 7) for _ in range(8)]), N) for _ in range(8)]
    monomials = [root_of_unity(N, k) * Fraction(-3, 2) for k in range(1, 9)]
    cyclo = {
        "mul": (lambda: [a * b for a, b in zip(dense, dense[1:])], 7),
        "inverse": (lambda: [x.inverse() for x in integral], 2),
        "pow_monomial": (lambda: [x ** -5 for x in monomials], 8),
        "pow_dense": (lambda: [x ** 3 for x in dense[:2]], 2),
        "pretty": (lambda: [pretty(x) for x in dense], 8),
        "pretty_level24": (lambda: [pretty(x) for x in low], 8),
        "hash": (lambda: [hash(x) for x in dense], 8),
        "hash_level24": (lambda: [hash(x) for x in low], 8),
    }
    for name, (fn, count) in cyclo.items():
        rows[f"cyclo.N{N}.{name}"] = median_ms(fn, count)
    for q in (211, 1009):
        G = quad_gauss(make_field(q, 1))
        rows[f"cyclo.quad_gauss_F{q}.inverse"] = once_ms(G.inverse)
    for p, f in ((3, 5), (211, 1)):
        field = make_field(p, f)
        rows[f"cyclo.gauss_sum_F{field.q}"] = once_ms(lambda: gauss_sum(field, 1))
        g = gauss_sum(field, 1)
        rows[f"cyclo.gauss_sum_F{field.q}.pretty"] = once_ms(lambda: pretty(g))
    field = make_field(2003, 1)
    rows["cyclo.gauss_sum_F2003"] = once_ms(lambda: gauss_sum(field, 0))
    rows["cyclo.root_of_unity_44310"] = once_ms(lambda: root_of_unity(44310, 211))
    for n in (14630, 22155, 44310):
        rows[f"cyclo.zeta_plus_inverse_{n}"] = once_ms(
            lambda: CycloNumber.from_monomials(n, [(1, 1), (-1, 1)]))
    for p, f, m in WITT_CLASSES:
        field = make_field(p, f)
        pairs = [[WittVector(m, [LaurentSeries.make(field, -4, [draw(field, unit=True)] + [
            draw(field) for _ in range(27)], 24) for _ in range(m + 1)]) for _ in range(2)]
            for _ in range(4)]
        rows[f"witt.add.p{p}f{f}m{m}"] = median_ms(lambda: [witt_add(a, b) for a, b in pairs], 4)
    return rows


def class_rows():
    def series(field, rng, vmin, prec, lead):
        terms = {e: field.from_index(rng.randrange(field.q)) for e in range(vmin, prec)}
        terms[lead] = field.from_index(rng.randrange(1, field.q))
        return LaurentSeries.from_terms(field, terms, prec)

    def draw(q, m, a, prec, rng):
        """The arguments of a character of conductor exactly a, and the
        1-form of an additive character."""
        field, sw = field_from_q(q), a - 1
        while True:
            entries = [series(field, rng, -(sw // field.p ** (m - i)), prec,
                              -sw if i == m else 1) for i in range(m + 1)]
            args = (field, rng.randrange(q - 1), root_of_unity(8, rng.randrange(8)),
                    WittVector(m, entries))
            if conductor(QuasiCharacter(*args))[0] == a:
                break
        d = rng.randrange(-1, 2)
        return args, series(field, rng, d, prec, d)

    def timed_ms(func, args, omega):
        chi, psi = QuasiCharacter(*args), AdditiveCharacter(omega)
        conductor(chi)  # the reduction of the wild part, outside the timing
        start = time.perf_counter()
        func(chi, psi)
        return (time.perf_counter() - start) * 1e3

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
    out = []
    for q, m, a in CLASSES:
        row = {"q": q, "m": m, "a": a}
        for prec in WINDOWS:
            row[f"closed_ms@{prec}"] = statistics.median(best[epsilon0, (q, m, a, prec)])
        row[f"oracle_ms@{ORACLE_WINDOW}"] = statistics.median(
            best[epsilon_tate_oracle, (q, m, a, ORACLE_WINDOW)])
        out.append(row)
    return out


def source_id(src):
    """The git sha of the tree holding src (None outside a repository),
    whether src has uncommitted changes there, and a digest of the package."""
    out = {"git_sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", src, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        dirty = subprocess.run(["git", "-C", src, "status", "--porcelain", "--", "."],
                               capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            out = {"git_sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(src, "ramify")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {**out, "src_sha256": digest.hexdigest()}


def child(src):
    sys.path.insert(0, os.path.abspath(src))
    import_ramify()
    print(json.dumps({"layers": layer_rows(), "classes": class_rows()}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="src directories that hold ramify")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args.src[0])
    runs = [{**source_id(src), "layers": {}, "classes": None} for src in args.src]
    for _ in range(args.rounds):
        for src, run in zip(args.src, runs):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), src,
                                   "--out", os.devnull, "--child"], capture_output=True,
                                  text=True, timeout=ROUND_TIMEOUT_S, check=True,
                                  env=dict(os.environ, PYTHONHASHSEED="0"))
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, ms in res["layers"].items():
                run["layers"][name] = min(ms, run["layers"].get(name, math.inf))
            if run["classes"] is None:
                run["classes"] = res["classes"]
            else:
                run["classes"] = [{k: min(v, old[k]) for k, v in new.items()}
                                  for old, new in zip(run["classes"], res["classes"])]
    with open(args.out, "w") as fh:
        json.dump({"nproc": os.cpu_count(), "python": platform.python_version(),
                   "rounds": args.rounds, "runs": runs}, fh, indent=1)
    for name in runs[0]["layers"]:
        print(name, " ".join(f"{run['layers'].get(name, math.nan):.4f}" for run in runs))
    for k, row in enumerate(runs[0]["classes"]):
        print(row["q"], row["m"], row["a"], " | ".join(
            " ".join(f"{v:.3f}" for key, v in run["classes"][k].items() if "ms" in key)
            for run in runs))


if __name__ == "__main__":
    sys.exit(main())
