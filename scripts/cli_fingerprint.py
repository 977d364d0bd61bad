"""Fingerprint a fixed list of CLI jobs, every command included: prints one
line ``name exit sha256(stdout)`` per job, then one line
``name exit sha256(stdout + stderr)`` for ``ramify --help``, for each
``ramify <command> --help`` and for one usage error per command.  Run it on
two checkouts and diff the outputs to confirm that a refactor leaves every
byte of these jobs and pages unchanged:
PYTHONPATH=src python scripts/cli_fingerprint.py > after.txt
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from pathlib import Path

from ramify import cli, jsonio
from ramify.fields import field_from_q
from ramify.lft import character_for_triple, random_legendre_triple

# in-band inadmissible (a, b, c) over F_3; c = None takes the default scale
INADMISSIBLE = {
    "zero-a": ({"terms": {}}, {"1": 1}, {"-2": 1}),
    "zero-form": ({"-3": 1}, {"1": 1}, {"-2": 1}),
    "zero-b": ({"-1": 1}, {"terms": {}}, {"-2": 1}),
    "tame": ({"0": 1, "1": 1}, {"1": 1}, {"-2": 1}),
    "depth-overflow": ({"-3": 1, "-1": 1}, {"1": 1}, None),
    "inseparable-b": ({"-1": 1}, {"3": 1}, {"-2": 1}),
    "not-stationary": ({"-4": 1}, {"1": 1}, {"-5": 2}),
    "no-room": ({"-1": 1}, {"3": 1, "4": 1}, None),
    "zero-c": ({"-1": 1}, {"1": 1}, {"terms": {}}),
    "inseparable-c": ({"-1": 1}, {"1": 1}, {"3": 1}),
    # the pair defects above, met while deriving the default scale
    "zero-a-default-c": ({"terms": {}}, {"1": 1}, None),
    "zero-form-default-c": ({"-3": 1}, {"1": 1}, None),
    "zero-b-default-c": ({"-1": 1}, {"terms": {}}, None),
}


def jobs():
    for name, (a, b, c) in INADMISSIBLE.items():
        argv = ["legendre-check", "--q", "3", "--a", json.dumps(a), "--b", json.dumps(b)]
        yield name, argv + ([] if c is None else ["--c", json.dumps(c)])
    for q, m, seed in itertools.product((3, 5, 9), (0, 1), range(10)):
        tri = random_legendre_triple(field_from_q(q), m, random.Random(seed))
        a = json.dumps(jsonio.witt_to_json(tri.a))
        b, c, c_full = (json.dumps(jsonio.series_to_json(s)) for s in (tri.b, tri.c, tri.c_full))
        chi = json.dumps(jsonio.char_to_json(character_for_triple(tri)))
        tag, fq, fm = f"q{q}-m{m}-s{seed}", ["--q", str(q)], ["--q", str(q), "--m", str(m)]
        yield f"legendre-{tag}", ["legendre-check", *fm, "--a", a, "--b", b]
        yield f"legendre-c-{tag}", ["legendre-check", *fm, "--a", a, "--b", b, "--c", c]
        yield f"lft-{tag}", ["lft", *fq, "--char", chi, "--b", b]
        # chi(t) as a root of unity and psi of order -1, 0 or 1 reach every
        # factor of the closed form
        eps_chi = json.dumps({"tame_exponent": seed % (q - 1), "uniformizer_value": [8, seed],
                              "wild": jsonio.witt_to_json(tri.a)})
        eps_psi = json.dumps({str(seed % 3 - 1): 1})
        yield f"epsilon-{tag}", ["epsilon", *fq, "--char", eps_chi, "--psi", eps_psi,
                                 *(["--oracle"] if q != 9 else [])]
        yield f"laumon-{tag}", ["verify-laumon", *fm, "--seed", str(seed)]
        yield f"laumon-b-{tag}", ["verify-laumon", *fm, "--char", chi, "--b", b]
        if q != 9:  # left out at q = 9, where an oracle job takes seconds
            yield f"laumon-oracle-{tag}", ["verify-laumon", *fm, "--seed", str(seed), "--oracle"]
        for which in ("key1", "key6", "key7"):
            argv = ["congruence", *fm, "--which", which,
                    "--theta-samples", "2", "--seed", str(seed)]
            yield f"{which}-{tag}", argv
            yield f"{which}-prec96-{tag}", argv + ["--prec", "96"]
            if which != "key1":  # the triple's own operands, at the full-window scale
                yield f"{which}-abc-{tag}", argv + ["--a", a, "--b", b, "--c", c_full]


BENCH_JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.json"
# commands that the seeded triples above do not reach
OTHER_COMMANDS = ("swan", "rsw", "gauss", "hilbert", "lambda", "dk-dim", "selftest")


def other_jobs():
    for job in json.loads(BENCH_JOBS.read_text())["jobs"]:
        if job["argv"][0] in OTHER_COMMANDS:
            yield f"bench-{job['name']}", job["argv"]
    # an integral class and classes whose leading exponent p divides
    for name, a in (("integral", {"2": 1}), ("nonreduced", {"-3": 1, "-1": 1}),
                    ("nonreduced-m1", {"m": 1, "entries": [{"-3": 1}, {"-1": 1}]})):
        for command in ("swan", "rsw"):
            yield f"{command}-{name}", [command, "--p", "3", "--a", json.dumps(a)]
    for q in (3, 5, 7, 9, 25, 27):
        yield f"gauss-q{q}", ["gauss", "--q", str(q)]
    yield "dk-dim-bad-row", ["dk-dim", "--horizontal", "[[1]]", "--vertical", "[]"]
    yield "dk-dim-unbalanced", ["dk-dim", "--horizontal", "[[1, 0]]",
                                "--vertical", '[["unramified", 4]]']
    # every row of the rank table at infinity, and its degenerate cells
    for q, n, d in itertools.product((3, 5), range(1, 7), range(1, 5)):
        if n % q and d % q:
            yield f"lft-infinity-q{q}-n{n}-d{d}", [
                "lft", "--q", str(q), "--char", json.dumps({"wild": {str(-n): 1}}),
                "--b", json.dumps({str(-d): 1}), "--source", "infinity"]
    for seed in range(10):
        yield f"selftest-s{seed}", ["selftest", "--seed", str(seed)]
    # lft and verify-laumon read a character through its reduced wild layer:
    # the class of t^-1 at p = 3 by three layers, an integral class, and a
    # level-15 layer of form depth 6 at q = 5
    for name, q, wild, b in (("t-1", 3, {"-1": 1}, {"1": 1}), ("t-3", 3, {"-3": 1}, {"1": 1}),
                             ("t-3+t-1", 3, {"-3": 1, "-1": 1}, {"1": 1}),
                             ("integral", 3, {"-3": 1, "-1": 2}, {"1": 1}),
                             ("level15", 5, {"-15": 1, "-6": 1, "-3": 4, "-2": 3}, {"1": 1, "2": 2})):
        argv = ["--q", str(q), "--char", json.dumps({"wild": wild}), "--b", json.dumps(b)]
        yield f"lft-class-{name}", ["lft", *argv]
        yield f"laumon-class-{name}", ["verify-laumon", *argv, "--oracle"]
    # non-reduced length-3 classes, whose reduction adds Witt vectors of
    # length 3
    for p in (5, 7, 11):
        a = {"m": 2, "entries": [{str(-p): 1, "-1": 1}, {"-3": 2}, {"-10": 1}]}
        yield f"swan-len3-p{p}", ["swan", "--p", str(p), "--a", json.dumps(a)]
    # large fields, whose values live far below the character level
    # (q - 1) p^(m+1): they finish only if each value is built at its own level
    for q in (211, 1331, 2003):
        yield f"gauss-q{q}", ["gauss", "--q", str(q)]
    yield "laumon-q211-s0", ["verify-laumon", "--q", "211", "--seed", "0"]
    # a value at the large squarefree level 22155 = 3 * 5 * 7 * 211, which
    # finishes in bounded time only if reducing mod Phi_N is no long division
    yield "epsilon-q211-t1", ["epsilon", "--q", "211", "--char", '{"tame_exponent":1}']
    # a Laumon job at q = 1009: the inverse of its determinant factor, a value
    # of level 1009 whose product with its complex conjugate is rational, is
    # one product by that conjugate, where the tower of levels takes about 1008 products
    yield "laumon-q1009-s0", ["verify-laumon", "--q", "1009", "--seed", "0"]


def usage_error(command):
    """An integer flag of the command given "x": the subcommand's own usage
    error, which prints its usage line."""
    flag = next(f for f in cli.COMMAND_TABLE[command].flags if f.kind in ("field", "int"))
    return [command, "--p" if flag.kind == "field" else "--" + flag.key, "x"]


def pages():
    yield "help", ["--help"]
    for command in cli.COMMAND_TABLE:
        yield f"help-{command}", [command, "--help"]
        yield f"usage-{command}", usage_error(command)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    for name, argv in itertools.chain(jobs(), other_jobs()):
        code, out, _ = run(argv)
        print(name, code, digest(out))
    for name, argv in pages():
        code, out, err = run(argv)
        print(name, code, digest(out + err))
