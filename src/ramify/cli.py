"""Batch command-line front end.

Each invocation runs one job: operands arrive as JSON flags, the exact
result leaves as a single JSON object on stdout, and a one-line summary
goes to stderr.  Exit codes: 0 when the computation succeeds and every
identity the job asserts holds; 2 when an asserted identity fails (stdout
then carries a diagnostic naming the first failing factor); 1 for
malformed input, a usage error or an insufficient precision window.

Randomized subcommands (verify-laumon and congruence without explicit
operands, selftest) draw from ``random.Random(seed)``; the default seed
is 0 and identical jobs produce byte-identical output.
"""

import argparse
import contextlib
import functools
import json
import random
import sys
from collections import namedtuple

# Only what every job needs is imported here; each command imports the
# modules it runs, so a job pays start-up for those alone.
from . import jsonio
from .errors import (
    HypothesisViolated, NotLegendre, RamifyError, SchemaError, VerificationFailure,
)
from .fields import field_from_q, make_field
from .jsonio import DEFAULT_PREC

DEFAULT_SEED = 0


class Flag(namedtuple("Flag", "key kind help required default",
                      defaults=(None, False, None))):
    """One command-line flag, ``--key``, and the job attribute it fills.

    ``kind`` is "int", "bool", a tuple of choices, "json" (a raw JSON
    value), "field" (the --p/--f/--q group, attribute "field"), or the
    name of the ``jsonio`` decoder of a JSON operand: "witt", "series",
    "char" or "psi".  ``default`` is the value used when the flag is
    absent or null.
    """

    __slots__ = ()


# help text, implementation, flags in --help order
Command = namedtuple("Command", "help op flags")


_OPERANDS = ("witt", "series", "char", "psi")

_FIELD_ARGS = (
    ("--p", {"type": int, "help": "residue characteristic (odd prime)"}),
    ("--f", {"type": int, "default": 1, "help": "extension degree over F_p"}),
    ("--q", {"type": int,
             "help": "residue-field size as a prime power (alternative to --p/--f)"}),
)


# -- command implementations: each takes the decoded flags -----------------------


def _fail(message, failed, **detail):
    """Exit 2: an asserted identity came out false; the diagnostic names the
    failing factor under "failed", then gives ``detail`` in order."""
    raise VerificationFailure(message, detail={"failed": failed, **detail})


def _op_swan(job):
    from .witt import refined_swan, swan_conductor

    sw, reduced = swan_conductor(job.a)
    if sw == 0:
        result = {"swan": 0, "conductor": 0, "rsw": None}
        return result, "swan 0 (integral class)"
    n, coeff = refined_swan(reduced)
    result = {"swan": sw, "conductor": sw + 1,
              "rsw": {"n": n, "coeff": jsonio.element_str(coeff)}}
    return result, f"swan {sw}, conductor exponent {sw + 1}"


def _op_rsw(job):
    from .witt import refined_swan, swan_conductor

    _sw, reduced = swan_conductor(job.a)
    n, coeff = refined_swan(reduced)
    result = {"n": n, "coeff": jsonio.element_str(coeff), "swan": n}
    return result, f"depth {n}, leading coefficient {jsonio.element_str(coeff)}"


def _op_epsilon(job):
    from .characters import conductor
    from .cyclo import pretty
    from .epsilon import epsilon0, epsilon_tate_oracle

    chi, psi = job.char, job.psi
    eps = epsilon0(chi, psi)
    oracle_match = None
    if job.oracle:
        oracle = epsilon_tate_oracle(chi, psi)
        oracle_match = oracle == eps.value
        if not oracle_match:
            _fail("closed-form epsilon disagrees with the sum-over-cosets oracle",
                  "epsilon-closed-form", value=pretty(eps.value), oracle=pretty(oracle))
    result = {
        "value": pretty(eps.value),
        "branch": eps.branch,
        "conductor": list(conductor(chi)),
        "c": jsonio.series_to_json(eps.c) if eps.c is not None else None,
        "oracle_match": oracle_match,
    }
    return result, f"epsilon0 = {result['value']} ({eps.branch})"


def _op_lambda(job):
    from .cyclo import pretty
    from .epsilon import TotallyRamifiedExt, lambda_factor

    ext = TotallyRamifiedExt(job.b)
    lam = lambda_factor(ext)
    result = {"value": pretty(lam.value), "branch": lam.branch, "degree": ext.degree,
              "different_ord": ext.different_ord}
    return result, f"lambda = {result['value']} for a degree-{ext.degree} extension"


def _op_hilbert(job):
    from .characters import hilbert_symbol

    result = {"symbol": hilbert_symbol(job.x, job.y)}
    return result, f"(x, y) = {result['symbol']}"


def _op_gauss(job):
    from .cyclo import pretty
    from .epsilon import gauss_sum, quad_gauss

    field = job.field
    G = quad_gauss(field)
    G2 = G * G
    identity = G2 == field.kappa0(-field.one) * field.q and gauss_sum(field, 0) == 1
    if not identity:
        _fail("quadratic Gauss-sum square identity failed", "gauss-square",
              G=pretty(G), G2=pretty(G2))
    result = {"G": pretty(G), "G2": pretty(G2), "identity_lef5c": identity}
    return result, f"G = {result['G']}, G^2 = {result['G2']}"


def _check_witt_length(name, m, job):
    if m != job.m:
        raise SchemaError(f"{name} has Witt length m = {m}, job says m = {job.m}")


def _op_legendre_check(job):
    from .lft import (
        LegendreTriple, gamma, guaranteed_mod_t, square_class_checks, stationary_c,
    )

    a, b, c = job.a, job.b, job.c
    _check_witt_length("a", a.m, job)
    try:
        triple = LegendreTriple(a, b, c)
    except NotLegendre as exc:
        if c is None:  # where no default scale exists, a and b stamp alone
            with contextlib.suppress(RamifyError):
                c = stationary_c(a, b)
        result = {"ok": False, "first_violation": str(exc), "conductor": None,
                  "guaranteed_mod_t": guaranteed_mod_t(a, b, c)}
        return result, f"not admissible: {result['first_violation']}"
    cond = triple.conductor
    g = gamma(triple)
    sq = square_class_checks(triple)
    if g.is_zero() or not sq.ok:
        _fail("square-class invariant failed on an admissible triple", "square-class",
              conductor=list(cond))
    result = {
        "ok": True,
        "conductor": list(cond),
        "parity_even": triple.parity_even,
        "gamma": jsonio.element_str(g),
        "square_class": sq._asdict(),
        "guaranteed_mod_t": guaranteed_mod_t(a, b, triple.c),
    }
    return result, f"admissible, conductor triple {tuple(cond)}"


def _op_lft(job):
    from .characters import conductor
    from .cyclo import pretty
    from .lft import guaranteed_mod_t, lft_descriptor

    chi, b = job.char, job.b
    desc = lft_descriptor(chi, b, job.c, source=job.source)
    result = {
        "source": desc.source,
        "target": desc.target,
        "degree": desc.degree,
        "swan": desc.swan,
        "rank": desc.rank,
        "pushed": jsonio.char_to_json(desc.pushed) | {"conductor": list(conductor(desc.pushed))},
        "gauss_twist": pretty(desc.gauss_twist),
        "guaranteed_mod_t": guaranteed_mod_t(chi.wild, b, desc.triple.c),
    }
    return result, f"transform: {desc.source} -> {desc.target}, degree {desc.degree}"


def _draws(job, command, operand):
    """None when the job gives its ``operand``, checked against --m; else the
    seeded job's admissible triples, drawn from random.Random(seed) over its
    field at its Witt length and window.  A seeded job gives neither b nor c."""
    from .lft import random_legendre_triple

    given = getattr(job, operand)
    if given is not None:
        _check_witt_length(operand, given.m, job)
        return None
    if job.b is not None or job.c is not None:
        raise SchemaError(f"{command}: b and c need an explicit {operand}")
    rng = random.Random(job.seed)
    return iter(lambda: random_legendre_triple(job.field, job.m, rng, prec=job.prec), None)


def _op_verify_laumon(job):
    from .cyclo import pretty
    from .lft import character_for_triple, verify_laumon

    if job.char is not None and job.b is None:
        raise SchemaError("verify-laumon: explicit char needs b as well")
    chi, b, c = job.char, job.b, job.c
    draws = _draws(job, "verify-laumon", "char")
    if draws is not None:
        triple = next(draws)
        chi, b, c = character_for_triple(triple), triple.b, triple.c
    report = verify_laumon(chi, b, c, oracle=job.oracle)
    result = {"product_identity": report.product_identity,
              "lhs_equals_rhs": report.lhs_equals_rhs}
    if not report.ok:
        _fail("stationary-phase factorization identity failed", report.mismatch, **result,
              lhs=pretty(report.lhs), rhs=pretty(report.rhs))
    if job.oracle:
        result["oracle_match"] = report.oracle_match
    return result, (f"identity holds: lhs = rhs = {pretty(report.lhs)}, "
                    f"conductor triple {report.conductor}")


def _op_congruence(job):
    from .lft import congruence_check, guaranteed_mod_t

    which = job.which
    check = functools.partial(congruence_check, which, r=job.r,
                              theta_samples=job.theta_samples, seed=job.seed)
    draws = _draws(job, "congruence", "a")
    if draws is None:
        a, b, c = job.a, job.b, job.c
        if which != "key1" and (b is None or c is None):
            raise SchemaError(f"{which} needs both b and c")
        report = check(a, b, c)
    else:
        # up to 20 draws, redrawn while the check rejects a hypothesis, which
        # it does before any sampling; key6/key7 take the full-window
        # stationary scale, so the defect of alpha + c b' is certified small
        for draw, triple in enumerate(draws, 1):
            a, b, c = ((triple.a, None, None) if which == "key1"
                       else (triple.a, triple.b, triple.c_full))
            try:
                report = check(a, b, c)
                break
            except HypothesisViolated:
                if draw == 20:
                    raise
    stamp = guaranteed_mod_t(*(x for x in (a, b, c) if x is not None))
    if not report.ok:
        _fail("congruence defect escaped its filtration level", which,
              first_failure=report.failures[0], samples=report.samples)
    result = {"ok": True, **report._asdict(), "guaranteed_mod_t": stamp}
    del result["failures"]  # empty: the report is ok
    return result, (f"{which}: {report.samples} specializations inside level "
                    f"{report.membership_level}")


def _op_dk_dim(job):
    from .lft import DKInput, dk_dimension, dk_phi

    if not isinstance(job.horizontal, list) or not isinstance(job.vertical, list):
        raise SchemaError("dk-dim: horizontal and vertical must be lists")

    def pairs(key, first, second):  # first is None for a str kind
        out = []
        for row in getattr(job, key):
            if (not isinstance(row, list) or len(row) != 2
                    or first is None and not isinstance(row[0], str)):
                raise SchemaError(
                    f"dk-dim: {key} row {row!r} is not [{first or 'kind'}, {second}]")
            out.append((row[0] if first is None else jsonio.strict_int(row[0], first),
                        jsonio.strict_int(row[1], second)))
        return tuple(out)

    delta = job.delta
    inp = DKInput(pairs("horizontal", "degree", "swan"), pairs("vertical", None, "value"),
                  delta)
    phi_eta, phi_s = dk_phi(inp)
    dim = dk_dimension(inp)
    result = {"phi_generic": phi_eta, "phi_special": phi_s, "delta": delta, "dimension": dim}
    return result, f"dimension {dim} = {phi_eta} + 2*{delta} - {phi_s}"


def _op_selftest(job):
    from .lft import draw_window

    seed = job.seed
    # (name, argv, predicate on the result beyond the command's own checks);
    # a laumon step draws its triple at random_legendre_triple's default window
    steps = [
        *((f"gauss-square-q{q}", ["gauss", "--q", str(q)], None) for q in (3, 5, 9)),
        ("swan-monomial-depth4", ["swan", "--p", "3", "--a", '{"-4": 1}'],
         lambda result: result["swan"] == 4),
        *((f"laumon-q{p}-m{m}", ["verify-laumon", "--p", str(p), "--m", str(m),
                                 "--seed", str(seed), "--prec", str(draw_window(p))], None)
          for p, m in ((3, 0), (5, 0), (3, 1))),
        ("congruence-key1", ["congruence", "--p", "3", "--which", "key1", "--a", '{"-1": 1}',
                             "--theta-samples", "8", "--seed", str(seed)], None),
        ("dk-balance", ["dk-dim", "--horizontal", "[[1, 4]]",
                        "--vertical", '[["unramified", 0]]'],
         lambda result: result["dimension"] == 4),
    ]
    parser = build_parser({argv[0] for _, argv, _ in steps})
    for name, argv, holds in steps:
        try:
            result, _ = run(parser.parse_args(argv))
            ok = holds is None or holds(result)
        except VerificationFailure:
            ok = False
        except RamifyError as exc:
            _fail("selftest step raised unexpectedly", name,
                  raised={"error": type(exc).__name__, "message": str(exc)})
        if not ok:
            _fail("selftest step came out false", name)
    checks = [name for name, *_ in steps]
    result = {"ok": True, "seed": seed, "checks": checks}
    return result, f"{len(checks)} checks passed"


# -- the command table: every flag and default, once -----------------------------

FIELD = Flag("field", "field", required=True)
PREC = Flag("prec", "int", f"default series window (default {DEFAULT_PREC})",
            default=DEFAULT_PREC)
M = Flag("m", "int", "Witt length minus one", default=0)
A = Flag("a", "witt", "Witt vector JSON", required=True)
B = Flag("b", "series", "series JSON", required=True)
STATIONARY_C = Flag("c", "series", "series JSON (default: canonical stationary scale)")


def _seed(help_text):
    return Flag("seed", "int", f"{help_text} (default {DEFAULT_SEED})",
                default=DEFAULT_SEED)


COMMAND_TABLE = {
    "swan": Command("Swan conductor and refined leading form of a Witt vector",
                    _op_swan, (FIELD, PREC, A)),
    "rsw": Command("refined leading form (depth and residue coefficient) only",
                   _op_rsw, (FIELD, PREC, A)),
    "epsilon": Command(
        "local constant of a character by the closed formulas", _op_epsilon,
        (FIELD, PREC,
         Flag("char", "char", "character JSON", required=True),
         Flag("psi", "psi", "additive character JSON (default: omega = dt)",
              default={"0": 1}),
         Flag("oracle", "bool", "re-check against the sum-over-cosets oracle"))),
    "lambda": Command(
        "lambda factor of the totally ramified extension t = b(s)", _op_lambda,
        (FIELD, PREC, Flag("b", "series", "series JSON with ord(b) >= 1", required=True))),
    "hilbert": Command(
        "quadratic Hilbert symbol (x, y) in {+1, -1}", _op_hilbert,
        (FIELD, PREC, Flag("x", "series", "series JSON", required=True),
         Flag("y", "series", "series JSON", required=True))),
    "gauss": Command("quadratic Gauss sum of the residue field and its square",
                     _op_gauss, (FIELD,)),
    "legendre-check": Command("test the stationary-triple conditions on (a, b, c)",
                              _op_legendre_check, (FIELD, PREC, M, A, B, STATIONARY_C)),
    "lft": Command(
        "local Fourier transform descriptor of a monomial character", _op_lft,
        (FIELD, PREC,
         Flag("char", "char", "character JSON (wild part required)", required=True),
         B, STATIONARY_C,
         Flag("source", ("0", "infinity"), "source point on the line (default 0)",
              default="0"))),
    "verify-laumon": Command(
        "check the stationary-phase factorization identity", _op_verify_laumon,
        (FIELD, PREC, M,
         Flag("char", "char", "character JSON (omit for a seeded random triple)"),
         Flag("b", "series", "series JSON"),
         Flag("c", "series", "series JSON"),
         Flag("oracle", "bool", "re-check the epsilon factor against the oracle"),
         _seed("seed for the random triple"))),
    "congruence": Command(
        "theta-specialization congruence suites", _op_congruence,
        (FIELD, PREC, Flag("which", ("key1", "key6", "key7"), required=True), M,
         Flag("a", "witt", "Witt vector JSON (omit for a seeded random instance)"),
         Flag("b", "series", "series JSON (key6/key7)"),
         Flag("c", "series", "series JSON (key6/key7)"),
         Flag("r", "int", "dilation depth (default 1)", default=1),
         Flag("theta_samples", "int", "number of theta specializations (default 20)",
              default=20),
         _seed("sampling seed"))),
    "dk-dim": Command(
        "nearby-cycle dimension bookkeeping", _op_dk_dim,
        (Flag("horizontal", "json", "JSON list of [degree, swan] pairs", required=True),
         Flag("vertical", "json", 'JSON list of ["unramified"|"ramified", value] pairs',
              required=True),
         Flag("delta", "int", "contact defect (default 0)", default=0))),
    "selftest": Command("run the built-in identity suite", _op_selftest,
                        (_seed("seed for the randomized steps"),)),
}


def _field(args):
    if args.q is not None:
        return field_from_q(args.q)
    if args.p is None:
        raise SchemaError("specify the residue field with --p/--f or --q")
    return make_field(args.p, args.f)


def _read(flag, value):
    """A JSON flag's text parsed; any other flag's value as argparse gives it."""
    if value is None or not (flag.kind == "json" or flag.kind in _OPERANDS):
        return value
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{flag.key}: not valid JSON ({exc})")


def run(args):
    """Decode one job's parsed flags and dispatch it; returns (result dict,
    summary line).  The field comes first, then every JSON flag is read, then
    the flags are decoded in order; a JSON null counts as an absent flag."""
    command = COMMAND_TABLE[args.command]
    job = argparse.Namespace()
    if FIELD in command.flags:
        job.field = _field(args)
    given = [(flag, _read(flag, getattr(args, flag.key)))
             for flag in command.flags if flag is not FIELD]
    for flag, value in given:
        if value is None:
            value = flag.default
        if value is None:
            if flag.required:
                raise SchemaError(f"{args.command}: missing required key {flag.key!r}")
        elif flag.kind in _OPERANDS:
            # looked up per call so wrappers installed on jsonio see it
            decoder = getattr(jsonio, f"{flag.kind}_from_json")
            value = decoder(job.field, value, flag.key, job.prec)
        setattr(job, flag.key, value)
    return command.op(job)


# -- argument parsing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a SchemaError instead of exiting."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SchemaError(f"{self.prog}: {message}")


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The ``ramify`` parser.  Every subcommand is registered with its help
    line; only those named in ``commands`` (default: all) get their flags.
    Each command set's parser is built once: parsing leaves a parser as it
    was, since ``_Parser.error`` raises instead of exiting."""
    return _cached_parser(None if commands is None else frozenset(commands))


@functools.lru_cache(maxsize=None)
def _cached_parser(commands):
    parser = _Parser(
        prog="ramify",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="operand flags take JSON; see the package README for the wire formats.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMAND_TABLE.items():
        cmd = sub.add_parser(name, help=command.help)
        if commands is not None and name not in commands:
            continue
        for flag in command.flags:
            if flag.kind == "field":
                for option, kwargs in _FIELD_ARGS:
                    cmd.add_argument(option, **kwargs)
                continue
            option = "--" + flag.key.replace("_", "-")
            if flag.kind == "bool":
                cmd.add_argument(option, action="store_true", help=flag.help)
            else:
                # defaults stay out of the parsed flags; run() applies them
                cmd.add_argument(
                    option,
                    type=int if flag.kind == "int" else None,
                    choices=flag.kind if isinstance(flag.kind, tuple) else None,
                    required=flag.required,
                    help=flag.help,
                )
    return parser


def _emit(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse hands the rest of argv to the first command name in it (a
    # positional before that one is a usage error), so that command alone
    # needs its flags
    commands = [arg for arg in argv if arg in COMMAND_TABLE][:1]
    try:
        result, summary = run(build_parser(commands).parse_args(argv))
    except VerificationFailure as exc:
        head = {"error": "verification-failure", "message": str(exc)}
        print(_emit(head | exc.detail | head))  # no detail key replaces the head
        print(f"FAILED: {exc}", file=sys.stderr)
        return 2
    except RamifyError as exc:
        print(_emit({"error": type(exc).__name__, "message": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_emit(result))
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
