"""Batch command-line front end.

Each invocation runs one job: operands arrive as JSON flags, the exact
result leaves as a single JSON object on stdout, and a one-line summary
goes to stderr.  Exit codes: 0 when the computation succeeds and every
identity the job asserts holds; 2 when an asserted identity fails (stdout
then carries a diagnostic naming the first failing factor); 1 for
malformed input or an insufficient precision window.

Randomized subcommands (verify-laumon and congruence without explicit
operands, selftest) draw from ``random.Random(seed)``; the default seed
is 0 and identical jobs produce byte-identical output.  The environment
variable RAMIFY_WITT_CACHE points the universal Witt-table cache at a
directory of choice.
"""

import argparse
import json
import random
import sys
from dataclasses import dataclass, field as _dcfield

from . import jsonio
from .characters import AdditiveCharacter, conductor, hilbert_symbol
from .cyclo import CycloNumber, pretty
from .epsilon import (
    TotallyRamifiedExt,
    epsilon0,
    epsilon_tate_oracle,
    gauss_sum,
    lambda_factor,
    quad_gauss,
)
from .errors import RamifyError, SchemaError, VerificationFailure
from .fields import FiniteField, field_from_q
from .jsonio import DEFAULT_PREC
from .lft import (
    DKInput,
    character_for_triple,
    check_legendre,
    congruence_check,
    dk_dimension,
    dk_phi,
    gamma,
    guaranteed_mod_t,
    lft_descriptor,
    random_legendre_triple,
    square_class_checks,
    stationary_c,
    verify_laumon,
    LegendreTriple,
)
from .witt import (
    CACHE_ENV,
    refined_swan,
    swan_conductor,
    witt_differential,
)

DEFAULT_SEED = 0

COMMANDS = (
    "swan", "rsw", "epsilon", "lambda", "hilbert", "gauss",
    "legendre-check", "lft", "verify-laumon", "congruence",
    "dk-dim", "selftest",
)


@dataclass(frozen=True)
class JobSpec:
    """One validated job: a command name plus its canonical JSON payload.

    The payload holds the residue-field spec, optional Witt length m,
    operand encodings, and flags (oracle, precision, seed); it is schema
    checked before dispatch and unknown fields are rejected.
    """

    command: str
    payload: dict = _dcfield(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise SchemaError(f"unknown command {self.command!r}")


# -- payload helpers -------------------------------------------------------------


def _field_of(payload) -> FiniteField:
    return jsonio.field_from_json(payload["field"])


def _prec_of(payload) -> int:
    return jsonio.strict_int(payload.get("prec", DEFAULT_PREC), "prec")


def _seed_of(payload) -> int:
    return jsonio.strict_int(payload.get("seed", DEFAULT_SEED), "seed")


def _series_arg(field, payload, key, prec):
    return jsonio.series_from_json(field, payload[key], key, prec)


def _conductor_list(chi) -> list:
    a, sw = conductor(chi)
    return [a, sw]


def _require(payload, what, required, optional):
    jsonio.check_keys(payload, what, required=required, optional=optional)


# -- command implementations -----------------------------------------------------


def _op_swan(payload):
    _require(payload, "swan", ("field", "a"), ("prec",))
    field = _field_of(payload)
    prec = _prec_of(payload)
    a = jsonio.witt_from_json(field, payload["a"], "a", prec)
    sw, reduced, _ = swan_conductor(a)
    if sw == 0:
        result = {"swan": 0, "conductor": 0, "rsw": None}
        return result, "swan 0 (integral class)"
    n, coeff = refined_swan(reduced)
    result = {
        "swan": sw,
        "conductor": sw + 1,
        "rsw": {"n": n, "coeff": jsonio.element_str(coeff)},
    }
    return result, f"swan {sw}, conductor exponent {sw + 1}"


def _op_rsw(payload):
    _require(payload, "rsw", ("field", "a"), ("prec",))
    field = _field_of(payload)
    prec = _prec_of(payload)
    a = jsonio.witt_from_json(field, payload["a"], "a", prec)
    _sw, reduced, _ = swan_conductor(a)
    n, coeff = refined_swan(reduced)
    result = {"n": n, "coeff": jsonio.element_str(coeff), "swan": n}
    return result, f"depth {n}, leading coefficient {jsonio.element_str(coeff)}"


def _op_epsilon(payload):
    _require(payload, "epsilon", ("field", "char"), ("psi", "oracle", "prec"))
    field = _field_of(payload)
    prec = _prec_of(payload)
    chi = jsonio.char_from_json(field, payload["char"], "char", prec)
    if "psi" in payload:
        psi = jsonio.psi_from_json(field, payload["psi"], "psi", prec)
    else:
        psi = AdditiveCharacter(jsonio.series_from_json(field, {"0": 1}, "psi", prec))
    eps = epsilon0(chi, psi)
    oracle_match = None
    if payload.get("oracle"):
        oracle = epsilon_tate_oracle(chi, psi)
        oracle_match = oracle == eps.value
        if not oracle_match:
            raise VerificationFailure(
                "closed-form epsilon disagrees with the sum-over-cosets oracle",
                detail={
                    "failed": "epsilon-closed-form",
                    "value": pretty(eps.value),
                    "oracle": pretty(oracle),
                },
            )
    result = {
        "value": pretty(eps.value),
        "branch": eps.branch,
        "conductor": _conductor_list(chi),
        "c": jsonio.series_to_json(eps.c) if eps.c is not None else None,
        "oracle_match": oracle_match,
    }
    return result, f"epsilon0 = {result['value']} ({eps.branch})"


def _op_lambda(payload):
    _require(payload, "lambda", ("field", "b"), ("prec",))
    field = _field_of(payload)
    prec = _prec_of(payload)
    b = _series_arg(field, payload, "b", prec)
    ext = TotallyRamifiedExt(b)
    lam = lambda_factor(ext)
    result = {
        "value": pretty(lam.value),
        "branch": lam.branch,
        "degree": ext.degree,
        "different_ord": ext.different_ord,
    }
    return result, f"lambda = {result['value']} for a degree-{ext.degree} extension"


def _op_hilbert(payload):
    _require(payload, "hilbert", ("field", "x", "y"), ("prec",))
    field = _field_of(payload)
    prec = _prec_of(payload)
    x = _series_arg(field, payload, "x", prec)
    y = _series_arg(field, payload, "y", prec)
    result = {"symbol": hilbert_symbol(x, y)}
    return result, f"(x, y) = {result['symbol']}"


def _op_gauss(payload):
    _require(payload, "gauss", ("field",), ())
    field = _field_of(payload)
    G = quad_gauss(field)
    G2 = G * G
    rhs = CycloNumber.from_rational(1, field.kappa0(-field.one) * field.q)
    tau_trivial = gauss_sum(field, 0)
    identity = G2 == rhs and tau_trivial == CycloNumber.from_rational(1, 1)
    if not identity:
        raise VerificationFailure(
            "quadratic Gauss-sum square identity failed",
            detail={"failed": "gauss-square", "G": pretty(G), "G2": pretty(G2)},
        )
    result = {"G": pretty(G), "G2": pretty(G2), "identity_lef5c": identity}
    return result, f"G = {result['G']}, G^2 = {result['G2']}"


def _triple_from_payload(field, payload, prec, m):
    a = jsonio.witt_from_json(field, payload["a"], "a", prec)
    if a.m != m:
        raise SchemaError(f"a has Witt length m = {a.m}, job says m = {m}")
    b = _series_arg(field, payload, "b", prec)
    if payload.get("c") is not None:
        c = _series_arg(field, payload, "c", prec)
    else:
        c = stationary_c(a, b)
    return a, b, c


def _op_legendre_check(payload):
    _require(payload, "legendre-check", ("field", "a", "b"), ("c", "m", "prec"))
    field = _field_of(payload)
    prec = _prec_of(payload)
    m = jsonio.strict_int(payload.get("m", 0), "m")
    a, b, c = _triple_from_payload(field, payload, prec, m)
    ok, cond, diag = check_legendre(a, b, c)
    stamp = guaranteed_mod_t(a, b, c)
    if not ok:
        result = {
            "ok": False,
            "first_violation": diag.get("first_violation"),
            "conductor": None,
            "guaranteed_mod_t": stamp,
        }
        return result, f"not admissible: {result['first_violation']}"
    triple = LegendreTriple(a, b, c)
    g = gamma(triple)
    sq = square_class_checks(triple)
    if g.is_zero() or not sq.ok:
        raise VerificationFailure(
            "square-class invariant failed on an admissible triple",
            detail={"failed": "square-class", "conductor": list(cond)},
        )
    result = {
        "ok": True,
        "conductor": list(cond),
        "parity_even": triple.parity_even,
        "gamma": jsonio.element_str(g),
        "square_class": {
            "parity_even": sq.parity_even,
            "argument_valuation": sq.argument_valuation,
            "leading_is_square": sq.leading_is_square,
        },
        "guaranteed_mod_t": stamp,
    }
    return result, f"admissible, conductor triple {tuple(cond)}"


def _op_lft(payload):
    _require(
        payload, "lft",
        ("field", "char", "b"),
        ("c", "m", "source", "prec"),
    )
    field = _field_of(payload)
    prec = _prec_of(payload)
    chi = jsonio.char_from_json(field, payload["char"], "char", prec)
    b = _series_arg(field, payload, "b", prec)
    source = payload.get("source", "0")
    if source not in ("0", "infinity"):
        raise SchemaError(f"source must be '0' or 'infinity', got {source!r}")
    if payload.get("c") is not None:
        c = _series_arg(field, payload, "c", prec)
    else:
        c = stationary_c(chi.wild, b)
    desc = lft_descriptor(chi, b, c, source=source)
    result = {
        "source": desc.source,
        "target": desc.target,
        "degree": desc.degree,
        "swan": desc.swan,
        "rank": desc.rank,
        "pushed": {
            "tame_exponent": desc.pushed.tame_exponent,
            "uniformizer_value": pretty(desc.pushed.uniformizer_value),
            "wild": jsonio.witt_to_json(desc.pushed.wild)
            if desc.pushed.has_wild_part() else None,
            "conductor": _conductor_list(desc.pushed),
        },
        "gauss_twist": pretty(desc.gauss_twist),
        "guaranteed_mod_t": guaranteed_mod_t(chi.wild, b, c),
    }
    return result, (
        f"transform: {desc.source} -> {desc.target}, degree {desc.degree}"
    )


def _op_verify_laumon(payload):
    _require(
        payload, "verify-laumon",
        ("field",),
        ("char", "b", "c", "m", "oracle", "seed", "prec"),
    )
    field = _field_of(payload)
    prec = _prec_of(payload)
    m = jsonio.strict_int(payload.get("m", 0), "m")
    oracle = bool(payload.get("oracle"))
    if payload.get("char") is not None:
        if payload.get("b") is None:
            raise SchemaError("verify-laumon: explicit char needs b as well")
        chi = jsonio.char_from_json(field, payload["char"], "char", prec)
        b = _series_arg(field, payload, "b", prec)
        c = None
        if payload.get("c") is not None:
            c = _series_arg(field, payload, "c", prec)
    else:
        rng = random.Random(_seed_of(payload))
        triple = random_legendre_triple(field, m, rng, prec=prec)
        chi = character_for_triple(triple)
        b, c = triple.b, triple.c
    report = verify_laumon(chi, b, c, oracle=oracle)
    if not report.ok:
        raise VerificationFailure(
            "stationary-phase factorization identity failed",
            detail={
                "failed": report.mismatch,
                "product_identity": report.product_identity,
                "lhs_equals_rhs": report.lhs_equals_rhs,
                "lhs": pretty(report.lhs),
                "rhs": pretty(report.rhs),
            },
        )
    result = {
        "product_identity": report.product_identity,
        "lhs_equals_rhs": report.lhs_equals_rhs,
    }
    if oracle:
        result["oracle_match"] = report.oracle_match
    return result, (
        f"identity holds: lhs = rhs = {pretty(report.lhs)}, "
        f"conductor triple {report.conductor}"
    )


def _op_congruence(payload):
    _require(
        payload, "congruence",
        ("field", "which"),
        ("a", "b", "c", "m", "r", "theta_samples", "seed", "prec"),
    )
    field = _field_of(payload)
    prec = _prec_of(payload)
    m = jsonio.strict_int(payload.get("m", 0), "m")
    which = payload["which"]
    if which not in ("key1", "key6", "key7"):
        raise SchemaError(f"which must be key1, key6 or key7, got {which!r}")
    seed = _seed_of(payload)
    samples = jsonio.strict_int(payload.get("theta_samples", 20), "theta_samples")
    r = jsonio.strict_int(payload.get("r", 1), "r")
    if payload.get("a") is not None:
        a = jsonio.witt_from_json(field, payload["a"], "a", prec)
        b = c = None
        if payload.get("b") is not None:
            b = _series_arg(field, payload, "b", prec)
        if payload.get("c") is not None:
            c = _series_arg(field, payload, "c", prec)
        if which != "key1" and (b is None or c is None):
            raise SchemaError(f"{which} needs both b and c")
    else:
        rng = random.Random(seed)
        triple = random_legendre_triple(field, m, rng, prec=prec)
        a, b = triple.a, triple.b
        if which == "key1":
            b = c = None
        else:
            # the full-window stationary scale, so the defect of
            # alpha + c b' is certified small enough for key6/key7
            c = -(witt_differential(a) * b.derivative().inverse())
    report = congruence_check(
        which, a, b, c, r=r, theta_samples=samples, seed=seed,
    )
    stamp = guaranteed_mod_t(*(x for x in (a, b, c) if x is not None))
    if not report.ok:
        first = report.failures[0]
        raise VerificationFailure(
            "congruence defect escaped its filtration level",
            detail={
                "failed": which,
                "first_failure": first,
                "samples": report.samples,
            },
        )
    result = {
        "ok": True,
        "which": which,
        "n": report.n,
        "r": report.r,
        "nu_b": report.nu_b,
        "nu_c": report.nu_c,
        "membership_level": report.membership_level,
        "refinement_level": report.refinement_level,
        "splitting_degree": report.splitting_degree,
        "samples": report.samples,
        "guaranteed_mod_t": stamp,
    }
    return result, (
        f"{which}: {report.samples} specializations inside level "
        f"{report.membership_level}"
    )


def _op_dk_dim(payload):
    _require(payload, "dk-dim", ("horizontal", "vertical"), ("delta",))
    horizontal = payload["horizontal"]
    vertical = payload["vertical"]
    if not isinstance(horizontal, list) or not isinstance(vertical, list):
        raise SchemaError("dk-dim: horizontal and vertical must be lists")
    hor = []
    for row in horizontal:
        if not isinstance(row, list) or len(row) != 2:
            raise SchemaError(f"dk-dim: horizontal row {row!r} is not [degree, swan]")
        hor.append((jsonio.strict_int(row[0], "degree"), jsonio.strict_int(row[1], "swan")))
    ver = []
    for row in vertical:
        if not isinstance(row, list) or len(row) != 2 or not isinstance(row[0], str):
            raise SchemaError(f"dk-dim: vertical row {row!r} is not [kind, value]")
        ver.append((row[0], jsonio.strict_int(row[1], "value")))
    delta = jsonio.strict_int(payload.get("delta", 0), "delta")
    inp = DKInput(tuple(hor), tuple(ver), delta)
    phi_eta, phi_s = dk_phi(inp)
    dim = dk_dimension(inp)
    result = {
        "phi_generic": phi_eta,
        "phi_special": phi_s,
        "delta": delta,
        "dimension": dim,
    }
    return result, f"dimension {dim} = {phi_eta} + 2*{delta} - {phi_s}"


def _op_selftest(payload):
    _require(payload, "selftest", (), ("seed",))
    seed = _seed_of(payload)
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except RamifyError as exc:
            raise VerificationFailure(
                "selftest step raised unexpectedly",
                detail={"failed": name, "error": type(exc).__name__,
                        "message": str(exc)},
            )
        if not ok:
            raise VerificationFailure(
                "selftest step came out false",
                detail={"failed": name},
            )
        checks.append(name)

    for q in (3, 5, 9):
        fq = field_from_q(q)
        check(
            f"gauss-square-q{q}",
            lambda fq=fq: quad_gauss(fq) * quad_gauss(fq)
            == CycloNumber.from_rational(1, fq.kappa0(-fq.one) * fq.q),
        )
    f3 = field_from_q(3)
    check(
        "swan-monomial-depth4",
        lambda: swan_conductor(
            jsonio.witt_from_json(f3, {"-4": 1}, "a", DEFAULT_PREC)
        )[0] == 4,
    )
    for q, m in ((3, 0), (5, 0), (3, 1)):
        fq = field_from_q(q)

        def laumon_ok(fq=fq, m=m):
            rng = random.Random(seed)
            triple = random_legendre_triple(fq, m, rng)
            report = verify_laumon(character_for_triple(triple), triple.b, triple.c)
            return report.ok

        check(f"laumon-q{q}-m{m}", laumon_ok)

    def key1_ok():
        a = jsonio.witt_from_json(f3, {"-1": 1}, "a", DEFAULT_PREC)
        return congruence_check("key1", a, r=1, theta_samples=8, seed=seed).ok

    check("congruence-key1", key1_ok)
    check(
        "dk-balance",
        lambda: dk_dimension(
            DKInput(((1, 4),), (("unramified", 0),), 0)
        ) == 4,
    )
    result = {"ok": True, "seed": seed, "checks": checks}
    return result, f"{len(checks)} checks passed"


_OPS = {
    "swan": _op_swan,
    "rsw": _op_rsw,
    "epsilon": _op_epsilon,
    "lambda": _op_lambda,
    "hilbert": _op_hilbert,
    "gauss": _op_gauss,
    "legendre-check": _op_legendre_check,
    "lft": _op_lft,
    "verify-laumon": _op_verify_laumon,
    "congruence": _op_congruence,
    "dk-dim": _op_dk_dim,
    "selftest": _op_selftest,
}


def run(job: JobSpec):
    """Dispatch one validated job; returns (result dict, summary line)."""
    return _OPS[job.command](job.payload)


# -- argument parsing ------------------------------------------------------------


def _json_flag(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what}: not valid JSON ({exc})")


def _field_payload(args) -> dict:
    if getattr(args, "q", None) is not None:
        fld = field_from_q(args.q)
        return {"p": fld.p, "f": fld.f}
    if getattr(args, "p", None) is None:
        raise SchemaError("specify the residue field with --p/--f or --q")
    return {"p": args.p, "f": args.f}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramify",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "operand flags take JSON; see the package README for the wire "
            f"formats. Witt-table cache directory: ${CACHE_ENV}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, needs_field=True):
        cmd = sub.add_parser(name, help=help_text)
        if needs_field:
            cmd.add_argument("--p", type=int, help="residue characteristic (odd prime)")
            cmd.add_argument("--f", type=int, default=1, help="extension degree over F_p")
            cmd.add_argument("--q", type=int, help="residue-field size as a prime power (alternative to --p/--f)")
            cmd.add_argument("--prec", type=int, default=DEFAULT_PREC,
                             help=f"default series window (default {DEFAULT_PREC})")
        return cmd

    cmd = add("swan", "Swan conductor and refined leading form of a Witt vector")
    cmd.add_argument("--a", required=True, help="Witt vector JSON")

    cmd = add("rsw", "refined leading form (depth and residue coefficient) only")
    cmd.add_argument("--a", required=True, help="Witt vector JSON")

    cmd = add("epsilon", "local constant of a character by the closed formulas")
    cmd.add_argument("--char", required=True, help="character JSON")
    cmd.add_argument("--psi", help="additive character JSON (default: omega = dt)")
    cmd.add_argument("--oracle", action="store_true",
                     help="re-check against the sum-over-cosets oracle")

    cmd = add("lambda", "lambda factor of the totally ramified extension t = b(s)")
    cmd.add_argument("--b", required=True, help="series JSON with ord(b) >= 1")

    cmd = add("hilbert", "quadratic Hilbert symbol (x, y) in {+1, -1}")
    cmd.add_argument("--x", required=True, help="series JSON")
    cmd.add_argument("--y", required=True, help="series JSON")

    add("gauss", "quadratic Gauss sum of the residue field and its square")

    cmd = add("legendre-check", "test the stationary-triple conditions on (a, b, c)")
    cmd.add_argument("--m", type=int, default=0, help="Witt length minus one")
    cmd.add_argument("--a", required=True, help="Witt vector JSON")
    cmd.add_argument("--b", required=True, help="series JSON")
    cmd.add_argument("--c", help="series JSON (default: canonical stationary scale)")

    cmd = add("lft", "local Fourier transform descriptor of a monomial character")
    cmd.add_argument("--char", required=True, help="character JSON (wild part required)")
    cmd.add_argument("--b", required=True, help="series JSON")
    cmd.add_argument("--c", help="series JSON (default: canonical stationary scale)")
    cmd.add_argument("--source", default="0", choices=("0", "infinity"),
                     help="source point on the line (default 0)")

    cmd = add("verify-laumon", "check the stationary-phase factorization identity")
    cmd.add_argument("--m", type=int, default=0, help="Witt length minus one")
    cmd.add_argument("--char", help="character JSON (omit for a seeded random triple)")
    cmd.add_argument("--b", help="series JSON")
    cmd.add_argument("--c", help="series JSON")
    cmd.add_argument("--oracle", action="store_true",
                     help="re-check the epsilon factor against the oracle")
    cmd.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"seed for the random triple (default {DEFAULT_SEED})")

    cmd = add("congruence", "theta-specialization congruence suites")
    cmd.add_argument("--which", required=True, choices=("key1", "key6", "key7"))
    cmd.add_argument("--m", type=int, default=0, help="Witt length minus one")
    cmd.add_argument("--a", help="Witt vector JSON (omit for a seeded random instance)")
    cmd.add_argument("--b", help="series JSON (key6/key7)")
    cmd.add_argument("--c", help="series JSON (key6/key7)")
    cmd.add_argument("--r", type=int, default=1, help="dilation depth (default 1)")
    cmd.add_argument("--theta-samples", type=int, default=20,
                     help="number of theta specializations (default 20)")
    cmd.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"sampling seed (default {DEFAULT_SEED})")

    cmd = add("dk-dim", "nearby-cycle dimension bookkeeping", needs_field=False)
    cmd.add_argument("--horizontal", required=True,
                     help='JSON list of [degree, swan] pairs')
    cmd.add_argument("--vertical", required=True,
                     help='JSON list of ["unramified"|"ramified", value] pairs')
    cmd.add_argument("--delta", type=int, default=0, help="contact defect (default 0)")

    cmd = add("selftest", "run the built-in identity suite", needs_field=False)
    cmd.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"seed for the randomized steps (default {DEFAULT_SEED})")

    return parser


def build_job(args) -> JobSpec:
    """Canonicalize parsed flags into a JobSpec payload."""
    command = args.command
    payload = {}
    if command in ("swan", "rsw"):
        payload = {
            "field": _field_payload(args),
            "a": _json_flag(args.a, "a"),
            "prec": args.prec,
        }
    elif command == "epsilon":
        payload = {
            "field": _field_payload(args),
            "char": _json_flag(args.char, "char"),
            "oracle": args.oracle,
            "prec": args.prec,
        }
        if args.psi is not None:
            payload["psi"] = _json_flag(args.psi, "psi")
    elif command == "lambda":
        payload = {
            "field": _field_payload(args),
            "b": _json_flag(args.b, "b"),
            "prec": args.prec,
        }
    elif command == "hilbert":
        payload = {
            "field": _field_payload(args),
            "x": _json_flag(args.x, "x"),
            "y": _json_flag(args.y, "y"),
            "prec": args.prec,
        }
    elif command == "gauss":
        payload = {"field": _field_payload(args)}
    elif command == "legendre-check":
        payload = {
            "field": _field_payload(args),
            "m": args.m,
            "a": _json_flag(args.a, "a"),
            "b": _json_flag(args.b, "b"),
            "c": _json_flag(args.c, "c") if args.c is not None else None,
            "prec": args.prec,
        }
    elif command == "lft":
        payload = {
            "field": _field_payload(args),
            "char": _json_flag(args.char, "char"),
            "b": _json_flag(args.b, "b"),
            "c": _json_flag(args.c, "c") if args.c is not None else None,
            "source": args.source,
            "prec": args.prec,
        }
    elif command == "verify-laumon":
        payload = {
            "field": _field_payload(args),
            "m": args.m,
            "char": _json_flag(args.char, "char") if args.char is not None else None,
            "b": _json_flag(args.b, "b") if args.b is not None else None,
            "c": _json_flag(args.c, "c") if args.c is not None else None,
            "oracle": args.oracle,
            "seed": args.seed,
            "prec": args.prec,
        }
    elif command == "congruence":
        payload = {
            "field": _field_payload(args),
            "which": args.which,
            "m": args.m,
            "a": _json_flag(args.a, "a") if args.a is not None else None,
            "b": _json_flag(args.b, "b") if args.b is not None else None,
            "c": _json_flag(args.c, "c") if args.c is not None else None,
            "r": args.r,
            "theta_samples": args.theta_samples,
            "seed": args.seed,
            "prec": args.prec,
        }
    elif command == "dk-dim":
        payload = {
            "horizontal": _json_flag(args.horizontal, "horizontal"),
            "vertical": _json_flag(args.vertical, "vertical"),
            "delta": args.delta,
        }
    elif command == "selftest":
        payload = {"seed": args.seed}
    return JobSpec(command, payload)


def _emit(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        job = build_job(args)
        result, summary = run(job)
    except VerificationFailure as exc:
        diagnostic = {"error": "verification-failure", "message": str(exc)}
        diagnostic.update(exc.detail)
        print(_emit(diagnostic))
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
