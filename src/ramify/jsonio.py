"""JSON wire formats for the command-line interface.

Encoding conventions (all exact, no floats anywhere):

* field element          integer index; its base-p digits are the polynomial
                         coordinates of the element (index 0 is 0, index 1
                         is 1 for every field)
* Laurent series         ``{"terms": {"-4": 1, "0": 2}, "prec": 32}`` --
                         exponent -> coefficient index; ``prec`` may be
                         omitted when the caller supplies a default window.
                         A bare ``{"-4": 1}`` dict is accepted as shorthand.
* length-(m+1) Witt vector  ``{"m": 1, "entries": [<series>, <series>]}``,
                         or a plain list of series (m inferred), or a single
                         series (m = 0), bare or as ``series_to_json`` prints it
* multiplicative character  ``{"tame_exponent": 1, "uniformizer_value": 1,
                         "wild": <witt> | null}``; an optional ``"conductor"``
                         pair [a, sw], as ``lft`` prints it, must agree
* additive character     ``{"omega": <series>}`` for the 1-form omega dt, or
                         the series omega alone
* cyclotomic number      inputs: an integer, an ``"a/b"`` string, a pair
                         ``[N, k]`` meaning the k-th power of a primitive
                         N-th root of unity, or a pretty string; outputs are
                         rendered as pretty strings such as ``"1+2*z3"``:
                         signed terms ``c``, ``c*zN^j`` and ``zN^j`` (``^1``
                         omitted) at one level N, zN = exp(2 pi i / N).

Every decoder rejects unknown keys with ``SchemaError`` so a malformed job
fails loudly instead of being silently reinterpreted.
"""

import re

# characters, cyclo and fractions are imported by the codecs that use them,
# so that a job without a character or a cyclotomic operand never loads them
from .errors import SchemaError
from .fields import FiniteField
from .series import LaurentSeries
from .witt import WittVector

DEFAULT_PREC = 32


def _require_mapping(obj, what):
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    return obj


def check_keys(obj, what, required=(), optional=()):
    """Reject unknown keys and report missing required ones."""
    _require_mapping(obj, what)
    allowed = set(required) | set(optional)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SchemaError(f"{what}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise SchemaError(f"{what}: missing required key(s) {missing}")
    return obj


def strict_int(value, what):
    """An int that is not a bool (JSON true/false must never pass as 1/0)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what}: expected an integer, got {value!r}")
    return value


# -- field elements --------------------------------------------------------------


def element_from_json(field: FiniteField, value, what):
    idx = strict_int(value, what)
    if not 0 <= idx < field.q:
        raise SchemaError(f"{what}: index {idx} out of range for q = {field.q}")
    return field.from_index(idx)


def element_str(x) -> str:
    return str(x.idx)


# -- Laurent series -------------------------------------------------------------


def _looks_like_terms(obj) -> bool:
    """A bare exponent->coefficient dict (shorthand for {"terms": ...})."""
    if not isinstance(obj, dict) or not obj:
        return False
    try:
        for key in obj:
            int(key)
    except (TypeError, ValueError):
        return False
    return True


def _is_one_series(obj) -> bool:
    """A series where a Witt vector or an additive character may stand: bare
    terms, or a series object as ``series_to_json`` prints it."""
    return _looks_like_terms(obj) or (
        isinstance(obj, dict) and set(obj) <= {"terms", "prec", "val"})


def series_from_json(field: FiniteField, obj, what, default_prec=None) -> LaurentSeries:
    if _looks_like_terms(obj):
        obj = {"terms": obj}
    check_keys(obj, what, required=("terms",), optional=("prec", "val"))
    raw = _require_mapping(obj["terms"], f"{what}.terms")
    terms = {}
    for key, value in raw.items():
        try:
            e = int(key)
        except (TypeError, ValueError):
            raise SchemaError(f"{what}.terms: exponent {key!r} is not an integer")
        coeff = element_from_json(field, value, f"{what}.terms[{key}]")
        if not coeff.is_zero():
            terms[e] = coeff
    prec = obj.get("prec", default_prec)
    if prec is None:
        prec = DEFAULT_PREC
    prec = strict_int(prec, f"{what}.prec")
    for e in terms:
        if e >= prec:
            raise SchemaError(
                f"{what}: term at exponent {e} lies at or beyond the window {prec}"
            )
    series = LaurentSeries.from_terms(field, terms, prec)
    # "val" is derivable; when present it must agree with the terms
    if "val" in obj and obj["val"] is not None:
        stated = strict_int(obj["val"], f"{what}.val")
        if series.val is not None and stated != series.val:
            raise SchemaError(
                f"{what}: stated valuation {stated} contradicts the terms "
                f"(actual {series.val})"
            )
    return series


def series_to_json(s: LaurentSeries) -> dict:
    terms = {}
    if s.val is not None:
        for i, coeff in enumerate(s.coeffs):
            if not coeff.is_zero():
                terms[str(s.val + i)] = coeff.idx
    return {"terms": terms, "prec": s.prec, "val": s.val}


# -- Witt vectors ----------------------------------------------------------------


def witt_from_json(field: FiniteField, obj, what, default_prec=None) -> WittVector:
    if isinstance(obj, list):
        if not obj:
            raise SchemaError(f"{what}: a Witt vector needs at least one entry")
        obj = {"m": len(obj) - 1, "entries": obj}
    elif _is_one_series(obj):
        obj = {"m": 0, "entries": [obj]}
    check_keys(obj, what, required=("m", "entries"), optional=())
    m = strict_int(obj["m"], f"{what}.m")
    if m < 0:
        raise SchemaError(f"{what}.m: Witt length m must be >= 0, got {m}")
    raw = obj["entries"]
    if not isinstance(raw, list):
        raise SchemaError(f"{what}.entries: expected a list of series")
    if len(raw) != m + 1:
        raise SchemaError(f"{what}: m = {m} needs {m + 1} entries, got {len(raw)}")
    entries = [
        series_from_json(field, entry, f"{what}.entries[{i}]", default_prec)
        for i, entry in enumerate(raw)
    ]
    return WittVector(m, entries)


def witt_to_json(a: WittVector) -> dict:
    return {"m": a.m, "entries": [series_to_json(entry) for entry in a.entries]}


# -- cyclotomic numbers ----------------------------------------------------------


def _fraction_from_string(text, what):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{what}: {text!r} is not a rational number")


# one term of a pretty string: c, c*zN^j or zN^j with an optional sign and
# "^j" (j = 1 omitted); the lookahead rejects a bare sign.  Left uncompiled,
# so that only a job that parses one pays for compiling it.
_PRETTY_TERM = r"(?=[+-]?[\dz])([+-]?)(\d+(?:/\d+)?)?(?:(?(2)\*)z(\d+)(?:\^(\d+))?)?"


def _cyclo_from_pretty(text, what):
    """Parse what ``pretty`` prints: a sum of signed terms at one level N."""
    from .cyclo import CycloNumber

    monomials, levels = [], set()
    for term in re.split(r"(?<=.)(?=[+-])", text):
        match = re.fullmatch(_PRETTY_TERM, term)
        if match is None:
            raise SchemaError(f"{what}: malformed term {term!r} in {text!r}")
        sign, coeff, level, power = match.groups()
        c = _fraction_from_string(coeff or "1", what) * (-1 if sign == "-" else 1)
        monomials.append((0 if level is None else int(power or 1), c))
        levels |= set() if level is None else {int(level)}
    if len(levels) != 1 or min(levels) < 1:
        raise SchemaError(f"{what}: {text!r} needs one level N >= 1, got {sorted(levels)}")
    return CycloNumber.from_monomials(levels.pop(), monomials)


def cyclo_from_json(value, what):
    from .cyclo import CycloNumber, root_of_unity

    if isinstance(value, bool):
        raise SchemaError(f"{what}: expected a cyclotomic number, got {value!r}")
    if isinstance(value, int):
        return CycloNumber.from_rational(1, value)
    if isinstance(value, str):
        if "z" in value:
            return _cyclo_from_pretty(value, what)
        return CycloNumber.from_rational(1, _fraction_from_string(value, what))
    if isinstance(value, list):
        if len(value) != 2:
            raise SchemaError(f"{what}: a root of unity is a pair [N, k]")
        N = strict_int(value[0], f"{what}[0]")
        k = strict_int(value[1], f"{what}[1]")
        if N < 1:
            raise SchemaError(f"{what}: level must be >= 1, got {N}")
        return root_of_unity(N, k)
    raise SchemaError(f"{what}: unsupported encoding {value!r}")


# -- characters ------------------------------------------------------------------


def char_from_json(field: FiniteField, obj, what, default_prec=None):
    from .characters import QuasiCharacter, conductor

    check_keys(
        obj, what,
        required=(),
        optional=("tame_exponent", "uniformizer_value", "wild", "conductor"),
    )
    tame = strict_int(obj.get("tame_exponent", 0), f"{what}.tame_exponent")
    unif = cyclo_from_json(obj.get("uniformizer_value", 1), f"{what}.uniformizer_value")
    wild = obj.get("wild")
    if wild is not None:
        wild = witt_from_json(field, wild, f"{what}.wild", default_prec)
    chi = QuasiCharacter(field, tame, unif, wild)
    # "conductor" is derivable; when present it must agree with the character
    if obj.get("conductor") is not None and obj["conductor"] != list(conductor(chi)):
        raise SchemaError(f"{what}: stated conductor {obj['conductor']!r} contradicts "
                          f"the character (actual {list(conductor(chi))})")
    return chi


def char_to_json(chi) -> dict:
    from .cyclo import pretty

    return {
        "tame_exponent": chi.tame_exponent,
        "uniformizer_value": pretty(chi.uniformizer_value),
        "wild": witt_to_json(chi.wild) if chi.has_wild_part() else None,
    }


def psi_from_json(field: FiniteField, obj, what, default_prec=None):
    from .characters import AdditiveCharacter

    if _is_one_series(obj):
        obj = {"omega": obj}
    check_keys(obj, what, required=("omega",), optional=())
    omega = series_from_json(field, obj["omega"], f"{what}.omega", default_prec)
    return AdditiveCharacter(omega)
