"""Witt-vector group law, filtration, differential, and reduction."""

import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ramify.witt
from ramify.errors import (
    CapExceeded,
    NotReduced,
    TameInput,
    ZeroVector,
)
from ramify.fields import WittCoeffRing, make_field
from ramify.series import LaurentSeries, map_coefficients
from ramify.witt import (
    WittVector,
    dilate,
    dilation_defect_sum,
    fil_level,
    frobenius,
    frobenius_series,
    ghost_components,
    in_fil,
    lift_entries,
    reduce_vector,
    refined_swan,
    swan_conductor,
    verschiebung,
    verschiebung_power,
    witt_add,
    witt_differential,
    witt_neg,
    witt_sub,
)

F3 = make_field(3, 1)
F5 = make_field(5, 1)


def tpow(field, e, prec=24):
    return LaurentSeries.t_power(field, e, prec)


def poly(field, pairs, prec=24):
    return LaurentSeries.from_terms(
        field, {e: field.from_int(c) for e, c in pairs}, prec
    )


def witt_entries(field, min_val=-4, max_val=2, length=8):
    @st.composite
    def build(draw):
        val = draw(st.integers(min_val, max_val))
        idxs = draw(
            st.lists(st.integers(0, field.q - 1), min_size=length, max_size=length)
        )
        return LaurentSeries.make(
            field, val, [field.from_index(i) for i in idxs], val + length
        )

    return build()


def witt_vec(field, m):
    return st.tuples(*[witt_entries(field) for _ in range(m + 1)]).map(
        lambda es: WittVector(m, es)
    )


# -- reference addition tables -------------------------------------------------
# witt_add derives no table.  The universal addition polynomials, built here
# by the ghost recursion on whole polynomials, are the reference it must
# equal, and sympy is the reference for them.


@functools.lru_cache(maxsize=None)
def squaring_tables(p, length):
    """The universal addition table by the ghost recursion in integers, with
    each power S_i^(p^(n-i)) taken by repeated squaring of whole
    polynomials: per n, the terms (coefficient, X_0..X_n exponents,
    Y_0..Y_n exponents) of S_n, lex-descending on the exponents."""

    def add(acc, a, scale):
        for e, c in a.items():
            acc[e] = acc.get(e, 0) + scale * c
            if not acc[e]:
                del acc[e]

    def mul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(u + v for u, v in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return {e: c for e, c in out.items() if c}

    def power(a, k):
        acc = {(0,) * (2 * length): 1}
        while k:
            if k & 1:
                acc = mul(acc, a)
            k >>= 1
            if k:
                a = mul(a, a)
        return acc

    def var(i):
        return {tuple(int(j == i) for j in range(2 * length)): 1}

    def ghost(polys, n):
        acc = {}
        for i, w in enumerate(polys[: n + 1]):
            add(acc, power(w, p ** (n - i)), p**i)
        return acc

    xs = [var(i) for i in range(length)]
    ys = [var(length + i) for i in range(length)]
    ss, tables = [], []
    for n in range(length):
        acc = ghost(xs, n)
        add(acc, ghost(ys, n), 1)
        add(acc, ghost(ss, n), -1)
        assert all(c % p**n == 0 for c in acc.values())
        ss.append({e: c // p**n for e, c in acc.items()})
        terms = [(c, e[: n + 1], e[length: length + n + 1]) for e, c in ss[-1].items()]
        tables.append(sorted(terms, key=lambda t: t[1] + t[2], reverse=True))
    return tables


def sympy_tables(p, length):
    """The universal addition table by a symbolic ghost recursion over Q:
    the reference for the integer derivation, term order included."""
    sympy = pytest.importorskip("sympy")
    xs = list(sympy.symbols([f"X{i}" for i in range(length)]))
    ys = list(sympy.symbols([f"Y{i}" for i in range(length)]))

    def ghost(zs, n):
        return sum(p**i * zs[i] ** (p ** (n - i)) for i in range(n + 1))

    exprs, tables = [], []
    for n in range(length):
        known = sum(p**i * exprs[i] ** (p ** (n - i)) for i in range(n))
        expr = sympy.expand((ghost(xs, n) + ghost(ys, n) - known) / sympy.Integer(p) ** n)
        exprs.append(expr)
        terms = []
        for exps, c in sympy.Poly(expr, *xs[: n + 1], *ys[: n + 1]).terms():
            assert sympy.Rational(c).q == 1
            terms.append((int(c), tuple(exps[: n + 1]), tuple(exps[n + 1:])))
        tables.append(terms)
    return tables


def test_addition_polynomials_frozen_p3():
    tab = squaring_tables(3, 2)
    assert sorted(tab[0]) == [(1, (0,), (1,)), (1, (1,), (0,))]
    assert sorted(tab[1]) == [
        (-1, (1, 0), (2, 0)),
        (-1, (2, 0), (1, 0)),
        (1, (0, 0), (0, 1)),
        (1, (0, 1), (0, 0)),
    ]


def test_addition_polynomials_frozen_p5():
    tab = squaring_tables(5, 2)
    assert sorted(tab[1]) == [
        (-2, (2, 0), (3, 0)),
        (-2, (3, 0), (2, 0)),
        (-1, (1, 0), (4, 0)),
        (-1, (4, 0), (1, 0)),
        (1, (0, 0), (0, 1)),
        (1, (0, 1), (0, 0)),
    ]


@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_integer_tables_match_sympy(p, length):
    assert squaring_tables(p, length) == sympy_tables(p, length)


def reference_sum(a, b):
    """a + b by the reference tables, each S_n evaluated term by term on
    the entries over F_q."""
    field = a.ring
    powers = {}  # (x or y entry, exponent) -> power

    def power(s, e):
        if (id(s), e) not in powers:
            powers[id(s), e] = s**e
        return powers[id(s), e]

    out = []
    for n, terms in enumerate(squaring_tables(field.p, a.m + 1)):
        entries = a.entries[: n + 1] + b.entries[: n + 1]
        acc = None
        for c, ex, ey in terms:
            c = field.from_int(c)
            if c.is_zero():
                continue
            prod = None
            for s, e in zip(entries, ex + ey):
                if e:
                    f = power(s, e)
                    prod = f if prod is None else prod * f
            term = prod.scale(c)
            acc = term if acc is None else acc + term
        out.append(acc)
    return WittVector(a.m, out)


def random_vector(field, m, rng):
    """Entries with windows t^3..t^30, some of them zero to precision."""
    entries = []
    for _ in range(m + 1):
        prec = rng.randint(3, 30)
        if rng.random() < 0.15:
            entries.append(LaurentSeries.zero(field, prec))
            continue
        v = rng.randint(-6, 2)
        entries.append(LaurentSeries.make(
            field, v, [field.from_index(rng.randrange(field.q)) for _ in range(prec - v)], prec))
    return WittVector(m, entries)


REFERENCE_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("p,f", REFERENCE_FIELDS, ids=[f"q{p**f}" for p, f in REFERENCE_FIELDS])
def test_witt_add_matches_the_reference_tables(p, f, m):
    field, rng = make_field(p, f), random.Random(f"{p} {f} {m}")
    for _ in range(6):
        a, b = random_vector(field, m, rng), random_vector(field, m, rng)
        assert witt_add(a, b) == reference_sum(a, b)


def test_witt_add_matches_the_reference_tables_at_p11():
    # p = 11 at length 3 is out of sympy's reach in test time
    F11, rng = make_field(11, 1), random.Random(11)
    for _ in range(2):
        a, b = (WittVector(2, [LaurentSeries.make(F11, -1, [F11.from_index(rng.randrange(11))
                                                             for _ in range(5)], 4)
                               for _ in range(3)]) for _ in range(2))
        assert witt_add(a, b) == reference_sum(a, b)


def complete(s, rng, extra=12):
    """s with random coefficients filling t^prec..t^(prec+extra)."""
    field = s.ring
    start = s.prec if s.val is None else s.val
    known = [s.coefficient(e) for e in range(start, s.prec)]
    return LaurentSeries.make(field, start, known + [
        field.from_index(rng.randrange(field.q)) for _ in range(extra)], s.prec + extra)


@pytest.mark.parametrize("p,f", REFERENCE_FIELDS, ids=[f"q{p**f}" for p, f in REFERENCE_FIELDS])
def test_witt_add_windows_are_sound(p, f):
    # each entry of a sum is exact below the window witt_add reports, however
    # the summands go on past theirs
    field, rng = make_field(p, f), random.Random(f"windows {p} {f}")
    for _ in range(6):
        m = rng.randint(1, 2)
        a, b = random_vector(field, m, rng), random_vector(field, m, rng)
        s = witt_add(a, b)
        for _ in range(2):
            full = witt_add(*(WittVector(m, [complete(e, rng) for e in v.entries])
                              for v in (a, b)))
            for e, e_full in zip(s.entries, full.entries):
                assert e_full.prec >= e.prec
                assert e_full.truncate(e.prec) == e


def test_cold_start_does_not_import_sympy(tmp_path):
    # a job that adds Witt vectors runs on the standard library alone and
    # writes nothing to disk, even where RAMIFY_WITT_CACHE names a directory
    # (seed 3 draws a triple that adds Witt vectors)
    code = (
        "import sys\n"
        "from ramify import cli\n"
        "status = cli.main(['verify-laumon', '--q', '9', '--m', '1', '--seed', '3'])\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ramify.witt.__file__).parents[1]))
    env["RAMIFY_WITT_CACHE"] = str(tmp_path)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["product_identity"] is True
    assert list(tmp_path.iterdir()) == []


# -- group law -----------------------------------------------------------------


def test_add_zero_and_negation():
    a = WittVector(1, (poly(F3, [(-2, 1), (0, 2)]), poly(F3, [(-1, 2)])))
    z = WittVector.zero(F3, 1, 24)
    assert witt_add(a, z) == a
    assert witt_add(a, witt_neg(a)).is_zero()


@settings(max_examples=25, deadline=None)
@given(witt_vec(F3, 1), witt_vec(F3, 1))
def test_add_commutes(a, b):
    assert witt_add(a, b) == witt_add(b, a)


@settings(max_examples=15, deadline=None)
@given(witt_vec(F3, 1), witt_vec(F3, 1), witt_vec(F3, 1))
def test_add_associates(a, b, c):
    assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_ghost_oracle_for_addition(m):
    # ghost_j is additive mod p^(j+1) on coefficient-wise lifts, whatever
    # representatives are chosen — an oracle independent of the table build.
    rng = random.Random(11 + m)
    R = WittCoeffRing(F3, m)

    def rand_vec():
        es = []
        for _ in range(m + 1):
            v = rng.randint(-3, 2)
            es.append(
                LaurentSeries.make(
                    F3,
                    v,
                    [F3.from_index(rng.randint(0, 2)) for _ in range(12 - v)],
                    12,
                )
            )
        return WittVector(m, es)

    for _ in range(8):
        a, b = rand_vec(), rand_vec()
        gs = ghost_components(lift_entries(witt_add(a, b), R), R, 3)
        ga = ghost_components(lift_entries(a, R), R, 3)
        gb = ghost_components(lift_entries(b, R), R, 3)
        for j in range(m + 1):
            diff = gs[j] - (ga[j] + gb[j])
            mod = 3 ** (j + 1)
            for _, c in diff.terms():
                assert all(digit % mod == 0 for digit in c.coeffs)


# -- Frobenius / shift operators ------------------------------------------------


def test_frobenius_series_is_exact():
    s = poly(F3, [(-1, 2), (1, 1)], 5)
    fs = frobenius_series(s)
    assert fs.prec == 15
    assert fs == poly(F3, [(-3, 2), (3, 1)], 15)


def test_frobenius_and_verschiebung():
    a = WittVector(0, (tpow(F3, -1),))
    assert frobenius(a).entries[0] == tpow(F3, -3, 72)
    v = verschiebung(a)
    assert v.m == 1 and v.entries[0].is_zero() and v.entries[1] == a.entries[0]
    assert verschiebung(WittVector.zero(F3, 0, 10)).is_zero()


def test_length_cap():
    with pytest.raises(CapExceeded):
        WittVector(3, (tpow(F3, 0),) * 4)


@settings(max_examples=25, deadline=None)
@given(witt_vec(F3, 1))
def test_verschiebung_preserves_level(a):
    try:
        n = fil_level(a)
    except ZeroVector:
        return
    assert in_fil(verschiebung(a), n)


# -- filtration ------------------------------------------------------------------


def test_fil_level_examples():
    assert fil_level(WittVector(0, (tpow(F3, -1),))) == 1
    z = LaurentSeries.zero(F3, 24)
    assert fil_level(WittVector(1, (tpow(F3, -1), z))) == 3
    assert fil_level(WittVector(1, (z, tpow(F3, -2)))) == 2
    assert fil_level(WittVector(0, (tpow(F3, 2),))) == 0
    with pytest.raises(ZeroVector):
        fil_level(WittVector.zero(F3, 1, 8))


@settings(max_examples=25, deadline=None)
@given(witt_vec(F3, 1), witt_vec(F3, 1))
def test_fil_level_subadditive(a, b):
    s = witt_add(a, b)
    if s.is_zero():
        return
    assert fil_level(s) <= max(fil_level(a), fil_level(b))


# -- the differential --------------------------------------------------------------


def test_witt_differential_examples():
    # length 1: d(t^-1) has coefficient -t^-2
    al = witt_differential(WittVector(0, (tpow(F3, -1),)))
    assert al == poly(F3, [(-2, -1)], 22)
    # length 2, p=3: entry (t^-1, 0) contributes (t^-1)^2 (t^-1)' = -t^-4
    z = LaurentSeries.zero(F3, 24)
    al2 = witt_differential(WittVector(1, (tpow(F3, -1), z)))
    assert al2.valuation() == -4
    assert al2.leading_coefficient() == -F3.one


@settings(max_examples=25, deadline=None)
@given(witt_vec(F3, 1), witt_vec(F3, 1))
def test_witt_differential_additive(a, b):
    lhs = witt_differential(witt_add(a, b))
    rhs = witt_differential(a) + witt_differential(b)
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(witt_vec(F3, 1))
def test_witt_differential_depth_bound(a):
    # ord(t * alpha) >= -level
    if a.is_zero():
        return
    n = fil_level(a)
    al = witt_differential(a)
    assert al.shift(1).has_ord_at_least(-n)


# -- reduction and conductors -------------------------------------------------------


def test_reduce_strips_pth_power_exponent():
    # t^-3 = (F(y) - y) + t^-1 with y = t^-1
    a = WittVector(0, (tpow(F3, -3, 9),))
    y = WittVector(0, (poly(F3, [(-1, 1)], 9),))
    red = reduce_vector(a)
    assert red == witt_sub(a, witt_sub(frobenius(y), y))
    assert red.entries[0] == poly(F3, [(-1, 1)], 9)
    assert fil_level(red) == 1


def test_reduce_leaves_prime_depth_alone():
    # nothing to strip: y = 0
    a = WittVector(0, (tpow(F3, -4),))
    assert reduce_vector(a) == a


@settings(max_examples=20, deadline=None)
@given(witt_vec(F3, 1))
# W(t^-3 + t^3 + O(t^4), O(t^8)): the stripped monomial t^-1 is exact, so it
# takes the widest window, not the stripped entry's short one
@example(WittVector(1, (poly(F3, [(-3, 1), (3, 1)], 4), LaurentSeries.zero(F3, 8))))
def test_reduce_recombines(a):
    # short windows do not make the reduction raise, and what it returns is
    # reduced: a second pass has nothing to strip.  That a - red lies in
    # (F - 1)W is certified through the residue pairing in test_characters.
    red = reduce_vector(a)
    assert reduce_vector(red) is red


def test_swan_conductor_example():
    sw, red = swan_conductor(WittVector(0, (tpow(F3, -4),)))
    assert sw == 4
    n, c = refined_swan(red)
    assert (n, c) == (4, F3.one)


def test_refined_swan_monomial_rule():
    # depth n with p coprime to n: leading coefficient is n * c
    for n, cval in ((2, 2), (4, 1), (5, 2)):
        a = WittVector(0, (poly(F3, [(-n, cval)]),))
        level, coeff = refined_swan(a)
        assert level == n
        assert coeff == F3.from_int(n * cval)


def test_refined_swan_guards():
    with pytest.raises(TameInput):
        refined_swan(WittVector(0, (tpow(F3, 1),)))
    with pytest.raises(NotReduced):
        refined_swan(WittVector(0, (tpow(F3, -3, 9),)))


def test_refined_swan_never_vanishes_on_reduced_inputs():
    rng = random.Random(23)
    checked = 0
    for _ in range(120):
        m = rng.choice((0, 1))
        es = []
        for _ in range(m + 1):
            v = rng.randint(-9, -1)
            es.append(
                LaurentSeries.make(
                    F3,
                    v,
                    [F3.from_index(rng.randint(0, 2)) for _ in range(30 - v)],
                    30,
                )
            )
        a = WittVector(m, es)
        red = reduce_vector(a)
        if red.is_zero() or fil_level(red) == 0:
            continue
        level, coeff = refined_swan(red)  # raises NotReduced on a zero
        assert not coeff.is_zero()
        checked += 1
    assert checked >= 50


# -- the dilation congruence ----------------------------------------------------------


@pytest.mark.parametrize(
    "m,entry_vals,r",
    [
        (0, (-1,), 1),
        (0, (-4,), 1),
        (0, (-5,), 2),
        (1, (-1, -2), 1),
        (1, (-2, -1), 2),
        (2, (-1, -1, -1), 1),
    ],
)
def test_dilation_congruence(m, entry_vals, r):
    # For a of level n:  u(a) - a  =  V^m(taylor defect of the differential)
    # up to fil_(n - p r), across >= 20 specializations of the dilation slope.
    p = 3
    prec = 34
    big, emb = F3.extension(3)
    a = WittVector(m, tuple(tpow(F3, v, prec) for v in entry_vals))
    n = fil_level(a)
    aL = WittVector(m, tuple(map_coefficients(e, emb, big) for e in a.entries))
    alpha = witt_differential(aL)
    thetas = [big.from_index(i) for i in range(1, 22)]
    for theta in thetas:
        lhs = witt_sub(dilate(aL, r, theta), aL)
        rhs = verschiebung_power(dilation_defect_sum(alpha, r, theta), m)
        assert in_fil(witt_sub(lhs, rhs), n - p * r)


def test_dilation_congruence_is_sharp():
    # the defect sum is exactly the obstruction: one level deeper fails
    big, emb = F3.extension(3)
    a = WittVector(1, (tpow(F3, -1, 30), tpow(F3, -2, 30)))
    n = fil_level(a)
    aL = WittVector(1, tuple(map_coefficients(e, emb, big) for e in a.entries))
    theta = big.from_index(5)
    lhs = witt_sub(dilate(aL, 1, theta), aL)
    rhs = verschiebung_power(
        dilation_defect_sum(witt_differential(aL), 1, theta), 1
    )
    assert in_fil(witt_sub(lhs, rhs), n - 3)
    assert not in_fil(witt_sub(lhs, rhs), n - 4)
