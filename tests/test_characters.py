"""Residue pairing, quasi-characters, conductors, tame symbols."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ramify.characters import (
    AdditiveCharacter,
    QuasiCharacter,
    char_eval,
    char_eval_exponents,
    conductor,
    gauge,
    hilbert_symbol,
    kummer_char,
    pairing_series,
    psi_eval_exponent,
    witt_pairing,
)
from ramify.cyclo import CycloNumber, root_of_unity
from ramify.errors import (
    LengthMismatch,
    PrecisionExhausted,
    ZeroArgument,
    ZeroInput,
)
from ramify.fields import WittCoeffRing, make_field
from ramify.series import LaurentSeries, map_coefficients, residue_product
from ramify.witt import (
    WittVector,
    fil_level,
    frobenius,
    ghost_components,
    in_fil,
    pairing_window,
    reduce_vector,
    verschiebung_power,
    witt_add,
    witt_differential,
    witt_sub,
)

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F9 = make_field(3, 2)


def poly(field, pairs, prec=24):
    return LaurentSeries.from_terms(
        field, {e: field.from_int(c) for e, c in pairs}, prec
    )


def one_unit(field, j, c, prec):
    """1 + c * t^j."""
    return LaurentSeries.from_terms(field, {0: field.one, j: c}, prec)


def rng_series(field, rng, val, length):
    coeffs = [field.from_index(rng.randrange(field.q)) for _ in range(length)]
    return LaurentSeries.make(field, val, coeffs, val + length)


def rng_wild(field, m, rng, min_val=-4, length=16):
    entries = []
    for _ in range(m + 1):
        val = rng.randrange(min_val, 0)
        entries.append(rng_series(field, rng, val, length))
    return WittVector(m, tuple(entries))


def psi_eval(psi, x):
    return root_of_unity(psi.field.p, psi_eval_exponent(psi, x))


def pairing_from_lifts(lifts, u_lift, R):
    """[z, u) = -Tr(res(w_m * dlog(u~))) written out from given lifts of the
    entries of z and of u; w_m is the top ghost component of the lifts, cut
    to what the residue reads."""
    p = R.field.p
    w = ghost_components(pairing_window(lifts, p), R, p)[-1]
    return (-R.trace(residue_product(w, u_lift.dlog()))) % R.modulus_int


def trivial_char(field, wild=None, e=0):
    return QuasiCharacter(field, e, CycloNumber.from_rational(2, 1), wild=wild)


# -- residue pairing -----------------------------------------------------------


@pytest.mark.parametrize("field", [F5, F9])
def test_pairing_depth_one_unit(field):
    # m = 0, z = (t^-1), u = 1 + c t  =>  -Tr(c) mod p.
    z = WittVector(0, (LaurentSeries.t_power(field, -1, 8),))
    for c in field.elements():
        u = one_unit(field, 1, c, 8)
        assert witt_pairing(z, u) == (-field.trace_to_prime(c)) % field.p


def test_pairing_integral_vs_powers_of_t():
    # entries in t*O[[t]] pair to zero against every t^e.
    z = WittVector(
        1,
        (
            poly(F3, [(1, 1), (2, 2)], 12),
            poly(F3, [(1, 2)], 12),
        ),
    )
    for e in (-2, -1, 1, 3):
        u = LaurentSeries.t_power(F3, e, 12)
        assert witt_pairing(z, u) == 0


def test_pairing_constant_entry_against_t():
    # z = (c): res(c * dlog t) = c, so [z, t) = -Tr(c).
    for c in F9.elements():
        z = WittVector(0, (LaurentSeries.monomial(F9, c, 0, 8),))
        u = LaurentSeries.t_power(F9, 1, 8)
        assert witt_pairing(z, u) == (-F9.trace_to_prime(c)) % 3


def test_pairing_m1_frozen():
    # z = (t^-1, 0) over F3: w = (t^-1)^3 = t^-3, [z, 1+ct^3) = -3c^3 = ... mod 9;
    # dlog(1+ct^3) = 3c t^2 - ... so res = 3c^3? no: compute honestly once and
    # freeze the three values.
    z = WittVector(
        1,
        (
            LaurentSeries.t_power(F3, -1, 10),
            LaurentSeries.zero(F3, 10),
        ),
    )
    got = []
    for ci in (0, 1, 2):
        u = one_unit(F3, 3, F3.from_int(ci), 10)
        got.append(witt_pairing(z, u))
    # res(t^-3 * dlog(1 + c t^3)) = 3c mod 9 -> pairing = -3c mod 9
    assert got == [0, 6, 3]


def test_pairing_requires_matching_field():
    z = WittVector(0, (LaurentSeries.t_power(F3, -1, 8),))
    u = one_unit(F5, 1, F5.one, 8)
    with pytest.raises(LengthMismatch):
        witt_pairing(z, u)


def test_pairing_zero_unit_rejected():
    z = WittVector(0, (LaurentSeries.t_power(F3, -1, 8),))
    with pytest.raises(ZeroArgument):
        witt_pairing(z, LaurentSeries.zero(F3, 8))


def test_pairing_window_too_short():
    # w has valuation -2; the residue needs dlog(u) out to t^1, i.e. u known
    # mod t^3 -- prec 2 is one term short.
    z = WittVector(0, (LaurentSeries.t_power(F3, -2, 8),))
    u = one_unit(F3, 1, F3.one, 2)
    with pytest.raises(PrecisionExhausted):
        witt_pairing(z, u)


def test_pairing_bilinear_in_unit():
    rng = random.Random(11)
    for m in (0, 1):
        mod = 3 ** (m + 1)
        for _ in range(12):
            z = rng_wild(F3, m, rng)
            u = rng_series(F3, rng, rng.randrange(-2, 3), 30)
            v = rng_series(F3, rng, rng.randrange(-2, 3), 30)
            if u.is_zero() or v.is_zero():
                continue
            lhs = witt_pairing(z, u * v)
            rhs = (witt_pairing(z, u) + witt_pairing(z, v)) % mod
            assert lhs == rhs


def test_pairing_additive_in_witt_argument():
    rng = random.Random(12)
    for m in (0, 1):
        mod = 3 ** (m + 1)
        for _ in range(10):
            z1 = rng_wild(F3, m, rng)
            z2 = rng_wild(F3, m, rng)
            u = one_unit(F3, rng.randrange(1, 4), F3.from_index(rng.randrange(1, 3)), 40)
            lhs = witt_pairing(witt_add(z1, z2), u)
            rhs = (witt_pairing(z1, u) + witt_pairing(z2, u)) % mod
            assert lhs == rhs


def test_pairing_kills_coboundaries():
    # [F(y) - y, u) = 0: the Artin-Schreier-Witt coboundary pairs trivially.
    rng = random.Random(13)
    for m in (0, 1):
        for _ in range(10):
            y = rng_wild(F3, m, rng, min_val=-2, length=24)
            zb = witt_sub(frobenius(y), y)
            u = rng_series(F3, rng, 0, 20)
            if u.is_zero():
                continue
            assert witt_pairing(zb, u) == 0


def test_pairing_invariant_under_reduction():
    rng = random.Random(14)
    for m in (0, 1):
        for _ in range(10):
            a = rng_wild(F3, m, rng, min_val=-4, length=30)
            red = reduce_vector(a)
            u = rng_series(F3, rng, 0, 26)
            if u.is_zero() or red.is_zero():
                continue
            assert witt_pairing(red, u) == witt_pairing(a, u)


def kills_generators(z, n):
    """[z, t) = 0 and [z, 1 + x t^j) = 0 for every x in k and 1 <= j <= n.

    With k^x (dlog of a constant is 0), t and these units generate K^x
    modulo U^(n+1), on which z in fil_n pairs trivially; the pairing is
    non-degenerate on W_m(K)/(F - 1)W_m(K), so this puts z in (F - 1)W_m(K).
    """
    field = z.ring
    units = [LaurentSeries.t_power(field, 1, 40)]
    units += [one_unit(field, j, x, 40) for j in range(1, n + 1) for x in field.elements()]
    return all(witt_pairing(z, u) == 0 for u in units)


def reduction_draws():
    """(a, reduce_vector(a)) for seeded layers at m in {0, 1}, depth <= 9,
    window 40: entry i has valuation -1 .. -9/p^(m-i), a multiple of p half
    the time it can be, so that many lead with a removable p-th power."""
    rng = random.Random(29)
    for field in (F3, F5):
        p = field.p
        for m in (0, 1):
            for _ in range(10):
                entries = []
                for i in range(m + 1):
                    vmax = 9 // p ** (m - i)
                    val = -(p * rng.randint(1, vmax // p) if vmax >= p and rng.random() < 0.5
                            else rng.randint(1, vmax))
                    lead = field.from_index(rng.randrange(1, field.q))
                    entries.append(LaurentSeries.make(
                        field, val, [lead] + [field.from_index(rng.randrange(field.q))
                                              for _ in range(39 - val)], 40))
                a = WittVector(m, tuple(entries))
                yield a, reduce_vector(a)


def test_reduction_certified_by_the_pairing():
    # z = a - reduce_vector(a) is in fil_n, n = fil_level(a), and pairs to
    # zero with the generators of K^x mod U^(n+1): z is in (F - 1)W_m(K)
    stripped = 0
    for a, red in reduction_draws():
        n = fil_level(a)
        z = witt_sub(a, red)
        assert in_fil(z, n)
        assert kills_generators(z, n)
        stripped += red != a
    assert stripped >= 25


def test_reduction_certificate_rejects_a_planted_class():
    # red + V^m(t^-1) is in the wrong class: [V^m(t^-1), 1 + x t) =
    # -p^m Tr(x), so the certificate must fail on every draw
    for a, red in reduction_draws():
        n = fil_level(a)
        assert n >= 1
        planted = witt_add(red, verschiebung_power(LaurentSeries.t_power(a.ring, -1, 40), a.m))
        z = witt_sub(a, planted)
        assert in_fil(z, n)
        assert not kills_generators(z, n)


def test_pairing_lift_independence():
    # [z, u) written out from any lifts of z's entries and of u is the
    # pairing: perturbed lifts give the same value mod p^(m+1)
    rng = random.Random(15)
    for m in (0, 1, 2):
        R = WittCoeffRing.for_field(F3, m)
        p = 3
        for _ in range(8):
            z = rng_wild(F3, m, rng, min_val=-3, length=30)
            u = rng_series(F3, rng, 0, 30)
            if u.is_zero():
                continue
            base = witt_pairing(z, u)
            lifts = [map_coefficients(e, R.lift, R) for e in z.entries]
            uu = map_coefficients(u, R.lift, R)

            # perturb every entry lift by p * (arbitrary series over R)
            bumped = []
            for s in lifts:
                val = s.val if s.val is not None else 0
                delta = LaurentSeries.make(
                    R,
                    val,
                    [R.from_int(p * rng.randrange(3 ** (m + 1))) for _ in range(20)],
                    val + 20,
                )
                bumped.append(s + delta)
            assert pairing_from_lifts(bumped, uu, R) == base

            # perturb the unit lift by a factor 1 + p*eta, eta integral
            eta = LaurentSeries.make(
                R,
                0,
                [R.from_int(rng.randrange(3 ** (m + 1))) for _ in range(20)],
                20,
            )
            factor = LaurentSeries.from_terms(R, {0: R.one}, 20) + eta.scale(
                R.from_int(p)
            )
            assert pairing_from_lifts(lifts, uu * factor, R) == base


def test_pairing_unit_cut_matches_full_lift():
    # witt_pairing cuts u to [ord u, ord u - ord w] before lifting; the
    # pairing written out from the full lift agrees, on unreduced z and
    # long units
    rng = random.Random(16)
    for field in (F3, F5, F9):
        for m in (0, 1):
            R = WittCoeffRing.for_field(field, m)
            for _ in range(6):
                z = rng_wild(field, m, rng, min_val=-3, length=20)
                u = rng_series(field, rng, rng.randrange(-3, 4), 40)
                if u.is_zero():
                    continue
                _R, w = pairing_series(z)
                assert u.prec > u.valuation() + 1 - w.valuation()  # the cut bites
                lifts = [map_coefficients(e, R.lift, R) for e in z.entries]
                full = map_coefficients(u, R.lift, R)
                assert witt_pairing(z, u) == pairing_from_lifts(lifts, full, R)


def test_pairing_unit_window_is_tight():
    # u known mod t^(ord u + 1 - ord w) pairs; one coefficient fewer raises
    rng = random.Random(17)
    for field, m in ((F3, 0), (F3, 1), (F5, 0), (F5, 1), (F9, 0)):
        for _ in range(6):
            z = rng_wild(field, m, rng, min_val=-3, length=20)
            _R, w = pairing_series(z)
            if w.valuation() is None or w.valuation() > -1:
                continue
            v = rng.randrange(-3, 4)
            need = v + 1 - w.valuation()
            u = LaurentSeries.make(
                field, v, [field.from_index(rng.randrange(1, field.q)) for _ in range(need - v)], need)
            witt_pairing(z, u)
            with pytest.raises(PrecisionExhausted):
                witt_pairing(z, u.truncate(need - 1))


# -- quasi-characters ----------------------------------------------------------


def test_char_eval_unramified():
    s = root_of_unity(8, 3)
    chi = QuasiCharacter(F9, 0, s)
    for v in (-2, 0, 1, 5):
        u = LaurentSeries.t_power(F9, v, 8)
        assert char_eval(chi, u) == s**v
    u = LaurentSeries.monomial(F9, F9.generator, 0, 8)
    assert char_eval(chi, u) == CycloNumber.from_rational(8, 1)


def test_char_eval_tame():
    chi = trivial_char(F9, e=1)
    g = F9.generator
    for k in range(1, 8):
        u = LaurentSeries.monomial(F9, g**k, 0, 8)
        assert F9.dlog(g**k) == k % 8
        assert char_eval(chi, u) == root_of_unity(8, k)


def test_char_eval_constant_wild_twist_is_unramified():
    # a = (c): trivial on units, chi(t) = psi_0^{-1}([a, t)) = zeta_3^Tr(c).
    for ci in (0, 1, 2):
        c = F3.from_int(ci)
        chi = trivial_char(F3, wild=WittVector(0, (LaurentSeries.monomial(F3, c, 0, 8),)))
        t = LaurentSeries.t_power(F3, 1, 8)
        assert char_eval(chi, t) == root_of_unity(3, ci)
        u = one_unit(F3, 1, F3.one, 8)
        assert char_eval(chi, u) == CycloNumber.from_rational(3, 1)
        assert conductor(chi) == (0, 0)


def test_char_eval_multiplicative():
    rng = random.Random(16)
    chi = QuasiCharacter(
        F3,
        1,
        root_of_unity(12, 5),
        wild=WittVector(1, (poly(F3, [(-2, 1)], 20), poly(F3, [(-1, 2)], 20))),
    )
    for _ in range(10):
        u = rng_series(F3, rng, rng.randrange(-2, 3), 30)
        v = rng_series(F3, rng, rng.randrange(-2, 3), 30)
        if u.is_zero() or v.is_zero():
            continue
        assert char_eval(chi, u * v) == char_eval(chi, u) * char_eval(chi, v)


def test_char_eval_exponent_shape():
    chi = QuasiCharacter(
        F3, 1, root_of_unity(12, 5), wild=WittVector(0, (poly(F3, [(-1, 1)], 12),))
    )
    u = poly(F3, [(-1, 2), (0, 1), (1, 1)], 12)
    v, e = char_eval_exponents(chi, u)
    assert v == -1
    assert chi.level() == 6 and 0 <= e < 6  # (q-1) p^(m+1) = 2 * 3
    value = char_eval(chi, u)
    assert value == chi.uniformizer_value**v * root_of_unity(6, e)


@pytest.mark.parametrize("field,m,seed", [(F3, 0, 31), (F3, 1, 32), (F5, 0, 33), (F9, 1, 34)])
def test_char_eval_on_unreduced_wild_layers(field, m, seed):
    # chi.wild = a + F(y) - y: char_eval reads the pairing series of the
    # reduced vector, which pairs as the layer itself against t, units and
    # non-units
    rng = random.Random(seed)
    p, q = field.p, field.q
    for _ in range(3):
        a = rng_wild(field, m, rng, min_val=-3, length=40)
        y = WittVector(m, tuple(poly(field, [(rng.randrange(-2, 0), 1)], 40) + rng_series(field, rng, 0, 40)
                                for _ in range(m + 1)))
        wild = witt_add(a, witt_sub(frobenius(y), y))
        chi = QuasiCharacter(field, rng.randrange(q - 1), root_of_unity(8, 3), wild)
        assert reduce_vector(wild) != wild
        units = [LaurentSeries.t_power(field, 1, 30)]
        units += [rng_series(field, rng, v, 30) for v in (0, 0, -2, 1, 3)]
        for u in units:
            if u.is_zero():
                continue
            v = u.valuation()
            expected = (chi.uniformizer_value ** v
                        * root_of_unity(q - 1, chi.tame_exponent * field.dlog(u.leading_coefficient()))
                        * root_of_unity(p ** (m + 1), -witt_pairing(wild, u)))
            assert char_eval(chi, u) == expected


def test_char_rejects_zero_uniformizer_value():
    with pytest.raises(ZeroInput):
        QuasiCharacter(F3, 0, CycloNumber.zero(2))
    chi = trivial_char(F3)
    with pytest.raises(ZeroArgument):
        char_eval(chi, LaurentSeries.zero(F3, 8))


# -- conductors ----------------------------------------------------------------


def test_conductor_frozen_cases():
    # wild a = (t^-4) over F3: already reduced, sw = 4, a(chi) = 5.
    chi = trivial_char(F3, wild=WittVector(0, (LaurentSeries.t_power(F3, -4, 8),)))
    assert conductor(chi) == (5, 4)
    # tame-ramified
    assert conductor(trivial_char(F9, e=3)) == (1, 0)
    # trivial / unramified
    assert conductor(trivial_char(F9)) == (0, 0)
    # reducible wild part: (t^-3) is a coboundary shift of (t^-1) over F3
    chi = trivial_char(F3, wild=WittVector(0, (LaurentSeries.t_power(F3, -3, 12),)))
    assert conductor(chi) == (2, 1)


def pairing_sw(a, jmax):
    """Swan conductor from the pairing kernel: largest j >= 1 where some
    1 + c t^j pairs nontrivially (0 if none).  Scans from above so deeper
    one-units are already known to vanish when j is reported."""
    field = a.ring
    prec = jmax + fil_level_bound_window(a)
    for j in range(jmax, 0, -1):
        for idx in range(1, field.q):
            u = one_unit(field, j, field.from_index(idx), prec)
            if witt_pairing(a, u) != 0:
                return j
    return 0


def fil_level_bound_window(a):
    return max(8, fil_level(a) + 4)


@pytest.mark.parametrize("field,m", [(F3, 0), (F3, 1), (F9, 0)])
def test_conductor_matches_pairing_kernel(field, m):
    # Also the cross-check promised in the Witt-layer tests: the filtration
    # level of the reduced vector equals the kernel-detected Swan conductor.
    rng = random.Random(100 + m + field.q)
    rounds = 30 if field is F3 else 10
    for _ in range(rounds):
        a = rng_wild(field, m, rng, min_val=-4, length=24)
        chi = trivial_char(field, wild=a)
        acond, sw = conductor(chi)
        # scan two levels above the unreduced filtration level: anything
        # nonzero up there would expose a pairing/reduction inconsistency
        jmax = fil_level(a) + 2
        sw_kernel = pairing_sw(a, jmax)
        assert sw == sw_kernel
        red = reduce_vector(a)
        if not red.is_zero():
            assert fil_level(red) == sw_kernel
        else:
            assert sw_kernel == 0
        assert acond == (sw + 1 if sw >= 1 else 0)


# -- stationary phase identity --------------------------------------------------


@pytest.mark.parametrize(
    "field,m,entry_terms",
    [
        (F3, 0, [[(-2, 1), (-1, 1)]]),
        (F3, 0, [[(-4, 2), (-1, 1)]]),
        (F3, 1, [[(-1, 1)], [(-1, 1)]]),
        (F3, 1, [[(-2, 1)], [(-1, 2)]]),
        (F9, 0, [[(-2, 1)]]),
    ],
)
def test_wild_char_is_additive_in_depth_half(field, m, entry_terms):
    # chi(1 + x + x^2/2) = psi_omega(c x) for x in m^r, where c is the exact
    # stationary solution alpha + c*g = 0 of the wild differential against
    # omega = g dt, and 2r >= n = sw(chi).
    prec = 40
    entries = tuple(poly(field, terms, prec) for terms in entry_terms)
    a = WittVector(m, entries)
    red = reduce_vector(a)
    n = fil_level(red)
    assert n >= 1
    chi = trivial_char(field, wild=red)

    g = poly(field, [(0, 1), (1, 1)], prec)  # omega = (1 + t) dt
    psi = AdditiveCharacter(g)
    alpha = witt_differential(red)
    c = -(alpha * g.inverse())

    r = (n + 1) // 2
    inv2 = field.from_int(2).inverse()
    rng = random.Random(17)
    for _ in range(12):
        x = rng_series(field, rng, r + rng.randrange(0, 2), 24)
        u = (
            LaurentSeries.from_terms(field, {0: field.one}, x.prec)
            + x
            + (x * x).scale(inv2)
        )
        assert char_eval(chi, u) == psi_eval(psi, c * x)


# -- tame symbols ----------------------------------------------------------------


def test_hilbert_symbol_frozen():
    t3 = LaurentSeries.t_power(F3, 1, 8)
    assert hilbert_symbol(t3, t3) == F3.kappa0(-F3.one)
    t9 = LaurentSeries.t_power(F9, 1, 8)
    assert hilbert_symbol(t9, t9) == F9.kappa0(-F9.one)
    # (t, u) for a unit u is the residue character of its leading coefficient
    for idx in range(1, 9):
        u = LaurentSeries.monomial(F9, F9.from_index(idx), 0, 8)
        assert hilbert_symbol(t9, u) == F9.kappa0(F9.from_index(idx))


def test_hilbert_symbol_properties():
    rng = random.Random(18)
    for _ in range(40):
        x = rng_series(F9, rng, rng.randrange(-3, 4), 10)
        y = rng_series(F9, rng, rng.randrange(-3, 4), 10)
        z = rng_series(F9, rng, rng.randrange(-3, 4), 10)
        if x.is_zero() or y.is_zero() or z.is_zero():
            continue
        assert hilbert_symbol(x, y) in (1, -1)
        assert hilbert_symbol(x, y) == hilbert_symbol(y, x)
        assert hilbert_symbol(x * z, y) == hilbert_symbol(x, y) * hilbert_symbol(z, y)
        assert hilbert_symbol(x, -x) == 1
        sq = y * y
        assert hilbert_symbol(sq, x) == 1


def test_hilbert_symbol_steinberg_samples():
    rng = random.Random(19)
    count = 0
    for _ in range(60):
        x = rng_series(F3, rng, rng.randrange(-3, 4), 12)
        if x.is_zero():
            continue
        one = LaurentSeries.from_terms(F3, {0: F3.one}, x.prec)
        y = one - x
        if y.is_zero():
            continue
        assert hilbert_symbol(x, y) == 1
        count += 1
    assert count >= 40


def test_hilbert_symbol_zero_rejected():
    t = LaurentSeries.t_power(F3, 1, 8)
    with pytest.raises(ZeroArgument):
        hilbert_symbol(t, LaurentSeries.zero(F3, 8))


def test_kummer_char_matches_symbol():
    rng = random.Random(20)
    for field in (F3, F9):
        for _ in range(25):
            f = rng_series(field, rng, rng.randrange(-3, 4), 10)
            u = rng_series(field, rng, rng.randrange(-3, 4), 10)
            if f.is_zero() or u.is_zero():
                continue
            chi = kummer_char(f)
            val = char_eval(chi, u)
            assert val == hilbert_symbol(f, u)


def test_kummer_char_square_class_only():
    rng = random.Random(21)
    for _ in range(15):
        f = rng_series(F9, rng, rng.randrange(-2, 3), 10)
        g = rng_series(F9, rng, rng.randrange(-2, 3), 10)
        if f.is_zero() or g.is_zero():
            continue
        chi1 = kummer_char(f)
        chi2 = kummer_char(f * g * g)
        assert chi1.tame_exponent == chi2.tame_exponent
        assert chi1.uniformizer_value == chi2.uniformizer_value
    with pytest.raises(ZeroInput):
        kummer_char(LaurentSeries.zero(F9, 4))


def test_kummer_conductor():
    t = LaurentSeries.t_power(F9, 1, 8)
    assert conductor(kummer_char(t)) == (1, 0)
    # a non-square *unit* class gives the quadratic unramified character:
    # trivial on units, chi(t) = kappa0(leading coefficient) = -1.
    g = F9.generator
    assert not F9.is_square(g)
    chi = kummer_char(LaurentSeries.monomial(F9, g, 0, 8))
    assert conductor(chi) == (0, 0)
    assert char_eval(chi, t) == CycloNumber.from_rational(2, -1)
    sq = LaurentSeries.monomial(F9, g**2, 0, 8)
    assert conductor(kummer_char(sq)) == (0, 0)


# -- additive characters ----------------------------------------------------------


def test_additive_character_basics():
    g = poly(F3, [(0, 1)], 12)  # omega = dt
    psi = AdditiveCharacter(g)
    assert psi.ord == 0
    assert gauge(psi) == LaurentSeries.t_power(F3, 1, 13)
    # res(t^-1 * dt) = 1
    x = LaurentSeries.t_power(F3, -1, 12)
    assert psi_eval_exponent(psi, x) == 1
    assert psi_eval(psi, x) == root_of_unity(3, 1)
    # integral argument: residue 0
    assert psi_eval_exponent(psi, LaurentSeries.t_power(F3, 0, 12)) == 0
    with pytest.raises(ZeroInput):
        AdditiveCharacter(LaurentSeries.zero(F3, 8))


def test_additive_character_is_additive():
    rng = random.Random(22)
    g = poly(F9, [(-2, 1), (0, 2)], 14)
    psi = AdditiveCharacter(g)
    assert psi.ord == -2
    for _ in range(15):
        x = rng_series(F9, rng, rng.randrange(-3, 3), 12)
        y = rng_series(F9, rng, rng.randrange(-3, 3), 12)
        assert psi_eval(psi, x + y) == psi_eval(psi, x) * psi_eval(psi, y)


@pytest.mark.parametrize("q,seed", [(3, 1), (5, 2), (9, 3), (25, 4)])
def test_digit_traces_match_trace_of_product(q, seed):
    # the row read off the field's trace table against Tr(x g) element by
    # element, for every coefficient g of omega, zero ones included
    from ramify.fields import field_from_q

    field, rng = field_from_q(q), random.Random(seed)
    psi = AdditiveCharacter(rng_series(field, rng, -2, 8))
    for n in range(-2, 6):
        g = psi.omega.coefficient(n)
        assert psi.digit_traces(n) == tuple(
            field.trace_to_prime(field.from_index(i) * g) for i in range(q)), (q, n)
    assert field.traces == tuple(field.trace_to_prime(x) for x in field.elements())


def test_gauge_identity():
    # psi(beta^-1 * a) = psi_k(a0) for integral a with residue a0.
    rng = random.Random(23)
    for field in (F3, F9):
        g = poly(field, [(2, 1), (3, 2)], 16)  # ord(psi) = 2
        psi = AdditiveCharacter(g)
        beta = gauge(psi)
        assert beta.valuation() == psi.ord + 1
        binv = beta.inverse()
        for _ in range(10):
            a = rng_series(field, rng, 0, 12)
            a0 = a.coefficient(0)
            lhs = psi_eval(psi, binv * a)
            assert lhs == root_of_unity(field.p, field.trace_to_prime(a0))
