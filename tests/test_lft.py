"""Admissible triples, their discriminant and square classes, dilation
congruences, local Fourier transform descriptors, vanishing-cycle supports,
dimension bookkeeping, and the determinant identity."""

import functools
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import ramify.epsilon
import ramify.lft
from ramify.characters import (
    AdditiveCharacter,
    QuasiCharacter,
    char_eval,
    char_eval_exponents,
    char_value,
    conductor,
    hilbert_symbol,
    psi_eval_exponent,
)
from ramify.cyclo import CycloNumber, root_of_unity
from ramify.epsilon import (
    TotallyRamifiedExt,
    discriminant_class,
    epsilon0_wild,
    induced_swan,
    lambda_factor,
    quad_gauss,
)
from ramify.errors import (
    DegenerateOrder,
    HypothesisViolated,
    InconsistentInput,
    InseparableB,
    NotLegendre,
    PrecisionExhausted,
    SlopeConditionViolated,
    WrongSourcePoint,
    ZeroInput,
)
from ramify.fields import FqElement, field_from_q, make_field
from ramify.lft import (
    ORIGIN,
    DKInput,
    LegendreTriple,
    character_for_triple,
    congruence_check,
    dimtot_horizontal,
    dimtot_vertical,
    dk_dimension,
    dk_phi,
    gamma,
    guaranteed_mod_t,
    lft_descriptor,
    lft_rank,
    psi1_dimension,
    quadratic_substitute,
    random_legendre_triple,
    rho_point,
    square_class_checks,
    stationary_c,
    stationary_data,
    transform_determinant,
    vanishing_support,
    verify_laumon,
)
from ramify.series import LaurentSeries, map_coefficients, substitute_dilated
from ramify.witt import (
    WittVector,
    dilate,
    fil_level,
    frobenius,
    reduce_vector,
    sum_window,
    verschiebung_power,
    witt_add,
    witt_differential,
    witt_sub,
)
from series_composition import compose, reversion

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F9 = make_field(3, 2)

PREC = 44


def poly(field, pairs, prec=PREC):
    return LaurentSeries.from_terms(
        field, {e: field.from_int(c) for e, c in pairs}, prec
    )


def depth1_triple(field=F3):
    """The base example: a = (t^-1), b = t, c the stationary scale."""
    a = WittVector(0, [poly(field, [(-1, 1)])])
    b = poly(field, [(1, 1)])
    return LegendreTriple(a, b, stationary_c(a, b))


def not_legendre_reason(a, b, c=None):
    """The first violated condition that LegendreTriple(a, b, c) reports."""
    with pytest.raises(NotLegendre) as exc:
        LegendreTriple(a, b, c)
    return str(exc.value)


# -- admissibility -----------------------------------------------------------------


class TestCheckLegendre:
    def test_base_example(self):
        tri = depth1_triple()
        assert tri.conductor == (1, 0, 0)
        assert not tri.parity_even
        assert tri.c == poly(F3, [(-2, 1)], prec=0)

    def test_diagnostics_on_success(self):
        tri = depth1_triple()
        assert tri.conductor == (1, 0, 0)
        assert tri.n - tri.nu_c == 1
        assert not tri.parity_even
        assert 1 + tri.db.valuation() + tri.c.valuation() == -1

    def test_tame_layer_rejected(self):
        a = WittVector(0, [poly(F3, [(0, 1), (1, 1)])])
        assert (not_legendre_reason(a, poly(F3, [(1, 1)]), poly(F3, [(-2, 1)]))
                == "depth n = -1 is not positive (tame wild layer)")

    def test_depth_overflow_rejected(self):
        # the form coefficient sees only the shallow layer of (t^-3 + t^-1)
        a = WittVector(0, [poly(F3, [(-3, 1), (-1, 1)])])
        b = poly(F3, [(1, 1)])
        assert (not_legendre_reason(a, b, stationary_c(a, b))
                == "wild layer exceeds its form depth: a is not inside level 1")

    def test_inseparable_b_rejected(self):
        a = WittVector(0, [poly(F3, [(-1, 1)])])
        assert (not_legendre_reason(a, poly(F3, [(3, 1)]), poly(F3, [(-2, 1)]))
                == "b is inseparable: db/dt = 0 to precision")

    def test_non_stationary_c_rejected(self):
        a = WittVector(0, [poly(F3, [(-4, 1)])])
        b = poly(F3, [(1, 1)])
        assert (not_legendre_reason(a, b, poly(F3, [(-5, 2)]))
                == "c is not stationary: 2 ord(alpha + c b') >= -n + nu(c) fails")

    def test_slope_room_violation(self):
        # n = 1 leaves no room: nu(b) = 1 forces 2 nu(b) >= (p-2) n
        a = WittVector(0, [poly(F3, [(-1, 1)])])
        b = poly(F3, [(3, 1), (4, 1)])
        c = stationary_c(a, b)
        assert (not_legendre_reason(a, b, c)
                == "no room for the quadratic term: 2*1 + 3*0 >= (3-2)*1")

    def test_constructor_raises(self):
        a = WittVector(0, [poly(F3, [(0, 1), (1, 1)])])
        with pytest.raises(NotLegendre):
            LegendreTriple(a, poly(F3, [(1, 1)]), poly(F3, [(-2, 1)]))


class TestStationaryC:
    def test_base_value(self):
        a = WittVector(0, [poly(F3, [(-1, 1)])])
        c = stationary_c(a, poly(F3, [(1, 1)]))
        assert c.valuation() == -2 and c.prec == 0
        assert c.leading_coefficient() == F3.one

    def test_inseparable_b(self):
        a = WittVector(0, [poly(F3, [(-1, 1)])])
        with pytest.raises(InseparableB):
            stationary_c(a, poly(F3, [(3, 1)]))

    def test_window_starvation(self):
        a = WittVector(0, [poly(F3, [(-1, 1)], prec=0)])
        with pytest.raises(PrecisionExhausted):
            stationary_c(a, poly(F3, [(1, 1)], prec=2))

    def test_truncates_the_full_window_scale(self):
        rng = random.Random(12)
        for field, m in ((F3, 0), (F5, 0), (F3, 1)):
            tri = random_legendre_triple(field, m, rng)
            c_full = stationary_data(tri.a, tri.b).c
            assert (c_full * tri.b.derivative() + witt_differential(tri.a)).is_zero()
            c = stationary_c(tri.a, tri.b)
            assert c_full.truncate(c.prec) == c

    def test_certifies_admissibility(self):
        rng = random.Random(11)
        for _ in range(8):
            tri = random_legendre_triple(F5, 0, rng)
            c = stationary_c(tri.a, tri.b)
            assert LegendreTriple(tri.a, tri.b, c).conductor == tri.conductor


# -- defects of the pair (a, b) -----------------------------------------------------

# defect -> (a, b, the class every entry point raises, the reason
# LegendreTriple gives for it, with an explicit c or the default one)
PAIR_DEFECTS = {
    "a=0": (WittVector(0, [LaurentSeries.zero(F3, PREC)]), poly(F3, [(1, 1)]),
            ZeroInput, "wild layer is zero: no depth to anchor the triple"),
    "alpha=0": (WittVector(0, [poly(F3, [(-3, 1)])]), poly(F3, [(1, 1)]),
                PrecisionExhausted, "form coefficient of the wild layer vanishes"),
    "b=0": (WittVector(0, [poly(F3, [(-1, 1)])]), LaurentSeries.zero(F3, PREC),
            ZeroInput, "b is zero to precision"),
    "b'=0": (WittVector(0, [poly(F3, [(-1, 1)])]), poly(F3, [(3, 1)]),
             InseparableB, "b is inseparable: db/dt = 0 to precision"),
}
C_FIXED = poly(F3, [(-2, 1)])


def on_character(entry):
    """The character entry point ``entry`` applied to the wild layer a."""
    return lambda a, b: entry(QuasiCharacter(F3, 0, CycloNumber.from_rational(1, 1), a), b)


PAIR_ENTRY_POINTS = {
    "stationary_c": stationary_c,
    "congruence_check": lambda a, b: congruence_check("key6", a, b, C_FIXED, r=1),
    "vanishing_support": lambda a, b: vanishing_support(a, b, C_FIXED),
    "lft_descriptor": on_character(lft_descriptor),
    "verify_laumon": on_character(verify_laumon),
}
CHARACTER_ENTRY_POINTS = ("lft_descriptor", "verify_laumon")


def class_invariants(result):
    """A descriptor or a report as a comparable tuple: the pushed character
    of a descriptor becomes its conductor, tame exponent, chi(t) and layer,
    and its triple and covering (which compare by identity) the triple's
    scale and conductor and the covering's b and b'."""
    pushed = getattr(result, "pushed", None)
    if pushed is not None:
        result = result._replace(pushed=(conductor(pushed), pushed.tame_exponent,
                                         pushed.uniformizer_value, pushed.wild),
                                 triple=(result.triple.c, result.triple.conductor),
                                 covering=(result.covering.b, result.covering.db))
    return tuple(result)


@pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS)
@pytest.mark.parametrize("defect", PAIR_DEFECTS)
def test_pair_defect_raises_one_class(defect, entry):
    a, b, error, reason = PAIR_DEFECTS[defect]
    call = PAIR_ENTRY_POINTS[entry]
    if defect == "alpha=0" and entry in CHARACTER_ENTRY_POINTS:
        # t^-3 = t^-1 + F(t^-1) - t^-1 at p = 3: a character entry point
        # reads the class, whose reduced layer t^-1 has alpha != 0
        t_inv = WittVector(0, [poly(F3, [(-1, 1)])])
        assert class_invariants(call(a, b)) == class_invariants(call(t_inv, b))
    else:
        with pytest.raises(error):
            call(a, b)
    # the constructor reports the defect as NotLegendre, with or without c
    assert not_legendre_reason(a, b, C_FIXED) == reason
    assert not_legendre_reason(a, b) == reason


def test_default_scale_starvation_is_not_a_pair_defect():
    # a sound pair whose default scale needs more window than it has
    a = WittVector(0, [poly(F3, [(-1, 1)], prec=0)])
    with pytest.raises(PrecisionExhausted):
        LegendreTriple(a, poly(F3, [(1, 1)], prec=2))


@pytest.mark.parametrize("entry", [lft_descriptor, verify_laumon])
def test_stationary_datum_is_derived_once(monkeypatch, entry):
    # counted through lft and epsilon together: verify_laumon's default
    # epsilon scale is the triple's own when the wild layer is reduced
    calls = []
    derive = ramify.lft.witt_differential
    for module in (ramify.lft, ramify.epsilon):
        monkeypatch.setattr(module, "witt_differential",
                            lambda a: calls.append(a) or derive(a))
    for field, m in ((F3, 0), (F5, 0), (F3, 1), (F9, 0)):
        tri = random_legendre_triple(field, m, random.Random(7))
        # a fresh wild layer, so nothing derived for tri.a is reused
        a = WittVector(tri.a.m, tri.a.entries)
        assert reduce_vector(a) is a
        calls.clear()
        entry(QuasiCharacter(field, 0, CycloNumber.from_rational(1, 1), a), tri.b)
        assert calls == [a], (field.q, m)


# -- discriminant and square classes -------------------------------------------------


class TestGamma:
    def test_monomial_closed_form(self):
        # a = (t^-n), b = t: gamma = n (n+1) / 2, for n prime to p with
        # n + 1 prime to p (else the stationary scale is inseparable)
        for field, ns in ((F3, (1, 4, 7)), (F5, (1, 2, 3, 6)), (F7, (2, 3, 4, 5))):
            for n in ns:
                a = WittVector(0, [poly(field, [(-n, 1)])])
                b = poly(field, [(1, 1)])
                tri = LegendreTriple(a, b, stationary_c(a, b))
                assert gamma(tri) == field.from_int(n * (n + 1) // 2)

    def test_unit_square_covariance(self):
        # scaling a by u^2 scales the form coefficient, hence the
        # stationary scale, hence gamma, by u^2
        b = poly(F5, [(1, 1), (2, 3)])
        for u_int in (2, 3, 4):
            u = F5.from_int(u_int)
            a1 = WittVector(0, [poly(F5, [(-3, 1), (-1, 2)])])
            a2 = WittVector(0, [a1.entries[0].scale(u * u)])
            t1 = LegendreTriple(a1, b, stationary_c(a1, b))
            t2 = LegendreTriple(a2, b, stationary_c(a2, b))
            assert gamma(t2) == u * u * gamma(t1)

    def test_never_zero(self):
        rng = random.Random(23)
        for _ in range(10):
            tri = random_legendre_triple(F9, 0, rng)
            assert not gamma(tri).is_zero()


class TestSquareClasses:
    def test_both_parities_randomized(self):
        rng = random.Random(5)
        seen = {True: 0, False: 0}
        for field in (F3, F5, F9):
            for _ in range(10):
                tri = random_legendre_triple(field, 0, rng)
                rep = square_class_checks(tri)
                assert rep.ok, tri.conductor
                seen[tri.parity_even] += 1
        assert seen[True] and seen[False]

    def test_odd_parity_through_quadratic_base_change(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(12):
            tri = random_legendre_triple(F5, 0, rng)
            if tri.parity_even:
                continue
            doubled = tri.base_change_quadratic()
            assert doubled.conductor == (2 * tri.n, 2 * tri.nu_b, 2 * tri.nu_c)
            assert doubled.parity_even
            assert square_class_checks(doubled).ok
            checked += 1
        assert checked >= 3

    def test_wit_level_one(self):
        rng = random.Random(29)
        for _ in range(6):
            tri = random_legendre_triple(F3, 1, rng)
            assert square_class_checks(tri).ok


def test_quadratic_substitute_doubles_exponents():
    s = poly(F3, [(-1, 2), (3, 1)], prec=7)
    s2 = quadratic_substitute(s)
    assert s2.valuation() == -2 and s2.prec == 14
    assert s2.coefficient(-2) == F3.from_int(2)
    assert s2.coefficient(6) == F3.one
    assert s2.coefficient(-1).is_zero() and s2.coefficient(3).is_zero()


# -- dilation congruences -------------------------------------------------------------


def congruence_operands(which, field, m, r, seed, prec):
    """A seeded key1/key6/key7 instance drawn at window 200 and cut to
    `prec`: key6 takes the exact stationary scale, key7 that scale moved by
    a term at exactly the depth its hypothesis asks for."""
    rng = random.Random(seed)
    tri = random_legendre_triple(field, m, rng, prec=200)
    while which != "key1" and tri.nu_b + tri.nu_c >= (field.p - 2) * r:
        tri = random_legendre_triple(field, m, rng, prec=200)
    a = WittVector(m, [e.truncate(prec) for e in tri.a.entries])
    if which == "key1":
        return a, None, None
    b = tri.b.truncate(prec)
    c = -(witt_differential(a) * b.derivative().inverse())
    if which == "key7":
        k = -tri.n + tri.nu_c + r - b.derivative().valuation()
        c = c + LaurentSeries.t_power(field, k, c.prec)
    return a, b, c


class TestCongruences:
    def test_key1_depth_one(self):
        a = WittVector(0, [poly(F3, [(-1, 1)])])
        rep = congruence_check("key1", a, r=1)
        assert rep.ok and rep.samples == 20 and rep.splitting_degree == 3
        assert rep.membership_level == 0 and rep.refinement_level == -2

    def test_key1_default_splitting_policy(self):
        # smallest s with q^s > 4 (3 * 1 + 1) = 16: 3^3 over F3, 9^2 over F9
        for field, s in ((F3, 3), (F9, 2)):
            a = WittVector(0, [poly(field, [(-1, 1)])])
            rep = congruence_check("key1", a, r=1)
            assert rep.splitting_degree == s and rep.ok

    def test_key1_level_two(self):
        a = WittVector(1, [poly(F3, [(-1, 1)]), poly(F3, [(-4, 2), (-2, 1)])])
        rep = congruence_check("key1", a, r=1, theta_samples=6)
        assert rep.n == fil_level(a) and rep.ok

    def test_key7_even_parity(self):
        a = WittVector(0, [poly(F5, [(-2, 1)])])
        b = poly(F5, [(1, 1)])
        tri = LegendreTriple(a, b, stationary_c(a, b))
        assert tri.parity_even
        r = (tri.n - tri.nu_c) // 2
        rep = congruence_check("key7", tri.a, tri.b, tri.c, r=r)
        assert rep.ok and rep.membership_level == 0 and rep.refinement_level == -1

    def test_key7_unit_leading_term_is_gamma_theta_squared(self):
        # with n - nu(c) = 2r the refined difference is a unit vector whose
        # last entry starts at gamma * theta^2
        a = WittVector(0, [poly(F5, [(-2, 1)])])
        b = poly(F5, [(1, 1)])
        tri = LegendreTriple(a, b, stationary_c(a, b))
        r = (tri.n - tri.nu_c) // 2
        big, emb = F5.extension(2)
        a_E = WittVector(0, [map_coefficients(tri.a.entries[0], emb, big)])
        b_E = map_coefficients(tri.b, emb, big)
        c_E = map_coefficients(-(witt_differential(tri.a) * tri.b.derivative().inverse()),
                               emb, big)
        g_E = emb(gamma(tri))
        for idx in (1, 5, 11):
            theta = big.from_index(idx)
            diff = witt_add(
                witt_sub(dilate(a_E, r, theta), a_E),
                verschiebung_power(
                    c_E * (substitute_dilated(b_E, r, theta) - b_E), 0
                ),
            )
            lead = diff.entries[0].coefficient(0)
            assert lead == g_E * theta * theta

    def test_key6_exact_stationarity(self):
        a = WittVector(0, [poly(F5, [(-2, 1)])])
        b = poly(F5, [(1, 1)])
        c_full = -(witt_differential(a) * b.derivative().inverse())
        rep = congruence_check("key6", a, b, c_full, r=1, theta_samples=8)
        assert rep.ok

    def test_key6_guard_rejects_inexact_c(self):
        a = WittVector(0, [poly(F5, [(-1, 1)])])
        b = poly(F5, [(1, 1)])
        # certified-nonzero defect: alpha + c b' = t^-1
        c = poly(F5, [(-2, 1), (-1, 1)])
        with pytest.raises(HypothesisViolated):
            congruence_check("key6", a, b, c, r=1)

    def test_key7_guard_rejects_shallow_stationarity(self):
        a = WittVector(0, [poly(F5, [(-4, 1)])])
        b = poly(F5, [(1, 1)])
        with pytest.raises(HypothesisViolated):
            congruence_check("key7", a, b, poly(F5, [(-5, 1), (-3, 1)]), r=2)

    def test_slope_room_guard(self):
        a = WittVector(0, [poly(F3, [(-1, 1)])])
        b = poly(F3, [(1, 1)])
        # nu(c) = 2 makes nu(b) + nu(c) >= (p - 2) r for r = 1
        c = poly(F3, [(-3, 1), (-1, 1)])
        with pytest.raises(HypothesisViolated):
            congruence_check("key7", a, b, c, r=1)
        with pytest.raises(InconsistentInput):
            congruence_check("key1", a, r=0)

    def test_unknown_id_rejected(self):
        a = WittVector(0, [poly(F3, [(-1, 1)])])
        with pytest.raises(InconsistentInput):
            congruence_check("key2", a, r=1)

    def test_empty_sample_set_rejected(self):
        # a check over no specializations certifies nothing
        a = WittVector(0, [poly(F3, [(-1, 1)])])
        for samples in (0, -3):
            with pytest.raises(InconsistentInput):
                congruence_check("key1", a, r=1, theta_samples=samples)

    @pytest.mark.parametrize("which", ["key1", "key6", "key7"])
    @pytest.mark.parametrize("m,r", [(0, 1), (0, 2), (1, 1), (1, 2)])
    def test_report_does_not_depend_on_the_input_window(self, which, m, r, monkeypatch):
        # the theta loop reads each operand only as far as sum_window says,
        # so the same digits at windows 56 and 200 give the same report from
        # the same count of products over the splitting field
        products = []
        fq_mul = FqElement.__mul__

        def counted(x, y):
            if x.field is not F5:
                products.append(1)
            return fq_mul(x, y)

        congruence_check(which, *congruence_operands(which, F5, m, r, 5, 56), r=r)
        monkeypatch.setattr(FqElement, "__mul__", counted)
        runs = []
        for prec in (56, 200):
            ops = congruence_operands(which, F5, m, r, 5, prec)
            assert ops[0].entries[m].prec == prec
            products.clear()
            runs.append((congruence_check(which, *ops, r=r), len(products)))
        assert runs[0] == runs[1] and runs[0][0].ok and runs[0][1] > 0, runs

    @pytest.mark.parametrize("which", ["key1", "key6", "key7"])
    def test_planted_wrong_claim_fails_on_cut_windows(self, which, monkeypatch):
        # twice the claimed term (dilation_defect_sum for key1, dlog(c) in
        # the quadratic term for key6/key7) must fail the refinement always
        double = lambda f: lambda *args: (lambda x: x + x)(f(*args))
        monkeypatch.setattr(ramify.lft, "dilation_defect_sum",
                            double(ramify.lft.dilation_defect_sum))
        monkeypatch.setattr(LaurentSeries, "dlog", double(LaurentSeries.dlog))
        for field, m, r, seed in itertools.product((F3, F5), (0, 1), (1, 2), (2, 5)):
            ops = congruence_operands(which, field, m, r, seed, 56)
            rep = congruence_check(which, *ops, r=r, theta_samples=4)
            assert rep.failures == tuple((j, "refinement") for j in range(4)), (
                field.q, m, r, seed, rep)

    @pytest.mark.parametrize("which", ["key1", "key6", "key7"])
    def test_input_shorter_than_the_window_rule_raises(self, which):
        # the linear term of S_m reads entry m of a to t^-L, L the
        # refinement level, so one coefficient less raises; at m = 0 that
        # is all the rule asks of a, and exactly that window suffices
        for m, r in ((0, 1), (0, 2), (1, 1), (1, 2)):
            a, b, c = congruence_operands(which, F5, m, r, 2, 56)
            full = congruence_check(which, a, b, c, r=r)
            need = sum_window(full.refinement_level, full.n, 5, m)[m]
            assert need == -full.refinement_level

            def cut(k):
                return WittVector(m, a.entries[:m] + (a.entries[m].truncate(k),))

            with pytest.raises(PrecisionExhausted):
                congruence_check(which, cut(need - 1), b, c, r=r)
            if m == 0:
                assert congruence_check(which, cut(need), b, c, r=r) == full

    def test_randomized_key7_suite(self):
        rng = random.Random(41)
        run = 0
        for field in (F3, F5):
            for _ in range(6):
                tri = random_legendre_triple(field, 0, rng)
                if not tri.parity_even:
                    tri = tri.base_change_quadratic()
                r = (tri.n - tri.nu_c) // 2
                if not tri.nu_b + tri.nu_c < (field.p - 2) * r:
                    continue
                rep = congruence_check(
                    "key7", tri.a, tri.b, tri.c, r=r, theta_samples=4
                )
                assert rep.ok, (field.q, tri.conductor, rep.failures)
                run += 1
        assert run >= 6


# -- local Fourier transform descriptors ----------------------------------------------


class TestDescriptor:
    def test_source_origin(self):
        tri = depth1_triple()
        chi = character_for_triple(tri, tame_exponent=1)
        d = lft_descriptor(chi, tri.b, tri.c, source="0")
        assert (d.source, d.target) == ("0", "infinity")
        assert d.degree == d.swan + d.rank == 2
        assert d.gauss_twist == -quad_gauss(F3)
        assert d.gauss_twist * d.gauss_twist == CycloNumber.from_rational(
            1, F3.kappa0(-F3.one) * 3
        )

    def test_pushed_character_conductor(self):
        # wild part gains the additive layer of b c = t^-1: (t^-1) + (t^-1)
        tri = depth1_triple()
        chi = character_for_triple(tri)
        d = lft_descriptor(chi, tri.b, tri.c)
        assert conductor(d.pushed) == (2, 1)
        assert d.pushed.tame_exponent == 1  # Kummer class of -c'/(2b')

    def test_source_infinity_target_infinity(self):
        a = WittVector(0, [poly(F3, [(-2, 1)])])
        b = poly(F3, [(-1, 1)])
        c = stationary_c(a, b)
        chi = character_for_triple(LegendreTriple(a, b, c))
        d = lft_descriptor(chi, b, c, source="infinity")
        assert (d.source, d.target) == ("infinity", "infinity")
        assert (d.swan, d.rank) == (2, 1)
        assert d.degree == d.swan - d.rank == 1
        assert_same_covering(d.covering, TotallyRamifiedExt(b.inverse()))

    def test_source_infinity_target_origin(self):
        a = WittVector(0, [poly(F3, [(-1, 1)])])
        b = poly(F3, [(-2, 1)])
        c = stationary_c(a, b)
        chi = character_for_triple(LegendreTriple(a, b, c))
        d = lft_descriptor(chi, b, c, source="infinity")
        assert (d.source, d.target) == ("infinity", "0")
        assert (d.swan, d.rank) == (1, 2)
        assert d.degree == d.rank - d.swan == 1
        assert_same_covering(d.covering, TotallyRamifiedExt(b.inverse()))

    def test_slope_one_rejected(self):
        # Swan = rank at infinity: the stationary scale degenerates to a
        # constant and no admissible triple exists; the slope guard fires
        # before any triple validation
        from ramify.characters import QuasiCharacter

        a = WittVector(0, [poly(F3, [(-2, 1)])])
        b = poly(F3, [(-2, 1)])
        chi = QuasiCharacter(F3, 0, CycloNumber.from_rational(1, 1), a)
        with pytest.raises(SlopeConditionViolated):
            lft_descriptor(chi, b, poly(F3, [(0, 1)]), source="infinity")

    def test_slope_one_rejected_before_the_default_scale(self):
        # without c the slope guard still fires first: the default scale of
        # a slope-1 input at infinity is a constant, c' = 0 to every window,
        # and the bound on nu(c) that gives leaves no room
        from ramify.characters import QuasiCharacter

        a = WittVector(0, [poly(F3, [(-1, 1)])])
        b = poly(F3, [(-1, 1)])
        chi = QuasiCharacter(F3, 0, CycloNumber.from_rational(1, 1), a)
        with pytest.raises(NotLegendre, match="c is inseparable"):
            stationary_c(a, b)
        with pytest.raises(SlopeConditionViolated):
            lft_descriptor(chi, b, source="infinity")

    def test_default_scale_is_the_stationary_scale(self):
        tri = depth1_triple()
        chi = character_for_triple(tri)
        d = lft_descriptor(chi, tri.b)
        assert d.triple.c == stationary_c(tri.a, tri.b)
        assert lft_descriptor(chi, tri.b, tri.c).triple.c is tri.c
        assert (d.target, d.degree, conductor(d.pushed)) == ("infinity", 2, (2, 1))

    def test_tame_covers_never_raise_slope(self):
        # degree prime to p and swan != rank: both infinity rows must work
        from ramify.epsilon import TotallyRamifiedExt, induced_swan

        rng = random.Random(3)
        hits = 0
        for _ in range(12):
            tri = random_legendre_triple(F3, 0, rng)
            binv = tri.b.inverse()
            try:
                cinv = stationary_c(tri.a, binv)
                tri_inv = LegendreTriple(tri.a, binv, cinv)
            except (NotLegendre, PrecisionExhausted):
                continue
            chi = character_for_triple(tri_inv)
            if induced_swan(TotallyRamifiedExt(binv.inverse()), chi) == tri.b.valuation():
                continue  # slope exactly 1: the transform drops it
            d = lft_descriptor(chi, binv, cinv, source="infinity")
            assert d.degree == abs(cinv.valuation())
            assert_same_covering(d.covering, TotallyRamifiedExt(binv.inverse()))
            hits += 1
        assert hits >= 3

    def test_wrong_source_point(self):
        tri = depth1_triple()
        chi = character_for_triple(tri)
        with pytest.raises(WrongSourcePoint):
            lft_descriptor(chi, tri.b, tri.c, source="infinity")

    def test_cross_field_rejected(self):
        tri = depth1_triple()
        chi = character_for_triple(tri)
        with pytest.raises(InconsistentInput, match="base-change"):
            lft_descriptor(chi, poly(F5, [(1, 1)]), poly(F5, [(-2, 1)]))

    def test_degree_law_randomized(self):
        rng = random.Random(59)
        for field in (F3, F5, F9):
            for m in (0, 1):
                for _ in range(3):
                    tri = random_legendre_triple(field, m, rng)
                    assert (
                        -tri.c.valuation()
                        == tri.n + tri.nu_b + tri.b.valuation()
                    )
                    chi = character_for_triple(tri)
                    d = lft_descriptor(chi, tri.b, tri.c)
                    assert d.degree == d.swan + d.rank


# -- vanishing-cycle support -----------------------------------------------------------


class TestVanishingSupport:
    def test_simple_support(self):
        a = WittVector(0, [poly(F3, [(-2, 1)])])
        vs = vanishing_support(a, poly(F3, [(-1, 1)]), poly(F3, [(-1, 2)]))
        assert vs.depth == 2 and vs.order_c == -1
        assert vs.multiplicity == 1 and vs.primitive_order == 1
        assert vs.points == (vs.splitting_field.one,)
        assert vs.drop == -1 and vs.psi0_vanishes
        assert not vs.scale.is_zero()

    def test_p_power_multiplicity(self):
        a = WittVector(0, [poly(F3, [(-2, 1)])])
        vs = vanishing_support(a, poly(F3, [(1, 1)]), poly(F3, [(-3, 1)]))
        assert abs(vs.order_c) == 3
        assert vs.multiplicity == 3 and vs.primitive_order == 1
        assert len(vs.points) == 1 and vs.drop == -3

    def test_split_support(self):
        # |ord(c)| = 4 over F3 needs the quadratic extension F9
        a = WittVector(0, [poly(F3, [(-2, 1)])])
        vs = vanishing_support(a, poly(F3, [(2, 1)]), poly(F3, [(-4, 1)]))
        assert vs.primitive_order == 4 and vs.splitting_degree == 2
        assert len(vs.points) == 4
        one = vs.splitting_field.one
        for y in vs.points:
            assert y ** 4 == one

    def test_scale_is_unit_product(self):
        a = WittVector(0, [poly(F5, [(-2, 3)])])
        b = poly(F5, [(1, 2)])
        c = poly(F5, [(-3, 4)])
        vs = vanishing_support(a, b, c)
        # lam = leading(c) * leading(b')
        assert vs.scale == F5.from_int(4) * F5.from_int(2)

    def test_degenerate_unit_order(self):
        a = WittVector(0, [poly(F3, [(-2, 1)])])
        with pytest.raises(DegenerateOrder):
            vanishing_support(a, poly(F3, [(1, 1)]), poly(F3, [(-2, 1)]))

    def test_degenerate_direction_divisor(self):
        a = WittVector(0, [poly(F3, [(-2, 1)])])
        with pytest.raises(DegenerateOrder):
            vanishing_support(a, poly(F3, [(-2, 1)]), poly(F3, [(0, 1), (1, 1)]))


# -- dimension bookkeeping --------------------------------------------------------------


class TestDimensionBookkeeping:
    def test_weights(self):
        assert dimtot_horizontal(2, 3) == 8
        assert dimtot_vertical(("unramified", 3)) == 4
        assert dimtot_vertical(("ramified", -2)) == 2
        assert dimtot_vertical(("ramified", 1)) == -1  # zeros are not clamped

    def test_balance(self):
        inp = DKInput(
            horizontal=((1, 2), (2, 0)),
            vertical=(("unramified", 1), ("ramified", -1)),
            delta=1,
        )
        assert dk_phi(inp) == (5, 3)
        assert dk_dimension(inp) == 4

    def test_negative_dimension_rejected(self):
        inp = DKInput(horizontal=((1, 0),), vertical=(("unramified", 4),))
        with pytest.raises(InconsistentInput):
            dk_dimension(inp)

    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(0, 5)), max_size=4),
        st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_generic_sum_property(self, horizontal, delta):
        inp = DKInput(horizontal=tuple(horizontal), vertical=(), delta=delta)
        expected = sum(d * (sw + 1) for d, sw in horizontal) + 2 * delta
        assert dk_dimension(inp) == expected

    def test_rho(self):
        assert rho_point("finite", "infinity", ord_f_dx=-2) == 2
        assert rho_point("infinity", "infinity", ord_f_dx=-3) == 3
        assert rho_point("infinity", "0") == 1
        with pytest.raises(InconsistentInput):
            rho_point("finite", "0")
        with pytest.raises(InconsistentInput):
            rho_point("finite", "infinity")

    def test_psi1(self):
        assert psi1_dimension("finite", "infinity", swan=2, ord_f_dx=-1) == 2
        assert (
            psi1_dimension("infinity", "infinity", swan_twisted=3, ord_f_dx=-2)
            == 2
        )
        assert psi1_dimension("infinity", "0", swan=1, swan_twisted=3) == 2
        with pytest.raises(InconsistentInput):
            psi1_dimension("finite", "infinity", swan=2)
        with pytest.raises(InconsistentInput):
            psi1_dimension("infinity", "0", swan=3, swan_twisted=1)

    def test_rank_rows(self):
        assert lft_rank("0", "infinity", swan=1, rank=1, slopes=[1]) == 2
        assert (
            lft_rank("infinity", "infinity", swan=4, rank=2, slopes=[2, 2]) == 2
        )
        assert (
            lft_rank("infinity", "infinity", swan=1, rank=2,
                     slopes=["1/2", "1/2"])
            == 0
        )
        assert (
            lft_rank("infinity", "0", swan=1, rank=2, slopes=["1/2", "1/2"])
            == 1
        )
        assert lft_rank("infinity", "0", swan=4, rank=2, slopes=[2, 2]) == 0

    def test_rank_row_guards(self):
        with pytest.raises(InconsistentInput, match="straddle"):
            lft_rank("infinity", "infinity", swan=3, rank=2, slopes=[2, "1/2"])
        with pytest.raises(InconsistentInput):
            lft_rank("0", "0", swan=1, rank=1, slopes=[1])
        with pytest.raises(InconsistentInput):
            lft_rank("infinity", "infinity", swan=1, rank=3, slopes=[2, 2, 2])

    def test_descriptor_matches_rank_row(self):
        rng = random.Random(71)
        for _ in range(6):
            tri = random_legendre_triple(F3, 0, rng)
            chi = character_for_triple(tri)
            d = lft_descriptor(chi, tri.b, tri.c)
            slopes = [f"{d.swan}/{d.rank}"] * d.rank
            assert (
                lft_rank("0", "infinity", swan=d.swan, rank=d.rank,
                         slopes=slopes)
                == d.degree
            )


# -- the determinant identity ------------------------------------------------------------


class TestLaumonIdentity:
    def test_frozen_base_case(self):
        tri = depth1_triple()
        chi = character_for_triple(tri)
        rep = verify_laumon(chi, tri.b, tri.c, oracle=True)
        assert rep.ok and rep.mismatch is None
        assert rep.oracle_match is True
        assert rep.lhs == 3 and rep.rhs == 3
        assert rep.conductor == (1, 0, 0) and rep.degree == 2

    def test_stationary_scale_is_optional(self):
        tri = depth1_triple()
        chi = character_for_triple(tri)
        rep = verify_laumon(chi, tri.b)
        assert rep.ok and rep.degree == 2

    def test_randomized_product_identity(self):
        rng = random.Random(101)
        count = 0
        parities = {True: 0, False: 0}
        for field in (F3, F5, F9):
            for m in (0, 1):
                for _ in range(3):
                    tri = random_legendre_triple(field, m, rng)
                    chi = character_for_triple(
                        tri,
                        tame_exponent=rng.randrange(field.q - 1),
                        uniformizer_value=root_of_unity(8, rng.randrange(8)),
                    )
                    rep = verify_laumon(chi, tri.b, tri.c)
                    assert rep.product_identity, (field.q, m, tri.conductor)
                    assert rep.lhs_equals_rhs, (field.q, m, tri.conductor)
                    # epsilon0_wild's own scale (from the reduced layer,
                    # normalised by psi's omega) is lft's stationary c
                    eps = epsilon0_wild(chi, AdditiveCharacter(tri.db))
                    assert eps.c == tri.c_full.truncate(eps.c.prec)
                    assert eps.value == rep.epsilon_value
                    parities[(tri.n - tri.nu_c) % 2 == 0] += 1
                    count += 1
        assert count == 18 and parities[True] and parities[False]

    def test_oracle_anchor_small_conductors(self):
        rng = random.Random(13)
        anchored = 0
        for _ in range(8):
            tri = random_legendre_triple(F3, 0, rng, n_cap=2)
            if tri.n + 1 + tri.b.valuation() > 4:
                continue  # keep the shell sums small
            chi = character_for_triple(tri, tame_exponent=1)
            rep = verify_laumon(chi, tri.b, tri.c, oracle=True)
            assert rep.ok and rep.oracle_match is True
            anchored += 1
        assert anchored >= 2

    @pytest.mark.parametrize("field,a0,a1,b", [
        (F3, [(-1, 1)], [(-3, 1)], [(1, 1)]),
        (F3, [(-2, 1), (-1, 2)], [(-6, 2), (-4, 1)], [(2, 1), (3, 1)]),
        (F9, [(-1, 2)], [(-3, 1), (-2, 1)], [(1, 2)]),
        (F5, [(-1, 1)], [(-5, 3), (-2, 1)], [(1, 1), (2, 4)]),
    ])
    def test_unreduced_wild_layer(self, field, a0, a1, b):
        # a_1's leading term ties a_0 at the top level and is a p-th power,
        # so reduction strips it; the identity reads the reduced layer, as
        # epsilon0_wild does
        tri = LegendreTriple(WittVector(1, (poly(field, a0), poly(field, a1))),
                             poly(field, b))
        chi = character_for_triple(tri)
        assert chi.reduced_wild() != tri.a
        oracle = field.q ** tri.n <= 729
        rep = verify_laumon(chi, tri.b, oracle=oracle)
        assert rep.ok and rep.oracle_match is (True if oracle else None)
        eps = epsilon0_wild(chi, AdditiveCharacter(tri.db))
        assert eps.value == rep.epsilon_value

    def test_wrong_source_point(self):
        a = WittVector(0, [poly(F3, [(-2, 1)])])
        b = poly(F3, [(-1, 1)])
        chi = character_for_triple(LegendreTriple(a, b, stationary_c(a, b)))
        with pytest.raises(WrongSourcePoint, match=r"^source '0' needs ord\(b\) >= 1, got -1$"):
            verify_laumon(chi, b)

    def test_cross_field_rejected(self):
        tri = depth1_triple()
        chi = character_for_triple(tri)
        with pytest.raises(InconsistentInput, match="base-change"):
            verify_laumon(chi, poly(F5, [(1, 1)]))

    def test_wildless_character_rejected(self):
        chi = character_for_triple(depth1_triple(), tame_exponent=1)
        chi.wild = None
        with pytest.raises(NotLegendre):
            verify_laumon(chi, poly(F3, [(1, 1)]))


def reference_det_factor(chi, triple):
    """The determinant factor written out by hand, at c = triple.c_full:

        kappa0(-1)^C(i,2) chi(c) psi_db(c)^(-1) G^(-i) (c, -2 t^i b'),

    i = -ord(c); it shares no step with the transform's determinant."""
    field, db, c = chi.field, triple.db, triple.c_full
    i = -triple.c.valuation()
    v, e = char_eval_exponents(chi, c)
    e -= psi_eval_exponent(AdditiveCharacter(db), c) * (chi.level() // field.p)
    return (
        char_value(chi, v, e)
        * quad_gauss(field) ** (-i)
        * (field.kappa0(-field.one) if (i * (i - 1) // 2) % 2 else 1)
        * hilbert_symbol(c, db.shift(i).scale(field.from_int(-2)))
    )


def assert_same_covering(ext, ref):
    """A covering the library built against the reference that
    TotallyRamifiedExt builds from a full series: the degree, the different,
    the discriminant class and lambda, value and branch."""
    assert (ext.degree, ext.different_ord) == (ref.degree, ref.different_ord)
    assert discriminant_class(ext) == discriminant_class(ref)
    assert lambda_factor(ext) == lambda_factor(ref)


def assert_swan_conserved(chi, b, desc):
    """F^(0,inf') keeps sw while the generic rank becomes |ord(c)|: L'/K'
    is presented by c^-1, c = desc.triple.c_full.  The covering the
    descriptor carries is TotallyRamifiedExt(b), and the L'/K' that
    transform_determinant reads, from leading data, is the full inversion
    TotallyRamifiedExt(c^-1).  Returns transform_determinant(desc)."""
    ext, ref = TotallyRamifiedExt(b), TotallyRamifiedExt(desc.triple.c_full.inverse())
    assert ref.degree == desc.degree
    assert_same_covering(desc.covering, ext)
    read = []
    with mock.patch.object(ramify.epsilon, "discriminant_class",
                           lambda cover: read.append(cover) or discriminant_class(cover)):
        det = transform_determinant(desc)
    assert_same_covering(*read, ref)
    assert induced_swan(ref, desc.pushed) == induced_swan(ext, chi)
    return det


def assert_twist_class_is_leading(tri):
    """tri.twist_class against -c'/(2b') rebuilt at full window from c_full:
    the same valuation and leading coefficient."""
    full = tri.c_full.derivative() * tri.db.inverse().scale(-tri.field.from_int(2).inverse())
    assert full.valuation() == tri.twist_class.valuation(), tri.conductor
    assert full.leading_coefficient() == tri.twist_class.leading_coefficient(), tri.conductor


def test_determinant_and_swan_through_the_descriptor():
    # F(Ind_{L/K} chi) = Ind_{L'/K'} chi' with chi' = desc.pushed and L'/K'
    # presented by c^-1: the determinant read off the descriptor is the
    # hand-written factor, and Swan is conserved
    wild = 0
    for q, m in itertools.product((3, 5, 7, 9, 11), (0, 1)):
        field, rng = field_from_q(q), random.Random(1000 * q + m)
        for _ in range(16):
            tri = random_legendre_triple(field, m, rng)
            chi = character_for_triple(tri)
            rep = verify_laumon(chi, tri.b, tri.c)
            desc = lft_descriptor(chi, tri.b, tri.c, source=ORIGIN)
            assert rep.det_factor == assert_swan_conserved(chi, tri.b, desc) == (
                reference_det_factor(chi, tri)), (q, m, tri.conductor)
            assert desc.degree == rep.degree
            assert_twist_class_is_leading(tri)
            wild += rep.degree % field.p == 0
    assert wild == 20


@pytest.mark.parametrize("q,m", [(3, 0), (3, 1), (5, 0), (5, 1), (9, 0), (7, 0)])
def test_determinant_on_wildly_ramified_coverings(q, m):
    # b = t^d (u0 + u1 t^k) with p | d: L/K is wildly ramified, which the
    # seeded triples (d prime to p) never reach
    field, rng = field_from_q(q), random.Random(17000 + 10 * q + m)
    p, draws = field.p, 0
    for _ in range(200):
        tri = random_legendre_triple(field, m, rng)
        d, k = rng.choice((p, 2 * p)), rng.randint(1, 3)
        unit = {0: field.from_index(rng.randrange(1, q)), k: field.from_index(rng.randrange(1, q))}
        b = LaurentSeries.from_terms(field, unit, tri.b.prec - tri.b.valuation()).shift(d)
        chi = character_for_triple(tri)
        try:
            rep = verify_laumon(chi, b, oracle=q ** tri.n <= 3 ** 7)
        except (NotLegendre, InseparableB, PrecisionExhausted):
            continue
        assert rep.ok, (q, m, rep.conductor, d, k)
        desc = lft_descriptor(chi, b)
        assert rep.det_factor == reference_det_factor(chi, desc.triple)
        assert_swan_conserved(chi, b, desc)
        assert_twist_class_is_leading(desc.triple)
        draws += 1
        if draws == 12:
            break
    assert draws == 12


@pytest.mark.parametrize("q,m", [(25, 0), (27, 0), (25, 1), (3, 2), (5, 2)])
def test_determinant_on_larger_fields_and_witt_length_three(q, m):
    field, rng = field_from_q(q), random.Random(1000 * q + m)
    for _ in range(8):
        tri = random_legendre_triple(field, m, rng)
        chi = character_for_triple(tri)
        rep = verify_laumon(chi, tri.b)
        desc = lft_descriptor(chi, tri.b)
        assert rep.ok, (q, m, tri.conductor)
        assert rep.det_factor == assert_swan_conserved(chi, tri.b, desc) == (
            reference_det_factor(chi, tri))
        assert desc.degree == rep.degree == -tri.c.valuation()


@pytest.mark.parametrize("q,m", list(itertools.product((5, 7, 11), (0, 1))))
def test_twist_class_on_perturbed_scales(q, m):
    # c = c_full + u t^e, e = ord c + ceil((n + nu(c))/2) + 1, lies in the
    # stationary coset, so c' and c_full' share their leading term; c is cut
    # to the short window, or to e + 1 where that is longer
    field, rng = field_from_q(q), random.Random(3000 * q + m)
    for _ in range(30):
        tri = random_legendre_triple(field, m, rng)
        e = tri.c.valuation() + (tri.n + tri.nu_c + 1) // 2 + 1
        u = LaurentSeries.monomial(field, field.from_index(rng.randrange(1, q)), e, tri.c_full.prec)
        c = (tri.c_full + u).truncate(max(tri.c.prec, e + 1))
        assert c.coefficient(e) != tri.c_full.coefficient(e)
        assert_twist_class_is_leading(LegendreTriple(tri.a, tri.b, c))


def test_one_derivation_of_b_and_no_inversion_of_a_covering(monkeypatch):
    # one verify_laumon derives b' once, in stationary_data: the descriptor
    # builds its covering from that b' and verify_laumon reads lambda off it,
    # so no TotallyRamifiedExt(...) derives b' again; transform_determinant
    # presents L'/K' from leading data and inverts no series over k (the
    # pairing in char_eval inverts its unit lifted to the Witt ring); at
    # source infinity the descriptor presents 1/b without inverting b
    derived, inverted, builds, in_det = [], [], [], []
    derivative, inverse = LaurentSeries.derivative, LaurentSeries.inverse
    ext_init, determinant = TotallyRamifiedExt.__init__, ramify.lft.transform_determinant
    monkeypatch.setattr(LaurentSeries, "derivative",
                        lambda s: derived.append(s) or derivative(s))
    monkeypatch.setattr(LaurentSeries, "inverse",
                        lambda s: inverted.append((s, bool(in_det))) or inverse(s))
    monkeypatch.setattr(TotallyRamifiedExt, "__init__",
                        lambda ext, b: builds.append(b) or ext_init(ext, b))

    def traced_determinant(desc):
        in_det.append(desc)
        try:
            return determinant(desc)
        finally:
            in_det.pop()

    monkeypatch.setattr(ramify.lft, "transform_determinant", traced_determinant)
    same = lambda s, b: s.ring is b.ring and s == b
    for q, m in itertools.product((3, 5), (0, 1)):
        field, rng = field_from_q(q), random.Random(1000 * q + m)
        for _ in range(3):
            tri = random_legendre_triple(field, m, rng)
            chi, b = character_for_triple(tri), tri.b.shift(0)  # a b the memo has not seen
            for log in (derived, inverted, builds):
                log.clear()
            assert verify_laumon(chi, b).ok
            assert sum(same(s, b) for s in derived) == 1, (q, m, tri.conductor)
            assert builds == []
            assert not any(s.ring is field for s, det in inverted if det), (q, m, tri.conductor)
            desc = lft_descriptor(chi, b)
            back = tri.c_full.shift(0)
            inverted.clear()
            lft_descriptor(desc.pushed, back, source="infinity")
            assert not any(same(s, back) for s, _ in inverted), (q, m, tri.conductor)


def test_transform_determinant_needs_source_origin():
    # the source-infinity descriptor of a = t^-2, b = t^-1 at q = 3
    a = WittVector(0, [poly(F3, [(-2, 1)])])
    b = poly(F3, [(-1, 1)])
    desc = lft_descriptor(character_for_triple(LegendreTriple(a, b)), b, source="infinity")
    with pytest.raises(WrongSourcePoint, match=r"^transform_determinant needs a descriptor "
                                               r"at source '0', got 'infinity'$"):
        transform_determinant(desc)


# -- one representative per character ------------------------------------------------------


def unreduced_character(tri):
    """(chi, chi') with tame exponent 1 and wild layers a and a + F(y) - y,
    a = tri.a and y = t^-n in the last entry: one class, the second layer
    at level p n."""
    field, m, prec = tri.field, tri.a.m, tri.a.entries[-1].prec
    y = WittVector(m, [LaurentSeries.zero(field, prec)] * m
                   + [LaurentSeries.t_power(field, -tri.n, prec)])
    one = CycloNumber.from_rational(1, 1)
    return tuple(QuasiCharacter(field, 1, one, a)
                 for a in (tri.a, witt_add(tri.a, witt_sub(frobenius(y), y))))


class TestOneRepresentative:
    @pytest.mark.parametrize("field", [F3, F5, F9], ids=["q3", "q5", "q9"])
    @pytest.mark.parametrize("m", [0, 1])
    def test_unreduced_class_agrees_with_its_reduction(self, field, m):
        for seed in range(6):
            tri = random_legendre_triple(field, m, random.Random(seed))
            chi, chi2 = unreduced_character(tri)
            assert fil_level(chi2.wild) == field.p * tri.n
            assert chi2.reduced_wild() == tri.a
            for entry in (lft_descriptor, verify_laumon):
                assert (class_invariants(entry(chi2, tri.b))
                        == class_invariants(entry(chi, tri.b))), (seed, entry.__name__)

    def test_level_15_layer_of_form_depth_6(self):
        # a + F(y) - y with y = t^-3 at q = 5: level 15, form depth 6
        a = WittVector(0, [poly(F5, [(-6, 1), (-2, 3)])])
        a2 = WittVector(0, [poly(F5, [(-15, 1), (-6, 1), (-3, -1), (-2, 3)])])
        b = poly(F5, [(1, 1), (2, 2)])
        assert (fil_level(a2), LegendreTriple(a, b).n) == (15, 6)
        with pytest.raises(NotLegendre):
            LegendreTriple(a2, b)  # the layer as given is not admissible
        chi, chi2 = (QuasiCharacter(F5, 2, CycloNumber.from_rational(1, 1), x)
                     for x in (a, a2))
        for entry in (lft_descriptor, verify_laumon):
            assert class_invariants(entry(chi2, b)) == class_invariants(entry(chi, b))
        assert verify_laumon(chi2, b).ok

    def test_explicit_scale_is_checked_against_the_reduced_layer(self):
        tri = random_legendre_triple(F5, 0, random.Random(2))
        _, chi2 = unreduced_character(tri)
        assert lft_descriptor(chi2, tri.b, tri.c).triple.c is tri.c
        with pytest.raises(NotLegendre, match="not stationary"):
            verify_laumon(chi2, tri.b, tri.c.scale(F5.from_int(2)))


# -- Fourier inversion -------------------------------------------------------------------


INVERSION_FIELDS = {3: F3, 5: F5, 7: F7, 9: F9}
# (q, m, draw) of the draws whose pushed layer is not reduced
UNREDUCED_PUSHED = (
    (3, 1, 4), (3, 1, 15), (3, 1, 19), (3, 1, 20), (5, 1, 4), (5, 1, 24),
    (9, 1, 6), (9, 1, 9), (9, 1, 12),
)


@functools.lru_cache(maxsize=None)
def inversion_round_trips(q, m):
    """25 seeded draws at window 80, each (triple, chi, descriptor, second
    descriptor): chi has a random tame exponent and chi(t) = zeta_8^k, and
    the second descriptor transforms the pushed character back from source
    infinity over the covering c, at its own stationary scale."""
    field, rng = INVERSION_FIELDS[q], random.Random(10 * q + m)
    draws = []
    for _ in range(25):
        tri = random_legendre_triple(field, m, rng, prec=80)
        chi = character_for_triple(tri, tame_exponent=rng.randrange(q - 1),
                                   uniformizer_value=root_of_unity(8, rng.randrange(8)))
        desc = lft_descriptor(chi, tri.b, tri.c)
        back = lft_descriptor(desc.pushed, tri.c_full, source="infinity")
        draws.append((tri, chi, desc, back))
    return draws


def seeded_units(field, rng):
    """10 random units at window 80, with digits up to t^11."""
    for _ in range(10):
        terms = {j: field.from_index(rng.randrange(field.q)) for j in range(1, 12)}
        yield LaurentSeries.from_terms(
            field, {0: field.from_index(rng.randrange(1, field.q)), **terms}, 80)


def assert_round_trip_closes(tri, chi, back, rng):
    """The second scale is -b to its window, and the second pushed
    character is chi twisted by t -> q: on t and on 10 random units."""
    field = tri.field
    assert back.triple.c == (-tri.b).truncate(back.triple.c.prec)
    t = LaurentSeries.t_power(field, 1, 80)
    assert char_eval(back.pushed, t) == char_eval(chi, t) * field.q
    for u in seeded_units(field, rng):
        assert char_eval(back.pushed, u) == char_eval(chi, u)


@pytest.mark.parametrize("q,m", list(itertools.product(INVERSION_FIELDS, (0, 1))))
def test_fourier_inversion_round_trip(q, m):
    # Laumon's F^(inf,0) F^(0,inf) = [-1]^*(-1): the two V^m(b c) terms
    # cancel and the Kummer and Gauss twists multiply to q
    unreduced = []
    for k, (tri, chi, desc, back) in enumerate(inversion_round_trips(q, m)):
        d = tri.b.valuation()
        assert (back.target, back.degree, back.triple.c.valuation()) == ("0", d, d)
        assert_same_covering(back.covering, TotallyRamifiedExt(tri.c_full.inverse()))
        assert conductor(back.pushed) == conductor(chi)
        if desc.pushed.reduced_wild() is not desc.pushed.wild:
            unreduced.append(k)
            continue
        assert_round_trip_closes(tri, chi, back, random.Random(k))
    assert unreduced == [k for q2, m2, k in UNREDUCED_PUSHED if (q2, m2) == (q, m)]


@pytest.mark.parametrize("q,m,k", UNREDUCED_PUSHED)
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the second transform reads the reduced pushed layer, whose scale is -b "
    "only up to an automorphism sigma of k((s)); checking that needs series "
    "reversion"))
def test_fourier_inversion_unreduced_pushed_layer(q, m, k):
    tri, chi, _, back = inversion_round_trips(q, m)[k]
    assert_round_trip_closes(tri, chi, back, random.Random(k))


def one_unit_root(u, d):
    """The 1-unit d-th root of a 1-unit u, p not dividing d, by Newton's
    method, which doubles the known window at each step."""
    field = u.ring
    assert u.valuation() == 0 and u.leading_coefficient() == field.one
    r, inv_d = LaurentSeries.t_power(field, 0, u.prec), field.from_int(d).inverse()
    for _ in range(u.prec.bit_length()):
        r = r + ((u - r ** d) * (r ** (d - 1)).inverse()).scale(inv_d)
    return r


def sigma_inverse(b, c2, window):
    """sigma^-1 to t^window for the automorphism sigma of k((t)) with
    -b o sigma = c2, where ord(c2) = ord(b) = d, p does not divide d and
    lc(c2) = -lc(b).  With b = lc(b) t^d beta and -c2 = lc(b) t^d gamma for
    1-units beta, gamma, phi = t beta^(1/d) and rho = t gamma^(1/d) satisfy
    phi o sigma = rho, so sigma^-1 = rho^-1 o phi."""
    d, lead = b.valuation(), b.leading_coefficient()
    assert c2.valuation() == d and c2.leading_coefficient() == -lead
    t = LaurentSeries.t_power(b.ring, 1, window)
    phi, rho = (t * one_unit_root(x.shift(-d).scale(lead.inverse()).truncate(window - 1), d)
                for x in (b, -c2))
    return compose(reversion(rho), phi)


@pytest.mark.parametrize("q,m,k", UNREDUCED_PUSHED)
def test_fourier_inversion_up_to_an_automorphism(q, m, k):
    # where the pushed layer is not reduced, the second scale c2 is -b o sigma
    # for an automorphism sigma of k((t)) that chi sees, and the second pushed
    # character is (chi q) o sigma^-1: on t and on 10 random units
    tri, chi, _, back = inversion_round_trips(q, m)[k]
    field, c2 = tri.field, back.triple.c_full
    window = conductor(chi)[0] + 2  # char_eval raises where this is too short
    tau = sigma_inverse(tri.b, c2, window)
    assert compose(c2.truncate(window), tau) == -tri.b
    t = LaurentSeries.t_power(field, 1, window)
    assert char_eval(back.pushed, t) == char_eval(chi, tau) * field.q
    for u in seeded_units(field, random.Random(k)):
        assert char_eval(back.pushed, u) == char_eval(chi, compose(u.truncate(window), tau))


# -- random instances and the precision stamp ---------------------------------------------


class TestRandomTriples:
    def test_deterministic_given_seed(self):
        t1 = random_legendre_triple(F5, 0, random.Random(99))
        t2 = random_legendre_triple(F5, 0, random.Random(99))
        assert t1.conductor == t2.conductor and t1.b == t2.b

    def test_depth_prime_to_p(self):
        rng = random.Random(31)
        for _ in range(10):
            tri = random_legendre_triple(F3, 1, rng)
            assert tri.n % 3 != 0 and tri.n >= 1

    def test_guaranteed_mod_t(self):
        tri = depth1_triple()
        stamp = guaranteed_mod_t(tri.a, tri.b, tri.c)
        assert stamp == tri.c.prec == 0
        assert guaranteed_mod_t(tri.b) == PREC
        with pytest.raises(InconsistentInput):
            guaranteed_mod_t("not a series")
