"""Laurent-series window arithmetic: exactness and precision propagation."""

import pytest
import random

from hypothesis import given, settings, strategies as st

from ramify.errors import (
    LengthMismatch,
    NonUnitLeadingCoefficient,
    PrecisionExhausted,
    ZeroInput,
)
from ramify.fields import FiniteField, WittCoeffElement, WittCoeffRing, make_field
from ramify.series import (
    LaurentSeries,
    decompose_over_base,
    map_coefficients,
    residue,
    residue_product,
    substitute_dilated,
)
from ramify.witt import lift_series

F3 = make_field(3, 1)
F5 = make_field(5, 1)


def fq_series(field, min_val=-6, max_val=6, max_len=10, min_len=1, unit_lead=False):
    """Series on a window of min_len..max_len coefficients from val.  Leading
    zeros are stripped, so only ``unit_lead=True`` (a nonzero first digit)
    makes min_len bound the window that is left after the valuation."""
    @st.composite
    def build(draw):
        val = draw(st.integers(min_val, max_val))
        length = draw(st.integers(min_len, max_len))
        idxs = draw(
            st.lists(st.integers(0, field.q - 1), min_size=length, max_size=length)
        )
        if unit_lead:
            idxs[0] = draw(st.integers(1, field.q - 1))
        return LaurentSeries.make(
            field, val, [field.from_index(i) for i in idxs], val + length
        )

    return build()


def poly(field, pairs, prec):
    return LaurentSeries.from_terms(
        field, {e: field.from_int(c) for e, c in pairs}, prec
    )


# -- constructors and basic state ------------------------------------------


def test_make_normalizes_leading_zeros():
    s = LaurentSeries.make(F3, -2, [F3.zero, F3.zero, F3.one, F3.zero], 2)
    assert s.valuation() == 0
    assert s.prec == 2
    assert len(s.coeffs) == 2


def test_make_window_mismatch():
    with pytest.raises(LengthMismatch):
        LaurentSeries.make(F3, 0, [F3.one], 3)


def test_zero_to_precision_state():
    z = LaurentSeries.make(F3, 1, [F3.zero] * 4, 5)
    assert z.is_zero()
    assert z.valuation() is None
    assert z.ord_lower_bound() == 5


def test_valuation_example():
    s = poly(F3, [(-4, 1), (-1, 1)], 12)
    assert s.valuation() == -4


def test_coefficient_window_guard():
    s = poly(F3, [(0, 1)], 4)
    assert s.coefficient(-3).is_zero()
    assert s.coefficient(3).is_zero()
    with pytest.raises(PrecisionExhausted):
        s.coefficient(4)


def test_has_ord_at_least_certification():
    s = poly(F3, [(2, 1)], 6)
    assert s.has_ord_at_least(2)
    assert not s.has_ord_at_least(3)
    z = LaurentSeries.zero(F3, 6)
    assert z.has_ord_at_least(6)
    with pytest.raises(PrecisionExhausted):
        z.has_ord_at_least(7)


def test_truncate_below_valuation_gives_zero():
    s = poly(F3, [(3, 2)], 8)
    assert s.truncate(3).is_zero()
    assert s.truncate(3).prec == 3


# -- frozen arithmetic examples ---------------------------------------------


def test_unit_product():
    a = poly(F3, [(0, 1), (1, 1)], 10)
    b = poly(F3, [(0, 1), (1, -1)], 10)
    assert (a * b) == poly(F3, [(0, 1), (2, -1)], 10)


def test_geometric_inverse():
    g = poly(F3, [(0, 1), (1, -1)], 10).inverse()
    assert g.prec == 10
    assert all(g.coefficient(i) == F3.one for i in range(10))


def test_inverse_precision_rule():
    h = poly(F3, [(-2, 1), (0, 1)], 10)
    hi = h.inverse()
    assert hi.prec == 10 - 2 * (-2)
    assert (h * hi) == LaurentSeries.t_power(F3, 0, 14)


def test_inverse_rejects_nonunit_lead():
    R = WittCoeffRing(F3, 1)
    s = LaurentSeries.monomial(R, R.from_int(3), 0, 6)
    with pytest.raises(NonUnitLeadingCoefficient):
        s.inverse()
    with pytest.raises(NonUnitLeadingCoefficient):
        LaurentSeries.zero(F3, 5).inverse()


def test_witt_coeff_ring_inverse():
    R = WittCoeffRing(F3, 1)
    s = LaurentSeries.from_terms(R, {0: R.one, 1: R.from_int(3)}, 8)
    assert (s * s.inverse()) == LaurentSeries.t_power(R, 0, 8)


def test_mul_precision_rule():
    a = poly(F3, [(-1, 1)], 5)  # prec 5, val -1
    b = poly(F3, [(2, 1)], 9)  # prec 9, val 2
    assert (a * b).prec == min(5 + 2, 9 + (-1))


def test_add_precision_rule():
    a = poly(F3, [(0, 1)], 5)
    b = poly(F3, [(0, 1)], 9)
    assert (a + b).prec == 5


def test_zero_factor_precision():
    z = LaurentSeries.zero(F3, 4)
    b = poly(F3, [(2, 1)], 9)
    prod = z * b
    assert prod.is_zero()
    assert prod.prec == min(4 + 2, 9 + 4)


# -- calculus -----------------------------------------------------------------


def test_derivative_kills_pth_powers():
    for field in (F3, F5):
        tp = LaurentSeries.t_power(field, field.p, 3 * field.p)
        d = tp.derivative()
        assert d.is_zero()
        assert d.prec == 3 * field.p - 1


def test_derivative_over_witt_coefficients_keeps_p_part():
    R = WittCoeffRing(F3, 1)
    d = LaurentSeries.t_power(R, 3, 9).derivative()
    assert d.valuation() == 2
    assert d.coefficient(2) == R.from_int(3)


def test_residue():
    g = poly(F3, [(-3, 1), (-1, 2), (0, 1)], 6)
    assert residue(g) == F3.from_int(2)
    with pytest.raises(PrecisionExhausted):
        residue(poly(F3, [(-3, 1)], -1))


def _random_window(ring, rng, draw):
    """A seeded series on [val, val + length): length 0 or all-zero digits
    give the zero-to-precision state, sparse digits a late valuation."""
    val, length = rng.randrange(-6, 5), rng.choice((0, 1, 2, 3, 5, 8))
    dense = rng.random() < 0.6
    return LaurentSeries.make(
        ring, val, [draw() if dense or rng.random() < 0.2 else ring.zero
                    for _ in range(length)], val + length)


@pytest.mark.parametrize("ring,seed", [(F3, 3), (make_field(3, 2), 9), (WittCoeffRing(F5, 1), 25)],
                         ids=["F3", "F9", "W2(F5)"])
def test_residue_product_matches_residue_of_product(ring, seed):
    # the dot product against residue(x * y): same value, and
    # PrecisionExhausted on exactly the same pairs
    rng = random.Random(seed)
    if isinstance(ring, WittCoeffRing):
        draw = lambda: ring.from_int(rng.randrange(ring.modulus_int))
    else:
        draw = lambda: ring.from_index(rng.randrange(ring.q))
    seen = {"nonzero": 0, "zero operand": 0, "raised": 0}
    for _ in range(600):
        x, y = _random_window(ring, rng, draw), _random_window(ring, rng, draw)
        try:
            want = residue(x * y)
        except PrecisionExhausted:
            with pytest.raises(PrecisionExhausted):
                residue_product(x, y)
            seen["raised"] += 1
            continue
        assert residue_product(x, y) == want, (x, y)
        if x.is_zero() or y.is_zero():
            seen["zero operand"] += 1
        seen["nonzero"] += not want.is_zero()
    assert min(seen.values()) >= 20, seen


def _coeff_mul(a, b):
    """a * b on coefficient objects, apart from the packing: F_q elements by
    their log tables; Witt coefficients by the schoolbook product of their
    digit tuples, reduced by the lifted modulus h from the top down."""
    if not isinstance(a, WittCoeffElement):
        return a * b
    ring = a.ring
    f, h = ring.f, ring.lifted_modulus
    conv = [0] * (2 * f - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            conv[i + j] += ai * bj
    for top in range(2 * f - 2, f - 1, -1):  # X^top = -sum h_i X^(top - f + i)
        c = conv.pop()
        for i in range(f):
            conv[top - f + i] -= c * h[i]
    return WittCoeffElement(ring, conv)


def _naive_mul(x, y):
    """x * y term by term on coefficient objects, with the precision rule."""
    ring = x.ring
    prec = min(x.prec + y.ord_lower_bound(), y.prec + x.ord_lower_bound())
    terms = {}
    for e1, a in x.terms():
        for e2, b in y.terms():
            if e1 + e2 < prec:
                terms[e1 + e2] = terms.get(e1 + e2, ring.zero) + _coeff_mul(a, b)
    return LaurentSeries.from_terms(ring, terms, prec)


def _naive_inverse(x):
    """1/x by the recursion u_0 w_k = -sum_{j>=1} u_j w_(k-j) on coefficient
    objects, the leading inverse taken by the ring itself and checked."""
    ring, v, u = x.ring, x.val, x.coeffs
    out = [u[0].inverse()]
    assert _coeff_mul(u[0], out[0]) == ring.one
    for k in range(1, x.prec - v):
        acc = ring.zero
        for j in range(1, min(k, len(u) - 1) + 1):
            acc = acc + _coeff_mul(u[j], out[k - j])
        out.append(-_coeff_mul(out[0], acc))
    return LaurentSeries.make(ring, -v, out, x.prec - 2 * v)


def _state(s):
    return s.val, s.coeffs, s.prec


def _draw_element(ring, rng):
    """A seeded element: over a Witt ring every digit is drawn, and one draw
    in four is a multiple of p, so that non-unit leads turn up at any q."""
    if isinstance(ring, FiniteField):
        return ring.from_index(rng.randrange(ring.q))
    p, M = ring.field.p, ring.modulus_int
    if rng.random() < 0.25:
        return WittCoeffElement(ring, [p * rng.randrange(M // p) for _ in range(ring.f)])
    return WittCoeffElement(ring, [rng.randrange(M) for _ in range(ring.f)])


F9, F27, F6561 = make_field(3, 2), make_field(3, 3), make_field(3, 8)
KERNEL_RINGS = {  # id: (ring, seed)
    "F3": (F3, 1), "F5": (F5, 2), "Z/9": (WittCoeffRing(F3, 1), 3),
    "Z/25": (WittCoeffRing(F5, 1), 4), "Z/27": (WittCoeffRing(F3, 2), 5),
    "F9": (F9, 6), "F25": (make_field(5, 2), 7), "F27": (F27, 8), "F6561": (F6561, 9),
    "W2(F9)": (WittCoeffRing(F9, 1), 10), "W3(F9)": (WittCoeffRing(F9, 2), 11),
    "W2(F343)": (WittCoeffRing(make_field(7, 3), 1), 12)}


@pytest.mark.parametrize("name", list(KERNEL_RINGS))
def test_integer_kernels_match_coefficient_objects(name):
    # *, scale, inverse, derivative and residue_product run on packed ints at
    # every residue degree; each against a naive loop on the ring's own elements,
    # on seeded windows with zero-to-precision operands, non-unit leads and
    # residue windows that cannot be certified
    ring, seed = KERNEL_RINGS[name]
    rng = random.Random(seed)
    draw = lambda: _draw_element(ring, rng)
    seen = {"zero operand": 0, "inverted": 0, "non-unit lead": 0, "raised": 0, "residue": 0}
    for _ in range(300):
        x, y = _random_window(ring, rng, draw), _random_window(ring, rng, draw)
        assert _state(x * y) == _state(_naive_mul(x, y)), (x, y)
        seen["zero operand"] += x.is_zero() or y.is_zero()
        c = draw()
        assert _state(x.scale(c)) == _state(LaurentSeries.from_terms(
            ring, {e: _coeff_mul(c, a) for e, a in x.terms()}, x.prec)), (x, c)
        dx = LaurentSeries.from_terms(
            ring, {e - 1: _coeff_mul(ring.from_int(e), c) for e, c in x.terms()}, x.prec - 1)
        assert _state(x.derivative()) == _state(dx), x
        if x.is_zero() or not x.leading_coefficient().is_unit():
            with pytest.raises(NonUnitLeadingCoefficient):
                x.inverse()
            seen["non-unit lead"] += not x.is_zero()
        else:
            assert _state(x.inverse()) == _state(_naive_inverse(x)), x
            seen["inverted"] += 1
        try:
            want = _naive_mul(x, y).coefficient(-1)
        except PrecisionExhausted:
            with pytest.raises(PrecisionExhausted):
                residue_product(x, y)
            seen["raised"] += 1
            continue
        assert residue_product(x, y) == want, (x, y)
        seen["residue"] += not want.is_zero()
    if isinstance(ring, FiniteField):  # every nonzero lead is a unit
        assert seen.pop("non-unit lead") == 0
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("ring", [WittCoeffRing(F9, 2), WittCoeffRing(F27, 2)],
                         ids=["W3(F9)", "W3(F27)"])
def test_integer_kernels_on_a_long_window_of_top_digits(ring):
    # every digit M - 1 on a window of 120 coefficients: the largest slot
    # sums the kernels make on that window, products of three factors in
    # inverse included, against the naive loops
    top = WittCoeffElement(ring, [ring.modulus_int - 1] * ring.f)
    x = LaurentSeries.make(ring, -60, [top] * 120, 60)
    assert _state(x * x) == _state(_naive_mul(x, x))
    assert _state(x.inverse()) == _state(_naive_inverse(x))
    assert residue_product(x, x) == _naive_mul(x, x).coefficient(-1)
    dx = LaurentSeries.from_terms(
        ring, {e - 1: _coeff_mul(ring.from_int(e), c) for e, c in x.terms()}, x.prec - 1)
    assert _state(x.derivative()) == _state(dx)


PACKED_FIELDS = {"F9": F9, "F27": F27, "F6561": F6561}
PACKED_RINGS = {**PACKED_FIELDS, **{f"W{m + 1}({name})": WittCoeffRing(F, m)
                                    for name, F in PACKED_FIELDS.items() for m in (0, 1, 2)}}


@pytest.mark.parametrize("name", list(PACKED_RINGS))
def test_packing_round_trips(name):
    # wrap inverts ints, canon fixes the canonical ints, and a canonical int
    # is canon of any int that differs from it by M in one slot
    ring, rng = PACKED_RINGS[name], random.Random(name)
    xs = [_draw_element(ring, rng) for _ in range(200)]
    packed = ring.ints(xs)
    assert ring.wrap(packed) == xs
    assert [ring.canon(c) for c in packed] == packed
    shifted = [c + (ring.modulus_int << rng.choice(ring._shifts)) for c in packed]
    assert [ring.canon(c) for c in shifted] == packed


@pytest.mark.parametrize("name", list(PACKED_FIELDS))
@pytest.mark.parametrize("m", [0, 1, 2])
def test_lift_series_is_the_coefficient_wise_lift(name, m):
    # the packed ints of a series over F_q are canonical over the Witt ring
    field = PACKED_FIELDS[name]
    R, rng = WittCoeffRing.for_field(field, m), random.Random(f"{name} {m}")
    for _ in range(20):
        s = _random_window(field, rng, lambda: _draw_element(field, rng))
        assert _state(lift_series(s, R)) == _state(map_coefficients(s, R.lift, R))


def test_dlog_residue_is_valuation_mod_p():
    u = poly(F3, [(5, 2), (6, 1), (9, 2)], 25)
    assert residue(u.dlog()) == F3.from_int(5)


def test_dlog_additive_on_products():
    u = poly(F3, [(1, 1), (2, 2)], 20)
    v = poly(F3, [(-2, 2), (0, 1), (1, 1)], 20)
    lhs = (u * v).dlog()
    rhs = u.dlog() + v.dlog()
    assert lhs == rhs


# -- property tests (shared-precision ring axioms) ---------------------------


@settings(max_examples=60, deadline=None)
@given(fq_series(F5), fq_series(F5))
def test_add_commutes(a, b):
    assert (a + b) == (b + a)


@settings(max_examples=60, deadline=None)
@given(fq_series(F5), fq_series(F5), fq_series(F5))
def test_mul_associates(a, b, c):
    assert ((a * b) * c) == (a * (b * c))


@settings(max_examples=60, deadline=None)
@given(fq_series(F5), fq_series(F5), fq_series(F5))
def test_distributive(a, b, c):
    assert (a * (b + c)) == (a * b + a * c)


@settings(max_examples=60, deadline=None)
@given(fq_series(F3))
def test_pow_matches_repeated_mul(s):
    assert (s * s * s) == s**3


@settings(max_examples=60, deadline=None)
@given(fq_series(F5))
def test_t_times_derivative_does_not_drop_valuation(s):
    d = s.derivative().shift(1)
    if s.is_zero() or d.is_zero():
        return
    assert d.valuation() >= s.valuation()


@settings(max_examples=40, deadline=None)
@given(fq_series(F5, min_val=-4, max_val=4, max_len=8))
def test_leibniz_rule(a):
    b = poly(F5, [(1, 1), (2, 3)], max(a.prec + 4, 8))
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    assert lhs == rhs


# -- dilated substitution -----------------------------------------------------


def test_substitute_dilated_on_t():
    s = LaurentSeries.t_power(F3, 1, 8)
    out = substitute_dilated(s, 2, F3.from_int(2))
    assert out == poly(F3, [(1, 1), (3, 2)], 8)


def test_substitute_dilated_on_inverse_t():
    s = LaurentSeries.t_power(F3, -1, 5)
    out = substitute_dilated(s, 1, F3.one)
    # 1/(t(1+t)) = t^-1 - 1 + t - t^2 + ...
    assert out == poly(F3, [(-1, 1), (0, -1), (1, 1), (2, -1), (3, 1), (4, -1)], 5)


@settings(max_examples=40, deadline=None)
@given(fq_series(F3, min_val=-5, max_val=5, max_len=8), st.integers(1, 3),
       st.integers(1, 2))
def test_substitute_dilated_is_ring_hom(a, r, theta_idx):
    theta = F3.from_index(theta_idx)
    b = poly(F3, [(-1, 2), (0, 1), (3, 1)], a.prec + 8)
    ua, ub = substitute_dilated(a, r, theta), substitute_dilated(b, r, theta)
    assert substitute_dilated(a * b, r, theta) == ua * ub
    assert substitute_dilated(a + b, r, theta) == ua + ub


@settings(max_examples=40, deadline=None)
@given(fq_series(F5, min_val=-5, max_val=5, max_len=8, min_len=4, unit_lead=True),
       st.integers(1, 3), st.integers(1, 4))
def test_dilation_ratio_has_positive_depth(s, r, theta_idx):
    # u(s)/s - 1 vanishes to order >= r
    theta = F5.from_index(theta_idx)
    ratio = substitute_dilated(s, r, theta) * s.inverse()
    one = LaurentSeries.t_power(F5, 0, ratio.prec)
    assert (ratio - one).has_ord_at_least(r)


def test_dilation_ratio_on_a_short_window_cannot_certify_depth():
    # s = t^3 + O(t^4) leaves one known coefficient, so u(s)/s - 1 is known
    # only mod t: ord >= 2 cannot be certified, and the library says so
    s = poly(F5, [(3, 1)], 4)
    ratio = substitute_dilated(s, 2, F5.from_index(1)) * s.inverse()
    one = LaurentSeries.t_power(F5, 0, ratio.prec)
    with pytest.raises(PrecisionExhausted):
        (ratio - one).has_ord_at_least(2)


def test_dilation_taylor_expansion():
    # u(x) - x agrees with the truncated Taylor sum
    #   sum_{i=1}^{p-1} (t^i x^(i) / i!) (t^r theta)^i
    # to order ord(x) + p*r.
    p, r = 3, 2
    theta = F3.from_int(2)
    for pairs in ([(-5, 1), (-2, 2), (0, 1)], [(1, 2), (4, 1)], [(-1, 1)]):
        x = poly(F3, pairs, 24)
        lhs = substitute_dilated(x, r, theta) - x
        rhs = LaurentSeries.zero(F3, 24)
        fact = 1
        for i in range(1, p):
            fact *= i
            di = x.iterated_derivative(i).shift(i)
            coef = F3.from_int(fact).inverse() * theta**i
            rhs = rhs + di.scale(coef).shift(r * i)
        assert (lhs - rhs).has_ord_at_least(x.valuation() + p * r)


# -- base decomposition -------------------------------------------------------


def test_decompose_over_base_roundtrip():
    base = poly(F3, [(2, 1), (3, 1)], 40)
    s = poly(F3, [(-4, 2), (-1, 1), (0, 1), (3, 2)], 20)
    gs, guaranteed = decompose_over_base(s, base)
    assert len(gs) == 2
    acc = LaurentSeries.zero(F3, guaranteed)
    for i, gi in enumerate(gs):
        for k, c in gi.terms():
            acc = acc + (base**k).scale(c).shift(i).truncate(guaranteed)
    assert acc == s.truncate(guaranteed)


@settings(max_examples=25, deadline=None)
@given(fq_series(F3, min_val=-6, max_val=4, max_len=8))
def test_decompose_roundtrip_property(s):
    base = poly(F3, [(3, 2), (4, 1), (6, 1)], s.prec + 40)
    gs, guaranteed = decompose_over_base(s, base)
    acc = LaurentSeries.zero(F3, guaranteed)
    for i, gi in enumerate(gs):
        for k, c in gi.terms():
            acc = acc + (base**k).scale(c).shift(i).truncate(guaranteed)
    assert acc == s.truncate(guaranteed)
    assert guaranteed >= min(s.prec, 0) - 6  # never catastrophically short


def test_decompose_rejects_bad_base():
    s = poly(F3, [(0, 1)], 8)
    with pytest.raises(ZeroInput):
        decompose_over_base(s, poly(F3, [(0, 1), (1, 1)], 8))
    R = WittCoeffRing(F3, 1)
    sR = LaurentSeries.t_power(R, 0, 8)
    bad = LaurentSeries.monomial(R, R.from_int(3), 1, 8)
    with pytest.raises(NonUnitLeadingCoefficient):
        decompose_over_base(sR, bad)


# -- coefficient promotion ----------------------------------------------------


def test_promote_through_field_embedding():
    big, emb = F3.extension(2)
    a = poly(F3, [(-1, 2), (0, 1)], 8)
    b = poly(F3, [(1, 1), (2, 2)], 8)
    pa, pb = map_coefficients(a, emb, big), map_coefficients(b, emb, big)
    assert map_coefficients(a * b, emb, big) == pa * pb
    assert pa.valuation() == a.valuation() and pa.prec == a.prec
