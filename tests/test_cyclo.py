import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import ramify.cyclo
from ramify.cyclo import (
    CycloNumber,
    embed,
    euler_phi,
    minimal_form,
    power_times,
    pretty,
    root_of_unity,
)
from ramify.errors import DivisionByZero, IncompatibleLevels, LengthMismatch


def reduced_phi(N):
    """Phi_N read back from the reduction as X^phi(N) - (X^phi(N) mod Phi_N)."""
    deg = euler_phi(N)
    buf = [0] * N
    buf[deg % N] = 1  # X^deg mod X^N - 1
    return tuple(-c for c in ramify.cyclo._reduce(buf, N)) + (1,)


def test_cyclotomic_polys_small():
    assert reduced_phi(1) == (-1, 1)
    assert reduced_phi(2) == (1, 1)
    assert reduced_phi(3) == (1, 1, 1)
    assert reduced_phi(4) == (1, 0, 1)
    assert reduced_phi(6) == (1, -1, 1)
    assert reduced_phi(9) == (1, 0, 0, 1, 0, 0, 1)
    assert reduced_phi(12) == (1, 0, -1, 0, 1)


@lru_cache(maxsize=None)
def reference_cyclotomic_poly(N):
    """Test-only Phi_N by the divisor loop: X^N - 1 divided exactly by Phi_d
    for every proper divisor d of N."""
    num = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            den = reference_cyclotomic_poly(d)
            out = [0] * (len(num) - len(den) + 1)
            for k in range(len(out) - 1, -1, -1):
                c = out[k] = num[k + len(den) - 1]
                if c:
                    for i, e in enumerate(den):
                        num[k + i] -= c * e
            assert not any(num)
            num = out
    return tuple(num)


def test_cyclotomic_poly_matches_the_divisor_loop():
    # Phi_N read back from the reduction against the divisor-loop definition,
    # at every level up to 400 and at two levels with four and three primes
    for N in [*range(1, 401), 1230, 6588]:
        assert reduced_phi(N) == reference_cyclotomic_poly(N), N
    # seeded integer buffers against long division by the reference Phi_N,
    # at levels with up to four primes: dense, 2% dense, and with nothing at
    # or above degree phi(N)
    rng = random.Random(37)
    for N in (*REF_LEVELS, 210, 330):
        deg = euler_phi(N)
        for density, top in ((1.0, N), (0.02, N), (1.0, deg)):
            buf = [rng.randrange(-9, 10) if i < top and rng.random() < density else 0
                   for i in range(N)]
            assert ramify.cyclo._reduce(list(buf), N) == ref_reduce(buf, N), (N, density, top)


def test_from_monomials_builds_at_the_level_its_roots_need():
    # level N / gcd(N, every exponent), negative exponents and the empty sum
    # too; at N = 12 against the sum built densely at level 12
    z12 = root_of_unity(12)
    for terms, level in (([(4, 1), (8, 2)], 3), ([(-4, 1)], 3), ([(6, 5), (0, 1)], 2),
                         ([(3, 1), (4, Fraction(1, 2))], 12), ([], 1)):
        x = CycloNumber.from_monomials(12, terms)
        assert x.N == level, terms
        assert x == sum((c * z12 ** k for k, c in terms), CycloNumber.zero(12)), terms
    # a root of F_211's character level 44310 = 210 * 211 lands at level 210
    x = CycloNumber.from_monomials(44310, [(-2 * 211, 1), (0, Fraction(1, 2))])
    assert x.N == 105 and x == root_of_unity(105, -1) + Fraction(1, 2)
    assert root_of_unity(44310, 211).N == 210
    assert root_of_unity(44310, 211) == root_of_unity(210)


def test_primitive_cube_roots_sum():
    z = root_of_unity(3)
    assert z + z**2 == -1
    assert z**3 == 1


def test_i_squared():
    assert root_of_unity(4) ** 2 == -1


def test_inverse_random():
    rng = random.Random(42)
    for N in (3, 12, 24, 36):
        deg = euler_phi(N)
        done = 0
        while done < 15:
            x = CycloNumber(N, [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(deg)])
            if x.is_zero():
                continue
            assert x * x.inverse() == 1
            done += 1


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        CycloNumber.zero(12).inverse()


def test_embed_is_ring_hom():
    rng = random.Random(9)
    for _ in range(25):
        x = CycloNumber(12, [rng.randrange(-4, 5) for _ in range(4)])
        y = CycloNumber(12, [rng.randrange(-4, 5) for _ in range(4)])
        assert embed(x * y, 36) == embed(x, 36) * embed(y, 36)
        assert embed(x + y, 36) == embed(x, 36) + embed(y, 36)


def test_embed_requires_divisibility():
    with pytest.raises(IncompatibleLevels):
        embed(root_of_unity(5), 12)


def test_cross_level_equality():
    assert root_of_unity(3) == root_of_unity(12, 4)
    assert root_of_unity(3) != root_of_unity(12, 5)


def test_ring_axioms_random():
    rng = random.Random(5)
    N = 24
    deg = euler_phi(N)

    def rand():
        return CycloNumber(N, [Fraction(rng.randrange(-3, 4)) for _ in range(deg)])

    for _ in range(30):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + (-a) == CycloNumber.zero(N)


def psi_tower(m, x, p, N):
    """psi_m(x) = zeta_{p^(m+1)}^x, written at the level N."""
    return root_of_unity(N, N // p ** (m + 1) * x)


def test_hash_agrees_with_equality_across_levels():
    assert root_of_unity(3, 1) == root_of_unity(6, 2)
    assert len({root_of_unity(3, 1), root_of_unity(6, 2)}) == 1
    two_thirds = CycloNumber.from_rational(2, 3)
    assert two_thirds == 3 and hash(two_thirds) == hash(3)
    assert hash(embed(root_of_unity(8, 3), 24)) == hash(root_of_unity(8, 3))


def test_psi_tower_compatibility():
    # psi_m(p^m * a) = psi_0(a), exactly, inside one character level
    for p, m in [(3, 1), (3, 2), (5, 1)]:
        N = (p - 1) * p ** (m + 1)
        for a in range(p):
            assert psi_tower(m, p**m * a, p, N) == psi_tower(0, a, p, N)


def test_psi_zero():
    assert psi_tower(0, 0, 3, 2 * 3) == 1


def test_psi_is_injective_homomorphism():
    p, m = 3, 1
    N = (p - 1) * p ** (m + 1)
    values = [psi_tower(m, a, p, N) for a in range(p ** (m + 1))]
    assert len(set(values)) == p ** (m + 1)
    rng = random.Random(1)
    for _ in range(20):
        a, b = rng.randrange(9), rng.randrange(9)
        assert psi_tower(m, a, p, N) * psi_tower(m, b, p, N) == psi_tower(m, a + b, p, N)


def test_conjugate_product_norm():
    # the two conjugates of 1 + 2*zeta_3 multiply to 3
    x = CycloNumber(3, [1, 2])
    assert x * x.galois(2) == 3


def test_galois_needs_a_unit_exponent():
    # zeta -> zeta^2 is no automorphism at N = 12: on numbers it would give
    # (z * z^5).galois(2) = -1 but z.galois(2) * (z^5).galois(2) = -1 - 2 zeta_3
    z = root_of_unity(12)
    for x in (z, z * z ** 5, CycloNumber.from_rational(12, 3)):
        for a in (0, 2, 3, 6, -4, 12):
            with pytest.raises(IncompatibleLevels):
                x.galois(a)
    for a in (1, 5, 7, 11, -1, 13):
        assert (z * z ** 5).galois(a) == z.galois(a) * (z ** 5).galois(a)
    assert CycloNumber.from_rational(1, 3).galois(2) == 3


def test_pretty_and_minimal_form():
    G = CycloNumber(3, [1, 2])
    assert pretty(G) == "1+2*z3"
    assert pretty(embed(G, 36)) == "1+2*z3"
    assert pretty(CycloNumber.from_rational(12, Fraction(-3))) == "-3"
    y = minimal_form(embed(root_of_unity(4), 24))
    assert y.N == 4


# -- a Fraction reference: dense convolution and long division by Phi_N ------

REF_LEVELS = (1, 2, 3, 4, 8, 9, 12, 16, 21, 24, 40, 144)


def ref_reduce(coeffs, N):
    """Any-length Fraction list reduced mod Phi_N by long division by the
    divisor-loop reference."""
    phi = reference_cyclotomic_poly(N)
    deg = len(phi) - 1
    coeffs = [Fraction(c) for c in coeffs]
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            for i in range(deg + 1):
                coeffs[k - deg + i] -= c * phi[i]
    return tuple(coeffs[:deg] + [Fraction(0)] * (deg - len(coeffs)))


def ref_mul(a, b, N):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    return ref_reduce(conv, N)


def ref_spread(a, N, step):
    """sum_j a_j X^(j step mod N), reduced mod Phi_N."""
    buf = [Fraction(0)] * N
    for j, c in enumerate(a):
        buf[(j * step) % N] += c
    return ref_reduce(buf, N)


def ref_minimal_form(a, N):
    """(M, coefficients): the first divisor M of N, in increasing order, for
    which a solves a = sum_j c_j X^(j N/M) mod Phi_N, by Gaussian elimination."""
    for M in (d for d in range(1, N + 1) if N % d == 0):
        degM = euler_phi(M)
        basis = [ref_spread([0] * j + [1], N, N // M) for j in range(degM)]
        rows = [[basis[j][i] for j in range(degM)] + [a[i]] for i in range(len(a))]
        rank = 0
        for col in range(degM):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            rows[rank] = [c / rows[rank][col] for c in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
            rank += 1
        if all(row[degM] == 0 for row in rows[rank:]):
            sol = [Fraction(0)] * degM
            for row in rows[:rank]:
                sol[next(c for c in range(degM) if row[c])] = row[degM]
            return M, tuple(sol)
    raise AssertionError("level N always holds a")


def rand_coeffs(rng, deg, density=1.0):
    return [Fraction(rng.randrange(-5, 6), rng.choice((1, 1, 2, 3, 6)))
            if rng.random() < density else Fraction(0) for _ in range(deg)]


def assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    assert len(x.num) == euler_phi(x.N)
    assert x.coeffs == tuple(Fraction(c, x.den) for c in x.num)


@pytest.mark.parametrize("N", REF_LEVELS)
def test_ring_ops_match_fraction_reference(N):
    rng = random.Random(N)
    deg = euler_phi(N)
    for trial in range(6):
        a, b = rand_coeffs(rng, deg, 1 - trial / 8), rand_coeffs(rng, deg, 0.5)
        x, y = CycloNumber(N, a), CycloNumber(N, b)
        cases = [
            (x * y, ref_mul(a, b, N)),
            (x + y, tuple(u + v for u, v in zip(a, b))),
            (x - y, tuple(u - v for u, v in zip(a, b))),
            (-x, tuple(-u for u in a)),
            (x * Fraction(-3, 4), tuple(u * Fraction(-3, 4) for u in a)),
        ]
        for a_ in (1, N - 1, rng.choice([k for k in range(1, N + 1) if math.gcd(k, N) == 1])):
            cases.append((x.galois(a_), ref_spread(a, N, a_)))
        for k in (2, 3):
            cases.append((embed(x, k * N), ref_spread(a, k * N, k)))
        if not x.is_zero():
            inv = x.inverse()
            assert_canonical(inv)
            assert ref_mul(a, inv.coeffs, N) == ref_reduce([1], N), (N, trial)
        for got, want in cases:
            assert_canonical(got)
            assert got.coeffs == want, (N, trial)


@pytest.mark.parametrize("N", REF_LEVELS)
def test_minimal_form_matches_fraction_reference(N):
    rng = random.Random(1000 + N)
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    for _ in range(4):
        M = rng.choice(divisors)
        a = ref_spread(rand_coeffs(rng, euler_phi(M), 0.7), N, N // M)
        x = CycloNumber(N, a)
        y = minimal_form(x)
        assert_canonical(y)
        assert (y.N, y.coeffs) == ref_minimal_form(a, N), (N, M)
        assert y == x and hash(y) == hash(x)


@pytest.mark.parametrize("N", REF_LEVELS)
def test_equal_values_at_two_levels_compare_and_hash_equal(N):
    rng = random.Random(2000 + N)
    x = CycloNumber(N, rand_coeffs(rng, euler_phi(N)))
    for k in (2, 3, 5):
        z = embed(x, k * N)
        assert_canonical(z)
        assert z == x and x == z and hash(z) == hash(x)
        assert z != x + root_of_unity(k * N)
    r = CycloNumber.from_rational(N, Fraction(-7, 3))
    assert r == Fraction(-7, 3) and hash(r) == hash(Fraction(-7, 3))
    assert (r.num[0], r.den) == (-7, 3)


def test_canonical_form_divides_out_the_gcd():
    x = CycloNumber(12, [Fraction(2, 6), Fraction(4, 6), 0, Fraction(-8, 6)])
    assert (x.num, x.den) == ((1, 2, 0, -4), 3)
    assert ((x * 3).num, (x * 3).den) == ((1, 2, 0, -4), 1)
    zero = x - x
    assert (zero.num, zero.den) == ((0, 0, 0, 0), 1) and zero == 0


# -- inverse: by the complex conjugate where x xbar is rational, else the tower ----


@pytest.fixture
def tower_calls(monkeypatch):
    """The level of each tower step that ``inverse`` takes, recorded as it runs."""
    calls = []
    real = ramify.cyclo._drop_prime

    def counted(x, ell):
        calls.append(x.N)
        return real(x, ell)

    monkeypatch.setattr(ramify.cyclo, "_drop_prime", counted)
    return calls


def unit_norm_values():
    from ramify.epsilon import gauss_sum, quad_gauss
    from ramify.fields import field_from_q

    yield "root", root_of_unity(24, 5)
    yield "root-minus-1", root_of_unity(12, 6)
    yield "rational", CycloNumber.from_rational(21, Fraction(-7, 3))
    yield "rational-times-root", root_of_unity(40, 7) * Fraction(5, 6)
    for q, j, k in ((5, 1, 3), (7, 2, 1), (9, 3, 5)):
        field = field_from_q(q)
        yield f"gauss-q{q}-j{j}", gauss_sum(field, j) * root_of_unity((q - 1) * field.p, k)
    yield "quad-gauss-q7", quad_gauss(field_from_q(7)) * root_of_unity(28, 3) * Fraction(-2)


def test_unit_norm_inverse_matches_fraction_reference(tower_calls):
    for name, x in unit_norm_values():
        assert (x * x.galois(-1)).is_rational(), name
        inv = x.inverse()
        assert_canonical(inv)
        assert ref_mul(x.coeffs, inv.coeffs, x.N) == ref_reduce([1], x.N), name
    assert tower_calls == []


def test_quadratic_gauss_sum_inverse_at_q_1009():
    from ramify.epsilon import quad_gauss
    from ramify.fields import make_field

    field = make_field(1009, 1)
    G = quad_gauss(field)
    assert G.inverse() == G * Fraction(field.kappa0(-field.one), field.q)


@pytest.mark.parametrize("N, terms", [(5, [(0, 1), (1, 1)]), (144, [(0, 1), (5, 1)]),
                                      (12, [(0, 2), (1, Fraction(1, 3)), (3, -1)])],
                         ids=["1+z5", "1+z144^5", "2+z12/3-z12^3"])
def test_inverse_without_a_rational_norm_takes_the_tower(tower_calls, N, terms):
    x = CycloNumber.from_monomials(N, terms)
    assert not (x * x.galois(-1)).is_rational()
    inv = x.inverse()
    assert tower_calls
    assert_canonical(inv)
    assert ref_mul(x.coeffs, inv.coeffs, N) == ref_reduce([1], N)


# -- mixed operands -------------------------------------------------------------


def test_reflected_subtraction_and_division():
    z = CycloNumber(12, [1, 2, 0, -1])
    assert 1 - z == -(z - 1) == CycloNumber(12, [0, -2, 0, 1])
    assert Fraction(1, 2) - z == -(z - Fraction(1, 2))
    assert 1 / z == z.inverse() and (1 / z) * z == 1
    assert Fraction(3, 5) / z == z.inverse() * Fraction(3, 5)
    with pytest.raises(DivisionByZero):
        1 / CycloNumber.zero(12)


@pytest.mark.parametrize("other", [0.5, 1.5, "1", None, complex(1, 0)])
def test_ring_ops_refuse_other_types(other):
    z = root_of_unity(12)
    ops = (lambda: z + other, lambda: other + z, lambda: z - other, lambda: other - z,
           lambda: z * other, lambda: other * z, lambda: z / other, lambda: other / z)
    for op in ops:
        with pytest.raises(TypeError):
            op()
    assert z.__eq__(other) is NotImplemented
    assert not (CycloNumber.from_rational(1, Fraction(3, 2)) == other)


def test_constructors_refuse_floats():
    with pytest.raises(TypeError):
        CycloNumber(3, [0.5, 1])
    with pytest.raises(TypeError):
        CycloNumber.from_rational(3, 0.5)
    with pytest.raises(TypeError):
        CycloNumber.from_monomials(3, [(1, 0.5)])


def test_wrong_length_raises_even_under_python_O():
    with pytest.raises(LengthMismatch):
        CycloNumber(12, [1, 2, 3])
    code = ("from ramify.cyclo import CycloNumber\n"
            "from ramify.errors import LengthMismatch\n"
            "try:\n    CycloNumber(12, [1, 2, 3])\nexcept LengthMismatch:\n    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ramify.cyclo.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, timeout=60)
    assert out.stdout.strip() == "raised", out.stderr


MONOMIALS = [(8, 3, 1), (8, 6, -1), (12, 1, Fraction(3, 2)), (15, 7, Fraction(-2, 5)),
             (144, 37, 2), (1, 0, Fraction(-4, 3))]


@pytest.mark.parametrize("N,i,r", MONOMIALS)
@pytest.mark.parametrize("e", [-3, -1, 0, 1, 2, 5])
def test_monomial_power_matches_the_product_path(N, i, r, e):
    # r zeta_N^i raised through its exponent against repeated products of
    # x, or of its inverse by the complex conjugate, for e < 0, e = 0, e > 0
    x = CycloNumber.from_monomials(N, [(i, 1)]) * r
    assert x.monomial() is not None
    factor = x if e > 0 else x.inverse()
    want = CycloNumber.from_rational(N, 1)
    for _ in range(abs(e)):
        want = want * factor
    assert x ** e == want


@pytest.mark.parametrize("x", [root_of_unity(8, 5) * Fraction(-3, 2), root_of_unity(12, 0) * 7,
                               root_of_unity(5) + 1, CycloNumber.from_rational(6, 0)])
@pytest.mark.parametrize("v", [-2, 0, 3])
def test_power_times_matches_power_then_product(x, v):
    # one build at the lcm level for a monomial x, the plain route otherwise
    terms, scale = [(1, 2), (7, -1), (20, 3)], Fraction(5, 9)
    if x.is_zero() and v < 0:
        with pytest.raises(DivisionByZero):
            power_times(x, v, 30, terms, scale)
        return
    want = x ** v * CycloNumber.from_monomials(30, terms) * scale
    assert power_times(x, v, 30, terms, scale) == want
