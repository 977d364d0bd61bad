"""Laumon's product formula as a global check on the local epsilon factor.

For f in F_p[x] with f(0) = 0 and degree d prime to p, the sheaf
L_psi(f) on A^1 is lisse and ramifies only at infinity, where its Swan
conductor is d.  Its L-function L(T) = exp(sum_k S_k T^k / k), with
S_k = sum over x in F_{p^k} of zeta_p^Tr f(x), is a polynomial of degree
d - 1, and the product formula (Laumon 1987, section 3) reads its top
coefficient as

    c_{d-1} = det(-Frob | H^1_c) = p^(1-g) * eps_0(chi_infinity, psi_omega),

g = 0, with omega = dx.  At t = 1/x the local character chi_infinity has
wild part f(1/t), tame exponent 0 and chi(t) = 1, and dx = -t^-2 dt.  The
two sides share none of the local conventions: the normalisation of
psi_omega, the sign of the reciprocity pairing, vol(O) = 1 and the choice
that a uniformizer acts as geometric Frobenius.

The same holds at Witt length 2 for f = (f0, f1) with f_i(0) = 0: the sheaf
L_psi(W(f)) has Swan conductor sw at infinity, read from chi_infinity with
wild part (f0(1/t), f1(1/t)), S_k sums zeta_{p^2}^Tr W(f)(x), and L(T) has
degree sw - 1.  W(f)(x) = [f0(x)] + V[f1(x)] is taken in Z_{p^k} / p^2 as
[a] + p [a^(1/p)] for Teichmueller lifts [a] = a~^Q, Q = p^k, and the trace
of W_2(F_{p^k}) is the Galois trace of Z_{p^k} / p^2.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ramify.characters import AdditiveCharacter, QuasiCharacter, conductor
from ramify.cyclo import CycloNumber
from ramify.epsilon import epsilon0, epsilon_tate_oracle
from ramify.fields import WittCoeffRing, make_field
from ramify.series import LaurentSeries
from ramify.witt import WittVector

PREC = 16

# p in {3, 5, 7}, 2 <= d <= 6 prime to p, and p^(d-1) <= 20000 elements
# in the largest field summed over
CASES = [(p, d) for p in (3, 5, 7) for d in range(2, 7) if d % p and p ** (d - 1) <= 20000]


def polynomial(p, d, rng=None):
    """f = a_1 x + ... + a_d x^d over F_p with a_d != 0, fixed per (p, d)."""
    rng = rng or random.Random(100 * p + d)
    return [0, *(rng.randrange(p) for _ in range(d - 1)), rng.randrange(1, p)]


def evaluator(f, E):
    """x -> f(x) for x in E, by Horner's rule."""
    coeffs = [E.from_int(a) for a in reversed(f)]

    def value(x):
        acc = coeffs[0]
        for a in coeffs[1:]:
            acc = acc * x + a
        return acc

    return value


def character_sum(f, p, k):
    """S_k = sum over x in F_{p^k} of zeta_p^Tr f(x)."""
    E = make_field(p, k)
    value = evaluator(f, E)
    traces = Counter(E.trace_to_prime(value(x)) for x in E.elements())
    return CycloNumber.from_monomials(p, traces.items())


def witt_character_sum(f0, f1, p, k):
    """S_k = sum over x in F_{p^k} of zeta_{p^2}^Tr W(f0, f1)(x)."""
    E = make_field(p, k)
    R = WittCoeffRing.for_field(E, 1)
    value0, value1 = evaluator(f0, E), evaluator(f1, E)
    Q, p_lift = E.q, R.from_int(p)
    traces = Counter(
        R.trace(R.lift(value0(x)) ** Q + p_lift * R.lift(value1(x).pth_root()) ** Q)
        for x in E.elements()
    )
    return CycloNumber.from_monomials(p * p, traces.items())


def l_function(sums, N, d):
    """The coefficients c_0, ..., c_{d-1} of L(T) from sums[k] = S_k at
    level N, by Newton's identities n c_n = sum_{i=1}^n S_i c_{n-i}."""
    c = [CycloNumber.from_rational(N, 1)]
    for n in range(1, d):
        c.append(sum((sums[i] * c[n - i] for i in range(1, n + 1)),
                     CycloNumber.zero(N)) * Fraction(1, n))
    return c


def local_data_at_infinity(p, *fs):
    """chi_infinity with wild part (f(1/t) for f in fs), and psi for
    dx = -t^-2 dt."""
    F = make_field(p, 1)
    wild = [LaurentSeries.from_terms(F, {-i: F.from_int(a) for i, a in enumerate(f) if a}, PREC)
            for f in fs]
    chi = QuasiCharacter(F, 0, CycloNumber.from_rational(1, 1), WittVector(len(fs) - 1, wild))
    psi = AdditiveCharacter(LaurentSeries.from_terms(F, {-2: F.from_int(-1)}, PREC))
    return chi, psi


@pytest.mark.parametrize("p, d", CASES, ids=[f"p{p}-d{d}" for p, d in CASES])
def test_top_coefficient_is_p_times_epsilon(p, d):
    f = polynomial(p, d)
    sums = [None, *(character_sum(f, p, k) for k in range(1, d))]
    top = l_function(sums, p, d)[d - 1]
    chi, psi = local_data_at_infinity(p, f)
    eps = epsilon0(chi, psi).value
    assert top == eps * p
    assert top == epsilon_tate_oracle(chi, psi) * p


# p = 3 with deg f0 in {1, 2} and deg f1 in 1..6, and two pairs at p = 5:
# Swan conductors 3 to 6, p | sw among them
WITT_CASES = [(3, d0, d1) for d0 in (1, 2) for d1 in range(1, 7)] + [(5, 1, 3), (5, 1, 4)]


@pytest.mark.parametrize("p, d0, d1", WITT_CASES,
                         ids=[f"p{p}-d{d0}-{d1}" for p, d0, d1 in WITT_CASES])
def test_witt_length_2_top_coefficient_is_p_times_epsilon(p, d0, d1):
    rng = random.Random(1000 * p + 10 * d0 + d1)
    f0, f1 = polynomial(p, d0, rng), polynomial(p, d1, rng)
    chi, psi = local_data_at_infinity(p, f0, f1)
    sw = conductor(chi)[1]
    sums = [None, *(witt_character_sum(f0, f1, p, k) for k in range(1, sw))]
    top = l_function(sums, p * p, sw)[sw - 1]
    eps = epsilon0(chi, psi).value
    assert top == eps * p
    assert top == epsilon_tate_oracle(chi, psi) * p
