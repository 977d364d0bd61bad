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
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ramify.characters import AdditiveCharacter, QuasiCharacter
from ramify.cyclo import CycloNumber
from ramify.epsilon import epsilon0, epsilon_tate_oracle
from ramify.fields import make_field
from ramify.series import LaurentSeries
from ramify.witt import WittVector

PREC = 16

# p in {3, 5, 7}, 2 <= d <= 6 prime to p, and p^(d-1) <= 20000 elements
# in the largest field summed over
CASES = [(p, d) for p in (3, 5, 7) for d in range(2, 7) if d % p and p ** (d - 1) <= 20000]


def polynomial(p, d):
    """f = a_1 x + ... + a_d x^d over F_p with a_d != 0, fixed per (p, d)."""
    rng = random.Random(100 * p + d)
    return [0, *(rng.randrange(p) for _ in range(d - 1)), rng.randrange(1, p)]


def character_sum(f, p, k):
    """S_k = sum over x in F_{p^k} of zeta_p^Tr f(x)."""
    E = make_field(p, k)
    coeffs = [E.from_int(a) for a in reversed(f)]

    def value(x):
        acc = coeffs[0]
        for a in coeffs[1:]:
            acc = acc * x + a
        return acc

    traces = Counter(E.trace_to_prime(value(x)) for x in E.elements())
    return CycloNumber.from_monomials(p, traces.items())


def l_function(f, p):
    """The coefficients c_0, ..., c_{d-1} of L(T), by Newton's identities
    n c_n = sum_{i=1}^n S_i c_{n-i}."""
    d = len(f) - 1
    sums = [None, *(character_sum(f, p, k) for k in range(1, d))]
    c = [CycloNumber.from_rational(p, 1)]
    for n in range(1, d):
        c.append(sum((sums[i] * c[n - i] for i in range(1, n + 1)),
                     CycloNumber.zero(p)) * Fraction(1, n))
    return c


def local_data_at_infinity(f, p):
    """chi_infinity with wild part f(1/t), and psi for dx = -t^-2 dt."""
    F = make_field(p, 1)
    wild = LaurentSeries.from_terms(F, {-i: F.from_int(a) for i, a in enumerate(f) if a}, PREC)
    chi = QuasiCharacter(F, 0, CycloNumber.from_rational(1, 1), WittVector(0, [wild]))
    psi = AdditiveCharacter(LaurentSeries.from_terms(F, {-2: F.from_int(-1)}, PREC))
    return chi, psi


@pytest.mark.parametrize("p, d", CASES, ids=[f"p{p}-d{d}" for p, d in CASES])
def test_top_coefficient_is_p_times_epsilon(p, d):
    f = polynomial(p, d)
    top = l_function(f, p)[d - 1]
    chi, psi = local_data_at_infinity(f, p)
    eps = epsilon0(chi, psi).value
    assert top == eps * p
    assert top == epsilon_tate_oracle(chi, psi) * p
