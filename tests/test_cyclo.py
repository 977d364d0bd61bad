import random
from fractions import Fraction

import pytest

from ramify.cyclo import (
    CycloNumber,
    cyclotomic_poly,
    embed,
    euler_phi,
    minimal_form,
    pretty,
    root_of_unity,
    session_level,
)
from ramify.errors import DivisionByZero, IncompatibleLevels


def test_cyclotomic_polys_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


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
    # psi_m(p^m * a) = psi_0(a), exactly, inside one session level
    for p, m in [(3, 1), (3, 2), (5, 1)]:
        N = session_level(p, p, m)
        assert N == (p - 1) * p ** (m + 1)
        for a in range(p):
            assert psi_tower(m, p**m * a, p, N) == psi_tower(0, a, p, N)


def test_psi_zero():
    assert psi_tower(0, 0, 3, session_level(3, 3, 0)) == 1


def test_psi_is_injective_homomorphism():
    p, m = 3, 1
    N = session_level(p, p, m)
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


def test_pretty_and_minimal_form():
    G = CycloNumber(3, [1, 2])
    assert pretty(G) == "1+2*z3"
    assert pretty(embed(G, 36)) == "1+2*z3"
    assert pretty(CycloNumber.from_rational(12, Fraction(-3))) == "-3"
    y = minimal_form(embed(root_of_unity(4), 24))
    assert y.N == 4
