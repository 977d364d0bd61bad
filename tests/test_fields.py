import math
import random
import time

import pytest

from ramify import cli, jsonio
from ramify.errors import (
    CapExceeded, EvenCharacteristic, LengthMismatch, NotPrime, SchemaError, ZeroInput,
)
from ramify.fields import FiniteField, FqElement, WittCoeffRing, field_from_q, make_field
from ramify.series import LaurentSeries


def brute_order(x, one, cap):
    """Multiplicative order by brute powering — oracle for generator checks."""
    acc = x
    for k in range(1, cap + 1):
        if acc == one:
            return k
        acc = acc * x
    return None


def test_f3_generator_is_2():
    F = make_field(3, 1)
    assert F.generator_idx == 2
    assert brute_order(F.generator, F.one, 3) == 2


def test_f9_modulus_and_generator():
    # the first irreducible monic quadratic over F_3 in lex coefficient order
    F = make_field(3, 2)
    assert F.modulus == [1, 0, 1]  # X^2 + 1
    assert brute_order(F.generator, F.one, 9) == 8
    # frozen: the search lands on x+1
    assert F.generator.digits() == (1, 1)
    # a wrong coefficient count is a length fault, as for CycloNumber
    with pytest.raises(LengthMismatch, match="need 2 coefficients, got 1"):
        F.element((1,))


@pytest.mark.parametrize("f, modulus, generator", [
    (8, [2, 0, 1, 0, 0, 0, 0, 0, 1], 38),
    (10, [1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1], 34),
])
def test_large_field_modulus_generator_and_tables(f, modulus, generator):
    F = make_field(3, f)
    q = F.q
    assert F.modulus == modulus
    assert F.generator_idx == generator
    # x (index 3) has order < q - 1, so the search rejects candidates first
    assert math.gcd(F.log[3], q - 1) > 1
    g = F.digit_table[generator]
    rng = random.Random(f)
    for k in [0, 1, q - 3] + rng.sample(range(q - 2), 40):
        assert F.digit_table[F.exp[k + 1]] == F._mul_raw(F.digit_table[F.exp[k]], g)
    assert F._mul_raw(F.digit_table[F.exp[q - 2]], g) == F.digit_table[1]
    assert sorted(F.exp) == list(range(1, q))
    assert all(F.log[F.exp[k]] == k for k in range(q - 1))


def test_generator_is_the_smallest_of_full_order():
    for p, f in [(3, 3), (5, 2), (7, 2), (3, 4)]:
        F = make_field(p, f)
        full = [i for i in range(2, F.q)
                if brute_order(FqElement(F, i), F.one, F.q) == F.q - 1]
        assert F.generator_idx == full[0]


def test_even_characteristic_rejected():
    with pytest.raises(EvenCharacteristic):
        make_field(2, 1)


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        make_field(9, 1)


@pytest.mark.parametrize("f", [0, -1])
def test_extension_degree_below_1_rejected(f):
    # a bad degree is a malformed input, as a bad q is for field_from_q
    with pytest.raises(SchemaError, match=f"f = {f} must be >= 1"):
        make_field(3, f)


def test_cap():
    # 3^11 = 177147 > 2^16, rejected before any table is built
    with pytest.raises(CapExceeded):
        FiniteField(3, 11)
    # digits mod p^4 and up are past the slot width of the packing
    with pytest.raises(CapExceeded):
        WittCoeffRing(make_field(3, 2), 3)


def _decoded_field(monkeypatch, *flags):
    """The field that the CLI's ``run`` decodes from a gauss job's flags."""
    seen = []
    gauss = cli.COMMAND_TABLE["gauss"]
    monkeypatch.setitem(cli.COMMAND_TABLE, "gauss",
                        gauss._replace(op=lambda job: seen.append(job.field)))
    cli.run(cli.build_parser(["gauss"]).parse_args(["gauss", *flags]))
    return seen.pop()


def test_decoded_fields_are_interned(monkeypatch):
    # ring checks compare fields with `is`: every decode path must hand back
    # the one interned field, so elements of two decodes mix freely
    first = _decoded_field(monkeypatch, "--p", "3", "--f", "2")
    second = _decoded_field(monkeypatch, "--q", "9")
    assert first is second is make_field(3, 2) is field_from_q(9)
    x = jsonio.element_from_json(first, 5, "x")
    y = jsonio.element_from_json(second, 7, "y")
    assert (x * y) * y.inverse() == x
    s = LaurentSeries.from_terms(first, {-1: x}, 4)
    u = LaurentSeries.from_terms(second, {0: y}, 4)
    assert (s * u).leading_coefficient() == x * y
    assert WittCoeffRing.for_field(first, 1) is WittCoeffRing.for_field(second, 1)
    # one (p, f) is one cache key: a keyword call cannot build a second F_9
    with pytest.raises(TypeError):
        make_field(p=3, f=2)


@pytest.mark.parametrize("q,pf", [(3, (3, 1)), (25, (5, 2)), (243, (3, 5))])
def test_field_from_q(q, pf):
    F = field_from_q(q)
    assert (F.p, F.f) == pf


@pytest.mark.parametrize("q", [0, 1, 12, 45])
def test_field_from_q_rejects_non_prime_powers(q):
    with pytest.raises(SchemaError):
        field_from_q(q)


def test_large_prime_q_reaches_the_cap_at_once():
    # q is factored by trial division up to sqrt(q), not by a scan of every
    # candidate divisor up to q
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        field_from_q(10**9 + 7)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (3, 3), (11, 1)])
def test_field_axioms_random(p, f):
    F = make_field(p, f)
    rng = random.Random(1000 * p + f)
    for _ in range(50):
        a = F.from_index(rng.randrange(F.q))
        b = F.from_index(rng.randrange(F.q))
        c = F.from_index(rng.randrange(F.q))
        assert (a + b) * c == a * c + b * c
        assert a + (-a) == F.zero
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == F.one
            assert a ** (F.q - 1) == F.one


def test_dlog_bijection():
    F = make_field(3, 2)
    seen = set()
    for x in F.elements():
        if x.is_zero():
            continue
        seen.add(F.dlog(x))
        assert F.generator ** F.dlog(x) == x
    assert seen == set(range(F.q - 1))


def test_squares_mod_3():
    F = make_field(3, 1)
    assert F.is_square(F.one)
    assert not F.is_square(F.from_int(2))


def test_square_criterion_is_euler():
    # is_square(x) <=> x^((q-1)/2) = 1, and kappa0 is multiplicative
    F = make_field(5, 2)
    for x in F.elements():
        if x.is_zero():
            continue
        assert F.is_square(x) == (x ** ((F.q - 1) // 2) == F.one)
    rng = random.Random(7)
    for _ in range(40):
        a = F.from_index(rng.randrange(1, F.q))
        b = F.from_index(rng.randrange(1, F.q))
        assert F.kappa0(a * b) == F.kappa0(a) * F.kappa0(b)


def _matrix_traces(h, count, M):
    """Tr(X^j) for j < count in (Z/M)[X]/(h), h monic: the trace of the
    matrix of multiplication by X^j, whose column i is X^(i+j) mod h."""
    f = len(h) - 1
    powers = [[int(i == 0) for i in range(f)]]
    for _ in range(f + count - 2):
        lead, prev = powers[-1][-1], powers[-1]
        powers.append([((prev[i - 1] if i else 0) - lead * h[i]) % M for i in range(f)])
    return [sum(powers[i + j][i] for i in range(f)) % M for j in range(count)]


@pytest.mark.parametrize("p, f", [
    (3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 8), (3, 10), (5, 1), (5, 2),
    (5, 3), (5, 4), (7, 1), (7, 2), (7, 3), (11, 2), (13, 2)])
def test_power_sums_are_the_matrix_traces(p, f):
    # Newton's identities against the matrix traces, for the field's trace
    # basis and for the trace form of each Witt coefficient ring over it
    F = make_field(p, f)
    assert F._trace_basis == _matrix_traces(F.modulus, f, p)
    for m in (0, 1, 2):
        R = WittCoeffRing.for_field(F, m)
        assert R._power_traces == _matrix_traces(R.lifted_modulus, 2 * f - 1, R.modulus_int)
        assert [R.trace(R.lift(F.element([int(i == j) for i in range(f)])))
                for j in range(f)] == R._power_traces[:f]


def test_constructed_square_in_f9():
    F = make_field(3, 2)
    g = F.generator
    assert F.is_square(g * g)


def test_trace_identity_rank():
    # trace of the identity is f; in a rank-1 ring it is 1
    F = make_field(3, 2)
    R = WittCoeffRing(F, 0)
    assert R.trace(R.one) == 2 % 3
    F5 = make_field(5, 1)
    for m in (0, 1, 2):
        R5 = WittCoeffRing(F5, m)
        assert R5.trace(R5.one) == 1


def test_trace_of_x_companion():
    # multiplication by X in Z_9[X]/(X^2+1) has matrix [[0,-1],[1,0]]: trace 0
    F = make_field(3, 2)
    R = WittCoeffRing(F, 1)
    xw = R.lift(F.element((0, 1)))
    assert R.trace(xw) == 0
    # oracle: assemble the multiplication matrix by hand and sum the diagonal
    basis = [R.one, xw]
    diag = 0
    for i, e in enumerate(basis):
        col = xw * e
        diag = (diag + col.coeffs[i]) % R.modulus_int
    assert diag == 0


def test_trace_linear_and_reduces_to_field_trace():
    F = make_field(3, 2)
    R = WittCoeffRing(F, 1)
    rng = random.Random(3)
    for _ in range(30):
        a = R.lift(F.from_index(rng.randrange(F.q)))
        b = R.lift(F.from_index(rng.randrange(F.q)))
        assert R.trace(a + b) == (R.trace(a) + R.trace(b)) % 9
        assert R.trace(a) % 3 == F.trace_to_prime(a.reduce())


def test_lift_reduce_roundtrip_and_homomorphism():
    F = make_field(3, 2)
    R = WittCoeffRing(F, 1)
    assert R.lift(F.zero).is_zero()
    F3 = make_field(3, 1)
    R3 = WittCoeffRing(F3, 1)
    assert R3.lift(F3.from_int(2)).coeffs == (2,)  # representative lift in [0, 9)
    rng = random.Random(11)
    for _ in range(50):
        x = F.from_index(rng.randrange(F.q))
        y = F.from_index(rng.randrange(F.q))
        assert R.lift(x).reduce() == x
        prod = R.lift(x) * R.lift(y)
        assert prod.reduce() == x * y  # reduction is multiplicative
        assert (R.lift(x) + R.lift(y)).reduce() == x + y


def test_witt_coeff_inverse():
    from ramify.fields import WittCoeffElement

    F = make_field(3, 2)
    for m in (0, 1, 2):
        R = WittCoeffRing(F, m)
        rng = random.Random(m)
        for _ in range(25):
            c = tuple(rng.randrange(R.modulus_int) for _ in range(F.f))
            u = WittCoeffElement(R, c)
            if not u.is_unit():
                continue
            assert (u * u.inverse()) == R.one
        g = R.lift(F.generator)
        assert g * g.inverse() == R.one
    R2 = WittCoeffRing(F, 1)
    with pytest.raises(ZeroInput):
        R2.from_int(3).inverse()  # p is not a unit in Z/9


def test_extension_embedding():
    F3 = make_field(3, 1)
    F9, emb = F3.extension(2)
    assert F9.q == 9
    rng = random.Random(2)
    for _ in range(20):
        a = F3.from_index(rng.randrange(3))
        b = F3.from_index(rng.randrange(3))
        assert emb(a + b) == emb(a) + emb(b)
        assert emb(a * b) == emb(a) * emb(b)
    # embedding a generator preserves its order
    F9b, emb2 = make_field(3, 2).extension(2)
    g = make_field(3, 2).generator
    img = emb2(g)
    assert brute_order(img, F9b.one, 100) == 8


@pytest.mark.parametrize("p, f, s", [
    (3, 1, 2), (3, 2, 2), (3, 2, 3), (3, 3, 2), (5, 2, 2), (7, 1, 3),
])
def test_extension_root_is_the_first_by_index(p, f, s):
    F = make_field(p, f)
    E, emb = F.extension(s)

    def value(x):
        acc = E.zero
        for c in reversed(F.modulus):
            acc = acc * x + E.from_int(c)
        return acc

    first = next(i for i in range(E.q) if value(FqElement(E, i)).is_zero())
    assert emb.root.idx == first


def test_pth_root():
    F = make_field(3, 3)
    rng = random.Random(5)
    for _ in range(30):
        x = F.from_index(rng.randrange(F.q))
        if x.is_zero():
            continue
        r = x.pth_root()
        assert r ** 3 == x
