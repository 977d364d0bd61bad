"""Exact arithmetic in Q(zeta_N), represented as Q[X]/Phi_N(X).

A number is a tuple ``num`` of integer numerators, the coefficients of
1, X, ..., X^(phi(N)-1), over one integer denominator ``den`` > 0, kept
canonical: gcd(den, *num) = 1.  Equal numbers at one level therefore carry
equal (num, den), and ``==`` is a tuple compare.  Every operation runs on
integers, ``inverse`` too: by the complex conjugate where x times it is
rational, as it is for roots of unity and Gauss sums, and otherwise by
relative norms down the tower of levels.  A monomial r zeta_N^i is raised
to a power through its exponent, and ``power_times`` multiplies a sum of
roots of unity by such a power in one build at the lcm level.  ``coeffs``
is a read-only Fraction view.  Operands are ints, Fractions or
CycloNumbers, never floats.

This module alone decides where a value lives: ``from_monomials(N, terms)``,
and so ``root_of_unity``, builds at level N/g with g = gcd(N, every
exponent), the level its own roots need; callers name the root zeta_N they
write exponents in, not a level to build at.  A binary operation works at
the lcm of its operands' levels.

A polynomial mod X^N - 1 is reduced mod Phi_N with no polynomial division.
For N > 1, Phi_N is the Moebius product prod (1 - X^d)^mu(N/d) over the d
with N/d squarefree, and it is palindromic; so the quotient is the reversed
top of the polynomial times the power series 1/Phi_N, and the remainder is
the polynomial minus quotient times Phi_N, both cut at their degrees.  Each
product takes one shifted subtraction or one running sum per factor, from a
table of the factors cached per level.
Two numbers at different levels compare equal iff they agree after embedding
into the lcm level; ``minimal_form`` finds the smallest level that holds a
number by dropping one prime from N at a time, and ``pretty``, ``==`` and
``hash`` read that form, so the level a value is built at never shows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub

from .errors import DivisionByZero, IncompatibleLevels, LengthMismatch
from .fields import _prime_factors


def euler_phi(n: int) -> int:
    out = n
    for ell in _prime_factors(n):
        out -= out // ell
    return out


@lru_cache(maxsize=None)
def _moebius_factors(N: int):
    """(deg, phi, inv): deg = phi(N), and the factors (d, e), standing for
    (1 - X^d)^e with e = +-1, of Phi_N mod X^deg (phi) and of 1/Phi_N mod
    X^(N - deg) (inv).  They come from the Moebius product
    Phi_N = prod (1 - X^d)^mu(N/d) over the d with N/d squarefree (N > 1);
    a factor whose d is past its cut is 1 there and left out, so at N = 1
    both lists are empty."""
    deg = euler_phi(N)
    squarefree = [(1, 1)]  # (s, mu(s)) for the squarefree divisors s of N
    for ell in _prime_factors(N):
        squarefree += [(s * ell, -mu) for s, mu in squarefree]
    return (deg, tuple((N // s, mu) for s, mu in squarefree if N // s < deg),
            tuple((N // s, -mu) for s, mu in squarefree if N // s < N - deg))


def _times(out: list, factors) -> list:
    """out, a power series cut at degree len(out), times each factor
    (1 - X^d)^e in place: a shifted subtraction for e = 1, a running sum
    for e = -1."""
    for d, e in factors:
        if e == 1:
            out[d:] = map(sub, out[d:], out[:-d])
        else:
            for i in range(d, len(out), d):
                out[i:i + d] = map(add, out[i:i + d], out[i - d:i])
    return out


def _reduce(buf, N: int) -> tuple[int, ...]:
    """A polynomial mod X^N - 1 (a length-N int list) reduced mod Phi_N.

    With buf = Q Phi_N + R and deg R < deg = phi(N): Phi_N is palindromic
    for N > 1, so the reversed quotient is the reversed top of buf (the
    degrees >= deg) times 1/Phi_N mod X^(N - deg), and R is buf minus
    Q Phi_N mod X^deg.  A buf with an all-zero top (at N = 1, always) is
    returned as it stands."""
    deg, phi, inv = _moebius_factors(N)
    top = buf[deg:]
    if not any(top):
        return tuple(buf[:deg])
    quot = _times(top[::-1], inv)[::-1]
    low = _times(quot[:deg] + [0] * (deg - len(quot)), phi)
    return tuple(map(sub, buf[:deg], low))


def _canonical(num, den: int):
    """(num, den) with den > 0 divided by gcd(den, *num)."""
    num = tuple(num)
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
    return num, den


def _number(N: int, num, den: int = 1) -> "CycloNumber":
    """The CycloNumber num/den at level N (den > 0)."""
    x = object.__new__(CycloNumber)
    x.N = N
    x.num, x.den = _canonical(num, den)
    return x


def _over_common_den(values):
    """(numerators, den) of int or Fraction values over their lcm denominator."""
    if {int}.issuperset(map(type, values)):
        return values, 1
    if not all(isinstance(c, (int, Fraction)) for c in values):
        raise TypeError("cyclotomic coefficients must be int or Fraction")
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


class CycloNumber:
    """Element of Q(zeta_N) as integer numerators over one denominator,
    modulo Phi_N."""

    __slots__ = ("N", "num", "den")

    def __init__(self, N: int, coeffs):
        """x = sum_i coeffs[i] zeta_N^i from phi(N) int or Fraction coefficients."""
        coeffs = list(coeffs)
        if N < 1 or len(coeffs) != euler_phi(N):
            raise LengthMismatch(f"level {N} takes phi(N) coefficients, got {len(coeffs)}")
        self.N = N
        self.num, self.den = _canonical(*_over_common_den(coeffs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, zeta_N, ... as Fractions (a read-only view)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(N: int) -> "CycloNumber":
        return _number(N, (0,) * euler_phi(N))

    @staticmethod
    def from_rational(N: int, r) -> "CycloNumber":
        if not isinstance(r, (int, Fraction)):
            raise TypeError(f"a rational is an int or a Fraction, got {type(r).__name__}")
        return _number(N, (r.numerator,) + (0,) * (euler_phi(N) - 1), r.denominator)

    @staticmethod
    def from_monomials(N: int, terms) -> "CycloNumber":
        """sum of c * zeta_N^k for (k, c) in terms, k arbitrary integers mod
        N, c int or Fraction; built at level N/g, g = gcd(N, every k), as
        zeta_N^k = zeta_(N/g)^(k/g)."""
        terms = list(terms)
        g = gcd(N, *(k for k, _ in terms))
        N //= g
        buf = [0] * N
        for k, c in terms:
            buf[k // g % N] += c
        buf, den = _over_common_den(buf)
        return _number(N, _reduce(buf, N), den)

    # -- ring ops ----------------------------------------------------------

    def _coerce(self, other):
        """other as a CycloNumber at this level when it is a rational, or
        None for a type outside int, Fraction and CycloNumber."""
        if isinstance(other, CycloNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNumber.from_rational(self.N, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = align_levels(self, other)
        if a.den == b.den:
            return _number(a.N, map(add, a.num, b.num), a.den)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return _number(a.N, (x * fa + y * fb for x, y in zip(a.num, b.num)), den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + -self

    def __neg__(self):
        return _number(self.N, (-x for x in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _number(self.N, map(mul, self.num, repeat(other.numerator)),
                           self.den * other.denominator)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = align_levels(self, other)
        N, x, y = a.N, a.num, b.num
        if x.count(0) < y.count(0):  # the sparser factor drives the outer loop
            x, y = y, x
        deg = len(x)
        conv = [0] * (2 * deg - 1)
        for i, xi in enumerate(x):
            if xi:
                conv[i:i + deg] = map(add, conv[i:i + deg], map(mul, repeat(xi), y))
        buf = conv[:N] + [0] * (N - len(conv))
        for k in range(N, len(conv)):  # X^N = 1
            buf[k - N] += conv[k]
        return _number(N, _reduce(buf, N), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if self.monomial() is not None:
            return power_times(self, e, 1, [(0, 1)])
        if e < 0:
            return self.inverse() ** (-e)
        acc = CycloNumber.from_rational(self.N, 1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inverse(self) -> "CycloNumber":
        """1/x.  With xbar = x(zeta^-1) the complex conjugate, x xbar is
        totally positive; where it is rational -- a rational, a root of
        unity, a Gauss sum, or one of these times another -- 1/x =
        xbar / (x xbar), one Galois map and one product.  Otherwise down
        the tower of levels (``_tower_inverse``), with no such test on
        the way down."""
        if self.is_zero():
            raise DivisionByZero("inverse of 0 in Q(zeta_N)")
        bar = self.galois(-1)
        norm = self * bar
        if norm.is_rational():
            return _number(self.N, (c * norm.den for c in bar.num), bar.den * norm.num[0])
        return self._tower_inverse()

    def _tower_inverse(self) -> "CycloNumber":
        """1/x for x != 0 by relative norms: with M' = M/ell and c the
        product of the other conjugates of x over Q(zeta_M'), x c is the
        relative norm, which lies in Q(zeta_M'); so 1/x = c / (x c), the
        last inverse taken at level M', until x is rational."""
        if self.is_rational():
            r = self.num[0]
            return _number(self.N, (self.den if r > 0 else -self.den,) + self.num[1:], abs(r))
        M = self.N
        ell = _prime_factors(M)[0]
        low = M // ell
        # Gal(Q(zeta_M)/Q(zeta_M')) = {a = 1 + k M' prime to M}
        conj = CycloNumber.from_rational(M, 1)
        for k in range(1, ell):
            if gcd(1 + k * low, M) == 1:
                conj = conj * self.galois(1 + k * low)
        return conj * _drop_prime(self * conj, ell)._tower_inverse()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by 0")
            return self * (1 / Fraction(other))
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def monomial(self):
        """(i, r) with x = r zeta_N^i when x has exactly one nonzero
        coefficient, r a Fraction; else None."""
        num = self.num
        if num.count(0) != len(num) - 1:
            return None
        i = num.index(max(num, key=abs))
        return i, Fraction(num[i], self.den)

    def galois(self, a: int) -> "CycloNumber":
        """The automorphism zeta -> zeta^a; IncompatibleLevels unless
        gcd(a, N) = 1, as zeta -> zeta^a is then no automorphism."""
        N = self.N
        if gcd(a, N) != 1:
            raise IncompatibleLevels(f"zeta -> zeta^{a} is no automorphism of Q(zeta_{N})")
        buf = [0] * N
        for j, c in enumerate(self.num):
            if c:
                buf[(j * a) % N] += c
        return _number(N, _reduce(buf, N), self.den)

    def __eq__(self, other):
        if isinstance(other, CycloNumber):
            a, b = align_levels(self, other)
            return a.num == b.num and a.den == b.den
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator and self.den == other.denominator
                    and self.is_rational())
        return NotImplemented

    def __hash__(self):
        # equal numbers at different levels share their minimal form
        y = minimal_form(self)
        return hash(Fraction(y.num[0], y.den)) if y.N == 1 else hash((y.N, y.num, y.den))

    def __repr__(self):
        return f"Cyclo(N={self.N}, {pretty(self)})"


def power_times(x: CycloNumber, v: int, N: int, terms, scale=1) -> CycloNumber:
    """x^v * scale * sum of c * zeta_N^k over (k, c) in terms, c ints and
    scale an int or a Fraction.  For a monomial x = r zeta_M^i this is one
    ``from_monomials`` at level lcm(M, N), the exponents shifted by i v,
    scaled by r^v scale; any other x takes x^v times the sum."""
    mono = x.monomial()
    if mono is None:
        return x ** v * CycloNumber.from_monomials(N, terms) * scale
    i, r = mono
    L = lcm(x.N, N)
    y = CycloNumber.from_monomials(L, [(i * v * (L // x.N) + k * (L // N), c) for k, c in terms])
    rho = r ** v * scale
    return _number(y.N, (c * rho.numerator for c in y.num), y.den * rho.denominator)


def root_of_unity(N: int, k: int = 1) -> CycloNumber:
    """zeta_N^k."""
    return CycloNumber.from_monomials(N, [(k, 1)])


def embed(x: CycloNumber, N: int) -> CycloNumber:
    """Inject Q(zeta_M) -> Q(zeta_N) via zeta_M -> zeta_N^(N/M); requires M | N."""
    if x.N == N:
        return x
    if N % x.N != 0:
        raise IncompatibleLevels(f"cannot embed level {x.N} into level {N}")
    step = N // x.N
    buf = [0] * N
    buf[0:len(x.num) * step:step] = x.num
    return _number(N, _reduce(buf, N), x.den)


def align_levels(a: CycloNumber, b: CycloNumber):
    if a.N == b.N:
        return a, b
    N = lcm(a.N, b.N)
    return embed(a, N), embed(b, N)


# -- display helpers ---------------------------------------------------------

def pretty(x: CycloNumber) -> str:
    """Human-readable form at the smallest cyclotomic level that contains x."""
    y = minimal_form(x)
    parts = []
    for j, c in enumerate(y.num):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        g = gcd(c, y.den)
        mag = str(abs(c) // g) if g == y.den else f"{abs(c) // g}/{y.den // g}"
        if j == 0:
            parts.append(f"{sign}{mag}")
        else:
            zeta = f"z{y.N}" if j == 1 else f"z{y.N}^{j}"
            parts.append(f"{sign}{zeta}" if mag == "1" else f"{sign}{mag}*{zeta}")
    return "".join(parts) or "0"


def minimal_form(x: CycloNumber) -> CycloNumber:
    """Rewrite x at the smallest divisor level M | N with x in Q(zeta_M).

    The levels M | N that hold x are closed under gcd, since Q(zeta_a) and
    Q(zeta_b) meet in Q(zeta_gcd(a, b)); so dropping a prime from the level
    while x stays inside, once per prime factor and as often as it goes,
    ends at the smallest one."""
    for ell in _prime_factors(x.N):
        while x.N % ell == 0:
            y = _drop_prime(x, ell)
            if y is None:
                break
            x = y
    return x


def _drop_prime(x: CycloNumber, ell: int):
    """x rewritten at level M' = M/ell (M = x.N), or None if x is not in
    Q(zeta_M').

    If ell^2 | M, then Phi_M(X) = Phi_M'(X^ell) and 1, X, ..., X^(ell-1) is a
    basis over Q(zeta_M'): x lies there iff only the exponents divisible by
    ell carry coefficients.  Otherwise zeta_M = zeta_M'^u zeta_ell^w with
    u ell + w M' = 1 mod M, and x = sum_k B_k zeta_ell^k with B_k in Q(zeta_M').
    As zeta_ell^0 = -(zeta_ell + ... + zeta_ell^(ell-1)) and those ell - 1
    powers are a basis over Q(zeta_M'), x lies in Q(zeta_M') iff B_1, ...,
    B_(ell-1) agree -- the Galois group of Q(zeta_M)/Q(zeta_M') permutes
    them -- and then x = B_0 - B_1."""
    M, num = x.N, x.num
    low = M // ell
    if low % ell == 0:
        if any(c for i, c in enumerate(num) if i % ell):
            return None
        return _number(low, num[::ell], x.den)
    u, w = pow(ell, -1, low), pow(low, -1, ell)
    buckets = [[0] * low for _ in range(ell)]
    for i, c in enumerate(num):
        if c:
            buckets[(i * w) % ell][(i * u) % low] += c
    b1 = _reduce(buckets[1], low)
    if any(_reduce(b, low) != b1 for b in buckets[2:]):
        return None
    return _number(low, map(sub, _reduce(buckets[0], low), b1), x.den)
