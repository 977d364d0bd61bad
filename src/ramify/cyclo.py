"""Exact arithmetic in Q(zeta_N), represented as Q[X]/Phi_N(X).

Coefficients are `fractions.Fraction` throughout — no floating point.  The
cyclotomic polynomial Phi_N is computed by iterated exact division of X^N - 1
by the Phi_d for proper divisors d, and cached per level.  Two numbers at
different levels compare equal iff they agree after embedding into the lcm
level.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero, IncompatibleLevels

_phi_lock = threading.Lock()
_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}


def euler_phi(n: int) -> int:
    out = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            out -= out // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out -= out // m
    return out


def _intpoly_div_exact(num, den):
    """Exact division of integer polynomials (little-endian), den monic-ish."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        c //= den[-1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    assert all(v == 0 for v in num), "division was not exact"
    return out


def cyclotomic_poly(N: int) -> tuple[int, ...]:
    """Phi_N as a little-endian tuple of integers."""
    with _phi_lock:
        if N in _CYCLO_CACHE:
            return _CYCLO_CACHE[N]
    if N == 1:
        result = (-1, 1)
    else:
        num = [-1] + [0] * (N - 1) + [1]  # X^N - 1
        for d in range(1, N):
            if N % d == 0:
                num = _intpoly_div_exact(num, cyclotomic_poly(d))
        result = tuple(num)
    with _phi_lock:
        _CYCLO_CACHE[N] = result
    return result


@lru_cache(maxsize=None)
def _reduction_rows(N: int):
    """X^k mod Phi_N for k in [phi, 2*phi-2], as integer tuples of length phi."""
    phi_poly = cyclotomic_poly(N)
    deg = len(phi_poly) - 1
    rows = []
    cur = [-c for c in phi_poly[:deg]]  # X^deg
    rows.append(tuple(cur))
    for _ in range(deg - 2):
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for i in range(deg):
                nxt[i] -= lead * phi_poly[i]
        cur = nxt
        rows.append(tuple(cur))
    return rows


def _reduce_mod_phi(coeffs, N):
    """Reduce an arbitrary-degree int or Fraction list mod Phi_N (long division)."""
    phi_poly = cyclotomic_poly(N)
    deg = len(phi_poly) - 1
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            for i in range(deg + 1):
                coeffs[k - deg + i] -= c * phi_poly[i]
        # top coefficient is now zero
    out = coeffs[:deg]
    out += [Fraction(0)] * (deg - len(out))
    return tuple(c if type(c) is Fraction else Fraction(c) for c in out)


class CycloNumber:
    """Element of Q(zeta_N) as a vector of Fractions modulo Phi_N."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs):
        self.N = N
        deg = euler_phi(N)
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        assert len(coeffs) == deg, (len(coeffs), deg)
        self.coeffs = coeffs

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(N: int) -> "CycloNumber":
        return CycloNumber(N, (Fraction(0),) * euler_phi(N))

    @staticmethod
    def from_rational(N: int, r) -> "CycloNumber":
        deg = euler_phi(N)
        return CycloNumber(N, (Fraction(r),) + (Fraction(0),) * (deg - 1))

    @staticmethod
    def from_monomials(N: int, terms) -> "CycloNumber":
        """sum of c * X^k for (k, c) in terms, k arbitrary integers mod N;
        integer counts stay ints until the reduction mod Phi_N is done."""
        buf = [0] * N
        for k, c in terms:
            buf[k % N] += c
        return CycloNumber(N, _reduce_mod_phi(buf, N))

    # -- ring ops ----------------------------------------------------------

    def _cast(self, other):
        if isinstance(other, CycloNumber):
            return other
        return CycloNumber.from_rational(self.N, other)

    def __add__(self, other):
        other = self._cast(other)
        a, b = align_levels(self, other)
        return CycloNumber(a.N, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._cast(other)
        a, b = align_levels(self, other)
        return CycloNumber(a.N, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return CycloNumber(self.N, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNumber(self.N, tuple(x * other for x in self.coeffs))
        a, b = align_levels(self, other)
        deg = len(a.coeffs)
        conv = [Fraction(0)] * (2 * deg - 1)
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    if bj:
                        conv[i + j] += ai * bj
        out = list(conv[:deg])
        rows = _reduction_rows(a.N)
        for j in range(deg - 1):
            c = conv[deg + j]
            if c:
                row = rows[j]
                for i in range(deg):
                    if row[i]:
                        out[i] += c * row[i]
        return CycloNumber(a.N, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
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
        """Extended GCD against Phi_N over Q."""
        if self.is_zero():
            raise DivisionByZero("inverse of 0 in Q(zeta_N)")
        phi_poly = [Fraction(c) for c in cyclotomic_poly(self.N)]
        a = list(self.coeffs)
        # trim
        while a and a[-1] == 0:
            a.pop()
        # invariant: old_r = old_s * self mod Phi; end with old_r constant
        old_r, r = phi_poly, a
        old_s, s = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r):
            q, rem = _poly_divmod(old_r, r)
            old_r, r = r, rem
            old_s, s = s, _poly_sub(old_s, _poly_mul_frac(q, s))
        assert len(old_r) == 1
        inv_scale = 1 / old_r[0]
        res = [c * inv_scale for c in old_s]
        return CycloNumber(self.N, _reduce_mod_phi(res, self.N))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by 0")
            return CycloNumber(self.N, tuple(x / Fraction(other) for x in self.coeffs))
        return self * other.inverse()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        assert self.is_rational()
        return self.coeffs[0]

    def galois(self, a: int) -> "CycloNumber":
        """The automorphism zeta -> zeta^a (gcd(a, N) must be 1)."""
        buf = [Fraction(0)] * self.N
        for j, c in enumerate(self.coeffs):
            if c:
                buf[(j * a) % self.N] += c
        return CycloNumber(self.N, _reduce_mod_phi(buf, self.N))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(self.N, other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = align_levels(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # equal numbers at different levels share their minimal form
        y = minimal_form(self)
        return hash(y.coeffs[0]) if y.N == 1 else hash((y.N, y.coeffs))

    def __repr__(self):
        return f"Cyclo(N={self.N}, {pretty(self)})"


def _poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    inv_lead = 1 / b[-1]
    q = [Fraction(0)] * max(0, len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] * inv_lead
        q[k] = c
        if c:
            for i in range(db + 1):
                a[k + i] -= c * b[i]
    rem = a[:db]
    while rem and rem[-1] == 0:
        rem.pop()
    return q, rem


def _poly_mul_frac(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


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
    buf = [Fraction(0)] * N
    for j, c in enumerate(x.coeffs):
        if c:
            buf[(j * step) % N] += c
    return CycloNumber(N, _reduce_mod_phi(buf, N))


def align_levels(a: CycloNumber, b: CycloNumber):
    if a.N == b.N:
        return a, b
    import math

    N = a.N * b.N // math.gcd(a.N, b.N)
    return embed(a, N), embed(b, N)


def session_level(p: int, q: int, m: int) -> int:
    """All character values live in Q(zeta_L) with L = (q-1) * p^(m+1); the
    additive tower psi_j(x) = zeta_{p^(j+1)}^x, j <= m, sits inside it, so
    psi_j(p^j * x) = psi_0(x) on the nose."""
    return (q - 1) * p ** (m + 1)


# -- display helpers ---------------------------------------------------------

def _fmt_coeff(c: Fraction, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    return sign, (str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}")


def pretty(x: CycloNumber) -> str:
    """Human-readable form at the smallest cyclotomic level that contains x."""
    y = minimal_form(x)
    if all(c == 0 for c in y.coeffs):
        return "0"
    parts = []
    for j, c in enumerate(y.coeffs):
        if c == 0:
            continue
        sign, mag = _fmt_coeff(c, first=not parts)
        if j == 0:
            parts.append(f"{sign}{mag}")
        else:
            zeta = f"z{y.N}" if j == 1 else f"z{y.N}^{j}"
            if mag == "1":
                parts.append(f"{sign}{zeta}")
            else:
                parts.append(f"{sign}{mag}*{zeta}")
    return "".join(parts)


def minimal_form(x: CycloNumber) -> CycloNumber:
    """Rewrite x at the smallest divisor level M | N with x in Q(zeta_M)."""
    N = x.N
    divisors = sorted(d for d in range(1, N + 1) if N % d == 0)
    for M in divisors:
        y = _try_descend(x, M)
        if y is not None:
            return y
    return x


def _try_descend(x: CycloNumber, M: int):
    """Solve x = sum_j c_j * zeta_N^(j*N/M) over Q if possible."""
    N = x.N
    degM = euler_phi(M)
    step = N // M
    basis = [root_of_unity(N, j * step).coeffs for j in range(degM)]
    degN = len(x.coeffs)
    # Gaussian elimination on the degN x degM system
    rows = [[basis[j][i] for j in range(degM)] + [x.coeffs[i]] for i in range(degN)]
    pivots = []
    rank_col = 0
    for col in range(degM):
        piv = None
        for r in range(rank_col, degN):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank_col], rows[piv] = rows[piv], rows[rank_col]
        prow = rows[rank_col]
        inv = 1 / prow[col]
        rows[rank_col] = [c * inv for c in prow]
        for r in range(degN):
            if r != rank_col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank_col])]
        pivots.append(col)
        rank_col += 1
    # consistency: all remaining rows must have zero RHS
    for r in range(rank_col, degN):
        if rows[r][degM] != 0:
            return None
    sol = [Fraction(0)] * degM
    for i, col in enumerate(pivots):
        sol[col] = rows[i][degM]
    return CycloNumber(M, sol)
