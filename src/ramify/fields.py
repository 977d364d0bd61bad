"""Finite fields F_q (q = p^f, p odd) and the truncated coefficient ring Z_q/p^(m+1).

Elements of F_q are stored as integer indices in [0, q): the index encodes the
coefficient vector (c_0, ..., c_{f-1}) of the element sum(c_i * x^i) in base p,
least significant digit = constant term.  Multiplication goes through a dense
discrete-log table (hence the cap q <= 2^16); addition is digit-wise.

Both rings pack an element into one int for the series kernels: its f digits
mod M (``modulus_int``: p, or p^(m+1)) go into slots of ``bits`` bits, constant
term lowest (Kronecker substitution at X = 2^bits); at f = 1 the int is the
value.  ``ints`` packs, ``wrap`` unpacks canonical ints, and ``canon`` makes a
sum of products canonical: slots from f up are folded by the rows X^(f+j) mod
h, then each slot is reduced mod M.  The width depends on p alone, so F_q and
every Witt coefficient ring over it share their ints.  The bound: with f <= F
(p^F <= the q cap) and M <= p^LENGTH_CAP, a slot of a sum of fewer than 2^24
products of three canonical factors is below S = 2^24 F^2 (M-1)^3, and below
S (2F-1)(M-1) after the fold by at most 2F - 2 rows; ``bits`` is its length.

Everything is deterministic: the modulus is the first irreducible monic
polynomial in lexicographic coefficient order, the generator is the smallest
element (by index) of multiplicative order q - 1.  A candidate g passes when
g^((q-1)/l) != 1 for every prime l | q - 1, and the exp table is then filled
by one pass of multiplication by g through table lookups, so F_{3^10} builds
in a fraction of a second.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from operator import lshift

from .errors import (
    CapExceeded,
    EvenCharacteristic,
    LengthMismatch,
    NotPrime,
    SchemaError,
    ZeroInput,
)

DEFAULT_Q_CAP = 1 << 16
LENGTH_CAP = 3  # Witt vectors of length <= 3, so a digit is mod p^3 at most


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, by trial division; () for n < 2."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == (n,)


# ---------------------------------------------------------------------------
# bare polynomial arithmetic over F_p (lists of ints, little-endian), used only
# while constructing a field
# ---------------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, h, p):
    # h monic
    a = list(a)
    dh = len(h) - 1
    while len(a) - 1 >= dh and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dh
            for i, hi in enumerate(h):
                a[shift + i] = (a[shift + i] - lead * hi) % p
        a.pop()
    return _poly_trim(a)


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # reduce a mod b (make b monic first)
        inv_lead = pow(b[-1], p - 2, p)
        bm = [(c * inv_lead) % p for c in b]
        a, b = b, _poly_mod(a, bm, p)
    return a


def _poly_powmod(base, e: int, h, p):
    """base^e mod h by square and multiply."""
    result = [1]
    base = _poly_mod(base, h, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), h, p)
        base = _poly_mod(_poly_mul(base, base, p), h, p)
        e >>= 1
    return result


def _is_irreducible(h, p):
    """Rabin test for a monic polynomial h over F_p of degree f: h divides
    x^(p^f) - x and is prime to x^(p^(f/l)) - x for each prime l | f."""
    f = len(h) - 1

    def x_power_minus_x(k):  # x^(p^k) - x mod h
        out = list(_poly_powmod([0, 1], p**k, h, p)) + [0, 0]
        out[1] = (out[1] - 1) % p
        return _poly_trim(out)

    if f == 1:
        return True
    if x_power_minus_x(f):
        return False
    return all(len(_poly_gcd(x_power_minus_x(f // ell), h, p)) == 1
               for ell in _prime_factors(f))


# ---------------------------------------------------------------------------
# the packing of the module docstring, shared by both coefficient rings
# ---------------------------------------------------------------------------

def _reduction_rows(h, M: int, count: int):
    """rows[j] = the coefficients of X^(f+j) mod the monic h, mod M, j < count."""
    rows = [tuple((-c) % M for c in h[:-1])]  # X^f
    while len(rows) < count:
        lead = rows[-1][-1]
        rows.append(tuple((c - lead * hc) % M for c, hc in zip((0,) + rows[-1][:-1], h)))
    return rows[:count]


def _power_sums(h, count: int, M: int) -> list[int]:
    """[Tr(X^k) for k < count] in (Z/M)[X]/(h), h monic: the power sums of
    the roots of h, by Newton's identities."""
    f = len(h) - 1
    sums = [f % M]
    for k in range(1, count):
        acc = sum(h[f - i] * sums[k - i] for i in range(1, min(k - 1, f) + 1))
        sums.append(-(acc + (k * h[f - k] if k <= f else 0)) % M)
    return sums


class _Packing:
    """The slot layout and ``canon`` of a ring, set up by ``_pack_by``."""

    def _pack_by(self, p: int, h):
        f, M = len(h) - 1, self.modulus_int
        F = next(k for k in itertools.count(1) if p ** (k + 1) > DEFAULT_Q_CAP)  # f <= F
        S = (1 << 24) * F * F * (p**LENGTH_CAP - 1) ** 3  # the bound of the module docstring
        self._bits = bits = (S * (2 * F - 1) * (p**LENGTH_CAP - 1)).bit_length()
        self._mask, self._top, self._shifts = (1 << bits) - 1, f * bits, range(0, f * bits, bits)
        self._low = (1 << f * bits) - 1
        self._rows = [self._pack(row) for row in _reduction_rows(h, M, 2 * f - 2)]
        if f == 1:  # the packed int is the value: canon reduces it mod M
            self.canon = M.__rmod__

    def _pack(self, digits) -> int:
        return sum(map(lshift, digits, self._shifts))

    def canon(self, x: int) -> int:
        """The canonical packed int of x, a sum of products of at most three
        packed ints: slots from f up folded by the rows, each reduced mod M."""
        mask, M, bits = self._mask, self.modulus_int, self._bits
        low, high, out, s = x & self._low, x >> self._top, 0, 0
        for row in self._rows:
            if not high:
                break
            low += (high & mask) * row
            high >>= bits
        while low:
            out, low, s = out | (low & mask) % M << s, low >> bits, s + bits
        return out

    def unit_inverse(self, x: int) -> int:
        """The packed inverse of a canonical packed unit."""
        return (pow(x, -1, self.modulus_int) if self.f == 1
                else self.ints([self.wrap([x])[0].inverse()])[0])


# ---------------------------------------------------------------------------
# F_q
# ---------------------------------------------------------------------------

class FqElement:
    """Element of a FiniteField; immutable wrapper around an index."""

    __slots__ = ("field", "idx")

    def __init__(self, field: "FiniteField", idx: int):
        self.field = field
        self.idx = idx

    def __add__(self, other):
        return FqElement(self.field, self.field.add_idx(self.idx, other.idx))

    def __sub__(self, other):
        f = self.field
        return FqElement(f, f.add_idx(self.idx, f.neg_table[other.idx]))

    def __neg__(self):
        return FqElement(self.field, self.field.neg_table[self.idx])

    def __mul__(self, other):
        f = self.field
        a, b = self.idx, other.idx
        if a == 0 or b == 0:
            return f.zero
        return FqElement(f, f.exp[(f.log[a] + f.log[b]) % (f.q - 1)])

    def __pow__(self, e: int):
        f = self.field
        if self.idx == 0:
            if e < 0:
                raise ZeroInput("0 has no negative power")
            return f.one if e == 0 else f.zero
        return FqElement(f, f.exp[(f.log[self.idx] * e) % (f.q - 1)])

    def inverse(self):
        f = self.field
        if self.idx == 0:
            raise ZeroInput("0 is not invertible")
        return FqElement(f, f.exp[(-f.log[self.idx]) % (f.q - 1)])

    def is_zero(self) -> bool:
        return self.idx == 0

    def is_unit(self) -> bool:
        return self.idx != 0

    def frobenius(self):
        """x -> x^p."""
        return self ** self.field.p

    def pth_root(self):
        """Unique y with y^p = x (k is perfect)."""
        return self ** (self.field.p ** (self.field.f - 1))

    def digits(self):
        return self.field.digit_table[self.idx]

    def __eq__(self, other):
        return (
            isinstance(other, FqElement)
            and other.field is self.field
            and other.idx == self.idx
        )

    def __hash__(self):
        return hash((id(self.field), self.idx))

    def __repr__(self):
        f = self.field
        if f.f == 1:
            return f"F{f.q}({self.idx})"
        return f"F{f.q}{list(self.digits())}"


class FiniteField(_Packing):
    """F_q with q = p^f, p an odd prime, built deterministically."""

    def __init__(self, p: int, f: int):
        if p == 2:
            raise EvenCharacteristic("characteristic 2 is out of scope (p > 2)")
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if f < 1:
            raise SchemaError(f"f = {f} must be >= 1")
        q = p**f
        if q > DEFAULT_Q_CAP:
            raise CapExceeded(f"q = {q} exceeds the dlog-table cap {DEFAULT_Q_CAP}")
        self.p = p
        self.f = f
        self.q = q
        self.modulus_int = p

        self._pow_p = [p**i for i in range(f)]
        # product() runs its last place fastest; the index's fastest digit is c_0
        self.digit_table = [d[::-1] for d in itertools.product(range(p), repeat=f)]
        neg = [0]
        for w in self._pow_p:
            neg = [r + (-d % p) * w for d in range(p) for r in neg]
        self.neg_table = neg
        self.modulus = self._find_modulus()  # monic, as little-endian list, len f+1

        self.exp, self.log, self.generator_idx = self._build_dlog()
        self.zero = FqElement(self, 0)
        self.one = FqElement(self, 1)
        self.generator = FqElement(self, self.generator_idx)
        # trace of multiplication by x^j, as an F_p scalar, for Tr_{F_q/F_p}
        self._trace_basis = _power_sums(self.modulus, f, p)
        self._pack_by(p, self.modulus)
        if f > 1:  # packed ints of the low and high halves of an index, and back
            ph, self._half = p ** ((f + 1) // 2), self._shifts[(f + 1) // 2]
            self._pack_lo = [self._pack(self.digit_table[a]) for a in range(ph)]
            self._pack_hi = [self._pack(self.digit_table[a]) for a in range(0, q, ph)]
            self._unpack_lo = {c: a for a, c in enumerate(self._pack_lo)}
            self._unpack_hi = {c >> self._half: a * ph for a, c in enumerate(self._pack_hi)}

    # -- construction helpers -------------------------------------------

    def _find_modulus(self):
        p, f = self.p, self.f
        if f == 1:
            return [0, 1]
        # iterate the coefficient tuples (a_{f-1}, ..., a_0) in ascending
        # lexicographic order, which is index order with a_0 the lowest digit
        for low in self.digit_table:
            h = list(low) + [1]  # little-endian: a_0, ..., a_{f-1}, 1
            if _is_irreducible(h, p):
                return h
        raise AssertionError("no irreducible polynomial found (unreachable)")

    def _encode(self, digits) -> int:
        return sum(c * w for c, w in zip(digits, self._pow_p))

    def _mul_raw(self, a_digits, b_digits):
        """Tuple-level multiplication mod the modulus — used only during setup."""
        digits = _poly_mod(_poly_mul(a_digits, b_digits, self.p), self.modulus, self.p)
        return tuple(digits) + (0,) * (self.f - len(digits))

    def _build_dlog(self):
        p, q = self.p, self.q
        # the smallest index of order q - 1: g^((q-1)/l) != 1 for each prime l | q - 1
        cofactors = [(q - 1) // ell for ell in _prime_factors(q - 1)]
        for cand in range(2, q):
            g = _poly_trim(list(self.digit_table[cand]))
            if all(_poly_powmod(g, e, self.modulus, p) != [1] for e in cofactors):
                break
        else:
            raise AssertionError("no generator found (unreachable)")
        exp = self._powers(cand)
        log = [0] * q
        for k, v in enumerate(exp):
            log[v] = k
        return exp, log, cand

    def _powers(self, g: int):
        """[g^0, ..., g^(q-2)] as indices.

        Multiplication by g is F_p-linear, so the digits of g*a are the
        digit-wise sums mod p of g*(low digits of a) and g*(high digits of
        a), two tables of about sqrt(q) entries each.  Their entries keep
        each digit in its own bit field of width B, wide enough for a sum of
        two digits, so one integer addition adds all f digits; two lookups
        in tables indexed by such packed sums reduce them mod p and give
        the index of g*a.
        """
        p, f, q = self.p, self.f, self.q
        exp = [1] * (q - 1)
        if f == 1:
            for k in range(1, q - 1):
                exp[k] = exp[k - 1] * g % p
            return exp
        h = (f + 1) // 2  # digits in the low half
        ph = p**h
        B = (2 * p - 2).bit_length()
        gd = self.digit_table[g]

        def packed_times_g(idx):
            digits = self._mul_raw(gd, self.digit_table[idx])
            return sum(c << (B * i) for i, c in enumerate(digits))

        low = [packed_times_g(a) for a in range(ph)]
        high = [packed_times_g(a * ph) for a in range(q // ph)]

        def unpacker(fields, weight):
            table = [0]
            for i in range(fields):
                table = [r + (d % p) * weight * p**i for d in range(1 << B) for r in table]
            return table

        unpack_low, unpack_high = unpacker(h, 1), unpacker(f - h, ph)
        mask, shift = (1 << (B * h)) - 1, B * h
        a = 1
        for k in range(1, q - 1):
            s = low[a % ph] + high[a // ph]
            a = unpack_low[s & mask] + unpack_high[s >> shift]
            exp[k] = a
        return exp

    # -- element-level services ------------------------------------------

    def add_idx(self, a: int, b: int) -> int:
        if self.f == 1:
            return (a + b) % self.p
        da, db = self.digit_table[a], self.digit_table[b]
        p = self.p
        return sum(((x + y) % p) * w for x, y, w in zip(da, db, self._pow_p))

    def element(self, digits) -> FqElement:
        digits = tuple(int(c) % self.p for c in digits)
        if len(digits) != self.f:
            raise LengthMismatch(f"need {self.f} coefficients, got {len(digits)}")
        return FqElement(self, self._encode(digits))

    def from_int(self, n: int) -> FqElement:
        return FqElement(self, n % self.p)

    def from_index(self, idx: int) -> FqElement:
        return FqElement(self, idx % self.q)

    def elements(self):
        for i in range(self.q):
            yield FqElement(self, i)

    def dlog(self, x: FqElement) -> int:
        if x.idx == 0:
            raise ZeroInput("dlog of 0")
        return self.log[x.idx]

    def is_square(self, x: FqElement) -> bool:
        if x.idx == 0:
            return True
        return self.log[x.idx] % 2 == 0

    def kappa0(self, x: FqElement) -> int:
        """Quadratic residue character: +1 on squares, -1 otherwise (x != 0)."""
        if x.idx == 0:
            raise ZeroInput("kappa0(0)")
        return 1 if self.log[x.idx] % 2 == 0 else -1

    def trace_to_prime(self, x: FqElement) -> int:
        """Tr_{F_q/F_p}(x) as an integer in [0, p)."""
        d = self.digit_table[x.idx]
        return sum(c * t for c, t in zip(d, self._trace_basis)) % self.p

    @cached_property
    def traces(self) -> tuple[int, ...]:
        """Tr_{F_q/F_p} of every element in index order, tabulated on first use."""
        return tuple(sum(c * t for c, t in zip(d, self._trace_basis)) % self.p
                     for d in self.digit_table)

    def ints(self, elements) -> list[int]:
        """The packed ints of elements: their indices at f = 1."""
        if self.f == 1:
            return [x.idx for x in elements]
        lo, hi, ph = self._pack_lo, self._pack_hi, len(self._pack_lo)
        return [lo[x.idx % ph] + hi[x.idx // ph] for x in elements]

    def wrap(self, values) -> list[FqElement]:
        """Elements from canonical packed ints."""
        if self.f == 1:
            return [FqElement(self, c) for c in values]
        lo, hi, half, mask = self._unpack_lo, self._unpack_hi, self._half, (1 << self._half) - 1
        return [FqElement(self, lo[c & mask] + hi[c >> half]) for c in values]

    def extension(self, s: int):
        """Return (E, embed) with E = F_{q^s} and embed: F_q -> E a ring embedding."""
        if s == 1:
            return self, FieldEmbedding(self, self, None)
        E = make_field(self.p, self.f * s)
        root = _find_root(self.modulus, E)
        return E, FieldEmbedding(self, E, root)

    def __repr__(self):
        return f"FiniteField(p={self.p}, f={self.f})"


def _find_root(h, E: FiniteField) -> FqElement:
    """First root (by index) in E of the little-endian polynomial h, the
    modulus of a subfield F_{p^d} of E.  Being irreducible of degree d, h
    has its roots in that subfield: 0 and the powers of g^((|E|-1)/(p^d-1))."""
    coeffs = [E.from_int(c) for c in h]
    step = (E.q - 1) // (E.p ** (len(h) - 1) - 1)
    for idx in sorted([0] + E.exp[::step]):
        x = FqElement(E, idx)
        acc = E.zero
        xp = E.one
        for c in coeffs:
            acc = acc + c * xp
            xp = xp * x
        if acc.is_zero():
            return x
    raise AssertionError("modulus has no root in the extension (unreachable)")


class FieldEmbedding:
    """Ring embedding F_q -> F_{q^s} determined by a root of the source modulus."""

    def __init__(self, src: FiniteField, dst: FiniteField, root):
        self.src = src
        self.dst = dst
        self.root = root
        if src is dst:
            self._pows = None
        else:
            pows = [dst.one]
            for _ in range(src.f - 1):
                pows.append(pows[-1] * root)
            self._pows = pows

    def __call__(self, x: FqElement) -> FqElement:
        if self.src is self.dst:
            assert x.field is self.src
            return x
        assert x.field is self.src, "element not in the source field"
        acc = self.dst.zero
        for c, w in zip(x.digits(), self._pows):
            if c:
                acc = acc + self.dst.from_int(c) * w
        return acc


# ---------------------------------------------------------------------------
# Z_q / p^(m+1)
# ---------------------------------------------------------------------------

class WittCoeffElement:
    """Element of (Z/p^(m+1))[X]/(lifted modulus), stored as a coefficient tuple."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "WittCoeffRing", coeffs):
        self.ring = ring
        self.coeffs = tuple(c % ring.modulus_int for c in coeffs)

    @staticmethod
    def _reduced(ring, coeffs):
        """An element from a tuple already reduced mod p^(m+1)."""
        x = object.__new__(WittCoeffElement)
        x.ring, x.coeffs = ring, coeffs
        return x

    def __add__(self, other):
        m = self.ring.modulus_int
        return self._reduced(
            self.ring, tuple((a + b) % m for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        m = self.ring.modulus_int
        return self._reduced(
            self.ring, tuple((a - b) % m for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        m = self.ring.modulus_int
        return self._reduced(self.ring, tuple((-a) % m for a in self.coeffs))

    def __mul__(self, other):
        return self.ring.mul(self, other)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = self.ring.one
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_unit(self) -> bool:
        return not self.reduce().is_zero()

    def inverse(self):
        return self.ring.inverse(self)

    def reduce(self) -> FqElement:
        """Reduction mod p down to the residue field."""
        k = self.ring.field
        return k.element(tuple(c % k.p for c in self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, WittCoeffElement)
            and other.ring is self.ring
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __repr__(self):
        return f"W{self.ring.modulus_int}{list(self.coeffs)}"


class WittCoeffRing(_Packing):
    """(Z/p^(m+1))[X] / (coefficient-wise lift of the field modulus)."""

    def __init__(self, field: FiniteField, m: int):
        if m + 1 > LENGTH_CAP:
            raise CapExceeded(f"length {m + 1} exceeds cap {LENGTH_CAP}")
        self.field = field
        self.m = m
        self.modulus_int = field.p ** (m + 1)
        self.f = field.f
        # lifted modulus: same digit representatives, now read mod p^(m+1)
        self.lifted_modulus = list(field.modulus)
        self._pack_by(field.p, self.lifted_modulus)
        self.zero = WittCoeffElement(self, (0,) * self.f)
        self.one = WittCoeffElement(self, (1,) + (0,) * (self.f - 1))
        # Tr(X^s) for s < 2f - 1, the trace form of the basis
        self._power_traces = _power_sums(self.lifted_modulus, 2 * self.f - 1, self.modulus_int)
        self._lift_powers = None

    def mul(self, a: WittCoeffElement, b: WittCoeffElement) -> WittCoeffElement:
        if self.f == 1:
            return WittCoeffElement._reduced(self, (a.coeffs[0] * b.coeffs[0] % self.modulus_int,))
        return self.wrap([self.canon(self._pack(a.coeffs) * self._pack(b.coeffs))])[0]

    def inverse(self, a: WittCoeffElement) -> WittCoeffElement:
        """Newton's step b -> b (2 - a b) on packed ints, from the inverse of
        the reduction; each step doubles the power of p that b is exact to."""
        red = a.reduce()
        if red.is_zero():
            raise ZeroInput("not a unit in the Witt coefficient ring")
        x, b, canon = self._pack(a.coeffs), self.field.ints([red.inverse()])[0], self.canon
        for _ in range(self.m.bit_length()):  # 2^steps >= m + 1
            b = canon(b * canon(2 + (self.modulus_int - 1) * canon(x * b)))
        return self.wrap([b])[0]

    def lift(self, x: FqElement) -> WittCoeffElement:
        """Coefficient-wise representative lift in [0, p^(m+1))."""
        assert x.field is self.field
        return WittCoeffElement(self, x.digits())

    def from_int(self, n: int) -> WittCoeffElement:
        return WittCoeffElement(self, (n % self.modulus_int,) + (0,) * (self.f - 1))

    def ints(self, elements) -> list[int]:
        """The packed ints of elements: their values at f = 1."""
        if self.f == 1:
            return [x.coeffs[0] for x in elements]
        return [self._pack(x.coeffs) for x in elements]

    def wrap(self, values) -> list[WittCoeffElement]:
        """Elements from canonical packed ints."""
        reduced = WittCoeffElement._reduced
        if self.f == 1:
            return [reduced(self, (c,)) for c in values]
        mask, shifts, out = self._mask, self._shifts, []
        for c in values:
            digits = []
            for s in shifts:
                digits.append((c >> s) & mask)
            out.append(reduced(self, tuple(digits)))
        return out

    def lift_powers(self, k: int) -> list[list[int]]:
        """table[x] = the coefficients of x~, x~^2, ..., x~^k laid end to end,
        f ints each, for x in F_q in index order and x~ its representative
        lift: kept on the ring, so every character over it reads the same
        rows, and grown on demand."""
        if self._lift_powers is None:
            self._lift_powers = [list(self.lift(x).coeffs) for x in self.field.elements()]
        table, f = self._lift_powers, self.f
        while len(table[0]) < k * f:
            for row in table:  # the next power is the last one times x~
                row += self.mul(*self.wrap([self._pack(row[-f:]), self._pack(row[:f])])).coeffs
        return table

    def trace_form(self, c: WittCoeffElement) -> tuple[int, ...]:
        """(Tr(X^i c))_{i<f}, so that Tr(a c) is the integer dot product of
        a.coeffs with it, mod p^(m+1)."""
        T = self._power_traces
        return tuple(sum(cl * T[i + l] for l, cl in enumerate(c.coeffs))
                     for i in range(self.f))

    def trace(self, a: WittCoeffElement) -> int:
        """Matrix trace of multiplication-by-a, an integer mod p^(m+1)."""
        return sum(c * t for c, t in zip(a.coeffs, self._power_traces)) % self.modulus_int

    @staticmethod
    @lru_cache(maxsize=None)
    def for_field(field: FiniteField, m: int, /) -> "WittCoeffRing":
        """Memoized constructor (packing, trace form and lift powers are reused)."""
        return WittCoeffRing(field, m)

    def __repr__(self):
        return f"WittCoeffRing(q={self.field.q}, m={self.m})"


@lru_cache(maxsize=None)
def make_field(p: int, f: int, /) -> FiniteField:
    """The interned F_{p^f}: positional-only, so one (p, f) is one cache key."""
    return FiniteField(p, f)


def field_from_q(q: int) -> FiniteField:
    """The interned F_q for a prime power q; SchemaError for any other q."""
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise SchemaError(f"q = {q} is not a prime power")
    p = primes[0]
    return make_field(p, next(f for f in itertools.count(1) if p**f == q))
