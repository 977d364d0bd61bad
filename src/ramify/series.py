"""Truncated Laurent series with explicit precision tracking.

A series is a dense coefficient window: ``val`` is the exponent of the first
stored coefficient, ``prec`` means "known modulo t^prec", and the window
always covers [val, prec).  The zero-to-precision series is a distinct state
(val is None — the +infinity sentinel).  Coefficients live in a FiniteField
or a WittCoeffRing; the two expose the same element interface, and the same
packing into ints (see ``fields``).  ``*``, ``scale``, ``inverse`` (so
``dlog`` and ``**``), ``derivative`` and ``residue_product`` run on the packed
ints at every residue degree, each result coefficient brought back by
``ring.canon`` and wrapped once.

All operations are exact on the retained window and propagate precision
pessimistically.  Nothing here ever truncates silently: a coefficient outside
the guaranteed window raises PrecisionExhausted.
"""

from __future__ import annotations

from itertools import count, repeat
from operator import add, mul

from .errors import (
    LengthMismatch,
    NonUnitLeadingCoefficient,
    PrecisionExhausted,
    ZeroInput,
)


class LaurentSeries:
    __slots__ = ("ring", "val", "coeffs", "prec")

    def __init__(self, ring, val, coeffs, prec):
        """Use the constructors below; this assumes normalized input."""
        self.ring = ring
        self.val = val
        self.coeffs = coeffs
        self.prec = prec

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(ring, val: int, coeffs, prec: int) -> "LaurentSeries":
        """Normalize: strip leading zeros, detect zero-to-precision."""
        coeffs = list(coeffs)
        if len(coeffs) != prec - val:
            raise LengthMismatch(f"window mismatch: {len(coeffs)} coeffs for [{val},{prec})")
        i = 0
        while i < len(coeffs) and coeffs[i].is_zero():
            i += 1
        if i == len(coeffs):
            return LaurentSeries(ring, None, (), prec)
        return LaurentSeries(ring, val + i, tuple(coeffs[i:]), prec)

    @staticmethod
    def from_ints(ring, val: int, values, prec: int) -> "LaurentSeries":
        """``make`` from sums of products of packed ints, each made canonical and wrapped once."""
        values = list(map(ring.canon, values))
        for i, c in enumerate(values):
            if c:
                return LaurentSeries(ring, val + i, tuple(ring.wrap(values[i:])), prec)
        return LaurentSeries(ring, None, (), prec)

    @staticmethod
    def zero(ring, prec: int) -> "LaurentSeries":
        return LaurentSeries(ring, None, (), prec)

    @staticmethod
    def from_terms(ring, terms: dict, prec: int) -> "LaurentSeries":
        """terms: {exponent: element}; exponents >= prec are rejected."""
        live = {e: c for e, c in terms.items() if not c.is_zero()}
        for e in live:
            if e >= prec:
                raise PrecisionExhausted(f"term t^{e} outside window (prec {prec})")
        if not live:
            return LaurentSeries.zero(ring, prec)
        v = min(live)
        coeffs = [live.get(e, ring.zero) for e in range(v, prec)]
        return LaurentSeries(ring, v, tuple(coeffs), prec)

    @staticmethod
    def monomial(ring, c, e: int, prec: int) -> "LaurentSeries":
        return LaurentSeries.from_terms(ring, {e: c}, prec)

    @staticmethod
    def t_power(ring, e: int, prec: int) -> "LaurentSeries":
        return LaurentSeries.monomial(ring, ring.one, e, prec)

    # -- basics --------------------------------------------------------------

    def is_zero(self) -> bool:
        """Zero to the guaranteed precision."""
        return self.val is None

    def valuation(self):
        """ord(s); None for the zero-to-precision series."""
        return self.val

    def ord_lower_bound(self) -> int:
        """A certified lower bound for ord: val itself, or prec when zero."""
        return self.prec if self.val is None else self.val

    def has_ord_at_least(self, k: int) -> bool:
        """Certified ord(s) >= k check; raises if the window cannot decide."""
        if self.val is not None:
            return self.val >= k
        if self.prec >= k:
            return True
        raise PrecisionExhausted(
            f"series is 0 mod t^{self.prec}; cannot certify ord >= {k}"
        )

    def coefficient(self, e: int):
        if e >= self.prec:
            raise PrecisionExhausted(f"coefficient of t^{e} beyond prec {self.prec}")
        if self.val is None or e < self.val:
            return self.ring.zero
        return self.coeffs[e - self.val]

    def leading_coefficient(self):
        if self.val is None:
            raise ZeroInput("zero-to-precision series has no leading coefficient")
        return self.coeffs[0]

    def truncate(self, new_prec: int) -> "LaurentSeries":
        if new_prec >= self.prec:
            return self
        if self.val is None or self.val >= new_prec:
            return LaurentSeries.zero(self.ring, new_prec)
        return LaurentSeries(self.ring, self.val, self.coeffs[: new_prec - self.val], new_prec)

    def terms(self):
        """Iterate (exponent, nonzero coefficient)."""
        if self.val is None:
            return
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                yield self.val + i, c

    # -- ring operations ------------------------------------------------------

    def _check_ring(self, other):
        if self.ring is not other.ring:
            raise ValueError("series over different coefficient rings")

    def __add__(self, other):
        self._check_ring(other)
        prec = min(self.prec, other.prec)
        if self.val is None:
            return other.truncate(prec)
        if other.val is None:
            return self.truncate(prec)
        v = min(self.val, other.val)
        out = []
        for e in range(v, prec):
            out.append(self.coefficient(e) + other.coefficient(e))
        return LaurentSeries.make(self.ring, v, out, prec)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if self.val is None:
            return self
        return LaurentSeries(self.ring, self.val, tuple(-c for c in self.coeffs), self.prec)

    def __mul__(self, other):
        self._check_ring(other)
        va = self.val if self.val is not None else self.prec
        vb = other.val if other.val is not None else other.prec
        prec = min(self.prec + vb, other.prec + va)
        if self.val is None or other.val is None:
            return LaurentSeries.zero(self.ring, prec)
        v = va + vb
        n_out = prec - v
        ring = self.ring
        b = ring.ints(other.coeffs[:n_out])
        out = [0] * n_out
        for i, a in enumerate(ring.ints(self.coeffs[:n_out])):
            if a:
                k = min(len(b), n_out - i)
                out[i:i + k] = map(add, out[i:i + k], map(mul, repeat(a), b))
        return LaurentSeries.from_ints(ring, v, out, prec)

    def scale(self, c) -> "LaurentSeries":
        """Multiply by a coefficient-ring scalar, on packed ints."""
        if self.val is None or c.is_zero():
            return LaurentSeries.zero(self.ring, self.prec)
        ints = self.ring.ints
        return LaurentSeries.from_ints(self.ring, self.val, map(
            mul, repeat(ints([c])[0]), ints(self.coeffs)), self.prec)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t^k (exact)."""
        if self.val is None:
            return LaurentSeries.zero(self.ring, self.prec + k)
        return LaurentSeries(self.ring, self.val + k, self.coeffs, self.prec + k)

    def inverse(self) -> "LaurentSeries":
        if self.val is None:
            raise NonUnitLeadingCoefficient("cannot invert a series that is 0 to precision")
        lead = self.coeffs[0]
        if not lead.is_unit():
            raise NonUnitLeadingCoefficient(f"leading coefficient {lead!r} is not a unit")
        v = self.val
        n = self.prec - v  # window length of the unit part
        ring, canon, u = self.ring, self.ring.canon, self.ring.ints(self.coeffs)
        out, tail = [ring.unit_inverse(u[0])], u[1:]  # a unit: no leading zero to strip
        neg = canon(out[0] * (ring.modulus_int - 1))
        for _ in range(1, n):
            out.append(canon(neg * sum(map(mul, tail, reversed(out)))))
        return LaurentSeries(ring, -v, tuple(ring.wrap(out)), self.prec - 2 * v)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = None
        base = self
        if e == 0:
            return LaurentSeries.t_power(self.ring, 0, self.prec - (self.val or 0))
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        """Equality on the shared guaranteed window."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check_ring(other)
        prec = min(self.prec, other.prec)
        a, b = self.truncate(prec), other.truncate(prec)
        return a.val == b.val and a.coeffs == b.coeffs

    def __hash__(self):
        raise TypeError("LaurentSeries equality is precision-relative; not hashable")

    # -- calculus ---------------------------------------------------------------

    def derivative(self) -> "LaurentSeries":
        """Termwise d/dt; precision drops by one."""
        if self.val is None:
            return LaurentSeries.zero(self.ring, self.prec - 1)
        return LaurentSeries.from_ints(self.ring, self.val - 1, map(
            mul, self.ring.ints(self.coeffs), count(self.val % self.ring.modulus_int)),
            self.prec - 1)

    def iterated_derivative(self, i: int) -> "LaurentSeries":
        s = self
        for _ in range(i):
            s = s.derivative()
        return s

    def dlog(self) -> "LaurentSeries":
        """s'/s — the coefficient of dt in dlog(s)."""
        if self.val is None:
            raise PrecisionExhausted("dlog of a series that is 0 to precision")
        return self.derivative() * self.inverse()

    def __repr__(self):
        if self.val is None:
            return f"O(t^{self.prec})"
        parts = []
        for e, c in self.terms():
            parts.append(f"({c!r})*t^{e}")
        return " + ".join(parts) + f" + O(t^{self.prec})"


def residue(g: LaurentSeries):
    """Coefficient of t^(-1) in g, where omega = g dt."""
    if g.prec <= -1:
        raise PrecisionExhausted("residue window not guaranteed")
    return g.coefficient(-1)


def residue_product(x: LaurentSeries, y: LaurentSeries):
    """residue(x * y) as one dot product, without forming the product;
    raises PrecisionExhausted on exactly the inputs where that does."""
    x._check_ring(y)
    if min(x.prec + y.ord_lower_bound(), y.prec + x.ord_lower_bound()) <= -1:
        raise PrecisionExhausted("residue window not guaranteed")
    if x.val is None or y.val is None:
        return x.ring.zero
    ring, k, xs, ys = x.ring, -1 - x.val - y.val, x.coeffs, y.coeffs
    lo, hi = max(0, k - len(ys) + 1), min(len(xs), k + 1)
    if lo >= hi:
        return ring.zero
    return ring.wrap([ring.canon(sum(map(  # xs[lo:hi] against ys[k - lo], ..., ys[k - hi + 1]
        mul, ring.ints(xs[lo:hi]), reversed(ring.ints(ys[k - hi + 1:k - lo + 1])))))])[0]


def substitute_dilated(s: LaurentSeries, r: int, theta) -> LaurentSeries:
    """s(t * (1 + theta * t^r)) computed exactly on the retained window.

    theta must already live in s's coefficient ring — field promotion is the
    caller's job and is never done silently.
    """
    assert r >= 1
    ring = s.ring
    if s.val is None:
        return s
    L = s.prec - s.val  # working window length in the w-variable
    wterms = {0: ring.one}
    if r < L:  # otherwise w = 1 + theta*t^r is 1 on the whole window
        wterms[r] = theta
    w = LaurentSeries.from_terms(ring, wterms, L)
    pw = w ** s.val if s.val >= 0 else (w.inverse() ** (-s.val))
    pw = pw.truncate(L)
    acc = LaurentSeries.zero(ring, s.prec)
    for i, c in enumerate(s.coeffs):
        e = s.val + i
        if not c.is_zero():
            term = pw.scale(c).shift(e).truncate(s.prec)
            acc = acc + term
        if i + 1 < len(s.coeffs):
            pw = (pw * w).truncate(L)
    return acc


def map_coefficients(s: LaurentSeries, fn, new_ring) -> LaurentSeries:
    """Map each coefficient through fn into new_ring, such as a field
    embedding or ``WittCoeffRing.lift``."""
    if s.val is None:
        return LaurentSeries.zero(new_ring, s.prec)
    return LaurentSeries.make(new_ring, s.val, [fn(c) for c in s.coeffs], s.prec)


def decompose_over_base(s: LaurentSeries, b: LaurentSeries):
    """Write s = sum_{i<n} t^i g_i(b) with n = ord(b) >= 1, greedily.

    Returns (gs, guaranteed): gs is a list of n LaurentSeries in the variable
    x = b(t), and ``s - sum t^i g_i(b) = 0 mod t^guaranteed`` is certified.
    The coefficient of x^k in g_i is found by cancelling the leading term of
    the running remainder at exponent v = i + n*k.
    """
    ring = s.ring
    if b.val is None or b.val < 1:
        raise ZeroInput("base must have valuation >= 1")
    if not b.leading_coefficient().is_unit():
        raise NonUnitLeadingCoefficient("base needs a unit leading coefficient")
    n = b.val
    lead_b = b.leading_coefficient()
    cur = s
    found: dict[int, dict[int, object]] = {i: {} for i in range(n)}
    bpows: dict[int, LaurentSeries] = {}

    def b_power(k: int) -> LaurentSeries:
        if k not in bpows:
            bpows[k] = b ** k
        return bpows[k]

    while cur.val is not None:
        v = cur.val
        i = v % n
        k = (v - i) // n
        c = cur.leading_coefficient() * (lead_b.inverse() ** k if k >= 0 else lead_b ** (-k))
        found[i][k] = found[i].get(k, ring.zero) + c
        cancel = b_power(k).scale(c).shift(i)
        cur = cur - cancel
        if cur.val is not None and cur.val <= v:
            raise AssertionError("greedy strip failed to increase the valuation")
    guaranteed = cur.prec
    gs = []
    for i in range(n):
        ks = found[i]
        # x-precision: coefficient of x^k influences t^(i+n k)
        kprec = (guaranteed - i + n - 1) // n
        if ks:
            kmin = min(ks)
            kprec = max(kprec, max(ks) + 1)
            gs.append(
                LaurentSeries.make(
                    ring, kmin, [ks.get(k, ring.zero) for k in range(kmin, kprec)], kprec
                )
            )
        else:
            gs.append(LaurentSeries.zero(ring, kprec))
    return gs, guaranteed
