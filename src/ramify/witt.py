"""Witt vectors of finite length over Laurent-series fields of odd characteristic.

The group law is evaluated through the universal addition polynomials,
derived once per (p, length) and process by the ghost recursion in exact
integer arithmetic (each step asserts exact divisibility by p^n), then
applied mod p.  The powers S_i^(p^(n-i)) the recursion needs are expanded
as trinomials, S_i = X_i + Y_i + g_i with g_i free of X_i and Y_i, so only
powers of the short g_i are ever multiplied out.

Also here: the weighted-valuation filtration (entry i of a length-(m+1)
vector carries weight p^(m-i)), the derivation-after-Frobenius map
witt_differential(a) = sum_i a_i^(p^(m-i)-1) a_i' (the coefficient of dt), reduction of a
vector modulo the image of F-1 by greedy leading-term stripping, and the
depth/leading-coefficient invariants read off a reduced vector.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import (
    CapExceeded,
    LengthMismatch,
    NotReduced,
    PrecisionExhausted,
    TameInput,
    ZeroVector,
)
from .series import LaurentSeries

LENGTH_CAP = 3  # vectors of length m+1 <= 3; the tables grow fast with the length
_REDUCE_ITER_CAP = 4000


# -- universal polynomial tables ------------------------------------------------


# A polynomial is a dict from exponent tuple to nonzero int coefficient; the
# tuple lists the exponents of X_0..X_{L-1} and then of Y_0..Y_{L-1}.


def _poly_add(acc, a, scale=1):
    for e, c in a.items():
        c = acc.get(e, 0) + scale * c
        if c:
            acc[e] = c
        else:
            acc.pop(e, None)


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple([u + v for u, v in zip(ea, eb)])
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _trinomial_pow(g, i, length, k):
    """(X_i + Y_i + g)^k for g free of X_i and Y_i: the sum over
    a + b + c = k of k!/(a! b! c!) X_i^a Y_i^b g^c.  The exponents of
    distinct (a, b) never meet, so each term is written once."""
    out = {}
    g_pow = {(0,) * (2 * length): 1}
    for c in range(k + 1):
        if c:
            g_pow = _poly_mul(g_pow, g)
            if not g_pow:  # g = 0: the binomial case
                break
        for a in range(k - c + 1):
            coef = comb(k, c) * comb(k - c, a)
            for e, v in g_pow.items():
                e = list(e)
                e[i], e[length + i] = a, k - c - a
                out[tuple(e)] = coef * v
    return out


def _build_tables(p: int, length: int):
    """Universal addition polynomials by the ghost recursion, in exact
    integer arithmetic:
        p^n S_n = sum_{i<=n} p^i (X_i^(p^(n-i)) + Y_i^(p^(n-i)))
                  - sum_{i<n} p^i S_i^(p^(n-i))."""

    def monomial(pos, k):
        e = [0] * (2 * length)
        e[pos] = k
        return {tuple(e): 1}

    def term_list(poly, n):
        # (coefficient, X_0..X_n exponents, Y_0..Y_n exponents), sorted
        # lex-descending on the exponents as one tuple
        terms = [(c, e[: n + 1], e[length: length + n + 1]) for e, c in poly.items()]
        terms.sort(key=lambda t: t[1] + t[2], reverse=True)
        return terms

    tables, gs = [], []  # gs[n] = S_n - X_n - Y_n
    for n in range(length):
        acc = {}
        for i in range(n + 1):
            _poly_add(acc, monomial(i, p ** (n - i)), p**i)
            _poly_add(acc, monomial(length + i, p ** (n - i)), p**i)
        for i, g in enumerate(gs):
            _poly_add(acc, _trinomial_pow(g, i, length, p ** (n - i)), -p**i)
        if any(c % p**n for c in acc.values()):
            raise AssertionError("non-integer coefficient in universal polynomial")
        s = {e: c // p**n for e, c in acc.items()}
        tables.append(term_list(s, n))
        _poly_add(s, monomial(n, 1), -1)
        _poly_add(s, monomial(length + n, 1), -1)
        gs.append(s)
    return tables


class UniversalWittTable:
    """The universal addition polynomials S_0..S_{length-1} for one p."""

    def __init__(self, p: int, length: int, sum_terms):
        self.p = p
        self.length = length
        self._sum = sum_terms

    @classmethod
    @lru_cache(maxsize=None)
    def get(cls, p: int, length: int, /) -> "UniversalWittTable":
        """The interned table of one (p, length), derived on first use."""
        return cls(p, length, _build_tables(p, length))

    def sum_terms(self, i: int):
        return self._sum[i]

    def eval_sum(self, i: int, xs, ys) -> LaurentSeries:
        return _eval_terms(self._sum[i], xs, ys)


def _eval_terms(terms, xs, ys) -> LaurentSeries:
    ring = xs[0].ring
    pow_cache: dict = {}

    def cached_pow(tag, idx, s, e):
        key = (tag, idx, e)
        if key not in pow_cache:
            pow_cache[key] = s**e
        return pow_cache[key]

    acc = None
    for c, ex, ey in terms:
        cm = ring.from_int(c)
        if cm.is_zero():
            continue
        prod = None
        for idx, e in enumerate(ex):
            if e:
                f = cached_pow("x", idx, xs[idx], e)
                prod = f if prod is None else prod * f
        for idx, e in enumerate(ey):
            if e:
                f = cached_pow("y", idx, ys[idx], e)
                prod = f if prod is None else prod * f
        assert prod is not None, "constant monomial in universal polynomial"
        term = prod.scale(cm)
        acc = term if acc is None else acc + term
    if acc is None:
        prec = min(s.prec for s in list(xs) + list(ys))
        return LaurentSeries.zero(ring, prec)
    return acc


# -- Witt vectors ---------------------------------------------------------------


class WittVector:
    __slots__ = ("m", "entries")

    def __init__(self, m: int, entries):
        entries = tuple(entries)
        if m < 0:
            raise LengthMismatch(f"Witt length m must be >= 0, got {m}")
        if m + 1 > LENGTH_CAP:
            raise CapExceeded(f"length {m + 1} exceeds cap {LENGTH_CAP}")
        if len(entries) != m + 1:
            raise LengthMismatch(f"need {m + 1} entries, got {len(entries)}")
        ring = entries[0].ring
        for e in entries:
            if e.ring is not ring:
                raise LengthMismatch("entries over different coefficient rings")
        self.m = m
        self.entries = entries

    @property
    def ring(self):
        return self.entries[0].ring

    @staticmethod
    def zero(ring, m: int, prec: int) -> "WittVector":
        return WittVector(m, [LaurentSeries.zero(ring, prec) for _ in range(m + 1)])

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return self.m == other.m and all(
            a == b for a, b in zip(self.entries, other.entries)
        )

    def __hash__(self):
        raise TypeError("WittVector equality is precision-relative; not hashable")

    def __repr__(self):
        return f"W({', '.join(repr(e) for e in self.entries)})"


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    if a.m != b.m:
        raise LengthMismatch(f"length {a.m + 1} vs {b.m + 1}")
    if a.ring is not b.ring:
        raise LengthMismatch("vectors over different coefficient rings")
    if a.m == 0:
        return WittVector(0, (a.entries[0] + b.entries[0],))
    table = UniversalWittTable.get(a.ring.p, a.m + 1)
    out = [
        table.eval_sum(i, a.entries[: i + 1], b.entries[: i + 1])
        for i in range(a.m + 1)
    ]
    return WittVector(a.m, out)


def witt_neg(a: WittVector) -> WittVector:
    # valid entry-wise because p is odd
    return WittVector(a.m, [-e for e in a.entries])


def witt_sub(a: WittVector, b: WittVector) -> WittVector:
    return witt_add(a, witt_neg(b))


def frobenius_series(s: LaurentSeries) -> LaurentSeries:
    """Exact p-th power of a series over a char-p field: t^e c -> t^(pe) c^p.

    Knowledge improves: (s + tail)^p = s^p + tail^p, so prec becomes p * prec.
    """
    p = s.ring.p
    if s.val is None:
        return LaurentSeries.zero(s.ring, p * s.prec)
    return LaurentSeries.from_terms(
        s.ring, {p * e: c.frobenius() for e, c in s.terms()}, p * s.prec
    )


def frobenius(a: WittVector) -> WittVector:
    return WittVector(a.m, [frobenius_series(e) for e in a.entries])


def verschiebung(a: WittVector) -> WittVector:
    prec = max(e.prec for e in a.entries)
    return WittVector(a.m + 1, (LaurentSeries.zero(a.ring, prec),) + a.entries)


def verschiebung_power(x: LaurentSeries, m: int) -> WittVector:
    """V^m applied to a length-1 vector: (0, ..., 0, x) of length m+1."""
    zeros = [LaurentSeries.zero(x.ring, x.prec) for _ in range(m)]
    return WittVector(m, zeros + [x])


# -- filtration ----------------------------------------------------------------


def _level_candidates(a: WittVector):
    """Per-entry weighted depth -p^(m-i) ord(a_i); None for zero entries."""
    p, m = a.ring.p, a.m
    cands = []
    for i, e in enumerate(a.entries):
        w = p ** (m - i)
        cands.append(None if e.val is None else -w * e.val)
    return cands


def fil_level(a: WittVector) -> int:
    """Smallest n with p^(m-i) ord(a_i) >= -n for all i, floored at 0."""
    p, m = a.ring.p, a.m
    cands = _level_candidates(a)
    live = [c for c in cands if c is not None]
    if not live:
        raise ZeroVector("filtration level of the zero vector")
    best = max(live)
    for i, c in enumerate(cands):
        if c is None:
            bound = -(p ** (m - i)) * a.entries[i].prec
            if bound > max(best, 0):
                raise PrecisionExhausted(
                    f"entry {i} is 0 mod t^{a.entries[i].prec}; level not certified"
                )
    return max(best, 0)


def in_fil(a: WittVector, n: int) -> bool:
    """Certified membership test: p^(m-i) ord(a_i) >= -n for all i."""
    p, m = a.ring.p, a.m
    for i, e in enumerate(a.entries):
        w = p ** (m - i)
        # p^(m-i) ord(a_i) >= -n  <=>  ord(a_i) >= ceil(-n / w)
        if not e.has_ord_at_least(_ceil_div(-n, w)):
            return False
    return True


def _ceil_div(x: int, y: int) -> int:
    return -((-x) // y)


def pairing_window(entries, p: int, prec: int = 0):
    """Entries of a length-(m+1) vector, or their lifts, cut to what
    witt_differential mod t^prec reads, and at prec 0 what w_m mod t^1 reads:
    entry j at t^max(ceil((prec+1)/N), prec + 1 - (N-1) v), N = p^(m-j), v its
    valuation, as (t^v U)^N reads U only mod t^(1 - N v). Only ever cut, so
    a window that is too short still raises."""
    m = len(entries) - 1
    return [e.truncate(max(_ceil_div(prec + 1, p ** (m - j)),
                           prec + 1 - (p ** (m - j) - 1) * e.ord_lower_bound()))
            for j, e in enumerate(entries)]


def sum_window(level: int, n: int, p: int, m: int):
    """The windows to which entries 0..m of the summands of a Witt sum or
    difference of vectors in fil_n must be known for in_fil(sum, level):
    entry j to t^max_{i>=j} (ceil(-level/p^(m-i)) + floor(n (p^i-p^j)/p^m)).
    in_fil reads entry i of the sum to t^ceil(-level/p^(m-i)), and S_i is
    isobaric of weight p^i, so the other factors of a monomial of S_i that
    holds entry j have order >= -n (p^i - p^j)/p^m. A sum of such sums
    needs no more. At level <= n no window is below fil_n's bound on its
    entry, so summands cut to these windows stay in fil_n."""
    return [max(_ceil_div(-level, p ** (m - i)) + n * (p**i - p**j) // p**m
                for i in range(j, m + 1)) for j in range(m + 1)]


def witt_differential(a: WittVector) -> LaurentSeries:
    """The coefficient of dt in sum_i a_i^(p^(m-i)-1) d a_i."""
    p, m = a.ring.p, a.m
    terms = []
    caps = []
    for i, e in enumerate(a.entries):
        j = m - i
        if e.val is None:
            caps.append(p**j * e.prec - 1)
            continue
        if j == 0:
            terms.append(e.derivative())
        else:
            terms.append(e ** (p**j - 1) * e.derivative())
    if not terms:
        prec = min(caps)
        return LaurentSeries.zero(a.ring, prec)
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    if caps:
        acc = acc.truncate(min(min(caps), acc.prec))
    return acc


# -- dilations --------------------------------------------------------------------


def dilate(a: WittVector, r: int, theta) -> WittVector:
    """Apply t -> t (1 + theta t^r) to every entry."""
    from .series import substitute_dilated

    return WittVector(
        a.m, [substitute_dilated(e, r, theta) for e in a.entries]
    )


def dilation_defect_sum(alpha: LaurentSeries, r: int, theta) -> LaurentSeries:
    """sum_{i=1}^{p-1} (t^i alpha^(i-1) / i!) (t^r theta)^i."""
    ring = alpha.ring
    p = ring.p
    acc = None
    fact = 1
    for i in range(1, p):
        fact *= i
        coef = ring.from_int(fact).inverse() * theta**i
        term = alpha.iterated_derivative(i - 1).shift(i).scale(coef).shift(r * i)
        acc = term if acc is None else acc + term
    return acc


# -- lifts and ghost components --------------------------------------------------


def lift_entries(a: WittVector, R):
    """Coefficient-wise representative lift of every entry into series over R."""
    from .series import map_coefficients

    return [map_coefficients(e, R.lift, R) for e in a.entries]


def ghost_components(lifted, R, p: int):
    """ghost_j = sum_{i<=j} p^i x_i^(p^(j-i)) over the lift ring R.  Each
    ghost's powers are the p-th powers of the last one's, so all of them
    take the products the top one alone would."""
    out, powers = [], []
    for x in lifted:
        powers = [y**p for y in powers] + [x]
        acc = powers[0]
        for i in range(1, len(powers)):
            acc = acc + powers[i].scale(R.from_int(p**i))
        out.append(acc)
    return out


# -- reduction and conductors -----------------------------------------------------


def _offenders(a: WittVector):
    """Indices achieving a positive level whose depth is a multiple of p."""
    p = a.ring.p
    cands = _level_candidates(a)
    live = [c for c in cands if c is not None]
    level = max(live) if live else 0
    if level <= 0:
        return []
    hits = []
    for i, c in enumerate(cands):
        if c == level and a.entries[i].val % p == 0:
            hits.append(i)
    return hits


def reduce_vector(a: WittVector) -> WittVector:
    """Strip F(y) - y terms until the top filtration level is not removable.

    Returns the reduced vector, a - (F(y) - y) for some y.  Largest offending
    index first; each step cancels the offending leading term exactly and
    only perturbs entries at larger indices, at or below the current level.
    """
    ring, m = a.ring, a.m
    p = ring.p
    # each mu is exact: the widest window, as a narrower one would cut cur
    window = max(e.prec for e in a.entries)
    cur = a
    for _ in range(_REDUCE_ITER_CAP):
        hits = _offenders(cur)
        if not hits:
            return cur
        i = max(hits)
        e = cur.entries[i]
        mu = LaurentSeries.monomial(
            ring, e.leading_coefficient().pth_root(), e.val // p, window
        )
        step = _supported_at(mu, i, m)
        cur = witt_sub(cur, witt_sub(frobenius(step), step))
    raise AssertionError("reduction did not terminate within the iteration cap")


def _supported_at(x: LaurentSeries, i: int, m: int) -> WittVector:
    zero = lambda: LaurentSeries.zero(x.ring, x.prec)
    return WittVector(m, [zero() for _ in range(i)] + [x] + [zero() for _ in range(m - i)])


def swan_conductor(a: WittVector):
    """Reduce, then read off the minimal filtration level.

    Returns (sw, reduced).
    """
    reduced = reduce_vector(a)
    if reduced.is_zero():
        return 0, reduced
    return fil_level(reduced), reduced


def refined_swan(a: WittVector):
    """Depth and leading coefficient of the reduced vector's dt-class.

    For a reduced vector of level n >= 1 this is the coefficient of
    t^(-n) dlog(t) in -witt_differential(a), an element of the residue field, nonzero by
    minimality; (n, coefficient) is returned.
    """
    n = fil_level(a)
    if n == 0:
        raise TameInput("vector is integral; no wild invariant to extract")
    hits = _offenders(a)
    if hits:
        raise NotReduced(f"entries {hits} still carry removable leading terms")
    alpha = witt_differential(a)
    coeff = -alpha.coefficient(-n - 1)
    if coeff.is_zero():
        raise NotReduced("leading coefficient vanished; vector was not reduced")
    return n, coeff
