"""Gauss sums, epsilon factors, lambda factors, and for a totally ramified
extension its Swan bookkeeping and the square class of its discriminant.

Everything is exact: values are cyclotomic numbers, scalars are Fractions.
The quadratic Gauss sum G satisfies G^2 = kappa0(-1) * q, so
kappa0(-1)^C(k,2) G^(-k) = q^(-floor(k/2)) (kappa0(-1) G / q)^(k mod 2) and
each closed form reads G at most once; chi^{-1}(c) psi(c) is a power of chi(t)
times one root of unity (``char_value``) -- no generic cyclotomic inversion
happens in the evaluation loops, only chi(t) is ever inverted: in one product
by its complex conjugate when chi(t) times that is rational, as for a rational
times a root of unity, else down the tower of levels (``CycloNumber.inverse``).

The brute-force Tate-integral oracle sums chi^{-1}(x) psi(x) over valuation
shells with the Haar measure normalized by vol(O) = 1.  Within one shell of
valuation v the integrand is constant on cosets of 1 + m^A once A is at
least max(a(chi), -ord(psi) - v), so the shell sum at that depth is exact,
and every shell except v0 = -a - d must vanish; the oracle asserts this.
Of u = u0 * prod_{0<j<A} (1 + x_j t^j) only the q^h digit tuples below
h = ceil(A/2) are walked (the coset cap bounds q^h); each top digit k is
summed out by orthogonality, as chi is additive on U^k for 2k >= a and psi
is trivial on the cross terms, which land at t^(>= v+A).  The sum over top
digit k is 0 unless a linear form in the additive digits c_0 ... c_(A-1-k)
of u vanishes; those digits are final from level A - k of the walk on, so
form k is tested there and cuts every prefix it rejects.  A shell where no
coset survives is returned as 0, with no cyclotomic reduction; otherwise
its leaves and its scale chi(t)^(-v) q^(-v-h) make one cyclotomic build
when chi(t) is a monomial (``power_times``).  The wild exponent is v [a, t)
plus the pairings [a, 1 + x t^j), tabulated once per call from the log
series of 1 + x t^j against w_m(a): integer dot products of the powers
x~^k, which the Witt coefficient ring keeps for every character over it,
with the trace forms of the coefficients of w_m(a).  The tame exponent
reads dlog u0 and the psi exponent the additive digits of u.  The oracle
shares no formula with the closed forms, only chi.level() and the memoized
pairing series.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .characters import (
    AdditiveCharacter,
    QuasiCharacter,
    char_eval,
    char_eval_exponents,
    char_value,
    conductor,
    gauge,
    hilbert_symbol,
    psi_eval_exponent,
)
from .cyclo import CycloNumber, power_times
from .errors import (
    CapExceeded,
    InseparableInput,
    TameInput,
    UnramifiedInput,
    VerificationFailure,
    WildInput,
    ZeroInput,
)
from .series import LaurentSeries
from .witt import WittVector, pairing_window, witt_differential

DEFAULT_COSET_CAP = 300_000


# -- Gauss sums ---------------------------------------------------------------

def gauss_sum(field, j: int) -> CycloNumber:
    """tau(chi_j, psi_k) = -sum_{x in k^x} chi_j^{-1}(x) psi_k(x), where
    chi_j(x) = zeta_{q-1}^(j * dlog x) and psi_k = psi_0 o Tr."""
    q, p, traces = field.q, field.p, field.traces
    j = j % (q - 1)
    terms = ((((-j * field.log[i]) % (q - 1)) * p + traces[i] * (q - 1), 1) for i in range(1, q))
    return -CycloNumber.from_monomials((q - 1) * p, terms)


@lru_cache(maxsize=None)
def quad_gauss(field) -> CycloNumber:
    """G = sum_{x in k} psi_k(x^2), once per interned field: 0 and the
    squares g^(2k) of the powers of the generator."""
    q, traces, exp = field.q, field.traces, field.exp
    terms = [(0, 1)] + [(traces[exp[2 * k % (q - 1)]], 1) for k in range(q - 1)]
    return CycloNumber.from_monomials(field.p, terms)


# -- epsilon factors (closed forms) --------------------------------------------

class EpsilonResult(namedtuple("EpsilonResult", "value branch c")):
    """A nonzero epsilon value, the closed-form branch that produced it and,
    on the wild branch, the stationary scale c it read."""

    __slots__ = ()

    def __new__(cls, value: CycloNumber, branch: str, c: LaurentSeries | None = None):
        assert not value.is_zero()
        return super().__new__(cls, value, branch, c)


def epsilon0_tame(chi: QuasiCharacter, psi: AdditiveCharacter) -> EpsilonResult:
    """eps0 = -chi(beta) * q^ord(psi) * tau(chi_k, psi_k) for a(chi) <= 1."""
    a, _sw = conductor(chi)
    if a > 1:
        raise WildInput(f"a(chi) = {a} > 1")
    field = chi.field
    beta = gauge(psi)
    value = -(char_eval(chi, beta) * gauss_sum(field, chi.tame_exponent))
    d = psi.ord
    if d:
        value = value * Fraction(field.q) ** d
    return EpsilonResult(value, "tame" if a == 1 else "unramified")


def epsilon0_wild(chi: QuasiCharacter, psi: AdditiveCharacter,
                  c_override: LaurentSeries | None = None) -> EpsilonResult:
    """a(chi) >= 2 closed form.

    value = chi^{-1}(c) psi(c) q^{-ord(c)} kappa0(-1)^C(n+1,2) G^{-n-1},
    times the Hilbert symbol (-2 beta c, t)_K when n = sw(chi) is even.  By
    G^2 = kappa0(-1) q the Gauss factor is q^(-(n+2)//2), times kappa0(-1) G if n is even.
    c (unless ``c_override``) is the stationary-phase scale -alpha/g with
    omega = g dt: chi(1+x+x^2/2) = psi(c x) on m^r, r = ceil(n/2).  The value
    depends only on the coset c(1 + m^(n-r+1)), which the returned ``c``, cut
    to length r+1, fixes.  For even n, -2 beta c has even order -n, so the
    symbol does not depend on the uniformizer t.

    As chi(c) and psi(c) = psi_k(res(c omega)) read c only mod 1 + m^a
    (Tate), c is taken at relative length a = n+1: alpha mod t^0, from the
    layer cut by ``pairing_window``, over g cut to length a.
    """
    field = chi.field
    _a, n = conductor(chi)
    if n < 1:
        raise TameInput("the wild part reduces to an unramified class")
    c = c_override
    if c is None:
        red = chi.reduced_wild()
        alpha = witt_differential(WittVector(red.m, pairing_window(red.entries, field.p)))
        c = -(alpha * psi.omega.truncate(psi.ord + n + 1).inverse())
    v, e = char_eval_exponents(chi, c)
    value = char_value(chi, -v, psi_eval_exponent(psi, c) * (chi.level() // field.p) - e)
    value = value * Fraction(field.q) ** (-c.valuation() - (n + 2) // 2)
    branch = "wild-odd"
    if n % 2 == 0:
        branch = "wild-even"
        lead = field.from_int(-2) * psi.omega.leading_coefficient() * c.leading_coefficient()
        k = psi.ord + 1 + c.valuation()  # the leading term of -2 beta c, all the symbol reads
        value = value * (quad_gauss(field) * field.kappa0(-field.one) * hilbert_symbol(
            LaurentSeries.monomial(field, lead, k, k + 1), LaurentSeries.t_power(field, 1, 2)))
    return EpsilonResult(value, branch, c=c.truncate(c.valuation() + (n + 1) // 2 + 1))


def epsilon0(chi: QuasiCharacter, psi: AdditiveCharacter) -> EpsilonResult:
    """Dispatch on the conductor: tame/unramified closed form or wild one."""
    a, _ = conductor(chi)
    return epsilon0_tame(chi, psi) if a <= 1 else epsilon0_wild(chi, psi)


# -- brute-force Tate oracle -----------------------------------------------------

def _unit_pairings(chi, depth):
    """(pair_t, P) with pair_t = [a, t) and P[j][x] = [a, 1 + x t^j) for
    1 <= j < depth, a the reduced wild part; every entry is 0 for a tame chi.

    With w = w_m(a~), dlog(1 + x t^j) = sum_{k>=1} (-1)^(k-1) j x^k t^(jk-1)
    needs no division, so [a, 1 + x t^j) = -Tr(sum_{jk <= -ord w} (-1)^(k-1)
    j x~^k w_{-jk}) and [a, t) = -Tr(w_0).  The powers x~^k come from the
    table kept on the Witt coefficient ring, and each trace is an integer
    dot product with the trace form of w_{-jk}, so one row of P is one dot
    product per x.
    """
    field = chi.field
    pairing = chi.pairing_series()
    if pairing is None:
        return 0, [None] + [[0] * field.q] * (depth - 1)
    R, w = pairing
    M = R.modulus_int
    kmax = -w.ord_lower_bound()  # w_{-jk} = 0 once jk > kmax
    powers = R.lift_powers(kmax)
    forms = [R.trace_form(w.coefficient(-n)) for n in range(kmax + 1)]
    P = [None]
    for j in range(1, depth):
        signed = [(-1) ** k * j * t for k in range(1, kmax // j + 1) for t in forms[j * k]]
        P.append([sum(map(mul, row, signed)) % M for row in powers])
    return (-R.trace(w.coefficient(0))) % M, P


def _shell_sum(chi, psi, v, depth, unit_pairings):
    """Exact integral of chi^{-1} psi over the shell ord = v, as a coset sum
    at depth A (each coset has measure q^(-v-A)).  The walk covers the q^h
    cosets u' = u0 * prod_{0<j<h} (1 + x_j t^j), h = ceil(A/2), keeping the
    digits c of u' mod t^A.  A top digit k >= h enters additively (chi is
    additive on U^k as 2k >= A >= a; cross terms land at t^(>= v+A), where
    psi is trivial), so its sum is q if the form b -> [a, 1 + b t^k) +
    sum_i T[i][b c_(i-k)] vanishes on the basis b = p^i, else 0.  Form k
    reads only the digits c_0 ... c_(A-1-k), and multiplying by 1 + x t^j
    changes only the digits from j on, so form k is final, and tested, at
    level A - k: a prefix is cut at the first form that does not vanish.  A
    shell where no coset survives is 0, returned without a reduction.
    """
    field = chi.field
    q, p, exp, log = field.q, field.p, field.exp, field.log
    level = chi.level()
    # all exponents are of zeta_level: zeta_{q-1} = zeta_level^mod, zeta_mod = zeta_level^(q-1),
    # zeta_p = zeta_level^lp
    mod, lp = level // (q - 1), level // p
    pair_t, P = unit_pairings
    # T[k][i]: psi exponent (in Z/p) of the digit i at t^(v+k)
    T = [psi.digit_traces(-1 - v - k) for k in range(depth)]

    def mul(a, b):
        return exp[(log[a] + log[b]) % (q - 1)] if a and b else 0

    half, basis, hist = (depth + 1) // 2, [p ** i for i in range(field.f)], {}

    def walk(j, c, s):
        k = depth - j
        if k >= half and any(
                ((q - 1) * P[k][b] + lp * sum(T[i][mul(b, c[i - k])] for i in range(k, depth)))
                % level for b in basis):
            return
        if j == half:
            hist[s] = hist.get(s, 0) + 1
            return
        for x in range(q):
            moved = [mul(x, ci) for ci in c[:depth - j]]  # onto the digits j, j+1, ...
            step = (q - 1) * P[j][x] + lp * sum(T[j + i][dk] for i, dk in enumerate(moved))
            digits = c[:j] + [field.add_idx(ck, dk) for ck, dk in zip(c[j:], moved)]
            walk(j + 1, digits, (s + step) % level)

    for u0 in range(1, q):
        s = ((-chi.tame_exponent * log[u0]) % (q - 1) * mod + lp * T[0][u0]
             + v * pair_t * (q - 1)) % level
        walk(1, [u0] + [0] * (depth - 1), s)

    if not hist:  # no coset survives the forms
        return CycloNumber.zero(level)
    # chi(t)^(-v) times the leaves, each of which weighs q^(A-h) cosets
    return power_times(chi.uniformizer_value, -v, level, hist.items(), Fraction(q) ** (-(v + half)))


def epsilon_tate_oracle(chi: QuasiCharacter, psi: AdditiveCharacter,
                        coset_cap: int = DEFAULT_COSET_CAP) -> CycloNumber:
    """eps(chi, psi) summed from the definition, shell by shell.

    Every shell in the window [v0-2, -d+2] (v0 = -a-d) is computed as an
    exact Riemann sum and asserted to vanish unless v = v0.  A shell of depth
    A sums over q^h cosets, h = ceil(A/2), as chi is additive on U^j for
    2j >= a and psi trivial on the cross terms at t^(>= v+A); the walk cuts
    a prefix at the first top-digit form that does not vanish, so it visits
    few of them.  ``coset_cap`` bounds q^h: past it a guard shell is skipped
    and the defining shell v0 raises CapExceeded.
    """
    a, _sw = conductor(chi)
    if a == 0:
        raise UnramifiedInput("the Tate integral oracle needs a ramified character")
    field = chi.field
    d = psi.ord
    v0 = -a - d
    shells = []
    for v in range(v0 - 2, -d + 3):
        depth = max(a, -d - v, 1)
        half = (depth + 1) // 2
        if field.q ** half <= coset_cap:
            shells.append((v, depth))
        elif v == v0:  # a guard shell over the cap is left out
            raise CapExceeded(f"q^{half} = {field.q ** half} cosets exceed the cap {coset_cap}")
    unit_pairings = _unit_pairings(chi, max(depth for _, depth in shells))
    result = None
    for v, depth in shells:
        s = _shell_sum(chi, psi, v, depth, unit_pairings)
        if v == v0:
            result = s
        elif not s.is_zero():
            raise VerificationFailure(
                "Tate shell sum does not vanish off the conductor valuation",
                detail={"v": v, "v0": v0, "a": a, "d": d},
            )
    assert result is not None
    return result


# -- totally ramified extensions --------------------------------------------------

class TotallyRamifiedExt:
    """L/K totally ramified of degree n, presented by the image b of the
    base uniformizer x in L = k((t)); ord(b) = n.  The one covering object,
    which ``lft.lft_descriptor`` builds from the b' of its stationary datum."""

    __slots__ = ("b", "degree", "db")

    def __init__(self, b: LaurentSeries):
        if b.is_zero() or b.valuation() < 1:
            raise ZeroInput("b must have valuation >= 1")
        self.b = b
        self.degree = b.valuation()
        self.db = b.derivative()
        if self.db.is_zero():
            raise InseparableInput("db/dt = 0: inseparable presentation")

    @classmethod
    def from_derivative(cls, b: LaurentSeries, db: LaurentSeries) -> "TotallyRamifiedExt":
        """L/K presented by b with db = b' in hand, ord(b) >= 1 and db != 0."""
        ext = cls.__new__(cls)
        ext.b, ext.degree, ext.db = b, b.valuation(), db
        return ext

    @classmethod
    def from_inverse(cls, s: LaurentSeries, ds: LaurentSeries) -> "TotallyRamifiedExt":
        """L/K presented by 1/s, ord(s) <= -1, from s and ds = s' != 0.
        lambda_factor, discriminant_class and induced_swan read only n,
        ord(b'), lc(b) and lc(b'), so 1/s and (1/s)' = -s'/s^2 are kept as
        their leading monomials, which is exact and inverts no series."""
        field, v, lead = s.ring, s.valuation(), s.leading_coefficient().inverse()
        w = ds.valuation() - 2 * v
        return cls.from_derivative(
            LaurentSeries.monomial(field, lead, -v, 1 - v),
            LaurentSeries.monomial(field, -(ds.leading_coefficient() * lead * lead), w, w + 1))

    @property
    def field(self):
        return self.b.ring

    @property
    def different_ord(self) -> int:
        """m = ord_L of the different = ord(db/dt)."""
        return self.db.valuation()

    def __repr__(self):
        return f"TotallyRamifiedExt(n={self.degree}, q={self.field.q})"


def lambda_factor(ext: TotallyRamifiedExt) -> EpsilonResult:
    """lambda(L/K, psi_dx) = kappa0(-1)^C(m+1,2) G^{-m} ((2b', t)_L if m odd),
    whose Gauss factor is q^(-ceil(m/2)) G^(m mod 2), as G^2 = kappa0(-1) q."""
    field, db, m = ext.field, ext.db, ext.different_ord
    value = CycloNumber.from_rational(1, Fraction(field.q) ** -((m + 1) // 2))
    branch = "lambda-even"
    if m % 2:
        branch = "lambda-odd"
        t = LaurentSeries.t_power(field, 1, 4)
        value = value * (quad_gauss(field) * hilbert_symbol(db.scale(field.from_int(2)), t))
    return EpsilonResult(value, branch)


# -- discriminants -----------------------------------------------------------------

def discriminant_class(ext: TotallyRamifiedExt) -> LaurentSeries:
    """The square class of d_{L/K} = (-1)^C(n,2) N_{L/K}(alpha), alpha = t^n b'/b,
    in K^x / K^x^2, read off leading terms.

    With b_n = lc(b) and m = ord(b') = ord(alpha), Weierstrass preparation of
    b(T) - x gives N(t) = (-1)^(n+1) x / b_n times a 1-unit; N of a 1-unit of L
    is a 1-unit of K, a square as p is odd.  So d has the class of

        (-1)^C(n,2) * alpha_0^n * ((-1)^(n+1) / b_n)^m * x^m,

    alpha_0 = lc(b') / b_n.  Returned as the monomial x^m with that leading
    coefficient, all that ``hilbert_symbol`` and ``kummer_char`` read; its
    caller ``lft.transform_determinant`` reads delta_{L'/K'} off it.
    """
    n, db, m = ext.degree, ext.db, ext.different_ord
    b_n = ext.b.leading_coefficient()
    norm_t = b_n.inverse() if n % 2 else -b_n.inverse()  # N(t) / x mod squares
    lead = (db.leading_coefficient() * b_n.inverse()) ** n * norm_t ** m
    if (n * (n - 1) // 2) % 2:
        lead = -lead
    return LaurentSeries.monomial(ext.field, lead, m, m + 1)


def induced_swan(ext: TotallyRamifiedExt, chi_L: QuasiCharacter) -> int:
    """sw_K(Ind chi) for the totally ramified ext: m + a_L(chi) - n when chi
    is ramified; the unramified-chi case picks up the invariant line, as if
    a_L(chi) were 1."""
    return ext.different_ord + max(conductor(chi_L)[0], 1) - ext.degree
