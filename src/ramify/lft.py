"""Stationary-phase data for wild rank-1 characters: admissible triples,
their discriminant, local Fourier transform descriptors, dilation
congruences, vanishing-cycle supports, and the determinant identity that
ties the direct image of a character to its local epsilon factor.

An *admissible triple* (a, b, c) consists of a Witt vector a over k((t))
(the wild layer of a character, written additively), a nonzero series b
(the pullback of the base coordinate along a map to the base trait), and a
nonzero series c (a stationary scale).  Write alpha for the form
coefficient of a (so F^m d a = alpha dt), n = -ord(t alpha), and
nu(s) = ord(t s'/s).  The triple must satisfy

  1. a lies in the depth-n filtration step (n is then exactly its depth),
  2. 2 ord(alpha + c b') >= -n + nu(c)   (c is stationary to half depth),
  3. 2 nu(b) + p nu(c) < (p - 2) n        (room for the quadratic term).

These force n >= 1, ord(t b' c) = -n and n - nu(c) >= 1; the tuple
(n, nu(b), nu(c)) is the conductor of the triple.  The constructor of
`LegendreTriple` is the admissibility test: it raises NotLegendre with the
first violated condition.  The discriminant gamma(a, b, c) is the
residue-field unit

  gamma = (1/2) * (t^(n+1) alpha) * (t^(1-nu(c)) c'/c)  mod t,

the leading coefficient of the quadratic term of the phase.  Everything
downstream of gamma -- parity of n - nu(c), square classes, the rank and
target of the local Fourier transform, the determinant identity -- is
computed from the conductor and gamma by exact arithmetic.  The square
classes and the transform's Kummer twist read -c'/(2b') at leading order
only, as the monomial ``LegendreTriple.twist_class``.

The (a, b) half of the data -- alpha, n, b', nu(b) and the full-window
scale -alpha/b' -- is derived once, by `stationary_data`, the only code
that raises for a defect of the pair: ZeroInput when a or b is zero,
PrecisionExhausted when alpha is 0 to precision, InseparableB when b' = 0.
The covering L/K is one `epsilon.TotallyRamifiedExt`, built by
`lft_descriptor` from that b'; one presented by an inverse 1/s (1/b at
source infinity, the transform's L'/K' by 1/c) keeps only the leading terms
of 1/s and (1/s)', which is exact for lambda, delta and Swan: they read only
the degree, the different and those two leading coefficients.

A character is a class of wild layers modulo (F - 1)W: `lft_descriptor`
and `verify_laumon` read it through `QuasiCharacter.reduced_wild`, as the
conductor and the epsilon factor do; the functions that take a layer read
it as given.

Dilation congruences (`congruence_check`) test the effect of the
substitution t -> t (1 + theta t^r) on a and on the combined phase
a + V^m(c b) inside W(F_{q^s}((t))), at `theta_samples` values of theta
sampled from a splitting field F_{q^s}; a report shows the congruence at
those sampled points only.  The samples read each operand only as far as
`witt.sum_window` and `witt.pairing_window` say.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

# characters, cyclo, epsilon and fractions are imported by the functions that
# use them, so that the integer and series bookkeeping loads without them
from .errors import (
    CapExceeded,
    DegenerateOrder,
    HypothesisViolated,
    InconsistentInput,
    InseparableB,
    NotLegendre,
    PrecisionExhausted,
    SlopeConditionViolated,
    VerificationFailure,
    WrongSourcePoint,
    ZeroInput,
)
from .series import LaurentSeries, map_coefficients, substitute_dilated
from .witt import (
    WittVector,
    _ceil_div,
    dilate,
    dilation_defect_sum,
    fil_level,
    in_fil,
    pairing_window,
    reduce_vector,
    sum_window,
    verschiebung_power,
    witt_add,
    witt_differential,
    witt_sub,
)

ORIGIN = "0"
INFINITY = "infinity"


# -- the stationary datum and admissibility ----------------------------------------


# The (a, b) half of a triple: the form coefficient alpha of a, the depth
# n = -ord(t alpha), db = b', nu(b), and the stationary scale c = -alpha/b'
# at the full working window.  Every c-dependent value is constant on the
# stationary coset of c and is evaluated at this representative.
StationaryData = namedtuple("StationaryData", "alpha n db nu_b c")

_latest = (None, None, None)  # (a, b, datum) of the latest derivation


def _nu(s: LaurentSeries, ds: LaurentSeries) -> int:
    """nu(s) = ord(t s'/s) = 1 + ord(s') - ord(s) for s nonzero and ds = s';
    when s' is 0 to precision, the certified lower bound 1 + prec(s') - ord(s)."""
    return 1 + ds.ord_lower_bound() - s.valuation()


def stationary_data(a: WittVector, b: LaurentSeries) -> StationaryData:
    """The stationary datum of the pair (a, b).

    This is the only place that raises for a defect of the pair: ZeroInput
    when a or b is zero, PrecisionExhausted when alpha is 0 to precision
    and InseparableB when db/dt = 0.  The datum of the latest pair is kept,
    so the input checks, default scale and triple that one call builds from
    the same a and b objects share a single derivation."""
    global _latest
    last_a, last_b, last = _latest
    if a is last_a and b is last_b:
        return last
    if a.is_zero():
        raise ZeroInput("wild layer is zero: no stationary scale")
    alpha = witt_differential(a)
    if alpha.is_zero():
        raise PrecisionExhausted(
            f"form coefficient is 0 mod t^{alpha.prec}; cannot normalize c"
        )
    if b.is_zero():
        raise ZeroInput("b is zero to precision")
    db = b.derivative()
    if db.is_zero():
        raise InseparableB("db/dt = 0: no stationary scale exists over b")
    data = StationaryData(alpha, -(alpha.valuation() + 1), db,
                          _nu(b, db),
                          -(alpha * db.inverse()))
    _latest = (a, b, data)
    return data


def stationary_c(a: WittVector, b: LaurentSeries) -> LaurentSeries:
    """The stationary scale c = -alpha / b', truncated to the shortest
    window that still certifies 2 ord(alpha + c b') >= -n + nu(c).

    The truncation pins the coset c (1 + m^*) that every downstream value
    depends on while keeping the reported precision honest.  Raises the
    errors of ``stationary_data``, NotLegendre when c' = 0 to precision
    leaves no room for the quadratic term, and PrecisionExhausted when nu(c)
    or the certification depth is otherwise out of the working window.
    """
    data = stationary_data(a, b)
    c = data.c
    dc = c.derivative()
    nu_c = _nu(c, dc)
    if dc.is_zero():
        if 2 * data.nu_b + b.ring.p * nu_c >= (b.ring.p - 2) * data.n:
            raise NotLegendre("c is inseparable: dc/dt = 0 to precision")
        raise PrecisionExhausted(
            f"dc/dt is 0 mod t^{dc.prec}; nu(c) cannot be certified"
        )
    window = max(_ceil_div(data.n + nu_c, 2) + 1, nu_c + 2, 2)
    if c.prec - c.valuation() < window:
        raise PrecisionExhausted(
            f"stationary scale needs a window of {window} coefficients, "
            f"only {c.prec - c.valuation()} are certified"
        )
    return c.truncate(c.valuation() + window)


class LegendreTriple:
    """An admissible triple, c defaulting to ``stationary_c(a, b)``.

    The constructor is the admissibility test: it checks the triple and
    keeps what it derived, namely the conductor, alpha, b' = ``db``,
    c' = ``dc`` and the full-window stationary scale ``c_full``, at which
    every value that needs a long window is evaluated.  Every violated
    condition, a defect of the pair (a, b) included, raises NotLegendre
    with the first one.  PrecisionExhausted is raised only for genuine
    precision starvation.  A triple is immutable."""

    __slots__ = ("a", "b", "c", "n", "nu_b", "nu_c", "alpha", "db", "dc", "c_full")

    def __init__(self, a: WittVector, b: LaurentSeries, c: LaurentSeries | None = None):
        try:
            data = stationary_data(a, b)
        except ZeroInput:
            raise NotLegendre("wild layer is zero: no depth to anchor the triple"
                              if a.is_zero() else "b is zero to precision") from None
        except PrecisionExhausted:
            raise NotLegendre("form coefficient of the wild layer vanishes") from None
        except InseparableB:
            raise NotLegendre("b is inseparable: db/dt = 0 to precision") from None
        if c is None:
            c = stationary_c(a, b)
        n, nu_b, db = data.n, data.nu_b, data.db
        if n < 1:
            raise NotLegendre(f"depth n = {n} is not positive (tame wild layer)")
        if c.is_zero():
            raise NotLegendre("c is zero to precision")
        dc = c.derivative()
        if dc.is_zero():
            raise NotLegendre("c is inseparable: dc/dt = 0 to precision")
        nu_c = _nu(c, dc)
        if not in_fil(a, n):
            raise NotLegendre(f"wild layer exceeds its form depth: a is not inside level {n}")
        if not (data.alpha + c * db).has_ord_at_least(_ceil_div(-n + nu_c, 2)):
            raise NotLegendre("c is not stationary: 2 ord(alpha + c b') >= -n + nu(c) fails")
        p = b.ring.p
        if not 2 * nu_b + p * nu_c < (p - 2) * n:
            raise NotLegendre(f"no room for the quadratic term: "
                              f"2*{nu_b} + {p}*{nu_c} >= ({p}-2)*{n}")
        # consequences of the three conditions; failure here is a library bug
        assert 1 + db.valuation() + c.valuation() == -n
        assert n - nu_c >= 1
        assert (data.c - c).has_ord_at_least(
            c.valuation() + n - (n + 1) // 2 + 1
        ), "c is outside the stationary coset"
        for name, value in zip(self.__slots__,
                               (a, b, c, n, nu_b, nu_c, data.alpha, db, dc, data.c)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a LegendreTriple")

    @property
    def field(self):
        return self.b.ring

    @property
    def conductor(self):
        return (self.n, self.nu_b, self.nu_c)

    @property
    def parity_even(self) -> bool:
        """Parity of n - nu(c): True selects the even (Hilbert-symbol)
        branch of the square-class normalization."""
        return (self.n - self.nu_c) % 2 == 0

    @property
    def twist_class(self) -> LaurentSeries:
        """The square class of -c'/(2 b'), whose Kummer character twists the
        transform.  A square class reads only the leading monomial (1-units
        are squares, p being odd), so this is that monomial."""
        k, v = self.field, self.dc.valuation() - self.db.valuation()
        lead = self.dc.leading_coefficient() * self.db.leading_coefficient().inverse()
        return LaurentSeries.monomial(k, lead * k.from_int(-2).inverse(), v, v + 1)

    def base_change_quadratic(self) -> "LegendreTriple":
        """The image of the triple under t -> t^2; every conductor entry
        doubles, turning an odd-parity triple into an even one."""
        a2 = WittVector(
            self.a.m, [quadratic_substitute(e) for e in self.a.entries]
        )
        return LegendreTriple(
            a2, quadratic_substitute(self.b), quadratic_substitute(self.c)
        )

    def __repr__(self):
        return (
            f"LegendreTriple(n={self.n}, nu_b={self.nu_b}, "
            f"nu_c={self.nu_c}, q={self.field.q}, m={self.a.m})"
        )


def quadratic_substitute(s: LaurentSeries) -> LaurentSeries:
    """s(t^2): every exponent doubles and the window doubles with it."""
    if s.val is None:
        return LaurentSeries.zero(s.ring, 2 * s.prec)
    return LaurentSeries.from_terms(
        s.ring, {2 * e: coef for e, coef in s.terms()}, 2 * s.prec
    )


# -- discriminant and square classes -------------------------------------------------


def gamma(triple: LegendreTriple):
    """The discriminant of the triple: the residue-field unit

        gamma = (1/2) (t^(n+1) alpha) (t^(1-nu(c)) c'/c)  mod t.

    Both parenthesized series are units of exact order zero, so gamma is
    the product of their leading coefficients (times 1/2) and never
    vanishes."""
    k = triple.field
    half = k.from_int(2).inverse()
    lead_dlog = triple.dc.leading_coefficient() * triple.c.leading_coefficient().inverse()
    return half * triple.alpha.leading_coefficient() * lead_dlog


class SquareClassReport(namedtuple(
        "SquareClassReport", "parity_even argument_valuation leading_is_square")):
    """Outcome of the parity-matched square-class normalization."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.argument_valuation % 2 == 0 and self.leading_is_square


def square_class_checks(triple: LegendreTriple) -> SquareClassReport:
    """Check the square-class normalization matched to the parity of
    n - nu(c): for even parity -c' / (2 b' gamma) is a square in k((t)),
    for odd parity -t c' / (2 b' gamma) is.  A series is a square iff its
    valuation is even and its leading coefficient is a square in k (1-units
    are squares since p is odd)."""
    arg = triple.twist_class.scale(gamma(triple).inverse())
    if not triple.parity_even:
        arg = arg.shift(1)
    return SquareClassReport(
        parity_even=triple.parity_even,
        argument_valuation=arg.valuation(),
        leading_is_square=triple.field.is_square(arg.leading_coefficient()),
    )


# -- local Fourier transform descriptor ----------------------------------------------


class LFTDescriptor(namedtuple(
        "LFTDescriptor", "source target degree swan rank pushed gauss_twist triple covering")):
    """Shape of the local Fourier transform of the direct image of a
    rank-1 character along the covering presented by b.

    ``degree`` is the generic rank of the transform, equal to |ord(c)|;
    ``pushed`` is the rank-1 character datum living on the source trait
    after the transform: the original character twisted by the additive
    layer of b*c, the Kummer class of -c'/(2b'), and the constant unramified
    twist whose Frobenius value is ``gauss_twist`` (minus the quadratic
    Gauss sum); ``triple`` is the LegendreTriple it was computed with and
    ``covering`` the TotallyRamifiedExt of b (source "0") or 1/b."""

    __slots__ = ()


def lft_descriptor(chi: QuasiCharacter, b: LaurentSeries,
                   c: LaurentSeries | None = None,
                   source: str = ORIGIN) -> LFTDescriptor:
    """Descriptor of the local Fourier transform of the direct image of
    the character chi along the covering presented by b.  chi is read
    through its reduced wild layer red, so the descriptor is a function of
    the class; c is a stationary scale of (red, b), by default
    ``stationary_c(red, b)``, taken once the source point and the slope
    condition are checked.  The Kummer twist reads -c'/(2b') at leading
    order, as ``triple.twist_class``.

    ``source`` names the point of the source line the covering is centered
    at: "0" (ord(b) >= 1) or "infinity" (ord(b) <= -1).  The target and
    degree follow from the comparison of the Swan conductor of the direct
    image with its generic rank; for source "infinity" equal slope-1
    contributions are rejected with SlopeConditionViolated since the
    transform drops them.  The defects of the pair (red, b) raise the
    errors of ``stationary_data`` before the source point is checked; a
    class of Swan conductor 0 raises ZeroInput before them, as one that
    reduces to zero does.

    The second transform, of ``pushed`` from source "infinity" over the
    covering c, returns the class of chi * (t -> q) only up to an
    automorphism sigma of k((t)): its scale c2 is -b o sigma, and its pushed
    character is (chi * (t -> q)) o sigma^-1.  sigma is the identity when
    ``pushed.wild`` is reduced, so c2 = -b there."""
    from fractions import Fraction

    from .characters import QuasiCharacter, conductor, kummer_char
    from .epsilon import TotallyRamifiedExt, induced_swan, quad_gauss

    field = chi.field
    if field is not b.ring or (c is not None and field is not c.ring):
        raise InconsistentInput(
            "character and series live over different residue fields; "
            "base-change everything to one field first"
        )
    if chi.wild is None:
        raise NotLegendre("character has no wild layer")
    red = chi.reduced_wild()
    if conductor(chi)[1] == 0:  # an integral class, reduced to zero or not
        raise ZeroInput("wild layer is zero: no stationary scale")
    db = stationary_data(red, b).db
    if source not in (ORIGIN, INFINITY):
        raise InconsistentInput(f"unknown source point {source!r}")
    at_origin = source == ORIGIN
    if (b.valuation() if at_origin else -b.valuation()) < 1:
        raise WrongSourcePoint(f"source {source!r} needs ord(b) "
                               f"{'>= 1' if at_origin else '<= -1'}, got {b.valuation()}")
    ext = (TotallyRamifiedExt.from_derivative if at_origin
           else TotallyRamifiedExt.from_inverse)(b, db)
    rank = ext.degree
    swan = induced_swan(ext, chi)
    if not at_origin and swan == rank:
        # the slope-1 part is killed by the transform before any triple
        # can witness it: its stationary scale degenerates to a constant
        raise SlopeConditionViolated(
            "direct image at infinity has Swan = rank; slope-1 parts "
            "are dropped by the transform and carry no descriptor"
        )
    triple = LegendreTriple(red, b, c)
    degree = abs(triple.c.valuation())
    # the direct image has the single slope swan / rank
    target = INFINITY if at_origin or swan > rank else ORIGIN
    expected = lft_rank(source, target, swan=swan, rank=rank,
                        slopes=(Fraction(swan, rank),))
    if degree != expected:
        raise VerificationFailure(
            "transform degree disagrees between its two derivations",
            detail={"from_c": degree, "from_conductors": expected},
        )
    # the descriptor only depends on the coset of c
    kummer = kummer_char(triple.twist_class)
    gauss_twist = -quad_gauss(field)
    wild = witt_add(red, verschiebung_power(b * triple.c_full, chi.m))
    pushed = QuasiCharacter(
        field,
        (chi.tame_exponent + kummer.tame_exponent) % (field.q - 1),
        chi.uniformizer_value * kummer.uniformizer_value * gauss_twist,
        wild,
    )
    return LFTDescriptor(source, target, degree, swan, rank, pushed, gauss_twist, triple, ext)


# -- dilation congruences -------------------------------------------------------------


class CongruenceReport(namedtuple("CongruenceReport", (
        "which n r nu_b nu_c membership_level refinement_level "
        "splitting_degree samples failures"))):
    """Result of sampling one dilation congruence over a splitting field."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def congruence_check(which: str, a: WittVector,
                     b: LaurentSeries | None = None,
                     c: LaurentSeries | None = None, *,
                     r: int, theta_samples: int = 20, seed: int = 0) -> CongruenceReport:
    """Test one of three congruences for the dilation
    u: t -> t (1 + theta t^r) at ``theta_samples`` values of theta sampled
    from a splitting field F_{q^s} with q^s > 4 (p r + n); the report shows
    the congruence at those sampled points only.

    which = "key1": for a of depth n, u(a) - a lies in the level n - r
    step and agrees modulo level n - p r with

        V^m( sum_{i=1}^{p-1} (t^i alpha^{(i-1)} / i!) (t^r theta)^i ).

    which = "key6": under alpha + c b' = 0 and nu(b) + nu(c) < (p-2) r, the
    combined difference D = u(a) - a + V^m(c (u(b) - b)) lies in the level
    n - nu(c) - 2r step and agrees one level deeper with

        V^m( (1/2) t alpha (t c'/c) (t^r theta)^2 ).

    which = "key7": same conclusions as "key6" under the relaxed hypotheses
    ord(t alpha) = -n exactly and ord(alpha + c b') >= -n + nu(c) + r.

    The hypotheses are checked on the windows as given; the samples run on
    copies cut to what in_fil at the refinement level reads (the rule of
    ``witt.sum_window``), so their cost does not grow with the windows.

    A zero a raises ZeroInput, as for key6/key7 does an a of level 0 (a
    layer with no pole), before the pair (a, b) raises the errors of
    ``stationary_data``; other violated hypotheses raise
    HypothesisViolated, and windows too short to certify a membership raise
    PrecisionExhausted.  Sampled failures of the congruence itself are
    returned in the report, not raised."""
    if which not in ("key1", "key6", "key7"):
        raise InconsistentInput(f"unknown congruence id {which!r}")
    if r < 1:
        raise InconsistentInput(f"dilation order r must be >= 1, got {r}")
    if theta_samples < 1:
        raise InconsistentInput(
            f"theta_samples must be >= 1, got {theta_samples}"
        )
    k = a.ring
    p, m = k.p, a.m
    nu_b = nu_c = None
    if which == "key1":
        if a.is_zero():
            raise ZeroInput("wild layer is zero: no depth")
        n = fil_level(a)
        membership_level = n - r
        refinement_level = n - p * r
    else:
        if b is None or c is None:
            raise InconsistentInput(f"{which} needs both b and c")
        n = 0 if a.is_zero() else fil_level(a)
        if n == 0:  # a class of Swan conductor 0 has no stationary scale
            raise ZeroInput("wild layer is zero: no stationary scale")
        data = stationary_data(a, b)
        if c.is_zero():
            raise HypothesisViolated("c must be nonzero")
        dc = c.derivative()
        nu_b, nu_c = data.nu_b, _nu(c, dc)
        if not nu_b + nu_c < (p - 2) * r:
            raise HypothesisViolated(
                f"nu(b) + nu(c) {'>=' if dc.is_zero() else '='} {nu_b + nu_c} "
                f"is not < (p-2) r = {(p - 2) * r}"
            )
        if dc.is_zero():
            raise PrecisionExhausted(f"derivative is 0 mod t^{dc.prec}; nu cannot be certified")
        defect = data.alpha + c * data.db
        if which == "key6" and not defect.is_zero():
            raise HypothesisViolated(
                "alpha + c b' is nonzero within the window; the exact "
                "stationarity hypothesis fails"
            )
        if which == "key7" and data.n != n:
            raise HypothesisViolated(
                "ord(t alpha) = -n must hold exactly at the depth of a"
            )
        if which == "key7" and not defect.has_ord_at_least(-n + nu_c + r):
            raise HypothesisViolated(
                f"ord(alpha + c b') >= {-n + nu_c + r} fails"
            )
        membership_level = n - nu_c - 2 * r
        refinement_level = n - nu_c - 2 * r - 1
    s = next(e for e in itertools.count(1) if k.q ** e > 4 * (p * r + n))
    big, emb = k.extension(s)
    # The hypotheses hold on the windows as given; the theta loop runs on
    # copies cut by sum_window: the summands of diff to `win`, and each series
    # that enters through V^m (whose zero entries carry its window) to
    # win[0]. b, c and alpha keep their leading terms, so their orders stay.
    win = sum_window(refinement_level, n, p, m)
    cut = lambda x, w: map_coefficients(x.truncate(max(w, x.ord_lower_bound() + 1)), emb, big)
    a_E = WittVector(m, [map_coefficients(e.truncate(w), emb, big)
                         for e, w in zip(a.entries, win)])
    if which == "key1":  # dilation_defect_sum is known to t^(prec(alpha) + 1 + r)
        cut_a = WittVector(m, pairing_window(a.entries, p, win[0] - r - 1))
        alpha_E = map_coefficients(witt_differential(cut_a), emb, big)
    else:
        # c (u(b) - b) and alpha dlog(c) t^(2r+2) to t^win[0], where
        # ord(u(b) - b) >= ord(b) + r and dlog(c) is known to t^(prec(c) - 1 - ord(c))
        v_b, v_c, v_alpha = b.valuation(), c.valuation(), data.alpha.valuation()
        need = win[0] - 2 * r - 1
        b_E = cut(b, max(win[0] - v_c, v_b + r))
        c_E = cut(c, max(win[0] - v_b - r, need + v_c - v_alpha, v_c + nu_c + 1))
        alpha_E = cut(data.alpha, need - nu_c)
        quad_base = (alpha_E * c_E.dlog()).shift(2 * r + 2).scale(big.from_int(2).inverse())
    rng = random.Random(seed)
    failures = []
    for j in range(theta_samples):
        theta = big.from_index(rng.randrange(1, big.q))
        diff = witt_sub(dilate(a_E, r, theta), a_E)
        if which == "key1":
            claimed = dilation_defect_sum(alpha_E, r, theta)
        else:
            ub = substitute_dilated(b_E, r, theta)
            diff = witt_add(diff, verschiebung_power(c_E * (ub - b_E), m))
            claimed = quad_base.scale(theta * theta)
        if not in_fil(diff, membership_level):
            failures.append((j, "membership"))
        elif not in_fil(witt_sub(diff, verschiebung_power(claimed, m)), refinement_level):
            failures.append((j, "refinement"))
    return CongruenceReport(
        which=which,
        n=n,
        r=r,
        nu_b=nu_b,
        nu_c=nu_c,
        membership_level=membership_level,
        refinement_level=refinement_level,
        splitting_degree=s,
        samples=theta_samples,
        failures=tuple(failures),
    )


# -- vanishing-cycle support -----------------------------------------------------------


class VanishingSupport(namedtuple("VanishingSupport", (
        "scale depth order_c order_b_prime multiplicity "
        "primitive_order splitting_degree splitting_field points "
        "drop psi0_vanishes"), defaults=(True,))):
    """Support and drops of the nearby-cycle complex attached to the pair
    (b, c) at depth n, read off the unit scale of t^(n+1) c b'.

    The support is the set of e'-th roots of unity (e' the prime-to-p part
    of |ord(c)|), each with multiplicity p^kappa = |ord(c)| / e'; the
    dimension drop at each support point is -multiplicity, and the
    degree-0 part vanishes identically.  ``splitting_field`` is the
    smallest extension of k containing the support."""

    __slots__ = ()


def vanishing_support(a: WittVector, b: LaurentSeries,
                      c: LaurentSeries) -> VanishingSupport:
    """Compute the support data of the vanishing cycles of the twisted
    phase over the torus of dilation directions.

    The pair (a, b) raises the errors of ``stationary_data``.  The other
    preconditions (DegenerateOrder otherwise): c != 0, ord(c) != 0 and
    t^(n+1) c b' is a unit, n being the depth read from the form
    coefficient of a."""
    data = stationary_data(a, b)
    n, db = data.n, data.db
    if c.is_zero():
        raise DegenerateOrder("c must be nonzero")
    e = c.valuation()
    if e == 0:
        raise DegenerateOrder("ord(c) = 0: the direction divisor is empty")
    if db.valuation() + e != -n - 1:
        raise DegenerateOrder(
            f"t^(n+1) c b' has order {n + 1 + db.valuation() + e}, not a unit"
        )
    k = b.ring
    p = k.p
    lam = (c * db).coefficient(-n - 1)
    e_abs, mult = abs(e), 1
    while e_abs % p == 0:
        e_abs //= p
        mult *= p
    s = 1
    while (k.q ** s - 1) % e_abs:
        s += 1
    big, _ = k.extension(s)
    step = (big.q - 1) // e_abs
    gen = big.generator
    points = tuple(gen ** (step * j) for j in range(e_abs))
    return VanishingSupport(
        scale=lam,
        depth=n,
        order_c=e,
        order_b_prime=db.valuation(),
        multiplicity=mult,
        primitive_order=e_abs,
        splitting_degree=s,
        splitting_field=big,
        points=points,
        drop=-mult,
    )


# -- dimension bookkeeping --------------------------------------------------------------


class DKInput(namedtuple("DKInput", "horizontal vertical delta", defaults=(0,))):
    """Input of the degeneration dimension count: ``horizontal`` lists the
    boundary points of the generic fiber as (residue degree, Swan) pairs,
    ``vertical`` lists the special-fiber branches as ("unramified", swan)
    or ("ramified", form_order) pairs, and ``delta`` is the nonnegative
    contact defect of the special fiber."""

    __slots__ = ()


def dimtot_horizontal(degree: int, swan: int) -> int:
    """Total-dimension weight of one horizontal boundary point."""
    if degree < 1 or swan < 0:
        raise InconsistentInput(
            f"need degree >= 1 and swan >= 0, got ({degree}, {swan})"
        )
    return degree * (swan + 1)


def dimtot_vertical(branch) -> int:
    """Total-dimension weight of one special-fiber branch.

    Unramified branches weigh swan + 1; ramified branches weigh the
    negated order of the twist form, which is allowed to be negative at
    its zeros and must not be clamped."""
    kind, value = branch
    if kind == "unramified":
        if value < 0:
            raise InconsistentInput(f"swan must be >= 0, got {value}")
        return value + 1
    if kind == "ramified":
        return -value
    raise InconsistentInput(f"unknown branch kind {kind!r}")


def dk_phi(inp: DKInput):
    """(phi_generic, phi_special): the two total-dimension sums."""
    phi_eta = sum(dimtot_horizontal(d, sw) for d, sw in inp.horizontal)
    phi_s = sum(dimtot_vertical(br) for br in inp.vertical)
    return phi_eta, phi_s


def dk_dimension(inp: DKInput) -> int:
    """Dimension of the degree-1 nearby cycles under a vanishing degree-0
    part: phi_generic + 2 delta - phi_special."""
    if inp.delta < 0:
        raise InconsistentInput(f"delta must be >= 0, got {inp.delta}")
    phi_eta, phi_s = dk_phi(inp)
    dim = phi_eta + 2 * inp.delta - phi_s
    if dim < 0:
        raise InconsistentInput(
            f"negative dimension {dim}: the input books do not balance"
        )
    return dim


def rho_point(z: str, zcheck: str, ord_f_dx: int | None = None) -> int:
    """Vertical drop of the transform kernel at a point of the special
    fiber: -ord_s(f^* dx) when the target point is infinity, and 1 for the
    pair (infinity, 0)."""
    if zcheck == INFINITY:
        if ord_f_dx is None:
            raise InconsistentInput(
                "target 'infinity' needs ord_s(f^* dx)"
            )
        return -ord_f_dx
    if zcheck == ORIGIN and z == INFINITY:
        return 1
    raise InconsistentInput(
        f"no vertical-drop rule for the pair ({z!r}, {zcheck!r})"
    )


def psi1_dimension(z: str, zcheck: str, *, swan: int | None = None,
                   swan_twisted: int | None = None,
                   ord_f_dx: int | None = None) -> int:
    """Dimension of the degree-1 nearby cycles of the transform kernel for
    one (source, target) pair: swan + 1 + ord_s(f^* dx) at a finite source,
    the twisted Swan in place of swan at an infinite source, and
    swan_twisted - swan for the pair (infinity, 0)."""
    if zcheck == INFINITY:
        if ord_f_dx is None:
            raise InconsistentInput("target 'infinity' needs ord_s(f^* dx)")
        base = swan if z != INFINITY else swan_twisted
        which = "swan" if z != INFINITY else "swan_twisted"
        if base is None:
            raise InconsistentInput(f"pair ({z!r}, {zcheck!r}) needs {which}")
        dim = base + 1 + ord_f_dx
    elif zcheck == ORIGIN and z == INFINITY:
        if swan is None or swan_twisted is None:
            raise InconsistentInput(
                "pair ('infinity', '0') needs swan and swan_twisted"
            )
        dim = swan_twisted - swan
    else:
        raise InconsistentInput(
            f"no dimension rule for the pair ({z!r}, {zcheck!r})"
        )
    if dim < 0:
        raise InconsistentInput(f"negative dimension {dim}")
    return dim


def lft_rank(z: str, zcheck: str, *, swan: int, rank: int, slopes) -> int:
    """Generic rank of the local Fourier transform from the (source,
    target) pair, the Swan conductor, the generic rank, and the slope
    multiset of the input:

        finite source, target infinity            -> swan + rank
        infinity to infinity, all slopes > 1       -> swan - rank
        infinity to infinity, all slopes in [0, 1] -> 0
        infinity to 0, all slopes < 1              -> rank - swan
        infinity to 0, all slopes >= 1             -> 0

    Slope multisets straddling the applicable threshold are rejected with
    InconsistentInput: split the input by slope first."""
    from fractions import Fraction

    if swan < 0 or rank < 1:
        raise InconsistentInput(
            f"need swan >= 0 and rank >= 1, got ({swan}, {rank})"
        )
    slopes = tuple(Fraction(s) for s in slopes)
    if not slopes:
        raise InconsistentInput("slope multiset must be nonempty")
    if any(s < 0 for s in slopes):
        raise InconsistentInput("slopes must be nonnegative")
    if z != INFINITY:
        if zcheck != INFINITY:
            raise InconsistentInput(
                "a finite source transforms to target 'infinity' only"
            )
        out = swan + rank
    elif zcheck == INFINITY:
        if all(s > 1 for s in slopes):
            out = swan - rank
        elif all(s <= 1 for s in slopes):
            out = 0
        else:
            raise InconsistentInput(
                "slopes straddle 1: split the input before transforming"
            )
    elif zcheck == ORIGIN:
        if all(s < 1 for s in slopes):
            out = rank - swan
        elif all(s >= 1 for s in slopes):
            out = 0
        else:
            raise InconsistentInput(
                "slopes straddle 1: split the input before transforming"
            )
    else:
        raise InconsistentInput(f"unknown target point {zcheck!r}")
    if out < 0:
        raise InconsistentInput(
            f"rank {out} < 0: slope data contradicts (swan, rank)"
        )
    return out


# -- the determinant identity ------------------------------------------------------------


def transform_determinant(desc: LFTDescriptor):
    """det(-Frob | F(V)) for the transform F(V) = Ind_{L'/K'} chi' that a
    descriptor at source "0" presents: chi' = ``desc.pushed``, L'/K' of
    degree i = ``desc.degree`` presented by c^-1, c = ``desc.triple.c_full``.
    By Deligne's det Ind chi' = delta_{L'/K'} * chi'|_{K'^x}, with delta the
    quadratic character of the discriminant class of L'/K', it is

        (-1)^i * delta_{L'/K'}(Frob) * chi'(c).

    The class reads leading terms only, so L'/K' is presented by
    ``TotallyRamifiedExt.from_inverse`` from the short scale ``desc.triple.c``
    and its derivative, which share them with c and c'; c is not inverted.
    A descriptor at another source raises WrongSourcePoint."""
    from .characters import char_eval, kummer_char
    from .epsilon import TotallyRamifiedExt, discriminant_class

    if desc.source != ORIGIN:
        raise WrongSourcePoint("transform_determinant needs a descriptor at "
                               f"source '0', got {desc.source!r}")
    ext = TotallyRamifiedExt.from_inverse(desc.triple.c, desc.triple.dc)
    delta = kummer_char(discriminant_class(ext)).uniformizer_value
    return (-1) ** desc.degree * delta * char_eval(desc.pushed, desc.triple.c_full)


class LaumonReport(namedtuple("LaumonReport", (
        "conductor degree lhs rhs product_identity lhs_equals_rhs "
        "det_factor lambda_value epsilon_value oracle_match mismatch"))):
    """Exact evaluation of the determinant identity

        det(-Frob | F(V))^(-1) = lambda(L/K, psi_dx) * eps0(chi, psi_db),

    together with the product of its three factors, which must equal 1
    identically.  When a check fails, ``mismatch`` is
    "epsilon-closed-form" if the oracle disagrees with the closed form and
    "determinant-factor" otherwise."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (
            self.product_identity
            and self.lhs_equals_rhs
            and self.oracle_match is not False
        )


def verify_laumon(chi: QuasiCharacter, b: LaurentSeries,
                  c: LaurentSeries | None = None, *,
                  oracle: bool = False) -> LaumonReport:
    """Verify Laumon's product formula for V = Ind_{L/K} chi, the direct
    image of chi along the degree-ord(b) covering of the base trait
    presented by b:

        det(-Frob | F(V)) * eps0(chi, psi_db) * lambda(L/K, psi_dx) = 1.

    The determinant is read off the transform, ``transform_determinant`` of
    ``lft_descriptor(chi, b, c)``; the epsilon factor is the closed form of
    ``epsilon0_wild`` at the triple's full-window scale; ``lhs_equals_rhs``
    states the same identity as det^(-1) = lambda * eps0.  ``oracle=True``
    recomputes the epsilon factor by the shell-sum integral as an
    independent anchor.  The operands are read and checked as by
    ``lft_descriptor`` at source "0".
    """
    from .characters import AdditiveCharacter
    from .epsilon import epsilon0_wild, epsilon_tate_oracle, lambda_factor

    desc = lft_descriptor(chi, b, c)
    triple = desc.triple
    det_factor = transform_determinant(desc)
    psi_db = AdditiveCharacter(triple.db)
    eps = epsilon0_wild(chi, psi_db, c_override=triple.c_full).value
    lam = lambda_factor(desc.covering).value
    product_identity = det_factor * eps * lam == 1
    lhs = det_factor ** (-1)
    rhs = lam * eps
    lhs_equals_rhs = lhs == rhs
    oracle_match = epsilon_tate_oracle(chi, psi_db) == eps if oracle else None
    mismatch = None
    if oracle_match is False:
        mismatch = "epsilon-closed-form"
    elif not (product_identity and lhs_equals_rhs):
        mismatch = "determinant-factor"
    return LaumonReport(triple.conductor, desc.degree, lhs, rhs, product_identity,
                        lhs_equals_rhs, det_factor, lam, eps, oracle_match, mismatch)


# -- random instances ----------------------------------------------------------------------


def draw_window(p: int, n_cap: int = 8) -> int:
    """The series window ``random_legendre_triple`` draws at by default."""
    return 4 * (n_cap + p) + 12


def random_legendre_triple(field, m: int, rng, *, n_cap: int = 8,
                           prec: int | None = None) -> LegendreTriple:
    """Draw an admissible triple: a reduced wild layer of depth n with
    p not dividing n, b = t^d * unit with small d prime to p, and the
    stationary scale c built from them.  Draws violating the admissibility
    inequalities are rejected and retried, up to 400 times."""
    p, q = field.p, field.q
    if prec is None:
        prec = draw_window(p, n_cap)
    d_choices = [d for d in (1, 2, 3, 4) if d % p]
    for _ in range(400):
        entries = []
        for idx in range(m + 1):
            weight = p ** (m - idx)
            vmax = n_cap // weight
            if (vmax < 1 or rng.random() < 0.35) and idx < m:
                entries.append(LaurentSeries.zero(field, prec))
                continue
            v = rng.randint(1, max(1, vmax))
            coeffs = {-v: field.from_index(rng.randrange(1, q))}
            for _ in range(rng.randint(0, 2)):
                coeffs[rng.randint(-v, -1)] = field.from_index(
                    rng.randrange(0, q)
                )
            coeffs[-v] = field.from_index(rng.randrange(1, q))
            entries.append(LaurentSeries.from_terms(field, coeffs, prec))
        vec = WittVector(m, entries)
        if vec.is_zero():
            continue
        a = reduce_vector(vec)
        if a.is_zero():
            continue
        n = fil_level(a)
        if n < 1 or n % p == 0:
            continue
        alpha = witt_differential(a)
        if alpha.is_zero() or alpha.valuation() != -n - 1:
            continue
        d = rng.choice(d_choices)
        unit_terms = {0: field.from_index(rng.randrange(1, q))}
        for _ in range(rng.randint(0, 2)):
            unit_terms[rng.randint(1, 3)] = field.from_index(
                rng.randrange(0, q)
            )
        b = LaurentSeries.from_terms(field, unit_terms, prec).shift(d)
        try:
            return LegendreTriple(a, b)
        except (NotLegendre, PrecisionExhausted):
            continue
    raise CapExceeded("no admissible triple found in 400 attempts")


def character_for_triple(triple: LegendreTriple, tame_exponent: int = 0,
                         uniformizer_value: CycloNumber | None = None
                         ) -> QuasiCharacter:
    """Wrap the wild layer of a triple as a full character datum, with an
    optional tame decoration."""
    from .characters import QuasiCharacter
    from .cyclo import CycloNumber

    if uniformizer_value is None:
        uniformizer_value = CycloNumber.from_rational(1, 1)
    return QuasiCharacter(
        triple.field,
        tame_exponent % (triple.field.q - 1),
        uniformizer_value,
        triple.a,
    )


def guaranteed_mod_t(*objects) -> int:
    """The smallest certified window among the given series and Witt
    vectors: every reported series coefficient is exact below this
    exponent."""
    precs = []
    for obj in objects:
        if isinstance(obj, WittVector):
            precs.extend(e.prec for e in obj.entries)
        elif isinstance(obj, LaurentSeries):
            precs.append(obj.prec)
        elif obj is None:
            continue
        else:
            raise InconsistentInput(
                f"no precision window on {type(obj).__name__}"
            )
    return min(precs) if precs else 0
