"""Rank-1 characters of K = k((t)) with k finite of odd characteristic.

A quasi-character chi: K^x -> Q(zeta_N)^x is stored in three independent
pieces:

  * ``tame_exponent`` e in Z/(q-1): the restriction to the Teichmueller units,
    u |-> zeta_{q-1}^(e * log_g(u0)) where u0 is the leading coefficient of u
    and g the fixed generator of k^x;
  * ``uniformizer_value`` s: the (free, never inferred) value chi(t) of the
    unramified-twist part;
  * ``wild``: a length-(m+1) Witt vector a over k classifying the restriction
    to 1-units via the residue pairing below.

Sign conventions, fixed once and used everywhere downstream:

  * psi_0(x) = zeta_p^x and psi_m(x) = zeta_{p^(m+1)}^x, so that
    psi_m(p^m * x) = psi_0(x) on the nose;
  * the wild part evaluates as psi_m^{-1}([a, u)) where
    [z, u) = -Tr(res(w_m(z) * dlog(u~))) -- the minus sign matches the
    normalization in which uniformizers act as geometric Frobenius;
  * w_m(z) = sum_j p^j * (z_j~)^(p^(m-j)) for any coefficient-wise lift z~ of
    the entries into the length-(m+1) Witt coefficient ring.  The value mod
    p^(m+1) does not depend on the lift.  As dlog(u~) has no pole beyond
    t^(-1), the pairing reads w_m(z) only mod t^1; ``pairing_window`` cuts
    the entries to that, so its cost does not grow with the input window.

Character values take one route to a cyclotomic number: ``char_eval_exponents``
writes chi(u) = chi(t)^v * zeta_L^e, L = chi.level() = (q-1) p^(m+1), and
``char_value`` turns (v, e) into a ``CycloNumber``.  A product of values such as
chi^{-1}(c) psi(c) adds its exponents and calls ``char_value`` once.
"""

from .cyclo import CycloNumber, power_times
from .errors import LengthMismatch, ZeroArgument, ZeroInput
from .fields import WittCoeffRing
from .series import LaurentSeries, map_coefficients, residue_product
from .witt import WittVector, fil_level, ghost_components, pairing_window, reduce_vector


# -- residue pairing ---------------------------------------------------------

def pairing_series(z: WittVector):
    """(R, w) with [z, u) = -Tr_R(res(w * dlog(u~))) for every unit u.

    R is the Witt coefficient ring of length z.m + 1 and w the top ghost
    component of a coefficient-wise lift of z, mod t^1 (all the pairing
    reads): the entries are cut by ``pairing_window``, each at its own
    valuation, before they are lifted.  Computing w once and sweeping u is
    the cheap way to evaluate the pairing against many units.
    """
    field = z.ring
    R = WittCoeffRing.for_field(field, z.m)
    lifts = [_lift(e, R) for e in pairing_window(z.entries, field.p)]
    return R, ghost_components(lifts, R, field.p)[-1]


def _lift(s: LaurentSeries, R) -> LaurentSeries:
    """s lifted coefficient-wise into R; at f = 1 the same ints."""
    if R.f == 1:
        return LaurentSeries(R, s.val, tuple(R.wrap(s.ring.ints(s.coeffs))), s.prec)
    return map_coefficients(s, R.lift, R)


def witt_pairing(z: WittVector, u: LaurentSeries) -> int:
    """[z, u) in Z/p^(m+1): the residue pairing of a Witt vector with a unit.

    ``u`` is a nonzero Laurent series over the same field as the entries of
    ``z`` (valuation is allowed: t itself pairs to -Tr of the constant term
    of w_m(z)).
    """
    if u.is_zero():
        raise ZeroArgument("cannot pair against the zero series")
    return _pair(*pairing_series(z), u)


def _pair(R, w, u: LaurentSeries) -> int:
    """-Tr_R(res(w * dlog(u~))) mod p^(m+1) for (R, w) from ``pairing_series``.

    The residue reads dlog(u~) up to t^(-1-ord w), hence u~ only up to
    t^(ord u - ord w), so u is cut to that window (never shorter than its
    leading coefficient) before it is lifted: a long unit costs no more than
    a short one, and the value is exact for any representative z, reduced or
    not.
    """
    if u.ring is not R.field:
        raise LengthMismatch("unit and Witt vector live over different fields")
    u = u.truncate(u.valuation() + max(1, 1 - w.ord_lower_bound()))
    return (-R.trace(residue_product(w, _lift(u, R).dlog()))) % R.modulus_int


# -- multiplicative characters ------------------------------------------------

class QuasiCharacter:
    """chi = (unramified twist) * (tame part) * (wild part), see module doc."""

    __slots__ = ("field", "tame_exponent", "uniformizer_value", "wild", "_reduced",
                 "_pairing", "_conductor")

    def __init__(self, field, tame_exponent: int, uniformizer_value: CycloNumber,
                 wild: WittVector | None = None):
        if uniformizer_value.is_zero():
            raise ZeroInput("chi(t) must be nonzero")
        if wild is not None and wild.ring is not field:
            raise LengthMismatch("wild part lives over a different residue field")
        self.field = field
        self.tame_exponent = tame_exponent % (field.q - 1)
        self.uniformizer_value = uniformizer_value
        self.wild = wild
        self._reduced = None
        self._pairing = None
        self._conductor = None

    @property
    def m(self) -> int:
        return self.wild.m if self.wild is not None else 0

    def level(self) -> int:
        """L = (q-1) p^(m+1): zeta_L holds every value of chi on units, and the
        additive tower psi_j(x) = zeta_{p^(j+1)}^x, j <= m, sits inside it, so
        psi_j(p^j * x) = psi_0(x) on the nose."""
        return (self.field.q - 1) * self.field.p ** (self.m + 1)

    def has_wild_part(self) -> bool:
        return self.wild is not None and not self.wild.is_zero()

    def reduced_wild(self) -> WittVector:
        """The reduced wild part, memoized: the representative that every
        computation on chi reads."""
        if self.wild is None:
            raise ZeroInput("character has no wild part")
        if self._reduced is None:
            self._reduced = reduce_vector(self.wild)
        return self._reduced

    def pairing_series(self):
        """``pairing_series`` of the reduced wild part, memoized; None when
        that part is zero (chi is 1 on 1-units and [a, t) = 0)."""
        if self._pairing is None and self.wild is not None:
            red = self.reduced_wild()
            self._pairing = () if red.is_zero() else pairing_series(red)
        return self._pairing or None

    def __repr__(self):
        return (f"QuasiCharacter(q={self.field.q}, e={self.tame_exponent}, "
                f"wild={'yes' if self.has_wild_part() else 'no'})")


def char_eval_exponents(chi: QuasiCharacter, u: LaurentSeries):
    """(v, e) with chi(u) = chi(t)^v * zeta_L^e, L = chi.level(): the tame
    part gives zeta_L^(p^(m+1) e0 dlog u0), the wild part zeta_L^(-(q-1) [a, u))."""
    if u.is_zero():
        raise ZeroArgument("character of the zero series")
    field = chi.field
    level = chi.level()
    e = chi.tame_exponent * field.dlog(u.leading_coefficient()) * (level // (field.q - 1))
    pairing = chi.pairing_series()
    if pairing is not None:
        e -= _pair(*pairing, u) * (field.q - 1)
    return u.valuation(), e % level


def char_value(chi: QuasiCharacter, v: int, e: int) -> CycloNumber:
    """chi(t)^v * zeta_L^e with L = chi.level(): the cyclotomic number of an
    exponent pair from ``char_eval_exponents`` (or a sum of such pairs):
    one build at the lcm level when chi(t) is a monomial r zeta_M^i."""
    return power_times(chi.uniformizer_value, v, chi.level(), [(e, 1)])


def char_eval(chi: QuasiCharacter, u: LaurentSeries) -> CycloNumber:
    """chi(u) as an exact cyclotomic number."""
    return char_value(chi, *char_eval_exponents(chi, u))


def conductor(chi: QuasiCharacter):
    """(a(chi), sw(chi)) from the filtration level of the reduced wild part,
    memoized on chi next to that part.

    sw = fil level of reduce(wild) (0 if the class is integral); then
    a = sw + 1 when sw >= 1, else 1 for tame-ramified, else 0.
    """
    if chi._conductor is None:
        sw = 0
        if chi.has_wild_part():
            red = chi.reduced_wild()
            if not red.is_zero():
                sw = fil_level(red)
        if sw >= 1:
            a = sw + 1
        elif chi.tame_exponent != 0:
            a = 1
        else:
            a = 0
        chi._conductor = (a, sw)
    return chi._conductor


# -- tame symbols --------------------------------------------------------------

def hilbert_symbol(x: LaurentSeries, y: LaurentSeries) -> int:
    """Quadratic Hilbert symbol (x, y) in {+1, -1} for nonzero x, y.

    (x, y) = kappa0((-1)^(v(x)v(y)) * x0^(v(y)) * y0^(-v(x))) where x0, y0 are
    leading coefficients and kappa0 the quadratic residue character of k^x.
    """
    if x.is_zero() or y.is_zero():
        raise ZeroArgument("Hilbert symbol needs nonzero arguments")
    field = x.ring
    vx, vy = x.valuation(), y.valuation()
    unit = x.leading_coefficient() ** vy * y.leading_coefficient() ** (-vx)
    if (vx * vy) % 2:
        unit = -unit
    return field.kappa0(unit)


def kummer_char(f: LaurentSeries) -> QuasiCharacter:
    """The order <= 2 character u |-> (f, u) attached to a square class.

    Encoded without a wild part: tame exponent (q-1)/2 * (v(f) mod 2) and
    chi(t) = kappa0((-1)^(v(f)) * leading(f)).
    """
    if f.is_zero():
        raise ZeroInput("square class of the zero series")
    field = f.ring
    vf = f.valuation()
    lead = f.leading_coefficient()
    e = ((field.q - 1) // 2) * (vf % 2)
    sgn = field.kappa0(-lead if vf % 2 else lead)
    s = CycloNumber.from_rational(2, sgn)
    return QuasiCharacter(field, e, s, wild=None)


# -- additive characters -------------------------------------------------------

class AdditiveCharacter:
    """psi_omega(x) = psi_k(res(x * omega)) for a nonzero 1-form omega = g dt.

    ``ord`` is the conductor exponent ord(omega) = ord(g); the gauge is
    beta = t*g, the unit-scale at which psi restricted to m^(-ord-1)/m^(-ord)
    becomes psi_k of the residue class.
    """

    __slots__ = ("omega", "_traces")

    def __init__(self, omega: LaurentSeries):
        if omega.is_zero():
            raise ZeroInput("omega must be a nonzero 1-form")
        self.omega = omega
        self._traces = {}

    @property
    def field(self):
        return self.omega.ring

    @property
    def ord(self) -> int:
        return self.omega.valuation()

    def digit_traces(self, n: int) -> tuple[int, ...]:
        """Tr_{k/F_p}(x g) for x in k in index order, g the coefficient of t^n
        in omega: the exponent of psi(x t^(-1-n)) in Z/p, memoized per n and
        read off the field's trace table along the powers of its generator."""
        row = self._traces.get(n)
        if row is None:
            field, g = self.field, self.omega.coefficient(n)
            if g.is_zero():
                row = (0,) * field.q
            else:
                traces, exp, log, lg = field.traces, field.exp, field.log, field.log[g.idx]
                row = (0,) + tuple(traces[exp[(log[i] + lg) % (field.q - 1)]]
                                   for i in range(1, field.q))
            self._traces[n] = row
        return row

    def __repr__(self):
        return f"AdditiveCharacter(ord={self.ord}, q={self.field.q})"


def gauge(psi: AdditiveCharacter) -> LaurentSeries:
    """beta with omega = beta * dlog(t); the class of beta mod 1-units is
    what the epsilon-factor formulas consume."""
    return psi.omega.shift(1)


def psi_eval_exponent(psi: AdditiveCharacter, x: LaurentSeries) -> int:
    """Tr_{k/F_p}(res(x * omega)) in Z/p."""
    return psi.field.trace_to_prime(residue_product(x, psi.omega))
