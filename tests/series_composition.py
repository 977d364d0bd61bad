"""Composition and reversion of power series, shared by the tests that
present a covering by a uniformizer other than t."""

from ramify.series import LaurentSeries


def compose(f, g):
    """f(g) by Horner, for a power series f and ord(g) >= 1, known to the
    window that f and g certify."""
    acc = LaurentSeries.zero(f.ring, 0)
    for k in range(f.prec - 1, -1, -1):
        acc = acc * g + LaurentSeries.monomial(f.ring, f.coefficient(k), 0, g.prec)
    return acc


def reversion(f):
    """tau with f(tau) = t, for f = t * (unit): the fixed point of
    tau = t / s(tau), s = f / t, which gains a coefficient at each step."""
    t, s = LaurentSeries.t_power(f.ring, 1, f.prec), f.shift(-1)
    tau = t
    for _ in range(f.prec):
        tau = t * compose(s, tau).inverse()
    return tau
