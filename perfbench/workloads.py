"""Seeded populations and exactly checked ops for the library sweeps.

Every op returns True when all the exact checks it makes on its own output
hold.  Exceptions escape to the caller, which counts them as failed ops.

The populations are made in rounds.  Every round holds the same classes
in the same multiplicities; only the seeded draws inside a class change
from round to round and from seed to seed, so runs of different seeds do
the same kinds of work.
"""

import random

from ramify.characters import AdditiveCharacter, QuasiCharacter, conductor
from ramify.cyclo import root_of_unity
from ramify.epsilon import DEFAULT_COSET_CAP, epsilon0, epsilon_tate_oracle
from ramify.fields import make_field
from ramify.lft import (
    ORIGIN,
    INFINITY,
    character_for_triple,
    congruence_check,
    lft_descriptor,
    random_legendre_triple,
    square_class_checks,
    vanishing_support,
    verify_laumon,
)
from ramify.series import LaurentSeries
from ramify.witt import UniversalWittTable, WittVector, witt_differential

BASE_FIELDS = {3: (3, 1), 5: (5, 1), 9: (3, 2)}
PSI_ORDERS = (-1, 0, 1)

# oracle-sweep round: (q, m, conductor a, characters per round), 32 ops.
# The counts put the median op amid the (5, 1, 2) draws of tame exponent 2,
# between those of exponent 0 (cheaper) and 1, 3 (dearer), and the 90th
# percentile inside the (3, *, 5) classes, so neither sits on the edge
# between two groups of very different cost.  Classes whose single op
# takes longer than a few seconds (q = 9 with a >= 3, q = 5 with a >= 5,
# q = 3 with m = 1 and a = 6) are left out.
ORACLE_ROUND = (
    (3, 0, 1, 1), (3, 0, 2, 2), (3, 0, 3, 2), (3, 0, 5, 1), (3, 0, 6, 1),
    (3, 1, 2, 2), (3, 1, 3, 1), (3, 1, 5, 1),
    (5, 0, 1, 1), (5, 0, 2, 2), (5, 0, 3, 2), (5, 0, 4, 1),
    (5, 1, 2, 10), (5, 1, 3, 1),
    (9, 0, 1, 1), (9, 0, 2, 2),
    (9, 1, 2, 1),
)

# identity-sweep round: for each (q, m), one triple of each depth n <= 8
# prime to p (the cost of an op grows with n).  A stratum may also fix the
# size of the field that splits the vanishing-cycle support: at q = 9,
# depth 7 takes a triple whose support needs F_{3^10}, so every run builds
# that field, once, inside the op that first needs it.
IDENTITY_CLASSES = ((3, 0), (3, 1), (5, 0), (5, 1), (9, 0), (9, 1))
IDENTITY_STRATA = {
    3: ((1, None), (2, None), (4, None), (5, None), (7, None), (8, None)),
    5: ((1, None), (2, None), (3, None), (4, None), (6, None), (7, None), (8, None)),
    9: ((1, None), (2, None), (4, None), (5, None), (7, 59049), (8, None)),
}
THETA_SAMPLES = 2
DRAWS_PER_STRATUM = 500
SERIES_PREC = 24


def base_field(q):
    return make_field(*BASE_FIELDS[q])


def witt_tables_for(classes):
    """Fetch every universal Witt table the (q, m) classes need."""
    for q, m in sorted(set(classes)):
        UniversalWittTable.get(BASE_FIELDS[q][0], m + 1)


# -- oracle-sweep ---------------------------------------------------------------


def _rand_series(field, rng, vmin, vmax, ensure=None):
    terms = {}
    for e in range(vmin, vmax + 1):
        idx = rng.randrange(field.q)
        if idx:
            terms[e] = field.from_index(idx)
    if ensure is not None and ensure not in terms:
        terms[ensure] = field.from_index(1 + rng.randrange(field.q - 1))
    return LaurentSeries.from_terms(field, terms, SERIES_PREC)


def _character(field, m, a, tame, k, rng):
    """A seeded character of conductor exactly a (a = 1: tame), with tame
    exponent ``tame`` and chi(t) = zeta_8^k."""
    uniformizer = root_of_unity(8, k)
    if a == 1:
        return QuasiCharacter(field, tame, uniformizer)
    sw = a - 1
    p = field.p
    while True:
        entries = [
            _rand_series(field, rng, -(sw // p ** (m - i)), 1,
                         ensure=-sw if i == m else None)
            for i in range(m + 1)
        ]
        chi = QuasiCharacter(field, tame, uniformizer, WittVector(m, entries))
        if conductor(chi)[0] == a:
            return chi


def _balanced(rng, values, n):
    """n seeded draws from ``values`` in which each value appears
    floor(n / len) or ceil(n / len) times."""
    values = list(values)
    out = values * (n // len(values)) + rng.sample(values, n % len(values))
    rng.shuffle(out)
    return out


def oracle_population(seed, rounds):
    """The seed draws each character's wild part and psi; the tame exponent,
    chi(t) and psi's order are spread evenly over a class's draws in the
    run.  The tame exponent moves an op's cost by up to 3x inside one class
    (q = 5, m = 1, a = 2: about 0.06 s at exponent 0, 0.15 s at 1 and 3),
    so a free draw of it moved the median op from seed to seed."""
    rng = random.Random(seed)
    strata = {}
    for q, m, a, count in ORACLE_ROUND:
        n = count * rounds
        tames = range(1, q - 1) if a == 1 else range(q - 1)
        strata[q, m, a] = list(zip(_balanced(rng, tames, n), _balanced(rng, range(8), n),
                                   _balanced(rng, PSI_ORDERS, n)))
    ops = []
    for _ in range(rounds):
        for q, m, a, count in ORACLE_ROUND:
            field = base_field(q)
            for _ in range(count):
                tame, k, d = strata[q, m, a].pop()
                chi = _character(field, m, a, tame, k, rng)
                psi = AdditiveCharacter(_rand_series(field, rng, d, d + 1, ensure=d))
                ops.append(((q, m, a, d), chi, psi))
    return ops


def oracle_cosets(q, a, d, cap=DEFAULT_COSET_CAP):
    """Cosets the Tate-integral oracle is defined to enumerate: shells
    v in [v0-2, -d+2] with v0 = -a-d, depth max(a, -d-v, 1), (q-1) q^(depth-1)
    cosets a shell, shells with q^depth above the cap left out."""
    total = 0
    for v in range(-a - d - 2, -d + 3):
        depth = max(a, -d - v, 1)
        if q ** depth <= cap:
            total += (q - 1) * q ** (depth - 1)
    return total


def oracle_op(chi, psi):
    return epsilon0(chi, psi).value == epsilon_tate_oracle(chi, psi)


# -- identity-sweep -------------------------------------------------------------


def support_field_size(tri):
    """q^s for the smallest s with e | q^s - 1, e the prime-to-p part of
    |ord(c)|: the field that holds the vanishing-cycle support."""
    q, p = tri.field.q, tri.field.p
    e = abs(tri.c.valuation())
    while e % p == 0:
        e //= p
    size = q
    while (size - 1) % e:
        size *= q
    return size


def identity_population(seed, rounds):
    """Seeded draws of random_legendre_triple, each kept for the first open
    stratum it fits.  A draw is skipped when it fits none; when it has no
    room for key6 or key7, so that every op runs two congruences; and when
    m = 1, n > p and its first Witt entry is zero, which halves an op's
    cost (below p the first entry is always zero)."""
    rng = random.Random(seed)
    ops = []
    for _ in range(rounds):
        for q, m in IDENTITY_CLASSES:
            wanted = list(IDENTITY_STRATA[q])
            for _ in range(DRAWS_PER_STRATUM * len(wanted)):
                if not wanted:
                    break
                tri = random_legendre_triple(base_field(q), m, rng)
                if _key_for(tri)[0] is None or (
                        m and tri.n > tri.field.p and tri.a.entries[0].is_zero()):
                    continue
                size = support_field_size(tri)
                for n, need in wanted:
                    if tri.n == n and need in (None, size):
                        wanted.remove((n, need))
                        ops.append(((q, m, n), tri, rng.randrange(1 << 30)))
                        break
            else:
                raise RuntimeError(f"no triple for q={q} m={m} in strata {wanted}")
    return ops


def _key_for(tri):
    """(key, c) for the second congruence: key6 with the exact stationary
    scale at odd depth, key7 with a deep enough perturbation of it at even
    depth; (None, None) when nu(b) + nu(c) >= p - 2 leaves no room or the
    perturbation does not fit the window."""
    p = tri.field.p
    if tri.nu_b + tri.nu_c >= p - 2:
        return None, None
    db = tri.b.derivative()
    c_full = -(witt_differential(tri.a) * db.inverse())
    if tri.n % 2:
        return "key6", c_full
    k = (-tri.n + tri.nu_c + 1) - db.valuation() + 1
    if k >= c_full.prec:
        return None, None
    return "key7", c_full + LaurentSeries.t_power(tri.field, k, c_full.prec)


def identity_op(tri, sample_seed):
    chi = character_for_triple(tri)
    laumon = verify_laumon(chi, tri.b, tri.c)
    desc = lft_descriptor(chi, tri.b, tri.c, source=ORIGIN)
    squares = square_class_checks(tri)
    support = vanishing_support(tri.a, tri.b, tri.c)
    key1 = congruence_check("key1", tri.a, r=1, theta_samples=THETA_SAMPLES,
                            seed=sample_seed)
    ok = (
        laumon.ok
        and desc.target == INFINITY
        and desc.degree == desc.swan + desc.rank == -tri.c.valuation()
        and squares.ok
        and squares.parity_even == tri.parity_even
        and support.primitive_order * support.multiplicity == abs(support.order_c)
        and len(support.points) == support.primitive_order
        and support.psi0_vanishes
        and key1.ok
        and key1.samples == THETA_SAMPLES
    )
    which, c_key = _key_for(tri)
    report = congruence_check(which, tri.a, tri.b, c_key, r=1,
                              theta_samples=THETA_SAMPLES, seed=sample_seed)
    return ok and report.ok and report.samples == THETA_SAMPLES
