"""Acceptance gate: eleven exact end-to-end checks, one test per criterion.

Every assertion is an exact equality in a finite field or a cyclotomic
field; there are no tolerances anywhere.  Under ``pytest -v`` the eleven
test functions give a one-line-per-criterion report; each also prints a
PASS summary visible under ``-s``.
"""

import random
import time
from fractions import Fraction

from ramify.characters import (
    AdditiveCharacter,
    QuasiCharacter,
    char_eval,
    conductor,
)
from ramify.cyclo import CycloNumber, root_of_unity
from ramify.epsilon import (
    TotallyRamifiedExt,
    epsilon0,
    epsilon_tate_oracle,
    gauss_sum,
    induced_swan,
    lambda_factor,
    quad_gauss,
)
from ramify.errors import (
    NotLegendre,
    PrecisionExhausted,
    SlopeConditionViolated,
)
from ramify.fields import WittCoeffRing, make_field
from ramify.lft import (
    INFINITY,
    ORIGIN,
    LegendreTriple,
    character_for_triple,
    congruence_check,
    gamma,
    lft_descriptor,
    lft_rank,
    psi1_dimension,
    random_legendre_triple,
    rho_point,
    square_class_checks,
    stationary_c,
    vanishing_support,
    verify_laumon,
)
from ramify.series import LaurentSeries
from ramify.witt import (
    WittVector,
    ghost_components,
    in_fil,
    lift_entries,
    witt_add,
    witt_differential,
    witt_neg,
)

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F9 = make_field(3, 2)
F11 = make_field(11, 1)
F25 = make_field(5, 2)
F27 = make_field(3, 3)

PREC = 24
ONE = CycloNumber.from_rational(1, 1)


def _passed(k, text):
    print(f"[criterion {k}] PASS: {text}")


# -- shared random generators ------------------------------------------------------


def rand_series(field, rng, vmin, vmax, prec=PREC, ensure=None):
    """Random series supported on [vmin, vmax]; ``ensure`` forces a unit
    coefficient at that exponent."""
    terms = {}
    for e in range(vmin, vmax + 1):
        idx = rng.randrange(field.q)
        if idx:
            terms[e] = field.from_index(idx)
    if ensure is not None and ensure not in terms:
        terms[ensure] = field.from_index(1 + rng.randrange(field.q - 1))
    return LaurentSeries.from_terms(field, terms, prec)


def rand_character(field, m, rng, caps, *, want_wild, psi_orders=(0,)):
    """A random ramified character plus a random additive character.

    ``caps[i]`` bounds the pole order of wild entry i; the Swan conductor
    is then at most max over i of caps[i] * p^(m - i)."""
    while True:
        entries = [rand_series(field, rng, -caps[i], 1) for i in range(m + 1)]
        wild = WittVector(m, entries)
        tame = rng.randrange(field.q - 1)
        unif = root_of_unity(8, rng.randrange(8))
        chi = QuasiCharacter(field, tame, unif, wild)
        a, sw = conductor(chi)
        if want_wild and sw == 0:
            continue
        if a == 0:
            continue
        d = psi_orders[rng.randrange(len(psi_orders))]
        omega = rand_series(field, rng, d, d + 1, ensure=d)
        return chi, AdditiveCharacter(omega), a, sw


def triple_stream(configs, seed):
    """Deterministic stream of admissible triples over the given (field, m)
    configurations, cycling until the consumer stops."""
    rng = random.Random(seed)
    while True:
        for field, m in configs:
            yield random_legendre_triple(field, m, rng), field, m


# -- criterion 1 --------------------------------------------------------------------


def test_criterion_01_gauss_square_identity():
    started = time.monotonic()
    for field in (F3, F5, F7, F9, F11, F25, F27):
        G = quad_gauss(field)
        rhs = CycloNumber.from_rational(1, field.kappa0(-field.one) * field.q)
        assert G * G == rhs, f"q = {field.q}"
        assert gauss_sum(field, 0) == ONE, f"q = {field.q}"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _passed(1, f"G^2 identity and trivial sum over 7 fields in {elapsed:.2f}s")


# -- criterion 2 --------------------------------------------------------------------


def test_criterion_02_epsilon_closed_forms_match_oracle():
    started = time.monotonic()
    configs = [
        (F3, 0, [5], (0, 1, -1)),
        (F3, 1, [1, 5], (0, 1)),
        (F5, 0, [5], (0, 1, -1)),
        (F9, 0, [3], (0, -1)),
    ]
    total = 0
    for field, m, caps, psi_orders in configs:
        rng = random.Random(1000 + field.q + 17 * m)
        for _ in range(14):
            chi, psi, a, _sw = rand_character(
                field, m, rng, caps, want_wild=False, psi_orders=psi_orders
            )
            assert a <= 6
            eps = epsilon0(chi, psi)
            oracle = epsilon_tate_oracle(chi, psi)
            assert eps.value == oracle, (field.q, m, a, eps.branch)
            total += 1
    elapsed = time.monotonic() - started
    assert total >= 50
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _passed(2, f"{total} characters, closed form == oracle, {elapsed:.1f}s")


# -- criterion 3 --------------------------------------------------------------------


def _rand_witt(field, m, rng, vmin=-4, prec=12):
    entries = []
    for _ in range(m + 1):
        entries.append(rand_series(field, rng, rng.randint(vmin, 0), 2, prec))
    return WittVector(m, entries)


def test_criterion_03_witt_laws():
    rng = random.Random(303)

    # associativity and commutativity
    for _ in range(200):
        m = rng.randrange(3)
        field = F3 if m == 2 else (F3, F5, F9)[rng.randrange(3)]
        a, b, c = (_rand_witt(field, m, rng) for _ in range(3))
        assert witt_add(a, witt_add(b, c)) == witt_add(witt_add(a, b), c)
        assert witt_add(a, b) == witt_add(b, a)

    # negation is entrywise for odd p
    for _ in range(200):
        m = rng.randrange(3)
        field = (F3, F5)[rng.randrange(2)]
        a = _rand_witt(field, m, rng)
        neg = witt_neg(a)
        assert all(
            neg.entries[i] == -a.entries[i] for i in range(m + 1)
        )
        assert witt_add(a, neg).is_zero()

    # ghost components are additive mod p^(j+1) on coefficient-wise lifts
    for case in range(200):
        m = case % 3
        R = WittCoeffRing(F3, m)
        a, b = _rand_witt(F3, m, rng, prec=8), _rand_witt(F3, m, rng, prec=8)
        gs = ghost_components(lift_entries(witt_add(a, b), R), R, 3)
        ga = ghost_components(lift_entries(a, R), R, 3)
        gb = ghost_components(lift_entries(b, R), R, 3)
        for j in range(m + 1):
            diff = gs[j] - (ga[j] + gb[j])
            mod = 3 ** (j + 1)
            for _, coeff in diff.terms():
                assert all(digit % mod == 0 for digit in coeff.coeffs)

    # the V-filtration is preserved by addition
    for _ in range(200):
        m = rng.randrange(3)
        field = (F3, F5)[rng.randrange(2)]
        n = rng.randint(1, 6)
        p = field.p

        def in_level(vec_m=m, fld=field, level=n):
            entries = []
            for i in range(vec_m + 1):
                floor = -(level // p ** (vec_m - i))
                entries.append(rand_series(fld, rng, floor, 1, 12))
            return WittVector(vec_m, entries)

        a, b = in_level(), in_level()
        assert in_fil(a, n) and in_fil(b, n)
        assert in_fil(witt_add(a, b), n)

    _passed(3, "associativity, commutativity, negation, ghost, filtration x200")


# -- criterion 4 --------------------------------------------------------------------


def _pairing_kernel_conductor(chi, probe_to):
    """Largest unit-filtration depth where chi is nontrivial, plus one.

    Probes chi on 1 + x t^d for every x in k^x via the reciprocity
    pairing; this is the conductor 'from below', independent of the
    filtration-level bookkeeping."""
    field = chi.field
    top = 0
    for d in range(1, probe_to + 1):
        for idx in range(1, field.q):
            u = LaurentSeries.from_terms(
                field, {0: field.one, d: field.from_index(idx)}, PREC
            )
            if char_eval(chi, u) != ONE:
                top = max(top, d)
                break
    return top + 1 if top else 0


def test_criterion_04_conductor_cross_check():
    configs = [
        (F3, 0, [5]),
        (F3, 1, [1, 5]),
        (F5, 0, [5]),
        (F9, 0, [3]),
    ]
    for field, m, caps in configs:
        rng = random.Random(4000 + field.q + 11 * m)
        for _ in range(30):
            chi, _psi, a, sw = rand_character(
                field, m, rng, caps, want_wild=True
            )
            assert sw >= 1
            assert a == sw + 1
            assert _pairing_kernel_conductor(chi, sw + 3) == sw + 1, (field.q, m, sw)
    _passed(4, "filtration conductor == pairing-kernel conductor, 30 x 4 configs")


# -- criterion 5 --------------------------------------------------------------------


def _room_triples(configs, seed, count, r):
    """Admissible triples with enough convexity room for depth-r dilation:
    nu(b) + nu(c) < (p - 2) r."""
    out = []
    stream = triple_stream(configs, seed)
    while len(out) < count:
        tri, field, m = next(stream)
        if tri.nu_b + tri.nu_c >= (field.p - 2) * r:
            continue
        out.append((tri, field, m))
    return out


def test_criterion_05_congruence_suites():
    # key1: dilation of the vector alone
    instances = 0
    stream = triple_stream(((F3, 0), (F5, 0), (F9, 0), (F3, 1), (F5, 1)), 501)
    while instances < 10:
        tri, field, m = next(stream)
        report = congruence_check("key1", tri.a, r=1, theta_samples=20, seed=51)
        assert report.ok and report.samples == 20 and not report.failures
        instances += 1

    # key6: exactly stationary scale (alpha + c b' = 0 to the window)
    for tri, field, m in _room_triples(
        ((F5, 0), (F7, 0), (F5, 1), (F3, 0), (F9, 0)), 506, 10, 1
    ):
        c_full = -(witt_differential(tri.a) * tri.b.derivative().inverse())
        report = congruence_check(
            "key6", tri.a, tri.b, c_full, r=1, theta_samples=20, seed=56
        )
        assert report.ok and report.samples == 20 and not report.failures
        assert report.membership_level == tri.n - tri.nu_c - 2
        assert report.refinement_level == report.membership_level - 1

    # key7: near-stationary scale with a genuinely nonzero defect
    done = 0
    for tri, field, m in _room_triples(
        ((F5, 0), (F7, 0), (F5, 1)), 507, 20, 1
    ):
        c_full = -(witt_differential(tri.a) * tri.b.derivative().inverse())
        # perturb strictly below the hypothesis depth so the defect
        # alpha + c b' is nonzero but certified deep enough
        k = (-tri.n + tri.nu_c + 1) - tri.b.derivative().valuation() + 1
        if k >= c_full.prec:
            continue
        bump = LaurentSeries.t_power(field, k, c_full.prec)
        c_near = c_full + bump
        defect = witt_differential(tri.a) + c_near * tri.b.derivative()
        assert not defect.is_zero()
        report = congruence_check(
            "key7", tri.a, tri.b, c_near, r=1, theta_samples=20, seed=57
        )
        assert report.ok and report.samples == 20 and not report.failures
        done += 1
        if done == 10:
            break
    assert done == 10
    _passed(5, "key1/key6/key7: 10 instances x 20 specializations each")


# -- criteria 6 and 7 ---------------------------------------------------------------


def _origin_population(seed, per_config):
    out = []
    rng = random.Random(seed)
    for field, m in ((F3, 0), (F5, 0), (F9, 0), (F3, 1), (F5, 1), (F9, 1)):
        for _ in range(per_config):
            tri = random_legendre_triple(field, m, rng)
            out.append((tri, field, m))
    return out


def _descriptor_for(tri, source):
    chi = character_for_triple(tri)
    if source == ORIGIN:
        return lft_descriptor(chi, tri.b, tri.c, source=ORIGIN), chi, tri.b
    b_inf = tri.b.inverse()
    c_inf = stationary_c(chi.wild, b_inf)
    return lft_descriptor(chi, b_inf, c_inf, source=INFINITY), chi, b_inf


_POPULATION = None


def _pipeline_population():
    """The shared triple population for criteria 6 and 7: plain source-0
    triples, their quadratic base changes (forcing even parity), and
    source-infinity instances away from the slope-one degeneration."""
    global _POPULATION
    if _POPULATION is not None:
        return _POPULATION
    population = []
    for tri, _field, _m in _origin_population(600, 4):
        population.append((tri, ORIGIN))
        if not tri.parity_even:
            population.append((tri.base_change_quadratic(), ORIGIN))
    rng = random.Random(660)
    attempts = 0
    added = 0
    while added < 12 and attempts < 200:
        attempts += 1
        field, m = ((F3, 0), (F5, 0), (F9, 0), (F5, 1))[attempts % 4]
        tri = random_legendre_triple(field, m, rng)
        try:
            _descriptor_for(tri, INFINITY)
        except (SlopeConditionViolated, NotLegendre, PrecisionExhausted):
            continue
        population.append((tri, INFINITY))
        added += 1
    _POPULATION = population
    return population


def test_criterion_06_degree_law_and_descriptor_rows():
    population = _pipeline_population()
    assert len(population) >= 50
    parities = set()
    sources = set()
    for tri, source in population:
        desc, chi, b_used = _descriptor_for(tri, source)
        sw = conductor(chi)[1]
        c_used = stationary_c(chi.wild, b_used)
        # degree law: -ord(c) = sw + nu(b) + ord(b)
        n, nu_b, _nu_c = LegendreTriple(chi.wild, b_used, c_used).conductor
        assert -c_used.valuation() == sw + nu_b + b_used.valuation()
        # descriptor degree equals the rank-table row computed from the
        # independent induced-Swan path
        ext = TotallyRamifiedExt(
            b_used if source == ORIGIN else b_used.inverse()
        )
        sw_ind = induced_swan(ext, chi)
        rank = ext.degree
        if source == ORIGIN:
            expected = sw_ind + rank
            assert desc.target == INFINITY
        elif sw_ind > rank:
            expected = sw_ind - rank
            assert desc.target == INFINITY
        else:
            expected = rank - sw_ind
            assert desc.target == ORIGIN
        assert desc.degree == expected, (source, sw_ind, rank)
        parities.add((tri.n - tri.nu_c) % 2)
        sources.add(source)
    assert parities == {0, 1}
    assert sources == {ORIGIN, INFINITY}
    _passed(6, f"degree law + descriptor rows on {len(population)} triples")


def test_criterion_07_gamma_and_square_classes():
    population = _pipeline_population()
    checked = 0
    for tri, _source in population:
        g = gamma(tri)
        assert not g.is_zero()
        report = square_class_checks(tri)
        assert report.ok, tri.conductor
        assert report.parity_even == tri.parity_even
        checked += 1
    assert checked >= 50
    _passed(7, f"gamma nonzero and square classes on {checked} triples")


# -- criterion 8 --------------------------------------------------------------------


def test_criterion_08_laumon_identity():
    started = time.monotonic()
    rng = random.Random(808)
    configs = ((F3, 0), (F5, 0), (F9, 0), (F3, 1), (F5, 1), (F9, 1))
    branches = set()
    reports = []
    for field, m in configs:
        for _ in range(5):
            tri = random_legendre_triple(field, m, rng)
            chi = character_for_triple(tri)
            report = verify_laumon(chi, tri.b, tri.c)
            assert report.product_identity, (field.q, m, tri.conductor)
            assert report.lhs_equals_rhs, (field.q, m, tri.conductor)
            branches.add((tri.n % 2, report.degree % 2))
            reports.append((tri, chi, field, m))
    assert len(reports) >= 25
    # the four parity branches of the two quadratic-symbol factors
    assert branches == {(0, 0), (0, 1), (1, 0), (1, 1)}, branches
    # oracle reconfirmation on the five cheapest instances
    reconfirmed = 0
    for tri, chi, field, m in reports:
        if field.q == 3 and m == 0 and reconfirmed < 5:
            report = verify_laumon(chi, tri.b, tri.c, oracle=True)
            assert report.oracle_match is True
            reconfirmed += 1
    assert reconfirmed == 5
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _passed(8, f"{len(reports)} triples, 4 parity branches, 5 oracle-confirmed, "
               f"{elapsed:.1f}s")


# -- criterion 9 --------------------------------------------------------------------


def _tame_epsilon_tower(field, n):
    """Both sides of the inductivity identity for L = K(s), s^n = t."""
    q = field.q
    assert (q - 1) % n == 0, "needs the n-th roots of unity in the base"
    assert n % field.p != 0, "the extension must stay tame"
    b = LaurentSeries.t_power(field, n, PREC)
    ext = TotallyRamifiedExt(b)
    lam = lambda_factor(ext).value

    psi = AdditiveCharacter(LaurentSeries.from_terms(field, {0: field.one}, PREC))
    psi_L = AdditiveCharacter(b.derivative())

    # the norm of the new uniformizer is eps_n * t with eps_n = (-1)^(n-1)
    eps_n = field.one if n % 2 else -field.one
    sign_log = 0 if eps_n == field.one else (q - 1) // 2

    # kappa = mu o Norm for the tame mu with exponent 1 and mu(t) = 1
    mu_e = 1
    kappa = QuasiCharacter(
        field, (mu_e * n) % (q - 1), root_of_unity(q - 1, mu_e * sign_log)
    )
    rhs = lam * epsilon_tate_oracle(kappa, psi_L)

    # Ind(mu o N) splits into mu times the n characters trivial on norms
    lhs = ONE
    for j in range(n):
        e_j = j * (q - 1) // n
        v_j = root_of_unity(q - 1, (-e_j * sign_log) % (q - 1))
        factor = QuasiCharacter(
            field, (mu_e + e_j) % (q - 1), v_j
        )
        assert (mu_e + e_j) % (q - 1) != 0  # every summand stays ramified
        lhs = lhs * epsilon_tate_oracle(factor, psi)
    return lhs, rhs


def test_criterion_09_lambda_tower_identity():
    # the trivial extension has trivial lambda
    for field in (F3, F5, F9):
        ident = TotallyRamifiedExt(LaurentSeries.t_power(field, 1, PREC))
        assert lambda_factor(ident).value == ONE

    for field, n in ((F5, 2), (F7, 3), (F9, 4)):
        lhs, rhs = _tame_epsilon_tower(field, n)
        assert lhs == rhs, (field.q, n)
    _passed(9, "lambda(K/K) = 1; inductivity for degrees 2, 3, 4 by oracles")


# -- criterion 10 -------------------------------------------------------------------


def test_criterion_10_dimension_bookkeeping():
    # the two vertical-drop rules
    assert rho_point(INFINITY, ORIGIN) == 1
    for z in (ORIGIN, INFINITY, "finite"):
        for k in (-3, -1, 0, 2):
            assert rho_point(z, INFINITY, ord_f_dx=k) == -k

    # case (i) dimension equals the descriptor degree on matched instances
    matched = 0
    for tri, _f, _m in _origin_population(1010, 2):
        chi = character_for_triple(tri)
        desc = lft_descriptor(chi, tri.b, tri.c, source=ORIGIN)
        sw = conductor(chi)[1]
        dim = psi1_dimension(
            ORIGIN, INFINITY, swan=sw,
            ord_f_dx=tri.b.derivative().valuation(),
        )
        assert dim == desc.degree, (sw, desc.degree)
        matched += 1
    assert matched >= 10

    # all five generic-rank rows, the zero rows included
    assert lft_rank("finite", INFINITY, swan=2, rank=1, slopes=[2]) == 3
    assert lft_rank(
        INFINITY, INFINITY, swan=5, rank=2, slopes=[Fraction(5, 2)] * 2
    ) == 3
    assert lft_rank(
        INFINITY, INFINITY, swan=1, rank=2, slopes=[Fraction(1, 2)] * 2
    ) == 0
    assert lft_rank(
        INFINITY, ORIGIN, swan=1, rank=3, slopes=[Fraction(1, 3)] * 3
    ) == 2
    assert lft_rank(
        INFINITY, ORIGIN, swan=3, rank=2, slopes=[Fraction(3, 2)] * 2
    ) == 0
    _passed(10, f"rho rules, {matched} matched dimensions, all 5 rank rows")


# -- criterion 11 -------------------------------------------------------------------


def test_criterion_11_vanishing_support():
    count = 0
    stream = triple_stream(((F3, 0), (F5, 0), (F9, 0), (F5, 1)), 1101)
    while count < 10:
        tri, field, m = next(stream)
        support = vanishing_support(tri.a, tri.b, tri.c)
        assert not support.scale.is_zero()
        # total degree off w = 0 counts each point with its multiplicity
        assert support.primitive_order * support.multiplicity == abs(
            support.order_c
        )
        assert len(support.points) == support.primitive_order
        assert all(not pt.is_zero() for pt in support.points)
        assert support.psi0_vanishes
        assert support.drop == -support.multiplicity
        count += 1
    _passed(11, f"support degree |ord c| with multiplicity on {count} triples")
