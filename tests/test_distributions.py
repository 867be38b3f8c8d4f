"""Distributions, unbiased marks, immunity checks, Monte Carlo bias."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatcalc.core import StateProfile
from seatcalc.distributions import (
    _MC_CHUNK,
    DistributionMarks,
    LogNormal,
    PowerLaw,
    Uniform,
    expected_family_bias,
    monte_carlo_bias,
    sample_states,
    unbiased_mark,
    verify_alabama_immunity,
)
from seatcalc.engine import MethodSpec, apportion_at_divisor
from seatcalc.signposts import HUNTINGTON_HILL, WEBSTER, power_law, power_law_mark

TABLE_MARKS = {
    # f -> marks for q_g in (1, 2, 5, 10, 20), sigma = 1
    0: (0.491, 0.539, 0.591, 0.623, 0.650),
    1: (1.461, 1.481, 1.506, 1.525, 1.543),
    2: (2.468, 2.480, 2.495, 2.507, 2.518),
    5: (5.479, 5.485, 5.492, 5.497, 5.502),
    10: (10.487, 10.489, 10.493, 10.496, 10.499),
    20: (20.492, 20.493, 20.495, 20.497, 20.498),
}
QG_GRID = (1.0, 2.0, 5.0, 10.0, 20.0)


def lognormal_qg(q_g, sigma=1.0, divisor=1.0):
    return LogNormal(math.log(q_g * divisor), sigma)


# --- distribution primitives ----------------------------------------------

@pytest.mark.parametrize("dist,points", [
    (PowerLaw(2.0, 0.0, 50.0), (0.5, 3.0, 20.0, 49.0)),
    (PowerLaw(-2.0, 0.7, math.inf), (1.0, 2.5, 30.0)),
    (PowerLaw(0.0, 0.01, 100.0), (0.1, 1.0, 42.0)),
    (LogNormal(math.log(5.0), 1.0), (0.4, 2.0, 5.0, 40.0)),
    (Uniform(1.0, 9.0), (1.5, 4.0, 8.5)),
])
def test_pdf_is_cdf_derivative(dist, points):
    for v in points:
        h = max(v, 1.0) * 1e-6
        fd = (dist.cdf(v + h) - dist.cdf(v - h)) / (2 * h)
        assert fd == pytest.approx(dist.pdf(v), rel=1e-6)


def test_cdf_normalization_and_monotonicity():
    cases = [
        PowerLaw(3.0, 0.0, 12.0),
        PowerLaw(-1.5, 0.3, math.inf),
        LogNormal(0.0, 1.0),
        Uniform(2.0, 6.0),
    ]
    for dist in cases:
        lo, hi = dist.support
        assert dist.cdf_diff(lo, hi if math.isfinite(hi) else 1e12) == pytest.approx(1.0, abs=1e-9)
        grid = np.linspace(max(lo, 0.01), min(hi, 80.0), 100) if math.isfinite(hi) \
            else np.geomspace(max(lo, 0.01), 200.0, 100)
        values = [dist.cdf(float(v)) for v in grid]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert all(dist.pdf(float(v)) >= 0 for v in grid)


def test_distribution_validation():
    with pytest.raises(ValueError):
        PowerLaw(2.0, 1.0, 1.0)  # empty support
    with pytest.raises(ValueError):
        PowerLaw(-2.0, 0.0, math.inf)  # non-normalizable at the origin
    with pytest.raises(ValueError):
        PowerLaw(2.0, 0.0, math.inf)  # non-normalizable at infinity
    with pytest.raises(ValueError):
        LogNormal(0.0, 0.0)
    with pytest.raises(ValueError, match="overflows"):
        LogNormal(0.0, 40.0)  # mean exp(800)
    with pytest.raises(ValueError):
        Uniform(3.0, 2.0)


@pytest.mark.parametrize("beta, v_lo, v_hi, norm", [
    (1e-320, 2.5, 7.0, "0.0"),  # 7^beta − 2.5^beta rounds to 0: every draw was 1.0
    (2.5, 1.0, 1e300, "inf"),   # v_hi^2.5 is beyond the float range
    (-2.0, 1e-300, 1.0, "inf"),
    (0.0, 1e-300, 1e300, "inf"),  # ln(v_hi/v_lo)
])
def test_a_power_law_must_normalize_in_floats(beta, v_lo, v_hi, norm):
    with pytest.raises(ValueError, match=f"does not normalize in floats.*normalizer is {norm}$"):
        PowerLaw(beta, v_lo, v_hi)


def test_laws_out_of_float_range_compute():
    # (b/a)^3 = 1e900: a^3 is nothing beside b^3, and the CDF difference is b^3
    law = PowerLaw(3.0, 1e-300, 1.0)
    assert law.cdf_diff(1e-300, 0.5) == 0.125
    assert law.cdf_diff(1e-300, 1.0) == 1.0
    # v^(beta+1) beyond the float range inside the support, the antiderivative not
    law = PowerLaw(0.5, 1.0, 1e300)
    assert law.cdf_integral(0.0, 1e300) == pytest.approx(2e300 / 3, rel=1e-12)
    # v·ln(v/v_lo) beyond the float range at beta = 0: the first interval's
    # unbiased mark is 1/e however far the law reaches, as for the one scaled down
    for v_hi, divisor in ((1e300, 1e298), (1e308, 1e306)):
        law = PowerLaw(0.0, 1.0, v_hi)
        assert unbiased_mark(law, 0, divisor) == pytest.approx(1 / math.e, rel=1e-9)
    # (v − v_lo)^2 beyond the float range: the integral of I over [0, 1e308]
    law = Uniform(0.0, 1e300)
    assert law.cdf_integral(0.0, 1e308) == pytest.approx(1e308 - 0.5e300, rel=1e-15)


def test_cdf_integral_matches_quadrature():
    dists = [
        PowerLaw(2.0, 0.0, 100.0),
        PowerLaw(-2.0, 0.4, math.inf),
        LogNormal(math.log(5.0), 1.0),
        Uniform(1.0, 9.0),
    ]
    for dist in dists:
        for a, b in ((0.5, 1.5), (2.0, 7.0), (6.0, 6.5)):
            grid = np.linspace(a, b, 20001)
            riemann = float(np.trapezoid([dist.cdf(float(v)) for v in grid], grid))
            assert dist.cdf_integral(a, b) == pytest.approx(riemann, rel=1e-7, abs=1e-9)


# --- unbiased marks: lognormal table --------------------------------------

def test_lognormal_marks_match_published_table():
    for f, row in TABLE_MARKS.items():
        for q_g, want in zip(QG_GRID, row):
            r = unbiased_mark(lognormal_qg(q_g), f, 1.0)
            assert r == pytest.approx(want, abs=0.001), (f, q_g)


def test_lognormal_marks_scale_with_divisor_via_qg():
    # the mark depends on D only through q_g = v_g / D
    for d in (0.25, 1.0, 7.0):
        r = unbiased_mark(LogNormal(math.log(5.0 * d), 1.0), 1, d)
        assert r == pytest.approx(1.506, abs=0.001)


def test_lognormal_nonhomogeneity_witness():
    # same distribution, two divisors: the f = 0 mark moves by more than 0.1
    dist = LogNormal(0.0, 1.0)  # v_g = 1
    r_at_qg1 = unbiased_mark(dist, 0, 1.0)      # q_g = 1
    r_at_qg20 = unbiased_mark(dist, 0, 1 / 20)  # q_g = 20
    assert abs(r_at_qg20 - r_at_qg1) > 0.1
    assert r_at_qg1 == pytest.approx(0.491, abs=0.001)
    assert r_at_qg20 == pytest.approx(0.650, abs=0.001)


def test_lognormal_closed_form_agrees_with_quadrature():
    for q_g in QG_GRID:
        dist = lognormal_qg(q_g)
        for f in range(0, 21):
            fast = unbiased_mark(dist, f, 1.0)
            slow = unbiased_mark(dist, f, 1.0, generic=True)
            assert fast == pytest.approx(slow, abs=1e-9), (q_g, f)


@pytest.mark.parametrize("q_g,f,want", [
    # 40-digit mpmath marks of LogNormal(ln q_g, 0.3) at D = 1
    (5.0, 20, 20.46627087192018),
    (5.0, 30, 30.471288029048857),
    (5.0, 40, 40.475125231050654),
    (20.0, 0, 0.9012796057297533),
    (20.0, 3, 3.6735758073585028),
])
def test_lognormal_marks_in_both_tails(q_g, f, want):
    assert abs(unbiased_mark(lognormal_qg(q_g, 0.3), f, 1.0) - want) <= 1e-11


def test_mark_fraction_trend_along_qg5():
    fracs = [unbiased_mark(lognormal_qg(5.0), f, 1.0) - f for f in range(21)]
    assert fracs[0] > 0.5
    trough = min(range(21), key=lambda f: fracs[f])
    assert 2 <= trough <= 8
    for f in range(trough):
        assert fracs[f] > fracs[f + 1]
    for f in range(trough, 20):
        assert fracs[f] <= fracs[f + 1] + 1e-12
    assert fracs[20] < 0.5


# --- unbiased marks: power laws -------------------------------------------

def test_power_law_marks_use_closed_form():
    dist = PowerLaw(1.0, 0.0, 1000.0)
    for f in (0, 1, 5, 12):
        assert unbiased_mark(dist, f, 1.0) == f + 0.5
    dist = PowerLaw(-2.0, 0.5, math.inf)
    assert unbiased_mark(dist, 3, 1.0) == pytest.approx(math.sqrt(12), rel=1e-12)


def test_power_law_generic_equals_closed_form():
    # the distribution-agnostic quadrature path reproduces the closed
    # form; for negative exponents f = 0 is excluded because a proper
    # distribution needs v_lo > 0 there while the closed form is the
    # v_lo -> 0 limit
    for beta in (-3, -2, -1, 0, 1, 2, 3):
        if beta > 0:
            dist = PowerLaw(float(beta), 0.0, 1e6)
            f_range = range(0, 21)
        elif beta == 0:
            dist = PowerLaw(0.0, 1e-12, 1e12)
            f_range = range(0, 21)
        else:
            dist = PowerLaw(float(beta), 1e-9, math.inf)
            f_range = range(1, 21)
        for f in f_range:
            for d in (0.1, 1.0, 10.0):
                got = unbiased_mark(dist, f, d, generic=True)
                assert got == pytest.approx(power_law_mark(beta, f), abs=1e-8), \
                    (beta, f, d)


def test_power_law_marks_outside_the_support_solve_the_mean_test():
    # the closed form holds only for intervals inside [v_lo, v_hi]; on one
    # that straddles an edge the mark is bisected, agrees with quadrature and
    # leaves no expected bias
    assert unbiased_mark(PowerLaw(-2.0, 0.5, math.inf), 0, 1.0) == pytest.approx(
        1 / math.sqrt(3), abs=1e-12)
    assert unbiased_mark(PowerLaw(2.0, 1.0, 50.0), 1, 0.7) == pytest.approx(1.6030, abs=1e-4)
    straddled = 0
    for beta in (-2.0, 0.0, 2.0):
        dist = PowerLaw(beta, 1.3, 9.6)
        for d in (0.7, 1.0, 2.5):
            for f in range(int(9.6 / d) + 1):
                if not (f * d < 1.3 < (f + 1) * d or f * d < 9.6 < (f + 1) * d):
                    continue
                straddled += 1
                r = unbiased_mark(dist, f, d)
                assert r == pytest.approx(unbiased_mark(dist, f, d, generic=True), abs=1e-8)
                assert abs(expected_family_bias(dist, d, f, r)) <= 1e-9, (beta, d, f)
    assert straddled == 18


def test_webster_marks_from_any_power_law_support():
    # beta = 1 is the uniform-density case: generic and closed paths agree
    # to 1e-9 on any support wide enough to cover the interval
    dist = PowerLaw(1.0, 0.0, 500.0)
    for f in (0, 3, 9):
        for d in (0.5, 2.0):
            generic = unbiased_mark(dist, f, d, generic=True)
            assert generic == pytest.approx(f + 0.5, abs=1e-9)


# --- the defining equation residual ---------------------------------------

def residual(dist, f, divisor, r):
    a, b = f * divisor, (f + 1) * divisor
    rhs = dist.cdf_integral(a, b) / divisor
    return abs(dist.cdf(r * divisor) - rhs)


def test_defining_equation_residual_lognormal_grid():
    for q_g in QG_GRID:
        dist = lognormal_qg(q_g)
        for f in (0, 1, 2, 5, 10, 20):
            r = unbiased_mark(dist, f, 1.0)
            assert residual(dist, f, 1.0, r) <= 1e-10, (q_g, f)


def test_defining_equation_residual_power_law_grid():
    for beta in (-4, -3, -2, -1, 0, 1, 2, 3, 4):
        if beta > 0:
            dist = PowerLaw(float(beta), 0.0, 1e6)
            f_range = range(0, 21)
        else:
            dist = PowerLaw(float(beta), 0.4, 1e9 if beta == 0 else math.inf)
            f_range = range(1, 21)
        for f in f_range:
            r = unbiased_mark(dist, f, 1.0)
            assert residual(dist, f, 1.0, r) <= 1e-10, (beta, f)


def test_degenerate_interval_conventions():
    dist = Uniform(5.0, 6.0)
    # all mass below the interval
    assert unbiased_mark(dist, 20, 1.0) == 21.0
    # all mass above the interval
    assert unbiased_mark(dist, 1, 1.0) == 1.0
    # no mass anywhere near: flat CDF inside support gap does not happen
    # for these distributions, so only the two one-sided cases apply


def test_a_mark_with_no_mass_resolved_in_floats_is_parked_at_the_middle():
    # σ = 30 spreads the law so thin that [10¹⁵·D, (10¹⁵ + 1)·D] at D = 10⁻¹⁵,
    # [1, 1.000000000000001] at the median, carries no mass in floats: the CDF is
    # ½ at both ends, neither all mass below nor all above.  The mark is
    # parked at f + ½, the family's expected bias there is 0, and a quota's
    # margin is its distance to that mark
    dist, f, d = LogNormal(0.0, 30.0), 10 ** 15, 1e-15
    assert dist.cdf(f * d) == dist.cdf((f + 1) * d) == 0.5
    assert unbiased_mark(dist, f, d) == f + 0.5
    assert expected_family_bias(dist, d, f, f + 0.5) == 0.0
    assert DistributionMarks(dist).margin(f + 0.75, f, d) == 0.25


@pytest.mark.parametrize("dist, below, above", [
    (PowerLaw(2.0, 1.0, 5.0), 0.5, 9.0),
    (PowerLaw(-2.0, 0.7, math.inf), 0.5, None),
    (LogNormal(0.0, 1.0), -1.0, None),
    (Uniform(1.0, 5.0), 0.5, 9.0),
])
def test_density_and_mass_are_zero_outside_the_support(dist, below, above):
    assert dist.pdf(below) == 0.0
    assert dist.cdf_diff(below - 1.0, below) == 0.0
    if above is not None:
        assert dist.pdf(above) == 0.0
        assert dist.cdf_diff(above, above + 1.0) == 0.0
    assert dist.cdf_diff(3.0, 2.0) == 0.0  # an empty interval


def test_uniform_rounding_decision_agrees_with_its_mark():
    # rounds_up evaluates the mean test at the quota instead of solving the
    # mark; away from the mark it decides as quota >= mark_at does, also on
    # intervals that straddle a support edge or carry no mass
    for dist in (Uniform(0.0, 7.3), Uniform(2.2, 9.0)):
        marks = DistributionMarks(dist)
        for divisor in (0.7, 1.0, 2.5):
            for f in range(12):
                mark = marks.mark_at(f, divisor)
                for k in range(1, 200):
                    q = f + k / 200
                    if abs(q - mark) > 1e-9:
                        assert marks.rounds_up(q, f, divisor) == (q >= mark), (dist, divisor, q)


@pytest.mark.parametrize("log_vg,f,parked", [
    # [f, f+1] lies 38 and 46 sigmas above the median, or 42 or more below
    # it, where its mass is zero in floats
    (0.0, 10 ** 5, 10 ** 5 + 1),
    (0.0, 10 ** 6, 10 ** 6 + 1),
    (math.log(1e6), 0, 0),
    (math.log(1e6), 1, 1),
    (math.log(1e6), 2, 2),
])
def test_lognormal_rounding_agrees_with_its_mark_in_the_tails(log_vg, f, parked):
    # the mark is parked, no quota rounds the other way, and the bias is zero
    dist = LogNormal(log_vg, 0.3)
    marks = DistributionMarks(dist)
    assert marks.mark_at(f, 1.0) == parked
    for k in range(1, 64):
        q = f + k / 64
        assert marks.rounds_up(q, f, 1.0) == (q >= parked), (f, q)
    assert expected_family_bias(dist, 1.0, f, f + 0.5) == 0.0


def test_lognormal_tail_state_gets_no_more_seats_than_its_mark_allows():
    method = MethodSpec(DistributionMarks(LogNormal(0.0, 0.3)), "state")
    app = apportion_at_divisor([StateProfile("a", 100000.3)], 1.0, method)
    assert app.seats["a"] == 100000


def test_margin_sign_is_the_rounding_decision():
    # margin >= 0 is rounds_up on every branch, and away from the mark it is
    # quota >= mark_at; a lognormal at q_g = 5 takes CDF form for f <= 4
    custom = DistributionMarks(LogNormal(0.0, 1.0), lambda f, d: f + 0.25)
    empty = DistributionMarks(Uniform(5.0, 6.0))  # no mass on [1, 2] or [20, 21]
    cases = [
        (DistributionMarks(lognormal_qg(5.0)), range(0, 5)),
        (DistributionMarks(lognormal_qg(5.0)), range(5, 12)),
        (DistributionMarks(Uniform(0.0, 7.3)), range(9)),
        (DistributionMarks(PowerLaw(2.0, 1.0, 50.0)), range(1, 10)),
        (custom, range(5)),
        (empty, (1, 20)),
    ]
    for marks, fs in cases:
        for f in fs:
            mark = marks.mark_at(f, 1.0)
            for k in range(1, 64):
                q = f + k / 64
                up = marks.margin(q, f, 1.0) >= 0.0
                assert up == marks.rounds_up(q, f, 1.0), (marks, f, q)
                if abs(q - mark) > 1e-9:
                    assert up == (q >= mark), (marks, f, q)
    assert empty.margin(1.5, 1, 1.0) == 0.5 and empty.margin(20.5, 20, 1.0) == -0.5
    # a quota exactly at a custom mark has margin 0 and rounds up
    assert custom.margin(1.25, 1, 1.0) == 0.0
    assert custom.rounds_up(1.25, 1, 1.0)


# The lognormal mean test written out plainly, one helper per step, with
# every float operation in the order seatcalc computes it; the program's
# flattened form must agree with it bit for bit.

SQRT2 = math.sqrt(2.0)


def plain_phi(x):
    return 0.5 * math.erfc(-x / SQRT2)


def plain_tail_integral(log_vg, sigma, a, b, s):
    if b <= a:
        return 0.0, 0.0
    a = max(a, 0.0)
    shift = math.exp(log_vg + 0.5 * sigma ** 2)

    def anti(v):
        if v <= 0:
            return (-shift, 1.0) if s < 0 else (0.0, 0.0)
        z = (math.log(v) - log_vg) / sigma
        p = plain_phi(s * z)
        return v * p - shift * plain_phi(s * (z - sigma)), p

    (int_b, p_b), (int_a, p_a) = anti(b), anti(a)
    return int_b - int_a, s * (p_b - p_a)


def plain_excess(log_vg, sigma, f, divisor, forms=None):
    s = 1.0 if (f + 0.5) * divisor <= math.exp(log_vg) else -1.0
    integral, mass = plain_tail_integral(log_vg, sigma, f * divisor, (f + 1) * divisor, s)
    if forms is not None:
        forms.add(s if mass > 0.0 else None)
    if mass <= 0.0:
        return None
    mean = integral / divisor
    return lambda v: s * (plain_phi(s * ((math.log(v) - log_vg) / sigma)) - mean)


def plain_parked_mark(log_vg, sigma, f, divisor):
    cdf = lambda v: 0.0 if v <= 0 else plain_phi((math.log(v) - log_vg) / sigma)
    if cdf(f * divisor) >= 1.0:
        return float(f + 1)
    if cdf((f + 1) * divisor) <= 0.0:
        return float(f)
    return f + 0.5


def plain_mark(log_vg, sigma, f, divisor):
    excess = plain_excess(log_vg, sigma, f, divisor)
    if excess is None:
        return plain_parked_mark(log_vg, sigma, f, divisor)
    lo, hi = float(f), float(f + 1)
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if excess(mid * divisor) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def lognormal_pin_grid():
    """(law, divisor, f): both tail forms, f = 0, intervals with no mass."""
    from seatcalc.census import bundled_census
    v_t = math.fsum(s.population for s in bundled_census(2020))
    fs = (*range(25), 60, 300, 10 ** 4, 10 ** 6, 10 ** 9)
    grid = [(LogNormal(math.log(5.0), sigma), d, f)
            for sigma in (0.3, 1.0, 2.0) for d in (0.37, 1.3, 3.1) for f in fs]
    # the 2020 lognormal-house law at the 435-seat divisor, and its neighbours
    grid += [(LogNormal(math.log(5.0 * v_t / 435), sigma), v_t / n, f)
             for sigma in (0.3, 1.0, 2.0) for n in (430, 435, 440) for f in fs]
    # an interval from 0 whose mass underflows, so its mark is parked
    grid += [(LogNormal(0.0, 0.3), 1e-9, 0)]
    return grid


def test_lognormal_mean_test_is_pinned_bit_for_bit():
    forms = set()
    for dist, d, f in lognormal_pin_grid():
        mu, sigma = dist.log_vg, dist.sigma
        want = plain_excess(mu, sigma, f, d, forms)
        got = dist._mean_test(f, d)
        assert (got is None) == (want is None), (dist, d, f)
        marks = DistributionMarks(dist)
        for k in range(0 if f else 1, 9):  # a quota of 0 has no log
            q = f + k / 8
            if want is None:
                margin = q - plain_parked_mark(mu, sigma, f, d)
                bias = 0.0
            else:
                margin = want(q * d)
                bias = -want(q * d)
                assert dist._test_at(q * d, *got) == margin, (dist, d, f, q)
            assert marks.margin(q, f, d) == margin, (dist, d, f, q)
            assert expected_family_bias(dist, d, f, q) == bias, (dist, d, f, q)
        assert unbiased_mark(dist, f, d) == plain_mark(mu, sigma, f, d), (dist, d, f)
        for a, b in ((f * d, (f + 1) * d), (0.0, (f + 1) * d), (-d, f * d), (-2 * d, -d),
                     ((f + 1) * d, f * d)):
            assert dist.cdf_integral(a, b) == plain_tail_integral(mu, sigma, a, b, 1.0)[0]
    assert forms == {1.0, -1.0, None}  # CDF form, survival form, no mass


# The bounded laws' mean test as a closure relative to I(fD), and the power
# law's and the uniform law's own cdf_integral bodies, written out as they
# were before the laws shared one; the program must agree with them bit for bit.

def plain_bounded_cdf_integral(dist, a, b):
    if b <= a:
        return 0.0
    total = 0.0
    if b > dist.v_hi:
        total += b - max(a, dist.v_hi)
    lo = min(max(a, dist.v_lo), dist.v_hi)
    hi = min(max(b, dist.v_lo), dist.v_hi)
    if hi > lo:
        if isinstance(dist, PowerLaw):
            total += dist._cdf_antideriv(hi) - dist._cdf_antideriv(lo)
        else:
            width = dist.v_hi - dist.v_lo
            anti = lambda v: 0.5 * (v - dist.v_lo) ** 2 / width
            total += anti(hi) - anti(lo)
    return total


def plain_bounded_excess(dist, f, divisor):
    a, b = f * divisor, (f + 1) * divisor
    if dist.cdf_diff(a, b) <= 0.0:
        return None
    mean = plain_bounded_cdf_integral(dist, a, b) / divisor - dist.cdf(a)
    return lambda v: dist.cdf_diff(a, v) - mean


def plain_bounded_mark(dist, f, divisor):
    a, b = f * divisor, (f + 1) * divisor
    if isinstance(dist, PowerLaw) and dist.v_lo <= a and b <= dist.v_hi:
        return power_law_mark(dist.beta, f)
    excess = plain_bounded_excess(dist, f, divisor)
    if excess is None:
        if dist.cdf(a) >= 1.0:
            return float(f + 1)
        if dist.cdf(b) <= 0.0:
            return float(f)
        return f + 0.5
    lo, hi = float(f), float(f + 1)
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if excess(mid * divisor) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


BOUNDED_PIN_LAWS = (
    Uniform(0.0, 7.3), Uniform(2.2, 9.0), Uniform(0.1419505858826743, 0.3639698516820208),
    PowerLaw(0.0, 1.5, 40.0), PowerLaw(-1.0, 1.5, 40.0), PowerLaw(-1.0, 2.0, math.inf),
    PowerLaw(2.0, 0.0, 30.0), PowerLaw(2.0, 3.0, 30.0),
)


def test_bounded_mean_test_is_pinned_bit_for_bit():
    straddled = set()
    for dist in BOUNDED_PIN_LAWS:
        marks = DistributionMarks(dist)
        for d in (0.07, 0.7, 1.0, 2.5, 3.3):
            for f in (*range(25), 60):
                a, b = f * d, (f + 1) * d
                straddled |= {(dist, edge) for edge in dist.support if a < edge < b}
                excess = plain_bounded_excess(dist, f, d)
                mark = plain_bounded_mark(dist, f, d)
                for k in range(9):
                    q = f + k / 8
                    # a power law's margin reads its mark, as does a parked one
                    margin = (q - mark if isinstance(dist, PowerLaw) or excess is None
                              else excess(q * d))
                    assert marks.margin(q, f, d) == margin, (dist, d, f, q)
                    bias = 0.0 if excess is None else -excess(q * d)
                    assert expected_family_bias(dist, d, f, q) == bias, (dist, d, f, q)
                assert unbiased_mark(dist, f, d) == mark, (dist, d, f)
                for lo, hi in ((a, b), (0.0, b), (-d, a), (-2 * d, -d), (b, a)):
                    assert dist.cdf_integral(lo, hi) == plain_bounded_cdf_integral(dist, lo, hi)
    # every finite support edge falls inside some interval of the grid
    assert straddled == {(dist, edge) for dist in BOUNDED_PIN_LAWS for edge in dist.support
                         if 0 < edge < math.inf}


# --- expected family bias ---------------------------------------------------

def test_bias_zero_at_unbiased_mark():
    cases = [(lognormal_qg(q_g), (1.0,), (0, 1, 5), 1e-9) for q_g in (1.0, 5.0, 20.0)]
    # uniform laws, also on intervals that straddle a support edge or carry no mass
    cases += [(dist, (0.7, 1.0, 2.5), range(12), 1e-12)
              for dist in (Uniform(0.0, 7.3), Uniform(2.2, 9.0))]
    for dist, divisors, fs, tol in cases:
        for divisor in divisors:
            for f in fs:
                r = unbiased_mark(dist, f, divisor)
                assert abs(expected_family_bias(dist, divisor, f, r)) <= tol, (dist, divisor, f)


def test_bias_zero_on_intervals_without_mass():
    dist = Uniform(5.0, 6.0)  # no mass on [1, 2] or [20, 21]
    for f in (1, 20):
        for mark in (f, f + 0.5, f + 1):
            assert expected_family_bias(dist, 1.0, f, mark) == 0.0


@pytest.mark.parametrize("f,mark,want", [
    # 40-digit mpmath values of S(mark) - ∫_f^{f+1} S for LogNormal(ln 5, 0.3)
    (30, 30.5, -1.6308332318874972e-11),
    (40, 40.5, -2.2772033888145204e-14),
])
def test_bias_in_the_upper_tail(f, mark, want):
    got = expected_family_bias(lognormal_qg(5.0, 0.3), 1.0, f, mark)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_bias_sign_webster_under_lognormal():
    # unbiased mark 1.506 > 1.5, so Webster rounds too many up
    dist = lognormal_qg(5.0)
    assert expected_family_bias(dist, 1.0, 1, 1.5) > 0


def test_bias_sign_webster_under_inverse_square_power_law():
    # unbiased mark sqrt(2) < 1.5, so Webster rounds too few up
    dist = PowerLaw(-2.0, 0.5, math.inf)
    assert expected_family_bias(dist, 1.0, 1, 1.5) < 0


def test_bias_rejects_mark_outside_interval():
    with pytest.raises(ValueError):
        expected_family_bias(lognormal_qg(5.0), 1.0, 1, 2.5)


# --- the lognormal margin's declared error bound ---------------------------

def exact_mean_test(dist, v, f, divisor):
    """M = I(v) − (1/D)∫_{fD}^{(f+1)D} I at 40 digits, v and D taken exactly."""
    with mpmath.workdps(40):
        mu, sigma = mpmath.mpf(dist.log_vg), mpmath.mpf(dist.sigma)
        shift = mpmath.exp(mu + sigma ** 2 / 2)

        def integral(x):  # of I over [0, x]
            if x == 0:
                return mpmath.mpf(0)
            z = (mpmath.log(x) - mu) / sigma
            return x * mpmath.ncdf(z) - shift * mpmath.ncdf(z - sigma)

        d = mpmath.mpf(divisor)
        mean = (integral((f + 1) * d) - integral(f * d)) / d
        return mpmath.ncdf((mpmath.log(mpmath.mpf(v)) - mu) / sigma) - mean


def decision_flip(marks, f, divisor):
    """The first float quota in (f, f + 1) that rounds up, by bisection on
    the sign of the margin (f + 1 if none does)."""
    lo, hi = f, float(f + 1)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if marks.margin(mid, f, divisor) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def nearby(q, k):
    for _ in range(abs(k)):
        q = math.nextafter(q, math.copysign(math.inf, k))
    return q


def test_lognormal_margin_error_bounds_the_mean_test():
    # each interval's middle at z = zc: CDF form below the median, survival
    # form above, out to both tails; quotas the 3 floats on either side of
    # the decision flip and three far from it; d_min = D, the tightest
    checked = 0
    for sigma in (0.3, 1.0, 2.0):
        for log_vg in (0.0, 15.0):
            dist = LogNormal(log_vg, sigma)
            marks = DistributionMarks(dist)
            for f in (0, 1, 3, 37, 2 ** 10):
                for zc in (-25.0, -8.0, -1.5, 0.0, 1.5, 8.0, 25.0):
                    divisor = math.exp(log_vg + sigma * zc) / (f + 0.5)
                    flip = decision_flip(marks, f, divisor)
                    for q in [*(nearby(flip, k) for k in range(-3, 4)), f + 0.1, f + 0.5, f + 0.9]:
                        v = q * divisor
                        q = v / divisor
                        if not f < q < f + 1:
                            continue
                        eps = marks.margin_error(v, divisor)
                        if abs(dist._z(v)) > 30.0:
                            assert eps == math.inf
                            continue
                        assert eps < 1e-9 and dist._mean_test(f, divisor) is not None
                        err = abs(mpmath.mpf(marks.margin(q, f, divisor))
                                  - exact_mean_test(dist, v, f, divisor))
                        assert err <= eps, (sigma, log_vg, f, zc, q, float(err), eps)
                        checked += 1
    assert checked > 1000


def test_lognormal_margin_error_is_declared_only_inside_its_domain():
    # a population beyond 30 sigma from the median, where a Phi value may be
    # subnormal and the margin a parked mark's, gets no bound; nor does a
    # family whose interval is too narrow to resolve; other laws declare none
    dist = LogNormal(0.0, 1.0)
    marks = DistributionMarks(dist)
    assert marks.margin_error(math.exp(29.9), math.exp(29.9) / 3) < 1e-9
    assert marks.margin_error(math.exp(30.1), math.exp(30.1) / 3) == math.inf
    assert marks.margin_error(math.exp(-29.9), math.exp(-29.9) / 3) < 1e-9
    assert marks.margin_error(math.exp(-30.1), math.exp(-30.1) / 3) == math.inf
    assert marks.margin_error(1.0, 1e-10) < 1e-2  # family 1e10 is resolved
    assert marks.margin_error(1.0, 1e-11) == math.inf  # 1e11 is not
    assert marks.margin_error(1.0, 1.0) <= marks.margin_error(1.0, 0.5)  # grows with f
    for other in (DistributionMarks(Uniform(0.0, 3.0)), DistributionMarks(PowerLaw(2.0, 0.0, 5.0)),
                  DistributionMarks(dist, marks=lambda f, d: f + 0.5)):
        assert other.margin_error(1.0, 1.0) == math.inf


# --- Alabama immunity of rD ------------------------------------------------

def test_lognormal_rd_is_nondecreasing():
    dist = LogNormal(0.0, 1.0)
    for f in (0, 1, 5, 20):
        grid = np.linspace(0.05, 1.0, 80)  # spans q_g = v_g/D in [1, 20]
        report = verify_alabama_immunity(dist, f, grid)
        assert report.ok, report.violations


def test_power_law_rd_trivially_immune():
    marks = DistributionMarks(PowerLaw(2.0, 0.0, 1e6))
    report = verify_alabama_immunity(marks, 3, np.linspace(0.2, 5.0, 40))
    assert report.ok


def test_adversarial_marks_are_flagged():
    def bad_marks(f, d):
        return f + min(1.0, 1.0 / d ** 2)

    report = verify_alabama_immunity(bad_marks, 0, np.linspace(1.05, 3.0, 30))
    assert not report.ok
    assert report.violations


def test_immunity_grid_validation():
    with pytest.raises(ValueError):
        verify_alabama_immunity(LogNormal(0.0, 1.0), 0, [1.0])
    with pytest.raises(ValueError):
        verify_alabama_immunity(LogNormal(0.0, 1.0), 0, [2.0, 1.0])


# --- sampling and Monte Carlo ----------------------------------------------

@pytest.mark.parametrize("replications,n_states,message", [
    (10 ** 30, 50, "replications must be at most 2**53"),
    (4096, 10 ** 12, "a chunk of 4,096,000,000,000,000 draws"),
], ids=["replications", "chunk"])
def test_monte_carlo_sizes_are_refused_up_front(replications, n_states, message):
    with pytest.raises(ValueError) as info:
        monte_carlo_bias(lognormal_qg(5.0), 1.0, WEBSTER, replications, n_states, 0)
    assert str(info.value).startswith(message)


def test_sample_states_validation_and_determinism():
    dist = lognormal_qg(5.0)
    with pytest.raises(ValueError):
        sample_states(dist, 0, 1)
    a = sample_states(dist, 40, 123)
    b = sample_states(dist, 40, 123)
    assert a == b
    c = sample_states(dist, 40, 124)
    assert a != c


def test_sample_states_match_target_log_mean():
    dist = LogNormal(15.218, 1.024)
    states = sample_states(dist, 50, 2020)
    log_mean = math.fsum(math.log(s.population) for s in states) / 50
    assert abs(log_mean - 15.218) <= 3 * 1.024 / math.sqrt(50)


@pytest.mark.parametrize("dist, v_half", [
    (PowerLaw(2.0, 0.0, 10.0), 10.0 * 0.5 ** (1 / 2.0)),
    (PowerLaw(0.0, 0.5, 50.0), 5.0),  # log-uniform: the geometric mean of the ends
])
def test_power_law_sampling_matches_cdf(dist, v_half):
    rng = np.random.default_rng(5)
    draws = dist.sample(rng, 20000)
    assert float(draws.min()) >= dist.v_lo and float(draws.max()) <= dist.v_hi
    # empirical CDF at the median of the law
    assert abs(float(np.mean(draws <= v_half)) - 0.5) < 0.02


def test_monte_carlo_single_draw():
    dist = lognormal_qg(5.0)
    rows = monte_carlo_bias(dist, 1.0, DistributionMarks(dist),
                            replications=1, n_states=1, seed=77)
    nonzero = [row for row in rows if row.mean_bias != 0.0]
    assert len(nonzero) <= 1
    for row in nonzero:
        assert -1.0 < row.mean_bias < 1.0


def test_monte_carlo_reads_a_law_as_its_unbiased_marks():
    dist = lognormal_qg(5.0)
    assert (monte_carlo_bias(dist, 1.0, dist, 300, 10, seed=4)
            == monte_carlo_bias(dist, 1.0, DistributionMarks(dist), 300, 10, seed=4))


def test_monte_carlo_determinism():
    dist = lognormal_qg(5.0)
    a = monte_carlo_bias(dist, 1.0, WEBSTER, 500, 10, seed=9)
    b = monte_carlo_bias(dist, 1.0, WEBSTER, 500, 10, seed=9)
    assert a == b


def test_monte_carlo_webster_direction():
    # family 0's unbiased mark is 0.591 under q_g = 5, so Webster's 0.5
    # rounds too many up; a modest run already shows it
    dist = lognormal_qg(5.0)
    rows = monte_carlo_bias(dist, 1.0, WEBSTER, 4000, 50, seed=11)
    fam0 = rows[0]
    assert fam0.f == 0
    assert fam0.mean_bias > 4 * fam0.std_error


def dense_monte_carlo_bias(dist, divisor, marks, replications, n_states, seed):
    """Reference accumulation: a dense replications × (f_max + 1) table per
    chunk, and a mark solved for every family up to the largest drawn."""
    mark_table = []
    sum_t = np.zeros(0)
    sum_t2 = np.zeros(0)
    n_chunks = (replications + _MC_CHUNK - 1) // _MC_CHUNK
    for idx, chunk_seed in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        reps = min(_MC_CHUNK, replications - idx * _MC_CHUNK)
        q = dist.sample(np.random.default_rng(chunk_seed), reps * n_states) / divisor
        fam = np.floor(q).astype(np.int64)
        width = int(fam.max()) + 1
        while len(mark_table) < width:
            mark_table.append(marks.mark_at(len(mark_table), divisor))
        seats = fam + ((q > fam) & (q >= np.asarray(mark_table)[fam]))
        rep_idx = np.repeat(np.arange(reps), n_states)
        flat = np.bincount(rep_idx * width + fam, weights=seats - q,
                           minlength=reps * width).reshape(reps, width)
        if sum_t.size < width:
            sum_t = np.concatenate([sum_t, np.zeros(width - sum_t.size)])
            sum_t2 = np.concatenate([sum_t2, np.zeros(width - sum_t2.size)])
        sum_t[:width] += flat.sum(axis=0)
        sum_t2[:width] += (flat * flat).sum(axis=0)
    r = float(replications)
    rows = []
    for f in range(sum_t.size):
        mean = sum_t[f] / r
        if replications > 1:
            se = math.sqrt(max(sum_t2[f] - r * mean * mean, 0.0) / (r - 1.0) / r)
        else:
            se = math.nan
        rows.append((f, float(mean), float(se)))
    return rows


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("dist,divisor,marks,replications,n_states", [
    # three chunks, the last one partial
    (lognormal_qg(5.0), 1.0, WEBSTER, 2 * _MC_CHUNK + 809, 12),
    # 40 members per family and replication: any pairwise or per-draw
    # summation of a family's seats - quota differs in the last bits
    (Uniform(1.0, 20.0), 4.0, HUNTINGTON_HILL, 300, 200),
    (lognormal_qg(5.0), 1.0, DistributionMarks(lognormal_qg(5.0)), 400, 12),
    (PowerLaw(-1.5, 1.0, 100.0), 1.0, power_law(2.0), 400, 12),
    (lognormal_qg(5.0), 1.0, WEBSTER, 5000, 1),
    (lognormal_qg(5.0), 1.0, WEBSTER, 1, 50),
    (lognormal_qg(5.0), 1.0, WEBSTER, 2, 50),
])
def test_monte_carlo_equals_dense_accumulation(dist, divisor, marks, replications,
                                               n_states):
    got = monte_carlo_bias(dist, divisor, marks, replications, n_states, seed=6)
    want = dense_monte_carlo_bias(dist, divisor, marks, replications, n_states, seed=6)
    assert len(got) == len(want)
    for row, (f, mean, se) in zip(got, want):
        assert row.f == f
        assert _same_float(row.mean_bias, mean), (f, row.mean_bias, mean)
        assert _same_float(row.std_error, se), (f, row.std_error, se)


def test_monte_carlo_memory_and_marks_follow_the_draws():
    # sigma = 2 reaches f_max = 17,757 but draws only 871 distinct families;
    # a dense replications × (f_max + 1) table of floats would take 142 MB
    solved = []

    class CountingWebster:
        def mark_at(self, f, divisor):
            solved.append(f)
            return WEBSTER.mark_at(f, divisor)

    tracemalloc.start()
    try:
        rows = monte_carlo_bias(LogNormal(math.log(5.0), 2.0), 1.0, CountingWebster(),
                                1000, 50, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert len(rows) == 17758
    assert len(solved) == len(set(solved)) == 871
    assert max(solved) == len(rows) - 1


@pytest.mark.parametrize("dist, family", [
    (LogNormal(math.log(5.0), 30.0), "32253768188971503616"),  # beyond int64
    (Uniform(2.0 ** 20, 2.0 ** 20 + 1.0), "1048576"),  # the first family refused
])
def test_monte_carlo_refuses_a_family_beyond_the_limit(dist, family):
    # refused before the quotas are cast to int64 or sized into arrays
    with pytest.raises(ValueError, match=f"a draw reaches family {family}, beyond the "
                                         f"limit of 1,048,576 families"):
        monte_carlo_bias(dist, 1.0, WEBSTER, 1, 1, seed=0)


@given(f=st.integers(min_value=0, max_value=30),
       q_g=st.sampled_from([1.0, 2.0, 5.0, 10.0, 20.0]))
@settings(max_examples=60, deadline=None)
def test_marks_bracketing_property(f, q_g):
    r = DistributionMarks(lognormal_qg(q_g)).mark_at(f, 1.0)
    assert f <= r <= f + 1
