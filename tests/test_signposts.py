"""Closed-form rounding marks: named rules, the power-law family, limits."""

import math
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatcalc.distributions import DistributionMarks, LogNormal
from seatcalc.signposts import (
    ADAMS,
    DEAN,
    HUNTINGTON_HILL,
    JEFFERSON,
    WEBSTER,
    SignpostRule,
    power_law,
    power_law_mark,
    signpost_table,
)


def test_named_rules_match_their_definitions():
    for f in range(0, 30):
        assert ADAMS.mark(f) == f
        assert JEFFERSON.mark(f) == f + 1
        assert WEBSTER.mark(f) == f + 0.5
        assert HUNTINGTON_HILL.mark(f) == pytest.approx(math.sqrt(f * (f + 1)), abs=1e-12)
        assert DEAN.mark(f) == pytest.approx(f * (f + 1) / (f + 0.5), abs=1e-12)


def test_named_rules_are_power_law_members():
    # the name fixes beta; Dean is outside the family and ignores a stray beta
    assert [r.beta for r in (ADAMS, HUNTINGTON_HILL, WEBSTER, JEFFERSON)] == [
        -math.inf, -2.0, 1.0, math.inf]
    assert repr(HUNTINGTON_HILL) == "SignpostRule(kind='hill', beta=-2.0)"
    assert SignpostRule("webster", 7.0) == WEBSTER
    assert DEAN.beta is None
    assert [SignpostRule("dean", 2.0).mark(f) for f in range(10)] == [
        DEAN.mark(f) for f in range(10)]
    for rule in (ADAMS, DEAN, HUNTINGTON_HILL, WEBSTER, JEFFERSON):
        with pytest.raises(ValueError):
            rule.mark(-1)
    with pytest.raises(ValueError):
        SignpostRule("powerlaw")
    with pytest.raises(ValueError):
        SignpostRule("banzhaf")


# every f below 1,000, and each power of two up to 2**26 with its neighbours
OFFSET_FAMILIES = [*range(1000), *(2 ** e + j for e in range(10, 27) for j in (-1, 0, 1))]


def test_declared_mark_offsets_hold_for_every_float_mark():
    # the engine's family bounds round family f with R_hi and R_lo when its
    # rule declares (lo, hi) = mark_offsets(f, g_max), so lo <= r(g) − g <= hi
    # must hold for the float mark at every g in [f, g_max]: exactly c for
    # Adams 0, Webster 1/2 and Jefferson 1, within δ = 2⁻²⁵ for the rest
    g_max = 2 ** 26 - 1
    families = [g for g in OFFSET_FAMILIES if g <= g_max]
    for rule, c in ((ADAMS, 0.0), (WEBSTER, 0.5), (JEFFERSON, 1.0), (power_law(-math.inf), 0.0),
                    (power_law(-1e9), 0.0), (power_law(1.0), 0.5), (power_law(1e9), 1.0),
                    (power_law(math.inf), 1.0)):
        assert all(rule.mark_offsets(f, 2 ** 53 - 1) == (c, c) for f in (0, 1, 2 ** 40)), rule
        assert all(rule.mark_offsets(f, 2 ** 53) is None for f in (0, 1, 2 ** 40)), rule
        assert all(rule.mark(g) - g == c for g in OFFSET_FAMILIES), rule
    for rule in (HUNTINGTON_HILL, power_law(-2.0), DEAN, SignpostRule("dean", 1.0), power_law(2.0)):
        offsets = [rule.mark(g) - g for g in families]
        least, most = offsets[:], offsets[:]  # over every g >= families[i]
        for i in reversed(range(len(families) - 1)):
            least[i], most[i] = min(least[i], least[i + 1]), max(most[i], most[i + 1])
        for f, low, high in zip(families, least, most):
            lo, hi = rule.mark_offsets(f, g_max)
            assert 0.0 <= lo <= low and high <= hi <= 1.0, (rule, f)
            assert hi - lo <= 0.5 + 2 ** -24, (rule, f)
        assert rule.mark_offsets(0, 2 ** 26) is None, rule
    for rule in (power_law(0.5), power_law(0.0), power_law(-1.0), power_law(-0.99e9),
                 DistributionMarks(LogNormal(0.0, 1.0))):
        declared = getattr(rule, "mark_offsets", None)
        assert declared is None or declared(0, 100) is None, rule


def test_nan_beta_is_rejected():
    with pytest.raises(ValueError, match="NaN"):
        power_law(float("nan"))
    with pytest.raises(ValueError, match="NaN"):
        SignpostRule("powerlaw", math.nan)


def test_power_law_identifications_exact():
    # the beta = -inf, -2, 1, +inf members are Adams, HH, Webster, Jefferson
    for f in range(0, 25):
        assert power_law_mark(-math.inf, f) == ADAMS.mark(f)
        assert power_law_mark(-2.0, f) == pytest.approx(HUNTINGTON_HILL.mark(f), abs=1e-12)
        assert power_law_mark(1.0, f) == pytest.approx(WEBSTER.mark(f), abs=1e-12)
        assert power_law_mark(math.inf, f) == JEFFERSON.mark(f)


def test_power_law_special_value_formulas():
    # independent closed forms for beta in {-1, 0, 2}
    for f in range(1, 40):
        assert power_law_mark(-1.0, f) == pytest.approx(
            1.0 / (math.log(f + 1) - math.log(f)), rel=1e-12)
        assert power_law_mark(0.0, f) == pytest.approx(
            (f + 1) ** (f + 1) / (math.e * f ** f), rel=1e-10)
        assert power_law_mark(2.0, f) == pytest.approx(
            math.sqrt(f * (f + 1) + 1.0 / 3.0), rel=1e-12)
    assert power_law_mark(0.0, 0) == pytest.approx(1 / math.e, rel=1e-12)


def test_table_entries():
    assert power_law_mark(1, 0) == pytest.approx(0.50, abs=0.005)
    assert power_law_mark(-2, 1) == pytest.approx(1.41, abs=0.005)
    assert power_law_mark(0, 0) == pytest.approx(0.37, abs=0.005)
    assert power_law_mark(-4, 1) == pytest.approx(1.361, abs=0.001)


def test_zero_mark_for_strongly_negative_beta_at_f0():
    for beta in (-1.0, -1.5, -2.0, -4.0, -math.inf):
        assert power_law_mark(beta, 0) == 0.0


def test_monotone_in_beta():
    betas = [b / 2.0 for b in range(-20, 21)]  # -10..10 step 0.5
    for f in (1, 2, 5, 17, 50):
        marks = [power_law_mark(b, f) for b in betas]
        for lo, hi in zip(marks, marks[1:]):
            assert lo < hi


def test_guard_band_limits():
    # near-zero and near-minus-one betas fall back to the limit formulas
    for f in (0, 1, 7, 23):
        assert power_law_mark(1e-6, f) == pytest.approx(power_law_mark(0.0, f), abs=1e-4)
        assert power_law_mark(-1e-6, f) == pytest.approx(power_law_mark(0.0, f), abs=1e-4)
    for f in (1, 7, 23):
        assert power_law_mark(-1 + 1e-6, f) == pytest.approx(
            power_law_mark(-1.0, f), abs=1e-4)
        assert power_law_mark(-1 - 1e-6, f) == pytest.approx(
            power_law_mark(-1.0, f), abs=1e-4)
    # huge |beta| collapses to the Adams/Jefferson endpoints
    assert power_law_mark(1e12, 3) == 4.0
    assert power_law_mark(-1e12, 3) == 3.0


def test_no_overflow_at_large_f():
    # (f+1)^(f+1) overflows doubles near f = 140; log-space evaluation must not
    r = power_law_mark(0.0, 500)
    assert 500 < r < 501
    r = power_law_mark(-1.0, 10 ** 6)
    assert 10 ** 6 < r < 10 ** 6 + 1


# floors of floats from 2**53, where every float is an integer, to the float range
HUGE_FAMILIES = sorted({math.floor(x) for x in (
    *(2.0 ** e for e in range(53, 1024)), *(2.0 ** e * 1.5 for e in range(53, 1023)),
    9007199254740994.0, 1e16, 1.34e154, 1.5e154, 1e200, 1e300, 1e308, 1.7e308,
    sys.float_info.max)})


@pytest.mark.parametrize("rule", [ADAMS, DEAN, HUNTINGTON_HILL, WEBSTER, JEFFERSON,
                                  power_law(-1.0), power_law(0.0), power_law(2.0)], ids=str)
def test_marks_of_huge_families_are_finite_and_bracketed(rule):
    # f(f+1) and log-space forms overflow or cancel up here; every float quota
    # is an integer, so the mark is the float nearest r(f) in [f, f+1]
    for f in HUGE_FAMILIES:
        r = rule.mark(f)
        assert math.isfinite(r) and f <= r <= f + 1, (f, r)


def test_beta_zero_mark_is_within_three_ulps_of_mpmath():
    # r_0(f) = (f+1)^(f+1) / (e·f^f), as the benchmark's reference takes it
    with mpmath.workdps(60):
        for f in (*range(1, 5001), *(2 ** k + j for k in range(1, 53) for j in (-1, 1))):
            want = mpmath.mpf(f + 1) ** (f + 1) / (mpmath.e * mpmath.mpf(f) ** f)
            got = power_law_mark(0.0, f)
            assert abs(got - want) <= 3 * math.ulp(float(want)), (f, got)


@pytest.mark.parametrize("beta", [-50.0, -3.0, -0.5, 0.5, 3.0, 50.0])
def test_generic_power_law_marks_stay_in_their_interval_below_two_to_the_53(beta):
    # from f = 2**14·(|beta| + 3) the mark is the expansion f + 1/2 + (beta − 1)/(24(f + 1/2)),
    # within a few ulps of r_beta(f) = (((f+1)^(beta+1) − f^(beta+1))/(beta+1))^(1/beta)
    with mpmath.workdps(80):
        b1 = mpmath.mpf(beta) + 1
        for f in sorted({2 ** k + j for k in range(1, 53) for j in (-1, 1)}):
            got = power_law_mark(beta, f)
            assert f <= got <= f + 1, (f, got)
            if f >= 2 ** 14 * (abs(beta) + 3):
                want = (((mpmath.mpf(f) + 1) ** b1 - mpmath.mpf(f) ** b1) / b1) ** (1 / (b1 - 1))
                assert abs(got - want) <= 2 * math.ulp(float(want)), (f, got, float(want))


def test_large_f_approaches_half():
    for beta in (-4, -3, -2, -1, 0, 1, 2, 3, 4):
        assert abs(power_law_mark(beta, 50) - 50.5) < 0.01


@given(beta=st.floats(min_value=-10, max_value=10), f=st.integers(min_value=0, max_value=50))
@settings(max_examples=300)
def test_bracketing_property(beta, f):
    r = power_law_mark(beta, f)
    assert f <= r <= f + 1


@given(f=st.integers(min_value=0, max_value=200))
def test_nondecreasing_in_f(f):
    for rule in (ADAMS, DEAN, HUNTINGTON_HILL, WEBSTER, JEFFERSON,
                 power_law(-3.0), power_law(0.5)):
        assert rule.mark(f + 1) >= rule.mark(f)


def test_signpost_table_shapes():
    rows = signpost_table(power_law(1.0), 4)
    assert rows == [(0, 0.5), (1, 1.5), (2, 2.5), (3, 3.5), (4, 4.5)]
    assert [r for _, r in signpost_table(ADAMS, 4)] == [0, 1, 2, 3, 4]
    assert [r for _, r in signpost_table(JEFFERSON, 4)] == [1, 2, 3, 4, 5]


def test_signpost_helper_dispatch():
    # a rule's mark dispatches on its kind: named members and explicit
    # power-law rules go through power_law_mark, Dean through its own formula
    assert WEBSTER.mark(3) == 3.5
    assert power_law(-2.0).mark(2) == pytest.approx(math.sqrt(6), rel=1e-12)
    assert power_law(1.0).mark(3) == WEBSTER.mark(3)
    assert DEAN.mark(1) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_mark_at_ignores_divisor():
    for d in (0.1, 1.0, 10.0):
        assert WEBSTER.mark_at(2, d) == 2.5
        assert power_law(3.0).mark_at(5, d) == power_law(3.0).mark(5)


def test_rule_labels():
    assert str(WEBSTER) == "webster"
    assert str(power_law(2.0)) in ("powerlaw:2", "powerlaw:2.0")
