"""Library entry points refuse a bad argument with a typed error naming it."""

import math

import pytest

from seatcalc.census import bundled_census, log_histogram, powerlaw_loglik_scan
from seatcalc.core import StateProfile
from seatcalc.distributions import (
    LogNormal,
    PowerLaw,
    expected_family_bias,
    monte_carlo_bias,
    sample_states,
    unbiased_mark,
    verify_alabama_immunity,
)
from seatcalc.engine import MethodSpec, apportion_for_house_size, house_divisor, round_quota
from seatcalc.signposts import DEAN, HUNTINGTON_HILL, WEBSTER, power_law_mark, signpost_table

LAW = LogNormal(0.0, 1.0)
CENSUS = bundled_census(2020)
PAIR = [StateProfile("a", 2.0), StateProfile("b", 7.0)]


def just_under_spread(bins):
    """The widest bin width that spreads the 2020 log populations over more
    than ``bins`` bins."""
    logs = [math.log(s.population) for s in CENSUS]
    return math.nextafter((max(logs) - min(logs)) / bins, 0.0)


@pytest.mark.parametrize("call, error, names", [
    # each of these escaped with an OverflowError, an AttributeError or NaN
    pytest.param(lambda: unbiased_mark(LAW, math.inf, 1.0), ValueError, "family index",
                 id="unbiased_mark-inf-f"),
    pytest.param(lambda: unbiased_mark(LAW, math.nan, 1.0), ValueError, "family index",
                 id="unbiased_mark-nan-f"),
    pytest.param(lambda: round_quota(math.inf, WEBSTER, 1.0), ValueError, "quota",
                 id="round_quota-inf"),
    pytest.param(lambda: round_quota(math.nan, WEBSTER, 1.0), ValueError, "quota",
                 id="round_quota-nan"),
    pytest.param(lambda: power_law_mark(0.5, 2 ** 1100), ValueError, "family index",
                 id="power_law_mark-huge-f"),
    pytest.param(lambda: DEAN.mark(2 ** 1100), ValueError, "family index", id="dean-huge-f"),
    pytest.param(lambda: HUNTINGTON_HILL.mark(2 ** 1100), ValueError, "family index",
                 id="hill-huge-f"),
    pytest.param(lambda: monte_carlo_bias(LAW, 1.0, None, 10, 3, 1), TypeError, "marks",
                 id="monte_carlo_bias-no-marks"),
    pytest.param(lambda: powerlaw_loglik_scan([StateProfile("a", 2.0)], [math.inf], (1.0, 3.0)),
                 ValueError, "beta", id="powerlaw_loglik_scan-inf-beta"),
    # refusals that were in place but never run
    pytest.param(lambda: PowerLaw(math.inf, 1.0, 2.0), ValueError, "beta", id="PowerLaw-inf-beta"),
    pytest.param(lambda: PowerLaw(math.nan, 1.0, 2.0), ValueError, "beta", id="PowerLaw-nan-beta"),
    pytest.param(lambda: unbiased_mark(LAW, -1, 1.0), ValueError, "family index",
                 id="unbiased_mark-negative-f"),
    pytest.param(lambda: unbiased_mark(LAW, 1.5, 1.0), ValueError, "family index",
                 id="unbiased_mark-fractional-f"),
    pytest.param(lambda: unbiased_mark(LAW, 1, 0.0), ValueError, "divisor",
                 id="unbiased_mark-zero-divisor"),
    pytest.param(lambda: unbiased_mark(LAW, 1, math.inf), ValueError, "divisor",
                 id="unbiased_mark-inf-divisor"),
    pytest.param(lambda: expected_family_bias(LAW, -1.0, 1, 1.5), ValueError, "divisor",
                 id="expected_family_bias-negative-divisor"),
    pytest.param(lambda: monte_carlo_bias(LAW, 1.0, WEBSTER, 0, 3, 1), ValueError, "replication",
                 id="monte_carlo_bias-no-replications"),
    pytest.param(lambda: monte_carlo_bias(LAW, 1.0, WEBSTER, 10, 0, 1), ValueError, "state",
                 id="monte_carlo_bias-no-states"),
    pytest.param(lambda: monte_carlo_bias(LAW, math.nan, WEBSTER, 10, 3, 1), ValueError,
                 "divisor", id="monte_carlo_bias-nan-divisor"),
    pytest.param(lambda: verify_alabama_immunity(42, 0, [1.0, 2.0]), TypeError, "source",
                 id="verify_alabama_immunity-bad-source"),
    pytest.param(lambda: signpost_table(WEBSTER, -1), ValueError, "f_max",
                 id="signpost_table-negative-f_max"),
    # sizes the CLI bounds: f_max and bins above 2**20 (the parent built these, and
    # a billion rows, or billions of bins, for smaller widths)
    pytest.param(lambda: signpost_table(DEAN, 2 ** 20 + 1), ValueError, "f_max",
                 id="signpost_table-huge-f_max"),
    pytest.param(lambda: log_histogram(CENSUS, just_under_spread(2 ** 20), 0.0), ValueError,
                 "bin width", id="log_histogram-too-many-bins"),
    pytest.param(lambda: log_histogram(CENSUS, 5e-324, 0.0), ValueError, "bin width",
                 id="log_histogram-subnormal-width"),
    pytest.param(lambda: log_histogram(CENSUS, 0.5, math.inf), ValueError, "origin",
                 id="log_histogram-inf-origin"),
    pytest.param(lambda: log_histogram(CENSUS, 0.5, math.nan), ValueError, "origin",
                 id="log_histogram-nan-origin"),
    # a family index is a non-negative integer everywhere (one check)
    pytest.param(lambda: power_law_mark(0.5, 1.5), ValueError, "family index",
                 id="power_law_mark-fractional-f"),
    pytest.param(lambda: DEAN.mark(1.5), ValueError, "family index", id="dean-fractional-f"),
    pytest.param(lambda: expected_family_bias(LAW, 1.0, -3, -2.5), ValueError, "family index",
                 id="expected_family_bias-negative-f"),
    pytest.param(lambda: expected_family_bias(LAW, 1.0, math.nan, 0.5), ValueError,
                 "family index", id="expected_family_bias-nan-f"),
    # a house size is an int: 8.5 raised TargetUnachievable, True was solved as 1
    pytest.param(lambda: apportion_for_house_size(PAIR, 8.5, MethodSpec(WEBSTER)), TypeError,
                 "target", id="apportion_for_house_size-float-target"),
    pytest.param(lambda: apportion_for_house_size(PAIR, True, MethodSpec(WEBSTER)), TypeError,
                 "target", id="apportion_for_house_size-bool-target"),
    pytest.param(lambda: house_divisor(PAIR, 8.5), TypeError, "target",
                 id="house_divisor-float-target"),
    # sizes and seeds are ints (one check): each failed inside numpy or range,
    # with a message naming no argument, or was answered
    pytest.param(lambda: monte_carlo_bias(LAW, 1.0, WEBSTER, 10, 2, 1.5), TypeError,
                 "^seed must be an int", id="monte_carlo_bias-float-seed"),
    pytest.param(lambda: monte_carlo_bias(LAW, 1.0, WEBSTER, 10, 2, -1), ValueError,
                 "^seed must be non-negative", id="monte_carlo_bias-negative-seed"),
    pytest.param(lambda: monte_carlo_bias(LAW, 1.0, WEBSTER, 10, 2.5, 1), TypeError,
                 "^n_states must be an int", id="monte_carlo_bias-float-n_states"),
    pytest.param(lambda: monte_carlo_bias(LAW, 1.0, WEBSTER, 2.5, 2, 1), TypeError,
                 "^replications must be an int", id="monte_carlo_bias-float-replications"),
    pytest.param(lambda: monte_carlo_bias(LAW, 1.0, WEBSTER, True, 2, 1), TypeError,
                 "^replications must be an int", id="monte_carlo_bias-bool-replications"),
    pytest.param(lambda: signpost_table(WEBSTER, 2.5), TypeError, "^f_max must be an int",
                 id="signpost_table-float-f_max"),
    pytest.param(lambda: signpost_table(WEBSTER, True), TypeError, "^f_max must be an int",
                 id="signpost_table-bool-f_max"),
    pytest.param(lambda: sample_states(LAW, 2.5, 1), TypeError, "^n must be an int",
                 id="sample_states-float-n"),
    pytest.param(lambda: sample_states(LAW, 2, -1), ValueError, "^seed must be non-negative",
                 id="sample_states-negative-seed"),
])
def test_library_refuses_with_a_typed_error_naming_the_argument(call, error, names):
    with pytest.raises(error, match=names):
        call()
