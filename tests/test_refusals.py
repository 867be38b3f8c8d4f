"""Library entry points refuse a bad argument with a typed error naming it."""

import math

import pytest

from seatcalc.census import powerlaw_loglik_scan
from seatcalc.core import StateProfile
from seatcalc.distributions import (
    LogNormal,
    PowerLaw,
    expected_family_bias,
    monte_carlo_bias,
    unbiased_mark,
    verify_alabama_immunity,
)
from seatcalc.engine import round_quota
from seatcalc.signposts import DEAN, HUNTINGTON_HILL, WEBSTER, power_law_mark, signpost_table

LAW = LogNormal(0.0, 1.0)


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
])
def test_library_refuses_with_a_typed_error_naming_the_argument(call, error, names):
    with pytest.raises(error, match=names):
        call()
