"""Apportionment engine: fixed-divisor, family splits, house-size search."""

import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seatcalc import engine
from seatcalc.census import bundled_census
from seatcalc.core import (
    Apportionment,
    QuotaEntry,
    QuotaTable,
    StateProfile,
    compute_quotas,
    family_quota,
    partition_families,
)
from seatcalc.distributions import (
    DistributionMarks,
    LogNormal,
    PowerLaw,
    Uniform,
    monte_carlo_bias,
)
from seatcalc.engine import (
    BY_FAMILY,
    BY_STATE,
    HAMILTON,
    _ILLINOIS_SLACK,
    ApportionmentError,
    InfeasibleTarget,
    FamilySplit,
    MethodSpec,
    TargetUnachievable,
    _EVENT_BAND,
    _boundary_crossings,
    _crossing_events,
    _mark_crossings,
    _mark_times_d_crossing,
    _sweep,
    apportion_at_divisor,
    apportion_for_house_size,
    breakpoints,
    family_splits,
    piecewise_apportionments,
    positional_split,
    round_quota,
)
from seatcalc.paradoxes import scan_alabama
from seatcalc.signposts import ADAMS, DEAN, HUNTINGTON_HILL, JEFFERSON, WEBSTER, power_law

import drop_harness


def states_of(*pops):
    return tuple(StateProfile(f"s{i}", p) for i, p in enumerate(pops))


def seats_tuple(app, n):
    return tuple(app.seats[f"s{i}"] for i in range(n))


# --- rounding conventions -------------------------------------------------

def test_round_at_mark_rounds_up():
    assert round_quota(3.5, WEBSTER, 1.0) == 4
    assert round_quota(3.4999999, WEBSTER, 1.0) == 3
    assert round_quota(math.sqrt(6), HUNTINGTON_HILL, 1.0) == 3


def test_round_integer_quota_is_stable():
    # an exactly integral quota stays put under every rule, including
    # rules whose mark sits on the interval's left edge
    for rule in (ADAMS, HUNTINGTON_HILL, WEBSTER, JEFFERSON, power_law(-3.0)):
        assert round_quota(4.0, rule, 1.0) == 4
        assert round_quota(1.0, rule, 1.0) == 1


def test_round_adams_forces_roundup_on_fractions():
    assert round_quota(0.001, ADAMS, 1.0) == 1
    assert round_quota(5.0001, ADAMS, 1.0) == 6


# --- fixed-divisor apportionment -----------------------------------------

def test_table_rows_webster_both_modes():
    states = bundled_census(2020)
    v_t = math.fsum(s.population for s in states)
    d = v_t / 435
    fam = apportion_at_divisor(states, d, MethodSpec(WEBSTER, BY_FAMILY))
    sta = apportion_at_divisor(states, d, MethodSpec(WEBSTER, BY_STATE))
    assert fam.seats["Rhode Island"] == 2 and sta.seats["Rhode Island"] == 1
    assert fam.seats["Alabama"] == 6 and sta.seats["Alabama"] == 7
    assert fam.seats["Minnesota"] == 7 and sta.seats["Minnesota"] == 8
    assert fam.seats["Arizona"] == 10 and sta.seats["Arizona"] == 9
    assert fam.total_seats == 435
    assert sta.total_seats == 435


def test_hh_family_small_fixture_both_divisors():
    states = states_of(0.999, 1.43)
    method = MethodSpec(HUNTINGTON_HILL, BY_FAMILY)
    assert seats_tuple(apportion_at_divisor(states, 1.0, method), 2) == (1, 2)
    # at D = 999/1001 both states share family 1 and Q < sqrt(6)
    assert seats_tuple(apportion_at_divisor(states, 999 / 1001, method), 2) == (1, 1)


def test_family_split_arithmetic():
    states = bundled_census(2020)
    v_t = math.fsum(s.population for s in states)
    d = v_t / 435
    part = partition_families(compute_quotas(states, d))
    splits = {s.f: s for s in family_splits(part, WEBSTER, d)}
    one = splits[1]
    assert one.size == 8
    assert one.seats == 12
    assert one.m_low == 4 and one.m_high == 4


def test_single_integer_quota_state():
    for rule in (ADAMS, WEBSTER, HUNTINGTON_HILL, JEFFERSON):
        for mode in (BY_STATE, BY_FAMILY):
            app = apportion_at_divisor(states_of(7.0), 1.0, MethodSpec(rule, mode))
            assert app.seats["s0"] == 7


def test_hamilton_rejects_divisor():
    with pytest.raises(ValueError):
        apportion_at_divisor(states_of(1.0), 1.0, MethodSpec(HAMILTON))


def test_min_seat_floor():
    states = bundled_census(2020)
    v_t = math.fsum(s.population for s in states)
    d = v_t / 435
    bare = apportion_at_divisor(states, d, MethodSpec(JEFFERSON, BY_STATE))
    assert bare.seats["Wyoming"] == 0
    floored = apportion_at_divisor(
        states, d, MethodSpec(JEFFERSON, BY_STATE, min_seat_floor=1))
    assert floored.seats["Wyoming"] == 1
    assert all(s >= 1 for s in floored.seats.values())


# --- house-size search ----------------------------------------------------

def test_webster_state_2020_target():
    states = bundled_census(2020)
    sols = apportion_for_house_size(states, 435, MethodSpec(WEBSTER, BY_STATE))
    assert len(sols) == 1
    app = sols[0]
    assert app.total_seats == 435
    assert app.seats["Rhode Island"] == 1
    assert app.seats["Alabama"] == 7
    assert app.seats["Minnesota"] == 8
    assert app.seats["Arizona"] == 9


def test_multiple_solution_fixture():
    states = states_of(0.999, 1.43, 62.4375)
    sols = apportion_for_house_size(states, 65, MethodSpec(HUNTINGTON_HILL, BY_FAMILY))
    assert [seats_tuple(s, 3) for s in sols] == [(1, 2, 62), (1, 1, 63)]
    for s in sols:
        assert s.total_seats == 65
        lo, hi = s.d_interval
        assert lo < s.divisor <= hi


def test_hamilton_tiebreak():
    states = (StateProfile("a", 1.4), StateProfile("b", 1.4), StateProfile("c", 1.2))
    sols = apportion_for_house_size(states, 4, MethodSpec(HAMILTON))
    assert len(sols) == 1
    assert sols[0].seats == {"a": 2, "b": 1, "c": 1}


def test_hamilton_matches_largest_remainder():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 8)
        pops = [rng.uniform(0.5, 50.0) for _ in range(n)]
        target = rng.randint(n, 60)
        states = states_of(*pops)
        app = apportion_for_house_size(states, target, MethodSpec(HAMILTON))[0]
        d = math.fsum(pops) / target
        floors = {f"s{i}": int(p / d) for i, p in enumerate(pops)}
        extras = target - sum(floors.values())
        order = sorted(
            range(n),
            key=lambda i: (-(pops[i] / d - floors[f"s{i}"]), -pops[i], f"s{i}"),
        )
        for i in order[:extras]:
            floors[f"s{i}"] += 1
        assert app.seats == floors
        assert app.total_seats == target


@pytest.mark.parametrize("pops, target, floor, want", [
    ((3.0, 3.0, 4.0), 10, 2, (3, 3, 4)),  # the floor does not bind
    ((1.0, 2.0, 3.0), 5, 2, "target 5 below the 6-seat floor"),
    # seats (1, 1, 8) lifted to (2, 2, 8): 12 seats, not 10
    ((1.0, 1.0, 8.0), 10, 2, "min_seat_floor is incompatible with Hamilton's fixed total"),
], ids=["not-binding", "below-floor", "binding"])
def test_hamilton_with_a_seat_floor(pops, target, floor, want):
    method = MethodSpec(HAMILTON, min_seat_floor=floor)
    if isinstance(want, str):
        with pytest.raises(InfeasibleTarget, match=want):
            apportion_for_house_size(states_of(*pops), target, method)
    else:
        (app,) = apportion_for_house_size(states_of(*pops), target, method)
        assert seats_tuple(app, len(pops)) == want


@pytest.mark.parametrize("kwargs, error, message", [
    ({"mode": "county"}, ValueError, "mode must be 'state' or 'family', got 'county'"),
    ({"min_seat_floor": -1}, ValueError, "min_seat_floor must be non-negative"),
    # a floor of 1.5 gave a state 1.5 seats and "nearest achievable totals:
    # 3.5, 4.5"; True gave a seat count of True
    *(({"min_seat_floor": floor}, TypeError, f"min_seat_floor must be an int, got {floor!r}")
      for floor in (1.5, 1.0, True, False, "1")),
])
def test_method_spec_refuses_an_unknown_mode_or_a_bad_floor(kwargs, error, message):
    with pytest.raises(error) as err:
        MethodSpec(WEBSTER, **kwargs)
    assert str(err.value) == message


def test_labels_of_methods_and_marks():
    assert (str(HAMILTON), repr(HAMILTON)) == ("hamilton", "HAMILTON")
    assert str(MethodSpec(HAMILTON, BY_FAMILY)) == "hamilton"
    assert str(MethodSpec(WEBSTER, BY_FAMILY)) == "webster/family"
    marks = DistributionMarks(LogNormal(0.0, 1.0))
    assert str(marks) == "marks(lognormal)"
    assert str(MethodSpec(marks)) == "marks(lognormal)/state"


def test_an_apportionment_reads_seats_by_state_name():
    app = apportion_at_divisor(states_of(2.4, 0.6), 1.0, MethodSpec(WEBSTER))
    assert (app["s0"], app["s1"]) == (2, 1)
    with pytest.raises(KeyError):
        app["s2"]


def test_hamilton_ignores_mode():
    # Hamilton has no family mode: BY_FAMILY gives the BY_STATE result
    for states, target in ((bundled_census(2020), 435), (states_of(1.4, 1.4, 1.2, 7.3), 9)):
        by_state = apportion_for_house_size(states, target, MethodSpec(HAMILTON, BY_STATE))
        by_family = apportion_for_house_size(states, target, MethodSpec(HAMILTON, BY_FAMILY))
        assert by_family == by_state


def test_hamilton_refuses_targets_beyond_float_precision():
    # the quota floors of (1, 2, 3) miss N by 64 seats at 1e18 and by 32,765 at
    # 1e21, more than n largest remainders can mend: the total would be wrong
    states = states_of(1.0, 2.0, 3.0)
    app = apportion_for_house_size(states, 10 ** 17, MethodSpec(HAMILTON))[0]
    assert app.total_seats == 10 ** 17
    for target in (10 ** 18, 10 ** 21):
        with pytest.raises(InfeasibleTarget, match="beyond float precision"):
            apportion_for_house_size(states, target, MethodSpec(HAMILTON))


@pytest.mark.parametrize("method", [
    MethodSpec(WEBSTER), MethodSpec(WEBSTER, BY_FAMILY),
    MethodSpec(DistributionMarks(LogNormal(math.log(5.0), 1.0))),
], ids=["webster-state", "webster-family", "lognormal-state"])
def test_divisor_methods_refuse_targets_beyond_float_precision(method):
    # v_T/(N ± 4) rounds to one float from N = 1e17 on (an ulp of 1e17 is
    # 16): the window collapses, and the target gets one typed refusal
    states = states_of(1.0, 2.0, 3.0)
    for target in (10 ** 17, 10 ** 18, 10 ** 21):
        with pytest.raises(InfeasibleTarget, match="beyond float precision"):
            apportion_for_house_size(states, target, method)
    with pytest.raises(TargetUnachievable):  # 1e16 ± 4 are still distinct floats
        apportion_for_house_size(states, 10 ** 16, method)


@pytest.mark.parametrize("rounding", [
    HAMILTON, WEBSTER, DistributionMarks(LogNormal(math.log(5.0), 1.0)),
], ids=["hamilton", "webster", "lognormal"])
def test_targets_beyond_the_float_range_are_refused(rounding):
    with pytest.raises(InfeasibleTarget, match="beyond the float range"):
        apportion_for_house_size(states_of(1.0, 2.0, 3.0), 10 ** 400, MethodSpec(rounding))


def test_rounding_needs_both_decision_and_mark():
    class MarksOnly:
        def mark_at(self, f, divisor):
            return f + 0.5

    with pytest.raises(TypeError, match="rounds_up and mark_at"):
        MethodSpec(MarksOnly())


def test_divisor_dependent_rounding_needs_a_margin():
    class NoMargin:
        divisor_dependent = True

        def mark_at(self, f, divisor):
            return f + 0.5

        def rounds_up(self, quota, f, divisor):
            return quota >= f + 0.5

    with pytest.raises(TypeError, match="must provide margin"):
        MethodSpec(NoMargin())
    NoMargin.divisor_dependent = False
    MethodSpec(NoMargin())  # constant marks are crossed in closed form


def test_infeasible_under_one_seat_rules():
    with pytest.raises(InfeasibleTarget):
        apportion_for_house_size(states_of(1.0, 2.0, 3.0), 2,
                                 MethodSpec(ADAMS, BY_STATE))


def test_unachievable_target_reports_neighbors():
    # three equal states under Adams produce only totals that are
    # multiples of three
    with pytest.raises(TargetUnachievable) as err:
        apportion_for_house_size(states_of(1.0, 1.0, 1.0), 5,
                                 MethodSpec(ADAMS, BY_STATE))
    assert err.value.nearest_below == 3
    assert err.value.nearest_above == 6


@pytest.mark.parametrize("pops, target, method, below, above", [
    # the probes v_T/15 and v_T/10 are the candidates 3/3 and 3/2, and
    # 10 seats are only reached beyond them
    ((3.0,) * 5, 14, MethodSpec(ADAMS, BY_STATE), 10, 15),
    # Jefferson rounds down, so the total above the target is only reached
    # below the lower probe; so too in family mode and with a seat floor
    ((1.0, 3.0, 3.0, 2.0), 6, MethodSpec(JEFFERSON, BY_STATE), 5, 9),
    ((3.0, 1.0, 2.0, 6.0, 4.0), 12, MethodSpec(JEFFERSON, BY_FAMILY), 11, 16),
    ((5.0, 3.0, 5.0, 3.0, 6.0), 11, MethodSpec(WEBSTER, BY_STATE, min_seat_floor=1), 9, 13),
])
def test_unachievable_nearest_totals_beyond_the_probed_window(pops, target, method,
                                                             below, above):
    # the nearest totals are those over the fixed-slack window
    with pytest.raises(TargetUnachievable) as err:
        apportion_for_house_size(states_of(*pops), target, method)
    assert err.value.nearest_below == below
    assert err.value.nearest_above == above


@pytest.mark.parametrize("pops, target, method", [
    ((5e-324,), 3, MethodSpec(JEFFERSON, BY_FAMILY)),
    ((5e-324, 5e-324), 5, MethodSpec(JEFFERSON)),
    ((5e-324,), 3, MethodSpec(ADAMS, BY_FAMILY)),
    ((5e-324,), 3, MethodSpec(DistributionMarks(LogNormal(0.0, 1.0)))),
], ids=["jefferson-family", "jefferson-state", "adams-family", "lognormal-state"])
def test_a_window_whose_lower_cap_underflows_is_refused(pops, target, method):
    # v_T/(target + slack) rounds to 0, where every quota would be infinite
    with pytest.raises(InfeasibleTarget, match="is one float or starts at 0"):
        apportion_for_house_size(states_of(*pops), target, method)


@pytest.mark.parametrize("call", ["piecewise_apportionments", "breakpoints", "scan_alabama"])
def test_sweeps_refuse_hamilton(call):
    with pytest.raises(ApportionmentError, match="Hamilton's method has no divisor sweep"):
        STATE_CHECK_CALLS[call](states_of(1.0, 2.0), MethodSpec(HAMILTON))


def test_target_validation():
    with pytest.raises(ValueError):
        apportion_for_house_size(states_of(1.0), 0, MethodSpec(WEBSTER))


STATE_CHECK_METHODS = {
    "webster/state": MethodSpec(WEBSTER, BY_STATE),
    "webster/family": MethodSpec(WEBSTER, BY_FAMILY),
    "lognormal": MethodSpec(DistributionMarks(LogNormal(0.0, 1.0))),
    "hamilton": MethodSpec(HAMILTON),
}
STATE_CHECK_CALLS = {
    "apportion_at_divisor": lambda states, m: apportion_at_divisor(states, 1.0, m),
    "apportion_for_house_size": lambda states, m: apportion_for_house_size(states, 5, m),
    "piecewise_apportionments": lambda states, m: piecewise_apportionments(states, m, 0.5, 2.0),
    "breakpoints": lambda states, m: breakpoints(states, m, 0.5, 2.0),
    "scan_alabama": lambda states, m: scan_alabama(states, m, 0.5, 2.0),
}


@pytest.mark.parametrize("states, message", [
    ((), "need at least one state"),
    ((StateProfile("a", 1.0), StateProfile("b", 2.0), StateProfile("a", 3.0)),
     "duplicate state names: a"),
], ids=["empty", "duplicate"])
@pytest.mark.parametrize("call, method", [  # Hamilton has no divisor and no sweep
    pytest.param(call, method, id=f"{call}-{method}")
    for call in STATE_CHECK_CALLS for method in STATE_CHECK_METHODS
    if method != "hamilton" or call == "apportion_for_house_size"])
def test_every_entry_point_checks_the_states(call, method, states, message):
    # with compute_quotas' checks and messages, before any window is computed
    with pytest.raises(ValueError) as err:
        STATE_CHECK_CALLS[call](states, STATE_CHECK_METHODS[method])
    assert err.type is ValueError and str(err.value) == message


OVERFLOW_CALLS = {
    "apportion_at_divisor": lambda states, m, d: apportion_at_divisor(states, d, m),
    "apportion_for_house_size": lambda states, m, d: apportion_for_house_size(states, 2, m),
    "piecewise_apportionments": lambda states, m, d: piecewise_apportionments(states, m, d, 10 * d),
    "breakpoints": lambda states, m, d: breakpoints(states, m, d, 10 * d),
    "scan_alabama": lambda states, m, d: scan_alabama(states, m, d, 10 * d),
}


OVERFLOWS = {  # (populations, divisor or window's lower end, message)
    "total": ((1e308, 1e308), 1e-300, "the total population overflows a float"),
    "quotas": ((1.0, 2.0), 1e-309, "the quotas overflow a float at divisor 1e-309"),
}


@pytest.mark.parametrize("call, method, overflow", [
    pytest.param(call, method, overflow, id=f"{call}-{method}-{overflow}")
    for call in OVERFLOW_CALLS for method in STATE_CHECK_METHODS for overflow in OVERFLOWS
    # Hamilton has no divisor and no sweep; v_T/N cannot overflow unless v_T does
    if (method != "hamilton" or call == "apportion_for_house_size")
    and (overflow == "total" or call != "apportion_for_house_size")])
def test_every_entry_point_refuses_overflowing_quotas(call, method, overflow):
    pops, divisor, message = OVERFLOWS[overflow]
    with pytest.raises(ValueError) as err:
        OVERFLOW_CALLS[call](states_of(*pops), STATE_CHECK_METHODS[method], divisor)
    assert err.type is ValueError and str(err.value) == message


def test_a_family_quota_sum_may_not_overflow():
    # each quota is 1e308, a float, but the family holding both sums to inf
    states = states_of(1e307, 1e307)
    by_state = MethodSpec(WEBSTER, BY_STATE)
    assert apportion_at_divisor(states, 0.1, by_state) == \
        eager_apportionment(states, 0.1, by_state)
    with pytest.raises(ValueError, match="the quotas overflow a float at divisor 0.1"):
        apportion_at_divisor(states, 0.1, MethodSpec(WEBSTER, BY_FAMILY))


def test_a_family_quota_fsum_beyond_the_float_range_is_refused():
    # v_T/D is the largest float, but the seven quotas, each rounded up, sum
    # beyond it, where fsum raises OverflowError: the family is refused first
    states, d = states_of(*[2.565959902246384e307] * 7), 0.9991538025815717
    assert math.fsum(s.population for s in states) / d == sys.float_info.max
    with pytest.raises(OverflowError):
        math.fsum(s.population / d for s in states)
    method = MethodSpec(WEBSTER, BY_FAMILY)
    for call in ("apportion_at_divisor", "piecewise_apportionments", "breakpoints"):
        with pytest.raises(ValueError) as err:
            OVERFLOW_CALLS[call](states, method, d)
        assert str(err.value) == f"the quotas overflow a float at divisor {d!r}"


@pytest.mark.parametrize("mode", [BY_STATE, BY_FAMILY])
@pytest.mark.parametrize("sweep", [piecewise_apportionments, breakpoints, scan_alabama],
                         ids=["piecewise", "breakpoints", "alabama"])
def test_a_window_spanning_too_many_families_is_refused(sweep, mode):
    # about 6e300 candidate divisors; the count is bounded before any is listed
    with pytest.raises(ValueError) as err:
        sweep(states_of(1.0, 2.0, 3.0), MethodSpec(WEBSTER, mode), 1e-300, 1.0)
    assert err.type is ValueError
    assert str(err.value) == ("the divisor window [1e-300, 1.0] spans more than "
                              "262,144 families of the quotas; narrow it")


@pytest.mark.parametrize("states, target, rule, top", [
    (tuple(bundled_census(1960)), 450, power_law(2.0), (396058.4653481443, 397150.3644106671)),
    (states_of(17.713, 15.629, 14.895, 2.186, 13.443, 2.605), 44, HUNTINGTON_HILL,
     (1.4901666807319363, 1.541718759971638)),
], ids=["1960-powerlaw2-450", "hill-44"])
def test_a_vector_on_two_runs_reports_its_top_run(states, target, rule, top):
    # by family the total dips between two runs of one seat vector (an
    # Alabama-type swing); the solution is the run with the larger divisors
    method = MethodSpec(rule, BY_FAMILY)
    (solution,) = apportion_for_house_size(states, target, method)
    assert solution.d_interval == top
    runs = [(lo, hi) for lo, hi, app in piecewise_apportionments(states, method, top[0] / 1.01,
                                                                 top[1])
            if app.seats == solution.seats]
    assert len(runs) == 2 and runs[1] == top


# --- breakpoints ----------------------------------------------------------

def test_breakpoints_single_state():
    pts = breakpoints(states_of(400.0), MethodSpec(WEBSTER, BY_STATE), 90.0, 140.0)
    assert len(pts) == 1
    assert pts[0] == pytest.approx(400 / 3.5)


def test_breakpoints_family_boundary():
    pts = breakpoints(states_of(0.999, 1.43), MethodSpec(HUNTINGTON_HILL, BY_FAMILY),
                      0.99, 1.01)
    assert any(abs(p - 0.999) < 1e-9 for p in pts)


def test_breakpoints_empty_range():
    pts = breakpoints(states_of(400.0), MethodSpec(WEBSTER, BY_STATE), 113.0, 114.0)
    assert pts == []


def test_piecewise_constant_between_breakpoints():
    rng = random.Random(7)
    states = states_of(0.8, 2.3, 4.45, 9.1)
    for method in (MethodSpec(WEBSTER, BY_FAMILY), MethodSpec(HUNTINGTON_HILL, BY_STATE)):
        pieces = piecewise_apportionments(states, method, 0.3, 3.0)
        for lo, hi, app in pieces:
            span_lo = max(lo, 0.3)
            span_hi = min(hi, 3.0)
            for _ in range(3):
                d = rng.uniform(span_lo, span_hi)
                if not span_lo < d <= span_hi:
                    continue
                probe = apportion_at_divisor(states, d, method)
                assert probe.seats == app.seats


# --- invariants -----------------------------------------------------------

@given(
    pops=st.lists(st.floats(min_value=0.05, max_value=40.0), min_size=1, max_size=12),
    divisor=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=150, deadline=None)
def test_family_mode_invariants(pops, divisor):
    states = states_of(*pops)
    app = apportion_at_divisor(states, divisor, MethodSpec(WEBSTER, BY_FAMILY))
    part = partition_families(compute_quotas(states, divisor))
    # conservation within each family and the |S_f - Q_f| < 1 bound
    for fam in part:
        s_f = sum(app.seats[m.state.name] for m in fam.members)
        assert fam.index * fam.size <= s_f <= (fam.index + 1) * fam.size
        assert abs(s_f - fam.quota) < 1.0
        for m in fam.members:
            assert app.seats[m.state.name] in (fam.index, fam.index + 1)
    # population monotonicity across the whole instance
    ordered = sorted(states, key=lambda s: s.population)
    for a, b in zip(ordered, ordered[1:]):
        if b.population > a.population:
            assert app.seats[b.name] >= app.seats[a.name]


def clear_of_rounding_boundaries(states, divisor, rule):
    """False when a quota sits so close to an integer or a family quota so
    close to its mark that float noise in v/D decides the tie."""
    entries = compute_quotas(states, divisor)
    for e in entries:
        if abs(e.quota - round(e.quota)) < 1e-9 * max(1.0, e.quota):
            return False
    for fam in partition_families(entries):
        mark = rule.mark_at(math.floor(fam.quota), divisor)  # the mark Q_f is rounded against
        if abs(fam.quota - mark) < 1e-9 * max(1.0, fam.quota):
            return False
    return True


@given(
    pops=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=10),
    divisor=st.floats(min_value=0.2, max_value=5.0),
    lam=st.sampled_from([0.5, 2.0, 10.0]),
    beta=st.sampled_from([-3.0, -1.0, 0.0, 1.0, 2.5]),
)
@settings(max_examples=150, deadline=None)
def test_power_law_homogeneity(pops, divisor, lam, beta):
    rule = power_law(beta)
    method = MethodSpec(rule, BY_FAMILY)
    base_states = states_of(*pops)
    scaled_states = states_of(*(p * lam for p in pops))
    assume(clear_of_rounding_boundaries(base_states, divisor, rule))
    assume(clear_of_rounding_boundaries(scaled_states, divisor * lam, rule))
    base = apportion_at_divisor(base_states, divisor, method)
    scaled = apportion_at_divisor(scaled_states, divisor * lam, method)
    assert base.seats == scaled.seats


def test_d_monotone_methods_never_lose_seats():
    # Webster-by-family and any by-state signpost rule award weakly more
    # seats to every state as the divisor falls
    rng = random.Random(42)
    methods = [
        MethodSpec(WEBSTER, BY_FAMILY),
        MethodSpec(WEBSTER, BY_STATE),
        MethodSpec(HUNTINGTON_HILL, BY_STATE),
        MethodSpec(ADAMS, BY_STATE),
        MethodSpec(power_law(2.5), BY_STATE),
    ]
    for trial in range(12):
        n = rng.randint(1, 9)
        pops = [rng.uniform(0.1, 30.0) for _ in range(n)]
        states = states_of(*pops)
        for method in methods:
            pieces = piecewise_apportionments(states, method, 0.2, 4.0)
            # pieces ascend in D; walk downward and require no seat drop
            for (lo1, hi1, low_app), (lo2, hi2, high_app) in zip(pieces, pieces[1:]):
                for name in low_app.seats:
                    assert low_app.seats[name] >= high_app.seats[name]


@given(
    quotas=st.lists(
        st.floats(min_value=0.05, max_value=30.0).filter(
            lambda q: 0.05 < q % 1.0 < 0.95),
        min_size=1, max_size=8, unique=True,
    ),
)
@settings(max_examples=150, deadline=None)
def test_singleton_families_make_modes_agree(quotas):
    # force distinct integer parts so every family is a singleton
    pops = [i * 1.0 + (q % 1.0) for i, q in enumerate(quotas, start=1)]
    states = states_of(*pops)
    for rule in (WEBSTER, HUNTINGTON_HILL, power_law(0.0)):
        by_state = apportion_at_divisor(states, 1.0, MethodSpec(rule, BY_STATE))
        by_family = apportion_at_divisor(states, 1.0, MethodSpec(rule, BY_FAMILY))
        assert by_state.seats == by_family.seats


def webster_family_reference(pops, d):
    """Independent re-implementation used as an oracle: group quotas by
    integer part, round each family quota to the nearest integer (exact
    halves up), then give the surplus to the largest members."""
    fams = {}
    for i, v in enumerate(pops):
        q = v / d
        fams.setdefault(math.floor(q), []).append((f"s{i}", q))
    seats = {}
    for f, members in fams.items():
        quota = math.fsum(q for _, q in members)
        g = math.floor(quota)
        s_f = g if quota == g else (g + 1 if quota - g >= 0.5 else g)
        members = sorted(members, key=lambda t: (t[1], t[0]))
        m_high = s_f - f * len(members)
        cut = len(members) - m_high
        for rank, (name, _) in enumerate(members):
            seats[name] = f + (1 if rank >= cut else 0)
    return seats


def test_webster_family_oracle_small_instances():
    rng = random.Random(1234)
    for trial in range(40):
        n = rng.randint(1, 6)
        pops = [round(rng.uniform(0.2, 8.0), 3) for _ in range(n)]
        states = states_of(*pops)
        v_t = math.fsum(pops)
        d_lo = v_t / 30.5
        d_hi = max(pops) * 2.1
        if d_lo >= d_hi:
            d_lo = d_hi / 50
        method = MethodSpec(WEBSTER, BY_FAMILY)
        pieces = piecewise_apportionments(states, method, d_lo, d_hi)
        # every piece agrees with the oracle at interior probes
        for lo, hi, app in pieces:
            lo_c, hi_c = max(lo, d_lo), min(hi, d_hi)
            for frac in (0.25, 0.5, 0.75):
                d = lo_c + (hi_c - lo_c) * frac
                assert webster_family_reference(pops, d) == app.seats, (pops, d)
        # dense random probing: every probed result appears as the
        # containing piece's value (no missed breakpoints)
        for _ in range(120):
            d = math.exp(rng.uniform(math.log(d_lo), math.log(d_hi)))
            want = webster_family_reference(pops, d)
            holder = next((app for lo, hi, app in pieces if lo < d <= hi), None)
            assert holder is not None and holder.seats == want, (pops, d)
        # house-size search agrees with the per-total grouping of pieces
        totals = {}
        for lo, hi, app in pieces:
            totals.setdefault(app.total_seats, set()).add(
                tuple(sorted(app.seats.items())))
        for target, vectors in totals.items():
            if target < 1:
                continue
            sols = apportion_for_house_size(states, target, method)
            got = {tuple(sorted(s.seats.items())) for s in sols}
            assert vectors <= got, (pops, target)


def test_search_results_carry_disjoint_descending_intervals():
    states = states_of(0.999, 1.43, 62.4375)
    sols = apportion_for_house_size(states, 65, MethodSpec(HUNTINGTON_HILL, BY_FAMILY))
    his = [s.d_interval[1] for s in sols]
    assert his == sorted(his, reverse=True)
    for (lo1, hi1), (lo2, hi2) in zip(
            (s.d_interval for s in sols), (s.d_interval for s in sols[1:])):
        assert hi2 <= lo1 or hi1 <= lo2


# --- the event sweep against the fixed-divisor oracle ---------------------

CENSUS_YEARS = (1960, 1970, 1980, 1990, 2000, 2010, 2020)
SWEEP_RULES = (ADAMS, DEAN, HUNTINGTON_HILL, WEBSTER, JEFFERSON, power_law(2.0))


def assert_sweep_matches_oracle(states, method, d_lo, d_hi):
    """Direct apportionment at the midpoint of every candidate interval
    equals the seats of the piece holding it; adjacent pieces differ."""
    states = tuple(states)
    pieces = piecewise_apportionments(states, method, d_lo, d_hi)
    for (_, _, below), (_, _, above) in zip(pieces, pieces[1:]):
        assert below.seats != above.seats
    cands = [d for d, _ in _crossing_events(engine._Direct(states, method), d_lo, d_hi)]
    k = 0
    for a, b in zip(cands, cands[1:]):
        mid = 0.5 * (a + b)
        if not a < mid < b:
            continue
        while pieces[k][1] < b:
            k += 1
        lo, hi, app = pieces[k]
        assert lo <= a and b <= hi, (method, a, b)
        assert apportion_at_divisor(states, mid, method).seats == app.seats, (method, mid)


@pytest.mark.parametrize("mode", [BY_STATE, BY_FAMILY])
@pytest.mark.parametrize("year", CENSUS_YEARS)
def test_sweep_matches_oracle_on_census(year, mode):
    states = bundled_census(year)
    v_t = math.fsum(s.population for s in states)
    for rule in SWEEP_RULES:
        assert_sweep_matches_oracle(states, MethodSpec(rule, mode), v_t / 600, v_t / 300)


def test_sweep_matches_oracle_with_seat_floor():
    states = bundled_census(2020)
    v_t = math.fsum(s.population for s in states)
    for rule in (ADAMS, HUNTINGTON_HILL, WEBSTER, JEFFERSON):
        for mode in (BY_STATE, BY_FAMILY):
            assert_sweep_matches_oracle(states, MethodSpec(rule, mode, min_seat_floor=1),
                                        v_t / 600, v_t / 300)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0])
def test_sweep_matches_oracle_with_lognormal_marks(sigma):
    for year in (2000, 2020):
        states = bundled_census(year)
        v_t = math.fsum(s.population for s in states)
        dist = LogNormal(math.log(5.0 * v_t / 435), sigma)
        marks = DistributionMarks(dist)
        for mode in (BY_STATE, BY_FAMILY):
            assert_sweep_matches_oracle(states, MethodSpec(marks, mode), v_t / 445, v_t / 425)


def test_sweep_raises_rather_than_return_stale_seats():
    # r(1, D)·D drops inside [0.8, 0.86]: the enumeration cannot bracket
    # that crossing, and the piece starting at D = 0.8 (a crossing of the
    # second state) must not report the first state's seats from below it
    def marks(f, d):
        return f + (0.01 if f == 1 and 0.8 <= d <= 0.86 else 0.5)

    standard = LogNormal(0.0, 1.0)
    method = MethodSpec(DistributionMarks(standard, marks), BY_STATE)
    with pytest.raises(ApportionmentError, match="missed a crossing"):
        piecewise_apportionments(states_of(1.0, 10.0), method, 0.5, 2.0)


def test_reround_agrees_with_a_full_evaluation_at_every_interval(monkeypatch):
    # the piece guard evaluates only each piece's first candidate interval;
    # here every reround is checked against seats_at at its own midpoint
    reround, calls = engine._Direct.reround, []

    def checked(self, divisor, state_ids, family_ids):
        before = list(self.seats)
        moved = reround(self, divisor, state_ids, family_ids)
        assert tuple(self.seats) == self.seats_at(divisor), (self.method, divisor)
        assert moved == (self.seats != before), (self.method, divisor)
        calls.append(moved)
        return moved

    monkeypatch.setattr(engine._Direct, "reround", checked)
    states = bundled_census(2020)
    v_t = math.fsum(s.population for s in states)
    for mode in (BY_STATE, BY_FAMILY):
        for rule in (WEBSTER, HUNTINGTON_HILL, ADAMS):
            for floor in (None, 1):
                piecewise_apportionments(states, MethodSpec(rule, mode, floor),
                                         v_t / 600, v_t / 300)
        marks = DistributionMarks(LogNormal(math.log(5.0 * v_t / 435), 1.0))
        apportion_for_house_size(states, 435, MethodSpec(marks, mode))
    # Hill by family: at D = 1 the first state leaves family 1 for family 0,
    # and the second state gains the seat the third loses, at an unchanged total
    pieces = piecewise_apportionments(states_of(1.0, 1.43, 0.3),
                                      MethodSpec(HUNTINGTON_HILL, BY_FAMILY), 0.95, 1.05)
    assert [(hi, tuple(app.seats.values())) for _, hi, app in pieces][1:3] == \
        [(1.0, (1, 1, 1)), (1.0111626970967629, (1, 2, 0))]
    rng = random.Random(20261019)
    for _ in range(30):  # populations from a small pool, so that some tie
        pool = [rng.randint(1, 40) / 4 for _ in range(rng.randint(1, 6))]
        small = states_of(*(rng.choice(pool) for _ in range(rng.randint(1, 10))))
        for rule in (WEBSTER, HUNTINGTON_HILL, ADAMS):
            for mode in (BY_STATE, BY_FAMILY):
                piecewise_apportionments(small, MethodSpec(rule, mode, rng.choice((None, 1))),
                                         0.3, 1.7)
    assert len(calls) > 10_000 and calls.count(False) > 1000


def test_every_entry_point_raises_rather_than_return_stale_seats():
    # these marks hide the first state's crossing at D = 0.86 in both modes
    # (the two states never share a family): the sweep's piece holding
    # D = 0.8166… carries 13 seats where direct apportionment gives 14
    def marks(f, d):
        return f + (0.01 if f == 1 and 0.8 <= d <= 0.86 else 0.5)

    states = states_of(1.0, 10.0)
    for mode in (BY_STATE, BY_FAMILY):
        method = MethodSpec(DistributionMarks(LogNormal(0.0, 1.0), marks), mode)
        for run in (lambda: piecewise_apportionments(states, method, 0.5, 2.0),
                    lambda: breakpoints(states, method, 0.5, 2.0),
                    lambda: scan_alabama(states, method, 0.5, 2.0),
                    lambda: apportion_for_house_size(states, 13, method)):
            with pytest.raises(ApportionmentError, match="missed a crossing"):
                run()


def dropping_event(monkeypatch, k):
    """Make ``_crossing_events`` lose its k-th event, as a missed crossing would."""
    events = engine._crossing_events
    monkeypatch.setattr(engine, "_crossing_events",
                        lambda *args: [e for j, e in enumerate(events(*args)) if j != k])


def dropped_event_window(year):
    states = tuple(bundled_census(year))
    v_t = math.fsum(s.population for s in states)
    return states, v_t / 600, v_t / 300


@pytest.mark.parametrize("rule,k", [(WEBSTER, 153), (HUNTINGTON_HILL, 153),
                                    (HUNTINGTON_HILL, 438)], ids=["webster-153", "hill-153",
                                                                   "hill-438"])
def test_a_stale_family_in_the_sweep_raises_a_typed_error(monkeypatch, rule, k):
    # without the event a state stays listed in its old family; the guard
    # finds it stale at the last point before the sweep next moves it
    states, d_lo, d_hi = dropped_event_window(1980)
    dropping_event(monkeypatch, k)
    with pytest.raises(ApportionmentError, match="missed a crossing"):
        piecewise_apportionments(states, MethodSpec(rule, BY_FAMILY), d_lo, d_hi)


def test_a_stale_family_array_puts_seats_out_of_range_in_reround():
    # the first state (quota 1.0) listed in family 2 with the other two: the
    # family's quota sum 5.3 rounds to 5 seats, below its 3 members' 6, and
    # reround raises that rather than split it
    direct = engine._Direct(states_of(1.0, 2.1, 2.2), MethodSpec(WEBSTER, BY_FAMILY))
    direct.start(1.0)
    assert direct.family == [1, 2, 2]
    direct.family[0] = 2
    with pytest.raises(ApportionmentError, match="missed a crossing .*family 2: seats 5 "
                                                 "outside \\[6, 9\\]"):
        direct.reround(1.0, [], [2])


def test_dropped_events_raise_no_untyped_error():
    # every 7th interior event of 1980 under Webster, Hill and Adams in both
    # modes, dropped one at a time (tests/drop_harness.py): the sweep raises
    # ApportionmentError, or returns pieces that hold at every point it
    # evaluates, and nothing else
    outcomes = drop_harness.drop_outcomes(stride=7)
    assert not any(outcomes[fault] for fault in drop_harness.FAULTS), outcomes
    assert sum(outcomes.values()) == 499 and outcomes["raised"] > 0, outcomes


def test_only_moving_marks_are_checked_piece_by_piece(monkeypatch):
    # under constant marks the sweep checks each item where it moves, so no
    # range operation or house-size search reads a piece at its divisor;
    # under moving marks every piece and each solution's neighbours still are
    check, checked = engine._Direct.check, []

    def counted(self, piece):
        checked.append(piece)
        check(self, piece)

    monkeypatch.setattr(engine._Direct, "check", counted)
    states = bundled_census(2020)
    v_t = math.fsum(s.population for s in states)
    for mode in (BY_STATE, BY_FAMILY):
        method = MethodSpec(WEBSTER, mode)
        piecewise_apportionments(states, method, v_t / 600, v_t / 300)
        breakpoints(states, method, v_t / 600, v_t / 300)
        scan_alabama(states, method, v_t / 600, v_t / 300)
        apportion_for_house_size(states, 435, method)
    assert checked == []
    method = MethodSpec(DistributionMarks(LogNormal(math.log(5.0 * v_t / 435), 1.0)), BY_FAMILY)
    assert len(piecewise_apportionments(states, method, v_t / 445, v_t / 425)) == len(checked)
    checked.clear()
    assert len(apportion_for_house_size(states, 435, method)) == 1 and len(checked) == 3


def test_house_size_search_checks_the_pieces_next_to_a_solution():
    # near the support edge the decision rounds_up(5.66…/D, 1, D) flips many
    # times within a few ulps, so the crossing found depends on the bracket:
    # the solution runs over (4.013607483825648, 172.59965490956887], and the
    # piece below it, (4.013607406960038, 4.013607483825648], keeps stale
    # seats (2, 1, 1); its upper end is the solution's lower one
    states = states_of(6.630387852391515, 3.966941559043632, 5.664619264775566)
    method = MethodSpec(DistributionMarks(Uniform(0.0, 4.013607483847588)), BY_STATE)
    with pytest.raises(ApportionmentError, match="missed a crossing"):
        apportion_for_house_size(states, 3, method)
    with pytest.raises(ApportionmentError, match="missed a crossing"):
        piecewise_apportionments(states, method, 2.7103247793684524, 172.599655082167)


# --- mark crossings in D ----------------------------------------------------

def step_marks(f, d):
    # the marks of the two tests above: r(1, D)·D drops inside [0.8, 0.86]
    return f + (0.01 if f == 1 and 0.8 <= d <= 0.86 else 0.5)


def is_decision_flip(value, f, rounding, d):
    """The decision ``rounds_up(v/D, f, D)`` is true and false on the two
    adjacent floats of which ``d`` is one."""
    def decides(x):
        return rounding.rounds_up(value / x, f, x)
    below, above = ((d, math.nextafter(d, math.inf)) if decides(d)
                    else (math.nextafter(d, 0.0), d))
    return decides(below) and not decides(above)


def bisection_steps(value, f, rounding, d_lo, d_hi):
    """Interior decisions of plain bisection in D down to adjacent floats."""
    lo, hi, steps = d_lo, d_hi, 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        steps += 1
        if rounding.rounds_up(value / mid, f, mid):
            lo = mid
        else:
            hi = mid
    return steps


class CountingMarks(DistributionMarks):
    """Distribution marks that count their margin, rounds_up and mark_at calls."""

    margins = rounds_ups = mark_ats = 0

    def margin(self, quota, f, divisor):
        self.margins += 1
        return super().margin(quota, f, divisor)

    def rounds_up(self, quota, f, divisor):
        self.rounds_ups += 1
        return super().rounds_up(quota, f, divisor)

    def mark_at(self, f, divisor):
        self.mark_ats += 1
        return super().mark_at(f, divisor)


def test_mark_crossing_on_a_wide_bracket_is_the_decision_flip():
    # 120 halvings leave [1e-3, 1e40] about 7,500 wide, with a midpoint
    # (3761.58) where the decision is false on both sides: the root finder
    # must run to adjacent floats however many steps that takes; a bracket
    # wider than 2^-slack of the float range must not overflow its bound
    marks = DistributionMarks(LogNormal(0.0, 1.0))
    for d_hi in (1e30, 1e40, 1.5e308):
        d = _mark_times_d_crossing(5.0, 2, marks, 1e-3, d_hi)
        assert d == 2.035736937462085
        assert is_decision_flip(5.0, 2, marks, d)


class MarginOf:
    """A rounding whose margin is a given function of D alone."""

    divisor_dependent = True
    margins = 0

    def __init__(self, margin_of):
        self.margin_of = margin_of

    def margin(self, quota, f, divisor):
        self.margins += 1
        return self.margin_of(divisor)

    def rounds_up(self, quota, f, divisor):
        return self.margin_of(divisor) >= 0.0


def test_mark_crossing_with_degenerate_margins_is_the_decision_flip():
    # margins that are zero, subnormal, infinite or NaN give false position
    # nothing to interpolate; the probe falls back to the midpoint
    for margin_of in (lambda d: 0.0 if d < 1.3 else -5e-324,
                      lambda d: math.inf if d < 1.3 else -math.inf,
                      lambda d: 1.0 if d < 1.0 else math.nan if d < 1.3 else -1.0):
        rounding = MarginOf(margin_of)
        d = _mark_times_d_crossing(1.0, 0, rounding, 0.5, 2.0)
        assert is_decision_flip(1.0, 0, rounding, d)


def test_mark_crossings_take_at_most_bisection_steps_plus_slack():
    # the step-function marks above, and margins so lopsided that unguarded
    # false position creeps toward the root an ulp or so at a time
    cases = [(value, f, CountingMarks(LogNormal(0.0, 1.0), step_marks))
             for value in (1.0, 10.0) for f in range(25)]
    cases += [(1.0, 0, MarginOf(margin_of))
              for margin_of in (lambda d: 1.0 if d < 1.3 else -1e-300,
                                lambda d: 1e-300 if d < 1.3 else -1.0,
                                lambda d: (1.3 - d) ** 9 if d < 1.3 else -(d - 1.3) ** 0.1)]
    bracketed = 0
    for d_lo, d_hi in [(0.5, 2.0), (0.5, 0.81), (0.79, 0.87), (1e-3, 1e30)]:
        for value, f, rounding in cases:
            rounding.margins = 0
            d = _mark_times_d_crossing(value, f, rounding, d_lo, d_hi)
            if d is None:
                continue
            bracketed += 1
            steps = rounding.margins - 2  # both ends are decided first
            assert steps <= bisection_steps(value, f, rounding, d_lo, d_hi) + _ILLINOIS_SLACK + 1
            assert is_decision_flip(value, f, rounding, d), (value, f, d_lo, d_hi)
    assert bracketed >= 80


class RecordingMarks(DistributionMarks):
    """Distribution marks that record the family of every mark they test."""

    def margin(self, quota, f, divisor):
        self.families.append(f)
        return super().margin(quota, f, divisor)

    def mark_at(self, f, divisor):
        self.families.append(f)
        return super().mark_at(f, divisor)


def test_mark_crossings_test_only_the_families_the_window_reads():
    # a rounding of v/D with D in [d_lo, d_hi] reads a family between
    # floor(v/d_hi) and floor(v/d_lo), so no other family's mark is tested,
    # for moving marks and constant ones alike
    windows = [(0.5, 2.0), (0.79, 0.87), (2.0, 2.5), (3.0, 40.0), (0.2, 300.0)]
    for value in (1.0, 7.5, 10.0, 123.45):
        for d_lo, d_hi in windows:
            for rounding, moving in ((LogNormal(0.0, 1.0), True), (Uniform(0.0, 3.0), True),
                                     (LogNormal(0.0, 1.0), False)):
                marks = RecordingMarks(rounding, None if moving else lambda f, d: f + 0.5)
                marks.families, marks.divisor_dependent = [], moving
                _mark_crossings(value, engine._Direct(states_of(value), MethodSpec(marks)),
                                d_lo, d_hi)
                read = range(math.floor(value / d_hi), math.floor(value / d_lo) + 1)
                assert marks.families and set(marks.families) <= set(read), \
                    (value, d_lo, d_hi, rounding, sorted(set(marks.families)))


def test_every_mark_crossing_is_a_decision_flip(monkeypatch):
    # every crossing the root finder returns on the lognormal-house windows,
    # widened by the house sizes 425 and 445, and by state on the fixed-slack
    # windows v_T/(N ± (n + 1)) the decided seat bounds narrow (and on a
    # uniform law's), checked at float resolution; bisection takes about 48
    # interior decisions per lognormal crossing, the solver about 12
    calls, steps = [], []
    solve = engine._mark_times_d_crossing

    def recording(value, f, rounding, d_lo, d_hi):
        before = getattr(rounding, "margins", 0)
        d = solve(value, f, rounding, d_lo, d_hi)
        if d is not None:
            calls.append((value, f, rounding, d))
            if isinstance(rounding, CountingMarks):
                steps.append(rounding.margins - before - 2)
        return d

    monkeypatch.setattr(engine, "_mark_times_d_crossing", recording)
    for year in (2000, 2020):
        states = bundled_census(year)
        v_t = math.fsum(s.population for s in states)
        for sigma in (0.3, 1.0, 2.0):
            marks = CountingMarks(LogNormal(math.log(5.0 * v_t / 435), sigma))
            for mode in (BY_STATE, BY_FAMILY):
                for target in (435, 430, 440, 425, 445):
                    apportion_for_house_size(states, target, MethodSpec(marks, mode))
            for target in (435, 430, 440, 425, 445):
                slack = len(states) + 1
                breakpoints(states, MethodSpec(marks), v_t / (target + slack),
                            v_t / (target - slack))
    states = bundled_census(2020)
    uniform = DistributionMarks(Uniform(0.0, 1.2 * max(s.population for s in states)))
    for mode in (BY_STATE, BY_FAMILY):
        apportion_for_house_size(states, 435, MethodSpec(uniform, mode))
    assert len(calls) > 2000 and len(steps) > 1900
    assert sum(steps) / len(steps) < 15
    assert {type(r.distribution) for _, _, r, _ in calls} == {LogNormal, Uniform}
    for value, f, rounding, d in calls:
        assert is_decision_flip(value, f, rounding, d), (value, f, rounding, d)


# --- lazy quota tables against eagerly built ones --------------------------

def eager_apportionment(states, divisor, method):
    """Direct apportionment from an eagerly built quota table and its
    family partition, with every seat rounded by ``round_quota``."""
    table = QuotaTable(divisor, tuple(QuotaEntry(s, s.population / divisor) for s in states))
    if method.mode == BY_STATE:
        seats = {e.state.name: round_quota(e.quota, method.rounding, divisor) for e in table}
    else:
        seats = {}
        for fam in partition_families(table):
            m_low, _ = positional_split(
                fam.index, fam.size, round_quota(fam.quota, method.rounding, divisor))
            for i, entry in enumerate(fam.members):
                seats[entry.state.name] = fam.index + (i >= m_low)
    floor = method.min_seat_floor or 0
    seats = {s.name: max(seats[s.name], floor) for s in states}
    return Apportionment(divisor, seats, table)


def assert_same_as_eager(app, states, method):
    """``app`` prints, compares and reads exactly as one built eagerly at its divisor."""
    want = eager_apportionment(states, app.divisor, method)
    want = Apportionment(want.divisor, want.seats, want.quotas, app.d_interval)
    assert repr(app) == repr(want)  # read first: repr alone must build the table
    assert app == want
    assert app.quotas == compute_quotas(states, app.divisor)
    assert type(app.quotas) is QuotaTable
    assert [e.quota.hex() for e in app.quotas] == [e.quota.hex() for e in want.quotas]


def test_lazy_quota_tables_change_nothing_visible():
    states = bundled_census(2020)
    v_t = math.fsum(s.population for s in states)
    for mode in (BY_STATE, BY_FAMILY):
        method = MethodSpec(WEBSTER, mode)
        for _, _, app in piecewise_apportionments(states, method, v_t / 600, v_t / 300):
            assert_same_as_eager(app, states, method)
        for app in apportion_for_house_size(states, 435, method):
            assert_same_as_eager(app, states, method)
        assert_same_as_eager(apportion_at_divisor(states, v_t / 435, method), states, method)
    floored = MethodSpec(JEFFERSON, BY_FAMILY, min_seat_floor=1)
    for _, _, app in piecewise_apportionments(states, floored, v_t / 445, v_t / 425):
        assert_same_as_eager(app, states, floored)
    for app in apportion_for_house_size(states, 435, floored):
        assert_same_as_eager(app, states, floored)
    assert_same_as_eager(apportion_at_divisor(states, v_t / 435, floored), states, floored)


# Family 0 at D = 1.0 is the first four states.  The exact sum of their
# quotas lies 2⁻¹⁰⁸ below 0.5 − 2⁻⁵⁵, the midpoint between Webster's mark 0.5
# and the float below it: math.fsum rounds it down, below the mark, and
# sum() rounds it up to 0.5, both left to right (Python < 3.12) and
# compensated (3.12 on), whose compensation drops the last 2⁻¹⁰⁸.  By fsum
# the family's volume meets the mark one ulp below 1.0 and the last state's
# boundary lies one ulp above, so the sweep evaluates a piece at exactly
# D = 1.0, where a family sum taken with sum() would give family 0 a seat.
FAMILY_SUM_STRADDLE = (1.3877787807814454e-17, 0.24450428398615617, 0.012017280131425098,
                       0.2434784358824187, 2.0000000000000004)


def test_family_quota_is_rounded_as_partition_families_sums_it():
    states = states_of(*FAMILY_SUM_STRADDLE)
    quotas = [e.quota for e in partition_families(compute_quotas(states, 1.0)).family(0).members]
    assert math.fsum(quotas) < 0.5 <= sum(quotas)
    method = MethodSpec(WEBSTER, BY_FAMILY)
    want = eager_apportionment(states, 1.0, method)
    assert apportion_at_divisor(states, 1.0, method) == want
    pieces = piecewise_apportionments(states, method, 0.9, 1.1)
    assert [app for _, _, app in pieces if app.divisor == 1.0] == [want]
    for _, _, app in pieces:
        assert_same_as_eager(app, states, method)
    solutions = apportion_for_house_size(states, want.total_seats, method)
    assert [app.seats for app in solutions if app.divisor == 1.0] == [want.seats]
    for app in solutions:
        assert_same_as_eager(app, states, method)


@pytest.mark.xfail(strict=True, reason="family membership by float quotas, open as ROADMAP "
                                       "item 1: three states whose fl(v/D) is 6.0 but whose "
                                       "exact v/D is below 6 get 18 seats under Jefferson by "
                                       "family, one state of their volume 17")
def test_a_family_volume_gets_its_seats_however_it_is_split():
    # family_quota lifts the three states' quota 18 − 2⁻⁴⁸ onto 18, as each
    # fl(v/D) is 6.0; the one state of their fsum keeps 18 − 2⁻⁴⁸
    divisor, v = 1.0672999219512012, 6.4037995317072065
    assert v / divisor == 6.0 and Fraction(v) / Fraction(divisor) < 6
    three, one = states_of(v, v, v), states_of(math.fsum([v, v, v]))
    assert math.fsum([v, v, v]) == 19.21139859512162
    for rule in (WEBSTER, ADAMS, JEFFERSON):
        method = MethodSpec(rule, BY_FAMILY)
        seats = [apportion_at_divisor(group, divisor, method).total_seats for group in (three, one)]
        assert seats == [18, 18], (rule, seats)


# --- the direct evaluator against per-state round_quota --------------------

def ulps_from(x, k):
    """The float ``k`` steps of one ulp from ``x`` (down for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def rounding_instances(draw, rule=None):
    """``(states, divisor)``: 1-8 states, ties among them, and populations at
    whole and half multiples of the divisor, so quotas land exactly on an
    integer f (meeting r(f) = f under Adams) and on Webster's marks.  With a
    ``rule``, also quotas within 2 ulps of its marks r(0) .. r(30), exactly
    so where the divisor is a power of two."""
    divisor = draw(st.sampled_from([1.0, 0.5, 3.0]) | st.floats(min_value=0.05, max_value=20.0))
    pops = (st.floats(min_value=0.01, max_value=40.0)
            | st.integers(1, 30).map(lambda k: k * divisor)
            | st.integers(1, 60).map(lambda k: k * divisor / 2))
    if rule is not None:
        pops |= st.builds(lambda f, k: ulps_from(rule.mark(f), k) * divisor,
                          st.integers(0, 30), st.integers(-2, 2)).filter(lambda v: v > 0)
    pool = draw(st.lists(pops, min_size=1, max_size=8))
    return states_of(*draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))), divisor


class FixedDraws:
    """A stand-in population law whose every sample is the given populations."""

    def __init__(self, pops):
        self.pops = pops

    def sample(self, rng, n):
        assert n == len(self.pops)
        return np.array(self.pops)


@given(data=st.data(),
       rule=st.sampled_from(SWEEP_RULES + (power_law(-1.0), power_law(0.0))),
       mode=st.sampled_from((BY_STATE, BY_FAMILY)),
       floor=st.sampled_from((None, 1, 2)))
@settings(max_examples=400, deadline=None)
def test_direct_rounding_equals_round_quota_per_state(data, rule, mode, floor):
    # one rounding decision on every route, each against round_quota per state
    # or family quota through partition_families: the evaluator's on its mark
    # table (apportion_at_divisor, and reround in a sweep whose midpoints lie
    # within ulps of the divisor), family_splits, and monte_carlo_bias's copy
    states, divisor = data.draw(rounding_instances(rule))
    method = MethodSpec(rule, mode, floor)
    want = eager_apportionment(states, divisor, method)
    assert apportion_at_divisor(states, divisor, method) == want
    if mode == BY_FAMILY:
        families = partition_families(want.quotas)
        seats = {}
        for split, fam in zip(family_splits(families, rule, divisor), families):
            for i, entry in enumerate(fam.members):
                seats[entry.state.name] = max(split.f + (i >= split.m_low), floor or 0)
        assert seats == want.seats
    for _, _, app in piecewise_apportionments(states, method, divisor * (1 - 2 ** -50),
                                              divisor * (1 + 2 ** -50)):
        assert app.seats == eager_apportionment(states, app.divisor, method).seats
    pops = [s.population for s in states]
    for row in monte_carlo_bias(FixedDraws(pops), divisor, rule, 1, len(pops), 0):
        quotas = [v / divisor for v in pops if math.floor(v / divisor) == row.f]
        assert row.mean_bias == pytest.approx(
            math.fsum(round_quota(q, rule, divisor) - q for q in quotas), abs=1e-9)


@given(instance=rounding_instances(),
       dist=st.sampled_from((LogNormal(0.0, 1.0), LogNormal(math.log(5.0), 0.5),
                             Uniform(0.0, 10.0), Uniform(2.0, 30.0))),
       floor=st.sampled_from((None, 1, 2)))
@settings(max_examples=200, deadline=None)
def test_family_rounding_under_moving_marks_equals_round_quota(instance, dist, floor):
    # moving marks never fill the mark table, so every family, one member or
    # more, is rounded by round_quota's rounds_up
    states, divisor = instance
    method = MethodSpec(DistributionMarks(dist), BY_FAMILY, floor)
    assert apportion_at_divisor(states, divisor, method) == \
        eager_apportionment(states, divisor, method)


class CountingWebster:
    """Webster's constant marks, counting the engine's calls to each entry."""

    divisor_dependent = False
    rounds_ups = mark_ats = 0

    def rounds_up(self, quota, f, divisor):
        self.rounds_ups += 1
        return WEBSTER.rounds_up(quota, f, divisor)

    def mark_at(self, f, divisor):
        self.mark_ats += 1
        return WEBSTER.mark_at(f, divisor)


def test_constant_marks_are_read_once_per_call_and_moving_ones_decided():
    # constant marks: each mark read from the rule once per call, no rounds_up
    states = bundled_census(2020)
    v_t = math.fsum(s.population for s in states)
    for mode in (BY_STATE, BY_FAMILY):
        rule = CountingWebster()
        pieces = piecewise_apportionments(states, MethodSpec(rule, mode), v_t / 600, v_t / 300)
        assert rule.rounds_ups == 0 and rule.mark_ats < 1000
        webster = piecewise_apportionments(states, MethodSpec(WEBSTER, mode), v_t / 600, v_t / 300)
        assert [(a, b, app.seats) for a, b, app in pieces] == \
            [(a, b, app.seats) for a, b, app in webster]
        rule = CountingWebster()
        solutions = apportion_for_house_size(states, 435, MethodSpec(rule, mode))
        assert rule.rounds_ups == 0
        assert [app.seats for app in solutions] == \
            [app.seats for app in apportion_for_house_size(states, 435, MethodSpec(WEBSTER, mode))]
    # moving marks: every rounding is decided by rounds_up, no mark is solved
    for mode in (BY_STATE, BY_FAMILY):
        marks = CountingMarks(LogNormal(math.log(5.0 * v_t / 435), 1.0))
        apportion_at_divisor(states, v_t / 435, MethodSpec(marks, mode))
        roundings = len(states) if mode == BY_STATE else \
            len(partition_families(compute_quotas(states, v_t / 435)))
        assert (marks.rounds_ups, marks.mark_ats) == (roundings, 0)
        piecewise_apportionments(states, MethodSpec(marks, mode), v_t / 440, v_t / 430)
        assert marks.rounds_ups > roundings and marks.mark_ats == 0


class MarkReads:
    """A rule's constant marks, counting the reads of each mark r(f)."""

    divisor_dependent = False

    def __init__(self, rule):
        self.rule, self.reads = rule, Counter()

    def rounds_up(self, quota, f, divisor):
        self.reads[f] += 1
        return self.rule.rounds_up(quota, f, divisor)

    def mark_at(self, f, divisor):
        self.reads[f] += 1
        return self.rule.mark_at(f, divisor)


def test_every_constant_mark_is_read_at_most_once_per_call():
    # the window bounds, the candidate enumeration, the sweep and the guard
    # share one mark table per call, so no r(f) is read from the rule twice
    states = bundled_census(2020)
    v_t = math.fsum(s.population for s in states)
    calls = [
        (WEBSTER, lambda m: piecewise_apportionments(states, m, v_t / 600, v_t / 300)),
        (WEBSTER, lambda m: breakpoints(states, m, v_t / 600, v_t / 300)),
        (WEBSTER, lambda m: scan_alabama(states, m, v_t / 600, v_t / 300)),
        (WEBSTER, lambda m: apportion_for_house_size(states, 435, m)),
        (WEBSTER, lambda m: apportion_for_house_size(states, 5, m)),  # the freeze divisor
        # swept again over the fixed-slack window, by state
        (ADAMS, lambda m: apportion_for_house_size(states_of(*(3.0,) * 5), 14, m)),
    ]
    for rule, call in calls:
        for mode in (BY_STATE, BY_FAMILY):
            marks = MarkReads(rule)
            try:
                call(MethodSpec(marks, mode))
            except TargetUnachievable:
                pass
            assert marks.reads and max(marks.reads.values()) == 1, (rule, mode, marks.reads)


# --- impartiality: one family quota, fl(V_f/D) ------------------------------

def regrouped(volume, k):
    """An integer ``volume`` as ``k`` members, as equal as integers allow."""
    return states_of(*(float(volume // k + (i < volume % k)) for i in range(k)))


def one_family(states, *divisors):
    """Whether every state has the same floor(v/D) at each of ``divisors``."""
    return len({math.floor(s.population / d) for s in states for d in divisors}) == 1


def total_seats(states, divisor, rule, mode=BY_FAMILY):
    return apportion_at_divisor(states, divisor, MethodSpec(rule, mode)).total_seats


@given(rule=st.sampled_from(SWEEP_RULES), volume=st.integers(10 ** 6, 10 ** 7),
       g=st.integers(1, 40), ulps=st.integers(-4, 4),
       ks=st.lists(st.sampled_from((1, 2, 3, 5)), min_size=2, max_size=2, unique=True))
@settings(max_examples=300, deadline=None)
def test_family_mode_is_impartial(rule, volume, g, ulps, ks):
    # the paper's impartiality: one integer volume V as k members of family f
    # or as k' members of family f' gets the same seats, at a divisor within
    # a few ulps of V/r(g), where its quota meets a mark.  The sweep over a
    # window no member's boundary crosses lists the volume's crossings only,
    # so it gives both groupings the same pieces and totals too
    divisor = ulps_from(volume / rule.mark(g), ulps)
    window = divisor * (1 - 2 ** -48), divisor * (1 + 2 ** -48)
    groupings = [regrouped(volume, k) for k in ks]
    assume(all(one_family(states, divisor, *window) for states in groupings))
    assert len({total_seats(states, divisor, rule) for states in groupings}) == 1
    method = MethodSpec(rule, BY_FAMILY)
    sweeps = [[(lo, hi, app.total_seats)
               for lo, hi, app in piecewise_apportionments(states, method, *window)]
              for states in groupings]
    assert sweeps[0] == sweeps[1]


# (rule, V, D, k, k'): one pair per rule on which a family quota summed from
# its k rounded member quotas gives the two groupings unequal seats
UNEQUAL_BY_QUOTA_SUMS = [
    (WEBSTER, 1360946, 907297.3333333334, 3, 2),
    (HUNTINGTON_HILL, 4980118, 221393.24952809355, 1, 5),
    (ADAMS, 3654279, 135343.66666666666, 2, 1),
    (DEAN, 2915801, 1214917.0833333335, 5, 2),
    (JEFFERSON, 7260137, 1452027.4000000001, 3, 2),
    (power_law(2.0), 3991434, 257467.22218180294, 2, 5),
]


@pytest.mark.parametrize("rule, volume, divisor, k, k2", UNEQUAL_BY_QUOTA_SUMS)
def test_equal_volumes_get_equal_seats_by_family(rule, volume, divisor, k, k2):
    a, b = regrouped(volume, k), regrouped(volume, k2)
    assert one_family(a, divisor) and one_family(b, divisor)
    assert total_seats(a, divisor, rule) == total_seats(b, divisor, rule)
    quotas = [fam.quota for states in (a, b)
              for fam in partition_families(compute_quotas(states, divisor))]
    assert quotas[0] == quotas[1] == volume / divisor


def test_state_mode_is_not_impartial():
    # by state a volume of 2.6 divisors gets 3 seats as one state and 2 as two
    # states of 1.3 each; by family both get 3
    groupings = regrouped(26, 1), regrouped(26, 2)
    assert [total_seats(states, 10.0, WEBSTER, BY_STATE) for states in groupings] == [3, 2]
    assert [total_seats(states, 10.0, WEBSTER) for states in groupings] == [3, 3]


def test_a_family_quota_just_below_its_floor_sum_is_lifted():
    # each member's quota rounds to 6.0, but fl(V_f/D) falls 2⁻⁴⁸ below
    # 3·6, where Jefferson would round it to 17 seats, outside the family's
    # [18, 21]: the quota is lifted onto 18, and each member gets 6
    states, divisor = states_of(*[6.4037995317072065] * 3), 1.0672999219512012
    pops = [s.population for s in states]
    assert [v / divisor for v in pops] == [6.0] * 3
    assert math.fsum(pops) / divisor == 18 - 2.0 ** -48
    assert family_quota(6, pops, divisor) == 18.0
    method = MethodSpec(JEFFERSON, BY_FAMILY)
    assert apportion_at_divisor(states, divisor, method).seats == {"s0": 6, "s1": 6, "s2": 6}
    [split] = family_splits(partition_families(compute_quotas(states, divisor)), JEFFERSON, divisor)
    assert (split.quota, split.seats) == (18.0, 18)
    for _, _, app in piecewise_apportionments(states, method, divisor * (1 - 2 ** -50),
                                              divisor * (1 + 2 ** -50)):
        assert app.seats == eager_apportionment(states, app.divisor, method).seats


@given(v=st.floats(min_value=1e-300, max_value=1e300),
       d=st.floats(min_value=1e-300, max_value=1e300))
@settings(max_examples=300, deadline=None)
def test_a_family_of_one_has_its_members_quota(v, d):
    # so seats_at's and split's fast paths for a family of one read the
    # family quota too
    q = v / d
    assume(0 < q < math.inf)
    assert family_quota(math.floor(q), [v], d) == q


# --- piece seats against exact rounding (fault (b)) ------------------------

def adams_pieces_by_exact_rounding():
    """2020 Adams state-mode pieces over [v_T/600, v_T/300], each with the
    seats exact rounding gives at its midpoint and at its upper endpoint:
    ceil(v/D) in ``fractions`` arithmetic, D taken as the exact float."""
    states = bundled_census(2020)
    pops = [Fraction(s.population) for s in states]
    v_t = math.fsum(s.population for s in states)

    def exact(d):
        d = Fraction(d)
        return tuple(math.ceil(v / d) for v in pops)

    pieces = piecewise_apportionments(states, MethodSpec(ADAMS, BY_STATE), v_t / 600, v_t / 300)
    return [(tuple(app.seats.values()), exact(0.5 * (lo + hi)), exact(hi))
            for lo, hi, app in pieces]


def test_pieces_hold_inside_by_exact_rounding():
    assert all(seats == inside for seats, inside, _ in adams_pieces_by_exact_rounding())


@pytest.mark.xfail(strict=True, reason="fault (b), open as ROADMAP item 1: checked exactly, "
                                       "the seats fail at 191 of the 304 upper endpoints")
def test_pieces_hold_at_upper_endpoints_by_exact_rounding():
    assert all(seats == at_hi for seats, _, at_hi in adams_pieces_by_exact_rounding())


def test_positional_split():
    assert positional_split(2, 3, 7) == (2, 1)
    assert positional_split(0, 4, 0) == (4, 0)
    for seats in (5, 10):
        with pytest.raises(ValueError, match="outside"):
            positional_split(2, 3, seats)


@pytest.mark.parametrize("seats, m_low, m_high, message", [
    (7, 1, 2, "not the positional split"),  # covers all members, but implies 8 seats
    (7, 2, 2, "not the positional split"),
    (10, -1, 4, "outside"),
])
def test_a_family_split_is_the_positional_split(seats, m_low, m_high, message):
    assert FamilySplit(2, 3, 7.0, 7, 2, 1).m_high == 1
    with pytest.raises(ValueError, match=message):
        FamilySplit(2, 3, 7.0, seats, m_low, m_high)


def test_sweep_matches_oracle_on_random_instances():
    # the criterion-8a shape: 1-20 states, log-uniform on [0.5, 30]
    rng = random.Random(20220127)
    for _ in range(40):
        states = states_of(*(math.exp(rng.uniform(math.log(0.5), math.log(30.0)))
                             for _ in range(rng.randint(1, 20))))
        for rule in SWEEP_RULES:
            for mode in (BY_STATE, BY_FAMILY):
                assert_sweep_matches_oracle(states, MethodSpec(rule, mode), 0.8, 1.25)


# --- family candidates against the per-span rule -------------------------

def per_span_family_events(states, method, d_lo, d_hi):
    """Family-mode candidates by the plain rule: at every span between
    state-boundary crossings, floor every state at the midpoint, sum the
    family volumes with ``math.fsum`` and enumerate each family's crossings
    within that span.  Returns {D: (state ids, family ids)}."""
    direct = engine._Direct(states, method)
    tags = {d_lo: (set(), set()), d_hi: (set(), set())}
    for i, s in enumerate(states):
        for d in _boundary_crossings(s.population, d_lo, d_hi):
            tags.setdefault(d, (set(), set()))[0].add(i)
    spans = sorted(tags)
    for a, b in zip(spans, spans[1:]):
        mid = 0.5 * (a + b)
        members = {}
        for s in states:
            members.setdefault(math.floor(s.population / mid), []).append(s.population)
        for f, pops in members.items():
            vol = math.fsum(pops)
            for d in (_boundary_crossings(vol, a, b)
                      + _mark_crossings(vol, direct, a, b)):
                tags.setdefault(d, (set(), set()))[1].add(f)
    return tags


def family_events(states, method, d_lo, d_hi):
    """The engine's family-mode events, each state id (a rank in the
    (population, name) order) mapped back to its input index."""
    direct = engine._Direct(states, method)
    events = _crossing_events(direct, d_lo, d_hi)
    return {d: ({direct.order[p] for p in ids}, set(fs)) for d, (ids, fs) in events}


@pytest.mark.parametrize("year", CENSUS_YEARS)
def test_family_events_match_per_span_rule_on_census(year):
    states = tuple(bundled_census(year))
    v_t = math.fsum(s.population for s in states)
    for rule in SWEEP_RULES:
        method = MethodSpec(rule, BY_FAMILY)
        window = (v_t / 600, v_t / 300)
        assert family_events(states, method, *window) == per_span_family_events(
            states, method, *window), rule


def test_family_events_match_per_span_rule_on_small_instances():
    # 3.0 is exactly 3·d_lo and 8.0 exactly 4·d_hi: their floors at the
    # window ends reach families they join at no interior divisor.
    # 25/8 and 28.12499999999999/9 are three ulps apart: on the run between
    # these two cuts, membership must come from floor(v/D) itself
    cases = [(states_of(3.0, 4.5, 6.25, 8.0), 1.0, 2.0),
             (states_of(25.0, 28.12499999999999), 2.5, 3.91)]
    rng = random.Random(20221018)
    for _ in range(40):
        states = states_of(*(math.exp(rng.uniform(math.log(0.5), math.log(30.0)))
                             for _ in range(rng.randint(1, 20))))
        cases.append((states, 0.8, 1.25))
    for states, d_lo, d_hi in cases:
        for rule in SWEEP_RULES:
            method = MethodSpec(rule, BY_FAMILY)
            assert family_events(states, method, d_lo, d_hi) == per_span_family_events(
                states, method, d_lo, d_hi), (rule, states)


def test_family_events_match_per_span_rule_with_lognormal_marks():
    # solved marks are bisected over a family's whole run, not per span,
    # so candidates agree to within the sweep's event band
    states = tuple(bundled_census(2020))
    v_t = math.fsum(s.population for s in states)
    dist = LogNormal(math.log(5.0 * v_t / 435), 1.0)
    method = MethodSpec(DistributionMarks(dist), BY_FAMILY)
    window = (v_t / 445, v_t / 425)
    got = sorted(family_events(states, method, *window).items())
    want = sorted(per_span_family_events(states, method, *window).items())
    assert len(got) == len(want)
    for (d, tags), (d_ref, tags_ref) in zip(got, want):
        assert abs(d - d_ref) <= _EVENT_BAND * d_ref
        assert tags == tags_ref


# --- the probed house-size window against the fixed-slack one -------------

def frozen_upper_end(states, method, lo):
    """The divisor beyond which constant marks change no seat: above the
    largest population (v_T in family mode) only r(0) is left, crossed
    at that population / r(0)."""
    assert not method.divisor_dependent
    r0 = method.rounding.mark_at(0, 1.0)
    v_t = math.fsum(s.population for s in states)
    base = max(s.population for s in states) if method.mode == BY_STATE else v_t
    return max((base / r0 if r0 > 0 else base) * (1 + 1e-9), 2 * lo)


def fixed_slack_solutions(states, target, method):
    """House-size search over the fixed-slack window, written out plainly.

    Every state or family rounds within (quota − 1, quota + 1] and the
    floor adds at most min_seat_floor per state, so the window is
    v_T/(target ± (n·(1 + floor) + 1)).  For small targets it runs to the
    divisor beyond which no crossing is possible (written out for constant
    marks, the engine's freeze divisor for moving ones), and a solution on
    its last piece extends to infinity.  Returns
    ``[(seats, d_interval)]`` by descending upper end, a vector that holds
    on several runs on its top one, or raises ``TargetUnachievable`` with
    the nearest totals over the window.
    """
    v_t = math.fsum(s.population for s in states)
    slack = len(states) * (1 + (method.min_seat_floor or 0)) + 1
    lo = v_t / (target + slack)
    frozen = target - slack < 1
    if not frozen:
        hi = v_t / (target - slack)
    elif method.divisor_dependent:  # the engine's own, checked by the small-target tests
        hi = engine._freeze_divisor(engine._Direct(states, method), lo)
    else:
        hi = frozen_upper_end(states, method, lo)
    pieces = _sweep(engine._Direct(states, method), lo, hi)
    solutions, seen = [], set()
    for idx, p in reversed(list(enumerate(pieces))):
        if sum(p.seats) == target and p.seats not in seen:
            seen.add(p.seats)
            top = math.inf if frozen and idx == len(pieces) - 1 else p.hi
            solutions.append((p.seats, (p.lo, top)))
    if not solutions:
        totals = {sum(p.seats) for p in pieces}
        raise TargetUnachievable(target, max((t for t in totals if t < target), default=None),
                                 min((t for t in totals if t > target), default=None))
    return sorted(solutions, key=lambda s: -s[1][1])


def outcome(search, states, target, method):
    try:
        return search(states, target, method)
    except TargetUnachievable as err:
        return err.nearest_below, err.nearest_above


def probed_solutions(states, target, method):
    return [(tuple(a.seats.values()), a.d_interval)
            for a in apportion_for_house_size(states, target, method)]


def assert_same_as_fixed_slack(states, method, targets, band=0.0):
    """Same solutions (seats, d_interval floats, order) and the same
    nearest totals as the fixed-slack window, at every feasible target.

    A bisected mark crossing depends on the window it is bracketed in, so
    with ``band`` the d_interval ends need only agree to that relative distance.
    """
    for target in targets:
        try:
            got = outcome(probed_solutions, states, target, method)
        except InfeasibleTarget:
            continue
        want = outcome(fixed_slack_solutions, states, target, method)
        if band and isinstance(want, list) and len(got) == len(want):
            assert [seats for seats, _ in got] == [seats for seats, _ in want], (method, target)
            for (_, ends), (_, ends_want) in zip(got, want):
                assert ends == pytest.approx(ends_want, rel=band, abs=0), (method, target)
        else:
            assert got == want, (method, target)


# every HOUSE_STRIDE-th house size in 385…485, the offset moving with the
# year and the rule; a stride of 1 is the full differential run
HOUSE_STRIDE = 13


@pytest.mark.parametrize("mode", [BY_STATE, BY_FAMILY])
def test_house_window_matches_fixed_slack_on_census(mode):
    for y, year in enumerate(CENSUS_YEARS):
        states = tuple(bundled_census(year))
        for r, rule in enumerate(SWEEP_RULES):
            start = 385 + (y * len(SWEEP_RULES) + r) % HOUSE_STRIDE
            assert_same_as_fixed_slack(states, MethodSpec(rule, mode),
                                       range(start, 486, HOUSE_STRIDE))


def test_house_window_matches_fixed_slack_with_lognormal_marks():
    states = tuple(bundled_census(2020))
    v_t = math.fsum(s.population for s in states)
    marks = DistributionMarks(LogNormal(math.log(5.0 * v_t / 435), 1.0))
    for mode in (BY_STATE, BY_FAMILY):
        assert_same_as_fixed_slack(states, MethodSpec(marks, mode), (430, 435), _EVENT_BAND)


HOUSE_METHODS = [(rule, mode, floor) for rule in SWEEP_RULES
                 for mode in (BY_STATE, BY_FAMILY) for floor in (None, 1)]


def random_house_instances(seed, count):
    """1–6 states: real populations, integer ones, and ties."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 6)
        if i % 2:
            pops = [float(rng.randint(1, 9)) for _ in range(n)]
        else:
            pops = [round(rng.uniform(0.2, 8.0), 3) for _ in range(n)]
        if i % 3 == 0:
            pops[-1] = pops[0]
        yield states_of(*pops)


def test_house_window_matches_fixed_slack_on_random_instances():
    # every house size from 1 to floor(v_T) + n + 2; each instance takes
    # three of the rule, mode and floor combinations in turn
    for i, states in enumerate(random_house_instances(20261018, 48)):
        top = math.floor(math.fsum(s.population for s in states)) + len(states) + 2
        for j in range(3):
            rule, mode, floor = HOUSE_METHODS[(3 * i + j) % len(HOUSE_METHODS)]
            assert_same_as_fixed_slack(states, MethodSpec(rule, mode, min_seat_floor=floor),
                                       range(1, top + 1))


def test_house_window_is_swept_at_most_twice(monkeypatch):
    # when a solution touches a probed end, or no piece reaches the target,
    # the fixed-slack window is swept once instead; no end is widened further
    windows = []
    sweep = engine._sweep

    def recording(direct, d_lo, d_hi):
        windows.append((d_lo, d_hi))
        return sweep(direct, d_lo, d_hi)

    monkeypatch.setattr(engine, "_sweep", recording)
    # an end probed, then widened twice, by a search that doubled its margin
    cases = [(states_of(7.0, 9.0, 4.0, 9.0, 7.0), 16, MethodSpec(WEBSTER, BY_STATE))]
    for i, states in enumerate(random_house_instances(20261018, 48)):
        top = math.floor(math.fsum(s.population for s in states)) + len(states) + 2
        rule, mode, floor = HOUSE_METHODS[i % len(HOUSE_METHODS)]
        cases += [(states, target, MethodSpec(rule, mode, min_seat_floor=floor))
                  for target in range(1, top + 1)]
    resweeps = 0
    for states, target, method in cases:
        windows.clear()
        try:
            apportion_for_house_size(states, target, method)
        except (InfeasibleTarget, TargetUnachievable):
            pass
        assert len(windows) <= 2, (states, target, method, windows)
        if len(windows) == 2:
            resweeps += 1
            (lo, hi), (cap_lo, cap_hi) = windows
            assert cap_lo <= lo and hi <= cap_hi
    assert resweeps > 0


@pytest.mark.parametrize("pops, target, method, ends", [
    # v_T/26 is one ulp below 7.539/5, yet the first quota there is exactly
    # 5: the upper probe's total is below the target while the piece
    # ending at it reaches the target
    ((7.539, 2.833799999999993, 7.84, 6.33, 8.5, 6.16), 30,
     MethodSpec(ADAMS, BY_STATE), (1.4168999999999965, 7.539 / 5)),
    # v_T/28 is one ulp above 7.766/5, where family 4 loses its member:
    # the lower probe's bound is above the target while the piece starting
    # at it reaches the target
    ((7.766, 27.7036, 2.83, 4.630000000000001, 0.56), 24,
     MethodSpec(JEFFERSON, BY_FAMILY), (7.766 / 5, 1.6296235294117647)),
])
def test_house_window_widens_an_end_a_solution_touches(pops, target, method, ends):
    # the solution runs to the candidate divisor beyond the probe, as over
    # the fixed-slack window, and not to the probe itself
    states = states_of(*pops)
    [solution] = apportion_for_house_size(states, target, method)
    assert solution.d_interval == ends
    assert_same_as_fixed_slack(states, method, [target])


# --- family-quota seat bounds ----------------------------------------------

@st.composite
def family_bound_instances(draw):
    """``(states, d_min)``: 1–12 states with real, integer or half-integer
    populations, and the least divisor the bounds are read at, v_T/T."""
    pops = st.sampled_from((st.floats(min_value=0.2, max_value=40.0),
                            st.integers(1, 40).map(float),
                            st.integers(1, 80).map(lambda k: k / 2)))
    states = states_of(*draw(st.lists(draw(pops), min_size=1, max_size=12)))
    return states, math.fsum(s.population for s in states) / draw(st.integers(1, 60))


BOUND_RULES = (ADAMS, WEBSTER, JEFFERSON, power_law(1.0), power_law(math.inf), HUNTINGTON_HILL,
               DEAN, power_law(2.0), power_law(0.5),
               *(DistributionMarks(LogNormal(math.log(2.0), sigma)) for sigma in (0.3, 1.0, 2.0)))


def exact_rounding(x, c):
    """R_c(x) = g + [x > g and x − g >= c], g = floor(x), in exact arithmetic:
    ceiling for c = 0, floor for c = 1."""
    g = math.floor(x)
    return g + (x > g and x - g >= c)


def family_etas(top):
    """The engine's η = 8u·top, u = 2⁻⁵³, and η′ = η − 4.02·u·top: what is left
    of η after x's distance to the exact sum of the float quotas, at most
    3.01·u·top (one rounding per member quota, two of fl(V_f)/D), and the
    rounding of x ∓ η, at most 1.01·u·top, while the quotas sum to less than
    top."""
    u = Fraction(1, 2 ** 53) * Fraction(top)
    return 8 * u, 8 * u - Fraction(402, 100) * u


def exact_family_bounds(direct, d, top, eta):
    """The family bounds' formula at ``d`` in exact arithmetic, Λ and Υ: per
    family, R_hi(X_f − η) and R_lo(X_f + η) with (lo, hi) its rule's mark
    offsets, declared for g up to ``top`` and family quotas up to v_T·(1 +
    2⁻⁵⁰)/D, and no seat floor, else the floor of X_f − η and the ceiling of
    X_f + η, each clamped to the family's range and lifted to the seat floor m."""
    m = direct.floor
    offsets = None if m else getattr(direct.rounding, "mark_offsets", None)
    quotas, ends = direct.runs(d)
    lower = upper = 0
    for lo, hi in zip([0, *ends], ends):
        f, k, x = math.floor(quotas[lo]), hi - lo, sum(map(Fraction, quotas[lo:hi]))
        declared = offsets(f, top, direct.v_t * (1 + 2 ** -50)) if offsets else None
        c_l, c_u = (1, 0) if declared is None else declared[::-1]
        lower += max(exact_rounding(x - eta, c_l), k * max(f, m))
        upper += max(min(exact_rounding(x + eta, c_u), k * (f + 1)), k * m)
    return lower, upper


@given(instance=family_bound_instances(), rule=st.sampled_from(BOUND_RULES),
       floor=st.sampled_from((None, 1, 2)),
       extra=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8))
@settings(max_examples=300, deadline=None)
def test_family_seat_bounds_bracket_the_total_and_never_rise(instance, rule, floor, extra):
    # over a grid holding every membership cut v/k at and above d_min, with
    # its neighbouring floats, and a few points beyond: L <= Λ <= total <= Υ
    # <= U, with Λ and Υ the formula at η′ in exact arithmetic, and neither
    # Λ nor Υ rises with D; a family leaves at most 2 seats between L and U,
    # and none when the seat floor lifts all its members.  Without a seat
    # floor, family f of a rule declaring mark offsets (lo, hi) takes
    # R_hi(X_f − η′) and R_lo(X_f + η′) (a rule with marks f + c its own
    # R_c); any other takes the floor of X_f − η′ and the ceiling of X_f + η′
    assert_family_bounds_bracket(*instance, rule, floor, extra)


@given(instance=family_bound_instances(), sigma=st.floats(0.2, 3.0), log_vg=st.floats(-1.0, 3.0),
       extra=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8))
@settings(max_examples=150, deadline=None)
def test_family_seat_bounds_bracket_the_total_under_lognormal_offsets(instance, sigma, log_vg,
                                                                      extra):
    # as above under lognormal laws and no seat floor, where every family
    # f >= 1 inside the law's domain rounds with the law's proven offsets
    assert_family_bounds_bracket(*instance, DistributionMarks(LogNormal(log_vg, sigma)), None,
                                 extra)


def assert_family_bounds_bracket(states, d_min, rule, floor, extra):
    """The family bounds' assertions above, for one instance."""
    method = MethodSpec(rule, BY_FAMILY, floor)
    v_t = math.fsum(s.population for s in states)
    cuts = [s.population / k for s in states
            for k in range(1, math.floor(s.population / d_min) + 1)]
    grid = sorted({d for c in cuts for d in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf))
                   if d >= d_min} | {d_min, *(d_min + x * 2 * v_t for x in extra)})
    top = v_t / d_min + 2
    _, eta_left = family_etas(top)
    direct = engine._Direct(states, method)
    bounds = engine._seat_bounds(direct, top)
    m = floor or 0
    last = None
    for d in grid:
        lower, upper = bounds(d)
        sandwich = exact_family_bounds(direct, d, top, eta_left)
        assert lower <= sandwich[0] <= sum(direct.seats_at(d)) <= sandwich[1] <= upper, \
            (d, lower, upper, sandwich)
        quotas, ends = direct.runs(d)
        families = [math.floor(quotas[lo]) for lo in [0, *ends[:-1]]]
        assert upper - lower <= sum(2 for f in families if f >= m)
        if last is not None:
            assert sandwich[0] <= last[0] and sandwich[1] <= last[1], (d, last, sandwich)
        last = sandwich


def test_family_seat_bounds_allow_for_the_error_of_sum():
    # one family of four quotas whose exact sum is 13: a naive sum() gives
    # 12.999999999999998, which Jefferson rounds to 12, but the evaluator's
    # fsum gives 13 on every Python, and the bounds bracket it
    states = states_of(3.05, 3.15, 3.2, 3.6)
    method = MethodSpec(JEFFERSON, BY_FAMILY)
    quotas = [s.population for s in states]
    assert math.fsum(quotas) == 13.0
    total = sum(engine._Direct(states, method).seats_at(1.0))
    assert total == 13
    lower, upper = engine._seat_bounds(engine._Direct(states, method), 15.0)(1.0)
    assert lower <= total <= upper


def test_family_seat_bounds_are_exact_just_below_an_integer():
    # the last quota 8 floats below 3.6 puts the family's exact sum X 2⁻⁴⁸
    # below 13, closer than η = 2⁻⁵⁰·15; fsum gives X itself, x =
    # 12.999999999999996.  fl(x − η) = 13 − 5·2⁻⁴⁸ and fl(x + η) = 13 + 3·2⁻⁴⁸
    # lie on either side of 13, so Adams' bounds are their ceilings, 13 and
    # 14, and Jefferson's their floors, 12 and 13: a sum within η of X may
    # reach 13.  Rounding x alone would give Adams 13 and Jefferson 12 on
    # both sides
    last = 3.6
    for _ in range(8):
        last = math.nextafter(last, 0.0)
    quotas = (3.05, 3.15, 3.2, last)
    states = states_of(*quotas)
    x, eta = math.fsum(quotas), 2.0 ** -50 * 15
    assert sum(map(Fraction, quotas)) == 13 - Fraction(2) ** -48 == x
    assert (x - eta, x + eta) == (13 - 5 * 2.0 ** -48, 13 + 3 * 2.0 ** -48)
    for rule, bounds in ((ADAMS, (13, 14)), (JEFFERSON, (12, 13))):
        direct = engine._Direct(states, MethodSpec(rule, BY_FAMILY))
        lower, upper = engine._seat_bounds(direct, 15.0)(1.0)
        assert (lower, upper) == bounds
        assert lower <= sum(direct.seats_at(1.0)) <= upper


def test_family_lower_bound_may_exceed_its_exact_formula_but_not_the_total():
    # two quotas 6.5 + 7·2⁻⁵⁰ and 6.5 + 8·2⁻⁵⁰ sum exactly to X = 13 + 15·2⁻⁵⁰,
    # a tie that fsum rounds to even, x = 13 + 2⁻⁴⁶; at top 16, η = 2⁻⁴⁶.
    # Jefferson's exact formula floors X − η = 13 − 2⁻⁵⁰ to 12, but the
    # engine floors fl(x − η) = 13 to 13: tighter, and still the total,
    # which rounds x down to 13.  At η′ the formula gives 13 as well
    states = states_of(6.5 + 7 * 2.0 ** -50, 6.5 + 8 * 2.0 ** -50)
    direct = engine._Direct(states, MethodSpec(JEFFERSON, BY_FAMILY))
    eta, eta_left = family_etas(16.0)
    assert eta == Fraction(2) ** -46
    assert math.fsum(s.population for s in states) == 13 + 2.0 ** -46
    assert exact_family_bounds(direct, 1.0, 16.0, eta) == (12, 13)
    assert engine._seat_bounds(direct, 16.0)(1.0) == (13, 13)
    assert sum(direct.seats_at(1.0)) == 13
    assert exact_family_bounds(direct, 1.0, 16.0, eta_left) == (13, 13)


@st.composite
def ulp_close_families(draw):
    """``(states, rule, target, top)``: one family of 2–6 quotas at D = 1 under
    a rule that declares mark offsets (lo, hi), whose exact sum lies within a
    few ulps of g + c or of g + c ∓ η, for an integer g and c in (0, lo, hi),
    where the bounds' roundings of x and of fl(x ∓ η) step; ``top`` bounds
    v_T/D over the few floats below D = 1, and η = 2⁻⁵⁰·top."""
    rule = draw(st.sampled_from((ADAMS, WEBSTER, JEFFERSON, HUNTINGTON_HILL, DEAN, power_law(2.0))))
    f = draw(st.integers(0, 30))
    others = draw(st.lists(st.floats(f + 0.01, f + 0.99), min_size=1, max_size=5))
    top = math.fsum(others) + f + 3
    step = draw(st.sampled_from((0.0, *rule.mark_offsets(f, 200))))
    shift = draw(st.sampled_from((0.0, -1.0, 1.0))) * 2.0 ** -50 * top
    target = math.ceil(math.fsum(others) + f - step) + step + shift  # puts last in [f, f + 1]
    last = target - math.fsum(others)
    ulps = draw(st.integers(-4, 4))
    for _ in range(abs(ulps)):
        last = math.nextafter(last, math.copysign(math.inf, ulps))
    assume(max(f, 0.01) <= last < f + 1)
    return states_of(*others, last), rule, target, top


@given(instance=ulp_close_families())
@settings(max_examples=300, deadline=None)
def test_family_seat_bounds_hold_at_ulp_close_family_sums(instance):
    # where X_f is within a few ulps of a step of R_lo or R_hi, or of one
    # shifted by η: L(1) <= Λ(1) and U(1) >= Υ(1), the formula at η′ in
    # exact arithmetic, and Λ(1) is at most the total at 1 and at the
    # floats below it, Υ(1) at least the total at 1 and at the floats above
    states, rule, target, top = instance
    x = sum(Fraction(s.population) for s in states)
    assert abs(x - Fraction(target)) <= 16 * Fraction(math.ulp(target + 1))
    direct = engine._Direct(states, MethodSpec(rule, BY_FAMILY))
    below, above = [1.0], [1.0]
    for _ in range(4):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    assert direct.v_t / below[-1] + 2 <= top
    lower, upper = engine._seat_bounds(direct, top)(1.0)
    low, high = exact_family_bounds(direct, 1.0, top, family_etas(top)[1])
    assert lower <= low <= min(sum(direct.seats_at(d)) for d in below), (lower, low)
    assert upper >= high >= max(sum(direct.seats_at(d)) for d in above), (upper, high)


def test_census_house_round_sweeps_under_600_pieces(monkeypatch):
    # a census-house-shaped round: every census year, rule and mode, the years
    # taking 435, 485 and 385 seats in turn from 2020 down; per-state bounds
    # in family mode swept 2,643 pieces, 54 of them for 2020 Webster at 435,
    # and floor and ceiling bounds for Dean, Hill and β = 2 by family 1,006
    swept = {}
    sweep = engine._sweep

    def counting(direct, d_lo, d_hi):
        pieces = sweep(direct, d_lo, d_hi)
        key = (direct.states, direct.method)
        swept[key] = swept.get(key, 0) + len(pieces)
        return pieces

    monkeypatch.setattr(engine, "_sweep", counting)
    houses = (435, 485, 385)
    for i, year in enumerate(sorted(CENSUS_YEARS, reverse=True)):
        states = tuple(bundled_census(year))
        for rule in SWEEP_RULES:
            for mode in (BY_STATE, BY_FAMILY):
                apportion_for_house_size(states, houses[i % 3], MethodSpec(rule, mode))
    assert sum(swept.values()) < 600
    assert swept[(tuple(bundled_census(2020)), MethodSpec(WEBSTER, BY_FAMILY))] <= 29


def test_offset_rules_sweep_few_family_pieces_in_a_census_house_round(monkeypatch):
    # the round above: every rule by family rounds X_f ∓ η by the roundings
    # its mark offsets bound (Adams, Webster and Jefferson by their own R_c),
    # so a family term is decided unless X_f lies within 2η of a step or
    # between the two; floor and ceiling bounds swept 185–190 pieces for
    # each rule, and 29 (totals 421–449) for 2020 Webster at 435
    swept = Counter()
    sweep = engine._sweep

    def counting(direct, d_lo, d_hi):
        pieces = sweep(direct, d_lo, d_hi)
        swept[direct.states, direct.method] += len(pieces)
        return pieces

    monkeypatch.setattr(engine, "_sweep", counting)
    houses = (435, 485, 385)
    for i, year in enumerate(sorted(CENSUS_YEARS, reverse=True)):
        states = tuple(bundled_census(year))
        for rule in SWEEP_RULES:
            for mode in (BY_STATE, BY_FAMILY):
                apportion_for_house_size(states, houses[i % 3], MethodSpec(rule, mode))
    assert sum(swept.values()) < 600
    for rule in SWEEP_RULES:
        by_rule = sum(n for (_, method), n in swept.items()
                      if method == MethodSpec(rule, BY_FAMILY))
        assert by_rule <= 60, (rule, by_rule)
    assert swept[(tuple(bundled_census(2020)), MethodSpec(WEBSTER, BY_FAMILY))] <= 8


# --- decided state-mode seat bounds under moving marks ----------------------

LOGNORMAL_HOUSE_SIGMAS = (0.3, 1.0, 2.0)


def lognormal_house_marks(states, sigma):
    """The lognormal-house law: geometric-mean quota 5 at the 435-seat divisor."""
    v_t = math.fsum(s.population for s in states)
    return DistributionMarks(LogNormal(math.log(5.0 * v_t / 435), sigma))


def test_lognormal_house_round_sweeps_under_700_state_mode_pieces(monkeypatch):
    # a lognormal-house-shaped round by state: 2000 and 2020, each law solved
    # at 435, 430 and 440 seats; per-state floor and ceiling bounds swept 985
    # pieces, as their window stays n seats wide
    swept = Counter()
    sweep = engine._sweep

    def counting(direct, d_lo, d_hi):
        pieces = sweep(direct, d_lo, d_hi)
        swept[direct.method.mode] += len(pieces)
        return pieces

    monkeypatch.setattr(engine, "_sweep", counting)
    for year in (2000, 2020):
        states = tuple(bundled_census(year))
        for sigma in LOGNORMAL_HOUSE_SIGMAS:
            method = MethodSpec(lognormal_house_marks(states, sigma))
            for target in (435, 430, 440):
                apportion_for_house_size(states, target, method)
    assert swept[BY_STATE] < 700, swept


def test_lognormal_family_windows_are_as_narrow_as_websters(monkeypatch):
    # 2020 at 435 seats by family: with the laws' proven mark offsets σ = 1
    # and σ = 2 each sweep 6 pieces, totals 433–438, as Webster sweeps at
    # most 8; floor and ceiling bounds swept 29 (totals 421–449).  σ = 0.3,
    # whose families up to 4 keep (0, 1), sweeps 20 (totals 424–441), where
    # floor and ceiling bounds swept 31
    swept = Counter()
    sweep = engine._sweep

    def counting(direct, d_lo, d_hi):
        pieces = sweep(direct, d_lo, d_hi)
        swept[direct.rounding.distribution.sigma] += len(pieces)
        return pieces

    monkeypatch.setattr(engine, "_sweep", counting)
    states = tuple(bundled_census(2020))
    for sigma in LOGNORMAL_HOUSE_SIGMAS:
        apportion_for_house_size(states, 435, MethodSpec(lognormal_house_marks(states, sigma),
                                                         BY_FAMILY))
    assert swept[1.0] <= 8 and swept[2.0] <= 8 and swept[0.3] <= 20, swept


def decided_bound_cases():
    """(states, method, target): the lognormal-house laws at 435 seats, and
    the small lognormal instances at every target up to n + 2."""
    for year in (2000, 2020):
        states = tuple(bundled_census(year))
        for sigma in LOGNORMAL_HOUSE_SIGMAS:
            yield states, MethodSpec(lognormal_house_marks(states, sigma)), 435
    for i, (states, marks) in enumerate(moving_marks_instances(20261018, 40)):
        if i % 2:
            for floor in (None, 1):
                for target in range(1, len(states) + 3):
                    yield states, MethodSpec(marks, min_seat_floor=floor), target


def test_decided_state_seat_bounds_hold_over_the_swept_pieces():
    # over the fixed-slack window's pieces, at each piece's ends and divisor:
    # L(d) is at most every total at D <= d, and U(d) at least every total
    # at D >= d.  On the census they are tight at each piece's divisor, with
    # at most two states undecided: sigma = 0.3 puts California and Texas in
    # the far right tail, where margins of 1e-17 to 4e-13 do not clear
    # bounds of about 3e-12
    for states, method, target in decided_bound_cases():
        direct = engine._Direct(states, method)
        slack = len(states) * (1 + (method.min_seat_floor or 0)) + 1
        lo = direct.v_t / (target + slack)
        hi = (direct.v_t / (target - slack) if target - slack >= 1
              else engine._freeze_divisor(direct, lo))
        pieces = _sweep(direct, lo, hi)
        bounds = engine._seat_bounds(direct, target + slack + 2)
        for d in sorted({x for p in pieces for x in (p.lo, p.divisor, p.hi)}):
            lower, upper = bounds(d)
            assert lower <= min((sum(p.seats) for p in pieces if p.lo < d), default=math.inf), \
                (states, method, d)
            assert upper >= max(sum(p.seats) for p in pieces if p.hi >= d), (states, method, d)
        if len(states) == 50:
            for p in pieces:
                lower, upper = bounds(p.divisor)
                assert upper - lower <= 2 and lower <= sum(p.seats) <= upper, (method, p)


@pytest.mark.parametrize("dist, marks", [
    (Uniform(0.0, 3.0), None),
    (LogNormal(0.5, 1.0), lambda f, d: f + 0.5),
    (PowerLaw(2.0, 0.0, 50.0), None),
], ids=["uniform", "custom-marks", "powerlaw"])
def test_roundings_without_a_margin_error_bound_keep_floor_and_ceiling_bounds(dist, marks):
    # no bound declared: L and U are sum max(floor(q), m) and sum max(floor(q)
    # + 1, m), as before, and no margin is evaluated for them
    states = states_of(0.7, 2.5, 3.0, 6.25, 11.0)
    for floor in (None, 1):
        method = MethodSpec(CountingMarks(dist, marks), min_seat_floor=floor)
        direct = engine._Direct(states, method)
        bounds = engine._seat_bounds(direct, 40.0)
        for d in (0.5, 0.9, 1.0, 1.7, 4.0, 12.5):
            floors = [math.floor(s.population / d) for s in states]
            m = floor or 0
            assert bounds(d) == (sum(max(f, m) for f in floors),
                                 sum(max(f + 1, m) for f in floors))
        assert method.rounding.margins == 0


def test_four_equal_states_under_a_narrow_lognormal_match_the_fixed_slack_window():
    # every state lies far above the law's median e^-5, so at v_T/N all four
    # round up and L(v_T/N) = 4 > N for N < 4: the lower end's secant probe
    # is v_T/N itself for N = 1 and 2; each outcome, seats or nearest
    # totals, is the fixed-slack window's
    states = states_of(1.0, 1.0, 1.0, 1.0)
    for mode in (BY_STATE, BY_FAMILY):
        method = MethodSpec(DistributionMarks(LogNormal(-5.0, 1.0)), mode)
        assert_same_as_fixed_slack(states, method, range(1, 8), _EVENT_BAND)


def test_house_window_probes_stay_inside_the_fixed_slack_caps(monkeypatch):
    # moving_marks_instances #14 at N = 1 by state: its freeze divisor 4.99
    # lies below v_T/N, and a uniform law with a declared margin error bound
    # puts L above N at the lower probe 11.52; a probe beyond cap_hi is
    # skipped, so the window is never inverted, and the nearest totals are
    # those without a bound
    class Bounded(DistributionMarks):
        def margin_error(self, value, d_min):
            return 1e-9

    windows = []
    sweep = engine._sweep

    def recording(direct, d_lo, d_hi):
        windows.append((d_lo, d_hi))
        return sweep(direct, d_lo, d_hi)

    monkeypatch.setattr(engine, "_sweep", recording)
    states, marks = list(moving_marks_instances(20261018, 40))[14]
    for rounding in (marks, Bounded(marks.distribution)):
        with pytest.raises(TargetUnachievable) as err:
            apportion_for_house_size(states, 1, MethodSpec(rounding))
        assert (err.value.nearest_below, err.value.nearest_above) == (None, 3)
    direct = engine._Direct(states, MethodSpec(marks))
    cap_lo = direct.v_t / (1 + len(states) + 1)
    cap_hi = engine._freeze_divisor(direct, cap_lo)
    assert cap_hi < direct.v_t
    assert all(cap_lo <= lo < hi <= cap_hi for lo, hi in windows), windows


# --- small house sizes under marks that move with D ------------------------

def test_freeze_divisor_of_constant_marks_is_the_closed_form():
    # the freeze divisor comes from the crossing finder for every rounding;
    # for constant marks it is the float the closed form gives
    for states in random_house_instances(20261019, 40):
        v_t = math.fsum(s.population for s in states)
        for rule in SWEEP_RULES:
            for mode in (BY_STATE, BY_FAMILY):
                for floor in (None, 1):
                    method = MethodSpec(rule, mode, min_seat_floor=floor)
                    slack = len(states) * (1 + (floor or 0)) + 1
                    for target in range(1, slack):
                        lo = v_t / (target + slack)
                        assert engine._freeze_divisor(engine._Direct(states, method), lo) == \
                            frozen_upper_end(states, method, lo), (rule, mode, states)


def test_small_target_under_moving_marks_ends_where_its_seat_is_lost():
    # on the uniform law's support [0, D] holds mass evenly, so r(0, D) = 1/2:
    # the state's one seat holds up to D = 2v, not for every larger divisor
    v = 1.2402584540376074
    marks = DistributionMarks(Uniform(0.0, 339.300204245145))
    method = MethodSpec(marks)
    [solution] = apportion_for_house_size(states_of(v), 1, method)
    lo, hi = solution.d_interval
    assert lo == 0.8268389693584048 and hi == pytest.approx(2 * v, rel=1e-12)
    assert is_decision_flip(v, 0, marks, hi)
    assert apportion_at_divisor(states_of(v), 2.6, method).seats == {"s0": 0}


def test_moving_marks_force_no_seat_on_every_state():
    # r(0, D) = 0 only while [0, D] holds none of the law's mass: past
    # D = 1000 the smaller states lose their seats, so every total below
    # one seat per state is reached
    states = states_of(1200.0, 1500.0, 2000.0, 2600.0, 3100.0, 3900.0, 4500.0)
    method = MethodSpec(DistributionMarks(Uniform(1000.0, 5000.0)))
    for target in range(1, 7):
        [solution] = apportion_for_house_size(states, target, method)
        assert solution.total_seats == target
        assert apportion_at_divisor(states, solution.divisor, method).seats == solution.seats


def moving_marks_instances(seed, count):
    """1–6 states under lognormal or uniform marks; the uniform law's top
    may lie below some populations, whose seats then never go."""
    rng = random.Random(seed)
    for i in range(count):
        pops = [math.exp(rng.uniform(-1.0, 3.0)) for _ in range(rng.randint(1, 6))]
        if i % 2:
            dist = LogNormal(rng.uniform(-1.0, 3.0), rng.uniform(0.3, 2.0))
        else:
            low = rng.choice([0.0, rng.uniform(0.0, min(pops))])
            dist = Uniform(low, max(low + 0.1, rng.uniform(0.3, 3.0) * max(pops)))
        yield states_of(*pops), DistributionMarks(dist)


def test_small_targets_under_moving_marks_hold_to_their_ends():
    # every solution is the direct apportionment at its divisor, and one
    # reported to hold for every larger divisor holds at far ones
    frozen = 0
    for states, marks in moving_marks_instances(20261018, 40):
        for mode in (BY_STATE, BY_FAMILY):
            method = MethodSpec(marks, mode)
            for target in range(1, len(states) + 2):
                try:
                    solutions = apportion_for_house_size(states, target, method)
                except TargetUnachievable:
                    continue
                for sol in solutions:
                    assert apportion_at_divisor(states, sol.divisor, method).seats == sol.seats
                    if sol.d_interval[1] == math.inf:
                        frozen += 1
                        for k in (2, 16, 1e6):
                            far = apportion_at_divisor(states, k * sol.divisor, method)
                            assert far.seats == sol.seats, (states, marks, mode, target, k)
    assert frozen >= 10, frozen


@pytest.mark.xfail(strict=True, reason="flip-flopping decisions, open as ROADMAP item 15: near "
                                       "the uniform law's top the decision flips from float to "
                                       "float, and 1,999 of the first 4,000 floats above the "
                                       "solution's lower end give seats (2, 2)")
def test_a_small_target_solution_holds_at_every_float_near_its_lower_end():
    # moving_marks_instances(20261018, 40) #10 at N = 2 by state: the test
    # above checks each solution only at its divisor, never inside its span
    states = states_of(0.4277657147773348, 0.37967281545291265)
    method = MethodSpec(DistributionMarks(Uniform(0.1419505858826743, 0.3639698516820208)))
    [solution] = apportion_for_house_size(states, 2, method)
    d, upper = solution.d_interval
    assert (d, upper) == (0.36396985044696994, math.inf)
    for _ in range(4000):
        d = math.nextafter(d, math.inf)
        assert apportion_at_divisor(states, d, method).seats == solution.seats, d


@pytest.mark.xfail(strict=True, raises=ApportionmentError,
                   reason="flip-flopping decisions, open as ROADMAP item 15: the sweep's guard "
                          "finds its seats stale at D = 0.18198492500284946 and raises")
def test_a_small_target_is_found_where_its_seats_hold():
    # moving_marks_instances(20261018, 40) #10 at N = 4 by state: seats (2, 2)
    # hold at D = 0.19 and 0.25, but the sweep raises; the small-target tests
    # above stop at N = n + 1 = 3
    states = states_of(0.4277657147773348, 0.37967281545291265)
    method = MethodSpec(DistributionMarks(Uniform(0.1419505858826743, 0.3639698516820208)))
    for d in (0.19, 0.25):
        assert apportion_at_divisor(states, d, method).seats == {"s0": 2, "s1": 2}
    solutions = apportion_for_house_size(states, 4, method)
    assert {"s0": 2, "s1": 2} in [sol.seats for sol in solutions]
