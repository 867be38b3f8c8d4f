"""Alabama, New States, and multiple-solution paradox detection."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatcalc.core import StateProfile
from seatcalc.engine import (
    BY_FAMILY,
    BY_STATE,
    MethodSpec,
    apportion_at_divisor,
    apportion_for_house_size,
)
from seatcalc.paradoxes import (
    ALABAMA,
    MULTIPLE_SOLUTION,
    NEW_STATES,
    as_multiple_solution_report,
    check_new_states,
    family_of_families_fixture,
    scan_alabama,
)
from seatcalc.signposts import ADAMS, HUNTINGTON_HILL, JEFFERSON, WEBSTER

HH_FAMILY = MethodSpec(HUNTINGTON_HILL, BY_FAMILY)
WEBSTER_FAMILY = MethodSpec(WEBSTER, BY_FAMILY)

ALABAMA_POPS = (0.999, 1.43, 999.0)
ALABAMA_RANGE = (999.0 / 1001.0, 1.0)


def make_states(pops):
    return tuple(StateProfile(f"state{i + 1}", p) for i, p in enumerate(pops))


# --- the Alabama scan -------------------------------------------------------

def test_hill_on_families_hits_alabama():
    states = make_states(ALABAMA_POPS)
    reports = scan_alabama(states, HH_FAMILY, *ALABAMA_RANGE)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.kind == ALABAMA
    assert rep.witness == pytest.approx(0.999, abs=1e-12)
    assert rep.affected_states == (("state2", 2, 1),)
    assert rep.before.total_seats == 1003
    assert rep.after.total_seats == 1002


def test_alabama_fixture_endpoint_totals():
    # across the whole sweep the house grew by one seat while state2
    # lost one: 1002 seats at the top divisor, 1003 at the bottom
    states = make_states(ALABAMA_POPS)
    d_lo, d_hi = ALABAMA_RANGE
    top = apportion_at_divisor(states, d_hi, HH_FAMILY)
    bottom = apportion_at_divisor(states, d_lo, HH_FAMILY)
    assert top.total_seats == 1002
    assert bottom.total_seats == 1003
    assert top.seats["state2"] == 2
    assert bottom.seats["state2"] == 1


def test_alabama_reports_reevaluate():
    states = make_states(ALABAMA_POPS)
    for rep in scan_alabama(states, HH_FAMILY, *ALABAMA_RANGE):
        for app in (rep.before, rep.after):
            lo, hi = app.d_interval
            probe = apportion_at_divisor(states, 0.5 * (lo + hi), HH_FAMILY)
            assert probe.seats == app.seats


def test_webster_on_families_is_clean_here():
    states = make_states(ALABAMA_POPS)
    assert scan_alabama(states, WEBSTER_FAMILY, *ALABAMA_RANGE) == []


def test_state_mode_rules_are_alabama_immune():
    rng = random.Random(42)
    rules = (WEBSTER, HUNTINGTON_HILL, ADAMS, JEFFERSON)
    for trial in range(8):
        pops = [math.exp(rng.uniform(math.log(0.5), math.log(50.0)))
                for _ in range(rng.randint(2, 20))]
        states = make_states(pops)
        method = MethodSpec(rules[trial % len(rules)], BY_STATE)
        assert scan_alabama(states, method, 0.5, 2.0) == []


def test_scan_rejects_bad_range():
    states = make_states(ALABAMA_POPS)
    with pytest.raises(ValueError):
        scan_alabama(states, HH_FAMILY, 2.0, 1.0)
    with pytest.raises(ValueError):
        scan_alabama(states, HH_FAMILY, 0.0, 1.0)


# --- new states at fixed divisor ---------------------------------------------

def test_new_state_costs_an_incumbent_a_seat():
    incumbents = make_states((2.6, 5.3))
    added = StateProfile("added", 2.7)
    rep = check_new_states(incumbents, WEBSTER_FAMILY, 1.0, added)
    assert rep is not None
    assert rep.kind == NEW_STATES
    assert rep.witness is added
    assert rep.affected_states == (("state1", 3, 2),)
    assert rep.before.seats == {"state1": 3, "state2": 5}
    assert rep.after.seats["state1"] == 2
    assert rep.after.seats["added"] == 3


def test_new_state_can_give_an_incumbent_a_seat():
    # every change of seats is reported, a gain as well as a loss
    incumbents = make_states((2.4, 5.3))
    rep = check_new_states(incumbents, WEBSTER_FAMILY, 1.0, StateProfile("added", 2.3))
    assert rep is not None
    assert rep.affected_states == (("state1", 2, 3),)
    assert rep.before.seats == {"state1": 2, "state2": 5}
    assert rep.after.seats == {"state1": 3, "state2": 5, "added": 2}


def test_state_mode_ignores_new_states():
    incumbents = make_states((2.6, 5.3))
    added = StateProfile("added", 2.7)
    rep = check_new_states(incumbents, MethodSpec(WEBSTER, BY_STATE), 1.0, added)
    assert rep is None


def test_new_state_in_fresh_family_is_harmless():
    incumbents = make_states((2.6, 5.3))
    added = StateProfile("added", 7.2)  # family 7 was empty before
    rep = check_new_states(incumbents, WEBSTER_FAMILY, 1.0, added)
    assert rep is None


def test_new_state_duplicate_name_rejected():
    incumbents = make_states((2.6, 5.3))
    with pytest.raises(ValueError):
        check_new_states(incumbents, WEBSTER_FAMILY, 1.0,
                         StateProfile("state1", 2.7))


def test_new_state_report_reevaluates():
    incumbents = make_states((2.6, 5.3))
    added = StateProfile("added", 2.7)
    rep = check_new_states(incumbents, WEBSTER_FAMILY, 1.0, added)
    probe_before = apportion_at_divisor(incumbents, 1.0, WEBSTER_FAMILY)
    probe_after = apportion_at_divisor(incumbents + (added,), 1.0, WEBSTER_FAMILY)
    assert probe_before.seats == rep.before.seats
    assert probe_after.seats == rep.after.seats


# --- multiple solutions ------------------------------------------------------

def test_two_seat_vectors_reach_the_same_total():
    states = make_states((0.999, 1.43, 62.4375))
    solutions = apportion_for_house_size(states, 65, HH_FAMILY)
    assert len(solutions) == 2
    assert all(app.total_seats == 65 for app in solutions)
    vectors = {tuple(app.seats[s.name] for s in states) for app in solutions}
    assert vectors == {(1, 2, 62), (1, 1, 63)}
    # divisor intervals are disjoint and listed from high D to low
    (a_lo, a_hi), (b_lo, b_hi) = (app.d_interval for app in solutions)
    assert a_lo >= b_hi
    rep = as_multiple_solution_report(solutions)
    assert rep.kind == MULTIPLE_SOLUTION
    changed = {name for name, _, _ in rep.affected_states}
    assert changed == {"state2", "state3"}


def test_multiple_solution_report_reevaluates():
    states = make_states((0.999, 1.43, 62.4375))
    for app in apportion_for_house_size(states, 65, HH_FAMILY):
        lo, hi = app.d_interval
        probe = apportion_at_divisor(states, 0.5 * (lo + hi), HH_FAMILY)
        assert probe.seats == app.seats


def test_single_state_target_is_unique():
    solutions = apportion_for_house_size(
        (StateProfile("only", 3.7),), 7, MethodSpec(WEBSTER, BY_STATE))
    assert len(solutions) == 1
    assert solutions[0].seats == {"only": 7}


def test_unique_solution_yields_no_report():
    solutions = apportion_for_house_size(
        (StateProfile("only", 3.7),), 7, MethodSpec(WEBSTER, BY_STATE))
    assert as_multiple_solution_report(solutions) is None


# --- Webster-on-families immunity, random spot checks ------------------------

@given(st.lists(st.floats(min_value=0.1, max_value=80.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=8),
       st.floats(min_value=0.6, max_value=1.7))
@settings(max_examples=40, deadline=None)
def test_webster_families_never_misbehave(pops, d_probe):
    states = make_states(pops)
    assert scan_alabama(states, WEBSTER_FAMILY, 0.5, 2.0) == []
    target = apportion_at_divisor(states, d_probe, WEBSTER_FAMILY).total_seats
    if target >= 1:
        solutions = apportion_for_house_size(states, target, WEBSTER_FAMILY)
        assert len(solutions) == 1


# --- the family-of-families construction -------------------------------------

def test_hierarchical_rounding_is_not_immune():
    rep = family_of_families_fixture()
    assert rep.kind == ALABAMA
    assert rep.affected_states == (("state3", 3, 2),)
    assert rep.before.total_seats == 6
    assert rep.after.total_seats == 5
    assert rep.before.divisor > rep.after.divisor


def test_fixture_is_deterministic():
    assert family_of_families_fixture() == family_of_families_fixture()


def test_plain_webster_families_survive_the_same_scenario():
    states = make_states((0.99999, 1.7, 2.6))
    assert scan_alabama(states, WEBSTER_FAMILY, 0.9999, 1.0001) == []


# --- report text -------------------------------------------------------------

def test_describe_names_the_losers():
    states = make_states(ALABAMA_POPS)
    rep = scan_alabama(states, HH_FAMILY, *ALABAMA_RANGE)[0]
    text = rep.describe()
    assert "state2" in text and "2 -> 1" in text

    states = make_states((2.6, 5.3))
    rep = check_new_states(states, WEBSTER_FAMILY, 1.0, StateProfile("added", 2.7))
    assert "added" in rep.describe()

    solutions = apportion_for_house_size(
        make_states((0.999, 1.43, 62.4375)), 65, HH_FAMILY)
    assert "65" in as_multiple_solution_report(solutions).describe()
