"""Quota computation and family partitioning."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatcalc.census import bundled_census
from seatcalc.core import (
    StateProfile,
    compute_quotas,
    partition_families,
)


def states_of(*pops):
    return tuple(StateProfile(f"s{i}", p) for i, p in enumerate(pops))


def test_quota_basic():
    table = compute_quotas(states_of(400.0), 100.0)
    assert table.entries[0].quota == 4.0
    assert table.entries[0].family == 4


def test_quota_fig1_example():
    table = compute_quotas(states_of(400.0), 130.0)
    assert table.entries[0].quota == pytest.approx(3.0769, abs=1e-4)
    assert table.entries[0].family == 3


def test_integer_quota_family_boundary():
    # exact integer quota belongs to its own family (half-open convention)
    table = compute_quotas(states_of(250.0), 250.0)
    assert table.entries[0].quota == 1.0
    assert table.entries[0].family == 1


def test_validation_errors():
    with pytest.raises(ValueError):
        StateProfile("x", 0.0)
    with pytest.raises(ValueError):
        StateProfile("x", -3.0)
    with pytest.raises(ValueError):
        StateProfile("", 1.0)
    with pytest.raises(ValueError):
        compute_quotas(states_of(1.0), 0.0)
    with pytest.raises(ValueError):
        compute_quotas(states_of(1.0), -2.0)
    with pytest.raises(ValueError):
        compute_quotas((), 1.0)
    dup = (StateProfile("a", 1.0), StateProfile("a", 2.0))
    with pytest.raises(ValueError):
        compute_quotas(dup, 1.0)


def test_partition_simple():
    table = compute_quotas(states_of(2.6, 5.3), 1.0)
    part = partition_families(table)
    assert sorted(part.by_index) == [2, 5]
    assert part.by_index[2].quota == pytest.approx(2.6)
    assert part.by_index[2].size == 1
    assert part.by_index[5].quota == pytest.approx(5.3)


def test_partition_single_small_state():
    part = partition_families(compute_quotas(states_of(0.4), 1.0))
    assert sorted(part.by_index) == [0]
    assert part.by_index[0].size == 1


def test_partition_2020_one_family():
    states = bundled_census(2020)
    v_t = math.fsum(s.population for s in states)
    part = partition_families(compute_quotas(states, v_t / 435))
    ones = part.by_index[1]
    names = {m.state.name for m in ones.members}
    assert names == {
        "North Dakota", "South Dakota", "Delaware", "Montana",
        "Rhode Island", "Maine", "New Hampshire", "Hawaii",
    }
    assert ones.quota == pytest.approx(11.883, abs=0.0005)
    assert ones.size == 8


def test_member_ordering_population_then_name():
    states = (
        StateProfile("b", 1.5),
        StateProfile("a", 1.5),
        StateProfile("c", 1.2),
    )
    part = partition_families(compute_quotas(states, 1.0))
    ordered = [m.state.name for m in part.by_index[1].members]
    assert ordered == ["c", "a", "b"]


@given(
    pops=st.lists(st.floats(min_value=0.01, max_value=1e7), min_size=1, max_size=30),
    divisor=st.floats(min_value=0.01, max_value=1e6),
)
@settings(max_examples=200)
def test_quota_conservation(pops, divisor):
    states = states_of(*pops)
    table = compute_quotas(states, divisor)
    part = partition_families(table)
    total_pop = math.fsum(pops)
    # sum of family quotas times D recovers total population
    q_sum = math.fsum(fam.quota for fam in part)
    assert q_sum * divisor == pytest.approx(total_pop, rel=1e-12)
    # partition is a bijection on states
    assert sum(fam.size for fam in part) == len(states)
    for fam in part:
        for m in fam.members:
            assert fam.index <= m.quota < fam.index + 1 or (
                m.quota == fam.index  # integer quota sits in its own family
            )


@given(
    pops=st.lists(st.floats(min_value=0.5, max_value=1e6), min_size=1, max_size=15),
    divisor=st.floats(min_value=0.5, max_value=1e5),
    lam=st.sampled_from([0.5, 2.0, 10.0]),
)
@settings(max_examples=200)
def test_scaling_stability(pops, divisor, lam):
    base = compute_quotas(states_of(*pops), divisor)
    scaled = compute_quotas(states_of(*(p * lam for p in pops)), divisor * lam)
    for e1, e2 in zip(base.entries, scaled.entries):
        assert e2.quota == pytest.approx(e1.quota, rel=1e-12)


def test_quota_entry_fraction():
    table = compute_quotas(states_of(6.608), 1.0)
    entry = table.entries[0]
    assert entry.family == 6
    assert entry.fraction == pytest.approx(0.608)


def test_sums_are_correctly_rounded_and_inf_beyond_the_float_range():
    # these four sum to 2⁻¹⁰⁸ below a rounding midpoint: sum() gives 0.5 left
    # to right (Python < 3.12) and compensated (3.12 on), math.fsum the float
    # below, as the exact sum rounds
    pops = (1.3877787807814454e-17, 0.24450428398615617, 0.012017280131425098,
            0.2434784358824187)
    table = compute_quotas(states_of(*pops), 1.0)
    [fam] = partition_families(table)
    exact = float(sum(map(Fraction, pops)))
    assert exact == 0.49999999999999994
    assert fam.quota == fam.population == table.total_quota == table.total_population == exact
    # two quotas of 1e308 in one family: their sum rounds to inf, where
    # math.fsum itself raises OverflowError
    table = compute_quotas(states_of(1e308, 1e308), 1.0)
    [fam] = partition_families(table)
    assert fam.quota == fam.population == table.total_quota == table.total_population == math.inf
