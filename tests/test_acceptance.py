"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single
"[criterion N] PASS/FAIL" line (visible with pytest -rA) and asserts
at the stated tolerance, including runtime budgets where one applies.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from seatcalc.census import bundled_census, log_moments, powerlaw_loglik_scan
from seatcalc.cli import main
from seatcalc.core import StateProfile, compute_quotas, partition_families
from seatcalc.distributions import (
    DistributionMarks,
    LogNormal,
    PowerLaw,
    monte_carlo_bias,
    unbiased_mark,
    verify_alabama_immunity,
)
from seatcalc.engine import (
    BY_FAMILY,
    BY_STATE,
    MethodSpec,
    apportion_at_divisor,
    apportion_for_house_size,
)
from seatcalc.paradoxes import check_new_states, scan_alabama
from seatcalc.signposts import HUNTINGTON_HILL, WEBSTER, power_law_mark

HH_FAMILY = MethodSpec(HUNTINGTON_HILL, BY_FAMILY)
WEBSTER_FAMILY = MethodSpec(WEBSTER, BY_FAMILY)


@contextmanager
def criterion(tag, detail):
    try:
        yield
    except BaseException:
        print(f"[criterion {tag}] FAIL: {detail}")
        raise
    print(f"[criterion {tag}] PASS: {detail}")


# criterion 1: power-law mark matrix, f 0..4, exponents -inf, -4..4, +inf
POWER_MARKS = {
    0: (0.00, 0.00, 0.00, 0.00, 0.00, 0.37, 0.50, 0.58, 0.63, 0.67, 1.00),
    1: (1.00, 1.36, 1.39, 1.41, 1.44, 1.47, 1.50, 1.53, 1.55, 1.58, 2.00),
    2: (2.00, 2.42, 2.43, 2.45, 2.47, 2.48, 2.50, 2.52, 2.53, 2.55, 3.00),
    3: (3.00, 3.44, 3.45, 3.46, 3.48, 3.49, 3.50, 3.51, 3.52, 3.54, 4.00),
    4: (4.00, 4.45, 4.46, 4.47, 4.48, 4.49, 4.50, 4.51, 4.52, 4.53, 5.00),
}
BETA_TOKENS = ("-inf", "-4", "-3", "-2", "-1", "0", "1", "2", "3", "4", "inf")

# criterion 2: lognormal marks, sigma 1, columns q_g = 1, 2, 5, 10, 20
LOGNORMAL_MARKS = {
    0: (0.491, 0.539, 0.591, 0.623, 0.650),
    1: (1.461, 1.481, 1.506, 1.525, 1.543),
    2: (2.468, 2.480, 2.495, 2.507, 2.518),
    5: (5.479, 5.485, 5.492, 5.497, 5.502),
    10: (10.487, 10.489, 10.493, 10.496, 10.499),
    20: (20.492, 20.493, 20.495, 20.497, 20.498),
}

# criterion 3: 2020 reference rows: quota at D = v_T/435, then seats under
# family-mode and state-mode Webster at house size 435
SEAT_TABLE = {
    "North Dakota": (1.024, 1, 1),
    "South Dakota": (1.166, 1, 1),
    "Delaware": (1.302, 1, 1),
    "Montana": (1.426, 1, 1),
    "Rhode Island": (1.443, 2, 1),
    "Maine": (1.791, 2, 2),
    "New Hampshire": (1.812, 2, 2),
    "Hawaii": (1.918, 2, 2),
    "Louisiana": (6.124, 6, 6),
    "Alabama": (6.608, 6, 7),
    "South Carolina": (6.733, 7, 7),
    "Minnesota": (7.501, 7, 8),
    "Colorado": (7.596, 8, 8),
    "Wisconsin": (7.748, 8, 8),
    "Tennessee": (9.087, 9, 9),
    "Massachusetts": (9.240, 9, 9),
    "Arizona": (9.405, 10, 9),
}
FAMILY_TABLE = {
    1: (11.883, 12, 11),
    6: (19.465, 19, 20),
    7: (22.846, 23, 24),
    9: (27.733, 28, 27),
}

# criterion 4: ln(population) moment rows per census year
MOMENT_TABLE = {
    2020: (15.218, 1.024, -0.047, -0.514),
    2010: (15.156, 1.019, -0.054, -0.537),
    2000: (15.062, 1.020, -0.052, -0.572),
    1990: (14.939, 1.018, -0.015, -0.630),
    1980: (14.850, 1.021, -0.073, -0.719),
    1970: (14.714, 1.063, -0.091, -0.719),
    1960: (14.583, 1.071, -0.172, -0.606),
}


def test_criterion_1_power_law_mark_matrix(capsys):
    with criterion(1, "power-law mark matrix within 0.005, under 1 s"):
        t0 = time.perf_counter()
        argv = ["marks", "--fmax", "4"]
        for token in BETA_TOKENS:
            argv += ["--method", f"powerlaw:{token}"]
        assert main(argv) == 0
        elapsed = time.perf_counter() - t0
        rows = [line.split(",") for line in
                capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 5
        for f, row in enumerate(rows):
            assert int(row[0]) == f
            for got, want in zip(row[1:], POWER_MARKS[f]):
                assert abs(float(got) - want) <= 0.005, (f, row)
        assert elapsed < 1.0


def test_criterion_2_lognormal_mark_table():
    with criterion(2, "lognormal mark table within 0.001, under 5 s"):
        t0 = time.perf_counter()
        for f, row in LOGNORMAL_MARKS.items():
            for q_g, want in zip((1, 2, 5, 10, 20), row):
                got = unbiased_mark(LogNormal(math.log(q_g), 1.0), f, 1.0)
                assert abs(got - want) <= 0.001, (f, q_g)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_seat_table_2020():
    with criterion(3, "2020 quotas within 0.0005; 17 state and 4 family "
                      "seat rows exact; both totals 435"):
        states = bundled_census(2020)
        v_t = math.fsum(s.population for s in states)
        entries = compute_quotas(states, v_t / 435)
        quotas = {e.state.name: e.quota for e in entries}
        for name, (quota, _, _) in SEAT_TABLE.items():
            assert abs(quotas[name] - quota) <= 0.0005, name

        fam_solutions = apportion_for_house_size(states, 435, WEBSTER_FAMILY)
        state_solutions = apportion_for_house_size(
            states, 435, MethodSpec(WEBSTER, BY_STATE))
        assert len(fam_solutions) == 1 and len(state_solutions) == 1
        by_family, by_state = fam_solutions[0], state_solutions[0]
        assert by_family.total_seats == 435
        assert by_state.total_seats == 435
        for name, (_, fam_seats, state_seats) in SEAT_TABLE.items():
            assert by_family.seats[name] == fam_seats, name
            assert by_state.seats[name] == state_seats, name
        partition = {fam.index: fam for fam in partition_families(entries)}
        for f, (q_f, family_total, state_total) in FAMILY_TABLE.items():
            fam = partition[f]
            assert abs(fam.quota - q_f) <= 0.0005, f
            names = [entry.state.name for entry in fam.members]
            assert sum(by_family.seats[n] for n in names) == family_total, f
            assert sum(by_state.seats[n] for n in names) == state_total, f


def test_criterion_4_log_moment_rows():
    with criterion(4, "ln(population) moment rows for all seven censuses "
                      "within 0.002"):
        for year, want in MOMENT_TABLE.items():
            m = log_moments(bundled_census(year))
            got = (m.mean, m.std, m.skew, m.excess_kurtosis)
            for g, w in zip(got, want):
                assert abs(g - w) <= 0.002, (year, got, want)


def test_criterion_5_alabama_fixture():
    with criterion(5, "family-rounded Huntington-Hill drops state2 2->1 as "
                      "the house grows 1002->1003; Webster clean"):
        states = tuple(StateProfile(f"state{i+1}", p)
                       for i, p in enumerate((0.999, 1.43, 999.0)))
        d_lo, d_hi = 999.0 / 1001.0, 1.0
        reports = scan_alabama(states, HH_FAMILY, d_lo, d_hi)
        assert len(reports) == 1
        assert reports[0].affected_states == (("state2", 2, 1),)
        top = apportion_at_divisor(states, d_hi, HH_FAMILY)
        bottom = apportion_at_divisor(states, d_lo, HH_FAMILY)
        assert top.total_seats == 1002 and top.seats["state2"] == 2
        assert bottom.total_seats == 1003 and bottom.seats["state2"] == 1
        assert scan_alabama(states, WEBSTER_FAMILY, d_lo, d_hi) == []


def test_criterion_6_multiple_solution_fixture():
    with criterion(6, "exactly the seat vectors (1,2,62) and (1,1,63) at 65"):
        states = tuple(StateProfile(f"state{i+1}", p)
                       for i, p in enumerate((0.999, 1.43, 62.4375)))
        solutions = apportion_for_house_size(states, 65, HH_FAMILY)
        assert len(solutions) == 2
        vectors = {tuple(app.seats[f"state{i+1}"] for i in range(3))
                   for app in solutions}
        assert vectors == {(1, 2, 62), (1, 1, 63)}


def test_criterion_7_new_states_fixture():
    with criterion(7, "added 2.7-quota state costs the 2.6 incumbent a seat "
                      "in family mode only"):
        incumbents = (StateProfile("state1", 2.6), StateProfile("state2", 5.3))
        added = StateProfile("added", 2.7)
        family_report = check_new_states(incumbents, WEBSTER_FAMILY, 1.0, added)
        assert family_report is not None
        assert family_report.affected_states == (("state1", 3, 2),)
        state_report = check_new_states(
            incumbents, MethodSpec(WEBSTER, BY_STATE), 1.0, added)
        assert state_report is None


def test_criterion_8a_webster_family_immunity_bulk():
    with criterion("8a", "1000 random instances: no seat-loss reports, no "
                         "multiple solutions under family-mode Webster"):
        rng = random.Random(8675309)
        for _ in range(1000):
            n = rng.randint(1, 20)
            states = tuple(
                StateProfile(f"s{i}",
                             math.exp(rng.uniform(math.log(0.5), math.log(30.0))))
                for i in range(n))
            assert scan_alabama(states, WEBSTER_FAMILY, 0.8, 1.25) == []
            target = apportion_at_divisor(states, 1.0, WEBSTER_FAMILY).total_seats
            assert target >= 1
            solutions = apportion_for_house_size(states, target, WEBSTER_FAMILY)
            assert len(solutions) == 1


def residual(dist, f, divisor, r):
    a, b = f * divisor, (f + 1) * divisor
    rhs = dist.cdf_integral(a, b) / divisor
    return abs(dist.cdf(r * divisor) - rhs)


def test_criterion_8b_defining_equation_residuals():
    with criterion("8b", "every emitted mark satisfies its defining "
                         "equation to 1e-10"):
        worst = 0.0
        for q_g in (1, 2, 5, 10, 20):
            dist = LogNormal(math.log(q_g), 1.0)
            for f in (0, 1, 2, 5, 10, 20):
                r = unbiased_mark(dist, f, 1.0)
                worst = max(worst, residual(dist, f, 1.0, r))
        for beta in range(-4, 5):
            if beta > 0:
                dist = PowerLaw(float(beta), 0.0, 1e6)
                f_range = range(0, 21)
            else:
                v_hi = 1e9 if beta == 0 else math.inf
                dist = PowerLaw(float(beta), 0.4, v_hi)
                f_range = range(1, 21)
            for f in f_range:
                r = unbiased_mark(dist, f, 1.0)
                worst = max(worst, residual(dist, f, 1.0, r))
        assert worst <= 1e-10, worst


def test_criterion_8c_generic_path_matches_closed_form():
    with criterion("8c", "quadrature path equals closed-form marks to 1e-8, "
                         "divisor-independent across 0.1/1/10"):
        # negative exponents skip f = 0: a proper density there needs
        # v_lo > 0, and the closed form is the v_lo -> 0 limit, which no
        # admissible distribution attains
        for beta in range(-3, 4):
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
                want = power_law_mark(float(beta), f)
                got = [unbiased_mark(dist, f, d, generic=True)
                       for d in (0.1, 1.0, 10.0)]
                assert all(abs(g - want) <= 1e-8 for g in got), (beta, f, got)
                assert max(got) - min(got) <= 1e-8, (beta, f, got)


def test_criterion_8d_lognormal_immunity():
    with criterion("8d", "lognormal rD slopes stay above -1e-8 across "
                         "q_g in [1, 20], f up to 20"):
        dist = LogNormal(0.0, 1.0)  # v_g = 1, so q_g = 1/D
        grid = np.linspace(0.05, 1.0, 96)
        for f in range(21):
            report = verify_alabama_immunity(dist, f, grid)
            assert report.ok, (f, report.violations[:3])


def test_criterion_8e_monte_carlo_unbiasedness():
    with criterion("8e", "matched marks unbiased (|mean| < 4 SE) at 1e5 "
                         "replications; Webster marks biased upward at f=0; "
                         "under 2 min"):
        t0 = time.perf_counter()
        dist = LogNormal(math.log(5.0), 1.0)
        matched = monte_carlo_bias(dist, 1.0, DistributionMarks(dist),
                                   100_000, 50, seed=2020)
        for row in matched:
            if row.std_error > 0:
                assert abs(row.mean_bias) < 4 * row.std_error, row
            else:
                assert row.mean_bias == 0.0, row
        webster = monte_carlo_bias(dist, 1.0, WEBSTER, 100_000, 50, seed=2020)
        f0 = webster[0]
        assert f0.f == 0
        assert f0.mean_bias > 4 * f0.std_error, f0
        assert time.perf_counter() - t0 < 120.0


def test_criterion_9_log_uniform_maximizes_likelihood():
    with criterion(9, "exponent 0 maximizes the 2020 power-law likelihood, "
                      "under 1 s"):
        t0 = time.perf_counter()
        states = bundled_census(2020)
        lo = min(s.population for s in states)
        hi = max(s.population for s in states)
        scan = powerlaw_loglik_scan(states, range(-4, 5), (lo, hi))
        best_beta, _ = max(scan, key=lambda pair: pair[1])
        assert best_beta == 0
        assert time.perf_counter() - t0 < 1.0
