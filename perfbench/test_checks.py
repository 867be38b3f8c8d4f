"""The benchmark's checks reject wrong answers.

Each test hands a check a deliberately wrong output (one seat moved, a
mark shifted by 1e-6, a printed figure changed) and expects it refused,
after confirming that the right output passes.  Run from the repository
root:

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import math
import os
import sys
from dataclasses import replace

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import seatcalc as sc  # noqa: E402
import seatcalc.cli  # noqa: E402,F401
import workloads  # noqa: E402
from inputs import RULES  # noqa: E402


def move_seat(app, names):
    """The apportionment with one seat moved from names[1] to names[0]."""
    seats = dict(app.seats)
    seats[names[0]] += 1
    seats[names[1]] -= 1
    return replace(app, seats=seats)


@pytest.fixture(scope="module")
def census():
    return {y: sc.bundled_census(y) for y in (2000, 2020)}


# --- the references themselves ------------------------------------------------

def test_exact_rounding_sits_on_each_mark():
    # quotas one part in 1e12 either side of r(1), r(1) from each rule's formula
    marks = {"dean": 4.0 / 3.0, "hill": math.sqrt(2.0), "webster": 1.5,
             "powerlaw:2": math.sqrt(2.0 + 1.0 / 3.0)}
    scale = 10 ** 12
    for rule, mark in marks.items():
        at = int(mark * scale)
        assert ref.round_exact(rule, at - 1, scale) == 1, rule
        assert ref.round_exact(rule, at + 1, scale) == 2, rule
    assert ref.round_exact("adams", scale + 1, scale) == 2      # r(1) = 1
    assert ref.round_exact("jefferson", 2 * scale - 1, scale) == 1  # r(1) = 2
    assert ref.round_exact("webster", 3, 2) == 2   # a quota at the mark rounds up
    assert ref.round_exact("adams", 4, 2) == 2     # an integral quota stands


def test_priority_list_matches_brute_force_divisor_search():
    inst = ref.Instance(["a", "b", "c", "d"], [7.0, 3.3, 11.9, 1.2])
    for rule in RULES:
        for house in range(5, 20):
            got = ref.priority_list(inst, rule, house)
            if got is None:
                continue
            seats, lo, hi = got
            divisor = math.sqrt(lo * hi) if math.isfinite(hi) else 2 * lo
            assert sum(seats) == house
            assert inst.seats(divisor, rule, "state") == seats


def test_family_reference_rounds_families_and_splits_by_rank():
    inst = ref.Instance([f"s{i}" for i in range(6)], [1.2, 1.3, 1.4, 2.6, 2.7, 9.5])
    # family 1: quota 3.9 -> 4 seats, the largest member takes the extra one;
    # family 2: quota 5.3 -> 5 seats; family 9: quota 9.5 at its mark -> 10
    assert inst.seats(1.0, "webster", "family") == (1, 1, 2, 2, 3, 10)
    # the same quotas in state mode
    assert inst.seats(1.0, "webster", "state") == (1, 1, 1, 3, 3, 10)


def test_lognormal_reference_solves_its_defining_equation():
    mu, sigma, f, d = math.log(5.0), 1.0, 3, 1.0
    r = ref.lognormal_mark(mu, sigma, f, d)
    with mpmath.workdps(30):
        surv = lambda x: mpmath.erfc((mpmath.log(x) - mu) / (sigma * mpmath.sqrt(2))) / 2  # noqa: E731
        rhs = mpmath.quad(surv, [f * d, (f + 1) * d]) / d
        assert abs(surv(r * d) - rhs) < 1e-12
    # agrees with the program where the program is right (sigma = 1)
    assert abs(sc.unbiased_mark(sc.LogNormal(mu, sigma), f, d) - r) < 1e-11


# --- census-house ---------------------------------------------------------------

@pytest.mark.parametrize("mode", ["state", "family"])
def test_census_house_rejects_a_moved_seat(census, mode):
    work = workloads.CensusHouse(sc, {"census": census, "ops": []})
    method = sc.MethodSpec(sc.HUNTINGTON_HILL, mode)
    sols = sc.apportion_for_house_size(census[2020], 435, method)
    inst = work.inst[2020]
    assert work._check(inst, "hill", mode, 435, sols).fault is None
    wrong = [move_seat(sols[0], ["Montana", "Texas"])]
    assert work._check(inst, "hill", mode, 435, wrong).fault == "unexpected"


# --- lognormal-house --------------------------------------------------------------

def test_lognormal_check_rejects_a_mark_shifted_by_1e_6(census, monkeypatch):
    work = workloads.LognormalHouse(sc, {"census": census, "ops": []})
    dist = work._dist(2020, 1.0)
    inst = work.inst[2020]
    divisor = work.v_total[2020] / 435
    worst, _ = work._mark_error(dist, inst, "state", divisor)
    assert worst <= workloads.MARK_TOL
    true_mark = sc.distributions.unbiased_mark
    monkeypatch.setattr(sc.distributions, "unbiased_mark",
                        lambda d, f, D: true_mark(d, f, D) + 1e-6)
    worst, _ = work._mark_error(dist, inst, "state", divisor)
    assert worst > workloads.MARK_TOL


def test_lognormal_check_rejects_a_moved_seat(census):
    work = workloads.LognormalHouse(sc, {"census": census, "ops": []})
    dist = work._dist(2020, 1.0)
    method = sc.MethodSpec(sc.DistributionMarks(dist), "family")
    sols = sc.apportion_for_house_size(census[2020], 435, method)
    assert work._check(2020, "family", dist, 435, sols).fault is None
    wrong = [move_seat(sols[0], ["Montana", "Texas"])]
    assert work._check(2020, "family", dist, 435, wrong).fault == "unexpected"


# --- divisor-sweep -----------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep():
    return workloads.DivisorSweep(sc, inputs.build("divisor-sweep", 3))


def test_pieces_check_rejects_a_moved_seat_inside_a_piece(sweep):
    inst = ref.Instance(["a", "b", "c"], [3.0, 5.0, 7.0])
    states = [sc.StateProfile(n, v) for n, v in zip(inst.names, inst.populations)]
    method = sc.MethodSpec(sc.WEBSTER, "state")
    pieces = sc.piecewise_apportionments(states, method, 0.9, 1.1)
    verdict = sweep._check_pieces("toy", inst, "webster", "state", 0.9, 1.1, pieces)
    assert verdict.fault in (None, "b")
    lo, hi, app = pieces[0]
    wrong = [(lo, hi, move_seat(app, ["a", "c"]))] + pieces[1:]
    assert sweep._check_pieces("toy", inst, "webster", "state", 0.9, 1.1, wrong).fault == "unexpected"


def test_pieces_check_counts_an_exact_endpoint_miss_as_fault_b(sweep):
    # 2020 Adams in state mode: almost every endpoint is on the wrong side
    states, inst = sweep.census[2020], sweep.inst[2020]
    lo, hi = sweep.window[2020]
    pieces = sc.piecewise_apportionments(states, sc.MethodSpec(sc.ADAMS, "state"), lo, hi)
    assert sweep._check_pieces("2020", inst, "adams", "state", lo, hi, pieces).fault == "b"


def test_scan_check_rejects_a_report_where_none_can_exist(sweep):
    states, inst = sweep.census[2020], sweep.inst[2020]
    lo, hi = sweep.window[2020]
    method = sc.MethodSpec(sc.WEBSTER, "family")
    assert sweep._check_scan("2020", inst, "webster", "family", []).fault is None
    pieces = sc.piecewise_apportionments(states, method, lo, hi)
    (a, b, after), (c, d, before) = pieces[0], pieces[1]
    fake = sc.ParadoxReport("alabama", b, before, move_seat(after, ["Montana", "Texas"]),
                            (("Texas", 38, 37),))
    assert sweep._check_scan("2020", inst, "webster", "family", [fake]).fault == "unexpected"


def test_random_check_rejects_a_moved_seat_and_a_second_solution(sweep):
    states, inst, target, at_one = sweep.random[5]
    op = sweep._random_op(5, states, inst, target, at_one)
    reports, sols = op.run()
    assert op.check((reports, sols)).fault is None
    if len(states) > 1:
        names = [inst.names[0], inst.names[1]]
        if sols[0].seats[names[1]] > 0:
            assert op.check((reports, [move_seat(sols[0], names)])).fault == "unexpected"
    assert op.check((reports, sols + sols)).fault == "unexpected"


# --- cli -----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli():
    return workloads.Cli(sc, inputs.build("cli", 0))


def scenario_output(cli, name):
    for scenario, argv, checker in cli.scenarios:
        if scenario == name:
            code, out, _ = cli._inprocess(argv)
            assert code == 0
            return out.decode(), checker
    raise KeyError(name)


def test_cli_apportion_checks_reject_a_moved_seat(cli):
    for name in ("apportion-webster", "apportion-lognormal", "apportion-divisor"):
        text, checker = scenario_output(cli, name)
        assert checker(text) is None, name
        # one seat from the largest state (last state row) to the smallest
        lines = text.split("\n")
        last = lines.index("family,quota,seats") - 1
        for index, delta in ((1, 1), (last, -1)):
            name, quota, seats = lines[index].split(",")
            lines[index] = f"{name},{quota},{int(seats) + delta}"
        wrong = "\n".join(lines)
        assert checker(wrong) is not None, name


def test_cli_hill_json_check_rejects_a_moved_seat(cli):
    text, checker = scenario_output(cli, "apportion-hill-json")
    assert checker(text) is None
    data = json.loads(text)
    rows = data["solutions"][0]["states"]
    rows[0]["seats"] += 1
    rows[1]["seats"] -= 1
    assert checker(json.dumps(data)) is not None


def test_cli_marks_check_rejects_a_shifted_mark(cli):
    text, checker = scenario_output(cli, "marks")
    assert checker(text) is None
    lines = text.split("\n")
    cols = lines[3].split(",")
    cols[-1] = f"{float(cols[-1]) + 0.001:.3f}"
    lines[3] = ",".join(cols)
    assert checker("\n".join(lines)) is not None


def test_cli_stats_bias_and_paradox_checks_reject_changed_figures(cli):
    text, checker = scenario_output(cli, "stats")
    assert checker(text) is None
    lines = text.split("\n")
    year, mean, *rest = lines[1].split(",")
    lines[1] = ",".join([year, f"{float(mean) + 0.001:.3f}", *rest])
    assert checker("\n".join(lines)) is not None

    text, checker = scenario_output(cli, "bias")
    assert checker(text) is None
    lines = text.split("\n")
    f, _, se = lines[2].split(",")
    lines[2] = ",".join([f, f"{5 * float(se):.6f}", se])
    assert checker("\n".join(lines)) is not None

    text, checker = scenario_output(cli, "paradox-fixtures")
    assert checker(text) is None
    assert checker(text.replace("Alabama paradox at divisor", "no paradox", 1)) is not None
    assert cli._check_alabama("Alabama paradox at divisor 1\n") is not None


def test_cli_check_rejects_stdout_that_changes_between_repeats(cli):
    name, argv, checker = cli.scenarios[5]
    good = (0, b"no violations\n", b"")
    assert cli._check(name, checker, good).fault is None
    assert cli._check(name, checker, (0, b"no violations \n", b"")).fault == "unexpected"


# --- the metric table ----------------------------------------------------------------

def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
