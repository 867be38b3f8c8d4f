"""Command-line interface: output shapes, exit codes, determinism."""

import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seatcalc import engine
from seatcalc.census import bundled_census_path
from seatcalc.cli import main

CENSUS_2020 = str(bundled_census_path(2020))
CENSUS_1960 = str(bundled_census_path(1960))


def cap_address_space():
    """Child set-up: 1 GiB of address space, so that a run sized by its input
    fails fast instead of exhausting the machine's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def run_capped(*argv):
    """``python -m seatcalc *argv`` in a child with one BLAS thread, under
    ``cap_address_space``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "seatcalc", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=cap_address_space, timeout=120)


def assert_refused(proc, code, message):
    """The child exited ``code`` with no output and one ``seatcalc: message...``
    line on stderr, no traceback."""
    assert proc.returncode == code, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"seatcalc: {message}")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def state_section(text):
    """Rows between the state header and the family header, re-parsed."""
    lines = text.splitlines()
    start = lines.index("state,quota,seats") + 1
    stop = lines.index("family,quota,seats")
    rows = list(csv.reader(io.StringIO("\n".join(lines[start:stop]))))
    return [(name, float(quota), int(seats)) for name, quota, seats in rows]


# --- apportion ----------------------------------------------------------------

def test_family_subtotal_row_for_2020_webster(capsys):
    code, out, _ = run(capsys, "apportion", "--input", CENSUS_2020,
                       "--method", "webster", "--mode", "family",
                       "--divisor", "vt/435")
    assert code == 0
    assert "1,11.883,12" in out.splitlines()


def test_rhode_island_keeps_one_seat_statewise(capsys):
    code, out, _ = run(capsys, "apportion", "--input", CENSUS_2020,
                       "--method", "webster", "--mode", "state",
                       "--seats", "435")
    assert code == 0
    rows = {name: seats for name, _, seats in state_section(out)}
    assert rows["Rhode Island"] == 1
    assert sum(rows.values()) == 435
    assert out.splitlines()[-1].startswith("total,")
    assert out.splitlines()[-1].endswith(",435")


def test_fixed_divisor_single_state(capsys):
    code, out, _ = run(capsys, "apportion", "--populations", "400",
                       "--divisor", "100")
    assert code == 0
    lines = out.splitlines()
    assert "state1,4.000,4" in lines
    assert "4,4.000,4" in lines
    assert lines[-1] == "total,4.000,4"


def test_state_rows_reparse_and_order(capsys):
    _, out, _ = run(capsys, "apportion", "--input", CENSUS_2020,
                    "--method", "hill", "--mode", "family",
                    "--divisor", "vt/435")
    rows = state_section(out)
    assert len(rows) == 50
    # population ascending within ascending families means quotas
    # ascend within each family block
    quotas = [q for _, q, _ in rows]
    families = [int(q) for q in quotas]
    assert families == sorted(families)
    for (qa, fa), (qb, fb) in zip(zip(quotas, families),
                                  zip(quotas[1:], families[1:])):
        if fa == fb:
            assert qa <= qb


def test_multiple_solutions_banner(capsys):
    code, out, _ = run(capsys, "apportion",
                       "--populations", "0.999,1.43,62.4375",
                       "--method", "hill", "--mode", "family",
                       "--seats", "65")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "MULTIPLE_SOLUTIONS,2"
    assert sum(1 for ln in lines if ln.startswith("solution,")) == 2
    assert sum(1 for ln in lines if ln == "state,quota,seats") == 2


def test_json_schema(capsys):
    code, out, _ = run(capsys, "apportion", "--input", CENSUS_2020,
                       "--method", "webster", "--mode", "family",
                       "--divisor", "vt/435", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"divisor", "method", "mode", "states", "families",
                         "solutions"}
    assert data["method"] == "webster"
    assert data["mode"] == "family"
    assert len(data["states"]) == 50
    state = data["states"][0]
    assert set(state) == {"name", "quota", "seats", "family"}
    fam = data["families"][0]
    assert set(fam) == {"f", "quota", "seats", "size"}
    assert len(data["solutions"]) == 1


def test_tsv_delimiter(capsys):
    _, out, _ = run(capsys, "apportion", "--populations", "400",
                    "--divisor", "100", "--format", "tsv")
    assert "state\tquota\tseats" in out.splitlines()


def test_byte_determinism(capsys):
    args = ("apportion", "--input", CENSUS_2020, "--method", "hill",
            "--mode", "family", "--seats", "435")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_lognormal_marks_methods_apportion(capsys):
    code, out, _ = run(capsys, "apportion", "--populations", "1,2,3,30",
                       "--method", "lognormal:5,1", "--mode", "state",
                       "--divisor", "1")
    assert code == 0
    assert out.splitlines()[-1].startswith("total,")


# --- exit codes -----------------------------------------------------------------

def test_divisor_and_seats_conflict(capsys):
    code, _, err = run(capsys, "apportion", "--populations", "1,2",
                       "--divisor", "1", "--seats", "3")
    assert code == 4 and err


def test_neither_divisor_nor_seats(capsys):
    code, _, _ = run(capsys, "apportion", "--populations", "1,2")
    assert code == 4


def test_hamilton_rejects_divisor(capsys):
    code, _, _ = run(capsys, "apportion", "--populations", "1,2",
                     "--method", "hamilton", "--divisor", "1")
    assert code == 4


def test_hamilton_with_seats_works(capsys):
    code, out, _ = run(capsys, "apportion", "--populations", "1.4,1.4,1.2",
                       "--method", "hamilton", "--seats", "4")
    assert code == 0
    rows = {name: seats for name, _, seats in state_section(out)}
    assert rows == {"state1": 2, "state2": 1, "state3": 1}


def test_input_and_populations_conflict(tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text("state,population\nA,5\n")
    code, _, _ = run(capsys, "apportion", "--input", str(path),
                     "--populations", "1,2", "--divisor", "1")
    assert code == 4


def test_infeasible_target(capsys):
    code, _, err = run(capsys, "apportion", "--populations", "1,1,1",
                       "--method", "adams", "--seats", "2")
    assert code == 3 and err


SEATS_BELOW_ONE = [
    pytest.param(cmd, method, seats, id=f"{cmd[-1]}-{method}-{seats}")
    for cmd in (("apportion",), ("paradox", "multisol"))
    for method in ("adams", "dean", "hill", "webster", "jefferson", "powerlaw:2",
                   "lognormal:5,1")
    for seats in ("0", "-3")
]


@pytest.mark.parametrize("cmd,method,seats", SEATS_BELOW_ONE)
def test_infeasible_target_below_one_seat(capsys, cmd, method, seats):
    # refused before v_T/N is formed, for every method, with Hamilton's message
    code, out, err = run(capsys, *cmd, "--populations", "1,2,3",
                         "--method", method, "--seats", seats)
    assert code == 3
    assert out == ""
    assert err == f"seatcalc: target house size must be >= 1, got {seats}\n"


def test_unachievable_target(capsys):
    code, _, err = run(capsys, "apportion", "--populations", "1,1,1",
                       "--method", "adams", "--seats", "5")
    assert code == 3
    assert "3" in err and "6" in err  # nearest achievable house sizes


def test_unknown_method(capsys):
    code, _, _ = run(capsys, "apportion", "--populations", "1,2",
                     "--method", "banzhaf", "--divisor", "1")
    assert code == 2


def test_empty_census_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, _, _ = run(capsys, "apportion", "--input", str(path),
                     "--divisor", "1")
    assert code == 2


def test_missing_census_file(capsys):
    code, _, _ = run(capsys, "stats", "/nonexistent/file.csv")
    assert code == 2


def test_unknown_flag_is_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["apportion", "--bogus"])
    assert exc.value.code == 2


# --- marks ----------------------------------------------------------------------

def test_single_webster_mark_row(capsys):
    code, out, _ = run(capsys, "marks", "--method", "powerlaw:1", "--fmax", "0")
    assert code == 0
    assert out.splitlines() == ["f,powerlaw:1", "0,0.50"]


def test_power_law_mark_columns(capsys):
    code, out, _ = run(capsys, "marks", "--method", "powerlaw:-2",
                       "--method", "powerlaw:2", "--fmax", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "f,powerlaw:-2,powerlaw:2"
    table = [line.split(",") for line in lines[1:]]
    want_neg2 = (0.00, 1.41, 2.45, 3.46, 4.47)
    want_pos2 = (0.58, 1.53, 2.52, 3.51, 4.51)
    for f, row in enumerate(table):
        assert int(row[0]) == f
        assert float(row[1]) == pytest.approx(want_neg2[f], abs=0.005)
        assert float(row[2]) == pytest.approx(want_pos2[f], abs=0.005)


def test_infinite_exponent_columns(capsys):
    code, out, _ = run(capsys, "marks", "--method", "powerlaw:-inf",
                       "--method", "powerlaw:inf", "--fmax", "3")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for f, row in enumerate(rows):
        assert float(row[1]) == float(f)
        assert float(row[2]) == float(f + 1)


def test_lognormal_mark_column_three_digits(capsys):
    code, out, _ = run(capsys, "marks", "--method", "lognormal:5,1",
                       "--fmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'f,"lognormal:5,1"'
    assert lines[1] == "0,0.591"
    assert lines[2] == "1,1.506"


def test_named_rule_marks(capsys):
    code, out, _ = run(capsys, "marks", "--method", "hill", "--fmax", "2")
    assert code == 0
    assert out.splitlines()[1:] == ["0,0.00", "1,1.41", "2,2.45"]


def test_marks_reject_hamilton(capsys):
    code, _, _ = run(capsys, "marks", "--method", "hamilton", "--fmax", "2")
    assert code == 2


def test_marks_reject_a_lognormal_whose_mean_overflows(capsys):
    code, out, err = run(capsys, "marks", "--method", "lognormal:5,40", "--fmax", "2")
    assert code == 2
    assert out == ""
    assert "overflows" in err


def test_marks_reject_negative_digits(capsys):
    code, out, err = run(capsys, "marks", "--method", "webster", "--digits", "-1")
    assert code == 2
    assert out == ""
    assert "--digits" in err


def test_marks_json(capsys):
    code, out, _ = run(capsys, "marks", "--method", "webster", "--fmax", "1",
                       "--format", "json")
    data = json.loads(out)
    assert data["fmax"] == 1
    assert data["columns"][0]["marks"] == [0.5, 1.5]


# --- paradox --------------------------------------------------------------------

def test_fixtures_reproduce_all_scenarios(capsys):
    code, out, _ = run(capsys, "paradox", "fixtures")
    assert code == 0
    assert "state2: 2 -> 1" in out        # Alabama on families
    assert "no violations" in out          # Webster clean on the same instance
    assert "state3=62" in out and "state3=63" in out  # two solutions at 65
    assert "state1: 3 -> 2" in out         # New States costs an incumbent
    assert "state3: 3 -> 2" in out         # family-of-families regression


def test_fixtures_json(capsys):
    code, out, _ = run(capsys, "paradox", "fixtures", "--format", "json")
    assert code == 0
    data = json.loads(out)
    alabama = data["alabama_hh_family"]
    assert alabama["total_at_d_hi"] == 1002
    assert alabama["total_at_d_lo"] == 1003
    assert len(alabama["reports"]) == 1
    assert alabama["reports"][0]["affected_states"] == [
        {"name": "state2", "before": 2, "after": 1}]
    assert data["alabama_webster_family"] == []
    assert len(data["multiple_solution_hh_family"]["solutions"]) == 2
    assert data["new_states_webster_family"]["affected_states"] == [
        {"name": "state1", "before": 3, "after": 2}]
    assert data["new_states_webster_state"] is None
    assert data["family_of_families"]["kind"] == "alabama(family-of-families)"


def test_alabama_scan_clean_for_webster(capsys):
    code, out, _ = run(capsys, "paradox", "alabama",
                       "--populations", "0.999,1.43,999",
                       "--method", "webster", "--mode", "family",
                       "--d-lo", "0.998", "--d-hi", "1.0")
    assert code == 0
    assert out.strip() == "no violations"


def test_alabama_scan_fires_for_hill(capsys):
    code, out, _ = run(capsys, "paradox", "alabama",
                       "--populations", "0.999,1.43,999",
                       "--method", "hill", "--mode", "family",
                       "--d-lo", "0.998", "--d-hi", "1.0",
                       "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 1
    assert reports[0]["witness"] == pytest.approx(0.999, abs=1e-9)


def test_newstates_command(capsys):
    code, out, _ = run(capsys, "paradox", "newstates",
                       "--populations", "2.6,5.3", "--divisor", "1.0",
                       "--method", "webster", "--mode", "family",
                       "--add-state", "added:2.7")
    assert code == 0
    assert "state1: 3 -> 2" in out

    code, out, _ = run(capsys, "paradox", "newstates",
                       "--populations", "2.6,5.3", "--divisor", "1.0",
                       "--method", "webster", "--mode", "state",
                       "--add-state", "added:2.7")
    assert code == 0
    assert out.strip() == "no incumbent changed"


def test_newstates_bad_spec(capsys):
    code, _, _ = run(capsys, "paradox", "newstates",
                     "--populations", "2.6,5.3", "--divisor", "1.0",
                     "--add-state", "nameonly")
    assert code == 2


def test_multisol_command(capsys):
    code, out, _ = run(capsys, "paradox", "multisol",
                       "--populations", "0.999,1.43,62.4375",
                       "--method", "hill", "--mode", "family",
                       "--seats", "65")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "MULTIPLE_SOLUTIONS 2 at 65 seats"
    assert len([ln for ln in lines if ln.startswith("solution ")]) == 2


def test_multisol_unique_case(capsys):
    code, out, _ = run(capsys, "paradox", "multisol",
                       "--populations", "3.7", "--method", "webster",
                       "--mode", "state", "--seats", "7")
    assert code == 0
    assert out.splitlines()[0] == "unique apportionment at 7 seats"


# --- stats and bias ---------------------------------------------------------------

def test_stats_published_row(capsys):
    code, out, _ = run(capsys, "stats", CENSUS_2020)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "year,mean,std,skew,excess_kurtosis"
    assert "2020,15.218,1.024,-0.047,-0.514" in lines


def test_stats_multiple_years(capsys):
    code, out, _ = run(capsys, "stats", CENSUS_2020, "--years", CENSUS_1960)
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")[1:]
            for line in out.splitlines()[1:]}
    mean, std, _, _ = (float(x) for x in rows["1960"])
    assert mean == pytest.approx(14.583, abs=0.002)
    assert std == pytest.approx(1.071, abs=0.002)


def test_bias_deterministic_given_seed(capsys):
    args = ("bias", "--dist", "lognormal:5,1", "--replications", "300",
            "--n-states", "12", "--seed", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.splitlines()[0] == "f,mean_bias,std_error"


def test_seed_env_override(capsys, monkeypatch):
    _, explicit, _ = run(capsys, "bias", "--dist", "lognormal:5,1",
                         "--replications", "100", "--n-states", "8",
                         "--seed", "17")
    monkeypatch.setenv("SEATCALC_SEED", "17")
    _, from_env, _ = run(capsys, "bias", "--dist", "lognormal:5,1",
                         "--replications", "100", "--n-states", "8")
    assert from_env == explicit


def test_a_malformed_seed_variable_is_refused_unless_a_seed_is_given(capsys, monkeypatch):
    # SEATCALC_SEED=abc used to be read as seed 0; an explicit --seed still
    # wins over the variable, and commands other than bias never read it
    args = ("bias", "--dist", "lognormal:5,1", "--replications", "50", "--n-states", "3")
    _, at_zero, _ = run(capsys, *args, "--seed", "0")
    monkeypatch.setenv("SEATCALC_SEED", "abc")
    assert run(capsys, *args) == (
        2, "", "seatcalc: SEATCALC_SEED must be an integer, got 'abc'\n")
    assert run(capsys, *args, "--seed", "0") == (0, at_zero, "")
    assert run(capsys, "marks", "--method", "webster", "--fmax", "1")[0] == 0


def test_a_negative_seed_is_refused_by_name(capsys, monkeypatch):
    # numpy's "expected non-negative integer" named no argument
    args = ("bias", "--dist", "lognormal:5,1", "--replications", "10", "--n-states", "2")
    assert run(capsys, *args, "--seed", "-1") == (
        2, "", "seatcalc: seed must be non-negative, got -1\n")
    monkeypatch.setenv("SEATCALC_SEED", "-5")
    assert run(capsys, *args) == (2, "", "seatcalc: seed must be non-negative, got -5\n")


def test_bias_json_and_matched_marks(capsys):
    code, out, _ = run(capsys, "bias", "--dist", "lognormal:5,1",
                       "--marks", "matched", "--replications", "150",
                       "--n-states", "10", "--seed", "5",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 5
    assert all({"f", "mean_bias", "std_error"} == set(row)
               for row in data["families"])


def test_bias_rejects_hamilton_marks(capsys):
    code, _, _ = run(capsys, "bias", "--dist", "lognormal:5,1",
                     "--marks", "hamilton", "--replications", "10",
                     "--n-states", "5")
    assert code == 2


@pytest.mark.parametrize("divisor,problem", [("nan", "finite"), ("inf", "finite"),
                                             ("-inf", "finite"), ("abc", "a number")])
def test_bias_rejects_bad_divisor(capsys, divisor, problem):
    code, out, err = run(capsys, "bias", "--dist", "lognormal:5,1",
                         f"--divisor={divisor}", "--replications", "10",
                         "--n-states", "5")
    assert code == 2
    assert out == ""
    assert err == f"seatcalc: --divisor must be {problem}, got {divisor!r}\n"


def test_bias_webster_marks_accepted(capsys):
    code, out, _ = run(capsys, "bias", "--dist", "lognormal:5,1",
                       "--marks", "webster", "--replications", "100",
                       "--n-states", "10", "--seed", "1")
    assert code == 0
    assert len(out.splitlines()) > 1


# --- module execution -------------------------------------------------------------

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "seatcalc", "marks", "--method", "webster",
         "--fmax", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["f,webster", "0,0.50", "1,1.50"]


@pytest.mark.parametrize("argv,header", [
    # bias writes 17,759 lines (415 KB)
    (("bias", "--dist", "lognormal:5,2", "--replications", "200", "--seed", "1"),
     b"f,mean_bias,std_error\n"),
    # marks streams 200,001 lines (2.8 MB)
    (("marks", "--method", "webster", "--fmax", "200000"), b"f,webster\n"),
], ids=["bias", "marks"])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_output_pipe_ends_quietly(unbuffered, argv, header):
    # as under `| head -n 1`: each command writes more than a pipe buffer holds,
    # so the child is still writing when the reader goes away
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen([sys.executable, "-m", "seatcalc", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == header
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert err == b""
    assert code == 0


@pytest.mark.parametrize("args", [
    # a quota of 3.2e19, beyond int64
    ("--dist", "lognormal:5,30", "--replications", "1", "--n-states", "1", "--seed", "0"),
    # family 2,186,058,007: running totals sized by it would take 16 GiB
    ("--dist", "lognormal:5,10", "--replications", "1", "--seed", "1", "--marks", "webster"),
], ids=["beyond-int64", "beyond-memory"])
def test_heavy_tail_bias_is_refused(args):
    assert_refused(run_capped("bias", *args), 2, "a draw reaches family ")


def test_heavy_tail_bias_memory_is_sized_by_the_draws():
    # lognormal:5,2 reaches family 30,170 in one 4,096-replication chunk, so a dense
    # replications x families table would take about 0.9 GiB; the accumulation must
    # stay under 256 MB.  A fresh launcher reads RUSAGE_CHILDREN, which then covers
    # this one child and nothing else the test process ran.
    launcher = ("import resource, subprocess, sys\n"
                "subprocess.run([sys.executable, '-m', 'seatcalc', 'bias', '--dist', "
                "'lognormal:5,2', '--marks', 'webster', '--replications', '4096', '--seed', "
                "'1'], check=True, stdout=subprocess.DEVNULL)\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", launcher], capture_output=True, text=True,
                          env=env, preexec_fn=cap_address_space, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    peak_mb = int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb <= 256, f"bias peaked at {peak_mb:.0f} MB RSS"


def test_unbounded_candidate_window_is_refused():
    # about 6e300 boundary crossings: listing them would fill any memory, so a
    # regression under the 1 GiB address-space cap fails fast
    proc = run_capped("paradox", "alabama", "--populations", "1,2,3", "--d-lo", "1e-300",
                      "--d-hi", "1")
    assert_refused(proc, 2, "the divisor window [1e-300, 1.0] spans more than ")



@pytest.mark.parametrize("argv,k", [
    (("paradox", "alabama", "--d-lo", "vt/600", "--d-hi", "vt/300"), 3),
    (("apportion", "--mode", "family", "--seats", "435"), 1),
], ids=["alabama", "apportion-seats"])
def test_a_failed_sweep_check_exits_4(capsys, monkeypatch, argv, k):
    # the k-th crossing event of 1980 under Webster by family left out, as a
    # missed crossing would be: the sweep's guard raises ApportionmentError
    events = engine._crossing_events
    monkeypatch.setattr(engine, "_crossing_events",
                        lambda *args: [e for j, e in enumerate(events(*args)) if j != k])
    code, out, err = run(capsys, *argv, "--input", str(bundled_census_path(1980)))
    assert (code, out) == (4, "")
    assert err.startswith("seatcalc: divisor sweep missed a crossing below D = ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("apportion", "--populations", "1e308,1e308", "--seats", "2"),
    ("apportion", "--populations", "1e308,1e308", "--seats", "2", "--method", "hamilton"),
    ("apportion", "--populations", "1e308,1e308", "--divisor", "1e-300"),
    ("apportion", "--populations", "1e308,1e308", "--divisor", "1e-300", "--mode", "family"),
    ("apportion", "--populations", "1e308,1e308", "--divisor", "vt/2"),
    ("apportion", "--populations", "1,2", "--divisor", "1e-309"),
    ("paradox", "alabama", "--populations", "1,2", "--d-lo", "1e-309", "--d-hi", "1e-308"),
], ids=["seats", "hamilton", "divisor", "divisor-family", "vt-divisor", "quotas", "alabama"])
def test_overflowing_populations_and_quotas_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("seatcalc: the ") and " overflow" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_a_family_quota_beyond_the_float_range_prints_as_inf(capsys):
    # by state each quota, 1e308, is a float; the family row sums both
    code, out, err = run(capsys, "apportion", "--populations", "1e307,1e307",
                         "--divisor", "0.1", "--mode", "state")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[lines.index("family,quota,seats") + 1].split(",")[1] == "inf"
    assert lines[-1].split(",")[1] == "inf"


def test_an_infinite_family_quota_is_strict_json(capsys):
    # strict parsers reject the bare Infinity and NaN that json.dumps writes
    # by default: the quota is written as the string "inf" instead
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    code, out, err = run(capsys, "apportion", "--populations", "1e307,1e307",
                         "--divisor", "0.1", "--mode", "state", "--format", "json")
    assert code == 0 and err == ""
    data = json.loads(out, parse_constant=refuse)
    assert [fam["quota"] for fam in data["families"]] == ["inf"]
    assert [s["quota"] for s in data["states"]] == [1e308, 1e308]


BIAS = ("bias", "--dist", "lognormal:5,1")


@pytest.mark.parametrize("argv,message", [
    (("marks", "--method", "webster", "--fmax", "100000000000"),
     "--fmax must be at most 1,048,576"),
    (("marks", "--method", "webster", "--fmax", "1048577"), "--fmax must be at most "),
    # 2e9 digits of one mark ended in a MemoryError; past 1,074 they are only zeros
    (("marks", "--method", "webster", "--fmax", "0", "--digits", "2000000000"),
     "--digits must be at most 1,074"),
    (("marks", "--method", "webster", "--fmax", "0", "--digits", "1075"),
     "--digits must be at most 1,074"),
    ((*BIAS, "--n-states", "1000000000000"), "a chunk of 4,096,000,000,000,000 draws"),
    ((*BIAS, "--replications", "4096", "--n-states", "4097"), "a chunk of 16,781,312 draws"),
    ((*BIAS, "--replications", str(10 ** 30)), "replications must be at most 2**53"),
    ((*BIAS, "--replications", str(2 ** 53 + 1), "--n-states", "1"),
     "replications must be at most 2**53"),
], ids=["fmax", "fmax-edge", "digits", "digits-edge", "n-states", "chunk-edge", "replications",
        "replications-edge"])
def test_oversized_sizes_are_refused(argv, message):
    # each is refused before anything is sized by it, in a capped child
    assert_refused(run_capped(*argv), 2, message)


@pytest.mark.parametrize("method,seats,message", [
    ("hamilton", 10 ** 18, "target 1000000000000000000 is beyond float precision"),
    ("hamilton", 10 ** 21, "target 1000000000000000000000 is beyond float precision"),
    ("webster", 10 ** 17, "target 100000000000000000 is beyond float precision"),
    ("lognormal:5,1", 10 ** 18, "target 1000000000000000000 is beyond float precision"),
    ("hamilton", 10 ** 400, "target house size is beyond the float range"),
    ("webster", 10 ** 400, "target house size is beyond the float range"),
    ("lognormal:5,1", 10 ** 400, "target house size is beyond the float range"),
], ids=["hamilton-1e18", "hamilton-1e21", "webster-1e17", "lognormal-1e18",
        "hamilton-1e400", "webster-1e400", "lognormal-1e400"])
def test_huge_house_sizes_are_refused(method, seats, message):
    # in a capped child: a window sized by the target would fail fast
    proc = run_capped("apportion", "--populations", "1,2,3", "--method", method,
                      "--seats", str(seats))
    assert_refused(proc, 3, message)


@pytest.mark.parametrize("beta", ["inf", "+inf", "infinity", "+infinity", "INF",
                                  "-inf", "-infinity", "-Infinity"])
def test_every_spelling_of_an_infinite_exponent(capsys, beta):
    code, out, _ = run(capsys, "marks", "--method", f"powerlaw:{beta}", "--fmax", "3")
    assert code == 0
    shift = 0 if beta.startswith("-") else 1  # Adams marks at f, Jefferson at f + 1
    assert [float(line.split(",")[1]) for line in out.splitlines()[1:]] == [
        float(f + shift) for f in range(4)]


def test_import_leaves_numpy_unloaded():
    # numpy is imported where sampling needs it, so start-up does not pay for it
    code = "import sys, seatcalc, seatcalc.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_bias_leaves_numpy_ma_unloaded():
    # importing numpy.ma costs about 15 ms of every bias run, and np.unique pulls it in
    code = ("import sys; from seatcalc.cli import main; "
            "main(['bias', '--dist', 'lognormal:5,1', '--replications', '50', '--n-states', '5']); "
            "sys.exit('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("f,mean_bias,std_error\n")


# --- every input ends in an exit code ------------------------------------------

POSITIVE = ("5e-324", "1e-300", "0.5", "1", "2.5", "7", "62.4375", "435", "1e17", "1e300",
            "1e308")
NOT_POSITIVE = ("0", "-1", "inf", "-inf", "nan", "x", "")
HOUSE_SIZES = ("-3", "0", "1", "2", "3", "5", "65", "435", "100000000000000000", "1" + "0" * 400)
RULES = ("adams", "dean", "hill", "webster", "jefferson", "hamilton", "powerlaw:2",
         "powerlaw:-inf", "powerlaw:inf", "Webster", "webster:1", "banzhaf")


# three numbers in four are positive and finite, so most argvs get past parsing
_NUMBER = st.integers(0, 3).flatmap(lambda k: st.sampled_from(POSITIVE if k else NOT_POSITIVE))


def _grammar(name, arity):
    """``name:p1,...`` texts with parameters from ``_NUMBER``."""
    params = st.lists(_NUMBER, min_size=arity, max_size=arity)
    return params.map(lambda ps: f"{name}:{','.join(ps)}")


_METHODS = st.one_of(st.sampled_from(RULES), _grammar("powerlaw", 1), _grammar("lognormal", 2))
_LAWS = st.one_of(_grammar("lognormal", 2), _grammar("powerlaw", 3), _grammar("uniform", 2))
_DIVISORS = st.one_of(_NUMBER, _NUMBER.map(lambda n: f"vt/{n}"))
_SIZES = st.sampled_from(("-1", "0", "1", "2", "10"))


@st.composite
def _argvs(draw):
    """An argv of apportion, marks, paradox alabama|newstates|multisol or bias,
    in one of the three output formats, each value given as ``--flag=value``
    so that argparse reads a leading minus as a value."""
    return [*draw(_command_argvs()), f"--format={draw(st.sampled_from(('csv', 'tsv', 'json')))}"]


@st.composite
def _command_argvs(draw):
    command = draw(st.sampled_from(("apportion", "marks", "alabama", "newstates", "multisol",
                                    "bias")))
    if command == "marks":
        methods = draw(st.lists(_METHODS, min_size=1, max_size=2))
        return ["marks", *[f"--method={m}" for m in methods],
                f"--fmax={draw(st.sampled_from(('-1', '0', '3', '10')))}"]
    if command == "bias":
        marks = draw(st.one_of(st.just("matched"), _METHODS))
        return ["bias", f"--dist={draw(_LAWS)}", f"--marks={marks}",
                f"--divisor={draw(_NUMBER)}", f"--replications={draw(_SIZES)}",
                f"--n-states={draw(_SIZES)}", "--seed=1"]
    pops = ",".join(draw(st.lists(_NUMBER, min_size=1, max_size=5)))
    scenario = [f"--populations={pops}", f"--method={draw(_METHODS)}",
                f"--mode={draw(st.sampled_from(('state', 'family')))}"]
    if command == "apportion":
        if draw(st.booleans()):
            return ["apportion", *scenario, f"--seats={draw(st.sampled_from(HOUSE_SIZES))}"]
        return ["apportion", *scenario, f"--divisor={draw(_DIVISORS)}"]
    if command == "multisol":
        return ["paradox", "multisol", *scenario,
                f"--seats={draw(st.sampled_from(HOUSE_SIZES))}"]
    if command == "alabama":
        return ["paradox", "alabama", *scenario, f"--d-lo={draw(_DIVISORS)}",
                f"--d-hi={draw(_DIVISORS)}"]
    return ["paradox", "newstates", *scenario, f"--divisor={draw(_DIVISORS)}",
            f"--add-state=added:{draw(_NUMBER)}"]


# inputs that once ended in a traceback (exit 1) or wrote a warning to stderr, with
# the exit code and the one seatcalc: line they end in now
SUBNORMAL = ("is beyond float precision: its divisor window [0.0, 5e-324] is one float "
             "or starts at 0")
REFUSED = {
    # a subnormal total: the lower cap of the house-size window underflowed to 0
    "subnormal-family": (("apportion", "--populations", "4.9e-324", "--method", "jefferson",
                          "--mode", "family", "--seats", "3"), 3, f"target 3 {SUBNORMAL}"),
    "subnormal-state": (("apportion", "--populations", "5e-324,4.9e-324", "--method",
                         "jefferson", "--seats", "5"), 3, f"target 5 {SUBNORMAL}"),
    "subnormal-multisol": (("paradox", "multisol", "--populations", "4.9e-324", "--method",
                            "adams", "--seats", "3"), 3, f"target 3 {SUBNORMAL}"),
    # a lognormal whose v_g = q_g × divisor underflows: the anchor v_T/3 is 0, or the product
    "lognormal-anchor-zero": (("apportion", "--populations", "5e-324", "--method",
                               "lognormal:5,1", "--seats", "3"), 2,
                              "lognormal q_g * divisor = 5.0 * 0.0 underflows to 0"),
    "lognormal-vg-zero": (("apportion", "--populations", "1e-300", "--method",
                           "lognormal:1e-300,1", "--divisor", "1e-300"), 2,
                          "lognormal q_g * divisor = 1e-300 * 1e-300 underflows to 0"),
    # a power law whose normalizer is 0 (its draws were all 1.0) or beyond the float range
    "powerlaw-norm-zero": (("bias", "--dist", "powerlaw:1e-320,2.5,7", "--divisor", "435",
                            "--replications", "2", "--n-states", "5", "--seed", "1"), 2,
                           "the density does not normalize in floats on [2.5, 7.0]: its "
                           "normalizer is 0.0"),
    "powerlaw-norm-inf": (("bias", "--dist", "powerlaw:2.5,1,1e300", "--replications", "10",
                           "--n-states", "2", "--seed", "1"), 2,
                          "the density does not normalize in floats on [1.0, 1e+300]: its "
                          "normalizer is inf"),
    # a quota or a draw beyond the float range: numpy warned of the overflow
    "bias-quota-inf": (("bias", "--dist", "uniform:0,1e308", "--divisor", "1e-300",
                        "--replications", "2", "--n-states", "2", "--seed", "1"), 2,
                       "a draw reaches family inf, beyond the limit of 1,048,576 families"),
    "bias-draw-inf": (("bias", "--dist", "lognormal:0.999,1", "--divisor", "1e308",
                       "--marks", "jefferson", "--replications", "10", "--n-states", "1",
                       "--seed", "1"), 2,
                      "a draw reaches family inf, beyond the limit of 1,048,576 families"),
}
# laws out of float range that now compute: (b/a)^beta and (v - v_lo)^2 beyond it
COMPUTED = {
    "powerlaw-wide": ("bias", "--dist", "powerlaw:3,1e-300,1", "--divisor", "62.4375",
                      "--replications", "10", "--n-states", "2", "--seed", "1"),
    "uniform-wide": ("bias", "--dist", "uniform:0,1e300", "--divisor", "1e308",
                     "--replications", "10", "--n-states", "2", "--seed", "1"),
}


def _run_quietly(argv):
    """(exit code, stdout, stderr) of one in-process run, and the warnings it
    raised, each of which a child would write to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=800, deadline=None)
@given(_argvs())
@example(list(REFUSED["subnormal-family"][0]))
@example(list(REFUSED["subnormal-state"][0]))
@example(list(REFUSED["subnormal-multisol"][0]))
@example(list(REFUSED["lognormal-anchor-zero"][0]))
@example(list(REFUSED["lognormal-vg-zero"][0]))
@example(list(REFUSED["powerlaw-norm-zero"][0]))
@example(list(REFUSED["powerlaw-norm-inf"][0]))
@example(list(REFUSED["bias-quota-inf"][0]))
@example(list(REFUSED["bias-draw-inf"][0]))
@example(list(COMPUTED["powerlaw-wide"]))
@example(list(COMPUTED["uniform-wide"]))
def test_every_input_ends_in_an_exit_code(argv):
    code, out, err, caught = _run_quietly(argv)
    assert code in (0, 2, 3, 4)
    assert caught == []
    if code:
        # a command writes its output only after every library call returned
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("seatcalc: "), err


@pytest.mark.parametrize("case", REFUSED)
def test_totals_and_laws_out_of_float_range_are_refused(case):
    argv, code, message = REFUSED[case]
    proc = run_capped(*argv)
    assert_refused(proc, code, message)
    assert proc.stderr == f"seatcalc: {message}\n"


@pytest.mark.parametrize("case", COMPUTED)
def test_bias_on_laws_out_of_float_range_computes(case):
    proc = run_capped(*COMPUTED[case])
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("f,mean_bias,std_error\n")
