"""Log-scale census statistics, histograms, likelihood scans, file access."""

import math
from collections import namedtuple

import numpy as np
import pytest

from seatcalc.cli import main
from seatcalc.census import (
    BUNDLED_YEARS,
    bundled_census,
    bundled_census_path,
    log_histogram,
    log_moments,
    powerlaw_loglik_scan,
    read_census_csv,
)
from seatcalc.core import StateProfile

Row = namedtuple("Row", "population name", defaults=("s",))

# year -> (mean, std, skew, excess kurtosis) of ln(population)
MOMENT_TABLE = {
    2020: (15.218, 1.024, -0.047, -0.514),
    2010: (15.156, 1.019, -0.054, -0.537),
    2000: (15.062, 1.020, -0.052, -0.572),
    1990: (14.939, 1.018, -0.015, -0.630),
    1980: (14.850, 1.021, -0.073, -0.719),
    1970: (14.714, 1.063, -0.091, -0.719),
    1960: (14.583, 1.071, -0.172, -0.606),
}


# --- moments ------------------------------------------------------------------

@pytest.mark.parametrize("year", [2020, 1960])
def test_published_moment_rows(year):
    m = log_moments(bundled_census(year))
    want = MOMENT_TABLE[year]
    assert m.mean == pytest.approx(want[0], abs=0.002)
    assert m.std == pytest.approx(want[1], abs=0.002)
    assert m.skew == pytest.approx(want[2], abs=0.002)
    assert m.excess_kurtosis == pytest.approx(want[3], abs=0.002)


def test_moments_reject_degenerate_input():
    e = math.e
    with pytest.raises(ValueError):
        log_moments([Row(e), Row(e), Row(e), Row(e)])
    with pytest.raises(ValueError):
        log_moments([Row(5.0)])


@pytest.mark.parametrize("n", [2, 3])
def test_moments_of_too_few_states_are_nan(n):
    # skew needs three states and kurtosis four
    m = log_moments([Row(float(10 ** k)) for k in range(1, n + 1)])
    assert m.mean == pytest.approx(math.log(10.0) * (n + 1) / 2)
    assert m.std > 0
    assert math.isnan(m.skew) == (n < 3)
    assert math.isnan(m.excess_kurtosis)


def test_moments_scale_equivariance():
    states = bundled_census(2020)
    scaled = [Row(s.population * 10.0) for s in states]
    base = log_moments(states)
    moved = log_moments(scaled)
    assert moved.mean == pytest.approx(base.mean + math.log(10.0), rel=1e-12)
    assert moved.std == pytest.approx(base.std, rel=1e-9)
    assert moved.skew == pytest.approx(base.skew, rel=1e-9)
    assert moved.excess_kurtosis == pytest.approx(base.excess_kurtosis, rel=1e-9)


def test_moments_calibrated_on_gaussian_logs():
    rng = np.random.default_rng(314159)
    logs = rng.standard_normal(1_000_000) * 1.3 + 15.0
    states = [Row(math.exp(x)) for x in logs]
    m = log_moments(states)
    assert m.mean == pytest.approx(15.0, abs=0.01)
    assert m.std == pytest.approx(1.3, abs=0.01)
    assert m.skew == pytest.approx(0.0, abs=0.01)
    assert m.excess_kurtosis == pytest.approx(0.0, abs=0.01)


# --- histogram ------------------------------------------------------------------

def test_histogram_conserves_states():
    bins = log_histogram(bundled_census(2020), 0.5, 13.0)
    assert sum(c for _, c in bins) == 50
    starts = [b for b, _ in bins]
    for a, b in zip(starts, starts[1:]):
        assert b - a == pytest.approx(0.5, rel=1e-12)
    assert bins[0][1] > 0 and bins[-1][1] > 0


def test_histogram_single_state():
    state = StateProfile("only", 1_000_000.0)
    bins = log_histogram([state], 0.5, 13.0)
    assert len(bins) == 1
    start, count = bins[0]
    assert count == 1
    assert start <= math.log(1_000_000.0) < start + 0.5


def test_histogram_shifts_right_as_populations_grow():
    def center(year):
        bins = log_histogram(bundled_census(year), 0.5, 13.0)
        total = sum(c for _, c in bins)
        return sum((b + 0.25) * c for b, c in bins) / total

    assert center(2020) > center(1960) + 0.3


def test_histogram_validation():
    states = [StateProfile("a", 2.0)]
    with pytest.raises(ValueError):
        log_histogram(states, 0.0, 0.0)
    with pytest.raises(ValueError):
        log_histogram(states, -1.0, 0.0)
    with pytest.raises(ValueError):
        log_histogram([], 0.5, 0.0)


# --- power-law likelihood scan ---------------------------------------------------

def test_log_uniform_wins_on_2020_census():
    states = bundled_census(2020)
    lo = min(s.population for s in states)
    hi = max(s.population for s in states)
    scan = powerlaw_loglik_scan(states, range(-3, 4), (lo, hi))
    best = max(scan, key=lambda pair: pair[1])
    assert best[0] == 0


def test_log_uniform_wins_on_its_own_draws():
    rng = np.random.default_rng(7)
    lo, hi = 1e5, 1e8
    draws = np.exp(rng.uniform(math.log(lo), math.log(hi), size=10_000))
    states = [Row(float(v)) for v in draws]
    scan = powerlaw_loglik_scan(states, range(-3, 4), (lo, hi))
    best = max(scan, key=lambda pair: pair[1])
    assert best[0] == 0


def test_degenerate_data_resolved_by_normalizer():
    # identical populations at the geometric center of the support: the
    # likelihood ordering is decided purely by the normalization
    # constant, which is symmetric in the exponent's sign there
    states = [Row(1000.0), Row(1000.0)]
    scan = dict(powerlaw_loglik_scan(states, [-2, -1, 0, 1, 2], (100.0, 10000.0)))
    assert scan[1] == pytest.approx(scan[-1], rel=1e-12)
    assert scan[2] == pytest.approx(scan[-2], rel=1e-12)
    assert scan[0] == max(scan.values())


def test_scan_rejects_bad_support():
    states = [Row(1000.0)]
    with pytest.raises(ValueError):
        powerlaw_loglik_scan(states, [0], (0.0, 10.0))
    with pytest.raises(ValueError):
        powerlaw_loglik_scan(states, [0], (10.0, 10.0))
    with pytest.raises(ValueError):
        powerlaw_loglik_scan(states, [0], (10.0, math.inf))
    with pytest.raises(ValueError, match="outside"):
        powerlaw_loglik_scan(states, [0], (2000.0, 4000.0))
    with pytest.raises(ValueError):
        powerlaw_loglik_scan([], [0], (1.0, 10.0))


def test_scan_matches_direct_density_evaluation():
    states = [Row(2.0e6), Row(5.0e6), Row(9.0e6)]
    lo, hi = 1.0e6, 1.0e7
    for beta in (-2, -1, 0, 1, 2):
        (_, got), = powerlaw_loglik_scan(states, [beta], (lo, hi))
        if beta == 0:
            norm = math.log(hi / lo)
        else:
            norm = (hi ** beta - lo ** beta) / beta
        want = sum((beta - 1) * math.log(s.population) - math.log(norm)
                   for s in states)
        assert got == pytest.approx(want, rel=1e-9)


# --- file access ------------------------------------------------------------------

def test_bundled_years_all_parse():
    for year in BUNDLED_YEARS:
        states = bundled_census(year)
        assert len(states) == 50
        assert len({s.name for s in states}) == 50
        assert all(s.population >= 1 for s in states)


def test_bundled_totals_match_apportionment_bases():
    assert sum(s.population for s in bundled_census(2020)) == 331_108_434
    assert sum(s.population for s in bundled_census(1970)) == 204_053_210


def test_bundled_unknown_year():
    with pytest.raises(ValueError):
        bundled_census_path(1955)


def write(tmp_path, text):
    path = tmp_path / "census.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_read_census_happy_path(tmp_path):
    path = write(tmp_path, "state,population\nAlpha,100\n\nBeta , 200 \n")
    states = read_census_csv(path)
    assert states == (StateProfile("Alpha", 100.0), StateProfile("Beta", 200.0))


def test_read_census_rejects_bad_header(tmp_path):
    path = write(tmp_path, "name,pop\nAlpha,100\n")
    with pytest.raises(ValueError, match="header"):
        read_census_csv(path)


def test_read_census_rejects_duplicates_with_line_number(tmp_path):
    path = write(tmp_path, "state,population\nAlpha,100\nAlpha,200\n")
    with pytest.raises(ValueError, match=r":3:"):
        read_census_csv(path)


def test_read_census_rejects_bad_populations(tmp_path):
    for bad in ("0", "-5", "12.5", "1,234", "abc"):
        text = f"state,population\nAlpha,{bad}\n" if "," not in bad \
            else f"state,population\nAlpha,{bad},extra\n"
        path = write(tmp_path, f'state,population\nAlpha,"{bad}"\n'
                     if "," in bad else text)
        with pytest.raises(ValueError, match=r":2:"):
            read_census_csv(path)


def test_a_population_beyond_the_float_range_is_refused(tmp_path, capsys):
    path = write(tmp_path, "state,population\nAlpha,100\nBeta," + "9" * 400 + "\n")
    with pytest.raises(ValueError, match=r"census\.csv:3: population is beyond the float range"):
        read_census_csv(path)
    for argv in (["apportion", "--input", str(path), "--divisor", "1"], ["stats", str(path)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"seatcalc: {path}:3: population is beyond the float range\n"


def test_read_census_rejects_structure_problems(tmp_path):
    with pytest.raises(ValueError, match="empty file"):
        read_census_csv(write(tmp_path, ""))
    with pytest.raises(ValueError, match="no state rows"):
        read_census_csv(write(tmp_path, "state,population\n"))
    with pytest.raises(ValueError, match=r":2:"):
        read_census_csv(write(tmp_path, "state,population\nAlpha\n"))
    with pytest.raises(ValueError, match=r":2:"):
        read_census_csv(write(tmp_path, "state,population\n ,100\n"))


def test_a_census_csv_with_a_byte_order_mark_reads_in_every_command(tmp_path, capsys):
    # spreadsheets that save "CSV UTF-8" start the file with a BOM
    path = tmp_path / "bom.csv"
    path.write_text("state,population\nAlpha,100\nBeta,200\nGamma,200\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbfstate,")
    assert read_census_csv(path) == (StateProfile("Alpha", 100.0), StateProfile("Beta", 200.0),
                                     StateProfile("Gamma", 200.0))
    assert main(["apportion", "--input", str(path), "--seats", "5"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[-1].endswith(",5")
    assert main(["stats", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[1].startswith("bom,")
