"""Log-population statistics, histograms, and power-law likelihood scans.

State populations are treated on the log scale throughout: the moments
here summarize ln(population), the histogram bins ln(population), and
the likelihood scan compares integer-exponent power-law densities
p(v) ~ v^(beta-1) (beta = 0 being the log-uniform law) against the
observed populations.

Moment convention: the sample-corrected estimators (the ones that are
unbiased under normality) are used, not the divide-by-N population
forms.  The choice was made by validation: only the corrected forms
reproduce the published 2020 reference row (std 1.024, excess kurtosis
-0.514) within tolerance.  See data/MANIFEST.md.
"""

from __future__ import annotations

import csv
import math
import reprlib
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import StateProfile
from .signposts import _MAX_ROWS

__all__ = [
    "LogMoments",
    "log_moments",
    "log_histogram",
    "powerlaw_loglik_scan",
    "read_census_csv",
    "bundled_census",
    "bundled_census_path",
    "BUNDLED_YEARS",
]

BUNDLED_YEARS = (1960, 1970, 1980, 1990, 2000, 2010, 2020)


@dataclass(frozen=True)
class LogMoments:
    """Moments of ln(population): mean, std, skew, excess kurtosis."""

    mean: float
    std: float
    skew: float
    excess_kurtosis: float


def log_moments(states) -> LogMoments:
    """Sample-corrected moments of the log populations.

    Needs at least two distinct populations; skew needs three states
    and kurtosis four (NaN otherwise).
    """
    logs = [math.log(s.population) for s in states]
    n = len(logs)
    if n < 2:
        raise ValueError(f"need at least 2 states, got {n}")
    mean = math.fsum(logs) / n
    dev = [x - mean for x in logs]
    m2 = math.fsum(d * d for d in dev) / n
    if m2 == 0.0:
        raise ValueError("populations are all identical; moments are degenerate")
    m3 = math.fsum(d ** 3 for d in dev) / n
    m4 = math.fsum(d ** 4 for d in dev) / n
    std = math.sqrt(m2 * n / (n - 1))
    if n >= 3:
        skew = math.sqrt(n * (n - 1)) / (n - 2) * m3 / m2 ** 1.5
    else:
        skew = math.nan
    if n >= 4:
        g2 = m4 / (m2 * m2) - 3.0
        kurt = (n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6.0)
    else:
        kurt = math.nan
    return LogMoments(mean, std, skew, kurt)


def log_histogram(states, bin_width: float, origin: float) -> list[tuple[float, int]]:
    """Counts of ln(population) in bins [origin + k*w, origin + (k+1)*w).

    Returns the contiguous run of bins from the first occupied one to
    the last, zero counts included; the counts always sum to the number
    of states.  A run of more than 2**20 bins is refused before it is
    built, as is a width so small that a bin index leaves the float range.
    """
    if not (bin_width > 0) or not math.isfinite(bin_width):
        raise ValueError(f"bin width must be positive and finite, got {bin_width!r}")
    if not math.isfinite(origin):
        raise ValueError(f"origin must be finite, got {origin!r}")
    states = tuple(states)
    if not states:
        raise ValueError("need at least one state")
    # each step is monotone in ln(v), so the extremes give the first and last bin
    scaled = [(math.log(s.population) - origin) / bin_width for s in states]
    lo, hi = min(scaled), max(scaled)
    if not math.isfinite(hi - lo) or math.floor(hi) - math.floor(lo) >= _MAX_ROWS:
        raise ValueError(f"bin width {bin_width!r} spreads the states over more than "
                         f"{_MAX_ROWS:,} bins")
    counts = Counter(math.floor(x) for x in scaled)
    k_lo, k_hi = min(counts), max(counts)
    return [(origin + k * bin_width, counts[k]) for k in range(k_lo, k_hi + 1)]


def _log_norm_constant(beta: float, v_lo: float, v_hi: float) -> float:
    """ln of the density normalizer: |v_hi^beta - v_lo^beta| / |beta| (log-space)."""
    if beta == 0:
        return math.log(math.log(v_hi / v_lo))
    span = beta * math.log(v_hi / v_lo)  # sign of beta
    if beta > 0:
        # v_hi^b - v_lo^b = v_hi^b * (1 - exp(-span))
        log_diff = beta * math.log(v_hi) + math.log(-math.expm1(-span))
    else:
        # v_lo^b - v_hi^b = v_lo^b * (1 - exp(span))
        log_diff = beta * math.log(v_lo) + math.log(-math.expm1(span))
    return log_diff - math.log(abs(beta))


def powerlaw_loglik_scan(states, beta_set, support: tuple[float, float],
                         ) -> list[tuple[float, float]]:
    """Log-likelihood of the populations under p(v) ~ v^(beta-1) per beta.

    The density is normalized on ``support``, which must cover every
    population; the result depends on that choice, so callers should
    state it alongside the numbers.
    """
    states = tuple(states)
    if not states:
        raise ValueError("need at least one state")
    v_lo, v_hi = support
    if not (0 < v_lo < v_hi) or not math.isfinite(v_hi):
        raise ValueError(f"support must be finite with 0 < v_lo < v_hi, got {support!r}")
    log_vs = []
    for s in states:
        if not (v_lo <= s.population <= v_hi):
            raise ValueError(
                f"population of {s.name!r} ({s.population:g}) outside "
                f"support [{v_lo:g}, {v_hi:g}]"
            )
        log_vs.append(math.log(s.population))
    sum_log_v = math.fsum(log_vs)
    n = len(states)
    out = []
    for beta in beta_set:
        if not math.isfinite(beta):
            raise ValueError(f"beta must be finite, got {beta!r}")
        log_norm = _log_norm_constant(beta, v_lo, v_hi)
        loglik = (beta - 1.0) * sum_log_v - n * log_norm
        out.append((beta, loglik))
    return out


# --- census file access -------------------------------------------------------

def read_census_csv(path) -> tuple[StateProfile, ...]:
    """Parse a census CSV: header ``state,population``, then one row per state.

    Populations must be positive integers that a float can hold;
    duplicate names are rejected.  A refused row raises ``ValueError`` naming
    ``path:line``.  The parse is locale-independent (plain ASCII integers).
    """
    path = Path(path)
    # utf-8-sig drops the byte-order mark that spreadsheets write in "CSV UTF-8"
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != ["state", "population"]:
            raise ValueError(f"{path}: expected header 'state,population', got {header!r}")
        states = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            name = row[0].strip()
            if not name:
                raise ValueError(f"{path}:{lineno}: empty state name")
            if name in seen:
                raise ValueError(f"{path}:{lineno}: duplicate state {name!r}")
            seen.add(name)
            pop_text = row[1].strip()
            # int() refuses more than 4,300 digits, leading zeros included:
            # 310 significant digits or more (sign and _ aside) are past the
            # largest float, and a digit string, plain or after one sign, is
            # read without its leading zeros
            digits = pop_text.lstrip("+-").replace("_", "")
            if digits.isascii() and digits.isdigit() and len(digits.lstrip("0")) > 309:
                raise ValueError(f"{path}:{lineno}: population is beyond the float range")
            sign = pop_text[:1] if pop_text[:1] in ("+", "-") else ""
            body = pop_text[len(sign):]
            try:
                population = int(sign + (body.lstrip("0") or "0") if body.isdigit() else pop_text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: population must be an integer, "
                                 f"got {reprlib.repr(pop_text)}") from None
            if population < 1:
                raise ValueError(f"{path}:{lineno}: population must be >= 1")
            try:
                states.append(StateProfile(name, float(population)))
            except OverflowError:
                raise ValueError(f"{path}:{lineno}: population is beyond the float range") from None
    if not states:
        raise ValueError(f"{path}: no state rows")
    return tuple(states)


def bundled_census_path(year: int) -> Path:
    """Filesystem path of a bundled census file."""
    if year not in BUNDLED_YEARS:
        raise ValueError(f"no bundled census for {year}; have {BUNDLED_YEARS}")
    return Path(str(resources.files("seatcalc").joinpath(f"data/census_{year}.csv")))


def bundled_census(year: int) -> tuple[StateProfile, ...]:
    """The fifty state populations of a bundled census year."""
    return read_census_csv(bundled_census_path(year))
