"""Rounding-mark (signpost) functions for divisor methods.

A signpost rule places a mark ``r(f)`` in each integer interval
``[f, f+1]`` of the seats scale.  A quota below the mark rounds down to
``f`` seats, a quota at or above it rounds up to ``f+1``.  The classic
methods (Adams, Dean, Huntington-Hill, Webster, Jefferson) are special
cases; the one-parameter power-law family ``r_beta`` interpolates
between them, with ``beta = -inf`` giving Adams, ``-2`` Huntington-Hill,
``+1`` Webster and ``+inf`` Jefferson.  Dean's harmonic-mean mark is not
a power law and is kept as its own kind.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "SignpostRule",
    "power_law",
    "power_law_mark",
    "signpost_table",
    "ADAMS",
    "DEAN",
    "HUNTINGTON_HILL",
    "WEBSTER",
    "JEFFERSON",
]

# Guard bands around the removable singularities of the generic power-law
# expression, and the cutoff beyond which beta is treated as +-infinity.
_BETA_ZERO_BAND = 1e-9
_BETA_NEG1_BAND = 1e-9
_BETA_INF_CUTOFF = 1e9
# every float from here on is an integer, so no float quota reads a mark there
_FLOAT_INTEGERS = 2 ** 53
# rows and bins one library table may hold, and families a Monte Carlo run
# may reach (its running totals hold one row each): the limit of marks --fmax
_MAX_ROWS = 2 ** 20


def _check_index(f: int) -> None:
    """The one family-index check: ``ValueError`` unless f is a non-negative
    integer (of any numeric type) within the float range."""
    # a NaN fails the first test; an int past the float range overflows every formula
    if not 0 <= f <= sys.float_info.max or f != int(f):
        raise ValueError(f"family index must be a non-negative integer within the "
                         f"float range, got {f}")


def _check_int(value: int, what: str) -> None:
    """The one integer-argument check, for sizes, seeds, seat floors and
    house sizes: ``TypeError`` unless ``value`` is an ``int`` and not a ``bool``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {value!r}")


def _mark_beta_zero(f: int) -> float:
    # r_0(f) = (f+1)^(f+1) / (e * f^f) = (f+1) * exp(f * log1p(1/f) - 1), whose
    # exponent does not cancel as (f+1)*log(f+1) - f*log(f) - 1 does for large f
    if f == 0:
        return 1.0 / math.e
    return (f + 1) * math.exp(f * math.log1p(1.0 / f) - 1.0)


def _mark_beta_neg1(f: int) -> float:
    # r_-1(f) = 1 / (log(f+1) - log(f)); the f = 0 limit is 0
    if f == 0:
        return 0.0
    return 1.0 / math.log1p(1.0 / f)


def power_law_mark(beta: float, f: int) -> float:
    """Mark of the power-law rule with exponent ``beta`` at interval ``f``.

    ``beta`` may be any extended real including ``+-math.inf``; limit
    formulas are substituted inside narrow guard bands around the
    removable singularities at 0 and -1.  From f = 2**53 every float is
    an integer, so for a float f the only float in [f, f+1] is f itself,
    and the mark is ``float(f)`` (Jefferson's f+1 may round to f+2).
    """
    _check_index(f)
    if f >= _FLOAT_INTEGERS:
        return float(f)
    # exact member formulas first: Webster, Huntington-Hill and the rms-like
    # beta = 2 are the hot named rules
    if beta == 1.0:
        return f + 0.5
    if beta == -2.0:
        return math.sqrt(f * (f + 1.0))
    if beta == 2.0:
        return math.sqrt(f * (f + 1.0) + 1.0 / 3.0)
    if beta <= -_BETA_INF_CUTOFF:
        return float(f)
    if beta >= _BETA_INF_CUTOFF:
        return float(f + 1)
    if abs(beta) < _BETA_ZERO_BAND:
        return _mark_beta_zero(f)
    if abs(beta + 1.0) < _BETA_NEG1_BAND:
        return _mark_beta_neg1(f)
    if f == 0:
        if beta <= -1.0:
            return 0.0
        # ((1 - 0) / (beta+1)) ** (1/beta)
        return math.exp(-math.log(beta + 1.0) / beta)
    if f >= 2 ** 14 * (abs(beta) + 3):
        # With x = f + 1/2, r = x·(1 + A/x² + B/x⁴ + ...)^(1/beta), A = beta(beta − 1)/24
        # and B = beta(beta − 1)(beta − 2)(beta − 3)/1920, so r = x + (beta − 1)/(24x) +
        # c3/x³ + ..., c3 = (beta − 1)(13 − 5·beta − 2·beta²)/5760, each further term
        # smaller by about (beta/x)².  |c3| <= (|beta| + 3)³/2880, so from
        # x >= 2¹⁴(|beta| + 3) the remainder is below (|beta| + 3)³/(2880x³) <= 2⁻⁶⁶·x,
        # far under an ulp of x (>= 2⁻⁵³·x); x is exact below 2⁵², and the correction,
        # under 2⁻¹⁸, adds one rounding.  The log-space form below loses digits as f
        # grows: up to 109 ulps, and past f + 1, by 2⁴⁶.
        x = f + 0.5
        return x + (beta - 1.0) / (24.0 * x)
    # log-space evaluation of (((f+1)^(b+1) - f^(b+1)) / (b+1)) ** (1/b);
    # the expm1 factoring keeps it stable for large f and extreme beta
    b1 = beta + 1.0
    diff = math.expm1(b1 * math.log1p(1.0 / f))  # (1+1/f)^(b+1) - 1, sign of b1
    log_expr = b1 * math.log(f) + math.log(abs(diff)) - math.log(abs(b1))
    return math.exp(log_expr / beta)


# beta of each named power-law member; Dean is the one named rule outside the family
_NAMED_BETA = {"adams": -math.inf, "hill": -2.0, "webster": 1.0, "jefferson": math.inf}


@dataclass(frozen=True)
class SignpostRule:
    """A rounding regime defined purely by its marks ``r(f)``.

    ``kind`` is one of ``adams``, ``dean``, ``hill``, ``webster``,
    ``jefferson`` or ``powerlaw`` (the latter carries ``beta``).  The
    named kinds other than Dean are power-law members, so their ``beta``
    is filled in from the name and their marks come from
    :func:`power_law_mark`.  Marks depend only on the family index, never
    on the divisor, which is what makes these rules homogeneous divisor
    methods.
    """

    kind: str
    beta: float | None = None

    #: marks never move with the divisor for signpost rules
    divisor_dependent = False

    def __post_init__(self) -> None:
        if self.kind in _NAMED_BETA:
            object.__setattr__(self, "beta", _NAMED_BETA[self.kind])
        elif self.kind == "powerlaw":
            if self.beta is None:
                raise ValueError("powerlaw rule requires beta")
            if math.isnan(self.beta):
                raise ValueError("powerlaw beta must not be NaN")
        elif self.kind != "dean":
            raise ValueError(f"unknown signpost kind {self.kind!r}")

    def mark(self, f: int) -> float:
        """Mark r(f) in [f, f+1]."""
        if self.kind != "dean":
            return power_law_mark(self.beta, f)
        _check_index(f)
        if f >= _FLOAT_INTEGERS:  # as power_law_mark: f(f+1) overflows from about 1.34e154
            return float(f)
        return f * (f + 1) / (f + 0.5)  # harmonic mean of f and f+1

    def mark_offsets(self, f: int, g_max: int,
                     volume: float | None = None) -> tuple[float, float] | None:
        """(lo, hi) in [0, 1] with lo <= fl(r(g)) − g <= hi at every integer g in
        [f, g_max], or None; ``volume``, which bounds the divisors of a moving
        mark's offsets, is ignored, as these marks never move.
        None from g_max = 2⁵³, where every mark is float(g).
        Adams, Webster and Jefferson: (c, c), exactly.
        Dean's and Hill's r(g) − g rise toward ½, β = 2's falls toward it: r(f) − f
        and ½, widened by δ = 2⁻²⁵.  While g < 2²⁶, g(g+1) is exact and fl(r(g)) is
        within 2⁻²⁶ of r(g) (a rounded division or sqrt, and for β = 2 a rounded
        g(g+1) + ⅓), so δ covers the error at f and at g."""
        if g_max >= _FLOAT_INTEGERS:
            return None
        beta = -2.0 if self.kind == "dean" else self.beta  # Dean's r(g) − g rises as Hill's
        if beta == 1.0 or abs(beta) >= _BETA_INF_CUTOFF:
            return (0.5, 0.5) if beta == 1.0 else (float(beta > 0),) * 2
        if g_max >= 2 ** 26 or beta not in (-2.0, 2.0):
            return None
        c, delta = self.mark(f) - f, 2.0 ** -25  # c ± δ exact: multiples of 2⁻⁵³ below 1
        return (max(c - delta, 0.0), 0.5 + delta) if beta == -2.0 else (0.5 - delta, c + delta)

    def mark_at(self, f: int, divisor: float) -> float:
        """Mark r(f, D); the divisor is ignored for signpost rules."""
        return self.mark(f)

    def rounds_up(self, quota: float, f: int, divisor: float) -> bool:
        """Whether quota >= r(f); the divisor is ignored."""
        return quota >= self.mark(f)

    def __str__(self) -> str:
        if self.kind == "powerlaw":
            return f"powerlaw:{self.beta:g}"
        return self.kind


ADAMS = SignpostRule("adams")
DEAN = SignpostRule("dean")
HUNTINGTON_HILL = SignpostRule("hill")
WEBSTER = SignpostRule("webster")
JEFFERSON = SignpostRule("jefferson")


def power_law(beta: float) -> SignpostRule:
    """Power-law rule with exponent ``beta`` (any extended real)."""
    return SignpostRule("powerlaw", float(beta))


def signpost_table(rule: SignpostRule, f_max: int) -> list[tuple[int, float]]:
    """Rows ``(f, r(f))`` for f = 0 .. f_max; f_max above 2**20 is refused,
    and one that is not an ``int`` is a ``TypeError``."""
    _check_int(f_max, "f_max")
    if not 0 <= f_max <= _MAX_ROWS:
        raise ValueError(f"f_max must be in [0, {_MAX_ROWS:,}], got {f_max}")
    return [(f, rule.mark(f)) for f in range(f_max + 1)]
