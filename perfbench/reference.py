"""Reference computations made apart from seatcalc.

Nothing here imports seatcalc.  The benchmark checks the program's
outputs against these:

* exact divisor rounding in integer arithmetic, in state and family
  mode, for the six signpost rules the workloads use;
* a highest-averages priority list for state-mode house sizes;
* unbiased lognormal marks in high precision (mpmath), through the
  survival form of the defining equation;
* closed-form power-law marks and log-population moments in high
  precision.

Conventions follow the seatcalc documentation: an integral quota stands;
otherwise a quota at or above the mark r(f) of its interval rounds up.
In family mode the states whose quotas share an integer part f form a
family; the family quota is rounded at the mark of its own integer part,
and the family's extra seats go to its largest members (population
ascending, ties by name, hold the fewest seats).
"""

from __future__ import annotations

import csv
import heapq
import math
from fractions import Fraction

import mpmath


class PropertyViolation(Exception):
    """The instance breaks a property every divisor method must have."""


def rounds_up(rule: str, p: int, q: int) -> bool:
    """Whether quota p/q (p >= 0, q > 0, not integral) reaches its mark."""
    f = p // q
    if rule == "adams":            # r(f) = f
        return True
    if rule == "jefferson":        # r(f) = f + 1
        return False
    if rule == "webster":          # r(f) = f + 1/2
        return 2 * p >= (2 * f + 1) * q
    if rule == "dean":             # r(f) = f(f+1) / (f + 1/2)
        return p * (2 * f + 1) >= 2 * f * (f + 1) * q
    if rule == "hill":             # r(f)^2 = f(f+1)
        return p * p >= f * (f + 1) * q * q
    if rule == "powerlaw:2":       # r(f)^2 = f^2 + f + 1/3
        return 3 * p * p >= (3 * f * f + 3 * f + 1) * q * q
    raise ValueError(f"no exact reference for rule {rule!r}")


def round_exact(rule: str, p: int, q: int) -> int:
    f = p // q
    if p == f * q:
        return f
    return f + 1 if rounds_up(rule, p, q) else f


class Instance:
    """States as exact rationals over one power-of-two denominator."""

    def __init__(self, names, populations):
        if len(set(names)) != len(names):
            raise ValueError("duplicate state names")
        ratios = [float(v).as_integer_ratio() for v in populations]
        self.denominator = max(den for _, den in ratios)
        self.names = tuple(names)
        self.populations = tuple(float(v) for v in populations)
        self.numerators = tuple(num * (self.denominator // den) for num, den in ratios)
        # family split order: population ascending, ties by name
        self.rank = tuple(sorted(range(len(names)),
                                 key=lambda i: (self.populations[i], self.names[i])))

    def quotas(self, divisor: float) -> tuple[list[int], int]:
        """Quota numerators and their common denominator at ``divisor``."""
        n, d = float(divisor).as_integer_ratio()
        return [a * d for a in self.numerators], self.denominator * n

    def seats(self, divisor: float, rule: str, mode: str) -> tuple[int, ...]:
        """Seats in input order at ``divisor`` under a signpost rule."""
        return self.seats_by(divisor, mode, lambda p, q: round_exact(rule, p, q))

    def mark_indices(self, divisor: float, mode: str) -> list[int]:
        """The intervals f whose marks decide the rounding at ``divisor``."""
        nums, q = self.quotas(divisor)
        if mode == "state":
            return sorted({p // q for p in nums})
        totals: dict[int, int] = {}
        for p in nums:
            totals[p // q] = totals.get(p // q, 0) + p
        return sorted({t // q for t in totals.values()})

    def seats_by(self, divisor: float, mode: str, rounder) -> tuple[int, ...]:
        """Seats in input order at ``divisor``; ``rounder(p, q)`` rounds the
        quota p/q.  Raises PropertyViolation if a family leaves its range or
        misses its quota by a seat or more."""
        nums, q = self.quotas(divisor)
        if mode == "state":
            return tuple(rounder(p, q) for p in nums)
        families: dict[int, list[int]] = {}
        for i in self.rank:
            families.setdefault(nums[i] // q, []).append(i)
        out = [0] * len(nums)
        for f, members in families.items():
            total = sum(nums[i] for i in members)
            s_f = rounder(total, q)
            high = s_f - f * len(members)
            if not 0 <= high <= len(members):
                raise PropertyViolation(f"family {f}: {s_f} seats outside its range")
            if abs(s_f * q - total) >= q:
                raise PropertyViolation(f"family {f}: |S_f - Q_f| >= 1")
            low = len(members) - high
            for k, i in enumerate(members):
                out[i] = f + (1 if k >= low else 0)
        return tuple(out)


def round_at_mark(p: int, q: int, mark: float) -> int:
    """Round quota p/q at a mark given as a float, compared exactly."""
    f = p // q
    if p == f * q:
        return f
    num, den = float(mark).as_integer_ratio()
    return f + 1 if p * den >= num * q else f


def read_census(path) -> list[tuple[str, int]]:
    """(name, population) rows of a census CSV with a header line."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [(name.strip(), int(pop)) for name, pop in rows[1:] if name.strip()]


def _mark_squared(rule: str, s: int) -> Fraction:
    if rule == "adams":
        return Fraction(s * s)
    if rule == "jefferson":
        return Fraction((s + 1) ** 2)
    if rule == "webster":
        return Fraction((2 * s + 1) ** 2, 4)
    if rule == "dean":
        return Fraction(2 * s * (s + 1), 2 * s + 1) ** 2
    if rule == "hill":
        return Fraction(s * (s + 1))
    if rule == "powerlaw:2":
        return Fraction(3 * s * s + 3 * s + 1, 3)
    raise ValueError(f"no exact reference for rule {rule!r}")


def priority_list(inst: Instance, rule: str, house: int):
    """State-mode seats at a house size by highest averages.

    Seat s+1 of a state goes to it when the divisor falls to v / r(s); the
    house fills in descending order of those priorities, compared exactly
    through their squares.  Returns (seats, d_lo, d_hi): the divisor run on
    which the seats hold lies between the first priority left out and the
    last one admitted.  Returns None when those two tie, since no divisor
    then gives exactly ``house`` seats with one seat vector.
    """
    seats = [0] * len(inst.names)
    v2 = [Fraction(a * a, inst.denominator ** 2) for a in inst.numerators]
    heap = []
    for i in range(len(seats)):
        r2 = _mark_squared(rule, 0)
        if r2 == 0:
            seats[i] = 1        # r(0) = 0: every state holds a first seat
            r2 = _mark_squared(rule, 1)
        heapq.heappush(heap, (-(v2[i] / r2), i))
    given = sum(seats)
    if given > house:
        raise PropertyViolation(f"rule {rule} forces {given} seats above {house}")
    last = None
    while given < house:
        key, i = heapq.heappop(heap)
        last = -key
        seats[i] += 1
        given += 1
        heapq.heappush(heap, (-(v2[i] / _mark_squared(rule, seats[i])), i))
    nxt = -heap[0][0]
    if last is not None and nxt == last:
        return None
    d_hi = math.inf if last is None else math.sqrt(float(last))
    return tuple(seats), math.sqrt(float(nxt)), d_hi


# --- high-precision marks ----------------------------------------------------

_DPS = 40


def lognormal_mark(mu: float, sigma: float, f: int, divisor: float) -> float:
    """Unbiased mark r(f, D) for ln v ~ N(mu, sigma^2), in survival form.

    With S = 1 - I the survival function, I(rD) = (1/D) ∫_{fD}^{(f+1)D} I
    becomes S(rD) = (1/D) ∫_{fD}^{(f+1)D} S(v) dv, whose right side is
    b·S(b) - a·S(a) + e^{mu + sigma^2/2}·(S2(a) - S2(b)), S2 being the
    survival function of ln v - sigma^2.  No term cancels in the upper tail.
    """
    with mpmath.workdps(_DPS):
        mu_, sig = mpmath.mpf(mu), mpmath.mpf(sigma)
        d = mpmath.mpf(divisor)
        a, b = f * d, (f + 1) * d
        root2 = mpmath.sqrt(2)

        def surv(x, shift):
            if x == 0:
                return mpmath.mpf(1)
            return mpmath.erfc((mpmath.log(x) - mu_ - shift) / (sig * root2)) / 2

        first_moment = mpmath.exp(mu_ + sig ** 2 / 2) * (surv(a, sig ** 2) - surv(b, sig ** 2))
        rhs = (b * surv(b, 0) - a * surv(a, 0) + first_moment) / d
        x = mpmath.exp(mu_ + sig * root2 * mpmath.erfinv(1 - 2 * rhs))
        return float(x / d)


def power_law_mark(beta: float, f: int) -> float:
    """Power-law mark ((((f+1)^(b+1) - f^(b+1)) / (b+1))^(1/b), with limits."""
    if beta == -math.inf:
        return float(f)
    if beta == math.inf:
        return float(f + 1)
    with mpmath.workdps(_DPS):
        b = mpmath.mpf(beta)
        if beta == 0:
            return float(mpmath.mpf(f + 1) ** (f + 1) / (mpmath.e * mpmath.mpf(f) ** f))
        if beta == -1:
            return 0.0 if f == 0 else float(1 / mpmath.log(mpmath.mpf(f + 1) / f))
        if f == 0 and beta < -1:
            return 0.0
        inner = (mpmath.mpf(f + 1) ** (b + 1) - mpmath.mpf(f) ** (b + 1)) / (b + 1)
        return float(inner ** (1 / b))


def log_moments(populations) -> tuple[float, float, float, float]:
    """Mean, sample std, sample skew G1 and sample excess kurtosis G2 of ln v."""
    with mpmath.workdps(_DPS):
        logs = [mpmath.log(mpmath.mpf(v)) for v in populations]
        n = len(logs)
        mean = mpmath.fsum(logs) / n
        m2 = mpmath.fsum((x - mean) ** 2 for x in logs) / n
        m3 = mpmath.fsum((x - mean) ** 3 for x in logs) / n
        m4 = mpmath.fsum((x - mean) ** 4 for x in logs) / n
        std = mpmath.sqrt(m2 * n / (n - 1))
        g1 = mpmath.sqrt(n * (n - 1)) / (n - 2) * m3 / m2 ** 1.5
        g2 = m4 / m2 ** 2 - 3
        kurt = mpmath.mpf(n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6)
        return float(mean), float(std), float(g1), float(kurt)
