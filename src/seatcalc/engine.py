"""Apportionment engine: fixed-divisor and target-house-size allocation.

Two modes share one rounding vocabulary.  In state mode every state's
quota is rounded against the marks directly.  In family mode the family
quota ``Q_f`` (sum of member quotas) is rounded to ``S_f`` seats using
the mark in ``floor(Q_f)``'s interval, and the seats are split
positionally: the ``M_f`` smallest members get ``f`` seats each and the
``M_{f+1}`` largest get ``f+1``, where ``M_f = (f+1)·N_f − S_f`` and
``M_{f+1} = S_f − f·N_f``.

Target-house-size allocation enumerates the exact critical divisors
(family-boundary and mark crossings; a family's volume ``V_f`` is constant
between the divisors where some state's quota crosses f or f+1) inside a
window that provably contains every divisor attaining the target, and
sweeps them in ascending order, re-rounding only what crossed each one,
so methods that admit several apportionments at one house size report
all of them instead of silently picking one.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .core import (
    Apportionment,
    FamilyPartition,
    QuotaTable,
    StateProfile,
    compute_quotas,
    fsum_or_inf,
)

__all__ = [
    "HAMILTON",
    "BY_STATE",
    "BY_FAMILY",
    "MethodSpec",
    "FamilySplit",
    "ApportionmentError",
    "InfeasibleTarget",
    "TargetUnachievable",
    "total_population",
    "house_divisor",
    "round_quota",
    "positional_split",
    "family_splits",
    "apportion_at_divisor",
    "apportion_for_house_size",
    "breakpoints",
    "piecewise_apportionments",
]

BY_STATE = "state"
BY_FAMILY = "family"


class _Hamilton:
    """Sentinel rounding for Hamilton's largest-remainder method."""

    def __repr__(self) -> str:
        return "HAMILTON"

    def __str__(self) -> str:
        return "hamilton"


HAMILTON = _Hamilton()


class ApportionmentError(ValueError):
    """Base class for apportionment failures."""


class InfeasibleTarget(ApportionmentError):
    """The target house size is impossible for the method, at any divisor."""


class TargetUnachievable(ApportionmentError):
    """No divisor yields exactly the requested total.

    Carries the nearest achievable totals on both sides, measured over
    the pieces of the fixed-slack window v_T/(target ± (n·(1 + floor) + 1)),
    floor being ``min_seat_floor``, which for small targets runs to just
    above the last divisor where seats change (``None`` when a side has
    none there).
    """

    def __init__(self, target: int, below: int | None, above: int | None):
        self.target = target
        self.nearest_below = below
        self.nearest_above = above
        near = ", ".join(str(t) for t in (below, above) if t is not None)
        super().__init__(
            f"no divisor yields exactly {target} seats; "
            f"nearest achievable totals: {near or 'none found'}"
        )


@dataclass(frozen=True)
class MethodSpec:
    """Rounding regime plus mode.

    ``rounding`` is ``HAMILTON``, or a signpost rule or marks object with
    ``rounds_up(quota, f, divisor)`` (is quota >= r(f, D)?) and ``mark_at(f, divisor)``.
    The engine's one rounding decision (``_decider``) tests quota >= r(f) on
    a table that reads each constant mark once per call, and asks ``rounds_up``
    when marks move.  One whose marks move with D declares ``divisor_dependent = True`` and
    must also provide ``margin(quota, f, divisor)``: a float that is >= 0
    exactly when ``rounds_up`` is true, on which mark crossings are root-found.
    It may also provide ``margin_error(value, d_min)``: an ε (``math.inf``
    for none) such that a margin >= 2ε of population ``value`` at D keeps it
    rounding up at every D' in [d_min, D], and one < −2ε keeps it rounding
    down at every D' >= D, while floor(value/D') stays the same; the
    state-mode house-size window counts only such decisions.  Constant marks
    may declare ``mark_offsets(f, g_max)``: (lo, hi) in [0, 1] with lo <=
    r(g) − g <= hi, for the float mark, at every integer g in [f, g_max], or
    None; family-mode house-size bounds then round with them.
    ``min_seat_floor``, when set, raises every state to at least that many
    seats after rounding.  Hamilton has no family mode: it ignores ``mode``
    and always apportions by state.
    """

    rounding: object
    mode: str = BY_STATE
    min_seat_floor: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in (BY_STATE, BY_FAMILY):
            raise ValueError(f"mode must be {BY_STATE!r} or {BY_FAMILY!r}, got {self.mode!r}")
        if not isinstance(self.rounding, _Hamilton) and not all(
                hasattr(self.rounding, m) for m in ("rounds_up", "mark_at")):
            raise TypeError("rounding must be HAMILTON or provide rounds_up and mark_at")
        if self.divisor_dependent and not hasattr(self.rounding, "margin"):
            raise TypeError("a divisor-dependent rounding must provide margin")
        if self.min_seat_floor is not None:
            if not isinstance(self.min_seat_floor, int) or isinstance(self.min_seat_floor, bool):
                raise TypeError(f"min_seat_floor must be an int, got {self.min_seat_floor!r}")
            if self.min_seat_floor < 0:
                raise ValueError("min_seat_floor must be non-negative")

    @property
    def is_hamilton(self) -> bool:
        return isinstance(self.rounding, _Hamilton)

    @property
    def divisor_dependent(self) -> bool:
        """Whether the marks move with D, so crossings are root-found on ``margin``."""
        return bool(getattr(self.rounding, "divisor_dependent", False))

    def __str__(self) -> str:
        if self.is_hamilton:
            return "hamilton"
        return f"{self.rounding}/{self.mode}"


@dataclass(frozen=True)
class FamilySplit:
    """How one family's seats divide between its smaller and larger members."""

    f: int
    size: int
    quota: float
    seats: int
    m_low: int   # members receiving f seats each (the smallest)
    m_high: int  # members receiving f+1 seats each (the largest)

    def __post_init__(self) -> None:
        if positional_split(self.f, self.size, self.seats) != (self.m_low, self.m_high):
            raise ValueError(f"family {self.f}: ({self.m_low}, {self.m_high}) is not the "
                             f"positional split of {self.seats} seats over {self.size} members")


def round_quota(quota: float, rounding, divisor: float) -> int:
    """Round one quota against the marks at the given divisor.

    A quota that is inf or NaN raises ``ValueError``; a finite one is
    rounded by the engine's one rounding decision (``_decider``), here
    asking ``rounding.rounds_up``: with f = floor(q), an integral quota
    stands and otherwise the result is f+1 iff q >= r(f) (a quota exactly
    at the mark rounds up).
    """
    if quota != quota or abs(quota) == math.inf:
        raise ValueError(f"quota must be finite, got {quota!r}")
    return _decider(rounding)(quota, divisor)


def _table_mark(marks: dict[int, float], rounding, f: int) -> float:
    """Constant mark r(f) from the table ``marks``, read from the rule on first use."""
    if (mark := marks.get(f)) is None:
        mark = marks[f] = rounding.mark_at(f, 1.0)  # constant: any divisor reads it
    return mark


def _decider(rounding, marks: dict[int, float] | None = None):
    """``decide(q, divisor)``, the one rounding decision of a finite quota q.

    With f = floor(q), an integral q stands (which keeps integer quotas
    stable even when the mark sits on the interval's left edge, beta <= -1
    rules); otherwise q rounds to f+1 iff it reaches the mark: q >= r(f)
    on the table ``marks`` of constant marks (``_table_mark``; a plain
    dict, which CPython indexes faster than a subclass), or
    ``rounding.rounds_up(q, f, divisor)`` without a table.
    """
    rounds_up = rounding.rounds_up if marks is None else None

    def decide(q: float, divisor: float, floor=math.floor, marks=marks) -> int:
        f = floor(q)
        if q == f:
            return f
        if marks is None:
            return f + 1 if rounds_up(q, f, divisor) else f
        try:
            mark = marks[f]
        except KeyError:
            mark = _table_mark(marks, rounding, f)
        return f + 1 if q >= mark else f
    return decide


def positional_split(f: int, size: int, seats: int) -> tuple[int, int]:
    """Split ``seats`` over a family of ``size`` members with quota integer part ``f``.

    Returns ``(m_low, m_high)``: the ``m_low`` smallest members get ``f``
    seats each and the ``m_high`` largest get ``f+1``.
    """
    m_high = seats - f * size
    m_low = size - m_high
    if m_low < 0 or m_high < 0:
        raise ValueError(f"family {f}: seats {seats} outside [{f * size}, {(f + 1) * size}]")
    return m_low, m_high


def family_splits(partition: FamilyPartition, rounding, divisor: float) -> tuple[FamilySplit, ...]:
    """Round every family quota and split seats within each family."""
    splits = []
    for fam in partition:
        seats = round_quota(fam.quota, rounding, divisor)
        m_low, m_high = positional_split(fam.index, fam.size, seats)
        splits.append(FamilySplit(fam.index, fam.size, fam.quota, seats, m_low, m_high))
    return tuple(splits)


def total_population(populations: Iterable[float]) -> float:
    """v_T, the sum of ``populations``; ``ValueError`` beyond the float range."""
    if (v_t := fsum_or_inf(populations)) == math.inf:
        raise ValueError("the total population overflows a float")
    return v_t


def _refuse_target(target: int) -> None:
    """``InfeasibleTarget`` for a house size below one seat or beyond the float range."""
    if target < 1:
        raise InfeasibleTarget(f"target house size must be >= 1, got {target}")
    if target > sys.float_info.max:
        raise InfeasibleTarget("target house size is beyond the float range")


def house_divisor(states: Iterable[StateProfile], target: int) -> float:
    """v_T/``target``, with the target refused first as ``apportion_for_house_size``
    refuses it, and then v_T as every engine call refuses it."""
    _refuse_target(target)
    return total_population(s.population for s in states) / target


class _Direct:
    """The one evaluator of an engine call: fixed states under one method.

    Each public entry point builds one, which checks the states with the
    checks and messages of ``compute_quotas``, and the window bounds, the
    candidate enumeration, the sweep and the guard all read it.  It holds
    what belongs to the (states, method) pair, on plain lists: names,
    populations and their total v_T, in family mode the (population, name)
    order, the table of constant marks r(f) (``marks``, each mark read from
    the rule once per call) and ``decide``, the engine's one rounding
    decision (``_decider``) on that table, or on ``rounds_up`` when marks
    move.  A v_T beyond the float range is refused here, and
    ``refuse_overflow`` refuses a divisor whose quotas would be.

    ``seats_at(D)`` rounds with the float operations of ``compute_quotas``
    and ``partition_families``: q = v/D per state, a family as a run of
    equal floor(q) in (population, name) order with its quota summed by
    ``math.fsum``, ``decide`` (a family of one on its own quota),
    ``positional_split`` and the seat floor.  Family seats are written
    straight to their input positions through ``order``.  ``seats_at`` and
    ``check`` are stateless: they never read the sweep state below, so a
    check of the pieces this evaluator swept is still a from-scratch
    evaluation.

    The sweep state: ``start(D)`` apportions once in full into ``seats``
    (input order, floor applied) and ``total``; after that ``reround``
    re-rounds only what a crossing event tags, with the same ``decide``,
    and writes each changed seat and the total in place.  In family mode
    families are contiguous runs of (population, name) order, because
    floor(v/D) is monotone in v: ``family[p]`` is the family of the state
    at rank p, ``rank`` maps an event's input index to its rank, and a
    family's members are found by bisection.
    """

    def __init__(self, states: Iterable[StateProfile], method: MethodSpec):
        self.states = states = tuple(states)
        compute_quotas(states, 1.0)  # checks the states
        self.method = method
        self.names = [s.name for s in states]
        self.pops = [s.population for s in states]
        self.v_t = total_population(self.pops)
        self.rounding = method.rounding
        self.moving = method.divisor_dependent
        self.marks = None if self.moving else {}
        self.decide = _decider(self.rounding, self.marks)
        self.floor = method.min_seat_floor or 0
        self.by_family = method.mode == BY_FAMILY
        if self.by_family:
            self.order = sorted(range(len(states)), key=lambda i: (self.pops[i], self.names[i]))
            self.sorted_pops = [self.pops[i] for i in self.order]
            self.rank = sorted(range(len(states)), key=self.order.__getitem__)  # order's inverse

    def refuse_overflow(self, divisor: float) -> None:
        """Raise ``ValueError`` unless max(v)/D (by state) or v_T/D·(1 + 2⁻⁵⁰)
        (by family, covering the rounding of v_T and of each quota) is finite:
        it bounds every quota, or every family quota's ``fsum``, at D >= ``divisor``."""
        top = self.v_t / divisor * (1 + 2 ** -50) if self.by_family else max(self.pops) / divisor
        if not math.isfinite(top):
            raise ValueError(f"the quotas overflow a float at divisor {divisor!r}")

    def runs(self, divisor: float) -> tuple[list[float], list[int]]:
        """Family mode: the sorted quotas at ``divisor`` and where each family ends."""
        quotas = [v / divisor for v in self.sorted_pops]
        ends, lo, n = [], 0, len(quotas)
        while lo < n:
            lo = bisect_left(quotas, math.floor(quotas[lo]) + 1, lo + 1)
            ends.append(lo)
        return quotas, ends

    def seats_at(self, divisor: float) -> tuple[int, ...]:
        """Every state's seats at ``divisor``, in input order, floor applied."""
        decide = self.decide
        if not self.by_family:
            seats = [decide(v / divisor, divisor) for v in self.pops]
        else:
            quotas, ends = self.runs(divisor)
            order, seats, lo = self.order, [0] * len(quotas), 0
            for hi in ends:
                if hi == lo + 1:  # a family of one rounds its own quota
                    seats[order[lo]] = decide(quotas[lo], divisor)
                else:
                    f = math.floor(quotas[lo])
                    m_low, _ = positional_split(f, hi - lo,
                                                decide(math.fsum(quotas[lo:hi]), divisor))
                    for i in order[lo:lo + m_low]:
                        seats[i] = f
                    for i in order[lo + m_low:hi]:
                        seats[i] = f + 1
                lo = hi
        if self.floor:
            return tuple(max(s, self.floor) for s in seats)
        return tuple(seats)

    def start(self, divisor: float) -> None:
        """Apportion in full at ``divisor``: the sweep state ``reround`` updates."""
        self.seats = list(self.seats_at(divisor))  # min_seat_floor applied
        self.total = sum(self.seats)
        if self.by_family:
            self.family = [math.floor(v / divisor) for v in self.sorted_pops]

    def reround(self, divisor: float, state_ids, family_ids) -> bool:
        """Re-round the given states and families at ``divisor``, in place.

        Returns True if any seat moved (in family mode seats can swap at
        an unchanged total).  In family mode a state is re-rounded through
        its old and new family.  A family whose seats fall outside its
        members' range, which only a stale member left by a missed crossing
        can cause, raises ``ApportionmentError`` as the guard would.
        """
        seats, floor, total, moved = self.seats, self.floor, self.total, False
        if not self.by_family:
            decide, pops = self.decide, self.pops
            for i in state_ids:
                if (s := max(decide(pops[i] / divisor, divisor), floor)) != seats[i]:
                    total += s - seats[i]
                    seats[i], moved = s, True
            self.total = total
            return moved
        family, sorted_pops, order = self.family, self.sorted_pops, self.order
        families = set(family_ids)
        for i in state_ids:
            p = self.rank[i]
            families.add(family[p])
            family[p] = math.floor(sorted_pops[p] / divisor)
            families.add(family[p])
        for f in families:
            lo = bisect_left(family, f)
            hi = bisect_right(family, f, lo)
            if lo == hi:
                continue
            quota = math.fsum([v / divisor for v in sorted_pops[lo:hi]])  # as Family.quota
            try:
                m_low, _ = positional_split(f, hi - lo, self.decide(quota, divisor))
            except ValueError as err:  # a stale member put the family's seats out of range
                raise ApportionmentError(
                    f"divisor sweep missed a crossing below D = {divisor!r}: {err}") from None
            for p in range(lo, hi):
                i = order[p]
                if (s := max(f + (p - lo >= m_low), floor)) != seats[i]:
                    total += s - seats[i]
                    seats[i], moved = s, True
        self.total = total
        return moved

    def check(self, piece: _Piece) -> None:
        """Raise unless the piece's seats are the direct ones at its divisor.

        The sweep re-rounds only at candidate divisors, so a crossing the
        enumeration failed to find (marks whose r(f, D)·D is not monotone
        in D) would leave its seats stale: that is raised, never returned.
        """
        if self.seats_at(piece.divisor) != piece.seats:
            raise ApportionmentError(
                f"divisor sweep missed a crossing below D = {piece.divisor!r}: "
                f"its seats differ from direct apportionment there")

    def apportionment(self, piece: _Piece,
                      d_interval: tuple[float, float] | None = None) -> Apportionment:
        """The checked piece as an ``Apportionment``; its quota table is built when read."""
        return Apportionment(piece.divisor, dict(zip(self.names, piece.seats)),
                             QuotaTable._lazy(self.states, piece.divisor), d_interval)


def apportion_at_divisor(states: Iterable[StateProfile], divisor: float,
                         method: MethodSpec) -> Apportionment:
    """Apportion at a fixed divisor (Hamilton is not divisor-based).

    The seats come from the same plain-list evaluator that checks every
    piece of a divisor sweep; the quota table is computed when first read.
    """
    if method.is_hamilton:
        raise ApportionmentError(
            "Hamilton's method needs a target house size, not a divisor"
        )
    states = tuple(states)
    quotas = compute_quotas(states, divisor)
    direct = _Direct(states, method)
    direct.refuse_overflow(divisor)
    return Apportionment(divisor, dict(zip(direct.names, direct.seats_at(divisor))), quotas)


def _hamilton(direct: _Direct, target: int) -> Apportionment:
    divisor = direct.v_t / target
    quotas = compute_quotas(direct.states, divisor)
    base = {e.state.name: int(math.floor(e.quota)) for e in quotas}
    remaining = target - sum(base.values())
    if not 0 <= remaining <= len(base):
        # the quotas' float rounding has moved their floors past what n seats mend
        raise InfeasibleTarget(f"target {target} is beyond float precision: Hamilton's "
                               f"quotas floor to {target - remaining} seats")
    # largest fractional remainders win; ties by larger population, then name
    order = sorted(quotas, key=lambda e: (-e.fraction, -e.state.population, e.state.name))
    for entry in order[:remaining]:
        base[entry.state.name] += 1
    return Apportionment(divisor, base, quotas)


# --- critical-divisor enumeration -------------------------------------------

# Steps the crossing root finder may trail bisection by, so that its first
# false-position steps on a wide bracket may shrink it by less than half.
_ILLINOIS_SLACK = 4


def _mark_times_d_crossing(value: float, f: int, rounding, d_lo: float, d_hi: float) -> float | None:
    """D in (d_lo, d_hi) where v/D (v = ``value``) stops reaching r(f, D), if any.

    The decision ``rounds_up(v/D, f, D)`` is monotone in D for every regime we
    accept (constant marks trivially, distribution marks by d(rD)/dD >= 0, a
    lognormal's mean test as the interval mean of S falls with D): one crossing
    if bracketed.  It is root-found, with no mark solved, by the Illinois
    method on the signed ``margin(v/D, f, D)``: false position, halving the
    margin of an end kept twice in a row, each probe pulled toward the
    midpoint so that after k steps the bracket is at most 2^(slack − k) of its
    first width.  So it takes at most ``_ILLINOIS_SLACK`` + 1 steps more than
    bisection; like bisection, it keeps the decision true at ``lo`` and false
    at ``hi`` and returns their midpoint once they are adjacent floats.  A
    bracket wider than 64 binades (the freeze divisor's [v, 1e300]) is first
    cut to one binade at geometric means, where false position would creep
    down from the far end a few binades per step.
    """
    margin = rounding.margin
    if (not (m_lo := margin(value / d_lo, f, d_lo)) >= 0.0
            or (m_hi := margin(value / d_hi, f, d_hi)) >= 0.0):
        return None
    lo, hi = d_lo, d_hi
    while d_hi > 2.0 ** 64 * d_lo and hi > 2.0 * lo:
        d = math.sqrt(lo) * math.sqrt(hi)  # geometric probes first, down to one binade
        if (m := margin(value / d, f, d)) >= 0.0:
            lo, m_lo = d, m
        else:
            hi, m_hi = d, m
    # bound on the bracket from step _ILLINOIS_SLACK on, then halved; not the
    # width pre-scaled by 2^slack, which overflows on brackets beyond ~1e307
    width, step = hi - lo, 0
    kept = 0  # +1 if the last step moved lo, -1 if it moved hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        step += 1
        if step > _ILLINOIS_SLACK:
            width *= 0.5
        reach = max(width - 0.5 * (hi - lo), 0.0) if step >= _ILLINOIS_SLACK else math.inf
        # m_lo >= 0 > m_hi, so span > 0 unless a margin is NaN or halved to zero
        d = lo + (hi - lo) * (m_lo / span) if (span := m_lo - m_hi) > 0.0 else mid
        d = min(max(d, math.nextafter(lo, hi), mid - reach), math.nextafter(hi, lo), mid + reach)
        if not lo < d < hi:  # NaN, from infinite margins
            d = mid
        m = margin(value / d, f, d)
        if m >= 0.0:
            lo, m_lo = d, m
            if kept > 0:
                m_hi *= 0.5
            kept = 1
        else:
            hi, m_hi = d, m
            if kept < 0:
                m_lo *= 0.5
            kept = -1
    return mid


def _mark_crossings(value: float, direct: _Direct, d_lo: float, d_hi: float) -> list[float]:
    """All D in [d_lo, d_hi] where v/D (v = ``value``) meets a mark.

    Only the marks of families floor(v/d_hi) .. floor(v/d_lo) are tested:
    fl(v/D) is monotone in D, so no rounding in the window reads another.
    Constant marks come from the evaluator's table.
    """
    out = []
    for f in range(math.floor(value / d_hi), math.floor(value / d_lo) + 1):
        if direct.moving:
            d = _mark_times_d_crossing(value, f, direct.rounding, d_lo, d_hi)
            if d is not None and d_lo <= d <= d_hi:
                out.append(d)
        else:
            r = _table_mark(direct.marks, direct.rounding, f)
            if r > 0:
                d = value / r
                if d_lo <= d <= d_hi:
                    out.append(d)
    return out


def _boundary_crossings(value: float, d_lo: float, d_hi: float) -> list[float]:
    """All D in [d_lo, d_hi] where v/D (v = ``value``) is an integer."""
    out = []
    for k in range(max(1, math.ceil(value / d_hi)), math.floor(value / d_lo) + 1):
        d = value / k
        if d_lo <= d <= d_hi:
            out.append(d)
    return out


# Family ranges a window may span, summed over what it lists crossings for
# (see ``_crossing_events``).
_MAX_FAMILIES_SPANNED = 2 ** 18


def _crossing_events(direct: _Direct, d_lo: float, d_hi: float,
                     ) -> list[tuple[float, tuple[list[int], list[int]]]]:
    """Every D in [d_lo, d_hi] where the apportionment could change.

    Returns ``(D, (state_ids, family_ids))`` in ascending D: the states
    (by input index) whose boundary or mark produced D, and in family
    mode the families (by index f) whose volume crossed an integer or a
    mark there.  The window ends carry empty tags.

    Family f is cut at the window ends and at v/f and v/(f+1) of each
    state whose floor(v/D) reaches f in the window; between two cuts its
    members and volume are fixed, so the volume's crossings are listed once.

    *Limit.*  A volume v (a state's population, or a family's between two
    cuts) listed over [a, b] spans the families floor(v/b) .. floor(v/a),
    m = floor(v/a) − floor(v/b) + 1 of them, as fl(v/D) is monotone in D.
    Its boundary crossings v/k have k in that range, and its mark
    crossings one family each, so it adds at most 2m candidates, and in
    family mode m entries to the per-family population lists.  Before
    each volume's lists are built, m is added to a running total, an O(1)
    step; past ``_MAX_FAMILIES_SPANNED`` (2^18) the window is refused with
    ``ValueError``.  So no call lists more than 2^19 candidates, under
    200 MB of event table at the ~360 bytes each that tracemalloc measures
    (a float key, its tag tuple and lists, and the sorted item), nor
    root-finds more than 2^18 moving-mark crossings.  The census windows
    in the tests and the benchmark span at most 1,997.
    """
    tags: dict[float, tuple[list[int], list[int]]] = {d_lo: ([], []), d_hi: ([], [])}
    spanned = 0

    def tag(ds: Iterable[float], kind: int, ident: int) -> None:
        for d in ds:
            tags.setdefault(d, ([], []))[kind].append(ident)

    def span(v: float, a: float, b: float) -> None:
        nonlocal spanned
        spanned += math.floor(v / a) - math.floor(v / b) + 1
        if spanned > _MAX_FAMILIES_SPANNED:
            raise ValueError(
                f"the divisor window [{d_lo!r}, {d_hi!r}] spans more than "
                f"{_MAX_FAMILIES_SPANNED:,} families of the quotas; narrow it")

    for i, v in enumerate(direct.pops):
        span(v, d_lo, d_hi)
        tag(_boundary_crossings(v, d_lo, d_hi), 0, i)
    if not direct.by_family:
        for i, v in enumerate(direct.pops):
            tag(_mark_crossings(v, direct, d_lo, d_hi), 0, i)
    else:
        candidates: dict[int, list[float]] = {}  # f -> populations, input order
        for v in direct.pops:
            for f in range(math.floor(v / d_hi), math.floor(v / d_lo) + 1):
                candidates.setdefault(f, []).append(v)
        for f, pops in candidates.items():
            bounds = [v / k for v in pops for k in (f, f + 1) if k]
            cuts = sorted({d_lo, d_hi, *(d for d in bounds if d_lo < d < d_hi)})
            for a, b in zip(cuts, cuts[1:]):
                mid = 0.5 * (a + b)
                vol = math.fsum(v for v in pops if math.floor(v / mid) == f)
                if vol:  # populations are positive, so the family has members
                    span(vol, a, b)
                    tag(_boundary_crossings(vol, a, b), 1, f)
                    tag(_mark_crossings(vol, direct, a, b), 1, f)
    return sorted(tags.items())


class _Piece(NamedTuple):
    lo: float
    hi: float
    divisor: float          # midpoint of the piece's first candidate interval
    seats: tuple[int, ...]  # input state order, min_seat_floor applied
    total: int


# Float rounding of quotas, family sums and divisor-dependent rounding tests
# can put the divisor where seats really change a few ulps away from the
# computed candidate, so an event is re-rounded at every evaluated
# midpoint within this relative distance of it, and at the first one beyond.
_EVENT_BAND = 1e-9


def _sweep(direct: _Direct, d_lo: float, d_hi: float) -> list[_Piece]:
    """Constant-seat pieces over [d_lo, d_hi] by one ascending event sweep."""
    if not (0 < d_lo < d_hi) or not math.isfinite(d_hi):
        raise ValueError(f"need 0 < d_lo < d_hi, got [{d_lo!r}, {d_hi!r}]")
    direct.refuse_overflow(d_lo)
    events = _crossing_events(direct, d_lo, d_hi)
    pieces: list[_Piece] = []
    first = last = 0  # events[first:last] lie within the band of the midpoint
    for (a, _), (b, _) in zip(events, events[1:]):
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            continue  # interval at float resolution; no interior
        while last < len(events) and events[last][0] <= mid * (1 + _EVENT_BAND):
            last += 1
        if not pieces:
            direct.start(mid)
            moved = True
        else:
            near = [tags for _, tags in events[first:last]]
            moved = direct.reround(mid, [i for ids, _ in near for i in ids],
                                   [f for _, fs in near for f in fs])
        while first < last and events[first][0] * (1 + _EVENT_BAND) < mid:
            first += 1
        if moved:
            pieces.append(_Piece(a, b, mid, tuple(direct.seats), direct.total))
        else:
            p = pieces[-1]
            pieces[-1] = _Piece(p.lo, b, p.divisor, p.seats, p.total)
    if not pieces:
        # window too narrow to contain any candidate interior: one piece
        mid = 0.5 * (d_lo + d_hi)
        direct.start(mid)
        pieces.append(_Piece(d_lo, d_hi, mid, tuple(direct.seats), direct.total))
    return pieces


def _checked_sweep(states: Iterable[StateProfile], method: MethodSpec,
                   d_lo: float, d_hi: float) -> tuple[_Direct, list[_Piece]]:
    """The sweep's pieces over [d_lo, d_hi], each checked by direct apportionment
    at its divisor, and the evaluator that swept and checked them."""
    if method.is_hamilton:
        raise ApportionmentError("Hamilton's method has no divisor sweep")
    direct = _Direct(states, method)
    pieces = _sweep(direct, d_lo, d_hi)
    for piece in pieces:
        direct.check(piece)
    return direct, pieces


def piecewise_apportionments(states: Iterable[StateProfile], method: MethodSpec,
                             d_lo: float, d_hi: float,
                             ) -> list[tuple[float, float, Apportionment]]:
    """Constant-apportionment pieces (lo, hi] covering [d_lo, d_hi].

    Pieces are returned in ascending divisor order; adjacent pieces have
    different seat vectors.  Each carries the apportionment at the
    midpoint of its first candidate interval, which holds throughout the
    piece's interior.  At the upper endpoint it is meant to hold as well
    (a quota exactly at a mark rounds the same way as a quota just above
    it), but the endpoint is a float near the exact crossing, not the
    crossing itself: checked in exact arithmetic, the seats fail at many
    endpoints, on either side of the true breakpoint (fault (b), ROADMAP
    item 1).

    One sweep computes them.  It enumerates the candidate divisors, at
    which a state's quota (or in family mode a family's) meets an
    integer or a mark, each tagged with what crossed there: O(K log K)
    for K candidates.  It apportions once in full, then walks the
    candidates in ascending order and, at each candidate interval's
    midpoint, re-rounds only what the passed candidates tag: O(size of
    what crossed) per interval.  Each piece keeps the sweep's seats; one
    plain-list direct evaluation at its divisor, O(n), must agree with
    them (``ApportionmentError`` otherwise).  The returned apportionments
    are built from those seats, and their quota tables only when read.
    """
    direct, pieces = _checked_sweep(states, method, d_lo, d_hi)
    return [(p.lo, p.hi, direct.apportionment(p)) for p in pieces]


def breakpoints(states: Iterable[StateProfile], method: MethodSpec,
                d_lo: float, d_hi: float) -> list[float]:
    """Critical divisors in [d_lo, d_hi]: the D at which seats change.

    These are the upper ends of every piece but the last, each piece's
    seats checked as in ``piecewise_apportionments``.  Between
    consecutive returned values the apportionment is constant.  The
    apportionment AT a returned divisor is meant to equal the one on the
    piece below it (a quota exactly at a mark rounds up, so the change is
    in effect at the crossing divisor itself), but a returned divisor is
    a float near the exact crossing, and in exact arithmetic it often
    lies on the other side (fault (b), ROADMAP item 1).
    """
    _, pieces = _checked_sweep(states, method, d_lo, d_hi)
    return [p.hi for p in pieces[:-1]]


def _seat_bounds(direct: _Direct, top: float):
    """``bounds(d) -> (L, U)``: L(d) <= total(D) at every D in [v_T/``top``, d]
    and U(d) >= total(D) at every D >= d (see ``_search_window``)."""
    floor_seats = direct.floor
    if not direct.by_family and not direct.moving:
        def exact(d: float) -> tuple[int, int]:
            total = sum(direct.seats_at(d))
            return total, total
        return exact
    if not direct.by_family:
        margin = direct.rounding.margin
        margin_error = getattr(direct.rounding, "margin_error", None)
        d_min, pops = direct.v_t / top, direct.pops
        # what a margin must clear to decide: twice each state's margin error
        # bound over D >= d_min, inf where none is declared
        bars = [2 * margin_error(v, d_min) if margin_error else math.inf for v in pops]

        def per_state(d: float) -> tuple[int, int]:
            lower = upper = 0
            for v, bar in zip(pops, bars):
                f = math.floor(q := v / d)
                lo = hi = f
                if bar == math.inf:  # undecided, with no margin evaluated
                    hi += 1
                elif q != f:
                    m = margin(q, f, d)
                    lo += m >= bar
                    hi += m >= -bar
                lower += max(lo, floor_seats)
                upper += max(hi, floor_seats)
            return lower, upper
        return per_state
    eta = 2.0 ** -51 * top  # 4u·top, u = 2⁻⁵³: fsum's error and that of x ∓ η, with room
    # (c_U, c_L) at every family index, else (0, 1); read per index where not exact
    offsets = None if floor_seats or direct.moving else getattr(
        direct.rounding, "mark_offsets", None)
    whole = offsets(0, top) if offsets else None
    fixed = whole or (0.0, 1.0)
    cs = {} if whole and whole[0] != whole[1] else None

    def per_family(d: float) -> tuple[int, int]:
        quotas, ends = direct.runs(d)
        lower = upper = 0
        for lo, hi in zip([0, *ends], ends):
            f, k = math.floor(quotas[lo]), hi - lo
            c_u, c_l = fixed if cs is None else (
                cs.get(f) or cs.setdefault(f, offsets(f, top) or whole))
            x = math.fsum(quotas[lo:hi])  # X_f, correctly rounded
            g = math.floor(y := x - eta)  # R_c(y) = g + [y > g and y − g >= c], exact on a float
            low = g + (y > g and y - g >= c_l)
            g = math.floor(y := x + eta)
            high = g + (y > g and y - g >= c_u)
            lower += max(low, k * max(f, floor_seats))  # a seat floor m lifts f < m to m·k
            upper += max(min(high, k * (f + 1)), k * floor_seats)
        return lower, upper
    return per_family


# The far end of the bracket on which the freeze divisor's mark crossing is
# solved: finite, inside the crossing solver's range, beyond any population.
_FAR = 1e300


def _freeze_divisor(direct: _Direct, d_lo: float) -> float:
    """A divisor just above the last one where seats change (small targets).

    Above v (each state's population in state mode, v_T in family mode)
    its quota is below 1, so only the mark r(0, D) is left to cross.  Every
    state counts: under a bounded law a state above the support keeps its
    seat for good, while a smaller one may lose its seat further out.
    """
    ends = []
    for v in [direct.v_t] if direct.by_family else direct.pops:
        ends += [v, *_mark_crossings(v, direct, v, _FAR)]
    return max(max(ends) * (1 + 1e-9), d_lo * 2)


def _search_window(direct: _Direct, target: int) -> tuple[list[_Piece], bool]:
    """Sweep of a divisor window provably holding every D with total == target.

    Returns ``(pieces, frozen_above)``, where frozen_above means the
    apportionment is constant for all D above the last piece, so a
    solution on it extends to infinity.

    *Bounds.*  Two seat totals with L(d) <= total(D) at every D in
    [cap_lo, d] and U(d) >= total(D) at every D >= d, with m =
    min_seat_floor:

    - state mode with constant marks: L = U = the exact total, that of
      ``_Direct.seats_at(D)``.  fl(v/D) is monotone in D, and floor and
      the test q >= r(f) are monotone in q, so the total is too;
    - state mode with divisor-dependent marks: L = sum max(l_i, m) and U =
      sum max(u_i, m), where with q = v/D and f = floor(q) a state whose
      rounding declares ε = ``margin_error(v, v_T/(target + slack + 2))``
      counts l_i = f + 1 only where ``margin(q, f, D)`` >= 2ε and u_i = f + 1
      where it is >= −2ε (f both if q is integral).  By that method's
      contract l_i = f + 1 is a round-up at every smaller D and u_i = f a
      round-down at every larger one while floor(q) stays f, and a higher
      floor there (a lower one) gives at least f + 1 seats (at most f).
      Without a bound (ε = inf: every rounding but the lognormal's) l_i =
      f and u_i = f + 1, as every rounding gives a state floor(q) or
      floor(q) + 1 of its float quota, and no margin is evaluated;
    - family mode: L = sum_f max(R_cL(fl(x − η)), k_f·f) and U = sum_f
      min(R_cU(fl(x + η)), k_f·(f+1)) (m·k_f each if f < m), with x the
      evaluator's ``fsum`` of family f's k_f float quotas, u = 2⁻⁵³, T =
      target + slack + 2, η = 4u·T, and R_c(y) = g + [y > g and y − g >=
      c], g = floor(y), exact on a float y.  Family f takes (c_L, c_U) =
      (hi, lo) of the rule's ``mark_offsets(f, T)`` unless m is set or marks
      move, else (1, 0), floor and ceiling; offsets exact at f = 0 hold at
      every f (Adams, Webster, Jefferson: (c, c), their own rounding).
      L and U need be neither exact nor monotone; two exact sums between
      them are.  On [cap_lo, ∞) every quota sum is below T, so x is within
      u·T of the exact sum X_f of the float quotas and fl(x ∓ η) within
      1.01·u·T of x ∓ η: fl(x − η) <= X_f − η′ and fl(x + η) >= X_f + η′
      with η′ = η − 2.01·u·T > u·T.  Let Λ and Υ be L and U with X_f ∓ η′
      in place of fl(x ∓ η), in exact arithmetic; R_c is non-decreasing, so
      L <= Λ and U >= Υ.  Λ <= total <= Υ: the evaluator rounds x, in
      [k_f·f, k_f·(f+1)], to G + [x > G and x >= fl(r(G))], G = floor(x) in
      [f, T], which lies between R_hi(x) and R_lo(x) (any rule between R_1
      and R_0), and x is within η′ of X_f.  Neither Λ nor Υ rises with D:
      as D grows the quotas fl(v/D) fall, and with members fixed each term
      with them.  A member leaving f for f − 1 does so in three steps: its
      quota falls to exactly f inside f; the integer f moves across, which
      raises no sum, as each family keeps its own c and R_c(X ± f) = R_c(X)
      ± f, and each clamp shifts with it or falls by one; its quota falls
      further inside f − 1 (and on, family by family).  So L(d) <= Λ(d) <=
      Λ(D) <= total(D) for D <= d and U(d) >= Υ(d) >= Υ(D) >= total(D) for
      D >= d.  (No offsets bound a moving mark's r(G, D) − G over every D,
      so those take floor and ceiling.)

    So if L(d_lo) > target, no D in [cap_lo, d_lo] reaches it (nor, by the
    slack below, any D < cap_lo); if U(d_hi) < target, no D >= d_hi does,
    and then d_lo < d_hi, as L(d_lo) <= total(d_hi) <= U(d_hi) otherwise.

    *Probing.*  From D_0 = v_T/target each end takes secant steps on v_T/D:
    the lower end probes v_T/(2·target − L(D_0) + 1 + margin) until L
    there exceeds the target, the upper end v_T/(2·target − U(D_0) − 1 −
    margin) until U there falls below it, doubling the margin (from one
    seat) after each failed probe.  Each end is capped at the fixed-slack
    bound v_T/(target ± (n·(1 + m) + 1)): every state or family rounds
    within (its quota − 1, quota + 1] and the floor adds at most m per
    state.  For small targets (target − (n·(1 + m) + 1) < 1) the upper cap
    is instead the freeze divisor, just above the last divisor where seats
    change, state boundaries and r(0, D) crossings included, for every
    rounding; only there is frozen_above set.  That freeze divisor may lie
    below v_T/target, and a decided L may exceed the target there, so a
    lower probe at or above cap_hi is skipped; an upper probe is not below
    cap_lo, as U(D_0) is at least the total there, itself at least target −
    n.  So every end stays inside the caps.  A target whose caps round to
    one float (from 10^17 seats over populations 1, 2 and 3), or whose
    lower cap underflows to 0 (from subnormal populations), raises
    ``InfeasibleTarget``.

    *Edge checks.*  A probe is a float, not a candidate divisor, so a
    solution piece touching it would end at the probe instead of at its
    true breakpoint.  If the first piece touches a probe and has the target
    total, or the last one does, or no piece reaches the target, the
    fixed-slack window [cap_lo, cap_hi] is swept once instead.  So every
    solution's ``d_interval`` ends at candidate divisors, or at a cap
    exactly as in the fixed-slack window, and when the target is not
    reached the nearest totals are those over the fixed-slack window.
    """
    v_t = direct.v_t
    slack = len(direct.pops) * (1 + direct.floor) + 1
    cap_lo = v_t / (target + slack)
    if target - slack >= 1:
        cap_hi, frozen_above = v_t / (target - slack), False
    else:
        cap_hi, frozen_above = _freeze_divisor(direct, cap_lo), True
    if not 0 < cap_lo < cap_hi:
        raise InfeasibleTarget(f"target {target} is beyond float precision: its divisor "
                               f"window [{cap_lo!r}, {cap_hi!r}] is one float or starts at 0")
    bounds = _seat_bounds(direct, target + slack + 2)
    l_0, u_0 = bounds(v_t / target)

    def lower_end() -> float:
        margin = 1
        while (k := 2 * target - l_0 + 1 + margin) < target + slack:
            if k > 0 and (d := v_t / k) < cap_hi and bounds(d)[0] > target:
                return d
            margin *= 2
        return cap_lo

    def upper_end() -> float:
        margin = 1
        while (k := 2 * target - u_0 - 1 - margin) > 0 and (d := v_t / k) < cap_hi:
            if bounds(d)[1] < target:
                return d
            margin *= 2
        return cap_hi

    d_lo, d_hi = lower_end(), upper_end()
    pieces = _sweep(direct, d_lo, d_hi)
    hit = [p.total == target for p in pieces]
    if ((hit[0] and d_lo != cap_lo) or (hit[-1] and d_hi != cap_hi)
            or (not any(hit) and (d_lo, d_hi) != (cap_lo, cap_hi))):
        d_lo, d_hi = cap_lo, cap_hi
        pieces = _sweep(direct, d_lo, d_hi)
    return pieces, frozen_above and d_hi == cap_hi


def apportion_for_house_size(states: Iterable[StateProfile], target_total: int,
                             method: MethodSpec) -> list[Apportionment]:
    """Every distinct apportionment with the requested total seats.

    For divisor-based methods the result lists one entry per distinct
    seat vector achievable at some divisor, ordered by descending
    divisor, each with ``d_interval`` set to the maximal divisor run
    (lo, hi] on which it holds (``math.inf`` upper end when the
    apportionment stays frozen for all larger divisors).  A length-2+
    list is the multiple-solution paradox surfaced, not an error.  A
    solution's piece and its neighbours are checked (``ApportionmentError``).
    Hamilton returns a single apportionment at D = v_T/target.  A target
    so large that float rounding moves the quotas' floors by more than n
    seats raises ``InfeasibleTarget``, as does, for every method, a
    target beyond the float range.
    """
    _refuse_target(target_total)
    direct = _Direct(states, method)
    n, floor_seats = len(direct.pops), direct.floor
    if method.is_hamilton:
        if target_total < n * floor_seats:
            raise InfeasibleTarget(
                f"target {target_total} below the {n * floor_seats}-seat floor")
        app = _hamilton(direct, target_total)
        if floor_seats:
            app = replace(app, seats={name: max(s, floor_seats) for name, s in app})
            if app.total_seats != target_total:
                raise InfeasibleTarget(
                    "min_seat_floor is incompatible with Hamilton's fixed total")
        return [app]
    # state-mode constant marks with r(0) = 0 give every positive quota a seat
    forces_one = (not direct.by_family and not direct.moving
                  and _table_mark(direct.marks, direct.rounding, 0) == 0.0)
    forced_min = n * (max(floor_seats, 1) if forces_one else floor_seats)
    if target_total < forced_min:
        raise InfeasibleTarget(
            f"target {target_total} infeasible: method forces at least "
            f"{forced_min} seats across {n} states")

    pieces, frozen_above = _search_window(direct, target_total)

    solutions: list[Apportionment] = []
    seen: set[tuple[int, ...]] = set()
    for idx, piece in enumerate(pieces):
        if piece.total != target_total or piece.seats in seen:
            continue  # same seat vector on a lower disjoint run; keep the top one
        upper = math.inf if (frozen_above and idx == len(pieces) - 1) else piece.hi
        seen.add(piece.seats)
        for near in pieces[max(idx - 1, 0):idx + 2]:  # and its neighbours, which share its ends
            direct.check(near)
        solutions.append(direct.apportionment(piece, (piece.lo, upper)))
    if not solutions:
        totals = {p.total for p in pieces}
        below = max((t for t in totals if t < target_total), default=None)
        above = min((t for t in totals if t > target_total), default=None)
        raise TargetUnachievable(target_total, below, above)
    solutions.sort(key=lambda a: -a.d_interval[1])
    return solutions
