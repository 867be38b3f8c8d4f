"""Apportionment engine: fixed-divisor and target-house-size allocation.

Two modes share one rounding vocabulary.  In state mode every state's
quota is rounded against the marks directly.  In family mode the family
quota ``Q_f`` (``core.family_quota``, fl(V_f/D) of its volume V_f) is
rounded to ``S_f`` seats using the mark in ``floor(Q_f)``'s interval, and
the seats are split positionally: the ``M_f`` smallest members get ``f``
seats each and the ``M_{f+1}`` largest get ``f+1``, where ``M_f =
(f+1)·N_f − S_f`` and ``M_{f+1} = S_f − f·N_f``.

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
    family_quota,
    fsum_or_inf,
)
from .signposts import _check_int

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
    state-mode house-size window counts only such decisions.  A rounding
    may declare ``mark_offsets(f, g_max, volume)``: (lo, hi) in [0, 1] such
    that, at every integer g in [f, g_max] and every D with volume/g_max <=
    D <= volume/g, a float quota x with floor g rounds up where x − g >= hi
    and down where 0 < x − g < lo; or None.  Constant marks ignore
    ``volume``, as theirs hold at every D: lo <= fl(r(g)) − g <= hi.
    Family-mode house-size bounds round with them.
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
            _check_int(self.min_seat_floor, "min_seat_floor")
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
    """``TypeError`` for a house size that is not an ``int`` (a ``bool``
    included), ``InfeasibleTarget`` for one below one seat or beyond the
    float range."""
    _check_int(target, "target house size")
    if target < 1:
        raise InfeasibleTarget(f"target house size must be >= 1, got {target}")
    if target > sys.float_info.max:
        raise InfeasibleTarget("target house size is beyond the float range")


def house_divisor(states: Iterable[StateProfile], target: int) -> float:
    """v_T/``target``, with the target refused first as ``apportion_for_house_size``
    refuses it, and then v_T as every engine call refuses it."""
    _refuse_target(target)
    return total_population(s.population for s in states) / target


# Family ranges a window may span, summed over what it lists crossings for
# (see ``_Evaluator.events``).
_MAX_FAMILIES_SPANNED = 2 ** 18


class _Evaluator:
    """What the two evaluators of an engine call share: fixed states under one method.

    Each public entry point builds one (``_evaluator``), which checks the
    states with the checks and messages of ``compute_quotas``, and the
    window bounds, the candidate enumeration, the sweep and the guard all
    read it.  ``_StateEvaluator`` rounds each state's quota on its own and
    ``_FamilyEvaluator`` each family's volume, so after construction
    nothing reads the mode.  Both hold what belongs to the (states, method)
    pair, on plain lists: names, populations and their total v_T, the
    seat floor, the table of constant marks r(f) (``marks``, each mark
    read from the rule once per call) and ``decide``, the engine's one
    rounding decision (``_decider``) on that table, or on ``rounds_up``
    when marks move.  A v_T beyond the float range is refused here, and
    ``refuse_overflow`` refuses a divisor whose quotas would be, reading
    ``tops`` (the volumes whose quotas stay at or above 1 longest) and
    ``room`` (the relative rounding their quotas may add), which the
    family evaluator replaces.

    Each mode provides ``seats_at(D)``, every state's seats in input order
    with the seat floor applied, ``crossings`` (what ``events`` lists),
    ``bounds(top)`` (the house-size window's seat bounds), ``least_seats``
    and ``reround``; the family evaluator adds its stored floors to
    ``start`` and ``verify``.  ``seats_at`` and ``check`` are stateless:
    they never read the sweep state below, so each is a from-scratch
    evaluation.

    The sweep state: ``start(D)`` apportions once in full into ``seats``
    (input order, floor applied), the one record of the sweep; after that
    ``reround`` re-rounds only what a crossing event tags, with the same
    ``decide``, and writes each changed seat in place.  No total is kept:
    a caller that needs a house size sums the seats.  ``prev`` is the last
    divisor evaluated.  Under constant marks ``reround`` checks what it
    moves against a fresh decision at ``prev`` before writing it, and
    ``verify`` checks the whole state at ``prev`` once the sweep ends: the
    guard ``_sweep`` describes, on the items each mode names.
    """

    room = 1.0

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
        self.tops = self.pops

    def refuse_overflow(self, divisor: float) -> None:
        """Raise ``ValueError`` unless max(``tops``)/D·``room`` is finite: it
        bounds every quota, or every family quota's ``fsum``, at D >= ``divisor``."""
        if not math.isfinite(max(self.tops) / divisor * self.room):
            raise ValueError(f"the quotas overflow a float at divisor {divisor!r}")

    def least_seats(self) -> int:
        """The seats every state gets at every divisor."""
        return self.floor

    def floored(self, seats: list[int]) -> tuple[int, ...]:
        """``seats`` with the seat floor applied."""
        return tuple(max(s, self.floor) for s in seats) if self.floor else tuple(seats)

    def start(self, divisor: float) -> None:
        """Apportion in full at ``divisor``: the sweep state ``reround`` updates."""
        self.seats = list(self.seats_at(divisor))  # min_seat_floor applied
        self.prev = divisor

    def verify(self) -> None:
        """Raise unless the stored seats are a full apportionment at ``prev``."""
        if self.seats_at(self.prev) != tuple(self.seats):
            raise _missed(self.prev, "the sweep's seats or floors differ from direct ones there")

    def mark_crossings(self, value: float, d_lo: float, d_hi: float) -> list[float]:
        """All D in [d_lo, d_hi] where v/D (v = ``value``) meets a mark, and
        under moving marks also where it is an integer.

        Only the marks of families floor(v/d_hi) .. floor(v/d_lo) are tested:
        fl(v/D) is monotone in D, so no rounding in the window reads another.
        Constant marks come from the table ``marks``.  A rounding
        S = floor(q) + [q >= r(floor(q))] with r(f) in [f, f + 1] steps only
        where q meets a mark, and a mark on an integer (Adams' r(f) = f,
        Jefferson's r(f) = f + 1) is met at v/k itself, so under constant
        marks no integer crossing is listed.  For that, where v/d_hi is an
        integer k, family k − 1 is tested too: its mark may sit on k and be
        met at d_hi.  Under moving marks the integer crossings stay: they move
        no seat either, but without them the sweep evaluates at points where
        float decisions flip-flop (ROADMAP item 15).
        """
        moving = self.moving
        out = _boundary_crossings(value, d_lo, d_hi) if moving else []
        first = math.floor(value / d_hi) if moving else max(1, math.ceil(value / d_hi)) - 1
        for f in range(first, math.floor(value / d_lo) + 1):
            if moving:
                d = _mark_times_d_crossing(value, f, self.rounding, d_lo, d_hi)
            else:
                d = value / r if (r := _table_mark(self.marks, self.rounding, f)) > 0 else None
            if d is not None and d_lo <= d <= d_hi:
                out.append(d)
        return out

    def events(self, d_lo: float, d_hi: float) -> list[tuple[float, tuple[list[int], list[int]]]]:
        """Every D in [d_lo, d_hi] where the apportionment could change.

        Returns ``(D, (state_ids, family_ids))`` in ascending D: the states
        and the families (by index f) whose crossings ``crossings`` lists
        there, each mode naming states in the order its sweep stores them.
        Each stored item needs one kind of crossing, which its mode lists.
        The window ends carry empty tags.

        *Limit.*  A volume v (a state's population, or a family's between two
        cuts) listed over [a, b] spans the families floor(v/b) .. floor(v/a),
        m = floor(v/a) − floor(v/b) + 1 of them, as fl(v/D) is monotone in D.
        Under moving marks its integer crossings v/k have k in that range and
        its mark crossings are one family each; under constant marks only mark
        crossings are listed, of at most m + 1 families (``mark_crossings``).
        So it adds at most 2m candidates, and in
        family mode m entries to the per-family population lists.  Before
        each volume's lists are built, m is added to a running total, an O(1)
        step (``crossings`` yields each volume before it builds its lists);
        past ``_MAX_FAMILIES_SPANNED`` (2^18) the window is refused with
        ``ValueError``.  So no call lists more than 2^19 candidates, under
        200 MB of event table at the ~360 bytes each that tracemalloc measures
        (a float key, its tag tuple and lists, and the sorted item), nor
        root-finds more than 2^18 moving-mark crossings.  The census windows
        in the tests and the benchmark span at most 1,997.
        """
        tags: dict[float, tuple[list[int], list[int]]] = {d_lo: ([], []), d_hi: ([], [])}
        spanned = 0
        for v, a, b, listed, kind, ident in self.crossings(d_lo, d_hi):
            spanned += math.floor(v / a) - math.floor(v / b) + 1
            if spanned > _MAX_FAMILIES_SPANNED:
                raise ValueError(f"the divisor window [{d_lo!r}, {d_hi!r}] spans more than "
                                 f"{_MAX_FAMILIES_SPANNED:,} families of the quotas; narrow it")
            for d in listed(v, a, b):
                tags.setdefault(d, ([], []))[kind].append(ident)
        return sorted(tags.items())

    def check(self, piece: _Piece) -> None:
        """Raise unless the piece's seats are the direct ones at its divisor.

        The guard under moving marks, O(n) per piece.  The sweep re-rounds
        only at candidate divisors, so a crossing the enumeration failed to
        find (marks whose r(f, D)·D is not monotone in D) would leave its
        seats stale: where that shows at the piece's divisor it is raised,
        never returned.  Constant marks need no such check (see ``_sweep``).
        """
        if self.seats_at(piece.divisor) != piece.seats:
            raise _missed(piece.divisor, "its seats differ from direct apportionment there")

    def apportionment(self, piece: _Piece,
                      d_interval: tuple[float, float] | None = None) -> Apportionment:
        """The checked piece as an ``Apportionment``; its quota table is built when read."""
        return Apportionment(piece.divisor, dict(zip(self.names, piece.seats)),
                             QuotaTable._lazy(self.states, piece.divisor), d_interval)


class _StateEvaluator(_Evaluator):
    """State mode: each state's quota q = v/D, the float ``compute_quotas``
    takes, is rounded on its own by ``decide``.

    Events name a state by its input index, the order seats are stored in.
    It keeps the base's ``tops`` and ``room``: above its own population a
    state's quota is below 1, and each quota is one division.

    *The guard's items* (``_sweep``) are the states' seats.  fl(v/D),
    floor and the test q >= r(f) are each monotone, so a state's seat is
    monotone in D, and it steps only at its quota's mark crossings, the
    events that tag it (``crossings``).  ``reround`` checks a seat at
    ``prev`` before it moves it, and ``verify`` checks every seat.
    """

    def least_seats(self) -> int:
        """The seat floor, and one seat under constant marks with r(0) = 0,
        which give every positive quota a seat."""
        forced = not self.moving and _table_mark(self.marks, self.rounding, 0) == 0.0
        return max(self.floor, 1) if forced else self.floor

    def seats_at(self, divisor: float) -> tuple[int, ...]:
        """Every state's seats at ``divisor``, in input order, floor applied."""
        decide = self.decide
        return self.floored([decide(v / divisor, divisor) for v in self.pops])

    def reround(self, divisor: float, state_ids, family_ids) -> bool:
        """Re-round the given states at ``divisor``, in place; True if any
        seat moved.

        Under constant marks a state whose seat moves must first hold at
        the previous evaluation point ``prev`` what a fresh decision gives,
        or ``ApportionmentError`` is raised.  ``_sweep`` says why that is
        complete.
        """
        seats, floor, decide, pops = self.seats, self.floor, self.decide, self.pops
        prev, self.prev = self.prev, divisor
        moves = [(i, s) for i in state_ids
                 if (s := max(decide(pops[i] / divisor, divisor), floor)) != seats[i]]
        if not self.moving and any(max(decide(pops[i] / prev, prev), floor) != seats[i]
                                   for i, _ in moves):  # all before any write: D may tag i twice
            raise _missed(prev, "a state's stored seats differ from its rounding there")
        for i, s in moves:
            seats[i] = s
        return bool(moves)

    def crossings(self, d_lo: float, d_hi: float):
        """``(v, a, b, listed, kind, ident)`` for ``events``: each state's
        population, its quota's mark crossings listed over the window and
        tagged with its input index."""
        for i, v in enumerate(self.pops):
            yield v, d_lo, d_hi, self.mark_crossings, 0, i

    def bounds(self, top: float):
        """``bounds(d) -> (L, U)``: L(d) <= total(D) at every D in
        [v_T/``top``, d] and U(d) >= total(D) at every D >= d >= v_T/``top``
        (see ``_search_window``)."""
        if not self.moving:
            def exact(d: float) -> tuple[int, int]:
                total = sum(self.seats_at(d))
                return total, total
            return exact
        margin = self.rounding.margin
        margin_error = getattr(self.rounding, "margin_error", None)
        d_min, pops, floor_seats = self.v_t / top, self.pops, self.floor
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


class _FamilyEvaluator(_Evaluator):
    """Family mode: each family's volume is rounded as one, then split.

    ``seats_at(D)`` rounds with the float operations of ``compute_quotas``
    and ``partition_families``: q = v/D per state, a family as a run of
    equal floor(q) in (population, name) order (``order``, with
    ``sorted_pops``) with its quota ``family_quota``'s fl(V_f/D),
    ``decide`` (a family of one on its member's quota, which equals it),
    ``positional_split`` and the seat floor.  Family seats are written
    straight to their input positions through ``order``.

    Families are contiguous runs of (population, name) order, because
    floor(v/D) is monotone in v: the sweep state adds ``family``, where
    ``family[p]`` is the stored floor of the state at rank p (its position
    in that order), events name states by that rank, and a family's
    members are found by bisection (``split``).  Above v_T every quota is
    below 1, one family of volume v_T (``tops``), and ``room`` covers the
    rounding of v_T and of each quota in a family's ``fsum``.

    *The guard's items* (``_sweep``) are each state's floor(v/D) and each
    family's seats.

    - fl(v/D) and floor are monotone, so a state's floor is monotone in D,
      and it steps only at its state's integer crossings, the events that
      tag the state (``crossings``).  ``reround`` checks a floor at
      ``prev`` before it moves it, and ``verify`` checks every floor.  So
      by ``_sweep``'s argument every stored floor is exact at every
      evaluated point, and the runs of ``family`` are the families there.
    - With its members fixed, a family's quota fl(V_f/D) (V_f fixed, and
      ``family_quota``'s lift onto k·f monotone), its rounding and each
      member's positional seat are monotone in D too, and the family's
      seats step only at its volume's mark crossings, the events that tag
      the family.
    - Members change only where a tagged state's floor moves, which touches
      both families involved, and ``reround`` checks both before it writes
      the floor.  Between two touches a family's members are fixed, and
      its seats follow the argument for a floor: fresh at one touch, then
      equal to the fresh split at the next, or checked at the point before
      it, or checked by ``verify``.
    """

    room = 1 + 2 ** -50

    def __init__(self, states: Iterable[StateProfile], method: MethodSpec):
        super().__init__(states, method)
        self.order = sorted(range(len(self.pops)), key=lambda i: (self.pops[i], self.names[i]))
        self.sorted_pops = [self.pops[i] for i in self.order]
        self.tops = [self.v_t]

    def runs(self, divisor: float) -> tuple[list[float], list[int]]:
        """The sorted quotas at ``divisor`` and where each family ends."""
        quotas = [v / divisor for v in self.sorted_pops]
        ends, lo, n = [], 0, len(quotas)
        while lo < n:
            lo = bisect_left(quotas, math.floor(quotas[lo]) + 1, lo + 1)
            ends.append(lo)
        return quotas, ends

    def seats_at(self, divisor: float) -> tuple[int, ...]:
        """Every state's seats at ``divisor``, in input order, floor applied."""
        decide = self.decide
        quotas, ends = self.runs(divisor)
        order, seats, lo = self.order, [0] * len(quotas), 0
        for hi in ends:
            if hi == lo + 1:  # a family of one rounds its own quota
                seats[order[lo]] = decide(quotas[lo], divisor)
            else:
                f = math.floor(quotas[lo])
                quota = family_quota(f, self.sorted_pops[lo:hi], divisor)
                m_low, _ = positional_split(f, hi - lo, decide(quota, divisor))
                for p, i in enumerate(order[lo:hi]):
                    seats[i] = f + (p >= m_low)
            lo = hi
        return self.floored(seats)

    def start(self, divisor: float) -> None:
        """Apportion in full at ``divisor``, and store every state's floor."""
        super().start(divisor)
        self.family = [math.floor(v / divisor) for v in self.sorted_pops]

    def split(self, f: int, divisor: float) -> tuple[int, int, int]:
        """Family f's run [lo, hi) in ``family`` and m_low, how many of its
        members get f seats at ``divisor`` (``seats_at``'s float operations).

        Seats outside the members' range, which only a stale member left by
        a missed crossing can cause, raise ``ApportionmentError``.
        """
        lo = bisect_left(self.family, f)
        hi = bisect_right(self.family, f, lo)
        if hi == lo + 1:  # a family of one rounds its own quota
            quota = self.sorted_pops[lo] / divisor
        elif lo < hi:
            quota = family_quota(f, self.sorted_pops[lo:hi], divisor)
        else:
            return lo, hi, 0
        try:
            return lo, hi, positional_split(f, hi - lo, self.decide(quota, divisor))[0]
        except ValueError as err:
            raise _missed(divisor, str(err)) from None

    def reround(self, divisor: float, state_ids, family_ids) -> bool:
        """Re-round the given states and families at ``divisor``, in place.

        Returns True if any seat moved (seats can swap at an unchanged
        total).  States are named by rank; a state is re-rounded through
        its old and new family.  Under constant marks what moves is first
        checked at the previous evaluation point ``prev``, before it is
        written: a state whose floor moves, a family whose members change
        and a family whose seats move must hold there what a fresh decision
        gives, or ``ApportionmentError`` is raised.  ``_sweep`` says why
        that is complete.
        """
        seats, floor = self.seats, self.floor
        prev, self.prev = self.prev, divisor
        family, sorted_pops, order = self.family, self.sorted_pops, self.order
        families, moves, changed = set(family_ids), [], set()
        for p in state_ids:  # ranks
            families.add(old := family[p])
            if (f := math.floor(sorted_pops[p] / divisor)) != old:
                moves.append((p, f))
                changed.update((old, f))
        if moves and not self.moving:
            if any(family[p] != math.floor(sorted_pops[p] / prev) for p, _ in moves):
                raise _missed(prev, "a state's stored family differs from its quota's there")
            for f in changed:
                self.check_family(f, prev)
        for p, f in moves:
            family[p] = f
        moved = False
        for f in families | changed:
            lo, hi, m_low = self.split(f, divisor)
            unchecked = not self.moving and f not in changed
            for p, i in enumerate(order[lo:hi]):
                if (s := max(f + (p >= m_low), floor)) != seats[i]:
                    if unchecked:  # the family's seats move: check them before the first write
                        self.check_family(f, prev)
                        unchecked = False
                    seats[i], moved = s, True
        return moved

    def check_family(self, f: int, prev: float) -> None:
        """Raise unless family f's stored seats are its split at ``prev``."""
        lo, hi, m_low = self.split(f, prev)
        seats, floor = self.seats, self.floor
        for p, i in enumerate(self.order[lo:hi]):
            if seats[i] != max(f + (p >= m_low), floor):
                raise _missed(prev, f"family {f}'s stored seats differ from its rounding there")

    def verify(self) -> None:
        """Raise unless the sweep state is a full apportionment at ``prev``:
        its seats, and every stored floor."""
        if self.family != [math.floor(v / self.prev) for v in self.sorted_pops]:
            raise _missed(self.prev, "the sweep's seats or floors differ from direct ones there")
        super().verify()

    def crossings(self, d_lo: float, d_hi: float):
        """``(v, a, b, listed, kind, ident)`` for ``events``: each state's
        population, its quota's integer crossings (where it changes
        families) listed over the window and tagged with its rank, and each
        family f's volume between two cuts, its mark crossings listed there
        and tagged with f.

        Family f is cut at the window ends and at v/f and v/(f+1) of each
        state whose floor(v/D) reaches f in the window; between two cuts its
        members and volume are fixed, so the volume's crossings are listed once.
        """
        candidates: dict[int, list[float]] = {}  # f -> populations, rank order
        for p, v in enumerate(self.sorted_pops):
            yield v, d_lo, d_hi, _boundary_crossings, 0, p
            for f in range(math.floor(v / d_hi), math.floor(v / d_lo) + 1):
                candidates.setdefault(f, []).append(v)
        for f, pops in candidates.items():
            bounds = [v / k for v in pops for k in (f, f + 1) if k]
            cuts = sorted({d_lo, d_hi, *(d for d in bounds if d_lo < d < d_hi)})
            for a, b in zip(cuts, cuts[1:]):
                mid = 0.5 * (a + b)
                vol = math.fsum(v for v in pops if math.floor(v / mid) == f)
                if vol:  # populations are positive, so the family has members
                    yield vol, a, b, self.mark_crossings, 1, f

    def bounds(self, top: float):
        """``bounds(d) -> (L, U)``: with volume = v_T·``room``, L(d) <=
        total(D) at every D in [volume/``top``, d] and U(d) >= total(D) at
        every D >= d >= volume/``top`` (see ``_search_window``).

        Family f's offsets (c_U, c_L) are read once per index into one
        table: the rule's ``mark_offsets(f, top, volume)``, else (0, 1).
        """
        floor_seats = self.floor
        eta = 2.0 ** -50 * top  # 8u·top, u = 2⁻⁵³: x's error and that of x ∓ η, with room
        offsets = None if floor_seats else getattr(self.rounding, "mark_offsets", None)
        volume = self.v_t * self.room  # bounds x·D for every family quota x
        cs = {}  # (c_U, c_L) by family index: the rule's offsets, else (0, 1)

        def per_family(d: float) -> tuple[int, int]:
            quotas, ends = self.runs(d)
            lower = upper = 0
            for lo, hi in zip([0, *ends], ends):
                f, k = math.floor(quotas[lo]), hi - lo
                c_u, c_l = cs.get(f) or cs.setdefault(
                    f, offsets and offsets(f, top, volume) or (0.0, 1.0))
                x = family_quota(f, self.sorted_pops[lo:hi], d)
                # R_c(y) = g + [y > g and y − g >= c], exact on a float
                g = math.floor(y := x - eta)
                low = g + (y > g and y - g >= c_l)
                g = math.floor(y := x + eta)
                high = g + (y > g and y - g >= c_u)
                lower += max(low, k * max(f, floor_seats))  # a seat floor m lifts f < m to m·k
                upper += max(min(high, k * (f + 1)), k * floor_seats)
            return lower, upper
        return per_family


def _evaluator(states: Iterable[StateProfile], method: MethodSpec) -> _Evaluator:
    """The evaluator of ``method``'s mode over ``states``: past ``MethodSpec``,
    the one place the engine reads the mode."""
    return (_FamilyEvaluator if method.mode == BY_FAMILY else _StateEvaluator)(states, method)


def _missed(divisor: float, why: str) -> ApportionmentError:
    return ApportionmentError(f"divisor sweep missed a crossing below D = {divisor!r}: {why}")


def apportion_at_divisor(states: Iterable[StateProfile], divisor: float,
                         method: MethodSpec) -> Apportionment:
    """Apportion at a fixed divisor (Hamilton is not divisor-based).

    The seats come from the same plain-list evaluator that checks every
    piece of a divisor sweep; the quota table is computed when first read.
    """
    if method.is_hamilton:
        raise ApportionmentError("Hamilton's method needs a target house size, not a divisor")
    states = tuple(states)
    quotas = compute_quotas(states, divisor)
    direct = _evaluator(states, method)
    direct.refuse_overflow(divisor)
    return Apportionment(divisor, dict(zip(direct.names, direct.seats_at(divisor))), quotas)


def _hamilton(direct: _Evaluator, target: int) -> Apportionment:
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


def _boundary_crossings(value: float, d_lo: float, d_hi: float) -> list[float]:
    """All D in [d_lo, d_hi] where v/D (v = ``value``) is an integer."""
    out = []
    for k in range(max(1, math.ceil(value / d_hi)), math.floor(value / d_lo) + 1):
        d = value / k
        if d_lo <= d <= d_hi:
            out.append(d)
    return out


class _Piece(NamedTuple):
    """One constant-seat run (lo, hi] of a sweep: a seat vector and where it
    holds.  Its house size is ``sum(seats)``, summed only where a search
    reads it."""

    lo: float
    hi: float
    divisor: float          # midpoint of the piece's first candidate interval
    seats: tuple[int, ...]  # input state order, min_seat_floor applied


# Float rounding of quotas, family sums and divisor-dependent rounding tests
# can put the divisor where seats really change a few ulps away from the
# computed candidate, so an event is re-rounded at every evaluated
# midpoint within this relative distance of it, and at the first one beyond.
_EVENT_BAND = 1e-9


def _sweep(direct: _Evaluator, d_lo: float, d_hi: float) -> list[_Piece]:
    """Constant-seat pieces over [d_lo, d_hi] by one ascending event sweep.

    It apportions in full at the first candidate interval's midpoint, then
    at each later one re-rounds what the events near it tag
    (``reround``).  The sweep keeps seats only: a piece is the stored seat
    vector at its first evaluated point, and no seat moves at the later
    points in it.

    *The guard under constant marks*, O(events + n) in all.  Each item
    is checked where the sweep moves it.  Each evaluator names its items
    (each state's seat in ``_StateEvaluator``; each state's floor(v/D) and
    each family's seats in ``_FamilyEvaluator``), shows each monotone in D
    and moved only by the events that tag it, and checks it.  Before
    ``reround`` writes a new value over a stored one, the stored one must
    be the fresh decision at the previous evaluated point.  After the last
    one, ``verify`` requires one ``seats_at`` equal to the stored seats
    and every other stored item equal to the fresh one
    (``ApportionmentError`` otherwise).  That proves each returned piece's
    seats at every point the sweep evaluates inside it.  A stored item is
    fresh at ``start`` and wherever it is tagged.  At each later tag the
    fresh value either equals it, and by monotonicity it held at every
    point between, or differs, and then it is checked at the point before;
    after the last tag ``verify`` checks it.  So every stored item is
    exact at every evaluated point.

    What the guard does not prove is a piece's extent between two
    evaluated points: a crossing missed there merges two pieces, each
    right where it was evaluated (``tests/drop_harness.py`` counts these).
    Under moving marks monotonicity is only the law's contract, and floats
    break it near a support edge, so these checks are off and ``check``
    reads each piece at its divisor instead.
    """
    if not (0 < d_lo < d_hi) or not math.isfinite(d_hi):
        raise ValueError(f"need 0 < d_lo < d_hi, got [{d_lo!r}, {d_hi!r}]")
    direct.refuse_overflow(d_lo)
    events = direct.events(d_lo, d_hi)
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
        elif last == first + 1:
            moved = direct.reround(mid, *events[first][1])
        else:
            near = [tags for _, tags in events[first:last]]
            moved = direct.reround(mid, [i for ids, _ in near for i in ids],
                                   [f for _, fs in near for f in fs])
        while first < last and events[first][0] * (1 + _EVENT_BAND) < mid:
            first += 1
        if moved:
            pieces.append(_Piece(a, b, mid, tuple(direct.seats)))
        else:
            p = pieces[-1]
            pieces[-1] = _Piece(p.lo, b, p.divisor, p.seats)
    if not pieces:
        # window too narrow to contain any candidate interior: one piece
        mid = 0.5 * (d_lo + d_hi)
        direct.start(mid)
        pieces.append(_Piece(d_lo, d_hi, mid, tuple(direct.seats)))
    elif not direct.moving:
        direct.verify()
    return pieces


def _checked_sweep(states: Iterable[StateProfile], method: MethodSpec,
                   d_lo: float, d_hi: float) -> tuple[_Evaluator, list[_Piece]]:
    """The sweep's pieces over [d_lo, d_hi], checked (see ``_sweep``; under
    moving marks by direct apportionment at each piece's divisor), and the
    evaluator that swept and checked them."""
    if method.is_hamilton:
        raise ApportionmentError("Hamilton's method has no divisor sweep")
    direct = _evaluator(states, method)
    pieces = _sweep(direct, d_lo, d_hi)
    if direct.moving:
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
    which a state's quota (or in family mode a family's) meets a mark,
    and in family mode a member's quota meets an integer (under moving
    marks every quota's integer crossings are listed too), each tagged
    with what crossed there: O(K log K)
    for K candidates.  It apportions once in full, then walks the
    candidates in ascending order and, at each candidate interval's
    midpoint, re-rounds only what the passed candidates tag: O(size of
    what crossed) per interval.  Each piece keeps the sweep's seats,
    checked where they move (``_sweep``): under constant marks every
    piece holds at every candidate-interval midpoint the sweep evaluates
    inside it, for O(events + n) in all; under moving marks one
    plain-list direct evaluation at each piece's divisor, O(n), must
    agree with them.  A missed crossing that shows there raises
    ``ApportionmentError``.  The returned apportionments are built from
    those seats, and their quota tables only when read.
    """
    direct, pieces = _checked_sweep(states, method, d_lo, d_hi)
    return [(p.lo, p.hi, direct.apportionment(p)) for p in pieces]


def breakpoints(states: Iterable[StateProfile], method: MethodSpec,
                d_lo: float, d_hi: float) -> list[float]:
    """Critical divisors in [d_lo, d_hi]: the D at which seats change.

    These are the upper ends of every piece but the last, the pieces
    checked as in ``piecewise_apportionments``, so a missed crossing that
    shows where the sweep evaluates raises ``ApportionmentError``.  Between
    consecutive returned values the apportionment is constant.  The
    apportionment AT a returned divisor is meant to equal the one on the
    piece below it (a quota exactly at a mark rounds up, so the change is
    in effect at the crossing divisor itself), but a returned divisor is
    a float near the exact crossing, and in exact arithmetic it often
    lies on the other side (fault (b), ROADMAP item 1).
    """
    _, pieces = _checked_sweep(states, method, d_lo, d_hi)
    return [p.hi for p in pieces[:-1]]


# The far end of the bracket on which the freeze divisor's mark crossing is
# solved: finite, inside the crossing solver's range, beyond any population.
_FAR = 1e300


def _freeze_divisor(direct: _Evaluator, d_lo: float) -> float:
    """A divisor just above the last one where seats change (small targets).

    Above v (each of the evaluator's ``tops``: every state's population
    by state, v_T by family) its quota is below 1, so only the mark r(0, D) is left to cross.  Every
    state counts: under a bounded law a state above the support keeps its
    seat for good, while a smaller one may lose its seat further out.
    """
    ends = [d for v in direct.tops for d in (v, *direct.mark_crossings(v, v, _FAR))]
    return max(max(ends) * (1 + 1e-9), d_lo * 2)


def _search_window(direct: _Evaluator, target: int) -> tuple[list[_Piece], list[int], bool]:
    """Sweep of a divisor window provably holding every D with total == target.

    Returns ``(pieces, totals, frozen_above)``: totals[i] is
    ``sum(pieces[i].seats)``, summed once here, and frozen_above means the
    apportionment is constant for all D above the last piece, so a
    solution on it extends to infinity.

    *Bounds.*  Two seat totals with L(d) <= total(D) at every D in
    [cap_lo, d] and U(d) >= total(D) at every D >= d, with m =
    min_seat_floor:

    - state mode with constant marks: L = U = the exact total, that of
      ``_StateEvaluator.seats_at(D)``.  fl(v/D) is monotone in D, and floor and
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
      evaluator's family quota (``family_quota``, fl(V_f/D) of family f's
      k_f members), u = 2⁻⁵³, T = target + slack + 2, η = 8u·T, and R_c(y)
      = g + [y > g and y − g >= c], g = floor(y), exact on a float y.
      Family f takes (c_L, c_U) = (hi, lo) of the rule's ``mark_offsets(f,
      T, volume)``, volume = v_T·(1 + 2⁻⁵⁰), unless m is set, else, or
      where the rule declares None, (1, 0), floor and ceiling (Adams,
      Webster, Jefferson: (c, c), their own rounding).
      L and U need be neither exact nor monotone; two
      exact sums between them are.  On [cap_lo, ∞) every quota sum is below
      T.  Let X_f be the exact sum of the members' float quotas fl(v/D), in
      [k_f·f, k_f·(f+1)).  x is within 3.01·u·T of X_f: the exact V_f/D is
      within u·X_f of it (one rounding per member), fl(fl(V_f)/D) within
      2.01·u·T of V_f/D (two more), and a lift onto k_f·f moves x toward
      X_f.  fl(x ∓ η) is within 1.01·u·T of x ∓ η, so fl(x − η) <= X_f − η′
      and fl(x + η) >= X_f + η′ with η′ = η − 4.02·u·T = 3.98·u·T >
      3.01·u·T (η = 4u·T would leave η′ short of x's distance to X_f).  Let
      Λ and Υ be L and U with X_f ∓ η′ in place of fl(x ∓ η), in exact
      arithmetic; R_c is non-decreasing, so L <= Λ and U >= Υ.  Λ <= total
      <= Υ: the evaluator rounds x, in [k_f·f, k_f·(f+1)], to G + [x > G
      and x reaches r(G, D)], G = floor(x) in [f, T], which lies between
      R_hi(x) and R_lo(x) (any rule between R_1 and R_0), and x is within
      η′ of X_f.  Moving marks' offsets hold where G·D <= volume and D >=
      volume/T, which holds here: x·D is at most fl(V_f/D)·(1 + 2⁻⁵¹)·D
      with V_f <= v_T, and cap_lo >= volume/T while T < 2⁵⁰ (as x < T
      above needs).  Neither Λ nor Υ rises with D:
      as D grows the quotas fl(v/D) fall, and with members fixed each term
      with them.  A member leaving f for f − 1 does so in three steps: its
      quota falls to exactly f inside f; the integer f moves across, which
      raises no sum, as each family keeps its own c and R_c(X ± f) = R_c(X)
      ± f, and each clamp shifts with it or falls by one; its quota falls
      further inside f − 1 (and on, family by family).  So L(d) <= Λ(d) <=
      Λ(D) <= total(D) for D <= d and U(d) >= Υ(d) >= Υ(D) >= total(D) for
      D >= d.  That argument holds for moving marks as well: c is fixed per
      family index, and only the rounding at each D reads the marks.

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
    bounds = direct.bounds(target + slack + 2)
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

    # the probed window, then the fixed-slack one if an edge check fails
    for d_lo, d_hi in ((lower_end(), upper_end()), (cap_lo, cap_hi)):
        pieces = _sweep(direct, d_lo, d_hi)
        totals = [sum(p.seats) for p in pieces]
        if not ((totals[0] == target and d_lo != cap_lo)
                or (totals[-1] == target and d_hi != cap_hi)
                or (target not in totals and (d_lo, d_hi) != (cap_lo, cap_hi))):
            break  # the fixed-slack window always passes
    return pieces, totals, frozen_above and d_hi == cap_hi


def apportion_for_house_size(states: Iterable[StateProfile], target_total: int,
                             method: MethodSpec) -> list[Apportionment]:
    """Every distinct apportionment with the requested total seats.

    For divisor-based methods the result lists one entry per distinct
    seat vector achievable at some divisor, ordered by descending
    divisor, each with ``d_interval`` set to the maximal divisor run
    (lo, hi] on which it holds (``math.inf`` upper end when the
    apportionment stays frozen for all larger divisors).  A vector that
    holds on several disjoint runs (in family mode the total can dip
    between them, an Alabama-type swing) reports its top run, the one
    with the largest divisors, which need not be its widest.  A length-2+
    list is the multiple-solution paradox surfaced, not an error.  The
    search window's sweep is checked as in ``piecewise_apportionments``:
    under constant marks at every point it evaluates, and under moving
    marks at the divisors of each solution's piece and its neighbours
    (``ApportionmentError``).
    Hamilton returns a single apportionment at D = v_T/target.  A target
    so large that float rounding moves the quotas' floors by more than n
    seats raises ``InfeasibleTarget``, as does, for every method, a
    target beyond the float range.
    """
    _refuse_target(target_total)
    direct = _evaluator(states, method)
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
    forced_min = n * direct.least_seats()
    if target_total < forced_min:
        raise InfeasibleTarget(
            f"target {target_total} infeasible: method forces at least "
            f"{forced_min} seats across {n} states")

    pieces, totals, frozen_above = _search_window(direct, target_total)

    solutions: list[Apportionment] = []
    seen: set[tuple[int, ...]] = set()
    for idx, piece in reversed(list(enumerate(pieces))):  # from the top: each keeps its top run
        if totals[idx] != target_total or piece.seats in seen:
            continue
        upper = math.inf if (frozen_above and idx == len(pieces) - 1) else piece.hi
        seen.add(piece.seats)
        if direct.moving:  # and its neighbours, which share its ends
            for near in pieces[max(idx - 1, 0):idx + 2]:
                direct.check(near)
        solutions.append(direct.apportionment(piece, (piece.lo, upper)))
    if not solutions:
        below = max((t for t in totals if t < target_total), default=None)
        above = min((t for t in totals if t > target_total), default=None)
        raise TargetUnachievable(target_total, below, above)
    return solutions
