"""Detection of the Alabama, New States, and multiple-solution paradoxes.

Detection is mechanical, not narrative: the Alabama scan walks the
exact critical divisors of a method from high D to low and reports any
state whose seats drop as D drops; the New States check replays an
insertion at fixed D; a multiple solution is two or more of the
apportionments ``engine.apportion_for_house_size`` returns for one target,
which ``as_multiple_solution_report`` wraps.  Reports are plain value
objects whose before/after apportionments re-evaluate to themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Apportionment, StateProfile, compute_quotas, partition_families
from .engine import (
    BY_FAMILY,
    MethodSpec,
    _checked_sweep,
    apportion_at_divisor,
    positional_split,
)
from .signposts import WEBSTER

__all__ = [
    "ALABAMA",
    "NEW_STATES",
    "MULTIPLE_SOLUTION",
    "ParadoxReport",
    "scan_alabama",
    "check_new_states",
    "as_multiple_solution_report",
    "family_of_families_fixture",
]

ALABAMA = "alabama"
NEW_STATES = "new_states"
MULTIPLE_SOLUTION = "multiple_solution"


@dataclass(frozen=True)
class ParadoxReport:
    """One observed paradox instance.

    ``witness`` is the critical divisor for Alabama reports, the added
    state for New States reports, and the tuple of divisor intervals
    for multiple-solution reports.  ``affected_states`` lists
    (name, seats_before, seats_after) for every state whose count
    changed the offending way.
    """

    kind: str
    witness: object
    before: Apportionment
    after: Apportionment
    affected_states: tuple[tuple[str, int, int], ...]

    def describe(self) -> str:
        parts = []
        if self.kind == ALABAMA:
            parts.append(
                f"Alabama paradox at divisor {self.witness:.10g}: "
                f"total {self.before.total_seats} -> {self.after.total_seats} "
                f"as the divisor decreases through it"
            )
        elif self.kind == NEW_STATES:
            st = self.witness
            parts.append(
                f"New States paradox: adding {st.name} (population {st.population:g}) "
                f"at fixed divisor changed incumbent seats"
            )
        else:
            parts.append(
                f"multiple-solution paradox: {self.before.total_seats} total seats "
                f"achieved by distinct seat vectors"
            )
        for name, s_before, s_after in self.affected_states:
            parts.append(f"  {name}: {s_before} -> {s_after}")
        return "\n".join(parts)


def _changed_seats(before: Apportionment, after: Apportionment,
                   ) -> tuple[tuple[str, int, int], ...]:
    """(name, seats before, seats after) for each state of ``before`` whose
    seats differ in ``after``."""
    return tuple((name, seats, after.seats[name]) for name, seats in before.seats.items()
                 if after.seats[name] != seats)


def scan_alabama(states, method: MethodSpec, d_lo: float, d_hi: float,
                 ) -> list[ParadoxReport]:
    """Walk critical divisors from d_hi down; report every seat loss.

    A report means some state's count decreased while D decreased (the
    house was growing or holding), which a divisor method can never do.
    An empty list certifies the method clean on this instance and range.
    The pieces are checked as in ``piecewise_apportionments``, so a
    missed crossing that shows where the sweep evaluates raises
    ``ApportionmentError`` rather than a false report or a missing one;
    apportionments are built only for the pieces a report names.
    """
    direct, pieces = _checked_sweep(states, method, d_lo, d_hi)
    reports = []
    # pieces ascend in D; walk adjacent pairs from the top down
    for after, before in zip(pieces, pieces[1:]):
        affected = tuple(
            (name, b, a)
            for name, b, a in zip(direct.names, before.seats, after.seats)
            if a < b
        )
        if affected:
            reports.append(ParadoxReport(
                kind=ALABAMA,
                witness=after.hi,  # the divisor at which the lower piece's seats take over
                before=direct.apportionment(before, (before.lo, before.hi)),
                after=direct.apportionment(after, (after.lo, after.hi)),
                affected_states=affected,
            ))
    return reports


def check_new_states(states, method: MethodSpec, divisor: float,
                     new_state: StateProfile) -> ParadoxReport | None:
    """Insert one state at fixed D and compare incumbents' seats."""
    states = tuple(states)
    if any(s.name == new_state.name for s in states):
        raise ValueError(f"state name {new_state.name!r} already in use")
    before = apportion_at_divisor(states, divisor, method)
    after = apportion_at_divisor(states + (new_state,), divisor, method)
    affected = _changed_seats(before, after)
    if not affected:
        return None
    return ParadoxReport(
        kind=NEW_STATES,
        witness=new_state,
        before=before,
        after=after,
        affected_states=affected,
    )


def as_multiple_solution_report(solutions: list[Apportionment],
                                ) -> ParadoxReport | None:
    """Wrap a multi-solution result into a report (None if unique)."""
    if len(solutions) < 2:
        return None
    first, second = solutions[0], solutions[1]
    return ParadoxReport(
        kind=MULTIPLE_SOLUTION,
        witness=tuple(s.d_interval for s in solutions),
        before=first,
        after=second,
        affected_states=_changed_seats(first, second),
    )


# --- the family-of-families construction -------------------------------------
#
# Rounding family quotas fixes the Alabama paradox one level up, so it is
# tempting to iterate: group families whose quotas share an integer part
# into families-of-families and round those.  The construction below shows
# why the iteration is rotten: the combined level reintroduces exactly the
# integer-part dependence that family rounding was supposed to remove.

_FOF_POPULATIONS = (0.99999, 1.7, 2.6)
_FOF_D_BEFORE = 1.0
_FOF_D_AFTER = 0.99997  # just below the smallest state's boundary divisor


def _family_of_families_apportion(states, divisor: float) -> Apportionment:
    """Webster rounding applied hierarchically: states, families, super-families.

    Each family is one state of its volume, named by its index so that
    equal volumes order by index; Webster family rounding of those gives
    each family its seats, which its members split positionally.
    """
    quotas = compute_quotas(states, divisor)
    partition = partition_families(quotas)
    family_seats = apportion_at_divisor(
        [StateProfile(f"{fam.index:020d}", fam.population) for fam in partition],
        divisor, MethodSpec(WEBSTER, BY_FAMILY)).seats.values()  # in partition order
    seats: dict[str, int] = {}
    for fam, fam_seats in zip(partition, family_seats):
        m_low, _ = positional_split(fam.index, fam.size, fam_seats)
        for i, entry in enumerate(fam.members):
            seats[entry.state.name] = fam.index + (i >= m_low)
    seats = {e.state.name: seats[e.state.name] for e in quotas}
    return Apportionment(divisor, seats, quotas)


def family_of_families_fixture() -> ParadoxReport:
    """Deterministic Alabama violation for hierarchical family rounding.

    Three states whose quotas start at {0.99999, 1.7, 2.6}: as the
    divisor dips below the first state's boundary, the 1.7- and
    2.6-quota families land in the same super-family, whose quota 5.3
    rounds to 5, and the largest state drops from 3 seats to 2 even
    though the divisor decreased.
    """
    states = tuple(
        StateProfile(f"state{i + 1}", pop) for i, pop in enumerate(_FOF_POPULATIONS)
    )
    before = _family_of_families_apportion(states, _FOF_D_BEFORE)
    after = _family_of_families_apportion(states, _FOF_D_AFTER)
    return ParadoxReport(
        kind=ALABAMA,
        witness=_FOF_POPULATIONS[0] / 1.0,  # the boundary divisor the sweep crossed
        before=before,
        after=after,
        affected_states=_changed_seats(before, after),  # the one change is a loss
    )
