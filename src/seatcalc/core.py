"""Core data model: states, quotas and integer-part families.

Everything downstream works on two views of an electorate at a given
divisor ``D``: the per-state quota table (``q_c = v_c / D``) and its
partition into families, where family ``f`` collects the states whose
quota has integer part ``f``.  Family ``f``'s quota is one division of its
volume, Q_f = fl(V_f/D) with V_f the sum of its members' populations
(``family_quota``), so two families of equal volume have equal quotas
however their volumes split into members (but for a lift of at most 4u,
which ``family_quota`` explains).  Under family-quota rounding
the family as a whole is rounded before seats are split among members by
size.  Quota and population sums are ``math.fsum``'s: correctly rounded,
so the same float on every Python, and inf beyond the float range, as
rounding gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "StateProfile",
    "QuotaEntry",
    "QuotaTable",
    "Family",
    "FamilyPartition",
    "Apportionment",
    "compute_quotas",
    "partition_families",
]


def fsum_or_inf(values) -> float:
    """``math.fsum`` of ``values``: correctly rounded, and inf beyond the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def family_quota(f: int, populations: Sequence[float], divisor: float) -> float:
    """Q_f = fl(V_f/D) of family ``f``, whose members have ``populations``.

    V_f is their ``fsum`` (inf beyond the float range).  Each member's
    fl(v/D) is at least f, but its exact v/D may lie just below f, and V_f/D
    is rounded twice more, so Q_f can fall below k·f (k members) by up to 3u
    relative, u = 2⁻⁵³.  A Q_f within 4u below k·f is lifted onto it, so the
    family's seats stay in [k·f, k·(f + 1)]; a larger miss, which only a
    state outside family f gives, is left for the positional split to
    refuse.  (Each fl(v/D) below f + 1 keeps Q_f at most k·(f + 1).)  A
    family of one gets its member's quota, v/D.
    """
    q = fsum_or_inf(populations) / divisor
    low = len(populations) * float(f)  # inf beyond the float range, not OverflowError
    return low if q < low <= q * (1 + 2 ** -51) else q


@dataclass(frozen=True)
class StateProfile:
    """A state with a name and a positive population (or vote count)."""

    name: str
    population: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("state name must be non-empty")
        if not (self.population > 0) or not math.isfinite(self.population):
            raise ValueError(
                f"population of {self.name!r} must be positive and finite, "
                f"got {self.population!r}"
            )


@dataclass(frozen=True)
class QuotaEntry:
    """One state's quota at a fixed divisor."""

    state: StateProfile
    quota: float

    @property
    def family(self) -> int:
        return int(math.floor(self.quota))

    @property
    def fraction(self) -> float:
        return self.quota - math.floor(self.quota)


@dataclass(frozen=True)
class QuotaTable:
    """All states' quotas at one divisor, in the input state order.

    A table from ``compute_quotas`` holds its states and computes
    ``entries`` on first read, so a table nobody reads costs no
    ``QuotaEntry``; once read, it equals and prints as one built eagerly.
    """

    divisor: float
    entries: tuple[QuotaEntry, ...]

    @classmethod
    def _lazy(cls, states: tuple[StateProfile, ...], divisor: float) -> QuotaTable:
        """A table of ``states`` at ``divisor``, neither of them checked."""
        table = object.__new__(cls)
        object.__setattr__(table, "divisor", divisor)
        object.__setattr__(table, "_states", states)
        return table

    def __getattr__(self, name: str):
        # reached only for attributes the instance lacks: a lazy table's entries
        states = self.__dict__.get("_states")
        if name != "entries" or states is None:
            raise AttributeError(name)
        entries = tuple(QuotaEntry(s, s.population / self.divisor) for s in states)
        object.__setattr__(self, "entries", entries)
        return entries

    @property
    def total_population(self) -> float:
        """Sum of the populations; inf beyond the float range."""
        return fsum_or_inf(e.state.population for e in self.entries)

    @property
    def total_quota(self) -> float:
        """Sum of the quotas; inf beyond the float range."""
        return fsum_or_inf(e.quota for e in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Family:
    """States sharing the integer part ``index`` of their quota.

    ``members`` are ordered by population ascending (ties broken by
    name), which is the order used when a family's seats are split
    between its smaller and larger members.  ``divisor`` is the D of
    their quotas, which the family quota divides the volume by.
    """

    index: int
    members: tuple[QuotaEntry, ...]
    divisor: float

    @property
    def quota(self) -> float:
        """Family quota Q_f = fl(V_f/D) (``family_quota``); inf beyond the float range."""
        return family_quota(self.index, [e.state.population for e in self.members],
                            self.divisor)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def population(self) -> float:
        """Sum of the members' populations; inf beyond the float range."""
        return fsum_or_inf(e.state.population for e in self.members)


@dataclass(frozen=True)
class FamilyPartition:
    """The quota table regrouped into families, sorted by family index."""

    divisor: float
    families: tuple[Family, ...]
    by_index: dict[int, Family] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "by_index", {f.index: f for f in self.families})

    def __iter__(self):
        return iter(self.families)

    def __len__(self) -> int:
        return len(self.families)

    def family(self, index: int) -> Family | None:
        return self.by_index.get(index)


@dataclass(frozen=True)
class Apportionment:
    """A complete seat assignment at one divisor.

    ``seats`` maps state name to its integer seat count; ``divisor`` is
    the divisor that produced it.  Target-house-size searches attach
    ``d_interval``, the maximal divisor run (lo, hi] over which this
    exact seat vector holds (hi may be ``math.inf``).  Iteration yields
    ``(name, seats)`` pairs in the order states were supplied.
    """

    divisor: float
    seats: dict[str, int]
    quotas: QuotaTable
    d_interval: tuple[float, float] | None = None

    @property
    def total_seats(self) -> int:
        return sum(self.seats.values())

    def __iter__(self):
        return iter(self.seats.items())

    def __getitem__(self, name: str) -> int:
        return self.seats[name]


def _check_divisor(divisor: float) -> None:
    if not (divisor > 0) or not math.isfinite(divisor):
        raise ValueError(f"divisor must be positive and finite, got {divisor!r}")


def compute_quotas(states: list[StateProfile] | tuple[StateProfile, ...],
                   divisor: float) -> QuotaTable:
    """Quota table ``q_c = v_c / D`` for every state at divisor ``D``.

    The states and divisor are checked now; the entries are computed
    when first read.
    """
    _check_divisor(divisor)
    if not states:
        raise ValueError("need at least one state")
    names = [s.name for s in states]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate state names: {', '.join(dup)}")
    return QuotaTable._lazy(tuple(states), divisor)


def partition_families(quotas: QuotaTable) -> FamilyPartition:
    """Group quota entries into families by the integer part of the quota.

    Only non-empty families appear.  Members are sorted by population
    ascending, ties by name, so positional splits are deterministic.
    """
    groups: dict[int, list[QuotaEntry]] = {}
    for entry in quotas:
        groups.setdefault(entry.family, []).append(entry)
    families = tuple(
        Family(idx, tuple(sorted(groups[idx],
                                 key=lambda e: (e.state.population, e.state.name))),
               quotas.divisor)
        for idx in sorted(groups)
    )
    return FamilyPartition(quotas.divisor, families)
