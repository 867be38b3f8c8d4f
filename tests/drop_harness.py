"""Drop one candidate event at a time from a census sweep, as a missed crossing would.

Each run sweeps 1980 over [v_T/600, v_T/300] under Webster, Hill and Adams in
both modes, with one interior event of the evaluator's ``events`` left out, and sorts
the outcome:

- ``raised``: ``ApportionmentError``, the typed refusal;
- ``right``: the pieces of the full sweep, unchanged;
- ``extent error``: other pieces, each right at every candidate-interval
  midpoint the dropped sweep evaluates inside it (the merged interval's own
  midpoints), but wrong somewhere else in its extent;
- ``wrong at an evaluated point``: a returned piece whose seats differ from
  direct apportionment at one of those midpoints;
- ``untyped error``: any other exception.

The engine's guard must leave the last two at 0.  ``tests/test_engine.py``
runs every 7th interior event; run every one with

    PYTHONPATH=src python tests/drop_harness.py

which prints the counts (``returned`` is ``right``, ``extent error`` and
``wrong at an evaluated point`` together) and exits 1 if either of the
last two outcomes above is not 0.
"""

from __future__ import annotations

import json
import math
import sys
import traceback
from bisect import bisect_left, bisect_right
from collections import Counter

from seatcalc import engine
from seatcalc.census import bundled_census
from seatcalc.engine import BY_FAMILY, BY_STATE, ApportionmentError, MethodSpec
from seatcalc.signposts import ADAMS, HUNTINGTON_HILL, WEBSTER

YEAR = 1980
RULES = (WEBSTER, HUNTINGTON_HILL, ADAMS)
FAULTS = ("wrong at an evaluated point", "untyped error")


def pieces(states, method, d_lo, d_hi):
    return [(lo, hi, tuple(app.seats.values()))
            for lo, hi, app in engine.piecewise_apportionments(states, method, d_lo, d_hi)]


def evaluated_midpoints(events):
    """The midpoints the sweep evaluates: one per interval with a float interior."""
    mids = (0.5 * (a + b) for (a, _), (b, _) in zip(events, events[1:]))
    return [m for m, (a, _), (b, _) in zip(mids, events, events[1:]) if a < m < b]


def outcome(states, method, d_lo, d_hi, events, truth) -> str:
    """How the sweep fares on ``events`` in place of its own candidate list."""
    evaluator = type(direct := engine._evaluator(states, method))
    enumerate_events = evaluator.events
    evaluator.events = lambda self, d_lo, d_hi: events
    try:
        got = pieces(states, method, d_lo, d_hi)
    except ApportionmentError:
        return "raised"
    except Exception:
        traceback.print_exc()
        return "untyped error"
    finally:
        evaluator.events = enumerate_events
    if got == truth:
        return "right"
    mids = evaluated_midpoints(events)
    for lo, hi, seats in got:
        if any(direct.seats_at(mid) != seats
               for mid in mids[bisect_right(mids, lo):bisect_left(mids, hi)]):
            return "wrong at an evaluated point"
    return "extent error"


def drop_outcomes(stride: int = 1) -> Counter:
    """Outcome counts over every ``stride``-th interior event of each (rule, mode)."""
    states = tuple(bundled_census(YEAR))
    v_t = math.fsum(s.population for s in states)
    d_lo, d_hi = v_t / 600, v_t / 300
    counts = Counter()
    for rule in RULES:
        for mode in (BY_STATE, BY_FAMILY):
            method = MethodSpec(rule, mode)
            truth = pieces(states, method, d_lo, d_hi)
            full = engine._evaluator(states, method).events(d_lo, d_hi)
            for k in range(1, len(full) - 1, stride):
                counts[outcome(states, method, d_lo, d_hi, full[:k] + full[k + 1:], truth)] += 1
    return counts


def main() -> int:
    counts = drop_outcomes()
    counts["drops"] = sum(counts.values())
    counts["returned"] = counts["drops"] - counts["raised"] - counts["untyped error"]
    print(json.dumps(dict(sorted(counts.items()))))
    return 1 if any(counts[fault] for fault in FAULTS) else 0


if __name__ == "__main__":
    sys.exit(main())
