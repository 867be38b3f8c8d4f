"""Inputs of the four workloads, made from the seed.

``build`` is the benchmark's set-up: it imports seatcalc, loads the census
and generates the inputs of one workload.  It uses the standard library and
seatcalc only, so that a fresh interpreter can time it on its own (see
``run.py``, which reports the median of several such timings as setup_s).

Every round of a workload repeats the same operations, so each round
fails the same share of them whatever the seed.  The seed orders the
operations within a round and draws the populations of the random
instances of ``divisor-sweep`` (their sizes are fixed: 1 to 20 states,
twice each); the census inputs themselves never depend on it.
"""

from __future__ import annotations

import math
import random

YEARS = (2020, 2010, 2000, 1990, 1980, 1970, 1960)
RULES = ("adams", "dean", "hill", "webster", "jefferson", "powerlaw:2")
MODES = ("state", "family")
HOUSE_SIZES = (385, 435, 485)
LOGNORMAL_YEARS = (2000, 2020)
SIGMAS = (0.3, 1.0, 2.0)
COLD_SEATS = 435
WARM_SEATS = (430, 440)
RANDOM_SIZES = tuple(range(1, 21)) * 2


def rule_object(sc, name: str):
    if name == "powerlaw:2":
        return sc.power_law(2.0)
    return {"adams": sc.ADAMS, "dean": sc.DEAN, "hill": sc.HUNTINGTON_HILL,
            "webster": sc.WEBSTER, "jefferson": sc.JEFFERSON}[name]


def _random_states(sc, rng: random.Random, n: int):
    """n populations log-uniform on [0.5, 30], one in each of n equal slices
    of the log range (stratified, so that an instance's total, and with it
    its cost, varies little between seeds), in random order."""
    lo, span = math.log(0.5), math.log(30.0 / 0.5)
    pops = [math.exp(lo + span * (k + rng.random()) / n) for k in range(n)]
    rng.shuffle(pops)
    return tuple(sc.StateProfile(f"s{k}", v) for k, v in enumerate(pops))


def build(workload: str, seed: int) -> dict:
    """Import seatcalc, load the census and generate one workload's inputs.

    ``ops`` lists the specs of one round in the order the round runs them.
    """
    import seatcalc as sc

    rng = random.Random(seed)
    if workload == "census-house":
        # every year, rule and mode; the years take the three house sizes in
        # turn, 435 first, so that 2020 is solved at 435 seats
        ops = [(year, rule, mode, HOUSE_SIZES[(i + 1) % len(HOUSE_SIZES)])
               for i, year in enumerate(YEARS) for rule in RULES for mode in MODES]
        census = YEARS
    elif workload == "lognormal-house":
        ops = [(year, mode, sigma) for year in LOGNORMAL_YEARS for mode in MODES
               for sigma in SIGMAS]
        census = LOGNORMAL_YEARS
    elif workload == "divisor-sweep":
        # each rule and mode on two census years, once as pieces, once as a scan
        ops = [(kind, YEARS[(j + k) % len(YEARS)], rule, mode)
               for k, kind in enumerate(("pieces", "scan"))
               for j, (rule, mode) in enumerate((r, m) for r in RULES for m in MODES)]
        ops += [("random", i, _random_states(sc, rng, n)) for i, n in enumerate(RANDOM_SIZES)]
        census = YEARS
    elif workload == "cli":
        import seatcalc.cli  # noqa: F401  (the start-up every scenario pays)

        ops = list(range(9))
        census = YEARS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return {"census": {y: sc.bundled_census(y) for y in census}, "ops": ops}
