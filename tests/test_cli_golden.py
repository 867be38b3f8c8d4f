"""Golden CLI outputs: exit code, stdout digest and stderr text per invocation.

``tests/golden_cli.json`` holds one entry per invocation: its argv, the
exit code, the sha256 of stdout and the full stderr text.  Census paths
are stored as ``{census:YEAR}`` and filled in at run time.  Every call
runs in process through ``seatcalc.cli.main`` with ``SEATCALC_SEED``
unset.  Argument errors that argparse itself reports are left out,
because their wording changes between Python versions.

After a deliberate change of output, rewrite the manifest with

    PYTHONPATH=src python tests/test_cli_golden.py --write

and review the diff of ``tests/golden_cli.json``.
"""

from __future__ import annotations

import builtins
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import pytest

from seatcalc.census import BUNDLED_YEARS, bundled_census_path
from seatcalc.cli import main

MANIFEST = Path(__file__).with_name("golden_cli.json")

_CENSUS = re.compile(r"\{census:(\d{4})\}")

METHODS = ("adams", "dean", "hill", "webster", "jefferson", "powerlaw:2",
           "hamilton", "lognormal:5,1")
ALL_MARKS = ("adams", "dean", "hill", "webster", "jefferson", "powerlaw:-inf",
             "powerlaw:-2", "powerlaw:-1", "powerlaw:0", "powerlaw:0.5",
             "powerlaw:1", "powerlaw:2", "powerlaw:inf")
C2020 = "{census:2020}"
FIXTURE = "0.999,1.43,999"
MULTISOL = "0.999,1.43,62.4375"


def _flags(option, values):
    return [x for v in values for x in (option, v)]


def _cases():
    """(id, argv) for every invocation the manifest records."""
    cases = []
    add = lambda case_id, *argv: cases.append((case_id, list(argv)))  # noqa: E731

    # apportion: every method in both modes at a house size and a divisor
    for method in METHODS:
        for mode in ("state", "family"):
            tag = method.split(":")[0]
            add(f"apportion-{tag}-{mode}-seats", "apportion", "--input", C2020,
                "--method", method, "--mode", mode, "--seats", "435")
            add(f"apportion-{tag}-{mode}-divisor", "apportion", "--input", C2020,
                "--method", method, "--mode", mode, "--divisor", "vt/435")
    for fmt in ("tsv", "json"):
        add(f"apportion-webster-family-divisor-{fmt}", "apportion", "--input", C2020,
            "--method", "webster", "--mode", "family", "--divisor", "vt/435",
            "--format", fmt)
        add(f"apportion-multisol-{fmt}", "apportion", "--populations", MULTISOL,
            "--method", "hill", "--mode", "family", "--seats", "65", "--format", fmt)
    add("apportion-multisol-csv", "apportion", "--populations", MULTISOL,
        "--method", "hill", "--mode", "family", "--seats", "65")
    add("apportion-hill-family-seats-json", "apportion", "--input", C2020,
        "--method", "hill", "--mode", "family", "--seats", "435", "--format", "json")
    add("apportion-hamilton-json", "apportion", "--input", C2020,
        "--method", "hamilton", "--seats", "435", "--format", "json")
    for year in BUNDLED_YEARS:
        if year != 2020:
            add(f"apportion-{year}-webster-family", "apportion",
                "--input", f"{{census:{year}}}", "--method", "webster",
                "--mode", "family", "--seats", "435")
    add("apportion-powerlaw-inf-divisor", "apportion", "--input", C2020,
        "--method", "powerlaw:inf", "--divisor", "761168.8")
    add("apportion-populations", "apportion", "--populations", "400", "--divisor", "100")
    add("apportion-lognormal-populations", "apportion", "--populations", "1,2,3,30",
        "--method", "lognormal:5,1", "--divisor", "1")

    # marks
    for fmt in ("csv", "tsv", "json"):
        add(f"marks-all-{fmt}", "marks", *_flags("--method", ALL_MARKS),
            "--fmax", "12", "--format", fmt)
    add("marks-lognormal", "marks", "--method", "lognormal:5,1", "--method", "webster")
    add("marks-lognormal-json", "marks", "--method", "lognormal:5,1", "--fmax", "4",
        "--format", "json")
    add("marks-digits", "marks", "--method", "hill", "--method", "dean",
        "--fmax", "3", "--digits", "6")
    add("marks-fmax0", "marks", "--method", "powerlaw:1", "--fmax", "0")

    # paradox
    for fmt in ("csv", "json"):
        add(f"alabama-hill-family-{fmt}", "paradox", "alabama", "--populations", FIXTURE,
            "--method", "hill", "--d-lo", "0.998", "--d-hi", "1", "--format", fmt)
    add("alabama-hill-state", "paradox", "alabama", "--populations", FIXTURE,
        "--method", "hill", "--mode", "state", "--d-lo", "0.998", "--d-hi", "1")
    add("alabama-webster-family", "paradox", "alabama", "--populations", FIXTURE,
        "--method", "webster", "--d-lo", "0.998", "--d-hi", "1")
    add("alabama-lognormal", "paradox", "alabama", "--populations", FIXTURE,
        "--method", "lognormal:5,1", "--d-lo", "0.998", "--d-hi", "1")
    add("alabama-census", "paradox", "alabama", "--input", C2020, "--method", "dean",
        "--d-lo", "vt/440", "--d-hi", "vt/430")
    for fmt in ("csv", "json"):
        add(f"newstates-webster-family-{fmt}", "paradox", "newstates",
            "--populations", "2.6,5.3", "--divisor", "1", "--add-state", "added:2.7",
            "--format", fmt)
    add("newstates-webster-state", "paradox", "newstates", "--populations", "2.6,5.3",
        "--mode", "state", "--divisor", "1", "--add-state", "added:2.7")
    add("newstates-census", "paradox", "newstates", "--input", C2020,
        "--method", "hill", "--divisor", "vt/435", "--add-state", "Puerto Rico:3285874")
    for fmt in ("csv", "json"):
        add(f"multisol-hill-family-{fmt}", "paradox", "multisol",
            "--populations", MULTISOL, "--seats", "65", "--format", fmt)
    add("multisol-unique", "paradox", "multisol", "--populations", "3.7",
        "--method", "webster", "--mode", "state", "--seats", "7")
    add("multisol-census", "paradox", "multisol", "--input", C2020,
        "--method", "webster", "--seats", "435")
    for fmt in ("csv", "tsv", "json"):
        add(f"fixtures-{fmt}", "paradox", "fixtures", "--format", fmt)

    # stats
    years = [f"{{census:{y}}}" for y in BUNDLED_YEARS if y != 2020]
    for fmt in ("csv", "tsv", "json"):
        add(f"stats-all-{fmt}", "stats", C2020, "--years", *years, "--format", fmt)
    add("stats-2020", "stats", C2020)

    # bias
    few = ("--replications", "400", "--n-states", "12")
    add("bias-matched", "bias", "--dist", "lognormal:5,1", *few, "--seed", "3")
    add("bias-default-seed", "bias", "--dist", "lognormal:5,1", *few)
    add("bias-webster-json", "bias", "--dist", "lognormal:5,1", "--marks", "webster",
        *few, "--seed", "1", "--format", "json")
    add("bias-lognormal-marks", "bias", "--dist", "lognormal:5,1",
        "--marks", "lognormal:4,1.5", "--divisor", "2.5", *few, "--seed", "2")
    add("bias-powerlaw-tsv", "bias", "--dist", "powerlaw:-1.5,1,100",
        "--marks", "powerlaw:2", *few, "--seed", "4", "--format", "tsv")
    add("bias-uniform", "bias", "--dist", "uniform:1,20", "--marks", "hill", *few,
        "--seed", "5")
    # several 4,096-replication chunks, the last one partial
    add("bias-multichunk", "bias", "--dist", "lognormal:5,1", "--replications", "9001",
        "--n-states", "12", "--seed", "6")
    add("bias-uniform-multichunk", "bias", "--dist", "uniform:1,20", "--marks", "hill",
        "--divisor", "4", "--replications", "5000", "--n-states", "60", "--seed", "7")

    # usage errors, infeasible targets and conflicting flags
    pops = ("--populations", "1,2")
    add("err-divisor-and-seats", "apportion", *pops, "--divisor", "1", "--seats", "3")
    add("err-neither", "apportion", *pops)
    add("err-hamilton-divisor", "apportion", *pops, "--method", "hamilton",
        "--divisor", "1")
    add("err-input-and-populations", "apportion", "--input", C2020, *pops,
        "--divisor", "1")
    add("err-no-input", "apportion", "--divisor", "1")
    add("err-hamilton-seats0", "apportion", *pops, "--method", "hamilton", "--seats", "0")
    add("err-webster-seats-negative", "apportion", *pops, "--seats", "-3")
    add("err-infeasible", "apportion", "--populations", "1,1,1", "--method", "adams",
        "--seats", "2")
    add("err-unachievable", "apportion", "--populations", "1,1,1", "--method", "adams",
        "--seats", "5")
    for case_id, method in (("unknown", "banzhaf"), ("named-param", "webster:1"),
                            ("hamilton-param", "hamilton:2"),
                            ("powerlaw-bare", "powerlaw"),
                            ("powerlaw-text", "powerlaw:abc"),
                            ("powerlaw-nan", "powerlaw:nan"),
                            ("lognormal-arity", "lognormal:5"),
                            ("lognormal-zero", "lognormal:0,1"),
                            ("lognormal-text", "lognormal:x,1")):
        add(f"err-method-{case_id}", "apportion", *pops, "--method", method,
            "--divisor", "1")
    for case_id, divisor in (("zero", "0"), ("negative", "-5"), ("text", "abc"),
                             ("vt-zero", "vt/0"), ("vt-text", "vt/abc"),
                             ("inf", "inf")):
        add(f"err-divisor-{case_id}", "apportion", *pops, "--divisor", divisor)
    add("err-population-negative", "apportion", "--populations", "1,-2", "--divisor", "1")
    add("err-population-text", "apportion", "--populations", "1,x", "--divisor", "1")
    add("err-missing-file", "apportion", "--input", "no_such_census.csv",
        "--divisor", "1")
    add("err-marks-fmax", "marks", "--method", "webster", "--fmax", "-1")
    add("err-marks-hamilton", "marks", "--method", "hamilton")
    add("err-marks-unknown", "marks", "--method", "webster", "--method", "nope")
    add("err-alabama-hamilton", "paradox", "alabama", *pops, "--method", "hamilton",
        "--d-lo", "0.5", "--d-hi", "1")
    add("err-alabama-order", "paradox", "alabama", *pops, "--d-lo", "1", "--d-hi", "1")
    add("err-newstates-spec", "paradox", "newstates", *pops, "--divisor", "1",
        "--add-state", "nameonly")
    add("err-newstates-population", "paradox", "newstates", *pops, "--divisor", "1",
        "--add-state", "x:-1")
    add("err-multisol-hamilton", "paradox", "multisol", *pops, "--method", "hamilton",
        "--seats", "3")
    add("multisol-adams-family", "paradox", "multisol", "--populations", "1,1,1",
        "--method", "adams", "--seats", "2")
    add("err-stats-missing", "stats", "no_such_census.csv")
    few = ("--replications", "10", "--n-states", "5")
    add("err-bias-hamilton", "bias", "--dist", "lognormal:5,1", "--marks", "hamilton", *few)
    add("err-bias-marks-unknown", "bias", "--dist", "lognormal:5,1", "--marks", "nope", *few)
    add("err-bias-divisor-zero", "bias", "--dist", "lognormal:5,1", "--divisor", "0", *few)
    add("err-bias-divisor-negative", "bias", "--dist", "uniform:1,2", "--divisor", "-1", *few)
    add("err-bias-replications", "bias", "--dist", "lognormal:5,1",
        "--replications", "0")
    add("err-bias-n-states", "bias", "--dist", "lognormal:5,1", "--n-states", "0")
    add("err-bias-dist-unknown", "bias", "--dist", "pareto:1", *few)
    add("err-bias-dist-powerlaw", "bias", "--dist", "powerlaw:1,2", *few)
    add("err-bias-dist-uniform", "bias", "--dist", "uniform:1", *few)
    add("err-bias-dist-lognormal-zero", "bias", "--dist", "lognormal:0,1", *few)
    add("bias-dist-lognormal-arity", "bias", "--dist", "lognormal:5", *few)
    add("bias-dist-lognormal-nan-qg", "bias", "--dist", "lognormal:x,1", *few)
    add("bias-divisor-nan", "bias", "--dist", "lognormal:5,1", "--divisor", "nan", *few)
    add("bias-divisor-inf", "bias", "--dist", "lognormal:5,1", "--divisor", "inf", *few)
    return cases


def _argv(stored):
    return [_CENSUS.sub(lambda m: str(bundled_census_path(int(m.group(1)))), a)
            for a in stored]


def _run(stored):
    """(exit code, stdout sha256, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    seed = os.environ.pop("SEATCALC_SEED", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_argv(stored))
    finally:
        if seed is not None:
            os.environ["SEATCALC_SEED"] = seed
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


def _load():
    return json.loads(MANIFEST.read_text())


def test_manifest_lists_exactly_the_cases():
    # a case added to or dropped from _cases() without --write must not go unnoticed
    assert [(e["id"], e["argv"]) for e in _load()] == _cases()


@pytest.mark.parametrize("entry", _load(), ids=lambda e: e["id"])
def test_cli_output_matches_golden(entry):
    code, digest, err = _run(entry["argv"])
    assert code == entry["exit"]
    assert digest == entry["stdout_sha256"]
    assert err == entry["stderr"]


_SUM = builtins.sum


def _naive_sum(items, start=0):
    """``sum()`` of floats as Python 3.11 and earlier take it: left to right."""
    items = list(items)
    if not items or any(type(x) is not float for x in items):
        return _SUM(items, start)
    total = start
    for x in items:
        total += x
    return total


def _compensated_sum(items, start=0):
    """``sum()`` of floats as Python 3.12 takes it: Neumaier's loop, with the
    compensation added at the end when it is finite and non-zero."""
    items = list(items)
    if not items or any(type(x) is not float for x in items):
        return _SUM(items, start)
    total, c = start + items[0], 0.0
    for x in items[1:]:
        t = total + x
        if abs(total) >= abs(x):
            c += (total - t) + x
        else:
            c += (x - t) + total
        total = t
    if c and math.isfinite(c):
        total += c
    return total


@pytest.mark.parametrize("stand_in", [_naive_sum, _compensated_sum], ids=["naive", "compensated"])
@pytest.mark.parametrize("entry", [e for e in _load()
                                   if e["argv"][0] == "apportion" and "json" in e["argv"]],
                         ids=lambda e: e["id"])
def test_apportion_json_is_the_same_under_every_float_sum(monkeypatch, entry, stand_in):
    # sum() of floats is naive up to Python 3.11 and compensated from 3.12 on:
    # the printed family quotas must not depend on which one runs
    assert stand_in([0.1] * 10) == (0.9999999999999999 if stand_in is _naive_sum else 1.0)
    monkeypatch.setattr(builtins, "sum", stand_in)
    code, digest, _ = _run(entry["argv"])
    assert (code, digest) == (entry["exit"], entry["stdout_sha256"])


def _write() -> None:
    entries = []
    for case_id, argv in _cases():
        code, digest, err = _run(argv)
        entries.append({"id": case_id, "argv": argv, "exit": code,
                        "stdout_sha256": digest, "stderr": err})
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {MANIFEST}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    _write()
