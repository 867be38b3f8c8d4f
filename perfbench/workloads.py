"""The four workloads: their operations and the check of each operation.

An operation is one call into seatcalc (or, for ``cli``, one child
process), timed alone.  Its check runs after it, untimed, and compares the
output with a reference computed apart from the program (``reference.py``)
or with a property the method must have.  A check returns a ``Verdict``:

* ``fault`` is None when the output is right, the letter of a known fault
  (see ``FAULTS``) when the output is wrong in the way that fault predicts,
  and ``"unexpected"`` otherwise, which makes the whole run incorrect;
* ``detail`` says what is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import reference as ref
from inputs import COLD_SEATS, WARM_SEATS, rule_object

FAULTS = {
    "a": "unbiased_mark's closed-form right side cancels in the upper tail, "
         "so lognormal sigma=0.3 marks and seats are wrong (ROADMAP item 3)",
    "b": "a piece's seats do not hold at its upper endpoint when checked "
         "exactly (ROADMAP item 4)",
}

MARK_TOL = 1e-9       # program marks against the mpmath reference
CENSUS_WINDOW = (600, 300)   # sweep D over [v_T/600, v_T/300]
RANDOM_WINDOW = (0.8, 1.25)


class Verdict(NamedTuple):
    fault: str | None
    detail: str


OK = Verdict(None, "")


def bad(detail: str, fault: str = "unexpected") -> Verdict:
    return Verdict(fault, detail)


@dataclass
class Op:
    """One operation.  ``key`` names it within a round; ``canon`` renders
    its result as text, so that a result identical to one already checked
    for the same key need not be checked again."""

    key: tuple
    run: Callable[[], object]
    canon: Callable[[object], str]
    check: Callable[[object], Verdict]
    pieces: bool = False   # the result is a list of pieces


def _instance(states) -> ref.Instance:
    return ref.Instance([s.name for s in states], [s.population for s in states])


def _vector(app, inst: ref.Instance) -> tuple[int, ...]:
    return tuple(app.seats[name] for name in inst.names)


def _failed(result) -> bool:
    return isinstance(result, Exception)


def _canon(render: Callable[[object], str]) -> Callable[[object], str]:
    """``render`` for results, a fixed text for an exception."""
    def canon(result) -> str:
        if _failed(result):
            return f"raised {type(result).__name__}: {result}"
        return render(result)
    return canon


def _canon_solutions(inst: ref.Instance):
    return _canon(lambda sols: repr([(_vector(s, inst), s.d_interval) for s in sols]))


# --- census-house ------------------------------------------------------------

class CensusHouse:
    """``apportion_for_house_size`` on census years, signpost rules, both modes."""

    name = "census-house"
    min_rounds = 1
    headlines = [(f"2020 webster {mode} N=435", (2020, "webster", mode, 435))
                 for mode in ("state", "family")]

    def __init__(self, sc, inputs: dict):
        self.sc = sc
        self.census = inputs["census"]
        self.specs = inputs["ops"]
        self.inst = {y: _instance(s) for y, s in self.census.items()}

    def ops(self) -> list[Op]:
        return [self._op(*spec) for spec in self.specs]

    def _op(self, year, rule, mode, house) -> Op:
        states, inst = self.census[year], self.inst[year]
        method = self.sc.MethodSpec(rule_object(self.sc, rule), mode)
        engine = self.sc.engine
        return Op((year, rule, mode, house),
                  lambda: engine.apportion_for_house_size(states, house, method),
                  _canon_solutions(inst),
                  lambda sols: self._check(inst, rule, mode, house, sols))

    def _check(self, inst, rule, mode, house, sols) -> Verdict:
        what = f"{rule}/{mode} N={house}"
        if _failed(sols):
            return bad(f"{what}: raised {sols!r}")
        if mode == "state":
            expected = ref.priority_list(inst, rule, house)
            if expected is None:
                return bad(f"{what}: tie, no unique solution exists")
            seats, lo, hi = expected
            if len(sols) != 1 or _vector(sols[0], inst) != seats:
                return bad(f"{what}: seats differ from the priority list")
            got_lo, got_hi = sols[0].d_interval
            if not (math.isclose(got_lo, lo, rel_tol=1e-9)
                    and math.isclose(got_hi, hi, rel_tol=1e-9)):
                return bad(f"{what}: divisor run ({got_lo}, {got_hi}] is not ({lo}, {hi}]")
            return OK
        if not sols:
            return bad(f"{what}: no solution")
        for s in sols:
            lo, hi = s.d_interval
            if not lo < s.divisor <= hi:
                return bad(f"{what}: divisor outside its run")
            try:
                seats = inst.seats(s.divisor, rule, mode)
            except ref.PropertyViolation as exc:
                return bad(f"{what}: {exc}")
            if seats != _vector(s, inst) or sum(seats) != house:
                return bad(f"{what}: seats differ from exact rounding")
        return OK


# --- lognormal-house ---------------------------------------------------------

class LognormalHouse:
    """House-size targeting with unbiased lognormal marks.

    Each (year, mode, sigma) builds one marks object, as the CLI does, and
    solves N = 435 with it (cold), then reuses it for the N of
    ``WARM_SEATS`` (warm), over a cache that keeps growing.
    """

    name = "lognormal-house"
    min_rounds = 2
    headlines = [(f"2020 sigma=1 {mode} {kind} N={n}", (kind, 2020, mode, 1.0, n))
                 for mode in ("state", "family") for kind, n in (("cold", 435), ("warm", 440))]

    def __init__(self, sc, inputs: dict):
        self.sc = sc
        self.census = inputs["census"]
        self.specs = inputs["ops"]
        self.inst = {y: _instance(s) for y, s in self.census.items()}
        self.v_total = {y: math.fsum(s.population for s in st) for y, st in self.census.items()}

    def _dist(self, year, sigma):
        # geometric-mean quota 5 at the 435-seat divisor, as `lognormal:5,sigma`
        return self.sc.LogNormal(math.log(5.0 * self.v_total[year] / COLD_SEATS), sigma)

    def ops(self) -> list[Op]:
        ops = []
        for year, mode, sigma in self.specs:
            dist = self._dist(year, sigma)
            shared: dict = {}
            ops.append(self._op("cold", year, mode, dist, COLD_SEATS, shared))
            ops.extend(self._op("warm", year, mode, dist, n, shared) for n in WARM_SEATS)
        return ops

    def _op(self, kind, year, mode, dist, house, shared) -> Op:
        sc = self.sc
        states = self.census[year]

        def run():
            if kind == "cold":
                shared["marks"] = sc.DistributionMarks(dist)
            method = sc.MethodSpec(shared["marks"], mode)
            return sc.engine.apportion_for_house_size(states, house, method)

        return Op((kind, year, mode, dist.sigma, house), run, _canon_solutions(self.inst[year]),
                  lambda sols: self._check(year, mode, dist, house, sols))

    def _mark_error(self, dist, inst, mode, divisor) -> tuple[float, dict]:
        """Largest |program mark - mpmath mark| over the marks in play."""
        worst, marks = 0.0, {}
        for f in inst.mark_indices(divisor, mode):
            marks[f] = ref.lognormal_mark(dist.log_vg, dist.sigma, f, divisor)
            got = self.sc.distributions.unbiased_mark(dist, f, divisor)
            worst = max(worst, abs(got - marks[f]))
        return worst, marks

    def _check(self, year, mode, dist, house, sols) -> Verdict:
        inst = self.inst[year]
        what = f"{year} sigma={dist.sigma:g} {mode} N={house}"
        if _failed(sols):
            worst, _ = self._mark_error(dist, inst, mode, self.v_total[year] / house)
            if worst > MARK_TOL:
                return bad(f"{what}: raised {type(sols).__name__}; marks off by {worst:.2e}", "a")
            return bad(f"{what}: raised {sols!r}")
        if not sols:
            return bad(f"{what}: no solution")
        for s in sols:
            worst, marks = self._mark_error(dist, inst, mode, s.divisor)
            if worst > MARK_TOL:
                return bad(f"{what}: marks off by {worst:.2e}", "a")
            try:
                seats = inst.seats_by(s.divisor, mode,
                                      lambda p, q: ref.round_at_mark(p, q, marks[p // q]))
            except ref.PropertyViolation as exc:
                return bad(f"{what}: {exc}")
            if seats != _vector(s, inst) or sum(seats) != house:
                return bad(f"{what}: seats differ from rounding at the mpmath marks")
        return OK


# --- divisor-sweep -----------------------------------------------------------

class DivisorSweep:
    """Piece enumeration and Alabama scans on census years, plus small
    random instances of the criterion-8a shape."""

    name = "divisor-sweep"
    min_rounds = 1
    headlines = [("pieces 2020 webster family", ("pieces", 2020, "webster", "family"))]

    def __init__(self, sc, inputs: dict):
        self.sc = sc
        self.census = inputs["census"]
        self.specs = inputs["ops"]
        self.inst = {y: _instance(s) for y, s in self.census.items()}
        self.window = {y: (math.fsum(s.population for s in st) / CENSUS_WINDOW[0],
                           math.fsum(s.population for s in st) / CENSUS_WINDOW[1])
                       for y, st in self.census.items()}
        self.webster_family = sc.MethodSpec(sc.WEBSTER, "family")
        # the house size of a random instance is its exact total at D = 1
        self.random = {}
        for spec in self.specs:
            if spec[0] == "random":
                inst = _instance(spec[2])
                at_one = inst.seats(1.0, "webster", "family")
                self.random[spec[1]] = (spec[2], inst, sum(at_one), at_one)

    def ops(self) -> list[Op]:
        return [self._random_op(spec[1], *self.random[spec[1]]) if spec[0] == "random"
                else self._census_op(*spec) for spec in self.specs]

    def _census_op(self, kind, year, rule, mode) -> Op:
        states, inst = self.census[year], self.inst[year]
        method = self.sc.MethodSpec(rule_object(self.sc, rule), mode)
        lo, hi = self.window[year]
        what = f"{year} {rule}/{mode}"
        if kind == "pieces":
            engine = self.sc.engine

            canon = _canon(lambda pieces: repr([(a, b, _vector(app, inst))
                                                for a, b, app in pieces]))
            return Op((kind, year, rule, mode),
                      lambda: engine.piecewise_apportionments(states, method, lo, hi), canon,
                      lambda pieces: self._check_pieces(what, inst, rule, mode, lo, hi, pieces),
                      pieces=True)
        paradoxes = self.sc.paradoxes

        canon_reports = _canon(lambda reports: repr([
            (r.witness, _vector(r.before, inst), _vector(r.after, inst), r.affected_states)
            for r in reports]))

        return Op((kind, year, rule, mode), lambda: paradoxes.scan_alabama(states, method, lo, hi),
                  canon_reports, lambda reports: self._check_scan(what, inst, rule, mode, reports))

    def _check_pieces(self, what, inst, rule, mode, d_lo, d_hi, pieces) -> Verdict:
        if _failed(pieces):
            return bad(f"{what}: raised {pieces!r}")
        if not pieces or pieces[0][0] != d_lo or pieces[-1][1] != d_hi or any(
                a[1] != b[0] for a, b in zip(pieces, pieces[1:])):
            return bad(f"{what}: pieces do not tile the window")
        endpoint_misses = 0
        for lo, hi, app in pieces:
            vec = _vector(app, inst)
            try:
                if inst.seats(0.5 * (lo + hi), rule, mode) != vec:
                    return bad(f"{what}: seats wrong inside piece ({lo}, {hi}]")
                if inst.seats(hi, rule, mode) != vec:
                    endpoint_misses += 1
            except ref.PropertyViolation as exc:
                return bad(f"{what}: {exc}")
        if endpoint_misses:
            return bad(f"{what}: seats fail at {endpoint_misses} of {len(pieces)} "
                       f"upper endpoints", "b")
        return OK

    def _check_scan(self, what, inst, rule, mode, reports) -> Verdict:
        if _failed(reports):
            return bad(f"{what}: raised {reports!r}")
        if reports and (mode == "state" or rule == "webster"):
            return bad(f"{what}: {len(reports)} Alabama reports where none can exist")
        for report in reports:
            try:
                before = inst.seats(report.before.divisor, rule, mode)
                after = inst.seats(report.after.divisor, rule, mode)
            except ref.PropertyViolation as exc:
                return bad(f"{what}: {exc}")
            if (before != _vector(report.before, inst) or after != _vector(report.after, inst)
                    or not report.after.divisor < report.before.divisor):
                return bad(f"{what}: report does not re-evaluate to itself")
            lost = {(n, b, a) for n, b, a in zip(inst.names, before, after) if a < b}
            if not lost or lost != set(report.affected_states):
                return bad(f"{what}: report's affected states are not the seat losses")
        return OK

    def _random_op(self, index, states, inst, target, at_one) -> Op:
        sc, method = self.sc, self.webster_family

        def run():
            reports = sc.paradoxes.scan_alabama(states, method, *RANDOM_WINDOW)
            return reports, sc.engine.apportion_for_house_size(states, target, method)

        canon = _canon(lambda result: repr((len(result[0]), [_vector(s, inst) for s in result[1]])))

        def check(result) -> Verdict:
            what = f"random instance of {len(states)} states, N={target}"
            if _failed(result):
                return bad(f"{what}: raised {result!r}")
            reports, sols = result
            if reports:
                return bad(f"{what}: Alabama report under Webster family")
            if len(sols) != 1:
                return bad(f"{what}: {len(sols)} solutions, expected exactly one")
            if _vector(sols[0], inst) != at_one:
                return bad(f"{what}: seats differ from exact rounding at D = 1")
            return OK

        return Op(("random", index), run, canon, check)


# --- cli ---------------------------------------------------------------------

_FLOAT = r"-?\d+\.\d+"


class Cli:
    """``python -m seatcalc`` on fixed scenarios, one child process at a time."""

    name = "cli"
    min_rounds = 2   # stdout must repeat byte for byte within a run
    headlines = [(name, (name,)) for name in (
        "apportion-webster", "apportion-hill-json", "apportion-lognormal", "apportion-divisor",
        "paradox-fixtures", "paradox-alabama", "stats", "marks", "bias")]

    def __init__(self, sc, inputs: dict):
        self.sc = sc
        self.order = inputs["ops"]
        package = os.path.dirname(os.path.abspath(sc.__file__))
        self.root = os.path.dirname(os.path.dirname(package))
        self.env = {k: v for k, v in os.environ.items() if k != "SEATCALC_SEED"}
        self.env["PYTHONPATH"] = os.path.dirname(package)
        data = os.path.join(package, "data")
        self.csv = {y: os.path.join(data, f"census_{y}.csv") for y in inputs["census"]}
        # the reference reads the census files on its own
        self.inst = {y: ref.Instance(*zip(*ref.read_census(p))) for y, p in self.csv.items()}
        c2020 = ["--input", self.csv[2020]]
        self.scenarios = [
            ("apportion-webster", ["apportion", *c2020, "--method", "webster", "--mode", "family",
                                   "--seats", "435"], self._check_webster_family),
            ("apportion-hill-json", ["apportion", *c2020, "--method", "hill", "--mode", "state",
                                     "--seats", "435", "--format", "json"], self._check_hill_json),
            ("apportion-lognormal", ["apportion", *c2020, "--method", "lognormal:5,1",
                                     "--mode", "family", "--seats", "435"], self._check_lognormal),
            ("apportion-divisor", ["apportion", *c2020, "--method", "webster", "--mode", "family",
                                   "--divisor", "vt/435"], self._check_divisor),
            ("paradox-fixtures", ["paradox", "fixtures"], self._check_fixtures),
            ("paradox-alabama", ["paradox", "alabama", *c2020, "--d-lo", "vt/486",
                                 "--d-hi", "vt/384"], self._check_alabama),
            ("stats", ["stats", self.csv[1960], "--years",
                       *[self.csv[y] for y in sorted(self.csv) if y != 1960]], self._check_stats),
            ("marks", ["marks", *[a for m in self.MARK_METHODS for a in ("--method", m)]],
             self._check_marks),
            ("bias", ["bias", "--dist", "lognormal:5,1", "--replications", "100000"],
             self._check_bias),
        ]
        self.seen: dict[str, bytes] = {}

    MARK_METHODS = ("powerlaw:-inf", "powerlaw:-2", "powerlaw:0", "powerlaw:1",
                    "powerlaw:2", "powerlaw:inf", "lognormal:5,1")

    def ops(self) -> list[Op]:
        return [self._op(*self.scenarios[i], self._child) for i in self.order]

    def inprocess_ops(self) -> list[Op]:
        """The same scenarios through ``seatcalc.cli.main`` in this process."""
        return [self._op(*self.scenarios[i], self._inprocess) for i in self.order]

    def _child(self, argv):
        proc = subprocess.run([sys.executable, "-m", "seatcalc", *argv], cwd=self.root,
                              env=self.env, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def _inprocess(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.sc.cli.main(list(argv))
        return code, buf.getvalue().encode(), b""

    def _op(self, name, argv, checker, runner) -> Op:
        canon = _canon(lambda result: f"exit {result[0]}\n{result[1].decode(errors='replace')}")
        return Op((name,), lambda: runner(argv), canon,
                  lambda result: self._check(name, checker, result))

    def _check(self, name, checker, result) -> Verdict:
        if _failed(result):
            return bad(f"{name}: {result!r}")
        code, stdout, stderr = result
        if code != 0:
            return bad(f"{name}: exit {code}: {stderr.decode(errors='replace').strip()}")
        if stdout != self.seen.setdefault(name, stdout):
            return bad(f"{name}: stdout differs from an earlier repeat")
        try:
            detail = checker(stdout.decode())
        except (ValueError, KeyError, IndexError, ref.PropertyViolation) as exc:
            detail = f"unparsable output ({exc!r})"
        return OK if detail is None else bad(f"{name}: {detail}")

    # each checker returns None when the output is right, else what is wrong

    def _state_rows(self, text):
        section = text.split("family,quota,seats")[0]
        rows = re.findall(rf"^([^,\n]+),({_FLOAT}),(\d+)$", section, re.M)
        return {name: (float(q), int(s)) for name, q, s in rows}

    def _family_rows(self, text):
        section = text.split("family,quota,seats")[1]
        return [(int(f), float(q), int(s))
                for f, q, s in re.findall(rf"^(\d+),({_FLOAT}),(\d+)$", section, re.M)]

    def _check_webster_family(self, text):
        inst = self.inst[2020]
        seats = _house_by_bisection(inst, "webster", "family", 435)
        if seats is None:
            return "no divisor gives 435 seats under Webster family"
        rows = self._state_rows(text)
        if set(rows) != set(inst.names):
            return "state rows do not name every state"
        if tuple(rows[n][1] for n in inst.names) != seats:
            return "seats differ from exact rounding"
        if not re.search(rf"^total,{_FLOAT},435$", text, re.M):
            return "total line is not 435"
        return None

    def _check_hill_json(self, text):
        inst = self.inst[2020]
        data = json.loads(text)
        seats, lo, hi = ref.priority_list(inst, "hill", 435)
        block = data["solutions"]
        if len(block) != 1 or block[0]["total"] != 435:
            return "not one solution of 435 seats"
        got = {row["name"]: row["seats"] for row in block[0]["states"]}
        if tuple(got[n] for n in inst.names) != seats:
            return "seats differ from the Hill priority list"
        d_lo, d_hi = block[0]["d_interval"]
        if not (math.isclose(d_lo, lo, rel_tol=1e-9) and math.isclose(d_hi, hi, rel_tol=1e-9)):
            return "divisor run differs from the priority list"
        divisor = block[0]["divisor"]
        for row in block[0]["states"]:
            v = inst.populations[inst.names.index(row["name"])]
            if not math.isclose(row["quota"], v / divisor, rel_tol=1e-12):
                return f"quota of {row['name']} is not v/D"
        return None

    def _check_lognormal(self, text):
        # the output prints quotas to 3 decimals, so the divisor and the
        # family quotas are known to about 1e-3; families that close to
        # their mark are not judged
        inst = self.inst[2020]
        rows = self._state_rows(text)
        families = self._family_rows(text)
        if set(rows) != set(inst.names):
            return "state rows do not name every state"
        if not re.search(rf"^total,{_FLOAT},435$", text, re.M):
            return "total line is not 435"
        v_total = math.fsum(inst.populations)
        divisor = v_total / sum(q for q, _ in rows.values())
        mu = math.log(5.0 * v_total / 435)
        by_family: dict[int, list] = {}
        for name, v in zip(inst.names, inst.populations):
            by_family.setdefault(int(v // divisor), []).append((v, name, rows[name][1]))
        for f, q_f, s_f in families:
            members = sorted(by_family.get(f, []))
            if not members or sum(s for _, _, s in members) != s_f:
                return f"family {f} seats do not add up"
            if abs(s_f - q_f) >= 1:
                return f"family {f}: |S_f - Q_f| >= 1"
            seats = [s for _, _, s in members]
            if seats != sorted(seats) or max(seats) - min(seats) > 1:
                return f"family {f}: extra seats not on its largest members"
            mark = ref.lognormal_mark(mu, 1.0, math.floor(q_f), divisor)
            if abs(q_f - mark) > 2e-3:
                expect = math.floor(q_f) + (1 if q_f > mark else 0)
                if s_f != expect:
                    return f"family {f}: {s_f} seats, the mpmath mark gives {expect}"
        return None

    def _check_divisor(self, text):
        inst = self.inst[2020]
        divisor = float(sum(int(v) for v in inst.populations)) / 435
        seats = inst.seats(divisor, "webster", "family")
        rows = self._state_rows(text)
        if set(rows) != set(inst.names) or tuple(rows[n][1] for n in inst.names) != seats:
            return "seats differ from exact rounding at vt/435"
        return None

    def _check_fixtures(self, text):
        hill = ref.Instance(["state1", "state2", "state3"], [0.999, 1.43, 999.0])
        d_lo = 999.0 / 1001.0
        totals = (sum(hill.seats(1.0, "hill", "family")), sum(hill.seats(d_lo, "hill", "family")))
        sections = text.split("\n== ")
        if len(sections) != 5:
            return "expected five fixture sections"
        alabama, webster, multi, newstates, fof = sections
        if f"total at D=1: {totals[0]}; total at D={d_lo:.10g}: {totals[1]}" not in alabama:
            return "Hill fixture totals differ from exact rounding"
        if "Alabama paradox at divisor" not in alabama:
            return "the Hill-family fixture no longer reports its paradox"
        if "no violations" not in webster:
            return "Webster family reports an Alabama paradox"
        if len(re.findall(r"^solution \d+:", multi, re.M)) < 2:
            return "the multiple-solution fixture reports one solution"
        family_part, state_part = newstates.split("state mode for comparison:")
        if "New States paradox" not in family_part or "no incumbent changed" not in state_part:
            return "New States fixture changed"
        if not re.search(r"state3: 3 -> 2", fof):
            return "family-of-families fixture no longer drops a seat"
        return None

    def _check_alabama(self, text):
        return None if text == "no violations\n" else "Webster family reports an Alabama paradox"

    def _check_stats(self, text):
        lines = text.strip().split("\n")
        if lines[0] != "year,mean,std,skew,excess_kurtosis" or len(lines) != 1 + len(self.inst):
            return "unexpected table shape"
        for line in lines[1:]:
            year, *values = line.split(",")
            expect = ref.log_moments(self.inst[int(year)].populations)
            for got, want in zip(values, expect):
                if abs(float(got) - want) > 5e-4 + 1e-12:
                    return f"{year}: {got} differs from {want:.6f}"
        return None

    def _check_marks(self, text):
        lines = text.strip().split("\n")
        if len(lines) != 12:
            return "expected f = 0..10"
        betas = [-math.inf, -2.0, 0.0, 1.0, 2.0, math.inf]
        for line in lines[1:]:
            f, *cols = line.split(",")
            f = int(f)
            expect = [ref.power_law_mark(b, f) for b in betas]
            expect.append(ref.lognormal_mark(math.log(5.0), 1.0, f, 1.0))
            for got, want in zip(cols, expect):
                if abs(float(got) - want) > 5e-4 + 1e-12:
                    return f"f={f}: mark {got} differs from {want:.6f}"
        return None

    def _check_bias(self, text):
        lines = text.strip().split("\n")
        if lines[0] != "f,mean_bias,std_error" or len(lines) < 2:
            return "unexpected table shape"
        for line in lines[1:]:
            f, mean, se = line.split(",")
            if abs(float(mean)) > 4 * float(se):
                return f"family {f}: |mean| {mean} exceeds 4 SE ({se})"
        return None


def _house_by_bisection(inst: ref.Instance, rule: str, mode: str, house: int):
    """Seats at a house size for a method whose total never rises with D
    (Webster in family mode is Alabama-immune), by bisection on D."""
    v_total = math.fsum(inst.populations)
    lo, hi = v_total / (house + len(inst.names) + 1), v_total / max(house - len(inst.names) - 1, 1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        seats = inst.seats(mid, rule, mode)
        total = sum(seats)
        if total == house:
            return seats
        if total > house:
            lo = mid
        else:
            hi = mid
    return None


WORKLOADS = {w.name: w for w in (CensusHouse, LognormalHouse, DivisorSweep, Cli)}
