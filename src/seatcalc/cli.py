"""Command-line interface.

Subcommands: ``apportion`` (seats at a fixed divisor or for a target
house size), ``marks`` (rounding-mark tables), ``paradox`` (Alabama,
New States, and multiple-solution scans plus the canned fixtures),
``stats`` (log-population moment rows), and ``bias`` (Monte Carlo
family bias).  Exit codes: 0 success, 2 parse/usage error, 3 infeasible
or unachievable target, 4 conflicting flags or a failed sweep check (the
engine's ``ApportionmentError``: its divisor sweep missed a crossing).

Each command returns its output, and ``main`` alone writes it: a payload
dict under ``--format json``, else text lines without newlines.  A
command makes every library call before it returns, so an error exit
writes nothing to stdout; only the formatting of its lines may be lazy.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from .census import log_moments, read_census_csv
from .core import Apportionment, StateProfile, partition_families
from .distributions import (
    DistributionMarks,
    LogNormal,
    PowerLaw,
    Uniform,
    monte_carlo_bias,
)
from .engine import (
    BY_FAMILY,
    BY_STATE,
    HAMILTON,
    ApportionmentError,
    InfeasibleTarget,
    MethodSpec,
    TargetUnachievable,
    apportion_at_divisor,
    apportion_for_house_size,
    house_divisor,
    total_population,
)
from .paradoxes import (
    ParadoxReport,
    as_multiple_solution_report,
    check_new_states,
    family_of_families_fixture,
    scan_alabama,
)
from .signposts import _MAX_ROWS, HUNTINGTON_HILL, WEBSTER, SignpostRule, power_law

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_CONFLICT = 4


class _UsageError(Exception):
    def __init__(self, message: str, code: int = EXIT_PARSE):
        super().__init__(message)
        self.code = code


def _parse_float(text: str, what: str, finite: bool = True) -> float:
    """``text`` as a float; NaN is refused, and so is infinity if ``finite``."""
    try:
        value = float(text)
    except ValueError:
        raise _UsageError(f"{what} must be a number, got {text!r}") from None
    if math.isnan(value) or (finite and math.isinf(value)):
        raise _UsageError(f"{what} must be finite, got {text!r}")
    return value


def _params(arg: str, names: tuple[str, ...], usage: str, finite: bool = True) -> list[float]:
    """The comma-separated numbers after a grammar's ``name:``, one per name."""
    parts = arg.split(",") if arg else []
    if len(parts) != len(names):
        raise _UsageError(usage)
    return [_parse_float(part.strip(), what, finite) for part, what in zip(parts, names)]


def _parse_distribution(text: str):
    """Distribution grammar -> a function of the divisor that builds the law;
    a lognormal's q_g is counted in divisors."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "lognormal":
        q_g, sigma = _params(arg, ("lognormal q_g", "lognormal sigma"),
                             "lognormal needs two parameters, e.g. lognormal:5,1")
        if q_g <= 0 or sigma <= 0:
            raise _UsageError("lognormal q_g and sigma must be positive")

        def lognormal(divisor: float) -> LogNormal:
            if (v_g := q_g * divisor) == 0.0:  # q_g > 0: the product or the divisor underflowed
                raise _UsageError(f"lognormal q_g * divisor = {q_g!r} * {divisor!r} "
                                  "underflows to 0")
            return LogNormal(math.log(v_g), sigma)
        return lognormal
    if name == "powerlaw":
        beta, v_lo, v_hi = _params(arg, ("beta", "v_lo", "v_hi"),
                                   "distribution powerlaw needs beta,v_lo,v_hi")
        return lambda divisor: PowerLaw(beta, v_lo, v_hi)
    if name == "uniform":
        v_lo, v_hi = _params(arg, ("v_lo", "v_hi"), "distribution uniform needs v_lo,v_hi")
        return lambda divisor: Uniform(v_lo, v_hi)
    raise _UsageError(f"unknown distribution {text!r}")


def _hamilton(anchor: float):
    return HAMILTON


def _parse_method(text: str):
    """Method grammar -> a function of the anchor divisor that builds the
    rounding: ``HAMILTON`` (built by ``_hamilton``), a signpost rule, or
    lognormal marks whose q_g is counted in anchors."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "lognormal":
        law = _parse_distribution(text)
        return lambda anchor: DistributionMarks(law(anchor))
    if name == "hamilton":
        _params(arg, (), "method 'hamilton' takes no parameters")
        return _hamilton
    if name == "powerlaw":
        # float() reads every spelling of +-infinity; NaN is refused
        (beta,) = _params(arg, ("powerlaw exponent",),
                          "powerlaw needs an exponent, e.g. powerlaw:1", finite=False)
        rule = power_law(beta)
    else:
        try:
            rule = SignpostRule(name)  # the five named rules
        except ValueError:
            raise _UsageError(f"unknown method {text!r}; expected adams|dean|hill|webster|"
                              "jefferson|powerlaw:beta|hamilton|lognormal:qg,sigma") from None
        _params(arg, (), f"method {name!r} takes no parameters")
    return lambda anchor: rule


def _divisor_rounding(text: str, anchor: float, refusal: str = "paradox scans need a "
                      "divisor-based method", code: int = EXIT_CONFLICT):
    """The rounding method ``text`` builds at ``anchor``, Hamilton refused first."""
    build = _parse_method(text)
    if build is _hamilton:
        raise _UsageError(refusal, code)
    return build(anchor)


def _parse_divisor(text: str, states) -> float:
    """A positive number, or 'vt/N' for total population over N."""
    text = text.strip().lower()
    if text.startswith("vt/"):
        n = _parse_float(text[3:], "divisor denominator")
        if n <= 0:
            raise _UsageError("divisor denominator must be positive")
        return total_population(s.population for s in states) / n
    value = _parse_float(text, "divisor")
    if value <= 0:
        raise _UsageError("divisor must be positive")
    return value


def _read_census(path: str) -> tuple[StateProfile, ...]:
    try:
        return read_census_csv(path)
    except (OSError, ValueError) as exc:
        raise _UsageError(str(exc)) from None


def _load_states(args) -> tuple[StateProfile, ...]:
    if args.input and args.populations:
        raise _UsageError("give --input or --populations, not both", EXIT_CONFLICT)
    if args.input:
        return _read_census(args.input)
    if args.populations:
        values = []
        for piece in args.populations.split(","):
            v = _parse_float(piece, "population")
            if v <= 0:
                raise _UsageError("populations must be positive")
            values.append(v)
        return tuple(StateProfile(f"state{i + 1}", v) for i, v in enumerate(values))
    raise _UsageError("need --input FILE or --populations v1,v2,...")


def _delimiter(fmt: str) -> str:
    return "\t" if fmt == "tsv" else ","


def _json_number(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _interval_json(interval):
    if interval is None:
        return None
    lo, hi = interval
    return [_json_number(lo), _json_number(hi)]


# --- apportion ----------------------------------------------------------------

def _solution_rows(app: Apportionment):
    """(state rows, family rows): members population-ascending inside
    ascending families, which is also the display order."""
    partition = partition_families(app.quotas)
    state_rows = []
    family_rows = []
    for fam in partition:
        seats_f = 0
        for entry in fam.members:
            s = app.seats[entry.state.name]
            seats_f += s
            state_rows.append((entry.state.name, entry.quota, s, fam.index))
        family_rows.append((fam.index, fam.quota, seats_f, fam.size))
    return state_rows, family_rows


def _apportion_text(solutions, fmt: str) -> list[str]:
    """State section re-parses as name,quota,seats; the family section
    that follows its own header carries (family index, Q_f, S_f) rows."""
    rows = []
    if len(solutions) > 1:
        rows.append(["MULTIPLE_SOLUTIONS", str(len(solutions))])
    for idx, app in enumerate(solutions):
        if len(solutions) > 1:
            rows.append(["solution", str(idx + 1), "divisor", f"{app.divisor:.10g}"])
        state_rows, family_rows = _solution_rows(app)
        rows.append(["state", "quota", "seats"])
        rows += ([name, f"{quota:.3f}", str(seats)] for name, quota, seats, _ in state_rows)
        rows.append(["family", "quota", "seats"])
        rows += ([str(f), f"{q_f:.3f}", str(s_f)] for f, q_f, s_f, _ in family_rows)
        rows.append(["total", f"{app.quotas.total_quota:.3f}", str(app.total_seats)])
    return [_delimiter(fmt).join(row) for row in rows]


def _apportion_json(solutions, method_text: str, mode: str):
    blocks = []
    for app in solutions:
        state_rows, family_rows = _solution_rows(app)
        blocks.append({
            "divisor": app.divisor,
            "d_interval": _interval_json(app.d_interval),
            "total": app.total_seats,
            "states": [
                {"name": n, "quota": _json_number(q), "seats": s, "family": f}
                for n, q, s, f in state_rows
            ],
            "families": [
                {"f": f, "quota": _json_number(q), "seats": s, "size": size}
                for f, q, s, size in family_rows
            ],
        })
    first = blocks[0]
    return {
        "divisor": first["divisor"],
        "method": method_text,
        "mode": mode,
        "states": first["states"],
        "families": first["families"],
        "solutions": blocks,
    }


def _cmd_apportion(args):
    states = _load_states(args)
    if (args.divisor is None) == (args.seats is None):
        raise _UsageError("give exactly one of --divisor or --seats", EXIT_CONFLICT)
    build = _parse_method(args.method)
    if args.divisor is not None:
        if build is _hamilton:
            raise _UsageError("hamilton needs --seats, not --divisor", EXIT_CONFLICT)
        divisor = _parse_divisor(args.divisor, states)
        method = MethodSpec(build(divisor), args.mode)
        solutions = [apportion_at_divisor(states, divisor, method)]
    else:
        method = MethodSpec(build(house_divisor(states, args.seats)), args.mode)
        solutions = apportion_for_house_size(states, args.seats, method)

    if args.format == "json":
        return _apportion_json(solutions, args.method, args.mode)
    return _apportion_text(solutions, args.format)


# --- marks --------------------------------------------------------------------

def _cmd_marks(args):
    if args.fmax < 0:
        raise _UsageError("--fmax must be >= 0")
    if args.fmax > _MAX_ROWS:  # the family limit of bias, before a column is built
        raise _UsageError(f"--fmax must be at most {_MAX_ROWS:,}")
    if args.digits is not None and args.digits < 0:
        raise _UsageError("--digits must be >= 0")
    if args.digits is not None and args.digits > 1074:  # where every double's expansion ends
        raise _UsageError("--digits must be at most 1,074")
    methods = args.method
    roundings = []
    for build in [_parse_method(m) for m in methods]:
        if build is _hamilton:
            raise _UsageError("hamilton has no rounding marks")
        roundings.append(build(1.0))  # divisor 1: q_g is the quota scale
    digits = args.digits
    if digits is None:
        digits = 3 if any(isinstance(r, DistributionMarks) for r in roundings) else 2
    columns = [[r.mark_at(f, 1.0) for f in range(args.fmax + 1)] for r in roundings]
    if args.format == "json":
        return {
            "fmax": args.fmax,
            "columns": [
                {"method": m, "marks": col} for m, col in zip(methods, columns)
            ],
        }
    sep = _delimiter(args.format)
    headers = [m if sep not in m else f'"{m}"' for m in methods]
    # one row at a time: the largest table has 2^20 + 1 of them
    rows = (sep.join([str(f), *(f"{mark:.{digits}f}" for mark in marks)])
            for f, marks in enumerate(zip(*columns)))
    return itertools.chain([sep.join(["f", *headers])], rows)


# --- paradox ------------------------------------------------------------------

def _report_json(report: ParadoxReport):
    witness = report.witness
    if isinstance(witness, StateProfile):
        witness = {"name": witness.name, "population": witness.population}
    elif isinstance(witness, tuple):
        witness = [_interval_json(w) for w in witness]
    else:
        witness = _json_number(float(witness))
    def app_json(app):
        return {
            "divisor": app.divisor,
            "d_interval": _interval_json(app.d_interval),
            "total": app.total_seats,
            "seats": dict(app.seats),
        }
    return {
        "kind": report.kind,
        "witness": witness,
        "before": app_json(report.before),
        "after": app_json(report.after),
        "affected_states": [
            {"name": n, "before": b, "after": a} for n, b, a in report.affected_states
        ],
    }


def _reports(reports, fmt: str, empty_text: str):
    if fmt == "json":
        return {"reports": [_report_json(r) for r in reports]}
    return [r.describe() for r in reports] or [empty_text]


def _vector_text(app: Apportionment) -> str:
    return ", ".join(f"{name}={seats}" for name, seats in app.seats.items())


def _cmd_paradox_alabama(args):
    states = _load_states(args)
    method = MethodSpec(_divisor_rounding(args.method, 1.0), args.mode)
    d_lo = _parse_divisor(args.d_lo, states)
    d_hi = _parse_divisor(args.d_hi, states)
    if not d_lo < d_hi:
        raise _UsageError("--d-lo must be below --d-hi", EXIT_CONFLICT)
    return _reports(scan_alabama(states, method, d_lo, d_hi), args.format, "no violations")


def _cmd_paradox_newstates(args):
    states = _load_states(args)
    divisor = _parse_divisor(args.divisor, states)
    method = MethodSpec(_divisor_rounding(args.method, divisor), args.mode)
    name, _, pop_text = args.add_state.partition(":")
    name = name.strip()
    if not name or not pop_text:
        raise _UsageError("--add-state needs name:population")
    population = _parse_float(pop_text, "added population")
    if population <= 0:
        raise _UsageError("added population must be positive")
    report = check_new_states(states, method, divisor, StateProfile(name, population))
    return _reports([report] if report else [], args.format, "no incumbent changed")


def _cmd_paradox_multisol(args):
    states = _load_states(args)
    anchor = house_divisor(states, args.seats)
    method = MethodSpec(_divisor_rounding(args.method, anchor), args.mode)
    solutions = apportion_for_house_size(states, args.seats, method)
    if args.format == "json":
        return {
            "target": args.seats,
            "solutions": [
                {
                    "divisor": s.divisor,
                    "d_interval": _interval_json(s.d_interval),
                    "seats": dict(s.seats),
                } for s in solutions
            ],
        }
    if len(solutions) == 1:
        lines = [f"unique apportionment at {args.seats} seats"]
    else:
        lines = [f"MULTIPLE_SOLUTIONS {len(solutions)} at {args.seats} seats"]
    for idx, app in enumerate(solutions, start=1):
        lo, hi = app.d_interval
        lines.append(f"solution {idx}: divisors ({lo:.10g}, {hi:.10g}]: {_vector_text(app)}")
    return lines


def _cmd_paradox_fixtures(args):
    fixture_states = tuple(StateProfile(f"state{i+1}", p)
                           for i, p in enumerate((0.999, 1.43, 999.0)))
    hh_family = MethodSpec(HUNTINGTON_HILL, BY_FAMILY)
    webster_family = MethodSpec(WEBSTER, BY_FAMILY)
    d_lo, d_hi = 999.0 / 1001.0, 1.0

    alabama_reports = scan_alabama(fixture_states, hh_family, d_lo, d_hi)
    endpoint_hi = apportion_at_divisor(fixture_states, d_hi, hh_family)
    endpoint_lo = apportion_at_divisor(fixture_states, d_lo, hh_family)
    webster_reports = scan_alabama(fixture_states, webster_family, d_lo, d_hi)

    multisol_states = tuple(StateProfile(f"state{i+1}", p)
                            for i, p in enumerate((0.999, 1.43, 62.4375)))
    solutions = apportion_for_house_size(multisol_states, 65, hh_family)
    multisol_report = as_multiple_solution_report(solutions)

    incumbents = (StateProfile("state1", 2.6), StateProfile("state2", 5.3))
    added = StateProfile("added", 2.7)
    ns_family = check_new_states(incumbents, webster_family, 1.0, added)
    ns_state = check_new_states(incumbents, MethodSpec(WEBSTER, BY_STATE), 1.0, added)

    fof = family_of_families_fixture()

    if args.format == "json":
        return {
            "alabama_hh_family": {
                "reports": [_report_json(r) for r in alabama_reports],
                "total_at_d_hi": endpoint_hi.total_seats,
                "total_at_d_lo": endpoint_lo.total_seats,
            },
            "alabama_webster_family": [_report_json(r) for r in webster_reports],
            "multiple_solution_hh_family": {
                "solutions": [dict(s.seats) for s in solutions],
                "report": _report_json(multisol_report) if multisol_report else None,
            },
            "new_states_webster_family": _report_json(ns_family) if ns_family else None,
            "new_states_webster_state": _report_json(ns_state) if ns_state else None,
            "family_of_families": {**_report_json(fof),
                                   "kind": "alabama(family-of-families)"},
        }
    return [
        "== Alabama: Huntington-Hill on families, populations 0.999/1.43/999 ==",
        f"total at D={d_hi:g}: {endpoint_hi.total_seats}; "
        f"total at D={d_lo:.10g}: {endpoint_lo.total_seats}",
        *(r.describe() for r in alabama_reports),
        "",
        "== Same instance under Webster on families ==",
        *_reports(webster_reports, args.format, "no violations"),
        "",
        "== Multiple solutions: Huntington-Hill on families, target 65 ==",
        *(f"solution {idx}: {_vector_text(app)}" for idx, app in enumerate(solutions, start=1)),
        "",
        "== New States: Webster on families, incumbents 2.6/5.3, adding 2.7 ==",
        ns_family.describe() if ns_family else "no incumbent changed",
        "state mode for comparison: "
        + (ns_state.describe() if ns_state else "no incumbent changed"),
        "",
        "== Family-of-families rounding is not Alabama-immune ==",
        fof.describe(),
    ]


# --- stats and bias -----------------------------------------------------------

def _year_label(path: str) -> str:
    import re

    stem = os.path.splitext(os.path.basename(path))[0]
    match = re.search(r"(\d{4})", stem)
    return match.group(1) if match else stem


def _cmd_stats(args):
    rows = [(_year_label(path), log_moments(_read_census(path)))
            for path in [args.input, *(args.years or [])]]
    if args.format == "json":
        return {
            "rows": [
                {"label": label, "mean": m.mean, "std": m.std,
                 "skew": m.skew, "excess_kurtosis": m.excess_kurtosis}
                for label, m in rows
            ],
        }
    sep = _delimiter(args.format)
    return [sep.join(["year", "mean", "std", "skew", "excess_kurtosis"]),
            *(sep.join([label, f"{m.mean:.3f}", f"{m.std:.3f}",
                        f"{m.skew:.3f}", f"{m.excess_kurtosis:.3f}"]) for label, m in rows)]


def _cmd_bias(args):
    build_dist = _parse_distribution(args.dist)
    divisor = _parse_float(args.divisor, "--divisor")
    if divisor <= 0:
        raise _UsageError("--divisor must be positive")
    dist = build_dist(divisor)
    marks_text = args.marks.strip().lower()
    if marks_text == "matched":
        marks = DistributionMarks(dist)
    else:
        marks = _divisor_rounding(marks_text, divisor, "hamilton has no marks to test",
                                  EXIT_PARSE)
    seed = _bias_seed(args.seed)
    rows = monte_carlo_bias(dist, divisor, marks, args.replications, args.n_states, seed)
    if args.format == "json":
        return {
            "dist": args.dist,
            "marks": args.marks,
            "divisor": divisor,
            "replications": args.replications,
            "n_states": args.n_states,
            "seed": seed,
            "families": [
                {"f": row.f, "mean_bias": row.mean_bias, "std_error": row.std_error}
                for row in rows
            ],
        }
    sep = _delimiter(args.format)
    # streamed: one row per family up to the largest drawn, however few the draws
    return itertools.chain(
        [sep.join(["f", "mean_bias", "std_error"])],
        (sep.join([str(row.f), f"{row.mean_bias:.6f}", f"{row.std_error:.6f}"]) for row in rows))


# --- parser -------------------------------------------------------------------

def _bias_seed(seed: int | None) -> int:
    """``--seed`` if given, else ``SEATCALC_SEED`` if set (a usage error
    unless it is an integer), else 0."""
    if seed is not None:
        return seed
    if (text := os.environ.get("SEATCALC_SEED")) is None:
        return 0
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"SEATCALC_SEED must be an integer, got {text!r}") from None


def _add_format(parser):
    parser.add_argument("--format", choices=["csv", "tsv", "json"], default="csv")


def _add_scenario(sub, name: str, help: str, func, method: str, mode: str):
    """Subcommand ``name`` on one set of states: ``--input`` or
    ``--populations``, then ``--method`` and ``--mode`` with these defaults."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--input", help="census CSV (header 'state,population')")
    parser.add_argument("--populations",
                        help="inline comma-separated populations (names state1..N)")
    parser.add_argument("--method", default=method)
    parser.add_argument("--mode", choices=["state", "family"], default=mode)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seatcalc",
        description="Seat apportionment by divisor, family, and "
                    "distribution-derived rounding methods",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_app = _add_scenario(sub, "apportion", "apportion seats", _cmd_apportion, "webster", "state")
    p_app.add_argument("--divisor", help="fixed divisor; accepts vt/N")
    p_app.add_argument("--seats", type=int, help="target house size")
    _add_format(p_app)

    p_marks = sub.add_parser("marks", help="rounding-mark tables")
    p_marks.add_argument("--method", action="append", required=True,
                         help="repeatable; each method adds a column")
    p_marks.add_argument("--fmax", type=int, default=10)
    p_marks.add_argument("--digits", type=int, default=None)
    _add_format(p_marks)
    p_marks.set_defaults(func=_cmd_marks)

    p_par = sub.add_parser("paradox", help="paradox scans and fixtures")
    par_sub = p_par.add_subparsers(dest="paradox_command", required=True)

    p_al = _add_scenario(par_sub, "alabama", "seat loss as the divisor falls",
                         _cmd_paradox_alabama, "webster", "family")
    p_al.add_argument("--d-lo", required=True, help="low end of divisor sweep")
    p_al.add_argument("--d-hi", required=True, help="high end of divisor sweep")
    _add_format(p_al)

    p_ns = _add_scenario(par_sub, "newstates", "incumbent change on insertion",
                         _cmd_paradox_newstates, "webster", "family")
    p_ns.add_argument("--divisor", required=True)
    p_ns.add_argument("--add-state", required=True, help="name:population")
    _add_format(p_ns)

    p_ms = _add_scenario(par_sub, "multisol", "all apportionments at a target",
                         _cmd_paradox_multisol, "hill", "family")
    p_ms.add_argument("--seats", type=int, required=True)
    _add_format(p_ms)

    p_fx = par_sub.add_parser("fixtures", help="run the canned paradox scenarios")
    _add_format(p_fx)
    p_fx.set_defaults(func=_cmd_paradox_fixtures)

    p_stats = sub.add_parser("stats", help="log-population moments")
    p_stats.add_argument("input", help="census CSV")
    p_stats.add_argument("--years", nargs="*", help="additional census CSVs")
    _add_format(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_bias = sub.add_parser("bias", help="Monte Carlo family bias")
    p_bias.add_argument("--dist", required=True,
                        help="lognormal:qg,sigma | powerlaw:beta,vlo,vhi | uniform:lo,hi")
    p_bias.add_argument("--marks", default="matched",
                        help="'matched' or a method (webster, powerlaw:2, ...)")
    p_bias.add_argument("--divisor", default="1.0")
    p_bias.add_argument("--replications", type=int, default=10000)
    p_bias.add_argument("--n-states", type=int, default=50)
    p_bias.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: SEATCALC_SEED if set, else 0)")
    _add_format(p_bias)
    p_bias.set_defaults(func=_cmd_bias)

    return parser


def _stdout_to_devnull() -> None:
    # the reader closed the pipe early (e.g. head): send what is left of the
    # output, the shutdown flush included, nowhere
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
        if args.format == "json":
            print(json.dumps(out, indent=2))
        else:  # 1,024 lines a write: one write a line is ten times slower into a pipe
            lines = (f"{line}\n" for line in out)
            while chunk := "".join(itertools.islice(lines, 1024)):
                sys.stdout.write(chunk)  # sys.stdout read now, for redirect_stdout
        code = EXIT_OK
    except BrokenPipeError:
        _stdout_to_devnull()
        code = EXIT_OK
    except _UsageError as exc:
        print(f"seatcalc: {exc}", file=sys.stderr)
        code = exc.code
    except (InfeasibleTarget, TargetUnachievable) as exc:
        print(f"seatcalc: {exc}", file=sys.stderr)
        code = EXIT_INFEASIBLE
    except ApportionmentError as exc:
        print(f"seatcalc: {exc}", file=sys.stderr)
        code = EXIT_CONFLICT
    except ValueError as exc:
        print(f"seatcalc: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _stdout_to_devnull()
    if argv is None:
        sys.exit(code)
    return code
