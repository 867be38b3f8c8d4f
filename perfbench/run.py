"""seatcalc benchmark: one workload per process, closed loop, one caller.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: census-house, lognormal-house, divisor-sweep, cli (see
README.md).  The run repeats whole rounds of operations until ``--seconds``
have passed, checks every operation, prints a readable summary, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run does its first round once untraced and once traced, and reports
the per-layer metrics of the traced round plus the tracing overhead.

seatcalc is imported from ``src/`` of the checkout; the run exits with
code 2 if that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {"ops_per_s": "op/s", "op_ms_p50": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PROBES = 5
IMPORT_PROBES = 3

_PROBE = """\
import sys, time
t = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import inputs
inputs.build({workload!r}, {seed!r})
t = time.perf_counter() - t
import calib, statistics
print(t, statistics.median(calib.sample_ns() for _ in range(5)))
"""

_IMPORT_PROBE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, {src!r})
import seatcalc.cli
t = time.perf_counter() - t
sys.path.insert(0, {here!r})
import calib, statistics
print(t, statistics.median(calib.sample_ns() for _ in range(5)))
"""


def _probe(code: str) -> tuple[float, float]:
    """Run a probe in a fresh interpreter: (seconds, scaled seconds)."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    seconds, loop_ns = proc.stdout.split()
    return float(seconds), float(seconds) * calib.REFERENCE_NS / float(loop_ns)


def _median_probe(code: str, count: int) -> tuple[float, float]:
    runs = [_probe(code) for _ in range(count)]
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


class Tally:
    """Timings and verdicts of operations, by operation key.

    Every operation is timed raw and scaled to the reference speed (see
    calib.py).  A result identical to one already checked under the same
    key gets the same verdict without checking it again.
    """

    def __init__(self, verdicts: dict | None = None):
        self.raw: dict[tuple, list[int]] = {}
        self.scaled: dict[tuple, list[float]] = {}
        self.pieces: dict[tuple, int] = {}
        self.faults: dict[str, int] = {}
        self.unexpected: list[str] = []
        self.digest = hashlib.sha256()
        self.verdicts = {} if verdicts is None else verdicts

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.raw.values())

    @property
    def failed(self) -> int:
        return sum(self.faults.values()) + len(self.unexpected)

    def run(self, op, tracer=None) -> None:
        before = calib.sample_ns()
        if tracer is not None:
            tracer.op = self.attempted
            tracer.active = True
        start = time.perf_counter_ns()
        try:
            result = op.run()
        except Exception as exc:  # the check decides whether this was expected
            result = exc
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.active = False
        after = calib.sample_ns()
        self.raw.setdefault(op.key, []).append(elapsed)
        self.scaled.setdefault(op.key, []).append(
            elapsed * calib.REFERENCE_NS / (0.5 * (before + after)))
        if op.pieces and isinstance(result, list):
            self.pieces[op.key] = len(result)
        text = op.canon(result)
        verdict = self.verdicts.get((op.key, text))
        if verdict is None:
            verdict = self.verdicts[(op.key, text)] = op.check(result)
        self.digest.update(repr((op.key, verdict.fault, text)).encode())
        if verdict.fault == "unexpected":
            self.unexpected.append(verdict.detail)
        elif verdict.fault is not None:
            self.faults[verdict.fault] = self.faults.get(verdict.fault, 0) + 1

    def merge(self, other: "Tally") -> None:
        for key, samples in other.raw.items():
            self.raw.setdefault(key, []).extend(samples)
            self.scaled.setdefault(key, []).extend(other.scaled[key])
        self.pieces.update(other.pieces)
        for k, v in other.faults.items():
            self.faults[k] = self.faults.get(k, 0) + v
        self.unexpected += other.unexpected

    def per_op(self, scaled: bool = True) -> dict[tuple, float]:
        """Each operation's median time over the run's rounds, in ns."""
        source = self.scaled if scaled else self.raw
        return {key: statistics.median(samples) for key, samples in source.items()}

    def total_ns(self) -> float:
        return sum(sum(v) for v in self.scaled.values())


def run_ops(ops, tracer=None, verdicts=None) -> Tally:
    tally = Tally(verdicts)
    for op in ops:
        tally.run(op, tracer)
    return tally


def measure(work, seconds: float) -> tuple[Tally, int]:
    """Whole rounds until ``seconds`` have passed (at least ``min_rounds``)."""
    total = Tally()
    start = time.perf_counter()
    rounds = 0
    while rounds < work.min_rounds or time.perf_counter() - start < seconds:
        total.merge(run_ops(work.ops(), verdicts=total.verdicts))
        rounds += 1
    return total, rounds


def end_to_end(work, tally: Tally, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    scaled, raw = tally.per_op(), tally.per_op(scaled=False)
    usage = resource.RUSAGE_CHILDREN if work.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": len(scaled) / (sum(scaled.values()) / 1e9),
        "op_ms_p50": statistics.median(scaled.values()) / 1e6,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "setup_s": setup[1],
    }
    lines = [f"{len(scaled)} distinct operations, each timed at its median over the rounds; "
             f"times scaled to the reference speed (raw wall-clock in brackets)",
             f"raw: ops_per_s = {len(raw) / (sum(raw.values()) / 1e9):.6g} op/s, "
             f"op_ms_p50 = {statistics.median(raw.values()) / 1e6:.6g} ms, "
             f"setup_s = {setup[0]:.6g} s"]
    samples = sorted(ns for per_key in tally.scaled.values() for ns in per_key)
    if len(samples) >= 100:
        p90 = statistics.quantiles(samples, n=10, method="inclusive")[-1] / 1e6
        lines.append(f"op_ms_p90 = {p90:.6g} ms over all {len(samples)} runs of operations")
    if tally.pieces:
        pieces = sum(tally.pieces.values())
        piece_ns = sum(scaled[key] for key in tally.pieces)
        lines.append(f"pieces_per_s = {pieces / (piece_ns / 1e9):.6g} piece/s "
                     f"({pieces} pieces per round)")
    for label, key in work.headlines:
        lines.append(f"{label}: {scaled[key] / 1e6:.6g} ms ({raw[key] / 1e6:.6g} ms)")
    return metrics, lines


def traced(work, sc, t) -> tuple[Tally, dict]:
    """One round untraced, then the same round traced; per-layer metrics of the
    traced round.

    For ``cli`` both rounds run the scenarios in this process through
    ``seatcalc.cli.main``, after one round of child processes whose stdout
    must match theirs byte for byte.
    """
    if work.name == "cli":
        ops = work.inprocess_ops
        total = run_ops(work.ops())
    else:
        ops = work.ops
        total = Tally()
    plain = run_ops(ops())
    t.install(sc)
    try:
        traced_tally = run_ops(ops(), t, plain.verdicts)
    finally:
        t.uninstall()
    metrics = t.metrics()
    metrics["trace.overhead_pct"] = 100.0 * (traced_tally.total_ns() / plain.total_ns() - 1.0)
    metrics["cli.import_ms"] = 0.0
    if work.name == "cli":
        code = _IMPORT_PROBE.format(src=SRC, here=HERE)
        metrics["cli.import_ms"] = 1000.0 * _median_probe(code, IMPORT_PROBES)[1]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    t.write_spans(os.path.join(out_dir, f"spans-{work.name}.jsonl"))
    if plain.digest.digest() != traced_tally.digest.digest():
        traced_tally.unexpected.append("traced outputs differ from the untraced round")
    total.merge(plain)
    total.merge(traced_tally)
    return total, metrics


PER_LAYER = (
    # name, unit, better
    ("engine.apportion_for_house_size.calls", "count", "lower"),
    ("engine.apportion_for_house_size.self_ms", "ms", "lower"),
    ("engine.piecewise_apportionments.calls", "count", "lower"),
    ("engine.piecewise_apportionments.self_ms", "ms", "lower"),
    ("engine.apportion_at_divisor.calls", "count", "lower"),
    ("engine.apportion_at_divisor.self_ms", "ms", "lower"),
    ("engine.pieces", "count", "higher"),
    ("engine.pieces_per_eval", "ratio", "higher"),
    ("core.compute_quotas.calls", "count", "lower"),
    ("core.compute_quotas.self_ms", "ms", "lower"),
    ("core.partition_families.calls", "count", "lower"),
    ("core.partition_families.self_ms", "ms", "lower"),
    ("signposts.mark_at.calls", "count", "lower"),
    ("signposts.mark_at.self_ms", "ms", "lower"),
    ("distributions.mark_at.calls", "count", "lower"),
    ("distributions.unbiased_mark.calls", "count", "lower"),
    ("distributions.unbiased_mark.self_ms", "ms", "lower"),
    ("distributions.cdf_diff.calls", "count", "lower"),
    ("distributions.mark_cache_hit_ratio", "ratio", "higher"),
    ("distributions.mark_cache_entries", "count", "lower"),
    ("distributions.monte_carlo_bias.self_ms", "ms", "lower"),
    ("paradoxes.scan_alabama.calls", "count", "lower"),
    ("paradoxes.scan_alabama.self_ms", "ms", "lower"),
    ("paradoxes.reports", "count", "lower"),
    ("census.read_census_csv.calls", "count", "lower"),
    ("census.read_census_csv.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "seatcalc", "__init__.py")):
        print(f"perfbench: no seatcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import inputs
    import seatcalc as sc
    import seatcalc.cli  # noqa: F401  (bound as sc.cli, for cli runs and tracing)
    import tracer as tracing
    import workloads

    if os.path.dirname(os.path.abspath(sc.__file__)) != os.path.join(SRC, "seatcalc"):
        print(f"perfbench: seatcalc imported from {sc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    kind = workloads.WORKLOADS.get(args.workload)
    if kind is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"have {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # one CPU for this process and its children, so that the calibration
    # loop and the operation it scales run on the same processor
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    t = tracing.Tracer()
    if args.trace:
        t.install(sc)
        t.active = True   # census loads of the set-up count toward the census layer
    data = inputs.build(args.workload, args.seed)
    t.active = False
    t.uninstall()
    work = kind(sc, data)

    if args.trace:
        tally, metrics = traced(work, sc, t)
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: metrics[name] for name in units}
        lines = [f"{tally.attempted} operations: one round untraced, then the same round traced"]
    else:
        # set-up in fresh interpreters: import seatcalc, load the census,
        # generate the inputs
        setup = _median_probe(_PROBE.format(src=SRC, here=HERE, workload=args.workload,
                                            seed=args.seed), SETUP_PROBES)
        tally, rounds = measure(work, args.seconds)
        metrics, lines = end_to_end(work, tally, setup)
        units = END_TO_END
        lines.insert(0, f"{rounds} rounds, {tally.attempted} operations")

    print(f"workload {args.workload}, seed {args.seed}")
    for line in lines:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    for fault, count in sorted(tally.faults.items()):
        print(f"  failed with known fault ({fault}) {count}: {workloads.FAULTS[fault]}")
    for detail in tally.unexpected[:20]:
        print(f"  UNEXPECTED: {detail}")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
