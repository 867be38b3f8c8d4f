"""Per-layer tracing of seatcalc from outside the package.

The tracer wraps the layer entry points named in ``LAYERS`` and patches
every module attribute that refers to them, so that calls made through
``seatcalc.engine.compute_quotas`` and through ``seatcalc.core.compute_quotas``
(or ``seatcalc.paradoxes.apportion_at_divisor``) are all seen.  Nothing
under ``src/`` changes.

Each traced call opens a span (name, start, end, parent).  A span's self
time is its duration minus the time its child spans cover, accumulated
when the span closes.  Spans of the coarse layers are also kept in memory
as records; the hot leaves (mark functions, called tens of thousands of
times per operation) only add to the aggregates, and the cdf and cached
mark lookups are only counted, so that tracing stays affordable.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter, defaultdict

SPAN, LEAF = "span", "leaf"

# (metric prefix, module, attribute path, kind)
LAYERS = (
    ("engine.apportion_for_house_size", "engine", "apportion_for_house_size", SPAN),
    ("engine.piecewise_apportionments", "engine", "piecewise_apportionments", SPAN),
    ("engine.apportion_at_divisor", "engine", "apportion_at_divisor", SPAN),
    ("core.compute_quotas", "core", "compute_quotas", SPAN),
    ("core.partition_families", "core", "partition_families", SPAN),
    ("signposts.mark_at", "signposts", "SignpostRule.mark_at", LEAF),
    ("distributions.unbiased_mark", "distributions", "unbiased_mark", LEAF),
    ("distributions.monte_carlo_bias", "distributions", "monte_carlo_bias", SPAN),
    ("paradoxes.scan_alabama", "paradoxes", "scan_alabama", SPAN),
    ("census.read_census_csv", "census", "read_census_csv", SPAN),
    ("cli.main", "cli", "main", SPAN),
)

MODULES = ("engine", "core", "signposts", "distributions", "paradoxes", "census", "cli")


class Tracer:
    """Span and count recorder; records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.self_ns: defaultdict = defaultdict(int)
        self.counts: Counter = Counter()
        self.spans: list[tuple[str, int, int, int, int]] = []  # name, start, end, parent, op
        self.op = -1
        self._stack: list[list] = []  # [name, start_ns, child_ns, span_index]
        self._patches: list[tuple[object, str, object]] = []
        self._keys: dict[int, set] = {}
        self.peak_keys = 0

    # --- spans ---------------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> list:
        index = -1
        if keep:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append((name, 0, 0, parent, self.op))
        frame = [name, time.perf_counter_ns(), 0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            _, _, _, parent, op = self.spans[index]
            self.spans[index] = (name, start, end, parent, op)

    def _wrap(self, name: str, fn, kind: str):
        tracer = self
        keep = kind == SPAN

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            tracer._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, result) -> None:
        if name == "engine.piecewise_apportionments":
            self.counts["engine.pieces"] += len(result)
        elif name == "paradoxes.scan_alabama":
            self.counts["paradoxes.reports"] += len(result)

    def _count(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _cached_marks(self, fn):
        """DistributionMarks.mark_at: count calls, misses (calls that solve a
        mark) and the distinct (f, D) keys each marks object is asked for."""
        tracer = self

        def mark_at(marks, f, divisor):
            if not tracer.active:
                return fn(marks, f, divisor)
            tracer.calls["distributions.mark_at"] += 1
            solved = tracer.calls["distributions.unbiased_mark"]
            result = fn(marks, f, divisor)
            if tracer.calls["distributions.unbiased_mark"] == solved:
                tracer.counts["distributions.mark_cache_hits"] += 1
            keys = tracer._keys.get(id(marks))
            if keys is None:
                keys = tracer._keys[id(marks)] = set()
                weakref.finalize(marks, tracer._keys.pop, id(marks), None)
            keys.add((f, divisor))
            if len(keys) > tracer.peak_keys:
                tracer.peak_keys = len(keys)
            return result

        mark_at.__wrapped__ = fn
        return mark_at

    # --- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer entry point and rebind every name that refers to it."""
        mods = [package] + [getattr(package, m) for m in MODULES]
        replace: dict[int, object] = {}
        for name, module, path, kind in LAYERS:
            owner = getattr(package, module)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, kind)
            if cls:
                self._set(owner, attr, wrapper)
            replace[id(original)] = wrapper
        dist = package.distributions
        self._set(dist.DistributionMarks, "mark_at",
                  self._cached_marks(dist.DistributionMarks.mark_at))
        for cls in (dist.LogNormal, dist.PowerLaw, dist.Uniform):
            self._set(cls, "cdf_diff", self._count("distributions.cdf_diff", cls.cdf_diff))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # --- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _, _, _ in LAYERS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        evals = self.calls["engine.apportion_at_divisor"]
        out["engine.pieces"] = self.counts["engine.pieces"]
        out["engine.pieces_per_eval"] = self.counts["engine.pieces"] / evals if evals else 0.0
        out["distributions.mark_at.calls"] = self.calls["distributions.mark_at"]
        out["distributions.cdf_diff.calls"] = self.calls["distributions.cdf_diff"]
        lookups = self.calls["distributions.mark_at"]
        hits = self.counts["distributions.mark_cache_hits"]
        out["distributions.mark_cache_hit_ratio"] = hits / lookups if lookups else 0.0
        out["distributions.mark_cache_entries"] = self.peak_keys
        out["paradoxes.reports"] = self.counts["paradoxes.reports"]
        return out

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines (times in ns from the first span)."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent, "op": op}) + "\n")
