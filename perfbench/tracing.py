"""Spans and exact work counters for the traced run, recorded from outside
the package.

`instrument` wraps each function named in ``layers.json``.  The wrapper is
bound in every loaded ``resipoly`` module whose globals refer to the
function, because ``from .linalg import rank`` copies the name into
``polytopes``, ``residues`` and ``verify``.  Spans stay in memory as four
parallel arrays (name, start, end, parent); `write_spans` stores them at the
end of the run and `layer_metrics` derives calls, total and self time from
the stored file.
"""

from __future__ import annotations

import array
import functools
import json
import math
import statistics
import sys
import time
from pathlib import Path

LAYERS = json.loads(Path(__file__).with_name("layers.json").read_text())
FUNCTIONS = tuple(f for group in LAYERS["groups"] for f in group["functions"])
COUNTERS = tuple(c for group in LAYERS["groups"] for c in group["counters"])
OVERHEAD = LAYERS["overhead"]["name"]

# Raw tallies kept per pass; the named counters are derived from them.
_TALLIES = (
    "graphs.ordered_partitions.items",
    "degeneration.plucker_limit_oracle.minors",
    "linalg.det.nonzero",
    "polytopes.base_polytope.orderings",
    "polytopes.base_polytope.vertices",
    "cli.output_bytes",
)


class Recorder:
    """In-memory spans of one run, plus the tallies of the current pass."""

    def __init__(self):
        self.names = list(FUNCTIONS)
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.current = -1
        self.tallies = dict.fromkeys(_TALLIES, 0)
        self.passes = []  # (first span, end span, tallies) per traced pass
        self._pass_start = 0

    def begin_pass(self):
        self._pass_start = len(self.start)
        self.tallies = dict.fromkeys(_TALLIES, 0)

    def end_pass(self):
        self.passes.append((self._pass_start, len(self.start), dict(self.tallies)))

    def span(self, name_id, fn, after=None):
        """`fn` wrapped so each call records a span; `after(tallies, args,
        result)` runs on every call that returns."""
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(recorder.current)
            ends.append(0.0)
            recorder.current = i
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                recorder.current = parents[i]
            if after is not None:
                after(recorder.tallies, args, result)
            return result

        return wrapper

    def counted_items(self, fn, tally):
        """A generator function wrapped to count the items it yields."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                recorder.tallies[tally] += 1
                yield item

        return wrapper


def _count_minors(tallies, args, result):
    space = args[0].space
    if space.dim:
        tallies["degeneration.plucker_limit_oracle.minors"] += math.comb(
            space.ambient_dim, space.dim
        )


def _count_nonzero(tallies, args, result):
    if result:
        tallies["linalg.det.nonzero"] += 1


def _count_orderings(tallies, args, result):
    tallies["polytopes.base_polytope.orderings"] += math.factorial(args[0].n)
    tallies["polytopes.base_polytope.vertices"] += len(result.vertices)


_AFTER = {
    "degeneration.plucker_limit_oracle": _count_minors,
    "linalg.det": _count_nonzero,
    "polytopes.base_polytope": _count_orderings,
}


def _rebind(original, replacement):
    """Point every resipoly module global that holds `original` at
    `replacement`; returns how many were rebound."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "resipoly" or name.startswith("resipoly.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    return bound


def instrument(recorder):
    """Wrap every traced function, and count ordered partitions."""
    for name_id, qualified in enumerate(FUNCTIONS):
        module_name, attr = qualified.rsplit(".", 1)
        original = getattr(sys.modules[f"resipoly.{module_name}"], attr)
        wrapper = recorder.span(name_id, original, _AFTER.get(qualified))
        if not _rebind(original, wrapper):
            raise RuntimeError(f"{qualified} is bound nowhere")
    graphs = sys.modules["resipoly.graphs"]
    original = graphs.ordered_partitions
    _rebind(original, recorder.counted_items(original, "graphs.ordered_partitions.items"))


def write_spans(recorder, path):
    """Store the spans: a JSON header line, then the four arrays."""
    header = {
        "names": recorder.names,
        "count": len(recorder.start),
        "passes": [[lo, hi] for lo, hi, _ in recorder.passes],
        "layout": ["name:i32", "parent:i32", "start:f64", "end:f64"],
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n")
        for column in (recorder.name, recorder.parent, recorder.start, recorder.end):
            column.tofile(handle)


def read_spans(path):
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array.array(code)
            column.fromfile(handle, header["count"])
            columns.append(column)
    return header, columns


def _pass_layers(names, name, parent, start, end, lo, hi):
    """calls, total_s and self_s per function over spans [lo, hi).

    Self time is a span's duration minus the durations of its direct
    children (calls are nested and sequential on one thread).  Total time
    counts only the outermost span of a function, so recursion through a
    traced name is not counted twice.
    """
    calls = [0] * len(names)
    total = [0.0] * len(names)
    own = [0.0] * len(names)
    for i in range(lo, hi):
        k = name[i]
        duration = end[i] - start[i]
        calls[k] += 1
        own[k] += duration
        p = parent[i]
        if p >= 0:
            own[name[p]] -= duration
        while p >= 0 and name[p] != k:
            p = parent[p]
        if p < 0:
            total[k] += duration
    return {
        n: {"calls": calls[k], "total_s": total[k], "self_s": own[k]}
        for k, n in enumerate(names)
    }


def _counters(tallies, det_calls):
    orderings = tallies["polytopes.base_polytope.orderings"]
    return {
        "graphs.ordered_partitions.items": tallies["graphs.ordered_partitions.items"],
        "degeneration.plucker_limit_oracle.minors": tallies[
            "degeneration.plucker_limit_oracle.minors"
        ],
        "linalg.det.nonzero_frac": (
            tallies["linalg.det.nonzero"] / det_calls if det_calls else 0.0
        ),
        "polytopes.base_polytope.orderings": orderings,
        "polytopes.base_polytope.distinct_frac": (
            tallies["polytopes.base_polytope.vertices"] / orderings if orderings else 0.0
        ),
        "cli.output_bytes": tallies["cli.output_bytes"],
    }


def layer_metrics(path, pass_tallies, untraced_s, traced_s):
    """Per-layer metrics from a stored span file: the median over traced
    passes of each function's calls, total and self time and of each
    counter, and the tracing overhead from the pass times of the untraced
    and traced passes.  Also returns the per-pass exact counts, so that
    callers can check that they repeat."""
    header, (name, parent, start, end) = read_spans(path)
    names = header["names"]
    per_pass = []
    for (lo, hi), tallies in zip(header["passes"], pass_tallies):
        layers = _pass_layers(names, name, parent, start, end, lo, hi)
        per_pass.append((layers, _counters(tallies, layers["linalg.det"]["calls"])))

    metrics = {}
    for f in FUNCTIONS:
        metrics[f"{f}.calls"] = statistics.median_low(l[f]["calls"] for l, _ in per_pass)
        metrics[f"{f}.total_s"] = statistics.median(l[f]["total_s"] for l, _ in per_pass)
        metrics[f"{f}.self_s"] = statistics.median(l[f]["self_s"] for l, _ in per_pass)
    for c in COUNTERS:
        values = [counters[c] for _, counters in per_pass]
        whole = isinstance(values[0], int)
        metrics[c] = statistics.median_low(values) if whole else statistics.median(values)
    metrics[OVERHEAD] = traced_s / untraced_s - 1
    exact = [
        {
            **{f"{f}.calls": l[f]["calls"] for f in FUNCTIONS},
            **{c: counters[c] for c in COUNTERS},
        }
        for l, counters in per_pass
    ]
    return metrics, exact
