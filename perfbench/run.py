"""Benchmark of resipoly: seeded workloads run against its public API.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and uses one process and one thread.  Set-up (import,
seeded inputs, documents written under ``.perfbench/``) runs
``SETUP_REPEATS`` times and ``setup_s`` is its median.  The timed loop is
one pass over the workload's cases; passes repeat while the next one is
expected to end within ``--seconds``.  Each case's time is its median over
the passes, ``wall_s`` is the sum of those (the time of one pass), and
``case_p50_ms`` and ``case_tail_ms`` are taken over them.  These times are
in reference seconds (see REFERENCE_S).  With ``--trace 1`` half the time
runs untraced passes and the rest traced ones, and the per-layer metrics of
``tracing.py`` are reported instead; their span times are raw seconds.

Every metric is printed with its unit, and a run record (environment,
tail percentile, per-case digests, exact counters) is written under
``.perfbench/records/``.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 5


class PassLog:
    """Outcomes of every case over every pass of one run."""

    def __init__(self, labels):
        self.labels = labels
        self.digests = [None] * len(labels)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors = []

    def record(self, i, outcome):
        self.attempted += 1
        if outcome is None or not outcome.ok:
            self.failed += 1
        if outcome is None:  # it raised; run_passes logged the traceback
            self.correct = False
            return
        if not (outcome.ok or outcome.known_defect):
            self.correct = False
            self.errors.append(f"{self.labels[i]}: a verdict is false")
        if self.digests[i] is None:
            self.digests[i] = outcome.digest
        elif self.digests[i] != outcome.digest:
            self.correct = False
            self.errors.append(f"{self.labels[i]}: output differs between passes")


# Machine-speed reference.  On a shared 2-vCPU VM the speed of a core
# drifted by up to 1.7x over minutes: one fixed faces case took 84 to 147 ms
# from one minute to the next, so raw times of runs made minutes apart are
# not comparable.  A fixed pure-Python loop, independent of the package,
# runs before every case, and each case's time is scaled by REFERENCE_S over
# the loop's local time.  Every reported time is thus in reference seconds:
# seconds on a machine where the loop takes REFERENCE_S.  Over the same
# minutes the ratio of case to loop moved by about 5%.  Raw seconds are kept
# in the run record.
REFERENCE_S = 0.005


def reference_loop():
    """Small ints, dicts, lists and Fractions: the kind of work resipoly does."""
    acc = 0
    table = {}
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    x = Fraction(1)
    for i in range(1, 400):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    rows = [[(i * j) % 7 for j in range(12)] for i in range(12)]
    return acc, x, sorted(map(sum, rows))


def reference_time():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def run_passes(cases, budget, log, recorder=None):
    """Passes over all cases until the next one would overrun `budget`
    seconds (at least one).  Returns each case's times in reference seconds
    and each pass's raw seconds."""
    clock = time.perf_counter
    times = [[] for _ in cases]
    raw_passes, walls = [], []
    begin = clock()
    while True:
        if recorder:
            recorder.begin_pass()
        start = clock()
        raw, refs = [], []
        for i, (label, run) in enumerate(cases):
            refs.append(reference_time())
            t0 = clock()
            try:
                outcome = run()
            except Exception:
                outcome = None
                log.errors.append(f"{label}: {traceback.format_exc()}")
            raw.append(clock() - t0)
            log.record(i, outcome)
            if recorder and outcome:
                recorder.tallies["cli.output_bytes"] += outcome.output_bytes
        refs.append(reference_time())
        if recorder:
            recorder.end_pass()
        for i, t in enumerate(raw):
            # the loop runs taken just before and after case i and its neighbours
            times[i].append(t * REFERENCE_S / statistics.median(refs[max(0, i - 2) : i + 4]))
        raw_passes.append(sum(raw))
        walls.append(clock() - start)
        if clock() - begin + statistics.median(walls) > budget:
            return times, raw_passes


def typical(times):
    """Each case's median over the passes."""
    return [statistics.median(t) for t in times]


def tail_percentile(values):
    """Highest whole percentile (nearest rank) with at least ten values
    beyond it: (percentile, value, values beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    raise ValueError(f"{n} cases: a tail needs at least eleven")


def git_commit(root):
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root):
    """One hash of the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    package = root / "src" / "resipoly"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(package)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def run_workload(workload, seed, seconds, trace, size):
    setup, raw_setup = [], []
    for _ in range(SETUP_REPEATS):
        refs = [reference_time() for _ in range(3)]
        start = time.perf_counter()
        program = workloads.Program()
        cases = workloads.build(program, workload, seed, size, WORKDIR / "docs" / workload)
        raw_setup.append(time.perf_counter() - start)
        refs += [reference_time() for _ in range(2)]
        setup.append(raw_setup[-1] * REFERENCE_S / statistics.median(refs))
    package = Path(sys.modules["resipoly"].__file__).resolve()
    if not package.is_relative_to(ROOT / "src"):
        raise RuntimeError(f"resipoly imported from {package}, not from this checkout")

    log = PassLog([label for label, _ in cases])
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "cases": len(cases), "setup_s_samples": setup,
              "raw_setup_s_samples": raw_setup}
    if trace:
        budget_end = time.perf_counter() + seconds
        untraced, untraced_raw = run_passes(cases, seconds / 2, log)
        recorder = tracing.Recorder()
        tracing.instrument(recorder)
        traced, traced_raw = run_passes(cases, budget_end - time.perf_counter(), log, recorder)
        spans = WORKDIR / "spans" / f"{workload}-seed{seed}.bin"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracing.write_spans(recorder, spans)
        metrics, exact = tracing.layer_metrics(
            spans, [t for _, _, t in recorder.passes], sum(typical(untraced)), sum(typical(traced))
        )
        record.update(raw_pass_s={"untraced": untraced_raw, "traced": traced_raw},
                      spans_file=str(spans.relative_to(ROOT)), exact_counts=exact,
                      counts_repeat=all(e == exact[0] for e in exact))
    else:
        times, raw_passes = run_passes(cases, seconds, log)
        per_case = typical(times)
        percentile, tail, beyond = tail_percentile(per_case)
        metrics = {
            "wall_s": sum(per_case),
            "case_p50_ms": statistics.median(per_case) * 1e3,
            "case_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record.update(raw_pass_s=raw_passes,
                      tail={"percentile": percentile, "cases": len(per_case), "beyond": beyond},
                      case_ms=[{"label": label, "ms": t * 1e3}
                               for label, t in zip(log.labels, per_case)])
    record.update(
        metrics=metrics,
        failed_frac=log.failed / log.attempted,
        attempted=log.attempted,
        failed=log.failed,
        correct=log.correct,
        digests=[{"label": label, "sha256": d} for label, d in zip(log.labels, log.digests)],
        outputs_sha256=hashlib.sha256("".join(map(str, log.digests)).encode()).hexdigest(),
        errors=log.errors[:20],
    )
    return record


def environment(seed):
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "source_sha256": source_sha256(ROOT),
        "seed": seed,
        "processes": 1,
        "threads": threading.active_count(),
    }


def report(record, units):
    """Human-readable lines: every metric with its unit."""
    head = f"{record['workload']} seed={record['seed']} trace={record['trace']}"
    print(f"{head} cases={record['cases']} correct={record['correct']}")
    for name, value in record["metrics"].items():
        extra = ""
        if name == "case_tail_ms":
            t = record["tail"]
            extra = f"  (p{t['percentile']} of {t['cases']} cases, {t['beyond']} beyond)"
        print(f"  {name:<48} {value:>14.6g} {units[name]}{extra}")
    print(f"  {'failed_frac':<48} {record['failed_frac']:>14.6g} ratio"
          f"  ({record['failed']} of {record['attempted']})")
    for error in record["errors"]:
        print(f"  error: {error.strip().splitlines()[-1]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.CELLS), default="full",
                        help="tiny runs every workload in about a second")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "resipoly" / "__init__.py").is_file():
        print(f"error: no resipoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    results = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace, args.size)
        if list(record["metrics"]) != list(units):
            raise RuntimeError("metrics differ from those BENCHMARK.json declares")
        record["environment"] = env
        path = WORKDIR / "records" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1) + "\n")
        report(record, units)
        print(f"  record: {path.relative_to(ROOT)}")
        results.append(record)

    prefix = len(names) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
            for r in results
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
