#!/usr/bin/env python3
"""Benchmark of the exact pipeline: one closed-loop client, in one process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else, and the run fails (exit 2, no result line) when it
is missing.  Workloads are ``certify``, ``build``, ``sample`` and
``charity``; ``perfbench/README.md`` says what each exercises and which
numbers each layer should move.

A run sets the workload up (import, inputs, precompute) at least three
times before its ops and twice after them, and until each group has taken
SETUP_BEFORE or SETUP_AFTER seconds, each set-up between two short bursts
of a calibration loop, and reports the median as ``setup_s``.  It then
replays the golden seed's first ops and compares their output digest with
the one recorded in ``perfbench/digests.json``, which also warms the
interpreter up.

``--trace 0`` measures ops for ``--seconds`` seconds with tracing off and
reports the end-to-end metrics.  A short stdlib calibration loop runs every
tenth of a second between ops, and each op's latency is divided by the
median of the calibration times within half a second of the op.  So
latencies and throughput are in calibration units (``cal``), and most of
the machine's speed drift cancels.  Set-up time is divided by the mean
calibration time of its two bursts and given in seconds at the loop's
reference speed (one unit = 4 ms).  The plain wall-clock figures are in the
metadata.

``--trace 1`` runs a fixed number of ops traced, so the exact counters
repeat at one seed.  Each op also runs untraced, with the tracer's wrappers
taken out, right before or after its traced run; that measures the tracing
overhead.  It reports the per-layer metrics.  The spans go to
``perfbench/results/``.

Every op's output is checked outside the timed region; the last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
DIGESTS = os.path.join(HERE, "digests.json")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name: (unit, better)
END_TO_END = {
    "ops_per_cal": ("ops/cal", "higher"),
    "op_p50_cal": ("cal", "lower"),
    "op_p90_cal": ("cal", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# set-ups before and after the timed ops: (at least this many, and until
# they have taken at least this many seconds)
SETUP_BEFORE, SETUP_AFTER = (3, 1.2), (2, 0.8)
CAL_EVERY_S = 0.1
CAL_BURST_S = 0.04  # calibration run around each set-up
CAL_REACH_S = 0.5  # calibration units this close to an op give its speed
CAL_REF_S = 0.004  # one calibration unit at the reference speed
GOLDEN_SEED = 0


class MissingPackage(Exception):
    pass


def import_bobw():
    """Fresh import of the package from the checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "bobw", "__init__.py")):
        raise MissingPackage(f"no package at {os.path.relpath(SRC, ROOT)}/bobw")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [k for k in sys.modules if k == "bobw" or k.startswith("bobw.")]:
        del sys.modules[name]
    bobw = importlib.import_module("bobw")
    importlib.import_module("bobw.cli")
    if not os.path.abspath(bobw.__file__).startswith(SRC + os.sep):
        raise MissingPackage(f"bobw imported from {bobw.__file__}, not from the checkout")
    return bobw


def set_up(name: str, seed: int, scratch: str, repeats: tuple[int, float]):
    """Set up at least `repeats[0]` times and until the set-ups have taken
    `repeats[1]` seconds, with a calibration burst before and after each;
    returns the last set-up's package and workload, each set-up's time and
    each set-up's time in calibration units."""
    times, units = [], []
    before = calibrate_burst()
    while True:
        t0 = time.perf_counter()
        bobw = import_bobw()
        workload = WORKLOADS[name](bobw, seed, scratch)
        times.append(time.perf_counter() - t0)
        after = calibrate_burst()
        units.append(times[-1] / ((before + after) / 2))
        before = after
        if len(times) >= repeats[0] and sum(times) >= repeats[1]:
            return bobw, workload, times, units
        workload.close()


_CAL_RANKS = tuple(tuple((7 * g + 5 * a) % 24 for g in range(24)) for a in range(1, 7))


def calibrate() -> float:
    """Fixed stdlib work that touches nothing in the package; its time
    tracks the machine's speed.  Half is Fraction arithmetic with dict and
    set churn, as in eating and rounding; half is frozenset differences and
    sorted tuple comparisons, as in an envy audit."""
    t0 = time.perf_counter()
    x = Fraction(0)
    seen: dict = {}
    bag: set = set()
    for k in range(1, 400):
        x += Fraction(k % 89 + 1, k % 97 + 2)
        x -= int(x)
        seen[k % 211] = x.numerator
        bag.add(x.denominator)
        if len(bag) > 64:
            bag.clear()
    wins = 0
    for rep in range(6):
        bundles = [frozenset(_CAL_RANKS[rep][a::6]) for a in range(6)]
        for a, rank in enumerate(_CAL_RANKS):
            own = tuple(sorted(rank[g] for g in bundles[a]))
            for b, bundle in enumerate(bundles):
                if b != a:
                    for g in bundle:
                        wins += tuple(sorted(rank[h] for h in bundle - {g})) < own
    return time.perf_counter() - t0


def calibrate_burst() -> float:
    """Mean time of calibration units run back to back for CAL_BURST_S."""
    cal = []
    deadline = time.perf_counter() + CAL_BURST_S
    while not cal or time.perf_counter() < deadline:
        cal.append(calibrate())
    return statistics.fmean(cal)


def run_op(workload, i, runner=None):
    """(output, seconds, ok); an exception counts as a failed op."""
    t0 = time.perf_counter()
    try:
        out = workload.op(i) if runner is None else runner(i, workload.op, i)
    except Exception:
        elapsed = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return None, elapsed, False
    elapsed = time.perf_counter() - t0
    try:
        ok = bool(workload.check(i, out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    return out, elapsed, ok


class Digest:
    """sha256 over the canonical outputs of a run's first ops."""

    def __init__(self, ops: int):
        self.ops = ops
        self.hash = hashlib.sha256()
        self.seen = 0

    def add(self, workload, i, out) -> None:
        if i < self.ops:
            text = "<failed>" if out is None else workload.record(i, out)
            self.hash.update(text.encode())
            self.hash.update(b"\n")
            self.seen += 1

    def hexdigest(self):
        return self.hash.hexdigest() if self.seen == self.ops else None


def recorded_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def seed_digest(bobw, name: str, seed: int, scratch: str) -> tuple[str, bool]:
    """Digest and check verdict of the first ops at a seed."""
    workload = WORKLOADS[name](bobw, seed, scratch)
    try:
        digest = Digest(workload.digest_ops)
        ok = True
        for i in range(workload.digest_ops):
            out, _, good = run_op(workload, i)
            ok = ok and good
            digest.add(workload, i, out)
        return digest.hexdigest(), ok
    finally:
        workload.close()


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def local_speeds(starts, latencies, cal_at, cal):
    """Per op, the median calibration time within CAL_REACH_S of the op
    (at least the three nearest units): the machine's speed at the time."""
    speeds = []
    for t0, elapsed in zip(starts, latencies):
        lo = bisect.bisect_left(cal_at, t0 - CAL_REACH_S)
        hi = bisect.bisect_right(cal_at, t0 + elapsed + CAL_REACH_S)
        while hi - lo < min(3, len(cal)):
            if lo > 0 and (hi == len(cal) or t0 - cal_at[lo - 1] < cal_at[hi] - t0 - elapsed):
                lo -= 1
            else:
                hi += 1
        speeds.append(statistics.median(cal[lo:hi]))
    return speeds


def timed_loop(workload, seconds: float):
    """Ops for `seconds`, with a calibration unit every CAL_EVERY_S between
    them and one at the end; returns each op's latency and its latency in
    calibration units."""
    starts, latencies, cal_at, cal = [], [], [], []
    kinds: dict = {}
    failed = 0
    digest = Digest(workload.digest_ops)
    start = time.perf_counter()
    deadline = start + seconds
    next_cal = start
    i = 0
    while True:
        now = time.perf_counter()
        if now >= next_cal or now >= deadline:
            cal_at.append(now)
            cal.append(calibrate())
            next_cal = time.perf_counter() + CAL_EVERY_S
        if now >= deadline:
            break
        starts.append(time.perf_counter())
        out, elapsed, ok = run_op(workload, i)
        latencies.append(elapsed)
        kinds.setdefault(workload.kind(i), []).append(elapsed)
        failed += not ok
        digest.add(workload, i, out)
        i += 1
    wall = time.perf_counter() - start
    speeds = local_speeds(starts, latencies, cal_at, cal)
    units = [t / s for t, s in zip(latencies, speeds)]
    raw = {"op_start_s": [t - start for t in starts], "op_s": latencies, "calibration_at_s": [t - start for t in cal_at]}
    return latencies, units, cal, kinds, failed, digest.hexdigest(), wall, raw


def end_to_end(units, setup_units) -> dict:
    """Times in calibration units, so that the machine's drift cancels;
    set-up time in seconds at the reference speed of the calibration loop."""
    values = {
        "ops_per_cal": len(units) / sum(units),
        "op_p50_cal": quantile(units, 0.5),
        "op_p90_cal": quantile(units, 0.9),
        "setup_s": statistics.median(setup_units) * CAL_REF_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}


def wall_clock(latencies, setup_times, cal) -> dict:
    """The same figures in plain wall-clock time, for the metadata."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": quantile(latencies, 0.5) * 1e3,
        "op_p90_ms": quantile(latencies, 0.9) * 1e3,
        "setup_wall_s": statistics.median(setup_times),
        "calibration_median_s": statistics.median(cal),
    }


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in dict.fromkeys(n for *_, n in tracing.SPANS + tracing.METHOD_SPANS):
        out.append((f"{name}.self_s", "s", "lower"))
        out.append((f"{name}.calls", "count", "lower"))
    for counter in tracing.COUNTERS:
        out.append((counter, "count", "lower"))
    for layer in tracing.LAYERS:
        out.append((f"{layer}.share", "ratio", "lower"))
    for layer in tracing.SETUP_LAYERS:
        out.append((f"setup.{layer}.self_s", "s", "lower"))
    out += [
        ("setup.traced_s", "s", "lower"),
        ("trace.ops", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return out


def traced(bobw, workload, name, seed, scratch):
    """Per-layer metrics over a fixed number of ops; returns the metrics,
    attempted, failed and the digest."""
    tracer = tracing.Tracer(bobw)
    tracer.install()
    workload.close()
    workload = tracer.run_op("setup", WORKLOADS[name], bobw, seed, scratch)
    ops = workload.trace_ops
    digest = Digest(workload.digest_ops)
    failed = 0
    traced_s = untraced_s = 0.0
    try:
        # each op runs traced and, with the wrappers taken out, untraced,
        # alternating which goes first, so that both see the same machine
        # speed
        for i in range(ops):
            for traced_run in ((True, False) if i % 2 == 0 else (False, True)):
                if traced_run:
                    tracer.install()
                else:
                    tracer.uninstall()
                out, elapsed, ok = run_op(workload, i, tracer.run_op if traced_run else None)
                failed += not ok
                if traced_run:
                    traced_s += elapsed
                    digest.add(workload, i, out)
                else:
                    untraced_s += elapsed
    finally:
        tracer.uninstall()
        workload.close()

    self_s, calls, wall = tracer.self_times(set(range(ops)))
    setup_self, _, setup_wall = tracer.self_times({"setup"})
    metrics = {}
    for metric, unit, _ in per_layer_names():
        metrics[metric] = [0, unit]
    for span, seconds in self_s.items():
        if span != tracing.ROOT:
            metrics[f"{span}.self_s"][0] = seconds
            metrics[f"{span}.calls"][0] = calls[span]
    for counter in tracing.COUNTERS:
        metrics[counter][0] = tracer.counters.get(counter, 0)
    for layer in tracing.LAYERS:
        seconds = sum(s for span, s in self_s.items() if span.split(".", 1)[0] == layer)
        metrics[f"{layer}.share"][0] = seconds / wall
    for layer in tracing.SETUP_LAYERS:
        metrics[f"setup.{layer}.self_s"][0] = sum(
            s for span, s in setup_self.items() if span.split(".", 1)[0] == layer
        )
    metrics["setup.traced_s"][0] = setup_wall
    metrics["trace.ops"][0] = ops
    metrics["trace.spans"][0] = sum(calls.values())
    metrics["trace.ops_per_s"][0] = ops / traced_s
    metrics["trace.untraced_ops_per_s"][0] = ops / untraced_s
    metrics["trace.overhead_pct"][0] = (traced_s / untraced_s - 1) * 100

    os.makedirs(RESULTS, exist_ok=True)
    tracer.dump(os.path.join(RESULTS, f"spans-{name}-{seed}.jsonl"))
    return {k: tuple(v) for k, v in metrics.items()}, 2 * ops, failed, digest.hexdigest()


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    name, seed = args.workload, args.seed
    scratch = os.path.join(RESULTS, f"tmp-{os.getpid()}")

    try:
        bobw, workload, setup_times, setup_units = set_up(name, seed, scratch, SETUP_BEFORE)
    except MissingPackage as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    recorded = recorded_digests().get(name, {})
    golden, golden_ok = seed_digest(bobw, name, GOLDEN_SEED, scratch + "-golden")
    golden_ok = golden_ok and golden == recorded.get(str(GOLDEN_SEED))

    if args.trace:
        metrics, attempted, failed, digest = traced(bobw, workload, name, seed, scratch)
        kinds, cal, wall, wall_figures, raw = {}, [], None, {}, {}
    else:
        try:
            latencies, units, cal, kinds, failed, digest, wall, raw = timed_loop(workload, args.seconds)
        finally:
            workload.close()
        # more set-ups after the ops, when the machine's speed may differ
        _, late, more_times, more_units = set_up(name, seed, scratch, SETUP_AFTER)
        late.close()
        setup_times += more_times
        setup_units += more_units
        metrics = end_to_end(units, setup_units)
        wall_figures = wall_clock(latencies, setup_times, cal)
        attempted = len(latencies)
    # a run too short to finish the digest ops relies on the golden check
    digest_ok = digest is None or str(seed) not in recorded or digest == recorded[str(seed)]
    correct = failed == 0 and golden_ok and digest_ok

    meta = {
        "workload": name,
        "seed": seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        **wall_figures,
        "setup_runs_s": setup_times,
        "setup_runs_cal": setup_units,
        "calibration_s": cal,
        "timed_wall_s": wall,
        "ops_by_kind": {k: len(v) for k, v in sorted(kinds.items())},
        "median_ms_by_kind": {k: statistics.median(v) * 1e3 for k, v in sorted(kinds.items())},
        "digest": digest,
        "digest_recorded": recorded.get(str(seed)),
        "golden_digest_ok": golden_ok,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{name}-{seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "raw": raw}, fh)
    print(json.dumps({"meta": {k: v for k, v in meta.items() if k != "calibration_s"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
