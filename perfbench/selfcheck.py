#!/usr/bin/env python3
"""Checks of the benchmark itself, run from the root of a checkout.

    python3 perfbench/selfcheck.py spread --workload sample --seeds 1-10
    python3 perfbench/selfcheck.py trace --seed 3
    python3 perfbench/selfcheck.py names

``spread`` runs the untraced benchmark once per seed and prints, for every
end-to-end metric, the median and the quartile spread (Q3 - Q1 over the
median, quartiles as ``statistics.quantiles(values, n=4)`` gives them),
next to a third of the metric's bound from BENCHMARK.json.  Runs last
BENCHMARK.json's ``run_seconds``.

``trace`` runs every workload traced twice at one seed.  It requires the
exact counters (``*.calls``, value calls, pivots, terms, swap steps, ...)
to be identical across the two runs, the layer shares to add up to one
(every op is a root span and spans must nest, so this fails only if a span
belongs to no layer in ``tracer.LAYERS``), and each workload's intended hot
layers to lead.

``names`` checks that BENCHMARK.json lists exactly the metrics a run
reports.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

EXACT_SUFFIXES = (".calls", "_calls", ".events", ".pivots", ".bvn_terms", ".swap_steps", ".support_size")

# workload -> (layers that must lead together, layers that must be absent)
HOT = {
    "certify": (("audit",), ()),
    "build": (("eating", "rounding", "lex_algos"), ("audit",)),
    "sample": (("rounding",), ()),
    "charity": (("cli", "core", "charity_algos"), ()),
}


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{done.stdout}\n{done.stderr}")
    return result


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cmd_spread(args) -> int:
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload.split(","):
        values: dict = {}
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, 0, spec["run_seconds"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            limit = bounds[name] / 3
            flag = "ok" if spread < limit else "WIDE"
            ok = ok and flag == "ok"
            print(f"  {workload:8s} {name:12s} median {q2:12.4f}  spread {spread:7.4f}  bound/3 {limit:.4f}  {flag}")
    return 0 if ok else 1


def cmd_trace(args) -> int:
    ok = True
    for workload in args.workload.split(","):
        first = run_once(workload, args.seed, 1, 1)["metrics"]
        second = run_once(workload, args.seed, 1, 1)["metrics"]
        exact = [k for k in first if k.endswith(EXACT_SUFFIXES)]
        differ = [k for k in exact if first[k]["value"] != second[k]["value"]]
        shares = {k[: -len(".share")]: v["value"] for k, v in first.items() if k.endswith(".share")}
        total = sum(shares.values())
        lead, absent = HOT[workload]
        others = [v for layer, v in shares.items() if layer not in lead and layer != "bench"]
        leads = sum(shares[layer] for layer in lead) > max(others)
        missing = [layer for layer in absent if shares[layer] != 0]
        print(f"{workload}: {len(exact)} exact counters, {len(differ)} differ {differ}")
        print(f"  shares {json.dumps({k: round(v, 4) for k, v in shares.items()})} sum {total:.12f}")
        print(f"  overhead {first['trace.overhead_pct']['value']:.1f}% ; {'+'.join(lead)} lead: {leads} ; absent {absent}: {not missing}")
        ok = ok and not differ and abs(total - 1) < 1e-9 and leads and not missing
    return 0 if ok else 1


def cmd_names(args) -> int:
    spec = benchmark_spec()
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    ok = listed == run.per_layer_names()
    e2e = {m["name"] for m in spec["end_to_end"]}
    ok = ok and e2e == set(run.END_TO_END)
    print("names match" if ok else "BENCHMARK.json and run.py disagree")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", default="certify,build,sample,charity")
    p.add_argument("--seeds", default="1-10")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("trace")
    p.add_argument("--workload", default="certify,build,sample,charity")
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(fn=cmd_trace)
    p = sub.add_parser("names")
    p.set_defaults(fn=cmd_names)
    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
