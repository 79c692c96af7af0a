#!/usr/bin/env python3
"""Record the output digests that every later run is compared against.

    python3 perfbench/record.py            # seeds 0-40, every workload
    python3 perfbench/record.py --seeds 0-5 --workload sample

For each workload and seed it builds the inputs, runs the workload's first
``digest_ops`` ops, checks every output and stores the sha256 of their
canonical text in ``perfbench/digests.json``.  Run it only on a commit
whose outputs are known to be right: a later commit that changes any
seeded output then fails the benchmark's correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from selfcheck import parse_seeds  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=",".join(sorted(run.WORKLOADS)))
    ap.add_argument("--seeds", default="0-40")
    args = ap.parse_args()
    digests = run.recorded_digests()
    bobw = run.import_bobw()
    scratch = os.path.join(run.RESULTS, f"tmp-{os.getpid()}")
    for name in args.workload.split(","):
        table = digests.setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            digest, ok = run.seed_digest(bobw, name, seed, scratch)
            if not ok or digest is None:
                raise SystemExit(f"{name} seed {seed}: an output failed its check; nothing recorded")
            table[str(seed)] = digest
        print(name, "recorded", len(table), "seeds", flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
