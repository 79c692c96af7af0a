"""The four workloads: inputs built at set-up, one op per call, and the check
of every op's output.

Each workload is a class built from ``(bobw, seed, scratch_dir)``; building
it is the workload's set-up.  ``op(i)`` is the timed work of op ``i`` and
calls the package only through module attributes, so the tracer sees every
call.  ``check(i, out)`` runs outside the timed region and returns whether
the output is right.  Where an op's verdict comes from the package's own
audits (``certify``, ``sample``), ``check`` also audits two allocations of
the same instance that fail by construction, and those audits must fail:
an audit that stops doing its work fails the run.  ``record(i, out)`` is the canonical text of an output,
fed to the per-seed digest.  Op ``i`` uses input ``i`` modulo the pool, in a
fixed cycle of sizes and kinds, so every run sees the same mix whatever its
seed.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import gen

_SEED_STRIDE = 0x9E3779B97F4A7C15  # odd, so op seeds never repeat within 2**64 ops


class Workload:
    digest_ops = 8  # the first ops of a run whose outputs form its digest
    trace_ops = 0  # ops of a traced run; fixed so that counters repeat exactly

    def __init__(self, bobw, seed: int, scratch: str):
        self.b = bobw
        self.rng = random.Random(seed)
        self.seed_base = self.rng.getrandbits(64)
        self.scratch = scratch
        self.build()

    def op_seed(self, i: int) -> int:
        return (self.seed_base + i * _SEED_STRIDE) % (1 << 64)

    def close(self) -> None:
        pass


class Certify(Workload):
    """utse -> support audit (EFX, PO) -> exact ex-ante ratio: the work of
    ``bobw solve --algorithm utse``."""

    CYCLE = (
        (8, "lex"), (12, "add"), (8, "add"), (12, "lex"), (8, "lex"), (8, "add"), (12, "lex"), (8, "add"),
        (8, "lex"), (12, "add"), (8, "add"), (12, "lex"), (8, "lex"), (8, "add"), (12, "add"), (8, "lex"),
    )
    POOL = 320
    trace_ops = 32

    def build(self):
        self.insts = []
        for idx in range(self.POOL):
            n, kind = self.CYCLE[idx % len(self.CYCLE)]
            make = gen.lex_instance if kind == "lex" else gen.additive_instance
            self.insts.append(make(self.b, self.rng, n, 2 * n))
        self.controls = [
            [self.b.RandomizedAllocation(((1, alloc),)) for alloc in gen.failing_allocations(self.b, inst)]
            for inst in self.insts
        ]
        self.k = {}

    def kind(self, i):
        n, kind = self.CYCLE[i % len(self.CYCLE)]
        return f"{kind}-{n}x{2 * n}"

    def op(self, i):
        b = self.b
        inst = self.insts[i % self.POOL]
        dist = b.lex_algos.utse(inst)
        dist_json = dist.to_json()
        reports = b.audit.check_support(inst, dist, {"efx": b.audit.check_efx, "po_lex": b.audit.check_po_lex})
        ratio = b.audit.min_exante_ratio(dist, inst)
        return dist_json, reports, ratio

    def check(self, i, out):
        _, reports, ratio = out
        j = i % self.POOL
        if j not in self.k:
            self.k[j] = self.b.eating.summarize(self.b.eating.unit_run(self.insts[j])).k
        k = self.k[j]
        audit = self.b.audit
        checks = {"efx": audit.check_efx, "po_lex": audit.check_po_lex}
        not_efx, not_po = self.controls[j]
        return (
            all(r.passed for r in reports.values())
            and (ratio is None or ratio >= Fraction(3 * k, 3 * k + 1))
            and not audit.check_support(self.insts[j], not_efx, checks)["efx"].passed
            and not audit.check_support(self.insts[j], not_po, checks)["po_lex"].passed
        )

    def record(self, i, out):
        dist_json, reports, ratio = out
        audits = {name: r.to_json() for name, r in reports.items()}
        return json.dumps([dist_json, audits, str(ratio)], sort_keys=True)


class Build(Workload):
    """Lottery construction without audits: utse on 32/64 and the eating
    baseline's decomposition on 16/32 and 20/40.

    In each cycle of eight, the three decompositions at 16/32 hold the
    median and the two at 20/40 the 90th percentile, so neither quantile
    sits on the step between two op kinds.  utse is not run at 48/96: its
    cost there ranges from 180 to 650 ms with the instance, and the few such
    ops a run holds made the run's throughput and 90th percentile depend on
    which instances the seed drew."""

    CYCLE = (("utse", 32), ("bvn", 16), ("utse", 32), ("bvn", 20), ("bvn", 16), ("utse", 32), ("bvn", 16), ("bvn", 20))
    POOL = 192
    digest_ops = 8
    trace_ops = 24

    def build(self):
        self.insts = []
        for idx in range(self.POOL):
            _, n = self.CYCLE[idx % len(self.CYCLE)]
            self.insts.append(gen.lex_instance(self.b, self.rng, n, 2 * n))

    def kind(self, i):
        pipeline, n = self.CYCLE[i % len(self.CYCLE)]
        return f"{pipeline}-{n}x{2 * n}"

    def op(self, i):
        b = self.b
        inst = self.insts[i % self.POOL]
        if self.CYCLE[i % len(self.CYCLE)][0] == "utse":
            return b.lex_algos.utse(inst)
        matrix = b.eating.representative_matrix(b.eating.full_run(inst))
        return matrix, b.rounding.bvn_decompose(matrix)

    def check(self, i, out):
        inst = self.insts[i % self.POOL]
        if isinstance(out, tuple):
            matrix, dec = out
            return dec.reconstruct(len(matrix), len(matrix[0])) == matrix
        # The lottery's marginals must reproduce the eating matrix on every
        # fully eaten good, and every outcome must hand out every good.
        summary = self.b.eating.summarize(self.b.eating.unit_run(inst))
        tail = summary.L | summary.U
        marginals = [[Fraction(0)] * inst.m for _ in range(inst.n)]
        for p, alloc in out.support:
            if alloc.pool or not alloc.is_complete(inst.m):
                return False
            for agent, bundle in enumerate(alloc.bundles):
                for g in bundle - tail:
                    marginals[agent][g] += p
        return all(
            marginals[agent][g] == summary.X[agent][g]
            for agent in range(inst.n)
            for g in range(inst.m)
            if g not in tail
        )

    def record(self, i, out):
        if isinstance(out, tuple):
            return json.dumps(out[1].to_json(), sort_keys=True)
        return json.dumps(out.to_json(), sort_keys=True)


class Sample(Workload):
    """k = 2 sampler draws, each audited for EFX and PO as acceptance
    criterion 6 does, interleaved with dependent rounding of fractional
    matrices.

    A block of 17 ops draws once from each of 12 instances (two per agent
    count) and rounds 5 matrices (one per size), a rounding after every
    second draw; each block has inputs of its own."""

    AGENTS = (6, 8, 10, 12, 14, 16)
    SIZES = (8, 12, 16, 20, 24)
    BLOCKS = 10
    digest_ops = 17
    trace_ops = 400

    def build(self):
        b = self.b
        self.insts, self.samplers, self.controls, self.matrices, self.column_sums = [], [], [], [], []
        self.cycle = []
        for _ in range(self.BLOCKS):
            for size in self.SIZES:
                matrix = gen.stochastic_matrix(self.rng, size, 4)
                self.matrices.append(matrix)
                self.column_sums.append([sum(col) for col in zip(*matrix)])
            for k in range(2 * len(self.AGENTS)):
                inst = gen.k2_instance(b, self.rng, self.AGENTS[k % len(self.AGENTS)], self.AGENTS[k % len(self.AGENTS)] + 2)
                self.cycle.append(("draw", len(self.insts)))
                self.insts.append(inst)
                self.samplers.append(b.lex_algos.k2_sampler(inst))
                self.controls.append(gen.failing_allocations(b, inst))
                if k % 2 == 1 and k // 2 < len(self.SIZES):
                    self.cycle.append(("round", len(self.matrices) - len(self.SIZES) + k // 2))

    def kind(self, i):
        kind, j = self.cycle[i % len(self.cycle)]
        if kind == "draw":
            return f"draw-n{self.insts[j].n}"
        return f"round-{len(self.matrices[j])}"

    def op(self, i):
        b = self.b
        kind, j = self.cycle[i % len(self.cycle)]
        if kind == "round":
            return b.rounding.dependent_round(self.matrices[j], self.op_seed(i))
        inst = self.insts[j]
        alloc = self.samplers[j](self.op_seed(i))
        return alloc, b.audit.check_efx(inst, alloc), b.audit.check_po_lex(inst, alloc)

    def check(self, i, out):
        kind, j = self.cycle[i % len(self.cycle)]
        if kind == "draw":
            alloc, efx, po = out
            inst, (not_efx, not_po) = self.insts[j], self.controls[j]
            audit = self.b.audit
            return (
                efx.passed
                and po.passed
                and alloc.is_complete(inst.m)
                and not audit.check_efx(inst, not_efx).passed
                and not audit.check_po_lex(inst, not_po).passed
            )
        matrix = self.matrices[j]
        if [sum(col) for col in zip(*out)] != self.column_sums[j]:
            return False
        for row, frac in zip(out, matrix):
            for x, f in zip(row, frac):
                if x not in (0, 1) or (x == 1 and f == 0) or (x == 0 and f == 1):
                    return False
        return True

    def record(self, i, out):
        if self.cycle[i % len(self.cycle)][0] == "draw":
            return json.dumps([part.to_json() for part in out], sort_keys=True)
        return json.dumps(out)


class Charity(Workload):
    """Table instances through in-process ``bobw.cli.main``: ``solve
    --algorithm charity`` on n/m 3/8, 4/10 and 5/12, and ``oracle --op
    exact-charity`` on 3/6.  Instances reach the CLI as JSON files written
    at set-up; each copy of the 7-op cycle has files of its own, and the
    oracle's table alternates between the two kinds from copy to copy.

    ``bounded-charity`` is left out: on about 1 in 300 (instance, seed)
    pairs its result fails the CLI's own bounded-charity audit (exit 2), on
    monotone and capped-additive tables alike."""

    SOLVE = ((3, 8), (4, 10), (5, 12))
    ORACLE = (3, 6)
    COPIES = 8
    digest_ops = 14
    trace_ops = 120

    def build(self):
        os.makedirs(self.scratch, exist_ok=True)
        self.cycle = []
        for copy in range(self.COPIES):
            for n, m in self.SOLVE:
                for capped in (False, True):
                    self.cycle.append(("solve", self._write(n, m, capped), "charity", f"{n}x{m}"))
            n, m = self.ORACLE
            self.cycle.append(("oracle", self._write(n, m, copy % 2 == 1), "exact-charity", f"{n}x{m}"))
        self.out_path = os.path.join(self.scratch, "out.json")

    def _write(self, n, m, capped):
        path = os.path.join(self.scratch, f"inst-{len(self.cycle)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(gen.table_instance_json(self.rng, n, m, capped), fh)
        return path

    def _argv(self, i):
        kind, path, algorithm, _ = self.cycle[i % len(self.cycle)]
        if kind == "solve":
            return ["solve", path, "--algorithm", algorithm, "--seed", str(self.op_seed(i)), "-o", self.out_path]
        return ["oracle", path, "--op", algorithm, "-o", self.out_path]

    def kind(self, i):
        kind, _, algorithm, size = self.cycle[i % len(self.cycle)]
        return f"{kind}-{algorithm}-{size}"

    def op(self, i):
        return self.b.cli.main(self._argv(i))

    def check(self, i, out):
        self.last_output = ""
        if out != 0:
            return False
        with open(self.out_path, encoding="utf-8") as fh:
            self.last_output = fh.read()
        flags = []
        _collect_passed(json.loads(self.last_output), flags)
        return bool(flags) and all(flag is True for flag in flags)

    def record(self, i, out):
        return f"{out}\n{self.last_output}"

    def close(self):
        for name in os.listdir(self.scratch):
            os.remove(os.path.join(self.scratch, name))
        os.rmdir(self.scratch)


def _collect_passed(node, flags):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "passed":
                flags.append(value)
            else:
                _collect_passed(value, flags)
    elif isinstance(node, list):
        for value in node:
            _collect_passed(value, flags)


WORKLOADS = {"certify": Certify, "build": Build, "sample": Sample, "charity": Charity}
