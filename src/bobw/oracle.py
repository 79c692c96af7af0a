"""Independent ground-truth references: brute-force enumeration, exact linear
feasibility, exact branch distributions, and seeded Monte Carlo estimation.

Everything here is deliberately simple and exhaustive; these routines exist
to check the fast constructions, not to be fast themselves.  The linear
feasibility solver is a textbook Fourier-Motzkin elimination over exact
rationals that keeps full provenance, so an infeasible system yields a
replayable chain of combinations ending in an impossible constant
inequality, and a feasible one yields explicit witness weights.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .audit import check_efx, check_sdef, enviers_of_set
from .charity_algos import (
    SwapStep,
    SwapTrace,
    _apply_swap,
    bounded_charity,
    empty_start,
    minimal_envied_subset,
    require_monotone_integer,
)
from .core import (
    Instance,
    IntegralAllocation,
    PreconditionError,
    RandomizedAllocation,
    ResourceCapError,
    format_rational,
    value_of,
)
from .eating import ordinal_rankings
from .rng import derive_seed

ENUMERATION_CAP = 10**7
SDEF_SUPPORT_CAP = 12
DEFAULT_LEAF_CAP = 10**6


# ---------------------------------------------------------------------------
# brute-force EFX enumeration


def enumerate_efx(inst: Instance) -> tuple[IntegralAllocation, ...]:
    """All complete (pool-free) EFX allocations, in canonical order of the
    good -> agent assignment vector."""
    if inst.n**inst.m > ENUMERATION_CAP:
        raise ResourceCapError(
            f"{inst.n}^{inst.m} assignments exceed the enumeration cap {ENUMERATION_CAP}"
        )
    out = []
    assignment = [0] * inst.m
    while True:
        bundles = [set() for _ in inst.agents]
        for g, i in enumerate(assignment):
            bundles[i].add(g)
        alloc = IntegralAllocation(bundles=tuple(frozenset(b) for b in bundles))
        if check_efx(inst, alloc).passed:
            out.append(alloc)
        # increment the base-n counter
        pos = inst.m - 1
        while pos >= 0 and assignment[pos] == inst.n - 1:
            assignment[pos] = 0
            pos -= 1
        if pos < 0:
            return tuple(out)
        assignment[pos] += 1


# ---------------------------------------------------------------------------
# exact feasibility of prefix-dominance mixtures


@dataclass(frozen=True)
class _Constraint:
    coeffs: tuple[int, ...]  # integer coefficients over the free weights
    const: int  # c . x + const >= 0
    cid: int

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coeffs) and self.const >= 0

    def is_contradiction(self) -> bool:
        return all(c == 0 for c in self.coeffs) and self.const < 0


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    weights: Optional[tuple[Fraction, ...]] = None
    certificate: Optional[dict] = None

    def to_json(self) -> dict:
        out: dict = {"feasible": self.feasible}
        if self.weights is not None:
            out["weights"] = [format_rational(w) for w in self.weights]
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def _normalize(coeffs: Sequence[int], const: int) -> tuple[tuple[int, ...], int]:
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    g = math.gcd(g, abs(const))
    if g > 1:
        return tuple(c // g for c in coeffs), const // g
    return tuple(coeffs), const


def sdef_feasibility(
    inst: Instance, supports: Sequence[IntegralAllocation]
) -> FeasibilityResult:
    """Can a lottery over `supports` be prefix-dominance envy-free for every
    pair?  Exact rational elimination; feasible gives verified witness
    weights, infeasible gives the combination chain ending in an impossible
    constant constraint."""
    q = len(supports)
    if q == 0:
        raise PreconditionError("need at least one support allocation")
    if q > SDEF_SUPPORT_CAP:
        raise ResourceCapError(f"feasibility capped at {SDEF_SUPPORT_CAP} support allocations")
    rankings = ordinal_rankings(inst)

    # prefix counts: pc[l][i][j][t] = |A^l_j  intersect  top-(t+1) of i's order|
    def prefix_counts(alloc: IntegralAllocation, i: int, j: int) -> list[int]:
        got = 0
        out = []
        bundle = alloc.bundles[j]
        for g in rankings[i]:
            if g in bundle:
                got += 1
            out.append(got)
        return out

    labels: dict[int, str] = {}
    constraints: list[_Constraint] = []
    steps: list[dict] = []
    next_id = 0

    def add(coeffs: Sequence[int], const: int, label: str) -> None:
        nonlocal next_id
        cs, c0 = _normalize(coeffs, const)
        con = _Constraint(coeffs=cs, const=c0, cid=next_id)
        labels[next_id] = label
        next_id += 1
        constraints.append(con)

    # last weight is 1 - sum(others); q-1 free variables remain
    for l in range(q - 1):
        coeffs = [0] * (q - 1)
        coeffs[l] = 1
        add(coeffs, 0, f"weight[{l}] >= 0")
    add([-1] * (q - 1), 1, f"weight[{q - 1}] >= 0")

    for i in inst.agents:
        for j in inst.agents:
            if i == j:
                continue
            own = [prefix_counts(a, i, i) for a in supports]
            other = [prefix_counts(a, i, j) for a in supports]
            for t in range(inst.m):
                deltas = [own[l][t] - other[l][t] for l in range(q)]
                coeffs = [deltas[l] - deltas[q - 1] for l in range(q - 1)]
                const = deltas[q - 1]
                if all(c == 0 for c in coeffs) and const >= 0:
                    continue  # trivially satisfied
                add(coeffs, const, f"agent {i} vs {j}, top-{t + 1} prefix")

    # Fourier-Motzkin elimination, ascending variable order; keep each
    # intermediate stage for back-substitution.
    stages: list[list[_Constraint]] = [list(constraints)]
    system = list(constraints)
    num_vars = q - 1
    for var in range(num_vars):
        pos = [c for c in system if c.coeffs[var] > 0]
        neg = [c for c in system if c.coeffs[var] < 0]
        rest = [c for c in system if c.coeffs[var] == 0]
        derived: list[_Constraint] = []
        seen: dict[tuple, int] = {}
        for p in pos:
            for ng in neg:
                a, b = p.coeffs[var], -ng.coeffs[var]
                coeffs = [b * pc + a * nc for pc, nc in zip(p.coeffs, ng.coeffs)]
                const = b * p.const + a * ng.const
                cs, c0 = _normalize(coeffs, const)
                assert cs[var] == 0
                key = (cs, c0)
                if key in seen:
                    continue
                con = _Constraint(coeffs=cs, const=c0, cid=len(labels))
                labels[con.cid] = f"eliminate x{var}: combine #{p.cid} with #{ng.cid}"
                steps.append(
                    {"derived": con.cid, "from": [p.cid, ng.cid], "eliminated": var}
                )
                seen[key] = con.cid
                if con.is_contradiction():
                    chain = _certificate_chain(con.cid, steps, labels)
                    return FeasibilityResult(feasible=False, certificate=chain)
                if not con.is_trivial():
                    derived.append(con)
        system = rest + derived
        stages.append(list(system))

    for con in system:
        if con.is_contradiction():  # q == 1 or leftover constants
            chain = _certificate_chain(con.cid, steps, labels)
            return FeasibilityResult(feasible=False, certificate=chain)

    # feasible: back-substitute stage by stage, innermost variable first
    values: list[Optional[Fraction]] = [None] * num_vars
    for var in range(num_vars - 1, -1, -1):
        lowers: list[Fraction] = []
        uppers: list[Fraction] = []
        for con in stages[var]:
            cv = con.coeffs[var]
            if cv == 0:
                continue
            rest_val = Fraction(con.const)
            for v2 in range(var + 1, num_vars):
                rest_val += con.coeffs[v2] * values[v2]
            bound = -rest_val / cv
            if cv > 0:
                lowers.append(bound)
            else:
                uppers.append(bound)
        lo = max(lowers) if lowers else Fraction(0)
        hi = min(uppers) if uppers else lo
        if lo > hi:  # pragma: no cover - elimination guarantees consistency
            raise AssertionError("back-substitution found an empty interval")
        values[var] = (lo + hi) / 2
    weights = tuple(values) + (1 - sum(values, start=Fraction(0)),)

    # verify the witness before handing it out
    if any(w < 0 for w in weights) or sum(weights) != 1:  # pragma: no cover
        raise AssertionError("witness weights are not a distribution")
    mix = [[Fraction(0)] * inst.m for _ in inst.agents]
    for w, alloc in zip(weights, supports):
        for i, bundle in enumerate(alloc.bundles):
            for g in bundle:
                mix[i][g] += w
    verdict = check_sdef(mix, rankings)
    if not verdict.passed:  # pragma: no cover
        raise AssertionError(f"witness mixture fails the dominance check: {verdict.witness}")
    return FeasibilityResult(feasible=True, weights=weights)


def _certificate_chain(cid: int, steps: list[dict], labels: dict[int, str]) -> dict:
    """Original constraints and combination steps that feed the contradiction."""
    by_derived = {s["derived"]: s for s in steps}
    needed_steps = []
    leaves = set()
    stack = [cid]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        if cur in by_derived:
            step = by_derived[cur]
            needed_steps.append(step)
            stack.extend(step["from"])
        else:
            leaves.add(cur)
    needed_steps.sort(key=lambda s: s["derived"])
    return {
        "contradiction": cid,
        "constraints": [{"id": c, "label": labels[c]} for c in sorted(leaves)],
        "steps": needed_steps,
    }


# ---------------------------------------------------------------------------
# exact distribution of the pool-swap samplers


def iter_charity_branches(
    inst: Instance, leaf_cap: int = DEFAULT_LEAF_CAP
) -> Iterator[tuple[Fraction, IntegralAllocation, SwapTrace]]:
    """Depth-first enumeration of every run of the uniform pool-swap loop;
    yields (path probability, final allocation, trace)."""
    if leaf_cap < 0:
        raise PreconditionError(f"leaf cap must be non-negative, got {leaf_cap}")
    require_monotone_integer(inst)
    count = 0

    def walk(alloc, prob, steps):
        nonlocal count
        subset = minimal_envied_subset(inst, alloc)
        if subset is None:
            count += 1
            if count > leaf_cap:
                raise ResourceCapError(f"branch enumeration exceeded {leaf_cap} leaves")
            yield prob, alloc, SwapTrace(steps=tuple(steps))
            return
        enviers = tuple(enviers_of_set(inst, alloc, subset))
        share = prob / len(enviers)
        for k in enviers:
            steps.append(SwapStep(subset=subset, enviers=enviers, chosen=k))
            yield from walk(_apply_swap(alloc, subset, k), share, steps)
            steps.pop()

    yield from walk(empty_start(inst), Fraction(1), [])


def exact_distribution_charity(
    inst: Instance, algorithm: int = 3, leaf_cap: int = DEFAULT_LEAF_CAP
) -> RandomizedAllocation:
    """Exact output lottery of the randomized pool-swap loop (algorithm=3),
    optionally followed by the deterministic pool-shrinking pass
    (algorithm=4).  Duplicate outcomes are merged; nothing else is."""
    if algorithm not in (3, 4):
        raise PreconditionError("algorithm must be 3 (swap loop) or 4 (with pool shrinking)")
    pairs = []
    for prob, alloc, _ in iter_charity_branches(inst, leaf_cap):
        if algorithm == 4:
            alloc = bounded_charity(inst, alloc)
        pairs.append((prob, alloc))
    return RandomizedAllocation.merged(pairs)


# ---------------------------------------------------------------------------
# seeded Monte Carlo estimation


@dataclass(frozen=True)
class EstimateResult:
    mean: float
    stderr: float
    ci_low: float
    ci_high: float
    n: int

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "ci99_7": [self.ci_low, self.ci_high],
            "n": self.n,
        }


def estimate(
    sampler: Callable[[int], object],
    statistic: Callable[[object], float],
    n_samples: int,
    seed: int,
) -> EstimateResult:
    """Mean of `statistic` over n_samples independent replicas, each drawn
    with a seed derived from (seed, replica index); three-sigma interval."""
    if n_samples < 1000:
        raise PreconditionError("estimates need at least 1000 samples")
    values = [float(statistic(sampler(derive_seed(seed, r)))) for r in range(n_samples)]
    mean = statistics.fmean(values)
    sd = statistics.stdev(values)
    se = sd / math.sqrt(n_samples)
    return EstimateResult(
        mean=mean, stderr=se, ci_low=mean - 3 * se, ci_high=mean + 3 * se, n=n_samples
    )


def ratio_table(
    inst: Instance,
    sampler: Callable[[int], IntegralAllocation],
    n_samples: int,
    seed: int,
) -> list[dict]:
    """Monte Carlo envy ratios: for every ordered pair (i, j), i != j, agent
    i's mean value for its own bundle over its mean value for j's bundle,
    over n_samples draws seeded derive_seed(seed, r).  Each ratio carries a
    first-order (delta-method) standard error, which accounts for the two
    means being correlated, and a three-sigma interval.  The ratio is None
    where the mean value of j's bundle is 0."""
    n, N = inst.n, n_samples
    own = [[0.0] * n for _ in range(n)]  # own[i][j] accumulates v_i(X_j)
    sq = [[0.0] * n for _ in range(n)]
    cross = [[0.0] * n for _ in range(n)]  # v_i(X_i) * v_i(X_j) per pair
    for r in range(N):
        alloc = sampler(derive_seed(seed, r))
        vals = [[float(value_of(inst, i, alloc.bundles[j])) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                own[i][j] += vals[i][j]
                sq[i][j] += vals[i][j] ** 2
                if j != i:
                    cross[i][j] += vals[i][i] * vals[i][j]

    pairs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            mi = own[i][i] / N
            mj = own[i][j] / N
            if mj == 0.0:
                pairs.append({"pair": [i, j], "own_mean": mi, "other_mean": mj, "ratio": None})
                continue
            var_i = sq[i][i] / N - mi * mi
            var_j = sq[i][j] / N - mj * mj
            cov = cross[i][j] / N - mi * mj
            ratio = mi / mj
            var_r = (
                var_i / (mj * mj)
                + (mi * mi) * var_j / (mj**4)
                - 2 * mi * cov / (mj**3)
            ) / N
            se = math.sqrt(max(var_r, 0.0))
            pairs.append(
                {
                    "pair": [i, j],
                    "own_mean": mi,
                    "other_mean": mj,
                    "ratio": ratio,
                    "stderr": se,
                    "ci99_7": [ratio - 3 * se, ratio + 3 * se],
                }
            )
    return pairs
