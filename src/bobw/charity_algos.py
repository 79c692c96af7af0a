"""Envy-bounded allocation with a donation pool, for monotone integer
valuations of any shape.

The randomized core loop: while some agent envies the pool, carve out the
canonical minimal envied subset of the pool, hand it to an envier chosen
uniformly at random, and return that agent's old bundle to the pool.  Every
bundle anyone holds was a minimal envied set at the moment it was assigned,
which is exactly why the final allocation is EFX and nobody envies what is
left in the pool.  The uniform choice is what buys the distributional
guarantee: each agent ends at least half as likely as any other agent to
clear any fixed value threshold.

The deterministic post-pass shrinks the pool below the number of unenvied
agents: resolve envy cycles by rotating bundles, then grow unenvied agents'
bundles one pool good at a time while EFX survives; when no growth step
survives, a single swap reshuffles the offending bundle and the loop
restarts.  A step cap (pseudopolynomial in the total integer value) bounds
the restarts; exhausting it raises a diagnostic error rather than looping
silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .audit import check_efx, check_efx_with_charity, enviers_of_set, envy_edges, unenvied_agents
from .core import (
    Instance,
    IntegralAllocation,
    PreconditionError,
    ResourceCapError,
    value_of,
)
from .rng import SplitMix64


def require_monotone_integer(inst: Instance) -> None:
    """The pool-swap algorithms need monotone valuations (Chaudhury, Kavitha,
    Mehlhorn, Sgouritsa, SODA 2020) and, being pseudopolynomial in the summed
    values, non-negative integers; each valuation caches its verdict."""
    for i, val in enumerate(inst.valuations):
        if val.monotone_integer_error:
            raise PreconditionError(f"agent {i}: {val.monotone_integer_error}")


# ---------------------------------------------------------------------------
# minimal envied subsets


def minimal_envied_subset(
    inst: Instance, alloc: IntegralAllocation, goods: Optional[frozenset[int]] = None
) -> Optional[frozenset[int]]:
    """Canonical inclusion-minimal subset of `goods` (default: the pool) that
    some agent strictly prefers to its own bundle; None if nobody envies the
    whole set.

    One ascending-index sweep suffices: drop a good whenever the remainder is
    still envied.  A good that could not be dropped earlier never becomes
    droppable (shrinking the set only shrinks its subsets' values), so the
    sweep ends inclusion-minimal, and by monotonicity single-good minimality
    implies no proper subset is envied at all.
    """
    z = set(alloc.pool if goods is None else goods)
    if not enviers_of_set(inst, alloc, z):
        return None
    for g in sorted(z):
        without = z - {g}
        if enviers_of_set(inst, alloc, without):
            z = without
    return frozenset(z)


# ---------------------------------------------------------------------------
# the randomized pool-swap loop


@dataclass(frozen=True)
class SwapStep:
    subset: frozenset[int]
    enviers: tuple[int, ...]
    chosen: int


@dataclass(frozen=True)
class SwapTrace:
    steps: tuple[SwapStep, ...]

    def to_json(self) -> dict:
        return {
            "steps": [
                {"subset": sorted(s.subset), "enviers": list(s.enviers), "chosen": s.chosen}
                for s in self.steps
            ]
        }


def empty_start(inst: Instance) -> IntegralAllocation:
    return IntegralAllocation(
        bundles=tuple(frozenset() for _ in inst.agents), pool=frozenset(range(inst.m))
    )


def random_charity_swap(
    inst: Instance, seed: int, start: Optional[IntegralAllocation] = None
) -> tuple[IntegralAllocation, SwapTrace]:
    """Run the uniform-envier pool-swap loop from `start` (default: all goods
    pooled) until no agent envies the pool."""
    require_monotone_integer(inst)
    alloc = empty_start(inst) if start is None else start
    rng = SplitMix64(seed)
    steps = []
    while True:
        subset = minimal_envied_subset(inst, alloc)
        if subset is None:
            break
        enviers = tuple(enviers_of_set(inst, alloc, subset))  # ascending agent ids
        chosen = enviers[rng.below(len(enviers))]
        steps.append(SwapStep(subset=subset, enviers=enviers, chosen=chosen))
        alloc = _apply_swap(alloc, subset, chosen)
    outcome = check_efx_with_charity(inst, alloc)
    if not outcome.passed:  # pragma: no cover - the loop's exit guarantees this
        raise AssertionError(f"pool-swap loop ended without its guarantee: {outcome.witness}")
    return alloc, SwapTrace(steps=tuple(steps))


def _apply_swap(alloc: IntegralAllocation, subset: frozenset[int], chosen: int) -> IntegralAllocation:
    bundles = list(alloc.bundles)
    pool = (alloc.pool - subset) | bundles[chosen]
    bundles[chosen] = subset
    return IntegralAllocation(bundles=tuple(bundles), pool=pool)


def _utility_sum(inst: Instance, alloc: IntegralAllocation) -> Fraction:
    return sum(
        (value_of(inst, i, alloc.bundles[i]) for i in inst.agents), start=Fraction(0)
    )


def replay_swap_trace(
    inst: Instance, trace: SwapTrace, start: Optional[IntegralAllocation] = None
) -> IntegralAllocation:
    """Re-apply a recorded trace; validates each step's subset and enviers,
    and that the chosen agent's gain raises the utility sum every step."""
    alloc = empty_start(inst) if start is None else start
    for idx, step in enumerate(trace.steps):
        expect = minimal_envied_subset(inst, alloc)
        if expect != step.subset:
            raise PreconditionError(f"step {idx}: recorded subset diverges from the canonical one")
        enviers = tuple(enviers_of_set(inst, alloc, step.subset))
        if enviers != step.enviers or step.chosen not in enviers:
            raise PreconditionError(f"step {idx}: recorded enviers diverge")
        before = _utility_sum(inst, alloc)
        alloc = _apply_swap(alloc, step.subset, step.chosen)
        if _utility_sum(inst, alloc) <= before:
            raise AssertionError(f"step {idx}: swap did not raise the utility sum")
    return alloc


# ---------------------------------------------------------------------------
# envy-cycle rotation


def _find_cycle(edges: dict[int, list[int]], n: int) -> Optional[list[int]]:
    """Lowest-index-first DFS; returns one directed cycle as an agent list."""
    color = [0] * n  # 0 new, 1 on stack, 2 done
    parent: dict[int, int] = {}

    def dfs(v: int) -> Optional[list[int]]:
        color[v] = 1
        for w in edges.get(v, ()):
            if color[w] == 1:
                # back edge: walk parents from v up to w, then flip forward
                chain = [w]
                cur = v
                while cur != w:
                    chain.append(cur)
                    cur = parent[cur]
                chain.reverse()
                return chain
            if color[w] == 0:
                parent[w] = v
                found = dfs(w)
                if found is not None:
                    return found
        color[v] = 2
        return None

    for v in range(n):
        if color[v] == 0:
            found = dfs(v)
            if found is not None:
                return found
    return None


def resolve_envy_cycles(inst: Instance, alloc: IntegralAllocation) -> IntegralAllocation:
    """Rotate bundles along envy cycles until the envy graph is acyclic.
    Every agent ends at least as happy; cycle members strictly gain."""
    while True:
        cycle = _find_cycle(envy_edges(inst, alloc), inst.n)
        if cycle is None:
            return alloc
        alloc = _rotate(alloc, cycle)


def _rotate(alloc: IntegralAllocation, cycle: list[int]) -> IntegralAllocation:
    bundles = list(alloc.bundles)
    old = [bundles[a] for a in cycle]
    t = len(cycle)
    for idx, a in enumerate(cycle):
        bundles[a] = old[(idx + 1) % t]
    return IntegralAllocation(bundles=tuple(bundles), pool=alloc.pool)


# ---------------------------------------------------------------------------
# shrinking the pool below the number of unenvied agents


def default_step_cap(inst: Instance) -> int:
    total = sum(
        (value_of(inst, i, frozenset(range(inst.m))) for i in inst.agents), start=Fraction(0)
    )
    return inst.n * inst.m * (1 + int(total))


def bounded_charity(
    inst: Instance, start: IntegralAllocation, step_cap: Optional[int] = None
) -> IntegralAllocation:
    """Deterministic post-pass: from an EFX allocation that nobody envies the
    pool of, reach one that additionally parks fewer goods than there are
    unenvied agents.  Raises ResourceCapError (with state attached) if the
    step cap is exhausted."""
    if step_cap is not None and step_cap < 0:
        raise PreconditionError(f"step cap must be non-negative, got {step_cap}")
    require_monotone_integer(inst)
    pre = check_efx_with_charity(inst, start)
    if not pre.passed:
        raise PreconditionError(f"start must be EFX with an unenvied pool: {pre.witness}")
    cap = default_step_cap(inst) if step_cap is None else step_cap
    stats = {"phase_a": 0, "phase_b": 0, "phase_c_commits": 0, "phase_c_swaps": 0}
    alloc = start
    spent = 0

    def spend():
        nonlocal spent
        spent += 1
        if spent > cap:
            err = ResourceCapError(f"step cap {cap} exhausted; stats {stats}")
            err.allocation = alloc  # diagnostic payload
            err.stats = dict(stats)
            raise err

    while True:
        # Phase A: hand envied pool subsets to the smallest-index envier.
        while True:
            subset = minimal_envied_subset(inst, alloc)
            if subset is None:
                break
            chosen = enviers_of_set(inst, alloc, subset)[0]
            before = _utility_sum(inst, alloc)
            alloc = _apply_swap(alloc, subset, chosen)
            assert _utility_sum(inst, alloc) > before
            stats["phase_a"] += 1
            spend()

        # Phase B: rotate envy cycles away (own utilities only rise, so pool
        # envy cannot reappear here).
        while True:
            cycle = _find_cycle(envy_edges(inst, alloc), inst.n)
            if cycle is None:
                break
            before = _utility_sum(inst, alloc)
            alloc = _rotate(alloc, cycle)
            assert _utility_sum(inst, alloc) > before
            stats["phase_b"] += 1
            spend()

        sources = unenvied_agents(inst, alloc)
        if not sources:  # pragma: no cover - acyclic envy graphs have sources
            raise AssertionError("no unenvied agent after cycle resolution")
        if len(alloc.pool) < len(sources):
            return alloc

        # Phase C: grow an unenvied agent's bundle by one pool good if EFX
        # survives; otherwise reshuffle around the first offending pair.
        committed = False
        for i in sources:
            for g in sorted(alloc.pool):
                candidate = _commit(alloc, i, g)
                if check_efx(inst, candidate).passed:
                    # a commit shrinks the pool and (monotonicity) cannot
                    # lower anyone's utility
                    assert len(candidate.pool) < len(alloc.pool)
                    assert _utility_sum(inst, candidate) >= _utility_sum(inst, alloc)
                    alloc = candidate
                    stats["phase_c_commits"] += 1
                    spend()
                    committed = True
                    break
            if committed:
                break
        if not committed:
            i = sources[0]
            g = min(alloc.pool)
            grown = alloc.bundles[i] | {g}
            subset = minimal_envied_subset(inst, alloc, goods=grown)
            if subset is None:  # pragma: no cover - a failed commit implies envy
                raise AssertionError("EFX failed for every commit yet nothing envies the grown bundle")
            h = enviers_of_set(inst, alloc, subset)[0]
            bundles = list(alloc.bundles)
            displaced = (grown | bundles[h]) - subset
            pool = (alloc.pool - {g}) | displaced
            bundles[i] = frozenset()
            bundles[h] = subset
            alloc = IntegralAllocation(bundles=tuple(bundles), pool=pool)
            stats["phase_c_swaps"] += 1
            spend()


def _commit(alloc: IntegralAllocation, agent: int, good: int) -> IntegralAllocation:
    bundles = list(alloc.bundles)
    bundles[agent] = bundles[agent] | {good}
    return IntegralAllocation(bundles=tuple(bundles), pool=alloc.pool - {good})
