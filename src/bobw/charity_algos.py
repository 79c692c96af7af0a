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

One routine, `_envied_subset`, finds that step's subset and enviers on
bitmasks: it reads each agent's own value once per step and each
candidate's value once per agent, a table by one lookup of `weights[mask]`
and per-good weights by a sum over the mask's bits.  The sampler, the
trace replay, `oracle`'s exact walk over swap-loop states and the post-pass
all carry (bundle masks, pool mask) and build sets only for the trace's
subsets and the allocations they return; `minimal_envied_subset`, the
set-valued entry point to `_envied_subset`, is kept for perfbench's tracer.

The deterministic post-pass shrinks the pool below the number of unenvied
agents with one move per iteration: a pool swap while the pool is envied,
else (after rotating envy cycles away) the first commit of a pool good to an
unenvied agent that keeps EFX, else a `_reshuffle`.  Its envy graph is
`audit.envy_graph` on the masks.  A step cap (pseudopolynomial in the total
integer value) bounds these moves, and exhausting it raises a diagnostic
error rather than looping silently.  Cycle rotations are not counted: each
one strictly raises every cycle member's value, so they end on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from .audit import check_efx, check_efx_with_charity, envy_graph
from .core import (
    Instance,
    IntegralAllocation,
    PreconditionError,
    ResourceCapError,
    Table,
    bundle_mask,
    require_fits,
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
    whole set.  `_envied_subset` makes the sweep, on bitmasks."""
    masks = [bundle_mask(b) for b in alloc.bundles]
    found = _envied_subset(_mask_values(inst), masks, bundle_mask(alloc.pool if goods is None else goods))
    return None if found is None else _goods(found[0])


def _envied_subset(
    values: Sequence[Callable[[int], int]], masks: Sequence[int], goods: int
) -> Optional[tuple[int, tuple[int, ...]]]:
    """The canonical minimal envied subset of the goods in mask `goods`, as
    a mask, with its enviers in ascending order; None if nobody envies the
    whole set.  `values[i]` is agent i's integer value of a mask and
    `masks[i]` its bundle.

    One ascending-index sweep suffices: drop a good whenever the remainder is
    still envied.  A good that could not be dropped earlier never becomes
    droppable (shrinking the set only shrinks its subsets' values), so the
    sweep ends inclusion-minimal, and by monotonicity single-good minimality
    implies no proper subset is envied at all.  Each agent's own value is
    read once per call, and each candidate's once per agent.
    """
    viewers = [(value, value(mask)) for value, mask in zip(values, masks)]
    if not any(own < value(goods) for value, own in viewers):
        return None
    subset, rest = goods, goods
    while rest:
        low = rest & -rest
        rest ^= low
        without = subset ^ low
        if any(own < value(without) for value, own in viewers):
            subset = without
    return subset, tuple(i for i, (value, own) in enumerate(viewers) if own < value(subset))


def _mask_values(inst: Instance) -> list[Callable[[int], int]]:
    """Each agent's `int_value` on a bundle bitmask: a table looks the mask
    up, per-good weights are summed over its bits."""
    return [
        val.weights.__getitem__ if isinstance(val, Table) else partial(_weight_sum, val.weights)
        for val in inst.valuations
    ]


def _weight_sum(weights: Sequence[int], mask: int) -> int:
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _goods(mask: int) -> frozenset[int]:
    return frozenset(g for g in range(mask.bit_length()) if mask >> g & 1)


def _allocation(masks: Sequence[int], pool: int) -> IntegralAllocation:
    return IntegralAllocation(bundles=tuple(map(_goods, masks)), pool=_goods(pool))


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


def random_charity_swap(inst: Instance, seed: int) -> tuple[IntegralAllocation, SwapTrace]:
    """Run the uniform-envier pool-swap loop from all goods pooled until no
    agent envies the pool.  Bundles and pool are carried as bitmasks."""
    require_monotone_integer(inst)
    values = _mask_values(inst)
    masks, pool = [0] * inst.n, (1 << inst.m) - 1
    rng = SplitMix64(seed)
    steps = []
    while (envy := _envied_subset(values, masks, pool)) is not None:
        subset, enviers = envy
        chosen = enviers[rng.below(len(enviers))]
        steps.append(SwapStep(subset=_goods(subset), enviers=enviers, chosen=chosen))
        pool = (pool & ~subset) | masks[chosen]
        masks[chosen] = subset
    alloc = _allocation(masks, pool)
    outcome = check_efx_with_charity(inst, alloc)
    if not outcome.passed:  # pragma: no cover - the loop's exit guarantees this
        raise AssertionError(f"pool-swap loop ended without its guarantee: {outcome.witness}")
    return alloc, SwapTrace(steps=tuple(steps))


def replay_swap_trace(inst: Instance, trace: SwapTrace) -> IntegralAllocation:
    """Re-apply a recorded trace from all goods pooled; validates each step's
    subset and enviers, that the chosen agent's gain raises the utility sum
    every step, and that the trace ends where the loop does, with nobody
    envying the pool."""
    values = _mask_values(inst)
    masks, pool = [0] * inst.n, (1 << inst.m) - 1
    for idx, step in enumerate(trace.steps):
        envy = _envied_subset(values, masks, pool)
        if envy is None or _goods(envy[0]) != step.subset:
            raise PreconditionError(f"step {idx}: recorded subset diverges from the canonical one")
        subset, enviers = envy
        if enviers != step.enviers or step.chosen not in step.enviers:
            raise PreconditionError(f"step {idx}: recorded enviers diverge")
        chosen = step.chosen
        # only the chosen agent's bundle changes, so its gain is the sum's
        if values[chosen](subset) <= values[chosen](masks[chosen]):
            raise AssertionError(f"step {idx}: swap did not raise the utility sum")
        pool = (pool & ~subset) | masks[chosen]
        masks[chosen] = subset
    if _envied_subset(values, masks, pool) is not None:
        raise PreconditionError(f"step {len(trace.steps)}: trace ends while the pool is still envied")
    return _allocation(masks, pool)


# ---------------------------------------------------------------------------
# envy-cycle rotation


def _find_cycle(edges: dict[int, list[int]], n: int) -> Optional[list[int]]:
    """Lowest-index-first DFS; returns one directed cycle as an agent list.
    The DFS keeps its own stack of (agent, remaining targets), so its depth
    is not bounded by Python's recursion limit."""
    color = [0] * n  # 0 new, 1 on stack, 2 done
    parent: dict[int, int] = {}
    for root in range(n):
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, iter(edges.get(root, ())))]
        while stack:
            v, targets = stack[-1]
            for w in targets:
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
                    color[w] = 1
                    stack.append((w, iter(edges.get(w, ()))))
                    break
            else:
                color[v] = 2
                stack.pop()
    return None


def _resolve_cycles(values: Sequence[Callable[[int], int]], masks: list[int]) -> dict[int, list[int]]:
    """Rotate bundles along envy cycles until the envy graph is acyclic, on
    bundle masks, in place; returns the acyclic envy graph it ends with.
    Every agent ends at least as happy; cycle members strictly gain."""
    while True:
        edges = envy_graph(values, masks)
        cycle = _find_cycle(edges, len(masks))
        if cycle is None:
            return edges
        _rotate(masks, cycle)


def _rotate(masks: list[int], cycle: list[int]) -> None:
    """Each cycle member takes the next member's bundle, in place."""
    old = [masks[a] for a in cycle]
    for a, mask in zip(cycle, old[1:] + old[:1]):
        masks[a] = mask


# ---------------------------------------------------------------------------
# shrinking the pool below the number of unenvied agents


def default_step_cap(inst: Instance) -> int:
    total = sum(val.int_value(range(inst.m)) for val in inst.valuations)
    return inst.n * inst.m * (1 + total)


def bounded_charity(
    inst: Instance, start: IntegralAllocation, step_cap: Optional[int] = None
) -> IntegralAllocation:
    """Deterministic post-pass: from an EFX allocation that nobody envies the
    pool of, reach one that additionally parks fewer goods than there are
    unenvied agents.  Each iteration makes one counted move; pool swaps go
    to the lowest envier.  Raises ResourceCapError (with state attached) if
    the step cap is exhausted."""
    if step_cap is not None and step_cap < 0:
        raise PreconditionError(f"step cap must be non-negative, got {step_cap}")
    require_monotone_integer(inst)
    require_fits(inst, (start,))
    pre = check_efx_with_charity(inst, start)
    if not pre.passed:
        raise PreconditionError(f"start must be EFX with an unenvied pool: {pre.witness}")
    cap = default_step_cap(inst) if step_cap is None else step_cap
    stats = {"phase_a": 0, "phase_c_commits": 0, "phase_c_swaps": 0}
    values = _mask_values(inst)
    masks, pool = [bundle_mask(b) for b in start.bundles], bundle_mask(start.pool)
    while True:
        if (envy := _envied_subset(values, masks, pool)) is not None:
            subset, enviers = envy
            k = enviers[0]
            # only k's bundle changes, so its gain is the utility sum's
            assert values[k](subset) > values[k](masks[k])
            pool = (pool & ~subset) | masks[k]
            masks[k] = subset
            move = "phase_a"
        else:
            # own utilities only rise under rotation, so pool envy cannot
            # reappear here
            envied = {j for targets in _resolve_cycles(values, masks).values() for j in targets}
            sources = [i for i in inst.agents if i not in envied]
            if not sources:  # pragma: no cover - acyclic envy graphs have sources
                raise AssertionError("no unenvied agent after cycle resolution")
            if pool.bit_count() < len(sources):
                return _allocation(masks, pool)
            commit = _efx_commit(inst, masks, pool, sources)
            if commit is None:
                pool = _reshuffle(values, masks, pool, sources[0])
                move = "phase_c_swaps"
            else:
                i, good = commit
                # monotonicity: a commit cannot lower anyone's utility
                assert values[i](masks[i] | good) >= values[i](masks[i])
                masks[i] |= good
                pool ^= good
                move = "phase_c_commits"
        stats[move] += 1
        if sum(stats.values()) > cap:
            err = ResourceCapError(f"step cap {cap} exhausted; stats {stats}")
            err.allocation = _allocation(masks, pool)  # diagnostic payload
            err.stats = dict(stats)
            raise err


def _efx_commit(inst: Instance, masks: list[int], pool: int, sources: list[int]) -> Optional[tuple[int, int]]:
    """The first (source, ascending pool good) whose commit keeps the
    allocation EFX, as (agent, good bit); None if no commit does."""
    goods = [1 << g for g in range(pool.bit_length()) if pool >> g & 1]
    for i in sources:
        for good in goods:
            grown = list(masks)
            grown[i] |= good
            if check_efx(inst, _allocation(grown, pool ^ good)).passed:
                return i, good
    return None


def _reshuffle(values: Sequence[Callable[[int], int]], masks: list[int], pool: int, i: int) -> int:
    """The fallback when no commit keeps EFX: grow agent i's bundle by the
    lowest pool good, hand the canonical minimal envied subset of that grown
    bundle to its lowest envier h, empty i's bundle, and pool the rest of i's
    and h's goods.  Updates `masks` in place and returns the new pool."""
    good = pool & -pool
    grown = masks[i] | good
    envy = _envied_subset(values, masks, grown)
    if envy is None:
        raise AssertionError("EFX failed for every commit yet nothing envies the grown bundle")
    subset, enviers = envy
    h = enviers[0]
    displaced = (grown | masks[h]) & ~subset
    masks[i] = 0
    masks[h] = subset
    return (pool ^ good) | displaced
