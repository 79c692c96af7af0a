"""Lottery constructions for agents with strict ordinal (lexicographic or
distinct-value additive) preferences.

The centerpiece pipeline runs duration-one simultaneous eating, decomposes
the consumption matrix into assignment terms, and then hands each term's
unallocated tail to one of the agents holding a last good, chosen uniformly.
The tail always fits: every term assigns all fully-eaten ordinary goods, so
exactly k agents sit on last goods and the leftover tail is shared among
those k candidates with weight split evenly.  The result is envy-free in
expectation up to the factor 3k/(3k+1) and each support outcome is EFX and
Pareto optimal.

When the eating stage ends with exactly two units of last-good mass (k = 2),
a strictly better construction exists: aggregate all last goods into one
capacity-two column, round the matrix with dependent rounding, and let a fair
coin decide which of the two winners keeps just its own last good while the
other takes every remaining good.  This is a sampler (its support can be
exponential), with a 9/10 envy guarantee in expectation.

A baseline for comparison: draw a uniform random agent order, let agents pick
their favorite remaining good in that order, and give all leftovers to the
last agent.  Exactly envy-free up to factor 1/2 in expectation, EFX and
Pareto optimal ex post.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (
    Instance,
    IntegralAllocation,
    PreconditionError,
    RandomizedAllocation,
    ResourceCapError,
    value_of,
)
from .eating import ordinal_rankings, summarize, unit_run
from .rng import SplitMix64, derive_seed
from .rounding import Decomposition, SuperGoodMatrix, build_supergood_matrix, bvn_decompose, dependent_round

EXACT_PERMUTATION_CAP = 8


# ---------------------------------------------------------------------------
# picking sequences


def run_picking_sequence(inst: Instance, sequence: Sequence[int]) -> IntegralAllocation:
    """Each turn, the named agent takes its favorite remaining good; goods
    left after the last turn stay in the pool."""
    rankings = ordinal_rankings(inst)
    remaining = set(range(inst.m))
    bundles = [set() for _ in inst.agents]
    for turn, i in enumerate(sequence):
        if not 0 <= i < inst.n:
            raise PreconditionError(f"turn {turn}: agent {i} out of range")
        if not remaining:
            break
        pick = next(g for g in rankings[i] if g in remaining)
        bundles[i].add(pick)
        remaining.discard(pick)
    return IntegralAllocation(
        bundles=tuple(frozenset(b) for b in bundles), pool=frozenset(remaining)
    )


def sigma_unenvied_sequence(
    inst: Instance, sigma: Sequence[int], tail_policy: Sequence[int]
) -> tuple[tuple[int, ...], IntegralAllocation]:
    """Complete a one-round agent order sigma into a full picking sequence
    whose extra turns all go to agents unenvied after the sigma round."""
    if sorted(sigma) != list(range(inst.n)):
        raise PreconditionError("sigma must order every agent exactly once")
    if len(tail_policy) != inst.m - inst.n:
        raise PreconditionError("tail must cover exactly the goods left after one round each")
    partial = run_picking_sequence(inst, sigma)
    envied = set()
    for i in inst.agents:
        for j in inst.agents:
            if i != j and value_of(inst, i, partial.bundles[i]) < value_of(inst, i, partial.bundles[j]):
                envied.add(j)
    for turn, i in enumerate(tail_policy):
        if i in envied:
            raise PreconditionError(f"tail turn {turn} names agent {i}, who is envied after the sigma round")
    full = tuple(sigma) + tuple(tail_policy)
    final = run_picking_sequence(inst, full)
    return full, final


# ---------------------------------------------------------------------------
# eating + decomposition + uniform tail


def _strip(bundle: frozenset[int], m_real: int) -> frozenset[int]:
    return frozenset(g for g in bundle if g < m_real)


def utse(inst: Instance, decomposition: Optional[Decomposition] = None) -> RandomizedAllocation:
    """Exact output lottery of the eating pipeline with a uniform tail.

    An explicit decomposition of the consumption matrix may be supplied (it
    is validated against the matrix exactly); otherwise the deterministic
    pivot of bvn_decompose is used.
    """
    trace = unit_run(inst)
    summary = summarize(trace)
    m_total = trace.m_total
    if decomposition is None:
        decomposition = bvn_decompose(summary.X)
    else:
        if decomposition.reconstruct(inst.n, m_total) != summary.X:
            raise PreconditionError("supplied decomposition does not reconstruct the eating matrix")

    if trace.n_dummies > 0:
        # fewer goods than agents: every (padded) good is fully eaten, each
        # term is a perfect matching, and no tail phase is needed
        support = [
            (w, IntegralAllocation(bundles=tuple(_strip(frozenset({g}), inst.m) for g in assignment)))
            for w, assignment in decomposition.terms
        ]
        return RandomizedAllocation.merged(support)

    k = int(summary.k)
    goods = frozenset(range(m_total))
    support = []
    for w, assignment in decomposition.terms:
        tail = goods - frozenset(assignment)
        if not tail <= (summary.L | summary.U):
            raise AssertionError("unallocated tail reaches outside the last/untouched goods")
        winners = [i for i in inst.agents if assignment[i] in summary.L]
        if len(winners) != k:
            raise AssertionError("a term does not hold exactly k last goods")
        for i in winners:
            bundles = [frozenset({assignment[j]}) for j in inst.agents]
            bundles[i] = bundles[i] | tail
            support.append((w / k, IntegralAllocation(bundles=tuple(bundles))))
    return RandomizedAllocation.merged(support)


def k2_sampler(inst: Instance) -> Callable[[int], IntegralAllocation]:
    """The k = 2 construction as a seed -> outcome map, with the eating stage
    computed once.  One draw: dependent rounding on the aggregated-column
    matrix, then a fair coin orders the two winners; the first keeps only its
    own last good, the second takes all other remaining goods."""
    trace = unit_run(inst)
    summary = summarize(trace)
    if summary.k != 2:
        raise PreconditionError(f"this sampler needs last-good mass exactly 2, got {summary.k}")
    sg = build_supergood_matrix(summary)
    return lambda seed: _k2_from_rounding(inst, trace.m_real, summary, sg, seed)


def _k2_from_rounding(inst, m_real, summary, sg: SuperGoodMatrix, seed: int) -> IntegralAllocation:
    rounded = dependent_round(sg.matrix, derive_seed(seed, 1))
    super_idx = len(sg.base_goods)
    holders = [i for i in range(inst.n) if rounded[i][super_idx] == 1]
    if len(holders) != 2:
        raise AssertionError("the aggregated column must land on exactly two agents")
    coin = SplitMix64(derive_seed(seed, 2))
    a, b = (holders[0], holders[1]) if coin.event(Fraction(1, 2)) else (holders[1], holders[0])
    bundles = [set() for _ in inst.agents]
    for i in range(inst.n):
        for idx, g in enumerate(sg.base_goods):
            if rounded[i][idx] == 1:
                bundles[i].add(g)
    leftovers = summary.L | summary.U
    bundles[a] = {summary.last_goods[a]}
    bundles[b] = set(leftovers - {summary.last_goods[a]})
    return IntegralAllocation(bundles=tuple(_strip(frozenset(x), m_real) for x in bundles))


# ---------------------------------------------------------------------------
# uniform random agent orders


def _permutation_outcome(inst: Instance, order: Sequence[int]) -> IntegralAllocation:
    alloc = run_picking_sequence(inst, order)
    bundles = list(alloc.bundles)
    last = order[-1]
    bundles[last] = bundles[last] | alloc.pool
    return IntegralAllocation(bundles=tuple(bundles))


def uniform_permutation(
    inst: Instance, mode: str = "exact", seed: Optional[int] = None
):
    """Uniform lottery over agent orders.

    mode="exact": full distribution by enumerating all n! orders (n <= 8),
    duplicate outcomes merged.  mode="sample": one seeded draw.
    """
    if mode == "exact":
        if inst.n > EXACT_PERMUTATION_CAP:
            raise ResourceCapError(
                f"exact mode enumerates n! orders and is capped at n = {EXACT_PERMUTATION_CAP}"
            )
        weight = Fraction(1, math.factorial(inst.n))
        support = [
            (weight, _permutation_outcome(inst, order))
            for order in itertools.permutations(range(inst.n))
        ]
        return RandomizedAllocation.merged(support)
    if mode == "sample":
        if seed is None:
            raise PreconditionError("sample mode needs a seed")
        order = SplitMix64(seed).permutation(inst.n)
        return _permutation_outcome(inst, order)
    raise PreconditionError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# dispatcher


@dataclass(frozen=True)
class LexBobwResult:
    k: int
    kind: str  # "distribution" | "sample"
    distribution: Optional[RandomizedAllocation] = None
    sample: Optional[IntegralAllocation] = None


def solve_lex_bobw(inst: Instance, seed: Optional[int] = None) -> LexBobwResult:
    """Route by last-good mass: k = 2 gets the dependent-rounding sampler
    (strictly better envy ratio), everything else the exact tail lottery."""
    summary = summarize(unit_run(inst))
    k = int(summary.k)
    if k == 2:
        if seed is None:
            raise PreconditionError("k = 2 routes to a sampler: a seed is required")
        return LexBobwResult(k=k, kind="sample", sample=k2_sampler(inst)(seed))
    return LexBobwResult(k=k, kind="distribution", distribution=utse(inst))
