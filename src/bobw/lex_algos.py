"""Lottery constructions for agents with strict ordinal preferences: a
lexicographic ranking, or distinct additive values read as their ranking.

The centerpiece pipeline runs duration-one simultaneous eating, decomposes
the consumption matrix into assignment terms, and then hands each term's
unallocated tail to one of the agents holding a last good, chosen uniformly.
The tail always fits: every term assigns all fully-eaten ordinary goods, so
exactly k agents sit on last goods and the leftover tail is shared among
those k candidates with weight split evenly.  With fewer goods than agents,
dummy goods pad the run, every term is a perfect matching, the tail is empty
and dummies are dropped from the bundles.  For lexicographic agents, and
additive values consistent with a lexicographic order (each good worth more
than all goods it outranks together), the result is envy-free in
expectation up to the factor 3k/(3k+1) and each support outcome is EFX and
Pareto optimal.  Other additive values get the lottery of their ranking,
which owes them none of these guarantees: the audits may fail on them.

When the eating stage ends with exactly two units of last-good mass (k = 2),
a strictly better construction exists: aggregate all last goods into one
capacity-two column, round the matrix with dependent rounding, and let a fair
coin decide which of the two winners keeps just its own last good while the
other takes every remaining good.  This is a sampler (its support can be
exponential), with a 9/10 envy guarantee in expectation.  It checks and
scales the aggregated matrix once (``rounding.PreparedMatrix``), and each
draw rounds that prepared matrix with a fresh seed.

utse and k2_sampler each run eating once; solve_lex_bobw runs it once, reads
k, and hands the same summary to one of the two, returning (k, outcome): the
tail lottery, or one seeded k = 2 draw.

A baseline for comparison: draw a uniform random agent order, let agents pick
their favorite remaining good in that order, and give all leftovers to the
last agent.  Exactly envy-free up to factor 1/2 in expectation, EFX and
Pareto optimal ex post.  uniform_permutation is its exact lottery over all n!
orders; permutation_sampler maps a seed to one draw.
"""

from __future__ import annotations

import itertools
import math
from bisect import insort
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .audit import envied_agents
from .core import (
    Instance,
    IntegralAllocation,
    PreconditionError,
    RandomizedAllocation,
    ResourceCapError,
)
from .eating import TraceSummary, ordinal_rankings, summarize, unit_run
from .rng import SplitMix64, derive_seed
from .rounding import Decomposition, PreparedMatrix, build_supergood_matrix, bvn_decompose, dependent_round

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
    envied = envied_agents(inst, run_picking_sequence(inst, sigma))
    for turn, i in enumerate(tail_policy):
        if i in envied:
            raise PreconditionError(f"tail turn {turn} names agent {i}, who is envied after the sigma round")
    full = tuple(sigma) + tuple(tail_policy)
    final = run_picking_sequence(inst, full)
    return full, final


# ---------------------------------------------------------------------------
# eating + decomposition + uniform tail


def utse(inst: Instance, decomposition: Optional[Decomposition] = None) -> RandomizedAllocation:
    """Exact output lottery of the eating pipeline with a uniform tail.

    An explicit decomposition of the consumption matrix may be supplied (it
    is validated against the matrix exactly); otherwise the deterministic
    pivot of bvn_decompose is used.
    """
    return _tail_lottery(inst, summarize(unit_run(inst)), decomposition)


def _tail_lottery(
    inst: Instance, summary: TraceSummary, decomposition: Optional[Decomposition] = None
) -> RandomizedAllocation:
    if decomposition is None:
        decomposition = bvn_decompose(summary.X)
    elif not decomposition.reconstructs(summary.X):
        raise PreconditionError("supplied decomposition does not reconstruct the eating matrix")
    # Outcomes are made term by term.  A non-empty tail means no dummies
    # (m > n), and the winner is the one agent holding two goods or more;
    # its own good is its last good, so an outcome fixes its term's
    # assignment and its winner.  So when the assignments are pairwise
    # distinct, no two outcomes coincide and none needs a merge key: each
    # (term, winner) is one outcome of mass w / k, a Fraction built once per
    # term and shared by its k winners.  Otherwise (a repeated assignment,
    # or m <= n) outcomes merge as they are made, each under a flat key:
    # the term's assignment with dummy goods as -1 and, when the tail is
    # non-empty, the winner's entry as m.  An empty tail (every term a
    # perfect matching, as with dummy goods when m < n) gives every winner
    # the same outcome, so it merges into one entry of k times the term's
    # mass.  Merged masses add up as ints over the LCM of the term weights'
    # denominators.  Each term lists its bundles and its sort key, the
    # bundles' sorted goods (every pool is empty), as shared singletons, so
    # equal positions compare by identity; each outcome sets its winner's
    # entries, copies both lists into tuples and puts the singletons back,
    # which at n = 32 takes less time than splicing the winner's entries
    # into per-term tuples.  A term that repeats no good gives every one of
    # its outcomes pairwise disjoint bundles: its singletons are distinct,
    # and the tail is the goods outside its assignment.  Decomposition
    # already refuses a term that repeats a good; the per-term assertion
    # below states that invariant where the outcomes rely on it, and each
    # outcome is built without IntegralAllocation's own check.
    k = int(summary.k)
    m = inst.m
    L = summary.L
    goods = frozenset(range(m))
    outside = L | summary.U
    m_total = len(summary.eaten)
    singles = [frozenset((g,)) for g in range(m)] + [frozenset()] * (m_total - m)
    sorted_singles = [(g,) for g in range(m)] + [()] * (m_total - m)
    terms = decomposition.terms
    keyed = m <= inst.n or len(set(map(itemgetter(1), terms))) < len(terms)
    scale = math.lcm(*(w.denominator for w, _ in terms)) if keyed else None
    outcomes: dict[tuple[int, ...], list] = {}  # flat key -> [mass, sort key, bundles]
    made: list[tuple[Fraction, tuple, tuple]] = []  # (mass, sort key, bundles), unkeyed
    for w, assignment in terms:
        if len(set(assignment)) != len(assignment):
            raise AssertionError("a term's assignment repeats a good")
        tail = goods.difference(assignment)
        if not tail <= outside:
            raise AssertionError("unallocated tail reaches outside the last/untouched goods")
        winners = [i for i, g in enumerate(assignment) if g in L]
        if len(winners) != k:
            raise AssertionError("a term does not hold exactly k last goods")
        held = list(map(singles.__getitem__, assignment))
        order = list(map(sorted_singles.__getitem__, assignment))
        if keyed:
            units = w.numerator * (scale // w.denominator)
        else:
            p = Fraction(w.numerator, w.denominator * k)
        if not tail:  # every winner gets the term's own outcome
            key = tuple(g if g < m else -1 for g in assignment)
            entry = outcomes.get(key)
            if entry is None:
                outcomes[key] = [k * units, tuple(order), tuple(held)]
            else:
                entry[0] += k * units
            continue
        rest = sorted(tail)
        for i in winners:
            g = assignment[i]
            if keyed:
                key = assignment[:i] + (m,) + assignment[i + 1 :]
                entry = outcomes.get(key)
                if entry is not None:
                    entry[0] += units
                    continue
            own = rest.copy()
            insort(own, g)
            held[i], order[i] = frozenset(own), tuple(own)
            if keyed:
                outcomes[key] = [units, tuple(order), tuple(held)]
            else:
                made.append((p, tuple(order), tuple(held)))
            held[i], order[i] = singles[g], sorted_singles[g]
    made += ((Fraction(units, scale * k), order, bundles) for units, order, bundles in outcomes.values())
    made.sort(key=itemgetter(1))
    return RandomizedAllocation(tuple((p, IntegralAllocation._built(bundles)) for p, _, bundles in made))


def k2_sampler(inst: Instance) -> Callable[[int], IntegralAllocation]:
    """The k = 2 construction as a seed -> outcome map, with the eating stage
    computed once.  One draw: dependent rounding on the aggregated-column
    matrix, then a fair coin orders the two winners; the first keeps only its
    own last good, the second takes all other remaining goods."""
    return _k2_draws(inst, summarize(unit_run(inst)))


def _k2_draws(inst: Instance, summary: TraceSummary) -> Callable[[int], IntegralAllocation]:
    if summary.k != 2:
        raise PreconditionError(f"this sampler needs last-good mass exactly 2, got {summary.k}")
    base_goods, matrix = build_supergood_matrix(summary)
    # checked, scaled and made a graph once; each draw rounds a copy
    prepared = PreparedMatrix(matrix)
    last_goods, leftovers = summary.last_goods, summary.L | summary.U
    return lambda seed: _k2_from_rounding(inst, last_goods, leftovers, base_goods, prepared, seed)


def _k2_from_rounding(inst, last_goods, leftovers, base_goods, matrix, seed: int) -> IntegralAllocation:
    rounded = dependent_round(matrix, derive_seed(seed, 1))
    holders = [i for i in range(inst.n) if rounded[i][-1] == 1]
    if len(holders) != 2:
        raise AssertionError("the aggregated column must land on exactly two agents")
    coin = SplitMix64(derive_seed(seed, 2))
    a, b = (holders[0], holders[1]) if coin.event(Fraction(1, 2)) else (holders[1], holders[0])
    bundles = [set(itertools.compress(base_goods, row)) for row in rounded]
    bundles[a] = {last_goods[a]}
    bundles[b] = set(leftovers - {last_goods[a]})
    return IntegralAllocation(bundles=tuple(frozenset(g for g in x if g < inst.m) for x in bundles))


# ---------------------------------------------------------------------------
# uniform random agent orders


def _permutation_outcome(inst: Instance, order: Sequence[int]) -> IntegralAllocation:
    alloc = run_picking_sequence(inst, order)
    bundles = list(alloc.bundles)
    last = order[-1]
    bundles[last] = bundles[last] | alloc.pool
    return IntegralAllocation(bundles=tuple(bundles))


def uniform_permutation(inst: Instance) -> RandomizedAllocation:
    """Exact uniform lottery over agent orders: all n! orders enumerated
    (n <= 8), duplicate outcomes merged."""
    if inst.n > EXACT_PERMUTATION_CAP:
        raise ResourceCapError(
            f"the uniform-order lottery enumerates n! orders and is capped at n = {EXACT_PERMUTATION_CAP}"
        )
    weight = Fraction(1, math.factorial(inst.n))
    support = [
        (weight, _permutation_outcome(inst, order))
        for order in itertools.permutations(range(inst.n))
    ]
    return RandomizedAllocation.merged(support)


def permutation_sampler(inst: Instance) -> Callable[[int], IntegralAllocation]:
    """The uniform-order lottery as a seed -> outcome map: one seeded order."""
    return lambda seed: _permutation_outcome(inst, SplitMix64(seed).permutation(inst.n))


# ---------------------------------------------------------------------------
# dispatcher


def solve_lex_bobw(
    inst: Instance, seed: Optional[int] = None
) -> tuple[int, RandomizedAllocation | IntegralAllocation]:
    """Route by last-good mass k over one eating run: k = 2 gets one draw of
    the dependent-rounding sampler (strictly better envy ratio), everything
    else the exact tail lottery.  Returns (k, outcome)."""
    summary = summarize(unit_run(inst))
    k = int(summary.k)
    if k != 2:
        return k, _tail_lottery(inst, summary)
    if seed is None:
        raise PreconditionError("k = 2 routes to a sampler: a seed is required")
    return k, _k2_draws(inst, summary)(seed)
