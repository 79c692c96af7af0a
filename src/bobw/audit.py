"""Exact fairness and efficiency verdicts.

Every checker returns an AuditReport carrying the property name, a boolean
verdict, and a witness: on failure the first violating pair/good, on success
whatever certifies the property (e.g. the picking sequence that reproduces a
Pareto-optimal allocation).  All comparisons are exact; there are no
tolerances anywhere in this module.

Every audit reads each valuation's integer form (``int_value``,
``weights``, ``scale``) and never ``value_of``.  The envy audits, the fair
share and stochastic dominance compare one viewer's values.  ``check_efx``
skips one-good bundles under per-good weights for a viewer whose own value
is at least 0: removing the good leaves the empty bundle, worth 0.  A
viewer with a negative own value, and any table viewer (whose empty bundle
may be worth something), checks every bundle.  Under per-good weights a
pair can fail only if the bundle's total exceeds the viewer's own value
plus the viewer's least weight overall (``least_weight``), so only such a
pair takes the least weight within the bundle.  What ``check_efx`` reads
of each viewer (its weights, their getter and, unless it is a table, its
least weight) is cached on the instance, so the outcomes of a lottery
share it, and each own value is summed inline.  ``check_po_lex`` reads
the rankings the instance caches (``ordinal_rankings``) and places only
agents with own goods left in its picking greedy.  Every
expected-value audit (``exante_ratio``, ``min_exante_ratio``,
``check_exante_ef``, ``check_exante_prop``) reads one n x n integer matrix
of E[v_i(A_j)], built from each agent's scaled probability of holding each
good: a viewer with per-good weights takes one dot product per agent, and
only a table viewer values the distinct bundles, once each.
``min_exante_ratio`` compares its ratios by cross-multiplication and
builds one Fraction.  ``check_stochastic_dominance_half`` scales the
probabilities to ints the same way, tallies each viewer's mass by integer
value once, and sweeps each pair's thresholds upward, subtracting masses.

The audits assume allocations that fit the instance: one bundle per agent,
holding only its goods.  They do not check this, since they run on every
outcome of every lottery; the entry points that take a caller's allocations
check it once with ``core.require_fits``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from operator import mul
from typing import Callable, Optional, Sequence

from .core import (
    Instance,
    IntegralAllocation,
    PreconditionError,
    RandomizedAllocation,
    Table,
    bundle_mask,
    format_rational,
)
from .eating import ordinal_rankings


@dataclass(frozen=True)
class AuditReport:
    prop: str
    passed: bool
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {"property": self.prop, "passed": self.passed, "witness": self.witness}


def _pair_witness(i: int, j: int, **extra) -> dict:
    out = {"viewer": i, "toward": j}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# pairwise envy notions on integral allocations


def envy_graph(values: Sequence[Callable], bundles: Sequence) -> dict[int, list[int]]:
    """The envy graph: each envious agent to the agents it envies, ascending.
    `values[i]` is agent i's integer value of a bundle in whatever form
    `bundles` holds, goods or bitmasks."""
    out: dict[int, list[int]] = {}
    for i, value in enumerate(values):
        vi = value(bundles[i])
        targets = [j for j, bundle in enumerate(bundles) if j != i and vi < value(bundle)]
        if targets:
            out[i] = targets
    return out


def envy_edges(inst: Instance, alloc: IntegralAllocation) -> dict[int, list[int]]:
    """The envy graph of an allocation's bundles, valued by `int_value`."""
    return envy_graph([val.int_value for val in inst.valuations], alloc.bundles)


def envied_agents(inst: Instance, alloc: IntegralAllocation) -> set[int]:
    return {j for targets in envy_edges(inst, alloc).values() for j in targets}


def unenvied_agents(inst: Instance, alloc: IntegralAllocation) -> list[int]:
    envied = envied_agents(inst, alloc)
    return [i for i in inst.agents if i not in envied]


def check_ef(inst: Instance, alloc: IntegralAllocation) -> AuditReport:
    edges = envy_edges(inst, alloc)
    if not edges:
        return AuditReport("ef", True)
    i = min(edges)  # the first envious agent and the first agent it envies
    return AuditReport("ef", False, _pair_witness(i, edges[i][0]))


def check_ef1(inst: Instance, alloc: IntegralAllocation) -> AuditReport:
    """Envy bounded by one good; vacuous toward empty bundles."""
    for i, val in enumerate(inst.valuations):
        vi = val.int_value(alloc.bundles[i])
        for j in inst.agents:
            if i == j or not alloc.bundles[j]:
                continue
            if all(vi < val.int_value(alloc.bundles[j] - {g}) for g in alloc.bundles[j]):
                return AuditReport("ef1", False, _pair_witness(i, j))
    return AuditReport("ef1", True)


def check_efx(inst: Instance, alloc: IntegralAllocation) -> AuditReport:
    """Envy bounded by any good: removing any single good from the envied
    bundle must kill the envy.

    A table looks every removal up.  For per-good weights the removal that
    leaves the most is that of the least-weighted good, so one comparison
    per pair decides; only a failing pair is scanned for its first
    violating good.  Removing the one good of a one-good bundle leaves the
    empty bundle, worth 0 under per-good weights, so a viewer whose own
    value is at least 0 checks only the bundles of two goods or more.  A
    viewer with a negative own value checks every bundle, and so does a
    table viewer, whose empty bundle may be worth something.  The least
    weight in a bundle is at least the viewer's least weight overall, so
    only a pair whose total exceeds own value plus that least weight takes
    the bundle's minimum.  Each viewer's weights, their getter and its least
    weight are cached on the instance; a table viewer never takes its
    minimum."""
    bundles = alloc.bundles
    multi = [j for j, bundle in enumerate(bundles) if len(bundle) > 1]
    for i, (w, weight, least) in enumerate(inst._efx_viewers):
        if least is None:  # a table
            vi = w[bundle_mask(bundles[i])]
            for j in inst.agents:
                if i == j:
                    continue
                mask = bundle_mask(bundles[j])
                for g in bundles[j]:
                    if vi < w[mask ^ (1 << g)]:
                        return AuditReport("efx", False, _pair_witness(i, j, good=g))
            continue
        vi = sum(map(weight, bundles[i]))
        bound = vi + least  # a pair can fail only if its total exceeds this
        for j in multi if vi >= 0 else inst.agents:
            bundle = bundles[j]
            if i == j or not bundle:
                continue
            total = sum(map(weight, bundle))
            if total > bound and vi < total - min(map(weight, bundle)):
                g = next(g for g in bundle if vi < total - w[g])
                return AuditReport("efx", False, _pair_witness(i, j, good=g))
    return AuditReport("efx", True)


def check_efx_with_charity(inst: Instance, alloc: IntegralAllocation) -> AuditReport:
    efx = check_efx(inst, alloc)
    if not efx.passed:
        return AuditReport("efx-with-charity", False, efx.witness)
    for i, val in enumerate(inst.valuations):
        if val.int_value(alloc.bundles[i]) < val.int_value(alloc.pool):
            return AuditReport(
                "efx-with-charity", False, {"viewer": i, "toward": "pool", "pool": sorted(alloc.pool)}
            )
    return AuditReport("efx-with-charity", True)


def check_bounded_charity(inst: Instance, alloc: IntegralAllocation) -> AuditReport:
    base = check_efx_with_charity(inst, alloc)
    if not base.passed:
        return AuditReport("bounded-charity", False, base.witness)
    free = unenvied_agents(inst, alloc)
    if not free:
        return AuditReport("bounded-charity", False, {"reason": "no unenvied agent exists"})
    if len(alloc.pool) >= len(free):
        return AuditReport(
            "bounded-charity",
            False,
            {"reason": "pool too large", "pool_size": len(alloc.pool), "unenvied": len(free)},
        )
    return AuditReport("bounded-charity", True, {"pool_size": len(alloc.pool), "unenvied": len(free)})


# ---------------------------------------------------------------------------
# Pareto optimality under lexicographic preferences


def check_po_lex(inst: Instance, alloc: IntegralAllocation) -> AuditReport:
    """Pareto optimality for lexicographic agents.

    An allocation is Pareto optimal here iff it is induced by some picking
    sequence.  The greedy reconstruction below is complete: repeatedly hand a
    turn to any agent whose top-ranked remaining good sits in its own bundle
    (removing a good never promotes another agent's top choice past its own),
    so it succeeds exactly on the sequencible allocations.  The witness on
    success is the reconstructed sequence.  An agent whose own goods are
    all picked can never pick again, so only agents with goods left take
    part; a failing report names every agent's top remaining good.
    """
    if alloc.pool or not alloc.is_complete(inst.m):
        raise PreconditionError("Pareto audit needs a complete allocation with an empty pool")
    rankings = ordinal_rankings(inst)
    m = inst.m
    owner = [0] * m
    for i, bundle in enumerate(alloc.bundles):
        for g in bundle:
            owner[g] = i
    left = [len(bundle) for bundle in alloc.bundles]  # own goods not yet picked
    taken = [False] * m
    cursors = [0] * inst.n  # each placed agent's top remaining good
    ready: list[int] = []  # min-heap of agents whose top remaining good is their own
    waiting: dict[int, list[int]] = {}  # good -> agents whose top it is, not its owner
    sequence: list[int] = []
    # place every agent with own goods left, then after each pick only the
    # picker (if it has goods left) and the agents waiting on the picked
    # good: the lowest ready agent picks.  A placed agent holds an untaken
    # good, so its scan stops inside its ranking.
    movers = [i for i in inst.agents if left[i]]
    while True:
        for k in movers:
            r = rankings[k]
            c = cursors[k]
            while taken[r[c]]:
                c += 1
            cursors[k] = c
            g = r[c]
            if owner[g] == k:
                heappush(ready, k)
            else:
                waiting.setdefault(g, []).append(k)
        if not ready:
            break
        i = heappop(ready)
        g = rankings[i][cursors[i]]
        taken[g] = True
        sequence.append(i)
        left[i] -= 1
        movers = waiting.pop(g, [])
        if left[i]:
            movers.insert(0, i)
    if len(sequence) < m:
        # some good is untaken, so every ranking holds a top remaining good
        top = {str(i): next(g for g in r if not taken[g]) for i, r in enumerate(rankings)}
        unconsumed = [g for g in range(m) if not taken[g]]
        return AuditReport("po-lex", False, {"unconsumed": unconsumed, "top_choices": top})
    return AuditReport("po-lex", True, {"sequence": sequence})


# ---------------------------------------------------------------------------
# stochastic-dominance envy-freeness of fractional outcomes


def check_sdef(inst: Instance, rows: Sequence[Sequence[Fraction]]) -> AuditReport:
    """Prefix-mass dominance of a share matrix: for every pair (i, j) and
    every prefix of i's ordinal ranking, i's share of the prefix is at
    least j's."""
    rankings = ordinal_rankings(inst)
    n = len(rows)
    for i in range(n):
        ranking = rankings[i]
        for j in range(n):
            if i == j:
                continue
            own = Fraction(0)
            other = Fraction(0)
            for depth, g in enumerate(ranking):
                own += rows[i][g]
                other += rows[j][g]
                if own < other:
                    return AuditReport(
                        "sd-ef",
                        False,
                        _pair_witness(
                            i,
                            j,
                            prefix_depth=depth + 1,
                            own=format_rational(own),
                            other=format_rational(other),
                        ),
                    )
    return AuditReport("sd-ef", True)


# ---------------------------------------------------------------------------
# ex-ante (expected-value) guarantees of lotteries


def _expected_matrix(dist: RandomizedAllocation, inst: Instance) -> tuple[list[list[int]], list[int]]:
    """E[i][j] / den[i] = E[v_i(j's bundle)], every entry an int.

    One pass over the support sums each agent's probability of holding each
    good, scaled by the LCM of the probabilities' denominators, so a viewer
    with per-good weights takes one dot product per agent (the same ints, by
    linearity of expectation).  When the instance has a table, the pass also
    sums each agent's scaled probability of holding each bundle, and a table
    viewer values each distinct bundle once."""
    scale = lcm(*(p.denominator for p, _ in dist.support))
    shares = [[0] * inst.m for _ in inst.agents]  # j -> good -> scaled probability
    tables = any(isinstance(val, Table) for val in inst.valuations)
    mass = [Counter() for _ in inst.agents]  # j -> bundle -> scaled probability, for tables
    for p, alloc in dist.support:
        q = p.numerator * (scale // p.denominator)
        for row, bundle in zip(shares, alloc.bundles):
            for g in bundle:
                row[g] += q
        if tables:
            for held, bundle in zip(mass, alloc.bundles):
                held[bundle] += q
    matrix = [
        [sum(q * val.int_value(b) for b, q in held.items()) for held in mass]
        if isinstance(val, Table)
        else [sum(map(mul, val.weights, row)) for row in shares]
        for val in inst.valuations
    ]
    return matrix, [scale * val.scale for val in inst.valuations]


def _ratio(own, other) -> Optional[Fraction]:
    """own / other, or None for an infinite ratio (other is zero, so any
    multiplicative guarantee holds)."""
    return None if other == 0 else Fraction(own, other)


def exante_ratio(
    dist: RandomizedAllocation, inst: Instance, i: int, j: int
) -> Optional[Fraction]:
    """E[v_i(own)] / E[v_i(j's bundle)]; None encodes an infinite ratio."""
    matrix, _ = _expected_matrix(dist, inst)
    return _ratio(matrix[i][i], matrix[i][j])


def min_exante_ratio(dist: RandomizedAllocation, inst: Instance) -> Optional[Fraction]:
    """Minimum of exante_ratio over ordered pairs; None if every pair's
    ratio is infinite.  The least own / other of the integer matrix is found
    by cross-multiplication, with each denominator made positive first, and
    only the least becomes a Fraction."""
    matrix, _ = _expected_matrix(dist, inst)
    best_num, best_den = 0, 0  # best_den == 0 while no ratio is finite
    for i, row in enumerate(matrix):
        own = row[i]
        for j, other in enumerate(row):
            if i == j or other == 0:
                continue
            num, den = (own, other) if other > 0 else (-own, -other)
            if best_den == 0 or num * best_den < best_num * den:
                best_num, best_den = num, den
    return Fraction(best_num, best_den) if best_den else None


def check_exante_ef(dist: RandomizedAllocation, inst: Instance, alpha: Fraction) -> AuditReport:
    """alpha-EF in expectation: E[v_i(own)] >= alpha * E[v_i(other)] for all pairs."""
    alpha = Fraction(alpha)
    matrix, den = _expected_matrix(dist, inst)
    for i, row in enumerate(matrix):
        for j, other in enumerate(row):
            if i != j and row[i] < alpha * other:
                return AuditReport(
                    "exante-ef",
                    False,
                    _pair_witness(
                        i,
                        j,
                        alpha=format_rational(alpha),
                        own=format_rational(Fraction(row[i], den[i])),
                        other=format_rational(Fraction(other, den[i])),
                    ),
                )
    return AuditReport("exante-ef", True, {"alpha": format_rational(alpha)})


def check_exante_prop(dist: RandomizedAllocation, inst: Instance, alpha: Fraction) -> AuditReport:
    """alpha-proportionality in expectation: E[v_i(own)] >= alpha * v_i(M) / n."""
    alpha = Fraction(alpha)
    matrix, den = _expected_matrix(dist, inst)
    for i in inst.agents:
        got = Fraction(matrix[i][i], den[i])
        val = inst.valuations[i]
        fair_share = Fraction(val.int_value(range(inst.m)), val.scale * inst.n)
        if got < alpha * fair_share:
            return AuditReport(
                "exante-prop",
                False,
                {
                    "agent": i,
                    "alpha": format_rational(alpha),
                    "expected": format_rational(got),
                    "share": format_rational(fair_share),
                },
            )
    return AuditReport("exante-prop", True, {"alpha": format_rational(alpha)})


def check_stochastic_dominance_half(dist: RandomizedAllocation, inst: Instance) -> AuditReport:
    """For every pair (i, j) and every achievable threshold T of v_i:
    Pr[v_i(own) >= T] >= (1/2) Pr[v_i(j's bundle) >= T], exactly.  A failing
    pair's witness is its least failing threshold.

    Probabilities are scaled to ints by the LCM of their denominators, as in
    ``_expected_matrix``.  Each viewer tallies, once, its scaled mass of
    every agent's bundle by integer value.  A pair sweeps the union of its
    two value sets upward: both tail masses start at the total, and each
    threshold is tested before its own mass is taken off."""
    scale = lcm(*(p.denominator for p, _ in dist.support))
    masses = [(p.numerator * (scale // p.denominator), alloc.bundles) for p, alloc in dist.support]
    total = sum(q for q, _ in masses)
    for i, val in enumerate(inst.valuations):
        tally = [Counter() for _ in inst.agents]  # j -> v_i(j's bundle) -> scaled mass
        for q, bundles in masses:
            for held, bundle in zip(tally, bundles):
                held[val.int_value(bundle)] += q
        own = tally[i]
        for j, other in enumerate(tally):
            if i == j:
                continue
            p_own = p_other = total
            for t in sorted(own.keys() | other.keys()):
                if 2 * p_own < p_other:
                    return AuditReport(
                        "stochastic-dominance-half",
                        False,
                        _pair_witness(
                            i,
                            j,
                            threshold=format_rational(Fraction(t, val.scale)),
                            own=format_rational(Fraction(p_own, scale)),
                            other=format_rational(Fraction(p_other, scale)),
                        ),
                    )
                p_own -= own[t]
                p_other -= other[t]
    return AuditReport("stochastic-dominance-half", True)


def check_support(
    inst: Instance, dist: RandomizedAllocation, per_outcome_checks: dict
) -> dict[str, AuditReport]:
    """Run named ex-post checkers over every support outcome; one aggregate
    report per checker, failing with the first offending support index."""
    reports: dict[str, AuditReport] = {}
    for name, checker in per_outcome_checks.items():
        aggregate = None
        prop = name
        for idx, (_, alloc) in enumerate(dist.support):
            rep = checker(inst, alloc)
            prop = rep.prop
            if not rep.passed:
                aggregate = AuditReport(prop, False, {"support_index": idx, "inner": rep.witness})
                break
        reports[name] = aggregate if aggregate is not None else AuditReport(prop, True)
    return reports
