"""Exact fairness and efficiency verdicts.

Every checker returns an AuditReport carrying the property name, a boolean
verdict, and a witness: on failure the first violating pair/good, on success
whatever certifies the property (e.g. the picking sequence that reproduces a
Pareto-optimal allocation).  All comparisons are exact; there are no
tolerances anywhere in this module.

``check_efx`` reads ordinal (``Lexicographic`` and ``Additive``) valuations
as integer weights per good, derived once per call: the canonical powers of
two, or the values scaled by the LCM of their denominators.  Every
expected-value audit (``exante_ratio``, ``min_exante_ratio``,
``check_exante_ef``, ``check_exante_prop``) reads one n x n matrix of
E[v_i(A_j)], built in one pass over the support with probabilities scaled
the same way, so ordinal rows compare Python ints.  ``Table`` valuations are
read through ``value_of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .core import (
    Additive,
    Instance,
    IntegralAllocation,
    Lexicographic,
    PreconditionError,
    RandomizedAllocation,
    canonical_lex_values,
    format_rational,
    value_of,
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
# integer weights of ordinal valuations


def _integer_weights(inst: Instance) -> list[Optional[tuple[tuple[int, ...], int]]]:
    """Per agent, (w, s) with v_i(B) = sum(w[g] for g in B) / s and s > 0,
    or None for a Table valuation."""
    out: list[Optional[tuple[tuple[int, ...], int]]] = []
    for val in inst.valuations:
        if isinstance(val, Lexicographic):
            out.append((canonical_lex_values(val.ranking), 1))
        elif isinstance(val, Additive):
            ratios = [v.as_integer_ratio() for v in val.values]
            scale = lcm(*(d for _, d in ratios))
            out.append((tuple(p * (scale // d) for p, d in ratios), scale))
        else:
            out.append(None)
    return out


def _expected_matrix(dist: RandomizedAllocation, inst: Instance) -> tuple[list[list], list[int]]:
    """One pass over the support: E[i][j] / den[i] = E[v_i(j's bundle)].

    Probabilities are scaled by the LCM of their denominators, so entries of
    ordinal rows are ints; Table rows hold exact Fractions."""
    scale = lcm(*(p.denominator for p, _ in dist.support))
    weights = _integer_weights(inst)
    matrix = [[0] * inst.n for _ in inst.agents]
    for p, alloc in dist.support:
        q = p.numerator * (scale // p.denominator)
        for i, row in enumerate(matrix):
            if weights[i] is None:
                for j in inst.agents:
                    row[j] += q * value_of(inst, i, alloc.bundles[j])
                continue
            weight = weights[i][0].__getitem__
            for j in inst.agents:
                row[j] += q * sum(map(weight, alloc.bundles[j]))
    den = [scale * (1 if w is None else w[1]) for w in weights]
    return matrix, den


# ---------------------------------------------------------------------------
# pairwise envy notions on integral allocations


def envies_set(inst: Instance, alloc: IntegralAllocation, i: int, goods) -> bool:
    return value_of(inst, i, alloc.bundles[i]) < value_of(inst, i, goods)


def enviers_of_set(inst: Instance, alloc: IntegralAllocation, goods) -> list[int]:
    return [i for i in inst.agents if envies_set(inst, alloc, i, goods)]


def envy_edges(inst: Instance, alloc: IntegralAllocation) -> dict[int, list[int]]:
    """The envy graph: each envious agent to the agents it envies, ascending."""
    out: dict[int, list[int]] = {}
    for i in inst.agents:
        vi = value_of(inst, i, alloc.bundles[i])
        targets = [j for j in inst.agents if j != i and vi < value_of(inst, i, alloc.bundles[j])]
        if targets:
            out[i] = targets
    return out


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
    for i in inst.agents:
        vi = value_of(inst, i, alloc.bundles[i])
        for j in inst.agents:
            if i == j or not alloc.bundles[j]:
                continue
            if all(vi < value_of(inst, i, alloc.bundles[j] - {g}) for g in alloc.bundles[j]):
                return AuditReport("ef1", False, _pair_witness(i, j))
    return AuditReport("ef1", True)


def check_efx(inst: Instance, alloc: IntegralAllocation) -> AuditReport:
    """Envy bounded by any good: removing any single good from the envied
    bundle must kill the envy.

    For an additive (or lexicographic) agent the removal that leaves the most
    is that of the least-valued good, so one comparison per pair decides;
    only a failing pair is scanned for its first violating good."""
    weights = _integer_weights(inst)
    for i in inst.agents:
        if weights[i] is None:
            vi = value_of(inst, i, alloc.bundles[i])
            for j in inst.agents:
                if i == j:
                    continue
                for g in alloc.bundles[j]:
                    if vi < value_of(inst, i, alloc.bundles[j] - {g}):
                        return AuditReport("efx", False, _pair_witness(i, j, good=g))
            continue
        w = weights[i][0]
        weight = w.__getitem__
        vi = sum(map(weight, alloc.bundles[i]))
        least = min(w, default=0)  # bounds every bundle's least weight from below
        for j in inst.agents:
            bundle = alloc.bundles[j]
            if i == j or not bundle:
                continue
            total = sum(map(weight, bundle))
            if vi < total - least and vi < total - min(map(weight, bundle)):
                g = next(g for g in bundle if vi < total - w[g])
                return AuditReport("efx", False, _pair_witness(i, j, good=g))
    return AuditReport("efx", True)


def check_efx_with_charity(inst: Instance, alloc: IntegralAllocation) -> AuditReport:
    efx = check_efx(inst, alloc)
    if not efx.passed:
        return AuditReport("efx-with-charity", False, efx.witness)
    for i in inst.agents:
        if envies_set(inst, alloc, i, alloc.pool):
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
    success is the reconstructed sequence.
    """
    if alloc.pool or not alloc.is_complete(inst.m):
        raise PreconditionError("Pareto audit needs a complete allocation with an empty pool")
    rankings = ordinal_rankings(inst)
    owner: dict[int, int] = {}
    for i, bundle in enumerate(alloc.bundles):
        for g in bundle:
            owner[g] = i
    remaining = set(range(inst.m))
    cursors = [0] * inst.n
    sequence: list[int] = []

    def top_remaining(i: int) -> Optional[int]:
        r = rankings[i]
        while cursors[i] < len(r) and r[cursors[i]] not in remaining:
            cursors[i] += 1
        return r[cursors[i]] if cursors[i] < len(r) else None

    progress = True
    while remaining and progress:
        progress = False
        for i in inst.agents:
            g = top_remaining(i)
            if g is not None and owner.get(g) == i:
                sequence.append(i)
                remaining.discard(g)
                progress = True
                break
    if remaining:
        stuck = {i: top_remaining(i) for i in inst.agents}
        return AuditReport(
            "po-lex",
            False,
            {"unconsumed": sorted(remaining), "top_choices": {str(i): g for i, g in stuck.items()}},
        )
    return AuditReport("po-lex", True, {"sequence": sequence})


# ---------------------------------------------------------------------------
# stochastic-dominance envy-freeness of fractional outcomes


def check_sdef(
    rows: Sequence[Sequence[Fraction]], rankings: Sequence[Sequence[int]]
) -> AuditReport:
    """Prefix-mass dominance: for every pair (i, j) and every prefix of i's
    ranking, i's share of the prefix is at least j's."""
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


def check_sdef_instance(inst: Instance, rows: Sequence[Sequence[Fraction]]) -> AuditReport:
    return check_sdef(rows, ordinal_rankings(inst))


# ---------------------------------------------------------------------------
# ex-ante (expected-value) guarantees of lotteries


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
    ratio is infinite."""
    matrix, _ = _expected_matrix(dist, inst)
    ratios = (
        _ratio(row[i], other) for i, row in enumerate(matrix) for j, other in enumerate(row) if i != j
    )
    return min((r for r in ratios if r is not None), default=None)


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
    everything = frozenset(range(inst.m))
    for i in inst.agents:
        got = Fraction(matrix[i][i], den[i])
        fair_share = value_of(inst, i, everything) / inst.n
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
    Pr[v_i(own) >= T] >= (1/2) Pr[v_i(j's bundle) >= T], exactly."""
    for i in inst.agents:
        # viewer i's value of every bundle, once per outcome
        views = [(p, [value_of(inst, i, b) for b in a.bundles]) for p, a in dist.support]
        own_vals = [(p, values[i]) for p, values in views]
        for j in inst.agents:
            if i == j:
                continue
            other_vals = [(p, values[j]) for p, values in views]
            thresholds = {v for _, v in own_vals} | {v for _, v in other_vals}
            for t in thresholds:
                p_own = sum((p for p, v in own_vals if v >= t), start=Fraction(0))
                p_other = sum((p for p, v in other_vals if v >= t), start=Fraction(0))
                if 2 * p_own < p_other:
                    return AuditReport(
                        "stochastic-dominance-half",
                        False,
                        _pair_witness(
                            i,
                            j,
                            threshold=format_rational(t),
                            own=format_rational(p_own),
                            other=format_rational(p_other),
                        ),
                    )
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
