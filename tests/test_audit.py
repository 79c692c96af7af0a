from __future__ import annotations

from collections import Counter
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm

import pytest

from bobw import (
    Additive,
    Instance,
    IntegralAllocation,
    Lexicographic,
    PreconditionError,
    RandomizedAllocation,
    Table,
    check_bounded_charity,
    check_ef,
    check_ef1,
    check_efx,
    check_efx_with_charity,
    check_exante_ef,
    check_exante_prop,
    check_po_lex,
    check_sdef,
    check_stochastic_dominance_half,
    check_support,
    exante_ratio,
    format_rational,
    get_fixture,
    k2_sampler,
    min_exante_ratio,
    ratio_table,
    summarize,
    uniform_permutation,
    unit_run,
    utse,
    value_of,
)
from bobw import audit, core, oracle
from bobw.audit import AuditReport, envied_agents, envy_edges, unenvied_agents
from bobw.eating import ordinal_rankings
from bobw.rng import SplitMix64

from helpers import (
    _ref_enviers_of_set,
    additive_instance,
    capped_additive_instance,
    from_assignment,
    lex_instance,
    monotone_instance,
)

F = Fraction


def _additive_pair():
    # agent 1 envies {0, 1} but dropping good 0 cures it, dropping good 1 does not
    return Instance(
        n=2,
        m=3,
        valuations=(Additive(values=(6, 2, 1)), Additive(values=(5, 1, 3))),
    )


def test_envy_primitives():
    inst = _additive_pair()
    alloc = from_assignment([0, 0, 1], 2)
    assert envy_edges(inst, alloc)[1] == [0]
    assert 0 not in envy_edges(inst, alloc)
    assert envied_agents(inst, alloc) == {0}
    assert unenvied_agents(inst, alloc) == [1]


def test_check_ef_pass_and_fail():
    opposed = Instance(n=2, m=2, valuations=(Additive(values=(4, 1)), Additive(values=(1, 4))))
    assert check_ef(opposed, from_assignment([0, 1], 2)).passed
    rep = check_ef(_additive_pair(), from_assignment([0, 0, 1], 2))
    assert not rep.passed
    assert rep.witness == {"viewer": 1, "toward": 0}


def test_check_ef1_removal_of_best_good_counts():
    inst = _additive_pair()
    rep = check_ef1(inst, from_assignment([0, 0, 1], 2))
    assert rep.passed  # dropping good 0 removes the envy
    worse = Instance(n=2, m=3, valuations=(Additive(values=(6, 2, 1)), Additive(values=(5, 4, 3))))
    rep = check_ef1(worse, from_assignment([0, 0, 1], 2))
    assert not rep.passed


def test_check_efx_requires_every_removal_to_cure():
    inst = _additive_pair()
    rep = check_efx(inst, from_assignment([0, 0, 1], 2))
    assert not rep.passed
    assert rep.witness == {"viewer": 1, "toward": 0, "good": 1}
    assert check_efx(inst, from_assignment([0, 1, 1], 2)).passed


def test_efx_on_rankings_means_envied_bundles_are_singletons():
    # with one strict ranking per agent the two predicates coincide, which
    # gives an independent cross-check of the removal-based audit
    rng = SplitMix64(400)
    for _ in range(150):
        n = 2 + rng.below(3)
        m = 2 + rng.below(5)
        inst = lex_instance(rng, n, m)
        alloc = from_assignment([rng.below(n) for _ in range(m)], n)
        envied = envied_agents(inst, alloc)
        expected = all(len(alloc.bundles[j]) == 1 for j in envied)
        assert check_efx(inst, alloc).passed == expected


def test_charity_checks_consider_the_pool():
    inst = _additive_pair()
    ok = IntegralAllocation(bundles=(frozenset({0}), frozenset({2})), pool=frozenset({1}))
    assert check_efx_with_charity(inst, ok).passed
    # agent 1 prefers the pooled good 2 over its own bundle
    bad = IntegralAllocation(bundles=(frozenset({0}), frozenset({1})), pool=frozenset({2}))
    rep = check_efx_with_charity(inst, bad)
    assert not rep.passed
    assert rep.witness["toward"] == "pool"


def test_bounded_charity_needs_pool_smaller_than_unenvied_count():
    inst = _additive_pair()
    ok = IntegralAllocation(bundles=(frozenset({0}), frozenset({2})), pool=frozenset({1}))
    rep = check_bounded_charity(inst, ok)
    # agent 1 still envies {0}; only one agent is unenvied, pool has one good
    assert not rep.passed
    assert rep.witness["reason"] == "pool too large"
    full = from_assignment([0, 1, 1], 2)
    assert check_bounded_charity(inst, full).passed


def test_po_lex_reconstructs_picking_sequences():
    inst = get_fixture("FIX-D")
    rep = check_po_lex(inst, from_assignment([1, 1, 0], 2))
    assert rep.passed
    assert rep.witness == {"sequence": [1, 1, 0]}


def test_po_lex_rejects_mutually_blocked_allocations():
    inst = Instance(
        n=2, m=2, valuations=(Lexicographic(ranking=(0, 1)), Lexicographic(ranking=(1, 0)))
    )
    rep = check_po_lex(inst, from_assignment([1, 0], 2))
    assert not rep.passed
    assert rep.witness["unconsumed"] == [0, 1]
    assert check_po_lex(inst, from_assignment([0, 1], 2)).passed


def test_po_lex_needs_complete_pool_free_allocation():
    inst = get_fixture("FIX-D")
    partial = IntegralAllocation(bundles=(frozenset({0}), frozenset({1})), pool=frozenset({2}))
    with pytest.raises(PreconditionError):
        check_po_lex(inst, partial)


def test_check_sdef_prefix_shares():
    rows = ((F(1), F(0)), (F(0), F(1)))
    opposed = Instance(n=2, m=2, valuations=(Lexicographic((0, 1)), Lexicographic((1, 0))))
    assert check_sdef(opposed, rows).passed
    shared = Instance(n=2, m=2, valuations=(Lexicographic((0, 1)), Lexicographic((0, 1))))
    rep = check_sdef(shared, rows)
    assert not rep.passed
    assert rep.witness["viewer"] == 1
    assert rep.witness["prefix_depth"] == 1


def test_check_sdef_on_eating_output():
    inst = get_fixture("FIX-D")
    s = summarize(unit_run(inst))
    assert check_sdef(inst, s.X).passed


def _dist(inst, assignments, weights):
    outcomes = [from_assignment(a, inst.n) for a in assignments]
    return RandomizedAllocation(support=tuple(zip(map(F, weights), outcomes)))


def test_exante_ratio_and_minimum():
    inst = _additive_pair()
    dist = _dist(inst, [[0, 1, 1]], [1])
    assert exante_ratio(dist, inst, 0, 1) == F(2)
    assert exante_ratio(dist, inst, 1, 0) == F(4, 5)
    assert min_exante_ratio(dist, inst) == F(4, 5)


def test_exante_ratio_none_for_zero_denominator():
    inst = _additive_pair()
    dist = _dist(inst, [[0, 0, 0]], [1])
    assert exante_ratio(dist, inst, 1, 0) == F(0)
    assert exante_ratio(dist, inst, 0, 1) is None
    assert min_exante_ratio(dist, inst) == F(0)


def test_exante_ef_threshold():
    inst = _additive_pair()
    dist = _dist(inst, [[0, 1, 1]], [1])
    assert check_exante_ef(dist, inst, F(4, 5)).passed
    rep = check_exante_ef(dist, inst, F(1))
    assert not rep.passed
    assert rep.witness["viewer"] == 1


def test_exante_prop_threshold():
    inst = _additive_pair()
    dist = _dist(inst, [[0, 1, 1]], [1])
    assert check_exante_prop(dist, inst, F(8, 9)).passed
    assert not check_exante_prop(dist, inst, F(1)).passed


def test_stochastic_dominance_half_catches_starved_agent():
    inst = _additive_pair()
    dist = _dist(inst, [[1, 1, 1]], [1])
    rep = check_stochastic_dominance_half(dist, inst)
    assert not rep.passed
    assert rep.witness["viewer"] == 0
    fair = _dist(inst, [[0, 1, 1], [1, 0, 0]], [F(1, 2), F(1, 2)])
    assert check_stochastic_dominance_half(fair, inst).passed


def test_check_support_aggregates_per_property():
    inst = _additive_pair()
    dist = _dist(inst, [[0, 1, 1], [0, 0, 1]], [F(1, 2), F(1, 2)])
    reports = check_support(inst, dist, {"efx": check_efx, "ef1": check_ef1})
    assert reports["ef1"].passed
    assert not reports["efx"].passed
    assert reports["efx"].witness["support_index"] == 1
    assert reports["efx"].witness["inner"] == {"viewer": 1, "toward": 0, "good": 1}


def test_audit_report_json_shape():
    inst = _additive_pair()
    rep = check_ef(inst, from_assignment([0, 0, 1], 2))
    js = rep.to_json()
    assert js == {
        "property": "ef",
        "passed": False,
        "witness": {"viewer": 1, "toward": 0},
    }


# ---------------------------------------------------------------------------
# differential check of the integer-weight audits against value_of loops


def _ref_check_efx(inst, alloc):
    for i in inst.agents:
        vi = value_of(inst, i, alloc.bundles[i])
        for j in inst.agents:
            if i == j:
                continue
            for g in alloc.bundles[j]:
                if vi < value_of(inst, i, alloc.bundles[j] - {g}):
                    return AuditReport("efx", False, {"viewer": i, "toward": j, "good": g})
    return AuditReport("efx", True)


def _ref_expected_value(dist, inst, i, j):
    return sum((p * value_of(inst, i, alloc.bundles[j]) for p, alloc in dist.support), start=F(0))


def _ref_min_exante_ratio(dist, inst):
    worst = None
    for i in inst.agents:
        for j in inst.agents:
            if i == j:
                continue
            num = _ref_expected_value(dist, inst, i, i)
            den = _ref_expected_value(dist, inst, i, j)
            if den != 0 and (worst is None or num / den < worst):
                worst = num / den
    return worst


def _ref_check_exante_ef(dist, inst, alpha):
    for i in inst.agents:
        num = _ref_expected_value(dist, inst, i, i)
        for j in inst.agents:
            if i == j:
                continue
            den = _ref_expected_value(dist, inst, i, j)
            if num < alpha * den:
                witness = {"viewer": i, "toward": j, "alpha": str(alpha), "own": str(num), "other": str(den)}
                return AuditReport("exante-ef", False, witness)
    return AuditReport("exante-ef", True, {"alpha": str(alpha)})


def _fraction_additive_instance(rng, n, m):
    # small numerators over mixed denominators; ties, zeros and negatives
    # included, which the audits accept even though validation does not
    vals = tuple(
        Additive(values=tuple(F(rng.below(13) - 2, 1 + rng.below(6)) for _ in range(m))) for _ in range(n)
    )
    return Instance(n=n, m=m, valuations=vals)


def _random_allocation(rng, inst):
    return from_assignment([rng.below(inst.n) for _ in inst.goods], inst.n)


def _random_lottery(rng, inst):
    outcomes = [_random_allocation(rng, inst) for _ in range(1 + rng.below(4))]
    weights = [1 + rng.below(7) for _ in outcomes]
    return RandomizedAllocation.merged((F(w, sum(weights)), a) for w, a in zip(weights, outcomes))


def _same_verdicts(inst, alloc, dist):
    assert check_efx(inst, alloc).to_json() == _ref_check_efx(inst, alloc).to_json()
    ratio = min_exante_ratio(dist, inst)
    assert ratio == _ref_min_exante_ratio(dist, inst)
    alphas = [F(0), F(1, 2), F(3, 4), F(1)] + ([ratio] if ratio is not None else [])
    for alpha in alphas:
        expected = _ref_check_exante_ef(dist, inst, alpha)
        assert check_exante_ef(dist, inst, alpha).to_json() == expected.to_json()
    return check_efx(inst, alloc).passed


def test_integer_audits_match_value_of_loops():
    rng = SplitMix64(2507)
    makers = (lex_instance, additive_instance, _fraction_additive_instance)
    failing = 0
    for case in range(600):
        inst = makers[case % 3](rng, 2 + rng.below(4), 1 + rng.below(9))
        alloc = _random_allocation(rng, inst)
        tied = any(len(set(v.values)) < inst.m for v in inst.valuations if isinstance(v, Additive))
        dist = _random_lottery(rng, inst) if tied or case % 2 else uniform_permutation(inst)
        failing += not _same_verdicts(inst, alloc, dist)
    assert failing > 300  # most random allocations are not EFX


def _ref_envy_edges(inst, alloc):
    out = {}
    for i in inst.agents:
        vi = value_of(inst, i, alloc.bundles[i])
        targets = [j for j in inst.agents if j != i and vi < value_of(inst, i, alloc.bundles[j])]
        if targets:
            out[i] = targets
    return out


def _ref_check_ef(inst, alloc):
    for i in inst.agents:
        for j in inst.agents:
            if i != j and value_of(inst, i, alloc.bundles[i]) < value_of(inst, i, alloc.bundles[j]):
                return AuditReport("ef", False, {"viewer": i, "toward": j})
    return AuditReport("ef", True)


def _ref_check_ef1(inst, alloc):
    for i in inst.agents:
        vi = value_of(inst, i, alloc.bundles[i])
        for j in inst.agents:
            if i == j or not alloc.bundles[j]:
                continue
            if all(vi < value_of(inst, i, alloc.bundles[j] - {g}) for g in alloc.bundles[j]):
                return AuditReport("ef1", False, {"viewer": i, "toward": j})
    return AuditReport("ef1", True)


def _ref_check_efx_with_charity(inst, alloc):
    efx = _ref_check_efx(inst, alloc)
    if not efx.passed:
        return AuditReport("efx-with-charity", False, efx.witness)
    enviers = _ref_enviers_of_set(inst, alloc, alloc.pool)
    if enviers:
        witness = {"viewer": enviers[0], "toward": "pool", "pool": sorted(alloc.pool)}
        return AuditReport("efx-with-charity", False, witness)
    return AuditReport("efx-with-charity", True)


def _ref_check_bounded_charity(inst, alloc):
    base = _ref_check_efx_with_charity(inst, alloc)
    if not base.passed:
        return AuditReport("bounded-charity", False, base.witness)
    envied = {j for targets in _ref_envy_edges(inst, alloc).values() for j in targets}
    free = [i for i in inst.agents if i not in envied]
    if not free:
        return AuditReport("bounded-charity", False, {"reason": "no unenvied agent exists"})
    witness = {"pool_size": len(alloc.pool), "unenvied": len(free)}
    if len(alloc.pool) >= len(free):
        return AuditReport("bounded-charity", False, {"reason": "pool too large", **witness})
    return AuditReport("bounded-charity", True, witness)


def _same_envy_verdicts(inst, alloc):
    """The envy audits against value_of loops; returns the EFX verdict."""
    assert envy_edges(inst, alloc) == _ref_envy_edges(inst, alloc)
    pairs = ((check_ef, _ref_check_ef), (check_ef1, _ref_check_ef1), (check_efx, _ref_check_efx),
             (check_efx_with_charity, _ref_check_efx_with_charity), (check_bounded_charity, _ref_check_bounded_charity))
    for checker, ref in pairs:
        assert checker(inst, alloc).to_json() == ref(inst, alloc).to_json()
    return check_efx(inst, alloc).passed


def _fraction_table_instance(rng, n, m):
    # arbitrary tables over mixed denominators: not monotone, with ties,
    # zeros and negatives, which the audits accept
    vals = tuple(
        Table(values=tuple(F(rng.below(13) - 2, 1 + rng.below(6)) for _ in range(1 << m))) for _ in range(n)
    )
    return Instance(n=n, m=m, valuations=vals)


def _random_partial_allocation(rng, inst):
    # agent index n stands for the pool
    owners = [rng.below(inst.n + 1) for _ in inst.goods]
    bundles = tuple(frozenset(g for g, o in enumerate(owners) if o == i) for i in inst.agents)
    return IntegralAllocation(bundles=bundles, pool=frozenset(g for g, o in enumerate(owners) if o == inst.n))


def test_integer_audits_match_value_of_loops_on_tables_and_mixed_kinds():
    rng = SplitMix64(6203)
    makers = (monotone_instance, _fraction_table_instance, _mixed_instance)
    seen = set()
    for case in range(600):
        inst = makers[case % 3](rng, 2 + rng.below(4), 1 + rng.below(6))
        alloc = _random_partial_allocation(rng, inst)
        efx = _same_envy_verdicts(inst, alloc)
        charity = check_efx_with_charity(inst, alloc).passed
        bounded = check_bounded_charity(inst, alloc).passed
        complete = _random_allocation(rng, inst)
        seen.add((efx, charity, bounded, _same_verdicts(inst, complete, _random_lottery(rng, inst))))
    # every audit both passes and fails somewhere
    assert all({flags[k] for flags in seen} == {True, False} for k in range(4))


def test_integer_audits_never_call_value_of(monkeypatch):
    rng = SplitMix64(77)
    cases = []
    for inst in (lex_instance(rng, 3, 5), additive_instance(rng, 3, 5), _fraction_additive_instance(rng, 3, 5),
                 monotone_instance(rng, 3, 5), _fraction_table_instance(rng, 3, 4), _mixed_instance(rng, 4, 5)):
        for _ in range(10):
            partial = _random_partial_allocation(rng, inst)
            _same_envy_verdicts(inst, partial)
            alloc, dist = _random_allocation(rng, inst), _random_lottery(rng, inst)
            _same_verdicts(inst, alloc, dist)
            cases.append((inst, partial, alloc, dist))

    # value_of and every other exact-value read go through Valuation.value
    calls = []
    monkeypatch.setattr(core._IntegerForm, "value", lambda self, bundle: calls.append(bundle))
    assert not hasattr(audit, "value_of") and not hasattr(oracle, "value_of")
    for inst, partial, alloc, dist in cases:
        envy_edges(inst, partial)
        for checker in (check_ef, check_ef1, check_efx, check_efx_with_charity, check_bounded_charity):
            checker(inst, partial)
        check_efx(inst, alloc)
        min_exante_ratio(dist, inst)
        check_exante_ef(dist, inst, F(1, 2))
        check_exante_prop(dist, inst, F(1, 2))
        check_stochastic_dominance_half(dist, inst)
        ratio_table(inst, lambda seed: alloc, 3, 0)
    assert calls == []


# ---------------------------------------------------------------------------
# differential check of the heap-driven Pareto audit against the rescanning loop


def _ref_check_po_lex(inst, alloc):
    if alloc.pool or not alloc.is_complete(inst.m):
        raise PreconditionError("Pareto audit needs a complete allocation with an empty pool")
    rankings = ordinal_rankings(inst)
    owner = {}
    for i, bundle in enumerate(alloc.bundles):
        for g in bundle:
            owner[g] = i
    remaining = set(range(inst.m))
    cursors = [0] * inst.n
    sequence = []

    def top_remaining(i):
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


def _picking_allocation(rng, inst):
    # a random picking sequence: every agent takes its top remaining good
    rankings = ordinal_rankings(inst)
    remaining = set(inst.goods)
    bundles = [set() for _ in inst.agents]
    while remaining:
        i = rng.below(inst.n)
        g = next(g for g in rankings[i] if g in remaining)
        bundles[i].add(g)
        remaining.discard(g)
    return IntegralAllocation(bundles=tuple(frozenset(b) for b in bundles))


def _po_lex_case(rng, case):
    maker = (lex_instance, additive_instance)[case % 2]
    inst = maker(rng, 2 + rng.below(7), 1 + rng.below(16))
    # picking outcomes pass; random ones and picking outcomes with two
    # goods traded mostly fail, often deep into the sequence
    alloc = _random_allocation(rng, inst) if case % 3 == 0 else _picking_allocation(rng, inst)
    i, j = rng.below(inst.n), rng.below(inst.n)
    if case % 3 == 2 and i != j and alloc.bundles[i] and alloc.bundles[j]:
        g, h = min(alloc.bundles[i]), min(alloc.bundles[j])
        bundles = list(alloc.bundles)
        bundles[i], bundles[j] = bundles[i] - {g} | {h}, bundles[j] - {h} | {g}
        alloc = IntegralAllocation(bundles=tuple(bundles))
    return inst, alloc


def test_po_lex_heap_matches_the_rescanning_loop():
    rng = SplitMix64(5151)
    verdicts = []
    for case in range(600):
        inst, alloc = _po_lex_case(rng, case)
        rep = check_po_lex(inst, alloc)
        assert rep.to_json() == _ref_check_po_lex(inst, alloc).to_json()
        verdicts.append(rep.passed)
    assert 100 < sum(verdicts) < 500


# ---------------------------------------------------------------------------
# differential check of the one-matrix ex-ante audits against per-pair loops


def _ref_exante_ratio(dist, inst, i, j):
    num = _ref_expected_value(dist, inst, i, i)
    den = _ref_expected_value(dist, inst, i, j)
    if den == 0:
        return None
    return num / den


def _ref_check_exante_prop(dist, inst, alpha):
    everything = frozenset(range(inst.m))
    for i in inst.agents:
        got = _ref_expected_value(dist, inst, i, i)
        fair_share = value_of(inst, i, everything) / inst.n
        if got < alpha * fair_share:
            witness = {"agent": i, "alpha": str(alpha), "expected": str(got), "share": str(fair_share)}
            return AuditReport("exante-prop", False, witness)
    return AuditReport("exante-prop", True, {"alpha": str(alpha)})


def _ref_check_stochastic_dominance_half(dist, inst):
    for i in inst.agents:
        for j in inst.agents:
            if i == j:
                continue
            own_vals = [(p, value_of(inst, i, a.bundles[i])) for p, a in dist.support]
            other_vals = [(p, value_of(inst, i, a.bundles[j])) for p, a in dist.support]
            for t in sorted({v for _, v in own_vals} | {v for _, v in other_vals}):
                p_own = sum((p for p, v in own_vals if v >= t), start=F(0))
                p_other = sum((p for p, v in other_vals if v >= t), start=F(0))
                if 2 * p_own < p_other:
                    witness = {"viewer": i, "toward": j, "threshold": str(t), "own": str(p_own), "other": str(p_other)}
                    return AuditReport("stochastic-dominance-half", False, witness)
    return AuditReport("stochastic-dominance-half", True)


def _mixed_instance(rng, n, m):
    # each agent lexicographic, fractional additive (ties, zeros, negatives) or a table
    makers = (lex_instance, _fraction_additive_instance, monotone_instance)
    vals = tuple(makers[rng.below(3)](rng, 1, m).valuations[0] for _ in range(n))
    return Instance(n=n, m=m, valuations=vals)


def test_exante_audits_match_per_pair_loops():
    rng = SplitMix64(3105)
    failing = 0
    for _ in range(500):
        inst = _mixed_instance(rng, 2 + rng.below(3), 1 + rng.below(6))
        dist = _random_lottery(rng, inst)
        for i in inst.agents:
            for j in inst.agents:
                assert exante_ratio(dist, inst, i, j) == _ref_exante_ratio(dist, inst, i, j)
        reports = [(check_stochastic_dominance_half(dist, inst), _ref_check_stochastic_dominance_half(dist, inst))]
        for alpha in (F(0), F(1, 2), F(3, 4), F(1), F(3, 2)):
            reports.append((check_exante_prop(dist, inst, alpha), _ref_check_exante_prop(dist, inst, alpha)))
        for got, expected in reports:
            assert got.to_json() == expected.to_json()
            failing += not got.passed
    assert failing > 300

    # the exact charity lotteries of oracle-size tables, and each again with
    # its probabilities permuted across outcomes, some of which fail
    failing = 0
    for make in (monotone_instance, capped_additive_instance):
        for m in (5, 6):
            for _ in range(10):
                inst = make(rng, 3, m)
                dist = oracle.exact_distribution_charity(inst, algorithm=3)
                probs = [p for p, _ in dist.support]
                order = rng.permutation(len(probs))
                permuted = RandomizedAllocation(tuple((probs[k], a) for k, (_, a) in zip(order, dist.support)))
                for lottery in (dist, permuted):
                    got = check_stochastic_dominance_half(lottery, inst)
                    assert got.to_json() == _ref_check_stochastic_dominance_half(lottery, inst).to_json()
                    failing += not got.passed
    assert 8 < failing < 72  # witnesses compared, and passes too


# ---------------------------------------------------------------------------
# differential check of the one-good-bundle EFX rule, the inline Pareto
# greedy and the cross-multiplied least ratio against the routines they
# replaced, kept verbatim


def _ref_weighted_check_efx(inst, alloc):
    for i, val in enumerate(inst.valuations):
        w = val.weights
        vi = val.int_value(alloc.bundles[i])
        if isinstance(val, Table):
            for j in inst.agents:
                if i == j:
                    continue
                mask = core.bundle_mask(alloc.bundles[j])
                for g in alloc.bundles[j]:
                    if vi < w[mask ^ (1 << g)]:
                        return AuditReport("efx", False, audit._pair_witness(i, j, good=g))
            continue
        weight = w.__getitem__
        least = min(w, default=0)  # bounds every bundle's least weight from below
        for j in inst.agents:
            bundle = alloc.bundles[j]
            if i == j or not bundle:
                continue
            total = sum(map(weight, bundle))
            if vi < total - least and vi < total - min(map(weight, bundle)):
                g = next(g for g in bundle if vi < total - w[g])
                return AuditReport("efx", False, audit._pair_witness(i, j, good=g))
    return AuditReport("efx", True)


def _ref_placing_check_po_lex(inst, alloc):
    if alloc.pool or not alloc.is_complete(inst.m):
        raise PreconditionError("Pareto audit needs a complete allocation with an empty pool")
    rankings = ordinal_rankings(inst)
    owner: dict[int, int] = {}
    for i, bundle in enumerate(alloc.bundles):
        for g in bundle:
            owner[g] = i
    remaining = set(range(inst.m))
    cursors = [0] * inst.n  # each agent's top remaining good, or len(ranking)
    ready: list[int] = []  # min-heap of agents whose top remaining good is their own
    waiting: dict[int, list[int]] = {}  # good -> agents whose top it is, not its owner
    sequence: list[int] = []

    def place(i: int) -> None:
        r = rankings[i]
        c = cursors[i]
        while c < len(r) and r[c] not in remaining:
            c += 1
        cursors[i] = c
        if c < len(r):
            if owner[r[c]] == i:
                heappush(ready, i)
            else:
                waiting.setdefault(r[c], []).append(i)

    for i in inst.agents:
        place(i)
    # the lowest ready agent picks; a pick moves only the picker's top and
    # the tops of the agents waiting on the picked good
    while ready:
        i = heappop(ready)
        g = rankings[i][cursors[i]]
        sequence.append(i)
        remaining.discard(g)
        place(i)
        for k in waiting.pop(g, ()):
            place(k)
    if remaining:
        top = {str(i): r[c] if c < len(r) else None for i, (r, c) in enumerate(zip(rankings, cursors))}
        return AuditReport("po-lex", False, {"unconsumed": sorted(remaining), "top_choices": top})
    return AuditReport("po-lex", True, {"sequence": sequence})


def _ref_fraction_min_exante_ratio(dist, inst):
    matrix, _ = audit._expected_matrix(dist, inst)
    ratios = (
        audit._ratio(row[i], other) for i, row in enumerate(matrix) for j, other in enumerate(row) if i != j
    )
    return min((r for r in ratios if r is not None), default=None)


def _fraction_lex_instance(rng, n, m):
    # lexicographic-consistent additive values over a common denominator:
    # rank r is worth ((m + 1) * 2^(m-1-r) + 0 or 1) / den, more than all
    # the goods below it together
    rankings = [v.ranking for v in lex_instance(rng, n, m).valuations]
    den = 2 + rng.below(5)
    vals = []
    for ranking in rankings:
        values = [F(0)] * m
        for r, g in enumerate(ranking):
            values[g] = F(((m + 1) << (m - 1 - r)) + rng.below(2), den)
        assert core.is_lexicographic_additive(values)
        vals.append(Additive(values=tuple(values)))
    return Instance(n=n, m=m, valuations=tuple(vals))


def _failing_pair(inst):
    # the not-EFX and the not-PO allocation of the certify benchmark's
    # controls: agent 1 holds only its least-liked good and agent 0 the rest;
    # then agents 0 and b hold goods they rank in opposite orders
    ranks = ordinal_rankings(inst)
    n, m = inst.n, inst.m
    bundles = [set() for _ in range(n)]
    free = set(range(m))
    for j in range(1, n):
        g = next(g for g in reversed(ranks[j]) if g in free)
        bundles[j].add(g)
        free.discard(g)
    bundles[0] = free
    not_efx = IntegralAllocation(tuple(map(frozenset, bundles)))
    b = next(j for j in range(1, n) if ranks[j] != ranks[0])
    pos = {g: k for k, g in enumerate(ranks[b])}
    y, x = next((y, x) for y, x in zip(ranks[0], ranks[0][1:]) if pos[x] < pos[y])
    bundles = [set() for _ in range(n)]
    bundles[0].add(x)
    bundles[b].add(y)
    for k, g in enumerate(g for g in range(m) if g not in (x, y)):
        bundles[k % n].add(g)
    return not_efx, IntegralAllocation(tuple(map(frozenset, bundles)))


def _same_as_replaced(inst, allocs, dist=None):
    verdicts = []
    for alloc in allocs:
        efx, ref_efx = check_efx(inst, alloc), _ref_weighted_check_efx(inst, alloc)
        assert efx.to_json() == ref_efx.to_json()
        po, ref_po = check_po_lex(inst, alloc), _ref_placing_check_po_lex(inst, alloc)
        assert po.to_json() == ref_po.to_json()
        verdicts.append((efx.passed, po.passed))
    if dist is not None:
        ratio, ref = min_exante_ratio(dist, inst), _ref_fraction_min_exante_ratio(dist, inst)
        assert (ratio, type(ratio)) == (ref, type(ref))
    return verdicts


def test_support_audits_match_the_replaced_routines():
    rng = SplitMix64(1607)
    makers = (lex_instance, _fraction_lex_instance, additive_instance)
    for case in range(18):
        n = (8, 12)[case // 3 % 2]
        inst = makers[case % 3](rng, n, 2 * n)
        dist = utse(inst)
        outcomes = [alloc for _, alloc in dist.support]
        verdicts = _same_as_replaced(inst, outcomes, dist)
        if case % 3 < 2:  # lexicographic preferences: every outcome is EFX and PO
            assert verdicts == [(True, True)] * len(outcomes)
        not_efx, not_po = _failing_pair(inst)
        failing = _same_as_replaced(inst, [not_efx, not_po])
        assert not failing[0][0] and not failing[1][1]
    draws = 0
    while draws < 40:
        inst = lex_instance(rng, 3 + rng.below(4), 5 + rng.below(6))
        if summarize(unit_run(inst)).k == 2:
            sample = k2_sampler(inst)
            assert _same_as_replaced(inst, [sample(seed) for seed in range(10)]) == [(True, True)] * 10
            draws += 10


def test_efx_witness_of_a_negative_viewer_facing_one_good():
    # a viewer worth less than the empty bundle envies every one-good bundle
    rng = SplitMix64(1608)
    faced = 0
    for _ in range(400):
        inst = _fraction_additive_instance(rng, 2 + rng.below(4), 1 + rng.below(7))
        alloc = _random_allocation(rng, inst)
        rep = check_efx(inst, alloc)
        assert rep.to_json() == _ref_weighted_check_efx(inst, alloc).to_json()
        dist = _random_lottery(rng, inst)
        ratio, ref = min_exante_ratio(dist, inst), _ref_fraction_min_exante_ratio(dist, inst)
        assert (ratio, type(ratio)) == (ref, type(ref))
        if not rep.passed:
            i, j = rep.witness["viewer"], rep.witness["toward"]
            faced += inst.valuations[i].int_value(alloc.bundles[i]) < 0 and len(alloc.bundles[j]) == 1
    assert faced > 20


# ---------------------------------------------------------------------------
# differential check of the least-weight EFX pre-test, the Pareto greedy
# that places only agents with goods left, and the per-good share matrix
# against the routines they replaced, kept verbatim


def _ref_multi_check_efx(inst, alloc):
    bundles = alloc.bundles
    multi = [j for j, bundle in enumerate(bundles) if len(bundle) > 1]
    for i, val in enumerate(inst.valuations):
        w = val.weights
        vi = val.int_value(bundles[i])
        if isinstance(val, Table):
            for j in inst.agents:
                if i == j:
                    continue
                mask = core.bundle_mask(bundles[j])
                for g in bundles[j]:
                    if vi < w[mask ^ (1 << g)]:
                        return AuditReport("efx", False, audit._pair_witness(i, j, good=g))
            continue
        weight = w.__getitem__
        for j in multi if vi >= 0 else inst.agents:
            bundle = bundles[j]
            if i == j or not bundle:
                continue
            total = sum(map(weight, bundle))
            if vi < total - min(map(weight, bundle)):
                g = next(g for g in bundle if vi < total - w[g])
                return AuditReport("efx", False, audit._pair_witness(i, j, good=g))
    return AuditReport("efx", True)


def _ref_cursor_check_po_lex(inst, alloc):
    if alloc.pool or not alloc.is_complete(inst.m):
        raise PreconditionError("Pareto audit needs a complete allocation with an empty pool")
    rankings = ordinal_rankings(inst)
    m = inst.m
    owner = [0] * m
    for i, bundle in enumerate(alloc.bundles):
        for g in bundle:
            owner[g] = i
    taken = [False] * m
    cursors = [0] * inst.n  # each agent's top remaining good, or m
    ready: list[int] = []  # min-heap of agents whose top remaining good is their own
    waiting: dict[int, list[int]] = {}  # good -> agents whose top it is, not its owner
    sequence: list[int] = []
    # place every agent, then after each pick only the picker and the agents
    # waiting on the picked good: the lowest ready agent picks
    movers = inst.agents
    while True:
        for k in movers:
            r = rankings[k]
            c = cursors[k]
            while c < m and taken[r[c]]:
                c += 1
            cursors[k] = c
            if c < m:
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
        movers = [i, *waiting.pop(g, ())]
    if len(sequence) < m:
        top = {str(i): r[c] if c < m else None for i, (r, c) in enumerate(zip(rankings, cursors))}
        unconsumed = [g for g in range(m) if not taken[g]]
        return AuditReport("po-lex", False, {"unconsumed": unconsumed, "top_choices": top})
    return AuditReport("po-lex", True, {"sequence": sequence})


def _ref_bundle_expected_matrix(dist, inst):
    scale = lcm(*(p.denominator for p, _ in dist.support))
    mass = [Counter() for _ in inst.agents]  # j -> bundle -> scaled probability
    for p, alloc in dist.support:
        q = p.numerator * (scale // p.denominator)
        for j in inst.agents:
            mass[j][alloc.bundles[j]] += q
    matrix = [[sum(q * val.int_value(b) for b, q in held.items()) for held in mass] for val in inst.valuations]
    return matrix, [scale * val.scale for val in inst.valuations]


def _same_outcome_audits(inst, alloc):
    efx = check_efx(inst, alloc)
    assert efx.to_json() == _ref_multi_check_efx(inst, alloc).to_json()
    po = check_po_lex(inst, alloc)
    assert po.to_json() == _ref_cursor_check_po_lex(inst, alloc).to_json()
    return efx, po


def _exante_outputs(inst, dist):
    out = [exante_ratio(dist, inst, i, j) for i in inst.agents for j in inst.agents]
    ratio = min_exante_ratio(dist, inst)
    out.append((ratio, type(ratio)))
    for alpha in (F(0), F(1, 2), F(3, 4), F(1), F(3, 2)) + ((ratio,) if ratio is not None else ()):
        out.append(check_exante_ef(dist, inst, alpha).to_json())
        out.append(check_exante_prop(dist, inst, alpha).to_json())
    return out


def _same_exante_outputs(monkeypatch, inst, dist):
    assert audit._expected_matrix(dist, inst) == _ref_bundle_expected_matrix(dist, inst)
    got = _exante_outputs(inst, dist)
    with monkeypatch.context() as patched:
        patched.setattr(audit, "_expected_matrix", _ref_bundle_expected_matrix)
        assert got == _exante_outputs(inst, dist)
    return got


def test_support_audits_match_todays_routines_on_lotteries(monkeypatch):
    rng = SplitMix64(2601)
    makers = (lex_instance, _fraction_lex_instance, additive_instance)
    failing = 0
    for case in range(24):
        n = 2 + case % 7
        inst = makers[case % 3](rng, n, n + rng.below(n + 3))
        dist = utse(inst)
        for _, alloc in dist.support:
            efx, po = _same_outcome_audits(inst, alloc)
            if case % 3 < 2:  # lexicographic preferences: every outcome is EFX and PO
                assert efx.passed and po.passed
        _same_exante_outputs(monkeypatch, inst, dist)
        if len(set(ordinal_rankings(inst))) > 1:
            not_efx, not_po = _failing_pair(inst)
            failing += not _same_outcome_audits(inst, not_efx)[0].passed
            failing += not _same_outcome_audits(inst, not_po)[1].passed
    draws = 0
    while draws < 30:
        inst = lex_instance(rng, 3 + rng.below(4), 5 + rng.below(6))
        if summarize(unit_run(inst)).k == 2:
            sample = k2_sampler(inst)
            for seed in range(10):
                efx, po = _same_outcome_audits(inst, sample(seed))
                assert efx.passed and po.passed
            draws += 10
    assert failing > 30


def test_po_lex_names_the_top_good_of_agents_with_finished_bundles():
    # a failing report names the top remaining good of every agent, also of
    # one whose own goods were all picked or who holds none
    rng = SplitMix64(2602)
    failing = finished = 0
    for case in range(500):
        inst, alloc = _po_lex_case(rng, case)
        _, po = _same_outcome_audits(inst, alloc)
        if not po.passed:
            failing += 1
            unconsumed = set(po.witness["unconsumed"])
            finished += sum(not bundle & unconsumed for bundle in alloc.bundles)
    assert failing > 200 and finished > 200


def test_efx_pre_test_with_negative_and_zero_weights(monkeypatch):
    # ties, zeros and negatives: the least weight can be 0 or negative, and a
    # viewer worth less than the empty bundle scans every agent
    rng = SplitMix64(2603)
    failing = negative = 0
    for _ in range(600):
        inst = _fraction_additive_instance(rng, 2 + rng.below(4), 1 + rng.below(8))
        alloc = _random_allocation(rng, inst)
        efx = check_efx(inst, alloc)
        assert efx.to_json() == _ref_multi_check_efx(inst, alloc).to_json()
        failing += not efx.passed
        negative += any(val.least_weight < 0 for val in inst.valuations)
        _same_exante_outputs(monkeypatch, inst, _random_lottery(rng, inst))
    assert 100 < failing < 500 and negative > 300


def test_exante_audits_match_todays_matrix_on_mixed_table_instances(monkeypatch):
    # every instance holds a table and a per-good viewer, so both halves of
    # the matrix are read in one call
    rng = SplitMix64(2604)
    failing = 0
    for case in range(300):
        n, m = 2 + rng.below(3), 1 + rng.below(6)
        table = (monotone_instance, capped_additive_instance)[case % 2](rng, 1, m).valuations[0]
        vals = list((lex_instance, _fraction_additive_instance)[case // 2 % 2](rng, n - 1, m).valuations)
        vals.insert(rng.below(n), table)
        inst = Instance(n=n, m=m, valuations=tuple(vals))
        dist = _random_lottery(rng, inst)
        outputs = _same_exante_outputs(monkeypatch, inst, dist)
        failing += sum(not out["passed"] for out in outputs if isinstance(out, dict))
        for _, alloc in dist.support:
            assert check_efx(inst, alloc).to_json() == _ref_multi_check_efx(inst, alloc).to_json()
    assert failing > 300


# ---------------------------------------------------------------------------
# differential check of the audits that read the instance's cached rankings
# and EFX viewer state against the routines that rebuilt both per outcome,
# kept verbatim but for the `_ref_` helpers they call


def _ref_ordinal_rankings(inst):
    rankings = []
    for i, val in enumerate(inst.valuations):
        try:
            rankings.append(val.ordinal_ranking())
        except PreconditionError as exc:
            raise PreconditionError(f"agent {i}: {exc}") from None
    return rankings


def _ref_allocated(alloc):
    out = frozenset()
    for b in alloc.bundles:
        out |= b
    return out


def _ref_is_complete(alloc, m):
    return _ref_allocated(alloc) | alloc.pool == frozenset(range(m))


def _ref_format_rational(x):
    return str(Fraction(x))


def _ref_least_check_efx(inst, alloc):
    bundles = alloc.bundles
    multi = [j for j, bundle in enumerate(bundles) if len(bundle) > 1]
    for i, val in enumerate(inst.valuations):
        w = val.weights
        vi = val.int_value(bundles[i])
        if isinstance(val, Table):
            for j in inst.agents:
                if i == j:
                    continue
                mask = core.bundle_mask(bundles[j])
                for g in bundles[j]:
                    if vi < w[mask ^ (1 << g)]:
                        return AuditReport("efx", False, audit._pair_witness(i, j, good=g))
            continue
        weight = w.__getitem__
        bound = vi + val.least_weight  # a pair can fail only if its total exceeds this
        for j in multi if vi >= 0 else inst.agents:
            bundle = bundles[j]
            if i == j or not bundle:
                continue
            total = sum(map(weight, bundle))
            if total > bound and vi < total - min(map(weight, bundle)):
                g = next(g for g in bundle if vi < total - w[g])
                return AuditReport("efx", False, audit._pair_witness(i, j, good=g))
    return AuditReport("efx", True)


def _ref_left_check_po_lex(inst, alloc):
    if alloc.pool or not _ref_is_complete(alloc, inst.m):
        raise PreconditionError("Pareto audit needs a complete allocation with an empty pool")
    rankings = _ref_ordinal_rankings(inst)
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
        top = {str(i): next(g for g in r if not taken[g]) for i, r in enumerate(rankings)}
        unconsumed = [g for g in range(m) if not taken[g]]
        return AuditReport("po-lex", False, {"unconsumed": unconsumed, "top_choices": top})
    return AuditReport("po-lex", True, {"sequence": sequence})


def _outcome(inst, alloc):
    # both audits, each beside its reference; a refusal counts as an output
    out = []
    for check, ref in ((check_efx, _ref_least_check_efx), (check_po_lex, _ref_left_check_po_lex)):
        got = []
        for run in (check, ref):
            try:
                got.append(run(inst, alloc).to_json())
            except PreconditionError as exc:
                got.append(str(exc))
        assert got[0] == got[1]
        out.append(got[0])
    assert alloc.allocated() == _ref_allocated(alloc)
    for m in (inst.m - 1, inst.m, inst.m + 1):
        assert alloc.is_complete(m) == _ref_is_complete(alloc, m)
    return out


def _same_lottery(inst, dist):
    for p, _ in dist.support:
        assert format_rational(p) == _ref_format_rational(p)
    ref = {"support": [{"prob": _ref_format_rational(p), **alloc.to_json()} for p, alloc in dist.support]}
    assert dist.to_json() == ref
    return [_outcome(inst, alloc) for _, alloc in dist.support]


def test_cached_instance_state_matches_the_per_outcome_routines():
    rng = SplitMix64(2701)
    makers = (lex_instance, _fraction_lex_instance, additive_instance)
    failing = 0
    for case in range(24):
        n = (2, 5, 8, 12)[case % 4]
        inst = makers[case % 3](rng, n, n + rng.below(n + 1))
        outputs = _same_lottery(inst, utse(inst))
        if case % 3 < 2:  # lexicographic preferences: every outcome is EFX and PO
            assert all(efx["passed"] and po["passed"] for efx, po in outputs)
        rankings = ordinal_rankings(inst)
        assert rankings is ordinal_rankings(inst) and rankings == tuple(_ref_ordinal_rankings(inst))
        if len(set(rankings)) > 1:
            not_efx, not_po = _failing_pair(inst)
            failing += not _outcome(inst, not_efx)[0]["passed"]
            failing += not _outcome(inst, not_po)[1]["passed"]
    assert failing > 40  # of at most 48 controls; a two-agent control can pass
    # random bundles under ties, zeros and negative weights: own values at
    # the edge of every pair's test
    envious = 0
    for _ in range(400):
        inst = _fraction_additive_instance(rng, 2 + rng.below(4), 1 + rng.below(8))
        envious += not _outcome(inst, _random_allocation(rng, inst))[0]["passed"]
    assert 100 < envious < 350
    draws = 0
    while draws < 30:
        inst = lex_instance(rng, 3 + rng.below(4), 5 + rng.below(6))
        if summarize(unit_run(inst)).k == 2:
            sample = k2_sampler(inst)
            for seed in range(10):
                efx, po = _outcome(inst, sample(seed))
                assert efx["passed"] and po["passed"]
            draws += 10


def test_cached_efx_state_on_tables_skips_the_least_weight():
    # a table's least weight would be a minimum over 2^m bundles: the EFX
    # audit reads only per-good viewers' least weights
    rng = SplitMix64(2702)
    failing = 0
    for case in range(300):
        n, m = 2 + rng.below(3), 1 + rng.below(6)
        tables = (monotone_instance, capped_additive_instance)[case % 2](rng, n, m).valuations
        vals = list(tables)
        if case % 3:
            vals[rng.below(n)] = _fraction_additive_instance(rng, 1, m).valuations[0]
        inst = Instance(n=n, m=m, valuations=tuple(vals))
        alloc = _random_allocation(rng, inst)
        if case % 4 == 0:  # a pool: the EFX audit ignores it, the Pareto audit refuses it
            pooled = [g for g in inst.goods if rng.below(3) == 0]
            alloc = IntegralAllocation(tuple(b - set(pooled) for b in alloc.bundles), frozenset(pooled))
        efx, po = _outcome(inst, alloc)
        failing += not efx["passed"]
        refusal = "Pareto audit needs a complete allocation with an empty pool"
        assert po == refusal if alloc.pool else po.startswith("agent ")  # a table or tied values
        for val in inst.valuations:
            assert ("least_weight" in vars(val)) is (not isinstance(val, Table))
    assert 50 < failing < 250


def test_tied_rankings_raise_on_every_call_and_are_never_cached():
    tied = Instance(n=2, m=3, valuations=(Lexicographic(ranking=(2, 0, 1)), Additive(values=(3, 1, 3))))
    message = "agent 1: additive values are tied: ordinal order is ambiguous"
    alloc = from_assignment([0, 1, 1], 2)
    for _ in range(2):
        for run in (ordinal_rankings, _ref_ordinal_rankings):
            with pytest.raises(PreconditionError) as exc:
                run(tied)
            assert str(exc.value) == message
        assert _outcome(tied, alloc)[1] == message
        assert "_ordinal_rankings" not in vars(tied)
    # an incomplete allocation and one with a pool are refused before the
    # rankings are read
    fine = Instance(n=2, m=3, valuations=(Lexicographic(ranking=(2, 0, 1)), Additive(values=(3, 1, 2))))
    partial = IntegralAllocation((frozenset({0}), frozenset({1})))
    pooled = IntegralAllocation((frozenset({0}), frozenset({1})), frozenset({2}))
    refusal = "Pareto audit needs a complete allocation with an empty pool"
    for inst in (tied, fine):
        for alloc in (partial, pooled):
            assert _outcome(inst, alloc)[1] == refusal


def test_format_rational_matches_the_fraction_round_trip():
    values = [F(0), F(-7, 3), F(5), F(10**30 + 1, 7), 0, 3, -12, True, False]
    values += [F(SplitMix64(2703 + k).below(1000) - 500, 1 + k) for k in range(40)]
    for x in values:
        assert format_rational(x) == _ref_format_rational(x)
