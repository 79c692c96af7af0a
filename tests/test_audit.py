from __future__ import annotations

from fractions import Fraction

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
    check_sdef_instance,
    check_stochastic_dominance_half,
    check_support,
    exante_ratio,
    get_fixture,
    min_exante_ratio,
    summarize,
    uniform_permutation,
    unit_run,
    value_of,
)
from bobw import audit
from bobw.audit import AuditReport, envied_agents, envies, unenvied_agents
from bobw.rng import SplitMix64

from helpers import additive_instance, from_assignment, lex_instance, monotone_instance

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
    assert envies(inst, alloc, 1, 0)
    assert not envies(inst, alloc, 0, 1)
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
    assert check_sdef(rows, ((0, 1), (1, 0))).passed
    rep = check_sdef(rows, ((0, 1), (0, 1)))
    assert not rep.passed
    assert rep.witness["viewer"] == 1
    assert rep.witness["prefix_depth"] == 1


def test_check_sdef_instance_on_eating_output():
    inst = get_fixture("FIX-D")
    s = summarize(unit_run(inst))
    assert check_sdef_instance(inst, s.X).passed


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


def _ref_min_exante_ratio(dist, inst):
    worst = None
    for i in inst.agents:
        for j in inst.agents:
            if i == j:
                continue
            num = dist.expected_value(inst, i, i)
            den = dist.expected_value(inst, i, j)
            if den != 0 and (worst is None or num / den < worst):
                worst = num / den
    return worst


def _ref_check_exante_ef(dist, inst, alpha):
    for i in inst.agents:
        num = dist.expected_value(inst, i, i)
        for j in inst.agents:
            if i == j:
                continue
            den = dist.expected_value(inst, i, j)
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


def test_table_valuations_keep_the_value_of_path(monkeypatch):
    calls = []

    def counted(inst, i, bundle):
        calls.append(i)
        return value_of(inst, i, bundle)

    monkeypatch.setattr(audit, "value_of", counted)
    rng = SplitMix64(77)
    lex = lex_instance(rng, 3, 5)
    _same_verdicts(lex, from_assignment([0, 1, 2, 0, 1], 3), uniform_permutation(lex))
    assert calls == []
    table = monotone_instance(rng, 3, 5)
    assert all(isinstance(v, Table) for v in table.valuations)
    _same_verdicts(table, from_assignment([0, 0, 1, 2, 2], 3), _random_lottery(rng, table))
    assert calls
