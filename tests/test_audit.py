from __future__ import annotations

import functools
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
# the specifications: one slow routine per support-audit contract, a loop
# over value_of or the rescanning greedy.  Each docstring states the rule
# that picks the witness, on which the report's bytes depend; the batteries
# below compare the package's audits with these byte for byte.


def _ref_check_efx(inst, alloc):
    """EFX: removing any one good from an envied bundle cures the envy.

    The witness is the first failing (viewer, toward, good): viewers in
    ascending order, then the other agents in ascending order, then the
    goods of the envied bundle in its frozenset's iteration order; the good
    is the first whose removal leaves the viewer still envious."""
    for i in inst.agents:
        vi = value_of(inst, i, alloc.bundles[i])
        for j in inst.agents:
            if i == j:
                continue
            for g in alloc.bundles[j]:
                if vi < value_of(inst, i, alloc.bundles[j] - {g}):
                    return AuditReport("efx", False, {"viewer": i, "toward": j, "good": g})
    return AuditReport("efx", True)


def _ref_check_po_lex(inst, alloc):
    """Pareto optimality under lexicographic preferences: the allocation is
    the outcome of some picking sequence.

    The rescanning greedy: each turn, the lowest agent whose top remaining
    good is its own picks it.  On success the witness is that sequence of
    agents.  When no agent can pick, it is the unpicked goods in ascending
    order and every agent's top remaining good, keyed by the agent as a
    string.  An incomplete allocation or one with a pool is refused before
    any ranking is read; an agent without a strict ranking is refused with
    its message."""
    if alloc.pool or not _ref_is_complete(alloc, inst.m):
        raise PreconditionError("Pareto audit needs a complete allocation with an empty pool")
    rankings = _ref_ordinal_rankings(inst)
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


def _ref_ordinal_rankings(inst):
    """Each agent's strict ranking; the first agent without one is refused
    with its valuation's message, prefixed by the agent."""
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


def _ref_expectations(dist, inst):
    """E[i][j] = E[v_i(j's bundle)], each a sum over the outcomes of
    probability times value_of."""
    return [
        [sum((p * value_of(inst, i, alloc.bundles[j]) for p, alloc in dist.support), start=F(0)) for j in inst.agents]
        for i in inst.agents
    ]


def _ref_exante_ratio(E, i, j):
    """E[v_i(own)] / E[v_i(j's bundle)], or None for a zero denominator."""
    return None if E[i][j] == 0 else E[i][i] / E[i][j]


def _ref_min_exante_ratio(E):
    """The least finite ex-ante ratio over ordered pairs, a Fraction, or None
    when no pair's ratio is finite.  A value, with no witness."""
    worst = None
    for i, row in enumerate(E):
        for j, den in enumerate(row):
            if i != j and den != 0 and (worst is None or row[i] / den < worst):
                worst = row[i] / den
    return worst


def _ref_check_exante_ef(E, alpha):
    """alpha-EF in expectation.  The witness is the first pair, viewers
    ascending and then the other agents ascending, with E[v_i(own)] <
    alpha * E[v_i(j's bundle)]: alpha and both expectations as reduced
    fraction strings.  A pass holds alpha alone."""
    for i, row in enumerate(E):
        for j, den in enumerate(row):
            if i != j and row[i] < alpha * den:
                witness = {"viewer": i, "toward": j, "alpha": str(alpha), "own": str(row[i]), "other": str(den)}
                return AuditReport("exante-ef", False, witness)
    return AuditReport("exante-ef", True, {"alpha": str(alpha)})


def _ref_check_exante_prop(E, inst, alpha):
    """alpha-proportionality in expectation.  The witness is the lowest
    agent with E[v_i(own)] < alpha * v_i(M) / n: alpha, the expectation and
    the share as reduced fraction strings.  A pass holds alpha alone."""
    everything = frozenset(range(inst.m))
    for i in inst.agents:
        got = E[i][i]
        fair_share = value_of(inst, i, everything) / inst.n
        if got < alpha * fair_share:
            witness = {"agent": i, "alpha": str(alpha), "expected": str(got), "share": str(fair_share)}
            return AuditReport("exante-prop", False, witness)
    return AuditReport("exante-prop", True, {"alpha": str(alpha)})


def _ref_check_stochastic_dominance_half(dist, inst):
    """Pr[v_i(own) >= t] >= Pr[v_i(j's bundle) >= t] / 2 for every pair and
    every value t that v_i takes on either bundle.  The witness is the first
    failing pair, viewers ascending and then the other agents ascending, at
    its least failing t: t and both probabilities as reduced fraction
    strings."""
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


def _ref_format_rational(x):
    return str(Fraction(x))


def _report(check, inst, alloc):
    # a refusal counts as an output
    try:
        return check(inst, alloc).to_json()
    except PreconditionError as exc:
        return str(exc)


def _exante_outputs(agents, ratio_of, least, ef, prop):
    out = [ratio_of(i, j) for i in agents for j in agents]
    ratio = least()
    out.append((ratio, type(ratio)))
    for alpha in (F(0), F(1, 2), F(3, 4), F(1), F(3, 2)) + ((ratio,) if ratio is not None else ()):
        out.append(ef(alpha).to_json())
        out.append(prop(alpha).to_json())
    return out


def _same_as_spec(inst, alloc=None, dist=None):
    """The support audits beside their specifications, byte for byte;
    returns the package's outputs.  An allocation gives the EFX and the
    Pareto report as JSON, a refusal as its message; a lottery adds every
    pair's ex-ante ratio, the least ratio with its type, and the ex-ante EF
    and proportionality reports at each threshold."""
    out = []
    if alloc is not None:
        for check, spec in ((check_efx, _ref_check_efx), (check_po_lex, _ref_check_po_lex)):
            out.append(_report(check, inst, alloc))
            assert out[-1] == _report(spec, inst, alloc)
        assert alloc.allocated() == _ref_allocated(alloc)
        for m in (inst.m - 1, inst.m, inst.m + 1):
            assert alloc.is_complete(m) == _ref_is_complete(alloc, m)
    if dist is not None:
        checks = (exante_ratio, min_exante_ratio, check_exante_ef, check_exante_prop)
        got = _exante_outputs(inst.agents, *(functools.partial(check, dist, inst) for check in checks))
        E = _ref_expectations(dist, inst)
        specs = (
            functools.partial(_ref_exante_ratio, E),
            functools.partial(_ref_min_exante_ratio, E),
            functools.partial(_ref_check_exante_ef, E),
            functools.partial(_ref_check_exante_prop, E, inst),
        )
        assert got == _exante_outputs(inst.agents, *specs)
        out += got
    return out


# ---------------------------------------------------------------------------
# the integer-weight audits against the specifications


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


def test_integer_audits_match_value_of_loops():
    rng = SplitMix64(2507)
    makers = (lex_instance, additive_instance, _fraction_additive_instance)
    failing = 0
    for case in range(600):
        inst = makers[case % 3](rng, 2 + rng.below(4), 1 + rng.below(9))
        alloc = _random_allocation(rng, inst)
        tied = any(len(set(v.values)) < inst.m for v in inst.valuations if isinstance(v, Additive))
        dist = _random_lottery(rng, inst) if tied or case % 2 else uniform_permutation(inst)
        failing += not _same_as_spec(inst, alloc, dist)[0]["passed"]
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
        seen.add((efx, charity, bounded, _same_as_spec(inst, complete, _random_lottery(rng, inst))[0]["passed"]))
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
            _same_as_spec(inst, alloc, dist)
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
# the heap-driven Pareto audit against the rescanning greedy


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
# the one-matrix ex-ante audits against per-pair loops


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
        E = _ref_expectations(dist, inst)
        for i in inst.agents:
            for j in inst.agents:
                assert exante_ratio(dist, inst, i, j) == _ref_exante_ratio(E, i, j)
        reports = [(check_stochastic_dominance_half(dist, inst), _ref_check_stochastic_dominance_half(dist, inst))]
        for alpha in (F(0), F(1, 2), F(3, 4), F(1), F(3, 2)):
            reports.append((check_exante_prop(dist, inst, alpha), _ref_check_exante_prop(E, inst, alpha)))
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


# ---------------------------------------------------------------------------
# the support audits of whole lotteries against the specifications: the
# least-weight EFX pre-test, the Pareto greedy that places only agents with
# goods left, the per-good share matrix, the least ratio by cross
# multiplication and the instance's cached rankings and EFX viewer state


def test_support_audits_match_the_replaced_routines():
    rng = SplitMix64(1607)
    makers = (lex_instance, _fraction_lex_instance, additive_instance)
    for case in range(18):
        n = (8, 12)[case // 3 % 2]
        inst = makers[case % 3](rng, n, 2 * n)
        dist = utse(inst)
        outputs = [_same_as_spec(inst, alloc) for _, alloc in dist.support]
        _same_as_spec(inst, dist=dist)
        if case % 3 < 2:  # lexicographic preferences: every outcome is EFX and PO
            assert all(efx["passed"] and po["passed"] for efx, po in outputs)
        not_efx, not_po = _failing_pair(inst)
        assert not _same_as_spec(inst, not_efx)[0]["passed"] and not _same_as_spec(inst, not_po)[1]["passed"]
    draws = 0
    while draws < 40:
        inst = lex_instance(rng, 3 + rng.below(4), 5 + rng.below(6))
        if summarize(unit_run(inst)).k == 2:
            sample = k2_sampler(inst)
            for seed in range(10):
                efx, po = _same_as_spec(inst, sample(seed))
                assert efx["passed"] and po["passed"]
            draws += 10


def test_efx_witness_of_a_negative_viewer_facing_one_good():
    # a viewer worth less than the empty bundle envies every one-good bundle
    rng = SplitMix64(1608)
    faced = 0
    for _ in range(400):
        inst = _fraction_additive_instance(rng, 2 + rng.below(4), 1 + rng.below(7))
        alloc = _random_allocation(rng, inst)
        efx = _same_as_spec(inst, alloc, _random_lottery(rng, inst))[0]
        if not efx["passed"]:
            i, j = efx["witness"]["viewer"], efx["witness"]["toward"]
            faced += inst.valuations[i].int_value(alloc.bundles[i]) < 0 and len(alloc.bundles[j]) == 1
    assert faced > 20


def test_support_audits_match_todays_routines_on_lotteries():
    rng = SplitMix64(2601)
    makers = (lex_instance, _fraction_lex_instance, additive_instance)
    failing = 0
    for case in range(24):
        n = 2 + case % 7
        inst = makers[case % 3](rng, n, n + rng.below(n + 3))
        dist = utse(inst)
        for _, alloc in dist.support:
            efx, po = _same_as_spec(inst, alloc)
            if case % 3 < 2:  # lexicographic preferences: every outcome is EFX and PO
                assert efx["passed"] and po["passed"]
        _same_as_spec(inst, dist=dist)
        if len(set(ordinal_rankings(inst))) > 1:
            not_efx, not_po = _failing_pair(inst)
            failing += not _same_as_spec(inst, not_efx)[0]["passed"]
            failing += not _same_as_spec(inst, not_po)[1]["passed"]
    draws = 0
    while draws < 30:
        inst = lex_instance(rng, 3 + rng.below(4), 5 + rng.below(6))
        if summarize(unit_run(inst)).k == 2:
            sample = k2_sampler(inst)
            for seed in range(10):
                efx, po = _same_as_spec(inst, sample(seed))
                assert efx["passed"] and po["passed"]
            draws += 10
    assert failing > 30


def test_po_lex_names_the_top_good_of_agents_with_finished_bundles():
    # a failing report names the top remaining good of every agent, also of
    # one whose own goods were all picked or who holds none
    rng = SplitMix64(2602)
    failing = finished = 0
    for case in range(500):
        inst, alloc = _po_lex_case(rng, case)
        po = _same_as_spec(inst, alloc)[1]
        if not po["passed"]:
            failing += 1
            unconsumed = set(po["witness"]["unconsumed"])
            finished += sum(not bundle & unconsumed for bundle in alloc.bundles)
    assert failing > 200 and finished > 200


def test_efx_pre_test_with_negative_and_zero_weights():
    # ties, zeros and negatives: the least weight can be 0 or negative, and a
    # viewer worth less than the empty bundle scans every agent
    rng = SplitMix64(2603)
    failing = negative = 0
    for _ in range(600):
        inst = _fraction_additive_instance(rng, 2 + rng.below(4), 1 + rng.below(8))
        alloc = _random_allocation(rng, inst)
        efx = _same_as_spec(inst, alloc, _random_lottery(rng, inst))[0]
        failing += not efx["passed"]
        negative += any(val.least_weight < 0 for val in inst.valuations)
    assert 100 < failing < 500 and negative > 300


def test_exante_audits_match_todays_matrix_on_mixed_table_instances():
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
        outputs = _same_as_spec(inst, dist=dist)
        failing += sum(not out["passed"] for out in outputs if isinstance(out, dict))
        for _, alloc in dist.support:
            _same_as_spec(inst, alloc)
    assert failing > 300


def _same_lottery(inst, dist):
    for p, _ in dist.support:
        assert format_rational(p) == _ref_format_rational(p)
    ref = {"support": [{"prob": _ref_format_rational(p), **alloc.to_json()} for p, alloc in dist.support]}
    assert dist.to_json() == ref
    return [_same_as_spec(inst, alloc) for _, alloc in dist.support]


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
            failing += not _same_as_spec(inst, not_efx)[0]["passed"]
            failing += not _same_as_spec(inst, not_po)[1]["passed"]
    assert failing > 40  # of at most 48 controls; a two-agent control can pass
    # random bundles under ties, zeros and negative weights: own values at
    # the edge of every pair's test
    envious = 0
    for _ in range(400):
        inst = _fraction_additive_instance(rng, 2 + rng.below(4), 1 + rng.below(8))
        envious += not _same_as_spec(inst, _random_allocation(rng, inst))[0]["passed"]
    assert 100 < envious < 350
    draws = 0
    while draws < 30:
        inst = lex_instance(rng, 3 + rng.below(4), 5 + rng.below(6))
        if summarize(unit_run(inst)).k == 2:
            sample = k2_sampler(inst)
            for seed in range(10):
                efx, po = _same_as_spec(inst, sample(seed))
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
        efx, po = _same_as_spec(inst, alloc)
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
        assert _same_as_spec(tied, alloc)[1] == message
        assert "_ordinal_rankings" not in vars(tied)
    # an incomplete allocation and one with a pool are refused before the
    # rankings are read
    fine = Instance(n=2, m=3, valuations=(Lexicographic(ranking=(2, 0, 1)), Additive(values=(3, 1, 2))))
    partial = IntegralAllocation((frozenset({0}), frozenset({1})))
    pooled = IntegralAllocation((frozenset({0}), frozenset({1})), frozenset({2}))
    refusal = "Pareto audit needs a complete allocation with an empty pool"
    for inst in (tied, fine):
        for alloc in (partial, pooled):
            assert _same_as_spec(inst, alloc)[1] == refusal


def test_format_rational_matches_the_fraction_round_trip():
    values = [F(0), F(-7, 3), F(5), F(10**30 + 1, 7), 0, 3, -12, True, False]
    values += [F(SplitMix64(2703 + k).below(1000) - 500, 1 + k) for k in range(40)]
    for x in values:
        assert format_rational(x) == _ref_format_rational(x)
