from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from bobw import (
    Additive,
    Instance,
    IntegralAllocation,
    Lexicographic,
    PreconditionError,
    ResourceCapError,
    SwapStep,
    SwapTrace,
    Table,
    bounded_charity,
    check_bounded_charity,
    check_efx,
    check_efx_with_charity,
    exact_distribution_charity,
    get_fixture,
    minimal_envied_subset,
    random_charity_swap,
    replay_swap_trace,
    resolve_envy_cycles,
)
from bobw import audit, core
from bobw.audit import envies_set
from bobw.charity_algos import (
    _find_cycle,
    _utility_sum,
    empty_start,
    envy_edges,
    require_monotone_integer,
)
from bobw.rng import SplitMix64

from helpers import capped_additive_instance, from_assignment, monotone_instance

F = Fraction


def _twin_additive():
    return Instance(
        n=2,
        m=5,
        valuations=(Additive(values=(10, 9, 1, 2, 3)), Additive(values=(10, 9, 1, 2, 3))),
    )


def test_monotone_integer_gate():
    require_monotone_integer(_twin_additive())
    frac = Instance(n=1, m=2, valuations=(Additive(values=(F(1, 2), 2)),))
    with pytest.raises(PreconditionError):
        require_monotone_integer(frac)
    neg = Instance(n=1, m=2, valuations=(Additive(values=(-1, 2)),))
    with pytest.raises(PreconditionError):
        require_monotone_integer(neg)


def test_minimal_envied_subset_none_cases():
    inst = _twin_additive()
    done = from_assignment([0, 1, 1, 0, 1], 2)
    assert minimal_envied_subset(inst, done) is None  # empty pool
    rich = IntegralAllocation(
        bundles=(frozenset({0}), frozenset({1})), pool=frozenset({2})
    )
    assert minimal_envied_subset(inst, rich) is None  # pool worth less than anyone's bundle


def test_minimal_envied_subset_matches_brute_force():
    rng = SplitMix64(600)
    for _ in range(60):
        n = 2 + rng.below(2)
        m = 3 + rng.below(3)
        inst = monotone_instance(rng, n, m)
        bundles = [set() for _ in range(n)]
        pool = set()
        for g in range(m):
            slot = rng.below(n + 1)
            (pool if slot == n else bundles[slot]).add(g)
        alloc = IntegralAllocation(
            bundles=tuple(frozenset(b) for b in bundles), pool=frozenset(pool)
        )
        got = minimal_envied_subset(inst, alloc)
        envied = [
            frozenset(s)
            for r in range(1, len(pool) + 1)
            for s in itertools.combinations(sorted(pool), r)
            if any(envies_set(inst, alloc, i, frozenset(s)) for i in range(n))
        ]
        if got is None:
            assert not envied
        else:
            assert got in envied
            assert not any(s < got for s in envied)


def test_charity_swap_pinned_trace():
    inst = get_fixture("FIX-E")
    alloc, trace = random_charity_swap(inst, seed=7)
    assert tuple(tuple(sorted(b)) for b in alloc.bundles) == ((0,), (2,))
    assert sorted(alloc.pool) == [1]
    recorded = [(sorted(s.subset), s.enviers, s.chosen) for s in trace.steps]
    assert recorded == [([2], (0, 1), 1), ([1], (0,), 0), ([0], (0, 1), 0)]
    assert replay_swap_trace(inst, trace) == alloc


def test_charity_swap_single_agent():
    inst = Instance(n=1, m=2, valuations=(Additive(values=(3, 5)),))
    alloc, trace = random_charity_swap(inst, seed=0)
    assert alloc.bundles == (frozenset({1}),)
    assert alloc.pool == frozenset({0})
    assert len(trace.steps) == 1


def test_charity_swap_outcomes_over_instances_and_seeds():
    rng = SplitMix64(601)
    for _ in range(25):
        n = 2 + rng.below(3)
        m = 3 + rng.below(3)
        inst = monotone_instance(rng, n, m)
        for seed in (rng.next64(), rng.next64()):
            alloc, trace = random_charity_swap(inst, seed)
            assert check_efx_with_charity(inst, alloc).passed
            assert replay_swap_trace(inst, trace) == alloc


def test_replay_rejects_doctored_traces():
    inst = get_fixture("FIX-E")
    _, trace = random_charity_swap(inst, seed=7)
    first = trace.steps[0]
    wrong_subset = SwapTrace(
        steps=(SwapStep(subset=frozenset({0}), enviers=first.enviers, chosen=first.chosen),)
    )
    with pytest.raises(PreconditionError):
        replay_swap_trace(inst, wrong_subset)
    wrong_agent = SwapTrace(
        steps=(SwapStep(subset=first.subset, enviers=(0,), chosen=0),)
    )
    with pytest.raises(PreconditionError):
        replay_swap_trace(inst, wrong_agent)


def test_cycle_resolution_swaps_a_two_cycle():
    inst = Instance(n=2, m=2, valuations=(Additive(values=(4, 1)), Additive(values=(1, 4))))
    crossed = from_assignment([1, 0], 2)
    fixed = resolve_envy_cycles(inst, crossed)
    assert fixed.bundles == (frozenset({0}), frozenset({1}))
    assert resolve_envy_cycles(inst, fixed) == fixed


def test_cycle_resolution_preserves_bundles_and_raises_utility():
    rng = SplitMix64(602)
    for _ in range(40):
        n = 2 + rng.below(3)
        m = 3 + rng.below(4)
        inst = monotone_instance(rng, n, m)
        alloc = from_assignment([rng.below(n) for _ in range(m)], n)
        out = resolve_envy_cycles(inst, alloc)
        assert sorted(map(sorted, out.bundles)) == sorted(map(sorted, alloc.bundles))
        assert _utility_sum(inst, out) >= _utility_sum(inst, alloc)
        assert _find_cycle(envy_edges(inst, out), inst.n) is None


def _ref_find_cycle(edges, n):
    # the recursive lowest-index-first DFS the iterative one replaced
    color = [0] * n
    parent = {}

    def dfs(v):
        color[v] = 1
        for w in edges.get(v, ()):
            if color[w] == 1:
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


def test_find_cycle_matches_the_recursive_search():
    rng = SplitMix64(4417)
    found = 0
    for _ in range(2000):
        n = 1 + rng.below(12)
        density = 1 + rng.below(4)
        edges = {}
        for v in range(n):
            targets = sorted({rng.below(n) for _ in range(rng.below(density + 1))} - {v})
            if targets:
                edges[v] = targets
        cycle = _find_cycle(edges, n)
        assert cycle == _ref_find_cycle(edges, n)
        found += cycle is not None
    assert 500 < found < 1900


def test_find_cycle_on_a_long_ring_needs_no_stack_depth():
    n = 5000
    cycle = _find_cycle({i: [(i + 1) % n] for i in range(n)}, n)
    assert cycle == list(range(1, n)) + [0]


def test_bounded_charity_reaches_small_pool():
    inst = get_fixture("FIX-E")
    start, _ = random_charity_swap(inst, seed=7)
    out = bounded_charity(inst, start)
    assert tuple(tuple(sorted(b)) for b in out.bundles) == ((0,), (1, 2))
    assert not out.pool
    assert check_bounded_charity(inst, out).passed


def test_bounded_charity_crafted_twin_instance():
    inst = _twin_additive()
    start = IntegralAllocation(bundles=(frozenset({0}), frozenset({1})), pool=frozenset({2, 3, 4}))
    out = bounded_charity(inst, start)
    assert tuple(tuple(sorted(b)) for b in out.bundles) == ((0, 3), (1, 2, 4))
    assert not out.pool
    assert check_bounded_charity(inst, out).passed


def test_bounded_charity_empty_pool_is_a_fixed_point():
    inst = Instance(n=2, m=2, valuations=(Additive(values=(4, 1)), Additive(values=(1, 4))))
    start = from_assignment([0, 1], 2)
    assert bounded_charity(inst, start) == start


def test_bounded_charity_requires_clean_start():
    inst = _twin_additive()
    greedy = IntegralAllocation(
        bundles=(frozenset({0, 1}), frozenset()), pool=frozenset({2, 3, 4})
    )
    with pytest.raises(PreconditionError):
        bounded_charity(inst, greedy)


def test_bounded_charity_step_cap_carries_state():
    inst = _twin_additive()
    start = IntegralAllocation(bundles=(frozenset({0}), frozenset({1})), pool=frozenset({2, 3, 4}))
    with pytest.raises(ResourceCapError) as exc:
        bounded_charity(inst, start, step_cap=0)
    err = exc.value
    assert isinstance(err.allocation, IntegralAllocation)
    assert sum(err.stats.values()) == 1


def test_bounded_charity_step_cap_leaves_cycle_rotations_free():
    inst = Instance(n=2, m=2, valuations=(Additive(values=(4, 1)), Additive(values=(1, 4))))
    crossed = from_assignment([1, 0], 2)
    out = bounded_charity(inst, crossed, step_cap=0)
    assert out.bundles == (frozenset({0}), frozenset({1}))


def test_bounded_charity_random_capped_instances():
    rng = SplitMix64(603)
    for _ in range(15):
        n = 2 + rng.below(2)
        m = 3 + rng.below(3)
        inst = capped_additive_instance(rng, n, m)
        start, _ = random_charity_swap(inst, rng.next64())
        out = bounded_charity(inst, start)
        assert check_bounded_charity(inst, out).passed


def test_empty_start_shape():
    inst = get_fixture("FIX-E")
    alloc = empty_start(inst)
    assert all(not b for b in alloc.bundles)
    assert alloc.pool == frozenset(range(inst.m))


def _non_monotone_instance():
    # v({0}) = 3 > v({0, 1}) = 2, while the lowest-bit chain is increasing
    return Instance(
        n=2, m=2, valuations=(Table((0, 3, 1, 2)), Table((0, 1, 1, 2)))
    )


def test_pool_swap_algorithms_reject_non_monotone_tables():
    inst = _non_monotone_instance()
    with pytest.raises(PreconditionError, match="agent 0: non-monotone table"):
        require_monotone_integer(inst)
    with pytest.raises(PreconditionError, match="non-monotone"):
        random_charity_swap(inst, seed=1)
    start = IntegralAllocation(bundles=(frozenset({0}), frozenset({1})))
    with pytest.raises(PreconditionError, match="non-monotone"):
        bounded_charity(inst, start)
    for algorithm in (3, 4):
        with pytest.raises(PreconditionError, match="non-monotone"):
            exact_distribution_charity(inst, algorithm=algorithm)


def test_monotone_integer_verdicts_name_the_first_failure():
    assert Table((0, 1, 1, 2)).monotone_integer_error is None
    assert Table((0, F(1, 2), 1, 2)).monotone_integer_error == "non-integer valuations"
    # halves scale to the monotone integer weights 0, 1, 1, 2, yet are not integers
    assert Table(("0", "1/2", "1/2", "1")).monotone_integer_error == "non-integer valuations"
    assert Table((0, -1, 1, 2)).monotone_integer_error == "negative valuations"
    assert Table((1, 1, 1, 2)).monotone_integer_error == "empty-set value nonzero"
    assert Table((0, 3, 1, 2)).monotone_integer_error == "non-monotone table"
    assert Lexicographic((1, 0)).monotone_integer_error is None


def test_monotonicity_runs_once_per_table(monkeypatch):
    calls = []
    routine = core._table_monotone

    def counted(values):
        calls.append(len(values))
        return routine(values)

    monkeypatch.setattr(core, "_table_monotone", counted)
    inst = monotone_instance(SplitMix64(611), 3, 4)
    for seed in range(50):
        random_charity_swap(inst, seed)
    exact_distribution_charity(inst, algorithm=4)
    assert calls == [16] * inst.n


def test_envy_edges_live_in_the_audit_module():
    assert envy_edges is audit.envy_edges
