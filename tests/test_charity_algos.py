from __future__ import annotations

import importlib.util
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Optional

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
)
from bobw import audit, charity_algos, core
from bobw.audit import envy_edges, unenvied_agents
from bobw.charity_algos import (
    _allocation,
    _find_cycle,
    _mask_values,
    _resolve_cycles,
    default_step_cap,
    require_monotone_integer,
)
from bobw.cli import main
from bobw.core import bundle_mask, instance_from_json
from bobw.rng import SplitMix64

from helpers import (
    _ref_enviers_of_set,
    additive_instance,
    all_pooled,
    capped_additive_instance,
    from_assignment,
    lex_instance,
    monotone_instance,
)

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
            if _ref_enviers_of_set(inst, alloc, frozenset(s))
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


# the frozenset pool-swap loop that the bitmask loop replaced, verbatim but
# for the _ref_ names


def _ref_apply_swap(alloc: IntegralAllocation, subset: frozenset[int], chosen: int) -> IntegralAllocation:
    bundles = list(alloc.bundles)
    pool = (alloc.pool - subset) | bundles[chosen]
    bundles[chosen] = subset
    return IntegralAllocation(bundles=tuple(bundles), pool=pool)


def _ref_utility_sum(inst: Instance, alloc: IntegralAllocation) -> int:
    # exact where every scale is 1, or where two sums differ in one agent only
    return sum(val.int_value(bundle) for val, bundle in zip(inst.valuations, alloc.bundles))


def _ref_minimal_envied_subset(
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
    if not _ref_enviers_of_set(inst, alloc, z):
        return None
    for g in sorted(z):
        without = z - {g}
        if _ref_enviers_of_set(inst, alloc, without):
            z = without
    return frozenset(z)


def _ref_pool_envy(
    inst: Instance, alloc: IntegralAllocation
) -> Optional[tuple[frozenset[int], tuple[int, ...]]]:
    """One pool-swap step's choices: the canonical minimal envied pool subset
    and its enviers in ascending order; None once nobody envies the pool."""
    subset = _ref_minimal_envied_subset(inst, alloc)
    if subset is None:
        return None
    return subset, tuple(_ref_enviers_of_set(inst, alloc, subset))


def _ref_random_charity_swap(inst: Instance, seed: int) -> tuple[IntegralAllocation, SwapTrace]:
    """Run the uniform-envier pool-swap loop from all goods pooled until no
    agent envies the pool."""
    require_monotone_integer(inst)
    alloc = all_pooled(inst)
    rng = SplitMix64(seed)
    steps = []
    while (envy := _ref_pool_envy(inst, alloc)) is not None:
        subset, enviers = envy
        chosen = enviers[rng.below(len(enviers))]
        steps.append(SwapStep(subset=subset, enviers=enviers, chosen=chosen))
        alloc = _ref_apply_swap(alloc, subset, chosen)
    outcome = check_efx_with_charity(inst, alloc)
    if not outcome.passed:  # pragma: no cover - the loop's exit guarantees this
        raise AssertionError(f"pool-swap loop ended without its guarantee: {outcome.witness}")
    return alloc, SwapTrace(steps=tuple(steps))


def _ref_replay_swap_trace(inst: Instance, trace: SwapTrace) -> IntegralAllocation:
    """Re-apply a recorded trace from all goods pooled; validates each step's
    subset and enviers, that the chosen agent's gain raises the utility sum
    every step, and that the trace ends where the loop does, with nobody
    envying the pool."""
    alloc = all_pooled(inst)
    for idx, step in enumerate(trace.steps):
        envy = _ref_pool_envy(inst, alloc)
        if envy is None or envy[0] != step.subset:
            raise PreconditionError(f"step {idx}: recorded subset diverges from the canonical one")
        if envy[1] != step.enviers or step.chosen not in step.enviers:
            raise PreconditionError(f"step {idx}: recorded enviers diverge")
        before = _ref_utility_sum(inst, alloc)
        alloc = _ref_apply_swap(alloc, step.subset, step.chosen)
        if _ref_utility_sum(inst, alloc) <= before:
            raise AssertionError(f"step {idx}: swap did not raise the utility sum")
    if _ref_pool_envy(inst, alloc) is not None:
        raise PreconditionError(f"step {len(trace.steps)}: trace ends while the pool is still envied")
    return alloc


def _replay_outcome(replay, inst, trace):
    try:
        return replay(inst, trace)
    except (PreconditionError, AssertionError) as err:
        return type(err), str(err)


def test_bitmask_swap_loop_matches_the_frozenset_loop():
    gen = _table_generator()
    rng = SplitMix64(1707)
    instances = []
    for seed in range(16):
        n, m = 2 + seed % 4, 3 + seed % 8
        for capped in (False, True):
            instances.append(instance_from_json(gen.table_instance_json(random.Random(seed), n, m, capped)))
    for _ in range(16):
        n, m = 1 + rng.below(4), rng.below(9)
        zeros = Additive(tuple(rng.below(4) for _ in range(m)))  # ties and zero values
        instances += [additive_instance(rng, n, m), lex_instance(rng, n, m)]
        instances.append(Instance(n=n + 1, m=m, valuations=(zeros, *lex_instance(rng, n, m).valuations)))
    mixed = monotone_instance(rng, 2, 6).valuations + additive_instance(rng, 1, 6).valuations
    instances.append(Instance(n=4, m=6, valuations=(*mixed, Lexicographic((5, 0, 4, 1, 3, 2)))))
    steps, refusals = 0, Counter()
    for inst in instances:
        for seed in range(5):
            alloc, trace = random_charity_swap(inst, seed)
            assert (alloc, trace) == _ref_random_charity_swap(inst, seed)
            steps += len(trace.steps)
            assert replay_swap_trace(inst, trace) == _ref_replay_swap_trace(inst, trace) == alloc
            # doctored traces fail at the same step with the same message
            for doctored in (
                trace.steps[:-1],
                trace.steps[1:],
                trace.steps + trace.steps[-1:],
                [SwapStep(s.subset, s.enviers[::-1], s.chosen) for s in trace.steps],
                [SwapStep(s.subset, s.enviers, (s.chosen + 1) % inst.n) for s in trace.steps],
            ):
                doctored = SwapTrace(steps=tuple(doctored))
                want = _replay_outcome(_ref_replay_swap_trace, inst, doctored)
                assert _replay_outcome(replay_swap_trace, inst, doctored) == want
                if isinstance(want, tuple):
                    refusals[want[1].split(": ", 1)[1]] += 1
    assert steps >= 1000
    assert len(refusals) == 3 and min(refusals.values()) >= 50, refusals


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
    # a trace that stops before the loop does: nothing, or a one-step prefix
    with pytest.raises(PreconditionError, match="step 0: trace ends while the pool is still envied"):
        replay_swap_trace(inst, SwapTrace(steps=()))
    with pytest.raises(PreconditionError, match="step 1: trace ends while the pool is still envied"):
        replay_swap_trace(inst, SwapTrace(steps=trace.steps[:1]))


def _resolved(inst: Instance, alloc: IntegralAllocation) -> IntegralAllocation:
    """`bounded_charity`'s cycle rotation, `_resolve_cycles` on bundle masks,
    as an allocation; also checks the envy graph it returns."""
    masks = [bundle_mask(b) for b in alloc.bundles]
    edges = _resolve_cycles(_mask_values(inst), masks)
    out = _allocation(masks, bundle_mask(alloc.pool))
    assert edges == envy_edges(inst, out)
    return out


def test_cycle_resolution_swaps_a_two_cycle():
    inst = Instance(n=2, m=2, valuations=(Additive(values=(4, 1)), Additive(values=(1, 4))))
    crossed = from_assignment([1, 0], 2)
    fixed = _resolved(inst, crossed)
    assert fixed.bundles == (frozenset({0}), frozenset({1}))
    assert _resolved(inst, fixed) == fixed


def test_cycle_resolution_preserves_bundles_and_raises_utility():
    rng = SplitMix64(602)
    for _ in range(40):
        n = 2 + rng.below(3)
        m = 3 + rng.below(4)
        inst = monotone_instance(rng, n, m)
        alloc = from_assignment([rng.below(n) for _ in range(m)], n)
        out = _resolved(inst, alloc)
        assert sorted(map(sorted, out.bundles)) == sorted(map(sorted, alloc.bundles))
        assert _ref_utility_sum(inst, out) >= _ref_utility_sum(inst, alloc)
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


# the frozenset cycle resolution that the bitmask one replaced, verbatim but
# for the _ref_ names


def _ref_resolve_envy_cycles(inst: Instance, alloc: IntegralAllocation) -> IntegralAllocation:
    """Rotate bundles along envy cycles until the envy graph is acyclic.
    Every agent ends at least as happy; cycle members strictly gain."""
    while True:
        cycle = _find_cycle(envy_edges(inst, alloc), inst.n)
        if cycle is None:
            return alloc
        alloc = _ref_rotate(alloc, cycle)


def _ref_rotate(alloc: IntegralAllocation, cycle: list[int]) -> IntegralAllocation:
    bundles = list(alloc.bundles)
    old = [bundles[a] for a in cycle]
    t = len(cycle)
    for idx, a in enumerate(cycle):
        bundles[a] = old[(idx + 1) % t]
    return IntegralAllocation(bundles=tuple(bundles), pool=alloc.pool)


def test_cycle_resolution_matches_the_frozenset_loop():
    rng = SplitMix64(4423)
    rotated = Counter()
    for k in range(600):
        make = (monotone_instance, capped_additive_instance, lex_instance)[k % 3]
        n, m = 2 + rng.below(4), 2 + rng.below(5)
        inst = make(rng, n, m)
        # a random slot per good, the pool included
        alloc = from_assignment([rng.below(n + 1) for _ in range(m)], n + 1)
        alloc = IntegralAllocation(bundles=alloc.bundles[:n], pool=alloc.bundles[n])
        want = _ref_resolve_envy_cycles(inst, alloc)
        assert _resolved(inst, alloc) == want
        rotated[make] += want != alloc
    assert min(rotated.values()) >= 20, rotated


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


@pytest.mark.parametrize(
    "start,message",
    [
        (
            IntegralAllocation(bundles=(frozenset(),), pool=frozenset({0, 1, 2})),
            r"need one bundle per agent \(2\), got 1",
        ),
        (
            IntegralAllocation(bundles=(frozenset({5}), frozenset()), pool=frozenset({0, 1, 2})),
            r"goods \[5\] are not among the 3 goods",
        ),
        (
            IntegralAllocation(bundles=(frozenset({"0"}), frozenset()), pool=frozenset({1, 2})),
            "goods must be given as integers",
        ),
    ],
    ids=["one-bundle", "good-out-of-range", "good-not-an-integer"],
)
def test_bounded_charity_refuses_a_start_that_does_not_fit(start, message):
    with pytest.raises(PreconditionError, match=message):
        bounded_charity(get_fixture("FIX-E"), start)


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


def _ref_bounded_charity(
    inst: Instance, start: IntegralAllocation, step_cap: Optional[int] = None
) -> IntegralAllocation:
    # the three-phase post-pass the one-move loop replaced, verbatim but for
    # the _ref_ names
    if step_cap is not None and step_cap < 0:
        raise PreconditionError(f"step cap must be non-negative, got {step_cap}")
    require_monotone_integer(inst)
    pre = check_efx_with_charity(inst, start)
    if not pre.passed:
        raise PreconditionError(f"start must be EFX with an unenvied pool: {pre.witness}")
    cap = default_step_cap(inst) if step_cap is None else step_cap
    stats = {"phase_a": 0, "phase_c_commits": 0, "phase_c_swaps": 0}
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
        while (envy := _ref_pool_envy(inst, alloc)) is not None:
            subset, enviers = envy
            before = _ref_utility_sum(inst, alloc)
            alloc = _ref_apply_swap(alloc, subset, enviers[0])
            assert _ref_utility_sum(inst, alloc) > before
            stats["phase_a"] += 1
            spend()

        # Phase B: rotate envy cycles away (own utilities only rise, so pool
        # envy cannot reappear here).
        alloc = _ref_resolve_envy_cycles(inst, alloc)

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
                candidate = _ref_commit(alloc, i, g)
                if check_efx(inst, candidate).passed:
                    # a commit shrinks the pool and (monotonicity) cannot
                    # lower anyone's utility
                    assert len(candidate.pool) < len(alloc.pool)
                    assert _ref_utility_sum(inst, candidate) >= _ref_utility_sum(inst, alloc)
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
            subset = _ref_minimal_envied_subset(inst, alloc, goods=grown)
            if subset is None:  # pragma: no cover - a failed commit implies envy
                raise AssertionError("EFX failed for every commit yet nothing envies the grown bundle")
            h = _ref_enviers_of_set(inst, alloc, subset)[0]
            bundles = list(alloc.bundles)
            displaced = (grown | bundles[h]) - subset
            pool = (alloc.pool - {g}) | displaced
            bundles[i] = frozenset()
            bundles[h] = subset
            alloc = IntegralAllocation(bundles=tuple(bundles), pool=pool)
            stats["phase_c_swaps"] += 1
            spend()


def _ref_commit(alloc: IntegralAllocation, agent: int, good: int) -> IntegralAllocation:
    bundles = list(alloc.bundles)
    bundles[agent] = bundles[agent] | {good}
    return IntegralAllocation(bundles=tuple(bundles), pool=alloc.pool - {good})


def _table_generator():
    # the benchmark's seeded table generator, which also names the known
    # non-EFX reproducer: table seed 208 at 3/8 (monotone), swap draw 8
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _post_pass_outcome(post_pass, inst, start, cap):
    try:
        return post_pass(inst, start, cap)
    except ResourceCapError as err:
        return type(err), str(err), err.allocation, err.stats


def test_bounded_charity_matches_the_three_phase_pass(monkeypatch):
    gen = _table_generator()
    runs = []
    # n 2-5 and m 5-9; seed 208 gets n = 3, m = 8
    for seed in range(200, 240):
        n, m = 2 + (seed + 1) % 4, 5 + seed % 5
        for capped in (False, True):
            inst = instance_from_json(gen.table_instance_json(random.Random(seed), n, m, capped))
            for draw in range(9):
                start, _ = random_charity_swap(inst, draw)
                runs += [(seed, capped, draw, inst, start, cap) for cap in (None, 0, 1, 2, 3, 5)]
    expected = [_post_pass_outcome(_ref_bounded_charity, *run[3:]) for run in runs]

    calls = Counter()
    for name in ("_reshuffle", "_rotate"):
        def counted(*args, name=name, routine=getattr(charity_algos, name)):
            calls[name] += 1
            return routine(*args)

        monkeypatch.setattr(charity_algos, name, counted)
    for run, want in zip(runs, expected):
        assert _post_pass_outcome(bounded_charity, *run[3:]) == want, run[:3] + run[5:]
    assert sum(isinstance(want, tuple) for want in expected) >= 100
    assert calls["_reshuffle"] >= 100 and calls["_rotate"] >= 100, calls


def _reproducer_json(seed=208, n=3, m=8):
    return _table_generator().table_instance_json(random.Random(seed), n, m, False)


_REPRODUCER_DEFECT = "open defect: a _reshuffle after an EFX-safe commit can leave the allocation not EFX"


@pytest.mark.xfail(strict=True, reason=_REPRODUCER_DEFECT)
def test_bounded_charity_keeps_its_guarantee_on_the_known_reproducer():
    inst = instance_from_json(_reproducer_json())
    out = bounded_charity(inst, random_charity_swap(inst, 8)[0])
    assert check_bounded_charity(inst, out).passed


@pytest.mark.xfail(strict=True, reason=_REPRODUCER_DEFECT)
def test_cli_bounded_charity_passes_its_audits_on_the_known_reproducer(tmp_path, capsys):
    path = tmp_path / "reproducer.json"
    path.write_text(json.dumps(_reproducer_json()))
    assert main(["solve", str(path), "--algorithm", "bounded-charity", "--seed", "8"]) == 0


# defect B: table seed 2590 at 2/9 (monotone), swap draw 4
_RESHUFFLE_DEFECT = "open defect: a _reshuffle can leave EFX broken, so a later one finds nothing envying the grown bundle"


@pytest.mark.xfail(strict=True, reason=_RESHUFFLE_DEFECT)
def test_bounded_charity_keeps_its_guarantee_on_the_reshuffle_reproducer():
    inst = instance_from_json(_reproducer_json(2590, 2, 9))
    out = bounded_charity(inst, random_charity_swap(inst, 4)[0])
    assert check_bounded_charity(inst, out).passed


@pytest.mark.xfail(strict=True, reason=_RESHUFFLE_DEFECT)
def test_cli_bounded_charity_passes_its_audits_on_the_reshuffle_reproducer(tmp_path, capsys):
    path = tmp_path / "reproducer.json"
    path.write_text(json.dumps(_reproducer_json(2590, 2, 9)))
    assert main(["solve", str(path), "--algorithm", "bounded-charity", "--seed", "4"]) == 0


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
    # the post-pass reads audit's one envy relation on bundle masks, and
    # charity_algos defines no envy relation of its own
    assert charity_algos.envy_graph is audit.envy_graph
    assert "envy_edges" not in vars(charity_algos)
    rng = SplitMix64(613)
    for make in (monotone_instance, capped_additive_instance, lex_instance):
        inst = make(rng, 4, 5)
        for _ in range(20):
            alloc = from_assignment([rng.below(inst.n) for _ in range(inst.m)], inst.n)
            masks = [bundle_mask(b) for b in alloc.bundles]
            assert audit.envy_graph(_mask_values(inst), masks) == envy_edges(inst, alloc)
