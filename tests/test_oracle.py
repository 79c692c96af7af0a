from __future__ import annotations

import json
import re
import time
from fractions import Fraction

import pytest

from bobw import (
    Additive,
    FeasibilityResult,
    Instance,
    IntegralAllocation,
    Lexicographic,
    PreconditionError,
    RandomizedAllocation,
    ResourceCapError,
    SwapStep,
    SwapTrace,
    bounded_charity,
    check_sdef,
    enumerate_efx,
    exact_distribution_charity,
    get_fixture,
    instance_to_json,
    minimal_envied_subset,
    random_charity_swap,
    replay_swap_trace,
    sdef_feasibility,
)
from bobw import oracle
from bobw.charity_algos import (
    _allocation,
    _envied_subset,
    _goods,
    _mask_values,
    require_monotone_integer,
)
from bobw.cli import main
from bobw.rng import SplitMix64

from helpers import (
    _ref_enviers_of_set,
    additive_instance,
    all_pooled,
    capped_additive_instance,
    lex_instance,
    monotone_instance,
)

F = Fraction


def _bundles(alloc):
    return tuple(tuple(sorted(b)) for b in alloc.bundles)


def test_enumerate_efx_pinned_canonical_order():
    allocs = enumerate_efx(get_fixture("FIX-A"))
    assert [_bundles(a) for a in allocs] == [
        ((0,), (1,), (2, 3)),
        ((0,), (2, 3), (1,)),
        ((2, 3), (0,), (1,)),
        ((2,), (0,), (1, 3)),
    ]


def test_enumerate_efx_respects_the_cap():
    rng = SplitMix64(700)
    big = lex_instance(rng, 10, 8)  # 10^8 assignment vectors
    with pytest.raises(ResourceCapError):
        enumerate_efx(big)


def test_mixture_feasibility_finds_the_unique_weights():
    inst = get_fixture("FIX-D")
    supports = enumerate_efx(inst)
    assert [_bundles(a) for a in supports] == [((0,), (1, 2)), ((1, 2), (0,))]
    res = sdef_feasibility(inst, supports)
    assert res.feasible
    assert res.weights == (F(1, 2), F(1, 2))
    assert res.certificate is None
    # the witness really is dominance-fair, checked here against the audit
    rows = [
        [sum((w for w, a in zip(res.weights, supports) if g in a.bundles[i]), start=F(0))
         for g in range(inst.m)]
        for i in range(inst.n)
    ]
    assert check_sdef(inst, rows).passed


def test_mixture_feasibility_back_substitutes_several_free_weights():
    # four EFX allocations leave three free weights to back-substitute
    inst = Instance(n=2, m=4, valuations=(Lexicographic((1, 2, 0, 3)), Lexicographic((3, 0, 2, 1))))
    supports = enumerate_efx(inst)
    assert [_bundles(a) for a in supports] == [
        ((0, 1, 2), (3,)),
        ((0, 1), (2, 3)),
        ((1, 2), (0, 3)),
        ((1,), (0, 2, 3)),
    ]
    res = sdef_feasibility(inst, supports)
    assert res.feasible
    assert res.weights == (F(1, 8), F(1, 4), F(1, 2), F(1, 8))
    mix = RandomizedAllocation(tuple(zip(res.weights, supports)))
    assert check_sdef(inst, mix.associated_fractional(inst.m)).passed


def test_mixture_infeasibility_yields_a_certificate():
    inst = get_fixture("FIX-A")
    res = sdef_feasibility(inst, enumerate_efx(inst))
    assert not res.feasible
    assert res.weights is None
    cert = res.certificate
    labels = [c["label"] for c in cert["constraints"]]
    assert labels == [
        "agent 1 vs 0, top-1 prefix",
        "agent 1 vs 0, top-4 prefix",
        "agent 1 vs 2, top-3 prefix",
        "agent 2 vs 0, top-4 prefix",
    ]
    ids = {c["id"] for c in cert["constraints"]}
    derived = set()
    for step in cert["steps"]:
        assert set(step["from"]) <= ids | derived
        derived.add(step["derived"])
    assert cert["contradiction"] in derived


def test_single_support_certificate_is_direct():
    inst = get_fixture("FIX-D")
    res = sdef_feasibility(inst, enumerate_efx(inst)[:1])
    assert not res.feasible
    cert = res.certificate
    assert cert["steps"] == []
    assert [c["label"] for c in cert["constraints"]] == ["agent 0 vs 1, top-3 prefix"]


def test_sdef_feasibility_refuses_supports_that_do_not_fit():
    inst = get_fixture("FIX-D")
    one_bundle = IntegralAllocation(bundles=(frozenset({0, 1, 2}),))
    with pytest.raises(PreconditionError, match=r"need one bundle per agent \(2\), got 1"):
        sdef_feasibility(inst, [one_bundle])
    # the shape is checked before the support cap: 13 misfits are bad input
    with pytest.raises(PreconditionError):
        sdef_feasibility(inst, [one_bundle] * (oracle.SDEF_SUPPORT_CAP + 1))


def test_sdef_feasibility_caps_the_derived_constraints(capsys, tmp_path):
    # 12 EFX allocations, inside the support cap: the first 10 take 13,947
    # combinations, and 11 would derive millions of constraints
    rankings = ([4, 3, 0, 2, 1], [4, 0, 3, 2, 1], [4, 1, 3, 0, 2])
    inst = Instance(n=3, m=5, valuations=tuple(Lexicographic(ranking=r) for r in rankings))
    supports = enumerate_efx(inst)
    assert len(supports) == 12
    assert not sdef_feasibility(inst, supports[:10]).feasible
    message = f"feasibility capped at {oracle.SDEF_CONSTRAINT_CAP} derived constraints (SDEF_CONSTRAINT_CAP)"
    with pytest.raises(ResourceCapError, match=re.escape(message)):
        sdef_feasibility(inst, supports[:11])
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    started = time.perf_counter()
    assert main(["oracle", str(path), "--op", "sdef-feasibility"]) == 4
    assert time.perf_counter() - started < 20
    assert capsys.readouterr() == ("", f"resource cap: {message}\n")


def test_feasibility_result_json():
    inst = get_fixture("FIX-D")
    res = sdef_feasibility(inst, enumerate_efx(inst))
    js = res.to_json()
    assert js == {"feasible": True, "weights": ["1/2", "1/2"]}


def _ref_iter_charity_branches_iterative(inst, leaf_cap=oracle.DEFAULT_LEAF_CAP):
    """Depth-first enumeration of every run of the uniform pool-swap loop;
    yields (path probability, final allocation, trace).  An explicit stack of
    (bundle masks, pool mask, probability, steps) lets runs outgrow Python's
    recursion limit; children go on in reverse, so the lowest envier's branch
    is first.  Sets are built only for the steps and the final allocations."""
    # the tree enumerator the merged walk replaced, kept as a reference
    if leaf_cap < 0:
        raise PreconditionError(f"leaf cap must be non-negative, got {leaf_cap}")
    require_monotone_integer(inst)
    values = _mask_values(inst)
    count = 0
    stack = [((0,) * inst.n, (1 << inst.m) - 1, Fraction(1), ())]
    while stack:
        masks, pool, prob, steps = stack.pop()
        envy = _envied_subset(values, masks, pool)
        if envy is None:
            count += 1
            if count > leaf_cap:
                raise ResourceCapError(f"branch enumeration exceeded {leaf_cap} leaves")
            yield prob, _allocation(masks, pool), SwapTrace(steps=steps)
            continue
        subset, enviers = envy
        goods, rest = _goods(subset), pool & ~subset
        share = prob / len(enviers)
        for k in reversed(enviers):
            step = SwapStep(subset=goods, enviers=enviers, chosen=k)
            stack.append((masks[:k] + (subset,) + masks[k + 1 :], rest | masks[k], share, steps + (step,)))


def test_branch_enumeration_covers_the_whole_tree():
    inst = get_fixture("FIX-E")
    branches = list(_ref_iter_charity_branches_iterative(inst))
    assert len(branches) == 6
    assert sum((p for p, _, _ in branches), start=F(0)) == 1
    for prob, alloc, trace in branches:
        assert prob > 0
        assert replay_swap_trace(inst, trace) == alloc


def _ref_apply_swap(alloc, subset, chosen):
    # the frozenset pool swap the bitmask walks replaced
    bundles = list(alloc.bundles)
    pool = (alloc.pool - subset) | bundles[chosen]
    bundles[chosen] = subset
    return IntegralAllocation(bundles=tuple(bundles), pool=pool)


def _ref_iter_charity_branches(inst):
    # the recursive enumerator the iterative one replaced
    def walk(alloc, prob, steps):
        subset = minimal_envied_subset(inst, alloc)
        if subset is None:
            yield prob, alloc, SwapTrace(steps=tuple(steps))
            return
        enviers = tuple(_ref_enviers_of_set(inst, alloc, subset))
        share = prob / len(enviers)
        for k in enviers:
            steps.append(SwapStep(subset=subset, enviers=enviers, chosen=k))
            yield from walk(_ref_apply_swap(alloc, subset, k), share, steps)
            steps.pop()

    yield from walk(all_pooled(inst), F(1), [])


def test_branch_enumeration_matches_the_recursive_walk():
    rng = SplitMix64(4419)
    instances = [get_fixture("FIX-E")]
    for k in range(60):
        make = (monotone_instance, capped_additive_instance)[k % 2]
        instances.append(make(rng, 2 + rng.below(3), 2 + rng.below(5)))
    # per-good weights take the other bitmask valuation: a sum over the bits
    rng = SplitMix64(4420)
    for k in range(30):
        make = (additive_instance, lex_instance)[k % 2]
        instances.append(make(rng, 2 + rng.below(3), 1 + rng.below(5)))
    leaves = 0
    for inst in instances:
        branches = list(_ref_iter_charity_branches_iterative(inst))
        assert branches == list(_ref_iter_charity_branches(inst))
        assert exact_distribution_charity(inst, 3) == RandomizedAllocation.merged((p, a) for p, a, _ in branches)
        leaves += len(branches)
    assert leaves > 3000  # about 2,570 over tables and 1,050 over per-good weights


def test_long_swap_run_needs_no_stack_depth(capsys, tmp_path):
    # one additive agent valuing goods 80, 79, ..., 1: a single branch of
    # 1,620 swap steps, deeper than Python's default recursion limit
    inst = Instance(n=1, m=80, valuations=(Additive(values=tuple(range(80, 0, -1))),))
    alloc, trace = random_charity_swap(inst, seed=0)
    assert len(trace.steps) == 1620
    dist = exact_distribution_charity(inst, algorithm=3)
    assert dist.support == ((F(1), alloc),)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    assert main(["oracle", str(path), "--op", "exact-charity"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["distribution"]["support"] == [{"prob": "1", **alloc.to_json()}]


def test_exact_distribution_of_the_swap_loop():
    inst = get_fixture("FIX-E")
    dist = exact_distribution_charity(inst, algorithm=3)
    outcomes = {(_bundles(a), tuple(sorted(a.pool))): w for w, a in dist.support}
    assert outcomes == {
        (((0,), (2,)), (1,)): F(1, 2),
        (((1,), (0,)), (2,)): F(1, 2),
    }


def test_exact_distribution_with_pool_shrinking_post_pass():
    inst = get_fixture("FIX-E")
    dist = exact_distribution_charity(inst, algorithm=4)
    outcomes = {(_bundles(a), tuple(sorted(a.pool))): w for w, a in dist.support}
    assert outcomes == {
        (((0,), (1, 2)), ()): F(1, 2),
        (((1, 2), (0,)), ()): F(1, 2),
    }


def test_post_pass_runs_once_per_distinct_swap_loop_outcome(monkeypatch):
    calls = []

    def counted(inst, alloc):
        calls.append(alloc)
        return bounded_charity(inst, alloc)

    monkeypatch.setattr(oracle, "bounded_charity", counted)
    exact_distribution_charity(get_fixture("FIX-E"), algorithm=4)
    assert len(calls) == 2  # of 6 branches
    rng = SplitMix64(4421)
    for k in range(8):
        make = (monotone_instance, capped_additive_instance)[k % 2]
        inst = make(rng, 3, 5 + k // 4)
        calls.clear()
        got = exact_distribution_charity(inst, algorithm=4)
        outcomes = [a for _, a in exact_distribution_charity(inst, algorithm=3).support]
        assert calls == outcomes
        branches = _ref_iter_charity_branches_iterative(inst)
        assert got == RandomizedAllocation.merged((p, bounded_charity(inst, a)) for p, a, _ in branches)


def test_merged_walk_finishes_where_the_tree_outgrows_the_cap():
    # the second 4/8 table of seed 9001: 13,249 runs of the loop reach only
    # 666 distinct states
    rng = SplitMix64(9001)
    monotone_instance(rng, 4, 8)
    inst = capped_additive_instance(rng, 4, 8)
    branches = list(_ref_iter_charity_branches_iterative(inst))
    assert len(branches) == 13249
    with pytest.raises(ResourceCapError):
        exact_distribution_charity(inst, algorithm=3, leaf_cap=665)
    got = exact_distribution_charity(inst, algorithm=3, leaf_cap=1000)
    assert got == RandomizedAllocation.merged((p, a) for p, a, _ in branches)


def test_branch_caps_and_algorithm_validation():
    inst = get_fixture("FIX-E")
    with pytest.raises(ResourceCapError):
        exact_distribution_charity(inst, algorithm=3, leaf_cap=2)
    with pytest.raises(PreconditionError):
        exact_distribution_charity(inst, algorithm=5)
