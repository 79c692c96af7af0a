from __future__ import annotations

import json
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
    iter_charity_branches,
    minimal_envied_subset,
    random_charity_swap,
    replay_swap_trace,
    sdef_feasibility,
)
from bobw import oracle
from bobw.audit import enviers_of_set
from bobw.charity_algos import _apply_swap, empty_start
from bobw.cli import main
from bobw.rng import SplitMix64

from helpers import capped_additive_instance, lex_instance, monotone_instance

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


def test_feasibility_result_json():
    inst = get_fixture("FIX-D")
    res = sdef_feasibility(inst, enumerate_efx(inst))
    js = res.to_json()
    assert js == {"feasible": True, "weights": ["1/2", "1/2"]}


def test_branch_enumeration_covers_the_whole_tree():
    inst = get_fixture("FIX-E")
    branches = list(iter_charity_branches(inst))
    assert len(branches) == 6
    assert sum((p for p, _, _ in branches), start=F(0)) == 1
    for prob, alloc, trace in branches:
        assert prob > 0
        assert replay_swap_trace(inst, trace) == alloc


def _ref_iter_charity_branches(inst):
    # the recursive enumerator the iterative one replaced
    def walk(alloc, prob, steps):
        subset = minimal_envied_subset(inst, alloc)
        if subset is None:
            yield prob, alloc, SwapTrace(steps=tuple(steps))
            return
        enviers = tuple(enviers_of_set(inst, alloc, subset))
        share = prob / len(enviers)
        for k in enviers:
            steps.append(SwapStep(subset=subset, enviers=enviers, chosen=k))
            yield from walk(_apply_swap(alloc, subset, k), share, steps)
            steps.pop()

    yield from walk(empty_start(inst), F(1), [])


def test_branch_enumeration_matches_the_recursive_walk():
    rng = SplitMix64(4419)
    instances = [get_fixture("FIX-E")]
    for k in range(60):
        make = (monotone_instance, capped_additive_instance)[k % 2]
        instances.append(make(rng, 2 + rng.below(3), 2 + rng.below(5)))
    leaves = 0
    for inst in instances:
        branches = list(iter_charity_branches(inst))
        assert branches == list(_ref_iter_charity_branches(inst))
        leaves += len(branches)
    assert leaves > 500


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
        branches = iter_charity_branches(inst)
        assert got == RandomizedAllocation.merged((p, bounded_charity(inst, a)) for p, a, _ in branches)


def test_branch_caps_and_algorithm_validation():
    inst = get_fixture("FIX-E")
    with pytest.raises(ResourceCapError):
        exact_distribution_charity(inst, algorithm=3, leaf_cap=2)
    with pytest.raises(PreconditionError):
        exact_distribution_charity(inst, algorithm=5)
