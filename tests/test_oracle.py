from __future__ import annotations

import copy
import json
import math
import re
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
from bobw.core import require_fits
from bobw.eating import ordinal_rankings
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


# the Fourier-Motzkin elimination the simplex replaced, kept as a reference
_REF_SUPPORT_CAP = 12
_REF_CONSTRAINT_CAP = 100_000  # pairwise combinations, over all eliminations


@dataclass(frozen=True)
class _RefConstraint:
    coeffs: tuple[int, ...]  # integer coefficients over the free weights
    const: int  # c . x + const >= 0
    cid: int

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coeffs) and self.const >= 0

    def is_contradiction(self) -> bool:
        return all(c == 0 for c in self.coeffs) and self.const < 0


def _ref_normalize(coeffs: Sequence[int], const: int) -> tuple[tuple[int, ...], int]:
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    g = math.gcd(g, abs(const))
    if g > 1:
        return tuple(c // g for c in coeffs), const // g
    return tuple(coeffs), const


def _ref_sdef_feasibility(
    inst: Instance, supports: Sequence[IntegralAllocation]
) -> FeasibilityResult:
    """Can a lottery over `supports` be prefix-dominance envy-free for every
    pair?  Exact rational elimination; feasible gives verified witness
    weights, infeasible gives the combination chain ending in an impossible
    constant constraint.  Elimination can derive doubly exponentially many
    constraints, so past _REF_CONSTRAINT_CAP pairwise combinations it
    raises ResourceCapError."""
    q = len(supports)
    if q == 0:
        raise PreconditionError("need at least one support allocation")
    require_fits(inst, supports)
    if q > _REF_SUPPORT_CAP:
        raise ResourceCapError(f"feasibility capped at {_REF_SUPPORT_CAP} support allocations")
    rankings = ordinal_rankings(inst)

    # prefix counts: pc[l][i][j][t] = |A^l_j  intersect  top-(t+1) of i's order|
    def prefix_counts(alloc: IntegralAllocation, i: int, j: int) -> list[int]:
        got = 0
        out = []
        bundle = alloc.bundles[j]
        for g in rankings[i]:
            if g in bundle:
                got += 1
            out.append(got)
        return out

    labels: dict[int, str] = {}
    constraints: list[_RefConstraint] = []
    steps: list[dict] = []
    next_id = 0

    def add(coeffs: Sequence[int], const: int, label: str) -> None:
        nonlocal next_id
        cs, c0 = _ref_normalize(coeffs, const)
        con = _RefConstraint(coeffs=cs, const=c0, cid=next_id)
        labels[next_id] = label
        next_id += 1
        constraints.append(con)

    # last weight is 1 - sum(others); q-1 free variables remain
    for l in range(q - 1):
        coeffs = [0] * (q - 1)
        coeffs[l] = 1
        add(coeffs, 0, f"weight[{l}] >= 0")
    add([-1] * (q - 1), 1, f"weight[{q - 1}] >= 0")

    for i in inst.agents:
        for j in inst.agents:
            if i == j:
                continue
            own = [prefix_counts(a, i, i) for a in supports]
            other = [prefix_counts(a, i, j) for a in supports]
            for t in range(inst.m):
                deltas = [own[l][t] - other[l][t] for l in range(q)]
                coeffs = [deltas[l] - deltas[q - 1] for l in range(q - 1)]
                const = deltas[q - 1]
                if all(c == 0 for c in coeffs) and const >= 0:
                    continue  # trivially satisfied
                add(coeffs, const, f"agent {i} vs {j}, top-{t + 1} prefix")

    # Fourier-Motzkin elimination, ascending variable order; keep each
    # intermediate stage for back-substitution.
    stages: list[list[_RefConstraint]] = [list(constraints)]
    system = list(constraints)
    num_vars = q - 1
    combined = 0  # derived constraints, duplicates and trivial ones included
    for var in range(num_vars):
        pos = [c for c in system if c.coeffs[var] > 0]
        neg = [c for c in system if c.coeffs[var] < 0]
        rest = [c for c in system if c.coeffs[var] == 0]
        derived: list[_RefConstraint] = []
        seen: dict[tuple, int] = {}
        for p in pos:
            for ng in neg:
                combined += 1
                if combined > _REF_CONSTRAINT_CAP:
                    raise ResourceCapError(
                        f"feasibility capped at {_REF_CONSTRAINT_CAP} derived constraints (_REF_CONSTRAINT_CAP)"
                    )
                a, b = p.coeffs[var], -ng.coeffs[var]
                coeffs = [b * pc + a * nc for pc, nc in zip(p.coeffs, ng.coeffs)]
                const = b * p.const + a * ng.const
                cs, c0 = _ref_normalize(coeffs, const)
                assert cs[var] == 0
                key = (cs, c0)
                if key in seen:
                    continue
                con = _RefConstraint(coeffs=cs, const=c0, cid=len(labels))
                labels[con.cid] = f"eliminate x{var}: combine #{p.cid} with #{ng.cid}"
                steps.append(
                    {"derived": con.cid, "from": [p.cid, ng.cid], "eliminated": var}
                )
                seen[key] = con.cid
                if con.is_contradiction():
                    chain = _ref_certificate_chain(con.cid, steps, labels)
                    return FeasibilityResult(feasible=False, certificate=chain)
                if not con.is_trivial():
                    derived.append(con)
        system = rest + derived
        stages.append(list(system))

    for con in system:
        if con.is_contradiction():  # q == 1 or leftover constants
            chain = _ref_certificate_chain(con.cid, steps, labels)
            return FeasibilityResult(feasible=False, certificate=chain)

    # feasible: back-substitute stage by stage, innermost variable first
    values: list[Optional[Fraction]] = [None] * num_vars
    for var in range(num_vars - 1, -1, -1):
        lowers: list[Fraction] = []
        uppers: list[Fraction] = []
        for con in stages[var]:
            cv = con.coeffs[var]
            if cv == 0:
                continue
            rest_val = Fraction(con.const)
            for v2 in range(var + 1, num_vars):
                rest_val += con.coeffs[v2] * values[v2]
            bound = -rest_val / cv
            if cv > 0:
                lowers.append(bound)
            else:
                uppers.append(bound)
        lo = max(lowers) if lowers else Fraction(0)
        hi = min(uppers) if uppers else lo
        if lo > hi:  # pragma: no cover - elimination guarantees consistency
            raise AssertionError("back-substitution found an empty interval")
        values[var] = (lo + hi) / 2
    weights = tuple(values) + (1 - sum(values, start=Fraction(0)),)

    # verify the witness before handing it out
    if any(w < 0 for w in weights) or sum(weights) != 1:  # pragma: no cover
        raise AssertionError("witness weights are not a distribution")
    mix = RandomizedAllocation(tuple((w, a) for w, a in zip(weights, supports) if w > 0))
    verdict = check_sdef(inst, mix.associated_fractional(inst.m))
    if not verdict.passed:  # pragma: no cover
        raise AssertionError(f"witness mixture fails the dominance check: {verdict.witness}")
    return FeasibilityResult(feasible=True, weights=weights)


def _ref_certificate_chain(cid: int, steps: list[dict], labels: dict[int, str]) -> dict:
    """Original constraints and combination steps that feed the contradiction."""
    by_derived = {s["derived"]: s for s in steps}
    needed_steps = []
    leaves = set()
    stack = [cid]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        if cur in by_derived:
            step = by_derived[cur]
            needed_steps.append(step)
            stack.extend(step["from"])
        else:
            leaves.add(cur)
    needed_steps.sort(key=lambda s: s["derived"])
    return {
        "contradiction": cid,
        "constraints": [{"id": c, "label": labels[c]} for c in sorted(leaves)],
        "steps": needed_steps,
    }


def _sdef_witness_holds(inst, supports, weights):
    # a distribution over the supports whose lottery passes the audit
    if len(weights) != len(supports) or min(weights) < 0:
        return False
    mix = RandomizedAllocation(tuple((w, a) for w, a in zip(weights, supports) if w > 0))
    return check_sdef(inst, mix.associated_fractional(inst.m)).passed


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


def test_mixture_feasibility_finds_a_vertex_over_several_weights():
    # four EFX allocations: the simplex stops at a vertex of the feasible
    # weights, where the eliminating reference picks the midpoints
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
    assert res.weights == (F(0), F(1), F(0), F(0))
    assert _sdef_witness_holds(inst, supports, res.weights)
    assert _ref_sdef_feasibility(inst, supports).weights == (F(1, 8), F(1, 4), F(1, 2), F(1, 8))


def test_mixture_infeasibility_yields_a_certificate():
    inst = get_fixture("FIX-A")
    supports = enumerate_efx(inst)
    res = sdef_feasibility(inst, supports)
    assert not res.feasible
    assert res.weights is None
    assert res.certificate == {
        "constraints": [
            {"label": "agent 0 vs 2, top-4 prefix", "multiplier": 4},
            {"label": "agent 1 vs 0, top-1 prefix", "multiplier": 3},
            {"label": "agent 1 vs 0, top-4 prefix", "multiplier": 8},
            {"label": "agent 1 vs 2, top-2 prefix", "multiplier": 6},
        ]
    }
    # the combination, support by support, from the margins by hand
    margins = oracle._margins(inst, supports)
    combined = [
        sum(c["multiplier"] * margins[c["label"]][l] for c in res.certificate["constraints"]) for l in range(4)
    ]
    assert combined == [-1, -1, -1, -1]
    assert oracle._replay_certificate(margins, res.certificate)


def test_single_support_certificate_is_direct():
    inst = get_fixture("FIX-D")
    supports = enumerate_efx(inst)[:1]
    res = sdef_feasibility(inst, supports)
    assert not res.feasible
    assert res.certificate == {"constraints": [{"label": "agent 0 vs 1, top-3 prefix", "multiplier": 1}]}
    assert oracle._replay_certificate(oracle._margins(inst, supports), res.certificate)


def test_certificate_replay_refuses_doctored_certificates():
    inst = get_fixture("FIX-A")
    supports = enumerate_efx(inst)
    cert = sdef_feasibility(inst, supports).certificate
    margins = oracle._margins(inst, supports)
    assert oracle._replay_certificate(margins, cert)

    def doctored(k, **entry):
        out = copy.deepcopy(cert)
        out["constraints"][k].update(entry)
        return out

    for k, entry in enumerate(cert["constraints"]):
        assert not oracle._replay_certificate(margins, doctored(k, multiplier=0))
        assert not oracle._replay_certificate(margins, doctored(k, multiplier=-entry["multiplier"]))
        for label in margins:
            if label != entry["label"]:
                assert not oracle._replay_certificate(margins, doctored(k, label=label))
    assert not oracle._replay_certificate(margins, doctored(0, label="agent 0 vs 3, top-1 prefix"))
    assert not oracle._replay_certificate(margins, {"constraints": []})
    # a zero multiplier is no part of a certificate, even where it changes
    # no sum, and a sum of zero on a support proves nothing
    padded = copy.deepcopy(cert)
    padded["constraints"].append({"label": "agent 0 vs 1, top-1 prefix", "multiplier": 0})
    assert not oracle._replay_certificate(margins, padded)
    one = {"constraints": [{"label": "row", "multiplier": 1}]}
    assert oracle._replay_certificate({"row": (-1, -2)}, one)
    assert not oracle._replay_certificate({"row": (-1, 0)}, one)
    # goods 0 and 1 to agent 0, 2 and 3 to agent 1: every combined margin is
    # negative on the four EFX allocations but not on this one
    extra = from_assignment((0, 0, 1, 1), 3)
    assert not oracle._replay_certificate(oracle._margins(inst, supports + (extra,)), cert)
    assert not sdef_feasibility(inst, supports + (extra,)).feasible


def test_sdef_feasibility_refuses_supports_that_do_not_fit():
    inst = get_fixture("FIX-D")
    one_bundle = IntegralAllocation(bundles=(frozenset({0, 1, 2}),))
    with pytest.raises(PreconditionError, match=r"need one bundle per agent \(2\), got 1"):
        sdef_feasibility(inst, [one_bundle])
    # the shape is checked before the tableau cap: 100,000 misfits are bad
    # input, not a cap
    with pytest.raises(PreconditionError):
        sdef_feasibility(inst, [one_bundle] * 100_000)


def test_sdef_feasibility_decides_the_reproducer(capsys, tmp_path):
    # 12 EFX allocations: the eliminating reference decides the first 10 and
    # stops at its constraint cap on 11
    rankings = ([4, 3, 0, 2, 1], [4, 0, 3, 2, 1], [4, 1, 3, 0, 2])
    inst = Instance(n=3, m=5, valuations=tuple(Lexicographic(ranking=r) for r in rankings))
    supports = enumerate_efx(inst)
    assert len(supports) == 12
    res = sdef_feasibility(inst, supports[:10])
    assert not res.feasible and not _ref_sdef_feasibility(inst, supports[:10]).feasible
    assert oracle._replay_certificate(oracle._margins(inst, supports[:10]), res.certificate)
    with pytest.raises(ResourceCapError, match="_REF_CONSTRAINT_CAP"):
        _ref_sdef_feasibility(inst, supports[:11])
    for k in (11, 12):
        res = sdef_feasibility(inst, supports[:k])
        assert res.feasible and _sdef_witness_holds(inst, supports[:k], res.weights)
    path = tmp_path / "reproducer.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    started = time.perf_counter()
    assert main(["oracle", str(path), "--op", "sdef-feasibility"]) == 0
    assert time.perf_counter() - started < 2
    out = json.loads(capsys.readouterr().out)
    assert out == res.to_json() and out["feasible"]


def test_sdef_feasibility_caps_the_tableau(capsys, tmp_path):
    # two opposite rankings of 14 goods: 4,096 EFX allocations, and 24 of
    # the 28 rows are live
    ranking = tuple(range(14))
    inst = Instance(n=2, m=14, valuations=(Lexicographic(ranking), Lexicographic(ranking[::-1])))
    entries = (24 + 2) * (4096 + 24 + 1)
    assert entries > oracle.SDEF_TABLEAU_CAP
    message = f"feasibility capped at {oracle.SDEF_TABLEAU_CAP} tableau entries (SDEF_TABLEAU_CAP), got {entries}"
    with pytest.raises(ResourceCapError, match=re.escape(message)):
        sdef_feasibility(inst, enumerate_efx(inst))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    started = time.perf_counter()
    assert main(["oracle", str(path), "--op", "sdef-feasibility"]) == 4
    assert time.perf_counter() - started < 2
    assert capsys.readouterr() == ("", f"resource cap: {message}\n")


def test_sdef_feasibility_sweep_matches_the_eliminating_reference(monkeypatch):
    # 150 random lexicographic instances with all their EFX allocations as
    # supports: every verdict carries a witness that passes the audit or a
    # certificate that replays, and agrees with the reference wherever the
    # reference decides inside its caps.  At its old constraint cap the
    # reference decides 107 of them; at a tenth of it, which runs about six
    # times faster, it decides 101.
    monkeypatch.setitem(globals(), "_REF_CONSTRAINT_CAP", 10_000)
    rng = SplitMix64(2026)
    counts = Counter()
    for _ in range(150):
        n = 2 + rng.below(2)
        inst = lex_instance(rng, n, n + 1 + rng.below(3))
        supports = enumerate_efx(inst)
        res = sdef_feasibility(inst, supports)
        if res.feasible:
            assert _sdef_witness_holds(inst, supports, res.weights)
        else:
            assert oracle._replay_certificate(oracle._margins(inst, supports), res.certificate)
            assert math.gcd(*(c["multiplier"] for c in res.certificate["constraints"])) == 1
            counts["infeasible", n] += 1
        counts["over the reference's support cap"] += len(supports) > _REF_SUPPORT_CAP
        try:
            ref = _ref_sdef_feasibility(inst, supports)
        except ResourceCapError:
            continue
        assert ref.feasible == res.feasible
        counts["compared"] += 1
    assert counts == Counter({("infeasible", 3): 18, "over the reference's support cap": 16, "compared": 101})


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
