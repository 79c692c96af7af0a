from __future__ import annotations

from fractions import Fraction

import pytest

from bobw import (
    Decomposition,
    Instance,
    Lexicographic,
    PreconditionError,
    ResourceCapError,
    bvn_decompose,
    check_efx,
    check_exante_ef,
    check_po_lex,
    check_support,
    get_fixture,
    k2_sampler,
    min_exante_ratio,
    run_picking_sequence,
    sigma_unenvied_sequence,
    solve_lex_bobw,
    summarize,
    uniform_permutation,
    unit_run,
    utse,
)
from bobw.rng import SplitMix64

from helpers import lex_instance

F = Fraction


def _bundles(alloc):
    return tuple(tuple(sorted(b)) for b in alloc.bundles)


def test_picking_sequence_basic():
    inst = get_fixture("FIX-A")
    alloc = run_picking_sequence(inst, (0, 1, 2, 2))
    assert _bundles(alloc) == ((0,), (1,), (2, 3))
    assert not alloc.pool


def test_picking_sequence_short_leaves_pool():
    inst = get_fixture("FIX-A")
    alloc = run_picking_sequence(inst, (0,))
    assert _bundles(alloc) == ((0,), (), ())
    assert alloc.pool == frozenset({1, 2, 3})


def test_picking_sequence_rejects_unknown_agent():
    with pytest.raises(PreconditionError):
        run_picking_sequence(get_fixture("FIX-A"), (0, 3))


def test_sigma_sequence_extends_only_to_unenvied_agents():
    inst = get_fixture("FIX-A")
    full, final = sigma_unenvied_sequence(inst, (0, 1, 2), (2,))
    assert full == (0, 1, 2, 2)
    assert _bundles(final) == ((0,), (1,), (2, 3))
    with pytest.raises(PreconditionError):
        sigma_unenvied_sequence(inst, (0, 1, 2), (1,))


def test_sigma_sequence_validates_shape():
    inst = get_fixture("FIX-A")
    with pytest.raises(PreconditionError):
        sigma_unenvied_sequence(inst, (0, 0, 1), (2,))
    with pytest.raises(PreconditionError):
        sigma_unenvied_sequence(inst, (0, 1, 2), (2, 2))


def test_utse_two_agent_support_is_pinned():
    dist = utse(get_fixture("FIX-D"))
    outcomes = {(w, _bundles(a)) for w, a in ((w, a) for w, a in dist.support)}
    assert outcomes == {
        (F(1, 2), ((0,), (1, 2))),
        (F(1, 2), ((1, 2), (0,))),
    }


def test_utse_accepts_matching_decomposition_and_rejects_others():
    inst = get_fixture("FIX-D")
    s = summarize(unit_run(inst))
    same = utse(inst, bvn_decompose(s.X))
    assert same == utse(inst)
    foreign = Decomposition(terms=((F(1), (2, 0)),))
    with pytest.raises(PreconditionError):
        utse(inst, foreign)


def test_utse_pads_when_agents_outnumber_goods():
    inst = Instance(
        n=3,
        m=2,
        valuations=(
            Lexicographic(ranking=(0, 1)),
            Lexicographic(ranking=(0, 1)),
            Lexicographic(ranking=(1, 0)),
        ),
    )
    dist = utse(inst)
    assert sum((w for w, _ in dist.support), start=F(0)) == 1
    for _, alloc in dist.support:
        assert alloc.is_complete(inst.m)
        assert all(len(b) <= 1 for b in alloc.bundles)


def test_utse_supports_are_efx_and_po_and_ratio_holds():
    rng = SplitMix64(500)
    for _ in range(40):
        n = 2 + rng.below(3)
        m = max(n, 2 + rng.below(5))
        inst = lex_instance(rng, n, m)
        dist = utse(inst)
        assert sum((w for w, _ in dist.support), start=F(0)) == 1
        reports = check_support(inst, dist, {"efx": check_efx, "po": check_po_lex})
        assert reports["efx"].passed and reports["po"].passed
        k = int(summarize(unit_run(inst)).k)
        ratio = min_exante_ratio(dist, inst)
        if ratio is not None:
            assert ratio >= F(3 * k, 3 * k + 1)


def test_k2_sampler_requires_last_mass_two():
    with pytest.raises(PreconditionError):
        k2_sampler(get_fixture("FIX-D"))


def test_k2_sampler_is_deterministic_per_seed():
    inst = get_fixture("FIX-C")
    sample = k2_sampler(inst)
    assert sample(11) == sample(11)


def _check_k2_outcomes(inst, seeds):
    sample = k2_sampler(inst)
    for seed in seeds:
        alloc = sample(seed)
        assert alloc.is_complete(inst.m)
        assert not alloc.pool
        assert check_efx(inst, alloc).passed
        assert check_po_lex(inst, alloc).passed


def test_k2_outcomes_partition_goods_and_stay_fair():
    _check_k2_outcomes(get_fixture("FIX-C"), range(200))


def test_k2_with_shared_last_good():
    # agents 0 and 2 race down the same ranking and finish together on good 1
    inst = Instance(
        n=3,
        m=3,
        valuations=(
            Lexicographic(ranking=(0, 1, 2)),
            Lexicographic(ranking=(2, 1, 0)),
            Lexicographic(ranking=(0, 1, 2)),
        ),
    )
    s = summarize(unit_run(inst))
    assert s.k == 2
    assert s.last_goods == (1, 2, 1)
    _check_k2_outcomes(inst, range(200))


def test_uniform_permutation_exact_matrix():
    inst = get_fixture("FIX-B")
    dist = uniform_permutation(inst, mode="exact")
    rows = dist.associated_fractional(inst.m)
    assert rows[0] == (F(2, 5), F(1, 5), F(1, 10), F(2, 15), F(1, 6), F(0))
    assert rows[1] == (F(0), F(4, 5), F(1, 30), F(1, 15), F(1, 10), F(0))
    for i in (2, 3, 4, 5):
        assert rows[i] == (F(3, 20), F(0), F(13, 60), F(1, 5), F(11, 60), F(1, 4))
    assert min_exante_ratio(dist, inst) == F(9121, 12011)


def test_uniform_permutation_single_agent():
    inst = Instance(n=1, m=3, valuations=(Lexicographic(ranking=(2, 0, 1)),))
    dist = uniform_permutation(inst, mode="exact")
    assert len(dist.support) == 1
    w, alloc = dist.support[0]
    assert w == 1
    assert alloc.bundles == (frozenset({0, 1, 2}),)


def test_uniform_permutation_caps_exact_enumeration():
    rng = SplitMix64(501)
    inst = lex_instance(rng, 9, 9)
    with pytest.raises(ResourceCapError):
        uniform_permutation(inst, mode="exact")


def test_uniform_permutation_sample_mode():
    inst = get_fixture("FIX-A")
    exact = uniform_permutation(inst, mode="exact")
    outcomes = {_bundles(a) for _, a in exact.support}
    draw = uniform_permutation(inst, mode="sample", seed=4)
    assert draw == uniform_permutation(inst, mode="sample", seed=4)
    assert _bundles(draw) in outcomes
    with pytest.raises(PreconditionError):
        uniform_permutation(inst, mode="sample")
    with pytest.raises(PreconditionError):
        uniform_permutation(inst, mode="middle")


def test_uniform_permutation_is_half_ef_in_expectation():
    rng = SplitMix64(502)
    for _ in range(25):
        n = 2 + rng.below(4)
        m = max(n, 2 + rng.below(5))
        inst = lex_instance(rng, n, m)
        dist = uniform_permutation(inst, mode="exact")
        assert check_exante_ef(dist, inst, F(1, 2)).passed


def test_solver_routes_by_last_good_mass():
    d = get_fixture("FIX-D")
    res = solve_lex_bobw(d)
    assert (res.k, res.kind) == (1, "distribution")
    assert res.distribution == utse(d)
    assert res.sample is None

    c = get_fixture("FIX-C")
    with pytest.raises(PreconditionError):
        solve_lex_bobw(c)
    res = solve_lex_bobw(c, seed=9)
    assert (res.k, res.kind) == (2, "sample")
    assert res.sample == k2_sampler(c)(9)
    assert res.distribution is None
