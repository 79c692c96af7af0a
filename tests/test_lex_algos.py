from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

import pytest

from bobw import (
    Decomposition,
    Instance,
    IntegralAllocation,
    Lexicographic,
    PreconditionError,
    RandomizedAllocation,
    ResourceCapError,
    build_supergood_matrix,
    bvn_decompose,
    check_efx,
    check_exante_ef,
    check_po_lex,
    check_support,
    get_fixture,
    k2_sampler,
    min_exante_ratio,
    permutation_sampler,
    run_picking_sequence,
    sigma_unenvied_sequence,
    solve_lex_bobw,
    summarize,
    uniform_permutation,
    unit_run,
    utse,
)
from bobw import lex_algos, rounding
from bobw.rng import SplitMix64

from helpers import additive_instance, lex_instance

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


def _fix_a_terms_with_a_negative_good():
    # FIX-A's own terms with good 3 written as -1, which Python would index
    terms = bvn_decompose(summarize(unit_run(get_fixture("FIX-A"))).X).terms
    return tuple((w, tuple(-1 if g == 3 else g for g in a)) for w, a in terms)


@pytest.mark.parametrize(
    "fixture,terms",
    [
        ("FIX-D", ((1, (0, 7)),)),
        ("FIX-D", ((1, (0, 1, 2)),)),
        ("FIX-D", ((1, (0,)),)),
        ("FIX-A", _fix_a_terms_with_a_negative_good()),
    ],
    ids=["good-out-of-range", "too-many-agents", "too-few-agents", "negative-good"],
)
def test_utse_refuses_decomposition_terms_that_do_not_fit(fixture, terms):
    with pytest.raises(PreconditionError, match="a term must give each of the"):
        utse(get_fixture(fixture), decomposition=Decomposition(terms))


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
    dist = uniform_permutation(inst)
    rows = dist.associated_fractional(inst.m)
    assert rows[0] == (F(2, 5), F(1, 5), F(1, 10), F(2, 15), F(1, 6), F(0))
    assert rows[1] == (F(0), F(4, 5), F(1, 30), F(1, 15), F(1, 10), F(0))
    for i in (2, 3, 4, 5):
        assert rows[i] == (F(3, 20), F(0), F(13, 60), F(1, 5), F(11, 60), F(1, 4))
    assert min_exante_ratio(dist, inst) == F(9121, 12011)


def test_uniform_permutation_single_agent():
    inst = Instance(n=1, m=3, valuations=(Lexicographic(ranking=(2, 0, 1)),))
    dist = uniform_permutation(inst)
    assert len(dist.support) == 1
    w, alloc = dist.support[0]
    assert w == 1
    assert alloc.bundles == (frozenset({0, 1, 2}),)


def test_uniform_permutation_caps_exact_enumeration():
    rng = SplitMix64(501)
    inst = lex_instance(rng, 9, 9)
    with pytest.raises(ResourceCapError):
        uniform_permutation(inst)


def test_permutation_sampler_draws_from_the_exact_lottery():
    inst = get_fixture("FIX-A")
    exact = uniform_permutation(inst)
    outcomes = {_bundles(a) for _, a in exact.support}
    draw = permutation_sampler(inst)(4)
    assert draw == permutation_sampler(inst)(4)
    assert _bundles(draw) in outcomes


def test_uniform_permutation_is_half_ef_in_expectation():
    rng = SplitMix64(502)
    for _ in range(25):
        n = 2 + rng.below(4)
        m = max(n, 2 + rng.below(5))
        inst = lex_instance(rng, n, m)
        dist = uniform_permutation(inst)
        assert check_exante_ef(dist, inst, F(1, 2)).passed


def test_solver_routes_by_last_good_mass():
    d = get_fixture("FIX-D")
    assert solve_lex_bobw(d) == (1, utse(d))

    c = get_fixture("FIX-C")
    with pytest.raises(PreconditionError):
        solve_lex_bobw(c)
    assert solve_lex_bobw(c, seed=9) == (2, k2_sampler(c)(9))


def test_solver_runs_eating_once(monkeypatch):
    calls = []

    def counted(inst):
        calls.append(inst)
        return unit_run(inst)

    monkeypatch.setattr(lex_algos, "unit_run", counted)
    for name, seed in (("FIX-D", None), ("FIX-C", 5)):
        calls.clear()
        solve_lex_bobw(get_fixture(name), seed=seed)
        assert len(calls) == 1, name


def test_k2_draw_rounds_through_the_module_binding(monkeypatch):
    # each draw must reach `lex_algos.dependent_round` once, so a tracer
    # wrapped around that binding sees every pivot of the draw
    calls = []
    original = lex_algos.dependent_round

    def counted(rows, seed):
        calls.append(seed)
        return original(rows, seed)

    inst = get_fixture("FIX-C")
    expected = k2_sampler(inst)(13)
    monkeypatch.setattr(lex_algos, "dependent_round", counted)
    assert k2_sampler(inst)(13) == expected
    assert len(calls) == 1


def test_k2_sampler_scales_its_matrix_once(monkeypatch):
    # a sampler checks and scales its supergood matrix when it is built, not
    # on every draw; each draw is the one the raw matrix gives
    rng = SplitMix64(2207)
    insts = [get_fixture("FIX-C")]
    while len(insts) < 4:
        inst = lex_instance(rng, 6 + rng.below(5), 8 + rng.below(5))
        if summarize(unit_run(inst)).k == 2:
            insts.append(inst)
    for inst in insts:
        summary = summarize(unit_run(inst))
        base_goods, matrix = build_supergood_matrix(summary)
        leftovers = summary.L | summary.U
        expected = [
            lex_algos._k2_from_rounding(inst, summary.last_goods, leftovers, base_goods, matrix, seed)
            for seed in range(50)
        ]
        calls = []
        scaled = rounding._scaled

        def counted(rows):
            calls.append(rows)
            return scaled(rows)

        monkeypatch.setattr(rounding, "_scaled", counted)
        sample = k2_sampler(inst)
        assert [sample(seed) for seed in range(50)] == expected
        assert len(calls) == 1
        monkeypatch.undo()


# reference: utse with its own dummy-goods branch, kept verbatim (helper
# renamed), is the one specification of the tail lottery: each (term,
# winner) outcome is built through the public constructor and merged by its
# key.  The tail lottery must give the same lottery and refuse the same
# decompositions.


def _ref_strip(bundle: frozenset[int], m_real: int) -> frozenset[int]:
    return frozenset(g for g in bundle if g < m_real)


def _ref_utse(inst: Instance, decomposition: Optional[Decomposition] = None) -> RandomizedAllocation:
    trace = unit_run(inst)
    summary = summarize(trace)
    m_total = trace.m_total
    if decomposition is None:
        decomposition = bvn_decompose(summary.X)
    else:
        if decomposition.reconstruct(inst.n, m_total) != summary.X:
            raise PreconditionError("supplied decomposition does not reconstruct the eating matrix")

    if trace.n_dummies > 0:
        # fewer goods than agents: every (padded) good is fully eaten, each
        # term is a perfect matching, and no tail phase is needed
        support = [
            (w, IntegralAllocation(bundles=tuple(_ref_strip(frozenset({g}), inst.m) for g in assignment)))
            for w, assignment in decomposition.terms
        ]
        return RandomizedAllocation.merged(support)

    k = int(summary.k)
    goods = frozenset(range(m_total))
    support = []
    for w, assignment in decomposition.terms:
        tail = goods - frozenset(assignment)
        if not tail <= (summary.L | summary.U):
            raise AssertionError("unallocated tail reaches outside the last/untouched goods")
        winners = [i for i in inst.agents if assignment[i] in summary.L]
        if len(winners) != k:
            raise AssertionError("a term does not hold exactly k last goods")
        for i in winners:
            bundles = [frozenset({assignment[j]}) for j in inst.agents]
            bundles[i] = bundles[i] | tail
            support.append((w / k, IntegralAllocation(bundles=tuple(bundles))))
    return RandomizedAllocation.merged(support)


def _assert_partitions(dist: RandomizedAllocation, m: int) -> None:
    # the public constructors accept what the tail lottery built unchecked
    assert RandomizedAllocation(dist.support) == dist
    for _, alloc in dist.support:
        assert alloc == IntegralAllocation(alloc.bundles, alloc.pool) and alloc.is_complete(m)


def _differential_instances():
    for name in ("FIX-A", "FIX-B", "FIX-C", "FIX-D"):
        yield get_fixture(name)
    rng = SplitMix64(503)
    for n in range(1, 10):
        for m in range(1, 13):  # m < n pads with dummy goods
            yield lex_instance(rng, n, m)
            yield additive_instance(rng, n, m)
    # the benchmark's sizes: each term's tail goes to one of k >= 9 winners,
    # and hundreds of outcomes merge into one lottery
    for n in (12, 32):
        for draw in (lex_instance, lambda rng, n, m: additive_instance(rng, n, m, spread=4 * m)):
            kept = 0
            while kept < 2:
                inst = draw(rng, n, 2 * n)
                if summarize(unit_run(inst)).k >= 9:
                    kept += 1
                    yield inst


def test_utse_matches_the_two_branch_reference():
    padded = 0
    largest = 0
    for inst in _differential_instances():
        pinned = bvn_decompose(summarize(unit_run(inst)).X)
        for decomposition in (None, pinned):
            got = utse(inst, decomposition)
            assert got.to_json() == _ref_utse(inst, decomposition).to_json()
            _assert_partitions(got, inst.m)
        padded += inst.m < inst.n
        largest = max(largest, len(got.support))
    assert padded == 2 * 36
    assert largest >= 150


def _permuted_decomposition(summary, rng: SplitMix64) -> Decomposition:
    # bvn_decompose of the eating matrix with its goods permuted, mapped back:
    # another valid decomposition of the same matrix
    perm = rng.permutation(len(summary.eaten))
    terms = bvn_decompose([[row[g] for g in perm] for row in summary.X]).terms
    return Decomposition(tuple((w, tuple(perm[c] for c in a)) for w, a in terms))


def test_utse_under_decompositions_of_permuted_goods():
    rng = SplitMix64(504)
    checked = floors = 0
    for inst in _differential_instances():
        if inst.n < 3:
            continue
        summary = summarize(unit_run(inst))
        lexicographic = all(isinstance(v, Lexicographic) for v in inst.valuations)
        for _ in range(3):
            decomposition = _permuted_decomposition(summary, rng)
            assert decomposition.reconstruct(inst.n, len(summary.eaten)) == summary.X
            got = utse(inst, decomposition)
            assert got.to_json() == _ref_utse(inst, decomposition).to_json()
            _assert_partitions(got, inst.m)
            checked += 1
            # the floor is owed to lexicographic agents only: the plain
            # additive values here need not agree with any lexicographic order
            if lexicographic:
                ratio = min_exante_ratio(got, inst)
                k = int(summary.k)
                assert ratio is None or ratio >= F(3 * k, 3 * k + 1), (inst, decomposition)
                floors += 1
    assert checked >= 500 and floors >= 250


def _tail_cases():
    """(instance, summary, decomposition) triples: the default and permuted-
    goods decompositions of utse instances from 8/16 to 32/64, padded and
    square instances, and each decomposition with every term split in two
    (a repeated assignment, so outcomes merge)."""
    rng = SplitMix64(2803)
    insts = [lex_instance(rng, n, 2 * n) for n in (8, 12, 16, 24, 32)]
    insts += [additive_instance(rng, n, 2 * n) for n in (8, 16)]
    insts += [lex_instance(rng, n, m) for n, m in ((5, 3), (9, 4), (12, 7), (6, 6), (10, 10), (7, 9))]
    for inst in insts:
        summary = summarize(unit_run(inst))
        for decomposition in (bvn_decompose(summary.X), _permuted_decomposition(summary, rng)):
            yield inst, summary, decomposition
            halves = [(w / 2, a) for w, a in decomposition.terms]
            yield inst, summary, Decomposition(tuple(halves + halves[::-1]))


def test_tail_lottery_matches_the_keyed_reference():
    kinds = set()
    for inst, summary, decomposition in _tail_cases():
        expected = _ref_utse(inst, decomposition).to_json()
        supplied = [decomposition]
        if decomposition.terms == bvn_decompose(summary.X).terms:
            supplied.append(None)
        for given in supplied:
            got = lex_algos._tail_lottery(inst, summary, given)
            assert got.to_json() == expected
            _assert_partitions(got, inst.m)
        repeated = len({a for _, a in decomposition.terms}) < len(decomposition.terms)
        kinds.add((inst.m < inst.n, inst.m == inst.n, repeated))
    # padded, square and m > n cases, each with distinct and repeated assignments
    assert kinds == {(p, s, r) for p, s in ((True, False), (False, True), (False, False)) for r in (True, False)}


def test_tail_lottery_refuses_what_the_keyed_reference_refuses():
    # a supplied decomposition that misses the eating matrix by one entry,
    # or whose terms do not fit the matrix, is refused with the same message
    rng = SplitMix64(2804)
    for inst, summary, decomposition in _tail_cases():
        terms = list(decomposition.terms)
        w, a = terms[-1]
        i = rng.below(inst.n)
        free = [g for g in range(len(summary.eaten)) if g not in a]
        if free:
            terms[-1] = (w, a[:i] + (free[rng.below(len(free))],) + a[i + 1 :])
        else:  # a perfect matching: swap two agents' goods
            terms[-1] = (w, a[1:] + a[:1])
        for bad in (Decomposition(tuple(terms)), Decomposition(((F(1), a[:-1]),))):
            with pytest.raises(PreconditionError) as ref:
                _ref_utse(inst, bad)
            with pytest.raises(PreconditionError, match=re.escape(str(ref.value))):
                lex_algos._tail_lottery(inst, summary, bad)


def test_utse_merges_equal_outcomes_across_terms():
    # a winner's own good is its last good, so two terms give one outcome
    # only when their assignments are equal; bvn_decompose never repeats an
    # assignment, so split every term into two copies
    for inst in _differential_instances():
        pinned = bvn_decompose(summarize(unit_run(inst)).X)
        thirds = [(w / 3, a) for w, a in pinned.terms]
        rest = [(2 * w / 3, a) for w, a in reversed(pinned.terms)]
        split = Decomposition(tuple(thirds + rest))
        got = utse(inst, split)
        assert got.to_json() == utse(inst, pinned).to_json()
        _assert_partitions(got, inst.m)


def test_tail_lottery_skips_the_public_check_and_k2_draws_keep_it(monkeypatch):
    calls = []
    post_init = IntegralAllocation.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(IntegralAllocation, "__post_init__", counted)
    outcomes = 0
    for inst, summary, decomposition in _tail_cases():
        outcomes += len(lex_algos._tail_lottery(inst, summary, decomposition).support)
    assert outcomes and not calls
    draw = k2_sampler(get_fixture("FIX-C"))(11)
    assert calls and calls[-1] is draw


def test_tail_lottery_refuses_a_term_that_repeats_a_good():
    # terms that reconstruct the eating matrix, one of which gives good 0 to
    # both agents: Decomposition refuses it, so it is built past that check
    inst = Instance(
        n=2,
        m=3,
        valuations=(Lexicographic(ranking=(0, 1, 2)), Lexicographic(ranking=(0, 2, 1))),
    )
    summary = summarize(unit_run(inst))
    terms = ((F(1, 2), (0, 0)), (F(1, 2), (1, 2)))
    with pytest.raises(PreconditionError, match="a term assigns one good to two agents"):
        Decomposition(terms)
    bad = object.__new__(Decomposition)
    object.__setattr__(bad, "terms", terms)
    assert bad.reconstructs(summary.X)
    with pytest.raises(AssertionError, match="repeats a good"):
        lex_algos._tail_lottery(inst, summary, bad)
