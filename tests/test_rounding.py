from __future__ import annotations

from fractions import Fraction

import pytest

from bobw import (
    Decomposition,
    PreconditionError,
    build_supergood_matrix,
    bvn_decompose,
    dependent_round,
    get_fixture,
    run_eating,
    summarize,
    unit_run,
)
from bobw.rng import SplitMix64
from bobw.rounding import _kuhn_matching

from helpers import lex_instance

F = Fraction
HALF = F(1, 2)


def _reconstruct_and_check(rows):
    rows = tuple(tuple(x) for x in rows)
    n, m = len(rows), len(rows[0])
    decomp = bvn_decompose(rows)
    assert decomp.reconstruct(n, m) == rows
    assert sum((w for w, _ in decomp.terms), start=F(0)) == 1
    nonzero = sum(1 for row in rows for x in row if x != 0)
    assert len(decomp.terms) <= n * m
    assert len(decomp.terms) <= max(nonzero, 1)
    for w, assignment in decomp.terms:
        assert w > 0
        assert len(assignment) == n
        cols = [g for g in assignment if g is not None]
        assert len(set(cols)) == len(cols)
    return decomp


def test_zero_one_matrix_is_its_own_single_term():
    rows = ((F(1), F(0)), (F(0), F(1)))
    decomp = bvn_decompose(rows)
    assert len(decomp.terms) == 1
    w, assignment = decomp.terms[0]
    assert w == 1
    assert assignment == (0, 1)


def test_pair_split_matrix_needs_two_terms():
    decomp = _reconstruct_and_check(
        (
            (HALF, HALF, F(0), F(0), F(0)),
            (HALF, HALF, F(0), F(0), F(0)),
            (F(0), F(0), HALF, HALF, F(0)),
            (F(0), F(0), F(0), HALF, HALF),
        )
    )
    assert len(decomp.terms) == 2
    assert all(w == HALF for w, _ in decomp.terms)


def test_full_column_must_be_served_in_every_term():
    # the shared half-column forces both terms to cover good 2; a naive
    # min-entry pivot that matches both agents to their first goods strands it
    rows = ((F(3, 4), F(0), F(1, 4)), (F(0), F(3, 4), F(1, 4)))
    decomp = _reconstruct_and_check(rows)
    col = sum(F(1) for _, a in decomp.terms if 2 in a)
    assert all(2 in assignment for _, assignment in decomp.terms) or col >= 1


def test_decomposition_rejects_bad_weights_and_overlaps():
    with pytest.raises(PreconditionError):
        Decomposition(terms=((F(1, 2), (0, 1)),))
    with pytest.raises(PreconditionError):
        Decomposition(terms=((F(1), (0, 0)),))
    with pytest.raises(PreconditionError):
        Decomposition(terms=((F(3, 2), (0, 1)), (F(-1, 2), (1, 0))))


def test_bvn_rejects_bad_rows():
    with pytest.raises(PreconditionError):
        bvn_decompose(((F(1, 2), F(1, 4)),))  # row sum below one
    with pytest.raises(PreconditionError):
        bvn_decompose(((F(1), F(0)), (F(1), F(0))))  # column above one
    with pytest.raises(PreconditionError):
        bvn_decompose(((F(5, 4), F(-1, 4)),))  # out of range entries


def test_bvn_random_submatrices_of_assignments_reconstruct():
    # convex combinations of valid one-good-per-agent assignments are exactly
    # the feasible inputs, so sampling them exercises every branch
    rng = SplitMix64(200)
    for _ in range(60):
        n = 1 + rng.below(5)
        m = n + rng.below(4)
        terms = 1 + rng.below(6)
        rows = [[F(0)] * m for _ in range(n)]
        weights = [1 + rng.below(9) for _ in range(terms)]
        total = sum(weights)
        for w in weights:
            perm = rng.permutation(m)[:n]
            for i, g in enumerate(perm):
                rows[i][g] += F(w, total)
        _reconstruct_and_check(rows)


def test_bvn_eating_matrices_reconstruct():
    rng = SplitMix64(201)
    for _ in range(30):
        n = 2 + rng.below(4)
        m = max(n, 2 + rng.below(7))
        inst = lex_instance(rng, n, m)
        s = summarize(unit_run(inst))
        _reconstruct_and_check(s.X)


def test_bvn_term_gaps_stay_inside_last_and_untouched_goods():
    rng = SplitMix64(202)
    for _ in range(30):
        n = 2 + rng.below(4)
        m = max(n, 2 + rng.below(7))
        inst = lex_instance(rng, n, m)
        s = summarize(unit_run(inst))
        decomp = bvn_decompose(s.X)
        for _, assignment in decomp.terms:
            unassigned = set(range(len(s.X[0]))) - set(assignment)
            assert unassigned <= (s.L | s.U)
            on_l = sum(1 for g in assignment if g in s.L)
            assert on_l == s.k


def test_decomposition_json_round_trip():
    rows = ((HALF, HALF), (HALF, HALF))
    decomp = bvn_decompose(rows)
    back = Decomposition.from_json(decomp.to_json())
    assert back == decomp


def test_dependent_round_keeps_integral_matrices():
    rows = ((F(1), F(0)), (F(0), F(1)))
    assert dependent_round(rows, seed=1) == ((1, 0), (0, 1))


def test_dependent_round_rejects_fractional_column_sums():
    with pytest.raises(PreconditionError):
        dependent_round(((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))), seed=1)
    with pytest.raises(PreconditionError):
        dependent_round(((F(2), F(-1)),), seed=1)


def test_dependent_round_single_column_marginal():
    rows = ((HALF,), (HALF,))
    hits = 0
    trials = 50_000
    for r in range(trials):
        out = dependent_round(rows, seed=r)
        assert out[0][0] + out[1][0] == 1  # column sum exact every sample
        hits += out[0][0]
    sd = (trials * 0.25) ** 0.5
    assert abs(hits - trials / 2) <= 3 * sd


def test_dependent_round_column_sums_exact_on_random_matrices():
    rng = SplitMix64(203)
    for trial in range(40):
        n = 2 + rng.below(3)
        m = 2 + rng.below(4)
        # build entries with integral column sums: random assignments averaged
        rows = [[F(0)] * m for _ in range(n)]
        for w in range(4):
            perm = rng.permutation(n)
            for j in range(min(n, m)):
                rows[perm[j]][j] += F(1, 4)
        target = [sum(r[j] for r in rows) for j in range(m)]
        out = dependent_round(rows, seed=trial)
        for j in range(m):
            assert sum(r[j] for r in out) == target[j]
        for i in range(n):
            for j in range(m):
                if rows[i][j] == 0:
                    assert out[i][j] == 0
                if rows[i][j] == 1:
                    assert out[i][j] == 1


def test_dependent_round_same_seed_same_output():
    rows = (
        (HALF, F(1, 4), F(1, 4)),
        (HALF, F(1, 4), F(1, 4)),
        (F(0), HALF, HALF),
    )
    a = dependent_round(rows, seed=77)
    b = dependent_round(rows, seed=77)
    assert a == b


def test_dependent_round_long_ring_needs_no_stack_depth():
    # one cycle through all 1,400 vertices: a recursive walk overflows the stack
    n = 700
    rows = [[HALF if j in (i, (i + 1) % n) else F(0) for j in range(n)] for i in range(n)]
    out = dependent_round(rows, seed=5)
    assert all(sum(r[j] for r in out) == 1 for j in range(n))
    assert all(sum(r) == 1 for r in out)


def _ref_kuhn_matching(adj, n):
    # the recursive augmenting-path search the iterative one replaced
    match_col = {}

    def extend(i, seen):
        for g in adj[i]:
            if g in seen:
                continue
            seen.add(g)
            if g not in match_col or extend(match_col[g], seen):
                match_col[g] = i
                return True
        return False

    for i in range(n):
        if not extend(i, set()):
            raise PreconditionError("no agent-saturating matching: matrix violates its shape preconditions")
    return match_col


def test_kuhn_matching_matches_the_recursive_search():
    rng = SplitMix64(4421)
    failed = 0
    for _ in range(3000):
        n = 1 + rng.below(9)
        m = n + rng.below(4)
        adj = [sorted({rng.below(m) for _ in range(rng.below(4))}) for _ in range(n)]
        try:
            expected = _ref_kuhn_matching(adj, n)
        except PreconditionError as err:
            with pytest.raises(PreconditionError, match=str(err)):
                _kuhn_matching(adj, n)
            failed += 1
        else:
            got = _kuhn_matching(adj, n)
            assert got == expected and list(got) == list(expected)
    assert 300 < failed < 2700


def test_kuhn_matching_long_augmenting_path_needs_no_stack_depth():
    # the circulant X[i][i] = X[i][i+1 mod n] = 1/2: the last row's
    # augmenting path runs through every other row
    n = 5000
    adj = [sorted({i, (i + 1) % n}) for i in range(n)]
    assert _kuhn_matching(adj, n) == {(i + 1) % n: i for i in range(n)}


def test_supergood_matrix_from_pair_instance():
    s = summarize(run_eating(get_fixture("FIX-C"), F(1)))
    sg = build_supergood_matrix(s)
    assert sg.k == 2
    assert sg.super_column == (HALF, HALF, HALF, HALF)
    assert sg.base_goods == (0, 3)
    for row in sg.matrix:
        assert sum(row, start=F(0)) == 1


def test_supergood_matrix_from_shared_ranking_instance():
    s = summarize(run_eating(get_fixture("FIX-D"), F(1)))
    sg = build_supergood_matrix(s)
    assert sg.k == 1
    assert sg.super_column == (HALF, HALF)
    assert sg.base_goods == (0,)


def test_supergood_matrix_single_agent():
    from bobw import Instance, Lexicographic

    inst = Instance(n=1, m=2, valuations=(Lexicographic(ranking=(0, 1)),))
    sg = build_supergood_matrix(summarize(run_eating(inst, F(1))))
    assert sg.k == 1
    assert sg.super_column == (F(1),)
    assert sg.base_goods == ()


def test_supergood_rejects_partial_runs():
    s = summarize(run_eating(get_fixture("FIX-C"), F(1, 2)))
    with pytest.raises(PreconditionError):
        build_supergood_matrix(s)


def test_supergood_rounding_gives_exactly_k_holders():
    s = summarize(run_eating(get_fixture("FIX-C"), F(1)))
    sg = build_supergood_matrix(s)
    for seed in range(300):
        out = dependent_round(sg.matrix, seed=seed)
        holders = [i for i in range(4) if out[i][-1] == 1]
        assert len(holders) == 2
        for j in range(len(sg.base_goods)):
            assert sum(row[j] for row in out) == 1
