from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

import pytest

from bobw import (
    Decomposition,
    PreconditionError,
    build_supergood_matrix,
    bvn_decompose,
    dependent_round,
    full_run,
    get_fixture,
    k2_sampler,
    representative_matrix,
    run_eating,
    summarize,
    unit_run,
    utse,
)
from bobw import rounding
from bobw.eating import ShareMatrix
from bobw.rng import SplitMix64, derive_seed
from bobw.rounding import PreparedMatrix, _resume_matching

from helpers import lex_instance
from test_acceptance import _BATTERY, _k2_instances

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
    short = F(1, 2) - F(1, 10**60)
    for terms in [(), ((F(1, 2), (0, 1)), (short, (1, 0))), (("1/3", (0, 1)), ("1/3", (1, 0)))]:
        with pytest.raises(PreconditionError, match="sum to exactly one"):
            Decomposition(terms=terms)
    assert Decomposition(terms=(("1/3", (0, 1)), ("2/3", (1, 0)))).terms[1] == (F(2, 3), (1, 0))
    # large coprime denominators: the common denominator is their product
    p, q = F(1, 2**127 - 1), F(1, 10**40 + 1)
    decomp = Decomposition(terms=((p, (0, 1)), (q, (1, 0)), (1 - p - q, (0, 2))))
    assert decomp.reconstruct(2, 3) == ((1 - q, q, F(0)), (q, p, 1 - p - q))


def test_reconstruct_refuses_terms_that_do_not_fit():
    decomp = Decomposition(terms=((F(1), (1, 0)),))
    assert decomp.reconstruct(2, 2) == ((F(0), F(1)), (F(1), F(0)))
    for n, m in [(3, 2), (1, 2), (2, 1)]:
        with pytest.raises(PreconditionError, match=f"each of the {n} agents one of the {m} goods"):
            decomp.reconstruct(n, m)
    with pytest.raises(PreconditionError):
        Decomposition(terms=((F(1), (0, -1)),)).reconstruct(2, 2)


def test_bvn_rejects_bad_rows():
    with pytest.raises(PreconditionError):
        bvn_decompose(((F(1, 2), F(1, 4)),))  # row sum below one
    with pytest.raises(PreconditionError):
        bvn_decompose(((F(1), F(0)), (F(1), F(0))))  # column above one
    with pytest.raises(PreconditionError, match="entries must be nonnegative"):
        bvn_decompose(((F(5, 4), F(-1, 4)),))  # out of range entries


def _assignment_mixtures():
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
        yield rows


def _eating_summaries(seed: int):
    rng = SplitMix64(seed)
    for _ in range(30):
        n = 2 + rng.below(4)
        m = max(n, 2 + rng.below(7))
        yield summarize(unit_run(lex_instance(rng, n, m)))


def test_bvn_random_submatrices_of_assignments_reconstruct():
    for rows in _assignment_mixtures():
        _reconstruct_and_check(rows)


def test_bvn_eating_matrices_reconstruct():
    for s in _eating_summaries(201):
        _reconstruct_and_check(s.X)


def test_bvn_term_gaps_stay_inside_last_and_untouched_goods():
    for s in _eating_summaries(202):
        decomp = bvn_decompose(s.X)
        for _, assignment in decomp.terms:
            unassigned = set(range(len(s.X[0]))) - set(assignment)
            assert unassigned <= (s.L | s.U)
            on_l = sum(1 for g in assignment if g in s.L)
            assert on_l == s.k


def test_resumed_matching_equals_a_fresh_one_at_every_term(monkeypatch):
    # bvn_decompose reruns the matching search only from the first root whose
    # last search reached a column along an edge the previous term removed;
    # at every term, before repair, the result must be the matching a search
    # from scratch finds on the same graph
    resume = rounding._resume_matching
    starts = []

    def spy(adj, runs, start):
        fresh = _resume_matching([list(goods) for goods in adj], [], 0)
        got = resume(adj, runs, start)
        assert got == fresh and list(got) == list(fresh)
        starts.append(start)
        return got

    monkeypatch.setattr(rounding, "_resume_matching", spy)
    rng = SplitMix64(8083)
    inputs = list(_assignment_mixtures()) + [s.X for seed in (201, 202) for s in _eating_summaries(seed)]
    inputs += [representative_matrix(full_run(lex_instance(rng, n, 2 * n))) for n in (16, 20)]
    for rows in inputs:
        del starts[:]
        decomp = bvn_decompose(rows)
        assert len(starts) == len(decomp.terms) and starts[0] == 0
    # the last input, at 20/40, skips roots on most of its terms
    assert sum(start > 0 for start in starts) > len(starts) // 2


def _resumed_bvn_inputs():
    rng = SplitMix64(2801)
    # the eating baseline's square matrices, as the benchmark decomposes them
    for n in (16, 20):
        for _ in range(3):
            yield representative_matrix(full_run(lex_instance(rng, n, 2 * n)))
    # unit-run eating matrices, as utse decomposes them, from 8/16 to 32/64
    for n in (8, 12, 16, 24, 32):
        for _ in range(2):
            yield summarize(unit_run(lex_instance(rng, n, 2 * n))).X
    # padded unit runs (m < n) and square ones
    for n, m in ((5, 3), (9, 4), (12, 7), (6, 6), (10, 10)):
        yield summarize(unit_run(lex_instance(rng, n, m))).X
    yield from _assignment_mixtures()


def test_bvn_matches_the_fraction_reference_on_the_resumed_battery():
    # eating matrices decompose through their int rows, every other input
    # through _scaled; a plain copy of an eating matrix gives the same
    # result, and bvn_decompose's own result passes the public checks
    count = 0
    for rows in _resumed_bvn_inputs():
        got = bvn_decompose(rows)
        assert got == _ref_bvn_decompose(rows)
        assert bvn_decompose(tuple(map(tuple, rows))) == got
        assert Decomposition(got.terms) == got
        if isinstance(rows, ShareMatrix):  # its D need not be the least one
            D, Y = rows.scaled
            assert bvn_decompose(ShareMatrix(3 * D, tuple(tuple(3 * y for y in row) for row in Y))) == got
        count += 1
    assert count >= 40


def _substochastic_matrices(count: int):
    # unit rows and n <= m: mixtures of 1 to 9 one-good-per-agent assignments
    # that all cover a random set of columns, which so sum to one, and leave
    # the other columns slack, with weights over mixed denominators
    rng = SplitMix64(8084)
    for _ in range(count):
        n = 1 + rng.below(9)
        m = n + rng.below(6)
        full = rng.permutation(m)[: rng.below(n + 1)]
        others = [g for g in range(m) if g not in full]
        parts = [F(1 + rng.below(7), 2 + rng.below(11)) for _ in range(1 + rng.below(9))]
        total = sum(parts)
        rows = [[F(0)] * m for _ in range(n)]
        for part in parts:
            goods = [*full, *(others[k] for k in rng.permutation(len(others)))][:n]
            for i, g in zip(rng.permutation(n), goods):
                rows[i][g] += part / total
        yield tuple(map(tuple, rows))


def test_bvn_matches_the_fraction_reference_on_random_substochastic_matrices():
    # each decomposition reconstructs its matrix exactly, within the term
    # count the docstring promises
    mixed = 0  # inputs with both a full and a slack column
    for rows in _substochastic_matrices(600):
        n, m = len(rows), len(rows[0])
        got = bvn_decompose(rows)
        assert got == _ref_bvn_decompose(rows) and Decomposition(got.terms) == got
        assert got.reconstruct(n, m) == rows
        nonzero = sum(x != 0 for row in rows for x in row)
        unsaturated = sum(sum(column) < 1 for column in zip(*rows))
        assert len(got.terms) <= nonzero + unsaturated
        mixed += 0 < unsaturated < m
    assert mixed >= 300


def test_eating_matrices_reach_bvn_without_rescaling(monkeypatch):
    # eating's share matrices carry their int rows into bvn_decompose, so
    # _scaled runs only on a matrix from elsewhere: a plain copy, or the
    # k = 2 sampler's aggregated matrix, scaled once when it is built
    calls = []
    scaled = rounding._scaled
    monkeypatch.setattr(rounding, "_scaled", lambda rows: calls.append(rows) or scaled(rows))
    rng = SplitMix64(2803)
    for n, m in ((5, 10), (8, 16), (6, 4)):
        inst = lex_instance(rng, n, m)
        utse(inst)
        bvn_decompose(representative_matrix(full_run(inst)))
        assert calls == []
        bvn_decompose(tuple(map(tuple, summarize(unit_run(inst)).X)))
        assert len(calls) == 1
        del calls[:]
    sample = k2_sampler(get_fixture("FIX-C"))
    sample(1), sample(2)
    assert len(calls) == 1


def test_reconstructs_agrees_with_reconstruct():
    # the int check of a supplied decomposition against the Fraction matrix
    # reconstruct builds: equal on the true matrix, and unequal when one
    # term's weight moves to another assignment or one entry changes; an
    # eating matrix is checked through its int rows, with the same verdicts
    rng = SplitMix64(2802)
    for shares in _resumed_bvn_inputs():
        rows = tuple(map(tuple, shares))
        n, m = len(rows), len(rows[0])
        dec = bvn_decompose(rows)
        assert dec.reconstructs(rows) and dec.reconstructs(shares) and dec.reconstruct(n, m) == rows
        moved = list(dec.terms)
        w, a = moved[0]
        i = rng.below(n)
        free = [g for g in range(m) if g not in a]
        if free:
            moved[0] = (w, a[:i] + (free[rng.below(len(free))],) + a[i + 1 :])
            other = Decomposition(tuple(moved))
            assert not other.reconstructs(rows) and not other.reconstructs(shares)
            assert other.reconstruct(n, m) != rows
        j = rng.below(m)
        bumped = rows[:i] + (rows[i][:j] + (rows[i][j] + F(1, 7),) + rows[i][j + 1 :],) + rows[i + 1 :]
        assert not dec.reconstructs(bumped)
        # reconstruct's shape errors: one agent too few, the last assigned good missing
        with pytest.raises(PreconditionError, match="a term must give each"):
            dec.reconstructs(rows[:-1])
        last = max(g for _, assignment in dec.terms for g in assignment)
        with pytest.raises(PreconditionError, match="a term must give each"):
            dec.reconstructs([row[:last] for row in rows])


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
                _resume_matching(adj, [], 0)
            failed += 1
        else:
            got = _resume_matching(adj, [], 0)
            assert got == expected and list(got) == list(expected)
    assert 300 < failed < 2700


def test_kuhn_matching_long_augmenting_path_needs_no_stack_depth():
    # the circulant X[i][i] = X[i][i+1 mod n] = 1/2: the last row's
    # augmenting path runs through every other row
    n = 5000
    adj = [sorted({i, (i + 1) % n}) for i in range(n)]
    assert _resume_matching(adj, [], 0) == {(i + 1) % n: i for i in range(n)}


def test_supergood_matrix_from_pair_instance():
    s = summarize(run_eating(get_fixture("FIX-C"), F(1)))
    base_goods, matrix = build_supergood_matrix(s)
    assert tuple(row[-1] for row in matrix) == (HALF, HALF, HALF, HALF)
    assert base_goods == (0, 3)
    for row in matrix:
        assert sum(row, start=F(0)) == 1


def test_supergood_matrix_from_shared_ranking_instance():
    s = summarize(run_eating(get_fixture("FIX-D"), F(1)))
    base_goods, matrix = build_supergood_matrix(s)
    assert tuple(row[-1] for row in matrix) == (HALF, HALF)
    assert base_goods == (0,)


def test_supergood_matrix_single_agent():
    from bobw import Instance, Lexicographic

    inst = Instance(n=1, m=2, valuations=(Lexicographic(ranking=(0, 1)),))
    base_goods, matrix = build_supergood_matrix(summarize(run_eating(inst, F(1))))
    assert matrix == ((F(1),),)
    assert base_goods == ()


def test_supergood_rejects_partial_runs():
    s = summarize(run_eating(get_fixture("FIX-C"), F(1, 2)))
    with pytest.raises(PreconditionError):
        build_supergood_matrix(s)


def test_supergood_rounding_gives_exactly_k_holders():
    s = summarize(run_eating(get_fixture("FIX-C"), F(1)))
    base_goods, matrix = build_supergood_matrix(s)
    for seed in range(300):
        out = dependent_round(matrix, seed=seed)
        holders = [i for i in range(4) if out[i][-1] == 1]
        assert len(holders) == 2
        for j in range(len(base_goods)):
            assert sum(row[j] for row in out) == 1


@pytest.mark.parametrize("entry", [0.5, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        lambda e: bvn_decompose(((e, 1 - e), (1 - e, e))),
        lambda e: dependent_round(((e,), (1 - e,)), seed=1),
    ],
    ids=["bvn_decompose", "dependent_round"],
)
def test_rounding_refuses_floats_and_booleans(call, entry):
    # entries parse like every other exact value: no float or bool slips in
    with pytest.raises(PreconditionError):
        call(entry)


# The Fraction-per-entry rounding core the integer-scaled one replaced, kept
# verbatim as the reference for the differential test below.


def _ref_freeze(rows):
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if not out or any(len(r) != len(out[0]) for r in out):
        raise PreconditionError("matrix must be rectangular and nonempty")
    return out


def _ref_column_sums(rows):
    m = len(rows[0])
    return [sum((r[j] for r in rows), start=Fraction(0)) for j in range(m)]


def _ref_repair_matching(adj, match_col, target, protected):
    # the repair step as it was before bvn_decompose kept `col_adj` per term
    if target in match_col:
        return True
    col_of = {i: g for g, i in match_col.items()}
    col_adj: dict[int, list[int]] = {}
    for i, goods in enumerate(adj):
        for g in goods:
            col_adj.setdefault(g, []).append(i)
    parent: dict[int, tuple[int, int]] = {}
    frontier = [target]
    seen = {target}
    while frontier:
        nxt = []
        for c in frontier:
            for i in sorted(col_adj.get(c, ())):
                c2 = col_of.get(i)
                if c2 is None or c2 in seen:
                    continue
                parent[c2] = (c, i)
                if c2 not in protected:
                    moves = []
                    cur = c2
                    while cur != target:
                        prev, row = parent[cur]
                        moves.append((prev, row))
                        cur = prev
                    del match_col[c2]
                    for col, row in moves:
                        match_col[col] = row
                    return True
                seen.add(c2)
                nxt.append(c2)
        frontier = nxt
    return False


def _ref_bvn_decompose(rows: Sequence[Sequence[Fraction]]) -> Decomposition:
    X = [list(r) for r in _ref_freeze(rows)]
    n, m = len(X), len(X[0])
    for i, row in enumerate(X):
        if sum(row) != 1:
            raise PreconditionError(f"row {i} must sum to exactly one")
        if any(x < 0 for x in row):
            raise PreconditionError("entries must be nonnegative")
    for j, s in enumerate(_ref_column_sums(X)):
        if s > 1:
            raise PreconditionError(f"column {j} sums above one")

    terms: list[tuple[Fraction, tuple[int, ...]]] = []
    remaining = Fraction(1)
    while remaining > 0:
        col_sums = _ref_column_sums(X)
        adj = [[j for j in range(m) if X[i][j] > 0] for i in range(n)]
        full = {j for j in range(m) if col_sums[j] == remaining}
        match_col = _resume_matching(adj, [], 0)
        for c in sorted(full):
            if not _ref_repair_matching(adj, match_col, c, protected=full):
                raise AssertionError("a saturated column could not be matched")

        banned: set[int] = set()
        forced = set(full)
        while True:
            entry_min = min(X[match_col[g]][g] for g in match_col)
            slack = {
                j: remaining - col_sums[j]
                for j in range(m)
                if j not in match_col and col_sums[j] > 0
            }
            binding = [j for j, s in sorted(slack.items()) if s < entry_min and j not in banned]
            if not binding:
                weight = min([entry_min] + list(slack.values()))
                break
            c = binding[0]
            if _ref_repair_matching(adj, match_col, c, protected=forced):
                forced.add(c)
            else:
                banned.add(c)

        if weight <= 0:
            raise AssertionError("nonpositive extraction weight")
        vector = tuple(g for _, g in sorted((i, g) for g, i in match_col.items()))
        terms.append((weight, vector))
        for i, g in enumerate(vector):
            X[i][g] -= weight
        remaining -= weight

    if any(x != 0 for row in X for x in row):
        raise AssertionError("decomposition left mass behind")
    return Decomposition(tuple(terms))


def _ref_walk_cycle_or_path(X: list[list[Fraction]]) -> Optional[list[tuple[int, int]]]:
    n, m = len(X), len(X[0])
    adj = [[n + j for j in range(m) if 0 < X[i][j] < 1] for i in range(n)]
    adj += [[i for i in range(n) if 0 < X[i][j] < 1] for j in range(m)]
    if not any(adj[:n]):
        return None

    def edges(vertices: list[int]) -> list[tuple[int, int]]:
        return [(min(u, w), max(u, w) - n) for u, w in zip(vertices, vertices[1:])]

    seen: set[int] = set()
    for root in range(n):
        if not adj[root] or root in seen:
            continue
        seen.add(root)
        path, scans, at = [root], [iter(adj[root])], {root: 0}
        while path:
            parent = path[-2] if len(path) > 1 else None
            for w in scans[-1]:
                if w == parent:
                    continue
                if w in at:
                    return edges(path[at[w] :] + [w])
                if w not in seen:
                    break
            else:
                del at[path.pop()]
                scans.pop()
                continue
            seen.add(w)
            at[w] = len(path)
            path.append(w)
            scans.append(iter(adj[w]))

    v = next(u for u, nbrs in enumerate(adj) if len(nbrs) == 1)
    if v >= n:
        raise AssertionError("a column with a single fractional entry cannot have an integral sum")
    path, prev = [v], None
    while (w := next((u for u in adj[v] if u != prev), None)) is not None:
        path.append(w)
        prev, v = v, w
    return edges(path)


def _ref_dependent_round(rows: Sequence[Sequence[Fraction]], seed: int) -> tuple[tuple[int, ...], ...]:
    X = [list(r) for r in _ref_freeze(rows)]
    n, m = len(X), len(X[0])
    for row in X:
        for x in row:
            if x < 0 or x > 1:
                raise PreconditionError("entries must lie in [0, 1]")
    target = _ref_column_sums(X)
    for j, s in enumerate(target):
        if s.denominator != 1:
            raise PreconditionError(f"column {j} sum {s} is not an integer")

    rng = SplitMix64(seed)
    while True:
        walk = _ref_walk_cycle_or_path(X)
        if walk is None:
            break
        plus = walk[0::2]
        minus = walk[1::2]
        alpha = min(
            min(1 - X[i][j] for i, j in plus),
            min(X[i][j] for i, j in minus),
        )
        beta = min(
            min(X[i][j] for i, j in plus),
            min(1 - X[i][j] for i, j in minus),
        )
        if rng.event(beta / (alpha + beta)):
            delta_plus, delta_minus = alpha, -alpha
        else:
            delta_plus, delta_minus = -beta, beta
        for i, j in plus:
            X[i][j] += delta_plus
        for i, j in minus:
            X[i][j] += delta_minus

    out = tuple(tuple(int(x) for x in row) for row in X)
    for j in range(m):
        if sum(r[j] for r in out) != target[j]:
            raise AssertionError(f"column {j} sum drifted during rounding")
    return out


def _permutation_mixture(rng: SplitMix64, n: int, m: int) -> list[list[Fraction]]:
    # unit rows, columns at most one: a mixture of up to eight
    # one-good-per-agent assignments with weights over a random denominator
    rows = [[F(0)] * m for _ in range(n)]
    weights = [1 + rng.below(9) for _ in range(1 + rng.below(8))]
    for w in weights:
        for i, g in enumerate(rng.permutation(m)[:n]):
            rows[i][g] += F(w, sum(weights))
    return rows


def _integral_columns(rng: SplitMix64, n: int, m: int) -> list[list[Fraction]]:
    # entries in [0, 1] with integral column sums: each column spreads a whole
    # number of units over its rows in pieces of 1/q
    q = 2 + rng.below(6)
    rows = [[F(0)] * m for _ in range(n)]
    for j in range(m):
        for _ in range(q * rng.below(n)):
            free = [i for i in range(n) if rows[i][j] < 1]
            rows[free[rng.below(len(free))]][j] += F(1, q)
    return rows


def _k2_supergood_matrices(count: int):
    rng = SplitMix64(8080)
    while count:
        n = 2 + rng.below(4)
        inst = lex_instance(rng, n, n + rng.below(max(1, 9 - n)))
        summary = summarize(unit_run(inst))
        if summary.k == 2:
            count -= 1
            yield build_supergood_matrix(summary)[1]


def test_integer_rounding_matches_the_fraction_reference():
    rng = SplitMix64(8081)
    # square inputs are doubly stochastic, so both routines take them
    square = [_permutation_mixture(rng, n, n) for n in (2, 3, 4, 6) for _ in range(5)]
    square += [
        representative_matrix(full_run(lex_instance(rng, 2 + rng.below(3), 3 + rng.below(6))))
        for _ in range(10)
    ]
    # rectangular mixtures and unit runs leave columns unsaturated, so the
    # slack cap binds and forces (or, rarely, bans) columns
    sizes = [1 + rng.below(5) for _ in range(400)]
    bvn_inputs = square + [_permutation_mixture(rng, n, n + 1 + rng.below(3)) for n in sizes]
    bvn_inputs += [summarize(unit_run(lex_instance(rng, 3 + rng.below(4), 6 + rng.below(6)))).X for _ in range(10)]
    for rows in bvn_inputs:
        assert bvn_decompose(rows).terms == _ref_bvn_decompose(rows).terms

    round_inputs = list(_BATTERY) + list(_k2_supergood_matrices(8)) + square
    round_inputs += [_integral_columns(rng, 2 + rng.below(4), 1 + rng.below(5)) for _ in range(20)]
    for idx, rows in enumerate(round_inputs):
        for r in range(12):
            seed = derive_seed(idx, r)
            assert dependent_round(rows, seed) == _ref_dependent_round(rows, seed), (idx, r)


def _k2_supergood_matrix(rng: SplitMix64, n: int):
    while True:
        summary = summarize(unit_run(lex_instance(rng, n, n + 2)))
        if summary.k == 2:
            return build_supergood_matrix(summary)[1]


def test_rounding_matches_the_fraction_reference_at_benchmark_sizes():
    # the sizes the perfbench workloads run: long pivot sequences on a
    # floating graph that loses edges across many pivots
    rng = SplitMix64(8082)
    round_inputs = [_permutation_mixture(rng, n, n) for n in (16, 24)]
    round_inputs += [_integral_columns(rng, 8, 10) for _ in range(2)]
    round_inputs += [_k2_supergood_matrix(rng, n) for n in (12, 14, 16)]
    for idx, rows in enumerate(round_inputs):
        for r in range(3):
            seed = derive_seed(idx, r)
            assert dependent_round(rows, seed) == _ref_dependent_round(rows, seed), (idx, r)
    for n in (16, 20):
        rows = representative_matrix(full_run(lex_instance(rng, n, 2 * n)))
        assert bvn_decompose(rows).terms == _ref_bvn_decompose(rows).terms


def test_dependent_round_long_path_needs_no_stack_depth():
    # good j is split evenly between agents j and j + 1, so the floating
    # graph is one path through all 1,399 vertices: the forest branch walks
    # it end to end, past the default recursion limit
    n = 700
    rows = [[F(0)] * (n - 1) for _ in range(n)]
    for j in range(n - 1):
        rows[j][j] = rows[j + 1][j] = HALF
    out = dependent_round(rows, seed=5)
    assert all(sum(r[j] for r in out) == 1 for j in range(n - 1))
    assert out in (
        tuple(tuple(int(i == j) for j in range(n - 1)) for i in range(n)),
        tuple(tuple(int(i == j + 1) for j in range(n - 1)) for i in range(n)),
    )


def _benchmark_size_matrices() -> list:
    # the rounding inputs of the benchmark-size reference test above
    rng = SplitMix64(8082)
    inputs = [_permutation_mixture(rng, n, n) for n in (16, 24)]
    inputs += [_integral_columns(rng, 8, 10) for _ in range(2)]
    inputs += [_k2_supergood_matrix(rng, n) for n in (12, 14, 16)]
    return inputs


def test_dependent_round_draws_one_event_per_pivot(monkeypatch):
    # the benchmark tracer counts rounding pivots as the `event` draws made
    # under dependent_round, so each pivot must draw exactly once, with the
    # odds the reference draws with
    drawn: list[Fraction] = []
    event = SplitMix64.event

    def spy(rng, p):
        drawn.append(p)
        return event(rng, p)

    monkeypatch.setattr(SplitMix64, "event", spy)
    for idx, rows in enumerate(_benchmark_size_matrices()):
        for r in range(3):
            seed = derive_seed(idx, r)
            del drawn[:]
            out = dependent_round(rows, seed)
            got = list(drawn)
            del drawn[:]
            assert out == _ref_dependent_round(rows, seed)
            assert got == drawn and len(got) > 0, (idx, r)
            assert all(type(p) is Fraction for p in got)


def _criterion_6_supergood_matrices() -> list:
    return [build_supergood_matrix(summarize(unit_run(inst)))[1] for inst in _k2_instances()]


def test_prepared_matrix_rounds_as_its_raw_rows():
    # a sampler prepares its matrix once and rounds it with every seed; each
    # draw must be the one the raw rows give
    inputs = list(_BATTERY) + _benchmark_size_matrices() + _criterion_6_supergood_matrices()
    for idx, rows in enumerate(inputs):
        prepared = PreparedMatrix(rows)
        for r in range(50):
            seed = derive_seed(idx, r)
            assert dependent_round(prepared, seed) == dependent_round(rows, seed), (idx, r)


def test_prepared_matrix_is_unchanged_by_its_draws():
    fractional = [rows for rows in _criterion_6_supergood_matrices() if any(0 < x < 1 for row in rows for x in row)]
    for rows in _benchmark_size_matrices() + fractional[:4]:
        prepared = PreparedMatrix(rows)
        before = (prepared.D, prepared.X, prepared.column_sums, [dict(a) for a in prepared.adj])
        assert any(before[3]), "no floating entry: the draws would not pivot"
        for seed in range(50):
            dependent_round(prepared, seed)
        assert (prepared.D, prepared.X, prepared.column_sums, list(prepared.adj)) == before


@pytest.mark.parametrize(
    "rows, message",
    [
        (((HALF, HALF), (HALF,)), "matrix must be rectangular and nonempty"),
        ((), "matrix must be rectangular and nonempty"),
        (((F(3, 2), F(0)), (F(-1, 2), F(1))), "entries must lie in [0, 1]"),
        (((F(1, 3), F(0)), (F(1, 3), F(1))), "column 0 sum 2/3 is not an integer"),
        (((HALF, F(1, 3)), (HALF, F(1, 3)), (F(0), F(1, 3)), (F(0), HALF)), "column 1 sum 3/2 is not an integer"),
    ],
    ids=["ragged", "empty", "out of range", "column sum 2/3", "column sum 3/2"],
)
def test_raw_rows_are_checked_as_before_preparation(rows, message):
    # the raw path prepares the rows itself, with the checks and messages
    # rounding had before matrices could be prepared
    for call in (lambda: dependent_round(rows, seed=1), lambda: PreparedMatrix(rows)):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            call()


def _walk_branches(monkeypatch) -> set[str]:
    # Wrap the resumable search and name the branches it takes, read from
    # the generator's own state at each walk: a cycle found under a root
    # above 0, a junction above the root (the resumed path keeps a nonempty
    # tail of open vertices and their scans), a finished vertex beside the
    # junction (kept, and skipped by the junction's fresh scan), a finished
    # pendant tree beside a cycle vertex past the junction (forgotten at the
    # resume), and a leaf path after a cycle.
    branches: set[str] = set()
    walks = rounding._walks

    def spy(adj, n):
        search = walks(adj, n)
        cycles = 0
        for walk in search:
            if walk[0] != walk[-1]:
                branches.add("leaf path after a cycle" if cycles else "leaf path")
            else:
                cycles += 1
                state = search.gi_frame.f_locals
                place = state["place"]
                if state["root"] > 0:
                    branches.add("root above 0")
                if state["at"] > 0:
                    branches.add("junction above root")
                if any(place[u] == -1 for u in adj[walk[0]]):
                    branches.add("finished beside the junction")
                if any(place[u] == -1 for v in walk[1:-1] for u in adj[v]):
                    branches.add("pendant past the junction")
            yield walk

    monkeypatch.setattr(rounding, "_walks", spy)
    return branches


def _with_weights(rng: SplitMix64, q: int, shape: list[list[int]]) -> list[list[Fraction]]:
    # entry (i, j) is shape[i][j] / q, and each column of `shape` sums to a
    # multiple of q; `rng` only picks which of two mirror images to return
    rows = [[F(x, q) for x in row] for row in shape]
    return rows if rng.below(2) else [row[::-1] for row in rows]


def _resume_cases() -> dict[str, list[list[list[Fraction]]]]:
    rng = SplitMix64(8084)
    return {
        # agents 0-1 share good 0 (a path, explored and finished first);
        # agents 2-4 hold a 6-cycle on goods 1-3
        "acyclic component first": [
            _with_weights(rng, q, [[q // 2, 0, 0, 0], [q - q // 2, 0, 0, 0], [0, a, q - a, 0], [0, q - a, 0, a], [0, 0, a, q - a]])
            for q, a in ((4, 1), (6, 1), (6, 5), (10, 3))
        ],
        # the 4-cycle a0-g0-a2-g1, with agent 1 (a row that sums below 1)
        # scanned from good 0 before agent 2: a pendant leaf in the first
        # two matrices, a branch to a second cycle in the third; the last
        # matrix is one where a pivot cuts a pendant tree off with its cycle
        # vertex, into a component a fresh search enters from a lower agent
        # than the resumed one would
        "pendant tree past the junction": [
            _with_weights(rng, 4, [[2, 2, 0], [1, 0, 0], [1, 2, 1], [0, 0, 3]]),
            _with_weights(rng, 6, [[3, 3, 0], [1, 0, 0], [2, 3, 2], [0, 0, 4]]),
            _with_weights(rng, 12, [[5, 6, 0], [3, 0, 1], [4, 6, 2], [0, 0, 9]]),
            [[F(x, 4) for x in row] for row in [[3, 1], [1, 2], [0, 3], [2, 2], [0, 1], [2, 2], [4, 1]]],
        ],
        # agent 1 lies on the 4-cycles g1-a2-g2 and g3-a3-g4, below a path
        # from agent 0 through good 0
        "two cycles sharing a vertex": [
            _with_weights(rng, q, [[q // 2] + [0] * 4, [q - q // 2] + [a] * 4, [0, q - a, q - a, 0, 0], [0, 0, 0, q - a, q - a]])
            for q, a in ((4, 1), (8, 3), (6, 1))
        ],
        # a 4-cycle on agents 0-1 and goods 0-1 with a path through agents
        # 1-3 hanging off it, left floating after the cycle's pivots
        "forest after the last cycle": [
            _with_weights(rng, q, [[a, q - a, 0, 0], [q - a, a, b, 0], [0, 0, q - b, c], [0, 0, 0, q - c]])
            for q, a, b, c in ((4, 1, 1, 2), (6, 1, 2, 3), (12, 5, 7, 1))
        ],
    }


@pytest.mark.parametrize(
    "case, targets",
    [
        ("acyclic component first", {"root above 0"}),
        ("pendant tree past the junction", {"pendant past the junction"}),
        ("two cycles sharing a vertex", {"junction above root", "finished beside the junction"}),
        ("forest after the last cycle", {"leaf path after a cycle"}),
    ],
)
def test_resumed_walks_match_the_fraction_reference(monkeypatch, case, targets):
    # each case steers the resumable search into the branch it names; at
    # every pivot its walk must be the one a search from scratch finds, so
    # the draws and outputs equal the reference's
    branches = _walk_branches(monkeypatch)
    for idx, rows in enumerate(_resume_cases()[case]):
        for r in range(12):
            seed = derive_seed(idx, r)
            assert dependent_round(rows, seed) == _ref_dependent_round(rows, seed), (idx, r)
    assert targets <= branches, branches
