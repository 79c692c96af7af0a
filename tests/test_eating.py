from __future__ import annotations

from fractions import Fraction

import pytest

from bobw import (
    Instance,
    Lexicographic,
    PreconditionError,
    check_sdef,
    fractional_outcome,
    full_run,
    get_fixture,
    prefix_allocation,
    representative_matrix,
    rounds_allocation,
    run_eating,
    summarize,
    unit_run,
)
from bobw.eating import EatingTrace, eat_report, event_times
from bobw.rng import SplitMix64

from helpers import lex_instance

F = Fraction
HALF = F(1, 2)


def test_two_agents_sharing_one_ranking_split_everything():
    inst = get_fixture("FIX-D")
    trace = run_eating(inst, F(1))
    s = summarize(trace)
    assert s.X == ((HALF, HALF, F(0)), (HALF, HALF, F(0)))
    for segs in trace.segments:
        assert segs == ((0, F(0), HALF), (1, HALF, F(1)))


def test_shared_ranking_summary_sets():
    s = summarize(run_eating(get_fixture("FIX-D"), F(1)))
    assert s.last_goods == (1, 1)
    assert s.L == frozenset({1})
    assert s.U == frozenset({2})
    assert s.k == 1


def test_two_pair_instance_unit_matrix():
    inst = get_fixture("FIX-C")
    s = summarize(run_eating(inst, F(1)))
    assert s.X == (
        (HALF, HALF, F(0), F(0), F(0)),
        (HALF, HALF, F(0), F(0), F(0)),
        (F(0), F(0), HALF, HALF, F(0)),
        (F(0), F(0), F(0), HALF, HALF),
    )
    assert s.last_goods == (1, 1, 2, 4)
    assert s.L == frozenset({1, 2, 4})
    assert s.U == frozenset()
    assert s.k == 2


def test_single_agent_eats_favorite_first():
    inst = Instance(n=1, m=2, valuations=(Lexicographic(ranking=(0, 1)),))
    s = summarize(run_eating(inst, F(1)))
    assert s.X == ((F(1), F(0)),)
    assert s.L == frozenset({0})
    assert s.U == frozenset({1})
    assert s.k == 1


def test_duration_beyond_supply_rejected():
    inst = get_fixture("FIX-D")  # 2 agents, 3 goods
    with pytest.raises(PreconditionError):
        run_eating(inst, F(2))
    run_eating(inst, F(3, 2))  # m/n exactly is fine


def test_row_sums_equal_duration():
    rng = SplitMix64(100)
    for _ in range(25):
        n = 2 + rng.below(4)
        m = n + rng.below(5)
        inst = lex_instance(rng, n, m)
        duration = F(1 + rng.below(3), 1 + rng.below(3))
        if duration > F(m, n):
            duration = F(m, n)
        s = summarize(run_eating(inst, duration))
        for row in s.X:
            assert sum(row, start=F(0)) == duration


def test_unit_run_integrality_of_last_good_mass():
    rng = SplitMix64(101)
    for _ in range(40):
        n = 2 + rng.below(4)
        m = max(n, 2 + rng.below(7))
        inst = lex_instance(rng, n, m)
        s = summarize(unit_run(inst))
        assert s.k.denominator == 1
        assert s.k >= 1
        # every started good outside L is fully eaten
        for g in range(m):
            if g not in s.L and g not in s.U:
                assert s.eaten[g] == 1


def test_each_agent_last_good_is_final_segment_and_only_own_l_good():
    rng = SplitMix64(102)
    for _ in range(30):
        inst = lex_instance(rng, 2 + rng.below(3), 3 + rng.below(5))
        trace = unit_run(inst)
        s = summarize(trace)
        for i, segs in enumerate(trace.segments):
            assert segs[-1][0] == s.last_goods[i]
            for g in s.L:
                if g != s.last_goods[i]:
                    assert s.X[i][g] == 0


def test_padding_added_when_goods_are_scarce():
    inst = Instance(
        n=3,
        m=2,
        valuations=(
            Lexicographic(ranking=(0, 1)),
            Lexicographic(ranking=(0, 1)),
            Lexicographic(ranking=(1, 0)),
        ),
    )
    trace = unit_run(inst)
    assert trace.n_dummies == 1
    assert trace.m_real == 2
    s = summarize(trace)
    assert len(s.X[0]) == 3
    for row in s.X:
        assert sum(row, start=F(0)) == 1
    assert all(len(row) == 2 for row in fractional_outcome(trace))


def test_prefix_allocation_truncates_exactly():
    inst = get_fixture("FIX-D")
    trace = run_eating(inst, F(1))
    assert prefix_allocation(trace, F(0)) == ((F(0),) * 3, (F(0),) * 3)
    assert prefix_allocation(trace, F(3, 4)) == (
        (HALF, F(1, 4), F(0)),
        (HALF, F(1, 4), F(0)),
    )
    assert prefix_allocation(trace, F(1)) == summarize(trace).X
    with pytest.raises(PreconditionError):
        prefix_allocation(trace, F(2))


def test_anytime_prefix_dominance_at_event_times():
    rng = SplitMix64(103)
    for _ in range(15):
        inst = lex_instance(rng, 2 + rng.below(3), 3 + rng.below(4))
        trace = full_run(inst)
        for z in event_times(trace):
            rows = tuple(row[: inst.m] for row in prefix_allocation(trace, z))
            assert check_sdef(inst, rows).passed


def test_full_run_consumes_everything():
    rng = SplitMix64(104)
    for _ in range(20):
        inst = lex_instance(rng, 2 + rng.below(4), 2 + rng.below(7))
        shares = fractional_outcome(full_run(inst))
        assert len(shares[0]) == inst.m
        for column in zip(*shares):
            assert sum(column) == 1


def test_representative_matrix_is_doubly_stochastic_and_consistent():
    rng = SplitMix64(105)
    for _ in range(15):
        inst = lex_instance(rng, 2 + rng.below(3), 2 + rng.below(6))
        trace = full_run(inst)
        Y = representative_matrix(trace)
        size = trace.m_total
        assert len(Y) == size and all(len(row) == size for row in Y)
        for row in Y:
            assert sum(row, start=F(0)) == 1
        for j in range(size):
            assert sum(row[j] for row in Y) == 1
        # stacking the round rows recovers the full consumption matrix
        s = summarize(trace)
        for i in range(inst.n):
            for g in range(size):
                total = sum(Y[t * inst.n + i][g] for t in range(size // inst.n))
                assert total == s.X[i][g]


def test_rounds_allocation_maps_rows_to_agents():
    alloc = rounds_allocation([2, 0, 1, 3], n=2, m_real=3)
    assert alloc.bundles[0] == frozenset({2, 1})
    assert alloc.bundles[1] == frozenset({0})  # good 3 was a dummy


def test_representative_matrix_rejects_fractional_round_count():
    inst = get_fixture("FIX-D")
    with pytest.raises(PreconditionError):
        representative_matrix(run_eating(inst, F(1)))


def test_eat_report_strips_dummies_and_formats():
    inst = Instance(
        n=3,
        m=2,
        valuations=(
            Lexicographic(ranking=(0, 1)),
            Lexicographic(ranking=(0, 1)),
            Lexicographic(ranking=(1, 0)),
        ),
    )
    trace = unit_run(inst)
    rep = eat_report(inst, trace)
    assert rep["padded_with"] == 1
    assert all(len(row) == 2 for row in rep["matrix"])
    assert all(g is None or g < 2 for g in rep["last_goods"])


def test_trace_json_has_rational_times():
    trace = run_eating(get_fixture("FIX-D"), F(1))
    assert trace.duration == 1
    first, second = trace.segments[0][:2]
    assert (first, second) == ((0, F(0), F(1, 2)), (1, F(1, 2), F(1)))
    assert all(type(t) is Fraction for t in first[1:] + second[1:])


def test_table_valuation_rejected():
    inst = get_fixture("FIX-E")
    with pytest.raises(PreconditionError):
        run_eating(inst, F(1))


def test_additive_agents_use_their_value_order():
    inst = get_fixture("FIX-B")
    s = summarize(run_eating(inst, F(1)))
    # the four like-minded agents split their favorite; the first two start
    # alone on theirs and get joined mid-run, leaving these exact shares
    assert s.X[0] == (F(2, 5), F(3, 10), F(0), F(2, 15), F(1, 6), F(0))
    assert s.X[1] == (F(0), F(7, 10), F(0), F(2, 15), F(1, 6), F(0))
    assert s.X[2] == (F(3, 20), F(0), F(1, 4), F(11, 60), F(1, 6), F(1, 4))
    assert s.X[2] == s.X[3] == s.X[4] == s.X[5]
    # everyone finishes on the same good, so exactly one unit of mass is last
    assert s.L == frozenset({4})
    assert s.k == 1
