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
from bobw.eating import (
    EatingTrace,
    Segment,
    TraceSummary,
    eat_report,
    event_times,
    ordinal_rankings,
)
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


@pytest.mark.parametrize("duration", [0.5, True, 1.0, "x", None])
def test_run_eating_refuses_inexact_durations(duration):
    with pytest.raises(PreconditionError):
        run_eating(get_fixture("FIX-D"), duration)


@pytest.mark.parametrize("duration", [0, -1, "-1/2"])
def test_run_eating_refuses_non_positive_durations(duration):
    with pytest.raises(PreconditionError, match="duration must be positive"):
        run_eating(get_fixture("FIX-D"), duration)


@pytest.mark.parametrize("n_dummies", [1.5, True, -1, "1", None])
def test_run_eating_refuses_bad_dummy_counts(n_dummies):
    with pytest.raises(PreconditionError, match="non-negative integer"):
        run_eating(get_fixture("FIX-D"), F(1), n_dummies=n_dummies)


@pytest.mark.parametrize("z", [0.25, True, "x"])
def test_prefix_allocation_refuses_inexact_times(z):
    with pytest.raises(PreconditionError):
        prefix_allocation(run_eating(get_fixture("FIX-D"), F(1)), z)


def test_exact_strings_and_ints_still_read():
    inst = get_fixture("FIX-D")
    assert run_eating(inst, "3/2", n_dummies=0) == run_eating(inst, F(3, 2))
    trace = run_eating(inst, 1)
    assert prefix_allocation(trace, "3/4") == prefix_allocation(trace, F(3, 4))


# Verbatim copies of the per-event eating loop and its two readers that the
# event-driven loop replaced: every event re-scanned all agents, regrouped
# them by good and decremented every remaining mass.


def _ref_run_eating(inst: Instance, duration: Fraction, n_dummies: int = 0) -> EatingTrace:
    duration = Fraction(duration)
    if duration <= 0:
        raise PreconditionError("duration must be positive")
    if n_dummies < 0:
        raise PreconditionError("the number of dummy goods must be non-negative")
    m_total = inst.m + n_dummies
    if duration * inst.n > m_total:
        raise PreconditionError(
            f"duration {duration} infeasible: goods would be exhausted (max {Fraction(m_total, inst.n)})"
        )
    base = ordinal_rankings(inst)
    dummies = tuple(range(inst.m, m_total))
    rankings = [r + dummies for r in base]

    remaining = [Fraction(1)] * m_total
    cursor = [0] * inst.n  # per-agent index into its ranking
    segments: list[list[Segment]] = [[] for _ in inst.agents]
    t = Fraction(0)

    def current_good(i: int) -> int:
        r = rankings[i]
        while remaining[r[cursor[i]]] == 0:
            cursor[i] += 1
        return r[cursor[i]]

    while t < duration:
        eaters: dict[int, list[int]] = {}
        for i in inst.agents:
            eaters.setdefault(current_good(i), []).append(i)
        dt = duration - t
        for g, group in eaters.items():
            dt = min(dt, Fraction(remaining[g], len(group)))
        for g, group in eaters.items():
            remaining[g] -= dt * len(group)
            for i in group:
                segs = segments[i]
                if segs and segs[-1][0] == g and segs[-1][2] == t:
                    segs[-1] = (g, segs[-1][1], t + dt)
                else:
                    segs.append((g, t, t + dt))
        t += dt

    return EatingTrace(
        n=inst.n,
        m_real=inst.m,
        n_dummies=n_dummies,
        duration=duration,
        segments=tuple(tuple(s) for s in segments),
    )


def _ref_summarize(trace: EatingTrace) -> TraceSummary:
    if not all(trace.segments):
        raise PreconditionError("agent with empty trace")
    m = trace.m_total
    X = _ref_prefix_allocation(trace, trace.duration)
    last = tuple(segs[-1][0] for segs in trace.segments)
    eaten = tuple(sum((X[i][g] for i in range(trace.n)), start=Fraction(0)) for g in range(m))
    L = frozenset(last)
    U = frozenset(g for g in range(m) if eaten[g] == 0)
    k = sum((X[i][g] for i in range(trace.n) for g in L), start=Fraction(0))
    if trace.duration == 1 and k.denominator != 1:
        raise AssertionError(f"last-good mass k = {k} is not integral on a duration-one run")
    return TraceSummary(
        X=X,
        last_goods=last,
        L=L,
        U=U,
        k=k,
        eaten=eaten,
        duration=trace.duration,
    )


def _ref_prefix_allocation(trace: EatingTrace, z: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    z = Fraction(z)
    if z < 0 or z > trace.duration:
        raise PreconditionError("prefix time outside the run")
    m = trace.m_total
    X = [[Fraction(0)] * m for _ in range(trace.n)]
    for i, segs in enumerate(trace.segments):
        for g, a, b in segs:
            if b > z:  # segments run in time order: the first past z is the last to count
                if a < z:
                    X[i][g] += z - a
                break
            X[i][g] += b - a
    return tuple(tuple(row) for row in X)


def _ref_representative_matrix(trace: EatingTrace) -> tuple[tuple[Fraction, ...], ...]:
    r = trace.duration
    if r.denominator != 1:
        raise PreconditionError("representative matrix needs an integer number of rounds")
    rounds = int(r)
    m = trace.m_total
    if rounds * trace.n != m:
        raise PreconditionError("full-run matrix must be square")
    Y = [[Fraction(0)] * m for _ in range(m)]
    for i, segs in enumerate(trace.segments):
        for g, a, b in segs:
            # split [a, b) across integer round windows
            t = int(a)
            while Fraction(t) < b:
                lo = max(a, Fraction(t))
                hi = min(b, Fraction(t + 1))
                if hi > lo:
                    Y[t * trace.n + i][g] += hi - lo
                t += 1
    return tuple(tuple(row) for row in Y)


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def test_event_loop_matches_the_per_event_reference():
    rng = SplitMix64(106)
    runs = partial = padded = full = 0
    for _ in range(400):
        n, m = 1 + rng.below(12), 1 + rng.below(20)
        inst = lex_instance(rng, n, m)
        pad = rng.below(3)
        m_total = m + pad
        durations = [F(m_total, n), F(1 + rng.below(3 * m_total), 1 + rng.below(3 * n))]
        if m_total >= n:
            durations.append(F(1))
        for duration in durations:
            if duration > F(m_total, n):
                continue
            trace = run_eating(inst, duration, n_dummies=pad)
            ref = _ref_run_eating(inst, duration, n_dummies=pad)
            assert trace.segments == ref.segments, (n, m, pad, duration)
            s = summarize(trace)
            assert s == _ref_summarize(ref)
            assert _all_fractions(s.X) and _all_fractions([s.eaten, [s.k]])
            runs += 1
            partial += duration < F(m_total, n)
            padded += pad > 0
            if duration.denominator == 1 and duration * n == m_total:
                Y = representative_matrix(trace)
                assert Y == _ref_representative_matrix(ref) and _all_fractions(Y)
                full += 1
        trace = full_run(inst)
        Y = representative_matrix(trace)
        assert Y == _ref_representative_matrix(trace) and _all_fractions(Y)
        assert trace.segments == _ref_run_eating(inst, trace.duration, trace.n_dummies).segments
        full += 1
    assert runs >= 800 and partial >= 300 and padded >= 400 and full >= 400
