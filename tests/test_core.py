from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm
from operator import le
from typing import Sequence

import pytest

from bobw import (
    Additive,
    Instance,
    IntegralAllocation,
    Lexicographic,
    PreconditionError,
    RandomizedAllocation,
    Table,
    canonical_lex_values,
    exante_ratio,
    format_rational,
    get_fixture,
    instance_from_json,
    instance_to_json,
    is_lexicographic_additive,
    parse_rational,
    validate_instance,
    value_of,
)
from bobw import core
from bobw.rng import SplitMix64

from helpers import monotone_instance

F = Fraction


def test_parse_rational_accepts_ints_strings_and_fractions():
    assert parse_rational(3) == F(3)
    assert parse_rational("7/2") == F(7, 2)
    assert parse_rational("-1/3") == F(-1, 3)
    assert parse_rational(F(5, 6)) == F(5, 6)


def test_format_rational_round_trips():
    for x in (F(0), F(3), F(-7, 2), F(437808, 576528)):
        assert parse_rational(format_rational(x)) == x


def test_additive_value_and_ranking():
    v = Additive(values=(F(4), F(1), F(9)))
    assert v.value({0, 2}) == F(13)
    assert v.value(()) == F(0)
    assert v.ordinal_ranking() == (2, 0, 1)


def test_additive_ranking_rejects_ties():
    v = Additive(values=(F(4), F(4), F(9)))
    with pytest.raises(PreconditionError):
        v.ordinal_ranking()


def test_lexicographic_canonical_values_are_powers_of_two():
    assert canonical_lex_values((2, 0, 1)) == (2, 1, 4)
    v = Lexicographic(ranking=(2, 0, 1))
    assert v.value({0, 1}) == F(3)
    assert v.value({2}) == F(4)
    # a single better good beats every bundle of worse ones
    assert v.value({2}) > v.value({0, 1})


def test_is_lexicographic_additive():
    assert is_lexicographic_additive((F(1), F(2), F(4)))
    assert is_lexicographic_additive((F(1), F(2), F(8)))
    assert not is_lexicographic_additive((F(1), F(2), F(3)))  # 3 = 1 + 2
    assert not is_lexicographic_additive((F(1), F(1), F(4)))  # tie


def test_table_lookup_by_bitmask():
    t = Table(values=tuple(F(x) for x in (0, 3, 2, 4)))
    assert t.value(()) == F(0)
    assert t.value({0}) == F(3)
    assert t.value({1}) == F(2)
    assert t.value({0, 1}) == F(4)
    with pytest.raises(PreconditionError):
        t.ordinal_ranking()


def test_instance_requires_one_valuation_per_agent():
    with pytest.raises(PreconditionError):
        Instance(n=2, m=1, valuations=(Lexicographic(ranking=(0,)),))


def test_validate_reports_lexicographic_fixture_ok():
    rep = validate_instance(get_fixture("FIX-A"))
    assert rep.ok
    assert rep.to_json()["errors"] == []


def test_validate_flags_negative_additive_value():
    inst = Instance(n=1, m=2, valuations=(Additive(values=(F(-1), F(2))),))
    rep = validate_instance(inst)
    assert not rep.ok
    assert any("negative" in e for e in rep.errors)


def test_validate_flags_bad_permutation_ranking():
    # construction checks shapes, so the instance never reaches validate
    with pytest.raises(PreconditionError, match="agent 0: ranking is not a permutation"):
        Instance(n=1, m=3, valuations=(Lexicographic(ranking=(0, 0, 2)),))


def test_validate_flags_non_monotone_table():
    # dropping a good raises the value: not monotone
    t = Table(values=(F(0), F(5), F(1), F(2)))
    inst = Instance(n=1, m=2, valuations=(t,))
    rep = validate_instance(inst)
    assert not rep.ok


def test_validate_flags_subadditive_violation():
    # v({0,1}) > v({0}) + v({1}) contradicts the declared flag
    t = Table(values=(F(0), F(1), F(1), F(5)), subadditive=True)
    inst = Instance(n=1, m=2, valuations=(t,))
    rep = validate_instance(inst)
    assert not rep.ok


def test_subadditive_verdicts_are_computed_once_and_only_on_demand(monkeypatch):
    assert Lexicographic((1, 0)).subadditive_error is None
    assert Additive((0, 2)).subadditive_error is None
    assert Additive((-1, 2)).subadditive_error == "negative valuations"
    assert Table((0, 1, 1, 2)).subadditive_error is None
    assert Table((0, 1, 1, 3)).subadditive_error == "table not subadditive"
    # every disjoint pair passes, but v({0,1,2}) = 10 > v({0,1}) + v({1,2}) = 6
    assert Table((0, 7, 0, 3, 7, 10, 3, 10)).subadditive_error == "non-monotone table"

    calls = []
    routine = core._table_subadditive

    def counted(weights):
        calls.append(len(weights))
        return routine(weights)

    monkeypatch.setattr(core, "_table_subadditive", counted)
    inst = get_fixture("FIX-E")
    assert calls == []  # building or loading a table does not check it
    for _ in range(2):
        assert [a["subadditive"] for a in validate_instance(inst).agents] == [True, True]
        assert [val.subadditive_error for val in inst.valuations] == [None, None]
    assert calls == [8, 8]


def test_validate_checks_fix_b_additive_is_lexicographic():
    rep = validate_instance(get_fixture("FIX-B"))
    assert rep.ok
    assert all(a.get("lexicographic_consistent") for a in rep.agents if a["kind"] == "additive")


def test_integral_allocation_rejects_overlap():
    overlapping = [
        {"bundles": (frozenset({0}), frozenset({0}))},
        {"bundles": (frozenset({0}),), "pool": frozenset({0})},
        # bundles 0 and 2 share good 1, with a disjoint bundle between them
        {"bundles": (frozenset({0, 1}), frozenset({2}), frozenset({1, 3}))},
        {"bundles": (frozenset({5}), frozenset({4, 5}), frozenset({5, 6}))},
        {"bundles": (frozenset({0}), frozenset({1})), "pool": frozenset({1, 2})},
        {"bundles": ([0, 1], [1])},
        {"bundles": ({0}, {2}, {0, 3})},
        {"bundles": ((g for g in (0, 1)), (g for g in (1, 2)))},
    ]
    for kwargs in overlapping:
        with pytest.raises(PreconditionError, match="^bundles and pool must be pairwise disjoint$"):
            IntegralAllocation(**kwargs)
    # a good repeated inside one bundle is no overlap
    a = IntegralAllocation(bundles=([0, 0], {1}, (g for g in (2,))), pool=[3])
    assert a.bundles == (frozenset({0}), frozenset({1}), frozenset({2}))
    assert a.pool == frozenset({3})


def test_integral_allocation_completeness_and_key():
    a = IntegralAllocation(bundles=(frozenset({0, 2}), frozenset({1})))
    assert a.is_complete(3)
    assert not a.is_complete(4)
    b = IntegralAllocation(bundles=(frozenset({2, 0}), frozenset({1})))
    assert a.key() == b.key()


def test_integral_allocation_json_round_trip():
    a = IntegralAllocation(bundles=(frozenset({0, 2}), frozenset()), pool=frozenset({1}))
    assert IntegralAllocation.from_json(a.to_json()) == a


def test_randomized_allocation_merges_duplicate_outcomes():
    a = IntegralAllocation(bundles=(frozenset({0}), frozenset({1})))
    b = IntegralAllocation(bundles=(frozenset({1}), frozenset({0})))
    dist = RandomizedAllocation.merged([(F(1, 4), a), (F(1, 2), b), (F(1, 4), a)])
    assert len(dist.support) == 2
    probs = {alloc.key(): p for p, alloc in dist.support}
    assert probs[a.key()] == F(1, 2)
    assert probs[b.key()] == F(1, 2)


def test_randomized_allocation_requires_probabilities_summing_to_one():
    a = IntegralAllocation(bundles=(frozenset({0}),))
    b = IntegralAllocation(bundles=(frozenset({1}),))
    c = IntegralAllocation(bundles=(frozenset({2}),))
    short = F(1, 2) - F(1, 10**60)
    for support in [((F(1, 2), a),), (), ((F(1, 2), a), (short, b)), (("1/3", a), ("1/3", b))]:
        with pytest.raises(PreconditionError, match="sum to exactly one"):
            RandomizedAllocation(support=support)
    assert RandomizedAllocation(support=(("1/3", a), ("2/3", b))).support[1][0] == F(2, 3)
    # large coprime denominators: the common denominator is their product
    p, q = F(1, 2**127 - 1), F(1, 10**40 + 1)
    dist = RandomizedAllocation(support=((p, a), (q, b), (1 - p - q, c)))
    assert [w for w, _ in dist.support] == [p, q, 1 - p - q]


def test_randomized_allocation_refuses_outcomes_with_different_bundle_counts():
    # on FIX-D (2 agents) the audits would read two bundles of the second
    # outcome and silently drop its third
    two = IntegralAllocation(bundles=(frozenset({0}), frozenset({1, 2})))
    three = IntegralAllocation(bundles=(frozenset({0}), frozenset({1}), frozenset({2})))
    with pytest.raises(PreconditionError, match="same number of bundles"):
        RandomizedAllocation(support=((F(1, 2), two), (F(1, 2), three)))
    with pytest.raises(PreconditionError, match="same number of bundles"):
        RandomizedAllocation.merged([(F(1, 2), three), (F(1, 2), two)])


def test_randomized_allocation_expected_value_and_fractional():
    inst = get_fixture("FIX-D")
    a = IntegralAllocation(bundles=(frozenset({0}), frozenset({1, 2})))
    b = IntegralAllocation(bundles=(frozenset({1, 2}), frozenset({0})))
    dist = RandomizedAllocation(support=((F(1, 2), a), (F(1, 2), b)))
    # both rank g1 > g2 > g3 with canonical values 4, 2, 1: each expects 7/2 from either bundle
    assert exante_ratio(dist, inst, 0, 1) == 1
    assert exante_ratio(dist, inst, 1, 0) == 1
    assert dist.associated_fractional(inst.m) == ((F(1, 2), F(1, 2), F(1, 2)), (F(1, 2), F(1, 2), F(1, 2)))
    round_trip = RandomizedAllocation.from_json(dist.to_json())
    assert round_trip == dist


def test_instance_json_round_trip_all_fixtures():
    for name in ("FIX-A", "FIX-B", "FIX-C", "FIX-D", "FIX-E"):
        inst = get_fixture(name)
        data = json.loads(json.dumps(instance_to_json(inst)))
        back = instance_from_json(data)
        assert back.n == inst.n and back.m == inst.m
        for i in inst.agents:
            for bundle in ({0}, set(range(inst.m)), {inst.m - 1}):
                assert value_of(back, i, bundle) == value_of(inst, i, bundle)


def test_fixture_epsilon_override():
    inst = get_fixture("FIX-B", epsilon=F(1, 7))
    assert inst.epsilon == F(1, 7)
    with pytest.raises(PreconditionError):
        get_fixture("FIX-A", epsilon=F(1, 7))
    with pytest.raises(PreconditionError):
        get_fixture("FIX-ZZ")


@pytest.mark.parametrize("values", [("abc",), (0.5,), (True,), (None,), ("1/0",)], ids=repr)
def test_valuation_values_are_parsed_once_at_construction(values):
    with pytest.raises(PreconditionError):
        Additive(values)
    with pytest.raises(PreconditionError):
        Table((0,) + values)


def test_valuation_values_accept_ints_fractions_and_strings():
    assert Additive((1, "3/2", F(5, 7))).values == (F(1), F(3, 2), F(5, 7))
    assert Table(("0", 2, F(3), "4")).values == (F(0), F(2), F(3), F(4))


_READ_AS = {"1_000": F(1000), " 3 ": F(3), "+4": F(4), "007": F(7), "\u0663": F(3), "3.0": F(3),
            "1e3": F(1000), "0.5": F(1, 2)}


@pytest.mark.parametrize("text", list(_READ_AS), ids=repr)
def test_value_strings_keep_their_exact_value(text):
    want = _READ_AS[text]
    assert Additive((text,)).values == (want,)
    assert Table(("0", text)).values == (F(0), want)
    data = {"n": 1, "m": 1, "valuations": [{"kind": "additive", "values": [text]}]}
    assert value_of(instance_from_json(data), 0, {0}) == want
    assert parse_rational(text) == want


@pytest.mark.parametrize("text", ["0x10", "3/", "", "1/0"], ids=repr)
def test_unreadable_value_strings_are_refused_with_their_text(text):
    message = re.escape(f"cannot interpret {text!r} as a rational")
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        Additive((text,))
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        Table(("0", text))
    data = {"n": 1, "m": 1, "valuations": [{"kind": "additive", "values": [text]}]}
    with pytest.raises(PreconditionError, match=f"^agent 0: {message}$"):
        instance_from_json(data)


def test_valuations_hold_an_integer_form():
    v = Additive((1, "3/2", F(5, 7)))
    assert (v.scale, v.weights) == (14, (14, 21, 10))
    assert v.int_value({1, 2}) == 31 and v.value({1, 2}) == F(31, 14)
    assert Additive(("2/2", 4)) == Additive((1, "4"))
    t = Table(("0", "1/2", "1/3", "1"))
    assert (t.scale, t.weights) == (6, (0, 3, 2, 6))
    assert t.int_value({0, 1}) == 6 and t.value({1}) == F(1, 3)
    lex = Lexicographic((2, 0, 1))
    assert (lex.scale, lex.weights) == (1, canonical_lex_values((2, 0, 1)))
    assert repr(Table((0, 1))) == "Table(values=(Fraction(0, 1), Fraction(1, 1)), subadditive=False)"


# ---------------------------------------------------------------------------
# differential check of the integer form against the per-value int() loop
# and parse_exact, which it runs after the lookup, kept verbatim


def _ref_integer_form(values):
    values = tuple(values)
    if set(map(type, values)) <= {int, str}:  # parse_exact's int() path, in one pass
        try:
            return 1, tuple(map(int, values))
        except ValueError:
            pass
    exact = [core.parse_exact(v) for v in values]
    scale = lcm(*(x.denominator for x in exact))
    return scale, tuple(x.numerator * (scale // x.denominator) for x in exact)


def _outcome(form, values):
    try:
        scale, weights = form(values)
    except Exception as exc:
        return type(exc), str(exc)
    return scale, weights, [type(w) for w in weights]


class _Reached(Exception):
    pass


def _reaches_the_slow_path(monkeypatch, values) -> bool:
    """Whether _integer_form calls int() or parse_exact on `values`: both are
    shadowed in bobw.core by spies that stop the call."""

    def spy(*args):
        raise _Reached

    with monkeypatch.context() as patch:
        patch.setattr(core, "int", spy, raising=False)
        patch.setattr(core, "parse_exact", spy)
        try:
            core._integer_form(values)
        except _Reached:
            return True
    return False


def _written_table() -> list[str]:
    values = instance_to_json(monotone_instance(SplitMix64(24), 1, 12, max_step=9))["valuations"][0]["values"]
    assert len(values) == 4096 and len(set(values)) > 20
    return values


_BULK = {
    "table": _written_table(),
    "negatives": ["-3", "0", "12", "-40", "-1"],
    "minus-zero": ["-0", "0", "-0"],
    "4300-digits": ["0", "9" * 4300, "-" + "9" * 4300],
}
_ODD = ["007", "+5", " 5", "5\n", "1_000", "٣", "５", "1,2", "", "-", "--1", "1-2", "1e3", "1.0", "3/2",
        "\ud800", True, 1.5, F(1, 2), [1], ()]
_FALL_THROUGH = {
    **{f"{x!r}-alone": [x] for x in _ODD},
    **{f"{x!r}-inside": ["0", x, "1"] for x in _ODD},
    "json-ints": [0, 5, -3, 12],
    "mixed": ["0", 5, "-3"],
    "4301-digits": ["0", "1" * 4301],
}


@pytest.mark.parametrize("values", list(_BULK.values()), ids=list(_BULK))
def test_integer_strings_read_as_the_int_loop(values):
    assert _outcome(core._integer_form, values) == _outcome(_ref_integer_form, values)
    assert core._integer_form(values)[0] == 1


@pytest.mark.parametrize("values", list(_FALL_THROUGH.values()), ids=list(_FALL_THROUGH))
def test_other_values_fall_through_to_the_int_loop(monkeypatch, values):
    assert _outcome(core._integer_form, values) == _outcome(_ref_integer_form, values)
    assert _reaches_the_slow_path(monkeypatch, values)


def test_the_digit_limit_holds_on_both_paths():
    assert Table(("0", "1" * 4300)).weights == (0, int("1" * 4300))
    for values in (("0", "1" * 4301), ("0", "-" + "1" * 4301)):
        with pytest.raises(PreconditionError, match="^numbers are limited to 4300 digits"):
            Table(values)


# ---------------------------------------------------------------------------
# the dict lookup of small canonical integer strings, tried ahead of the
# int() loop when the last value is one


def test_the_lookup_holds_canonical_spellings_only():
    table = core._small_ints()
    assert len(table) >= 1000
    assert table == {str(k): k for k in range(len(table))}
    assert all(type(k) is int for k in table.values())


def _lookup_sweep() -> list[list]:
    """Value lists with one value of each kind first, in the middle and
    last, among seeded in-range canonical strings."""
    rng = SplitMix64(1024)
    bound = len(core._small_ints())
    kinds = [
        str(bound - 1), str(bound), str(bound + rng.below(10**6)), "9" * 40, str(-1 - rng.below(bound)),
        "-0", *_ODD, 7, bound, -3, F(3), F(6, 4),
    ]
    lists = []
    for x in kinds:
        for length in (1, 2, 5):
            for pos in {0, length // 2, length - 1}:
                values = [str(rng.below(bound)) for _ in range(length)]
                values[pos] = x
                lists.append(values)
    return lists


def test_the_lookup_reads_as_the_int_loop():
    for values in _lookup_sweep():
        assert _outcome(core._integer_form, values) == _outcome(_ref_integer_form, values), values


def test_values_that_end_in_no_string_never_build_the_lookup(monkeypatch):
    def spy():
        raise AssertionError("the lookup was built")

    monkeypatch.setattr(core, "_small_ints", spy)
    Additive(("2", 3, F(1, 2)))
    Table((0, 1, 1, 2))


def test_small_tables_skip_the_int_loop(monkeypatch):
    values = _written_table()
    assert max(map(int, values)) < len(core._small_ints())
    data = json.loads(json.dumps(instance_to_json(Instance(n=1, m=12, valuations=(Table(values),)))))
    assert instance_from_json(data).valuations[0].weights == _ref_integer_form(values)[1]
    assert not _reaches_the_slow_path(monkeypatch, values)
    assert not _reaches_the_slow_path(monkeypatch, iter(values))
    # a table whose last value is out of range takes the int() loop
    big = values[:-1] + [str(int(values[-1]) + len(core._small_ints()))]
    assert Table(big).weights == _ref_integer_form(big)[1]
    assert _reaches_the_slow_path(monkeypatch, big)


@pytest.mark.parametrize("ranking", [(1.5, 0), ("a", 1), (True, 0), (1.0, 0)], ids=repr)
def test_rankings_hold_integer_goods(ranking):
    with pytest.raises(PreconditionError):
        Lexicographic(ranking)


@pytest.mark.parametrize(
    "valuation",
    [Additive((1,)), Additive((1, 2, 3)), Table((0, 1)), Table((0,) * 8), Lexicographic((0,))],
    ids=repr,
)
def test_instance_checks_valuation_shapes(valuation):
    with pytest.raises(PreconditionError, match="^agent 1: "):
        Instance(n=2, m=2, valuations=(Lexicographic((0, 1)), valuation))


@pytest.mark.parametrize("n,m", [("2", 2), (2, 2.0), (True, 2), (2, -1)])
def test_instance_counts_are_non_negative_ints(n, m):
    vals = (Lexicographic((0, 1)), Lexicographic((1, 0)))
    with pytest.raises(PreconditionError):
        Instance(n=n, m=m, valuations=vals)


def test_table_valuations_are_capped():
    big = Table((0,) * (1 << 21))
    with pytest.raises(PreconditionError, match="capped at 20 goods"):
        Instance(n=1, m=21, valuations=(big,))


def test_instance_json_reports_the_agent_of_a_bad_valuation():
    data = {
        "n": 2,
        "m": 2,
        "valuations": [
            {"kind": "additive", "values": ["1", "2"]},
            {"kind": "additive", "values": ["1", "x"]},
        ],
    }
    with pytest.raises(PreconditionError, match="^agent 1: cannot interpret 'x'"):
        instance_from_json(data)
    good = {**data, "valuations": data["valuations"][:1], "n": 1}
    instance_from_json(good)
    for key in ("n", "m", "valuations"):
        with pytest.raises(PreconditionError, match=f"missing field '{key}'"):
            instance_from_json({k: v for k, v in good.items() if k != key})


def _monotone_by_definition(values, m):
    return all(
        values[mask ^ (1 << g)] <= values[mask]
        for mask in range(1 << m)
        for g in range(m)
        if mask >> g & 1
    )


def test_table_monotone_agrees_with_the_definition():
    rng = SplitMix64(91)
    seen = set()
    for _ in range(400):
        m = rng.below(7)
        den = 1 + rng.below(3)
        values = [F(0)]
        for mask in range(1, 1 << m):
            # mostly increasing, sometimes a drop: both verdicts occur
            floor = max(values[mask ^ (1 << g)] for g in range(m) if mask >> g & 1)
            values.append(floor + F(rng.below(4) - (rng.below(6) == 0) * 2, den))
        want = _monotone_by_definition(values, m)
        inst = Instance(n=1, m=m, valuations=(Table(tuple(values)),))
        assert validate_instance(inst).agents[0]["monotone"] == want
        seen.add(want)
    assert seen == {True, False}


# the slicing check that the packed-int pass replaced, verbatim but for its name
def _ref_table_monotone(weights: Sequence[int]) -> bool:
    """v(S \\ {g}) <= v(S) for every S and g in S (enough, by induction).
    For good g = log2(step) each mask without g pairs with the mask `step`
    above it; the pairs are sliced out by residue modulo 2 * step while step
    is small, and by block once it is large, so that each good takes at most
    sqrt(2^m / 2) slice pairs."""
    size, step = len(weights), 1
    while step < size:
        span = 2 * step
        if step * span <= size:
            pairs = ((weights[r::span], weights[r + step :: span]) for r in range(step))
        else:
            pairs = ((weights[lo : lo + step], weights[lo + step : lo + span]) for lo in range(0, size, span))
        if not all(all(map(le, low, high)) for low, high in pairs):
            return False
        step = span
    return True


def _seeded_tables(rng, m):
    """A monotone table, a capped additive one, each with one edge broken
    (a value lowered below a subset's or raised above a superset's), and
    each of those shifted below zero and past 2^64."""
    monotone = [0] * (1 << m)
    for mask in range(1, 1 << m):
        monotone[mask] = max(monotone[mask ^ (1 << g)] for g in range(m) if mask >> g & 1) + rng.below(4)
    per_good = [1 + rng.below(5) for _ in range(m)]
    cap = rng.below(sum(per_good) + 1)
    capped = [min(sum(per_good[g] for g in range(m) if mask >> g & 1), cap) for mask in range(1 << m)]
    tables = []
    for base in (monotone, capped):
        tables.append(base)
        if m:
            mask = 1 + rng.below((1 << m) - 1)
            lowered = list(base)
            lowered[mask] = max(base[mask ^ (1 << g)] for g in range(m) if mask >> g & 1) - 1 - rng.below(2)
            raised = list(base)
            mask = rng.below((1 << m) - 1)
            raised[mask] = min(base[mask | (1 << g)] for g in range(m) if not mask >> g & 1) + 1 + rng.below(2)
            tables += [lowered, raised]
    for table in list(tables):
        tables.append([v - 1000 for v in table])
        tables.append([v * 3**41 + 2**64 for v in table])
        tables.append([-(2**70) + v for v in table])
    return tables


def test_packed_monotonicity_matches_the_slicing_check():
    rng = SplitMix64(1717)
    verdicts = set()
    for m in range(13):
        for _ in range(3 if m > 9 else 12):
            for table in _seeded_tables(rng, m):
                want = _ref_table_monotone(tuple(table))
                assert core._table_monotone(tuple(table)) == want, (m, table)
                verdicts.add((m > 0, want))
    assert verdicts == {(False, True), (True, True), (True, False)}


def _brute_force_verdicts(table, m):
    pairs = [(s, t) for s in range(1 << m) for t in range(1 << m)]
    monotone = all(table[s] <= table[t] for s, t in pairs if s & t == s)
    subadditive = all(table[s | t] <= table[s] + table[t] for s, t in pairs)
    return monotone, subadditive


def test_table_verdicts_match_a_brute_force_over_all_pairs():
    rng = SplitMix64(1718)
    seen = set()
    for m in range(6):
        for _ in range(12):
            tables = _seeded_tables(rng, m)
            tables.append([rng.below(5) for _ in range(1 << m)])
            tables.append([bin(mask).count("1") ** 2 for mask in range(1 << m)])  # superadditive
            for table in tables:
                monotone, subadditive = _brute_force_verdicts(table, m)
                val = Table(tuple(table))
                assert val.monotone == monotone
                want = "non-monotone table" if not monotone else None if subadditive else "table not subadditive"
                assert val.subadditive_error == want, (m, table)
                seen.add(want)
    assert seen == {None, "non-monotone table", "table not subadditive"}


def test_packed_table_takes_at_most_four_bytes_per_bundle():
    huge = 1 << 3_321_928  # a weight of 1,000,000 digits
    for m in (0, 1, 5, 12, 14):
        # popcounts fit a byte as they are; the masks themselves, also
        # monotone, go in by rank (at m = 14, in 32 KB, past the mask cache)
        for base in ([bin(mask).count("1") for mask in range(1 << m)], list(range(1 << m))):
            top = list(base)
            top[-1] += huge  # still monotone
            middle = list(base)
            middle[len(base) // 2] = huge  # breaks every edge above it, for m > 1
            bottom = [v - 2**70 for v in base]
            bottom[0] = -huge  # still monotone
            negative = [-v - 1 for v in base]  # decreasing
            for table in (base, top, middle, bottom, negative):
                packed, nbytes = core._packed_table(tuple(table))
                assert nbytes <= 4 and packed.bit_length() <= 32 * len(table)
                want = _ref_table_monotone(tuple(table))
                assert core._table_monotone(tuple(table)) == want
                assert Table(tuple(table)).monotone == want
            assert core._table_monotone(tuple(top)) and core._table_monotone(tuple(bottom))
            assert core._table_monotone(tuple(middle)) == (m < 2)
            assert core._table_monotone(tuple(negative)) == (m == 0)
        assert core._packed_table(tuple(base))[1] == (1 if m < 8 else 2)
    assert core._packed_table(tuple(bin(mask).count("1") for mask in range(1 << 14)))[1] == 1


def test_allocation_json_rejects_malformed_fields():
    for data in ({}, {"bundles": 5}, {"bundles": [5]}, {"bundles": [[0.5]]}, {"bundles": [[True]]},
                 {"bundles": [[0]], "pool": 1}, [[0]]):
        with pytest.raises(PreconditionError):
            IntegralAllocation.from_json(data)
    for data in ({}, {"support": [{"bundles": [[0]]}]}, {"support": [{"prob": 0.5, "bundles": [[0]]}]}):
        with pytest.raises(PreconditionError):
            RandomizedAllocation.from_json(data)
