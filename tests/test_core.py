from __future__ import annotations

import json
import re
from fractions import Fraction

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
    with pytest.raises(PreconditionError):
        IntegralAllocation(bundles=(frozenset({0}), frozenset({0})))
    with pytest.raises(PreconditionError):
        IntegralAllocation(bundles=(frozenset({0}),), pool=frozenset({0}))


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
    with pytest.raises(PreconditionError):
        RandomizedAllocation(support=((F(1, 2), a),))


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


def test_allocation_json_rejects_malformed_fields():
    for data in ({}, {"bundles": 5}, {"bundles": [5]}, {"bundles": [[0.5]]}, {"bundles": [[True]]},
                 {"bundles": [[0]], "pool": 1}, [[0]]):
        with pytest.raises(PreconditionError):
            IntegralAllocation.from_json(data)
    for data in ({}, {"support": [{"bundles": [[0]]}]}, {"support": [{"prob": 0.5, "bundles": [[0]]}]}):
        with pytest.raises(PreconditionError):
            RandomizedAllocation.from_json(data)
