from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from bobw import (
    Instance,
    IntegralAllocation,
    Lexicographic,
    PreconditionError,
    Table,
    bvn_decompose,
    exact_distribution_charity,
    get_fixture,
    instance_from_json,
    instance_to_json,
    load_instance,
    run_eating,
    summarize,
    unit_run,
    utse,
)
from bobw import cli, core
from bobw.audit import AuditReport
from bobw.cli import ALGORITHMS, _check, build_parser, main
from bobw.eating import eat_report
from bobw.rng import SplitMix64

from helpers import capped_additive_instance, from_assignment, lex_instance, monotone_instance
from test_core import _ref_integer_form


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_validate_fixture_ok(capsys):
    code, data = _run_json(capsys, ["validate", "FIX-A"])
    assert code == 0
    assert data["ok"] is True
    # FIX-E's tables are flagged subadditive, and are
    code, data = _run_json(capsys, ["validate", "FIX-E"])
    assert code == 0
    assert [agent["subadditive"] for agent in data["agents"]] == [True, True]


def test_validate_reports_broken_instances(capsys, tmp_path):
    table = {"kind": "table", "values": ["0", "5", "1", "2"]}
    cases = [
        ({"valuations": [table]}, "agent 0: non-monotone table"),
        ({"valuations": [{**table, "values": ["1", "5", "5", "5"]}]}, "agent 0: empty-set value nonzero"),
        ({"labels": ["g1"]}, "labels length differs from m"),
        # v({0,1,2}) = 10 > v({0,1}) + v({1,2}) = 6: the disjoint pairs alone
        # would call this non-monotone table subadditive
        (
            {"m": 3, "valuations": [{**table, "values": [0, 7, 0, 3, 7, 10, 3, 10], "subadditive": True}]},
            "agent 0: non-monotone table",
        ),
    ]
    for edit, error in cases:
        bad = {"n": 1, "m": 2, "valuations": [{"kind": "lexicographic", "ranking": [1, 0]}], **edit}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, data = _run_json(capsys, ["validate", str(path)])
        assert code == 2
        assert data["ok"] is False
        assert error in data["errors"]
    assert data["agents"] == [{"agent": 0, "kind": "table", "monotone": False, "subadditive": False}]


def test_missing_file_is_a_precondition_error(capsys):
    code = main(["validate", "no-such-file.json"])
    assert code == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["validate"], ["solve", "--algorithm", "utse"]])
@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_unparsable_value_is_a_precondition_error(capsys, tmp_path, command, value):
    bad = {"n": 1, "m": 2, "valuations": [{"kind": "additive", "values": [value, "1"]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main([command[0], str(path), *command[1:]]) == 3
    assert value in capsys.readouterr().err


# valuations that cannot be indexed over the instance's m = 2 goods
_MISSHAPEN = {
    "ranking-repeats-a-good": {"kind": "lexicographic", "ranking": [0, 0]},
    "ranking-names-a-missing-good": {"kind": "lexicographic", "ranking": [0, 5]},
    "ranking-holds-a-float": {"kind": "lexicographic", "ranking": [1.5, 0]},
    "ranking-holds-a-string": {"kind": "lexicographic", "ranking": ["a", 1]},
    "additive-vector-too-short": {"kind": "additive", "values": ["1"]},
    "table-not-2-to-the-m": {"kind": "table", "values": ["0", "1", "1"]},
}


@pytest.mark.parametrize(
    "command",
    [
        ["validate"],
        ["solve", "--algorithm", "utse"],
        ["sample", "--algorithm", "uniform-perm", "--seed", "1"],
        ["estimate", "--sampler", "uniform-perm", "--samples", "1000", "--seed", "1"],
    ],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize("case", sorted(_MISSHAPEN))
def test_misshapen_valuation_is_a_precondition_error(capsys, tmp_path, case, command):
    valuations = [_MISSHAPEN[case], {"kind": "lexicographic", "ranking": [1, 0]}]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"n": 2, "m": 2, "valuations": valuations}))
    assert main([command[0], str(path), *command[1:]]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: agent 0: ")


# v({0}) = 3 > v({0, 1}) = 2: the lowest-bit chain 0 <= 3, 0 <= 1, 1 <= 2 holds
_NON_MONOTONE = {
    "n": 2,
    "m": 2,
    "valuations": [
        {"kind": "table", "values": ["0", "3", "1", "2"]},
        {"kind": "table", "values": ["0", "1", "1", "2"]},
    ],
}


@pytest.mark.parametrize(
    "command",
    [
        "solve --algorithm charity --seed 1",
        "solve --algorithm bounded-charity --seed 1",
        "sample --algorithm charity --seed 1",
        "sample --algorithm bounded-charity --seed 1",
        "estimate --sampler charity --samples 1000 --seed 1",
        "oracle --op exact-charity",
        "oracle --op exact-bounded-charity",
    ],
)
def test_charity_commands_reject_a_non_monotone_table(capsys, tmp_path, command):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_NON_MONOTONE))
    word, *rest = command.split()
    assert main([word, str(path), *rest]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: agent 0: non-monotone table\n")


def _mutants(text: bytes, rng: random.Random, count: int):
    """`count` copies of `text`, each with one byte flipped in one bit,
    inserted or deleted."""
    for _ in range(count):
        data = bytearray(text)
        pos = rng.randrange(len(data))
        edit = rng.randrange(3)
        if edit == 0:
            data[pos] ^= 1 << rng.randrange(8)
        elif edit == 1:
            data.insert(pos, rng.randrange(256))
        else:
            del data[pos]
        yield bytes(data)


def test_mutated_table_files_exit_cleanly(capsys, tmp_path):
    # seeded single-byte mutants of a monotone and a capped-additive 3/5
    # table file; bounded-charity is left out while its pool-shrinking pass
    # can break its own guarantee
    commands = (
        ["validate"],
        ["solve", "--algorithm", "charity", "--seed", "1"],
        ["oracle", "--op", "exact-charity"],
    )
    path = tmp_path / "inst.json"
    codes = {}
    rng = random.Random(24)
    for seed, make in ((1, monotone_instance), (2, capped_additive_instance)):
        text = json.dumps(instance_to_json(make(SplitMix64(seed), 3, 5))).encode()
        for data in _mutants(text, rng, 1000):
            path.write_bytes(data)
            for word, *rest in commands:
                try:
                    code = main([word, str(path), *rest])
                except Exception as exc:  # the mutant goes into the failure message
                    raise AssertionError(f"{word} raised on {data!r}") from exc
                assert code in (0, 2, 3, 4), (word, data)
                codes[word, code] = codes.get((word, code), 0) + 1
            capsys.readouterr()
    # mutants that still load and run, beside the ones refused
    assert codes["solve", 0] > 100 and codes["oracle", 0] > 100 and codes["validate", 2] > 10


def test_mutated_table_files_across_the_lookup_bound_exit_cleanly(capsys, tmp_path):
    # seeded single-byte mutants of a monotone 3/5 table file scaled so that
    # agents 0 and 2 top out just below the integer lookup's bound and
    # agent 1 just above it: every run exits with a documented code, and
    # every table that loads holds the weights of the per-value int() loop
    bound = len(core._small_ints())
    inst = monotone_instance(SplitMix64(29), 3, 5)
    tables = []
    for i, val in enumerate(inst.valuations):
        top = max(val.weights)
        scale = bound // top + 1 if i == 1 else (bound - 1) // top
        tables.append(Table(tuple(w * scale for w in val.weights)))
    text = json.dumps(instance_to_json(Instance(n=3, m=5, valuations=tuple(tables)))).encode()
    commands = (
        ["validate"],
        ["solve", "--algorithm", "charity", "--seed", "1"],
        ["oracle", "--op", "exact-charity"],
    )
    path = tmp_path / "inst.json"
    codes = Counter()
    for data in _mutants(text, random.Random(29), 1000):
        path.write_bytes(data)
        try:
            loaded = load_instance(str(path))
        except PreconditionError:
            loaded = None
        if loaded is not None:
            for i, (entry, val) in enumerate(zip(json.loads(data)["valuations"], loaded.valuations)):
                assert (val.scale, val.weights) == _ref_integer_form(entry["values"]), data
                codes["table", i == 1, max(val.weights) < bound] += 1
        for word, *rest in commands:
            try:
                code = main([word, str(path), *rest])
            except Exception as exc:  # the mutant goes into the failure message
                raise AssertionError(f"{word} raised on {data!r}") from exc
            assert code in (0, 2, 3, 4), (word, data)
            codes[word, code] += 1
        capsys.readouterr()
    # mutants that still load and run, beside the ones refused, and tables
    # that a mutant pushed across the bound, either way
    assert codes["solve", 0] > 50 and codes["oracle", 0] > 50 and codes["validate", 2] > 50
    assert codes["table", False, False] > 0 and codes["table", True, True] > 0


def test_mutated_lottery_allocation_and_decomposition_files_exit_cleanly(capsys, tmp_path):
    # seeded single-byte mutants of a utse lottery, of one of its outcomes
    # and of the decomposition of its eating matrix, on a lexicographic and
    # an additive fixture: every run exits with a documented code
    verify = ["verify", "--properties", "efx,po-lex,sdef,ef1,efx-charity", "--allocation"]
    solve = ["solve", "--algorithm", "utse", "--decomposition"]
    path = tmp_path / "input.json"
    codes = Counter()
    rng = random.Random(27)
    for name in ("FIX-A", "FIX-C"):
        inst = get_fixture(name)
        dist = utse(inst)
        files = (
            ("lottery", verify, dist.to_json()),
            ("allocation", verify, dist.support[-1][1].to_json()),
            ("decomposition", solve, bvn_decompose(summarize(unit_run(inst)).X).to_json()),
        )
        for kind, (word, *rest), data in files:
            for mutant in _mutants(json.dumps(data).encode(), rng, 750):
                path.write_bytes(mutant)
                try:
                    code = main([word, name, *rest, str(path)])
                except Exception as exc:  # the mutant goes into the failure message
                    raise AssertionError(f"{word} raised on {mutant!r}") from exc
                assert code in (0, 2, 3, 4), (word, mutant)
                codes[kind, code] += 1
            capsys.readouterr()
    # mutants that still load and run, beside the ones refused: a utse
    # lottery is not SD-EF, so every verify run that loads exits 2
    assert codes["lottery", 2] > 50 and codes["allocation", 2] > 50 and codes["decomposition", 0] > 50
    assert all(codes[kind, 3] > 1000 for kind in ("lottery", "allocation", "decomposition"))



def test_mutated_supports_files_exit_cleanly(capsys, tmp_path):
    # seeded single-byte mutants of FIX-A's EFX allocations as `oracle --op
    # enumerate-efx` writes them, read back as a supports file
    code, data = _run_json(capsys, ["oracle", "FIX-A", "--op", "enumerate-efx"])
    assert code == 0 and data["count"] == 4
    path = tmp_path / "supports.json"
    codes = Counter()
    for mutant in _mutants(json.dumps(data).encode(), random.Random(28), 1500):
        path.write_bytes(mutant)
        try:
            code = main(["oracle", "FIX-A", "--op", "sdef-feasibility", "--supports", str(path)])
        except Exception as exc:  # the mutant goes into the failure message
            raise AssertionError(f"oracle raised on {mutant!r}") from exc
        assert code in (0, 2, 3, 4), mutant
        codes[code] += 1
        capsys.readouterr()
    # mutants that still load and run, beside the ones refused
    assert codes[0] > 100 and codes[3] > 1000

def test_mutated_instance_files_through_the_efx_oracles_exit_cleanly(capsys, tmp_path):
    # seeded single-byte mutants of a lexicographic 3/5 instance, which has
    # 12 EFX allocations, and of the additive FIX-C, through the EFX
    # enumeration and the SD-EF oracle over every EFX allocation
    rankings = ([4, 3, 0, 2, 1], [4, 0, 3, 2, 1], [4, 1, 3, 0, 2])
    lex = Instance(n=3, m=5, valuations=tuple(Lexicographic(r) for r in rankings))
    path = tmp_path / "inst.json"
    codes = Counter()
    rng = random.Random(30)
    for inst in (lex, get_fixture("FIX-C")):
        for mutant in _mutants(json.dumps(instance_to_json(inst)).encode(), rng, 400):
            path.write_bytes(mutant)
            for op in ("enumerate-efx", "sdef-feasibility"):
                try:
                    code = main(["oracle", str(path), "--op", op])
                except Exception as exc:  # the mutant goes into the failure message
                    raise AssertionError(f"{op} raised on {mutant!r}") from exc
                assert code in (0, 2, 3, 4), (op, mutant)
                codes[op, code] += 1
            capsys.readouterr()
    # mutants that still load and run, beside the ones refused
    assert codes["enumerate-efx", 0] > 50 and codes["sdef-feasibility", 0] > 50
    assert codes["enumerate-efx", 3] > 500 and codes["sdef-feasibility", 3] > 500


# allocation, lottery, supports and decomposition files on FIX-A (n = 3, m = 4)
_ALLOCATION_INPUTS = {
    "two-bundles-one-good-out-of-range": (
        "verify --properties efx,ef1,sdef --allocation", {"bundles": [[0, 99], [1]]}
    ),
    "good-out-of-range": ("verify --properties efx --allocation", {"bundles": [[0, 99], [1], [2, 3]]}),
    "negative-good": ("verify --properties ef --allocation", {"bundles": [[0, -1], [1], [2, 3]]}),
    "pool-good-out-of-range": (
        "verify --properties efx-charity --allocation",
        {"bundles": [[0], [1], [2]], "pool": [3, 4]},
    ),
    "good-not-an-integer": ("verify --properties efx --allocation", {"bundles": [[0], [1], ["2"]]}),
    "bundles-not-a-list": ("verify --properties efx --allocation", {"bundles": 5}),
    "allocation-not-an-object": ("verify --properties efx --allocation", 5),
    "bundle-not-a-list": ("verify --properties efx --allocation", {"bundles": [[0], [1], 2]}),
    "one-bundle-lottery-po-lex": (
        "verify --properties po-lex --allocation",
        {"support": [{"prob": "1", "bundles": [[0, 1, 2, 3]]}]},
    ),
    "one-bundle-lottery-sdef": (
        "verify --properties sdef --allocation",
        {"support": [{"prob": "1", "bundles": [[0, 1, 2, 3]]}]},
    ),
    "lottery-entry-without-prob": (
        "verify --properties efx --allocation",
        {"support": [{"bundles": [[0], [1], [2, 3]]}]},
    ),
    "supports-without-allocations": ("oracle --op sdef-feasibility --supports", {"supports": []}),
    "supports-good-out-of-range": (
        "oracle --op sdef-feasibility --supports",
        {"allocations": [{"bundles": [[0], [1], [2, 7]]}]},
    ),
    "decomposition-good-out-of-range": (
        "solve --algorithm utse --decomposition",
        {"terms": [{"weight": "1", "assignment": [0, 99, 1]}]},
    ),
    "decomposition-too-few-agents": (
        "solve --algorithm utse --decomposition",
        {"terms": [{"weight": "1", "assignment": [0, 1]}]},
    ),
    "decomposition-without-terms": ("solve --algorithm utse --decomposition", {"weights": []}),
    "lottery-with-a-zero-probability": (
        "verify --properties efx --allocation",
        {"support": [{"prob": "0", "bundles": [[0], [1], [2, 3]]}, {"prob": "1", "bundles": [[3], [1], [2, 0]]}]},
    ),
    "no-properties": ("verify --properties , --allocation", {"bundles": [[0], [1], [2, 3]]}),
}


@pytest.mark.parametrize("case", sorted(_ALLOCATION_INPUTS))
def test_allocation_input_outside_the_instance_is_a_precondition_error(capsys, tmp_path, case):
    command, data = _ALLOCATION_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    word, *rest = command.split()
    assert main([word, "FIX-A", *rest, str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


_INSTANCE_JSON = {"n": 1, "m": 2, "valuations": [{"kind": "lexicographic", "ranking": [1, 0]}]}


@pytest.mark.parametrize(
    "edit",
    [
        {"valuations": None},
        {"n": None},
        {"m": None},
        {"n": "x"},
        {"n": 1.5},
        {"m": -1},
        {"n": 0, "valuations": []},
        {"valuations": {"kind": "lexicographic"}},
        {"valuations": [["lexicographic", [1, 0]]]},
        {"valuations": [{"ranking": [1, 0]}]},
        {"valuations": [{"kind": "ordinal", "ranking": [1, 0]}]},
        {"valuations": [{"kind": "additive", "values": "12"}]},
        {"valuations": [{"kind": "table", "values": [0, 1, 1, 2], "subadditive": "false"}]},
        {"labels": 5},
        {"epsilon": 0.5},
        # numbers past Python's 4,300-digit limit on int() strings, in digits
        # or in an exponent that would be expanded by arithmetic
        {"valuations": [{"kind": "additive", "values": ["1e999999", "0"]}]},
        {"valuations": [{"kind": "additive", "values": ["1" * 4301, "0"]}]},
        {"valuations": [{"kind": "additive", "values": ["1/" + "3" * 4301, "0"]}]},
        {"epsilon": "1e-1000000"},
        {"epsilon": "0." + "0" * 4300 + "1"},
        # long junk, echoed in part
        {"valuations": [{"kind": "additive", "values": ["1e" + "9" * 5000, "0"]}]},
        {"valuations": [{"kind": "additive", "values": ["x" * 5000, "0"]}]},
        {"valuations": [{"kind": "additive", "values": ["1/" + "a" * 5000, "0"]}]},
        # a command line of its own
        ["validate", "FIX-A", "--epsilon", "1e-99999999"],
    ],
    ids=lambda e: json.dumps(e) if len(json.dumps(e)) < 100 else json.dumps(e)[:60] + "...",
)
def test_malformed_instance_fields_are_precondition_errors(capsys, tmp_path, edit):
    if isinstance(edit, list):
        argv = edit
    else:
        data = {**_INSTANCE_JSON, **edit}
        data = {key: value for key, value in data.items() if value is not None}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        argv = ["validate", str(path)]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert len(err) < 200


# files that cannot be read as JSON, by what is wrong with them
_UNREADABLE = {
    "directory": None,
    "not-utf-8": b'{"n": 1, "m": 2, "labels": ["\xff"]}',
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    "int-of-5000-digits": b'{"n": 1' + b"0" * 5000 + b"}",
    "int-of-4301-digits-negative": b'{"n": -' + b"9" * 4301 + b"}",
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE))
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "FILE"],
        ["verify", "FIX-A", "--allocation", "FILE", "--properties", "efx"],
        ["solve", "FIX-D", "--algorithm", "utse", "--decomposition", "FILE"],
        ["oracle", "FIX-A", "--op", "sdef-feasibility", "--supports", "FILE"],
    ],
    ids=lambda argv: argv[0],
)
def test_unreadable_files_are_precondition_errors(capsys, tmp_path, case, argv):
    path = tmp_path / "input.json"
    if _UNREADABLE[case] is None:
        path.mkdir()
    else:
        path.write_bytes(_UNREADABLE[case])
    assert main([str(path) if a == "FILE" else a for a in argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    if case.startswith("int-"):
        # the file and the limit, not Python's advice to raise the limit
        assert err == f"error: {path}: holds an integer of more than 4300 digits, Python's limit for reading one\n"


def test_unwritable_output_is_a_precondition_error(capsys, tmp_path, monkeypatch):
    assert main(["validate", "FIX-A", "-o", str(tmp_path)]) == 3
    # a failed property's witness goes to -o too
    monkeypatch.setattr(cli, "check_efx", lambda inst, alloc: AuditReport("efx", False))
    assert main(["solve", "FIX-D", "--algorithm", "utse", "-o", str(tmp_path / "no-folder" / "out.json")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error: ") == 2


def test_instance_without_agents_is_a_precondition_error(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"n": 0, "m": 0, "valuations": []}))
    assert main(["solve", str(path), "--algorithm", "uniform-perm"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: need at least one agent\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eat", "FIX-A", "--pad", "-1"],
        ["sample", "FIX-A", "--algorithm", "uniform-perm", "--seed", "1", "--count", "-1"],
        ["sample", "FIX-A", "--algorithm", "uniform-perm", "--seed", "1", "--count", "0"],
    ],
    ids=" ".join,
)
def test_out_of_range_counts_are_precondition_errors(capsys, argv):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_repro_instance_goes_through_the_instance_loader(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(get_fixture("FIX-D"))))
    code, data = _run_json(capsys, ["repro", "ps-baseline", "--instance", str(path)])
    assert (code, data["instance"]) == (0, str(path))
    # --epsilon applies to fixtures only, here as everywhere else
    assert main(["repro", "ps-baseline", "--instance", str(path), "--epsilon", "1/100"]) == 3
    bad = {"n": 2, "m": 2, "valuations": [_MISSHAPEN["ranking-repeats-a-good"]] * 2}
    path.write_text(json.dumps(bad))
    assert main(["repro", "ps-baseline", "--instance", str(path)]) == 3


def test_epsilon_override_rules(capsys, tmp_path):
    code, data = _run_json(capsys, ["validate", "FIX-B", "--epsilon", "1/100"])
    assert code == 0
    inst = get_fixture("FIX-D")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    assert main(["validate", str(path), "--epsilon", "1/100"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "FIX-B"],
        ["repro", "example-4-1"],
        ["repro", "utse-tight"],
        ["validate", "INSTANCE"],
    ],
)
def test_empty_epsilon_is_bad_input(capsys, tmp_path, argv):
    # an empty --epsilon is a value that does not parse, not an absent flag
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(get_fixture("FIX-D"))))
    argv = [str(path) if a == "INSTANCE" else a for a in argv]
    assert main(argv + ["--epsilon", ""]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot interpret '' as a rational" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "FIX-D", "--algorithm", "utse", "--decomposition"],
        ["oracle", "FIX-A", "--op", "sdef-feasibility", "--supports"],
        ["repro", "ps-baseline", "--instance"],
    ],
    ids=" ".join,
)
def test_empty_file_flag_is_bad_input(capsys, argv):
    # an empty file name is a file that does not exist, not an absent flag
    assert main(argv + [""]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: [Errno 2] No such file or directory: ''\n"


def test_eat_report_shape(capsys):
    code, data = _run_json(capsys, ["eat", "FIX-D"])
    assert code == 0
    assert data["matrix"] == [["1/2", "1/2", "0"], ["1/2", "1/2", "0"]]
    assert data["k"] == "1"
    assert data["L"] == [1]
    assert data["U"] == [2]



def test_eat_pad_builds_only_the_dummies_a_run_can_reach(capsys):
    # a pad of 10**12 dummy goods answers at once, with the report of any
    # pad the run cannot use up
    start = time.perf_counter()
    code, out = _run(capsys, ["eat", "FIX-C", "--pad", str(10**12)])
    assert time.perf_counter() - start < 1
    assert code == 0
    data = json.loads(out)
    assert data["padded_with"] == 10**12
    code, small = _run_json(capsys, ["eat", "FIX-C", "--pad", "5"])
    assert code == 0 and {**small, "padded_with": 10**12} == data


def test_eat_report_is_the_full_pad_report(capsys, tmp_path):
    # for every pad and duration, the CLI prints the report of a run with
    # every dummy built, or refuses it with that run's message
    rng = SplitMix64(2805)
    cases = [("FIX-A", get_fixture("FIX-A")), ("FIX-C", get_fixture("FIX-C"))]
    for n, m in ((3, 2), (4, 6), (5, 5)):
        inst = lex_instance(rng, n, m)
        path = tmp_path / f"inst-{n}-{m}.json"
        path.write_text(json.dumps(instance_to_json(inst)))
        cases.append((str(path), inst))
    checked = refused = 0
    for name, inst in cases:
        for duration in ("1/3", "1/2", "1", "3/2", "2", "7/3", "0"):
            for pad in (0, 1, 2, 3, 5, 8, 13, 40, -1):
                code = main(["eat", name, "--duration", duration, "--pad", str(pad)])
                out, err = capsys.readouterr()
                try:
                    expected = eat_report(inst, run_eating(inst, Fraction(duration), n_dummies=pad))
                except PreconditionError as exc:
                    assert (code, out, err) == (3, "", f"error: {exc}\n"), (name, duration, pad)
                    refused += 1
                else:
                    assert code == 0 and json.loads(out) == expected, (name, duration, pad)
                    checked += 1
    assert checked > 100 and refused > 50


def test_solve_utse_embeds_passing_audits(capsys):
    code, data = _run_json(capsys, ["solve", "FIX-D", "--algorithm", "utse"])
    assert code == 0
    assert data["audits"]["efx"]["passed"] is True
    assert data["audits"]["po_lex"]["passed"] is True
    assert data["audits"]["min_exante_ratio"] == "1"
    assert [row["prob"] for row in data["distribution"]["support"]] == ["1/2", "1/2"]


def test_solve_sampler_requires_seed(capsys):
    code = main(["solve", "FIX-C", "--algorithm", "depround-k2"])
    assert code == 3
    assert "--seed" in capsys.readouterr().err


def test_solve_output_is_reproducible(capsys):
    argv = ["solve", "FIX-C", "--algorithm", "depround-k2", "--seed", "11"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_solve_router_reports_kind(capsys):
    code, data = _run_json(capsys, ["solve", "FIX-D", "--algorithm", "lex-bobw"])
    assert code == 0
    assert (data["k"], data["kind"]) == (1, "distribution")
    code, data = _run_json(
        capsys, ["solve", "FIX-C", "--algorithm", "lex-bobw", "--seed", "5"]
    )
    assert code == 0
    assert (data["k"], data["kind"]) == (2, "sample")
    assert data["audits"]["efx"]["passed"] is True


def test_solve_uniform_perm_audits(capsys):
    code, data = _run_json(capsys, ["solve", "FIX-B", "--algorithm", "uniform-perm"])
    assert code == 0
    assert data["audits"]["exante_half_ef"]["passed"] is True
    assert data["audits"]["min_exante_ratio"] == "9121/12011"


def test_solve_charity_trace(capsys):
    code, data = _run_json(capsys, ["solve", "FIX-E", "--algorithm", "charity", "--seed", "7"])
    assert code == 0
    assert len(data["trace"]["steps"]) == 3
    assert data["audits"]["efx_with_charity"]["passed"] is True


def test_solve_bounded_charity(capsys):
    code, data = _run_json(
        capsys, ["solve", "FIX-E", "--algorithm", "bounded-charity", "--seed", "7"]
    )
    assert code == 0
    assert data["audits"]["bounded_charity"]["passed"] is True
    assert data["allocation"]["pool"] == []


def test_verify_pass_and_fail_exit_codes(capsys, tmp_path):
    inst = get_fixture("FIX-D")
    good = from_assignment([1, 0, 0], inst.n)  # agent0 takes {1,2}, agent1 takes {0}
    p = tmp_path / "good.json"
    p.write_text(json.dumps(good.to_json()))
    code, data = _run_json(capsys, ["verify", "FIX-D", "--allocation", str(p), "--properties", "efx,po-lex"])
    assert code == 0
    assert all(rep["passed"] for rep in data["audits"].values())

    bad = IntegralAllocation(
        bundles=(frozenset({0, 1}), frozenset()), pool=frozenset({2})
    )
    p2 = tmp_path / "bad.json"
    p2.write_text(json.dumps(bad.to_json()))
    code, data = _run_json(capsys, ["verify", "FIX-D", "--allocation", str(p2), "--properties", "efx"])
    assert code == 2
    assert data["audits"]["efx"]["passed"] is False


def test_verify_unknown_property(capsys, tmp_path):
    p = tmp_path / "a.json"
    p.write_text(json.dumps(from_assignment([1, 0, 0], 2).to_json()))
    assert main(["verify", "FIX-D", "--allocation", str(p), "--properties", "zen"]) == 3


def test_verify_distribution_sdef(capsys, tmp_path):
    inst = get_fixture("FIX-D")
    dist = utse(inst)
    p = tmp_path / "dist.json"
    p.write_text(json.dumps(dist.to_json()))
    code, data = _run_json(
        capsys,
        ["verify", "FIX-D", "--allocation", str(p), "--properties", "po-lex,sdef"],
    )
    assert code == 0
    assert data["audits"]["sdef"]["passed"] is True
    assert data["audits"]["po-lex"]["passed"] is True


def test_sample_batch_is_deterministic(capsys):
    argv = ["sample", "FIX-C", "--algorithm", "depround-k2", "--seed", "3", "--count", "4"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    data = json.loads(out1)
    assert len(data["samples"]) == 4


def test_estimate_pair_table(capsys):
    code, data = _run_json(
        capsys,
        ["estimate", "FIX-C", "--sampler", "depround-k2", "--samples", "1000", "--seed", "2"],
    )
    assert code == 0
    assert len(data["pairs"]) == 4 * 3
    for row in data["pairs"]:
        assert row["ratio"] is None or row["ratio"] >= 0.0
        if row["ratio"] is not None:
            lo, hi = row["ci99_7"]
            assert lo <= row["ratio"] <= hi


def test_estimate_rejects_small_sample_counts(capsys):
    code = main(
        ["estimate", "FIX-C", "--sampler", "depround-k2", "--samples", "10", "--seed", "2"]
    )
    assert code == 3


def test_oracle_enumeration(capsys):
    code, data = _run_json(capsys, ["oracle", "FIX-A", "--op", "enumerate-efx"])
    assert code == 0
    assert data["count"] == 4


def test_oracle_feasibility_certificate(capsys):
    code, data = _run_json(capsys, ["oracle", "FIX-A", "--op", "sdef-feasibility"])
    assert code == 0
    assert data["feasible"] is False
    assert data["certificate"]["constraints"]


def test_oracle_exact_distributions(capsys):
    code, data = _run_json(capsys, ["oracle", "FIX-E", "--op", "exact-charity"])
    assert code == 0
    assert data["audits"]["support"]["passed"] is True
    assert data["audits"]["stochastic_dominance_half"]["passed"] is True
    code, data = _run_json(capsys, ["oracle", "FIX-E", "--op", "exact-bounded-charity"])
    assert code == 0
    assert data["audits"]["support"]["passed"] is True
    assert data["audits"]["exante_half_prop"]["passed"] is True


# capped additive tables (monotone, subadditive) on which the bounded-charity
# lottery is half-proportional in expectation but not stochastic-dominance 1/2
_SUBADDITIVE_3X5 = {
    "n": 3,
    "m": 5,
    "valuations": [
        {"kind": "table", "subadditive": True, "values": values}
        for values in (
            [0, 5, 3, 8, 3, 8, 6, 11, 5, 10, 8, 12, 8, 12, 11, 12, 1, 6, 4, 9, 4, 9, 7, 12, 6, 11, 9, 12, 9, 12, 12, 12],
            [0, 2, 1, 3, 2, 4, 3, 5, 1, 3, 2, 4, 3, 5, 4, 6, 3, 5, 4, 6, 5, 6, 6, 6, 4, 6, 5, 6, 6, 6, 6, 6],
            [0, 2, 4, 6, 5, 7, 8, 8, 1, 3, 5, 7, 6, 8, 8, 8, 5, 7, 8, 8, 8, 8, 8, 8, 6, 8, 8, 8, 8, 8, 8, 8],
        )
    ],
}


def test_oracle_exact_bounded_charity_owes_half_proportionality(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_SUBADDITIVE_3X5))
    code, data = _run_json(capsys, ["oracle", str(path), "--op", "exact-bounded-charity"])
    assert code == 0
    assert list(data["audits"]) == ["support", "exante_half_prop"]
    assert data["audits"]["exante_half_prop"]["passed"] is True


def _table_generator():
    # the benchmark's seeded table generator
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_oracle_exact_bounded_charity_owes_no_half_proportionality_off_subadditive(capsys, tmp_path):
    # monotone tables, none subadditive: every outcome is EFX with bounded
    # charity, but agent 1 expects 2 of a share of 13/3
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_table_generator().table_instance_json(random.Random(6), 3, 5, False)))
    code, data = _run_json(capsys, ["oracle", str(path), "--op", "exact-bounded-charity"])
    assert code == 0
    assert data["audits"]["support"]["passed"] is True
    report = data["audits"]["exante_half_prop"]
    assert (report["passed"], report["owed"]) == (False, False)
    assert report["witness"] == {"agent": 1, "alpha": "1/2", "expected": "2", "share": "13/3"}
    assert report["reason"] == "; ".join(f"agent {i}: table not subadditive" for i in range(3))


def test_bounded_charity_lottery_is_half_proportional_on_subadditive_tables():
    gen = _table_generator()
    owed = unowed_failures = 0
    for seed in range(40):
        for capped in (False, True):
            inst = instance_from_json(gen.table_instance_json(random.Random(seed), 3, 5, capped))
            dist = exact_distribution_charity(inst, algorithm=4)
            report = cli._exante(("exante_half_prop",), dist, inst)["exante_half_prop"]
            if all(val.subadditive_error is None for val in inst.valuations):
                assert "owed" not in report and report["passed"], (seed, capped)
                owed += 1
            else:
                assert report["owed"] is False, (seed, capped)
                unowed_failures += not report["passed"]
    assert owed >= 40
    assert unowed_failures >= 1


def test_algorithm_table_keys_resolve_to_checkers():
    for algo in ALGORITHMS.values():
        assert all(callable(_check(key)) for key in algo.audits + algo.exante)


def test_oracle_leaf_cap(capsys):
    code = main(["oracle", "FIX-E", "--op", "exact-charity", "--leaf-cap", "2"])
    assert code == 4
    assert "resource cap" in capsys.readouterr().err
    # the cap counts distinct states: FIX-E's loop has 6 runs but 10 states
    assert main(["oracle", "FIX-E", "--op", "exact-charity", "--leaf-cap", "9"]) == 4
    assert capsys.readouterr() == ("", "resource cap: exact walk exceeded 9 states\n")
    assert main(["oracle", "FIX-E", "--op", "exact-charity", "--leaf-cap", "10"]) == 0


@pytest.mark.parametrize(
    "command,message",
    [
        ("solve FIX-E --algorithm bounded-charity --seed 7 --step-cap -1", "step cap must be non-negative, got -1"),
        ("oracle FIX-E --op exact-charity --leaf-cap -5", "leaf cap must be non-negative, got -5"),
    ],
)
def test_negative_work_caps_are_precondition_errors(capsys, command, message):
    assert main(command.split()) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


# optional flags that some other op or scenario reads
_UNREAD_FLAGS = [
    (
        "oracle FIX-A --op enumerate-efx --leaf-cap 5",
        "--leaf-cap applies only to exact-charity, exact-bounded-charity, not enumerate-efx",
    ),
    ("oracle FIX-E --op exact-charity --supports F", "--supports applies only to sdef-feasibility, not exact-charity"),
    (
        "oracle FIX-A --op sdef-feasibility --leaf-cap 1",
        "--leaf-cap applies only to exact-charity, exact-bounded-charity, not sdef-feasibility",
    ),
    (
        "repro impossibility --epsilon 1/2",
        "--epsilon applies only to example-4-1, utse-tight, ps-baseline, not impossibility",
    ),
    ("repro example-4-1 --instance FIX-D", "--instance applies only to ps-baseline, not example-4-1"),
    ("repro utse-tight --instance FIX-A", "--instance applies only to ps-baseline, not utse-tight"),
]


@pytest.mark.parametrize("command,message", _UNREAD_FLAGS, ids=[c for c, _ in _UNREAD_FLAGS])
def test_oracle_and_repro_refuse_flags_their_choice_does_not_read(capsys, command, message):
    assert main(command.split()) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_refuses_a_lottery_whose_outcomes_differ_in_bundle_count(capsys, tmp_path):
    path = tmp_path / "dist.json"
    support = [{"prob": "1/2", "bundles": [[0], [1, 2]]}, {"prob": "1/2", "bundles": [[0], [1], [2]]}]
    path.write_text(json.dumps({"support": support}))
    assert main(["verify", "FIX-D", "--allocation", str(path), "--properties", "efx,sdef"]) == 3
    assert capsys.readouterr() == ("", "error: support outcomes must all have the same number of bundles\n")


def test_solve_refuses_step_cap_outside_bounded_charity(capsys):
    assert main("solve FIX-E --algorithm charity --seed 7 --step-cap 1".split()) == 3
    assert capsys.readouterr() == ("", "error: --step-cap applies only to bounded-charity, not charity\n")


@pytest.mark.parametrize("command", ["solve FIX-D --algorithm utse", "solve FIX-B --algorithm uniform-perm"])
def test_solve_refuses_seed_where_the_algorithm_has_a_lottery(capsys, command):
    name = command.split()[-1]
    assert main(f"{command} --seed 5".split()) == 3
    message = f"--seed applies only to depround-k2, lex-bobw, charity, bounded-charity, not {name}"
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_solve_exits_2_when_an_audit_fails(capsys, tmp_path, monkeypatch):
    # _check looks check_efx up in the cli module when it runs
    def failing(inst, alloc):
        return AuditReport("efx", False, {"viewer": 0})

    monkeypatch.setattr(cli, "check_efx", failing)
    code, data = _run_json(capsys, ["solve", "FIX-D", "--algorithm", "utse"])
    assert code == 2
    assert data["error"] == "ex-post audit failed"
    assert data["audits"]["efx"] == {
        "property": "efx",
        "passed": False,
        "witness": {"support_index": 0, "inner": {"viewer": 0}},
    }
    assert data["audits"]["po_lex"]["passed"] is True
    target = tmp_path / "out.json"
    assert main(["solve", "FIX-D", "--algorithm", "utse", "-o", str(target)]) == 2
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text()) == data


@pytest.mark.parametrize("algorithm", ["utse", "lex-bobw"])
def test_solve_exits_2_when_the_tail_lottery_misses_its_floor(capsys, tmp_path, monkeypatch, algorithm):
    # FIX-D has k = 1, so the tail lottery owes 3/4; cmd_solve looks
    # min_exante_ratio up in the cli module when it runs
    argv = ["solve", "FIX-D", "--algorithm", algorithm]
    monkeypatch.setattr(cli, "min_exante_ratio", lambda dist, inst: Fraction(3, 4))
    code, passing = _run_json(capsys, argv)
    assert code == 0 and passing["audits"]["min_exante_ratio"] == "3/4"
    assert "floor" not in passing and "error" not in passing

    monkeypatch.setattr(cli, "min_exante_ratio", lambda dist, inst: Fraction(3, 4) - Fraction(1, 10**9))
    code, data = _run_json(capsys, argv)
    assert code == 2
    assert (data["error"], data["k"], data["floor"]) == ("ex-ante floor missed", 1, "3/4")
    assert data["audits"]["min_exante_ratio"] == "749999999/1000000000"
    assert data["audits"]["efx"]["passed"] is True
    target = tmp_path / "out.json"
    assert main([*argv, "-o", str(target)]) == 2
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text()) == data


def test_solve_floor_gate_skips_samples_and_uniform_orders(capsys, monkeypatch):
    # a k = 2 draw has no lottery to rate, and the uniform-order lottery owes 1/2-EF instead
    monkeypatch.setattr(cli, "min_exante_ratio", lambda dist, inst: Fraction(1, 100))
    assert _run_json(capsys, ["solve", "FIX-C", "--algorithm", "lex-bobw", "--seed", "5"])[0] == 0
    code, data = _run_json(capsys, ["solve", "FIX-B", "--algorithm", "uniform-perm"])
    assert code == 0 and data["audits"]["min_exante_ratio"] == "1/100"


def test_solve_refuses_decomposition_outside_utse(capsys):
    # refused before the file is read: missing.json does not exist
    assert main("solve FIX-D --algorithm uniform-perm --decomposition missing.json".split()) == 3
    assert capsys.readouterr() == ("", "error: --decomposition applies only to utse, not uniform-perm\n")


@pytest.mark.parametrize(
    "scenario", ["impossibility", "example-4-1", "utse-tight", "ps-baseline"]
)
def test_repro_scenarios_pass_and_reproduce(capsys, scenario):
    code1, out1 = _run(capsys, ["repro", scenario])
    code2, out2 = _run(capsys, ["repro", scenario])
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    data = json.loads(out1)
    assert data["scenario"] == scenario


def test_output_file_redirect(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out = _run(capsys, ["validate", "FIX-A", "-o", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["ok"] is True


def test_seed_type_rejects_out_of_range(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "FIX-C", "--algorithm", "depround-k2", "--seed", "-1"])


@pytest.mark.parametrize(
    "argv, message",
    [
        ("solve FIX-C --algorithm depround-k2 --seed 18446744073709551616", "seed must be an unsigned 64-bit integer"),
        ("solve FIX-C --algorithm depround-k2 --seed abc", "seed must be an unsigned 64-bit integer, got 'abc'"),
        ("solve FIX-C --algorithm nope", "invalid choice: 'nope'"),
        ("sample FIX-C --algorithm depround-k2 --seed 1 --count x", "invalid int value: 'x'"),
        ("nope FIX-C", "invalid choice: 'nope'"),
    ],
    ids=["seed-too-large", "seed-not-an-integer", "unknown-algorithm", "count-not-an-integer", "unknown-command"],
)
def test_usage_errors_are_bad_input(capsys, argv, message):
    # exit 2 means a checked property failed; a malformed command line is exit 3
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", ["--help", "solve --help"])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bobw")


# ---------------------------------------------------------------------------
# golden outputs: exit code and sha256 of stdout for one invocation of every
# algorithm, sampler, oracle op and verify mode, so a refactor of the command
# wiring cannot change a byte unnoticed


def test_utse_owes_nothing_to_additive_values_no_lexicographic_order_fits(capsys, tmp_path):
    # distinct additive values whose bundle values disagree with the
    # lexicographic order of the goods: the tail lottery's outcome 0 is not
    # EFX and its ratio 153/208 is below k = 1's floor of 3/4, and the audit
    # says so with exit 2
    values = (
        (44, 4, 42, 16, 23, 33, 35, 3, 32),
        (50, 22, 25, 10, 39, 17, 7, 48, 38),
        (29, 15, 6, 24, 23, 11, 3, 33, 19),
    )
    data = {"n": 3, "m": 9, "valuations": [{"kind": "additive", "values": list(v)} for v in values]}
    path = tmp_path / "additive.json"
    path.write_text(json.dumps(data))
    assert summarize(unit_run(instance_from_json(data))).k == 1
    code, out = _run_json(capsys, ["solve", str(path), "--algorithm", "utse"])
    assert (code, out["error"]) == (2, "ex-post audit failed")
    assert out["audits"]["efx"]["witness"] == {"support_index": 0, "inner": {"viewer": 0, "toward": 1, "good": 1}}
    assert out["audits"]["min_exante_ratio"] == "153/208"


def _verify_files(tmp_path) -> dict:
    inst = get_fixture("FIX-D")
    files = {
        "PASS": from_assignment([1, 0, 0], inst.n).to_json(),
        "FAIL": IntegralAllocation(
            bundles=(frozenset({0, 1}), frozenset()), pool=frozenset({2})
        ).to_json(),
        "DIST": utse(inst).to_json(),
    }
    paths = {}
    for key, data in files.items():
        path = tmp_path / f"{key.lower()}.json"
        path.write_text(json.dumps(data))
        paths[key] = str(path)
    return paths


_GOLDEN = [
    ("solve FIX-D --algorithm utse", 0, "f53da9a6eb1dc3185de19cc35c1bea6145be1015d61c1b2030dd19300032fa1e"),
    ("solve FIX-C --algorithm utse", 0, "b83e6b6cfb8bf8284cca445c4066921b33601c78f83ef2288f3d77861f478448"),
    ("solve FIX-D --algorithm lex-bobw", 0, "46419b0a41507990eb50738bdb864fcc8f24836f8bfb57eeb0612dd355bcc70c"),
    ("solve FIX-C --algorithm lex-bobw --seed 5", 0, "0fd7ec72ad47ce1996006f52c4626cb66abecead88af2614cf3189580601cf4a"),
    ("solve FIX-C --algorithm depround-k2 --seed 11", 0, "d332f8106c23f83efb38fde37727010937e36ce28a36e0e157a8afee91283bf7"),
    ("solve FIX-B --algorithm uniform-perm", 0, "7bdfd90b2e3e1c844c2e3a1b82f0eee442d7b4c3e7f6c17a5fbbbc2b90678025"),
    ("solve FIX-E --algorithm charity --seed 7", 0, "f8d29cd8ba32ae33a0c52a064c838b63fce7eebca724c9ac79b240691384f6c4"),
    ("solve FIX-E --algorithm bounded-charity --seed 7", 0, "78c9e95a16742385248e5c014bd3558579cf97b7bc0b29374980a9fbfca3b0ed"),
    ("solve FIX-E --algorithm bounded-charity --seed 7 --step-cap 1000", 0, "78c9e95a16742385248e5c014bd3558579cf97b7bc0b29374980a9fbfca3b0ed"),
    ("sample FIX-C --algorithm depround-k2 --seed 3 --count 4", 0, "6836048fa81d612c9f3fd695cd70ea101dc1b5d084b8d23061415fb87ad08a8a"),
    ("sample FIX-B --algorithm uniform-perm --seed 3 --count 4", 0, "aad8490389ef2290bd6351fab8e9592bdcc1aad428584f18bfafd39dab7c26a0"),
    ("sample FIX-E --algorithm charity --seed 3 --count 4", 0, "7cefb32527f558ca36103dc704fd4403f6ac323887333c70f8eef167e2c937f2"),
    ("sample FIX-E --algorithm bounded-charity --seed 3 --count 4", 0, "afdab1871656cac4193e2d0932093be6a71901ec7f978b05329651a610696979"),
    ("estimate FIX-C --sampler depround-k2 --samples 1000 --seed 2", 0, "b243f629869d006634208fec85ae2e560367137917c5addbad179a93e7fc6532"),
    ("estimate FIX-B --sampler uniform-perm --samples 1000 --seed 2", 0, "a45557c437b03cd2bef6264c4016e790c327754807b9a9c50bedaf8a941958dc"),
    ("estimate FIX-E --sampler charity --samples 1000 --seed 2", 0, "e8302f6a651bb9f4ec64ff0070753eadf085ec03fd2201e97ca4ccb6133bdb09"),
    ("estimate FIX-E --sampler bounded-charity --samples 1000 --seed 2", 0, "127cbf0a917b5af1389e086a735cc818a499181b47d5cc4dc14d2f048fd75ae0"),
    ("oracle FIX-A --op enumerate-efx", 0, "2f34581a4c3ab9847cdf7b4af65157035c7871b33eb8d2db792160954fec7b82"),
    ("oracle FIX-A --op sdef-feasibility", 0, "e31ad7cc9ba9446f91ce061d7b2b805b18e63df6302b744ef6ffcf1030927fb1"),
    ("oracle FIX-E --op exact-charity", 0, "35c6218986e6b3663242399febc433b2d245155ec500981a05496fe77981a538"),
    ("oracle FIX-E --op exact-bounded-charity", 0, "76b6dd6713604ce7c2c917380d218105709c9aa008d5af8c05f0c8aed6dcb635"),
    ("verify FIX-D --allocation PASS --properties efx,po-lex", 0, "87bf18905c66548653ea20776f55a65d181569a800de46c0287dd79aa8df9dcd"),
    ("verify FIX-D --allocation FAIL --properties efx", 2, "2bf8c1dbc22da897a8286f4dc855c59d5af87a0231a10f9a39abd0b4b00f7a7c"),
    ("verify FIX-D --allocation DIST --properties po-lex,sdef", 0, "a43c6c8bed161b639c41b177da3d27e7c46c565b4440a0c48fd84f66dce27839"),
    ("verify FIX-D --allocation PASS --properties sdef,efx", 2, "aa1002f3a47ef75a9e387bd6e322b99ace79fafb7898667ca603e10683cee61f"),
    ("repro impossibility", 0, "56c6d1e79090cd176480cda6acf91704e09cfebc4a7a06afd652e876dc08a439"),
    ("repro example-4-1", 0, "2d6730f26e0f8887db1c56767fdf3d6b136a4f5ddd70674ff92a733da5d98892"),
    ("repro utse-tight", 0, "d1d5356706b1fdafb4299662efec514c0a57fcf52c575331ddf27b238da01a88"),
    ("repro ps-baseline", 0, "d61d9bda4ae575b052014d1e2c213878a18edc4ac290e8a9ce077c9b0de4e79e"),
    ("eat FIX-C", 0, "18c8e65b38573f9ef808b4e47131870ac1803292985b4d786c695dc0260290a7"),
    ("eat FIX-A --duration 4/3", 0, "00c208ad468f4715dd0457d311aa63456fb08b26af03aedb0f3d3adca7848963"),
    ("eat FIX-C --duration 2/3 --pad 1", 0, "6fa1e71c3f2a21af7b79f97ee372ff10e15749133da44f9a7b814f78901a4be5"),
    ("solve FIX-C --algorithm lex-bobw", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("solve FIX-D --algorithm depround-k2 --seed 1", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("solve FIX-E --algorithm charity", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("command,code,digest", _GOLDEN, ids=[c for c, _, _ in _GOLDEN])
def test_golden_cli_output(capsys, tmp_path, command, code, digest):
    files = _verify_files(tmp_path)
    argv = [files.get(word, word) for word in command.split()]
    got_code, out = _run(capsys, argv)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
