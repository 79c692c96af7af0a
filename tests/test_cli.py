from __future__ import annotations

import json

import pytest

from bobw import IntegralAllocation, get_fixture, instance_to_json, utse
from bobw.cli import main

from helpers import from_assignment


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


def test_validate_fixture_ok(capsys):
    code, data = _run_json(capsys, ["validate", "FIX-A"])
    assert code == 0
    assert data["ok"] is True


def test_validate_reports_broken_instances(capsys, tmp_path):
    bad = {
        "n": 1,
        "m": 2,
        "valuations": [{"kind": "table", "values": ["0", "5", "1", "2"]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, data = _run_json(capsys, ["validate", str(path)])
    assert code == 2
    assert data["ok"] is False


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


def test_epsilon_override_rules(capsys, tmp_path):
    code, data = _run_json(capsys, ["validate", "FIX-B", "--epsilon", "1/100"])
    assert code == 0
    inst = get_fixture("FIX-D")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    assert main(["validate", str(path), "--epsilon", "1/100"]) == 3


def test_eat_report_shape(capsys):
    code, data = _run_json(capsys, ["eat", "FIX-D"])
    assert code == 0
    assert data["matrix"] == [["1/2", "1/2", "0"], ["1/2", "1/2", "0"]]
    assert data["k"] == "1"
    assert data["L"] == [1]
    assert data["U"] == [2]


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


def test_oracle_leaf_cap(capsys):
    code = main(["oracle", "FIX-E", "--op", "exact-charity", "--leaf-cap", "2"])
    assert code == 4
    assert "resource cap" in capsys.readouterr().err


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
