import csv
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nvlab
from conftest import strip_timestamps, write_replay_store
from nvlab.cli import main
from nvlab.config import ConfigError, RunConfig, build_plan
from nvlab.agents import AgentSpec
from nvlab.report import ReportError, build_report, load_trajectories
from nvlab import metrics, report, runner
from nvlab.runner import (ExperimentPlan, PlanCondition, RoundFailure, RunOutcome, load_plan,
                          replay, run_plan)
from nvlab.store import RoundRecord, RunStore


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def stripped_lines(path):
    with open(path, encoding="utf-8") as handle:
        return [strip_timestamps(line) for line in handle if line.strip()]


# --- config ------------------------------------------------------------------

def test_config_round_trips_losslessly(tmp_path):
    config = RunConfig(models=("m1", "m2"), experiments=("E1", "E3"),
                       distributions=("uniform",), repetitions=4, base_seed=11)
    config.to_file(tmp_path / "config.json")
    assert RunConfig.from_file(tmp_path / "config.json") == config


def test_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="repetitions"):
        RunConfig(repetitions=0)
    with pytest.raises(ConfigError, match="experiments"):
        RunConfig(experiments=("E9",))
    with pytest.raises(ConfigError, match="distributions"):
        RunConfig(distributions=("triangular",))
    with pytest.raises(ConfigError, match="credential_env"):
        RunConfig(credential_env="")
    with pytest.raises(ConfigError, match="concurrency"):
        RunConfig(concurrency=0)


@pytest.mark.parametrize("text, message", [
    ('{"models": "gpt-4o"}', "models: must be a list of strings, got 'gpt-4o'"),
    ('{"models": []}', "models: must not be empty"),
    ('{"distributions": ["uniform", 3]}', "distributions: must be a list of strings"),
    ('{"repetitions": "3"}', "repetitions: must be an integer, got '3'"),
    ('{"rounds": 2.5}', "rounds: must be an integer, got 2.5"),
    ('{"temperature": true}', "temperature: must be a number, got True"),
    ('{"request_budget": "10"}', "request_budget: must be an integer, got '10'"),
    ('{"transcript_continuity": "yes"}', "transcript_continuity: must be true or false"),
    ('{"output_dir": 7}', "output_dir: must be a string, got 7"),
    ('[]', "the config must be a JSON object, got list"),
], ids=["models-string", "models-empty", "distribution-number", "repetitions-string",
        "rounds-float", "temperature-bool", "budget-string", "continuity-string",
        "output-dir-number", "top-level-list"])
def test_config_values_of_the_wrong_json_type_are_config_errors(
        tmp_path, capsys, monkeypatch, text, message):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    path = tmp_path / "config.json"
    path.write_text(text)
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--print-config"]) == 2
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count(f"config error: {message}") == 2
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("field, value, message", [
    ("endpoint", "api.example/v1",
     "endpoint: must be an http or https URL with a host, got 'api.example/v1'"),
    ("endpoint", "http://[::1/v1", "endpoint: must be an http or https URL with a host"),
    ("backoff_base", -1, "backoff_base: must be >= 0 and finite, got -1"),
    ("rate_limit_per_minute", -5, "rate_limit_per_minute: must be > 0 and finite"),
    ("rate_limit_per_minute", 0, "rate_limit_per_minute: must be > 0 and finite"),
    ("temperature", math.nan, "temperature: must be >= 0 and finite, got nan"),
], ids=["endpoint-without-scheme", "endpoint-unclosed-ipv6", "backoff-negative",
        "rate-limit-negative", "rate-limit-zero", "temperature-nan"])
def test_config_values_the_run_cannot_use_are_config_errors(
        tmp_path, capsys, monkeypatch, stub_server, field, value, message):
    monkeypatch.setenv("NVLAB_TEST_KEY", "sk-test")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"endpoint": stub_server.url, "credential_env": "NVLAB_TEST_KEY",
                                "models": ["test-model"], "max_retries": 1, field: value}))
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--experiment", "E1", "--dist", "uniform",
                 "--order", "high-first", "--reps", "1", "--rounds", "2",
                 "--out", str(tmp_path / "runs")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {message}")
    assert not (tmp_path / "runs").exists()


def test_config_takes_integral_numbers_and_null_where_the_field_allows():
    config = RunConfig.from_dict({"temperature": 0, "backoff_base": 1, "request_budget": None,
                                  "rate_limit_per_minute": 30, "models": ["m"]})
    assert config.temperature == 0 and config.rate_limit_per_minute == 30
    assert config.request_budget is None and config.models == ("m",)


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="temprature"):
        RunConfig.from_dict({"temprature": 0.5})


def test_config_aliases_normalize():
    config = RunConfig(experiments=("E1",), distributions=("normal",))
    assert config.experiments == ("E1-baseline",)
    assert config.distributions == ("truncated-normal",)


def test_build_plan_skips_undefined_lognormal_risk_neutral():
    from nvlab.agents import AgentSpec
    config = RunConfig(experiments=("E3",), distributions=("uniform", "lognormal"))
    plan = build_plan(config, [AgentSpec("optimal")])
    assert all(c.dist_kind == "uniform" for c in plan.conditions)


# --- CLI ---------------------------------------------------------------------

def simulate(tmp_path, name, *extra):
    out = tmp_path / name
    code = main(["simulate", "--experiment", "E1", "--dist", "uniform",
                 "--agent", "optimal", "--reps", "2", "--seed", "5",
                 "--out", str(out), *extra])
    assert code == 0
    runs = sorted(out.iterdir())
    assert len(runs) == 1
    return runs[0]


def test_simulate_and_report_roundtrip(tmp_path, capsys):
    run_dir = simulate(tmp_path, "sim")
    capsys.readouterr()
    code = main(["report", str(run_dir), "--out", str(tmp_path / "report")])
    assert code == 0
    rows = read_csv(tmp_path / "report" / "bias_table.csv")
    assert rows[0]["deviation_high"] == "0.00"
    assert rows[0]["deviation_low"] == "0.00"
    assert rows[0]["pe_optimal_over_actual_pct_high"] == "100.00"
    assert rows[0]["pe_optimal_over_actual_pct_low"] == "100.00"


def test_simulate_identical_seeds_bit_identical(tmp_path):
    run_a = simulate(tmp_path, "a")
    run_b = simulate(tmp_path, "b")
    assert stripped_lines(run_a / "rounds.jsonl") == stripped_lines(run_b / "rounds.jsonl")
    assert (run_a / "manifest.json").read_text() == (run_b / "manifest.json").read_text()


def test_report_rerun_is_bit_identical(tmp_path, capsys):
    run_dir = simulate(tmp_path, "sim")
    main(["report", str(run_dir), "--out", str(tmp_path / "r1")])
    main(["report", str(run_dir), "--out", str(tmp_path / "r2")])
    for name in sorted(os.listdir(tmp_path / "r1")):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, name


def test_report_does_not_mutate_store(tmp_path):
    run_dir = simulate(tmp_path, "sim")
    before = (run_dir / "rounds.jsonl").read_bytes(), (run_dir / "manifest.json").read_bytes()
    main(["report", str(run_dir), "--out", str(tmp_path / "report")])
    after = (run_dir / "rounds.jsonl").read_bytes(), (run_dir / "manifest.json").read_bytes()
    assert before == after


def test_simulate_rejects_llm_agent(tmp_path, capsys):
    code = main(["simulate", "--agent", "llm", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_run_with_llm_and_missing_credential_fails_fast(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NVLAB_TEST_KEY", raising=False)
    config = RunConfig(credential_env="NVLAB_TEST_KEY")
    config.to_file(tmp_path / "config.json")
    code = main(["run", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "NVLAB_TEST_KEY" in err


def test_run_with_scripted_agent_needs_no_credential(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    code = main(["run", "--experiment", "E1", "--dist", "uniform",
                 "--agent", "optimal", "--reps", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 0


@pytest.mark.parametrize("flags, field", [
    (["--agent", "mean-anchor", "--anchor-weight", "2"], "anchor_weight"),
    (["--agent", "demand-chaser", "--chase-rate", "-1"], "chase_rate"),
    (["--agent", "demand-chaser", "--chase-rate", "nan"], "chase_rate"),
    (["--agent", "demand-chaser", "--chase-rate", "inf"], "chase_rate"),
], ids=["anchor-weight-2", "chase-rate-negative", "chase-rate-nan", "chase-rate-inf"])
def test_an_agent_flag_the_run_cannot_use_is_a_config_error(tmp_path, capsys, flags, field):
    capsys.readouterr()
    assert main(["simulate", *flags, "--reps", "1", "--rounds", "2",
                 "--out", str(tmp_path / "runs")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: agent ") and field in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("field, value", [
    ("chase_rate", math.nan), ("chase_rate", math.inf), ("chase_rate_before", math.inf),
], ids=["chase-rate-nan", "chase-rate-inf", "chase-rate-before-inf"])
def test_a_stored_agent_rate_that_is_not_finite_is_a_malformed_plan(
        tmp_path, capsys, field, value):
    assert main(["simulate", "--experiment", "E1", "--dist", "uniform", "--agent",
                 "demand-chaser", "--reps", "1", "--rounds", "2",
                 "--out", str(tmp_path / "runs")]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for condition in manifest["plan"]["conditions"]:
        condition["agent"][field] = value
    from nvlab.store import canonical_json, sha256_text
    manifest["plan_hash"] = sha256_text(canonical_json(manifest["plan"]))  # a consistent plan
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["simulate", "--resume", str(run_dir)]) == 5
    assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 5
    err = capsys.readouterr().err
    assert err.count("integrity error: malformed plan in ") == 2 and err.count(field) == 2


@pytest.mark.parametrize("key", ["sk-secret\n", "sk-sec\r\nret", "sk-\rsecret", "sk-secretключ"],
                         ids=["trailing-lf", "crlf", "cr", "not-ascii"])
def test_a_credential_with_a_line_break_is_a_config_error(
        tmp_path, capsys, monkeypatch, stub_server, key):
    config_path = llm_config(tmp_path, stub_server, monkeypatch)
    monkeypatch.setenv("NVLAB_TEST_KEY", key)
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--experiment", "E1",
                 "--dist", "uniform", "--order", "high-first", "--reps", "1",
                 "--rounds", "2", "--out", str(tmp_path / "runs")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: credential_env: ") and "'NVLAB_TEST_KEY'" in err
    assert "secret" not in out + err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_an_out_path_that_is_not_a_directory_is_a_config_error(tmp_path, capsys, command):
    run_dir = simulate(tmp_path, "sim")
    afile = tmp_path / "afile"
    afile.write_text("kept")
    args = ["simulate", "--reps", "1", "--rounds", "2"] if command == "simulate" else [
        "report", str(run_dir)]
    name = "output_dir" if command == "simulate" else "--out"
    for out in (afile, afile / "sub"):
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {name}: {str(out)!r} is not a")
    assert afile.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "sim"]


def test_a_usage_that_is_not_an_object_is_dropped_and_the_run_completes(
        tmp_path, stub_server, monkeypatch):
    """The endpoint's ``usage`` is a string, then a number; neither stops the run."""
    stub_server.mode = "bad-usage"
    monkeypatch.setenv("NVLAB_TEST_KEY", "sk-test")
    RunConfig(endpoint=stub_server.url, credential_env="NVLAB_TEST_KEY", models=("m",),
              max_retries=0).to_file(tmp_path / "config.json")
    assert main(["run", "--config", str(tmp_path / "config.json"), "--experiment", "E1",
                 "--dist", "uniform", "--order", "high-first", "--reps", "1", "--rounds", "2",
                 "--out", str(tmp_path / "runs")]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    records = RunStore(run_dir).records()
    assert len(records) == 4 and all(r.token_usage is None for r in records)
    assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 0


def test_print_config_dumps_resolved_plan(tmp_path, capsys):
    code = main(["simulate", "--experiment", "E1", "--dist", "uniform",
                 "--agent", "optimal", "--reps", "3", "--print-config",
                 "--out", str(tmp_path / "x")])
    assert code == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["config"]["repetitions"] == 3
    assert resolved["plans"][0]["run_id"].startswith("run-")
    assert not (tmp_path / "x").exists()  # print-only, nothing executed


def test_print_config_of_a_resume_prints_the_stored_plan_and_writes_nothing(tmp_path, capsys):
    assert main(["simulate", "--experiment", "E1", "--dist", "uniform", "--agent", "optimal",
                 "--reps", "1", "--rounds", "2", "--out", str(tmp_path / "runs")]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    assert main(["simulate", "--resume", str(run_dir), "--print-config"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["plans"] == [
        {"agent": "optimal", "run_id": manifest["run_id"], "plan": manifest["plan"]}]
    (run_dir / "manifest.json").write_text("{", encoding="utf-8")
    before["manifest.json"] = b"{"
    assert main(["simulate", "--resume", str(run_dir), "--print-config"]) == 5
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_validate_prompts_cli_passes(capsys):
    assert main(["validate-prompts"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok:") == 3


def test_validate_prompts_fails_on_template_edit(tmp_path, capsys, monkeypatch):
    import shutil
    import nvlab.prompts as prompts
    assets = tmp_path / "assets"
    shutil.copytree(prompts._asset_root(), assets)
    base = assets / "templates" / "base.txt"
    base.write_text(base.read_text().replace("wodgets", "widgets"), encoding="utf-8")
    monkeypatch.setattr(prompts, "_asset_root", lambda: assets)
    monkeypatch.setattr(prompts, "default_templates", prompts.load_templates)
    assert main(["validate-prompts"]) == 2
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "widgets" in out


def test_validate_prompts_reports_missing_golden(tmp_path, capsys, monkeypatch):
    import shutil
    import nvlab.prompts as prompts
    assets = tmp_path / "assets"
    shutil.copytree(prompts._asset_root(), assets)
    (assets / "golden" / "e2_low_normal_round5.txt").unlink()
    monkeypatch.setattr(prompts, "_asset_root", lambda: assets)
    monkeypatch.setattr(prompts, "default_templates", prompts.load_templates)
    assert main(["validate-prompts"]) == 2
    assert "missing golden file" in capsys.readouterr().out


def test_report_errors_on_empty_input(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    code = main(["report", str(empty), "--out", str(tmp_path / "r")])
    assert code == 5  # no manifest -> integrity error


@pytest.mark.parametrize("again", ["{run}/", "{run}/../{name}"], ids=["slash", "dotdot"])
def test_report_rejects_a_store_given_twice(tmp_path, capsys, again):
    """Pooling a store with itself would count each of its trajectories twice."""
    run_dir = simulate(tmp_path, "sim")
    capsys.readouterr()
    twice = again.format(run=run_dir, name=run_dir.name)
    code = main(["report", str(run_dir), twice, "--out", str(tmp_path / "report")])
    assert code == 2
    assert f"run directory {Path(twice)} is given twice" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()
    with pytest.raises(ReportError, match="given twice"):
        load_trajectories([run_dir, run_dir])


def llm_config(tmp_path, stub_server, monkeypatch, **overrides):
    monkeypatch.setenv("NVLAB_TEST_KEY", "sk-test")
    config = RunConfig(endpoint=stub_server.url, credential_env="NVLAB_TEST_KEY",
                       models=("test-model",), max_retries=1, backoff_base=0.001,
                       **overrides)
    path = tmp_path / "config.json"
    config.to_file(path)
    return path


def test_run_exit_code_for_parse_failures(tmp_path, stub_server, monkeypatch, capsys):
    stub_server.reply_fn = lambda body: "no decision from me"
    config_path = llm_config(tmp_path, stub_server, monkeypatch)
    code = main(["run", "--config", str(config_path), "--experiment", "E1",
                 "--dist", "uniform", "--order", "high-first", "--reps", "1",
                 "--rounds", "2", "--out", str(tmp_path / "runs")])
    assert code == 4
    assert "parse" in capsys.readouterr().err


def test_run_prints_each_unresolved_round_on_one_stderr_line(
        tmp_path, stub_server, monkeypatch, capsys, caplog):
    # round 1 of the first block is answered; its round 2 is not, which ends the repetition
    stub_server.reply_fn = lambda body: (
        "I will order 150 wodgets." if len(stub_server.requests) == 1 else "no decision from me")
    config_path = llm_config(tmp_path, stub_server, monkeypatch)
    with caplog.at_level("WARNING", logger="nvlab.runner"):
        code = main(["run", "--config", str(config_path), "--experiment", "E1",
                     "--dist", "uniform", "--order", "high-first", "--reps", "1",
                     "--rounds", "2", "--out", str(tmp_path / "runs")])
    assert code == 4
    failure = ("condition=0 rep=0 block=1 round=2 (parse): "
               "no plausible order in range [0, 600] found in response")
    assert capsys.readouterr().err == f"  unresolved: {failure}\n"
    assert [r.getMessage() for r in caplog.records if r.name == "nvlab.runner"] == [
        f"unresolved round: {failure}"]


def test_run_exit_code_for_transport_failures(tmp_path, stub_server, monkeypatch, capsys):
    stub_server.mode = "always-429"
    config_path = llm_config(tmp_path, stub_server, monkeypatch)
    code = main(["run", "--config", str(config_path), "--experiment", "E1",
                 "--dist", "uniform", "--order", "high-first", "--reps", "1",
                 "--rounds", "2", "--out", str(tmp_path / "runs")])
    assert code == 3
    assert "transport" in capsys.readouterr().err


@pytest.mark.parametrize("kinds, code", [
    (("parse", "transport"), 3),
    (("transport", "parse"), 3),
    (("parse", "parse"), 4),
], ids=["parse-then-transport", "transport-then-parse", "parse-only"])
def test_exit_code_does_not_depend_on_failure_order(tmp_path, monkeypatch, capsys, kinds, code):
    """Any transport failure exits 3, wherever it sorts; only parse failures exit 4."""
    failures = [RoundFailure(0, rep, 1, 1, kind, f"{kind} failed")
                for rep, kind in enumerate(kinds)]
    monkeypatch.setattr(runner, "resume", lambda run_dir, **_: RunOutcome(
        "run-x", RunStore(run_dir), [], failures))
    assert main(["simulate", "--resume", str(tmp_path / "run")]) == code
    assert re.findall(r"\((\w+)\): ", capsys.readouterr().err) == list(kinds)


def test_run_against_stub_endpoint_completes(tmp_path, stub_server, monkeypatch, capsys):
    config_path = llm_config(tmp_path, stub_server, monkeypatch)
    code = main(["run", "--config", str(config_path), "--experiment", "E1",
                 "--dist", "uniform", "--order", "high-first", "--reps", "1",
                 "--rounds", "3", "--out", str(tmp_path / "runs")])
    assert code == 0
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    code = main(["report", str(run_dirs[0]), "--out", str(tmp_path / "report")])
    assert code == 0
    rows = read_csv(tmp_path / "report" / "bias_table.csv")
    assert rows[0]["agent"] == "test-model"
    assert rows[0]["mean_order_high"] == "150.00"  # the stub always orders 150


def test_request_budget_caps_the_whole_run_not_each_condition(
        tmp_path, stub_server, monkeypatch):
    config_path = llm_config(tmp_path, stub_server, monkeypatch, request_budget=25)
    code = main(["run", "--config", str(config_path), "--experiment", "E1",
                 "--dist", "uniform", "--reps", "2", "--rounds", "10",
                 "--out", str(tmp_path / "runs")])
    assert code == 3  # the two conditions need 80 rounds
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert len(load_plan(RunStore(run_dir)).conditions) == 2
    assert len(RunStore(run_dir).records()) == 25
    assert len(stub_server.requests) == 25


def test_simulate_resume_of_a_torn_store_exits_0(tmp_path, capsys):
    run_dir = simulate(tmp_path, "sim")
    full = stripped_lines(run_dir / "rounds.jsonl")
    rounds_path = run_dir / "rounds.jsonl"
    rounds_path.write_bytes(rounds_path.read_bytes()[:-25])
    assert main(["simulate", "--resume", str(run_dir)]) == 0
    assert stripped_lines(rounds_path) == full
    assert (run_dir / "rounds.jsonl.torn").exists()


@pytest.mark.parametrize("round_3", ["dropped", "kept"])
def test_a_stored_order_past_2_to_the_53_is_refused(tmp_path, capsys, round_3):
    """An order a float cannot hold, with its profits in agreement, is past the order bound.

    Both commands refuse round 2 whether or not round 3 is stored: with it dropped, a resume
    would otherwise decide round 3 from a prompt that reports the order.
    """
    assert main(["simulate", "--experiment", "E1", "--dist", "uniform", "--order", "high-first",
                 "--agent", "optimal", "--reps", "1", "--rounds", "3",
                 "--out", str(tmp_path / "runs")]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    path = run_dir / "rounds.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    rounds = [json.loads(line) for line in lines[:3]]
    sc = nvlab.scenario("E1-baseline", rounds[0]["margin"], "uniform", 3)
    cumulative = 0
    for record, order in zip(rounds, (rounds[0]["order"], 2**53 + 1, rounds[2]["order"])):
        record["order"] = order
        record["profit"] = nvlab.profit(order, record["demand"], sc.cost)
        cumulative += record["profit"]
        record["cumulative_profit"] = cumulative
    lines[:3] = [json.dumps(record) for record in rounds[:3 if round_3 == "kept" else 2]]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    err = refused_by_both_commands(tmp_path, capsys, run_dir)
    assert err.count("round=2): field 'order' is 9007199254740993, not in [0, 600]") == 2, err


def llm_store(tmp_path, stub_server, monkeypatch):
    """An LLM run of 2 blocks of 2 rounds against the stub, minus its final round."""
    config_path = llm_config(tmp_path, stub_server, monkeypatch)
    assert main(["run", "--config", str(config_path), "--experiment", "E1", "--dist", "uniform",
                 "--order", "high-first", "--reps", "1", "--rounds", "2",
                 "--out", str(tmp_path / "runs")]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    path = run_dir / "rounds.jsonl"
    full = path.read_bytes()
    path.write_bytes(full[:full.rindex(b"\n", 0, -1) + 1])
    return config_path, run_dir, full


def test_run_resume_decides_with_the_stored_plans_agents(tmp_path, stub_server, monkeypatch):
    config_path, run_dir, full = llm_store(tmp_path, stub_server, monkeypatch)
    requests = len(stub_server.requests)
    args = ["run", "--config", str(config_path), "--agent", "optimal", "--resume", str(run_dir)]
    assert main(args) == 0
    assert len(stub_server.requests) == requests + 1  # the one round the store lacked
    assert stripped_lines(run_dir / "rounds.jsonl") == [
        strip_timestamps(line) for line in full.decode("utf-8").splitlines()]
    assert main(args) == 0  # complete: a no-op that sends nothing
    assert len(stub_server.requests) == requests + 1


def test_run_resume_of_an_llm_store_without_its_credential_exits_2(
        tmp_path, stub_server, monkeypatch, capsys):
    config_path, run_dir, _ = llm_store(tmp_path, stub_server, monkeypatch)
    monkeypatch.delenv("NVLAB_TEST_KEY")
    path = run_dir / "rounds.jsonl"
    path.write_bytes(path.read_bytes() + b'{"torn')
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--agent", "optimal",
                 "--resume", str(run_dir)]) == 2
    assert "NVLAB_TEST_KEY" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_simulate_refuses_to_resume_an_llm_store_and_writes_nothing(
        tmp_path, stub_server, monkeypatch, capsys):
    _, run_dir, _ = llm_store(tmp_path, stub_server, monkeypatch)
    path = run_dir / "rounds.jsonl"
    path.write_bytes(path.read_bytes() + b'{"torn')
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    requests = len(stub_server.requests)
    capsys.readouterr()
    assert main(["simulate", "--resume", str(run_dir)]) == 2
    assert "simulate is offline-only" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    assert len(stub_server.requests) == requests


def test_run_resume_of_a_scripted_store_needs_no_credential(tmp_path, monkeypatch):
    run_dir = simulate(tmp_path, "sim")
    path = run_dir / "rounds.jsonl"
    full = path.read_bytes()
    path.write_bytes(full[:full.rindex(b"\n", 0, -1) + 1])
    monkeypatch.delenv(RunConfig().credential_env, raising=False)
    assert main(["run", "--resume", str(run_dir)]) == 0  # --agent defaults to llm for run
    assert stripped_lines(path) == [
        strip_timestamps(line) for line in full.decode("utf-8").splitlines()]


def test_verbose_run_logs_each_chat_request_with_its_thread(tmp_path, stub_server, monkeypatch):
    config_path = llm_config(tmp_path, stub_server, monkeypatch, concurrency=2)
    env = dict(os.environ, PYTHONPATH=str(Path(nvlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "nvlab.cli", "-v", "run", "--config", str(config_path),
         "--experiment", "E1", "--dist", "uniform", "--order", "high-first", "--reps", "3",
         "--rounds", "2", "--out", str(tmp_path / "runs")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    chat_lines = [line for line in proc.stderr.splitlines() if "chat ok" in line]
    assert len(chat_lines) == 12  # 3 repetitions x 2 blocks x 2 rounds
    # the config's concurrency sizes the pool
    assert {line.split()[3] for line in chat_lines} <= {"nvlab-unit_0", "nvlab-unit_1"}


# --- report content ----------------------------------------------------------

def test_report_replay_fixture_matches_reported_deviations(tmp_path):
    write_replay_store(tmp_path / "fixture", [
        ("uniform", "model-a", 182.42, 175.25),
        ("truncated-normal", "model-a", 181.07, 175.58),
    ])
    bundle = build_report([tmp_path / "fixture"], tmp_path / "report")
    rows = {(r["distribution"], r["agent"]): r for r in read_csv(bundle.files["bias_table.csv"])}
    uniform = rows[("uniform", "model-a")]
    assert uniform["deviation_high"] == "-42.58"
    assert uniform["deviation_low"] == "100.25"
    normal = rows[("truncated-normal", "model-a")]
    assert normal["deviation_high"] == "-2.93"
    assert normal["deviation_low"] == "58.58"


def test_report_compare_humans_adds_sourced_rows(tmp_path):
    write_replay_store(tmp_path / "fixture", [
        ("uniform", "model-a", 182.42, 175.25),
        ("uniform", "model-b", 176.03, 168.89),
    ])
    bundle = build_report([tmp_path / "fixture"], tmp_path / "report", compare_humans=True)
    rows = read_csv(bundle.files["bias_table.csv"])
    human = [r for r in rows if r["agent"] == "humans"]
    assert len(human) == 1  # one reference row per distribution, not per agent
    assert human[0]["deviation_high"] == "-48.17"
    assert human[0]["deviation_low"] == "59.06"
    assert "Schweitzer" in human[0]["source"]
    mas_rows = read_csv(bundle.files["mas_table.csv"])
    human_mas = [r for r in mas_rows if r["agent"] == "humans"]
    assert human_mas and human_mas[0]["mas_high"] == "0.360"
    quartiles = read_csv(bundle.files["quartile_table.csv"])
    human_quartiles = [r for r in quartiles if r["agent"] == "humans"]
    assert {r["error_quartile"] for r in human_quartiles} == {"Q1", "Q4"}


def test_human_rows_follow_the_first_rows_of_their_key_once(tmp_path):
    """A key's human rows follow its first "this run" rows: in the quartile table, those of
    the first agent whose pool can be cut into quartiles."""
    # the chaser sorts first; 1 repetition of 2-round blocks pools 2 adjustments per order
    assert main(["simulate", "--agent", "demand-chaser", "--experiment", "E1", "--dist",
                 "uniform", "--reps", "1", "--rounds", "2", "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--agent", "optimal", "--experiment", "E1", "--dist", "uniform",
                 "--reps", "1", "--out", str(tmp_path / "b")]) == 0
    stores = [*(tmp_path / "a").iterdir(), *(tmp_path / "b").iterdir()]
    bundle = build_report(stores, tmp_path / "report", compare_humans=True)

    def agents(filename, *columns):
        rows = read_csv(bundle.files[filename])
        return [(r["agent"], *(r[c] for c in columns)) for r in rows]

    chaser = "demand-chaser(alpha=1)"
    assert agents("bias_table.csv") == [(chaser,), ("humans",), ("optimal",)]
    assert agents("mas_table.csv", "order_condition") == [
        (agent, order) for order in ("high-first", "low-first")
        for agent in (chaser, "humans", "optimal")]
    assert agents("quartile_table.csv", "order_condition", "error_quartile") == [
        row for order in ("high-first", "low-first")
        for row in [*(("optimal", order, q) for q in ("Q1", "Q2", "Q3", "Q4")),
                    ("humans", order, "Q1"), ("humans", order, "Q4")]]


@pytest.mark.parametrize("rounds", ["15", "2", "1"])
def test_every_cell_of_every_table_is_a_str(tmp_path, rounds):
    """The markdown table joins the cells as they are: each table builds them as str."""
    assert main(["simulate", "--reps", "2", "--rounds", rounds, "--out", str(tmp_path)]) == 0
    trajectories = load_trajectories(sorted(tmp_path.iterdir()))
    tables = [table(trajectories, True) for table in (report.bias_rows, report.mas_rows,
                                                        report.quartile_rows)]
    tables += [table(trajectories) for table in (
        report.risk_neutral_rows, report.learning_rows, report.round_trajectory_rows,
        report.adjustment_share_rows, report.word_frequency_rows)]
    for header, rows in tables:
        assert rows or rounds == "1"  # one-round blocks have no adjustments
        assert all(type(cell) is str for row in [header, *rows] for cell in row)
    assert any(row[2] == "humans" for row in tables[0][1])


def test_report_word_frequencies(tmp_path):
    write_replay_store(tmp_path / "fixture", [("uniform", "model-a", 182.42, 175.25)])
    bundle = build_report([tmp_path / "fixture"], tmp_path / "report")
    rows = read_csv(bundle.files["word_frequencies.csv"])
    terms = {r["term"]: int(r["count"]) for r in rows}
    assert terms["replay"] == 200
    assert "the" not in terms


def test_report_round_trajectories_shape(tmp_path):
    write_replay_store(tmp_path / "fixture", [("uniform", "model-a", 182.45, 175.25)],
                       reps=2, rounds=10)
    bundle = build_report([tmp_path / "fixture"], tmp_path / "report")
    rows = read_csv(bundle.files["round_trajectories.csv"])
    assert len(rows) == 20  # 2 blocks x 10 rounds
    assert {r["margin"] for r in rows} == {"high", "low"}
    assert all(r["n_repetitions"] == "2" for r in rows)


def test_load_trajectories_excludes_incomplete(tmp_path):
    run_dir = tmp_path / "fixture"
    write_replay_store(run_dir, [("uniform", "model-a", 182.45, 175.25)], reps=2, rounds=10)
    lines = (run_dir / "rounds.jsonl").read_text().splitlines()
    (run_dir / "rounds.jsonl").write_text("\n".join(lines[:-3]) + "\n")
    complete = load_trajectories([run_dir])
    assert len(complete) == 3
    store = RunStore(run_dir)
    blocks = replay(load_plan(store), store.records()).values()
    assert sorted(len(b.records) for b in blocks) == [7, 10, 10, 10]


def test_report_requires_complete_trajectories(tmp_path):
    run_dir = tmp_path / "fixture"
    write_replay_store(run_dir, [("uniform", "model-a", 182.4, 175.2)], reps=1, rounds=5)
    lines = (run_dir / "rounds.jsonl").read_text().splitlines()
    (run_dir / "rounds.jsonl").write_text("\n".join(lines[:3]) + "\n")
    with pytest.raises(ReportError):
        build_report([run_dir], tmp_path / "report")


def test_conditions_of_different_lengths_are_complete_and_reported(tmp_path):
    chaser = AgentSpec("demand-chaser", chase_rate=0.5)
    plan = ExperimentPlan((
        PlanCondition("E1-baseline", "uniform", chaser, "high-first",
                      repetitions=2, rounds_per_block=3, base_seed=7),
        PlanCondition("E1-baseline", "truncated-normal", chaser, "high-first",
                      repetitions=2, rounds_per_block=5, base_seed=7),
    ))
    outcome = run_plan(plan, tmp_path / "run")
    assert outcome.complete
    bundle = build_report([tmp_path / "run"], tmp_path / "report")
    rows = read_csv(bundle.files["bias_table.csv"])
    assert [r["distribution"] for r in rows] == ["uniform", "truncated-normal"]


def reference_learning_rows(trajectories):
    """The learning table's rows, each margin group fitted on its own by `average_learning_stats`."""
    rows = []
    for (experiment, _, dist, agent, _, margin), group in report._group(trajectories,
                                                                        report._margin_key):
        try:
            stats = metrics.average_learning_stats(group)
        except metrics.MetricsError:  # a block too short for the early/late split
            cells = ["", "", ""]
        else:
            cells = [report._fmt(stats[name], 3)
                     for name in ("convergence_slope", "efficiency_slope", "delta_r2")]
        rows.append([experiment, dist, agent, margin, *cells, str(len(group))])
    return rows


def test_learning_rows_fit_once_and_match_the_per_group_averages(tmp_path):
    """15- and 2-round stores whose agents share scenarios: a group of 15-round blocks has
    cells, and one with a 2-round block is blank, as each group fitted alone gives."""
    chaser, anchor = AgentSpec("demand-chaser", chase_rate=0.5), AgentSpec("mean-anchor",
                                                                           anchor_weight=0.3)
    runs = []
    for rounds, agents in ((15, [chaser, AgentSpec("random"), anchor]),
                           (2, [chaser, AgentSpec("optimal")])):
        config = RunConfig(experiments=("E1", "E2"), distributions=("uniform",),
                           repetitions=2, rounds=rounds, base_seed=3)
        plan = build_plan(config, agents)
        assert run_plan(plan, tmp_path / plan.run_id()).complete
        runs.append(tmp_path / plan.run_id())
    trajectories = load_trajectories(runs)
    header, rows = report.learning_rows(trajectories)
    assert rows == reference_learning_rows(trajectories)
    filled = {(row[2], row[4] != "") for row in rows}
    assert filled == {(chaser.label, False), ("random", True), (anchor.label, True),
                      ("optimal", False)}
    # per margin, 2 repetitions of each order in each store
    assert {row[-1] for row in rows if row[2] == chaser.label} == {"8"}


@pytest.mark.parametrize("edit", [
    lambda agent: agent.update(colour="red"),
    lambda agent: agent.pop("kind"),
], ids=["unknown-key", "missing-kind"])
def test_malformed_agent_in_manifest_is_an_integrity_error(tmp_path, capsys, edit):
    run_dir = simulate(tmp_path, "sim")
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest["plan"]["conditions"][0]["agent"])
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["simulate", "--resume", str(run_dir)]) == 5
    assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 5
    assert capsys.readouterr().err.count("integrity error") == 2


def test_report_of_one_round_runs_writes_a_bundle(tmp_path, capsys):
    """A 1-round trajectory has no adjustment: no quartile or per-round share rows."""
    assert main(["simulate", "--reps", "2", "--rounds", "1", "--out", str(tmp_path / "runs")]) == 0
    runs = sorted(str(p) for p in (tmp_path / "runs").iterdir())
    assert len(runs) == 4
    assert main(["report", *runs, "--out", str(tmp_path / "report"), "--compare-humans"]) == 0
    assert "Complete trajectories: 192" in (tmp_path / "report" / "report.md").read_text()
    assert [r for r in read_csv(tmp_path / "report" / "quartile_table.csv")
            if r["source"] == "this run"] == []
    assert read_csv(tmp_path / "report" / "adjustment_shares_by_round.csv") == []


def test_one_round_runs_add_nothing_to_the_adjustment_tables(tmp_path, capsys):
    """Stores of different lengths share report groups; the 1-round ones add no events."""
    for rounds in ("1", "4"):
        assert main(["simulate", "--agent", "demand-chaser", "--reps", "3", "--rounds", rounds,
                     "--out", str(tmp_path / f"runs-{rounds}")]) == 0
    [short], [long] = ([str(p) for p in (tmp_path / name).iterdir()]
                       for name in ("runs-1", "runs-4"))
    assert main(["report", short, long, "--out", str(tmp_path / "both")]) == 0
    assert main(["report", long, "--out", str(tmp_path / "long")]) == 0
    for name in ("quartile_table.csv", "adjustment_shares_by_round.csv"):
        both = (tmp_path / "both" / name).read_text()
        assert both == (tmp_path / "long" / name).read_text()
        assert len(both.splitlines()) > 1


def edit_block(run_dir, changes, copy=True):
    """Apply ``changes`` to condition 0's repetition 0, block 1: to a copy, or in place."""
    path = run_dir / "rounds.jsonl"
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if (record["condition_index"], record["repetition"], record["block_index"]) == (0, 0, 1):
            edited = json.dumps({**record, **changes})
            lines += [line, edited] if copy else [edited]
        else:
            lines.append(line)
    path.write_text("\n".join(lines) + "\n")


def append_round_past_the_block(run_dir):
    """Append a round 16 to condition 0's repetition 0, block 1, consistent with its round 15."""
    path = run_dir / "rounds.jsonl"
    last = next(record for record in map(json.loads, path.read_text().splitlines())
                if (record["condition_index"], record["repetition"], record["block_index"],
                    record["round_index"]) == (0, 0, 1, 15))
    past = {**last, "round_index": 16,
            "cumulative_profit": last["cumulative_profit"] + last["profit"]}
    with path.open("a") as handle:
        handle.write(json.dumps(past) + "\n")


@pytest.mark.parametrize("changes, copy, round_index", [
    pytest.param({"condition_index": 3}, True, 1, id="condition-past-the-plan"),
    pytest.param({"condition_index": -1}, True, 1, id="negative-condition"),
    pytest.param({"repetition": 4}, True, 1, id="repetition-past-the-plan"),
    pytest.param({"repetition": -1}, True, 1, id="negative-repetition"),
    pytest.param({"block_index": 3}, True, 1, id="block-3"),
    pytest.param({"order_condition": "low-first"}, True, 1, id="other-order"),
    pytest.param({"margin": "low"}, False, 1, id="other-margin"),
    pytest.param(None, None, 16, id="round-past-the-block"),
])
def test_identity_outside_the_plan_is_an_integrity_error(tmp_path, capsys, changes, copy,
                                                         round_index):
    run_dir = simulate(tmp_path, "sim")  # 2 conditions (one per order) x 2 repetitions
    if changes is None:
        append_round_past_the_block(run_dir)
    else:
        edit_block(run_dir, changes, copy)
    stored = (run_dir / "rounds.jsonl").read_bytes()
    capsys.readouterr()
    assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 5
    assert main(["simulate", "--resume", str(run_dir)]) == 5
    err = capsys.readouterr().err
    assert err.count("is outside the plan") == 2
    assert f"round={round_index}) is outside the plan" in err
    assert not (tmp_path / "report").exists()
    assert (run_dir / "rounds.jsonl").read_bytes() == stored


def retype_second_round(tmp_path, field, retype):
    """A 3-round `optimal` store whose second line holds ``field`` as ``retype`` of its value."""
    run_dir = simulate(tmp_path, "sim", "--rounds", "3")
    path = run_dir / "rounds.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    value = retype(record[field])
    lines[1] = json.dumps({**record, field: value})
    path.write_text("\n".join(lines) + "\n")
    return run_dir, value


# each RoundRecord field, one JSON type its annotation refuses, and the type it names
WRONG_JSON_TYPES = [
    ("order", str, "an integer"), ("demand", float, "an integer"),
    ("repetition", str, "an integer"), ("round_index", str, "an integer"),
    ("condition_index", float, "an integer"), ("block_index", bool, "an integer"),
    ("run_id", len, "a string"), ("agent", lambda _: None, "a string"),
    ("experiment", lambda v: [v], "a string"), ("dist", lambda v: {"kind": v}, "a string"),
    ("order_condition", bool, "a string"), ("margin", lambda _: 0.5, "a string"),
    ("profit", float, "an integer"), ("cumulative_profit", lambda _: None, "an integer"),
    ("parse_confidence", len, "a string"), ("prompt_sha256", lambda v: [v], "a string"),
    ("raw_response", lambda _: None, "a string"), ("retries", bool, "an integer"),
    ("token_usage", lambda _: [], "an object"), ("ts_start", str, "a number"),
    ("ts_end", lambda _: None, "a number"),
]


def test_the_wrong_json_types_cover_every_record_field():
    assert sorted(field for field, _, _ in WRONG_JSON_TYPES) == sorted(RoundRecord._fields)


@pytest.mark.parametrize("command", ["report", "resume"])
@pytest.mark.parametrize("field, retype, wanted", WRONG_JSON_TYPES, ids=[
        "order-string", "demand-float", "repetition-string", "round-string", "condition-float", "block-bool", "run-id-int", "agent-null", "experiment-list",
        "dist-object", "order-condition-bool", "margin-float", "profit-float",
        "cumulative-profit-null", "confidence-int", "prompt-hash-list", "response-null",
        "retries-bool", "token-usage-list", "ts-start-string", "ts-end-null"])
def test_a_stored_field_of_the_wrong_json_type_is_an_integrity_error(
        tmp_path, capsys, command, field, retype, wanted):
    """Each `RoundRecord` field, as one JSON type its annotation refuses, is refused by name."""
    run_dir, value = retype_second_round(tmp_path, field, retype)
    path = run_dir / "rounds.jsonl"
    stored = path.read_bytes()
    capsys.readouterr()
    if command == "report":
        assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 5
    else:
        assert main(["simulate", "--resume", str(run_dir)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("integrity error: record (condition=")
    assert f"field {field!r} is {value!r}, not {wanted}" in err
    assert not (tmp_path / "report").exists()
    assert path.read_bytes() == stored


@pytest.mark.parametrize("field, retype", [
    ("ts_end", math.ceil), ("token_usage", lambda _: {"prompt_tokens": 7}),
], ids=["ts-end-int", "token-usage-object"])
def test_a_stored_field_of_an_accepted_json_type_reads(tmp_path, capsys, field, retype):
    run_dir, value = retype_second_round(tmp_path, field, retype)
    path = run_dir / "rounds.jsonl"
    stored = path.read_bytes()
    assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 0
    assert main(["simulate", "--resume", str(run_dir)]) == 0
    assert path.read_bytes() == stored
    assert getattr(RunStore(run_dir).records()[1], field) == value


@pytest.mark.parametrize("rounds", [None, {3}], ids=["whole-block", "one-later-round"])
def test_agent_other_than_the_conditions_is_an_integrity_error(tmp_path, capsys, rounds):
    """Relabelled rounds of an `optimal` store would report a phantom agent's row."""
    run_dir = simulate(tmp_path, "sim")
    path = run_dir / "rounds.jsonl"
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if ((record["condition_index"], record["repetition"], record["block_index"]) == (0, 1, 1)
                and (rounds is None or record["round_index"] in rounds)):
            line = json.dumps({**record, "agent": "mean-anchor(w=0.5)"})
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")
    stored = path.read_bytes()
    capsys.readouterr()
    assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 5
    assert main(["simulate", "--resume", str(run_dir)]) == 5
    err = capsys.readouterr().err
    if rounds is None:  # every round names another agent; round 1 is refused first
        assert err.count("rep=1, block=1, round=1) is outside the plan") == 2
    else:  # the trajectory is the plan's, but round 3 names another agent
        assert err.count("rep=1, block=1, round=3) is outside the plan: agent "
                         "'mean-anchor(w=0.5)' is not the plan's 'optimal'") == 2
    assert not (tmp_path / "report").exists()
    assert path.read_bytes() == stored


def test_a_block_with_two_labels_other_than_the_plans_names_the_first_field(tmp_path, capsys):
    """Of ``agent`` and ``experiment``, both edited, the refusal names the earlier field."""
    run_dir = simulate(tmp_path, "sim")
    edit_block(run_dir, {"experiment": "E2-formula", "agent": "random"}, copy=False)
    path = run_dir / "rounds.jsonl"
    stored = path.read_bytes()
    capsys.readouterr()
    assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 5
    assert main(["simulate", "--resume", str(run_dir)]) == 5
    err = capsys.readouterr().err
    assert err.count("rep=0, block=1, round=1) is outside the plan: agent 'random' is not "
                     "the plan's 'optimal'\n") == 2
    assert "E2-formula" not in err
    assert not (tmp_path / "report").exists()
    assert path.read_bytes() == stored


# --- every stored field checked on read --------------------------------------

# the JSON types each stored field takes, written out here rather than read from nvlab
STORED_TYPES = {
    "run_id": (str,), "condition_index": (int,), "agent": (str,), "experiment": (str,),
    "dist": (str,), "order_condition": (str,), "repetition": (int,), "block_index": (int,),
    "margin": (str,), "round_index": (int,), "order": (int,), "demand": (int,),
    "profit": (int,), "cumulative_profit": (int,), "parse_confidence": (str,),
    "prompt_sha256": (str,), "raw_response": (str,), "retries": (int,),
    "token_usage": (dict, type(None)), "ts_start": (int, float), "ts_end": (int, float),
}
WRONG_VALUES = {"string": "225", "float": 225.0, "null": None, "list": [225],
                "object": {"value": 225}, "bool": True, "minus-one": -1, "huge": 10**30}
# a label other than the stored one
OTHER_LABELS = {"run_id": "run-000000000000", "experiment": "E2-formula",
                "dist": "truncated-normal", "order_condition": "low-first", "margin": "low",
                "agent": "random"}


def _value_cases():
    """(id, lines edited, field or fields, value, expected message) of each value edit."""
    for kind, field, value in [("negative", "order", -1), ("above-range", "order", 601),
                               ("negative", "retries", -1),
                               ("below-range", "demand", -1), ("above-range", "demand", 10**30),
                               ("unknown", "parse_confidence", "maybe")]:
        yield f"{field}-{kind}", (1,), field, value, "field {field!r} is "
    # money is an integer: a float is refused, even one equal to the stored integer
    # (round 1's cumulative profit is 2025)
    for kind, lines, field, value in [("nan", (1,), "profit", math.nan),
                                      ("nan", (1,), "cumulative_profit", math.nan),
                                      ("integral-float", (1,), "profit", 675.0),
                                      ("integral-float", (0,), "cumulative_profit", 2025.0)]:
        yield (f"{field}-{kind}", lines, field, value,
               "field {field!r} is {value!r}, not an integer")
    # an integer no float holds, against the reader's exact running sum
    yield ("cumulative_profit-past-float-range", (1,), "cumulative_profit", 10**309,
           "round=2): stored cumulative profit {value} != running sum 2622")
    timestamps = {"ts_start": "timestamps ts_start {value!r} and ts_end ",
                  "ts_end": " and ts_end {value!r} are not 0 <= ts_start <= ts_end <= "
                            "1.7976931348623157e+308"}
    for field, message in timestamps.items():
        for kind, value in [("nan", float("nan")), ("inf", math.inf), ("minus-one", -1.0)]:
            yield f"{field}-{kind}", (1,), field, value, message
    # an integer past the float range is below inf; a ts_start past it, kept in order,
    # takes a ts_end past it too
    yield ("ts_start-past-float-range", (1,), ("ts_start", "ts_end"), 10**400,
           timestamps["ts_start"])
    yield "ts_end-past-float-range", (1,), "ts_end", 10**400, timestamps["ts_end"]
    # each a time in range, but ending before the round started
    yield "ts_start-after-ts_end", (1,), "ts_start", 1e30, timestamps["ts_start"]
    yield "ts_end-before-ts_start", (1,), "ts_end", 1.0, timestamps["ts_end"]


def _record_cases():
    """(id, lines edited, field or fields, value, expected message) of each small-store edit."""
    for field in RoundRecord._fields:
        for kind, value in WRONG_VALUES.items():
            if type(value) not in STORED_TYPES[field]:
                yield f"{field}-{kind}", (1,), field, value, "field {field!r} is {value!r}, not "
    for case_id, lines, field, value, message in _value_cases():
        yield case_id, lines, field, value, message
        # on the last line too: block 2's round 3, which no later prompt hash covers and
        # the walk reaches last
        if case_id == "cumulative_profit-past-float-range":
            message = "block=2, round=3): stored cumulative profit {value} != running sum 147"
        yield f"{case_id}-last-line", (5,), field, value, message
    # of the right type and value range, but not the hash of the prompt round 2 was shown
    yield ("prompt_sha256-zeroed", (1,), "prompt_sha256", "0" * 64,
           "round=2): stored prompt hash does not match the re-rendered prompt")
    for field, value in OTHER_LABELS.items():
        yield (f"{field}-round-2", (1,), field, value,
               "round=2) is outside the plan: {field} {value!r} is not the plan's")
        yield (f"{field}-whole-block", (0, 1, 2), field, value,
               "round=1) is outside the plan: {field} {value!r} is not the plan's")


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    """A 3-round `optimal` store (E1, uniform, high-first, 1 repetition): 6 lines."""
    out = tmp_path_factory.mktemp("small") / "runs"
    assert main(["simulate", "--experiment", "E1", "--dist", "uniform", "--order", "high-first",
                 "--agent", "optimal", "--reps", "1", "--rounds", "3", "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    return run_dir


def refused_by_both_commands(tmp_path, capsys, run_dir) -> str:
    """`report` and `simulate --resume` exit 5 and leave the store as it was; their stderr."""
    stored = {name: (run_dir / name).read_bytes() for name in ("manifest.json", "rounds.jsonl")}
    capsys.readouterr()
    assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 5
    assert main(["simulate", "--resume", str(run_dir)]) == 5
    err = capsys.readouterr().err
    assert err.count("integrity error: ") == 2
    assert not (tmp_path / "report").exists()
    assert {name: (run_dir / name).read_bytes() for name in stored} == stored
    assert sorted(path.name for path in run_dir.iterdir()) == sorted(stored)
    return err


@pytest.mark.parametrize("lines, field, value, message",
                         [pytest.param(*case[1:], id=case[0]) for case in _record_cases()])
def test_every_stored_field_is_checked_on_read(tmp_path, capsys, small_store, lines, field,
                                               value, message):
    run_dir = shutil.copytree(small_store, tmp_path / "run")
    path = run_dir / "rounds.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for index in lines:
        records[index].update(dict.fromkeys((field,) if isinstance(field, str) else field, value))
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    err = refused_by_both_commands(tmp_path, capsys, run_dir)
    assert err.count("integrity error: record (") == 2
    assert err.count(message.format(field=field, value=value)) == 2, err


@pytest.mark.parametrize("key, value, agent, wanted", [
    pytest.param(key, value, agent, wanted, id=f"{key}-{value}") for key, value, agent, wanted in [
        ("repetitions", 1.0, "optimal", "an integer"),
        ("rounds_per_block", 3.0, "optimal", "an integer"),
        ("base_seed", "0", "optimal", "an integer"),
        # values the plan's constructors compare, so they must be refused before
        ("repetitions", "3", "optimal", "an integer"),
        ("anchor_weight", "0.5", "mean-anchor", "a number"),
        ("chase_rate", "1", "demand-chaser", "a number"),
    ]])
def test_a_manifest_plan_value_of_the_wrong_json_type_is_an_integrity_error(
        tmp_path, capsys, small_store, key, value, agent, wanted):
    """The plan hash is recomputed, so only the type check can refuse the edit."""
    if agent == "optimal":
        run_dir = shutil.copytree(small_store, tmp_path / "run")
    else:  # a store like `small_store`, of another agent
        assert main(["simulate", "--experiment", "E1", "--dist", "uniform", "--order",
                     "high-first", "--agent", agent, "--reps", "1", "--rounds", "3",
                     "--out", str(tmp_path / "runs")]) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    condition = manifest["plan"]["conditions"][0]
    (condition["agent"] if key in condition["agent"] else condition)[key] = value
    manifest["plan_hash"] = hashlib.sha256(json.dumps(
        manifest["plan"], sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    err = refused_by_both_commands(tmp_path, capsys, run_dir)
    assert err.count(f"manifest.json: field {key!r} is {value!r}, not {wanted}") == 2, err


@pytest.mark.parametrize("name, line, message", [
    ("rounds.jsonl", 1, "rounds.jsonl line 2: malformed JSON ('utf-8' codec can't decode"),
    ("manifest.json", 3, "manifest.json is malformed: 'utf-8' codec can't decode"),
], ids=["rounds-middle-line", "manifest"])
def test_bytes_that_are_not_utf8_are_an_integrity_error(tmp_path, capsys, small_store, name,
                                                        line, message):
    run_dir = shutil.copytree(small_store, tmp_path / "run")
    path = run_dir / name
    lines = path.read_bytes().split(b"\n")
    lines[line] = lines[line][:12] + b"\xff" + lines[line][12:]
    path.write_bytes(b"\n".join(lines))
    err = refused_by_both_commands(tmp_path, capsys, run_dir)
    assert err.count(message) == 2, err


@pytest.mark.parametrize("name", ["manifest.json", "rounds.jsonl"])
def test_a_store_file_that_cannot_be_read_is_an_io_error(tmp_path, capsys, small_store, name):
    """A directory in a store file's place: both commands exit 6 with one stderr line
    naming the error and the path, and neither writes to the store."""
    run_dir = shutil.copytree(small_store, tmp_path / "run")
    (run_dir / name).unlink()
    (run_dir / name).mkdir()
    stored = {path.name: path.read_bytes() for path in run_dir.iterdir() if path.is_file()}
    capsys.readouterr()
    assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 6
    assert main(["simulate", "--resume", str(run_dir)]) == 6
    err = capsys.readouterr().err
    assert err.splitlines() == [f"i/o error: Is a directory: {run_dir / name}"] * 2
    assert not (tmp_path / "report").exists()
    assert sorted(path.name for path in run_dir.iterdir()) == ["manifest.json", "rounds.jsonl"]
    assert {name: (run_dir / name).read_bytes() for name in stored} == stored
    assert not any((run_dir / name).iterdir())


@pytest.mark.parametrize("name, text, message", [
    ("rounds.jsonl", "[" * 100_000, "rounds.jsonl line 2: malformed JSON (maximum recursion"),
    ("manifest.json", "[" * 100_000, "manifest.json is malformed: maximum recursion"),
    ("rounds.jsonl", '{"order": ' + "1" * 5000 + "}",
     "rounds.jsonl line 2: malformed JSON (Exceeds the limit"),
    ("manifest.json", '{"plan": ' + "1" * 5000 + "}",
     "manifest.json is malformed: Exceeds the limit"),
], ids=["rounds-deep-nesting", "manifest-deep-nesting", "rounds-too-many-digits",
        "manifest-too-many-digits"])
def test_json_the_decoder_cannot_hold_is_an_integrity_error(tmp_path, capsys, small_store, name,
                                                             text, message):
    """Nesting past the interpreter's stack, or an integer past its digit limit, is malformed."""
    run_dir = shutil.copytree(small_store, tmp_path / "run")
    path = run_dir / name
    lines = path.read_text().splitlines(keepends=True) if name == "rounds.jsonl" else []
    path.write_text("".join(lines[:1]) + text + "\n" + "".join(lines[1:]))
    err = refused_by_both_commands(tmp_path, capsys, run_dir)
    assert err.count(message) == 2, err


@pytest.mark.parametrize("order", [
    pytest.param(2 * 300, id="twice-upper"),
    pytest.param(2 * 300 + 1, id="twice-upper-plus-1"),
    pytest.param(2**53 + 1, id="2-to-the-53-plus-1"),
    pytest.param(10**400, id="10-to-the-400"),
])
def test_an_order_past_twice_the_demand_upper_end_is_an_integrity_error(
        tmp_path, capsys, small_store, order):
    """Block 1's last round's order, profit and cumulative profit agree; only the order
    bound can refuse. No later prompt reports that round, so a resume re-hashes none of it."""
    run_dir = shutil.copytree(small_store, tmp_path / "run")
    path = run_dir / "rounds.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    sc = nvlab.scenario("E1-baseline", records[0]["margin"], "uniform", 3)
    last = records[2]
    last["order"] = order
    last["profit"] = nvlab.profit(order, last["demand"], sc.cost)
    last["cumulative_profit"] = records[1]["cumulative_profit"] + last["profit"]
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    if order > 2 * 300:
        err = refused_by_both_commands(tmp_path, capsys, run_dir)
        assert err.count(f"round=3): field 'order' is {order}, not in [0, 600]") == 2, err
        return
    stored = path.read_bytes()  # the largest order a run decides: both commands take it
    assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 0
    assert main(["simulate", "--resume", str(run_dir)]) == 0
    assert path.read_bytes() == stored


def test_a_demand_off_its_seeded_draw_is_an_integrity_error(tmp_path, capsys, small_store):
    """Block 1's last round's demand, profit and cumulative profit agree and lie in range;
    only the seeded draw can refuse. No later prompt reports that round."""
    run_dir = shutil.copytree(small_store, tmp_path / "run")
    path = run_dir / "rounds.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    sc = nvlab.scenario("E1-baseline", records[0]["margin"], "uniform", 3)
    last = records[2]
    draw = last["demand"]
    last["demand"] = draw + 1 if draw < sc.demand.upper else draw - 1
    last["profit"] = nvlab.profit(last["order"], last["demand"], sc.cost)
    last["cumulative_profit"] = records[1]["cumulative_profit"] + last["profit"]
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    err = refused_by_both_commands(tmp_path, capsys, run_dir)
    assert err.count(f"round=3): stored demand {last['demand']} does not match the seeded "
                     f"draw {draw}") == 2, err


@pytest.mark.parametrize("index, edit, message", [
    pytest.param(0, "twice", "block=1, round=1): expected round 2", id="first-round-twice"),
    pytest.param(2, "twice", "block=1, round=3): expected round 4", id="block-1-last-twice"),
    pytest.param(5, "twice", "block=2, round=3): expected round 4", id="last-line-twice"),
    pytest.param(1, "left-out", "block=1, round=3): expected round 2", id="round-2-left-out"),
    pytest.param(5, "round-2", "block=2, round=2): expected round 3", id="round-3-as-round-2"),
])
def test_rounds_that_are_not_contiguous_are_an_integrity_error(tmp_path, capsys, small_store,
                                                               index, edit, message):
    """A line stored twice, left out or given another round's index: each round index is in
    the plan's range, so only the walk's contiguity check can refuse it."""
    run_dir = shutil.copytree(small_store, tmp_path / "run")
    path = run_dir / "rounds.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    if edit == "twice":
        lines.insert(index, lines[index])
    elif edit == "left-out":
        del lines[index]
    else:
        lines[index] = json.dumps({**json.loads(lines[index]), "round_index": 2}) + "\n"
    path.write_text("".join(lines))
    err = refused_by_both_commands(tmp_path, capsys, run_dir)
    assert err.count(f"{message}, rounds are not contiguous") == 2, err


def test_a_read_names_an_earlier_blocks_prompt_hash_before_a_later_blocks_profit(
        tmp_path, capsys, small_store):
    """Block 1's round 2 has a zeroed prompt hash, block 2's round 2 a profit one off.

    A read walks each block, in identity order, through each round's values, prompt
    hash and seeded draw before the next block, so block 1's hash is the one named."""
    run_dir = shutil.copytree(small_store, tmp_path / "run")
    path = run_dir / "rounds.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["block_index"], r["round_index"]) for r in records[1::3]] == [(1, 2), (2, 2)]
    records[1]["prompt_sha256"] = "0" * 64
    records[4]["profit"] += 1
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    err = refused_by_both_commands(tmp_path, capsys, run_dir)
    assert err.count("block=1, round=2): stored prompt hash does not match the re-rendered "
                     "prompt") == 2, err


def test_a_torn_final_line_cut_inside_a_character_is_skipped_or_set_aside(
        tmp_path, capsys, small_store):
    run_dir = shutil.copytree(small_store, tmp_path / "run")
    path = run_dir / "rounds.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    torn = lines[-1][:60] + "\u00e9".encode()[:1]  # the first of a character's two bytes
    path.write_bytes(b"".join(lines[:-1]) + torn)
    assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 0
    assert main(["simulate", "--resume", str(run_dir)]) == 0
    assert (run_dir / "rounds.jsonl.torn").read_bytes() == torn + b"\n"
    assert stripped_lines(path) == stripped_lines(small_store / "rounds.jsonl")
