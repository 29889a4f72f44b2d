"""The command line's contract, checked through ``python -m nvlab.cli`` in child processes.

Each test runs the console commands as a user would, in its own ``tmp_path``, with
nvlab imported from this source tree; nothing needs installing. The README default grid's
stores, which several tests read, are built once per session (`default_grid`).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import nvlab
from nvlab.store import RoundRecord, RunStore, TypedRead


def nvlab_cli(cwd: Path, *args: str, status: int = 0) -> str:
    """Run one nvlab command in ``cwd``; fail the test, with its stderr, unless it exits
    ``status``. Returns its stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(nvlab.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-m", "nvlab.cli", *args], cwd=cwd, env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert child.returncode == status, (args, child.returncode, child.stderr)
    return child.stderr


def files(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by its relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_the_report_is_a_pure_function_of_the_stores(tmp_path):
    """Two ``--compare-humans`` builds over one tiny grid (all four scripted agents) match
    byte for byte; grids of 1- and 2-round blocks, with few or no adjustments, report too;
    and on each grid a report without ``--compare-humans`` is, CSV by CSV, its
    ``--compare-humans`` twin minus the human rows."""
    def report(runs, out, *flags):
        nvlab_cli(tmp_path, "report", *sorted(str(p) for p in (tmp_path / runs).iterdir()),
                  "--out", out, *flags)

    nvlab_cli(tmp_path, "simulate", "--reps", "2", "--rounds", "15", "--out", "runs")
    report("runs", "report-a", "--compare-humans")
    report("runs", "report-b", "--compare-humans")
    assert files(tmp_path / "report-a") == files(tmp_path / "report-b")
    assert len(files(tmp_path / "report-a")) == 9
    for rounds in ("1", "2"):
        nvlab_cli(tmp_path, "simulate", "--reps", "2", "--rounds", rounds, "--out", f"runs-{rounds}")
        report(f"runs-{rounds}", f"report-{rounds}", "--compare-humans")
    for runs, bundle in (("runs", "report-a"), ("runs-1", "report-1"), ("runs-2", "report-2")):
        report(runs, f"{bundle}-plain")
        plain = files(tmp_path / f"{bundle}-plain")
        twins = {name: data for name, data in files(tmp_path / bundle).items()
                 if name.endswith(".csv")}
        assert len(twins) == 8
        for name, data in twins.items():
            lines = data.splitlines(keepends=True)
            assert b"".join(line for line in lines if b",humans," not in line) == plain[name], name


@pytest.fixture(scope="session")
def default_grid(tmp_path_factory) -> list[Path]:
    """The README default grid (all four scripted agents, 14,400 rounds): its run directories."""
    root = tmp_path_factory.mktemp("default-grid")
    nvlab_cli(root, "simulate", "--out", "default")
    runs = sorted((root / "default").iterdir())
    assert len(runs) == 4
    return runs


def test_the_line_writer_writes_what_json_writes(default_grid):
    """Every full line of the default grid's stores, timestamps included, is json's compact
    re-encoding of itself."""
    checked, differ = 0, []
    for run in default_grid:
        with open(run / "rounds.jsonl", encoding="utf-8", newline="") as handle:
            for lineno, line in enumerate(handle, 1):
                checked += 1
                if line[-1:] != "\n" or json.dumps(json.loads(line),
                                                   separators=(",", ":")) != line[:-1]:
                    differ.append(f"{run.name}:{lineno}")
    assert differ == [] and checked == 14400


def test_a_store_nvlab_writes_is_read_by_the_line_templates_inverse(default_grid, monkeypatch):
    """Each of the default grid's stores reads as a `TypedRead`, no line falls back to
    `RoundRecord.from_line`, and the read equals each line's ``from_line``, types included
    (so a writer change that falls off the template fails here, not only loses speed); and
    every line is its ``from_line``'s ``to_line``, so the runner's own spelling of a
    scripted round and the record encoder's agree."""
    from_line, fallbacks = RoundRecord.from_line.__func__, []

    def counted(cls, line, lineno):
        fallbacks.append(lineno)
        return from_line(cls, line, lineno)

    checked = 0
    for run in default_grid:
        monkeypatch.setattr(RoundRecord, "from_line", classmethod(counted))
        read = RunStore(run).records()
        monkeypatch.undo()
        lines = (run / "rounds.jsonl").read_bytes().splitlines()
        full = [RoundRecord.from_line(line, n) for n, line in enumerate(lines, 1)]
        respelled = [n for n, (record, line) in enumerate(zip(full, lines), 1)
                     if record.to_line() != line.decode("utf-8")]
        assert respelled == [], f"{run}: lines that are not their record's to_line"
        assert type(read) is TypedRead and fallbacks == [] and repr(read) == repr(full), run
        checked += len(read)
    assert checked == 14400


def test_every_stored_prompt_hash_is_that_of_the_public_renderers_prompt(
        default_grid, tmp_path):
    """Each round of the tiny grid and of the default grid (every scenario of the grid) is
    re-rendered by `nvlab.render_prompt` from its scenario and the previous stored round of
    its block, and the joined text is hashed here, apart from the runner's round loop and
    `ScenarioPrompts.sha256` (which hash without joining)."""
    nvlab_cli(tmp_path, "simulate", "--reps", "2", "--rounds", "15", "--out", "runs")
    checked, differ = 0, []
    for run in [*sorted((tmp_path / "runs").iterdir()), *default_grid]:
        conditions = json.loads((run / "manifest.json").read_text())["plan"]["conditions"]
        with open(run / "rounds.jsonl", encoding="utf-8") as handle:
            rows = [SimpleNamespace(**json.loads(line)) for line in handle]
        rows.sort(key=lambda r: (r.condition_index, r.repetition, r.block_index, r.round_index))
        last = {}
        for r in rows:
            block = r.condition_index, r.repetition, r.block_index
            sc = nvlab.scenario(r.experiment, r.margin, r.dist,
                                conditions[r.condition_index]["rounds_per_block"])
            p = last.get(block)
            feedback = () if r.round_index == 1 else (p.order, p.demand, p.profit,
                                                      p.cumulative_profit)
            prompt = nvlab.render_prompt(sc, *feedback)
            if hashlib.sha256(prompt.encode("utf-8")).hexdigest() != r.prompt_sha256:
                differ.append((run.name, block, r.round_index))
            checked += 1
            last[block] = r
    assert differ == [] and checked == 2880 + 14400  # the tiny grid has 2 repetitions, not 10


def without_timestamps(line: bytes) -> dict:
    return {k: v for k, v in json.loads(line).items() if not k.startswith("ts_")}


def test_a_fresh_run_is_a_function_of_its_plan(default_grid, tmp_path):
    """The README default grid run twice gives the same run directories, the same manifests
    byte for byte and, timestamps aside, the same rounds.jsonl lines in the same order. The
    lines are compared as json.dumps text, so key order counts and 1, 1.0 and true differ."""
    def stripped(run) -> list[str]:
        return [json.dumps(without_timestamps(line))
                for line in (run / "rounds.jsonl").read_bytes().splitlines()]

    nvlab_cli(tmp_path, "simulate", "--out", "default-b")
    twins = sorted((tmp_path / "default-b").iterdir())
    assert len(default_grid) == 4 and [run.name for run in twins] == [
        run.name for run in default_grid]
    for run, twin in zip(default_grid, twins):
        assert (run / "manifest.json").read_bytes() == (twin / "manifest.json").read_bytes()
        lines = stripped(run)
        assert lines, run
        assert lines == stripped(twin), run


def test_a_block_does_not_depend_on_the_blocks_run_before_it(default_grid, tmp_path):
    """The default grid's last condition run alone gives the same rounds as inside the grid,
    apart from the run id, the condition index and the timestamps."""
    def rounds(runs) -> dict:
        rows = {}
        for run in runs:
            for line in (run / "rounds.jsonl").read_bytes().splitlines():
                row = {k: v for k, v in without_timestamps(line).items()
                       if k not in ("run_id", "condition_index")}
                rows[tuple(row[k] for k in ("agent", "experiment", "dist", "order_condition",
                                            "repetition", "block_index", "round_index"))] = row
        return rows

    nvlab_cli(tmp_path, "simulate", "--experiment", "E3", "--dist", "normal", "--order",
              "low-first", "--reps", "1", "--out", "alone")
    grid, alone = rounds(default_grid), rounds(sorted((tmp_path / "alone").iterdir()))
    assert [key for key, row in alone.items() if grid.get(key) != row] == []
    assert len(alone) == 4 * 2 * 15


@pytest.mark.parametrize("args, message", [
    (("simulate", "--agent", "mean-anchor", "--anchor-weight", "2", "--out", "bad/runs"),
     "agent 'mean-anchor': mean-anchor agent needs anchor_weight in [0, 1]"),
    (("simulate", "--agent", "demand-chaser", "--chase-rate", "nan", "--out", "bad/runs"),
     "agent 'demand-chaser': demand-chaser agent needs a finite chase_rate"),
    (("run", "--config", "bad/endpoint.json", "--agent", "optimal", "--out", "bad/runs"),
     "endpoint: must be an http or https URL"),
    (("run", "--config", "bad/backoff.json", "--agent", "optimal", "--out", "bad/runs"),
     "backoff_base: must be >= 0"),
    (("run", "--config", "bad/missing.json", "--agent", "optimal", "--out", "bad/runs"),
     "config file not found"),
    (("simulate", "--config", "bad/notjson.json", "--out", "bad/runs"),
     "config file is not valid JSON"),
    (("simulate", "--config", "bad/notutf8.json", "--out", "bad/runs"),
     "config file is not valid JSON: 'utf-8' codec"),
    (("simulate", "--reps", "1", "--rounds", "2", "--out", "bad/afile"),
     "output_dir: 'bad/afile' is not"),
    (("simulate", "--reps", "1", "--rounds", "2", "--out", "bad/afile/sub"),
     "output_dir: 'bad/afile/sub' is not"),
    (("report", "{runs}", "--out", "bad/afile"), "--out: 'bad/afile' is not"),
    (("report", "{runs}", "--out", "bad/afile/sub"), "--out: 'bad/afile/sub' is not"),
    (("simulate", "--agent", "optimal", "--agent", "optimal", "--experiment", "E1", "--dist",
      "uniform", "--reps", "1", "--rounds", "2", "--out", "bad/runs"),
     "agent: 'optimal' is given twice"),
    (("simulate", "--order", "high-first", "--order", "high-first", "--reps", "1", "--out",
      "bad/runs"), "order_conditions: 'high-first' is given twice"),
    (("simulate", "--experiment", "E1", "--experiment", "E1-baseline", "--reps", "1", "--out",
      "bad/runs"), "experiments: 'E1-baseline' is given twice"),
], ids=["anchor-weight", "chase-rate", "endpoint", "backoff", "config-missing",
        "config-not-json", "config-not-utf8", "simulate-out-file", "simulate-out-under-file",
        "report-out-file", "report-out-under-file", "agent-twice", "order-twice",
        "experiment-twice"])
def test_a_flag_or_config_value_the_run_cannot_use_exits_2_and_makes_no_run_directory(
        default_grid, tmp_path, args, message):
    """A bad agent flag, a scheme-less endpoint, a negative backoff_base, a --config file that
    is missing, not JSON or not UTF-8, an --out that names a file or lies under one, and a
    grid value or agent given twice exit 2 through the command line, with a config error
    that names the value; the command makes no run directory and writes no file."""
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "afile").touch()
    (bad / "endpoint.json").write_text('{"endpoint": "api.example/v1"}\n')
    (bad / "backoff.json").write_text('{"backoff_base": -1}\n')
    (bad / "notjson.json").write_text('{"models": ["m"]\n')
    (bad / "notutf8.json").write_bytes(b'{"models": ["\xff"]}\n')
    if "{runs}" in args:  # the stores a report reads: the default grid's
        i = args.index("{runs}")
        args = (*args[:i], *map(str, default_grid), *args[i + 1:])
    stderr = nvlab_cli(tmp_path, *args, status=2)
    assert stderr.startswith(f"config error: {message}"), stderr
    assert not (bad / "runs").exists() and not (bad / "missing.json").exists()
    assert (bad / "afile").is_file() and (bad / "afile").stat().st_size == 0
