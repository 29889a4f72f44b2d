"""The command line's contract, checked through ``python -m nvlab.cli`` in child processes.

Each test runs the console commands as a user would, in its own ``tmp_path``, with
nvlab imported from this source tree; nothing needs installing.
"""

import os
import subprocess
import sys
from pathlib import Path

import nvlab


def nvlab_cli(cwd: Path, *args: str):
    """Run one nvlab command in ``cwd``; fail the test, with its stderr, unless it exits 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(nvlab.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-m", "nvlab.cli", *args], cwd=cwd, env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert child.returncode == 0, (args, child.returncode, child.stderr)


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
