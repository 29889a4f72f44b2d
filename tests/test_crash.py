"""Crash harness: kill a run mid-flight with SIGKILL, resume it, and compare.

Each case starts the CLI in a child process, kills it after a given number of
progress lines (wherever it is: between rounds, mid-append, or between run
directories), finishes the run with ``--resume``, and requires the stored
rounds to be those of an uninterrupted run. Other cases lay out on disk what a
crash at a chosen byte or step leaves (a store cut inside or between lines, a
run directory around `RunStore.create`) and finish it in process. One runs the
CLI in a child whose writes fail past a file size limit, the way a full disk
stops a run.
"""

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nvlab
from conftest import strip_timestamps
from nvlab.agents import RETRY_NUDGE
from nvlab.cli import main
from nvlab.config import RunConfig
from nvlab.runner import resume, run_plan
from nvlab.store import TORN_NAME, RunStore, sha256_text
from test_runner import CHASER, LLM_AGENT, order_from_prompt, small_plan, stub_factory
from test_runner import stripped_lines as lines_in_order

GRID = ["--reps", "2", "--rounds", "5"]  # 12 conditions x 2 reps x 2 blocks per agent


def stripped_lines(run_dir):
    with open(run_dir / "rounds.jsonl", encoding="utf-8") as handle:
        return sorted(strip_timestamps(line) for line in handle if line.strip())


def run_until_killed(args, lines, stderr_path):
    """Run the CLI and SIGKILL it once it has printed ``lines`` progress lines.

    The child's stderr goes to ``stderr_path``; returns its text.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(nvlab.__file__).parents[1]))
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "nvlab.cli", *args], env=env,
                                stdout=subprocess.PIPE, stderr=stderr, text=True)
    try:
        for _ in range(lines):
            assert proc.stdout.readline(), (
                f"the run ended before it could be killed; its stderr:\n{stderr_path.read_text()}")
        proc.kill()
        proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stdout.close()
    assert proc.returncode == -signal.SIGKILL, stderr_path.read_text()
    return stderr_path.read_text()


@pytest.mark.parametrize("lines", [2, 60, 130, 175])
def test_killed_simulate_resumes_to_the_uninterrupted_stores(tmp_path, lines):
    assert main(["simulate", *GRID, "--out", str(tmp_path / "full")]) == 0
    run_until_killed(["simulate", *GRID, "--out", str(tmp_path / "killed")], lines,
                     tmp_path / "killed.stderr")

    full_dirs = sorted((tmp_path / "full").iterdir())
    assert len(full_dirs) == 4  # one per scripted agent
    for full in full_dirs:
        killed = tmp_path / "killed" / full.name
        if RunStore(killed).exists():
            assert main(["simulate", "--resume", str(killed)]) == 0
        else:  # killed before this agent's manifest was in place
            kind = RunStore(full).manifest()["plan"]["conditions"][0]["agent"]["kind"]
            assert main(["simulate", *GRID, "--agent", kind,
                         "--out", str(tmp_path / "killed")]) == 0
        assert (killed / "manifest.json").read_bytes() == (full / "manifest.json").read_bytes()
        assert stripped_lines(killed) == stripped_lines(full)


def test_the_stub_records_no_request_cut_off_before_its_body(stub_server):
    """A run killed between a request's headers and its body leaves no request behind."""
    with socket.create_connection(stub_server.server_address) as sock:
        sock.sendall(b"POST /v1/chat/completions HTTP/1.1\r\nHost: stub\r\n"
                     b"Content-Length: 64\r\n\r\n")
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(1024) == b""  # closed without an answer
    assert stub_server.requests == []


def slow_order_from_prompt(body):
    time.sleep(0.005)  # keeps several requests in flight when the kill lands
    return order_from_prompt(body)


@pytest.mark.parametrize("lines", [2, 6, 10])
def test_killed_concurrent_llm_run_resumes_with_the_stated_orders(
        tmp_path, stub_server, monkeypatch, capsys, lines):
    stub_server.reply_fn = slow_order_from_prompt
    monkeypatch.setenv("NVLAB_TEST_KEY", "sk-test")
    config = RunConfig(endpoint=stub_server.url, credential_env="NVLAB_TEST_KEY",
                       models=("test-model",), max_retries=0, backoff_base=0.001,
                       concurrency=4)
    config.to_file(tmp_path / "config.json")
    args = ["run", "--config", str(tmp_path / "config.json"), "--experiment", "E1",
            "--dist", "uniform", "--order", "high-first", "--reps", "6", "--rounds", "5"]
    assert main([*args, "--out", str(tmp_path / "full")]) == 0
    # line 1 names the run directory; later lines come after the store exists
    killed_stderr = run_until_killed([*args, "--out", str(tmp_path / "killed")], lines,
                                     tmp_path / "killed.stderr")

    (full,) = (tmp_path / "full").iterdir()
    killed = tmp_path / "killed" / full.name
    capsys.readouterr()
    code = main(["run", "--config", str(tmp_path / "config.json"), "--resume", str(killed)])
    diagnosis = (f"killed run's stderr:\n{killed_stderr}\n"
                 f"resume exited {code}; its stderr:\n{capsys.readouterr().err}")
    assert code == 0, diagnosis
    stated = {sha256_text(body["messages"][-1]["content"]): order_from_prompt(body)
              for body in stub_server.requests}
    records = RunStore(killed).records()
    assert len(records) == 6 * 2 * 5, diagnosis
    for record in records:
        assert record.raw_response == stated[record.prompt_sha256], diagnosis
        assert f"order {record.order} wodgets" in record.raw_response, diagnosis
    assert stripped_lines(killed) == stripped_lines(full), diagnosis


# a 24-line scripted store: 2 conditions x 2 repetitions x 2 blocks x 3 rounds
CUT_PLAN = small_plan(CHASER, reps=2, rounds=3)


def line_ends(data):
    """Offset 0 and the offset after each newline of ``data``."""
    return [0] + [offset + 1 for offset, byte in enumerate(data) if byte == ord("\n")]


def assert_each_cut_resumes(tmp_path, full, cuts, lines, **resume_args):
    """``full`` cut at each offset resumes to the ``lines`` of ``full``, its torn line aside."""
    data = (full / "rounds.jsonl").read_bytes()
    expected = lines(full)
    ends = set(line_ends(data))
    for cut in cuts:
        run_dir = tmp_path / f"cut-{cut}"
        run_dir.mkdir()
        shutil.copy(full / "manifest.json", run_dir)
        (run_dir / "rounds.jsonl").write_bytes(data[:cut])
        assert resume(run_dir, **resume_args).complete, cut
        assert lines(run_dir) == expected, cut
        torn = run_dir / TORN_NAME
        if cut in ends:
            assert not torn.exists(), cut
        else:  # the cut line's partial bytes, set aside with a newline
            assert torn.read_bytes() == data[data.rfind(b"\n", 0, cut) + 1:cut] + b"\n", cut


def test_a_scripted_store_cut_between_or_inside_lines_resumes_to_the_uninterrupted_store(tmp_path):
    full = tmp_path / "full"
    assert run_plan(CUT_PLAN, full).complete
    data = (full / "rounds.jsonl").read_bytes()
    assert len(lines_in_order(full)) == 24
    boundaries = line_ends(data)
    assert len(boundaries) == 25
    interior = random.Random(24).sample(sorted(set(range(len(data))) - set(boundaries)), 50)
    assert_each_cut_resumes(tmp_path, full, boundaries + interior, lines_in_order)


def reply_to_whole_body(body):
    """A reply that depends on the whole request body, so a transcript rebuilt otherwise
    changes it: an order read exactly or by fallback, or, to a first ask, no number at all
    (a re-prompt)."""
    digest = int(sha256_text(json.dumps(body, sort_keys=True))[:8], 16)
    order = 60 + digest % 181
    kind = digest // 181 % 4 if body["messages"][-1]["content"] != RETRY_NUDGE else 3
    return ("Let me weigh the costs once more before I commit.", f"Perhaps {order}.",
            f"Orders so far suggest {order} wodgets.", f"I will order {order} wodgets.")[kind]


# the LLM store of CUT_PLAN's shape: 24 lines, each with its token usage
LLM_CUT_PLAN = small_plan(LLM_AGENT, reps=2, rounds=3)


@pytest.mark.parametrize("workers", [1, 4])
def test_an_llm_store_cut_at_or_past_line_ends_resumes_to_the_uninterrupted_store(
        tmp_path, stub_server, workers):
    stub_server.reply_fn = reply_to_whole_body
    full = tmp_path / "full"
    assert run_plan(LLM_CUT_PLAN, full, client_factory=stub_factory(stub_server),
                    workers=4).complete
    assert any(body["messages"][-1]["content"] == RETRY_NUDGE for body in stub_server.requests)
    data = (full / "rounds.jsonl").read_bytes()
    assert b'"parse_confidence":"fallback"' in data and b'"token_usage":{' in data
    ends = line_ends(data)
    assert len(ends) == 25
    cuts = ends + [end + past for end in ends[:-1] for past in (1, 37)]
    # compared sorted: a pool interleaves repetitions
    assert_each_cut_resumes(tmp_path, full, cuts, stripped_lines,
                            client_factory=stub_factory(stub_server), workers=workers)


@pytest.mark.parametrize("left", ["partial-manifest-tmp", "manifest-without-rounds"])
def test_a_run_killed_around_store_create_completes_to_the_uninterrupted_store(tmp_path, left):
    full = tmp_path / "full"
    assert run_plan(CUT_PLAN, full).complete
    manifest = (full / "manifest.json").read_bytes()
    run_dir = tmp_path / left
    run_dir.mkdir()
    if left == "partial-manifest-tmp":  # killed while writing the manifest: run it again
        (run_dir / "manifest.json.tmp").write_bytes(manifest[:len(manifest) // 2])
        assert run_plan(CUT_PLAN, run_dir).complete
        assert not (run_dir / "manifest.json.tmp").exists()
    else:  # killed after the manifest's rename, before rounds.jsonl: resume it
        (run_dir / "manifest.json").write_bytes(manifest)
        assert resume(run_dir).complete
    assert (run_dir / "manifest.json").read_bytes() == manifest
    assert lines_in_order(run_dir) == lines_in_order(full)


def test_a_write_past_the_file_size_limit_exits_6_and_resumes_to_the_uninterrupted_store(
        tmp_path):
    """A child `nvlab simulate` whose file size limit is half its store's rounds.jsonl.

    Only the child is limited (`preexec_fn`), and it ignores SIGXFSZ, so the write
    that crosses the limit fails with EFBIG: the run exits 6 with one stderr line,
    and `--resume` without the limit completes the store."""
    resource = pytest.importorskip("resource")
    args = ["simulate", "--agent", "optimal", *GRID]
    assert main([*args, "--out", str(tmp_path / "full")]) == 0
    (full,) = (tmp_path / "full").iterdir()
    limit = (full / "rounds.jsonl").stat().st_size // 2

    def limited():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(nvlab.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run([sys.executable, "-m", "nvlab.cli", *args, "--out",
                            str(tmp_path / "cut")], env=env, preexec_fn=limited,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                           timeout=120)
    assert (child.returncode, child.stderr) == (6, "i/o error: File too large\n")
    cut = tmp_path / "cut" / full.name
    assert (cut / "rounds.jsonl").stat().st_size == limit
    assert main(["simulate", "--resume", str(cut)]) == 0
    assert (cut / "manifest.json").read_bytes() == (full / "manifest.json").read_bytes()
    assert stripped_lines(cut) == stripped_lines(full)
