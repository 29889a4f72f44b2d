"""Crash harness: kill a run mid-flight with SIGKILL, resume it, and compare.

Each case starts the CLI in a child process, kills it after a given number of
progress lines (wherever it is: between rounds, mid-append, or between run
directories), finishes the run with ``--resume``, and requires the stored
rounds to be those of an uninterrupted run. Other cases lay out on disk what a
crash at a chosen byte or step leaves (a store cut inside or between lines, a
run directory around `RunStore.create`) and finish it in process. One runs the
CLI in a child whose writes fail past a file size limit, the way a full disk
stops a run; others fail one write of the store's append handle with ENOSPC, a
full disk that later has room again.
"""

import errno
import io
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import nvlab
from conftest import strip_timestamps, write_config
from nvlab import cli
from nvlab.agents import RETRY_NUDGE, AgentSpec
from nvlab.cli import main
from nvlab.config import RunConfig
from nvlab.runner import build_manifest, resume, run_plan
from nvlab.store import ROUNDS_NAME, TORN_NAME, RunStore, sha256_text
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
    write_config(config, tmp_path / "config.json")
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
    that crosses the limit fails with EFBIG: the run exits 6 with one stderr line naming
    rounds.jsonl and one naming the `--resume` that finishes the run, which, without the
    limit, completes the store."""
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
    cut = tmp_path / "cut" / full.name
    assert (child.returncode, child.stderr) == (
        6, f"i/o error: File too large: {cut / 'rounds.jsonl'}\n"
           f"finish the run with --resume {cut}\n")
    assert (cut / "rounds.jsonl").stat().st_size == limit
    assert main(["simulate", "--resume", str(cut)]) == 0
    assert (cut / "manifest.json").read_bytes() == (full / "manifest.json").read_bytes()
    assert stripped_lines(cut) == stripped_lines(full)


@pytest.mark.parametrize("agents, failing, left", [
    (["optimal"], 1, None), (["optimal", "random"], 1, None),
    (["optimal", "random"], 2, "--agent random"),
    (["optimal", "random", "demand-chaser"], 2, "--agent random --agent demand-chaser")],
    ids=["one-agent", "first-of-two", "second-of-two", "second-of-three"])
def test_a_manifest_write_that_fails_once_exits_6_and_says_what_finishes_the_run(
        tmp_path, monkeypatch, capsys, agents, failing, left):
    """The ``failing``-th manifest write of a fresh run fails once with ENOSPC. Before any
    store exists the same command finishes the run; after one, it would find that store
    made, so the second line gives the ``--agent`` flags ``left`` to store, which the rerun
    pastes in place of the command's own."""
    def simulate(agents):
        return ["simulate", *(flag for agent in agents for flag in ("--agent", agent)), *GRID]

    args = simulate(agents)
    assert main([*args, "--out", str(tmp_path / "full")]) == 0
    write_text, writes = Path.write_text, []

    def failing_write(path, *write_args, **kwargs):
        if path.name == "manifest.json.tmp":
            writes.append(path)
            if len(writes) == failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return write_text(path, *write_args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write)
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "cut")]) == 6
    hint = ("nothing is stored yet: the same command finishes the run" if left is None else
            f"not stored yet: {left}; the same command with only these agents finishes the run")
    assert capsys.readouterr().err == (
        f"i/o error: No space left on device: {writes[-1]}\n{hint}\n")
    assert not (writes[-1].parent / "manifest.json").exists()
    rerun = args if left is None else ["simulate", *left.split(), *GRID]
    assert main([*rerun, "--out", str(tmp_path / "cut")]) == 0
    for run in (tmp_path / "full").iterdir():
        assert (tmp_path / "cut" / run.name / "manifest.json").read_bytes() == (
            run / "manifest.json").read_bytes()
        assert stripped_lines(tmp_path / "cut" / run.name) == stripped_lines(run)


def test_a_later_store_whose_rounds_cannot_be_opened_names_the_agents_not_run_yet(
        tmp_path, monkeypatch, capsys):
    """The second of three agents' stores fails its first rounds.jsonl open with ENOSPC,
    after its manifest is written. Exit 6 names that store's --resume and the --agent flags
    of the agent not run yet; the resume plus the same command with only those flags leave
    the stores of an uninterrupted run."""
    args = ["simulate", "--agent", "optimal", "--agent", "random", "--agent", "demand-chaser",
            *GRID]
    assert main([*args, "--out", str(tmp_path / "full")]) == 0
    open_path, opens = Path.open, []

    def failing_open(path, mode="r", *open_args, **kwargs):
        if path.name == ROUNDS_NAME and mode == "a":
            opens.append(path.parent.name)
            if len(set(opens)) == 2 and opens.count(opens[-1]) == 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return open_path(path, mode, *open_args, **kwargs)

    monkeypatch.setattr(Path, "open", failing_open)
    assert main([*args, "--out", str(tmp_path / "cut")]) == 6
    monkeypatch.undo()
    cut = tmp_path / "cut" / opens[-1]  # the second agent's store
    assert capsys.readouterr().err == (
        f"i/o error: No space left on device: {cut / ROUNDS_NAME}\n"
        f"finish the run with --resume {cut}\n"
        "not run yet: --agent demand-chaser; the same command with only these agents runs "
        "them\n")
    assert {path.name for path in (tmp_path / "cut").iterdir()} == set(opens)  # two stores
    assert main(["simulate", "--resume", str(cut)]) == 0
    assert main(["simulate", "--agent", "demand-chaser", *GRID,
                 "--out", str(tmp_path / "cut")]) == 0
    full = sorted((tmp_path / "full").iterdir())
    assert [path.name for path in sorted((tmp_path / "cut").iterdir())] == [
        store.name for store in full] and len(full) == 3
    for store in full:
        assert (tmp_path / "cut" / store.name / "manifest.json").read_bytes() == (
            store / "manifest.json").read_bytes()
        assert stripped_lines(tmp_path / "cut" / store.name) == stripped_lines(store)


def test_agents_not_run_yet_are_spelled_as_the_command_selects_them():
    """A scripted kind by its --agent flag, whatever its parameters; LLM agents by one
    --agent llm and their model names, which the config's models choose."""
    agents = [AgentSpec("demand-chaser", chase_rate=0.5, switch_round=3),
              AgentSpec("llm", model_name="model-b"), AgentSpec("llm", model_name="model-c"),
              AgentSpec("mean-anchor", anchor_weight=0.2)]
    assert cli._selected_as(agents) == (
        "--agent demand-chaser --agent llm --agent mean-anchor "
        "(with the config's models model-b, model-c)")
    assert cli._selected_as(agents[3:]) == "--agent mean-anchor"


def fail_one_raw_write(monkeypatch):
    """Open each rounds.jsonl append handle over a raw file that counts its writes.

    The raw write numbered ``fail_at`` (counted over every such handle) raises ENOSPC and
    writes nothing, below the text and buffer layers, so the bytes Python holds stay
    buffered as they would on a full disk. Returns the counter: ``lines`` holds the number
    of lines each write was handed and ``fail_at`` is None until set.
    """
    counter = SimpleNamespace(lines=[], fail_at=None)
    open_path = Path.open

    class Raw(io.FileIO):
        def write(self, data):
            counter.lines.append(bytes(data).count(b"\n"))
            if len(counter.lines) == counter.fail_at:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return super().write(data)

    def opened(path, mode="r", *args, **kwargs):
        if path.name != ROUNDS_NAME or mode != "a":
            return open_path(path, mode, *args, **kwargs)
        return io.TextIOWrapper(io.BufferedWriter(Raw(path, "a")), encoding=kwargs["encoding"])

    monkeypatch.setattr(Path, "open", opened)
    return counter


@pytest.mark.parametrize("failing", ["first", "middle", "last"])
def test_a_write_that_fails_once_exits_6_and_resumes_to_the_uninterrupted_store(
        tmp_path, monkeypatch, capsys, failing):
    """A scripted block's lines reach the raw file in one write, at the block's flush. When
    it fails, the run exits 6 and the store's close writes the block's lines whole."""
    raw = fail_one_raw_write(monkeypatch)
    args = ["simulate", "--agent", "optimal", *GRID]
    assert main([*args, "--out", str(tmp_path / "full")]) == 0
    (full,) = (tmp_path / "full").iterdir()
    lines = raw.lines[:]
    assert sum(lines) == len(stripped_lines(full)) and len(lines) > 2
    raw.fail_at = {"first": 1, "middle": len(lines) // 2, "last": len(lines)}[failing]
    raw.lines.clear()
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "cut")]) == 6
    cut = tmp_path / "cut" / full.name
    assert capsys.readouterr().err == (
        f"i/o error: No space left on device: {cut / ROUNDS_NAME}\n"
        f"finish the run with --resume {cut}\n")
    assert (cut / ROUNDS_NAME).read_bytes().endswith(b"\n")
    assert len(stripped_lines(cut)) == sum(lines[:raw.fail_at])
    assert main(["simulate", "--resume", str(cut)]) == 0
    assert (cut / "manifest.json").read_bytes() == (full / "manifest.json").read_bytes()
    assert stripped_lines(cut) == stripped_lines(full)


def test_a_close_that_fails_leaves_no_closed_handle_behind(tmp_path, monkeypatch):
    """The close's write of a queued line fails once: it raises the error naming rounds.jsonl,
    and the handle is closed and let go, so a second close does nothing and the next append
    opens rounds.jsonl again."""
    assert run_plan(CUT_PLAN, tmp_path / "full").complete
    first, second, third = RunStore(tmp_path / "full").records()[:3]
    raw = fail_one_raw_write(monkeypatch)
    store = RunStore(tmp_path / "run")
    store.create(build_manifest(CUT_PLAN))
    store.append(first.to_line())
    store.append(second.to_line(), flush=False)
    raw.fail_at = len(raw.lines) + 1
    with pytest.raises(OSError) as failed:
        store.close()
    assert (failed.value.errno, failed.value.filename) == (errno.ENOSPC, str(store.rounds_path))
    store.close()
    store.append(third.to_line())
    store.close()
    assert store.rounds_path.read_bytes().endswith(b"\n")
    assert RunStore(tmp_path / "run").records() == [first, second, third]


def test_an_llm_append_that_fails_once_at_4_workers_resumes_to_a_serial_run(
        tmp_path, stub_server, monkeypatch):
    """Other units have requests in flight when one round's write fails; the next flush
    may write that round's line whole, and resume reads it as a stored round."""
    stub_server.reply_fn = slow_order_from_prompt  # a reply of the request body alone
    plan = small_plan(LLM_AGENT, reps=4, rounds=3)  # 8 units, 48 rounds, a write each
    raw = fail_one_raw_write(monkeypatch)
    assert run_plan(plan, tmp_path / "serial", client_factory=stub_factory(stub_server),
                    workers=1).complete
    raw.fail_at = len(raw.lines) + len(raw.lines) // 2
    with pytest.raises(OSError) as failed:
        run_plan(plan, tmp_path / "cut", client_factory=stub_factory(stub_server), workers=4)
    assert (failed.value.errno, failed.value.filename) == (
        errno.ENOSPC, str(tmp_path / "cut" / ROUNDS_NAME))
    assert not [t.name for t in threading.enumerate() if t.name.startswith("nvlab-unit")]
    assert len(RunStore(tmp_path / "cut").records()) < 48
    assert resume(tmp_path / "cut", client_factory=stub_factory(stub_server),
                  workers=4).complete
    assert stripped_lines(tmp_path / "cut") == stripped_lines(tmp_path / "serial")
