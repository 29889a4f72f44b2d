import dataclasses
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}", flush=True)

from nvlab.agents import AgentSpec
from nvlab.model import ScenarioConfig, profit, sample_sequence, scenario
from nvlab.prompts import render_prompt
from nvlab.runner import ExperimentPlan, PlanCondition, build_manifest, derive_seed
from nvlab.store import RoundRecord, RunStore, Trajectory, sha256_text


# a provider's refusal of a request past the model's context window, longer than the
# 300 bytes a failure keeps
TOO_LONG_BODY = (b'{"error": {"message": "This model\'s maximum context length exceeded by '
                 b'your messages", "type": "invalid_request_error"}}' + b" " * 400)


class StubChatServer(ThreadingHTTPServer):
    """Local chat-completions endpoint with scriptable failure modes.

    mode:
      "ok"          -- always answer
      "flaky"       -- alternate 429 / 200 on one counter shared by every
                       connection: one rate-limit failure per logical request
                       when the client retries once and a single worker sends
                       (concurrent workers can draw two 429s in a row)
      "always-429"  -- rate-limit every request
      "retry-after" -- rate-limit every request with ``Retry-After: <retry_after>``
      "unauthorized"-- reject every request with 401
      "garbage"     -- answer 200 with an unreadable body, cycling through
                       not JSON, not UTF-8, and cut short of its Content-Length
      "undecodable" -- answer 200 with JSON that ``json`` cannot decode, cycling
                       through 100,000 nested arrays and a 5,001-digit number
      "bad-usage"   -- answer, with a ``usage`` that alternates between a
                       string and a number instead of an object
      "no-choices"  -- answer 200 with a payload whose ``choices`` is empty
      "too-long"    -- answer a request whose messages hold more than
                       ``max_chars`` content characters with 400 and
                       `TOO_LONG_BODY`, as a model past its context window
    """

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _StubHandler)
        self.mode = "ok"
        self.reply_fn = lambda body: "After weighing the trade-off, I will order 150 wodgets."
        self.retry_after = "1"
        self.max_chars = 2000
        self.requests = []
        self.counter = 0
        self.lock = threading.Lock()

    @property
    def url(self):
        host, port = self.server_address
        return f"http://{host}:{port}/v1/chat/completions"


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        if len(raw) < length:  # the client went away mid-request, as a killed run can
            return
        body = json.loads(raw or b"{}")
        with self.server.lock:
            self.server.requests.append(body)
            self.server.counter += 1
            count = self.server.counter
        mode = self.server.mode
        if mode == "unauthorized":
            self._send_status(401)
            return
        if mode == "always-429" or (mode == "flaky" and count % 2 == 1):
            self._send_status(429)
            return
        if mode == "retry-after":
            self._send_status(429, {"Retry-After": self.server.retry_after})
            return
        if mode == "too-long" and sum(
                len(m["content"]) for m in body["messages"]) > self.server.max_chars:
            self._send_status(400, payload=TOO_LONG_BODY)
            return
        if mode == "garbage":
            kind = (count - 1) % 3
            payload = (b"<html>bad gateway</html>", b'{"text": "\xff"}', b'{"choices": [')[kind]
            self.send_response(200)
            # the last kind promises more bytes than it sends before the close
            self.send_header("Content-Length", str(len(payload) + (64 if kind == 2 else 0)))
            self.end_headers()
            self.wfile.write(payload)
            return
        if mode == "undecodable":
            payload = (b"[" * 100_000, b'{"usage":{"n":1' + b"0" * 5000 + b"}}")[(count - 1) % 2]
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        text = self.server.reply_fn(body)
        usage = {"prompt_tokens": 42, "completion_tokens": 17, "total_tokens": 59}
        if mode == "bad-usage":
            usage = ("lots", 5)[(count - 1) % 2]
        choices = [] if mode == "no-choices" else [
            {"message": {"role": "assistant", "content": text}}]
        payload = json.dumps({"choices": choices, "usage": usage}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_status(self, code, headers=None, payload=b""):
        self.send_response(code)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = StubChatServer()
    # a 0.01 s poll: `shutdown` waits for the next poll, 0.5 s by default
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def strip_timestamps(line: str) -> str:
    """Round-record line with the timestamp fields zeroed, for comparisons."""
    data = json.loads(line)
    for key in ("ts_start", "ts_end"):
        data[key] = 0.0
    return json.dumps(data, separators=(",", ":"))


def write_config(config, path):
    """Write a `RunConfig` as the JSON object `RunConfig.from_file` reads; returns ``path``."""
    path.write_text(json.dumps(dataclasses.asdict(config), indent=2) + "\n", encoding="utf-8")
    return path


def make_trajectory(sc: ScenarioConfig, orders, demands, agent="test-agent",
                    order_condition="high-first", repetition=0, block_index=1) -> Trajectory:
    """In-memory trajectory with consistent profit accounting, for metric tests."""
    records = []
    cumulative = 0
    for t, (order, demand) in enumerate(zip(orders, demands), start=1):
        pi = profit(order, demand, sc.cost)
        cumulative += pi
        records.append(
            RoundRecord(
                run_id="test",
                condition_index=0,
                agent=agent,
                experiment=sc.experiment,
                dist=sc.demand.kind,
                order_condition=order_condition,
                repetition=repetition,
                block_index=block_index,
                margin=sc.margin,
                round_index=t,
                order=order,
                demand=demand,
                profit=pi,
                cumulative_profit=cumulative,
                parse_confidence="exact",
                prompt_sha256="",
                raw_response="",
            )
        )
    return Trajectory(sc, records)


def integer_mix(mean: float, n: int) -> list[int]:
    """n integers whose mean is exactly ``mean`` (needs frac(mean) * n integral)."""
    base = math.floor(mean)
    k = round((mean - base) * n)
    assert abs((mean - base) * n - k) < 1e-6, f"mean {mean} not reachable with {n} integers"
    return [base + 1] * k + [base] * (n - k)


def write_replay_store(run_dir, rows, reps=10, rounds=10):
    """Synthesize a valid run store whose per-margin mean orders are pinned.

    ``rows`` is a list of (dist_kind, model_name, mean_high, mean_low); each
    row becomes one condition of an LLM agent of that model. Each round's
    demand is its seeded draw and its profits and prompt hash are recomputed,
    so the store reads back as a run would have written it.
    """
    conditions = tuple(
        PlanCondition("E1-baseline", dist, AgentSpec("llm", model_name=label), "high-first",
                      repetitions=reps, rounds_per_block=rounds, base_seed=0)
        for dist, label, _, _ in rows
    )
    plan = ExperimentPlan(conditions)
    with RunStore(run_dir) as store:
        store.create(build_manifest(plan))
        for condition_index, (dist, label, mean_high, mean_low) in enumerate(rows):
            for block_index, mean in ((1, mean_high), (2, mean_low)):
                margin = "high" if block_index == 1 else "low"
                sc = scenario("E1-baseline", margin, dist, rounds)
                orders = integer_mix(mean, reps * rounds)
                position = 0
                for repetition in range(reps):
                    cumulative = 0
                    last = None
                    draws = sample_sequence(sc.demand, rounds,
                                            derive_seed(0, repetition, block_index))
                    for round_index, demand in enumerate(draws, start=1):
                        order = orders[position]
                        position += 1
                        pi = profit(order, demand, sc.cost)
                        cumulative += pi
                        feedback = () if last is None else (
                            last.order, last.demand, last.profit, last.cumulative_profit)
                        record = RoundRecord(
                            run_id=plan.run_id(),
                            condition_index=condition_index,
                            agent=label,
                            experiment="E1-baseline",
                            dist=dist,
                            order_condition="high-first",
                            repetition=repetition,
                            block_index=block_index,
                            margin=margin,
                            round_index=round_index,
                            order=order,
                            demand=demand,
                            profit=pi,
                            cumulative_profit=cumulative,
                            parse_confidence="exact",
                            prompt_sha256=sha256_text(render_prompt(sc, *feedback)),
                            raw_response=f"replay fixture: constant order {order}",
                        )
                        store.append(record.to_line())
                        last = record
    return plan
