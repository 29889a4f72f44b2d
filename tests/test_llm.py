import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import nvlab
from nvlab.llm import (AuthError, BudgetExceededError, ChatClient, RejectedError, TokenBucket,
                       TransportError)

MESSAGES = [{"role": "user", "content": "How many wodgets will you order?"}]


def make_client(server, **kwargs):
    kwargs.setdefault("backoff_base", 0.001)
    kwargs.setdefault("max_retries", 3)
    return ChatClient(server.url, "test-model", api_key="sk-test", **kwargs)


def test_chat_returns_nonempty_text(stub_server):
    result = make_client(stub_server).chat(MESSAGES)
    assert result.text
    assert result.retries == 0
    assert result.usage["total_tokens"] == 59


def test_chat_sends_wire_format(stub_server):
    client = make_client(stub_server, temperature=0.7)
    client.chat(MESSAGES)
    body = stub_server.requests[-1]
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.7
    assert body["messages"] == MESSAGES


def test_rate_limit_then_success_is_one_retry(stub_server):
    stub_server.mode = "flaky"
    result = make_client(stub_server).chat(MESSAGES)
    assert result.retries == 1
    assert len(stub_server.requests) == 2


def test_exhausted_retries_raise_transport_error(stub_server):
    stub_server.mode = "always-429"
    client = make_client(stub_server, max_retries=2)
    with pytest.raises(TransportError):
        client.chat(MESSAGES)
    assert len(stub_server.requests) == 3  # initial attempt + 2 retries


def test_invalid_credential_fails_fast(stub_server):
    stub_server.mode = "unauthorized"
    client = make_client(stub_server)
    with pytest.raises(AuthError):
        client.chat(MESSAGES)
    assert len(stub_server.requests) == 1  # no retry on auth failure


@pytest.mark.parametrize("status, error", [
    (400, RejectedError), (404, RejectedError), (422, RejectedError),
    (401, AuthError), (403, AuthError), (501, TransportError),
])
def test_a_status_that_is_not_retried_raises_at_once_by_kind(stub_server, status, error):
    """A 4xx other than 401, 403 and 429 is the request's own refusal; a 501 is the endpoint's."""
    stub_server.mode, stub_server.status = "status", status
    with pytest.raises(TransportError) as raised:
        make_client(stub_server, max_retries=3).chat(MESSAGES)
    assert type(raised.value) is error
    assert len(stub_server.requests) == 1
    if error is not AuthError:
        assert str(raised.value) == f"HTTP {status} from {stub_server.url}: refused by the stub"


def test_connection_failure_raises_transport_error():
    client = ChatClient("http://127.0.0.1:9/v1/chat/completions", "m",
                        max_retries=1, backoff_base=0.001)
    with pytest.raises(TransportError):
        client.chat(MESSAGES)


def test_request_budget_guards_runaway_retries(stub_server):
    stub_server.mode = "always-429"
    client = make_client(stub_server, request_budget=2, max_retries=10)
    with pytest.raises(BudgetExceededError):
        client.chat(MESSAGES)
    assert len(stub_server.requests) == 2


def test_budget_counts_across_calls(stub_server):
    client = make_client(stub_server, request_budget=3)
    client.chat(MESSAGES)
    client.chat(MESSAGES)
    client.chat(MESSAGES)
    with pytest.raises(BudgetExceededError):
        client.chat(MESSAGES)
    assert client.requests_sent == 3


def test_backoff_delays_grow_exponentially(stub_server):
    stub_server.mode = "always-429"
    sleeps = []
    client = make_client(stub_server, max_retries=3, backoff_base=0.5,
                         sleeper=sleeps.append)
    with pytest.raises(TransportError):
        client.chat(MESSAGES)
    assert sleeps == [0.5, 1.0, 2.0]


@pytest.mark.parametrize("retry_after, timeout, sleeps", [
    ("1.5", 120.0, [1.5, 1.5, 2.0]),  # waits at least what the provider asks
    ("600", 5.0, [5.0, 5.0, 5.0]),  # but never longer than the request timeout
    ("Wed, 21 Oct 2015 07:28:00 GMT", 120.0, [0.5, 1.0, 2.0]),  # not delta-seconds
    ("soon", 120.0, [0.5, 1.0, 2.0]),
])
def test_backoff_honours_retry_after_seconds(stub_server, retry_after, timeout, sleeps):
    stub_server.mode = "retry-after"
    stub_server.retry_after = retry_after
    recorded = []
    client = make_client(stub_server, max_retries=3, backoff_base=0.5, timeout=timeout,
                         sleeper=recorded.append)
    with pytest.raises(TransportError):
        client.chat(MESSAGES)
    assert recorded == sleeps


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_token_bucket_spaces_out_a_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_second=2.0, capacity=1.0,
                         clock=clock, sleeper=clock.sleep)
    waits = [bucket.acquire() for _ in range(4)]
    assert waits[0] == 0.0
    assert sum(waits) == pytest.approx(1.5)  # three follow-ups at 0.5 s spacing
    assert clock.now == pytest.approx(1.5)


def test_token_bucket_refills_while_idle():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_second=1.0, capacity=2.0,
                         clock=clock, sleeper=clock.sleep)
    bucket.acquire()
    bucket.acquire()
    clock.now += 10  # long idle refills to capacity, but no further
    assert bucket.acquire() == 0.0
    assert bucket.acquire() == 0.0
    assert bucket.acquire() == pytest.approx(1.0)


def test_token_bucket_below_one_token_per_second_holds_one_token():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_second=0.5, clock=clock, sleeper=clock.sleep)
    assert bucket.capacity == 1.0
    assert bucket.acquire() == 0.0
    assert bucket.acquire() == pytest.approx(2.0)


@pytest.mark.parametrize("rate, capacity, message", [
    (1.0, 0.5, "capacity must be >= 1 and finite, got 0.5"),  # could never hold a whole token
    (1.0, 0.0, "capacity must be >= 1 and finite, got 0.0"),
    (1.0, -1.0, "capacity must be >= 1 and finite, got -1.0"),
    (1.0, float("nan"), "capacity must be >= 1 and finite, got nan"),
    (1.0, float("inf"), "capacity must be >= 1 and finite, got inf"),
    (float("nan"), None, "rate_per_second must be positive and finite, got nan"),
    (float("nan"), 2.0, "rate_per_second must be positive and finite, got nan"),
    (float("inf"), None, "rate_per_second must be positive and finite, got inf"),
    (0.0, None, "rate_per_second must be positive and finite, got 0.0"),
    (-2.0, 1.0, "rate_per_second must be positive and finite, got -2.0"),
], ids=repr)
def test_token_bucket_refuses_a_rate_or_capacity_it_cannot_serve(rate, capacity, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TokenBucket(rate, capacity=capacity)


def test_shared_bucket_rate_limits_real_requests(stub_server):
    bucket = TokenBucket(rate_per_second=200.0, capacity=1.0)
    client = make_client(stub_server, rate_limiter=bucket)
    started = time.monotonic()
    for _ in range(3):
        client.chat(MESSAGES)
    elapsed = time.monotonic() - started
    assert elapsed >= 0.009  # two spaced requests at 5 ms each


def test_unreadable_200_bodies_are_retried_then_raise_transport_error(stub_server):
    # one request each: not JSON, not UTF-8, truncated
    stub_server.mode = "garbage"
    client = make_client(stub_server, max_retries=2)
    with pytest.raises(TransportError, match="exhausted 2 retries"):
        client.chat(MESSAGES)
    assert len(stub_server.requests) == 3


def test_200_bodies_json_cannot_decode_are_retried_then_raise_transport_error(stub_server):
    # one request each: too deep (RecursionError), a number past the int digit limit (ValueError)
    stub_server.mode = "undecodable"
    client = make_client(stub_server, max_retries=1)
    with pytest.raises(TransportError, match="exhausted 1 retries: unreadable response body"):
        client.chat(MESSAGES)
    assert len(stub_server.requests) == 2


# --- the HTTP stack loads on the first request, not on import ------------------

HTTP_MODULES = ("http.client", "urllib.request", "urllib.error", "ssl", "email")

LOADED = f"sorted(m for m in {HTTP_MODULES!r} if m in sys.modules)"

# one high-first condition of 2-round blocks, given its agent and repetitions
PLAN = ("ExperimentPlan((PlanCondition('E1-baseline', 'uniform', AgentSpec({}), 'high-first', "
        "repetitions={}, rounds_per_block=2),))")
IMPORTS = ("from nvlab.agents import AgentSpec; "
           "from nvlab.runner import ExperimentPlan, PlanCondition, run_plan")


def fresh_interpreter(code: str, *args: str) -> list[str]:
    """The stdout lines of ``code`` run by a new interpreter that imports nvlab from here."""
    src = str(Path(nvlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                            env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_offline_use_loads_no_http_stack(tmp_path):
    lines = fresh_interpreter(f"""
        import sys
        import nvlab
        print({LOADED})
        import nvlab.cli
        print({LOADED})
        {IMPORTS}
        from nvlab.report import build_report
        assert run_plan({PLAN.format("'optimal'", 1)}, sys.argv[1] + "/run").complete
        print({LOADED})
        build_report([sys.argv[1] + "/run"], sys.argv[1] + "/report")
        print({LOADED})
    """, str(tmp_path))
    assert lines == ["[]"] * 4


def test_first_requests_from_pool_threads_load_the_http_stack(stub_server, tmp_path):
    lines = fresh_interpreter(f"""
        import sys, threading
        {IMPORTS}
        from nvlab.llm import ChatClient
        print({LOADED})
        callers = set()

        class Client(ChatClient):
            def chat(self, messages):
                callers.add(threading.current_thread().name.split("_")[0])
                return super().chat(messages)

        factory = lambda spec: Client(sys.argv[1], spec.model_name, max_retries=0)
        outcome = run_plan({PLAN.format("'llm', model_name='m'", 4)}, sys.argv[2] + "/run",
                           client_factory=factory, workers=4)
        print(outcome.complete, sorted(callers))
        print({LOADED})
    """, stub_server.url, str(tmp_path))
    assert lines == ["[]", "True ['nvlab-unit']", str(sorted(HTTP_MODULES))]
    assert len(stub_server.requests) == 4 * 2 * 2  # repetitions x blocks x rounds
