import time

import pytest

from nvlab.llm import AuthError, BudgetExceededError, ChatClient, TokenBucket, TransportError

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
