"""Minimal chat-completions HTTP client.

Targets any endpoint speaking the standard chat wire format: POST a JSON body
``{"model", "messages", "temperature"}`` and read
``choices[0].message.content`` plus an optional ``usage`` block back. The
endpoint URL, model name and credential come from configuration and the
environment, never from code.

Transient failures (HTTP 429/5xx, connection errors, timeouts, and a 200
whose body is truncated, not UTF-8, not JSON, or too deep or long for ``json``)
are retried with exponential backoff, waiting longer when a 429 or 503 carries
a ``Retry-After`` delay in seconds (at most the request timeout); auth and
request-shape errors (4xx) surface immediately, the latter with the first 300
bytes of the response body, which may say why. A token bucket smooths bursts
and an optional per-run request budget hard-stops runaway spend. Every request
is logged with its elapsed time, retry count and token usage.

``http.client``, ``urllib.error`` and ``urllib.request`` (and with them
``email`` and ``ssl``) are imported by the first request, not by this module,
so offline use of nvlab never loads an HTTP stack.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from dataclasses import dataclass

log = logging.getLogger(__name__)

RETRYABLE_STATUS = (429, 500, 502, 503, 504)
RETRY_AFTER_STATUS = (429, 503)


class TransportError(RuntimeError):
    """The endpoint could not be reached or kept failing after retries."""


class AuthError(TransportError):
    """Credential was rejected; retrying cannot help."""


class BudgetExceededError(TransportError):
    """The per-run request budget is exhausted."""


@dataclass
class ChatResult:
    text: str
    usage: dict | None
    retries: int


class TokenBucket:
    """Thread-safe token bucket; acquire() blocks until a token is available.

    The rate must be positive and the capacity at least 1, both finite: a bucket
    that can never hold a whole token would make acquire() wait forever.
    """

    def __init__(self, rate_per_second: float, capacity: float | None = None,
                 clock=time.monotonic, sleeper=time.sleep):
        if capacity is None:
            capacity = max(1.0, rate_per_second)
        if not 0 < rate_per_second < math.inf:  # a NaN fails too
            raise ValueError(f"rate_per_second must be positive and finite, got {rate_per_second}")
        if not 1 <= capacity < math.inf:
            raise ValueError(f"capacity must be >= 1 and finite, got {capacity}")
        self.rate = rate_per_second
        self.capacity = capacity
        self._tokens = self.capacity
        self._clock = clock
        self._sleeper = sleeper
        self._last = clock()
        self._lock = threading.Lock()

    def acquire(self) -> float:
        """Take one token, sleeping as needed. Returns seconds waited."""
        waited = 0.0
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return waited
                shortfall = (1.0 - self._tokens) / self.rate
            self._sleeper(shortfall)
            waited += shortfall


class ChatClient:
    """A configured chat-completions endpoint; each request opens its own connection."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        temperature: float = 1.0,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        timeout: float = 120.0,
        rate_limiter: TokenBucket | None = None,
        request_budget: int | None = None,
        sleeper=time.sleep,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.temperature = temperature
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self.rate_limiter = rate_limiter
        self._budget = request_budget
        self._budget_lock = threading.Lock()
        self._sleeper = sleeper
        self.requests_sent = 0

    def _spend_budget(self):
        with self._budget_lock:
            if self._budget is not None:
                if self._budget <= 0:
                    raise BudgetExceededError("per-run request budget exhausted")
                self._budget -= 1
            self.requests_sent += 1

    def _post(self, body: bytes):
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(self.endpoint, data=body, headers=headers, method="POST")
        return urllib.request.urlopen(request, timeout=self.timeout)

    def chat(self, messages: list[dict]) -> ChatResult:
        """Send one completion request; retry transient failures with backoff."""
        import http.client
        import urllib.error

        body = json.dumps(
            {"model": self.model, "messages": messages, "temperature": self.temperature}
        ).encode("utf-8")

        last_error = None
        retry_after = None
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                delay = self.backoff_base * (2 ** (attempt - 1))
                if retry_after is not None:
                    delay = max(delay, min(retry_after, self.timeout))
                    retry_after = None
                log.info("retrying in %.2fs (attempt %d/%d): %s",
                         delay, attempt, self.max_retries, last_error)
                self._sleeper(delay)
            self._spend_budget()
            if self.rate_limiter is not None:
                self.rate_limiter.acquire()
            started = time.monotonic()
            try:
                with self._post(body) as response:
                    reply = response.read()
            except urllib.error.HTTPError as exc:
                detail = f"HTTP {exc.code} from {self.endpoint}"
                if exc.code in (401, 403):
                    raise AuthError(f"credential rejected: {detail}") from exc
                if exc.code in RETRYABLE_STATUS:
                    last_error = detail
                    if exc.code in RETRY_AFTER_STATUS:
                        retry_after = _retry_after_seconds(exc.headers)
                    continue
                try:  # the body may say why the request was refused
                    reason = exc.read(300).decode("utf-8", errors="replace")
                except (OSError, http.client.HTTPException):
                    reason = ""
                raise TransportError(f"{detail}: {reason}" if reason else detail) from exc
            except (urllib.error.URLError, TimeoutError, ConnectionError) as exc:
                last_error = f"connection failure: {exc}"
                continue
            except http.client.HTTPException as exc:  # a body cut short
                last_error = f"unreadable response body: {exc!r}"
                continue
            try:  # not in `_post`'s try: a ValueError there is the request's, not the body's
                payload = json.loads(reply.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # bad bytes, too deep or too many digits
                last_error = f"unreadable response body: {exc!r}"
                continue

            try:
                text = payload["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"malformed completion payload: {exc}") from exc
            if not isinstance(text, str) or not text:
                raise TransportError("empty completion text")
            usage = payload.get("usage")
            usage = usage if isinstance(usage, dict) else None  # not an object: as if absent
            log.info(
                "chat ok model=%s elapsed=%.3fs retries=%d usage=%s",
                self.model, time.monotonic() - started, attempt, usage,
            )
            return ChatResult(text=text, usage=usage, retries=attempt)

        raise TransportError(f"exhausted {self.max_retries} retries: {last_error}")


def _retry_after_seconds(headers) -> float | None:
    """The delta-seconds of a ``Retry-After`` header; None if absent or not a number."""
    try:
        seconds = float(headers.get("Retry-After"))
    except (AttributeError, TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None
