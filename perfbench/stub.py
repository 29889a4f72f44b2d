"""Loopback chat-completions endpoint for the llm-stub workload.

One asyncio event loop on one thread serves every connection. The added
latency is a loop timer (``call_later``), so a request waiting out its
latency holds no thread.

Replies follow a seeded fault schedule over the sequence of round requests
(a request that is neither the retry of a rate-limited request nor the
follow-up to a nudge). Every period of ``PERIOD`` round requests holds
exactly the multiset ``PERIOD_KINDS``, shuffled by ``random.Random`` seeded
with (seed, period). The kinds are:

* ``exact``      -- a reply the client's explicit patterns parse;
* ``rate-limit`` -- HTTP 429; the retry of the same body gets an exact reply,
                    so a client with at least one retry never gives up;
* ``fallback``   -- a reply only the last-integer fallback parse accepts;
* ``nudge``      -- a reply with no integer at all; the client's follow-up
                    request gets an exact reply.

The stated order is a pure function of the round prompt:
``stated_order(sha256(prompt))``, the same hash the run store keeps as
``prompt_sha256``, so a check can recompute it from the store alone.

Run: ``python3 perfbench/stub.py --seed 1 --latency-ms 10``. It prints
``READY <port>`` once it listens on 127.0.0.1, answers ``GET /stats`` with
its counters (without added latency), and exits when its standard input
closes or it receives SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import random
import signal
import sys
from collections import Counter

PERIOD = 20
EXACT = "exact"
RATE_LIMIT = "rate-limit"
FALLBACK = "fallback"
NUDGE = "nudge"
# A synthetic mix, not measured from any endpoint: each fault path runs at
# least once per period (so a 120-round pass takes 12 rate-limits, 12 fallback
# parses and 6 nudges), and exact replies stay the large majority so that the
# stub's latency, not fault handling, sets the pace.
PERIOD_KINDS = (RATE_LIMIT,) * 2 + (FALLBACK,) * 2 + (NUDGE,) + (EXACT,) * 15

USAGE = {"prompt_tokens": 40, "completion_tokens": 20, "total_tokens": 60}
NO_ORDER_REPLY = "Balancing leftover cost against lost sales is hard; let me think again."


def stated_order(prompt_sha256: str) -> int:
    """The order the stub states for a round prompt, given the prompt's sha256 hex."""
    return 60 + int(prompt_sha256[:8], 16) % 181


def fault_kind(seed: int, position: int) -> str:
    """Kind of the round request at ``position`` (0-based) under ``seed``."""
    kinds = list(PERIOD_KINDS)
    random.Random(f"{seed}:{position // PERIOD}").shuffle(kinds)
    return kinds[position % PERIOD]


def reply_text(kind: str, order: int) -> str:
    if kind == FALLBACK:
        return f"Balancing leftover cost against lost sales, my pick is {order}."
    if kind == NUDGE:
        return NO_ORDER_REPLY
    return f"Balancing leftover cost against lost sales, I will order {order} wodgets."


class StubEndpoint:
    """Request accounting and reply selection; no I/O."""

    def __init__(self, seed: int):
        self.seed = seed
        self.stats = Counter()
        self._rate_limited = Counter()  # body digest -> 429s awaiting their retry

    def respond(self, body: bytes) -> tuple[int, dict | None]:
        self.stats["requests"] += 1
        messages = json.loads(body)["messages"]
        follow_up = (
            len(messages) >= 3
            and messages[-2]["role"] == "assistant"
            and messages[-2]["content"] == NO_ORDER_REPLY
        )
        prompt = messages[-3]["content"] if follow_up else messages[-1]["content"]
        digest = hashlib.sha256(body).hexdigest()
        if self._rate_limited[digest] > 0:
            self._rate_limited[digest] -= 1
            kind = EXACT
        elif follow_up:
            kind = EXACT
        else:
            kind = fault_kind(self.seed, self.stats["round_requests"])
            self.stats["round_requests"] += 1
            self.stats[kind] += 1
            if kind == RATE_LIMIT:
                self._rate_limited[digest] += 1
                return 429, None
        order = stated_order(hashlib.sha256(prompt.encode("utf-8")).hexdigest())
        text = reply_text(kind, order)
        return 200, {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": dict(USAGE),
        }


REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 429: "Too Many Requests"}


async def _serve(endpoint: StubEndpoint, latency: float):
    loop = asyncio.get_running_loop()

    async def delay():
        done = loop.create_future()
        loop.call_later(latency, done.set_result, None)
        await done

    async def handle(reader, writer):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            method, path, _ = lines[0].split(" ", 2)
            headers = {}
            for line in lines[1:]:
                if ":" in line:
                    key, value = line.split(":", 1)
                    headers[key.strip().lower()] = value.strip()
            body = await reader.readexactly(int(headers.get("content-length", "0")))
            if method == "GET" and path == "/stats":
                status, payload = 200, dict(endpoint.stats)
            elif method == "POST":
                try:
                    status, payload = endpoint.respond(body)
                except (ValueError, KeyError, IndexError, TypeError):
                    status, payload = 400, None
                await delay()
            else:
                status, payload = 404, None
            data = json.dumps(payload).encode("utf-8") if payload is not None else b""
            writer.write(
                f"HTTP/1.1 {status} {REASONS[status]}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
                "Connection: close\r\n\r\n".encode("latin-1") + data
            )
            await writer.drain()
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, ConnectionError):
            pass
        finally:
            writer.close()

    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    class _StdinWatch(asyncio.Protocol):
        def connection_lost(self, exc):
            stop.set()

    await loop.connect_read_pipe(_StdinWatch, sys.stdin)
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(f"READY {port}", flush=True)
    async with server:
        await stop.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args(argv)
    asyncio.run(_serve(StubEndpoint(args.seed), args.latency_ms / 1000.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
