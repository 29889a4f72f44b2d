"""Timings scaled to a reference speed of the machine.

The machines this benchmark runs on are shared, and their speed moves by up
to about 2x within seconds and for minutes at a time, as other work on the
host comes and goes. A fixed reference computation, timed just before and
just after a sample, gauges the speed during that sample; the sample is then
scaled by ``REFERENCE_S`` over the reference's mean time, so that it reads
as if the machine had run at the reference speed throughout.

The references use no nvlab code, so no change to nvlab can move them. The
one for in-process work is shaped like nvlab's per-round work: dicts,
f-strings, JSON and sha256. The one for ``import nvlab``, which is mostly
loading compiled modules and shared libraries, imports a fixed set of
standard-library modules, C extensions among them, in a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import time

REFERENCE_ROWS = 2500
# Seconds the reference takes on the machine perfbench/README.md describes,
# in its faster phases. Any fixed value would do; this one keeps scaled
# timings close to what that machine measures when it is not slowed.
REFERENCE_S = 0.017
REFERENCE_MODULES = ("decimal, asyncio, email.mime.multipart, xml.dom.minidom, unittest, "
                     "http.server, logging.handlers, tarfile, zipfile, csv, uuid")
REFERENCE_IMPORT_S = 0.07  # the same, for importing REFERENCE_MODULES


def reference_s() -> float:
    """Seconds taken by the fixed reference computation."""
    start = time.perf_counter()
    rows = []
    for i in range(REFERENCE_ROWS):
        record = {"round_index": i, "order": (i * 37) % 181 + 60, "demand": (i * 53) % 300,
                  "prompt": f"Round {i}: last demand was {(i * 7) % 300} units. "
                            "How many will you order?"}
        line = json.dumps(record, sort_keys=True)
        # keep little, so that the reference never sets the peak memory measured
        rows.append((hashlib.sha256(line.encode("utf-8")).hexdigest(), json.loads(line)["order"]))
    rows.sort()
    return time.perf_counter() - start


def fresh_import_s(modules: str, env: dict) -> float:
    """Seconds a fresh interpreter takes to import ``modules``, timed inside it."""
    code = (f"import time; start = time.perf_counter(); import {modules}; "
            "print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)


class Gauge:
    """Times calls at the reference speed and keeps the slowdowns it saw."""

    def __init__(self):
        self.slowdowns: list[float] = []  # reference time over REFERENCE_S, per sample
        self.import_slowdowns: list[float] = []  # the same for REFERENCE_IMPORT_S

    def time(self, fn, *args):
        """Call ``fn(*args)``; return its result and its seconds at the reference speed."""
        before = reference_s()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        slowdown = (before + reference_s()) / 2 / REFERENCE_S
        self.slowdowns.append(slowdown)
        return result, elapsed / slowdown

    def import_nvlab(self, env: dict) -> float:
        """Seconds a fresh interpreter takes to ``import nvlab``, at the reference speed."""
        before = fresh_import_s(REFERENCE_MODULES, env)
        elapsed = fresh_import_s("nvlab", env)
        slowdown = (before + fresh_import_s(REFERENCE_MODULES, env)) / 2 / REFERENCE_IMPORT_S
        self.import_slowdowns.append(slowdown)
        return elapsed / slowdown

    def summary(self) -> dict:
        """Median slowdowns seen, with their sample counts."""
        return {name: (statistics.median(values) if values else None, len(values))
                for name, values in (("slowdown", self.slowdowns),
                                     ("import_slowdown", self.import_slowdowns))}
