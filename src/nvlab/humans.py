"""Human reference constants for side-by-side report columns.

The values ship as a versioned, read-only data asset
(``assets/human_benchmarks.json``); they are never fetched and never
recomputed. Source: Schweitzer and Cachon (2000), experiment 1. Each value
is read by its key path, e.g. ``reference("bias", "uniform", "high")``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

HUMAN_LABEL = "humans"


@lru_cache(maxsize=1)
def human_benchmarks() -> dict:
    path = Path(__file__).resolve().parent / "assets" / "human_benchmarks.json"
    return json.loads(path.read_text(encoding="utf-8"))


def source() -> str:
    return human_benchmarks()["source"]


def reference(*path: str):
    """The asset's value at ``path``, or None where a key along it is absent."""
    node = human_benchmarks()
    for key in path:
        node = node.get(key) if isinstance(node, dict) else None
    return node
