"""nvlab benchmark: one workload run, its correctness check and its metrics.

    python3 perfbench/run.py --workload sim-grid --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; nvlab is imported from ``src/``.
Prints a readable summary, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones. Exits 2 without a result when there is no
``src/nvlab`` to measure. Workloads, metrics and the layer each per-layer
metric should move are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("sim-grid", "report-grid", "resume-grid", "llm-stub")
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0
END_TO_END = {"setup_s": "s", "import_s": "s", "rounds_per_s": "1/s", "peak_rss_mb": "MB"}
IMPORTTIME_MODULES = {
    "nvlab": "import.nvlab_ms",
    "scipy.special": "import.scipy.special_ms",
    "nvlab.model": "import.nvlab.model_ms",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # one source of run-to-run timing variance fewer
    return env


def importtime_ms() -> dict:
    """Cumulative import time of selected modules from ``python -X importtime``."""
    samples: dict = {name: [] for name in IMPORTTIME_MODULES.values()}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nvlab"],
                              env=child_env(), capture_output=True, text=True, check=True,
                              timeout=60)
        seen = dict.fromkeys(IMPORTTIME_MODULES.values(), 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTTIME_MODULES:
                seen[IMPORTTIME_MODULES[parts[2].strip()]] = int(parts[1]) / 1000.0
        for name, value in seen.items():
            samples[name].append(value)
    return {name: statistics.median(values) for name, values in samples.items()}


def summary(args, result: dict) -> list[str]:
    info, samples = result["info"], result["samples"]
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} correct={result['correct']}",
        f"  machine: nproc={info.get('nproc')} python={info.get('python')} "
        f"numpy={info.get('numpy')} scipy={info.get('scipy')}",
        f"  failed_share: {result['failed']}/{result['attempted']}",
    ]
    for key, what in (("slowdown", "reference work"), ("import_slowdown", "reference import")):
        median, count = info.get(key) or (None, 0)
        if count:
            lines.append(f"  machine speed: the {what} ran {median:.3f}x its reference time "
                         f"(median of {count}); timings it gauges are scaled back by it")
    if "chat_requests_per_round" in info:
        lines.append(f"  chat_requests_per_round: {info['chat_requests_per_round']:.4f} "
                     f"(stub latency {info['stub_latency_ms']:g} ms)")
    counts = {
        "setup_s": f"median of {samples.get('setup_s')} set-up samples",
        "import_s": f"median of {samples.get('import_s')} fresh interpreters",
        "rounds_per_s": f"from {samples.get('rounds_per_s')} samples; "
                        f"{info.get('rounds_per_pass')} rounds per pass",
    }
    for name, metric in result["metrics"].items():
        lines.append(f"  {name}: {metric['value']:.6g} {metric['unit']}"
                     + (f"  ({counts[name]})" if name in counts else ""))
    if args.trace:
        lines.append(f"  traced run: {samples}")
    lines += [f"  problem: {p}" for p in result.get("problems", [])]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one nvlab benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "nvlab" / "__init__.py").is_file():
        print(f"perfbench: no nvlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        units = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    else:
        units = END_TO_END

    started = time.monotonic()
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", str(WORK)],
            env=child_env(), stdout=subprocess.PIPE, text=True, check=False,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
        if proc.returncode != 0:
            print(f"perfbench: workload process exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = dict(result["metrics"])
        if args.trace:
            values.update(importtime_ms())
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    missing = [name for name in units if name not in values]
    if missing:
        print("\n".join(f"perfbench: {p}" for p in result.get("problems", [])), file=sys.stderr)
        print(f"perfbench: the workload produced no {', '.join(missing)}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": float(values[name]), "unit": unit}
                         for name, unit in units.items()}
    print("\n".join(summary(args, result)))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
