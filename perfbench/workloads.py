"""The four benchmark workloads, each run in a fresh interpreter.

    python3 perfbench/workloads.py --workload sim-grid --seed 1 --seconds 15 \
        --trace 0 --work .perfbench_work

runs set-up, then timed passes for ``--seconds`` (at least ``MIN_PASSES``),
checks every pass's output, and prints one JSON object: ``correct``,
``attempted``, ``failed``, ``problems``, ``metrics``, ``samples`` and
``info``. ``--phase setup`` is the set-up of report-grid and resume-grid: it
builds the scripted stores in a process of its own, so that the measuring
process's peak memory is that of the measured work alone.

Every workload is closed-loop, from this one process and one client thread.
CPU-bound timings of nvlab work, and ``import nvlab`` in a fresh
interpreter, are scaled to a reference speed of the machine (``speed.py``);
llm-stub's passes, which the stub's latency sets, and its stub start-ups are
not.
With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones; the metrics are then the per-layer ones.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import nvlab  # noqa: E402
import tracing  # noqa: E402
from speed import Gauge  # noqa: E402

MIN_PASSES = 3
MIN_IMPORT_SAMPLES = 9
IMPORT_ENV = dict(os.environ, PYTHONPATH=str(SRC))  # what a fresh nvlab process sees
PROBE_INTERVAL_S = 2.0
SETUP_REPEATS = 3
SIM_SETUP_BATCHES = 3
SIM_SETUP_BATCH = 100
CHASE_RATE = 1.0
LLM_REPETITIONS = 4
STUB_LATENCY_MS = 10.0


def scripted_agents():
    """The four scripted agents, as ``nvlab simulate`` builds them by default."""
    return [
        nvlab.AgentSpec("optimal"),
        nvlab.AgentSpec("mean-anchor", anchor_weight=checks.ANCHOR_WEIGHT),
        nvlab.AgentSpec("demand-chaser", chase_rate=CHASE_RATE),
        nvlab.AgentSpec("random"),
    ]


def grid_plans(seed: int, **grid) -> list:
    """One plan per scripted agent over the README default grid (or ``grid``)."""
    config = nvlab.RunConfig(base_seed=seed, **grid)
    return [nvlab.build_plan(config, [agent]) for agent in scripted_agents()]


def plan_rounds(plan) -> int:
    return sum(2 * c.repetitions * c.rounds_per_block for c in plan.conditions)


def plan_trajectories(plan) -> int:
    return sum(2 * c.repetitions for c in plan.conditions)


def check_grid_stores(plans, root) -> tuple[list[str], list[str]]:
    """Problems and stripped digests of the scripted stores under ``root``."""
    calls = []
    for plan in plans:
        condition = plan.conditions[0]
        calls.append(("check_sim_store", {
            "kind": condition.agent.kind, "run_dir": str(Path(root) / plan.run_id()),
            "trajectories_expected": plan_trajectories(plan),
            "rounds": condition.rounds_per_block}))
    calls += [("stripped_digest", {"run_dir": str(Path(root) / plan.run_id())})
              for plan in plans]
    results = checks.isolated(calls)
    return sum(results[:len(plans)], []), results[len(plans):]


def truncate_store(src: Path, dst: Path, rounds: int) -> int:
    """Copy a store without the final round of each trajectory; return the rounds removed."""
    dst.mkdir(parents=True)
    shutil.copy2(src / "manifest.json", dst / "manifest.json")
    removed = 0
    with open(src / "rounds.jsonl", encoding="utf-8") as handle, \
            open(dst / "rounds.jsonl", "w", encoding="utf-8") as out:
        for line in handle:
            if json.loads(line)["round_index"] == rounds:
                removed += 1
            else:
                out.write(line)
    return removed


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


class Workload:
    """Set-up, one timed pass, and the bookkeeping shared by every workload."""

    rounds_per_pass = 0
    attempted_per_pass = 0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.requests = 0  # requests the chat endpoint received
        self.gauge = Gauge()

    def setup(self) -> list[float]:
        raise NotImplementedError

    def setup_probe(self) -> float | None:
        """One more set-up sample, taken between passes; None where set-up is
        too costly to repeat there."""
        return None

    def run_pass(self) -> float:
        """Run one pass, check it, and return the seconds of its timed part
        (at the reference speed where the part is CPU-bound nvlab work)."""
        raise NotImplementedError

    def close(self):
        pass

    def rounds_per_s(self, times: list[float]) -> tuple[float, int]:
        """Median throughput over the passes, and its sample count."""
        return statistics.median(self.rounds_per_pass / t for t in times), len(times)

    def extra_info(self) -> dict:
        return {}

    def record(self, unresolved: int, problems: list[str]):
        self.attempted += self.attempted_per_pass
        self.failed += self.attempted_per_pass if problems else unresolved
        self.problems += problems


class SimGrid(Workload):
    """run_plan for each scripted agent into fresh stores."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.digests = None
        self.agent_times: list[list[float]] = []

    def setup(self):
        times = [self.setup_probe() for _ in range(SIM_SETUP_BATCHES)]
        self.rounds_per_pass = self.attempted_per_pass = sum(map(plan_rounds, self.plans))
        return times

    def setup_probe(self):
        """Build the four plans: the mean of a batch of ``SIM_SETUP_BATCH``
        builds, because one build (about 0.5 ms) is too short to time steadily."""
        def batch():
            for _ in range(SIM_SETUP_BATCH):
                plans = grid_plans(self.seed)
            return plans

        self.plans, elapsed = self.gauge.time(batch)
        return elapsed / SIM_SETUP_BATCH

    def run_pass(self):
        out = fresh(self.work / "pass")
        unresolved = 0
        times = []
        for plan in self.plans:
            # keep only the count: holding an outcome would add to the next run's peak memory
            failures, elapsed = self.gauge.time(
                lambda: len(nvlab.run_plan(plan, out / plan.run_id()).failures))
            unresolved += failures
            times.append(elapsed)
        self.agent_times.append(times)
        problems, digests = check_grid_stores(self.plans, out)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("stripped rounds.jsonl digest differs between repeats")
        self.record(unresolved, problems)
        shutil.rmtree(out)
        return sum(times)

    def rounds_per_s(self, times):
        """Grid rounds over the sum of each agent's median time: the per-agent
        runs are the samples, so one slow agent run moves the figure less."""
        per_agent = [statistics.median(column) for column in zip(*self.agent_times)]
        return self.rounds_per_pass / sum(per_agent), len(self.agent_times) * len(per_agent)


class StoreWorkload(Workload):
    """A workload whose inputs are the sim-grid stores, built by ``--phase setup``."""

    def setup(self):
        inputs = self.work / "inputs"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--phase", "setup",
             "--workload", self.name, "--seed", str(self.seed), "--work", str(inputs)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.problems += report["problems"]
        self.plan_ids = report["run_ids"]
        self.stores = [inputs / "stores" / run_id for run_id in self.plan_ids]
        self.digests = report["digests"]
        self.truncated = inputs / "truncated"
        self.rounds_per_pass = report["rounds"]
        self.removed_rounds = report["removed_rounds"]
        return report["setup_s"]


def build_inputs(name: str, seed: int, work: Path) -> dict:
    """``--phase setup``: build the stores ``SETUP_REPEATS`` times, keep the last."""
    def build(target):
        """Build the stores; return the plans, the rounds removed and the
        seconds at the reference speed. Each store is timed on its own, so
        that the reference is taken close to the work it gauges."""
        plans, elapsed = gauge.time(grid_plans, seed)
        for plan in plans:
            _, seconds = gauge.time(
                lambda: nvlab.run_plan(plan, target / "stores" / plan.run_id()).complete)
            elapsed += seconds
        removed = 0
        if name == "resume-grid":
            removed, seconds = gauge.time(lambda: sum(
                truncate_store(target / "stores" / plan.run_id(),
                               target / "truncated" / plan.run_id(),
                               plan.conditions[0].rounds_per_block)
                for plan in plans))
            elapsed += seconds
        return plans, removed, elapsed

    gauge = Gauge()
    times = []
    for repeat in range(SETUP_REPEATS):
        target = fresh(work.with_name(f"{work.name}-{repeat}"))
        plans, removed, elapsed = build(target)
        times.append(elapsed)
    for repeat in range(SETUP_REPEATS - 1):
        shutil.rmtree(work.with_name(f"{work.name}-{repeat}"))
    fresh(work)
    target.rename(work)
    problems, digests = check_grid_stores(plans, work / "stores")
    return {
        "setup_s": times,
        "run_ids": [plan.run_id() for plan in plans],
        "rounds": sum(map(plan_rounds, plans)),
        "removed_rounds": removed,
        "problems": problems,
        "digests": digests,
    }


class ReportGrid(StoreWorkload):
    """build_report(..., compare_humans=True) over the four stores."""

    name = "report-grid"
    attempted_per_pass = 1

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.digest = None

    def run_pass(self):
        out = fresh(self.work / "bundle")
        _, elapsed = self.gauge.time(
            lambda: nvlab.build_report(self.stores, out, compare_humans=True))
        problems, digest = checks.isolated([
            ("check_bundle", {"out_dir": str(out)}),
            ("bundle_digest", {"out_dir": str(out)})])
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("report bundle differs between repeats")
        self.record(0, problems)
        shutil.rmtree(out)
        return elapsed


class ResumeGrid(StoreWorkload):
    """resume on copies of the stores that lack each trajectory's final round."""

    name = "resume-grid"

    def setup(self):
        times = super().setup()
        self.attempted_per_pass = self.removed_rounds
        return times

    def run_pass(self):
        out = fresh(self.work / "resumed")
        shutil.copytree(self.truncated, out)
        unresolved, elapsed = self.gauge.time(
            lambda: sum(len(nvlab.resume(out / run_id).failures) for run_id in self.plan_ids))
        digests = checks.isolated(
            [("stripped_digest", {"run_dir": str(out / run_id)}) for run_id in self.plan_ids])
        problems = [f"{run_id}: resumed store differs from the uninterrupted run"
                    for run_id, got, want in zip(self.plan_ids, digests, self.digests)
                    if got != want]
        self.record(unresolved, problems)
        shutil.rmtree(out)
        return elapsed


class LlmStub(Workload):
    """An LLM agent through ChatClient against the loopback stub endpoint."""

    def __init__(self, seed, work, repetitions=LLM_REPETITIONS, latency_ms=STUB_LATENCY_MS):
        super().__init__(seed, work)
        self.repetitions = repetitions
        self.latency_ms = latency_ms
        self.stub = None
        self.rounds = 0

    def _start_stub(self):
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--seed", str(self.seed),
             "--latency-ms", str(self.latency_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self._stop(proc)
            raise RuntimeError(f"stub did not start: {line}")
        return proc, f"http://127.0.0.1:{line[1]}"

    @staticmethod
    def _stop(proc):
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def setup(self):
        times = [self.setup_probe() for _ in range(SETUP_REPEATS - 1)]
        start = time.perf_counter()
        self.stub, self.url = self._start_stub()
        times.append(time.perf_counter() - start)
        config = nvlab.RunConfig(
            endpoint=f"{self.url}/v1/chat/completions", models=("stub-model",),
            experiments=("E1",), distributions=("uniform",), order_conditions=("high-first",),
            repetitions=self.repetitions, base_seed=self.seed)
        self.plan = nvlab.build_plan(config, [nvlab.AgentSpec("llm", model_name="stub-model")])
        # At most one request per millisecond, with no burst allowance: this
        # closed loop (one request at a time, each lasting at least the stub's
        # latency) never waits, so wait_ms reads 0; requests sent concurrently
        # would wait and show there.
        self.bucket = nvlab.TokenBucket(1000.0, capacity=1.0)
        self.rounds_per_pass = self.attempted_per_pass = plan_rounds(self.plan)
        return times

    def setup_probe(self):
        """Start a stub until it listens, then stop it again."""
        start = time.perf_counter()
        proc, _ = self._start_stub()
        elapsed = time.perf_counter() - start
        self._stop(proc)
        return elapsed

    def client(self, spec):
        return nvlab.ChatClient(
            f"{self.url}/v1/chat/completions", spec.model_name, api_key="perfbench",
            temperature=spec.temperature, max_retries=3, backoff_base=0.01,
            rate_limiter=self.bucket)

    def stats(self) -> dict:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=10) as response:
            return json.loads(response.read())

    def run_pass(self):
        out = fresh(self.work / "llm")
        before = self.stats()
        start = time.perf_counter()
        outcome = nvlab.run_plan(self.plan, out, client_factory=self.client)
        elapsed = time.perf_counter() - start
        after = self.stats()
        delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
        condition = self.plan.conditions[0]
        [problems] = checks.isolated([("check_llm_store", {
            "run_dir": str(out), "trajectories_expected": plan_trajectories(self.plan),
            "rounds": condition.rounds_per_block, "seed": self.seed,
            "first_position": before.get("round_requests", 0), "stats_delta": delta})])
        self.requests += delta.get("requests", 0)
        self.rounds += sum(len(t.records) for t in outcome.trajectories)
        self.record(len(outcome.failures), problems)
        shutil.rmtree(out)
        return elapsed

    def close(self):
        if self.stub is not None:
            self._stop(self.stub)
            self.stub = None

    def extra_info(self):
        return {"chat_requests_per_round": self.requests / self.rounds if self.rounds else 0.0,
                "stub_latency_ms": self.latency_ms}


WORKLOADS = {
    "sim-grid": SimGrid,
    "report-grid": ReportGrid,
    "resume-grid": ResumeGrid,
    "llm-stub": LlmStub,
}


def timed_passes(workload: Workload, seconds: float, min_passes: int,
                 probes: tuple[list, list] | None = None) -> list[float]:
    """Passes for ``seconds``. With ``probes``, the lists of import and set-up
    samples, also an import probe and a set-up probe between passes every
    ``PROBE_INTERVAL_S``, so that they sample the same span of the machine's
    varying speed as the passes."""
    times = []
    start = last_probe = time.perf_counter()
    while len(times) < min_passes or time.perf_counter() - start < seconds:
        times.append(workload.run_pass())
        if probes is not None and time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            imports, setups = probes
            imports.append(workload.gauge.import_nvlab(IMPORT_ENV))
            setup = workload.setup_probe()
            if setup is not None:
                setups.append(setup)
            last_probe = time.perf_counter()
    return times


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def measure(args) -> dict:
    work = Path(args.work)
    workload = WORKLOADS[args.workload](args.seed, work)
    samples: dict = {}
    metrics: dict = {}
    try:
        setup_times = workload.setup()
        if args.trace:
            plain = timed_passes(workload, args.seconds / 2, 2)
            tracer = tracing.Tracer()
            requests_before = workload.requests
            tracer.install()
            try:
                traced = timed_passes(workload, args.seconds / 2, 1)
            finally:
                tracer.uninstall()
            if tracer.missing:
                workload.problems.append(
                    "traced functions not found in nvlab: " + ", ".join(tracer.missing))
            metrics = tracing.layer_metrics(
                tracer, len(traced), workload.rounds_per_pass * len(traced),
                workload.requests - requests_before)
            metrics["trace.overhead_pct"] = (
                statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
            spans = ROOT / ".perfbench_out" / f"{args.workload}.spans.jsonl"
            spans.parent.mkdir(exist_ok=True)
            tracer.write(spans)
            samples.update(untraced_passes=len(plain), traced_passes=len(traced),
                           spans=len(tracer.spans))
        else:
            imports = []
            times = timed_passes(workload, args.seconds, MIN_PASSES, (imports, setup_times))
            imports += [workload.gauge.import_nvlab(IMPORT_ENV)
                        for _ in range(MIN_IMPORT_SAMPLES - len(imports))]
            rate, samples["rounds_per_s"] = workload.rounds_per_s(times)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "import_s": statistics.median(imports),
                "rounds_per_s": rate,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            samples["import_s"] = len(imports)
        samples["setup_s"] = len(setup_times)
    except Exception:
        traceback.print_exc()
        workload.problems.append("exception: " + traceback.format_exc().splitlines()[-1])
        workload.attempted = max(workload.attempted, 1)
        workload.failed = workload.attempted
    finally:
        workload.close()
    return {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems[:20],
        "metrics": metrics,
        "samples": samples,
        "info": {"rounds_per_pass": workload.rounds_per_pass, **machine(),
                 **workload.gauge.summary(),
                 **workload.extra_info()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="required to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="required to measure")
    parser.add_argument("--work", required=True)
    parser.add_argument("--phase", choices=("measure", "setup"), default="measure")
    args = parser.parse_args(argv)
    if args.phase == "measure" and (args.seconds is None or args.trace is None):
        parser.error("--seconds and --trace are required to measure")
    if args.phase == "setup":
        print(json.dumps(build_inputs(args.workload, args.seed, Path(args.work))))
    else:
        print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
