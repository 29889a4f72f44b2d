"""Experiment orchestration.

A plan is a list of conditions; each condition pairs one demand distribution
and experiment variant with an agent, a presentation order and a repetition
count. Every repetition runs two consecutive scenario blocks -- one high
margin, one low margin, ordered per the condition -- of ``rounds_per_block``
rounds each, with feedback embedded in the next round's prompt.

Demand sequences are drawn up front from seeds derived per (repetition,
block): ``seed = base_seed XOR sha256("rep:<r>|block:<b>")[:8]``. The agent
never influences the demand stream, so different agents given the same base
seed face identical demands and can be compared pairwise, and a process
draws each stream once (`model.sample_sequence` keeps it).

For LLM agents one conversation transcript spans both blocks of a repetition
(the second block's first prompt is appended to the running transcript), so
the model experiences the margin switch inside a single interaction. Scripted
agents ignore transcripts. Set ``transcript_continuity=False`` to isolate
blocks instead.

`replay` expands a plan into its blocks in one loop. Each identity (condition,
repetition, block) gets its label head (the `RoundRecord` fields before
``round_index``) and scenario there, once; a read checks stored heads against
them. A scripted block spells each decided round's line itself: the head's
text (`store._line_head`, once, for its first decided round), then `store._TAIL`
of the values its walk holds, all of known JSON types (ints from the plan, the
draws and the order `decide` checked; finite clock floats). An LLM round's line
is `RoundRecord.to_line`'s, since its token usage takes the encoder.

Each (condition, repetition) is one unit of work: its blocks 1 and 2 run in
order, each through `_Block.walk`, the one round loop that fresh runs and
`resume` share. A block is handed its scenario's `ScenarioPrompts`, and
its walk hashes each round's prompt (`ScenarioPrompts.sha256`) from the
previous round's order, demand, profit and cumulative profit, without joining
its text. Only an LLM block, which keeps a transcript, renders the text. A
walk is the one place that says what a stored round must be: it checks each
stored round's values (unpacked once), then its prompt hash, then its seeded
demand draw, and advances the transcript as if the round had just been decided;
later rounds are decided and appended to the store one at a time, each by one
`agents.decide` call with the block's scenario and the previous round's order
and demand. A condition-block's repetitions share its `ScenarioPrompts` and
scripted rule (`scripted_rule`), set up once by that loop and built for the
first round decided in any of them; a replayed round needs none. The random
agent's orders are, like the demands, its block's seeded draws (round t orders
draw t), so each random block gets its own rule.

`replay` is the one read of stored rounds, shared by `report` and `resume`: it
checks every record's types and labels (`store.group_trajectories`), then
hands each block its stored rows to walk, in identity order; a block's
``records`` (the rounds walked so far) are its only progress. `resume`
replays them before it builds a client or decides a round, so a corrupt
store is refused before anything is appended. An unresolved round (transport
or parse failure after retries) stops its block and leaves the trajectory
incomplete for `resume`.

A round of an LLM block is flushed as it is appended, before the block's next
chat request. A scripted block's rounds are queued in the store and written in
one call, flushed, when its walk returns (or by the store's close if it
raises): a crash mid-block loses at most that block's unflushed rounds, which
`resume` decides again, same bytes.

A run appends through one store handle, closed when the run returns or
raises. Its outcome is the blocks it walked, each holding its stored rounds,
then those it decided: the file is not read back, and a decided round, built
from the plan, the seeded draw and an order `decide` checked, is not re-checked.

Plans with an LLM condition run their units on one pool of up to ``workers``
threads (`LLM_WORKERS` by default), since each repetition is its own
conversation and its rounds mostly wait on the endpoint; the store then
interleaves repetitions, and nothing downstream depends on line order. Any
exception other than an unresolved round, in a unit or in the caller (such
as KeyboardInterrupt), stops the run: no unit decides another round,
pending units are dropped, and the exception is re-raised once the rounds in
flight are stored. Scripted plans are CPU-bound and run their units in order
on the calling thread, so their store bytes are reproducible.
"""

from __future__ import annotations

import hashlib
import logging
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial

from . import model
from .agents import (
    EXACT,
    FALLBACK,
    LLM,
    RANDOM,
    AgentSpec,
    AmbiguousDecisionError,
    decide,
    scripted_rule,
)
from .llm import TransportError
from .prompts import default_templates, render_prompt, scenario_prompts
from .store import (  # the line template's parts too: a scripted block fills it itself
    _HEAD,
    _TAIL,
    TORN_NAME,
    IntegrityError,
    RoundRecord,
    RunStore,
    Trajectory,
    _line_head,
    _quote,
    canonical_json,
    group_trajectories,
    mistyped,
    sha256_text,
    where,
)

_EXACT_TEXT = _quote(EXACT)  # a scripted round's parse confidence, as its line spells it

log = logging.getLogger(__name__)

HIGH_FIRST = "high-first"
LOW_FIRST = "low-first"
ORDER_CONDITIONS = (HIGH_FIRST, LOW_FIRST)
LLM_WORKERS = 8  # units an LLM run decides at once unless told otherwise
RUN_FORMAT = "nvlab-run/1"  # a manifest's ``format``: the store layout this nvlab reads


@lru_cache(maxsize=4096, typed=True)  # pure; the default grid's 960 blocks share 20 demand seeds
def derive_seed(base_seed: int, repetition: int, block_index: int, salt: str = "demand") -> int:
    """Stable per-(repetition, block) seed: base_seed XOR a keyed hash."""
    digest = hashlib.sha256(f"{salt}|rep:{repetition}|block:{block_index}".encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & 0x7FFFFFFFFFFFFFFF


def _typed(cls, values: dict) -> dict:
    """``values`` once each has a JSON type ``cls`` annotates; the constructors take any."""
    if problem := mistyped(cls, values):
        raise TypeError("field {!r} is {!r}, not {}".format(*problem))
    return values


@dataclass(frozen=True)
class PlanCondition:
    """One experimental condition: who decides, under what demand, in what order."""

    experiment: str
    dist_kind: str
    agent: AgentSpec
    order_condition: str
    repetitions: int = 10
    rounds_per_block: int = model.DEFAULT_ROUNDS
    base_seed: int = 0

    def __post_init__(self):
        if self.order_condition not in ORDER_CONDITIONS:
            raise ValueError(f"order_condition must be one of {ORDER_CONDITIONS}")
        if self.repetitions < 1 or self.rounds_per_block < 1:
            raise ValueError("repetitions and rounds_per_block must be >= 1")
        # fail fast on inconsistent scenario parameters
        self.scenario_for_margin(model.HIGH)

    def scenario_for_margin(self, margin: str) -> model.ScenarioConfig:
        return model.scenario(self.experiment, margin, self.dist_kind, self.rounds_per_block)

    def margin_for_block(self, block_index: int) -> str:
        high_first = self.order_condition == HIGH_FIRST
        return model.HIGH if (block_index == 1) == high_first else model.LOW

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "dist": self.dist_kind,
            "agent": self.agent.to_dict(),
            "order_condition": self.order_condition,
            "repetitions": self.repetitions,
            "rounds_per_block": self.rounds_per_block,
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlanCondition":
        return cls(**_typed(cls, dict(
            experiment=data["experiment"],
            dist_kind=data["dist"],
            agent=AgentSpec.from_dict(_typed(AgentSpec, data["agent"])),
            order_condition=data["order_condition"],
            repetitions=data["repetitions"],
            rounds_per_block=data["rounds_per_block"],
            base_seed=data["base_seed"],
        )))


@dataclass(frozen=True)
class ExperimentPlan:
    conditions: tuple[PlanCondition, ...]
    transcript_continuity: bool = True

    def to_dict(self) -> dict:
        return {
            "conditions": [c.to_dict() for c in self.conditions],
            "transcript_continuity": self.transcript_continuity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentPlan":
        return cls(
            conditions=tuple(PlanCondition.from_dict(c) for c in data["conditions"]),
            transcript_continuity=_typed(cls, data).get("transcript_continuity", True),
        )

    def plan_hash(self) -> str:
        return sha256_text(canonical_json(self.to_dict()))

    def run_id(self) -> str:
        return f"run-{self.plan_hash()[:12]}"


@dataclass(order=True)
class RoundFailure:
    condition_index: int
    repetition: int
    block_index: int
    round_index: int
    kind: str  # "transport" | "parse"
    message: str

    def __str__(self) -> str:
        return (f"condition={self.condition_index} rep={self.repetition} "
                f"block={self.block_index} round={self.round_index} ({self.kind}): {self.message}")


@dataclass
class RunOutcome:
    """What one `run_plan` or `resume` call left in its store.

    ``trajectories`` are the blocks it walked that hold a round, by identity: those
    a fresh read of the store gives. ``failures`` are the rounds it left unresolved.
    """

    run_id: str
    store: RunStore
    trajectories: list[Trajectory]
    failures: list[RoundFailure] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failures and all(t.complete for t in self.trajectories)


def build_manifest(plan: ExperimentPlan) -> dict:
    return {
        "format": RUN_FORMAT,
        "run_id": plan.run_id(),
        "plan": plan.to_dict(),
        "plan_hash": plan.plan_hash(),
        "template_digests": {
            name: sha256_text(text) for name, text in default_templates().digest_inputs().items()
        },
    }


def load_plan(store: RunStore) -> ExperimentPlan:
    """The plan in a store's manifest of `RUN_FORMAT`, checked against the stored plan hash."""
    manifest = store.manifest()
    found = manifest.get("format") if isinstance(manifest, dict) else None
    if found != RUN_FORMAT:
        raise IntegrityError(f"{store.manifest_path}: format {found!r} is not {RUN_FORMAT!r}")
    try:
        plan = ExperimentPlan.from_dict(manifest["plan"])
    except KeyError as exc:
        raise IntegrityError(f"malformed plan in {store.manifest_path}: no {exc} field") from exc
    except (TypeError, ValueError) as exc:
        raise IntegrityError(f"malformed plan in {store.manifest_path}: {exc}") from exc
    if plan.plan_hash() != manifest.get("plan_hash"):
        raise IntegrityError(
            f"plan hash mismatch in {store.manifest_path}: stored "
            f"{manifest.get('plan_hash')!r} vs recomputed {plan.plan_hash()!r}"
        )
    return plan


class _Block:
    """One (condition, repetition, block): its seeded demand draws and progress.

    `walk` advances it round by round and can be called again to go further,
    so a block's stored rounds can be replayed long before its first new
    round is decided. ``head`` and ``scenario`` are the plan's for its identity;
    ``prompts`` and ``build_rule`` its condition-block's (a random block has its own builder).
    ``records`` holds the rounds walked so far, checked (as `replay` hands them) or decided.
    ``messages`` holds the block's conversation turns for an LLM agent;
    scripted agents ignore transcripts, so theirs is None.
    """

    def __init__(self, condition, identity, head, scenario, prompts, build_rule):
        _, repetition, block_index = self.identity = identity
        self.condition = condition
        self.head = head
        self.scenario = scenario
        self.prompts = prompts
        self.build_rule = build_rule
        self.records = []
        self.draws = model.sample_sequence(
            scenario.demand, condition.rounds_per_block,
            derive_seed(condition.base_seed, repetition, block_index),
        )
        self.messages = [] if condition.agent.kind == LLM else None
        # built for the first decided round: a replayed block looks up no optimum, draws
        # nothing and spells no label head
        self.rule = self.line_head = None

    def walk(self, rounds, *, stored=(), earlier=(), store=None, client=None, stop=None):
        """Walk on to round ``rounds``, appending each round walked to ``records``.

        A round ``stored`` holds (the block's stored rows in round order, from `replay`) is
        checked: its values, then its recomputed prompt hash, then its seeded demand draw. A
        later round is decided with the ``earlier`` conversation turns before this block's,
        and recorded under the block's head in ``store``; no round is decided once ``stop``
        is set. A scripted block's rounds are queued and written in one call by the flush
        on return. Returns the failure that stopped the block, if any.
        """
        condition, scenario, sha256 = self.condition, self.scenario, self.prompts.sha256
        lower, upper, max_order = scenario.demand.lower, scenario.demand.upper, scenario.max_order
        price, cost, draws = scenario.cost.price, scenario.cost.cost, self.draws
        chat = self.messages is not None
        failure = None
        last = self.records[-1] if self.records else None  # the round walked last
        feedback = last[_HEAD + 1:_HEAD + 5] if last else (None,) * 4  # outcomes the prompt shows
        total = last.cumulative_profit if last else 0  # checked, or written, as the running sum
        for round_index in range(len(self.records) + 1, rounds + 1):
            prompt_sha256 = sha256(*feedback)
            prompt = render_prompt(scenario, *feedback) if chat else None  # rules read none
            if round_index <= len(stored):  # a copy past the last round fails first
                record = stored[round_index - 1]
                (index, order, demand, profit, cumulative, confidence, digest, _, retries, _,
                 start, end) = record[_HEAD:]  # its round's fields, unpacked once
                if index != round_index:
                    raise IntegrityError(
                        f"{where(record)}: expected round {round_index}, rounds are not contiguous")
                if confidence not in (EXACT, FALLBACK):
                    raise IntegrityError(f"{where(record)}: field 'parse_confidence' is unknown")
                if retries < 0:
                    raise IntegrityError(f"{where(record)}: field 'retries' is negative")
                if not 0 <= order <= max_order:
                    raise IntegrityError(f"{where(record)}: field 'order' is {order}, "
                                         f"not in [0, {max_order}]")
                # a NaN fails too, and so does an int past the float range (10**400 < inf)
                if not 0.0 <= start <= end <= sys.float_info.max:
                    raise IntegrityError(
                        f"{where(record)}: timestamps ts_start {start!r} and ts_end "
                        f"{end!r} are not 0 <= ts_start <= ts_end <= {sys.float_info.max}")
                if not lower <= demand <= upper:
                    raise IntegrityError(f"{where(record)}: field 'demand' is {demand}, "
                                         f"not in the demand range [{lower}, {upper}]")
                gain = price * (order if order < demand else demand) - cost * order
                if profit != gain:  # `model.profit`'s, its order and demand checked >= 0
                    raise IntegrityError(
                        f"{where(record)}: stored profit {profit} != recomputed {gain}")
                total += gain
                if cumulative != total:
                    raise IntegrityError(f"{where(record)}: stored cumulative profit "
                                         f"{cumulative} != running sum {total}")
                if prompt_sha256 != digest:
                    raise IntegrityError(f"{where(record)}: stored prompt hash does not match "
                                         "the re-rendered prompt")
                if (draw := draws[round_index - 1]) != demand:
                    raise IntegrityError(f"{where(record)}: stored demand {demand} does "
                                         f"not match the seeded draw {draw}")
            else:
                if stop.is_set():
                    break
                transcript = [*earlier, *self.messages] if chat else None
                if not chat and self.rule is None:
                    self.rule, self.line_head = self.build_rule(), _line_head(self.head)
                ts_start = time.time()
                try:
                    decision = decide(condition.agent, prompt, scenario, round_index,
                                      feedback[0], feedback[1], client=client,
                                      transcript=transcript, rule=self.rule)
                except (AmbiguousDecisionError, TransportError) as exc:
                    kind = "parse" if isinstance(exc, AmbiguousDecisionError) else "transport"
                    failure = RoundFailure(*self.identity, round_index, kind, str(exc))
                    log.warning("unresolved round: %s", failure)
                    break
                demand = draws[round_index - 1]
                gain = model.profit(order := decision.order, demand, scenario.cost)
                total += gain
                ts_end = max(time.time(), ts_start)  # a clock stepped back stores no inversion
                record = RoundRecord(
                    *self.head, round_index, order, demand, gain, total,
                    decision.parse_confidence, prompt_sha256, decision.raw_response,
                    decision.retries, decision.token_usage, ts_start, ts_end)
                # a chat round is on disk before the next request; a scripted one, whose
                # values are all of the template's types, by the flush below
                store.append(record.to_line() if chat else self.line_head + _TAIL % (
                    round_index, order, demand, gain, total, _EXACT_TEXT, _quote(prompt_sha256),
                    _quote(decision.raw_response), 0, ts_start, ts_end), flush=chat)
            feedback = order, demand, gain, total
            self.records.append(record)
            if chat:
                self.messages += ({"role": "user", "content": prompt},
                                  {"role": "assistant", "content": record.raw_response})
        if store is not None:
            store.flush()
        return failure


def replay(plan: ExperimentPlan, records: list[RoundRecord], run_id: str | None = None) -> dict:
    """Each identity ``plan`` runs -> its `_Block`, holding its stored rounds in ``records``.

    The one read of stored rounds, shared by `resume` and `report`, and the one expansion of
    a plan into blocks, which sets each condition-block up once. `group_trajectories` checks
    every record's JSON types and labels against the plan, in line order; then each block,
    in identity order, walks its stored rounds (values, prompt hash, seeded draw); no agent
    rule is built. The first mismatch in that order raises IntegrityError. A caller that
    has ``plan.run_id()`` passes it as ``run_id``.
    """
    run_id = run_id or plan.run_id()
    planned, blocks = {}, {}  # identity -> (its label head, its scenario); -> its _Block
    for index, c in enumerate(plan.conditions):
        labels = (run_id, index, c.agent.label, c.experiment, c.dist_kind, c.order_condition)
        for block in (1, 2):
            margin = c.margin_for_block(block)
            sc = c.scenario_for_margin(margin)
            prompts, rule = scenario_prompts(sc), cache(partial(scripted_rule, c.agent, sc))
            for repetition in range(c.repetitions):
                if c.agent.kind == RANDOM:  # its orders are its block's own seeded draws
                    rule = partial(scripted_rule, c.agent, sc, derive_seed(
                        c.base_seed, repetition, block, salt="agent"))
                identity, head = (index, repetition, block), (*labels, repetition, block, margin)
                planned[identity] = head, sc
                blocks[identity] = _Block(c, identity, head, sc, prompts, rule)
    stored = group_trajectories(records, planned)
    blocks = dict(sorted(blocks.items()))
    for identity, block in blocks.items():
        block.walk(len(rows := stored.get(identity, ())), stored=rows)
    return blocks


def _execute(plan, run_id, store, client_factory, stored: list[RoundRecord], progress,
             workers) -> RunOutcome:
    """Run or resume ``plan`` (``run_id`` is ``plan.run_id()``) over its ``stored`` rounds."""
    # every stored round is checked before the first decide, so a corrupt
    # store is refused before a client is built or anything is appended or paid for
    blocks = replay(plan, stored, run_id)  # by identity; walked on by its repetition's unit
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    clients = []
    for condition_index, condition in enumerate(plan.conditions):
        llm = condition.agent.kind == LLM
        if llm and client_factory is None:
            raise ValueError(f"condition {condition_index} needs a chat client; "
                             "pass client_factory")
        clients.append(client_factory(condition.agent) if llm else None)
    # a crash mid-append leaves a torn final line that the next append would extend
    torn = store.set_aside_torn_line()
    if torn is not None:
        log.warning("moved the torn final line of %s to %s: %.80s",
                    store.rounds_path, TORN_NAME, torn)

    stop = threading.Event()
    progress_lock = threading.Lock()

    def run_unit(condition_index, repetition) -> list[RoundFailure]:
        """Blocks 1 then 2 of one repetition, walked to their end: their unresolved rounds.

        Sets ``stop`` if anything but a round fails.
        """
        condition = plan.conditions[condition_index]
        rounds = condition.rounds_per_block
        failures = []
        earlier = []
        try:
            for block_index in (1, 2):
                if stop.is_set():
                    break
                block = blocks[condition_index, repetition, block_index]
                if progress and len(block.records) < rounds:
                    with progress_lock:
                        progress(
                            f"condition {condition_index} ({condition.agent.label}, "
                            f"{condition.experiment}, {condition.dist_kind}, "
                            f"{condition.order_condition}) rep {repetition + 1}/"
                            f"{condition.repetitions} block {block_index}"
                        )
                failure = block.walk(rounds, earlier=earlier, store=store,
                                     client=clients[condition_index], stop=stop)
                if failure is not None:
                    failures.append(failure)
                    # without block 1's full transcript, block 2 would see a
                    # different history than a completed run; leave it for resume
                    if plan.transcript_continuity:
                        break
                if plan.transcript_continuity and block.messages:
                    earlier = earlier + block.messages
        except BaseException:
            stop.set()
            raise
        return failures

    units = [(condition_index, repetition)
             for condition_index, condition in enumerate(plan.conditions)
             for repetition in range(condition.repetitions)]
    # the append handle is closed once every unit has stopped, returned or raised
    with store:
        if any(condition.agent.kind == LLM for condition in plan.conditions):
            # imported here so that scripted runs and `import nvlab` do not pay for it
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(min(workers, len(units)), "nvlab-unit") as pool:
                try:
                    futures = [pool.submit(run_unit, *unit) for unit in units]
                    results = [future.result() for future in futures]
                except BaseException:
                    stop.set()
                    pool.shutdown(cancel_futures=True)
                    raise
        else:
            results = [run_unit(*unit) for unit in units]
    failures = sorted(f for unit_failures in results for f in unit_failures)
    trajectories = [Trajectory(b.scenario, b.records) for b in blocks.values() if b.records]
    return RunOutcome(run_id, store, trajectories, failures)


def run_plan(plan: ExperimentPlan, run_dir, client_factory=None, progress=None,
             workers=LLM_WORKERS) -> RunOutcome:
    """Execute a plan into a fresh run directory and persist every round.

    An LLM plan decides up to ``workers`` repetitions at once.
    """
    store = RunStore(run_dir)
    store.create(manifest := build_manifest(plan))
    return _execute(plan, manifest["run_id"], store, client_factory, [], progress, workers)


def resume(run_dir, client_factory=None, progress=None, workers=LLM_WORKERS) -> RunOutcome:
    """Finish incomplete blocks of a stored run; completed blocks are untouched.

    Verifies the manifest's plan hash and every stored round's prompt hash and
    seeded demand draw before deciding anything; a completed run is a no-op.
    A torn final line left by a crash mid-append is then moved to
    ``rounds.jsonl.torn`` and its round decided again.
    An LLM plan decides up to ``workers`` repetitions at once.
    """
    store = RunStore(run_dir)
    plan = load_plan(store)
    return _execute(plan, plan.run_id(), store, client_factory, store.records(), progress, workers)

