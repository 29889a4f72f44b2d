"""Byte contract of the offline pipeline, and tamper detection on resume.

The pinned digests cover what a refactor must leave byte-identical: the
stored rounds (timestamps zeroed) and manifest of each scripted agent over
the full experiment x distribution x order grid, and the report bundle built
from those stores with human reference rows.
"""

import hashlib
import json

import pytest

from conftest import strip_timestamps
from nvlab.agents import AgentSpec, ParsePolicy
from nvlab.config import RunConfig, build_plan
from nvlab.model import DIST_KINDS
from nvlab.report import build_report
from nvlab.runner import (
    ExperimentPlan,
    PlanCondition,
    build_manifest,
    resume,
    run_plan,
    verify_prompt_hashes,
)
from nvlab.store import IntegrityError

SCRIPTED = (
    AgentSpec("optimal"),
    AgentSpec("mean-anchor", anchor_weight=0.5),
    AgentSpec("demand-chaser", chase_rate=0.5, switch_round=8),
    AgentSpec("random"),
)

GOLDEN_STORES = {
    "optimal": "85dc5d04d147c4571b042fd402710ca0b12fd7c6958e9dbfbe0f030d2426beeb",
    "mean-anchor(w=0.5)": "0afc22c2bcc54a26ae7552e0161d5b70d3b4a81f8d7fa107b4d71fe0ba9ad379",
    "demand-chaser(alpha=0.5,switch@8from0)":
        "94973a2d402cea7a7d36401e4746a1e32f6c709414811c9c9032f8536894dec2",
    "random": "ad23cb54d75462aaa4cd2726c05ef2ac4672f20e739f3e7dc4125900a720517c",
}
GOLDEN_BUNDLE = "5833dd7e339c0ba0da24a5c360d6665af3f54e1a98b229fcb4c983ba76fea4bc"
# the same grid with short blocks: empty learning cells and sparse quartiles
GOLDEN_SHORT_BUNDLES = {
    2: "34cfa4381aaf6c3e89f4b9605de96b1fd5c1c172313fd3f85f95bb464f03e425",
    5: "45d7cc6cf67e80ea8afe3deece30466142326daa5c243ccffd2f05859f80ced0",
}
GOLDEN_LLM_MANIFEST = "c0bda02b0b119ec73242b8a3290a22b66d93d60174be9157cd90c7f7f3717dbb"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def store_digest(run_dir) -> str:
    with open(run_dir / "rounds.jsonl", encoding="utf-8") as handle:
        stripped = "\n".join(strip_timestamps(line) for line in handle if line.strip())
    return _sha(stripped.encode("utf-8") + (run_dir / "manifest.json").read_bytes())


def bundle_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def test_golden_digests_of_scripted_grid(tmp_path):
    """Stores and report bundle of the scripted grid are pinned byte for byte.

    Four scripted agents x the 8 defined experiment/distribution conditions x
    both presentation orders, 2 repetitions, seed 11. The demand draws come
    from numpy's ``Generator`` stream, so these digests also depend on that
    stream staying the same across numpy releases.
    """
    digests = scripted_grid(tmp_path, rounds=15)
    assert digests == GOLDEN_STORES
    assert bundle_digest(tmp_path / "report") == GOLDEN_BUNDLE


@pytest.mark.parametrize("rounds", sorted(GOLDEN_SHORT_BUNDLES))
def test_golden_bundle_of_short_scripted_grid(tmp_path, rounds):
    scripted_grid(tmp_path, rounds)
    assert bundle_digest(tmp_path / "report") == GOLDEN_SHORT_BUNDLES[rounds]


def scripted_grid(tmp_path, rounds) -> dict:
    """Run the scripted grid into ``tmp_path/runs``, report it into ``tmp_path/report``.

    Returns the store digest of each agent.
    """
    config = RunConfig(distributions=DIST_KINDS, repetitions=2, rounds=rounds, base_seed=11)
    stores, digests = [], {}
    for agent in SCRIPTED:
        plan = build_plan(config, [agent])
        assert len(plan.conditions) == 16
        outcome = run_plan(plan, tmp_path / "runs" / plan.run_id())
        assert outcome.complete
        stores.append(outcome.store.run_dir)
        digests[agent.label] = store_digest(outcome.store.run_dir)
    build_report(stores, tmp_path / "report", compare_humans=True)
    return digests


def test_golden_manifest_of_llm_plan():
    policy = ParsePolicy((r"order (\d+)",), (0, 600), max_retries=1)
    agent = AgentSpec("llm", model_name="m", temperature=0.7, parse_policy=policy)
    plan = ExperimentPlan((PlanCondition("E2-formula", "lognormal", agent, "low-first",
                                         repetitions=3, rounds_per_block=5, base_seed=4),))
    manifest = json.dumps(build_manifest(plan), indent=2, sort_keys=True)
    assert _sha(manifest.encode("utf-8")) == GOLDEN_LLM_MANIFEST


def _tamper_prompt_hash(run_dir, line_index):
    rounds_path = run_dir / "rounds.jsonl"
    lines = rounds_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[line_index])
    record["prompt_sha256"] = "0" * 64
    lines[line_index] = json.dumps(record, separators=(",", ":"))
    rounds_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return record["round_index"]


@pytest.mark.parametrize("check", [resume, verify_prompt_hashes])
def test_tampered_prompt_hash_is_named(tmp_path, check):
    plan = ExperimentPlan((PlanCondition("E1-baseline", "uniform", SCRIPTED[2], "high-first",
                                         repetitions=1, rounds_per_block=6, base_seed=3),))
    run_plan(plan, tmp_path / "run")
    round_index = _tamper_prompt_hash(tmp_path / "run", 3)
    assert round_index == 4
    with pytest.raises(IntegrityError, match=r"round=4\b"):
        check(tmp_path / "run")
