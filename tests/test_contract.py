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
from nvlab.agents import AgentSpec
from nvlab.config import RunConfig, build_plan
from nvlab.model import DIST_KINDS
from nvlab.report import build_report
from nvlab.runner import (
    ExperimentPlan,
    PlanCondition,
    build_manifest,
    resume,
    run_plan,
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
# the report bundle of that grid, one digest per file, so the file set is pinned too
GOLDEN_BUNDLE = {
    "adjustment_shares_by_round.csv":
        "1a4a1c7518042f07606c9b9a7bbead4401bb93e951bace58afd2b83ecb4ba19e",
    "bias_table.csv":
        "784767cc59da6d2eb3f9e94a83a8fcca2c14669b012aaf7b9bb7a1c508da4a82",
    "learning_table.csv":
        "6ca0ac7b374d155dfe25a674885e482acbc6b5bdf6d58368260a9fb44eec6323",
    "mas_table.csv":
        "9feaf3e74e56e369a87f6e6545d14d9fe8f84f942e1ce558a29074ad2fb05356",
    "quartile_table.csv":
        "c127b9d8419eed307cb5f895b2676e2341f01e50e66ede2cf36dc064edd29742",
    "report.md":
        "2b16c6bfe65fc5c216fcfbab512127002e4d6b0e915684bb2f828d7d8998fec5",
    "risk_neutral_table.csv":
        "5060afdc567438392d45b745b5c3a2759a780a581c895b9e49e3195b18be6764",
    "round_trajectories.csv":
        "f98c6fc4dc1ec353319f683336f5ec2d502b10eb96fabb59912a976a5e23a37f",
    "word_frequencies.csv":
        "3f1c71dacfe33883addfb4984411e3d92cd5aafd8348361180d33038bf7af11c",
}
# the same grid with short blocks: empty learning cells and sparse quartiles
GOLDEN_SHORT_BUNDLES = {
    2: {
        "adjustment_shares_by_round.csv":
            "f0f15ba46782176260063b815e3ce51fcfbca72cd3f368fdf37a9464bda2d670",
        "bias_table.csv":
            "a495521f1c32cff88b7b2eabe1cf568c9b5646f2877ddc66f758099b25282698",
        "learning_table.csv":
            "dc9b0a9941181ec8425f9524702de1437d07bc78cb54a84a9f29d044aa366ba9",
        "mas_table.csv":
            "2d7cf80d5cc0a2b9260442d82ebc007a79951e9fef43ac371942cf1511223ddd",
        "quartile_table.csv":
            "4cd20b8b469c9b2e8f5bb29b45fe911e162f1b04143458a6ca4a67ad980ac821",
        "report.md":
            "8b2395f4ed9e48df8117bcebb7fbf7954b01ced27036947ecdfc85ce910ea950",
        "risk_neutral_table.csv":
            "8b24163cb5bf3587963206d402f3d27096a043e152921761b4e64d953f4a0318",
        "round_trajectories.csv":
            "046c82fa39fa8c7116a7bced4b10489f46316b0eb99a5b27974dac40091f2629",
        "word_frequencies.csv":
            "7f8174cd699518aaf5dfc5d95f53164e05335dbcc00be775bc179024342fcbb6",
    },
    5: {
        "adjustment_shares_by_round.csv":
            "6d8fe3300c2345ce8234b9f1206b1c2dcd170d33178de7d7204c298713162604",
        "bias_table.csv":
            "3fe1ddb0dce5065e1ef9dd10b5296df01081fd56349ea997bd03f7ce75781bb9",
        "learning_table.csv":
            "dc9b0a9941181ec8425f9524702de1437d07bc78cb54a84a9f29d044aa366ba9",
        "mas_table.csv":
            "c4a1f1bd656b35f6b4ecd93dbbf42a54f275f0f7dbfdb962dcb553967a63354d",
        "quartile_table.csv":
            "ddebb40309d50b3280850e607d91a99fe95e3410870fb986a3f1418c22f40397",
        "report.md":
            "3b2f0a2441ef2d07fdf92369c0d4936853bcd3800d85eacba828bf80b40c5288",
        "risk_neutral_table.csv":
            "b40c09639a6bcaf5c888fe8c1ef2b3d05c17220c02a21cbfd1548cb66dde2cac",
        "round_trajectories.csv":
            "ca83ef4159369a9f23205a1e66dfecb7bd55f99e054b61c97c8f0f1ac482ade1",
        "word_frequencies.csv":
            "7590c15cb7d03d03d856a2f6e2e6c3ab4f2488705ce045861db95e782fc9bc02",
    },
}
GOLDEN_LLM_MANIFEST = "1bce92ca35a1394e1ac4d49bf5f53cad49e4da3cbc24d6e80a040d573173631f"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def store_digest(run_dir) -> str:
    with open(run_dir / "rounds.jsonl", encoding="utf-8") as handle:
        stripped = "\n".join(strip_timestamps(line) for line in handle if line.strip())
    return _sha(stripped.encode("utf-8") + (run_dir / "manifest.json").read_bytes())


def bundle_digests(out_dir) -> dict:
    return {path.name: _sha(path.read_bytes()) for path in sorted(out_dir.iterdir())}


def test_golden_digests_of_scripted_grid(tmp_path):
    """Stores and report bundle of the scripted grid are pinned byte for byte.

    Four scripted agents x the 8 defined experiment/distribution conditions x
    both presentation orders, 2 repetitions, seed 11. The demand draws come
    from numpy's ``Generator`` stream, so these digests also depend on that
    stream staying the same across numpy releases.
    """
    digests = scripted_grid(tmp_path, rounds=15)
    assert digests == GOLDEN_STORES
    assert bundle_digests(tmp_path / "report") == GOLDEN_BUNDLE


@pytest.mark.parametrize("rounds", sorted(GOLDEN_SHORT_BUNDLES))
def test_golden_bundle_of_short_scripted_grid(tmp_path, rounds):
    scripted_grid(tmp_path, rounds)
    assert bundle_digests(tmp_path / "report") == GOLDEN_SHORT_BUNDLES[rounds]


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
    agent = AgentSpec("llm", model_name="m", temperature=0.7)
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


@pytest.mark.parametrize("check", [resume])
def test_tampered_prompt_hash_is_named(tmp_path, check):
    plan = ExperimentPlan((PlanCondition("E1-baseline", "uniform", SCRIPTED[2], "high-first",
                                         repetitions=1, rounds_per_block=6, base_seed=3),))
    run_plan(plan, tmp_path / "run")
    round_index = _tamper_prompt_hash(tmp_path / "run", 3)
    assert round_index == 4
    with pytest.raises(IntegrityError, match=r"round=4\b"):
        check(tmp_path / "run")
