"""Report bundle: analysis tables and figure data from run stores.

Reads one or more run directories (never mutating them) through `runner.replay`,
so it refuses exactly the stores `resume` refuses, recomputes every metric from
the persisted rounds, and writes a deterministic set of CSV files plus a
Markdown summary. Re-running over the same stores is bit-identical.

Files emitted into the output directory:

* ``bias_table.csv``            mean orders, optima, deviations, NB, PE per
                                (experiment, distribution, agent, margin)
* ``mas_table.csv``             adjustment scores split by presentation order
* ``risk_neutral_table.csv``    the risk-neutral variant in mean | optimal |
                                NB% form
* ``learning_table.csv``        convergence slope, efficiency slope, delta R^2
* ``quartile_table.csv``        direction shares by prior-error quartile
* ``round_trajectories.csv``    per-round mean orders (ordering-trajectory data)
* ``adjustment_shares_by_round.csv``  per-round direction shares
* ``word_frequencies.csv``      ranked rationale unigrams
* ``report.md``                 human-readable summary of the tables

Incomplete trajectories are excluded. With ``compare_humans``, the human
reference rows of a key (labeled with their source) follow its first E1 rows.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from . import humans, metrics, model
from .runner import load_plan, replay
from .store import RunStore, Trajectory

PE_LABEL = "pe_optimal_over_actual_pct"
TOP_WORDS = 50
MARGINS = (model.HIGH, model.LOW)  # the order of each table's margin columns


class ReportError(ValueError):
    """The requested report cannot be built from the given stores."""


def load_trajectories(run_dirs) -> list[Trajectory]:
    """The complete trajectories of one or more distinct run stores, each read by `replay`."""
    out: list[Trajectory] = []
    given: dict[Path, object] = {}
    for run_dir in run_dirs:
        if (resolved := Path(run_dir).resolve()) in given:
            raise ReportError(f"run directory {run_dir} is given twice "
                              f"(also as {given[resolved]})")
        given[resolved] = run_dir
        store = RunStore(run_dir)
        blocks = replay(load_plan(store), store.records()).values()
        out += [t for t in (Trajectory(b.scenario, b.records) for b in blocks) if t.complete]
    if not out:
        raise ReportError("no complete trajectories in the given run directories")
    return out


def _fmt(value, digits) -> str:
    return "" if value is None else f"{value:.{digits}f}"


def _group(trajectories, key_fn) -> list[tuple]:
    """(key, trajectories) pairs in key order; each group keeps the input order."""
    groups: dict = {}
    for t in trajectories:
        groups.setdefault(key_fn(t), []).append(t)
    return sorted(groups.items())


def _condition_key(t: Trajectory):
    sc = t.scenario
    return (sc.experiment, model.DIST_KINDS.index(sc.demand.kind), sc.demand.kind, t.agent)


def _margin_key(t: Trajectory):
    """Condition key plus the margin, high before low."""
    return (*_condition_key(t), 0 if t.scenario.margin == model.HIGH else 1, t.scenario.margin)


def _block_key(t: Trajectory):
    return (*_condition_key(t), t.order_condition, t.block_index)


def _write_csv(path: Path, header: list[str], rows: list[list]):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


# ---------------------------------------------------------------------------
# tables


def _margin_cells(group, cells, width: int) -> list[str]:
    """``cells`` of the group's high- then low-margin trajectories; ``width`` blanks for none."""
    out = []
    for margin in MARGINS:
        subset = [t for t in group if t.scenario.margin == margin]
        out += cells(subset) if subset else [""] * width
    return out


def _with_humans(groups, compare_humans: bool, human_rows) -> list[list]:
    """Each (experiment, key, rows) group's rows; with ``compare_humans``, a key's
    ``human_rows(*key)`` follow its first E1 group (the references are E1's)."""
    out, seen = [], set()
    for experiment, key, rows in groups:
        out += rows
        if compare_humans and experiment == model.E1 and key not in seen:
            seen.add(key)
            out += human_rows(*key)
    return out


def _bias_cells(subset) -> list[str]:
    stats = metrics.bias_stats(subset)
    pe = metrics.profit_efficiency(stats.mean_order, subset[0].scenario)
    return [_fmt(stats.mean_order, 2), str(stats.optimal), _fmt(stats.order_bias, 2),
            _fmt(stats.normalized_bias, 2), _fmt(pe, 2)]


def _human_bias_rows(dist: str) -> list[list]:
    refs = [humans.reference("bias", dist, margin) for margin in MARGINS]
    if None in refs:
        return []
    cells = []
    for ref in refs:
        deviation = ref["mean_order"] - ref["optimal"]
        cells += [_fmt(ref["mean_order"], 2), str(ref["optimal"]), _fmt(deviation, 2),
                  _fmt(deviation / ref["optimal"] * 100.0, 2), ""]
    return [[model.E1, dist, humans.HUMAN_LABEL, *cells, humans.source()]]


def bias_rows(trajectories, compare_humans=False) -> tuple[list[str], list[list]]:
    header = [
        "experiment", "distribution", "agent",
        "mean_order_high", "optimal_high", "deviation_high", "nb_high_pct", f"{PE_LABEL}_high",
        "mean_order_low", "optimal_low", "deviation_low", "nb_low_pct", f"{PE_LABEL}_low",
        "source",
    ]
    groups = [(experiment, (dist,),
               [[experiment, dist, agent, *_margin_cells(group, _bias_cells, 5), "this run"]])
              for (experiment, _, dist, agent), group in _group(trajectories, _condition_key)]
    return header, _with_humans(groups, compare_humans, _human_bias_rows)


def _mas_cell(subset) -> list[str]:
    score = metrics.anchor_stats(subset)
    return ["undefined" if score is None else _fmt(score, 3)]


def _human_mas_rows(order_condition: str, dist: str) -> list[list]:
    scores = [humans.reference("adjustment_score", order_condition, dist, margin)
              for margin in MARGINS]
    if None in scores:
        return []
    return [[order_condition, model.E1, dist, humans.HUMAN_LABEL,
             *(_fmt(score, 3) for score in scores), "", humans.source()]]


def mas_rows(trajectories, compare_humans=False) -> tuple[list[str], list[list]]:
    header = [
        "order_condition", "experiment", "distribution", "agent",
        "mas_high", "mas_low", "anchor", "source",
    ]
    groups = [(experiment, (order_condition, dist),
               [[order_condition, experiment, dist, agent, *_margin_cells(group, _mas_cell, 1),
                 _fmt(model.anchor(group[0].scenario), 1), "this run"]])
              for (order_condition, experiment, _, dist, agent), group
              in _group(trajectories, lambda t: (t.order_condition, *_condition_key(t)))]
    return header, _with_humans(groups, compare_humans, _human_mas_rows)


def risk_neutral_rows(trajectories) -> tuple[list[str], list[list]]:
    header = [
        "distribution", "agent", "margin", "mean_order", "optimal", "nb_pct", "source",
    ]
    rows = []
    subset = [t for t in trajectories if t.scenario.experiment == model.E3]
    for (_, _, dist, agent, _, margin), group in _group(subset, _margin_key):
        stats = metrics.bias_stats(group)
        rows.append([
            dist, agent, margin, _fmt(stats.mean_order, 2), str(stats.optimal),
            _fmt(stats.normalized_bias, 2), "this run",
        ])
    return header, rows


def learning_rows(trajectories) -> tuple[list[str], list[list]]:
    header = [
        "experiment", "distribution", "agent", "margin",
        "convergence_slope", "efficiency_slope", "delta_r2", "n_trajectories",
    ]
    rows = []
    # fitted once per (scenario, length); each margin group averages its own, in group order
    fitted = zip(trajectories, metrics.learning_stats(trajectories))
    for (experiment, _, dist, agent, _, margin), group in _group(
            fitted, lambda pair: _margin_key(pair[0])):
        try:
            stats = metrics.mean_learning_stats([fit for _, fit in group])
        except metrics.MetricsError:
            # blocks too short for the early/late split
            rows.append([experiment, dist, agent, margin, "", "", "", str(len(group))])
            continue
        rows.append([
            experiment, dist, agent, margin,
            _fmt(stats["convergence_slope"], 3), _fmt(stats["efficiency_slope"], 3),
            _fmt(stats["delta_r2"], 3), str(stats["n_trajectories"]),
        ])
    return header, rows


def _share_cells(counts: list[int]) -> list[str]:
    """Percent cells of (no-change, toward, away) counts, then their total; blank when 0."""
    total = sum(counts)
    return [*(_fmt(count / total * 100.0 if total else None, 1) for count in counts), str(total)]


def _human_quartile_rows(dist: str, order_condition: str) -> list[list]:
    refs = [(quartile, humans.reference("adjustment_shares", dist, order_condition, quartile))
            for quartile in metrics.QUARTILES]
    return [[model.E1, dist, humans.HUMAN_LABEL, order_condition, quartile,
             *(_fmt(ref[direction], 1) for direction in metrics.DIRECTIONS), "", humans.source()]
            for quartile, ref in refs if ref]


def quartile_rows(trajectories, compare_humans=False) -> tuple[list[str], list[list]]:
    header = [
        "experiment", "distribution", "agent", "order_condition", "error_quartile",
        "no_change_pct", "toward_pct", "away_pct", "n_events", "source",
    ]
    groups = []
    for (experiment, _, dist, agent, order_condition), group in _group(
            trajectories, lambda t: (*_condition_key(t), t.order_condition)):
        _, _, errors, codes = metrics.classify_adjustments(group)
        abs_errors = np.abs(errors)
        try:
            cuts = metrics.quartile_thresholds(abs_errors)
        except metrics.MetricsError:
            continue  # pool too small to cut into quartiles
        buckets = metrics.quartile_buckets(abs_errors, cuts)
        counts = np.bincount(buckets * 3 + codes % 3, minlength=12).reshape(4, 3)
        groups.append((experiment, (dist, order_condition), [
            [experiment, dist, agent, order_condition, quartile, *_share_cells(row), "this run"]
            for quartile, row in zip(metrics.QUARTILES, counts.tolist())]))
    return header, _with_humans(groups, compare_humans, _human_quartile_rows)


# ---------------------------------------------------------------------------
# figure data


def round_trajectory_rows(trajectories) -> tuple[list[str], list[list]]:
    header = [
        "experiment", "distribution", "agent", "order_condition", "block_index",
        "margin", "round", "mean_order", "optimal", "anchor", "n_repetitions",
    ]
    rows = []
    groups = _group(trajectories, _block_key)
    for (experiment, _, dist, agent, order_condition, block_index), group in groups:
        sc = group[0].scenario
        q_star = model.optimal_quantity(sc)
        anchor_value = model.anchor(sc)
        n_rounds = max(len(t.orders) for t in group)
        for r in range(n_rounds):
            orders = [t.orders[r] for t in group if len(t.orders) > r]
            rows.append([
                experiment, dist, agent, order_condition, str(block_index), sc.margin,
                str(r + 1), _fmt(sum(orders) / len(orders), 2), str(q_star),
                _fmt(anchor_value, 1), str(len(orders)),
            ])
    return header, rows


def adjustment_share_rows(trajectories) -> tuple[list[str], list[list]]:
    header = [
        "experiment", "distribution", "agent", "order_condition", "block_index",
        "margin", "round", "no_change_pct", "toward_pct", "away_pct", "n_repetitions",
    ]
    rows = []
    groups = _group(trajectories, _block_key)
    for (experiment, _, dist, agent, order_condition, block_index), group in groups:
        margin = group[0].scenario.margin
        rounds, _, _, codes = metrics.classify_adjustments(group)
        # every round from 2 to the longest trajectory's last has an adjustment
        n_rounds = max(len(t.orders) for t in group)
        counts = np.bincount((rounds - 2) * 3 + codes % 3, minlength=3 * (n_rounds - 1))
        for round_index, row in enumerate(counts.reshape(-1, 3).tolist(), start=2):
            rows.append([
                experiment, dist, agent, order_condition, str(block_index), margin,
                str(round_index), *_share_cells(row),
            ])
    return header, rows


def word_frequency_rows(trajectories) -> tuple[list[str], list[list]]:
    texts = [text for t in trajectories for text in t.rationales]
    ranked = metrics.word_frequencies(texts)[:TOP_WORDS]
    return ["term", "count"], [[term, str(count)] for term, count in ranked]


# ---------------------------------------------------------------------------
# bundle


def _markdown_table(header, rows) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")  # every cell is already a str
    return "\n".join(lines)


def build_report(run_dirs, output_dir, compare_humans: bool = False) -> dict[str, Path]:
    """Compute all tables and figure data, write them under ``output_dir``: {name: path}."""
    trajectories = load_trajectories(run_dirs)
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    sections = {
        "bias_table.csv": ("Ordering bias", bias_rows(trajectories, compare_humans)),
        "mas_table.csv": ("Adjustment scores", mas_rows(trajectories, compare_humans)),
        "risk_neutral_table.csv": ("Risk-neutral variant", risk_neutral_rows(trajectories)),
        "learning_table.csv": ("Learning over rounds", learning_rows(trajectories)),
        "quartile_table.csv": (
            "Adjustment direction by prior-error quartile",
            quartile_rows(trajectories, compare_humans),
        ),
        "round_trajectories.csv": ("Per-round mean orders", round_trajectory_rows(trajectories)),
        "adjustment_shares_by_round.csv": (
            "Per-round adjustment shares", adjustment_share_rows(trajectories)),
        "word_frequencies.csv": ("Rationale word frequencies", word_frequency_rows(trajectories)),
    }

    files = {}
    md = ["# Experiment report", ""]
    md.append(f"Complete trajectories: {len(trajectories)}")
    md.append(f"Profit-efficiency columns use the optimal-over-actual orientation ({PE_LABEL}).")
    if compare_humans:
        md.append(f"Human reference rows: {humans.source()}.")
    md.append("")
    for filename, (title, (header, rows)) in sections.items():
        path = output_dir / filename
        _write_csv(path, header, rows)
        files[filename] = path
        md.append(f"## {title}")
        md.append("")
        md.append(_markdown_table(header, rows))
        md.append("")
    report_path = output_dir / "report.md"
    report_path.write_text("\n".join(md), encoding="utf-8")
    files["report.md"] = report_path
    return files
