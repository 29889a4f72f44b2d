"""Command-line surface.

Subcommands::

    nvlab run              execute a plan against a chat endpoint (or with a
                           scripted agent), persisting every round
    nvlab simulate         same pipeline, scripted agents only, no network
    nvlab report           compute all tables and figure data from run stores
    nvlab validate-prompts render the pinned contexts and diff against the
                           golden prompt files

With ``--resume RUN_DIR`` both commands run the plan stored in RUN_DIR, not
the one their grid flags describe: ``run`` reads the credential only if that
plan has an LLM condition, and ``simulate`` refuses such a plan.

``-v`` (or ``--log-level INFO``) before the subcommand logs one line per
chat request and every unresolved round to stderr, tagged with the thread
that made it.

Exit codes: 0 success, 2 configuration error, 3 transport failure,
4 parse-ambiguity failure, 5 store-integrity failure, 6 I/O failure (a file
that cannot be read or written; when it lies in a run store, a second line names
the ``--resume`` that finishes that store, and a third the ``--agent`` flags of
the agents the command has not run yet; before its manifest is written, it says
that the same command does, or after an earlier agent's store, gives the
``--agent`` flags of the agents whose stores are not made yet).
A run with unresolved rounds exits 3 if any of them failed on transport, else 4.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import runner as runner_mod
from .agents import AGENT_KINDS, DEMAND_CHASER, LLM, MEAN_ANCHOR, SCRIPTED_KINDS, AgentSpec
from .config import ConfigError, RunConfig, build_plan
from .llm import ChatClient, TokenBucket
from .prompts import validate_golden
from .report import ReportError, build_report
from .store import IntegrityError, RunStore

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3
EXIT_PARSE = 4
EXIT_INTEGRITY = 5
EXIT_IO = 6

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


def _build_agents(args, config: RunConfig) -> list[AgentSpec]:
    agents = []
    for kind in args.agent:
        try:
            if kind == LLM:
                for model_name in config.models:
                    agents.append(AgentSpec(LLM, model_name=model_name,
                                            temperature=config.temperature))
            elif kind == MEAN_ANCHOR:
                agents.append(AgentSpec(kind, anchor_weight=args.anchor_weight))
            elif kind == DEMAND_CHASER:
                agents.append(AgentSpec(kind, chase_rate=args.chase_rate,
                                        switch_round=args.switch_round))
            else:
                agents.append(AgentSpec(kind))
        except ValueError as exc:
            raise ConfigError(f"agent {kind!r}: {exc}") from None
    return agents


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    """``config`` with each grid flag given (not None) in place of its field."""
    flags = {"experiments": args.experiment, "distributions": args.dist,
             "order_conditions": args.order, "repetitions": args.reps, "rounds": args.rounds,
             "base_seed": args.seed, "output_dir": args.out and str(args.out)}
    return RunConfig.from_dict(asdict(config) | {
        field: value for field, value in flags.items() if value is not None})


def _api_key(config: RunConfig) -> str:
    api_key = os.environ.get(config.credential_env)
    if not api_key:
        raise ConfigError(
            f"credential_env: environment variable {config.credential_env!r} is not set"
        )
    if not (api_key.isascii() and api_key.isprintable()):  # the message never echoes the key
        raise ConfigError(f"credential_env: {config.credential_env!r} holds a line break or "
                          "another character that is not printable ASCII")
    return api_key


def _out_dir(path: Path, name: str) -> Path:
    """``path``, unless it or the nearest of its parents that exists is not a directory."""
    if not next(p for p in (path, *path.parents) if p.exists()).is_dir():
        raise ConfigError(f"{name}: {str(path)!r} is not a directory or lies under a file")
    return path


def _client_factory(config: RunConfig):
    """Chat clients for a plan's LLM conditions; the credential is read for the first one."""
    bucket = None
    if config.rate_limit_per_minute is not None:
        bucket = TokenBucket(config.rate_limit_per_minute / 60.0)

    clients: dict[AgentSpec, ChatClient] = {}

    def factory(agent: AgentSpec) -> ChatClient:
        # one client per agent: every condition of an agent's run spends one budget
        if agent not in clients:
            clients[agent] = ChatClient(
                endpoint=config.endpoint,
                model=agent.model_name,
                api_key=_api_key(config),
                temperature=agent.temperature,
                max_retries=config.max_retries,
                backoff_base=config.backoff_base,
                rate_limiter=bucket,
                request_budget=config.request_budget,
            )
        return clients[agent]

    return factory


def _selected_as(agents) -> str:
    """``agents`` as the command selects them: a scripted kind by ``--agent``, an LLM agent by
    ``--agent llm`` and its model in the config's ``models``."""
    flags = " ".join(dict.fromkeys(f"--agent {agent.kind}" for agent in agents))
    models = ", ".join(agent.model_name for agent in agents if agent.kind == LLM)
    return flags + (f" (with the config's models {models})" if models else "")


def _execute_plans(config: RunConfig, agents, client_factory, resume_dir) -> int:
    options = dict(client_factory=client_factory, workers=config.concurrency,
                   progress=lambda msg: print(msg, flush=True))
    if resume_dir is not None:
        outcomes = [runner_mod.resume(resume_dir, **options)]
    else:
        outcomes = []
        output_dir = _out_dir(Path(config.output_dir), "output_dir")
        for agent in agents:
            plan = build_plan(config, [agent])
            run_dir = output_dir / plan.run_id()
            print(f"running {agent.label} -> {run_dir}", flush=True)
            try:
                outcomes.append(runner_mod.run_plan(plan, run_dir, **options))
            except OSError as exc:  # before this store is made, running what is left is the fix
                if not RunStore(run_dir).exists():
                    exc.rerun = (f"not stored yet: {_selected_as(agents[len(outcomes):])}; "
                                 "the same command with only these agents finishes the run"
                                 if outcomes else
                                 "nothing is stored yet: the same command finishes the run")
                elif left := agents[len(outcomes) + 1:]:  # after this store's --resume
                    exc.rerun = (f"not run yet: {_selected_as(left)}; the same command with "
                                 "only these agents runs them")
                raise

    status = EXIT_OK
    for outcome in outcomes:
        complete = [t for t in outcome.trajectories if t.complete]
        print(
            f"{outcome.run_id}: {len(complete)} complete trajectories, "
            f"{len(outcome.failures)} unresolved rounds -> {outcome.store.run_dir}"
        )
        for failure in outcome.failures:
            print(f"  unresolved: {failure}", file=sys.stderr)
            if status != EXIT_TRANSPORT:  # one transport failure decides, in any order
                status = EXIT_PARSE if failure.kind == "parse" else EXIT_TRANSPORT
    return status


def _print_config(config: RunConfig, agents, resume_dir):
    """Print the config and the plans it runs; with ``resume_dir``, the plan stored there."""
    plans = ([runner_mod.load_plan(RunStore(resume_dir))] if resume_dir is not None
             else [build_plan(config, [agent]) for agent in agents])
    resolved = {"config": asdict(config), "plans": [
        {"agent": ", ".join(dict.fromkeys(c.agent.label for c in plan.conditions)),
         "run_id": plan.run_id(), "plan": plan.to_dict()} for plan in plans]}
    print(json.dumps(resolved, indent=2, sort_keys=True))


def _offline(agent: AgentSpec):
    """The client factory of `simulate`, which a stored plan's LLM condition asks in vain."""
    raise ConfigError(f"agent: the stored plan's {agent.label!r} is an LLM agent, which needs "
                      "the run command; simulate is offline-only")


def cmd_run(args, offline=False) -> int:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    config = _apply_overrides(config, args)
    agents = _build_agents(args, config)
    if args.print_config:
        _print_config(config, agents, args.resume)
        return EXIT_OK
    # a resume runs the stored plan, whatever --agent says: the runner asks the
    # factory for a client per LLM condition before it writes or decides anything
    if args.resume is None and any(a.kind == LLM for a in agents):
        _api_key(config)  # before any store is made
    client_factory = _offline if offline else _client_factory(config)
    return _execute_plans(config, agents, client_factory, args.resume)


def cmd_simulate(args) -> int:
    if args.resume is None and LLM in args.agent:
        raise ConfigError("agent: 'llm' needs the run command; simulate is offline-only")
    return cmd_run(args, offline=True)


def cmd_report(args) -> int:
    out = _out_dir(args.out, "--out")
    files = build_report(args.run_dirs, out, compare_humans=args.compare_humans)
    for name in sorted(files):
        print(f"wrote {files[name]}")
    return EXIT_OK


def cmd_validate_prompts(args) -> int:
    failed = False
    for check in validate_golden():
        status = "ok" if check.ok else "MISMATCH"
        print(f"{status}: {check.name} ({check.golden_file})")
        if not check.ok:
            failed = True
            print(check.diff)
    return EXIT_CONFIG if failed else EXIT_OK


def _add_grid_arguments(parser, scripted_only=False):
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--experiment", action="append",
                        help="experiment variant (E1, E2, E3); repeatable")
    parser.add_argument("--dist", action="append",
                        help="demand distribution (uniform, normal, lognormal); repeatable")
    parser.add_argument("--order", action="append", choices=runner_mod.ORDER_CONDITIONS,
                        help="presentation order; repeatable")
    parser.add_argument("--reps", type=int, help="repetitions per condition")
    parser.add_argument("--rounds", type=int, help="rounds per scenario block")
    parser.add_argument("--seed", type=int, help="base seed for demand sequences")
    parser.add_argument("--out", type=Path, help="output directory for run stores")
    default_agents = list(SCRIPTED_KINDS) if scripted_only else [LLM]
    parser.add_argument("--agent", action="append", choices=AGENT_KINDS,
                        default=None, help=f"agent kind; repeatable (default: {default_agents})")
    parser.add_argument("--anchor-weight", type=float, default=0.5,
                        help="mean-anchor adjustment fraction w in [0, 1]")
    parser.add_argument("--chase-rate", type=float, default=1.0,
                        help="demand-chaser rate alpha >= 0")
    parser.add_argument("--switch-round", type=int, default=None,
                        help="demand-chaser: start chasing at this round (0 before)")
    parser.add_argument("--resume", type=Path, default=None,
                        help="resume an existing run directory instead of starting fresh")
    parser.add_argument("--print-config", action="store_true",
                        help="print the fully-resolved config and plan, then exit")
    parser.set_defaults(default_agents=default_agents)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvlab",
        description="Dynamic newsvendor ordering experiments and bias metrics.",
    )
    parser.add_argument("--log-level", choices=LOG_LEVELS, default="WARNING",
                        help="log to stderr from this level up (default: WARNING)")
    parser.add_argument("-v", dest="log_level", action="store_const", const="INFO",
                        help="same as --log-level INFO: one line per chat request")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a plan (LLM or scripted agents)")
    _add_grid_arguments(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    sim_parser = sub.add_parser("simulate", help="offline pipeline with scripted agents")
    _add_grid_arguments(sim_parser, scripted_only=True)
    sim_parser.set_defaults(handler=cmd_simulate)

    report_parser = sub.add_parser("report", help="emit tables and figure data from run stores")
    report_parser.add_argument("run_dirs", nargs="+", type=Path)
    report_parser.add_argument("--out", type=Path, required=True)
    report_parser.add_argument("--compare-humans", action="store_true",
                               help="append the embedded human reference rows")
    report_parser.set_defaults(handler=cmd_report)

    validate_parser = sub.add_parser("validate-prompts",
                                     help="diff rendered prompts against the golden files")
    validate_parser.set_defaults(handler=cmd_validate_prompts)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the thread name tells concurrent repetitions' request lines apart
    logging.basicConfig(level=args.log_level,
                        format="%(asctime)s %(levelname)s %(threadName)s %(name)s: %(message)s")
    if getattr(args, "agent", None) is None and hasattr(args, "default_agents"):
        args.agent = list(args.default_agents)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except ReportError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a full disk, say, or a directory where a store file belongs
        path = f": {exc.filename}" if exc.filename else ""
        print(f"i/o error: {exc.strerror or exc}{path}", file=sys.stderr)
        failed = Path(exc.filename if isinstance(exc.filename, str) else "")
        # not for a directory in a store file's place, which fails a resume too
        if args.command in ("run", "simulate") and failed.is_file() and RunStore(
                failed.parent).exists():
            print(f"finish the run with --resume {failed.parent}", file=sys.stderr)
        if rerun := getattr(exc, "rerun", None):  # the command's agents left to run
            print(rerun, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
