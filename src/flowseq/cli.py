"""Experiment driver: one binary, five subcommands.

gen-data writes a problem set; train runs any of the five methods and saves a
checkpoint plus a per-step CSV; eval samples and grades; enumerate prints the
exact terminal distribution next to the reward-proportional target; compare
collates evaluation reports into one table.

Every subcommand writes run_meta.json with the fully resolved configuration,
and no output embeds a timestamp, so a rerun under the same seed is byte
identical. Exit code 2 flags a configuration problem, 1 a runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import baselines as bl
from .config import ConfigError, Method, RunConfig, read_config
from .env import (build_vocab, enumerate_terminals, level_rows, make_problem, read_problems, terminal_levels,
                  write_problems)
from .evaluation import evaluate
from .gflownet import TrainSet, terminal_l1_gap, terminal_law, train_gflownet
from .policy import Policy, PolicyKind, ValueNet, load_policy, save_policy, terminal_distribution

log = logging.getLogger("flowseq")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    raw = os.environ.get("FLOWSEQ_LOG", "error")
    if raw not in _LOG_LEVELS:
        raise ConfigError(f"FLOWSEQ_LOG must be one of {sorted(_LOG_LEVELS)}, got {raw!r}")
    logging.basicConfig(level=_LOG_LEVELS[raw], format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(_LOG_LEVELS[raw])  # basicConfig does nothing once the root logger has a handler


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowseq")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "train", "eval", "enumerate", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        if name == "compare":
            p.add_argument("reports", nargs="*", metavar="LABEL=PATH")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values (defaults without one), then the --seed and --out overrides, checked once."""
    cfg = RunConfig()
    if args.config:
        try:
            cfg = read_config(args.config)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    cfg.check()
    return cfg


def _write_meta(cfg: RunConfig, command: str) -> None:
    meta = {"command": command, "config": cfg.to_dict()}
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="")


def _problem_seed(run_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((run_seed, index)).generate_state(1)[0])


def _cmd_gen_data(cfg: RunConfig) -> int:
    task = cfg.task_config()
    vocab = build_vocab(task)
    problems = [make_problem(task, seed=_problem_seed(cfg.seed, i)) for i in range(cfg.data.n_problems)]
    path = cfg.resolve_path(cfg.data.problems)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_problems(path, problems, vocab)
    _write_meta(cfg, "gen-data")
    log.info("generated %d problems", len(problems))
    print(f"wrote {path}")
    return 0


def _build_policy(cfg: RunConfig, vocab) -> Policy:
    p = cfg.policy
    if p.kind is PolicyKind.TABULAR:
        return Policy.tabular(vocab, window=p.window)
    return Policy.neural(vocab, window=p.window, embed_dim=p.embed_dim, hidden_dim=p.hidden_dim, seed=cfg.seed)


def _cmd_train(cfg: RunConfig) -> int:
    task = cfg.task_config()
    vocab = build_vocab(task)
    problems = read_problems(cfg.resolve_path(cfg.data.problems), vocab)
    dataset = TrainSet.build(problems, task, vocab)
    policy = _build_policy(cfg, vocab)

    if cfg.train.sft_init_epochs and cfg.method is not Method.SFT:
        bl.sft_train(policy, dataset, cfg=cfg.warm_start())
        log.info("warm-started with %d sft epochs", cfg.train.sft_init_epochs)

    method, trainer = cfg.method, cfg.trainer_config(cfg.method)
    if method is Method.GFLOWNET:
        report = train_gflownet(policy, dataset, trainer, problems[0] if trainer.diag_every else None)
    elif method is Method.SFT:
        report = bl.sft_train(policy, dataset, cfg=trainer)
    elif method is Method.RFT:
        report = bl.rft_train(policy, dataset, trainer)
    elif method is Method.DPO:
        report = bl.dpo_train(policy, policy.clone(), dataset, trainer)
        if not report.rows:  # a run that fitted nothing leaves no checkpoint
            raise bl.EmptyDataset(f"no preference pairs: every problem's draws tie in reward "
                                  f"({len(dataset.problems)} problems, {trainer.samples_per_problem} draws each)")
    else:
        report = bl.ppo_train(policy, ValueNet.for_policy(policy, seed=cfg.seed), dataset, trainer)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = cfg.resolve_path(cfg.data.checkpoint)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    save_policy(str(ckpt), policy)
    report.write_csv(out / "train_report.csv")
    _write_meta(cfg, "train")
    log.info("trained %s for %d report rows", cfg.method.value, len(report.rows))
    print(f"wrote {ckpt}")
    print(f"wrote {out / 'train_report.csv'}")
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    task = cfg.task_config()
    vocab = build_vocab(task)
    problems = read_problems(cfg.resolve_path(cfg.data.problems), vocab)
    policy = load_policy(str(cfg.resolve_path(cfg.data.checkpoint)), vocab)
    report = evaluate(policy, problems, vocab, k=cfg.eval.k, decode_cfg=cfg.decode("eval"),
                      seed=cfg.seed, prepend_greedy=cfg.eval.prepend_greedy)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report.write_json(out / "eval_aggregate.json")
    report.write_csv(out / "eval_rows.csv")
    _write_meta(cfg, "eval")
    log.info("evaluated %d problems", len(report.rows))
    print(f"wrote {out / 'eval_aggregate.json'}")
    print(f"wrote {out / 'eval_rows.csv'}")
    return 0


def _terminal_texts(problem, vocab) -> list[str]:
    """core.decode of each body, in env.terminal_levels order: each level's env.level_rows as words."""
    words, texts = np.array(vocab.tokens, dtype=object), []
    for length, size in enumerate(terminal_levels(problem, vocab)):
        texts += map(" ".join, words[level_rows(vocab.body_ids, length, 0, size)].tolist())
    return texts


def _cmd_enumerate(cfg: RunConfig) -> int:
    task = cfg.task_config()
    vocab = build_vocab(task)
    problems = read_problems(cfg.resolve_path(cfg.data.problems), vocab)
    policy = load_policy(str(cfg.resolve_path(cfg.data.checkpoint)), vocab)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    gaps: dict[str, dict] = {}
    texts: dict[int, list[str]] = {}  # a problem's terminal texts depend on its max_solution_len alone
    with open(out / "enumeration.csv", "w", encoding="utf-8", newline="") as fh:
        # the bytes csv.writer would write: no token holds a comma, quote or line break to quote
        fh.write("problem_id,sequence,policy_prob,target_prob\r\n")
        for pid, problem in enumerate(problems):
            dist = terminal_distribution(policy, problem)
            law = terminal_law(enumerate_terminals(problem, task, vocab), dist)
            gap = terminal_l1_gap(policy, problem, task, vocab, dist=dist, law=law)
            probs, targets = (a.tolist() for a in law)
            # a problem has a few distinct rewards, and a tabular policy few distinct probabilities:
            # repr each value once (none is -0.0, the one float whose repr differs from an equal one's)
            shown = {v: repr(v) for v in {*targets, *probs}}
            if problem.max_solution_len not in texts:
                texts[problem.max_solution_len] = _terminal_texts(problem, vocab)
            fh.write("".join([f"{pid},{text},{shown[p]},{shown[t]}\r\n" for text, p, t in zip(
                texts[problem.max_solution_len], probs, targets, strict=True)]))
            gaps[str(pid)] = {"l1": gap, "overflow": dist.overflow}
            log.info("problem %d: %d terminals, l1 %r, overflow %r", pid, len(probs), gap, dist.overflow)
    with open(out / "enumeration.json", "w", encoding="utf-8", newline="") as fh:
        json.dump({"problems": gaps}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_meta(cfg, "enumerate")
    print(f"wrote {out / 'enumeration.csv'}")
    print(f"wrote {out / 'enumeration.json'}")
    return 0


def _cmd_compare(cfg: RunConfig, reports: list[str]) -> int:
    if len(reports) < 2:
        raise ConfigError("compare needs at least 2 LABEL=PATH reports")
    parsed: list[tuple[str, dict]] = []
    for spec in reports:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            raise ConfigError(f"expected LABEL=PATH, got {spec!r}")
        if label in (seen for seen, _ in parsed):
            raise ConfigError(f"compare label {label!r} is given twice")
        with open(path, "r", encoding="utf-8") as fh:
            parsed.append((label, json.load(fh)))
    parsed.sort(key=lambda item: item[0])

    def cell(agg: dict, k: str) -> str:
        value = agg.get("pass_at", {}).get(k)
        return "" if value is None else repr(value)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [["method", "greedy", "pass@4", "pass@8", "mean_distinct_correct"]]
    for label, agg in parsed:
        lines.append([label, repr(agg["greedy_accuracy"]), cell(agg, "4"), cell(agg, "8"),
                      repr(agg["mean_distinct_correct"])])
    with open(out / "compare.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(lines)
    _write_meta(cfg, "compare")
    for row in lines:
        print(",".join(row))
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    """Dispatch one subcommand; returns the process exit code.

    2 flags a configuration problem (bad flags, bad config file, bad env),
    1 any runtime failure; argparse usage errors keep their own exit code.
    """
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        if args.command == "compare":
            return _cmd_compare(cfg, args.reports)
        return {"gen-data": _cmd_gen_data, "train": _cmd_train, "eval": _cmd_eval,
                "enumerate": _cmd_enumerate}[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 - the process boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())
