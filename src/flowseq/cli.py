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
from typing import Iterator

import numpy as np

from . import baselines as bl
from .config import ConfigError, Method, RunConfig, load_config
from .env import build_vocab, enumerate_terminals, make_problem, read_problems, write_problems
from .evaluation import evaluate
from .gflownet import GfnConfig, TrainReport, TrainSet, terminal_l1_gap, terminal_law, train_gflownet
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
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", type=str, default=None)
        if name == "compare":
            p.add_argument("reports", nargs="*", metavar="LABEL=PATH")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        try:
            cfg = load_config(args.config)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    else:
        cfg = RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    return cfg


def _write_meta(cfg: RunConfig, command: str, workers: int) -> None:
    meta = {"command": command, "config": cfg.to_dict(), "workers": workers}
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "run_meta.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _problem_seed(run_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((run_seed, index)).generate_state(1)[0])


def _cmd_gen_data(cfg: RunConfig, workers: int) -> int:
    task = cfg.task_config()
    vocab = build_vocab(task)
    problems = [make_problem(task, seed=_problem_seed(cfg.seed, i)) for i in range(cfg.n_problems)]
    path = cfg.resolve_path(cfg.problems_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_problems(path, problems, vocab)
    _write_meta(cfg, "gen-data", workers)
    log.info("generated %d problems", len(problems))
    print(f"wrote {path}")
    return 0


def _build_policy(cfg: RunConfig, vocab) -> Policy:
    if cfg.policy_kind is PolicyKind.TABULAR:
        return Policy.tabular(vocab, window=cfg.window)
    return Policy.neural(vocab, window=cfg.window, embed_dim=cfg.embed_dim,
                         hidden_dim=cfg.hidden_dim, seed=cfg.seed)


def _cmd_train(cfg: RunConfig, workers: int) -> int:
    task = cfg.task_config()
    vocab = build_vocab(task)
    problems = read_problems(cfg.resolve_path(cfg.problems_path), vocab)
    dataset = TrainSet.build(problems, task, vocab)
    policy = _build_policy(cfg, vocab)
    decode_cfg = cfg.decode_train()

    if cfg.sft_init_epochs > 0 and cfg.method is not Method.SFT:
        warm = bl.SftConfig(epochs=cfg.sft_init_epochs, lr=cfg.lr,
                            batch_size=cfg.batch_size, seed=cfg.seed)
        bl.sft_train(policy, dataset, epochs=cfg.sft_init_epochs, cfg=warm)
        log.info("warm-started with %d sft epochs", cfg.sft_init_epochs)

    if cfg.method is Method.GFLOWNET:
        report = TrainReport(loss_column="mean_subtb_loss")
        gfn = GfnConfig(
            steps=cfg.steps, batch_size=cfg.batch_size,
            samples_per_problem=cfg.samples_per_problem, sft_coeff=cfg.sft_coeff,
            subtb_lambda=cfg.subtb_lambda, horizon_coeff=cfg.horizon_coeff,
            lr=cfg.lr, buffer_capacity=cfg.replay,
            decode=decode_cfg, stop_placement=cfg.stop_placement, seed=cfg.seed,
            diag_every=cfg.diag_every,
        )
        diag = problems[0] if cfg.diag_every > 0 else None
        train_gflownet(policy, dataset, gfn, diag_problem=diag, report=report)
    elif cfg.method is Method.SFT:
        report = TrainReport(loss_column="mean_sft_loss")
        sft = bl.SftConfig(epochs=cfg.epochs, lr=cfg.lr, batch_size=cfg.batch_size, seed=cfg.seed)
        bl.sft_train(policy, dataset, epochs=cfg.epochs, cfg=sft, report=report)
    elif cfg.method is Method.RFT:
        report = TrainReport(loss_column="mean_rft_loss")
        rft = bl.RftConfig(k=cfg.rft_k, epochs=cfg.epochs, lr=cfg.lr,
                           batch_size=cfg.batch_size, decode=decode_cfg, seed=cfg.seed)
        bl.rft_train(policy, dataset, rft, report=report)
    elif cfg.method is Method.DPO:
        report = TrainReport(loss_column="mean_dpo_loss")
        dpo = bl.DpoConfig(beta=cfg.dpo_beta, samples_per_problem=cfg.dpo_samples,
                           epochs=cfg.epochs, lr=cfg.lr, batch_size=cfg.batch_size,
                           decode=decode_cfg, seed=cfg.seed)
        bl.dpo_train(policy, policy.clone(), dataset, dpo, report=report)
    else:
        report = TrainReport(loss_column="mean_ppo_loss")
        ppo = bl.PpoConfig(clip=cfg.ppo_clip, kl_beta=cfg.kl_beta, gamma=cfg.gamma,
                           gae_lambda=cfg.gae_lambda, steps=cfg.steps,
                           trajs_per_step=cfg.trajs_per_step, actor_lr=cfg.lr,
                           critic_lr=cfg.critic_lr, decode=decode_cfg, seed=cfg.seed)
        critic = ValueNet.for_policy(policy, seed=cfg.seed)
        bl.ppo_train(policy, critic, dataset, ppo, report=report)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = cfg.resolve_path(cfg.checkpoint_path)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    save_policy(str(ckpt), policy)
    report.write_csv(out / "train_report.csv")
    _write_meta(cfg, "train", workers)
    log.info("trained %s for %d report rows", cfg.method.value, len(report.rows))
    print(f"wrote {ckpt}")
    print(f"wrote {out / 'train_report.csv'}")
    return 0


def _cmd_eval(cfg: RunConfig, workers: int) -> int:
    task = cfg.task_config()
    vocab = build_vocab(task)
    problems = read_problems(cfg.resolve_path(cfg.problems_path), vocab)
    policy = load_policy(str(cfg.resolve_path(cfg.checkpoint_path)), vocab)
    report = evaluate(policy, problems, vocab, k=cfg.eval_k, decode_cfg=cfg.decode_eval(),
                      seed=cfg.seed, prepend_greedy=cfg.prepend_greedy, workers=workers)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report.write_json(out / "eval_aggregate.json")
    report.write_csv(out / "eval_rows.csv")
    _write_meta(cfg, "eval", workers)
    log.info("evaluated %d problems", len(report.rows))
    print(f"wrote {out / 'eval_aggregate.json'}")
    print(f"wrote {out / 'eval_rows.csv'}")
    return 0


def _terminal_texts(problem, vocab) -> Iterator[str]:
    """core.decode of each body of enumerate_terminals, in its order; a level extends the one before."""
    words = [vocab.tokens[t] for t in vocab.body_ids]
    level = [""]
    yield from level
    for _ in range(problem.max_solution_len):
        # terminal_levels' product order: the parent's bodies in order, the last token fastest
        level = [f"{text} {w}" if text else w for text in level for w in words]
        yield from level


def _cmd_enumerate(cfg: RunConfig, workers: int) -> int:
    task = cfg.task_config()
    vocab = build_vocab(task)
    problems = read_problems(cfg.resolve_path(cfg.problems_path), vocab)
    policy = load_policy(str(cfg.resolve_path(cfg.checkpoint_path)), vocab)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    gaps: dict[str, dict] = {}
    with open(out / "enumeration.csv", "w", encoding="utf-8", newline="") as fh:
        # the bytes csv.writer would write: no token holds a comma, quote or line break to quote
        fh.write("problem_id,sequence,policy_prob,target_prob\r\n")
        for pid, problem in enumerate(problems):
            terminals = enumerate_terminals(problem, task, vocab)
            dist = terminal_distribution(policy, problem)
            law = terminal_law(terminals, dist)
            gap = terminal_l1_gap(policy, problem, task, vocab, dist=dist, law=law)
            targets = law[1].tolist()
            shown = {t: repr(t) for t in set(targets)}  # a problem has a few distinct rewards
            fh.write("".join([f"{pid},{text},{p!r},{shown[t]}\r\n" for text, p, t in zip(
                _terminal_texts(problem, vocab), dist.probs.values(), targets, strict=True)]))
            gaps[str(pid)] = {"l1": gap, "overflow": dist.overflow}
            log.info("problem %d: %d terminals, l1 %r, overflow %r", pid, len(terminals), gap, dist.overflow)
    with open(out / "enumeration.json", "w", encoding="utf-8", newline="") as fh:
        json.dump({"problems": gaps}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_meta(cfg, "enumerate", workers)
    print(f"wrote {out / 'enumeration.csv'}")
    print(f"wrote {out / 'enumeration.json'}")
    return 0


def _cmd_compare(cfg: RunConfig, workers: int, reports: list[str]) -> int:
    if len(reports) < 2:
        raise ConfigError("compare needs at least 2 LABEL=PATH reports")
    parsed: list[tuple[str, dict]] = []
    for spec in reports:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            raise ConfigError(f"expected LABEL=PATH, got {spec!r}")
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
    _write_meta(cfg, "compare", workers)
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
        if args.command == "gen-data":
            return _cmd_gen_data(cfg, args.workers)
        if args.command == "train":
            return _cmd_train(cfg, args.workers)
        if args.command == "eval":
            return _cmd_eval(cfg, args.workers)
        if args.command == "enumerate":
            return _cmd_enumerate(cfg, args.workers)
        return _cmd_compare(cfg, args.workers, args.reports)
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
