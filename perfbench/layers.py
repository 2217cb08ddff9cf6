"""Where the traced run hooks into flowseq, and the per-layer metrics it derives.

Each entry point is wrapped where its consumer binds the name, so a call made
through a ``from .x import name`` binding is seen as well as one made through
the defining module. README.md lists, for each per-layer metric, the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import os

from flowseq import autodiff, baselines, cli, env, evaluation, gflownet, policy

from spans import Tracer


def _sample_counts(args, traj):
    yield "policy.sample.tokens", len(traj.generated)
    yield "policy.sample.natural_stops", int(traj.terminated)


def _rows(args, result):
    yield "policy.batched_generation_log_vars.rows", sum(len(body) + 1 for _, body in args[2])


def _pairs(args, result):
    yield "baselines.build_preference_pairs.pairs", len(result)
    yield "baselines.build_preference_pairs.problems", len(args[1].problems)


# (consumers binding the entry point, attribute, layer name, counter)
SITES = [
    ((gflownet, baselines, evaluation), "_sample_with_rng", "policy.sample", _sample_counts),
    ((evaluation,), "greedy_decode", "policy.greedy_decode",
     lambda a, r: [("policy.greedy_decode.tokens", len(r.generated))]),
    ((gflownet, baselines), "batched_generation_log_vars", "policy.batched_generation_log_vars", _rows),
    ((policy.Policy,), "register_prefixes", "policy.register_prefixes", None),
    ((gflownet, cli), "terminal_distribution", "policy.terminal_distribution",
     lambda a, r: [("policy.terminal_distribution.nodes", len(r.probs))]),
    ((cli,), "save_policy", "policy.save_policy",
     lambda a, r: [("policy.checkpoint_bytes", os.path.getsize(a[0]))]),
    ((cli,), "load_policy", "policy.load_policy", None),
    ((autodiff,), "backward", "autodiff.backward",
     lambda a, r: [("autodiff.backward.tape_nodes", len(a[0].tape.nodes))]),
    ((gflownet, baselines), "adam_step", "autodiff.adam_step", None),
    ((env, gflownet), "reward", "env.reward", None),
    ((gflownet, cli), "enumerate_terminals", "env.enumerate_terminals",
     lambda a, r: [("env.enumerate_terminals.terminals", len(r))]),
    ((env, cli), "make_problem", "env.make_problem", None),
    ((env, gflownet), "enumerate_solutions", "env.enumerate_solutions", None),
    ((gflownet, cli), "train_gflownet", "gflownet.train_gflownet",
     lambda a, r: [("policy.table_rows", len(a[0].contexts))]),
    ((gflownet, cli), "terminal_l1_gap", "gflownet.terminal_l1_gap", None),
    ((gflownet,), "prefix_log_rewards", "gflownet.prefix_log_rewards", None),
    ((gflownet,), "_force_stop", "gflownet.force_stop", None),
    ((baselines,), "sft_train", "baselines.sft_train", None),
    ((baselines,), "rft_train", "baselines.rft_train", None),
    ((baselines,), "dpo_train", "baselines.dpo_train", None),
    ((baselines,), "ppo_train", "baselines.ppo_train", None),
    ((baselines,), "build_preference_pairs", "baselines.build_preference_pairs", _pairs),
    ((evaluation, cli), "evaluate", "evaluation.evaluate",
     lambda a, r: [("evaluation.evaluate.problems", len(a[1]))]),
    ((evaluation,), "rouge_l", "evaluation.rouge_l", None),
    ((evaluation,), "solution_from_body", "evaluation.solution_from_body", None),
]


def install(tracer: Tracer) -> None:
    for owners, attr, name, count in SITES:
        for owner in owners:
            tracer.patch(owner, attr, name, count)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, names: list[str], units: int, overhead_s: float,
                  untraced_s: float) -> dict[str, float]:
    """The per-layer metrics `names`: counts and seconds per traced unit, rates and shares as ratios.

    policy.table_rows is the mean table size at the end of a GFlowNet training.
    """
    busy, own, calls, n = tracer.busy(), tracer.self_time(), tracer.calls(), tracer.counts
    out: dict[str, float] = {}
    for name in names:
        layer, _, field = name.rpartition(".")
        if field == "busy_s":
            out[name] = busy.get(layer, 0.0) / units
        elif field == "self_s":
            out[name] = own.get(layer, 0.0) / units
        elif field == "calls":
            out[name] = calls.get(layer, 0) / units
    for name in ("policy.sample.tokens", "policy.greedy_decode.tokens", "autodiff.backward.tape_nodes",
                 "policy.batched_generation_log_vars.rows", "policy.terminal_distribution.nodes",
                 "env.enumerate_terminals.terminals", "policy.checkpoint_bytes"):
        out[name] = n[name] / units
    out.update({
        "policy.sample.tokens_per_s": _ratio(n["policy.sample.tokens"], busy.get("policy.sample", 0.0)),
        "policy.sample.natural_stop_ratio": _ratio(n["policy.sample.natural_stops"], calls.get("policy.sample", 0)),
        "autodiff.backward.tape_nodes_per_step": _ratio(
            n["autodiff.backward.tape_nodes"], calls.get("autodiff.backward", 0)),
        "policy.batched_generation_log_vars.rows_per_s": _ratio(
            n["policy.batched_generation_log_vars.rows"], busy.get("policy.batched_generation_log_vars", 0.0)),
        "policy.terminal_distribution.nodes_per_s": _ratio(
            n["policy.terminal_distribution.nodes"], busy.get("policy.terminal_distribution", 0.0)),
        "policy.table_rows": _ratio(n["policy.table_rows"], calls.get("gflownet.train_gflownet", 0)),
        "env.reward.calls_per_s": _ratio(calls.get("env.reward", 0), busy.get("env.reward", 0.0)),
        "gflownet.force_stop.share": _ratio(
            calls.get("gflownet.force_stop", 0),
            tracer.count_under("policy.sample", "gflownet.train_gflownet")),
        "baselines.build_preference_pairs.pairs_per_problem": _ratio(
            n["baselines.build_preference_pairs.pairs"], n["baselines.build_preference_pairs.problems"]),
        "evaluation.evaluate.problems_per_s": _ratio(
            n["evaluation.evaluate.problems"], busy.get("evaluation.evaluate", 0.0)),
        "evaluation.rouge_l.pairs": calls.get("evaluation.rouge_l", 0) / units,
        "evaluation.rouge_l.pairs_per_s": _ratio(calls.get("evaluation.rouge_l", 0), busy.get("evaluation.rouge_l", 0.0)),
        "trace.spans": len(tracer.start) / units,
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": _ratio(overhead_s, untraced_s),
    })
    return out
