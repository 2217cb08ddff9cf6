"""The benchmark (perfbench/) imports flowseq names and wraps entry points by name.

A refactor that moves or renames one of them would break the benchmark only
when it is next invoked; these tests find the break at once.
"""

from __future__ import annotations

import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from flowseq import baselines, cli, evaluation, gflownet
from flowseq.core import TaskKind
from flowseq.env import TaskConfig, build_vocab, make_problem
from flowseq.policy import Policy, ValueNet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "flowseq"


def _import(name: str):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_site_resolves():
    layers = _import("layers")
    missing = [(getattr(owner, "__name__", owner), attr)
               for owners, attr, _, _ in layers.SITES for owner in owners if not hasattr(owner, attr)]
    assert layers.SITES
    assert not missing, missing


def test_every_unused_import_in_src_is_a_name_the_benchmark_wraps_there():
    # such an import exists only so that perfbench/layers.py can wrap the name where the module binds it;
    # a hook dropped from SITES must take its import with it
    wrapped = {(getattr(owner, "__name__", None), attr) for owners, attr, _, _ in _import("layers").SITES
               for owner in owners}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        imports = re.findall(r"^from \S+ import (.+?)\s+# noqa: F401$", text, re.MULTILINE)
        assert len(imports) == text.count("# noqa: F401"), f"{path.name}: a noqa F401 this test cannot read"
        unused += [(f"flowseq.{path.stem}", name.strip()) for names in imports for name in names.split(",")]
    assert [u for u in unused if u not in wrapped] == []


def test_workloads_import():
    workloads = _import("workloads")
    assert set(workloads.WORKLOADS) == {"sumpath-tabular-train", "arith-methods", "sumpath-cli-enumerate"}


ENUMERATE_CONFIG = """\
method = sft
[task]
kind = sumpath
value_lo = 2
value_hi = 3
max_parts = 2
max_part = 2
[policy]
kind = tabular
window = 5
[data]
n_problems = 3
[train]
epochs = 1
"""


def test_enumerate_calls_the_hooked_names_once_per_problem(tmp_path, monkeypatch):
    # layers.py counts terminals and law nodes where cli binds these names; gflownet's own
    # bindings stay unused, since enumerate hands terminal_l1_gap the law it already holds
    calls = Counter()

    def count(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[owner.__name__, name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    hooked = [(cli, "enumerate_terminals"), (cli, "terminal_distribution"), (cli, "terminal_l1_gap")]
    unused = [(gflownet, "enumerate_terminals"), (gflownet, "terminal_distribution")]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ENUMERATE_CONFIG)
    for command in ("gen-data", "train"):
        assert cli.run_cli([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0, command
    for owner, name in hooked + unused:
        count(owner, name)
    assert cli.run_cli(["enumerate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert calls == {(owner.__name__, name): 3 for owner, name in hooked}


def test_a_traced_run_counts_through_every_hooked_signature():
    # the counters unpack call arguments (layers._rows reads args[2] as (prompt, body) items),
    # so a changed signature shows up here rather than in the next --trace 1 run
    layers, spans = _import("layers"), _import("spans")
    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 3), max_parts=2, max_part=2)
    vocab = build_vocab(task)
    problem = make_problem(task, seed=1)
    ds = gflownet.TrainSet.build([problem], task, vocab)
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        pol = Policy.tabular(vocab, window=5)
        gflownet.train_gflownet(pol, ds, gflownet.GfnConfig(steps=2, batch_size=2, samples_per_problem=2))
        baselines.ppo_train(pol.clone(), ValueNet.for_policy(pol), ds, baselines.PpoConfig(steps=1, trajs_per_step=2))
        ref = pol.clone()  # a warm start whose draws differ in reward, so that DPO has pairs
        baselines.sft_train(ref, ds, cfg=baselines.SftConfig(epochs=10, lr=0.05))
        baselines.dpo_train(ref.clone(), ref, ds, baselines.DpoConfig(epochs=1))
        evaluation.evaluate(pol, [problem], vocab, k=2)
        gflownet.terminal_distribution(pol, problem)
    finally:
        tracer.unpatch()
    for name in ("policy.batched_generation_log_vars.rows", "autodiff.backward.tape_nodes",
                 "policy.sample.tokens", "policy.terminal_distribution.nodes"):
        assert tracer.counts[name] > 0, name
    assert tracer.calls()["policy.register_prefixes"] > 0


@pytest.mark.parametrize("seed", [15, 49])
def test_tabular_train_dpo_chains_run_where_every_draw_ties(seed):
    # sumpath-tabular-train's DPO chain 2 at these workload seeds draws 32 bodies of one reward
    # from the warm start; the chain must come back empty, not stop the benchmark with an exception
    workloads = _import("workloads")
    w = workloads.WORKLOADS["sumpath-tabular-train"]
    state = w.setup(None, seed, None)
    ds, warm = state["dataset"], state["policies"][-1]
    # SumpathTabularTrain.run's warm start and DPO chain settings
    baselines.sft_train(warm, ds, cfg=baselines.SftConfig(epochs=w.sft_epochs, lr=0.08, batch_size=None, seed=seed))
    policy = warm.clone()
    report = baselines.dpo_train(policy, warm.clone(), ds, baselines.DpoConfig(
        beta=0.1, samples_per_problem=32, epochs=w.dpo_epochs, lr=0.08, batch_size=16,
        decode=workloads.WIDE, seed=seed * w.dpo_chains + 2))
    assert report.rows == []
    assert policy.params.tobytes() == warm.params.tobytes()
