"""Acceptance gate: one test per release criterion, each printing a PASS line
with its measured numbers so a captured log shows the whole gate at a glance.

The comparison suite (criteria 4 and 5) trains five methods from a shared
supervised warm start on the same 200-problem arithmetic benchmark, three
training seeds each, and is built once per module.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from flowseq import autodiff as ad
from flowseq.autodiff import GradTape
from flowseq.baselines import (
    DpoConfig,
    PpoConfig,
    PreferencePair,
    RftConfig,
    SftConfig,
    dpo_train,
    ppo_surrogate_var,
    ppo_train,
    rft_train,
    sft_train,
)
from flowseq.cli import run_cli
from flowseq.core import Problem, TaskKind, make_vocab
from flowseq.env import TaskConfig, build_vocab, enumerate_terminals, make_problem, reward
from flowseq.evaluation import pass_at_k, rouge_l
from flowseq.evaluation import evaluate
from flowseq.gflownet import (
    BufferEntry,
    GfnConfig,
    TrainSet,
    sft_from_vars,
    terminal_l1_gap,
    train_gflownet,
)
from flowseq.policy import (
    DecodeCfg,
    Policy,
    ValueNet,
    _sample_with_rng,
    batched_generation_log_vars,
    generation_log_probs,
    pad_rows,
    sequence_log_prob_vars,
    terminal_distribution,
    trajectory_body,
)
from test_baselines import dpo_loss, with_ref_margins
from test_gflownet import replay_loss
from test_lockstep import trajectory_item

HOT = DecodeCfg(temperature=1.0, top_p=1.0)
COOL = DecodeCfg(temperature=0.7, top_p=0.95)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_terminal_law_tracks_reward():
    # three sum-decomposition problems of growing terminal-space size; after
    # training, the exact terminal law must sit within 0.05 L1 of R/Z
    measured = []
    for max_parts in (2, 3, 4):
        t0 = time.time()
        task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 4),
                          max_parts=max_parts, max_part=2)
        vocab = build_vocab(task)
        problem = make_problem(task, seed=0)
        rewards = enumerate_terminals(problem, task, vocab)
        assert len(rewards) <= 5000
        pol = Policy.tabular(
            vocab, window=len(problem.prompt_tokens) + problem.max_solution_len)
        ds = TrainSet.build([problem], task, vocab)
        train_gflownet(pol, ds, GfnConfig(
            steps=1500, batch_size=16, samples_per_problem=8, sft_coeff=0.0,
            lr=0.08, decode=DecodeCfg(temperature=2.0, top_p=1.0), seed=0))
        gap = terminal_l1_gap(pol, problem, task, vocab)
        elapsed = time.time() - t0
        assert elapsed <= 300.0, f"{max_parts} parts took {elapsed:.0f}s"
        measured.append((len(rewards), gap))
        assert gap <= 0.05, f"L1 {gap:.4f} over {len(rewards)} terminals"
    detail = ", ".join(f"{n} terminals: L1={g:.4f}" for n, g in measured)
    print(f"criterion 1: PASS ({detail})")


# ---------------------------------------------------------------- criterion 2


def _two_terminal_toy():
    vocab = make_vocab(["g"])
    problem = Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(0,),
                      target=1, operands=(1,), max_solution_len=1)
    return vocab, problem


def _toy_policy(vocab, problem, p_tok: float):
    pol = Policy.tabular(vocab, window=2)
    pol.register_prefixes([(problem.prompt_tokens, (0,))])
    i0 = pol.contexts[pol.context_of(problem.prompt_tokens)]
    i1 = pol.contexts[pol.context_of(problem.prompt_tokens + (0,))]
    pol.params = np.zeros(pol.params.size)
    pol.params[i0 * 2:(i0 + 1) * 2] = np.log([p_tok, 1.0 - p_tok])
    pol.params[i1 * 2:(i1 + 1) * 2] = np.log([1e-12, 1.0 - 1e-12])
    return pol


def _replayed(reward_fn, traj):
    """A one-row replay batch holding traj, with the log of reward_fn on each prefix of its body."""
    prompt, body = trajectory_item(traj)
    return [BufferEntry(prompt, body, np.log([reward_fn(prompt + body[:i]) for i in range(len(body) + 1)]))]


def _random_terminated(pol, problem, seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        t = _sample_with_rng(pol, problem, HOT, rng)
        if t.terminated:
            return t
    raise AssertionError("no terminated sample found")


def _fd_instance(seed: int):
    """A small registered tabular policy with two terminated trajectories."""
    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 4),
                      max_parts=3, max_part=2)
    vocab = build_vocab(task)
    problem = make_problem(task, seed=0)
    pol = Policy.tabular(vocab, window=4)
    traj_a = _random_terminated(pol, problem, seed)
    traj_b = traj_a
    for extra in range(1, 50):
        traj_b = _random_terminated(pol, problem, seed * 97 + extra)
        if trajectory_body(traj_b) != trajectory_body(traj_a):
            break
    for t in (traj_a, traj_b):
        pol.register_prefixes([(problem.prompt_tokens, trajectory_body(t))])
    rng = np.random.default_rng(seed + 1)
    pol.params = rng.normal(0.0, 0.5, size=pol.params.size)
    reward_fn = lambda prefix: reward(problem, prefix, task, vocab)
    return problem, pol, (traj_a, traj_b), reward_fn, rng


def _sampler_log_probs(pol, problem, traj) -> np.ndarray:
    """A terminated draw's token and stop log-probabilities under the empty (uniform) table that drew it."""
    lp_tok, lp_stop = generation_log_probs(Policy.tabular(pol.vocab, pol.window), problem.prompt_tokens,
                                           trajectory_body(traj))
    return np.append(lp_tok, lp_stop[-1])


def _loss_at(pol, vec, make_loss) -> float:
    saved = pol.params
    pol.params = vec
    tape = GradTape()
    theta = tape.input(pol.params)
    value = float(make_loss(pol, theta).value)
    pol.params = saved
    return value


def _max_grad_rel_err(pol, make_loss, h: float = 1e-5) -> float:
    tape = GradTape()
    theta = tape.input(pol.params)
    grad = ad.backward(make_loss(pol, theta), theta)
    base = pol.params.copy()
    fd = np.zeros_like(base)
    for i in range(base.size):
        hi = base.copy()
        lo = base.copy()
        hi[i] += h
        lo[i] -= h
        fd[i] = (_loss_at(pol, hi, make_loss) - _loss_at(pol, lo, make_loss)) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(grad)), 1e-2)
    return float(np.max(np.abs(fd - grad) / denom))


def test_criterion_2_balance_loss_correctness():
    # (a) the reward-proportional policy zeroes every residual
    vocab, problem = _two_terminal_toy()
    pol = _toy_policy(vocab, problem, p_tok=0.75)  # 3/(1+3)
    rewards = {(): 1.0, (0,): 3.0}
    reward_fn = lambda prefix: rewards[prefix[1:]]
    traj = _random_terminated(pol, problem, 0)
    cfg = GfnConfig(steps=1, subtb_lambda=1.0)
    flow_loss = ad.loss_value(lambda th: replay_loss(pol, th, _replayed(reward_fn, traj), cfg)[1],
                              pol.params)
    assert flow_loss < 1e-10

    # (b) uniform one-step policy against rewards {1, 3}: the single
    # surviving residual is (log 3)^2
    pol = _toy_policy(vocab, problem, p_tok=0.5)
    from flowseq.core import Trajectory

    traj = Trajectory(prompt_len=1, tokens=(0, 0, 1), terminated=True)
    hand = ad.loss_value(lambda th: replay_loss(pol, th, _replayed(reward_fn, traj), cfg)[1], pol.params)
    assert hand == pytest.approx(float(np.log(3.0)) ** 2, abs=1e-9)

    # (c) every loss gradient against central differences, 20 instances each
    worst: dict[str, float] = {}

    def record(name, err):
        worst[name] = max(worst.get(name, 0.0), err)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"

    for i in range(20):
        problem, pol, (ta, tb), reward_fn, rng = _fd_instance(i)
        lam = (0.5, 0.9, 1.0, 1.7)[i % 4]
        cfg = GfnConfig(steps=1, subtb_lambda=lam)
        batch = _replayed(reward_fn, ta)
        record("subtb", _max_grad_rel_err(
            pol, lambda p, th: replay_loss(p, th, batch, cfg)[1]))

        # trajectory balance has no trainer, so its loss is built here: (log Z + log pi(ta) - log R(ta))^2
        log_z = float(rng.normal())
        log_r = float(np.log(reward_fn(problem.prompt_tokens + trajectory_body(ta))))

        def trajectory_balance(p, th):
            seq = ad.vsum(sequence_log_prob_vars(*batched_generation_log_vars(p, th, [trajectory_item(ta)])))
            return ad.square(log_z + seq - log_r)

        record("tb", _max_grad_rel_err(pol, trajectory_balance))

        refs = [trajectory_item(t) for t in (ta, tb)]
        record("sft", _max_grad_rel_err(
            pol, lambda p, th: sft_from_vars(*batched_generation_log_vars(p, th, refs))))

        ref_pol = pol.clone()
        ref_pol.params = rng.normal(0.0, 0.5, size=ref_pol.params.size)
        pairs = with_ref_margins(ref_pol, [PreferencePair(
            problem.prompt_tokens, trajectory_body(ta), trajectory_body(tb), ta.terminated, tb.terminated, 0.0)])
        beta = (0.01, 0.1, 0.5)[i % 3]
        record("dpo", _max_grad_rel_err(
            pol, lambda p, th: dpo_loss(p, th, pairs, beta)))

        olds = [_sampler_log_probs(pol, problem, t) for t in (ta, tb)]
        advs = [rng.normal(0.0, 1.0, size=old.size) for old in olds]

        def ppo_surrogate(p, th):
            forward = batched_generation_log_vars(p, th, [trajectory_item(t) for t in (ta, tb)])
            width = forward[1].value.shape[1]
            stopped = np.array([t.terminated for t in (ta, tb)])
            return ppo_surrogate_var(forward, stopped, pad_rows(olds, width), pad_rows(advs, width), clip=0.2)

        record("ppo", _max_grad_rel_err(pol, ppo_surrogate))

    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    print(f"criterion 2: PASS (zero-residual {flow_loss:.1e}, "
          f"hand case |err| {abs(hand - float(np.log(3.0)) ** 2):.1e}, "
          f"max grad rel err {detail})")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_reward_scale_invariance():
    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 4),
                      max_parts=3, max_part=2)
    vocab = build_vocab(task)
    problem = make_problem(task, seed=0)
    reward_fn = lambda prefix: reward(problem, prefix, task, vocab)
    pol = Policy.tabular(vocab, window=4)
    rng = np.random.default_rng(11)
    cfg = GfnConfig(steps=1, subtb_lambda=0.9)
    worst = 0.0
    for seed in range(5):
        traj = _random_terminated(pol, problem, seed)
        pol.register_prefixes([(problem.prompt_tokens, trajectory_body(traj))])
        pol.params = rng.normal(0.0, 0.5, size=pol.params.size)
        base = ad.loss_value(lambda th: replay_loss(pol, th, _replayed(reward_fn, traj), cfg)[1],
                             pol.params)
        for c in (0.1, 10.0):
            batch = _replayed(lambda pre: c * reward_fn(pre), traj)
            scaled = ad.loss_value(lambda th: replay_loss(pol, th, batch, cfg)[1], pol.params)
            worst = max(worst, abs(scaled - base))
            assert abs(scaled - base) < 1e-9
    print(f"criterion 3: PASS (max |delta| {worst:.2e} across 5 trajectories x 2 scales)")


# ------------------------------------------------------- criteria 4 and 5


SUITE_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def method_suite():
    """Five methods x three seeds on the shared arithmetic benchmark.

    Every method starts from the same supervised warm start, which doubles
    as the plain-supervised row of the comparison.
    """
    t0 = time.time()
    task = TaskConfig(task_kind=TaskKind.ARITH, value_range=(2, 12), max_parts=2)
    vocab = build_vocab(task)
    problems = [make_problem(task, seed=1000 + i) for i in range(200)]
    ds = TrainSet.build(problems, task, vocab, max_refs=1)

    # the warm start is deterministic, so it is trained once and cloned per run
    warm = Policy.neural(vocab, window=10, embed_dim=16, hidden_dim=64, seed=0)
    sft_train(warm, ds, epochs=10,
              cfg=SftConfig(epochs=10, lr=0.01, batch_size=32, seed=0))

    def run(method: str, seed: int):
        pol = warm.clone()
        if method == "rft":
            # repeated rounds resample from the improved policy each time
            for r in range(10):
                rft_train(pol, ds, RftConfig(k=8, epochs=5, lr=0.01, batch_size=32,
                                             decode=COOL, seed=seed * 100 + r))
        elif method == "dpo":
            dpo_train(pol, pol.clone(), ds,
                      DpoConfig(beta=0.1, samples_per_problem=8, epochs=3,
                                lr=3e-3, batch_size=32, decode=COOL, seed=seed))
        elif method == "ppo":
            critic = ValueNet.for_policy(pol)
            ppo_train(pol, critic, ds,
                      PpoConfig(steps=1200, trajs_per_step=8, actor_lr=1e-3,
                                critic_lr=3e-3, kl_beta=0.05, decode=COOL, seed=seed))
        elif method == "gflownet":
            train_gflownet(pol, ds, GfnConfig(
                steps=600, batch_size=16, samples_per_problem=8, sft_coeff=30.0,
                subtb_lambda=0.1, lr=3e-4, decode=COOL, seed=seed))
        return evaluate(pol, problems, vocab, k=8, decode_cfg=HOT, seed=99)

    agg: dict[str, tuple[float, float]] = {}
    for method in ("sft", "rft", "dpo", "ppo", "gflownet"):
        greedies, distincts = [], []
        for seed in SUITE_SEEDS:
            rep = run(method, seed)
            greedies.append(rep.greedy_accuracy)
            distincts.append(rep.mean_distinct_correct)
        agg[method] = (float(np.mean(greedies)), float(np.mean(distincts)))
    return {"agg": agg, "elapsed": time.time() - t0}


def test_criterion_4_distinct_solutions_beat_ppo(method_suite):
    agg = method_suite["agg"]
    gfn_distinct = agg["gflownet"][1]
    ppo_distinct = agg["ppo"][1]
    assert method_suite["elapsed"] <= 1800.0
    assert gfn_distinct >= ppo_distinct + 0.2, (gfn_distinct, ppo_distinct)
    print(f"criterion 4: PASS (distinct gflownet {gfn_distinct:.3f} vs ppo "
          f"{ppo_distinct:.3f} + 0.2, suite {method_suite['elapsed']:.0f}s)")


def test_criterion_5_accuracy_parity_with_best_maximizer(method_suite):
    agg = method_suite["agg"]
    supervised = agg["sft"][0]
    best = max(("rft", "dpo", "ppo"), key=lambda m: agg[m][0])
    best_greedy = agg[best][0]
    gfn_greedy = agg["gflownet"][0]
    assert abs(gfn_greedy - best_greedy) <= 0.05, (gfn_greedy, best, best_greedy)
    assert gfn_greedy > supervised
    assert best_greedy > supervised
    print(f"criterion 5: PASS (greedy gflownet {gfn_greedy:.3f} vs {best} "
          f"{best_greedy:.3f}, supervised floor {supervised:.3f})")


# ---------------------------------------------------------------- criterion 6


def _brute_lcs(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    memo: dict[tuple[int, int], int] = {}

    def go(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if (i, j) not in memo:
            if a[i] == b[j]:
                memo[(i, j)] = 1 + go(i + 1, j + 1)
            else:
                memo[(i, j)] = max(go(i + 1, j), go(i, j + 1))
        return memo[(i, j)]

    return go(0, 0)


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        la, lb = int(rng.integers(0, 13)), int(rng.integers(0, 13))
        a = tuple(int(x) for x in rng.integers(0, 5, size=la))
        b = tuple(int(x) for x in rng.integers(0, 5, size=lb))
        got = rouge_l(a, b)
        lcs = _brute_lcs(a, b)
        if not a or not b or lcs == 0:
            want = 0.0
        else:
            p = lcs / len(a)
            r = lcs / len(b)
            want = 2.0 * p * r / (p + r)
        assert got == want, (a, b)

    for m in range(100):
        mrng = np.random.default_rng(500 + m)
        rows = int(mrng.integers(3, 7))
        samples = int(mrng.integers(2, 7))
        matrix = mrng.random((rows, samples)) < 0.4
        listed = [list(map(bool, row)) for row in matrix]
        prev = 0.0
        for k in range(1, samples + 1):
            got = pass_at_k(listed, k)
            direct = float(np.mean([any(row[:k]) for row in listed]))
            assert got == direct, (m, k)
            assert got >= prev, (m, k)
            prev = got
    print("criterion 6: PASS (1000 similarity pairs exact, 100 pass@k matrices "
          "exact and monotone)")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_maximizer_concentrates_sampler_spreads():
    # exactly two terminals: stopping immediately earns the reward floor,
    # printing the single digit earns 1
    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 3),
                      max_parts=2, max_part=2)
    vocab = make_vocab(["1"])
    problem = Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(0,),
                      target=1, operands=(1,), max_solution_len=1)
    # the bodies in the terminal order, by length then product order: () then (0,)
    bodies = [b for n in range(problem.max_solution_len + 1) for b in itertools.product(vocab.body_ids, repeat=n)]
    digit = bodies.index((0,))
    rewards = enumerate_terminals(problem, task, vocab).tolist()
    assert sorted(rewards) == [task.reward_floor, 1.0] and rewards[digit] == 1.0
    target_share = 1.0 / (1.0 + task.reward_floor)
    ds = TrainSet(problems=[problem], references=[[]], task=task, vocab=vocab)

    pol = Policy.tabular(vocab, window=3)
    critic = ValueNet.for_policy(pol)
    ppo_train(pol, critic, ds, PpoConfig(steps=300, trajs_per_step=8, actor_lr=0.05,
                                         critic_lr=0.1, kl_beta=0.01, decode=HOT, seed=0))
    ppo_mass = terminal_distribution(pol, problem).probs[digit]

    pol = Policy.tabular(vocab, window=3)
    train_gflownet(pol, ds, GfnConfig(steps=400, batch_size=16, samples_per_problem=8,
                                      sft_coeff=0.0, lr=0.08,
                                      decode=DecodeCfg(temperature=2.0, top_p=1.0), seed=0))
    gfn_mass = terminal_distribution(pol, problem).probs[digit]

    assert ppo_mass >= 0.95, ppo_mass
    assert abs(gfn_mass - target_share) <= 0.05, (gfn_mass, target_share)
    print(f"criterion 7: PASS (ppo mass {ppo_mass:.4f} >= 0.95, gflownet mass "
          f"{gfn_mass:.4f} within 0.05 of {target_share:.4f})")


# ---------------------------------------------------------------- criterion 8


DETERMINISM_CONFIG = """\
method = gflownet
seed = 0

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
steps = 60
batch_size = 8
samples_per_problem = 4
sft_coeff = 0.0
lr = 0.05
temperature = 1.0
top_p = 1.0

[eval]
k = 4
temperature = 1.0
top_p = 1.0
"""

DETERMINISM_FILES = [
    "problems.jsonl",
    "policy.bin",
    "train_report.csv",
    "eval_aggregate.json",
    "eval_rows.csv",
    "enumeration.csv",
    "enumeration.json",
]


def test_criterion_8_pipeline_is_bytewise_deterministic(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(DETERMINISM_CONFIG)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        for command in ("gen-data", "train", "eval", "enumerate"):
            code = run_cli([command, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, command
    hashes = []
    for name in DETERMINISM_FILES:
        first = (outs[0] / name).read_bytes()
        second = (outs[1] / name).read_bytes()
        assert first == second, name
        hashes.append(f"{name} {hashlib.sha256(first).hexdigest()[:12]}")
    # the run manifest differs only in where it says it wrote
    metas = [json.loads((out / "run_meta.json").read_text()) for out in outs]
    for meta, out in zip(metas, outs):
        assert meta["config"]["out"] == str(out)
        meta["config"]["out"] = ""
    assert metas[0] == metas[1]
    # the manifest as _write_meta writes it, with out blanked
    manifest = hashlib.sha256((json.dumps(metas[0], sort_keys=True, indent=2) + "\n").encode()).hexdigest()[:12]
    # the sha256 prefixes let a change that claims no behaviour change quote them at both commits
    print(f"criterion 8: PASS ({len(DETERMINISM_FILES)} outputs byte-identical "
          f"across two runs: {', '.join(hashes)}; run_meta.json with out blanked {manifest})")
