from __future__ import annotations

import numpy as np
import pytest

from flowseq.autodiff import GradTape
from flowseq.baselines import (
    DpoConfig,
    EmptyDataset,
    LengthMismatch,
    PpoConfig,
    PpoItem,
    PreferencePair,
    RftConfig,
    SftConfig,
    build_preference_pairs,
    dpo_loss,
    dpo_train,
    gae_advantages,
    ppo_surrogate_var,
    ppo_train,
    rft_select,
    rft_train,
    sft_train,
)
from flowseq.core import Problem, TaskKind, Trajectory, make_vocab
from flowseq.env import RewardMode, TaskConfig, build_vocab, enumerate_terminals, make_problem
from flowseq.gflownet import TrainSet
from flowseq.policy import (
    DecodeCfg,
    Policy,
    ValueNet,
    generation_log_probs,
    terminal_distribution,
)


def tiny_setup():
    """31-terminal SUMPATH space with known solutions '2' and '1 1'."""
    cfg = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 3), max_parts=2,
                     max_part=2, reward_mode=RewardMode.TERMINAL)
    vocab = build_vocab(cfg)
    problem = make_problem(cfg, seed=1)
    return cfg, vocab, problem


def solution_mass(pol, problem, cfg, vocab) -> float:
    sols = [b for b, r in enumerate_terminals(problem, cfg, vocab) if r > 0.5]
    dist = terminal_distribution(pol, problem)
    return sum(dist.probs.get(b, 0.0) for b in sols)


def one_step_pair():
    """Chosen generates one token then stops; rejected stops immediately."""
    vocab = make_vocab(["g"])
    problem = Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(0,),
                      target=1, operands=(1,), max_solution_len=1)
    chosen = Trajectory(prompt_len=1, tokens=(0, 0, 1), logprobs=(-0.7, -0.7), terminated=True)
    rejected = Trajectory(prompt_len=1, tokens=(0, 1), logprobs=(-0.7,), terminated=True)
    pair = PreferencePair(problem_id=0, chosen=chosen, rejected=rejected,
                          chosen_reward=1.0, rejected_reward=0.5)
    pol = Policy.tabular(vocab, window=2)
    pol.register([((0,), (0,))])
    return vocab, problem, pair, pol


def test_preference_pair_orders_rewards():
    t = Trajectory(prompt_len=1, tokens=(0, 1), logprobs=(-0.7,), terminated=True)
    with pytest.raises(ValueError):
        PreferencePair(problem_id=0, chosen=t, rejected=t, chosen_reward=0.1, rejected_reward=0.9)


def test_preference_pair_requires_shared_prompt():
    a = Trajectory(prompt_len=1, tokens=(0, 1), logprobs=(-0.7,), terminated=True)
    b = Trajectory(prompt_len=1, tokens=(1, 1), logprobs=(-0.7,), terminated=True)
    with pytest.raises(ValueError):
        PreferencePair(problem_id=0, chosen=a, rejected=b, chosen_reward=1.0, rejected_reward=0.5)


def test_rft_select_matches_argmax_oracle():
    rng = np.random.default_rng(0)
    samples = [Trajectory(prompt_len=1, tokens=(0, 1), logprobs=(-float(i + 1),), terminated=True)
               for i in range(8)]
    for _ in range(20):
        rewards = list(rng.integers(0, 4, size=8).astype(float))
        want = max(range(8), key=lambda i: (rewards[i], -i))
        assert rft_select(samples, rewards) is samples[want]


def test_rft_select_rejects_length_mismatch():
    t = Trajectory(prompt_len=1, tokens=(0, 1), logprobs=(-0.7,), terminated=True)
    with pytest.raises(LengthMismatch):
        rft_select([t, t], [1.0])
    with pytest.raises(LengthMismatch):
        rft_select([], [])


def test_sft_reduces_reference_nll():
    cfg, vocab, problem = tiny_setup()
    ds = TrainSet.build([problem], cfg, vocab)
    pol = Policy.tabular(vocab, window=5)
    report = sft_train(pol, ds, epochs=30, cfg=SftConfig(epochs=30, lr=0.05, seed=0))
    losses = [r["mean_sft_loss"] for r in report.rows]
    assert losses[-1] < losses[0] * 0.5


def test_sft_requires_references():
    cfg, vocab, problem = tiny_setup()
    empty = TrainSet(problems=[problem], references=[[]], task=cfg, vocab=vocab)
    with pytest.raises(EmptyDataset):
        sft_train(Policy.tabular(vocab, window=5), empty)


def test_sft_cfg_alone_sets_the_epochs():
    cfg, vocab, problem = tiny_setup()
    ds = TrainSet.build([problem], cfg, vocab)
    report = sft_train(Policy.tabular(vocab, window=5), ds, cfg=SftConfig(epochs=3, batch_size=None))
    # one full-batch step per epoch
    assert len(report.rows) == 3


def test_dpo_zero_margin_is_log_two():
    # identical policy and reference cancel exactly, leaving softplus(0)
    vocab, problem, pair, pol = one_step_pair()
    ref = pol.clone()
    assert dpo_loss(pol, ref, pair, beta=0.7) == pytest.approx(np.log(2.0), rel=1e-12)


def test_dpo_loss_follows_margin():
    vocab, problem, pair, pol = one_step_pair()
    ref = pol.clone()
    pol.register([((0,), ())])
    row = pol.contexts[pol.context_of((0,))]
    up = pol.clone()
    up.params = pol.params.copy()
    up.params[row * 2] += 1.0  # favor the chosen continuation token
    down = pol.clone()
    down.params = pol.params.copy()
    down.params[row * 2] -= 1.0
    assert dpo_loss(up, ref, pair, beta=0.7) < np.log(2.0)
    assert dpo_loss(down, ref, pair, beta=0.7) > np.log(2.0)


def test_preference_pairs_skip_reward_ties():
    # a near-zero top_p collapses sampling to one junk sequence, so every
    # candidate pair ties at the reward floor and none survive
    cfg, vocab, problem = tiny_setup()
    ds = TrainSet.build([problem], cfg, vocab)
    pol = Policy.tabular(vocab, window=5)
    dcfg = DpoConfig(samples_per_problem=6, decode=DecodeCfg(temperature=1.0, top_p=1e-9))
    pairs = build_preference_pairs(pol, ds, dcfg, np.random.default_rng(0))
    assert pairs == []


def test_gae_lambda_zero_is_td_residuals():
    rng = np.random.default_rng(2)
    r = rng.normal(size=7)
    v = rng.normal(size=8)
    got = gae_advantages(r, v, gamma=0.9, lam=0.0)
    np.testing.assert_allclose(got, r + 0.9 * v[1:] - v[:-1], rtol=1e-12)


def test_gae_undiscounted_full_lambda_is_return_to_go_minus_value():
    rng = np.random.default_rng(3)
    r = rng.normal(size=6)
    v = rng.normal(size=7)
    v[-1] = 0.0
    got = gae_advantages(r, v, gamma=1.0, lam=1.0)
    rtg = np.cumsum(r[::-1])[::-1]
    np.testing.assert_allclose(got, rtg - v[:-1], rtol=1e-10)


def test_gae_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        gae_advantages(np.zeros(3), np.zeros(3), gamma=1.0, lam=1.0)


def test_ppo_surrogate_zero_advantages():
    cfg, vocab, problem = tiny_setup()
    pol = Policy.tabular(vocab, window=5)
    body = (2, 3)
    pol.register([(problem.prompt_tokens, body)])
    item = PpoItem(problem.prompt_tokens, body, True, np.full(3, -1.0), np.zeros(3))
    tape = GradTape()
    theta = tape.input(pol.params)
    assert ppo_surrogate_var(pol, theta, [item], clip=0.2).value == 0.0


def test_ppo_surrogate_matches_clipped_oracle():
    cfg, vocab, problem = tiny_setup()
    pol = Policy.tabular(vocab, window=5)
    body = (2, 3)
    pol.register([(problem.prompt_tokens, body)])
    pol.params = np.random.default_rng(4).normal(0, 0.5, size=pol.params.size)
    lp_tok, lp_stop = generation_log_probs(pol, problem.prompt_tokens, body)
    lp = np.concatenate([lp_tok, [lp_stop[len(body)]]])
    # ratios 2, 1/2, 1 against clip 0.2
    old = lp - np.array([np.log(2.0), -np.log(2.0), 0.0])
    adv = np.array([1.0, 1.0, -1.0])
    ratios = np.exp(lp - old)
    want = -np.mean(np.minimum(ratios * adv, np.clip(ratios, 0.8, 1.2) * adv))
    item = PpoItem(problem.prompt_tokens, body, True, old, adv)
    tape = GradTape()
    theta = tape.input(pol.params)
    got = ppo_surrogate_var(pol, theta, [item], clip=0.2).value
    assert got == pytest.approx(want, rel=1e-12)


def test_rft_training_concentrates_on_best_samples():
    cfg, vocab, problem = tiny_setup()
    ds = TrainSet.build([problem], cfg, vocab)
    pol = Policy.tabular(vocab, window=5)
    before = solution_mass(pol, problem, cfg, vocab)
    rcfg = RftConfig(k=32, epochs=40, lr=0.1, batch_size=None,
                     decode=DecodeCfg(temperature=1.0, top_p=1.0), seed=1)
    rft_train(pol, ds, rcfg)
    after = solution_mass(pol, problem, cfg, vocab)
    assert before < 0.1
    assert after > 0.8


def test_dpo_training_shifts_mass_toward_chosen():
    cfg, vocab, problem = tiny_setup()
    ds = TrainSet.build([problem], cfg, vocab)
    pol = Policy.tabular(vocab, window=5)
    sft_train(pol, ds, epochs=40, cfg=SftConfig(epochs=40, lr=0.05, seed=0))
    ref = pol.clone()
    before = solution_mass(pol, problem, cfg, vocab)
    dcfg = DpoConfig(beta=0.5, samples_per_problem=16, epochs=30, lr=0.05,
                     decode=DecodeCfg(temperature=1.0, top_p=1.0), seed=0)
    dpo_train(pol, ref, ds, dcfg)
    after = solution_mass(pol, problem, cfg, vocab)
    assert after > before + 0.1


def test_ppo_training_climbs_reward():
    cfg, vocab, problem = tiny_setup()
    ds = TrainSet.build([problem], cfg, vocab)
    pol = Policy.tabular(vocab, window=5)
    critic = ValueNet.for_policy(pol)
    pcfg = PpoConfig(steps=150, trajs_per_step=8, actor_lr=0.05, critic_lr=0.1,
                     kl_beta=0.01, decode=DecodeCfg(temperature=1.0, top_p=1.0), seed=0)
    report = ppo_train(pol, critic, ds, pcfg)
    rewards = [r["mean_terminal_reward"] for r in report.rows]
    assert len(rewards) == 150
    assert np.mean(rewards[-10:]) > np.mean(rewards[:10]) + 0.5
    assert solution_mass(pol, problem, cfg, vocab) > 0.9


def test_ppo_config_validates_ranges():
    with pytest.raises(ValueError):
        PpoConfig(clip=0.0)
    with pytest.raises(ValueError):
        PpoConfig(gamma=1.5)
    with pytest.raises(ValueError):
        PpoConfig(gae_lambda=-0.1)
