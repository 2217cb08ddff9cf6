from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from flowseq import autodiff as ad
from flowseq import baselines, gflownet
from flowseq.autodiff import GradTape
from flowseq.baselines import (
    DpoConfig,
    EmptyDataset,
    LengthMismatch,
    PpoConfig,
    PreferencePair,
    RftConfig,
    SftConfig,
    _pair_items,
    build_preference_pairs,
    dpo_mean_loss_var,
    dpo_train,
    gae_advantages,
    ppo_surrogate_var,
    ppo_train,
    rft_train,
    sft_train,
)
from flowseq.core import Problem, TaskKind, Trajectory, make_vocab
from flowseq.env import RewardMode, TaskConfig, build_vocab, enumerate_terminals, make_problem, reward
from flowseq.gflownet import Fitter, TrainSet
from flowseq.policy import (
    DecodeCfg,
    Policy,
    ValueNet,
    _sample_with_rng,
    _trajectory,
    batched_generation_log_vars,
    generation_log_probs,
    pad_rows,
    sequence_log_prob_vars,
    terminal_distribution,
    trajectory_body,
)
from test_lockstep import trajectory_item


def tiny_setup():
    """31-terminal SUMPATH space with known solutions '2' and '1 1'."""
    cfg = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 3), max_parts=2,
                     max_part=2, reward_mode=RewardMode.TERMINAL)
    vocab = build_vocab(cfg)
    problem = make_problem(cfg, seed=1)
    return cfg, vocab, problem


def solution_mass(pol, problem, cfg, vocab) -> float:
    # rewards and probabilities share one terminal order, so a solution's mass sits at its reward's position
    rewards = enumerate_terminals(problem, cfg, vocab).tolist()
    probs = terminal_distribution(pol, problem).probs.tolist()
    return sum(p for p, r in zip(probs, rewards, strict=True) if r > 0.5)


def minibatch_ref_margins(ref_policy: Policy, pairs: list[PreferencePair]) -> np.ndarray:
    """The reference margins as dpo_mean_loss_var computed them in every minibatch before the pairs stored them.

    One forward of the reference's parameter array over the minibatch's chosen, then rejected, bodies; a row's
    tokens summed alone, then its stop where it stopped.
    """
    items = [(p.prompt, p.chosen) for p in pairs] + [(p.prompt, p.rejected) for p in pairs]
    stopped = [p.chosen_stopped for p in pairs] + [p.rejected_stopped for p in pairs]
    ref_tok, ref_stop, lengths = batched_generation_log_vars(ref_policy, ref_policy.params, items)
    ref = [float(tok[:k].sum()) + (float(stop[k]) if s else 0.0)
           for tok, stop, k, s in zip(ref_tok, ref_stop, lengths, stopped)]
    n = len(pairs)
    return np.subtract(ref[:n], ref[n:])


def dpo_loss(pol: Policy, theta, pairs: list[PreferencePair], beta: float):
    """dpo_mean_loss_var read off one forward of pol over the pairs' chosen, then rejected, bodies."""
    return dpo_mean_loss_var(batched_generation_log_vars(pol, theta, _pair_items(pairs)), pairs, beta)


def with_ref_margins(ref_policy: Policy, pairs: list[PreferencePair]) -> list[PreferencePair]:
    """pairs, each with the margin ref_policy gives it when they form one minibatch."""
    return [replace(p, ref_margin=float(m)) for p, m in zip(pairs, minibatch_ref_margins(ref_policy, pairs))]


def one_step_pair():
    """Chosen generates one token then stops; rejected stops immediately. The pair's margin is 0 until scored."""
    vocab = make_vocab(["g"])
    problem = Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(0,),
                      target=1, operands=(1,), max_solution_len=1)
    pair = PreferencePair(prompt=(0,), chosen=(0,), rejected=(), chosen_stopped=True, rejected_stopped=True,
                          ref_margin=0.0)
    pol = Policy.tabular(vocab, window=2)
    pol.register_prefixes([((0,), (0,))])
    return vocab, problem, pair, pol


def test_rft_keeps_the_earliest_of_the_best_draws(monkeypatch):
    # draw d of the run gets the body (d,), and rewards with ties: RFT must keep each problem's first best draw
    cfg, vocab, problem = tiny_setup()
    rng = np.random.default_rng(0)
    table = [rng.integers(0, 4, size=8).astype(float).tolist() for _ in range(20)]
    assert sum(r.count(max(r)) > 1 for r in table) == 17  # most problems tie at the top
    rewards, drawn = iter(table), []

    def numbered_draw(policy, problem, decode, rng, memo):
        drawn.append(None)
        return Trajectory(prompt_len=problem.prompt_len, tokens=problem.prompt_tokens + (len(drawn) - 1,),
                          terminated=False)
    kept = []
    monkeypatch.setattr(baselines, "_sample_with_rng", numbered_draw)
    monkeypatch.setattr(baselines, "_rewards", lambda dataset, problem, bodies: next(rewards))
    monkeypatch.setattr(baselines, "_fit", lambda policy, data, *args: kept.extend(data))
    rft_train(Policy.tabular(vocab, window=5), TrainSet.build([problem] * 20, cfg, vocab), RftConfig(k=8))
    want = [max(range(8), key=lambda i: (r[i], -i)) for r in table]
    assert kept == [(problem.prompt_tokens, (8 * p + i,)) for p, i in enumerate(want)]


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
    pairs = with_ref_margins(ref, [pair])
    assert pairs[0].ref_margin != 0.0
    loss = ad.loss_value(lambda th: dpo_loss(pol, th, pairs, beta=0.7), pol.params)
    assert loss == pytest.approx(np.log(2.0), rel=1e-12)


def test_dpo_loss_follows_margin():
    vocab, problem, pair, pol = one_step_pair()
    ref = pol.clone()
    pol.register_prefixes([((0,), ())])
    row = pol.contexts[pol.context_of((0,))]
    up = pol.clone()
    up.params = pol.params.copy()
    up.params[row * 2] += 1.0  # favor the chosen continuation token
    down = pol.clone()
    down.params = pol.params.copy()
    down.params[row * 2] -= 1.0
    pairs = with_ref_margins(ref, [pair])
    assert ad.loss_value(lambda th: dpo_loss(up, th, pairs, beta=0.7), up.params) < np.log(2.0)
    assert ad.loss_value(lambda th: dpo_loss(down, th, pairs, beta=0.7), down.params) > np.log(2.0)


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


def test_gae_on_a_padded_batch_equals_the_per_row_calls_bit_for_bit():
    rng = np.random.default_rng(5)
    # rows of 4, 0, 2 and 3 rewards: stopped rows bootstrap from 0 one slot past their stop symbol,
    # cut rows from the value at their cut; slots past a row's rewards hold noise
    lengths = np.array([4, 0, 2, 3])
    rewards = rng.normal(size=(4, 5))
    values = rng.normal(size=(4, 6))
    values[0, 4] = values[2, 2] = 0.0
    got = gae_advantages(rewards, values, gamma=0.9, lam=0.95, lengths=lengths)
    for b, n in enumerate(lengths):
        want = np.zeros(5)
        want[:n] = gae_advantages(rewards[b, :n], values[b, : n + 1], gamma=0.9, lam=0.95)
        assert got[b].tobytes() == want.tobytes()


def test_gae_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        gae_advantages(np.zeros(3), np.zeros(3), gamma=1.0, lam=1.0)


def test_ppo_surrogate_zero_advantages():
    cfg, vocab, problem = tiny_setup()
    pol = Policy.tabular(vocab, window=5)
    body = (2, 3)
    pol.register_prefixes([(problem.prompt_tokens, body)])
    tape = GradTape()
    theta = tape.input(pol.params)
    forward = batched_generation_log_vars(pol, theta, [(problem.prompt_tokens, body)])
    assert ppo_surrogate_var(forward, np.array([True]), np.full((1, 3), -1.0), np.zeros((1, 3)), clip=0.2).value == 0.0


def test_ppo_surrogate_matches_clipped_oracle():
    cfg, vocab, problem = tiny_setup()
    pol = Policy.tabular(vocab, window=5)
    body = (2, 3)
    pol.register_prefixes([(problem.prompt_tokens, body)])
    pol.params = np.random.default_rng(4).normal(0, 0.5, size=pol.params.size)
    lp_tok, lp_stop = generation_log_probs(pol, problem.prompt_tokens, body)
    lp = np.concatenate([lp_tok, [lp_stop[len(body)]]])
    # ratios 2, 1/2, 1 against clip 0.2
    old = lp - np.array([np.log(2.0), -np.log(2.0), 0.0])
    adv = np.array([1.0, 1.0, -1.0])
    ratios = np.exp(lp - old)
    want = -np.mean(np.minimum(ratios * adv, np.clip(ratios, 0.8, 1.2) * adv))
    tape = GradTape()
    theta = tape.input(pol.params)
    forward = batched_generation_log_vars(pol, theta, [(problem.prompt_tokens, body)])
    got = ppo_surrogate_var(forward, np.array([True]), old[None], adv[None], clip=0.2).value
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


# Oracles: the reference scorers PPO and DPO used before they scored a step or a
# minibatch with one batched forward, one generation_log_probs call per trajectory.

def logprob_oracle(policy: Policy, traj: Trajectory) -> np.ndarray:
    """Log-probability of each generated token of traj, its stop symbol included."""
    body = trajectory_body(traj)
    lp_tok, lp_stop = generation_log_probs(policy, traj.tokens[: traj.prompt_len], body)
    return np.concatenate([lp_tok, [lp_stop[len(body)]]]) if traj.terminated else lp_tok


def pair_logprob_oracle(policy: Policy, prompt: tuple[int, ...], body: tuple[int, ...], stopped: bool) -> float:
    lp_tok, lp_stop = generation_log_probs(policy, prompt, body)
    return float(lp_tok.sum()) + (float(lp_stop[len(body)]) if stopped else 0.0)


def dpo_mean_loss_oracle(policy, theta, ref_policy, pairs, beta):
    """The DPO loss with each pair's reference margin scored alone, one generation_log_probs call per body."""
    items = [(p.prompt, p.chosen) for p in pairs] + [(p.prompt, p.rejected) for p in pairs]
    lp = batched_generation_log_vars(policy, theta, items)
    seq = sequence_log_prob_vars(*lp, np.asarray([p.chosen_stopped for p in pairs] +
                                                 [p.rejected_stopped for p in pairs]))
    n = len(pairs)
    margin_ref = np.asarray([[pair_logprob_oracle(ref_policy, p.prompt, p.chosen, p.chosen_stopped)
                              - pair_logprob_oracle(ref_policy, p.prompt, p.rejected, p.rejected_stopped)]
                             for p in pairs])
    margin = theta.tape.const(np.hstack([np.eye(n), -np.eye(n)])) @ seq - margin_ref
    return ad.vsum(ad.softplus(-(margin * beta))) / float(n)


def ppo_train_oracle(policy: Policy, critic: ValueNet, dataset: TrainSet, cfg: PpoConfig) -> list[Trajectory]:
    """ppo_train's update loop one trajectory at a time: each draw alone from its own (seed, step, index)
    generator, a forward each for its old and reference log-probabilities, and one critic.windows /
    critic.forward pair for its values. Returns every draw, in order."""
    ref_policy = policy.clone()
    rng = np.random.default_rng(cfg.seed)
    actor_fit = Fitter(policy, cfg.actor_lr)
    critic_fit = Fitter(critic, cfg.critic_lr)
    drawn = []
    for step in range(1, cfg.steps + 1):
        problem = dataset.problems[int(rng.integers(0, len(dataset.problems)))]
        trajs = [_sample_with_rng(policy, problem, cfg.decode, np.random.default_rng([cfg.seed, step, d]))
                 for d in range(cfg.trajs_per_step)]
        drawn += trajs
        items, olds, advs, value_rows, value_targets = [], [], [], [], []
        for traj in trajs:
            prompt, body = trajectory_item(traj)
            old_lp = logprob_oracle(policy, traj)
            token_rewards = -cfg.kl_beta * (old_lp - logprob_oracle(ref_policy, traj))
            if traj.terminated:
                token_rewards[-1] += reward(problem, prompt + body, dataset.task, dataset.vocab)
            ctx = critic.windows([(prompt, body)])
            states = critic.forward(critic.params, ctx)
            values = np.concatenate([states, [0.0]]) if traj.terminated else states
            adv = gae_advantages(token_rewards, values, cfg.gamma, cfg.gae_lambda)
            items.append((prompt, body))
            olds.append(old_lp)
            advs.append(adv)
            value_rows.append(ctx if traj.terminated else ctx[: old_lp.size])
            value_targets.append(adv + values[:-1])
        theta, _ = actor_fit.theta(items)  # the oracle's forward looks up its own rows
        forward = batched_generation_log_vars(policy, theta, items)
        width = forward[1].value.shape[1]
        stopped = np.array([t.terminated for t in trajs])
        actor_fit.step(ppo_surrogate_var(forward, stopped, pad_rows(olds, width), pad_rows(advs, width), cfg.clip),
                       theta)
        ctheta, _ = critic_fit.theta(items)
        all_targets = np.concatenate(value_targets)
        resid = critic.forward(ctheta, np.concatenate(value_rows, axis=0)) - ctheta.tape.const(all_targets)
        critic_fit.step(ad.vsum(ad.square(resid)) / float(all_targets.size), ctheta)
    return drawn


def recorded_draws(monkeypatch) -> list[Trajectory]:
    """Every draw ppo_train makes, in order, recorded where baselines walks it."""
    drawn, walk = [], baselines._walk_draws

    def recorded(policy, rows, cfg, *args, **kwargs):
        bodies = walk(policy, rows, cfg, *args, **kwargs)
        drawn.extend(_trajectory(policy, problem, cfg, body) for (problem, _), row in zip(rows, bodies) for body in row)
        return bodies
    monkeypatch.setattr(baselines, "_walk_draws", recorded)
    return drawn


def mixed_pairs(problem: Problem, stop: int, rng: np.random.Generator, n: int = 6) -> list[PreferencePair]:
    """Pairs of random bodies, stopped and cut draws mixed on both sides; their margins are 0 until scored."""
    def body(stopped: bool) -> tuple[int, ...]:
        return tuple(int(t) for t in rng.integers(0, stop, size=int(rng.integers(0 if stopped else 1, 4))))
    return [PreferencePair(problem.prompt_tokens, body(i % 2 == 0), body(i % 3 == 0), i % 2 == 0, i % 3 == 0, 0.0)
            for i in range(n)]


def dpo_pair_case(neural: bool):
    """A policy, its reference, and mixed pairs carrying the reference's margins."""
    cfg, vocab, problem = tiny_setup()
    rng = np.random.default_rng(11)
    pairs = mixed_pairs(problem, vocab.stop_id, rng)
    items = [(p.prompt, body) for p in pairs for body in (p.chosen, p.rejected)]
    if neural:
        pol = Policy.neural(vocab, window=3, embed_dim=4, hidden_dim=8, seed=1)
        ref = Policy.neural(vocab, window=3, embed_dim=4, hidden_dim=8, seed=2)
        return pol, ref, with_ref_margins(ref, pairs)
    ref = Policy.tabular(vocab, window=2)
    ref.register_prefixes(items[::3])  # the reference reads some contexts as unregistered zero rows
    ref.params = rng.normal(0.0, 1.0, size=ref.params.size)
    pol = ref.clone()
    pol.register_prefixes(items)
    pol.params = rng.normal(0.0, 1.0, size=pol.params.size)
    return pol, ref, with_ref_margins(ref, pairs)


def test_dpo_reference_margins_equal_the_per_pair_oracle_bit_for_bit_on_a_tabular_policy():
    pol, ref, pairs = dpo_pair_case(neural=False)
    assert {p.chosen_stopped for p in pairs} == {p.rejected_stopped for p in pairs} == {True, False}
    got = lambda th: dpo_loss(pol, th, pairs, 0.3)  # noqa: E731
    want = lambda th: dpo_mean_loss_oracle(pol, th, ref, pairs, 0.3)  # noqa: E731
    assert ad.loss_value(got, pol.params) == ad.loss_value(want, pol.params)
    assert ad.grad(got, pol.params).tobytes() == ad.grad(want, pol.params).tobytes()


def test_dpo_reference_margins_match_the_per_pair_oracle_on_a_neural_policy():
    pol, ref, pairs = dpo_pair_case(neural=True)
    got = lambda th: dpo_loss(pol, th, pairs, 0.3)  # noqa: E731
    want = lambda th: dpo_mean_loss_oracle(pol, th, ref, pairs, 0.3)  # noqa: E731
    assert ad.loss_value(got, pol.params) == pytest.approx(ad.loss_value(want, pol.params), rel=1e-12, abs=0.0)
    g, w = ad.grad(got, pol.params), ad.grad(want, pol.params)
    assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def ppo_oracle_case(neural: bool):
    """A start policy, a dataset and PPO settings whose short budget leaves some draws unterminated."""
    if neural:
        cfg = TaskConfig(task_kind=TaskKind.ARITH, value_range=(2, 12), max_parts=2)
        vocab = build_vocab(cfg)
        ds = TrainSet.build([make_problem(cfg, seed=s) for s in range(4)], cfg, vocab)
        start = Policy.neural(vocab, window=10, embed_dim=16, hidden_dim=64, seed=0)
        decode = DecodeCfg(temperature=1.0, top_p=1.0, max_new_tokens=6)
    else:
        cfg = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 3), max_parts=2,
                         max_part=2, reward_mode=RewardMode.TERMINAL)
        vocab = build_vocab(cfg)
        ds = TrainSet.build([make_problem(cfg, seed=s) for s in (1, 2)], cfg, vocab)
        start = Policy.tabular(vocab, window=3)
        decode = DecodeCfg(temperature=1.0, top_p=1.0, max_new_tokens=2)
    sft_train(start, ds, cfg=SftConfig(epochs=5, lr=0.05))
    pcfg = PpoConfig(steps=6, trajs_per_step=8, actor_lr=0.05, critic_lr=0.1, kl_beta=0.5, decode=decode, seed=3)
    return start, ds, pcfg


def test_ppo_with_a_batched_reference_ends_where_the_per_trajectory_loop_does(monkeypatch):
    start, ds, pcfg = ppo_oracle_case(neural=False)
    pol, critic = start.clone(), ValueNet.for_policy(start)
    want_pol, want_critic = start.clone(), ValueNet.for_policy(start)
    got_draws = recorded_draws(monkeypatch)
    ppo_train(pol, critic, ds, pcfg)
    want_draws = ppo_train_oracle(want_pol, want_critic, ds, pcfg)
    assert got_draws == want_draws
    assert {t.terminated for t in got_draws} == {True, False}
    assert pol.contexts == want_pol.contexts and critic.contexts == want_critic.contexts
    assert pol.params.tobytes() == want_pol.params.tobytes()
    assert critic.params.tobytes() == want_critic.params.tobytes()
    assert not np.array_equal(pol.params, start.params)


def test_ppo_draws_the_per_draw_oracle_tokens_on_a_neural_policy(monkeypatch):
    # a one-row forward may differ from a batched one in the last bit (ROADMAP item 15), so the
    # parameters are compared to a tolerance; every draw's tokens must still be the oracle's
    start, ds, pcfg = ppo_oracle_case(neural=True)
    pol, want_pol = start.clone(), start.clone()
    got_draws = recorded_draws(monkeypatch)
    ppo_train(pol, ValueNet.for_policy(start), ds, pcfg)
    want_draws = ppo_train_oracle(want_pol, ValueNet.for_policy(start), ds, pcfg)
    assert [t.tokens for t in got_draws] == [t.tokens for t in want_draws]
    assert {t.terminated for t in got_draws} == {True, False}
    np.testing.assert_allclose(pol.params, want_pol.params, rtol=0.0, atol=1e-9)
    assert not np.array_equal(pol.params, start.params)


def test_a_ppo_step_draws_its_samples_as_the_rows_of_one_walk(monkeypatch):
    walks = []
    walk = baselines._walk_draws

    def counted_walk(policy, rows, cfg, *args, **kwargs):
        walks.append((len(rows), len({id(rng) for _, rng in rows}), args, kwargs))
        return walk(policy, rows, cfg, *args, **kwargs)

    def no_sample(*args, **kwargs):
        raise AssertionError("a PPO step drew through _sample_with_rng")
    monkeypatch.setattr(baselines, "_walk_draws", counted_walk)
    monkeypatch.setattr(baselines, "_sample_with_rng", no_sample)
    cfg, vocab, problem = tiny_setup()
    ds = TrainSet.build([problem, make_problem(cfg, seed=2)], cfg, vocab)
    pol = Policy.tabular(vocab, window=5)
    ppo_train(pol, ValueNet.for_policy(pol), ds, PpoConfig(steps=4, trajs_per_step=5))
    # one draw per row, each row with a generator of its own
    assert walks == [(5, 5, (), {})] * 4


def test_a_ppo_step_scores_its_draws_once_per_model_and_dpo_its_reference_once_per_call(monkeypatch):
    array_calls = []
    inner = baselines.batched_generation_log_vars

    def counted(policy, theta, items, *lookup):
        if isinstance(theta, np.ndarray):
            array_calls.append(len(items))
        return inner(policy, theta, items, *lookup)
    monkeypatch.setattr(baselines, "batched_generation_log_vars", counted)
    cfg, vocab, problem = tiny_setup()
    ds = TrainSet.build([problem, make_problem(cfg, seed=2), make_problem(cfg, seed=3)], cfg, vocab)
    pol = Policy.tabular(vocab, window=5)
    sft_train(pol, ds, cfg=SftConfig(epochs=10, lr=0.05))
    critic, critic_calls = ValueNet.for_policy(pol), []
    critic_forward = critic.forward

    def counted_critic(theta, ctx, *rows):
        if isinstance(theta, np.ndarray):
            critic_calls.append(len(ctx))
        return critic_forward(theta, ctx, *rows)
    critic.forward = counted_critic
    ppo_train(pol.clone(), critic, ds, PpoConfig(steps=3, trajs_per_step=4))
    # per step: the reference's log-probabilities over the step's 4 draws; the policy's old ones
    # are read off the surrogate's tape forward, which Fitter.forward runs through gflownet's binding
    assert array_calls == [4] * 3
    assert len(critic_calls) == 3
    array_calls.clear()
    report = dpo_train(pol.clone(), pol, ds, DpoConfig(samples_per_problem=8, epochs=2, batch_size=2,
                                                      decode=DecodeCfg(temperature=1.0, top_p=1.0)))
    # the reference's margins are scored when the pairs are built, not in each of the minibatches
    assert len(report.rows) >= 2 and len(array_calls) == 1


def test_ppo_old_log_probs_equal_the_surrogate_forward_bit_for_bit_on_a_neural_policy(monkeypatch):
    # every ratio is then exactly 1 at the parameters the step drew with
    tape_forwards, surrogate_args = [], []
    forward, surrogate = gflownet.batched_generation_log_vars, baselines.ppo_surrogate_var

    def recorded_forward(policy, theta, items, *lookup):
        out = forward(policy, theta, items, *lookup)
        if not isinstance(theta, np.ndarray):
            tape_forwards.append((out[0].value, out[1].value, out[2]))
        return out

    def recorded_surrogate(forward, stopped, old, adv, clip):
        assert forward[2] is tape_forwards[-1][2]
        surrogate_args.append((stopped, old))
        return surrogate(forward, stopped, old, adv, clip)
    # the step's tape forward is Fitter.forward's, made through gflownet's binding
    monkeypatch.setattr(gflownet, "batched_generation_log_vars", recorded_forward)
    monkeypatch.setattr(baselines, "ppo_surrogate_var", recorded_surrogate)
    cfg = TaskConfig(task_kind=TaskKind.ARITH, value_range=(2, 12), max_parts=2)
    vocab = build_vocab(cfg)
    ds = TrainSet.build([make_problem(cfg, seed=s) for s in range(4)], cfg, vocab)
    pol = Policy.neural(vocab, window=10, embed_dim=16, hidden_dim=64, seed=0)
    # a short budget cuts some draws, so unterminated rows are checked too
    ppo_train(pol, ValueNet.for_policy(pol), ds, PpoConfig(
        steps=6, trajs_per_step=8, decode=DecodeCfg(temperature=1.0, top_p=1.0, max_new_tokens=6)))
    assert len(tape_forwards) == len(surrogate_args) == 6
    checked = set()
    for (lp_tok, lp_stop, lengths), (stopped, old) in zip(tape_forwards, surrogate_args):
        # each row's generated tokens, then zeros to the forward's width
        want = pad_rows([np.append(tok[:n], stop[n]) if s else tok[:n]
                         for tok, stop, n, s in zip(lp_tok, lp_stop, lengths, stopped)], lp_stop.shape[1])
        assert old.tobytes() == want.tobytes()
        assert stopped.tolist() == (lengths < 6).tolist()  # a draw stopped unless cut at its 6-token budget
        checked.update(stopped.tolist())
    assert checked == {True, False}


def test_dpo_without_preference_pairs_leaves_the_policy_untouched():
    # an SFT-peaked policy decoded almost greedily draws one body over and over
    cfg, vocab, problem = tiny_setup()
    ds = TrainSet.build([problem], cfg, vocab)
    pol = Policy.tabular(vocab, window=5)
    sft_train(pol, ds, cfg=SftConfig(epochs=40, lr=0.05))
    dcfg = DpoConfig(samples_per_problem=8, decode=DecodeCfg(temperature=0.05, top_p=0.5))
    assert build_preference_pairs(pol, ds, dcfg, np.random.default_rng(dcfg.seed)) == []
    trained = pol.clone()
    params, contexts = trained.params.tobytes(), dict(trained.contexts)
    report = dpo_train(trained, pol, ds, dcfg)
    assert report.rows == []
    assert report.loss_column == "mean_dpo_loss"
    assert trained.params.tobytes() == params
    assert trained.contexts == contexts


def test_dpo_scores_its_frozen_reference_once_per_call_and_never_in_the_loss(monkeypatch):
    # array forwards of the reference outside its own sampling, counted as count_array_forwards counts them,
    # and those made in each step's forward and in its loss
    ref_forwards, in_step, sampling = [], [], []
    forward, sample = Policy.forward, baselines._sample_with_rng

    def counted(self, theta, ctx_mat, *rows):
        if self is ref and isinstance(theta, np.ndarray) and not sampling:
            ref_forwards.append(len(ctx_mat))
        return forward(self, theta, ctx_mat, *rows)

    def flagged_sample(*args, **kwargs):
        sampling.append(True)
        try:
            return sample(*args, **kwargs)
        finally:
            sampling.pop()

    def counted_in(inner):
        def wrapped(*args, **kwargs):
            before = len(ref_forwards)
            out = inner(*args, **kwargs)
            in_step.append(len(ref_forwards) - before)
            return out
        return wrapped
    monkeypatch.setattr(Policy, "forward", counted)
    monkeypatch.setattr(baselines, "_sample_with_rng", flagged_sample)
    monkeypatch.setattr(Fitter, "forward", counted_in(Fitter.forward))
    monkeypatch.setattr(baselines, "dpo_mean_loss_var", counted_in(baselines.dpo_mean_loss_var))
    cfg, vocab, problem = tiny_setup()
    ds = TrainSet.build([problem, make_problem(cfg, seed=2), make_problem(cfg, seed=3)], cfg, vocab)
    ref = Policy.tabular(vocab, window=5)
    sft_train(ref, ds, cfg=SftConfig(epochs=10, lr=0.05))
    in_step.clear()  # the warm start's steps
    dcfg = DpoConfig(samples_per_problem=8, epochs=3, batch_size=1, decode=DecodeCfg(temperature=1.0, top_p=1.0))
    for _ in range(2):
        report = dpo_train(ref.clone(), ref, ds, dcfg)
        assert len(ref_forwards) == 1 and 2 * len(report.rows) == len(in_step) >= 6
        assert set(in_step) == {0}
        ref_forwards.clear(), in_step.clear()


def margin_case(neural: bool) -> tuple[Policy, TrainSet, DpoConfig]:
    """A warm-started reference whose hot, short draws pair bodies of many lengths, stopped and cut on both sides."""
    cfg = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 4), max_parts=3, max_part=2,
                     reward_mode=RewardMode.TERMINAL)
    vocab = build_vocab(cfg)
    ds = TrainSet.build([make_problem(cfg, seed=s) for s in range(12)], cfg, vocab)
    if neural:
        ref = Policy.neural(vocab, window=3, embed_dim=4, hidden_dim=8, seed=1)
        sft_train(ref, ds, cfg=SftConfig(epochs=20, lr=0.05))
    else:
        # the table has rows for the references' contexts and reads zero rows for the rest
        ref = Policy.tabular(vocab, window=3)
        sft_train(ref, ds, cfg=SftConfig(epochs=20, lr=0.1))
    return ref, ds, DpoConfig(samples_per_problem=8, decode=DecodeCfg(temperature=1.5, top_p=1.0, max_new_tokens=3))


@pytest.mark.parametrize("neural", [False, True])
def test_stored_reference_margins_equal_the_per_minibatch_computation_bit_for_bit(neural):
    ref, ds, dcfg = margin_case(neural)
    pairs = build_preference_pairs(ref, ds, dcfg, np.random.default_rng(0))
    assert len(pairs) >= 5
    assert {p.chosen_stopped for p in pairs} == {p.rejected_stopped for p in pairs} == {True, False}
    assert len({len(p.chosen) for p in pairs} | {len(p.rejected) for p in pairs}) >= 3
    stored = np.array([p.ref_margin for p in pairs])
    rng = np.random.default_rng(1)
    for size in (1, 2, 3, len(pairs)):
        for _ in range(3):
            order = rng.permutation(len(pairs))
            for a in range(0, len(order), size):
                batch = order[a : a + size]
                got = minibatch_ref_margins(ref, [pairs[int(i)] for i in batch])
                assert got.tobytes() == stored[batch].tobytes()
