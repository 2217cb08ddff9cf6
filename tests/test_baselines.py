from __future__ import annotations

import numpy as np
import pytest

from flowseq import autodiff as ad
from flowseq import baselines
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
    _draw_scored,
    build_preference_pairs,
    dpo_mean_loss_var,
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
from flowseq.gflownet import Fitter, TrainSet, items_of
from flowseq.policy import (
    DecodeCfg,
    Policy,
    ValueNet,
    batched_generation_log_vars,
    generation_log_probs,
    sequence_log_prob_vars,
    terminal_distribution,
    trajectory_body,
    trajectory_item,
)


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


def one_step_pair():
    """Chosen generates one token then stops; rejected stops immediately."""
    vocab = make_vocab(["g"])
    problem = Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(0,),
                      target=1, operands=(1,), max_solution_len=1)
    chosen = Trajectory(prompt_len=1, tokens=(0, 0, 1), terminated=True)
    rejected = Trajectory(prompt_len=1, tokens=(0, 1), terminated=True)
    pair = PreferencePair(problem_id=0, chosen=chosen, rejected=rejected,
                          chosen_reward=1.0, rejected_reward=0.5)
    pol = Policy.tabular(vocab, window=2)
    pol.register([((0,), (0,))])
    return vocab, problem, pair, pol


def test_preference_pair_orders_rewards():
    t = Trajectory(prompt_len=1, tokens=(0, 1), terminated=True)
    with pytest.raises(ValueError):
        PreferencePair(problem_id=0, chosen=t, rejected=t, chosen_reward=0.1, rejected_reward=0.9)


def test_preference_pair_requires_shared_prompt():
    a = Trajectory(prompt_len=1, tokens=(0, 1), terminated=True)
    b = Trajectory(prompt_len=1, tokens=(1, 1), terminated=True)
    with pytest.raises(ValueError):
        PreferencePair(problem_id=0, chosen=a, rejected=b, chosen_reward=1.0, rejected_reward=0.5)


def test_rft_select_matches_argmax_oracle():
    rng = np.random.default_rng(0)
    samples = [Trajectory(prompt_len=1, tokens=(0, 1), terminated=True) for _ in range(8)]
    for _ in range(20):
        rewards = list(rng.integers(0, 4, size=8).astype(float))
        want = max(range(8), key=lambda i: (rewards[i], -i))
        assert rft_select(samples, rewards) is samples[want]


def test_rft_select_rejects_length_mismatch():
    t = Trajectory(prompt_len=1, tokens=(0, 1), terminated=True)
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
    loss = ad.loss_value(lambda th: dpo_mean_loss_var(pol, th, ref, [pair], beta=0.7), pol.params)
    assert loss == pytest.approx(np.log(2.0), rel=1e-12)


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
    assert ad.loss_value(lambda th: dpo_mean_loss_var(up, th, ref, [pair], beta=0.7), up.params) < np.log(2.0)
    assert ad.loss_value(lambda th: dpo_mean_loss_var(down, th, ref, [pair], beta=0.7), down.params) > np.log(2.0)


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


# Oracles: the reference scorers PPO and DPO used before they scored a step or a
# minibatch with one batched forward, one generation_log_probs call per trajectory.

def logprob_oracle(policy: Policy, traj: Trajectory) -> np.ndarray:
    """Log-probability of each generated token of traj, its stop symbol included."""
    body = trajectory_body(traj)
    lp_tok, lp_stop = generation_log_probs(policy, traj.tokens[: traj.prompt_len], body)
    return np.concatenate([lp_tok, [lp_stop[len(body)]]]) if traj.terminated else lp_tok


def pair_logprob_oracle(policy: Policy, traj: Trajectory) -> float:
    body = trajectory_body(traj)
    lp_tok, lp_stop = generation_log_probs(policy, traj.tokens[: traj.prompt_len], body)
    return float(lp_tok.sum()) + (float(lp_stop[len(body)]) if traj.terminated else 0.0)


def dpo_mean_loss_oracle(policy, theta, ref_policy, pairs, beta):
    trajs = [p.chosen for p in pairs] + [p.rejected for p in pairs]
    lp = batched_generation_log_vars(policy, theta, [trajectory_item(t) for t in trajs])
    seq = sequence_log_prob_vars(*lp, np.asarray([t.terminated for t in trajs]))
    n = len(pairs)
    margin_ref = np.asarray([[pair_logprob_oracle(ref_policy, p.chosen) - pair_logprob_oracle(ref_policy, p.rejected)]
                             for p in pairs])
    margin = theta.tape.const(np.hstack([np.eye(n), -np.eye(n)])) @ seq - margin_ref
    return ad.vsum(ad.softplus(-(margin * beta))) / float(n)


def ppo_train_oracle(policy: Policy, critic: ValueNet, dataset: TrainSet, cfg: PpoConfig) -> None:
    """ppo_train's update loop one trajectory at a time: a forward each for its old and reference
    log-probabilities, and one critic.windows / critic.values pair for its values."""
    ref_policy = policy.clone()
    rng = np.random.default_rng(cfg.seed)
    actor_fit = Fitter(policy, cfg.actor_lr)
    critic_fit = Fitter(critic, cfg.critic_lr)
    for _ in range(cfg.steps):
        problem = dataset.problems[int(rng.integers(0, len(dataset.problems)))]
        trajs, env_rewards = _draw_scored(policy, dataset, problem, cfg.decode, cfg.trajs_per_step, rng)
        items, value_rows, value_targets = [], [], []
        for traj, env_r in zip(trajs, env_rewards):
            prompt, body = trajectory_item(traj)
            old_lp = logprob_oracle(policy, traj)
            token_rewards = -cfg.kl_beta * (old_lp - logprob_oracle(ref_policy, traj))
            if traj.terminated:
                token_rewards[-1] += env_r
            ctx = critic.windows([(prompt, body)])
            states = critic.values(ctx)
            values = np.concatenate([states, [0.0]]) if traj.terminated else states
            adv = gae_advantages(token_rewards, values, cfg.gamma, cfg.gae_lambda)
            items.append(PpoItem(prompt, body, traj.terminated, old_lp, adv))
            value_rows.append(ctx if traj.terminated else ctx[: old_lp.size])
            value_targets.append(adv + values[:-1])
        theta = actor_fit.theta(items_of(items))
        actor_fit.step(ppo_surrogate_var(policy, theta, items, cfg.clip), theta)
        ctheta = critic_fit.theta(items_of(items))
        all_targets = np.concatenate(value_targets)
        resid = critic.values_var(ctheta, np.concatenate(value_rows, axis=0)) - ctheta.tape.const(all_targets)
        critic_fit.step(ad.vsum(ad.square(resid)) / float(all_targets.size), ctheta)


def mixed_pairs(problem: Problem, stop: int, rng: np.random.Generator, n: int = 6) -> list[PreferencePair]:
    """Pairs of random bodies, terminated and unterminated draws mixed on both sides."""
    def draw(terminated: bool) -> Trajectory:
        body = tuple(int(t) for t in rng.integers(0, stop, size=int(rng.integers(0 if terminated else 1, 4))))
        gen = body + ((stop,) if terminated else ())
        return Trajectory(prompt_len=problem.prompt_len, tokens=problem.prompt_tokens + gen, terminated=terminated)
    return [PreferencePair(i, draw(i % 2 == 0), draw(i % 3 == 0), 1.0, 0.5) for i in range(n)]


def dpo_pair_case(neural: bool):
    cfg, vocab, problem = tiny_setup()
    rng = np.random.default_rng(11)
    pairs = mixed_pairs(problem, vocab.stop_id, rng)
    items = [trajectory_item(t) for p in pairs for t in (p.chosen, p.rejected)]
    if neural:
        pol = Policy.neural(vocab, window=3, embed_dim=4, hidden_dim=8, seed=1)
        ref = Policy.neural(vocab, window=3, embed_dim=4, hidden_dim=8, seed=2)
        return pol, ref, pairs
    ref = Policy.tabular(vocab, window=2)
    ref.register(items[::3])  # the reference reads some contexts as unregistered zero rows
    ref.params = rng.normal(0.0, 1.0, size=ref.params.size)
    pol = ref.clone()
    pol.register(items)
    pol.params = rng.normal(0.0, 1.0, size=pol.params.size)
    return pol, ref, pairs


def test_dpo_reference_margins_equal_the_per_pair_oracle_bit_for_bit_on_a_tabular_policy():
    pol, ref, pairs = dpo_pair_case(neural=False)
    assert {p.chosen.terminated for p in pairs} == {p.rejected.terminated for p in pairs} == {True, False}
    got = lambda th: dpo_mean_loss_var(pol, th, ref, pairs, 0.3)  # noqa: E731
    want = lambda th: dpo_mean_loss_oracle(pol, th, ref, pairs, 0.3)  # noqa: E731
    assert ad.loss_value(got, pol.params) == ad.loss_value(want, pol.params)
    assert ad.grad(got, pol.params).tobytes() == ad.grad(want, pol.params).tobytes()


def test_dpo_reference_margins_match_the_per_pair_oracle_on_a_neural_policy():
    pol, ref, pairs = dpo_pair_case(neural=True)
    got = lambda th: dpo_mean_loss_var(pol, th, ref, pairs, 0.3)  # noqa: E731
    want = lambda th: dpo_mean_loss_oracle(pol, th, ref, pairs, 0.3)  # noqa: E731
    assert ad.loss_value(got, pol.params) == pytest.approx(ad.loss_value(want, pol.params), rel=1e-12, abs=0.0)
    g, w = ad.grad(got, pol.params), ad.grad(want, pol.params)
    assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def test_ppo_with_a_batched_reference_ends_where_the_per_trajectory_loop_does():
    cfg = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 3), max_parts=2,
                     max_part=2, reward_mode=RewardMode.TERMINAL)
    vocab = build_vocab(cfg)
    ds = TrainSet.build([make_problem(cfg, seed=s) for s in (1, 2)], cfg, vocab)
    start = Policy.tabular(vocab, window=3)
    sft_train(start, ds, cfg=SftConfig(epochs=5, lr=0.05))
    # a two-token budget leaves some draws unterminated
    pcfg = PpoConfig(steps=6, trajs_per_step=8, actor_lr=0.05, critic_lr=0.1, kl_beta=0.5,
                     decode=DecodeCfg(temperature=1.0, top_p=1.0, max_new_tokens=2), seed=3)
    pol, critic = start.clone(), ValueNet.for_policy(start)
    want_pol, want_critic = start.clone(), ValueNet.for_policy(start)
    ppo_train(pol, critic, ds, pcfg)
    ppo_train_oracle(want_pol, want_critic, ds, pcfg)
    assert pol.contexts == want_pol.contexts and critic.contexts == want_critic.contexts
    assert pol.params.tobytes() == want_pol.params.tobytes()
    assert critic.params.tobytes() == want_critic.params.tobytes()
    assert not np.array_equal(pol.params, start.params)


def test_a_ppo_step_scores_its_draws_once_per_model_and_a_dpo_minibatch_its_reference_once(monkeypatch):
    array_calls = []
    inner = baselines.batched_generation_log_vars

    def counted(policy, theta, items):
        if isinstance(theta, np.ndarray):
            array_calls.append(len(items))
        return inner(policy, theta, items)
    monkeypatch.setattr(baselines, "batched_generation_log_vars", counted)
    cfg, vocab, problem = tiny_setup()
    ds = TrainSet.build([problem, make_problem(cfg, seed=2), make_problem(cfg, seed=3)], cfg, vocab)
    pol = Policy.tabular(vocab, window=5)
    sft_train(pol, ds, cfg=SftConfig(epochs=10, lr=0.05))
    critic, critic_calls = ValueNet.for_policy(pol), []
    values = critic.values
    critic.values = lambda ctx: critic_calls.append(len(ctx)) or values(ctx)
    ppo_train(pol.clone(), critic, ds, PpoConfig(steps=3, trajs_per_step=4))
    # per step: the policy's old log-probabilities and the reference's, each over the step's 4 draws
    assert array_calls == [4] * 6
    assert len(critic_calls) == 3
    array_calls.clear()
    report = dpo_train(pol.clone(), pol, ds, DpoConfig(samples_per_problem=8, epochs=2, batch_size=2,
                                                      decode=DecodeCfg(temperature=1.0, top_p=1.0)))
    assert len(report.rows) >= 2 and len(array_calls) == len(report.rows)


def test_ppo_old_log_probs_equal_the_surrogate_forward_bit_for_bit_on_a_neural_policy(monkeypatch):
    # every ratio is then exactly 1 at the parameters the step drew with
    tape_forwards, surrogate_items = [], []
    forward, surrogate = baselines.batched_generation_log_vars, baselines.ppo_surrogate_var

    def recorded_forward(policy, theta, items):
        out = forward(policy, theta, items)
        if not isinstance(theta, np.ndarray):
            tape_forwards.append((out[0].value, out[1].value, out[2]))
        return out

    def recorded_surrogate(policy, theta, items, clip):
        surrogate_items.append(items)
        return surrogate(policy, theta, items, clip)
    monkeypatch.setattr(baselines, "batched_generation_log_vars", recorded_forward)
    monkeypatch.setattr(baselines, "ppo_surrogate_var", recorded_surrogate)
    cfg = TaskConfig(task_kind=TaskKind.ARITH, value_range=(2, 12), max_parts=2)
    vocab = build_vocab(cfg)
    ds = TrainSet.build([make_problem(cfg, seed=s) for s in range(4)], cfg, vocab)
    pol = Policy.neural(vocab, window=10, embed_dim=16, hidden_dim=64, seed=0)
    # a short budget cuts some draws, so unterminated items are checked too
    ppo_train(pol, ValueNet.for_policy(pol), ds, PpoConfig(
        steps=6, trajs_per_step=8, decode=DecodeCfg(temperature=1.0, top_p=1.0, max_new_tokens=6)))
    assert len(tape_forwards) == len(surrogate_items) == 6
    checked = set()
    for (lp_tok, lp_stop, lengths), items in zip(tape_forwards, surrogate_items):
        for tok, stop, n, it in zip(lp_tok, lp_stop, lengths, items):
            want = np.append(tok[:n], stop[n]) if it.terminated else tok[:n]
            assert it.old_logprobs.tobytes() == want.tobytes()
            checked.add(it.terminated)
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
