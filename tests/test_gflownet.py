from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from flowseq.core import Problem, TaskKind, Trajectory, make_vocab
from flowseq.env import RewardMode, TaskConfig, build_vocab, enumerate_terminals, make_problem
from flowseq.gflownet import (
    EmptyBuffer,
    GfnConfig,
    NonPositiveReward,
    ReplayBuffer,
    TrainReport,
    TrainSet,
    buffer_push,
    buffer_sample,
    make_reward_fn,
    prefix_log_rewards,
    sft_loss,
    subtb_loss,
    tb_loss,
    terminal_l1_gap,
    train_gflownet,
)
from flowseq.gflownet import Reference
from flowseq.policy import DecodeCfg, Policy, _sample_with_rng, generation_log_probs, trajectory_body


def brute_subtb(lp_tok: np.ndarray, lp_stop: np.ndarray, log_r: np.ndarray,
                lam: float, swapped: bool = False) -> float:
    """Direct double sum over all 0 <= i < j <= n subtrajectory pairs."""
    n = len(lp_tok)
    s = np.concatenate([[0.0], np.cumsum(lp_tok)])
    d = log_r - s + lp_stop if swapped else log_r - s - lp_stop
    total = 0.0
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            total += lam ** (j - i) * (d[i] - d[j]) ** 2
    return total


def two_token_setup():
    vocab = make_vocab(["g"])
    problem = Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(0,),
                      target=Fraction(1), operands=(1,), max_solution_len=1)
    return vocab, problem


def fitted_policy(vocab, problem, p_tok: float, p_stop_after: float = None):
    """Tabular policy over the two contexts of the one-step space."""
    pol = Policy.tabular(vocab, window=2)
    pol.register([(problem.prompt_tokens, (0,))])
    i0 = pol.contexts[pol.context_of(problem.prompt_tokens)]
    i1 = pol.contexts[pol.context_of(problem.prompt_tokens + (0,))]
    pol.params = np.zeros(pol.params.size)
    pol.params[i0 * 2:(i0 + 1) * 2] = np.log([p_tok, 1.0 - p_tok])
    stop = 1.0 - 1e-12 if p_stop_after is None else p_stop_after
    pol.params[i1 * 2:(i1 + 1) * 2] = np.log([1.0 - stop, stop])
    return pol


def sumpath_setup(mode=RewardMode.TERMINAL):
    cfg = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 4),
                     max_parts=3, max_part=2, reward_mode=mode)
    vocab = build_vocab(cfg)
    problem = make_problem(cfg, seed=0)
    return cfg, vocab, problem


def random_terminated_trajectory(pol, problem, seed: int) -> Trajectory:
    rng = np.random.default_rng(seed)
    for _ in range(200):
        t = _sample_with_rng(pol, problem, DecodeCfg(temperature=1.0, top_p=1.0), rng)
        if t.terminated:
            return t
    raise AssertionError("no terminated sample found")


def test_subtb_matches_brute_force_double_sum():
    cfg, vocab, problem = sumpath_setup()
    pol = Policy.tabular(vocab, window=4)
    rng = np.random.default_rng(3)
    reward_fn = make_reward_fn(problem, cfg, vocab)
    for seed in range(6):
        traj = random_terminated_trajectory(pol, problem, seed)
        body = trajectory_body(traj)
        pol.register([(problem.prompt_tokens, body)])
        pol.params = rng.normal(0, 0.5, size=pol.params.size)
        for lam in (0.5, 1.0, 1.7):
            got = subtb_loss(pol, reward_fn, traj, lam=lam)
            lp_tok, lp_stop = generation_log_probs(pol, problem.prompt_tokens, body)
            log_r = prefix_log_rewards(reward_fn, problem.prompt_tokens, body)
            want = brute_subtb(lp_tok, lp_stop, log_r, lam)
            assert got == pytest.approx(want, rel=1e-12), (seed, lam)


def test_subtb_swapped_placement_matches_its_oracle():
    cfg, vocab, problem = sumpath_setup()
    pol = Policy.tabular(vocab, window=4)
    rng = np.random.default_rng(5)
    reward_fn = make_reward_fn(problem, cfg, vocab)
    traj = random_terminated_trajectory(pol, problem, 1)
    body = trajectory_body(traj)
    pol.register([(problem.prompt_tokens, body)])
    pol.params = rng.normal(0, 0.5, size=pol.params.size)
    got = subtb_loss(pol, reward_fn, traj, lam=1.0, stop_placement="swapped")
    lp_tok, lp_stop = generation_log_probs(pol, problem.prompt_tokens, body)
    log_r = prefix_log_rewards(reward_fn, problem.prompt_tokens, body)
    want = brute_subtb(lp_tok, lp_stop, log_r, 1.0, swapped=True)
    assert got == pytest.approx(want, rel=1e-12)


def test_subtb_flow_consistent_policy_is_zero():
    # rewards {1, 3} over a two-terminal space; the proportional policy
    # zeroes every subtrajectory residual
    vocab, problem = two_token_setup()
    pol = fitted_policy(vocab, problem, p_tok=0.75)  # 3/(1+3)
    rewards = {(): 1.0, (0,): 3.0}
    reward_fn = lambda prefix: rewards[prefix[1:]]
    traj = random_terminated_trajectory(pol, problem, 0)
    loss = subtb_loss(pol, reward_fn, traj, lam=1.0)
    assert loss < 1e-10


def test_subtb_hand_derived_single_step_case():
    # p(tok)=p(stop)=0.5 everywhere, rewards {1, 3}: the only nonzero
    # residual is (log 3)^2 regardless of which terminal the sample hit
    vocab, problem = two_token_setup()
    pol = fitted_policy(vocab, problem, p_tok=0.5, p_stop_after=0.5 + 0.5 * (1 - 1e-12))
    # exact hand case wants p(stop | after tok) ~ 1; build directly instead
    pol = fitted_policy(vocab, problem, p_tok=0.5)
    rewards = {(): 1.0, (0,): 3.0}
    reward_fn = lambda prefix: rewards[prefix[1:]]
    traj = Trajectory(prompt_len=1, tokens=(0, 0, 1),
                      logprobs=(float(np.log(0.5)), float(np.log(1 - 1e-12))),
                      terminated=True)
    loss = subtb_loss(pol, reward_fn, traj, lam=1.0)
    assert loss == pytest.approx(float(np.log(3.0)) ** 2, abs=1e-9)


def test_subtb_reward_scale_invariance():
    cfg, vocab, problem = sumpath_setup()
    pol = Policy.tabular(vocab, window=4)
    rng = np.random.default_rng(9)
    reward_fn = make_reward_fn(problem, cfg, vocab)
    traj = random_terminated_trajectory(pol, problem, 2)
    pol.register([(problem.prompt_tokens, trajectory_body(traj))])
    pol.params = rng.normal(0, 0.5, size=pol.params.size)
    base = subtb_loss(pol, reward_fn, traj, lam=0.9)
    for c in (0.1, 10.0):
        scaled = subtb_loss(pol, lambda pre: c * reward_fn(pre), traj, lam=0.9)
        assert abs(scaled - base) < 1e-9


def test_tb_loss_definitional_zero():
    # log Z set to the exact sequence mismatch makes the residual vanish
    cfg, vocab, problem = sumpath_setup()
    pol = Policy.tabular(vocab, window=4)
    reward_fn = make_reward_fn(problem, cfg, vocab)
    traj = random_terminated_trajectory(pol, problem, 7)
    body = trajectory_body(traj)
    pol.register([(problem.prompt_tokens, body)])
    lp_tok, lp_stop = generation_log_probs(pol, problem.prompt_tokens, body)
    seq_lp = float(lp_tok.sum() + lp_stop[len(body)])
    r = reward_fn(problem.prompt_tokens + body)
    log_z = float(np.log(r)) - seq_lp
    assert tb_loss(pol, reward_fn, traj, log_z=log_z) == pytest.approx(0.0, abs=1e-18)
    # and a unit offset costs exactly 1
    assert tb_loss(pol, reward_fn, traj, log_z=log_z + 1.0) == pytest.approx(1.0)


def test_sft_loss_is_mean_token_nll():
    cfg, vocab, problem = sumpath_setup()
    pol = Policy.tabular(vocab, window=4)
    refs = [Reference(problem.prompt_tokens, (2, 2)),
            Reference(problem.prompt_tokens, (2,))]
    for r in refs:
        pol.register([(r.prompt_tokens, r.body)])
    got = sft_loss(pol, refs)
    total, count = 0.0, 0
    for r in refs:
        lp_tok, lp_stop = generation_log_probs(pol, r.prompt_tokens, r.body)
        total += float(lp_tok.sum() + lp_stop[len(r.body)])
        count += len(r.body) + 1
    assert got == pytest.approx(-total / count)


def test_nonpositive_reward_rejected():
    cfg, vocab, problem = sumpath_setup()
    pol = Policy.tabular(vocab, window=4)
    traj = random_terminated_trajectory(pol, problem, 0)
    with pytest.raises(NonPositiveReward):
        subtb_loss(pol, lambda pre: 0.0, traj, lam=1.0)


def test_replay_buffer_fifo_oracle():
    cfg, vocab, problem = sumpath_setup()
    pol = Policy.tabular(vocab, window=4)
    reward_fn = make_reward_fn(problem, cfg, vocab)
    buf = ReplayBuffer(capacity=5)
    pushed = []
    for seed in range(9):
        traj = random_terminated_trajectory(pol, problem, seed)
        buffer_push(buf, traj, reward_fn)
        pushed.append(trajectory_body(traj))
    # a deque of maxlen 5 holds exactly the last five pushes in order
    assert [e.body for e in buf.entries] == pushed[-5:]
    assert buf.pushed == 9
    assert len(buf) == 5


def test_buffer_push_cache_scores_each_body_once():
    cfg, vocab, problem = sumpath_setup(RewardMode.SHAPED)
    pol = Policy.tabular(vocab, window=4)
    reward_fn = make_reward_fn(problem, cfg, vocab)
    calls = []

    def counted(prefix):
        calls.append(prefix)
        return reward_fn(prefix)

    trajs = [random_terminated_trajectory(pol, problem, seed) for seed in range(12)]
    plain, cached, cache = ReplayBuffer(50), ReplayBuffer(50), {}
    for t in trajs + trajs:
        buffer_push(plain, t, reward_fn)
        buffer_push(cached, t, counted, cache=cache)
    assert [(e.body, e.log_rewards.tolist()) for e in cached.entries] == \
        [(e.body, e.log_rewards.tolist()) for e in plain.entries]
    bodies = {trajectory_body(t) for t in trajs}
    assert set(cache) == bodies
    assert len(calls) == sum(len(b) + 1 for b in bodies)
    # a body met for the first time is still checked
    with pytest.raises(NonPositiveReward):
        buffer_push(ReplayBuffer(3), trajs[0], lambda prefix: 0.0, cache={})


def test_replay_buffer_rejects_unterminated():
    cfg, vocab, problem = sumpath_setup()
    reward_fn = make_reward_fn(problem, cfg, vocab)
    t = Trajectory(prompt_len=len(problem.prompt_tokens),
                   tokens=problem.prompt_tokens + (2,), logprobs=(-0.5,), terminated=False)
    with pytest.raises(ValueError):
        buffer_push(ReplayBuffer(3), t, reward_fn)


def test_buffer_sample_uniformity():
    cfg, vocab, problem = sumpath_setup()
    pol = Policy.tabular(vocab, window=4)
    reward_fn = make_reward_fn(problem, cfg, vocab)
    buf = ReplayBuffer(capacity=50)
    bodies = set()
    seed = 0
    while len(bodies) < 4:
        traj = random_terminated_trajectory(pol, problem, seed)
        body = trajectory_body(traj)
        if body not in bodies:
            bodies.add(body)
            buffer_push(buf, traj, reward_fn)
        seed += 1
    rng = np.random.default_rng(0)
    n = 4000
    picks = buffer_sample(buf, n, rng)
    counts = np.zeros(len(buf))
    index_of = {e.body: i for i, e in enumerate(buf.entries)}
    for e in picks:
        counts[index_of[e.body]] += 1
    p = 1.0 / len(buf)
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < 4 * sigma)
    with pytest.raises(EmptyBuffer):
        buffer_sample(ReplayBuffer(3), 1, rng)


def test_train_zero_steps_leaves_policy_unchanged():
    cfg, vocab, problem = sumpath_setup()
    ds = TrainSet.build([problem], cfg, vocab)
    pol = Policy.tabular(vocab, window=4)
    before = pol.params.copy()
    report = train_gflownet(pol, ds, GfnConfig(steps=0))
    assert np.array_equal(pol.params, before)
    assert report.rows == []


def test_train_report_csv_layout(tmp_path):
    report = TrainReport(loss_column="mean_subtb_loss")
    report.add(1, 0.5, 2.0, 0.1, 3, None)
    report.add(2, 0.25, None, 0.2, 4, 0.75)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,mean_subtb_loss,mean_sft_loss,mean_terminal_reward,buffer_size,l1_to_target"
    assert lines[1] == "1,0.5,2.0,0.1,3,"
    assert lines[2] == "2,0.25,,0.2,4,0.75"


def test_train_report_sft_only_column_collapse():
    # when the method's own loss IS the sft column there is exactly one column
    report = TrainReport(loss_column="mean_sft_loss")
    report.add(1, 0.5)
    assert report.columns.count("mean_sft_loss") == 1
    assert report.rows[0]["mean_sft_loss"] == 0.5


def test_training_moves_toward_reward_proportionality():
    # small enumerable problem: a few hundred steps cut the l1 gap sharply
    cfg, vocab, problem = sumpath_setup()
    ds = TrainSet.build([problem], cfg, vocab)
    pol = Policy.tabular(vocab, window=6)
    before = terminal_l1_gap(pol, problem, cfg, vocab)
    gfn = GfnConfig(steps=400, batch_size=16, samples_per_problem=8, sft_coeff=0.0,
                    lr=0.08, decode=DecodeCfg(temperature=2.0, top_p=1.0), seed=0)
    report = train_gflownet(pol, ds, gfn, diag_problem=problem)
    after = report.rows[-1]["l1_to_target"]
    assert after < before * 0.5
    losses = [r["mean_subtb_loss"] for r in report.rows]
    assert np.mean(losses[-20:]) < np.mean(losses[:20])
