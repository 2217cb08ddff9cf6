from __future__ import annotations

import dataclasses
from copy import deepcopy

import numpy as np
import pytest

from flowseq import autodiff as ad
from flowseq import gflownet, policy
from flowseq.core import Problem, TaskKind, Trajectory, encode, make_vocab
from flowseq.env import (RewardMode, TaskConfig, build_vocab, enumerate_solutions, enumerate_terminals, make_problem,
                         reward)
from flowseq.gflownet import (
    BufferEntry,
    GfnConfig,
    NonPositiveReward,
    TrainReport,
    TrainSet,
    _force_stop,
    items_of,
    prefix_log_rewards,
    replay_loss_var,
    sft_from_vars,
    terminal_l1_gap,
    train_gflownet,
)
from flowseq.policy import (
    DecodeCfg,
    Policy,
    _sample_with_rng,
    batched_generation_log_vars,
    generation_log_probs,
    terminal_distribution,
    trajectory_body,
)
from test_lockstep import reference_decode, trajectory_item


def brute_subtb(lp_tok: np.ndarray, lp_stop: np.ndarray, log_r: np.ndarray, lam: float) -> float:
    """Direct double sum over all 0 <= i < j <= n subtrajectory pairs."""
    n = len(lp_tok)
    s = np.concatenate([[0.0], np.cumsum(lp_tok)])
    d = log_r - s - lp_stop
    total = 0.0
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            total += lam ** (j - i) * (d[i] - d[j]) ** 2
    return total


def replayed(reward_fn, traj: Trajectory) -> list[BufferEntry]:
    """A one-row replay batch holding traj, with the log of reward_fn on each prefix of its body."""
    prompt, body = trajectory_item(traj)
    return [BufferEntry(prompt, body, np.log([reward_fn(prompt + body[:i]) for i in range(len(body) + 1)]))]


def replay_loss(pol: Policy, theta, batch: list[BufferEntry], cfg: GfnConfig, refs=()):
    """replay_loss_var read off one forward of pol over the batch's items, then the reference items refs."""
    return replay_loss_var(batched_generation_log_vars(pol, theta, items_of(batch) + list(refs)), batch, cfg)


def task_reward(problem, task, vocab):
    """The environment's reward of a token prefix (prompt included) treated as terminated."""
    return lambda prefix: reward(problem, prefix, task, vocab)


def next_log_probs(pol: Policy, prefix: tuple[int, ...]) -> np.ndarray:
    """The one-row oracle: log-probabilities of the token after prefix."""
    return pol.forward(pol.params, np.asarray([pol.context_of(prefix)], dtype=np.int64))[0]


def two_token_setup():
    vocab = make_vocab(["g"])
    problem = Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(0,),
                      target=1, operands=(1,), max_solution_len=1)
    return vocab, problem


def fitted_policy(vocab, problem, p_tok: float, p_stop_after: float = None):
    """Tabular policy over the two contexts of the one-step space."""
    pol = Policy.tabular(vocab, window=2)
    pol.register_prefixes([(problem.prompt_tokens, (0,))])
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
    task, vocab, problem = sumpath_setup()
    pol = Policy.tabular(vocab, window=4)
    rng = np.random.default_rng(3)
    reward_fn = task_reward(problem, task, vocab)
    for seed in range(6):
        traj = random_terminated_trajectory(pol, problem, seed)
        body = trajectory_body(traj)
        pol.register_prefixes([(problem.prompt_tokens, body)])
        pol.params = rng.normal(0, 0.5, size=pol.params.size)
        for lam in (0.5, 1.0, 1.7):
            cfg = GfnConfig(steps=1, subtb_lambda=lam)
            got = ad.loss_value(lambda th: replay_loss(pol, th, replayed(reward_fn, traj), cfg)[1],
                                pol.params)
            lp_tok, lp_stop = generation_log_probs(pol, problem.prompt_tokens, body)
            log_r = prefix_log_rewards(problem, task, vocab, body)
            want = brute_subtb(lp_tok, lp_stop, log_r, lam)
            assert got == pytest.approx(want, rel=1e-12), (seed, lam)


def test_subtb_flow_consistent_policy_is_zero():
    # rewards {1, 3} over a two-terminal space; the proportional policy
    # zeroes every subtrajectory residual
    vocab, problem = two_token_setup()
    pol = fitted_policy(vocab, problem, p_tok=0.75)  # 3/(1+3)
    rewards = {(): 1.0, (0,): 3.0}
    reward_fn = lambda prefix: rewards[prefix[1:]]
    traj = random_terminated_trajectory(pol, problem, 0)
    cfg = GfnConfig(steps=1, subtb_lambda=1.0)
    loss = ad.loss_value(lambda th: replay_loss(pol, th, replayed(reward_fn, traj), cfg)[1], pol.params)
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
    traj = Trajectory(prompt_len=1, tokens=(0, 0, 1), terminated=True)
    cfg = GfnConfig(steps=1, subtb_lambda=1.0)
    loss = ad.loss_value(lambda th: replay_loss(pol, th, replayed(reward_fn, traj), cfg)[1], pol.params)
    assert loss == pytest.approx(float(np.log(3.0)) ** 2, abs=1e-9)


def test_subtb_reward_scale_invariance():
    task, vocab, problem = sumpath_setup()
    pol = Policy.tabular(vocab, window=4)
    rng = np.random.default_rng(9)
    reward_fn = task_reward(problem, task, vocab)
    traj = random_terminated_trajectory(pol, problem, 2)
    pol.register_prefixes([(problem.prompt_tokens, trajectory_body(traj))])
    pol.params = rng.normal(0, 0.5, size=pol.params.size)
    cfg = GfnConfig(steps=1, subtb_lambda=0.9)
    base = ad.loss_value(lambda th: replay_loss(pol, th, replayed(reward_fn, traj), cfg)[1], pol.params)
    for c in (0.1, 10.0):
        batch = replayed(lambda pre: c * reward_fn(pre), traj)
        scaled = ad.loss_value(lambda th: replay_loss(pol, th, batch, cfg)[1], pol.params)
        assert abs(scaled - base) < 1e-9


def test_sft_loss_is_mean_token_nll():
    cfg, vocab, problem = sumpath_setup()
    pol = Policy.tabular(vocab, window=4)
    refs = [(problem.prompt_tokens, (2, 2)), (problem.prompt_tokens, (2,))]
    pol.register_prefixes(refs)
    got = ad.loss_value(lambda th: sft_from_vars(*batched_generation_log_vars(pol, th, refs)), pol.params)
    total, count = 0.0, 0
    for prompt, body in refs:
        lp_tok, lp_stop = generation_log_probs(pol, prompt, body)
        total += float(lp_tok.sum() + lp_stop[len(body)])
        count += len(body) + 1
    assert got == pytest.approx(-total / count)


def recorded_training(monkeypatch, problems, task, vocab, gfn):
    """train_gflownet with its draws (problem, body), replay entries and replayed batches recorded in order."""
    draws, pushed, batches = [], [], []
    walk, loss = gflownet._walk_draws, gflownet.replay_loss_var

    def recorded_walk(policy, rows, *args, **kwargs):
        bodies = walk(policy, rows, *args, **kwargs)
        draws.extend((problem, body) for (problem, _), row in zip(rows, bodies) for body in row)
        return bodies

    def recorded_entry(*args):
        pushed.append(BufferEntry(*args))
        return pushed[-1]

    def recorded_loss(forward, batch, cfg):
        batches.append(batch)
        return loss(forward, batch, cfg)

    monkeypatch.setattr(gflownet, "_walk_draws", recorded_walk)
    monkeypatch.setattr(gflownet, "BufferEntry", recorded_entry)
    monkeypatch.setattr(gflownet, "replay_loss_var", recorded_loss)
    report = train_gflownet(Policy.tabular(vocab, window=4), TrainSet.build(problems, task, vocab), gfn)
    return report, draws, pushed, batches


def fifo_training(monkeypatch):
    """A recorded training whose deque fills after a few steps and then holds only its last pushes."""
    task, vocab, _ = sumpath_setup()
    problems = [make_problem(task, seed=s) for s in range(3)]
    k, capacity, steps = 3, 10, 80
    gfn = GfnConfig(steps=steps, batch_size=8, samples_per_problem=k, buffer_capacity=capacity, sft_coeff=0.0,
                    decode=DecodeCfg(temperature=2.0, top_p=1.0), seed=1)
    report, draws, pushed, batches = recorded_training(monkeypatch, problems, task, vocab, gfn)
    # the entries each step can replay: those of the last `capacity` pushes, oldest first
    held = [pushed[max(0, k * step - capacity): k * step] for step in range(1, steps + 1)]
    return task, vocab, report, draws, pushed, batches, held, capacity


def test_replay_buffer_fifo_oracle(monkeypatch):
    task, vocab, report, draws, pushed, batches, held, capacity = fifo_training(monkeypatch)
    assert [r["buffer_size"] for r in report.rows] == [len(h) for h in held]
    assert [len(h) for h in held][-1] == capacity
    assert [(e.prompt_tokens, e.body) for e in pushed] == [(p.prompt_tokens, body) for p, body in draws]
    for e, (problem, _) in zip(pushed, draws):
        assert e.at_horizon == (len(e.body) == problem.max_solution_len)
        assert e.log_rewards.tolist() == prefix_log_rewards(problem, task, vocab, e.body).tolist()
    for batch, h in zip(batches, held, strict=True):
        assert {id(e) for e in batch} <= {id(e) for e in h}


def test_buffer_sample_uniformity(monkeypatch):
    *_, batches, held, capacity = fifo_training(monkeypatch)
    # each slot of a full deque is replayed as often as any other
    counts = np.zeros(capacity)
    for batch, h in zip(batches, held, strict=True):
        if len(h) == capacity:
            ids = [id(e) for e in h]
            counts += np.bincount([ids.index(id(e)) for e in batch], minlength=capacity)
    n, p = counts.sum(), 1.0 / capacity
    assert n > 0
    assert np.all(np.abs(counts - n * p) < 4 * np.sqrt(n * p * (1 - p))), counts


def test_an_unterminated_draw_enters_the_replay_stopped_at_the_horizon(monkeypatch):
    task, vocab, _ = sumpath_setup()
    problems = [make_problem(task, seed=s) for s in range(3)]
    unterminated = []
    walk = gflownet._walk_draws

    def observed_walk(policy, rows, cfg, k=1, memo=None, draft=None):
        # the same k draws by the row-at-a-time reference, from a copy of the generator the walk draws from
        [(problem, rng)] = rows
        copy = deepcopy(rng)
        trajs = [reference_decode(policy, problem, cfg.max_new_tokens, cfg, copy) for _ in range(k)]
        unterminated.extend(t for t in trajs if not t.terminated)
        return walk(policy, rows, cfg, k, memo, draft)

    monkeypatch.setattr(gflownet, "_walk_draws", observed_walk)
    gfn = GfnConfig(steps=40, batch_size=4, samples_per_problem=4, sft_coeff=0.0,
                    decode=DecodeCfg(temperature=2.0, top_p=1.0), seed=2)
    _, draws, pushed, _ = recorded_training(monkeypatch, problems, task, vocab, gfn)
    assert unterminated
    # a draw has at most max_solution_len tokens, so only a forced stop replays a body at the horizon
    assert [e.body for e in pushed if e.at_horizon] == [t.generated for t in unterminated]
    assert all(len(e.body) == p.max_solution_len for e, (p, _) in zip(pushed, draws) if e.at_horizon)


def test_training_scores_each_distinct_body_of_a_problem_once(monkeypatch):
    task, vocab, _ = sumpath_setup(RewardMode.SHAPED)
    problems = [make_problem(task, seed=s) for s in range(2)]
    folds, steps = [], []
    real_verifier = gflownet.verifier

    def counted(problem, vocab):
        folds.append(problem)
        machine = real_verifier(problem, vocab)
        real_step = machine.step
        machine.step = lambda state, tid: steps.append(tid) or real_step(state, tid)
        return machine

    monkeypatch.setattr(gflownet, "verifier", counted)
    gfn = GfnConfig(steps=40, batch_size=4, samples_per_problem=6, sft_coeff=0.0,
                    decode=DecodeCfg(temperature=2.0, top_p=1.0), seed=0)
    _, draws, _, _ = recorded_training(monkeypatch, problems, task, vocab, gfn)
    distinct = {(id(p), body) for p, body in draws}
    assert len(distinct) < len(draws)  # some body is drawn twice, so a second scoring would show
    # one fold of the verifier per distinct body, one step per token
    assert len(folds) == len(distinct)
    assert len(steps) == sum(len(body) for _, body in distinct)


def test_nonpositive_reward_rejected(monkeypatch):
    task, vocab, problem = sumpath_setup()
    body = (2, 2)

    class Length:  # a verifier whose state and verdict are the prefix length
        start = 0
        step = staticmethod(lambda n, _tid: n + 1)
        verdict = staticmethod(lambda n: n)

    monkeypatch.setattr(gflownet, "verifier", lambda *_: Length)
    # positive on every shorter prefix, so the check must reach the full body
    monkeypatch.setattr(gflownet, "verdict_reward", lambda n, _task: -1.0 if n == len(body) else 2.0)
    with pytest.raises(NonPositiveReward, match="reward -1.0 at prefix length 2"):
        prefix_log_rewards(problem, task, vocab, body)
    assert prefix_log_rewards(problem, task, vocab, body[:1]).tolist() == [np.log(2.0)] * 2


@pytest.mark.parametrize("mode", list(RewardMode))
@pytest.mark.parametrize("kind", list(TaskKind))
def test_prefix_log_rewards_equal_the_log_reward_of_each_prefix(kind, mode):
    task = TaskConfig(task_kind=kind, value_range=(2, 6), max_parts=3, max_part=3, reward_mode=mode)
    vocab = build_vocab(task)
    rng = np.random.default_rng(0)
    for seed in range(4):
        problem = make_problem(task, seed=seed)
        # random bodies up to past the horizon, and the correct ones, whose last prefix scores above the floor
        bodies = [tuple(rng.choice(vocab.body_ids, size=n).tolist()) for n in range(problem.max_solution_len + 3)]
        bodies += enumerate_solutions(problem, task, vocab)[:3]
        for body in bodies:
            want = np.log([reward(problem, problem.prompt_tokens + body[:i], task, vocab)
                           for i in range(len(body) + 1)])
            assert prefix_log_rewards(problem, task, vocab, body).tobytes() == want.tobytes()


def test_training_rejects_a_non_positive_reward(monkeypatch):
    task, vocab, problem = sumpath_setup()
    monkeypatch.setattr(gflownet, "verdict_reward", lambda *args: 0.0)
    with pytest.raises(NonPositiveReward, match="reward 0.0 at prefix length 0"):
        train_gflownet(Policy.tabular(vocab, window=4), TrainSet.build([problem], task, vocab), GfnConfig(steps=1))


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


def test_diag_problem_is_enumerated_once(monkeypatch):
    """A 100-step run with diag_every=10 enumerates its 16,105-terminal diagnostic problem once, and
    each l1_to_target equals terminal_l1_gap computed from scratch for the policy of its step."""
    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 9), max_parts=4, max_part=3)
    vocab = build_vocab(task)
    problem = Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=tuple(encode("SUM 7 :", vocab)),
                      target=7, operands=(1, 2, 3), max_solution_len=4)
    pol = Policy.tabular(vocab, window=7)
    gfn = GfnConfig(steps=100, diag_every=10, batch_size=16, samples_per_problem=8, sft_coeff=0.0,
                    lr=0.08, decode=DecodeCfg(temperature=2.0, top_p=1.0), seed=0)
    calls, snapshots = [], []
    real_enumerate, real_gap = gflownet.enumerate_terminals, gflownet.terminal_l1_gap

    def counted_enumerate(*args):
        calls.append(args)
        return real_enumerate(*args)

    def snapshot_gap(policy, *args):
        snapshots.append(policy.clone())
        return real_gap(policy, *args)

    monkeypatch.setattr(gflownet, "enumerate_terminals", counted_enumerate)
    monkeypatch.setattr(gflownet, "terminal_l1_gap", snapshot_gap)
    report = train_gflownet(pol, TrainSet.build([problem], task, vocab), gfn, diag_problem=problem)
    monkeypatch.undo()
    assert len(calls) == 1
    column = [r["l1_to_target"] for r in report.rows if r["l1_to_target"] is not None]
    assert len(column) == len(snapshots) == 10
    assert [g.hex() for g in column] == [terminal_l1_gap(p, problem, task, vocab).hex() for p in snapshots]


def criterion_1_setup(max_parts: int):
    """The criterion-1 problem (seed 0) at max_parts, with a tabular policy wide enough for it."""
    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 4), max_parts=max_parts, max_part=2)
    vocab = build_vocab(task)
    problem = make_problem(task, seed=0)
    return task, vocab, problem, Policy.tabular(vocab, window=len(problem.prompt_tokens) + problem.max_solution_len)


def loop_l1_gap(problem, task, vocab, dist) -> float:
    """The gap as a per-terminal loop over Python floats: overflow first, then terminal order."""
    rewards = enumerate_terminals(problem, task, vocab).tolist()
    z = 0.0
    for r in rewards:
        z += r
    gap = dist.overflow
    for p, r in zip(dist.probs.tolist(), rewards, strict=True):
        gap += abs(p - r / z)
    return float(gap)


def test_terminal_l1_gap_equals_the_loop_oracle_bit_for_bit():
    task, vocab, problem, pol = criterion_1_setup(max_parts=4)
    train_gflownet(pol, TrainSet.build([problem], task, vocab), GfnConfig(
        steps=60, batch_size=16, samples_per_problem=8, sft_coeff=0.0,
        lr=0.08, decode=DecodeCfg(temperature=2.0, top_p=1.0), seed=0))
    dist = terminal_distribution(pol, problem)
    assert dist.overflow > 0.0
    assert terminal_l1_gap(pol, problem, task, vocab) == loop_l1_gap(problem, task, vocab, dist)


def training_outputs(pol: Policy, report) -> tuple:
    return pol.params.tobytes(), list(pol.contexts.items()), report.rows


def count_array_forwards(monkeypatch, seen) -> None:
    """Patch Policy.forward so that seen(ctx_mat) gets the contexts of every forward on a parameter array."""
    inner = Policy.forward

    def counted(self, theta, ctx_mat, *rows):
        if isinstance(theta, np.ndarray):
            seen(ctx_mat)
        return inner(self, theta, ctx_mat, *rows)
    monkeypatch.setattr(Policy, "forward", counted)


def draws_one_at_a_time(policy: Policy, rows, cfg: DecodeCfg, k: int = 1, memo=None,
                        draft=None) -> list[list[tuple[int, ...]]]:
    """The walk's oracle: k row-at-a-time reference draws per row, each cut draw closed by _force_stop."""
    trajs = [[reference_decode(policy, problem, cfg.max_new_tokens, cfg, rng) for _ in range(k)]
             for problem, rng in rows]
    return [[trajectory_body(t if t.terminated else _force_stop(policy, t)) for t in row] for row in trajs]


@pytest.mark.parametrize("kind", ["tabular", "neural"])
def test_memo_prefill_leaves_training_bit_identical(kind, monkeypatch):
    """With the walk replaced by k reference draws that score one context per forward, each cut draw
    closed by _force_stop: the same parameters, context table and report rows."""
    if kind == "tabular":
        task, vocab, problem, pol = criterion_1_setup(max_parts=4)
        problems = [problem]
        gfn = GfnConfig(steps=200, batch_size=16, samples_per_problem=8, sft_coeff=0.0,
                        lr=0.08, decode=DecodeCfg(temperature=2.0, top_p=1.0), seed=0)
    else:
        task, vocab, _ = sumpath_setup()
        problems = [make_problem(task, seed=s) for s in range(4)]
        pol = Policy.neural(vocab, window=5, embed_dim=6, hidden_dim=16, seed=1)
        gfn = GfnConfig(steps=60, batch_size=8, samples_per_problem=8, lr=0.01,
                        decode=DecodeCfg(temperature=1.5, top_p=0.95), seed=3)
    ds = TrainSet.build(problems, task, vocab)
    plain = pol.clone()
    forwards = []
    count_array_forwards(monkeypatch, lambda ctx: forwards.append(len(ctx)))
    walked = training_outputs(pol, train_gflownet(pol, ds, gfn))
    n_walked = len(forwards)
    monkeypatch.setattr(gflownet, "_walk_draws", draws_one_at_a_time)
    assert training_outputs(plain, train_gflownet(plain, ds, gfn)) == walked
    assert n_walked < len(forwards) - n_walked


def test_training_draws_each_token_once_and_scores_no_horizon_context(monkeypatch):
    # criterion 1's settings, shortened: the walk's draws are the training's, with no decode replay after
    # them, and a draw cut at the horizon is closed without scoring the context that follows it
    task, vocab, problem, pol = criterion_1_setup(max_parts=4)
    walks, scored = [], []
    walk = policy._walk_draws

    def counted_walk(pol, rows, *args, **kwargs):
        walks.append(len(rows))
        return walk(pol, rows, *args, **kwargs)
    # the name gflownet binds, and the one every other draw goes through
    monkeypatch.setattr(gflownet, "_walk_draws", counted_walk)
    monkeypatch.setattr(policy, "_walk_draws", counted_walk)
    count_array_forwards(monkeypatch, lambda ctx: scored.extend(ctx.tolist()))
    train_gflownet(pol, TrainSet.build([problem], task, vocab), GfnConfig(
        steps=200, batch_size=16, samples_per_problem=8, sft_coeff=0.0,
        lr=0.08, decode=DecodeCfg(temperature=2.0, top_p=1.0), seed=0))
    assert walks == [1] * 200  # one walk of one row per step
    assert scored
    # the window holds the prompt and every body token, so PAD fills what the body has not reached
    body_lengths = {pol.window - len(problem.prompt_tokens) - ctx.count(pol.pad_id) for ctx in scored}
    assert max(body_lengths) == problem.max_solution_len - 1


def test_terminal_l1_gap_rejects_the_law_of_another_problem():
    task, vocab, problem, pol = criterion_1_setup(max_parts=3)
    _, _, wider, wide_pol = criterion_1_setup(max_parts=4)
    dist = terminal_distribution(wide_pol, wider)
    assert (len(enumerate_terminals(problem, task, vocab)), len(dist.probs)) == (259, 1555)
    with pytest.raises(ValueError, match=r"1555 bodies.*259 terminals"):
        terminal_l1_gap(pol, problem, task, vocab, dist=dist)


def test_terminal_l1_gap_rejects_a_policy_of_another_vocabulary():
    # the same problem under a policy with one more body token: its law covers more bodies than the problem has
    task, vocab, problem, _ = criterion_1_setup(max_parts=3)
    wide_vocab = build_vocab(dataclasses.replace(task, value_range=(2, 5)))
    counts = [sum(len(v.body_ids) ** n for n in range(problem.max_solution_len + 1)) for v in (vocab, wide_vocab)]
    assert counts == [259, 400]
    with pytest.raises(ValueError, match=r"the terminal law has 400 bodies, the problem 259 terminals"):
        terminal_l1_gap(Policy.tabular(wide_vocab, window=4), problem, task, vocab)


def test_trainset_rejects_a_negative_max_refs():
    cfg, vocab, _ = sumpath_setup()
    problems = [make_problem(cfg, seed=s) for s in range(3)]
    counts = [len(refs) for refs in TrainSet.build(problems, cfg, vocab).references]
    assert min(counts) >= 2
    assert [len(refs) for refs in TrainSet.build(problems, cfg, vocab, max_refs=0).references] == counts
    assert [len(refs) for refs in TrainSet.build(problems, cfg, vocab, max_refs=1).references] == [1, 1, 1]
    # a negative slice bound would drop each problem's last solution
    with pytest.raises(ValueError, match="max_refs"):
        TrainSet.build(problems, cfg, vocab, max_refs=-1)
