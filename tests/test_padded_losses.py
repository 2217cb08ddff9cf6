"""Padded-batch losses against B=1 oracles.

Every training loss reads one padded (B, L) / (B, L+1) forward pass. Here each
batched loss and its gradient must equal the sum or mean of the same function
called on one-row batches, on batches that mix every body length from 0 to L,
and must agree with central finite differences.
"""

from __future__ import annotations

import numpy as np
import pytest

from flowseq import autodiff as ad
from flowseq.baselines import PpoItem, PreferencePair, dpo_mean_loss_var, ppo_surrogate_var
from flowseq.core import TaskKind, Trajectory
from flowseq.env import TaskConfig, build_vocab, make_problem
from flowseq.gflownet import BufferEntry, GfnConfig, Reference, replay_loss_var, sft_loss_var
from flowseq.policy import Policy, batched_generation_log_vars

MAX_LEN = 5
LAMBDAS = (0.1, 0.9, 1.0, 1.7)
KINDS = ("tabular", "neural")
REL = 1e-12


def log_rewards(prompt, body) -> np.ndarray:
    # strictly positive and different on every prefix, so no residual vanishes
    return np.log([0.3 + ((sum(prompt + body[:i]) * 7 + len(prompt) + i) % 11) / 5.0 for i in range(len(body) + 1)])


def next_log_probs(pol, prefix) -> np.ndarray:
    """The one-row oracle: log-probabilities of the token after prefix."""
    return pol.batch_log_probs(np.asarray([pol.context_of(prefix)], dtype=np.int64))[0]


def setup(kind: str, seed: int = 0):
    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 4), max_parts=3, max_part=2)
    vocab = build_vocab(task)
    problem = make_problem(task, seed=0)
    rng = np.random.default_rng(seed)
    body_ids = [i for i in range(vocab.size) if i != vocab.stop_id]
    # every length 0..MAX_LEN plus repeats, in shuffled order so padding is not sorted;
    # every body token opens some body: otherwise the logits of unopened tokens in the
    # prompt's row have an exactly zero subtb gradient (through that row the loss sees
    # only a shift of every D_t alike), which central differences resolve only to noise
    lengths = [n for n in range(MAX_LEN + 1) for _ in range(2 if n in (0, 2, MAX_LEN) else 1)]
    bodies = [()] * lengths.count(0) + [
        (body_ids[k % len(body_ids)],) + tuple(int(t) for t in rng.choice(body_ids, size=n - 1))
        for k, n in enumerate(n for n in lengths if n)
    ]
    bodies = [bodies[i] for i in rng.permutation(len(bodies))]
    if kind == "tabular":
        pol = Policy.tabular(vocab, window=3)
        for body in bodies:
            pol.register([(problem.prompt_tokens, body)])
    else:
        pol = Policy.neural(vocab, window=3, embed_dim=3, hidden_dim=4, seed=seed)
    pol.params = rng.normal(0.0, 0.5, size=pol.params.size)
    return pol, problem, bodies, rng


def trajectory(problem, body, stop_id, terminated=True) -> Trajectory:
    gen = body + (stop_id,) if terminated else body
    return Trajectory(prompt_len=problem.prompt_len, tokens=problem.prompt_tokens + gen, terminated=terminated)


def assert_matches(pol, batched, oracle):
    """Value and gradient of batched(policy, theta) equal oracle's within REL."""
    theta = pol.params
    vb = ad.loss_value(lambda th: batched(pol, th), theta)
    vo = ad.loss_value(lambda th: oracle(pol, th), theta)
    assert abs(vb - vo) <= REL * abs(vo), (vb, vo)
    gb = ad.grad(lambda th: batched(pol, th), theta)
    go = ad.grad(lambda th: oracle(pol, th), theta)
    assert np.max(np.abs(go)) > 0.0
    assert np.max(np.abs(gb - go)) <= REL * np.max(np.abs(go))


def assert_finite_diff(pol, batched):
    err = ad.finite_diff_check(lambda th: batched(pol, th), pol.params)
    assert err < 1e-6, err


def sum_vars(terms):
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def sft_oracle(p, th, refs):
    # each B=1 loss is a per-token mean; weight it back to a token sum
    count = float(sum(len(r.body) + 1 for r in refs))
    return sum_vars([sft_loss_var(p, th, [r]) * float(len(r.body) + 1) for r in refs]) / count


def test_padded_forward_layout():
    pol, problem, bodies, _ = setup("tabular")
    tape = ad.GradTape()
    theta = tape.input(pol.params)
    lp_tok, lp_stop, lengths = batched_generation_log_vars(
        pol, theta, [(problem.prompt_tokens, b) for b in bodies])
    assert lp_tok.value.shape == (len(bodies), MAX_LEN)
    assert lp_stop.value.shape == (len(bodies), MAX_LEN + 1)
    assert list(lengths) == [len(b) for b in bodies]
    for row, body in enumerate(bodies):
        n = len(body)
        for t in range(n + 1):
            lp = next_log_probs(pol, problem.prompt_tokens + body[:t])
            assert lp_stop.value[row, t] == lp[pol.vocab.stop_id]
            if t < n:
                assert lp_tok.value[row, t] == lp[body[t]]
        assert np.all(lp_tok.value[row, n:] == 0.0)
        assert np.all(lp_stop.value[row, n + 1:] == 0.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("redrawn", (False, True), ids=("once", "redrawn"))
@pytest.mark.parametrize("horizon", (False, True))
def test_replay_loss_equals_b1_oracle(kind, lam, redrawn, horizon):
    pol, problem, bodies, rng = setup(kind, seed=int(lam * 10))
    entries = [
        BufferEntry(problem.prompt_tokens, b, log_rewards(problem.prompt_tokens, b),
                    at_horizon=horizon and len(b) >= MAX_LEN - 1)
        for b in bodies
    ]
    if redrawn:
        # training replays a uniform draw with replacement, so one batch may hold an entry several times
        entries += [entries[int(i)] for i in rng.integers(0, len(entries), size=len(entries))]
    cfg = GfnConfig(steps=1, subtb_lambda=lam, horizon_coeff=0.7)

    def batched(p, th):
        return replay_loss_var(p, th, entries, [], cfg)[0]

    def oracle(p, th):
        subtb = [replay_loss_var(p, th, [e], [], cfg)[1] for e in entries]
        total = sum_vars(subtb) / float(len(entries))
        fins = []
        for e in entries:
            if e.at_horizon:
                _, lp_stop, _ = batched_generation_log_vars(p, th, [(e.prompt_tokens, e.body)])
                fins.append(-ad.vsum(ad.take(lp_stop, np.asarray([len(e.body)]))))
        if fins:
            total = total + 0.7 * (sum_vars(fins) / float(len(fins)))
        return total

    assert_matches(pol, batched, oracle)
    assert_finite_diff(pol, batched)


@pytest.mark.parametrize("kind", KINDS)
def test_replay_loss_with_references_equals_b1_oracle(kind):
    pol, problem, bodies, _ = setup(kind, seed=3)
    entries = [BufferEntry(problem.prompt_tokens, b, log_rewards(problem.prompt_tokens, b)) for b in bodies[:5]]
    # references longer than any replayed body widen the shared padding
    refs = [Reference(problem.prompt_tokens, b) for b in sorted(bodies, key=len)[-4:]]
    cfg = GfnConfig(steps=1, subtb_lambda=0.9, sft_coeff=3.0)

    def batched(p, th):
        return replay_loss_var(p, th, entries, refs, cfg)[0]

    def oracle(p, th):
        subtb = [replay_loss_var(p, th, [e], [], cfg)[1] for e in entries]
        return sum_vars(subtb) / float(len(entries)) + 3.0 * sft_oracle(p, th, refs)

    assert_matches(pol, batched, oracle)
    assert_finite_diff(pol, batched)


@pytest.mark.parametrize("kind", KINDS)
def test_sft_loss_equals_b1_oracle(kind):
    pol, problem, bodies, _ = setup(kind, seed=4)
    refs = [Reference(problem.prompt_tokens, b) for b in bodies]

    def batched(p, th):
        return sft_loss_var(p, th, refs)

    assert_matches(pol, batched, lambda p, th: sft_oracle(p, th, refs))
    assert_finite_diff(pol, batched)


@pytest.mark.parametrize("kind", KINDS)
def test_ppo_surrogate_equals_b1_oracle(kind):
    pol, problem, bodies, rng = setup(kind, seed=5)
    items = []
    for i, b in enumerate(bodies):
        terminated = i % 3 != 1
        n = len(b) + int(terminated)
        if n == 0:
            continue
        old = pol.clone()
        old.params = pol.params + rng.normal(0.0, 0.05, size=pol.params.size)
        tok, stop = [], []
        for t in range(len(b) + 1):
            lp = next_log_probs(old, problem.prompt_tokens + b[:t])
            stop.append(lp[pol.vocab.stop_id])
            if t < len(b):
                tok.append(lp[b[t]])
        old_lp = np.asarray(tok + stop[-1:] if terminated else tok)
        items.append(PpoItem(problem.prompt_tokens, b, terminated, old_lp, rng.normal(0.0, 1.0, size=n)))
    count = float(sum(it.old_logprobs.size for it in items))

    def batched(p, th):
        return ppo_surrogate_var(p, th, items, clip=0.2)

    def oracle(p, th):
        return sum_vars([ppo_surrogate_var(p, th, [it], clip=0.2) * float(it.old_logprobs.size)
                         for it in items]) / count

    assert_matches(pol, batched, oracle)
    assert_finite_diff(pol, batched)


@pytest.mark.parametrize("kind", KINDS)
def test_dpo_loss_equals_b1_oracle(kind):
    pol, problem, bodies, rng = setup(kind, seed=6)
    stop = pol.vocab.stop_id
    ref = pol.clone()
    ref.params = rng.normal(0.0, 0.5, size=pol.params.size)
    pairs = []
    for i in range(len(bodies)):
        chosen, rejected = bodies[i], bodies[(i + 1) % len(bodies)]
        pairs.append(PreferencePair(
            problem_id=0,
            chosen=trajectory(problem, chosen, stop, terminated=i % 4 != 3),
            rejected=trajectory(problem, rejected, stop, terminated=i % 3 != 2),
            chosen_reward=1.0, rejected_reward=0.5))

    def batched(p, th):
        return dpo_mean_loss_var(p, th, ref, pairs, beta=0.5)

    def oracle(p, th):
        return sum_vars([dpo_mean_loss_var(p, th, ref, [pair], beta=0.5) for pair in pairs]) / float(len(pairs))

    assert_matches(pol, batched, oracle)
    assert_finite_diff(pol, batched)
