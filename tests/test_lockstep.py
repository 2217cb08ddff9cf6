"""Oracles for the lockstep decoder: many rows at once equal one row at a time.

The reference below is the row-at-a-time sampler the lockstep loop replaced:
one forward and one temperature / top-p truncation per token. The lockstep
loop must reproduce its tokens exactly, and its truncation bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from flowseq.baselines import SftConfig, sft_train
from flowseq.core import TaskKind, Trajectory
from flowseq.env import RewardMode, TaskConfig, build_vocab, make_problem
from flowseq.evaluation import (
    ProblemEval,
    distinct_correct_count,
    evaluate,
    solution_from_body,
)
from flowseq.gflownet import TrainSet
from flowseq.policy import (
    DecodeCfg,
    DecodeRow,
    Policy,
    _decode,
    _proposals,
    _sample_with_rng,
    greedy_decode,
    trajectory_body,
)


ARITH = TaskConfig(task_kind=TaskKind.ARITH, value_range=(2, 12), max_parts=2)


def reference_draw(lp: np.ndarray, cfg: DecodeCfg, rng: np.random.Generator) -> int:
    """One token from one row: temperature, nucleus, renormalise the kept slice, one rng.random()."""
    scaled = lp / cfg.temperature
    top = scaled.max()
    if not np.isfinite(top):
        raise ValueError(f"temperature {cfg.temperature} leaves no finite scaled logit")
    probs = np.exp(scaled - top)
    probs = probs / probs.sum()
    order = np.argsort(-probs, kind="stable")
    sorted_probs = probs[order]
    cut = int(np.searchsorted(np.cumsum(sorted_probs), cfg.top_p, side="left"))
    kept_probs = sorted_probs[: cut + 1] / sorted_probs[: cut + 1].sum()
    pick = int(np.searchsorted(np.cumsum(kept_probs), rng.random(), side="right"))
    return int(order[: cut + 1][min(pick, len(kept_probs) - 1)])


def reference_nucleus(lp: np.ndarray, cfg: DecodeCfg) -> tuple[list[int], list[float]]:
    """reference_draw's kept tokens and the cumulative probabilities it searches."""
    probs = np.exp(lp / cfg.temperature - (lp / cfg.temperature).max())
    probs = probs / probs.sum()
    order = np.argsort(-probs, kind="stable")
    sorted_probs = probs[order]
    cut = int(np.searchsorted(np.cumsum(sorted_probs), cfg.top_p, side="left"))
    kept_probs = sorted_probs[: cut + 1] / sorted_probs[: cut + 1].sum()
    return order[: cut + 1].tolist(), np.cumsum(kept_probs).tolist()


def reference_decode(policy: Policy, problem, max_new_tokens, cfg: DecodeCfg | None,
                     rng: np.random.Generator | None) -> Trajectory:
    """Row-at-a-time decoding: argmax when rng is None, else reference_draw."""
    budget = problem.max_solution_len + 1 if max_new_tokens is None else max_new_tokens
    tokens, logprobs = list(problem.prompt_tokens), []
    for _ in range(budget):
        lp = policy.next_log_probs(tokens)
        tok = int(np.argmax(lp)) if rng is None else reference_draw(lp, cfg, rng)
        tokens.append(tok)
        logprobs.append(float(lp[tok]))
        if tok == policy.vocab.stop_id:
            break
    return Trajectory(prompt_len=problem.prompt_len, tokens=tuple(tokens), logprobs=tuple(logprobs),
                      terminated=bool(logprobs) and tokens[-1] == policy.vocab.stop_id)


def arith_policy(kind: str, seed: int = 0) -> tuple[Policy, list]:
    """A sharp random policy over the 22-token ARITH vocabulary, and problems with varied prompts."""
    vocab = build_vocab(ARITH)
    problems = [make_problem(ARITH, seed=100 + i) for i in range(17)]
    rng = np.random.default_rng(seed)
    if kind == "neural":
        pol = Policy.neural(vocab, window=4, embed_dim=6, hidden_dim=12, seed=seed)
        pol.params = pol.params * 25.0
        return pol, problems
    pol = Policy.tabular(vocab, window=3)
    # register the contexts of some uniform draws, then give every row random logits
    for p in problems:
        for _ in range(6):
            pol.register([(p.prompt_tokens, tuple(rng.integers(0, vocab.size - 1, size=p.max_solution_len)))])
    pol.params = rng.normal(0.0, 2.5, size=pol.params.size)
    return pol, problems


def assert_same(got: Trajectory, want: Trajectory, exact: bool = True) -> None:
    """Equal tokens; log-probabilities bit for bit, or within 1e-12 relative (a B-row matmul's rounding)."""
    assert got.tokens == want.tokens
    assert got.terminated == want.terminated
    assert got.prompt_len == want.prompt_len
    if exact:
        assert got.logprobs == want.logprobs
    else:
        np.testing.assert_allclose(got.logprobs, want.logprobs, rtol=1e-12, atol=0.0)


# WIDE_NUCLEUS truncates, and keeps 8 or more of the 22 tokens on some contexts of both policies
WIDE_NUCLEUS = DecodeCfg(temperature=2.0, top_p=0.9)
CFGS = [DecodeCfg(temperature=1.0, top_p=1.0), DecodeCfg(temperature=0.7, top_p=0.95), WIDE_NUCLEUS]


@pytest.mark.parametrize("kind", ["tabular", "neural"])
@pytest.mark.parametrize("cfg", CFGS)
def test_one_row_calls_equal_the_row_at_a_time_reference(kind, cfg):
    pol, problems = arith_policy(kind)
    for i, p in enumerate(problems):
        budget = [None, 1, 3, 40][i % 4]
        got = _sample_with_rng(pol, p, replace(cfg, max_new_tokens=budget), np.random.default_rng(i))
        # one-row forwards on both sides: every value is bit-identical, neural ones included
        want = reference_decode(pol, p, budget, cfg, np.random.default_rng(i))
        assert_same(got, want)
        assert_same(greedy_decode(pol, p, budget), reference_decode(pol, p, budget, None, None))


@pytest.mark.parametrize("kind", ["tabular", "neural"])
@pytest.mark.parametrize("n_rows", [1, 3, 17])
@pytest.mark.parametrize("cfg", CFGS)
def test_lockstep_rows_equal_one_row_calls(kind, n_rows, cfg):
    pol, problems = arith_policy(kind, seed=n_rows)
    budgets = [None, 2, 5, None, 1, 30]
    rows = [DecodeRow(problems[i], budgets[i % len(budgets)],
                      None if i % 3 == 2 else np.random.default_rng([7, i]))
            for i in range(n_rows)]
    memo = {}
    got = _decode(pol, rows, cfg, memo)
    for i, (row, traj) in enumerate(zip(rows, got)):
        if row.rng is None:
            want = greedy_decode(pol, row.problem, row.max_new_tokens)
        else:
            want = _sample_with_rng(pol, row.problem, replace(cfg, max_new_tokens=row.max_new_tokens),
                                    np.random.default_rng([7, i]))
        assert_same(traj, want, exact=kind == "tabular")
    if cfg is WIDE_NUCLEUS:
        # the truncation really cut, and some nucleus was long enough for numpy's pairwise sum
        sizes = {len(p.kept) for p in memo.values()}
        assert any(8 <= s < pol.vocab.size for s in sizes), sizes


@pytest.mark.parametrize("cfg", CFGS + [DecodeCfg(temperature=0.05, top_p=0.5),
                                        DecodeCfg(temperature=5.0, top_p=0.99)])
def test_proposals_reproduce_the_row_at_a_time_nucleus_bit_for_bit(cfg):
    rng = np.random.default_rng(3)
    for m in (1, 5, 40):
        # Dirichlet rows from flat to peaked, so kept counts vary across the matrix
        conc = rng.choice([0.05, 0.5, 5.0], size=m)
        lp = np.log(np.stack([rng.dirichlet(np.full(22, c)) for c in conc]) + 1e-300)
        for row, prop in zip(lp, _proposals(lp, cfg)):
            kept, cum = reference_nucleus(row, cfg)
            assert prop.kept == kept
            assert prop.cum == cum  # exact float equality, every entry
            assert prop.argmax == int(np.argmax(row))
            assert prop.logprobs == row.tolist()


def test_lockstep_rejects_a_temperature_with_no_finite_scaled_logit():
    pol, problems = arith_policy("tabular")
    rows = [DecodeRow(p, None, np.random.default_rng(i)) for i, p in enumerate(problems[:3])]
    with pytest.raises(ValueError, match="temperature 1e-310"):
        _decode(pol, rows, DecodeCfg(temperature=1e-310, top_p=1.0))


def test_sampled_rows_need_a_decode_cfg():
    pol, problems = arith_policy("tabular")
    with pytest.raises(ValueError, match="DecodeCfg"):
        _decode(pol, [DecodeRow(problems[0], None, np.random.default_rng(0))])


@pytest.mark.parametrize("kind", ["tabular", "neural"])
def test_shared_memo_leaves_draws_unchanged(kind):
    pol, problems = arith_policy(kind)
    cfg = DecodeCfg(temperature=0.7, top_p=0.95)
    for p in problems[:4]:
        plain, shared = np.random.default_rng(11), np.random.default_rng(11)
        memo = {}
        for _ in range(8):
            assert_same(_sample_with_rng(pol, p, cfg, shared, memo), _sample_with_rng(pol, p, cfg, plain))
        assert memo  # the shared draws did go through it


def reference_evaluate(policy, problems, vocab, k, cfg, seed, prepend_greedy) -> list[ProblemEval]:
    """evaluate one problem at a time: greedy, then k draws from the (seed, index) generator."""
    rows = []
    for i, p in enumerate(problems):
        rng = np.random.default_rng([seed, i])
        greedy = solution_from_body(p, trajectory_body(greedy_decode(policy, p, cfg.max_new_tokens)), vocab)
        sampled = [solution_from_body(p, trajectory_body(_sample_with_rng(policy, p, cfg, rng)), vocab)
                   for _ in range(k - 1 if prepend_greedy else k)]
        solutions = [greedy] + sampled if prepend_greedy else sampled
        rows.append(ProblemEval(i, greedy.correct, [s.correct for s in solutions],
                                distinct_correct_count(solutions)))
    return rows


def fitted_sumpath(kind: str) -> tuple[Policy, list]:
    """A briefly fitted policy whose samples are right on some draws and wrong on others."""
    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 5), max_parts=3, max_part=2,
                      reward_mode=RewardMode.TERMINAL)
    vocab = build_vocab(task)
    problems = [make_problem(task, seed=s) for s in range(7)]
    pol = (Policy.tabular(vocab, window=5) if kind == "tabular"
           else Policy.neural(vocab, window=5, embed_dim=6, hidden_dim=16, seed=0))
    sft_train(pol, TrainSet.build(problems, task, vocab), epochs=15, cfg=SftConfig(epochs=15, lr=0.05))
    return pol, problems


@pytest.mark.parametrize("prepend_greedy", [False, True])
@pytest.mark.parametrize("kind", ["tabular", "neural"])
def test_evaluate_equals_a_problem_at_a_time_loop(kind, prepend_greedy):
    pol, problems = fitted_sumpath(kind)
    cfg = DecodeCfg(temperature=1.0, top_p=0.95, max_new_tokens=5)
    report = evaluate(pol, problems, pol.vocab, k=5, decode_cfg=cfg, seed=3, prepend_greedy=prepend_greedy)
    assert any(0 < r.n_correct < 5 for r in report.rows)  # the comparison can tell draws apart
    assert report.rows == reference_evaluate(pol, problems, pol.vocab, 5, cfg, 3, prepend_greedy)


def test_evaluate_splits_uneven_chunks_across_workers():
    pol, problems = fitted_sumpath("neural")
    cfg = DecodeCfg(temperature=1.0, top_p=1.0)
    one = evaluate(pol, problems, pol.vocab, k=4, decode_cfg=cfg, seed=1)
    three = evaluate(pol, problems, pol.vocab, k=4, decode_cfg=cfg, seed=1, workers=3)
    assert any(0 < r.n_correct < 4 for r in one.rows)
    assert [r.problem_id for r in three.rows] == list(range(len(problems)))
    assert three.rows == one.rows
