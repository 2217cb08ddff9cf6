"""Oracles for the decoder: the walk over many rows equals a row-at-a-time reference.

The reference below samples one row at a time: one forward and one
temperature / top-p truncation per token, with its own nucleus. The walk
(_walk_draws), through every caller that wraps it, must reproduce its tokens
exactly, and its truncation bit for bit, whatever rows, draw counts, budgets
and drafts it is given.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from flowseq import evaluation
from flowseq.baselines import SftConfig, sft_train
from flowseq.core import TaskKind, Trajectory
from flowseq.env import RewardMode, TaskConfig, build_vocab, make_problem
from flowseq.evaluation import (
    ProblemEval,
    distinct_correct_count,
    evaluate,
    solution_from_body,
)
from flowseq.gflownet import TrainSet, _force_stop
from flowseq.policy import (
    DecodeCfg,
    Policy,
    _proposals,
    _sample_with_rng,
    _walk_draws,
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
    tokens = list(problem.prompt_tokens)
    for _ in range(budget):
        lp = policy.forward(policy.params, np.asarray([policy.context_of(tokens)], dtype=np.int64))[0]
        tok = int(np.argmax(lp)) if rng is None else reference_draw(lp, cfg, rng)
        tokens.append(tok)
        if tok == policy.vocab.stop_id:
            break
    return Trajectory(prompt_len=problem.prompt_len, tokens=tuple(tokens),
                      terminated=len(tokens) > problem.prompt_len and tokens[-1] == policy.vocab.stop_id)


def trajectory_item(traj: Trajectory) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(prompt_tokens, body) of a trajectory, the item the batched forward and register_prefixes take."""
    return traj.tokens[: traj.prompt_len], trajectory_body(traj)


def reference_bodies(policy: Policy, problem, cfg: DecodeCfg, k: int,
                     rng: np.random.Generator | None) -> tuple[list[tuple[int, ...]], list[bool]]:
    """The bodies of k reference draws from rng (argmax when None) at cfg's budget, and which of them were cut."""
    trajs = [reference_decode(policy, problem, cfg.max_new_tokens, cfg, rng) for _ in range(k)]
    return [trajectory_body(t) for t in trajs], [not t.terminated for t in trajs]


def budget_of(problem, cfg: DecodeCfg) -> int:
    return problem.max_solution_len + 1 if cfg.max_new_tokens is None else cfg.max_new_tokens


def visited(policy: Policy, problem, bodies, budget: int) -> set[tuple[int, ...]]:
    """The contexts draws of these bodies score: one before each drawn token, none before a forced stop."""
    return {policy.context_of(problem.prompt_tokens + body[:t])
            for body in bodies for t in range(min(len(body) + 1, budget))}


def mixed_rows(problems, n_rows: int, salt: int) -> list:
    """(problem, rng) rows over the first n_rows problems, every third taking the argmax; equal salts, equal rows."""
    return [(problems[i], None if i % 3 == 2 else np.random.default_rng([salt, i])) for i in range(n_rows)]


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
            pol.register_prefixes([(p.prompt_tokens, tuple(rng.integers(0, vocab.size - 1, size=p.max_solution_len)))])
    pol.params = rng.normal(0.0, 2.5, size=pol.params.size)
    return pol, problems


def assert_same(got: Trajectory, want: Trajectory) -> None:
    """Equal tokens, stop and prompt length: a draw carries nothing else."""
    assert got.tokens == want.tokens
    assert got.terminated == want.terminated
    assert got.prompt_len == want.prompt_len


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
        # one-row forwards on both sides
        want = reference_decode(pol, p, budget, cfg, np.random.default_rng(i))
        assert_same(got, want)
        assert_same(greedy_decode(pol, p, budget), reference_decode(pol, p, budget, None, None))


# (budget, cfg) pairs: every budget, every cfg, and WIDE_NUCLEUS on the long draws
BUDGET_CFGS = [(None, WIDE_NUCLEUS), (1, CFGS[1]), (2, CFGS[0]), (5, CFGS[1]), (30, WIDE_NUCLEUS)]


@pytest.mark.parametrize("kind", ["tabular", "neural"])
@pytest.mark.parametrize("n_rows", [1, 3, 17])
@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("draft", ["none", "exact", "wrong"])
def test_walk_rows_equal_the_row_at_a_time_reference(kind, n_rows, k, draft):
    # argmax and sampled rows in one call; a wrong draft holds another policy's proposals
    pol, problems = arith_policy(kind, seed=n_rows)
    other, _ = arith_policy(kind, seed=n_rows + 5)
    nuclei = set()
    for b, (budget, base) in enumerate(BUDGET_CFGS):
        cfg = replace(base, max_new_tokens=budget)
        guide = None if draft == "none" else {}
        if guide is not None:
            _walk_draws(pol if draft == "exact" else other, mixed_rows(problems, n_rows, 100 + b), cfg, k, draft=guide)
        memo = {}
        rows = mixed_rows(problems, n_rows, b)
        got = _walk_draws(pol, rows, cfg, k, memo, guide)
        seen = set()
        for (problem, rng), (_, copy), bodies in zip(rows, mixed_rows(problems, n_rows, b), got, strict=True):
            want, cut = reference_bodies(pol, problem, cfg, k, copy)
            assert bodies == want
            # a draw cut at its budget has exactly budget tokens
            assert [len(body) == budget_of(problem, cfg) for body in bodies] == cut
            if rng is not None:
                assert rng.bit_generator.state == copy.bit_generator.state
            seen |= visited(pol, problem, bodies, budget_of(problem, cfg))
        # the memo holds every context the draws score, and without a draft nothing else
        assert seen <= set(memo) and (draft != "none" or set(memo) == seen)
        if guide is not None:
            assert seen <= set(guide)
        if base is WIDE_NUCLEUS:
            nuclei |= {len(p.kept) for p in memo.values()}
    # the truncation really cut, and some nucleus was long enough for numpy's pairwise sum
    assert any(8 <= n < pol.vocab.size for n in nuclei), nuclei


def recording_forwards(pol: Policy) -> list[list[tuple[int, ...]]]:
    """Wrap the policy's forward; the returned list gets the contexts of each call on its parameter array."""
    calls, inner = [], pol.forward

    def recorded(theta, ctx_mat):
        if isinstance(theta, np.ndarray):
            calls.append(list(map(tuple, ctx_mat.tolist())))
        return inner(theta, ctx_mat)
    pol.forward = recorded
    return calls


@pytest.mark.parametrize("kind", ["tabular", "neural"])
@pytest.mark.parametrize("budget", [None, 5])
def test_a_walk_without_a_draft_scores_each_context_its_draws_visit_once(kind, budget):
    pol, problems = arith_policy(kind)
    cfg = replace(WIDE_NUCLEUS, max_new_tokens=budget)
    calls = recording_forwards(pol)
    rows = mixed_rows(problems, 17, 1)
    got = _walk_draws(pol, rows, cfg, 8)
    seen = set().union(*(visited(pol, p, bodies, budget_of(p, cfg)) for (p, _), bodies in zip(rows, got)))
    assert sorted(ctx for call in calls for ctx in call) == sorted(seen)
    # k one-draw calls that share a memo draw the same bodies and score the same contexts, each once
    calls.clear()
    memo, rows = {}, mixed_rows(problems, 17, 1)
    one_at_a_time = [_walk_draws(pol, rows, cfg, memo=memo) for _ in range(8)]
    assert [[body for (body,) in draws] for draws in zip(*one_at_a_time)] == got
    assert sorted(ctx for call in calls for ctx in call) == sorted(seen)


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
            assert list(prop.kept) == kept
            assert list(prop.cum) == cum  # exact float equality, every entry
            assert prop.argmax == int(np.argmax(row))


def test_proposals_keep_a_full_nucleus_compact():
    # T = 1, top-p 1 keeps all 22 tokens of every row; two lists of them took about 1,060 bytes per row
    lp = np.log(np.random.default_rng(4).dirichlet(np.ones(22), size=200))
    cfg = DecodeCfg(temperature=1.0, top_p=1.0)
    _proposals(lp, cfg)  # first-call allocations are not the proposals'
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        props = _proposals(lp, cfg)
        kept_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(len(p.kept) == len(p.cum) == 22 for p in props)
    assert kept_bytes / len(props) < 600, kept_bytes / len(props)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_walk_rejects_a_temperature_with_no_finite_scaled_logit():
    pol, problems = arith_policy("tabular")
    rows = [(p, np.random.default_rng(i)) for i, p in enumerate(problems[:3])]
    with pytest.raises(ValueError, match="temperature 1e-310"):
        _walk_draws(pol, rows, DecodeCfg(temperature=1e-310, top_p=1.0))
    # a walk of argmax rows scores the same proposals, so it fails alike, as does an evaluation that samples none
    with pytest.raises(ValueError, match="temperature 1e-310"):
        _walk_draws(pol, [(p, None) for p, _ in rows], DecodeCfg(temperature=1e-310, top_p=1.0))
    with pytest.raises(ValueError, match="temperature 1e-310"):
        evaluate(pol, problems[:3], pol.vocab, k=1, decode_cfg=DecodeCfg(temperature=1e-310), prepend_greedy=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_proposals_give_no_mass_to_an_entry_that_its_temperature_overflows():
    # every row maximum scales to a finite value, and -1e10 / 1e-300 overflows to -inf
    lp = np.array([[0.0, -1e10, -5.0], [-2e-300, -1e10, -3e-300], [-0.5, -1.0, -3.0]])
    cfg = DecodeCfg(temperature=1e-300, top_p=1.0)
    got = [(list(p.kept), list(p.cum)) for p in _proposals(lp, cfg)]
    assert [kept[:2] for kept, _ in got] == [[0], [0, 2], [0]]
    with np.errstate(over="ignore"):
        assert got == [reference_nucleus(row, cfg) for row in lp]


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


# k draws per step with the training horizon, as train_gflownet makes them
STEP_K = 8
STEP_CFG = DecodeCfg(temperature=2.0, top_p=0.9)


def step_cfg(problem) -> DecodeCfg:
    return replace(STEP_CFG, max_new_tokens=problem.max_solution_len)


def step_draws(pol: Policy, problem, rng: np.random.Generator) -> tuple[list[Trajectory], dict]:
    """A step's STEP_K _sample_with_rng draws from rng, sharing one memo, and that memo."""
    memo = {}
    return [_sample_with_rng(pol, problem, step_cfg(problem), rng, memo) for _ in range(STEP_K)], memo


def closed_bodies(pol: Policy, trajs: list[Trajectory]) -> list[tuple[int, ...]]:
    """The body of each draw, a draw cut at its budget first closed by _force_stop."""
    stop, bodies = pol.vocab.stop_id, []
    for traj in trajs:
        if not traj.terminated:
            closed = _force_stop(pol, traj)
            assert closed.terminated and closed.tokens == traj.tokens + (stop,)
            traj = closed
        bodies.append(trajectory_body(traj))
    return bodies


def walk(pol: Policy, problem, seed: int, draft: dict) -> list[tuple[int, ...]]:
    return _walk_draws(pol, [(problem, np.random.default_rng(seed))], step_cfg(problem), STEP_K, draft=draft)[0]


@pytest.mark.parametrize("kind", ["tabular", "neural"])
@pytest.mark.parametrize("draft", ["none", "exact", "wrong"])
def test_walk_equals_k_draws_closed_at_their_budget(kind, draft):
    # a wrong draft holds another policy's proposals: the walk guesses wrong, yet draws exactly
    pol, problems = arith_policy(kind)
    other, _ = arith_policy(kind, seed=5)
    forced = guessed_wrong = 0
    for i, p in enumerate(problems[:8]):
        guide = {}
        if draft == "exact":
            walk(pol, p, i, guide)
        elif draft == "wrong":
            walk(other, p, 100 + i, guide)
        before = dict(guide)
        rng, copy = np.random.default_rng(i), np.random.default_rng(i)
        got = _walk_draws(pol, [(p, rng)], step_cfg(p), STEP_K, draft=guide)[0]
        trajs = [reference_decode(pol, p, p.max_solution_len, STEP_CFG, copy) for _ in range(STEP_K)]
        assert got == closed_bodies(pol, trajs)
        assert rng.bit_generator.state == copy.bit_generator.state
        forced += sum(not t.terminated for t in trajs)
        # the walk leaves in its draft a proposal of every context the draws score
        seen = visited(pol, p, got, p.max_solution_len)
        assert seen <= set(guide)
        guessed_wrong += sum(guide[c].kept != before[c].kept for c in set(before) & seen)
    assert forced > 0
    assert (guessed_wrong > 0) == (draft == "wrong")


def test_walk_with_an_exact_draft_makes_one_forward():
    pol, problems = arith_policy("tabular")
    calls = recording_forwards(pol)
    for i, p in enumerate(problems):
        _, exact = step_draws(pol, p, np.random.default_rng(i))
        calls.clear()
        walk(pol, p, i, exact)
        assert len(calls) == 1


def reference_evaluate(policy, problems, vocab, k, cfg, seed, prepend_greedy) -> list[ProblemEval]:
    """evaluate one problem at a time: greedy, then k draws from the (seed, index) generator."""
    rows = []
    for i, p in enumerate(problems):
        rng, budget = np.random.default_rng([seed, i]), cfg.max_new_tokens
        greedy = solution_from_body(p, trajectory_body(reference_decode(policy, p, budget, None, None)), vocab)
        sampled = [solution_from_body(p, trajectory_body(reference_decode(policy, p, budget, cfg, rng)), vocab)
                   for _ in range(k - 1 if prepend_greedy else k)]
        solutions = [greedy] + sampled if prepend_greedy else sampled
        rows.append(ProblemEval(i, greedy.correct, [s.correct for s in solutions],
                                distinct_correct_count(solutions)))
    return rows


@lru_cache(maxsize=None)  # no caller changes the policy or the problems
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


def per_index_evaluate(policy, problems, vocab, k, cfg, seed, prepend_greedy) -> list[ProblemEval]:
    """The earlier evaluation: one greedy walk, then one walk per draw index, each with a fresh memo."""
    draw_rows = [(p, np.random.default_rng([seed, i])) for i, p in enumerate(problems)]
    greedy = _walk_draws(policy, [(p, None) for p in problems], cfg)
    solutions = [[solution_from_body(p, body, vocab)] for p, (body,) in zip(problems, greedy)]
    for _ in range(k - 1 if prepend_greedy else k):
        for sols, p, (body,) in zip(solutions, problems, _walk_draws(policy, draw_rows, cfg)):
            sols.append(solution_from_body(p, body, vocab))
    rows = []
    for i, (greedy_sol, *sampled) in enumerate(solutions):
        scored = [greedy_sol] + sampled if prepend_greedy else sampled
        rows.append(ProblemEval(i, greedy_sol.correct, [s.correct for s in scored],
                                distinct_correct_count(scored)))
    return rows


@pytest.mark.parametrize("top_p", [0.95, 1.0])  # 1.0 keeps every token in the nucleus
@pytest.mark.parametrize("prepend_greedy", [False, True])
@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("kind", ["tabular", "neural"])
def test_one_walk_evaluation_equals_a_walk_per_draw_index(kind, k, prepend_greedy, top_p):
    # k = 1 with prepend_greedy walks zero sampled draws
    pol, problems = fitted_sumpath(kind)
    cfg = DecodeCfg(temperature=1.0, top_p=top_p, max_new_tokens=5)
    report = evaluate(pol, problems, pol.vocab, k=k, decode_cfg=cfg, seed=3, prepend_greedy=prepend_greedy)
    assert report.rows == per_index_evaluate(pol, problems, pol.vocab, k, cfg, 3, prepend_greedy)
    if k == 8:  # the comparison can tell draws apart
        assert any(0 < r.n_correct < k for r in report.rows)


@pytest.mark.parametrize("prepend_greedy", [False, True])
@pytest.mark.parametrize("kind", ["tabular", "neural"])
def test_evaluate_scores_each_context_once(kind, prepend_greedy):
    # the greedy walk and the sampled walk share one memo at one parameter state
    pol, problems = arith_policy(kind)
    calls = recording_forwards(pol)
    report = evaluate(pol, problems, pol.vocab, k=4, decode_cfg=WIDE_NUCLEUS, seed=3, prepend_greedy=prepend_greedy)
    scored = [ctx for call in calls for ctx in call]
    assert len(scored) == len(set(scored)) > len(problems)
    assert report.rows == reference_evaluate(pol, problems, pol.vocab, 4, WIDE_NUCLEUS, 3, prepend_greedy)


@pytest.mark.parametrize("prepend_greedy", [False, True])
@pytest.mark.parametrize("kind", ["tabular", "neural"])
def test_eval_problems_draws_every_sample_in_one_walk(monkeypatch, kind, prepend_greedy):
    pol, problems = fitted_sumpath(kind)
    cfg, n = DecodeCfg(temperature=1.0, top_p=0.95, max_new_tokens=5), 7 if prepend_greedy else 8
    walks = []

    def recording(policy, rows, decode_cfg, k=1, **kw):
        walks.append(_walk_draws(policy, rows, decode_cfg, k, **kw))
        return walks[-1]

    monkeypatch.setattr(evaluation, "_walk_draws", recording)
    evaluation.evaluate(pol, problems, pol.vocab, k=8, decode_cfg=cfg, seed=3, prepend_greedy=prepend_greedy)
    assert len(walks) == 2  # greedy, then sampled
    draw_rows = [(p, np.random.default_rng([3, i])) for i, p in enumerate(problems)]
    per_index = [_walk_draws(pol, draw_rows, cfg) for _ in range(n)]
    assert walks[1] == [[body for (body,) in draws] for draws in zip(*per_index)]
