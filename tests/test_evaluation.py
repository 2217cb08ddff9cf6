from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from flowseq.core import Solution, TaskKind
from flowseq.env import RewardMode, TaskConfig, build_vocab, make_problem
from flowseq.evaluation import (
    KTooLarge,
    answers_match,
    distinct_correct_count,
    evaluate,
    pass_at_k,
    rouge_l,
    solution_from_body,
)
from flowseq.gflownet import TrainSet
from flowseq.baselines import SftConfig, sft_train
from flowseq.policy import DecodeCfg, Policy


def lcs_brute(a: list[int], b: list[int]) -> int:
    """Longest common subsequence by enumerating every subsequence of a."""
    best = 0
    for n in range(len(a), best, -1):
        for idx in combinations(range(len(a)), n):
            cand = [a[i] for i in idx]
            it = iter(b)
            if all(x in it for x in cand):
                return n
    return 0


def f1_from_lcs(lcs: int, la: int, lb: int) -> float:
    if lcs == 0:
        return 0.0
    p, r = lcs / la, lcs / lb
    return 2 * p * r / (p + r)


def make_solution(steps: tuple[int, ...], correct: bool = True) -> Solution:
    return Solution(final_answer=Fraction(1), correct=correct, step_tokens=steps)


def fitted_eval_setup():
    cfg = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 3), max_parts=2,
                     max_part=2, reward_mode=RewardMode.TERMINAL)
    vocab = build_vocab(cfg)
    problems = [make_problem(cfg, seed=s) for s in range(4)]
    pol = Policy.tabular(vocab, window=5)
    ds = TrainSet.build(problems, cfg, vocab)
    sft_train(pol, ds, epochs=30, cfg=SftConfig(epochs=30, lr=0.05, seed=0))
    return vocab, problems, pol


def test_rouge_matches_brute_force_subsequence_search():
    rng = np.random.default_rng(0)
    for _ in range(60):
        a = list(rng.integers(0, 3, size=rng.integers(1, 8)))
        b = list(rng.integers(0, 3, size=rng.integers(1, 8)))
        want = f1_from_lcs(lcs_brute(a, b), len(a), len(b))
        assert rouge_l(a, b) == pytest.approx(want, rel=1e-12), (a, b)


def test_rouge_identity_symmetry_and_empties():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = list(rng.integers(0, 4, size=rng.integers(1, 10)))
        b = list(rng.integers(0, 4, size=rng.integers(1, 10)))
        assert rouge_l(a, a) == pytest.approx(1.0)
        assert rouge_l(a, b) == pytest.approx(rouge_l(b, a))
    assert rouge_l([], [1, 2]) == 0.0
    assert rouge_l([1, 2], []) == 0.0
    assert rouge_l([1], [2]) == 0.0


def test_rouge_transposed_middle_is_three_quarters():
    # lcs([a b c d], [a c b d]) = 3, so p = r = 3/4
    assert rouge_l([0, 1, 2, 3], [0, 2, 1, 3]) == pytest.approx(0.75)


def test_distinct_count_collapses_duplicates():
    a = make_solution((0, 1, 2))
    same = make_solution((0, 1, 2))
    other = make_solution((5, 6, 7))
    wrong = make_solution((9, 9, 9), correct=False)
    assert distinct_correct_count([a, same, same]) == 1
    assert distinct_correct_count([a, same, other]) == 2
    assert distinct_correct_count([wrong, wrong]) == 0
    assert distinct_correct_count([]) == 0


def test_distinct_count_respects_threshold():
    a = make_solution((0, 1, 2, 3))
    near = make_solution((0, 1, 2, 4))  # rouge 0.75 vs a
    assert distinct_correct_count([a, near], threshold=0.7) == 1
    assert distinct_correct_count([a, near], threshold=0.8) == 2


def test_pass_at_k_matches_direct_counting():
    rng = np.random.default_rng(2)
    for _ in range(30):
        mat = rng.random((10, 6)) < 0.3
        rows = [list(map(bool, row)) for row in mat]
        for k in range(1, 7):
            want = np.mean([any(r[:k]) for r in rows])
            assert pass_at_k(rows, k) == pytest.approx(want)
        vals = [pass_at_k(rows, k) for k in range(1, 7)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_pass_at_k_rejects_bad_k():
    rows = [[True, False], [False, False]]
    with pytest.raises(KTooLarge):
        pass_at_k(rows, 3)
    with pytest.raises(KTooLarge):
        pass_at_k(rows, 0)


def test_answers_match_rounds_to_six_places():
    assert answers_match(Fraction(1, 3), Fraction(333333, 10**6))
    assert not answers_match(Fraction(1, 2), Fraction(500001, 10**6))
    assert answers_match(Fraction(2), Fraction(2))
    assert not answers_match(None, Fraction(2))


def test_solution_from_body_strips_answer_segment():
    cfg = TaskConfig(task_kind=TaskKind.ARITH, value_range=(2, 9))
    vocab = build_vocab(cfg)
    problem = make_problem(cfg, seed=0)
    marker = vocab.token_id("ANSWER")
    five = vocab.token_id("5")
    two = vocab.token_id("2")
    body = (two, marker, five, marker, five)
    sol = solution_from_body(problem, body, vocab)
    # only the segment after the last marker is the answer
    assert sol.step_tokens == (two, marker, five)


def test_solution_from_body_keeps_full_sum_body():
    cfg = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 3), max_parts=2, max_part=2)
    vocab = build_vocab(cfg)
    problem = make_problem(cfg, seed=1)
    body = (vocab.token_id("1"), vocab.token_id("1"))
    sol = solution_from_body(problem, body, vocab)
    assert sol.step_tokens == body
    assert sol.correct == (problem.target == 2)


def test_evaluate_invariants_hold():
    vocab, problems, pol = fitted_eval_setup()
    report = evaluate(pol, problems, vocab, k=6,
                      decode_cfg=DecodeCfg(temperature=1.0, top_p=1.0), seed=3)
    assert len(report.rows) == len(problems)
    vals = [report.pass_at[k] for k in range(1, 7)]
    assert all(x <= y for x, y in zip(vals, vals[1:]))
    for row in report.rows:
        assert len(row.sample_correctness) == 6
        assert row.distinct_correct <= row.n_correct
    assert report.rows[0].n_correct > 0  # fitted policy finds solutions


def test_evaluate_is_worker_count_independent():
    vocab, problems, pol = fitted_eval_setup()
    kw = dict(k=4, decode_cfg=DecodeCfg(temperature=1.0, top_p=1.0), seed=5)
    one = evaluate(pol, problems, vocab, workers=1, **kw)
    two = evaluate(pol, problems, vocab, workers=2, **kw)
    assert [r.sample_correctness for r in one.rows] == [r.sample_correctness for r in two.rows]
    assert [r.distinct_correct for r in one.rows] == [r.distinct_correct for r in two.rows]


def test_evaluate_prepend_greedy_bounds_pass_rates():
    vocab, problems, pol = fitted_eval_setup()
    report = evaluate(pol, problems, vocab, k=4, prepend_greedy=True,
                      decode_cfg=DecodeCfg(temperature=1.0, top_p=1.0), seed=7)
    for k, v in report.pass_at.items():
        assert report.greedy_accuracy <= v + 1e-12
    # sample 0 is the greedy solution itself
    for row in report.rows:
        assert row.sample_correctness[0] == row.greedy_correct


def test_report_files_round_trip(tmp_path):
    vocab, problems, pol = fitted_eval_setup()
    report = evaluate(pol, problems, vocab, k=3,
                      decode_cfg=DecodeCfg(temperature=1.0, top_p=1.0), seed=0)
    jpath = tmp_path / "agg.json"
    cpath = tmp_path / "rows.csv"
    report.write_json(jpath)
    report.write_csv(cpath)
    agg = json.loads(jpath.read_text())
    assert agg["k"] == 3
    assert agg["n_problems"] == len(problems)
    assert set(agg["pass_at"]) == {"1", "2", "3"}
    assert agg["clustering"] == "greedy-in-sampling-order"
    lines = cpath.read_text().splitlines()
    assert lines[0] == "id,greedy_correct,n_correct,distinct_correct,pass_bits"
    assert len(lines) == 1 + len(problems)
    first = lines[1].split(",")
    assert first[0] == "0" and len(first[4]) == 3
