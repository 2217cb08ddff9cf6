"""Accuracy and diversity metrics: greedy accuracy, pass@k, ROUGE-L, distinct counting.

Two solutions count as distinct when the ROUGE-L F1 over their reasoning-step
tokens falls below 0.7; the final-answer segment is excluded from similarity
so diversity reflects the derivation, not the shared answer. Distinct counting
keeps solutions greedily in sampling order, which makes the count order
dependent; the report records that rule.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import Problem, Solution, TaskKind, Vocab
from .env import extract_answer
from .policy import DecodeCfg, DecodeRow, Policy, _decode, trajectory_body
# not called here: perfbench/layers.py wraps these names where evaluation binds them
from .policy import _sample_with_rng, greedy_decode  # noqa: F401

DISTINCT_THRESHOLD = 0.7
ANSWER_ROUNDING = 6


class KTooLarge(ValueError):
    """k exceeds the number of recorded samples."""


def rouge_l(a, b) -> float:
    """LCS-based F1 similarity of two token sequences; 0 when either is empty."""
    a = list(a)
    b = list(b)
    if not a or not b:
        return 0.0
    # O(|a||b|) dp over prefix pairs, rolling one row
    prev = np.zeros(len(b) + 1, dtype=np.int64)
    for x in a:
        cur = np.zeros_like(prev)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    lcs = int(prev[-1])
    if lcs == 0:
        return 0.0
    p = lcs / len(a)
    r = lcs / len(b)
    return 2.0 * p * r / (p + r)


def distinct_correct_count(solutions: list[Solution], threshold: float = DISTINCT_THRESHOLD) -> int:
    """Correct solutions kept greedily in order; a newcomer must differ from every kept one."""
    kept: list[Solution] = []
    for sol in solutions:
        if not sol.correct:
            continue
        if all(rouge_l(sol.step_tokens, other.step_tokens) < threshold for other in kept):
            kept.append(sol)
    return len(kept)


def pass_at_k(correctness: list[list[bool]] | np.ndarray, k: int) -> float:
    """Fraction of rows whose first k entries contain at least one success."""
    rows = [list(row) for row in correctness]
    if k < 1:
        raise KTooLarge("k must be at least 1")
    short = [len(r) for r in rows if len(r) < k]
    if short:
        raise KTooLarge(f"k={k} but a row has only {min(short)} samples")
    if not rows:
        return 0.0
    return float(np.mean([any(r[:k]) for r in rows]))


def answers_match(answer: Fraction | None, target: Fraction) -> bool:
    """Exact-rational equality after rounding both sides to six decimal places."""
    if answer is None:
        return False
    return round(answer, ANSWER_ROUNDING) == round(target, ANSWER_ROUNDING)


def solution_from_body(
    problem: Problem, body: tuple[int, ...], vocab: Vocab
) -> Solution:
    """Grade one generated body and split off its reasoning-step tokens."""
    answer = extract_answer(problem, body, vocab)
    correct = answers_match(answer, problem.target)
    steps = body
    if problem.task_kind is TaskKind.ARITH:
        # similarity looks at derivation lines only, not the answer segment
        marker = vocab.token_id("ANSWER")
        for i in range(len(body) - 1, -1, -1):
            if body[i] == marker:
                steps = body[:i]
                break
    return Solution(final_answer=answer, correct=correct, step_tokens=tuple(steps))


@dataclass
class ProblemEval:
    """Everything measured for one problem."""

    problem_id: int
    greedy_correct: bool
    sample_correctness: list[bool]
    distinct_correct: int

    @property
    def n_correct(self) -> int:
        return sum(self.sample_correctness)


@dataclass
class EvalReport:
    """Per-problem measurements plus their aggregates.

    pass_at[k] is non-decreasing in k, and each problem's distinct_correct is
    bounded by its correct-sample count; both are consequences of the
    definitions, not post-hoc clamps.
    """

    k: int
    rows: list[ProblemEval] = field(default_factory=list)
    clustering: str = "greedy-in-sampling-order"

    @property
    def greedy_accuracy(self) -> float:
        if not self.rows:
            return 0.0
        return float(np.mean([r.greedy_correct for r in self.rows]))

    @property
    def pass_at(self) -> dict[int, float]:
        matrix = [r.sample_correctness for r in self.rows]
        return {kk: pass_at_k(matrix, kk) for kk in range(1, self.k + 1)}

    @property
    def mean_distinct_correct(self) -> float:
        if not self.rows:
            return 0.0
        return float(np.mean([r.distinct_correct for r in self.rows]))

    def aggregate_dict(self) -> dict:
        return {
            "clustering": self.clustering,
            "greedy_accuracy": self.greedy_accuracy,
            "k": self.k,
            "mean_distinct_correct": self.mean_distinct_correct,
            "n_problems": len(self.rows),
            "pass_at": {str(kk): v for kk, v in self.pass_at.items()},
        }

    def write_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(self.aggregate_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def write_csv(self, path: str | Path) -> None:
        import csv

        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "greedy_correct", "n_correct", "distinct_correct", "pass_bits"])
            for r in self.rows:
                bits = "".join("1" if c else "0" for c in r.sample_correctness)
                writer.writerow([r.problem_id, int(r.greedy_correct), r.n_correct,
                                 r.distinct_correct, bits])


def _eval_problems(
    policy: Policy,
    problems: list[Problem],
    vocab: Vocab,
    k: int,
    decode_cfg: DecodeCfg,
    seed: int,
    start: int,
    prepend_greedy: bool,
) -> list[ProblemEval]:
    """Rows for problems start, start+1, ...: one lockstep greedy decode, then one per draw index.

    Problem start+i draws from its own generator seeded by (seed, start+i),
    in the order a problem-at-a-time loop would, so the rows do not depend on
    how the problems are split.
    """
    budget = decode_cfg.max_new_tokens
    rngs = [np.random.default_rng([seed, start + i]) for i in range(len(problems))]
    greedy = _decode(policy, [DecodeRow(p, budget) for p in problems])
    solutions = [[solution_from_body(p, trajectory_body(t), vocab)] for p, t in zip(problems, greedy)]
    for _ in range(k - 1 if prepend_greedy else k):
        drawn = _decode(policy, [DecodeRow(p, budget, rng) for p, rng in zip(problems, rngs)], decode_cfg)
        for sols, p, t in zip(solutions, problems, drawn):
            sols.append(solution_from_body(p, trajectory_body(t), vocab))
    rows = []
    for i, (greedy_sol, *sampled) in enumerate(solutions):
        scored = [greedy_sol] + sampled if prepend_greedy else sampled
        rows.append(ProblemEval(
            problem_id=start + i,
            greedy_correct=greedy_sol.correct,
            sample_correctness=[s.correct for s in scored],
            distinct_correct=distinct_correct_count(scored),
        ))
    return rows


def evaluate(
    policy: Policy,
    problems: list[Problem],
    vocab: Vocab,
    k: int = 8,
    decode_cfg: DecodeCfg | None = None,
    seed: int = 0,
    prepend_greedy: bool = False,
    workers: int = 1,
) -> EvalReport:
    """Greedy decode plus k stochastic samples per problem.

    Problems decode in lockstep, and each draws from its own generator seeded
    by (seed, index), so the report is identical for any worker count: with
    workers > 1 each worker evaluates one contiguous chunk of the problems.
    With prepend_greedy the greedy solution stands in as sample 0, which
    makes greedy accuracy a lower bound on every pass@k.
    """
    if not problems:
        raise ValueError("no problems to evaluate")
    decode_cfg = decode_cfg or DecodeCfg()
    bounds = np.linspace(0, len(problems), min(max(workers, 1), len(problems)) + 1).astype(int).tolist()
    chunks = [(policy, problems[a:b], vocab, k, decode_cfg, seed, a, prepend_greedy)
              for a, b in zip(bounds, bounds[1:])]
    if len(chunks) == 1:
        parts = [_eval_problems(*chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = [f.result() for f in [pool.submit(_eval_problems, *c) for c in chunks]]
    report = EvalReport(k=k)
    report.rows.extend(row for part in parts for row in part)
    return report
