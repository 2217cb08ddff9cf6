"""Accuracy and diversity metrics: greedy accuracy, pass@k, ROUGE-L, distinct counting.

Two solutions count as distinct when the ROUGE-L F1 over their reasoning-step
tokens falls below 0.7; the final-answer segment is excluded from similarity
so diversity reflects the derivation, not the shared answer. Distinct counting
keeps solutions greedily in sampling order, which makes the count order
dependent; the report records that rule. Every solution is drawn by the one
decoder, policy._walk_draws: one greedy walk over the problems, then one
walk that draws every problem's k samples, each problem from its own
generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import Problem, Solution, TaskKind, Vocab
from .env import AnswerState, verify_prefix
from .policy import DecodeCfg, Memo, Policy, _walk_draws
# not called here: perfbench/layers.py wraps these names where evaluation binds them
from .policy import _sample_with_rng, greedy_decode  # noqa: F401

DISTINCT_THRESHOLD = 0.7


class KTooLarge(ValueError):
    """k is below 1 or exceeds the number of recorded samples."""


def rouge_l(a, b) -> float:
    """LCS-based F1 similarity of two token sequences; 0 when either is empty."""
    a = list(a)
    b = list(b)
    if not a or not b:
        return 0.0
    # O(|a||b|) dp over prefix pairs, rolling one row of LCS lengths
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        left = 0
        for diag, up, y in zip(prev, prev[1:], b):
            left = diag + 1 if x == y else (up if up > left else left)
            cur.append(left)
        prev = cur
    lcs = prev[-1]
    if lcs == 0:
        return 0.0
    p = lcs / len(a)
    r = lcs / len(b)
    return 2.0 * p * r / (p + r)


def distinct_correct_count(solutions: list[Solution], threshold: float = DISTINCT_THRESHOLD) -> int:
    """Correct solutions kept greedily in order; a newcomer must differ from every kept one.

    A correct solution whose steps repeat an earlier correct one's is skipped
    without comparing at any threshold up to 1.0, whether or not that one was
    kept. Non-empty steps score 1.0 against their repeat and as much as it does
    against every kept solution; empty steps (a bare answer) score 0 against
    everything, but a second bare answer is the same solution again.
    """
    kept: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for sol in solutions:
        steps = sol.step_tokens
        if not sol.correct or steps in seen:
            continue
        if threshold <= 1.0:
            seen.add(steps)
        if all(rouge_l(steps, other) < threshold for other in kept):
            kept.append(steps)
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


def solution_from_body(
    problem: Problem, body: tuple[int, ...], vocab: Vocab
) -> Solution:
    """Grade one generated body with the reward's verifier and split off its reasoning-step tokens."""
    correct = verify_prefix(problem, problem.prompt_tokens + body, vocab).answer_state is AnswerState.CORRECT
    steps = body
    if problem.task_kind is TaskKind.ARITH:
        # similarity looks at derivation lines only, not the answer segment
        marker = vocab.token_id("ANSWER")
        for i in range(len(body) - 1, -1, -1):
            if body[i] == marker:
                steps = body[:i]
                break
    return Solution(correct=correct, step_tokens=tuple(steps))


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


def evaluate(
    policy: Policy,
    problems: list[Problem],
    vocab: Vocab,
    k: int = 8,
    decode_cfg: DecodeCfg | None = None,
    seed: int = 0,
    prepend_greedy: bool = False,
) -> EvalReport:
    """Greedy decode plus k samples per problem: one greedy walk over the problems, then one walk of all samples.

    Problem i draws its samples from its own generator seeded by (seed, i),
    in the order a problem-at-a-time loop would, so the rows do not depend on
    how the problems are batched. The walks share one memo, so each context
    is scored once, and each distinct body of a problem is graded once. With
    prepend_greedy the greedy solution stands in as sample 0, which makes
    greedy accuracy a lower bound on every pass@k.
    """
    if not problems:
        raise ValueError("no problems to evaluate")
    if k < 1:
        raise KTooLarge(f"k must be at least 1, got {k}")
    decode_cfg = decode_cfg or DecodeCfg()
    draw_rows = [(p, np.random.default_rng([seed, i])) for i, p in enumerate(problems)]
    memo: Memo = {}
    greedy = _walk_draws(policy, [(p, None) for p in problems], decode_cfg, memo=memo)
    sampled = _walk_draws(policy, draw_rows, decode_cfg, k - 1 if prepend_greedy else k, memo=memo)
    report = EvalReport(k=k)
    for i, (p, head, tail) in enumerate(zip(problems, greedy, sampled)):
        graded = {body: solution_from_body(p, body, vocab) for body in dict.fromkeys(head + tail)}
        scored = [graded[body] for body in (head + tail if prepend_greedy else tail)]
        report.rows.append(ProblemEval(
            problem_id=i,
            greedy_correct=graded[head[0]].correct,
            sample_correctness=[s.correct for s in scored],
            distinct_correct=distinct_correct_count(scored),
        ))
    return report
