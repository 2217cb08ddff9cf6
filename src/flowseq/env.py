"""Synthetic multi-solution derivation tasks with programmatic rewards.

Two task families are provided:

* SUMPATH: the prompt is ``SUM <N> :`` and a solution is a sequence of addend
  tokens summing to N, each addend drawn from a fixed part set. Every
  composition of N is a distinct correct solution.
* ARITH: the prompt is ``TARGET <t> FROM <a> <b> [<c>] :`` and a solution is a
  sequence of derivation lines ``<a> <op> <b> = <c>`` (five tokens each, op in
  {+, -, *}) followed by ``ANSWER <v>``. Each line consumes two available
  values and makes its result available.

Rewards are strictly positive so their logarithms are always finite: a floor
``reward_floor`` is paid to every terminated sequence and correct sequences
earn up to 1. The SHAPED mode scales the correctness bonus by the fraction of
arithmetically valid derivation lines.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .core import (
    Problem,
    SettingError,
    TaskKind,
    Vocab,
    decode,
    encode,
    make_vocab,
    read_jsonl,
    write_jsonl,
)

ARITH_OPS = ("+", "-", "*")
ARITH_KEYWORDS = ("TARGET", "FROM", ":", "ANSWER") + ARITH_OPS + ("=",)
ENUMERATION_CAP = 10_000_000
MAKE_PROBLEM_RETRIES = 200


class Unsatisfiable(RuntimeError):
    """No multi-solution instance exists within the configured ranges."""


class SpaceTooLarge(ValueError):
    """The terminal space exceeds the exact-enumeration budget."""


class RewardMode(str, Enum):
    TERMINAL = "TERMINAL"
    SHAPED = "SHAPED"


class AnswerState(str, Enum):
    NONE = "NONE"
    CORRECT = "CORRECT"
    WRONG = "WRONG"


@dataclass(frozen=True)
class TaskConfig:
    """Generation and reward settings for one task family.

    Attributes:
        task_kind: SUMPATH or ARITH.
        value_range: inclusive bounds for targets and operands.
        max_parts: maximum addend count of SUMPATH solutions. ARITH does not
            read it: its problems take 2-3 operands whatever it is set to.
        max_part: largest addend value allowed in SUMPATH solutions.
        reward_floor: strictly positive reward paid to every terminal.
        reward_mode: TERMINAL scores the final answer only; SHAPED also scales
            by the valid-step fraction.
    """

    task_kind: TaskKind
    value_range: tuple[int, int] = (2, 9)
    max_parts: int = 4
    max_part: int = 3
    reward_floor: float = 1e-4
    reward_mode: RewardMode = RewardMode.SHAPED

    def __post_init__(self) -> None:
        lo, hi = self.value_range
        bad = f"value_range must be integer bounds with 1 <= lo <= hi, got {self.value_range}"
        for i, bound in enumerate(self.value_range):
            if not (isinstance(bound, int) and bound >= 1):
                raise SettingError(f"value_range[{i}]", bad)
        if lo > hi:
            raise SettingError("value_range[0]", bad)
        if not 0.0 < self.reward_floor <= 0.01:
            raise SettingError("reward_floor", f"reward_floor must lie in (0, 0.01], got {self.reward_floor}")
        if self.task_kind is TaskKind.SUMPATH and self.max_parts < 2:
            raise SettingError("max_parts", f"max_parts must be at least 2, got {self.max_parts}")
        if self.max_part < 1 or (self.task_kind is TaskKind.SUMPATH and self.max_part > hi):
            raise SettingError("max_part", f"max_part must lie in [1, value_range hi], got {self.max_part}")


@dataclass(frozen=True)
class StepVerdict:
    """Per-prefix derivation audit: line counts plus the final-answer state."""

    valid_steps: int
    total_steps: int
    answer_state: AnswerState

    def __post_init__(self) -> None:
        if self.valid_steps > self.total_steps:
            raise ValueError("valid_steps cannot exceed total_steps")


def build_vocab(cfg: TaskConfig) -> Vocab:
    """Token inventory for a task family: keywords, number literals, stop symbol.

    SUMPATH carries numbers 1..hi; ARITH carries 0..hi so subtraction lines
    can reach zero. Number coverage bounds which derivation values are
    expressible at all.
    """
    _, hi = cfg.value_range
    if cfg.task_kind is TaskKind.SUMPATH:
        tokens = ["SUM", ":"] + [str(i) for i in range(1, hi + 1)]
    else:
        tokens = list(ARITH_KEYWORDS) + [str(i) for i in range(0, hi + 1)]
    return make_vocab(tokens)


def _sumpath_compositions(target: int, parts: tuple[int, ...], max_len: int) -> list[tuple[int, ...]]:
    """All ordered part sequences summing to target, at most max_len long."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, acc: tuple[int, ...]) -> None:
        if remaining == 0:
            if acc:
                out.append(acc)
            return
        if len(acc) == max_len:
            return
        for p in parts:
            if p <= remaining:
                rec(remaining - p, acc + (p,))

    rec(target, ())
    return out


def _arith_derivations(
    operands: tuple[int, ...], target: int, max_lines: int, value_hi: int
) -> list[tuple[str, ...]]:
    """All valid derivations reaching the target, as token-string sequences.

    A derivation uses one to max_lines lines, every line consumes two distinct
    available values, every intermediate stays within [0, value_hi] so it is
    expressible, and the last line's result equals the target, followed by
    ``ANSWER <target>``.
    """
    results: list[tuple[str, ...]] = []

    def rec(avail: tuple[int, ...], lines: tuple[str, ...], n_lines: int, last: int | None) -> None:
        if last == target and n_lines >= 1:
            results.append(lines + ("ANSWER", str(target)))
        if n_lines == max_lines:
            return
        for i, j in itertools.permutations(range(len(avail)), 2):
            a, b = avail[i], avail[j]
            rest = tuple(v for k, v in enumerate(avail) if k not in (i, j))
            for op in ARITH_OPS:
                c = _apply_op(a, op, b)
                if c is None or not 0 <= c <= value_hi:
                    continue
                line = (str(a), op, str(b), "=", str(c))
                rec(rest + (c,), lines + line, n_lines + 1, c)

    rec(tuple(operands), (), 0, None)
    # duplicate line sequences can arise from equal operands at different positions
    seen: set[tuple[str, ...]] = set()
    unique = []
    for seq in results:
        if seq not in seen:
            seen.add(seq)
            unique.append(seq)
    return unique


def _apply_op(a: int, op: str, b: int) -> int | None:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return None


def enumerate_solutions(problem: Problem, cfg: TaskConfig, vocab: Vocab) -> list[tuple[int, ...]]:
    """Fully valid correct solutions as generated-token sequences (stop symbol excluded).

    For SUMPATH these are the compositions of the target; for ARITH the
    derivations whose lines are all valid and whose final line produces the
    answered target. Bare ``ANSWER <t>`` guesses are correct under the reward
    but are not derivations and are not listed. Output order is deterministic:
    shortest first, then lexicographic by token id.
    """
    if problem.task_kind is TaskKind.SUMPATH:
        seqs = [
            tuple(vocab.token_id(str(p)) for p in comp)
            for comp in _sumpath_compositions(problem.target, problem.operands, problem.max_solution_len)
        ]
    else:
        max_lines = max(1, (problem.max_solution_len - 2) // 5)
        _, hi = cfg.value_range
        seqs = [
            tuple(vocab.token_id(t) for t in deriv)
            for deriv in _arith_derivations(problem.operands, problem.target, max_lines, hi)
        ]
    return sorted(seqs, key=lambda s: (len(s), s))


def prompt_text(kind: TaskKind, target: int, operands: tuple[int, ...]) -> str:
    """The prompt that states a problem: ``SUM <N> :``, or ``TARGET <t> FROM <a> <b> [<c>] :``."""
    if kind is TaskKind.SUMPATH:
        return f"SUM {target} :"
    return f"TARGET {target} FROM {' '.join(str(v) for v in operands)} :"


def make_problem(cfg: TaskConfig, seed: int) -> Problem:
    """Draw a problem instance with at least two distinct correct solutions.

    Deterministic in (cfg, seed). Retries rejected draws a bounded number of
    times and raises Unsatisfiable when the configured ranges cannot produce a
    multi-solution instance.
    """
    rng = np.random.default_rng(seed)
    vocab = build_vocab(cfg)
    lo, hi = cfg.value_range
    for _ in range(MAKE_PROBLEM_RETRIES):
        if cfg.task_kind is TaskKind.SUMPATH:
            target = int(rng.integers(lo, hi + 1))
            parts = tuple(range(1, cfg.max_part + 1))
            max_len = min(target, cfg.max_parts)
            candidate = Problem(
                task_kind=TaskKind.SUMPATH,
                prompt_tokens=tuple(encode(prompt_text(TaskKind.SUMPATH, target, parts), vocab)),
                target=target,
                operands=parts,
                max_solution_len=max_len,
            )
        else:
            n_operands = int(rng.integers(2, 4))
            operands = tuple(int(rng.integers(max(1, lo), hi + 1)) for _ in range(n_operands))
            target = _random_arith_target(rng, operands, lo, hi)
            if target is None:
                continue
            candidate = Problem(
                task_kind=TaskKind.ARITH,
                prompt_tokens=tuple(encode(prompt_text(TaskKind.ARITH, target, operands), vocab)),
                target=target,
                operands=operands,
                max_solution_len=5 * (n_operands - 1) + 2,
            )
        if len(enumerate_solutions(candidate, cfg, vocab)) >= 2:
            return candidate
    raise Unsatisfiable(f"no multi-solution {cfg.task_kind.value} instance found in {cfg.value_range}")


def _random_arith_target(rng: np.random.Generator, operands: tuple[int, ...], lo: int, hi: int) -> int | None:
    """Fold the operands in a random order with random ops; None if any value leaves [0, hi]."""
    order = [operands[i] for i in rng.permutation(len(operands))]
    acc = order[0]
    for nxt in order[1:]:
        op = ARITH_OPS[int(rng.integers(0, len(ARITH_OPS)))]
        acc = _apply_op(acc, op, nxt)
        if acc is None or not 0 <= acc <= hi:
            return None
    if acc < lo:
        return None
    return acc


@dataclass(frozen=True)
class _Lexicon:
    """What each token id of a vocabulary means to the verifiers, indexed by token id."""

    numbers: tuple[int | None, ...]  # value of an integer literal
    ops: tuple[str | None, ...]  # arithmetic operator
    answer_id: int  # -1 when the vocabulary has no ANSWER marker
    eq_id: int


@functools.lru_cache(maxsize=16)
def _lexicon(vocab: Vocab) -> _Lexicon:
    toks = vocab.tokens
    return _Lexicon(
        numbers=tuple(int(t) if t.lstrip("-").isdigit() else None for t in toks),
        ops=tuple(t if t in ARITH_OPS else None for t in toks),
        answer_id=toks.index("ANSWER") if "ANSWER" in toks else -1,
        eq_id=toks.index("=") if "=" in toks else -1,
    )


class SumpathVerifier:
    """SUMPATH's verifier state machine: every generated token is one step.

    A step is valid when it is an allowed part and the running sum has not
    overshot the target. A state is ``(running sum, valid steps, steps, ok)``,
    where ok stays true while every step is valid. The answer is CORRECT when
    ok holds and the parts sum exactly to the target, NONE for an empty
    generation, WRONG otherwise.
    """

    def __init__(self, problem: Problem, vocab: Vocab) -> None:
        self.numbers = _lexicon(vocab).numbers
        self.parts = problem.operands
        self.target = problem.target
        self.start = (0, 0, 0, True)

    def step(self, state: tuple, tid: int) -> tuple:
        running, valid, total, ok = state
        value = self.numbers[tid]
        if value is None or value not in self.parts:
            return (running, valid, total + 1, False)
        running += value
        if running <= self.target:
            return (running, valid + 1, total + 1, ok)
        return (running, valid, total + 1, False)

    def verdict(self, state: tuple) -> StepVerdict:
        running, valid, total, ok = state
        if total == 0:
            answer = AnswerState.NONE
        elif ok and running == self.target:
            answer = AnswerState.CORRECT
        else:
            answer = AnswerState.WRONG
        return StepVerdict(valid_steps=valid, total_steps=total, answer_state=answer)


class ArithVerifier:
    """ARITH's verifier state machine.

    Complete five-token chunks before the first ANSWER marker are steps. A
    step is valid when it matches ``<a> <op> <b> = <c>``, the arithmetic
    holds, and both inputs are available: each line consumes its inputs and
    releases its result. Before the first marker a state is ``(available
    values as a sorted tuple, the open line's token ids, valid steps, steps,
    None)``. From the marker on the lines are settled and the last element
    is ``(the last marker's value equals the target, the previous token is a
    marker)``, so the answer is the value after the last marker that has one.
    """

    def __init__(self, problem: Problem, vocab: Vocab) -> None:
        self.lex = _lexicon(vocab)
        self.target = problem.target
        self.start = (tuple(sorted(problem.operands)), (), 0, 0, None)

    def step(self, state: tuple, tid: int) -> tuple:
        avail, line, valid, total, answer = state
        marker = tid == self.lex.answer_id
        if answer is not None:
            hit, after_marker = answer
            if after_marker:
                hit = self.lex.numbers[tid] == self.target
            return ((), (), valid, total, (hit, marker))
        if marker:
            return ((), (), valid, total, (False, True))
        line += (tid,)
        if len(line) < 5:
            return (avail, line, valid, total, None)
        after = self._consume(avail, line)
        if after is None:
            return (avail, (), valid, total + 1, None)
        return (after, (), valid + 1, total + 1, None)

    def _consume(self, avail: tuple[int, ...], line: tuple[int, ...]) -> tuple[int, ...] | None:
        """The available values after a valid line; None when the line is not valid."""
        nums = self.lex.numbers
        a, op, b, c = nums[line[0]], self.lex.ops[line[1]], nums[line[2]], nums[line[4]]
        if a is None or b is None or c is None or op is None or line[3] != self.lex.eq_id:
            return None
        if _apply_op(a, op, b) != c:
            return None
        rest = list(avail)
        if a == b:
            if rest.count(a) < 2:
                return None
        elif a not in rest or b not in rest:
            return None
        rest.remove(a)
        rest.remove(b)
        rest.append(c)
        return tuple(sorted(rest))

    def verdict(self, state: tuple) -> StepVerdict:
        _, _, valid, total, answer = state
        if answer is None:
            answer_state = AnswerState.NONE
        else:
            answer_state = AnswerState.CORRECT if answer[0] else AnswerState.WRONG
        return StepVerdict(valid_steps=valid, total_steps=total, answer_state=answer_state)


def verifier(problem: Problem, vocab: Vocab) -> SumpathVerifier | ArithVerifier:
    """The problem's verifier state machine.

    It has a hashable ``start`` state, ``step(state, token_id) -> state``
    and ``verdict(state) -> StepVerdict``.
    """
    if problem.task_kind is TaskKind.SUMPATH:
        return SumpathVerifier(problem, vocab)
    return ArithVerifier(problem, vocab)


def verify_prefix(problem: Problem, prefix: tuple[int, ...] | list[int], vocab: Vocab) -> StepVerdict:
    """Audit a prompt-consistent prefix, treated as if terminated.

    Folds the problem's verifier over the generated tokens up to the first
    stop symbol; SumpathVerifier and ArithVerifier state the rules.
    """
    prefix = tuple(prefix)
    k = problem.prompt_len
    if prefix[:k] != problem.prompt_tokens:
        raise ValueError("prefix does not start with the problem prompt")
    machine, stop = verifier(problem, vocab), vocab.stop_id
    state = machine.start
    for tid in prefix[k:]:
        if tid == stop:
            break
        state = machine.step(state, tid)
    return machine.verdict(state)


def verdict_reward(verdict: StepVerdict, cfg: TaskConfig) -> float:
    """Strictly positive reward of an audited terminal.

    TERMINAL mode: floor + (1 - floor) * [answer correct].
    SHAPED mode: floor + (1 - floor) * (valid/max(total,1)) * [answer correct].
    """
    eps = cfg.reward_floor
    correct = verdict.answer_state is AnswerState.CORRECT
    if cfg.reward_mode is RewardMode.TERMINAL:
        return eps + (1.0 - eps) * float(correct)
    frac = verdict.valid_steps / max(verdict.total_steps, 1)
    return eps + (1.0 - eps) * frac * float(correct)


def reward(problem: Problem, prefix: tuple[int, ...] | list[int], cfg: TaskConfig, vocab: Vocab) -> float:
    """Strictly positive reward of a prefix treated as terminated (see verdict_reward)."""
    return verdict_reward(verify_prefix(problem, prefix, vocab), cfg)


def terminal_levels(problem: Problem, vocab: Vocab) -> list[int]:
    """The number of bodies of each length 0..max_solution_len, in the one terminal order.

    Every terminated sequence is addressed by its position in that order: by
    length, then in itertools.product order over vocab.body_ids (level_rows
    writes a level's bodies). Raises SpaceTooLarge above the enumeration budget.
    """
    sizes: list[int] = []
    for length in range(problem.max_solution_len + 1):
        sizes.append(len(vocab.body_ids) ** length)
        if sum(sizes) > ENUMERATION_CAP:
            raise SpaceTooLarge(
                f"terminal space exceeds {ENUMERATION_CAP} sequences for "
                f"max_solution_len={problem.max_solution_len}, vocab={vocab.size}"
            )
    return sizes


def level_rows(body_ids: list[int], length: int, start: int, n: int) -> np.ndarray:
    """Bodies start .. start+n-1 of one terminal_levels level, as an (n, length) int64 matrix.

    Body i of a level is i written in base len(body_ids), most significant
    digit first, each digit mapped to its body id: product order.
    """
    places = len(body_ids) ** np.arange(length - 1, -1, -1, dtype=np.int64)
    numbers = np.arange(start, start + n, dtype=np.int64)
    return np.asarray(body_ids, dtype=np.int64)[numbers[:, None] // places % len(body_ids)]


def enumerate_terminals(problem: Problem, cfg: TaskConfig, vocab: Vocab) -> np.ndarray:
    """The reward of every terminated sequence up to max_solution_len, in terminal_levels order.

    Its sum is the partition function Z. Raises SpaceTooLarge above the
    enumeration budget.

    A body's verifier state is its parent's stepped by its last token, so each
    level's states come from the previous level's in the same product order.
    States are numbered as they appear; each state's reward and each state's
    row of children (one per body id) is computed once.
    """
    sizes = terminal_levels(problem, vocab)
    machine, body_ids = verifier(problem, vocab), vocab.body_ids
    states: list[tuple] = []
    rewards: list[float] = []
    index: dict[tuple, int] = {}
    children: dict[int, list[int]] = {}

    def number(state: tuple) -> int:
        i = index.get(state)
        if i is None:
            i = index[state] = len(states)
            states.append(state)
            rewards.append(verdict_reward(machine.verdict(state), cfg))
        return i

    level = [number(machine.start)]
    terminals = list(level)
    for _ in sizes[1:]:
        for i in dict.fromkeys(level):
            if i not in children:
                children[i] = [number(machine.step(states[i], tid)) for tid in body_ids]
        level = [c for i in level for c in children[i]]
        terminals.extend(level)
    return np.asarray(rewards)[terminals]


def left_sum(values: np.ndarray, start: float = 0.0) -> float:
    """start plus the values added left to right, as the builtin sum did before it compensated (3.12)."""
    return float(np.cumsum(np.r_[start, values])[-1])


def problem_record(problem: Problem, problem_id: int, vocab: Vocab) -> dict:
    """JSON-ready record for one problem."""
    return {
        "id": problem_id,
        "task_kind": problem.task_kind.value,
        "prompt": decode(problem.prompt_tokens, vocab),
        "target": str(problem.target),
        "operands": list(problem.operands),
        "max_solution_len": problem.max_solution_len,
    }


def problem_from_record(rec: dict, vocab: Vocab) -> Problem:
    """The problem a problem_record wrote.

    Its target must be a whole number in decimal digits, its operands and max_solution_len JSON integers
    (not booleans), and its prompt the one prompt_text builds from its kind, target and operands, so the
    policy reads the problem the reward grades.
    """
    target = rec["target"]
    if not (isinstance(target, str) and target.isdecimal()):
        raise ValueError(f"problem {rec.get('id')}: target must be a whole number in decimal digits, "
                         f"got {target!r}")
    operands = tuple(rec["operands"])
    for name, value in [("max_solution_len", rec["max_solution_len"]), *(("operand", v) for v in operands)]:
        if type(value) is not int:  # a JSON integer; a float or a bool was once truncated without a word
            raise ValueError(f"problem {rec.get('id')}: {name} must be an integer, got {value!r}")
    kind = TaskKind(rec["task_kind"])
    prompt = prompt_text(kind, int(target), operands)
    if rec["prompt"] != prompt:
        raise ValueError(f"problem {rec.get('id')}: prompt {rec['prompt']!r} does not state the problem, "
                         f"whose prompt is {prompt!r}")
    return Problem(
        task_kind=kind,
        prompt_tokens=tuple(encode(prompt, vocab)),
        target=int(target),
        operands=operands,
        max_solution_len=rec["max_solution_len"],
    )


def write_problems(path: str | Path, problems: list[Problem], vocab: Vocab) -> None:
    write_jsonl(path, (problem_record(p, i, vocab) for i, p in enumerate(problems)))


def read_problems(path: str | Path, vocab: Vocab) -> list[Problem]:
    """The problems of a file that write_problems wrote; a file that holds none raises ValueError."""
    problems = [problem_from_record(rec, vocab) for rec in read_jsonl(path)]
    if not problems:
        raise ValueError(f"{path} holds no problem")
    return problems
