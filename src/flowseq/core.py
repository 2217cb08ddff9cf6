"""Shared token, vocabulary, trajectory, and problem types.

Every other module builds on the types here: a fixed whole-word vocabulary
with a distinguished stop symbol, immutable problems and trajectories, and
graded solutions. Tokens are whole lexical units (numbers, operators,
keywords) joined by single spaces, which keeps sequences short enough for
exact enumeration.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

STOP_TOKEN = "<eos>"


class UnknownToken(ValueError):
    """A text unit is not present in the vocabulary."""


class IdOutOfRange(ValueError):
    """A token id is not a valid index into the vocabulary."""


class SettingError(ValueError):
    """A typed config rejects the value of one of its fields; field names it."""

    def __init__(self, field: str, detail: str) -> None:
        super().__init__(detail)
        self.field = field


# the typed configs' shared range rules, keyed by the words that finish "<field> must ..."
RULES: dict[str, Callable[[Any], bool]] = {
    "be at least 1": lambda v: v >= 1,
    "be non-negative": lambda v: v >= 0,
    "be positive and finite": lambda v: 0 < v < math.inf,
    "be non-negative and finite": lambda v: 0 <= v < math.inf,
    "lie in (0, 1]": lambda v: 0 < v <= 1,
    "lie in (0, 1)": lambda v: 0 < v < 1,
    "lie in [0, 1]": lambda v: 0 <= v <= 1,
}


def check_fields(cfg: object, rule: str, *names: str) -> None:
    """Raise SettingError for the first of cfg's fields `names` whose value breaks RULES[rule]."""
    for name in names:
        value = getattr(cfg, name)
        if not RULES[rule](value):
            raise SettingError(name, f"{name} must {rule}, got {value!r}")


class TaskKind(str, Enum):
    SUMPATH = "SUMPATH"
    ARITH = "ARITH"


@dataclass(frozen=True)
class Vocab:
    """Ordered inventory of distinct token strings plus a stop symbol.

    Attributes:
        tokens: token strings, unique, index = token id.
        stop_id: id of the stop symbol (rendered as "<eos>").
    """

    tokens: tuple[str, ...]
    stop_id: int
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be unique")
        if not 0 <= self.stop_id < len(self.tokens):
            raise ValueError("stop_id must index into tokens")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def body_ids(self) -> list[int]:
        """Every token id but the stop symbol's, ascending."""
        return [i for i in range(self.size) if i != self.stop_id]

    def token_id(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise UnknownToken(token) from None

    def content_hash(self) -> str:
        """Stable digest of the token inventory, used to pair checkpoints with vocabularies."""
        payload = "\x00".join(self.tokens) + f"\x00stop={self.stop_id}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def make_vocab(tokens: Iterable[str]) -> Vocab:
    """Build a Vocab from token strings, appending the stop symbol if absent."""
    toks = list(tokens)
    if STOP_TOKEN not in toks:
        toks.append(STOP_TOKEN)
    return Vocab(tokens=tuple(toks), stop_id=toks.index(STOP_TOKEN))


def encode(text: str, vocab: Vocab) -> list[int]:
    """Map whitespace-separated units of `text` to token ids.

    Raises UnknownToken for any unit outside the vocabulary.
    """
    return [vocab.token_id(unit) for unit in text.split()]


def decode(tokens: Iterable[int], vocab: Vocab) -> str:
    """Join token strings with single spaces; inverse of encode on valid input."""
    parts = []
    for tid in tokens:
        if not 0 <= tid < vocab.size:
            raise IdOutOfRange(f"token id {tid} outside vocabulary of size {vocab.size}")
        parts.append(vocab.tokens[tid])
    return " ".join(parts)


@dataclass(frozen=True)
class Problem:
    """A prompt plus the task facts needed to score generated continuations.

    Attributes:
        task_kind: which synthetic task family the instance belongs to.
        prompt_tokens: conditioning token ids, non-empty.
        target: whole number a correct solution must reach.
        operands: starting integers (ARITH); addend values allowed (SUMPATH).
        max_solution_len: cap on generated tokens before the stop symbol.
    """

    task_kind: TaskKind
    prompt_tokens: tuple[int, ...]
    target: int
    operands: tuple[int, ...]
    max_solution_len: int

    def __post_init__(self) -> None:
        if not self.prompt_tokens:
            raise ValueError("prompt_tokens must be non-empty")
        if type(self.target) is not int:
            raise ValueError(f"target must be an int, got {self.target!r}")
        if any(v <= 0 for v in self.operands):
            raise ValueError("operands must be positive")
        if self.max_solution_len < 1:
            raise ValueError("max_solution_len must be positive")
        object.__setattr__(self, "prompt_tokens", tuple(self.prompt_tokens))
        object.__setattr__(self, "operands", tuple(self.operands))

    @property
    def prompt_len(self) -> int:
        return len(self.prompt_tokens)


@dataclass(frozen=True)
class Trajectory:
    """A full token sequence: prompt, generated tokens, and the stop symbol when `terminated`.

    A draw carries tokens only: code that needs its log-probabilities scores
    it with the batched forward, policy.batched_generation_log_vars.
    """

    prompt_len: int
    tokens: tuple[int, ...]
    terminated: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not 0 < self.prompt_len <= len(self.tokens):
            raise ValueError("prompt_len must lie within the token sequence")

    @property
    def generated(self) -> tuple[int, ...]:
        """Generated token ids, including the stop symbol when terminated."""
        return self.tokens[self.prompt_len:]


@dataclass(frozen=True)
class Solution:
    """A graded solution.

    `step_tokens` hold the reasoning portion only (the final-answer segment is
    excluded) and feed the similarity metric used for distinct counting.
    """

    correct: bool
    step_tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "step_tokens", tuple(self.step_tokens))


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path: str | Path) -> Iterator[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
