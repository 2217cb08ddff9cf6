"""Autoregressive next-token policies with tabular and tiny-neural parameterizations.

Both kinds condition on the last `window` tokens of the running sequence,
left-padded with a reserved PAD id (= vocab.size). The tabular kind keeps one
logit row per observed context and can represent any conditional distribution
over short horizons exactly; the neural kind is a one-hidden-layer MLP over
concatenated token embeddings. The PPO critic (ValueNet) is the same
parameterisation with one output per context instead of one per token.

Log-probabilities always come from a fused log-softmax, and sampling records
the unmodified policy log-probabilities rather than the truncated proposal, so
losses evaluated on replayed trajectories see the true policy.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate, count
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .core import Problem, Trajectory, Vocab, check_fields
from .env import left_sum, level_rows, terminal_levels

MAGIC = b"FSEQPOL1"
# contexts per batch_log_probs call in terminal_distribution, which bounds its temporaries
SCORE_ROWS = 4096


class CheckpointMismatch(ValueError):
    """A checkpoint was produced for a different vocabulary or architecture."""


class PolicyKind(str, Enum):
    TABULAR = "TABULAR"
    NEURAL = "NEURAL"


@dataclass(frozen=True)
class DecodeCfg:
    """Decoding settings: temperature scaling then nucleus truncation.

    max_new_tokens counts every draw including the stop symbol; None means
    problem.max_solution_len + 1, which keeps sampled terminals inside the
    exact-enumeration support.
    """

    temperature: float = 0.6
    top_p: float = 0.9
    max_new_tokens: int | None = None

    def __post_init__(self) -> None:
        check_fields(self, "be positive and finite", "temperature")
        check_fields(self, "lie in (0, 1]", "top_p")
        if self.max_new_tokens is not None:
            check_fields(self, "be at least 1", "max_new_tokens")


class Policy:
    """Conditional next-token distribution with a flat parameter vector.

    Attributes:
        kind: TABULAR or NEURAL.
        vocab: token inventory the policy emits over.
        window: context length w.
        params: flat float64 parameter vector theta.
    """

    def __init__(
        self,
        kind: PolicyKind,
        vocab: Vocab,
        window: int,
        params: np.ndarray,
        embed_dim: int = 0,
        hidden_dim: int = 0,
        contexts: dict[tuple[int, ...], int] | None = None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.kind = kind
        self.vocab = vocab
        self.window = window
        self.params = np.asarray(params, dtype=np.float64)
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.contexts: dict[tuple[int, ...], int] = dict(contexts or {})

    @property
    def pad_id(self) -> int:
        return self.vocab.size

    @property
    def width(self) -> int:
        """Outputs per context: one logit per vocabulary token."""
        return self.vocab.size

    @classmethod
    def tabular(cls, vocab: Vocab, window: int = 3) -> "Policy":
        """Fresh tabular policy; rows appear lazily and start uniform."""
        return cls(PolicyKind.TABULAR, vocab, window, np.zeros(0))

    @classmethod
    def neural(
        cls, vocab: Vocab, window: int = 3, embed_dim: int = 16, hidden_dim: int = 64, seed: int = 0
    ) -> "Policy":
        policy = cls(PolicyKind.NEURAL, vocab, window, np.zeros(0), embed_dim, hidden_dim)
        policy.params = np.random.default_rng(seed).normal(0.0, 0.02, size=policy._param_count())
        return policy

    @cached_property
    def _neural_blocks(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """(start, end, shape) of the embedding, w1, b1, w2 and b2 blocks in params; fixed at construction."""
        v, w, e, h, o = self.vocab.size, self.window, self.embed_dim, self.hidden_dim, self.width
        shapes = [(v + 1, e), (w * e, h), (h,), (h, o), (o,)]
        offsets = list(accumulate(map(math.prod, shapes), initial=0))
        return list(zip(offsets, offsets[1:], shapes))

    def _param_count(self, n_rows: int = 0) -> int:
        """Length of params: n_rows table rows when tabular, the MLP blocks when neural."""
        if self.kind is PolicyKind.TABULAR:
            return n_rows * self.width
        return self._neural_blocks[-1][1]

    def clone(self) -> "Policy":
        return type(self)(
            self.kind,
            self.vocab,
            self.window,
            self.params.copy(),
            self.embed_dim,
            self.hidden_dim,
            dict(self.contexts),
        )

    # context handling

    def context_of(self, prefix: tuple[int, ...] | list[int]) -> tuple[int, ...]:
        """Last `window` tokens, left-padded with the PAD id."""
        tail = tuple(prefix[-self.window:]) if self.window <= len(prefix) else tuple(prefix)
        return (self.pad_id,) * (self.window - len(tail)) + tail

    def windows(self, items: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> np.ndarray:
        """Contexts before positions 0..len(body) of each (prompt_tokens, body) item, in item order.

        One gather over the items' PAD-prefixed sequences laid end to end: the
        context before position t starts t tokens after the prompt's first token.
        """
        pad = (self.pad_id,) * self.window
        flat, starts = [], []
        for prompt, body in items:
            start = len(flat) + len(prompt)
            flat += pad + prompt + body
            starts += range(start, start + len(body) + 1)
        return np.array(flat, dtype=np.int64)[np.array(starts, dtype=np.int64)[:, None] + np.arange(self.window)]

    def _rows(self, ctx_mat: np.ndarray, grow: bool = False) -> list[int]:
        """Table row of each context, -1 when unregistered; grow appends new contexts in first-appearance order."""
        keys = list(map(tuple, ctx_mat.tolist()))
        if grow:
            new = dict.fromkeys(k for k in keys if k not in self.contexts)
            if new:
                self.contexts.update(zip(new, count(len(self.contexts))))
                self.params = np.concatenate([self.params, np.zeros(len(new) * self.width)])
        get = self.contexts.get
        return [get(k, -1) for k in keys]

    def register_prefixes(self, prompt_tokens: tuple[int, ...], gen_body: tuple[int, ...]) -> None:
        """Register one trajectory's contexts; kept as the name perfbench/layers.py wraps."""
        self.register([(prompt_tokens, gen_body)])

    def register(self, items: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> None:
        """Register the contexts of every (prompt_tokens, body) item in item order; a no-op when neural."""
        if self.kind is PolicyKind.TABULAR:
            self._rows(self.windows(items), grow=True)

    # the forward, on the parameter array or on a tape variable

    def next_log_probs(self, prefix: tuple[int, ...] | list[int]) -> np.ndarray:
        """Log-probabilities over the vocabulary for the next position."""
        return self.batch_log_probs(np.asarray([self.context_of(prefix)], dtype=np.int64))[0]

    def batch_log_probs(self, ctx_mat: np.ndarray) -> np.ndarray:
        return self.rows_var(self.params, ctx_mat)

    def rows_var(self, theta: Var | np.ndarray, ctx_mat: np.ndarray) -> Var | np.ndarray:
        """Log-softmax rows, one per context, of theta: a tape variable, or an array (then an array)."""
        return ad.log_softmax(self._outputs(theta, ctx_mat))

    def _outputs(self, theta: Var | np.ndarray, ctx_mat: np.ndarray) -> Var | np.ndarray:
        """Pre-softmax outputs, one row of `width` per context.

        An unregistered tabular context reads a zero row from a parameter
        array and raises KeyError on a tape: tabular contexts must be
        registered before the tape is built so the parameters do not grow
        mid-evaluation.
        """
        if self.kind is PolicyKind.TABULAR:
            rows = self._rows(ctx_mat)
            table = theta.reshape(-1, self.width)
            if -1 in rows:
                if isinstance(theta, Var):
                    raise KeyError(f"unregistered tabular context {tuple(ctx_mat[rows.index(-1)].tolist())}")
                # row -1 is then a zero row appended to a copy of the table
                table = np.concatenate([table, np.zeros((1, self.width))])
            return table[rows]
        emb, w1, b1, w2, b2 = (theta[start:end].reshape(shape) for start, end, shape in self._neural_blocks)
        x = emb[ctx_mat].reshape(ctx_mat.shape[0], -1)
        hidden = ad.tanh(x @ w1 + b1)
        return hidden @ w2 + b2


def generation_log_probs(
    policy: Policy, prompt_tokens: tuple[int, ...], gen_body: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-token log-probabilities of a generated body under the policy's parameters.

    Returns (lp_tok, lp_stop): lp_tok[t] scores gen_body[t], lp_stop[t] scores
    the stop symbol right after the first t generated tokens, t = 0..n.
    """
    lp_tok, lp_stop, _ = batched_generation_log_vars(policy, policy.params, [(prompt_tokens, gen_body)])
    return lp_tok[0], lp_stop[0]


def batched_generation_log_vars(
    policy: Policy, theta: Var | np.ndarray, items: list[tuple[tuple[int, ...], tuple[int, ...]]]
) -> tuple[Var | np.ndarray, Var | np.ndarray, np.ndarray]:
    """The forward pass: one rows_var over every (prompt_tokens, gen_body) item.

    Returns (lp_tok, lp_stop, lengths) for B items whose longest body has L
    tokens: lp_tok[b, t] (B, L) scores token t of body b, lp_stop[b, t]
    (B, L+1) the stop symbol after its first t tokens, lengths (B,) the body
    lengths. Entries past a body's length are exactly zero, without gradient.
    A tape variable theta gives variables, a parameter array gives arrays.
    """
    lengths, row, valid = _padded_layout(tuple(len(body) for _, body in items))
    ctx = policy.windows(items)
    rows = policy.rows_var(theta, ctx)
    # the token at position t is the last one of the context before position t + 1
    lp_tok, lp_stop = rows[row[:, :-1], ctx[row[:, 1:], -1]], rows[row, policy.vocab.stop_id]
    if valid is not None:
        lp_tok, lp_stop = lp_tok * valid[:, 1:], lp_stop * valid
    return lp_tok, lp_stop, lengths


@lru_cache(maxsize=64)
def _padded_layout(n: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(lengths, row, valid) of bodies of n tokens each whose contexts are laid end to end.

    row[b, t] is the context before position t of body b; slots past a body's
    end read its last context, and valid, None when no body is short, masks them.
    """
    lengths, t = np.array(n, dtype=np.int64), np.arange(max(n) + 1)
    first = np.cumsum(lengths + 1) - (lengths + 1)
    row = first[:, None] + np.minimum(t, lengths[:, None])
    valid = t <= lengths[:, None] if min(n) < t.size - 1 else None
    for shared in (lengths, row, valid):  # every caller with these lengths gets these same arrays
        if shared is not None:
            shared.flags.writeable = False
    return lengths, row, valid


def pad_rows(rows: list, width: int) -> np.ndarray:
    """Rows of at most `width` numbers as one zero-padded (len(rows), width) float array."""
    out = np.zeros((len(rows), width))
    for b, r in enumerate(rows):
        out[b, : len(r)] = r
    return out


def sequence_log_prob_vars(lp_tok: Var, lp_stop: Var, lengths: np.ndarray,
                           stopped: np.ndarray | None = None) -> Var:
    """(B, 1) log-probability of each padded body, plus its stop symbol where stopped."""
    stops = lp_stop[np.arange(lengths.size)[:, None], lengths[:, None]]
    if stopped is not None and not stopped.all():
        stops = stops * stopped[:, None]
    return lp_tok @ np.ones((lp_tok.value.shape[1], 1)) + stops


def trajectory_body(traj: Trajectory) -> tuple[int, ...]:
    """Generated tokens with the trailing stop symbol removed."""
    gen = traj.generated
    if traj.terminated:
        gen = gen[:-1]
    return gen


def trajectory_item(traj: Trajectory) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(prompt_tokens, body) of a trajectory: one item for Policy.register and the batched forward."""
    return traj.tokens[: traj.prompt_len], trajectory_body(traj)


@dataclass(frozen=True)
class DecodeRow:
    """One trajectory of a lockstep decode.

    max_new_tokens counts every draw including the stop symbol (None:
    DecodeCfg's default budget); rng None means argmax, otherwise the row
    draws one rng.random() per token from its own generator.
    """

    problem: Problem
    max_new_tokens: int | None = None
    rng: np.random.Generator | None = None


class Proposal(NamedTuple):
    """What decoding needs from one context: its log-probabilities and the proposal drawn from.

    kept lists the nucleus tokens, most probable first, and cum their
    renormalised cumulative probabilities; both are None for an argmax-only decode.
    """

    logprobs: list[float]
    argmax: int
    kept: list[int] | None
    cum: list[float] | None


# context -> Proposal under one parameter state and one DecodeCfg
Memo = dict[tuple[int, ...], Proposal]


def _sample_with_rng(
    policy: Policy, problem: Problem, cfg: DecodeCfg, rng: np.random.Generator, memo: Memo | None = None
) -> Trajectory:
    """Autoregressive draw: temperature scaling, then nucleus truncation, one rng.random() per token.

    Recorded log-probabilities are the unmodified policy values, not the
    truncated proposal's. Draws that share `memo` (same parameters, same cfg)
    score each context once.
    """
    return _decode(policy, [DecodeRow(problem, cfg.max_new_tokens, rng)], cfg, memo)[0]


def greedy_decode(policy: Policy, problem: Problem, max_new_tokens: int | None = None) -> Trajectory:
    """Argmax decoding; ties break toward the lowest token id."""
    return _decode(policy, [DecodeRow(problem, max_new_tokens)])[0]


def _decode(
    policy: Policy, rows: list[DecodeRow], cfg: DecodeCfg | None = None, memo: Memo | None = None
) -> list[Trajectory]:
    """The decode loop, in lockstep over rows: one batch_log_probs per position on the new contexts.

    A row stops after the stop symbol or after its budget. Contexts already in
    `memo` are not scored again; a call without one keeps its own. Each row's
    tokens and log-probabilities equal those of decoding it alone, because
    every operation on a context's scores runs along its own row.
    """
    if cfg is None and any(row.rng is not None for row in rows):
        raise ValueError("sampled rows need a DecodeCfg")
    memo = {} if memo is None else memo
    stop = policy.vocab.stop_id
    tokens = [list(row.problem.prompt_tokens) for row in rows]
    logprobs: list[list[float]] = [[] for _ in rows]
    contexts = [policy.context_of(row.problem.prompt_tokens) for row in rows]
    left = [row.problem.max_solution_len + 1 if row.max_new_tokens is None else row.max_new_tokens
            for row in rows]
    live = [i for i in range(len(rows)) if left[i] > 0]
    while live:
        new = list(dict.fromkeys(contexts[i] for i in live if contexts[i] not in memo))
        if new:
            memo.update(zip(new, _proposals(policy.batch_log_probs(np.asarray(new, dtype=np.int64)), cfg)))
        still = []
        for i in live:
            prop = memo[contexts[i]]
            rng = rows[i].rng
            if rng is None:
                tok = prop.argmax
            else:
                tok = prop.kept[min(bisect_right(prop.cum, rng.random()), len(prop.kept) - 1)]
            tokens[i].append(tok)
            logprobs[i].append(prop.logprobs[tok])
            contexts[i] = contexts[i][1:] + (tok,)
            left[i] -= 1
            if tok != stop and left[i]:
                still.append(i)
        live = still
    return [Trajectory(prompt_len=row.problem.prompt_len, tokens=tuple(toks), logprobs=tuple(lps),
                       terminated=bool(lps) and toks[-1] == stop)
            for row, toks, lps in zip(rows, tokens, logprobs)]


def _proposals(lp: np.ndarray, cfg: DecodeCfg | None) -> list[Proposal]:
    """The Proposal of each row of lp: argmax, and with cfg the temperature-scaled top-p nucleus.

    The arithmetic is that of truncating one row at a time: every reduction
    runs along a row, and each nucleus is renormalised by the sum of its own
    kept slice, grouped by kept count. (A sum over a zero-masked full row
    would not do: from 8 entries on, numpy sums pairwise, in another order.)
    """
    rows, argmax = lp.tolist(), lp.argmax(axis=1).tolist()
    if cfg is None:
        return [Proposal(r, a, None, None) for r, a in zip(rows, argmax)]
    m, v = lp.shape
    add = np.add  # add.reduce / add.accumulate: ndarray.sum / cumsum without their Python wrappers
    scaled = lp / cfg.temperature
    top = np.maximum.reduce(scaled, axis=1, keepdims=True)
    if not np.isfinite(top).all():
        raise ValueError(f"temperature {cfg.temperature} leaves no finite scaled logit")
    probs = np.exp(scaled - top)
    probs /= add.reduce(probs, axis=1, keepdims=True)
    order = np.argsort(-probs, axis=1, kind="stable")
    sorted_probs = probs[np.arange(m)[:, None], order]
    # the nucleus ends at the first cumulative probability >= top_p
    below = add.reduce(add.accumulate(sorted_probs, axis=1) < cfg.top_p, axis=1).tolist()
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(below):
        groups.setdefault(min(n + 1, v), []).append(i)
    kept: list = [None] * m
    cum: list = [None] * m
    for n, sel in groups.items():
        which = slice(None) if len(sel) == m else sel  # a view when every row keeps n
        part = sorted_probs[which, :n]
        renormed = part / add.reduce(part, axis=1, keepdims=True)
        for i, k, c in zip(sel, order[which, :n].tolist(), add.accumulate(renormed, axis=1).tolist()):
            kept[i], cum[i] = k, c
    return [Proposal(*p) for p in zip(rows, argmax, kept, cum)]


@dataclass(frozen=True)
class TerminalDistribution:
    """Exact policy mass of each terminal, in env.terminal_levels order, plus the over-length remainder."""

    probs: np.ndarray
    overflow: float

    @property
    def total_mass(self) -> float:
        return left_sum(self.probs) + self.overflow


def terminal_distribution(policy: Policy, problem: Problem) -> TerminalDistribution:
    """Probability of every terminated sequence up to max_solution_len generated tokens.

    Scores env.terminal_levels level by level, so probs is position-aligned
    with enumerate_terminals. Sequences that would exceed max_solution_len
    contribute to a single overflow mass, so the returned masses sum to one.
    """
    stop, body_ids = policy.vocab.stop_id, policy.vocab.body_ids
    prompt_pad = np.asarray((policy.pad_id,) * policy.window + problem.prompt_tokens, dtype=np.int64)
    probs: list[np.ndarray] = []
    mass = np.ones(1)
    for length, size in enumerate(terminal_levels(problem, policy.vocab)):
        last = length == problem.max_solution_len
        children = []
        for start in range(0, size, SCORE_ROWS):
            m = mass[start : start + SCORE_ROWS]
            seqs = np.concatenate([np.broadcast_to(prompt_pad, (m.size, prompt_pad.size)),
                                   level_rows(body_ids, length, start, m.size)], axis=1)
            p = np.exp(policy.batch_log_probs(seqs[:, -policy.window:]))
            probs.append(m * p[:, stop])
            children.append(m * (1.0 - p[:, stop]) if last else (m[:, None] * p[:, body_ids]).reshape(-1))
        mass = np.concatenate(children)
    # mass now holds the last level's over-length masses: sum them in a depth-first walk's (reverse) order
    return TerminalDistribution(probs=np.concatenate(probs), overflow=left_sum(mass[::-1]))


class ValueNet(Policy):
    """Scalar state-value critic: a Policy with one output per context.

    Parameters are fully disjoint from any policy: the tabular kind keeps one
    value per observed context, the neural kind its own MLP with a scalar output.
    """

    width = 1

    @classmethod
    def for_policy(cls, policy: Policy, seed: int = 0) -> "ValueNet":
        if policy.kind is PolicyKind.TABULAR:
            return cls.tabular(policy.vocab, policy.window)
        return cls.neural(policy.vocab, policy.window, policy.embed_dim, policy.hidden_dim, seed)

    def values(self, ctx_mat: np.ndarray) -> np.ndarray:
        return self.values_var(self.params, ctx_mat)

    def values_var(self, theta: Var | np.ndarray, ctx_mat: np.ndarray) -> Var | np.ndarray:
        """One value per context, of theta: a tape variable, or an array (then an array)."""
        return self._outputs(theta, ctx_mat)[:, 0]


def save_policy(path: str, policy: Policy) -> None:
    """Binary checkpoint: fixed header, tabular context table, float64 params."""
    kind_code = 0 if policy.kind is PolicyKind.TABULAR else 1
    digest = bytes.fromhex(policy.vocab.content_hash())
    header = MAGIC + struct.pack(
        "<BIIIIQ",
        kind_code,
        policy.window,
        policy.embed_dim,
        policy.hidden_dim,
        len(policy.contexts),
        policy.params.size,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(digest)
        if policy.kind is PolicyKind.TABULAR:
            table = np.empty((len(policy.contexts), policy.window), dtype="<i4")
            for ctx, row in policy.contexts.items():
                table[row] = ctx
            fh.write(table.tobytes())
        fh.write(policy.params.astype("<f8").tobytes())


def load_policy(path: str, vocab: Vocab) -> Policy:
    """Read a save_policy checkpoint; any corrupt or foreign file raises CheckpointMismatch."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = len(MAGIC) + struct.calcsize("<BIIIIQ")
    if blob[: len(MAGIC)] != MAGIC or len(blob) < head + 32:
        raise CheckpointMismatch("not a policy checkpoint, or truncated in its header")
    kind_code, window, embed_dim, hidden_dim, n_rows, n_params = struct.unpack_from("<BIIIIQ", blob, len(MAGIC))
    if kind_code not in (0, 1) or window < 1:
        raise CheckpointMismatch(f"bad header: kind code {kind_code}, window {window}")
    if blob[head : head + 32] != bytes.fromhex(vocab.content_hash()):
        raise CheckpointMismatch("checkpoint was built for a different vocabulary")
    kind = PolicyKind.TABULAR if kind_code == 0 else PolicyKind.NEURAL
    policy = Policy(kind, vocab, window, np.zeros(0), embed_dim, hidden_dim)
    if n_params != policy._param_count(n_rows):
        raise CheckpointMismatch(f"{n_params} parameters do not fit the header's architecture")
    off = head + 32
    table_bytes = 4 * n_rows * window if kind is PolicyKind.TABULAR else 0
    size = off + table_bytes + 8 * n_params
    if len(blob) != size:
        raise CheckpointMismatch(f"checkpoint has {len(blob)} bytes where its header implies {size}")
    table = np.frombuffer(blob, dtype="<i4", count=table_bytes // 4, offset=off).reshape(-1, window)
    bad = table[(table < 0) | (table > policy.pad_id)]
    if bad.size:
        raise CheckpointMismatch(f"context token id {bad[0]} is outside 0..{policy.pad_id}")
    policy.contexts = {tuple(int(t) for t in ctx): row for row, ctx in enumerate(table)}
    if len(policy.contexts) != n_rows:
        raise CheckpointMismatch(f"{len(policy.contexts)} distinct contexts where the header says {n_rows} rows")
    policy.params = np.frombuffer(blob, dtype="<f8", count=n_params, offset=off + table_bytes).copy()
    if not np.isfinite(policy.params).all():
        raise CheckpointMismatch(f"{np.count_nonzero(~np.isfinite(policy.params))} parameters are not finite")
    return policy
