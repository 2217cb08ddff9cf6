"""Autoregressive next-token policies with tabular and tiny-neural parameterizations.

Both kinds condition on the last `window` tokens of the running sequence,
left-padded with a reserved PAD id (= vocab.size). The tabular kind keeps one
logit row per observed context and can represent any conditional distribution
over short horizons exactly; the neural kind is a one-hidden-layer MLP over
concatenated token embeddings.

Log-probabilities always come from a fused log-softmax, and sampling records
the unmodified policy log-probabilities rather than the truncated proposal, so
losses evaluated on replayed trajectories see the true policy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .core import Problem, Trajectory, Vocab
from .env import SpaceTooLarge, ENUMERATION_CAP

MAGIC = b"FSEQPOL1"


class InconsistentTrajectory(ValueError):
    """A trajectory does not match its problem prompt or stop-symbol contract."""


class CheckpointMismatch(ValueError):
    """A checkpoint was produced for a different vocabulary or architecture."""


class PolicyKind(str, Enum):
    TABULAR = "TABULAR"
    NEURAL = "NEURAL"


class DecodeMode(str, Enum):
    GREEDY = "GREEDY"
    SAMPLE = "SAMPLE"


@dataclass(frozen=True)
class DecodeCfg:
    """Decoding settings: temperature scaling then nucleus truncation.

    max_new_tokens counts every draw including the stop symbol; None means
    problem.max_solution_len + 1, which keeps sampled terminals inside the
    exact-enumeration support.
    """

    mode: DecodeMode = DecodeMode.SAMPLE
    temperature: float = 0.6
    top_p: float = 0.9
    max_new_tokens: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must lie in (0, 1]")
        if self.max_new_tokens is not None and self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")

    def budget(self, problem: Problem) -> int:
        if self.max_new_tokens is not None:
            return self.max_new_tokens
        return problem.max_solution_len + 1


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

    @classmethod
    def tabular(cls, vocab: Vocab, window: int = 3) -> "Policy":
        """Fresh tabular policy; rows appear lazily and start uniform."""
        return cls(PolicyKind.TABULAR, vocab, window, np.zeros(0))

    @classmethod
    def neural(
        cls, vocab: Vocab, window: int = 3, embed_dim: int = 16, hidden_dim: int = 64, seed: int = 0
    ) -> "Policy":
        rng = np.random.default_rng(seed)
        n = cls._neural_param_count(vocab.size, window, embed_dim, hidden_dim)
        params = rng.normal(0.0, 0.02, size=n)
        return cls(PolicyKind.NEURAL, vocab, window, params, embed_dim, hidden_dim)

    @staticmethod
    def _neural_param_count(v: int, w: int, e: int, h: int) -> int:
        return (v + 1) * e + w * e * h + h + h * v + v

    def clone(self) -> "Policy":
        return Policy(
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

    def register_context(self, ctx: tuple[int, ...]) -> int:
        """Row index for a context, growing the tabular table when new."""
        if self.kind is not PolicyKind.TABULAR:
            raise ValueError("only tabular policies register contexts")
        row = self.contexts.get(ctx)
        if row is None:
            row = len(self.contexts)
            self.contexts[ctx] = row
            self.params = np.concatenate([self.params, np.zeros(self.vocab.size)])
        return row

    def register_prefixes(self, prompt_tokens: tuple[int, ...], gen_body: tuple[int, ...]) -> None:
        """Pre-register every context a trajectory's loss will touch."""
        for t in range(len(gen_body) + 1):
            self.register_context(self.context_of(prompt_tokens + gen_body[:t]))

    # numpy fast paths

    def next_log_probs(self, prefix: tuple[int, ...] | list[int]) -> np.ndarray:
        """Log-probabilities over the vocabulary for the next position."""
        return self.batch_log_probs(np.asarray([self.context_of(prefix)], dtype=np.int64))[0]

    def batch_log_probs(self, ctx_mat: np.ndarray) -> np.ndarray:
        logits = self._logits(ctx_mat)
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))

    def _logits(self, ctx_mat: np.ndarray) -> np.ndarray:
        if self.kind is PolicyKind.TABULAR:
            v = self.vocab.size
            table = self.params.reshape(-1, v) if self.params.size else np.zeros((0, v))
            rows = np.zeros((ctx_mat.shape[0], v))
            for i, ctx in enumerate(map(tuple, ctx_mat)):
                idx = self.contexts.get(ctx)
                if idx is not None:
                    rows[i] = table[idx]
            return rows
        emb, w1, b1, w2, b2 = self._neural_views(self.params)
        x = emb[ctx_mat].reshape(ctx_mat.shape[0], -1)
        hidden = np.tanh(x @ w1 + b1)
        return hidden @ w2 + b2

    def _neural_views(self, theta: np.ndarray):
        v, w, e, h = self.vocab.size, self.window, self.embed_dim, self.hidden_dim
        sizes = [(v + 1) * e, w * e * h, h, h * v, v]
        shapes = [(v + 1, e), (w * e, h), (h,), (h, v), (v,)]
        out = []
        off = 0
        for size, shape in zip(sizes, shapes):
            out.append(theta[off : off + size].reshape(shape))
            off += size
        return out

    # tape paths

    def rows_var(self, theta: Var, ctx_mat: np.ndarray) -> Var:
        """Log-softmax rows (one per context) as a differentiable variable.

        Tabular contexts must be registered before the tape is built so the
        parameter vector does not grow mid-evaluation.
        """
        if self.kind is PolicyKind.TABULAR:
            v = self.vocab.size
            row_idx = np.empty(ctx_mat.shape[0], dtype=np.int64)
            for i, ctx in enumerate(map(tuple, ctx_mat)):
                try:
                    row_idx[i] = self.contexts[ctx]
                except KeyError:
                    raise KeyError(f"unregistered tabular context {ctx}") from None
            flat = row_idx[:, None] * v + np.arange(v)[None, :]
            logits = ad.take(theta, flat)
        else:
            v, w, e, h = self.vocab.size, self.window, self.embed_dim, self.hidden_dim
            emb_idx = ctx_mat[:, :, None] * e + np.arange(e)[None, None, :]
            x = ad.reshape(ad.take(theta, emb_idx), (ctx_mat.shape[0], w * e))
            off = (v + 1) * e
            w1 = ad.reshape(ad.take(theta, off + np.arange(w * e * h)), (w * e, h))
            off += w * e * h
            b1 = ad.take(theta, off + np.arange(h))
            off += h
            w2 = ad.reshape(ad.take(theta, off + np.arange(h * v)), (h, v))
            off += h * v
            b2 = ad.take(theta, off + np.arange(v))
            hidden = ad.tanh(ad.matmul(x, w1) + b1)
            logits = ad.matmul(hidden, w2) + b2
        return ad.log_softmax(logits)


def context_matrix(policy: Policy, prompt_tokens: tuple[int, ...], gen_body: tuple[int, ...]) -> np.ndarray:
    """Contexts before each generated position 0..len(gen_body) (inclusive)."""
    rows = [policy.context_of(prompt_tokens + gen_body[:t]) for t in range(len(gen_body) + 1)]
    return np.asarray(rows, dtype=np.int64)


def generation_log_probs(
    policy: Policy, prompt_tokens: tuple[int, ...], gen_body: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Fast-path per-token log-probabilities for a generated body.

    Returns (lp_tok, lp_stop): lp_tok[t] scores gen_body[t], lp_stop[t] scores
    the stop symbol right after the first t generated tokens, t = 0..n.
    """
    mat = policy.batch_log_probs(context_matrix(policy, prompt_tokens, gen_body))
    n = len(gen_body)
    lp_tok = mat[np.arange(n), np.asarray(gen_body, dtype=np.int64)] if n else np.zeros(0)
    lp_stop = mat[:, policy.vocab.stop_id]
    return lp_tok, lp_stop


def batched_generation_log_vars(
    policy: Policy, theta: Var, items: list[tuple[tuple[int, ...], tuple[int, ...]]]
) -> tuple[Var, Var, np.ndarray]:
    """The differentiable forward pass: one rows_var over every (prompt_tokens, gen_body) item.

    Returns (lp_tok, lp_stop, lengths) for B items whose longest body has L
    tokens: lp_tok[b, t] (B, L) scores token t of body b, lp_stop[b, t]
    (B, L+1) the stop symbol after its first t tokens, lengths (B,) the body
    lengths. Entries past a body's length are exactly zero, without gradient.
    """
    lengths = np.asarray([len(body) for _, body in items], dtype=np.int64)
    width = int(lengths.max()) + 1
    rows = policy.rows_var(theta, np.concatenate([context_matrix(policy, *it) for it in items], axis=0))
    t = np.arange(width)
    # padded slots read the item's own last row, then a mask zeroes them
    last = np.cumsum(lengths + 1)[:, None] - 1
    row = (last + np.minimum(t - lengths[:, None], 0)) * policy.vocab.size
    tokens = pad_rows([body for _, body in items], width - 1).astype(np.int64)
    lp_tok, lp_stop = ad.take(rows, row[:, :-1] + tokens), ad.take(rows, row + policy.vocab.stop_id)
    if lengths.min() < width - 1:
        valid = t <= lengths[:, None]
        lp_tok, lp_stop = lp_tok * valid[:, 1:], lp_stop * valid
    return lp_tok, lp_stop, lengths


def pad_rows(rows: list, width: int) -> np.ndarray:
    """Rows of at most `width` numbers as one zero-padded (len(rows), width) float array."""
    out = np.zeros((len(rows), width))
    for b, r in enumerate(rows):
        out[b, : len(r)] = r
    return out


def sequence_log_prob_vars(lp_tok: Var, lp_stop: Var, lengths: np.ndarray,
                           stopped: np.ndarray | None = None) -> Var:
    """(B, 1) log-probability of each padded body, plus its stop symbol where stopped."""
    stops = ad.take(lp_stop, (np.arange(lengths.size) * lp_stop.value.shape[1] + lengths)[:, None])
    if stopped is not None and not stopped.all():
        stops = stops * stopped[:, None]
    return lp_tok @ np.ones((lp_tok.value.shape[1], 1)) + stops


def trajectory_body(traj: Trajectory) -> tuple[int, ...]:
    """Generated tokens with the trailing stop symbol removed."""
    gen = traj.generated
    if traj.terminated:
        gen = gen[:-1]
    return gen


def logprob(policy: Policy, problem: Problem, traj: Trajectory) -> np.ndarray:
    """Per-token log-probabilities of a trajectory under the current policy.

    Includes the stop symbol for terminated trajectories. The product of the
    corresponding probabilities is the policy's sequence probability.
    """
    _check_consistent(policy, problem, traj)
    body = trajectory_body(traj)
    lp_tok, lp_stop = generation_log_probs(policy, problem.prompt_tokens, body)
    if traj.terminated:
        return np.concatenate([lp_tok, [lp_stop[len(body)]]])
    return lp_tok


def _check_consistent(policy: Policy, problem: Problem, traj: Trajectory) -> None:
    stop = policy.vocab.stop_id
    if traj.prompt_len != problem.prompt_len:
        raise InconsistentTrajectory("prompt length mismatch")
    if tuple(traj.tokens[: traj.prompt_len]) != problem.prompt_tokens:
        raise InconsistentTrajectory("trajectory does not start with the problem prompt")
    gen = traj.generated
    if traj.terminated:
        if not gen or gen[-1] != stop or stop in gen[:-1]:
            raise InconsistentTrajectory("terminated trajectory must end with exactly one stop symbol")
    elif stop in gen:
        raise InconsistentTrajectory("unterminated trajectory cannot contain the stop symbol")


def sample(policy: Policy, problem: Problem, cfg: DecodeCfg) -> Trajectory:
    """Autoregressive draw: temperature scaling, then nucleus truncation.

    Recorded log-probabilities are the unmodified policy values, not the
    truncated proposal's.
    """
    rng = np.random.default_rng(cfg.seed)
    return _sample_with_rng(policy, problem, cfg, rng)


def _sample_with_rng(
    policy: Policy, problem: Problem, cfg: DecodeCfg, rng: np.random.Generator
) -> Trajectory:
    tokens = list(problem.prompt_tokens)
    logprobs: list[float] = []
    terminated = False
    for _ in range(cfg.budget(problem)):
        lp = policy.next_log_probs(tokens)
        tok = _draw(lp, cfg, rng)
        tokens.append(tok)
        logprobs.append(float(lp[tok]))
        if tok == policy.vocab.stop_id:
            terminated = True
            break
    return Trajectory(
        prompt_len=problem.prompt_len,
        tokens=tuple(tokens),
        logprobs=tuple(logprobs),
        terminated=terminated,
    )


def _draw(lp: np.ndarray, cfg: DecodeCfg, rng: np.random.Generator) -> int:
    scaled = lp / cfg.temperature
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    probs = probs / probs.sum()
    order = np.argsort(-probs, kind="stable")
    sorted_probs = probs[order]
    cut = int(np.searchsorted(np.cumsum(sorted_probs), cfg.top_p, side="left"))
    kept = order[: cut + 1]
    kept_probs = sorted_probs[: cut + 1]
    kept_probs = kept_probs / kept_probs.sum()
    r = rng.random()
    pick = int(np.searchsorted(np.cumsum(kept_probs), r, side="right"))
    return int(kept[min(pick, len(kept) - 1)])


def greedy_decode(policy: Policy, problem: Problem, max_new_tokens: int | None = None) -> Trajectory:
    """Argmax decoding; ties break toward the lowest token id."""
    budget = max_new_tokens if max_new_tokens is not None else problem.max_solution_len + 1
    tokens = list(problem.prompt_tokens)
    logprobs: list[float] = []
    terminated = False
    for _ in range(budget):
        lp = policy.next_log_probs(tokens)
        tok = int(np.argmax(lp))
        tokens.append(tok)
        logprobs.append(float(lp[tok]))
        if tok == policy.vocab.stop_id:
            terminated = True
            break
    return Trajectory(
        prompt_len=problem.prompt_len,
        tokens=tuple(tokens),
        logprobs=tuple(logprobs),
        terminated=terminated,
    )


def decode_trajectory(policy: Policy, problem: Problem, cfg: DecodeCfg) -> Trajectory:
    if cfg.mode is DecodeMode.GREEDY:
        return greedy_decode(policy, problem, cfg.max_new_tokens)
    return sample(policy, problem, cfg)


@dataclass(frozen=True)
class TerminalDistribution:
    """Exact policy mass per terminated sequence plus the over-length remainder."""

    probs: dict[tuple[int, ...], float]
    overflow: float

    @property
    def total_mass(self) -> float:
        return float(sum(self.probs.values()) + self.overflow)


def terminal_distribution(policy: Policy, problem: Problem, max_len: int | None = None) -> TerminalDistribution:
    """Probability of every terminated sequence up to max_len generated tokens.

    Sequences that would exceed max_len contribute to a single overflow mass,
    so the returned masses always sum to one.
    """
    max_len = problem.max_solution_len if max_len is None else max_len
    body_ids = [i for i in range(policy.vocab.size) if i != policy.vocab.stop_id]
    count = 0
    term = 1
    for _ in range(max_len + 1):
        count += term
        term *= len(body_ids)
        if count > ENUMERATION_CAP:
            raise SpaceTooLarge(f"terminal space exceeds {ENUMERATION_CAP} sequences")

    probs: dict[tuple[int, ...], float] = {}
    overflow = 0.0
    stop = policy.vocab.stop_id
    stack: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
    while stack:
        body, mass = stack.pop()
        lp = policy.next_log_probs(problem.prompt_tokens + body)
        p = np.exp(lp)
        probs[body] = mass * float(p[stop])
        if len(body) == max_len:
            overflow += mass * float(1.0 - p[stop])
            continue
        for tok in body_ids:
            stack.append((body + (tok,), mass * float(p[tok])))
    return TerminalDistribution(probs=probs, overflow=overflow)


class ValueNet:
    """Scalar state-value head sharing the policy's context machinery.

    Parameters are fully disjoint from any policy. The tabular kind keeps one
    value per observed context; the neural kind reuses the MLP trunk with a
    scalar output.
    """

    def __init__(self, kind: PolicyKind, vocab: Vocab, window: int,
                 embed_dim: int = 0, hidden_dim: int = 0, seed: int = 0) -> None:
        self.kind = kind
        self.vocab = vocab
        self.window = window
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.contexts: dict[tuple[int, ...], int] = {}
        if kind is PolicyKind.TABULAR:
            self.params = np.zeros(0)
        else:
            rng = np.random.default_rng(seed)
            v, e, h = vocab.size, embed_dim, hidden_dim
            self.params = rng.normal(0.0, 0.02, size=(v + 1) * e + window * e * h + h + h + 1)

    @classmethod
    def for_policy(cls, policy: Policy, seed: int = 0) -> "ValueNet":
        return cls(policy.kind, policy.vocab, policy.window, policy.embed_dim, policy.hidden_dim, seed)

    pad_id = Policy.pad_id
    context_of = Policy.context_of

    def register_context(self, ctx: tuple[int, ...]) -> int:
        if self.kind is not PolicyKind.TABULAR:
            raise ValueError("only tabular critics register contexts")
        row = self.contexts.get(ctx)
        if row is None:
            row = len(self.contexts)
            self.contexts[ctx] = row
            self.params = np.concatenate([self.params, np.zeros(1)])
        return row

    register_prefixes = Policy.register_prefixes

    def values(self, ctx_mat: np.ndarray) -> np.ndarray:
        if self.kind is PolicyKind.TABULAR:
            out = np.zeros(ctx_mat.shape[0])
            for i, ctx in enumerate(map(tuple, ctx_mat)):
                idx = self.contexts.get(ctx)
                if idx is not None:
                    out[i] = self.params[idx]
            return out
        emb, w1, b1, w2, b2 = self._views(self.params)
        x = emb[ctx_mat].reshape(ctx_mat.shape[0], -1)
        hidden = np.tanh(x @ w1 + b1)
        return hidden @ w2 + b2

    def _views(self, theta: np.ndarray):
        v, w, e, h = self.vocab.size, self.window, self.embed_dim, self.hidden_dim
        sizes = [(v + 1) * e, w * e * h, h, h, 1]
        shapes = [(v + 1, e), (w * e, h), (h,), (h,), (1,)]
        out = []
        off = 0
        for size, shape in zip(sizes, shapes):
            out.append(theta[off : off + size].reshape(shape))
            off += size
        return out

    def values_var(self, theta: Var, ctx_mat: np.ndarray) -> Var:
        if self.kind is PolicyKind.TABULAR:
            row_idx = np.asarray([self.contexts[tuple(ctx)] for ctx in ctx_mat], dtype=np.int64)
            return ad.take(theta, row_idx)
        v, w, e, h = self.vocab.size, self.window, self.embed_dim, self.hidden_dim
        emb_idx = ctx_mat[:, :, None] * e + np.arange(e)[None, None, :]
        x = ad.reshape(ad.take(theta, emb_idx), (ctx_mat.shape[0], w * e))
        off = (v + 1) * e
        w1 = ad.reshape(ad.take(theta, off + np.arange(w * e * h)), (w * e, h))
        off += w * e * h
        b1 = ad.take(theta, off + np.arange(h))
        off += h
        w2 = ad.reshape(ad.take(theta, off + np.arange(h)), (h, 1))
        off += h
        b2 = ad.take(theta, off + np.arange(1))
        hidden = ad.tanh(ad.matmul(x, w1) + b1)
        return ad.reshape(ad.matmul(hidden, w2), (ctx_mat.shape[0],)) + b2


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
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointMismatch("not a policy checkpoint")
    off = len(MAGIC)
    kind_code, window, embed_dim, hidden_dim, n_rows, n_params = struct.unpack_from("<BIIIIQ", blob, off)
    off += struct.calcsize("<BIIIIQ")
    digest = blob[off : off + 32]
    off += 32
    if digest != bytes.fromhex(vocab.content_hash()):
        raise CheckpointMismatch("checkpoint was built for a different vocabulary")
    contexts: dict[tuple[int, ...], int] = {}
    if kind_code == 0:
        table = np.frombuffer(blob, dtype="<i4", count=n_rows * window, offset=off)
        off += table.nbytes
        for row, ctx in enumerate(table.reshape(n_rows, window)):
            contexts[tuple(int(t) for t in ctx)] = row
    params = np.frombuffer(blob, dtype="<f8", count=n_params, offset=off).copy()
    kind = PolicyKind.TABULAR if kind_code == 0 else PolicyKind.NEURAL
    return Policy(kind, vocab, window, params, embed_dim, hidden_dim, contexts)
