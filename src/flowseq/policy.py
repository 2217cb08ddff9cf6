"""Autoregressive next-token policies with tabular and tiny-neural parameterizations.

Both kinds condition on the last `window` tokens of the running sequence,
left-padded with a reserved PAD id (= vocab.size). The tabular kind keeps one
logit row per observed context and can represent any conditional distribution
over short horizons exactly; the neural kind is a one-hidden-layer MLP over
concatenated token embeddings. The PPO critic (ValueNet) is the same
parameterisation with one output per context instead of one per token. Both
are evaluated through one method, forward(theta, ctx_mat), on the parameter
array or on a tape variable; only the output head differs.

Log-probabilities always come from a fused log-softmax. Draws carry tokens
only: every log-probability a loss or PPO's old policy reads comes from the
batched forward (batched_generation_log_vars). One decoder draws every token:
_walk_draws walks rows of (problem, generator) in batched forwards, and
evaluation, greedy decoding, the baselines and subTB training all draw
through it.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate, count, islice, repeat
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .core import Problem, Trajectory, Vocab, check_fields
from .env import left_sum, level_rows, terminal_levels

MAGIC = b"FSEQPOL1"
# contexts per forward in terminal_distribution, which bounds its temporaries
SCORE_ROWS = 4096
# one sequence as the forward takes it: (prompt_tokens, body), the body without its stop symbol
Item = tuple[tuple[int, ...], tuple[int, ...]]
# a batch's contexts and their table rows (None for a network), as register_prefixes found them
Lookup = tuple[np.ndarray, list[int] | None]
# a batch's tape forward, as batched_generation_log_vars returns it: (lp_tok, lp_stop, lengths)
Forward = tuple[Var, Var, np.ndarray]


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
        # (the contexts dict coded, its {code: row} dict): see _keyed
        self._coded: tuple[dict, dict] | None = None

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

    def windows(self, items: list[Item]) -> np.ndarray:
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
        """Table row of each context, -1 when unregistered; grow appends new contexts in first-appearance order.

        Each context is probed once in _keyed(): by its code, or by its tuple
        where codes overflow an int64.
        """
        keyed, weights = self._keyed(), self._code_weights
        keys = (ctx_mat @ weights).tolist() if weights is not None else list(map(tuple, ctx_mat.tolist()))
        rows = list(map(keyed.get, keys, repeat(-1)))
        missing = [i for i, row in enumerate(rows) if row < 0] if grow and -1 in rows else ()
        if missing:
            first: dict = {}  # each new key at its first position
            for i in missing:
                first.setdefault(keys[i], i)
            n = len(self.contexts)
            self.contexts.update(zip(map(tuple, ctx_mat[list(first.values())].tolist()), count(n)))
            keyed.update(zip(first, count(n)))
            self.params = np.concatenate([self.params, np.zeros(len(first) * self.width)])
            for i in missing:
                rows[i] = keyed[keys[i]]
        return rows

    @cached_property
    def _code_weights(self) -> np.ndarray | None:
        """Place values that read a context as one base-(pad_id + 1) integer; None when its largest overflows an int64."""
        base = self.pad_id + 1
        if base**self.window - 1 > np.iinfo(np.int64).max:
            return None
        return base ** np.arange(self.window - 1, -1, -1, dtype=np.int64)

    def _keyed(self) -> dict:
        """{code: row} of the registered contexts, or contexts itself when codes overflow an int64.

        Derived from self.contexts: rebuilt when contexts is another dict, and
        caught up with the contexts appended since the last lookup.
        """
        if self._code_weights is None:
            return self.contexts
        if self._coded is None or self._coded[0] is not self.contexts:
            self._coded = (self.contexts, {})
        keyed = self._coded[1]
        if len(keyed) < len(self.contexts):
            added = list(islice(self.contexts.items(), len(keyed), None))
            codes = np.array([ctx for ctx, _ in added], dtype=np.int64) @ self._code_weights
            keyed.update(zip(codes.tolist(), (row for _, row in added)))
        return keyed

    def register_prefixes(self, items: list[Item]) -> Lookup:
        """Register the contexts of every (prompt_tokens, body) item in item order; a network registers nothing.

        Returns the windows matrix and the table rows it found (None for a
        network), which a forward over the same items takes as its lookup.
        """
        ctx = self.windows(items)
        return ctx, self._rows(ctx, grow=True) if self.kind is PolicyKind.TABULAR else None

    # the forward, on the parameter array or on a tape variable

    def forward(self, theta: Var | np.ndarray, ctx_mat: np.ndarray, rows: list[int] | None = None
                ) -> Var | np.ndarray:
        """The output head's rows, one per context, of theta: a tape variable, or an array (then an array).

        The head gives log-softmax rows for a Policy and one value per context
        for a ValueNet. An unregistered tabular context reads a zero row from
        a parameter array and raises KeyError on a tape: tabular contexts must
        be registered before the tape is built so the parameters do not grow
        mid-evaluation. rows, the contexts' table rows when a lookup already
        found them, spares the tabular kind its own.
        """
        if self.kind is PolicyKind.TABULAR:
            rows = self._rows(ctx_mat) if rows is None else rows
            table = theta.reshape(-1, self.width)
            if -1 in rows:
                if isinstance(theta, Var):
                    raise KeyError(f"unregistered tabular context {tuple(ctx_mat[rows.index(-1)].tolist())}")
                # row -1 is then a zero row appended to a copy of the table
                table = np.concatenate([table, np.zeros((1, self.width))])
            return self._head(table[rows] if isinstance(theta, Var) else table.take(rows, axis=0))
        emb, w1, b1, w2, b2 = (theta[start:end].reshape(shape) for start, end, shape in self._neural_blocks)
        x = emb[ctx_mat].reshape(ctx_mat.shape[0], -1)
        hidden = ad.tanh(x @ w1 + b1)
        return self._head(hidden @ w2 + b2)

    # the output head of the `width` outputs per context; ValueNet has its own
    _head = staticmethod(ad.log_softmax)


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
    policy: Policy, theta: Var | np.ndarray, items: list[Item], lookup: Lookup | None = None
) -> tuple[Var | np.ndarray, Var | np.ndarray, np.ndarray]:
    """The forward pass: one policy.forward over every (prompt_tokens, gen_body) item.

    Returns (lp_tok, lp_stop, lengths) for B items whose longest body has L
    tokens: lp_tok[b, t] (B, L) scores token t of body b, lp_stop[b, t]
    (B, L+1) the stop symbol after its first t tokens, lengths (B,) the body
    lengths. Entries past a body's length are exactly zero, without gradient.
    A tape variable theta gives variables, a parameter array gives arrays.
    lookup, what register_prefixes returned for these same items, replaces
    the forward's own windows and row lookup.
    """
    lengths, row, valid = _padded_layout(tuple(len(body) for _, body in items))
    if lookup is None:
        ctx, table_rows = policy.windows(items), None
    else:
        ctx, table_rows = lookup
        n = int(lengths.sum()) + lengths.size
        if len(ctx) != n or table_rows is not None and len(table_rows) != n:
            raise ValueError(f"a lookup registered for other items than these, which have {n} contexts")
    rows = policy.forward(theta, ctx, table_rows)
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


class Proposal(NamedTuple):
    """What decoding needs from one context: its argmax and the proposal drawn from.

    kept holds the nucleus token ids, most probable first, as an array('i'),
    and cum their renormalised cumulative probabilities as an array('d') of
    the float64s the truncation computed; both are None for an argmax-only
    decode. Typed arrays keep a 22-token nucleus in under half the bytes of
    two lists, so a memo of every draw of an evaluation stays small.
    """

    argmax: int
    kept: array | None
    cum: array | None

    def draw(self, u: float) -> int:
        """The nucleus token whose cumulative-probability interval holds the uniform u."""
        return self.kept[min(bisect_right(self.cum, u), len(self.kept) - 1)]


# context -> Proposal under one parameter state and one DecodeCfg
Memo = dict[tuple[int, ...], Proposal]


def _sample_with_rng(
    policy: Policy, problem: Problem, cfg: DecodeCfg, rng: np.random.Generator, memo: Memo | None = None
) -> Trajectory:
    """Autoregressive draw: temperature scaling, then nucleus truncation, one rng.random() per token.

    The draw carries its tokens only. Draws that share `memo` (same
    parameters, same cfg) score each context once.
    """
    return _trajectory(policy, problem, cfg, _walk_draws(policy, [(problem, rng)], cfg, memo=memo)[0][0])


def greedy_decode(policy: Policy, problem: Problem, max_new_tokens: int | None = None) -> Trajectory:
    """Argmax decoding; ties break toward the lowest token id."""
    cfg = DecodeCfg(max_new_tokens=max_new_tokens)
    return _trajectory(policy, problem, cfg, _walk_draws(policy, [(problem, None)], cfg)[0][0])


def _budget(problem: Problem, cfg: DecodeCfg) -> int:
    """Tokens a draw may take, its stop symbol included."""
    return problem.max_solution_len + 1 if cfg.max_new_tokens is None else cfg.max_new_tokens


def _trajectory(policy: Policy, problem: Problem, cfg: DecodeCfg, body: tuple[int, ...]) -> Trajectory:
    """The draw of a walked body: it drew the stop symbol unless it was cut at its budget."""
    terminated = len(body) < _budget(problem, cfg)
    return Trajectory(prompt_len=problem.prompt_len, terminated=terminated,
                      tokens=problem.prompt_tokens + body + (policy.vocab.stop_id,) * terminated)


def _walk_draws(policy: Policy, rows: list[tuple[Problem, np.random.Generator | None]], cfg: DecodeCfg,
                k: int = 1, memo: Memo | None = None, draft: Memo | None = None) -> list[list[tuple[int, ...]]]:
    """The decoder: the bodies of k draws per (problem, rng) row, each closed with the stop id at its budget.

    A row with rng None takes the argmax; a sampled row draws one rng.random() per token, in the order
    of k one-draw calls. Every round walks each unfinished row until it needs a context it has no exact
    proposal for, and then scores the contexts all rows need in one forward: a row's
    tokens equal those of walking it alone, because every operation on a context's scores runs along
    its own row. `memo` holds exact proposals at the current parameters, and the walk adds the ones it
    scores; a call whose rows all take the argmax scores argmax-only proposals.

    With a non-empty `draft` the walk guesses ahead: it guesses with draft where it has no exact
    proposal, scores the guessed contexts and the first unknown one in one forward, and resumes at the
    first of them, with its tokens cut back and rng set back there, until it walks on exact proposals
    alone: guesses only choose what is scored. draft then takes the exact proposals for the next walk
    on these problems.
    """
    memo = {} if memo is None else memo
    scores = cfg if any(rng is not None for _, rng in rows) else None
    stop, guess = policy.vocab.stop_id, bool(draft)
    # per row: start context, budget, rng, tokens (its draws end to end, each ending in the stop id) and the
    # point to resume at: draw, its tokens so far, context, len(tokens) and rng's state there when guessing
    walks = []
    for problem, rng in rows:
        start = policy.context_of(problem.prompt_tokens)
        walks.append([start, _budget(problem, cfg), rng, [], (0, 0, start, 0, None)])
    live = walks
    while live:
        guessed: dict = {}
        for w in live:
            start, budget, rng, tokens, (i, t, ctx, n, state) = w
            resume = None
            del tokens[n:]
            if state is not None:
                rng.bit_generator.state = state
            while i < k:
                if t == budget:  # the forced stop: a draw cut at its budget is closed without a forward
                    tok = stop
                else:
                    prop = memo.get(ctx)
                    if prop is None:
                        resume = resume or (i, t, ctx, len(tokens),
                                            rng.bit_generator.state if guess and rng is not None else None)
                        guessed[ctx] = prop = draft.get(ctx) if guess else None
                        if prop is None:
                            break
                    tok = prop.argmax if rng is None else prop.draw(rng.random())
                tokens.append(tok)
                i, t, ctx = (i + 1, 0, start) if tok == stop else (i, t + 1, ctx[1:] + (tok,))
            w[4] = resume or (i, t, ctx, len(tokens), None)
        if guessed:
            lp = policy.forward(policy.params, np.asarray(list(guessed), dtype=np.int64))
            memo.update(zip(guessed, _proposals(lp, scores)))
        live = [w for w in live if w[4][0] < k]
    bodies = []
    for *_, tokens, _ in walks:
        ends = [n for n, tok in enumerate(tokens) if tok == stop]
        bodies.append([tuple(tokens[a + 1 : b]) for a, b in zip([-1] + ends, ends)])
    if draft is not None:
        draft.update(memo)
    return bodies


def _proposals(lp: np.ndarray, cfg: DecodeCfg | None) -> list[Proposal]:
    """The Proposal of each row of lp: argmax, and with cfg the temperature-scaled top-p nucleus.

    The arithmetic is that of truncating one row at a time: every reduction
    runs along a row, and each nucleus is renormalised by the sum of its own
    kept slice, grouped by kept count. (A sum over a zero-masked full row
    would not do: from 8 entries on, numpy sums pairwise, in another order.)
    """
    argmax = lp.argmax(axis=1).tolist()
    if cfg is None:
        return [Proposal(a, None, None) for a in argmax]
    m, v = lp.shape
    add = np.add  # add.reduce / add.accumulate: ndarray.sum / cumsum without their Python wrappers
    # dividing keeps order and every entry is <= 0, so the least entry, or the least row maximum, decides
    tops = np.maximum.reduce(lp, axis=1, keepdims=True)
    if math.isfinite(float(np.minimum.reduce(lp, axis=None)) / cfg.temperature):
        scaled = lp / cfg.temperature
    elif math.isfinite(float(np.minimum.reduce(tops, axis=None)) / cfg.temperature):
        with np.errstate(over="ignore"):  # an entry scaled to -inf gets no mass
            scaled = lp / cfg.temperature
    else:
        raise ValueError(f"temperature {cfg.temperature} leaves no finite scaled logit")
    top = tops / cfg.temperature
    probs = np.exp(scaled - top)
    probs /= add.reduce(probs, axis=1, keepdims=True)
    neg = -probs
    order = neg.argsort(axis=1, kind="stable")
    # probs[order] row by row: sorted values are the same whatever the order among ties, and no prob is -0.0
    neg.sort(axis=1)
    sorted_probs = -neg
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
        # one typed array per group: a slice of it is allocated at its row's exact size
        ids = array("i", order[which, :n].astype(np.intc).tobytes())
        cums = array("d", add.accumulate(renormed, axis=1).tobytes())
        for r, i in enumerate(sel):
            kept[i], cum[i] = ids[r * n : r * n + n], cums[r * n : r * n + n]
    return [Proposal(*p) for p in zip(argmax, kept, cum)]


@dataclass(frozen=True, eq=False)  # a law equals only itself: compare probs with numpy
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
            p = np.exp(policy.forward(policy.params, seqs[:, -policy.window:]))
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

    @staticmethod
    def _head(out: Var | np.ndarray) -> Var | np.ndarray:
        """A critic's head: one value per context."""
        return out[:, 0]


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
