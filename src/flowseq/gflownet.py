"""Subtrajectory-balance training: losses, replay buffer, and the training loop.

The subtrajectory balance objective sums, over every generated-token index
pair 0 <= i < j <= n (index 0 is the prompt boundary), the squared log-ratio

    log [ R(s_{1:i} sT) * prod_{k=i+1..j} pi(s_k|s_{1:k-1}) * pi(sT|s_{1:j}) ]
      - log [ R(s_{1:j} sT) * pi(sT|s_{1:i}) ]

optionally weighted by lambda^(j-i). Writing S_t for the cumulative token
log-probability and D_t = log R_t - S_t - log pi(sT|s_{1:t}), each term is
(D_i - D_j)^2. A whole batch is computed at once on the padded layout of
policy.batched_generation_log_vars: S is a matmul with a constant triangular
matrix, every D_i - D_j a matmul with a constant +-1 pair matrix, and one
weight matrix holds lambda^(j-i) and masks pairs past each body's end. At the
optimum the terminal distribution is proportional to the reward, which exact
enumeration verifies.

Training follows the sample / score / replay / update loop: draw the bodies of
a problem's solutions (closing horizon-capped draws with a forced stop), append
them to a FIFO replay deque with their prefix log-rewards (scored once per
distinct body), then minimize mean subtb over a replayed batch plus a weighted
reference log-likelihood term that anchors the policy to readable solutions.
The draws carry no log-probabilities: the loss's forward computes every one.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, GradTape, Var, adam_step
from .core import RULES, Problem, SettingError, Trajectory, Vocab, check_fields
from .env import TaskConfig, enumerate_solutions, enumerate_terminals, left_sum, verdict_reward, verifier
from .policy import (
    DecodeCfg,
    Forward,
    Item,
    Lookup,
    Memo,
    Policy,
    TerminalDistribution,
    _walk_draws,
    batched_generation_log_vars,
    pad_rows,
    sequence_log_prob_vars,
    terminal_distribution,
)
# not called here (the walk draws, the verifier folds): perfbench/layers.py wraps these names where gflownet binds them
from .env import reward  # noqa: F401
from .policy import _sample_with_rng  # noqa: F401

class NonPositiveReward(ValueError):
    """A reward evaluation returned a non-positive value; its log is undefined."""


class NonFiniteLoss(FloatingPointError):
    """A training loss or its gradient is not finite; the update step moved no parameter."""


@dataclass(frozen=True)
class BufferEntry:
    """A terminated trajectory with its prefix log-rewards cached at push time.

    at_horizon marks bodies of maximal solution length, where stopping is the
    only legal continuation.
    """

    prompt_tokens: tuple[int, ...]
    body: tuple[int, ...]
    log_rewards: np.ndarray
    at_horizon: bool = False


def prefix_log_rewards(problem: Problem, task: TaskConfig, vocab: Vocab, body: tuple[int, ...]) -> np.ndarray:
    """log R of every prefix 0..n of the body, each treated as terminated; rejects non-positive rewards.

    One fold of the problem's verifier along the body gives every prefix's verdict.
    """
    machine = verifier(problem, vocab)
    out = np.empty(len(body) + 1)
    for i, state in enumerate(accumulate(body, machine.step, initial=machine.start)):
        r = verdict_reward(machine.verdict(state), task)
        if not r > 0.0:
            raise NonPositiveReward(f"reward {r} at prefix length {i}")
        out[i] = np.log(r)
    return out


@lru_cache(maxsize=64)
def _subtb_consts(width: int, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prefix, pairs, weights) for bodies of up to L = width-1 tokens.

    lp_tok @ prefix (L, L+1) gives every S_t; D @ pairs (L+1, P) gives
    D_i - D_j for every pair i < j; row n of weights (L+1, P) is
    lambda^(j-i) on the pairs inside a body of n tokens and 0 elsewhere.
    """
    ii, jj = np.triu_indices(width, k=1)
    prefix = np.triu(np.ones((width - 1, width)), k=1)
    pairs = np.zeros((width, ii.size))
    pairs[ii, np.arange(ii.size)] = 1.0
    pairs[jj, np.arange(ii.size)] = -1.0
    inside = jj[None, :] <= np.arange(width)[:, None]
    weights = np.where(inside, lam ** (jj - ii).astype(np.float64), 0.0)
    for shared in (prefix, pairs, weights):  # every caller gets these same arrays
        shared.flags.writeable = False
    return prefix, pairs, weights


def subtb_sum_var(lp_tok: Var, lp_stop: Var, lengths: np.ndarray, log_rewards: list[np.ndarray],
                  lam: float) -> Var:
    """Subtrajectory balance summed over padded rows; log_rewards[b] is log R of prefixes 0..lengths[b]."""
    width = lp_stop.value.shape[1]
    prefix, pairs, weights = _subtb_consts(width, float(lam))
    d = lp_tok.tape.const(pad_rows(log_rewards, width)) - lp_tok @ prefix - lp_stop
    return ad.vsum(ad.square(d @ pairs) * weights[lengths])


def items_of(entries: list[BufferEntry]) -> list[Item]:
    """(prompt_tokens, body) of each replayed entry, in order."""
    return [(e.prompt_tokens, e.body) for e in entries]


def sft_from_vars(lp_tok: Var, lp_stop: Var, lengths: np.ndarray) -> Var:
    """Mean per-token negative log-likelihood of the rows of a padded batch, stop symbols included."""
    seq = ad.vsum(sequence_log_prob_vars(lp_tok, lp_stop, lengths))
    return -(seq / float(lengths.sum() + lengths.size))


def check_learning_rate(lr: float, name: str = "learning rate", field: str = "lr") -> None:
    if not RULES["be positive and finite"](lr):
        raise SettingError(field, f"{name} must be positive and finite, got {lr}")


class Fitter:
    """The one update step every trainer shares: register and forward (forward), then backward and Adam (step)."""

    def __init__(self, model: Policy, lr: float) -> None:
        check_learning_rate(lr)
        self.model = model
        self.adam = AdamState(lr)

    def theta(self, items: list[Item]) -> tuple[Var, Lookup]:
        """Register the (prompt_tokens, body) items' contexts and open a tape on the parameters.

        Returns the tape's parameter variable and the registration's lookup,
        which a forward over the same items takes instead of its own.
        """
        lookup = self.model.register_prefixes(items)
        return GradTape().input(self.model.params), lookup

    def forward(self, items: list[Item]) -> tuple[Var, Forward]:
        """theta(items), then one tape forward over the items reading their lookup; every loss is a function of it."""
        theta, lookup = self.theta(items)
        return theta, batched_generation_log_vars(self.model, theta, items, lookup)

    def step(self, loss: Var, theta: Var) -> float:
        """Back-propagate and apply Adam, moving nothing if the loss or gradient is not finite; returns the loss."""
        g = ad.backward(loss, theta)
        try:
            value = float(loss.value)
            if not (np.isfinite(value) and np.isfinite(g).all()):
                bad = int(np.count_nonzero(~np.isfinite(g)))
                raise NonFiniteLoss(f"loss {value} with {bad} non-finite gradient entries; no parameter moved")
            self.model.params, self.adam = adam_step(self.adam, self.model.params, g)
            return value
        finally:
            # links cut last node first, after Adam: the graph is freed whatever the caller holds, and its heap reused
            for node in reversed(loss.tape.nodes):
                node.links = ()
            loss.tape.nodes.clear()


@dataclass(frozen=True)
class GfnConfig:
    """Training-loop settings.

    sft_coeff weights the reference log-likelihood term added to the balance
    loss; samples_per_problem solutions are drawn for the step's problem and
    pushed into the replay buffer before each update. horizon_coeff weights
    the stop log-likelihood on bodies of maximal length, where the balance
    residuals alone leave the total terminal mass underdetermined.
    """

    steps: int
    batch_size: int = 16
    samples_per_problem: int = 8
    sft_coeff: float = 30.0
    subtb_lambda: float = 1.0
    horizon_coeff: float = 1.0
    lr: float = 1e-3
    buffer_capacity: int = 1000
    decode: DecodeCfg = field(default_factory=DecodeCfg)
    seed: int = 0
    diag_every: int = 0

    def __post_init__(self) -> None:
        check_fields(self, "be non-negative", "steps", "diag_every", "seed")
        check_fields(self, "be at least 1", "batch_size", "samples_per_problem", "buffer_capacity")
        check_fields(self, "be positive and finite", "subtb_lambda")
        check_fields(self, "be non-negative and finite", "sft_coeff", "horizon_coeff")
        check_learning_rate(self.lr)


@dataclass
class TrainReport:
    """Per-step training statistics with a fixed CSV schema.

    Columns: step, <loss_column>, mean_sft_loss, mean_terminal_reward,
    buffer_size, l1_to_target. Cells that do not apply stay empty.
    """

    loss_column: str = "mean_subtb_loss"
    rows: list[dict] = field(default_factory=list)

    def add(self, step: int, loss: float, sft: float | None = None, reward_mean: float | None = None,
            buffer_size: int | None = None, l1: float | None = None) -> None:
        row = {
            "step": step,
            "mean_sft_loss": sft,
            "mean_terminal_reward": reward_mean,
            "buffer_size": buffer_size,
            "l1_to_target": l1,
        }
        # written last so a report whose loss IS the sft loss keeps the loss value
        row[self.loss_column] = loss
        self.rows.append(row)

    @property
    def columns(self) -> list[str]:
        cols = ["step", self.loss_column, "mean_sft_loss",
                "mean_terminal_reward", "buffer_size", "l1_to_target"]
        return list(dict.fromkeys(cols))

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_cell(row[c]) for c in self.columns])


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def terminal_law(rewards: np.ndarray, dist: TerminalDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Policy probability and R/Z of each terminal: the two arrays share env.terminal_levels order."""
    if len(dist.probs) != len(rewards):
        raise ValueError(f"the terminal law has {len(dist.probs)} bodies, the problem {len(rewards)} terminals")
    return dist.probs, rewards / left_sum(rewards)


def terminal_l1_gap(policy: Policy, problem: Problem, cfg: TaskConfig, vocab: Vocab,
                    dist: TerminalDistribution | None = None, law: tuple | None = None) -> float:
    """L1 distance between the policy's terminal distribution and R/Z, plus overflow mass.

    Callers that already hold the terminal law, or its terminal_law arrays, pass them in.
    """
    dist = terminal_distribution(policy, problem) if dist is None else dist
    p, target = terminal_law(enumerate_terminals(problem, cfg, vocab), dist) if law is None else law
    return left_sum(np.abs(p - target), start=dist.overflow)


@dataclass
class TrainSet:
    """Problems with their reference solutions, sharing one vocabulary and task config."""

    problems: list[Problem]
    references: list[list[tuple[int, ...]]]
    task: TaskConfig
    vocab: Vocab

    @classmethod
    def build(cls, problems: list[Problem], task: TaskConfig, vocab: Vocab,
              max_refs: int | None = None) -> "TrainSet":
        if max_refs is not None and max_refs < 0:
            raise SettingError("max_refs", f"max_refs must be non-negative, got {max_refs}")
        refs = [enumerate_solutions(p, task, vocab)[: max_refs or None] for p in problems]
        return cls(problems=problems, references=refs, task=task, vocab=vocab)

    def all_references(self) -> list[Item]:
        """Every reference solution as a (prompt_tokens, body) item, problem by problem."""
        return [(p.prompt_tokens, b) for p, bodies in zip(self.problems, self.references) for b in bodies]


def replay_loss_var(forward: Forward, batch: list[BufferEntry], cfg: GfnConfig) -> tuple[Var, Var, Var | None]:
    """(total, mean subtb, sft term or None) of one replayed batch, read off one forward pass.

    forward scores the batch's items, then any reference items: the rows after
    the batch's are the references'. total = mean subtb + horizon_coeff * mean
    stop NLL of the at-horizon bodies + sft_coeff * reference NLL.
    """
    lp_tok, lp_stop, lengths = forward
    nb = len(batch)
    with_refs = lengths.size > nb
    if with_refs:
        ref_rows = (lp_tok[nb:], lp_stop[nb:], lengths[nb:])
        lp_tok, lp_stop, lengths = lp_tok[:nb], lp_stop[:nb], lengths[:nb]
    subtb = subtb_sum_var(lp_tok, lp_stop, lengths, [e.log_rewards for e in batch], cfg.subtb_lambda)
    mean_subtb = subtb / float(nb)
    total = mean_subtb
    at_horizon = np.flatnonzero([e.at_horizon for e in batch])
    if at_horizon.size and cfg.horizon_coeff > 0.0:
        # stopping is forced at maximal length; balance alone leaves that
        # stop probability (and with it the total terminal mass) free
        horizon_nll = -ad.vsum(lp_stop[at_horizon, lengths[at_horizon]])
        total = total + cfg.horizon_coeff * (horizon_nll / float(at_horizon.size))
    sft_term = None
    if with_refs:
        sft_term = sft_from_vars(*ref_rows)
        total = total + cfg.sft_coeff * sft_term
    return total, mean_subtb, sft_term


def _force_stop(policy: Policy, traj: Trajectory) -> Trajectory:
    """Close a horizon-capped trajectory by appending the stop symbol.

    Training treats the horizon as a forced stop, so that mass pushed past it
    receives gradient signal instead of lingering as unterminated overflow.
    The walk closes its draws with the stop id itself; this function stays as
    the name perfbench/layers.py wraps and as the tests' reference for it.
    """
    return Trajectory(prompt_len=traj.prompt_len, tokens=traj.tokens + (policy.vocab.stop_id,), terminated=True)


def _horizon_decode(decode: DecodeCfg, problem: Problem) -> DecodeCfg:
    """Training draws at most max_solution_len tokens, so forced stops stay in support."""
    cap = problem.max_solution_len
    if decode.max_new_tokens is not None:
        cap = min(decode.max_new_tokens, cap)
    return replace(decode, max_new_tokens=cap)


def train_gflownet(
    policy: Policy,
    dataset: TrainSet,
    cfg: GfnConfig,
    diag_problem: Problem | None = None,
) -> TrainReport:
    """Sample, score, replay, update; returns the per-step report.

    The policy is updated in place. With a diag_problem, the report's
    l1_to_target column tracks the exact proportionality gap every
    cfg.diag_every steps and at the final step; its terminals are enumerated
    once, before the first step, so one too large to enumerate fails there.
    """
    if not dataset.problems:
        raise ValueError("dataset has no problems")
    report = TrainReport(loss_column="mean_subtb_loss")
    rng = np.random.default_rng(cfg.seed)
    buf: deque[BufferEntry] = deque(maxlen=cfg.buffer_capacity)
    fit = Fitter(policy, cfg.lr)
    refs_all = dataset.all_references()
    use_sft = cfg.sft_coeff > 0.0 and refs_all
    scored: list[dict] = [{} for _ in dataset.problems]  # body -> prefix log-rewards, per problem
    drafts: list[Memo] = [{} for _ in dataset.problems]  # earlier steps' proposals: guesses read kept and cum
    diag_rewards = None if diag_problem is None else enumerate_terminals(
        diag_problem, dataset.task, dataset.vocab)

    for step in range(1, cfg.steps + 1):
        p_idx = int(rng.integers(0, len(dataset.problems)))
        problem = dataset.problems[p_idx]
        decode = _horizon_decode(cfg.decode, problem)
        rewards_step: list[float] = []
        for body in _walk_draws(policy, [(problem, rng)], decode, cfg.samples_per_problem, draft=drafts[p_idx])[0]:
            log_rewards = scored[p_idx].get(body)
            if log_rewards is None:
                log_rewards = scored[p_idx][body] = prefix_log_rewards(problem, dataset.task, dataset.vocab, body)
            buf.append(BufferEntry(problem.prompt_tokens, body, log_rewards, len(body) == problem.max_solution_len))
            rewards_step.append(float(np.exp(log_rewards[-1])))

        batch = [buf[int(i)] for i in rng.integers(0, len(buf), size=cfg.batch_size)]
        ref_batch = [refs_all[int(i)] for i in rng.integers(0, len(refs_all), size=cfg.batch_size)] if use_sft else []

        theta, forward = fit.forward(items_of(batch) + ref_batch)
        total, mean_subtb, sft_term = replay_loss_var(forward, batch, cfg)
        fit.step(total, theta)

        l1 = None
        if diag_rewards is not None and (
            step == cfg.steps or (cfg.diag_every and step % cfg.diag_every == 0)
        ):
            dist = terminal_distribution(policy, diag_problem)
            l1 = terminal_l1_gap(policy, diag_problem, dataset.task, dataset.vocab, dist,
                                 terminal_law(diag_rewards, dist))
        sft_value = None if sft_term is None else float(sft_term.value)
        report.add(step, float(mean_subtb.value), sft_value, float(np.mean(rewards_step)), len(buf), l1)
    return report
