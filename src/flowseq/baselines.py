"""Reward-maximizing comparison methods: SFT, RFT, DPO, and clipped PPO.

All four push the policy toward high-reward behavior; they exist to contrast
with subtrajectory-balance training, which targets the reward-proportional
distribution instead of its argmax.

Loss forms follow the standard published definitions; the defaults (DPO beta
0.01, PPO clip 0.2, KL beta 0.1, gamma 1.0, GAE lambda 0.95, RFT k=4) mirror
the fine-tuning setup this toolkit reproduces at toy scale. Full-scale runs
would use learning rates near 3e-6 (actor) and 5e-6 (critic).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import env
from .autodiff import Var
# not called here (Fitter calls gflownet's): perfbench/layers.py wraps the name where baselines binds it
from .autodiff import adam_step  # noqa: F401
from .core import Problem, SettingError, check_fields
from .gflownet import Fitter, TrainReport, TrainSet, check_learning_rate, sft_from_vars
from .policy import (
    DecodeCfg,
    Forward,
    Item,
    Memo,
    Policy,
    ValueNet,
    _budget,
    _padded_layout,
    _sample_with_rng,
    _walk_draws,
    batched_generation_log_vars,
    sequence_log_prob_vars,
    trajectory_body,
)


class LengthMismatch(ValueError):
    """Parallel lists disagree in length."""


class EmptyDataset(ValueError):
    """A trainer was given nothing to train on."""


class EmptyBatch(SettingError):
    """A minibatch or a per-problem draw was asked to hold nothing."""


@dataclass(frozen=True)
class PreferencePair:
    """One problem's highest- and lowest-reward draws from the frozen reference, and that reference's margin.

    chosen and rejected are bodies without the stop symbol, and a *_stopped flag marks a draw that drew it.
    ref_margin is the reference's sequence log-probability of chosen minus that of rejected.
    """

    prompt: tuple[int, ...]
    chosen: tuple[int, ...]
    rejected: tuple[int, ...]
    chosen_stopped: bool
    rejected_stopped: bool
    ref_margin: float


def _check_fit(epochs: int, batch_size: int | None) -> None:
    """What _fit loops over: at least one epoch, and batches of at least one item (None: full batch)."""
    if epochs < 1:
        raise SettingError("epochs", f"epochs must be at least 1, got {epochs}")
    if batch_size is not None and batch_size < 1:
        raise EmptyBatch("batch_size", f"batch_size must be at least 1, got {batch_size}")


def _check_draws(k: int, field: str) -> None:
    if k < 1:
        raise EmptyBatch(field, f"draws per problem must be at least 1, got {k}")


@dataclass(frozen=True)
class SftConfig:
    epochs: int = 1
    lr: float = 1e-3
    batch_size: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fit(self.epochs, self.batch_size)
        check_learning_rate(self.lr)
        check_fields(self, "be non-negative", "seed")


def _fit(policy: Policy, data: list, items: Callable[[list], list[Item]], loss_var: Callable[[Forward, list], Var],
         cfg: SftConfig | RftConfig | DpoConfig, rng: np.random.Generator, report: TrainReport) -> TrainReport:
    """Adam at cfg.lr on loss_var(forward, batch) over cfg.epochs of shuffled minibatches.

    The batches hold cfg.batch_size items, or all of data when it is None.
    forward is the step's one forward over items(batch), the (prompt_tokens, body) items the batch's loss reads.
    """
    fit = Fitter(policy, cfg.lr)
    step = 0
    for _ in range(cfg.epochs):
        if cfg.batch_size is None:
            batches = [data]
        else:
            order = rng.permutation(len(data))
            size = cfg.batch_size
            batches = [[data[int(i)] for i in order[a : a + size]] for a in range(0, len(order), size)]
        for batch in batches:
            theta, forward = fit.forward(items(batch))
            step += 1
            report.add(step, fit.step(loss_var(forward, batch), theta))
    return report


def _draw_scored(
    policy: Policy, dataset: TrainSet, problem: Problem, decode: DecodeCfg, k: int, rng: np.random.Generator
) -> tuple[list[tuple[int, ...]], list[bool], list[float]]:
    """k draws for one problem sharing one context memo: each draw's body, whether it stopped, and its reward."""
    memo: Memo = {}
    draws = [_sample_with_rng(policy, problem, decode, rng, memo) for _ in range(k)]
    bodies = [trajectory_body(d) for d in draws]
    return bodies, [d.terminated for d in draws], _rewards(dataset, problem, bodies)


def _rewards(dataset: TrainSet, problem: Problem, bodies: list[tuple[int, ...]]) -> list[float]:
    """The environment reward of each body drawn for problem, called through env so traced runs count every call."""
    return [env.reward(problem, problem.prompt_tokens + body, dataset.task, dataset.vocab) for body in bodies]


def sft_train(
    policy: Policy,
    dataset: TrainSet,
    epochs: int | None = None,
    cfg: SftConfig | None = None,
) -> TrainReport:
    """Supervised fine-tuning on the dataset's reference solutions, in place.

    epochs, when given, replaces cfg.epochs, and SftConfig checks it.
    """
    cfg = cfg or SftConfig()
    if epochs is not None:
        cfg = replace(cfg, epochs=epochs)
    refs = dataset.all_references()
    if not refs:
        raise EmptyDataset("no reference solutions to fit")
    return _fit(policy, refs, list, lambda forward, batch: sft_from_vars(*forward), cfg,
                np.random.default_rng(cfg.seed), TrainReport(loss_column="mean_sft_loss"))


@dataclass(frozen=True)
class RftConfig:
    k: int = 4
    epochs: int = 3
    lr: float = 1e-3
    batch_size: int | None = 16
    decode: DecodeCfg = field(default_factory=DecodeCfg)
    seed: int = 0

    def __post_init__(self) -> None:
        _check_draws(self.k, "k")
        _check_fit(self.epochs, self.batch_size)
        check_learning_rate(self.lr)
        check_fields(self, "be non-negative", "seed")


def rft_train(
    policy: Policy,
    dataset: TrainSet,
    cfg: RftConfig | None = None,
) -> TrainReport:
    """Rejection sampling: keep the best of k samples per problem (ties go to the earliest), then fit the kept set."""
    cfg = cfg or RftConfig()
    if not dataset.problems:
        raise EmptyDataset("no problems to sample from")
    rng = np.random.default_rng(cfg.seed)
    kept = []
    for problem in dataset.problems:
        bodies, _, rewards = _draw_scored(policy, dataset, problem, cfg.decode, cfg.k, rng)
        kept.append((problem.prompt_tokens, bodies[int(np.argmax(rewards))]))
    # the fit shuffles with a fresh generator of the same seed
    return _fit(policy, kept, list, lambda forward, batch: sft_from_vars(*forward), cfg,
                np.random.default_rng(cfg.seed), TrainReport(loss_column="mean_rft_loss"))


def _pair_items(pairs: list[PreferencePair]) -> list[Item]:
    """The pairs' chosen bodies, then their rejected ones, as (prompt, body) items: DPO's forward order."""
    return [(p.prompt, p.chosen) for p in pairs] + [(p.prompt, p.rejected) for p in pairs]


def dpo_mean_loss_var(forward: Forward, pairs: list[PreferencePair], beta: float = 0.01) -> Var:
    """Mean DPO loss over pairs, read off one forward over _pair_items(pairs)."""
    stopped = np.asarray([p.chosen_stopped for p in pairs] + [p.rejected_stopped for p in pairs])
    seq = sequence_log_prob_vars(*forward, stopped)
    n = len(pairs)
    # chosen minus rejected sequence log-probability, one row per pair
    margin = seq.tape.const(np.hstack([np.eye(n), -np.eye(n)])) @ seq - np.asarray([[p.ref_margin] for p in pairs])
    return ad.vsum(ad.softplus(-(margin * beta))) / float(n)


@dataclass(frozen=True)
class DpoConfig:
    beta: float = 0.01
    samples_per_problem: int = 8
    epochs: int = 3
    lr: float = 1e-3
    batch_size: int = 16
    decode: DecodeCfg = field(default_factory=DecodeCfg)
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, "be positive and finite", "beta")
        if self.samples_per_problem < 2:
            raise SettingError("samples_per_problem", "samples_per_problem must be at least 2 to form a pair, "
                                                      f"got {self.samples_per_problem}")
        _check_fit(self.epochs, self.batch_size)
        check_learning_rate(self.lr)
        check_fields(self, "be non-negative", "seed")


def build_preference_pairs(
    ref_policy: Policy, dataset: TrainSet, cfg: DpoConfig, rng: np.random.Generator
) -> list[PreferencePair]:
    """Sample from the frozen reference and pair extremes, skipping reward ties; one forward scores every pair."""
    drawn = []  # (prompt, chosen, rejected, chosen stopped, rejected stopped)
    for problem in dataset.problems:
        bodies, stopped, rewards = _draw_scored(ref_policy, dataset, problem, cfg.decode, cfg.samples_per_problem, rng)
        hi, lo = int(np.argmax(rewards)), int(np.argmin(rewards))
        if rewards[hi] > rewards[lo]:
            drawn.append((problem.prompt_tokens, bodies[hi], bodies[lo], stopped[hi], stopped[lo]))
    if not drawn:
        return []
    pairs = [PreferencePair(*d, 0.0) for d in drawn]
    stopped = [p.chosen_stopped for p in pairs] + [p.rejected_stopped for p in pairs]
    # a row's tokens summed alone, then its stop where it stopped (sequence_log_prob_vars sums in another order)
    tok, stop, lengths = batched_generation_log_vars(ref_policy, ref_policy.params, _pair_items(pairs))
    seq = [float(t[:k].sum()) + (float(s[k]) if st else 0.0) for t, s, k, st in zip(tok, stop, lengths, stopped)]
    return [replace(p, ref_margin=seq[i] - seq[len(pairs) + i]) for i, p in enumerate(pairs)]


def dpo_train(
    policy: Policy,
    ref_policy: Policy,
    dataset: TrainSet,
    cfg: DpoConfig | None = None,
) -> TrainReport:
    """Preference optimization against a frozen reference; the policy updates in place.

    When every problem's draws tie in reward there is no pair to fit: the
    report comes back without rows and the policy is left as it was.
    """
    cfg = cfg or DpoConfig()
    if not dataset.problems:
        raise EmptyDataset("no problems to sample from")
    rng = np.random.default_rng(cfg.seed)
    pairs = build_preference_pairs(ref_policy, dataset, cfg, rng)
    report = TrainReport(loss_column="mean_dpo_loss")
    if not pairs:
        return report
    return _fit(policy, pairs, _pair_items, lambda forward, batch: dpo_mean_loss_var(forward, batch, cfg.beta),
                cfg, rng, report)


def gae_advantages(
    rewards: np.ndarray | list[float],
    values: np.ndarray | list[float],
    gamma: float,
    lam: float,
    lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Generalized advantage estimation along the last axis.

    delta_t = r_t + gamma * v_{t+1} - v_t, A_t = sum_l (gamma*lam)^l delta_{t+l};
    values carries one bootstrap entry beyond the rewards. On a (B, T) batch,
    row b has lengths[b] rewards, values[b, lengths[b]] is its bootstrap, and its
    advantages past them are 0, so each row equals its own 1-D call.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != rewards.shape[-1] + 1:
        raise LengthMismatch(f"{values.shape[-1]} values for {rewards.shape[-1]} rewards")
    deltas = rewards + gamma * values[..., 1:] - values[..., :-1]
    if lengths is not None:
        deltas = np.where(np.arange(deltas.shape[-1]) < lengths[:, None], deltas, 0.0)
    out = np.empty_like(deltas)
    acc = np.zeros(deltas.shape[:-1])
    for t in range(deltas.shape[-1] - 1, -1, -1):
        acc = deltas[..., t] + gamma * lam * acc
        out[..., t] = acc
    return out


@dataclass(frozen=True)
class PpoConfig:
    """Clipped-surrogate settings with a KL penalty folded into per-token rewards."""

    clip: float = 0.2
    kl_beta: float = 0.1
    gamma: float = 1.0
    gae_lambda: float = 0.95
    steps: int = 100
    trajs_per_step: int = 8
    actor_lr: float = 1e-3
    critic_lr: float = 3e-3
    decode: DecodeCfg = field(default_factory=DecodeCfg)
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, "lie in (0, 1)", "clip")
        check_fields(self, "lie in (0, 1]", "gamma")
        check_fields(self, "lie in [0, 1]", "gae_lambda")
        check_fields(self, "be non-negative and finite", "kl_beta")
        check_fields(self, "be non-negative", "steps", "seed")
        _check_draws(self.trajs_per_step, "trajs_per_step")
        check_learning_rate(self.actor_lr, "actor learning rate", "actor_lr")
        check_learning_rate(self.critic_lr, "critic learning rate", "critic_lr")


def _generated(lp_tok: Var | np.ndarray, lp_stop: Var | np.ndarray, lengths: np.ndarray,
               stopped: np.ndarray) -> Var | np.ndarray:
    """(B, L+1) log-probabilities of each row's generated tokens: its body's, then its stop symbol's where it stopped.

    Reads a forward's variables or its arrays; the slots past a row's generated tokens are 0 or -0.0.
    """
    width = int(lengths.max()) + 1
    stops = np.zeros((lengths.size, width))
    stops[np.arange(lengths.size), lengths] = stopped
    return lp_tok @ np.eye(width - 1, width) + lp_stop * stops


def ppo_surrogate_var(forward: Forward, stopped: np.ndarray, old: np.ndarray, adv: np.ndarray,
                      clip: float) -> Var:
    """Negative mean clipped surrogate over all generated tokens of the batch.

    forward is the batch's tape forward, as Fitter.forward returns it, and stopped (B,) marks the rows that drew
    the stop symbol. old and adv are (B, L+1) on the forward's layout, zero past each row's generated tokens.
    """
    # padded slots have ratio exp(0) = 1 and advantage 0, so they add nothing
    ratio = ad.exp(_generated(*forward, stopped) - old)
    unclipped = ratio * adv
    clipped = ad.clamp(ratio, 1.0 - clip, 1.0 + clip) * adv
    return -(ad.vsum(ad.minimum(unclipped, clipped)) / float(max(forward[2].sum() + stopped.sum(), 1)))


def ppo_train(
    policy: Policy,
    critic: ValueNet,
    dataset: TrainSet,
    cfg: PpoConfig | None = None,
) -> TrainReport:
    """Clipped policy gradient with GAE and a KL penalty against the starting policy.

    Per-token reward is -kl_beta * (log pi - log pi_ref), with the environment
    reward added on the stop symbol. The critic regresses to GAE returns with
    its own optimizer and disjoint parameters; one inner epoch per batch.
    The seed's generator picks each step's problem. Draw d of step s is a row
    of one walk over the step's draws, with its own generator seeded
    (cfg.seed, s, d), so the step's new contexts are scored together.
    """
    cfg = cfg or PpoConfig()
    if not dataset.problems:
        raise EmptyDataset("no problems to sample from")
    report = TrainReport(loss_column="mean_ppo_loss")
    ref_policy = policy.clone()
    rng = np.random.default_rng(cfg.seed)
    actor_fit = Fitter(policy, cfg.actor_lr)
    critic_fit = Fitter(critic, cfg.critic_lr)

    for step in range(1, cfg.steps + 1):
        problem = dataset.problems[int(rng.integers(0, len(dataset.problems)))]
        draws = [(problem, np.random.default_rng([cfg.seed, step, d])) for d in range(cfg.trajs_per_step)]
        items = [(problem.prompt_tokens, body) for (body,) in _walk_draws(policy, draws, cfg.decode)]
        env_rewards = np.asarray(_rewards(dataset, problem, [body for _, body in items]))

        # the policy, its frozen reference and the critic each score all of the step's draws in one forward;
        # the policy's is the surrogate's own tape forward, so every ratio starts at exactly 1.
        # Each per-token array is (B, L+1) on the forward's layout, zero past a row's generated tokens.
        lengths, row, _ = _padded_layout(tuple(len(body) for _, body in items))
        stopped = lengths < _budget(problem, cfg.decode)
        n_gen = lengths + stopped  # generated tokens per row, the stop symbol included
        t = np.arange(row.shape[1] + 1)
        generated = t[:-1] < n_gen[:, None]
        theta, forward = actor_fit.forward(items)
        old = np.where(generated, _generated(forward[0].value, forward[1].value, lengths, stopped), 0.0)
        ref = _generated(*batched_generation_log_vars(ref_policy, ref_policy.params, items), stopped)
        token_rewards = -cfg.kl_beta * (old - ref)
        token_rewards[stopped, lengths[stopped]] += env_rewards[stopped]
        # the critic registers the step's contexts before its values are read, a new row reading 0; a truncated
        # rollout bootstraps from the critic at its cut, a finished one sees zero beyond stop
        ctheta, (ctx, crows) = critic_fit.theta(items)
        values = np.where(t <= lengths[:, None],
                          np.pad(critic.forward(critic.params, ctx, crows)[row], ((0, 0), (0, 1))), 0.0)
        adv = gae_advantages(token_rewards, values, cfg.gamma, cfg.gae_lambda, n_gen)

        actor_loss = actor_fit.step(ppo_surrogate_var(forward, stopped, old, adv, cfg.clip), theta)

        # the critic's rows and targets in draw-then-position order
        fitted = row[generated]
        fitted_rows = None if crows is None else [crows[i] for i in fitted.tolist()]
        targets = (adv + values[:, :-1])[generated]
        resid = critic.forward(ctheta, ctx[fitted], fitted_rows) - ctheta.tape.const(targets)
        critic_fit.step(ad.vsum(ad.square(resid)) / float(targets.size), ctheta)

        report.add(step, actor_loss, reward_mean=float(np.mean(env_rewards)))
    return report
