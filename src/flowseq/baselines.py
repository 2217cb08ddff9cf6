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
from .core import Problem, SettingError, Trajectory, check_fields
from .gflownet import Fitter, Reference, TrainReport, TrainSet, check_learning_rate, items_of, sft_loss_var
from .policy import (
    DecodeCfg,
    Memo,
    Policy,
    ValueNet,
    _sample_with_rng,
    batched_generation_log_vars,
    pad_rows,
    sequence_log_prob_vars,
    trajectory_body,
    trajectory_item,
)


class LengthMismatch(ValueError):
    """Parallel lists disagree in length."""


class EmptyDataset(ValueError):
    """A trainer was given nothing to train on."""


class EmptyBatch(SettingError):
    """A minibatch or a per-problem draw was asked to hold nothing."""


@dataclass(frozen=True)
class PreferencePair:
    """Highest- vs lowest-reward solution for one problem."""

    problem_id: int
    chosen: Trajectory
    rejected: Trajectory
    chosen_reward: float
    rejected_reward: float

    def __post_init__(self) -> None:
        if self.chosen_reward < self.rejected_reward:
            raise ValueError("chosen reward must be at least the rejected reward")
        if self.chosen.tokens[: self.chosen.prompt_len] != self.rejected.tokens[: self.rejected.prompt_len]:
            raise ValueError("pair members must share one problem prompt")


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


def _fit(policy: Policy, data: list, items: Callable[[list], list], loss_var: Callable[[Policy, Var, list], Var],
         cfg: SftConfig | RftConfig | DpoConfig, rng: np.random.Generator, report: TrainReport) -> TrainReport:
    """Adam at cfg.lr on loss_var(policy, theta, batch) over cfg.epochs of shuffled minibatches.

    The batches hold cfg.batch_size items, or all of data when it is None.
    items(batch) lists the (prompt_tokens, body) items whose contexts the batch's loss reads.
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
            theta = fit.theta(items(batch))
            step += 1
            report.add(step, fit.step(loss_var(policy, theta, batch), theta))
    return report


def _draw_scored(
    policy: Policy, dataset: TrainSet, problem: Problem, decode: DecodeCfg, k: int, rng: np.random.Generator
) -> tuple[list[Trajectory], list[float]]:
    """k draws for one problem sharing one context memo, and the reward of each."""
    memo: Memo = {}
    samples = [_sample_with_rng(policy, problem, decode, rng, memo) for _ in range(k)]
    return samples, [env.reward(problem, problem.prompt_tokens + trajectory_body(s), dataset.task, dataset.vocab)
                     for s in samples]


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
    return _fit(policy, refs, items_of, sft_loss_var, cfg, np.random.default_rng(cfg.seed),
                TrainReport(loss_column="mean_sft_loss"))


def rft_select(samples: list[Trajectory], rewards: list[float]) -> Trajectory:
    """Best-reward sample; ties break to the earliest index."""
    if len(samples) != len(rewards) or not samples:
        raise LengthMismatch(f"{len(samples)} samples vs {len(rewards)} rewards")
    return samples[int(np.argmax(np.asarray(rewards)))]


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
    """Rejection sampling: keep the best of k samples per problem, then fit the kept set."""
    cfg = cfg or RftConfig()
    if not dataset.problems:
        raise EmptyDataset("no problems to sample from")
    rng = np.random.default_rng(cfg.seed)
    kept: list[Reference] = []
    for problem in dataset.problems:
        samples, rewards = _draw_scored(policy, dataset, problem, cfg.decode, cfg.k, rng)
        kept.append(Reference(*trajectory_item(rft_select(samples, rewards))))
    # the fit shuffles with a fresh generator of the same seed
    return _fit(policy, kept, items_of, sft_loss_var, cfg, np.random.default_rng(cfg.seed),
                TrainReport(loss_column="mean_rft_loss"))


def dpo_mean_loss_var(
    policy: Policy, theta: Var, ref_policy: Policy, pairs: list[PreferencePair], beta: float = 0.01
) -> Var:
    """Mean DPO loss over pairs; one forward pass each scores every chosen and rejected body.

    The policy's pass is on theta, the frozen reference's on its parameter array.
    """
    trajs = [p.chosen for p in pairs] + [p.rejected for p in pairs]
    items = [trajectory_item(t) for t in trajs]
    lp = batched_generation_log_vars(policy, theta, items)
    seq = sequence_log_prob_vars(*lp, np.asarray([t.terminated for t in trajs]))
    # a row's tokens summed alone, then its stop where it stopped (sequence_log_prob_vars sums in another order)
    ref_tok, ref_stop, lengths = batched_generation_log_vars(ref_policy, ref_policy.params, items)
    ref = [float(tok[:k].sum()) + (float(stop[k]) if t.terminated else 0.0)
           for tok, stop, k, t in zip(ref_tok, ref_stop, lengths, trajs)]
    n = len(pairs)
    margin_ref = np.subtract(ref[:n], ref[n:])[:, None]
    # chosen minus rejected sequence log-probability, one row per pair
    margin = theta.tape.const(np.hstack([np.eye(n), -np.eye(n)])) @ seq - margin_ref
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
    """Sample from the frozen reference and pair extremes; reward ties are skipped."""
    pairs: list[PreferencePair] = []
    for pid, problem in enumerate(dataset.problems):
        samples, rewards = _draw_scored(ref_policy, dataset, problem, cfg.decode, cfg.samples_per_problem, rng)
        hi = int(np.argmax(rewards))
        lo = int(np.argmin(rewards))
        if rewards[hi] > rewards[lo]:
            pairs.append(PreferencePair(pid, samples[hi], samples[lo], float(rewards[hi]), float(rewards[lo])))
    return pairs


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
    return _fit(
        policy, pairs,
        lambda batch: [trajectory_item(t) for p in batch for t in (p.chosen, p.rejected)],
        lambda pol, theta, batch: dpo_mean_loss_var(pol, theta, ref_policy, batch, cfg.beta),
        cfg, rng, report,
    )


def gae_advantages(
    rewards: np.ndarray | list[float],
    values: np.ndarray | list[float],
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Generalized advantage estimation.

    delta_t = r_t + gamma * v_{t+1} - v_t, A_t = sum_l (gamma*lam)^l delta_{t+l};
    values carries one bootstrap entry beyond the rewards.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.size != rewards.size + 1:
        raise LengthMismatch(f"{values.size} values for {rewards.size} rewards")
    deltas = rewards + gamma * values[1:] - values[:-1]
    out = np.empty_like(deltas)
    acc = 0.0
    for t in range(deltas.size - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        out[t] = acc
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


@dataclass(frozen=True)
class PpoItem:
    """One trajectory prepared for the surrogate: constants only, besides theta."""

    prompt_tokens: tuple[int, ...]
    body: tuple[int, ...]
    terminated: bool
    old_logprobs: np.ndarray
    advantages: np.ndarray


def ppo_surrogate_var(policy: Policy, theta: Var, items: list[PpoItem], clip: float) -> Var:
    """Negative mean clipped surrogate over all generated tokens of the batch."""
    lp_tok, lp_stop, lengths = batched_generation_log_vars(policy, theta, items_of(items))
    width = lp_stop.value.shape[1]
    # one row per item: its body tokens, then the stop symbol where it terminated
    stops = np.zeros((len(items), width))
    stops[np.arange(len(items)), lengths] = [it.terminated for it in items]
    lp = lp_tok @ np.eye(width - 1, width) + lp_stop * stops
    adv = pad_rows([it.advantages for it in items], width)
    # padded slots have ratio exp(0) = 1 and advantage 0, so they add nothing
    ratio = ad.exp(lp - pad_rows([it.old_logprobs for it in items], width))
    unclipped = ratio * adv
    clipped = ad.clamp(ratio, 1.0 - clip, 1.0 + clip) * adv
    count = sum(it.old_logprobs.size for it in items)
    return -(ad.vsum(ad.minimum(unclipped, clipped)) / float(max(count, 1)))


def _generated_log_probs(forward: tuple, trajs: list[Trajectory]) -> list[np.ndarray]:
    """Each trajectory's generated-token log-probabilities, stop symbol included, from an array forward's rows."""
    return [np.append(tok[:n], stop[n]) if t.terminated else tok[:n] for tok, stop, n, t in zip(*forward, trajs)]


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
        trajs, env_rewards = _draw_scored(policy, dataset, problem, cfg.decode, cfg.trajs_per_step, rng)

        # the policy, its frozen reference and the critic each score all of the step's draws in one forward;
        # the policy's is the surrogate's tape forward on the same items, so every ratio starts at exactly 1
        step_items = [trajectory_item(t) for t in trajs]
        old_lps = _generated_log_probs(batched_generation_log_vars(policy, policy.params, step_items), trajs)
        ref_lps = _generated_log_probs(batched_generation_log_vars(ref_policy, ref_policy.params, step_items), trajs)
        ctx = critic.windows(step_items)
        # a draw's contexts, one before each of its positions, follow those of the draws before it;
        # an unregistered critic context reads 0, the value its new row starts at
        cuts = np.cumsum([len(body) + 1 for _, body in step_items])[:-1]
        items: list[PpoItem] = []
        value_rows: list[np.ndarray] = []
        value_targets: list[np.ndarray] = []
        for traj, env_r, (prompt, body), old_lp, ref_lp, rows, states in zip(
                trajs, env_rewards, step_items, old_lps, ref_lps,
                np.split(ctx, cuts), np.split(critic.values(ctx), cuts)):
            token_rewards = -cfg.kl_beta * (old_lp - ref_lp)
            if traj.terminated:
                token_rewards[-1] += env_r
            # truncated rollouts bootstrap from the critic, finished ones see zero beyond stop
            values = np.concatenate([states, [0.0]]) if traj.terminated else states
            adv = gae_advantages(token_rewards, values, cfg.gamma, cfg.gae_lambda)
            items.append(PpoItem(prompt, body, traj.terminated, old_lp, adv))
            value_rows.append(rows[: old_lp.size])
            value_targets.append(adv + values[:-1])

        theta = actor_fit.theta(items_of(items))
        actor_loss = actor_fit.step(ppo_surrogate_var(policy, theta, items, cfg.clip), theta)

        ctheta = critic_fit.theta(items_of(items))
        all_targets = np.concatenate(value_targets)
        resid = critic.values_var(ctheta, np.concatenate(value_rows, axis=0)) - ctheta.tape.const(all_targets)
        critic_fit.step(ad.vsum(ad.square(resid)) / float(all_targets.size), ctheta)

        report.add(step, actor_loss, reward_mean=float(np.mean(env_rewards)))
    return report
