"""The one update step (gflownet.Fitter) and the shared minibatch and draw helpers of the trainers."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from flowseq import autodiff as ad
from flowseq import gflownet
from flowseq.autodiff import AdamState, GradTape, adam_step
from flowseq.baselines import (
    DpoConfig,
    EmptyBatch,
    PpoConfig,
    RftConfig,
    SftConfig,
    build_preference_pairs,
    dpo_train,
    ppo_train,
    rft_train,
    sft_train,
)
from flowseq.core import SettingError, TaskKind
from flowseq.env import RewardMode, TaskConfig, build_vocab, make_problem
from flowseq.gflownet import Fitter, GfnConfig, NonFiniteLoss, TrainSet, items_of, sft_loss_var
from flowseq.policy import DecodeCfg, Policy, ValueNet

HOT = DecodeCfg(temperature=1.0, top_p=1.0)


def tiny_dataset(n_problems: int = 1) -> TrainSet:
    """SUMPATH problems over a 31-terminal space, with their enumerated references."""
    cfg = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 3), max_parts=2,
                     max_part=2, reward_mode=RewardMode.TERMINAL)
    vocab = build_vocab(cfg)
    return TrainSet.build([make_problem(cfg, seed=s) for s in range(1, n_problems + 1)], cfg, vocab)


@pytest.fixture
def adam_calls(monkeypatch):
    """Counts the Adam steps taken through gflownet's binding, where Fitter calls it."""
    calls = []

    def counted(*args):
        calls.append(1)
        return adam_step(*args)

    monkeypatch.setattr(gflownet, "adam_step", counted)
    return calls


def test_nan_loss_raises_and_leaves_params_untouched():
    ds = tiny_dataset()
    pol = Policy.tabular(ds.vocab, window=5)
    refs = ds.all_references()
    pol.register(items_of(refs))
    pol.params = np.random.default_rng(0).normal(size=pol.params.size)
    before = pol.params.copy()
    fit = Fitter(pol, lr=0.1)
    theta = fit.theta(items_of(refs))
    with pytest.raises(NonFiniteLoss):
        fit.step(sft_loss_var(pol, theta, refs) * float("nan"), theta)
    assert pol.params.tobytes() == before.tobytes()
    assert fit.adam.t == 0


def test_non_finite_gradient_raises_before_adam(monkeypatch, adam_calls):
    ds = tiny_dataset()
    pol = Policy.tabular(ds.vocab, window=5)
    fit = Fitter(pol, lr=0.1)
    refs = ds.all_references()
    theta = fit.theta(items_of(refs))
    before = pol.params.copy()

    def poisoned(loss, wrt):
        g = np.zeros(wrt.value.size)
        g[0] = np.inf
        return g

    monkeypatch.setattr(ad, "backward", poisoned)
    with pytest.raises(NonFiniteLoss, match="1 non-finite gradient"):
        fit.step(sft_loss_var(pol, theta, refs), theta)
    assert pol.params.tobytes() == before.tobytes()
    assert adam_calls == []


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
def test_bad_learning_rate_is_rejected_before_the_first_step(lr, adam_calls):
    ds = tiny_dataset()
    pol = Policy.tabular(ds.vocab, window=5)
    with pytest.raises(ValueError, match="learning rate"):
        Fitter(pol, lr)
    with pytest.raises(ValueError, match="learning rate"):
        sft_train(pol, ds, cfg=SftConfig(lr=lr))
    assert adam_calls == []
    assert pol.params.size == 0  # nothing was even registered


def test_one_update_step_equals_the_inline_sequence_bitwise():
    # each step registers new contexts, so the table and the Adam state grow under both
    ds = tiny_dataset(n_problems=3)
    refs = ds.all_references()
    batches = [refs[:2], refs[1:4], refs[3:], refs]
    old = Policy.tabular(ds.vocab, window=5)
    new = old.clone()

    # the sequence every trainer used to repeat inline
    adam = AdamState.init(old.params.size, 0.05)
    for batch in batches:
        old.register(items_of(batch))
        adam = adam.resized(old.params.size)
        tape = GradTape()
        theta = tape.input(old.params)
        loss = sft_loss_var(old, theta, batch)
        g = ad.backward(loss, theta)
        old.params, adam = adam_step(adam, old.params, g)

    fit = Fitter(new, 0.05)
    for batch in batches:
        theta = fit.theta(items_of(batch))
        fit.step(sft_loss_var(new, theta, batch), theta)

    assert new.contexts == old.contexts
    assert new.params.tobytes() == old.params.tobytes()
    assert fit.adam.t == adam.t == len(batches)
    assert fit.adam.m.tobytes() == adam.m.tobytes() and fit.adam.v.tobytes() == adam.v.tobytes()


def test_an_update_step_frees_its_graph_without_the_cyclic_collector():
    # a tape and its variables refer to each other; left alone, each step's graph waits for gc
    ds = tiny_dataset()
    pol = Policy.tabular(ds.vocab, window=5)
    refs = ds.all_references()
    fit = Fitter(pol, 0.05)
    theta = fit.theta(items_of(refs))
    tape = weakref.ref(theta.tape)
    fit.step(sft_loss_var(pol, theta, refs), theta)
    gc.disable()
    try:
        del theta
        assert tape() is None
    finally:
        gc.enable()


def test_every_trainer_steps_through_the_one_update_step(adam_calls):
    ds = tiny_dataset(n_problems=4)
    n_refs = len(ds.all_references())

    sft_train(Policy.tabular(ds.vocab, window=5), ds, cfg=SftConfig(epochs=3, lr=0.05, batch_size=2))
    assert len(adam_calls) == 3 * -(-n_refs // 2)

    adam_calls.clear()
    rft_train(Policy.tabular(ds.vocab, window=5), ds, RftConfig(k=3, epochs=2, batch_size=3, decode=HOT))
    assert len(adam_calls) == 2 * -(-len(ds.problems) // 3)

    ref = Policy.tabular(ds.vocab, window=5)
    sft_train(ref, ds, cfg=SftConfig(epochs=20, lr=0.05))  # so that some draws are correct and pair up
    dcfg = DpoConfig(samples_per_problem=16, epochs=3, batch_size=2, decode=HOT, seed=0)
    n_pairs = len(build_preference_pairs(ref, ds, dcfg, np.random.default_rng(dcfg.seed)))
    assert n_pairs > 0
    adam_calls.clear()
    dpo_train(ref.clone(), ref, ds, dcfg)
    assert len(adam_calls) == 3 * -(-n_pairs // 2)

    adam_calls.clear()
    pol = Policy.tabular(ds.vocab, window=5)
    ppo_train(pol, ValueNet.for_policy(pol), ds, PpoConfig(steps=3, trajs_per_step=2, decode=HOT))
    assert len(adam_calls) == 2 * 3  # actor and critic

    adam_calls.clear()
    gflownet.train_gflownet(Policy.tabular(ds.vocab, window=5), ds, GfnConfig(steps=4, batch_size=2, decode=HOT))
    assert len(adam_calls) == 4


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
def test_gfn_config_rejects_bad_subtb_lambda(lam):
    with pytest.raises(ValueError, match="subtb_lambda"):
        GfnConfig(steps=1, subtb_lambda=lam)


def test_gfn_config_rejects_empty_batch():
    with pytest.raises(ValueError, match="batch_size"):
        GfnConfig(steps=1, batch_size=0)


def test_sft_rejects_empty_batches():
    ds = tiny_dataset()
    with pytest.raises(EmptyBatch, match="batch_size"):
        sft_train(Policy.tabular(ds.vocab, window=5), ds, cfg=SftConfig(batch_size=0))


def test_dpo_rejects_empty_batches():
    ds = tiny_dataset()
    ref = Policy.tabular(ds.vocab, window=5)
    with pytest.raises(EmptyBatch, match="batch_size"):
        dpo_train(ref.clone(), ref, ds, DpoConfig(batch_size=0, decode=HOT))


def test_rft_rejects_zero_draws():
    ds = tiny_dataset()
    with pytest.raises(EmptyBatch, match="draws per problem"):
        rft_train(Policy.tabular(ds.vocab, window=5), ds, RftConfig(k=0))


def test_ppo_rejects_zero_draws():
    ds = tiny_dataset()
    pol = Policy.tabular(ds.vocab, window=5)
    with pytest.raises(EmptyBatch, match="draws per problem"):
        ppo_train(pol, ValueNet.for_policy(pol), ds, PpoConfig(steps=1, trajs_per_step=0))


def test_dpo_config_needs_two_samples_to_pair():
    with pytest.raises(ValueError, match="samples_per_problem"):
        DpoConfig(samples_per_problem=1)
    DpoConfig(samples_per_problem=2)


@pytest.mark.parametrize("build, error, match", [
    (lambda: SftConfig(epochs=-3), ValueError, "epochs"),
    (lambda: SftConfig(batch_size=0), EmptyBatch, "batch_size"),
    (lambda: SftConfig(lr=float("nan")), ValueError, "learning rate"),
    (lambda: RftConfig(epochs=-1), ValueError, "epochs"),
    (lambda: RftConfig(k=0), EmptyBatch, "draws per problem"),
    (lambda: RftConfig(batch_size=0), EmptyBatch, "batch_size"),
    (lambda: RftConfig(lr=0.0), ValueError, "learning rate"),
    (lambda: DpoConfig(epochs=-1), ValueError, "epochs"),
    (lambda: DpoConfig(batch_size=0), EmptyBatch, "batch_size"),
    (lambda: DpoConfig(beta=-5.0), ValueError, "beta"),
    (lambda: DpoConfig(beta=0.0), ValueError, "beta"),
    (lambda: DpoConfig(beta=float("inf")), ValueError, "beta"),
    (lambda: DpoConfig(lr=-1e-3), ValueError, "learning rate"),
    (lambda: PpoConfig(steps=-1), ValueError, "steps"),
    (lambda: PpoConfig(trajs_per_step=0), EmptyBatch, "draws per problem"),
    (lambda: PpoConfig(steps=0, trajs_per_step=0), EmptyBatch, "draws per problem"),
    (lambda: PpoConfig(kl_beta=-1.0), ValueError, "kl_beta"),
    (lambda: PpoConfig(kl_beta=float("nan")), ValueError, "kl_beta"),
    (lambda: PpoConfig(actor_lr=float("inf")), ValueError, "actor learning rate"),
    (lambda: PpoConfig(critic_lr=0.0), ValueError, "critic learning rate"),
])
def test_trainer_configs_reject_bad_settings_when_built(build, error, match):
    with pytest.raises(error, match=match):
        build()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, field", [
    # GfnConfig once let these through: a nan sft_coeff trained as if it were 0
    (lambda: GfnConfig(steps=1, sft_coeff=NAN), "sft_coeff"),
    (lambda: GfnConfig(steps=1, sft_coeff=INF), "sft_coeff"),
    (lambda: GfnConfig(steps=1, horizon_coeff=INF), "horizon_coeff"),
    (lambda: GfnConfig(steps=1, diag_every=-1), "diag_every"),
    (lambda: GfnConfig(steps=1, lr=0.0), "lr"),
    (lambda: GfnConfig(steps=1, buffer_capacity=0), "buffer_capacity"),
    # and the fitted trainers accepted zero epochs
    (lambda: SftConfig(epochs=0), "epochs"),
    (lambda: RftConfig(epochs=0), "epochs"),
    (lambda: DpoConfig(epochs=0), "epochs"),
    (lambda: RftConfig(k=0), "k"),
    (lambda: DpoConfig(beta=NAN), "beta"),
    (lambda: DpoConfig(samples_per_problem=1), "samples_per_problem"),
    (lambda: PpoConfig(clip=1.0), "clip"),
    (lambda: PpoConfig(trajs_per_step=0), "trajs_per_step"),
    (lambda: PpoConfig(actor_lr=INF), "actor_lr"),
    # a negative seed once reached numpy's generator, whose error names no field
    (lambda: GfnConfig(steps=1, seed=-1), "seed"),
    (lambda: SftConfig(seed=-1), "seed"),
    (lambda: RftConfig(seed=-1), "seed"),
    (lambda: DpoConfig(seed=-1), "seed"),
    (lambda: PpoConfig(seed=-1), "seed"),
    (lambda: DecodeCfg(temperature=NAN), "temperature"),
    (lambda: DecodeCfg(top_p=0.0), "top_p"),
    (lambda: DecodeCfg(max_new_tokens=0), "max_new_tokens"),
    (lambda: TaskConfig(TaskKind.SUMPATH, value_range=(0, 3)), "value_range[0]"),
    (lambda: TaskConfig(TaskKind.SUMPATH, value_range=(4, 3)), "value_range[0]"),
    (lambda: TaskConfig(TaskKind.SUMPATH, value_range=(2, 0)), "value_range[1]"),
    (lambda: TaskConfig(TaskKind.ARITH, max_part=0), "max_part"),
    (lambda: TaskConfig(TaskKind.SUMPATH, reward_floor=NAN), "reward_floor"),
])
def test_a_typed_config_names_the_field_it_rejects(build, field):
    with pytest.raises(SettingError) as info:
        build()
    assert info.value.field == field


def test_fit_rejects_negative_epochs_given_outside_the_config():
    ds = tiny_dataset()
    with pytest.raises(ValueError, match="epochs"):
        sft_train(Policy.tabular(ds.vocab, window=5), ds, epochs=-3)
