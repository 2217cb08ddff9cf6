"""The one update step (gflownet.Fitter) and the shared minibatch and draw helpers of the trainers."""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest

from flowseq import autodiff as ad
from flowseq import baselines, gflownet
from flowseq.autodiff import AdamState, GradTape, adam_step
from flowseq.baselines import (
    DpoConfig,
    EmptyBatch,
    PpoConfig,
    RftConfig,
    SftConfig,
    _pair_items,
    build_preference_pairs,
    dpo_mean_loss_var,
    dpo_train,
    ppo_train,
    rft_train,
    sft_train,
)
from flowseq.core import SettingError, TaskKind
from flowseq.env import RewardMode, TaskConfig, build_vocab, make_problem
from flowseq.gflownet import Fitter, GfnConfig, NonFiniteLoss, TrainSet, sft_from_vars, train_gflownet
from flowseq.policy import DecodeCfg, Policy, ValueNet, batched_generation_log_vars

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
    pol.register_prefixes(refs)
    pol.params = np.random.default_rng(0).normal(size=pol.params.size)
    before = pol.params.copy()
    fit = Fitter(pol, lr=0.1)
    theta, forward = fit.forward(refs)
    with pytest.raises(NonFiniteLoss):
        fit.step(sft_from_vars(*forward) * float("nan"), theta)
    assert pol.params.tobytes() == before.tobytes()
    assert fit.adam.t == 0


def test_non_finite_gradient_raises_before_adam(monkeypatch, adam_calls):
    ds = tiny_dataset()
    pol = Policy.tabular(ds.vocab, window=5)
    fit = Fitter(pol, lr=0.1)
    refs = ds.all_references()
    theta, forward = fit.forward(refs)
    before = pol.params.copy()

    def poisoned(loss, wrt):
        g = np.zeros(wrt.value.size)
        g[0] = np.inf
        return g

    monkeypatch.setattr(ad, "backward", poisoned)
    with pytest.raises(NonFiniteLoss, match="1 non-finite gradient"):
        fit.step(sft_from_vars(*forward), theta)
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
        old.register_prefixes(batch)
        adam = adam.resized(old.params.size)
        tape = GradTape()
        theta = tape.input(old.params)
        loss = sft_from_vars(*batched_generation_log_vars(old, theta, batch))
        g = ad.backward(loss, theta)
        old.params, adam = adam_step(adam, old.params, g)

    fit = Fitter(new, 0.05)
    for batch in batches:
        theta, forward = fit.forward(batch)
        fit.step(sft_from_vars(*forward), theta)

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
    theta, forward = fit.forward(refs)
    tape = weakref.ref(theta.tape)
    fit.step(sft_from_vars(*forward), theta)
    del forward
    gc.disable()
    try:
        del theta
        assert tape() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["tabular", "neural"])
def test_two_backward_calls_on_one_tape_give_gradients_that_share_no_memory(kind):
    # the first gradient reaching a node is stored uncopied; no later step may write through it
    ds = tiny_dataset(n_problems=2)
    refs = ds.all_references()
    if kind == "tabular":
        pol = Policy.tabular(ds.vocab, window=5)
        pol.register_prefixes(refs)
        pol.params = np.random.default_rng(0).normal(size=pol.params.size)
    else:  # its five parameter blocks are slices of one theta, whose gradients add up there
        pol = Policy.neural(ds.vocab, window=5, embed_dim=4, hidden_dim=8, seed=1)
    tape = GradTape()
    theta = tape.input(pol.params)
    loss = sft_from_vars(*batched_generation_log_vars(pol, theta, refs))
    values = [node.value.tobytes() for node in tape.nodes]
    first = ad.backward(loss, theta)
    kept = first.tobytes()
    second = ad.backward(loss, theta)
    assert second.tobytes() == kept
    first += 1.0
    assert second.tobytes() == kept
    assert [node.value.tobytes() for node in tape.nodes] == values


def test_an_update_step_on_the_criterion_1_table_peaks_near_five_parameter_arrays():
    # the gradient, Adam's new m and v, its scratch array and the step array; copied gradients and
    # Adam's textbook temporaries peaked at about 9 parameter arrays
    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 4), max_parts=4, max_part=2)
    vocab = build_vocab(task)
    problem = make_problem(task, seed=0)
    pol = Policy.tabular(vocab, window=len(problem.prompt_tokens) + problem.max_solution_len)
    items = [(problem.prompt_tokens, body) for body in product(vocab.body_ids, repeat=problem.max_solution_len)]
    pol.register_prefixes(items)  # every prefix
    assert len(pol.contexts) == 1555
    fit = Fitter(pol, 0.08)
    batch = items[::97][:16]
    theta, forward = fit.forward(batch)
    loss = sft_from_vars(*forward)
    tracemalloc.start()
    try:
        fit.step(loss, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * pol.params.nbytes, peak / pol.params.nbytes


def train_each_way(ds: TrainSet, trainer: str, kind: str = "tabular") -> tuple[Policy, list, ValueNet | None]:
    """A policy trained by one trainer from a fresh start (DPO: from an SFT reference), its report's rows, and
    PPO's critic (None for the other trainers)."""
    if kind == "tabular":
        pol = Policy.tabular(ds.vocab, window=5)
    else:
        pol = Policy.neural(ds.vocab, window=5, embed_dim=4, hidden_dim=8, seed=1)
    critic = None
    if trainer == "gflownet":
        report = train_gflownet(pol, ds, GfnConfig(steps=6, batch_size=4, decode=HOT, lr=0.05))
    elif trainer == "sft":
        report = sft_train(pol, ds, cfg=SftConfig(epochs=2, lr=0.05, batch_size=2))
    elif trainer == "rft":
        report = rft_train(pol, ds, RftConfig(k=3, epochs=2, batch_size=2, decode=HOT, lr=0.05))
    elif trainer == "ppo":
        critic = ValueNet.for_policy(pol)
        report = ppo_train(pol, critic, ds, PpoConfig(steps=5, trajs_per_step=3, decode=HOT))
    else:
        sft_train(pol, ds, cfg=SftConfig(epochs=20, lr=0.05))  # so that some draws are correct and pair up
        ref, pol = pol, pol.clone()
        report = dpo_train(pol, ref, ds, DpoConfig(samples_per_problem=16, epochs=2, batch_size=2, decode=HOT,
                                                   lr=0.05))
    return pol, report.rows, critic


@pytest.mark.parametrize("kind", ["tabular", "neural"])
@pytest.mark.parametrize("trainer", ["gflownet", "sft", "rft", "ppo", "dpo"])
def test_a_training_step_builds_its_windows_once_per_model(monkeypatch, trainer, kind):
    # registration's windows (and a table's rows) are handed on to the step's one forward over the same items,
    # and the PPO critic reads its values and its tape forward off its own registration
    ds = tiny_dataset(n_problems=3)
    calls = []
    windows = Policy.windows

    def counted(self, items):
        calls.append(self)
        return windows(self, items)

    monkeypatch.setattr(Policy, "windows", counted)
    pol, rows, critic = train_each_way(ds, trainer, kind)
    assert rows and sum(1 for owner in calls if owner is pol) == len(rows)
    if critic is not None:
        assert sum(1 for owner in calls if owner is critic) == len(rows)


def assert_lookup_forward_is_bitwise(model: Policy, theta, got, want) -> None:
    """got and want, two forwards of model on theta, are the same bytes; on a tape, so are their gradients."""
    if isinstance(theta, np.ndarray):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        return
    assert [v.value.tobytes() for v in got if isinstance(v, ad.Var)] == \
        [v.value.tobytes() for v in want if isinstance(v, ad.Var)]
    loss = sft_from_vars if type(model) is Policy else lambda values: ad.vsum(ad.square(values))
    grads = [ad.backward(loss(*out), theta).tobytes() for out in (got, want)]
    assert grads[0] == grads[1]


@pytest.mark.parametrize("trainer", ["gflownet", "sft", "rft", "ppo", "dpo"])
def test_a_forward_with_the_registered_lookup_equals_one_without_bitwise(monkeypatch, trainer):
    ds = tiny_dataset(n_problems=3)
    registered = {Policy: [], ValueNet: []}
    register = Policy.register_prefixes

    def recorded(self, items):
        registered[type(self)].append(list(items))
        return register(self, items)

    monkeypatch.setattr(Policy, "register_prefixes", recorded)
    trained, _, critic = train_each_way(ds, trainer)
    assert registered[Policy] and bool(registered[ValueNet]) == (critic is not None)
    for items in registered[Policy]:
        size = trained.params.size
        lookup = register(trained, items)
        assert trained.params.size == size  # every context was registered in training
        for theta in (trained.params, GradTape().input(trained.params)):
            assert_lookup_forward_is_bitwise(trained, theta, batched_generation_log_vars(trained, theta, items, lookup),
                                             batched_generation_log_vars(trained, theta, items))
    for items in registered[ValueNet]:  # the critic's values and its tape forward
        size = critic.params.size
        ctx, rows = register(critic, items)
        assert critic.params.size == size
        for theta in (critic.params, GradTape().input(critic.params)):
            assert_lookup_forward_is_bitwise(critic, theta, [critic.forward(theta, ctx, rows)],
                                             [critic.forward(theta, ctx)])
    # a network registers nothing, and its lookup is the windows alone
    net = Policy.neural(ds.vocab, window=5)
    ctx, rows = net.register_prefixes(registered[Policy][0])
    assert rows is None and ctx.tobytes() == net.windows(registered[Policy][0]).tobytes()


def dpo_train_interleaved(policy: Policy, ref: Policy, ds: TrainSet, cfg: DpoConfig) -> None:
    """dpo_train as it was when each minibatch registered its pairs' bodies interleaved, chosen then rejected
    pair by pair, and its forward over all chosen, then all rejected, bodies looked up its own rows."""
    rng = np.random.default_rng(cfg.seed)
    pairs = build_preference_pairs(ref, ds, cfg, rng)
    fit = Fitter(policy, cfg.lr)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        for a in range(0, len(order), cfg.batch_size):
            batch = [pairs[int(i)] for i in order[a : a + cfg.batch_size]]
            theta, _ = fit.theta([(p.prompt, body) for p in batch for body in (p.chosen, p.rejected)])
            forward = batched_generation_log_vars(policy, theta, _pair_items(batch))
            fit.step(dpo_mean_loss_var(forward, batch, cfg.beta), theta)


def test_dpo_registers_chosen_bodies_first_and_ends_where_interleaved_registration_does(monkeypatch):
    # a warm start fitted to one solution per problem leaves the other solutions' contexts unregistered,
    # so chosen bodies bring new contexts and the two registration orders number the table's rows apart
    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(3, 6), max_parts=3, max_part=2,
                      reward_mode=RewardMode.TERMINAL)
    vocab = build_vocab(task)
    ds = TrainSet.build([make_problem(task, seed=s) for s in range(16)], task, vocab, max_refs=1)
    ref = Policy.tabular(vocab, window=3)
    sft_train(ref, ds, cfg=SftConfig(epochs=5, lr=0.1))
    cfg = DpoConfig(samples_per_problem=64, epochs=2, batch_size=3, decode=HOT, lr=0.05)
    registered, batches = [], []
    register, loss = Policy.register_prefixes, baselines.dpo_mean_loss_var

    def recorded_register(self, items):
        registered.append(list(items))
        return register(self, items)

    def recorded_loss(forward, pairs, beta):
        batches.append(pairs)
        return loss(forward, pairs, beta)

    monkeypatch.setattr(Policy, "register_prefixes", recorded_register)
    monkeypatch.setattr(baselines, "dpo_mean_loss_var", recorded_loss)
    got = ref.clone()
    dpo_train(got, ref, ds, cfg)
    monkeypatch.undo()
    assert len(batches) >= 4 and all(len(batch) > 1 for batch in batches[:-1])
    assert registered == [_pair_items(batch) for batch in batches]
    pairs = {p for batch in batches for p in batch}
    assert any(not ref.contexts.keys() >= set(map(tuple, ref.windows([(p.prompt, p.chosen)]).tolist())) for p in pairs)

    want = ref.clone()
    dpo_train_interleaved(want, ref, ds, cfg)
    assert len(ref.contexts) < len(got.contexts) and list(got.contexts) != list(want.contexts)
    assert got.contexts.keys() == want.contexts.keys()
    rows_of = lambda pol: pol.params.reshape(-1, pol.width)  # noqa: E731
    for ctx, row in got.contexts.items():
        assert rows_of(got)[row].tobytes() == rows_of(want)[want.contexts[ctx]].tobytes(), ctx


def test_a_lookup_for_other_items_raises():
    ds = tiny_dataset(n_problems=2)
    refs = ds.all_references()
    pol = Policy.tabular(ds.vocab, window=5)
    ctx, rows = pol.register_prefixes(refs)
    with pytest.raises(ValueError, match="lookup"):
        batched_generation_log_vars(pol, pol.params, refs[:-1], (ctx, rows))
    with pytest.raises(ValueError, match="lookup"):
        batched_generation_log_vars(pol, pol.params, refs, (ctx, rows[:-1]))
    with pytest.raises(ValueError, match="lookup"):
        batched_generation_log_vars(pol, GradTape().input(pol.params), refs, (ctx[1:], rows))


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
