from __future__ import annotations

import struct
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from flowseq import autodiff as ad
from flowseq import policy as policy_module
from flowseq.autodiff import GradTape, finite_diff_check
from flowseq.core import Problem, TaskKind, Vocab, encode, make_vocab
from flowseq.env import (SpaceTooLarge, TaskConfig, RewardMode, build_vocab, level_rows, make_problem,
                         terminal_levels)
from flowseq.policy import (
    MAGIC,
    CheckpointMismatch,
    DecodeCfg,
    Policy,
    PolicyKind,
    TerminalDistribution,
    ValueNet,
    _sample_with_rng,
    batched_generation_log_vars,
    generation_log_probs,
    greedy_decode,
    load_policy,
    save_policy,
    terminal_distribution,
    trajectory_body,
)


def tiny_vocab() -> Vocab:
    return make_vocab(["a", "b", "c"])


def tiny_problem(vocab: Vocab, max_len: int = 3) -> Problem:
    return Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(0,),
                   target=1, operands=(1,), max_solution_len=max_len)


def product_bodies(problem: Problem, vocab: Vocab) -> list[tuple[int, ...]]:
    """Every terminal body in the terminal order, built here rather than in src: by length, then product order."""
    return [body for n in range(problem.max_solution_len + 1) for body in product(vocab.body_ids, repeat=n)]


def seeded_tabular(vocab: Vocab, window: int = 2, scale: float = 1.0, seed: int = 0) -> Policy:
    """Tabular policy with random logits over a handful of contexts."""
    pol = Policy.tabular(vocab, window=window)
    rng = np.random.default_rng(seed)
    prob = tiny_problem(vocab)
    pol.register_prefixes([(prob.prompt_tokens, tuple())])
    for a in range(vocab.size - 1):
        pol.register_prefixes([(prob.prompt_tokens, (a,))])
        for b in range(vocab.size - 1):
            pol.register_prefixes([(prob.prompt_tokens, (a, b))])
    pol.params = rng.normal(0.0, scale, size=pol.params.size)
    return pol


def next_log_probs(pol: Policy, prefix) -> np.ndarray:
    """The one-row oracle: log-probabilities of the token after prefix."""
    return pol.forward(pol.params, np.asarray([pol.context_of(prefix)], dtype=np.int64))[0]


def test_log_probs_normalized_many_contexts():
    vocab = tiny_vocab()
    for kind_seed in range(3):
        pol = seeded_tabular(vocab, seed=kind_seed)
        for ctx in list(pol.contexts)[:100]:
            lp = next_log_probs(pol, ctx)
            assert np.isclose(np.exp(lp).sum(), 1.0)
    net = Policy.neural(vocab, window=3, embed_dim=4, hidden_dim=8, seed=1)
    for prefix in [(0,), (0, 1), (0, 1, 2)]:
        assert np.isclose(np.exp(next_log_probs(net, prefix)).sum(), 1.0)


def test_unregistered_context_is_uniform():
    vocab = tiny_vocab()
    pol = Policy.tabular(vocab, window=2)
    lp = next_log_probs(pol, (0, 1, 2))
    assert np.allclose(lp, -np.log(vocab.size))


def test_generation_log_probs_step_by_step_oracle():
    vocab = tiny_vocab()
    pol = seeded_tabular(vocab)
    problem = tiny_problem(vocab)
    traj = _sample_with_rng(pol, problem, DecodeCfg(temperature=1.0, top_p=1.0),
                            np.random.default_rng(5))
    body = trajectory_body(traj)
    lp_tok, lp_stop = generation_log_probs(pol, problem.prompt_tokens, body)
    lp = np.append(lp_tok, lp_stop[len(body)]) if traj.terminated else lp_tok
    # recompute each factor by querying the policy one prefix at a time
    prefix = list(problem.prompt_tokens)
    want = []
    for tok in traj.generated:
        want.append(next_log_probs(pol, tuple(prefix))[tok])
        prefix.append(tok)
    assert np.allclose(lp, want)
    assert len(lp) == len(traj.generated)


def test_nucleus_sampling_chi_square():
    # with temperature 1 and top_p 1 draw frequencies must match the policy
    vocab = tiny_vocab()
    pol = seeded_tabular(vocab, scale=0.8, seed=9)
    ctx = pol.context_of((0,))
    p = np.exp(next_log_probs(pol, (0,)))
    rng = np.random.default_rng(42)
    n = 4000
    problem = tiny_problem(vocab, max_len=1)
    counts = np.zeros(vocab.size)
    for _ in range(n):
        traj = _sample_with_rng(pol, problem, DecodeCfg(temperature=1.0, top_p=1.0), rng)
        counts[traj.generated[0]] += 1
    chi2 = ((counts - n * p) ** 2 / (n * p)).sum()
    # df = vocab.size - 1; reject only far out in the tail
    assert chi2 < stats.chi2.ppf(0.999, df=vocab.size - 1)


def test_top_p_truncates_tail():
    # nucleus keeps the smallest prefix of the sorted probabilities >= top_p
    vocab = make_vocab(["x", "y", "z"])
    pol = Policy.tabular(vocab, window=1)
    problem = Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(0,),
                      target=1, operands=(1,), max_solution_len=1)
    pol.register_prefixes([((0,), ())])
    idx = pol.contexts[pol.context_of((0,))]
    # p approx [0.6, 0.25, 0.1, 0.05] over x,y,z,eos
    pol.params = np.zeros(pol.params.size)
    pol.params[idx * vocab.size:(idx + 1) * vocab.size] = np.log([0.6, 0.25, 0.1, 0.05])
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(500):
        t = _sample_with_rng(pol, problem, DecodeCfg(temperature=1.0, top_p=0.8), rng)
        seen.add(t.generated[0])
    assert seen == {0, 1}  # z and eos fall outside the 0.8 nucleus


def test_greedy_decode_ties_take_lowest_id():
    vocab = tiny_vocab()
    pol = Policy.tabular(vocab, window=2)  # all-zero rows: every token tied
    problem = tiny_problem(vocab, max_len=2)
    traj = greedy_decode(pol, problem)
    assert traj.generated[0] == 0
    assert not traj.terminated or traj.generated[-1] == vocab.stop_id


def test_greedy_deterministic_and_stops():
    vocab = tiny_vocab()
    pol = seeded_tabular(vocab, scale=3.0, seed=4)
    problem = tiny_problem(vocab)
    a = greedy_decode(pol, problem)
    b = greedy_decode(pol, problem)
    assert a == b
    assert len(a.generated) <= problem.max_solution_len + 1


def test_sample_budget_caps_generation():
    vocab = tiny_vocab()
    pol = seeded_tabular(vocab, scale=0.1)
    problem = tiny_problem(vocab, max_len=2)
    for s in range(20):
        t = _sample_with_rng(pol, problem, DecodeCfg(temperature=1.0, top_p=1.0),
                             np.random.default_rng(s))
        if t.terminated:
            assert t.generated[-1] == vocab.stop_id
            assert len(t.generated) <= problem.max_solution_len + 1
        else:
            assert len(t.generated) == problem.max_solution_len + 1


def test_terminal_distribution_hand_case():
    # one-step policy with p(a)=0.4, p(eos)=0.6: mass 0.6 on the empty body,
    # and every length-1 body carries its token prob times the next stop prob
    vocab = make_vocab(["u"])
    pol = Policy.tabular(vocab, window=2)
    problem = Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(0,),
                      target=1, operands=(1,), max_solution_len=1)
    pol.register_prefixes([((0,), (0,))])
    i0, i1 = pol.contexts[pol.context_of((0,))], pol.contexts[pol.context_of((0, 0))]
    pol.params = np.zeros(pol.params.size)
    pol.params[i0 * 2:(i0 + 1) * 2] = np.log([0.4, 0.6])
    pol.params[i1 * 2:(i1 + 1) * 2] = np.log([0.5, 0.5])
    dist = terminal_distribution(pol, problem)
    assert product_bodies(problem, vocab) == [(), (0,)]
    assert dist.probs.dtype == np.float64 and len(dist.probs) == 2
    assert dist.probs[0] == pytest.approx(0.6)
    assert dist.probs[1] == pytest.approx(0.4 * 0.5)
    assert dist.overflow == pytest.approx(0.4 * 0.5)
    assert dist.total_mass == pytest.approx(1.0)


def test_terminal_distribution_matches_monte_carlo():
    vocab = tiny_vocab()
    pol = seeded_tabular(vocab, scale=0.7, seed=6)
    problem = tiny_problem(vocab, max_len=2)
    dist = terminal_distribution(pol, problem)
    rng = np.random.default_rng(123)
    n = 3000
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(n):
        t = _sample_with_rng(pol, problem, DecodeCfg(temperature=1.0, top_p=1.0), rng)
        if t.terminated:
            body = trajectory_body(t)
            counts[body] = counts.get(body, 0) + 1
    for body, p in zip(product_bodies(problem, vocab), dist.probs.tolist(), strict=True):
        if p < 0.01:
            continue
        freq = counts.get(body, 0) / n
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 4 * sigma, (body, freq, p)


@pytest.mark.parametrize("score_rows", [None, 4])
@pytest.mark.parametrize("kind", ["tabular", "neural"])
def test_terminal_distribution_matches_per_step_products(kind, score_rows, monkeypatch):
    # brute force: each terminal's probability is the product of its one-row per-step log-probabilities
    if score_rows is not None:
        # levels of 9 and 27 bodies then span several slices, the last one partial
        monkeypatch.setattr(policy_module, "SCORE_ROWS", score_rows)
    vocab = tiny_vocab()
    if kind == "tabular":
        pol = seeded_tabular(vocab, scale=1.5, seed=4)
    else:
        pol = Policy.neural(vocab, window=2, embed_dim=4, hidden_dim=8, seed=4)
        pol.params = np.random.default_rng(4).normal(0.0, 1.0, size=pol.params.size)
    problem = tiny_problem(vocab, max_len=3)
    dist = terminal_distribution(pol, problem)
    bodies = product_bodies(problem, vocab)
    assert len(dist.probs) == len(bodies)
    overflow = 0.0
    for body, got in zip(bodies, dist.probs.tolist()):
        mass = 1.0
        for t, tok in enumerate(body):
            mass *= np.exp(next_log_probs(pol, problem.prompt_tokens + body[:t])[tok])
        p_stop = np.exp(next_log_probs(pol, problem.prompt_tokens + body)[vocab.stop_id])
        assert got == pytest.approx(mass * p_stop, rel=1e-12, abs=0.0), body
        if len(body) == problem.max_solution_len:
            overflow += mass * (1.0 - p_stop)
    assert dist.overflow == pytest.approx(overflow, rel=1e-12, abs=0.0)
    assert dist.total_mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rows", [1, 7, policy_module.SCORE_ROWS])
def test_level_rows_equal_each_chunk_of_the_level_as_an_array(rows):
    # the matrix terminal_distribution scores is each chunk of the level's product-order tuples;
    # the longest level, 11**4 bodies, spans four chunks of SCORE_ROWS, the last one partial
    cfg = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 9), max_parts=4, max_part=3)
    vocab = build_vocab(cfg)
    problem = make_problem(cfg, seed=0)
    for length, size in enumerate(terminal_levels(problem, vocab)):
        if rows == 1 and length > 2:
            break
        level = product(vocab.body_ids, repeat=length)
        start = 0
        while bodies := list(islice(level, rows)):
            got = level_rows(vocab.body_ids, length, start, len(bodies))
            want = np.asarray(bodies, dtype=np.int64).reshape(len(bodies), length)
            assert got.dtype == want.dtype and got.shape == want.shape, (length, start)
            assert np.array_equal(got, want), (length, start)
            start += len(bodies)
        assert start == size == len(vocab.body_ids) ** length


def test_total_mass_adds_left_to_right():
    # the same cancellation as left_sum's: 0.0 on every Python version
    dist = TerminalDistribution(probs=np.array([1e16, 1.0, -1e16]), overflow=0.0)
    assert dist.total_mass == 0.0


def test_terminal_laws_compare_without_raising():
    # a generated __eq__ would compare the probs arrays elementwise and raise on laws of two or more terminals
    law = TerminalDistribution(probs=np.array([0.25, 0.75]), overflow=0.0)
    same_values = TerminalDistribution(probs=np.array([0.25, 0.75]), overflow=0.0)
    assert law == law
    assert law != same_values
    assert law in [same_values, law]


def test_terminal_distribution_refuses_an_over_cap_space():
    cfg = TaskConfig(task_kind=TaskKind.ARITH, value_range=(2, 30))
    vocab = build_vocab(cfg)
    with pytest.raises(SpaceTooLarge):
        terminal_distribution(Policy.tabular(vocab), make_problem(cfg, seed=3))


def test_generation_log_probs_match_sequential_queries():
    vocab = tiny_vocab()
    pol = seeded_tabular(vocab, seed=8)
    prompt = (0,)
    body = (1, 2)
    lp_tok, lp_stop = generation_log_probs(pol, prompt, body)
    assert lp_tok.shape == (2,) and lp_stop.shape == (3,)
    assert np.isclose(lp_tok[0], next_log_probs(pol, prompt)[1])
    assert np.isclose(lp_tok[1], next_log_probs(pol, prompt + (1,))[2])
    assert np.isclose(lp_stop[2], next_log_probs(pol, prompt + body)[vocab.stop_id])


def test_checkpoint_round_trip_tabular(tmp_path):
    vocab = tiny_vocab()
    pol = seeded_tabular(vocab, seed=2)
    path = str(tmp_path / "pol.bin")
    save_policy(path, pol)
    back = load_policy(path, vocab)
    assert back.kind is PolicyKind.TABULAR
    assert back.window == pol.window
    assert back.contexts == pol.contexts
    assert np.array_equal(back.params, pol.params)
    assert np.allclose(next_log_probs(back, (0, 1)), next_log_probs(pol, (0, 1)))


def test_checkpoint_round_trip_neural(tmp_path):
    vocab = tiny_vocab()
    pol = Policy.neural(vocab, window=2, embed_dim=4, hidden_dim=8, seed=5)
    path = str(tmp_path / "net.bin")
    save_policy(path, pol)
    back = load_policy(path, vocab)
    assert back.kind is PolicyKind.NEURAL
    assert (back.embed_dim, back.hidden_dim) == (4, 8)
    assert np.array_equal(back.params, pol.params)


def test_checkpoint_vocab_mismatch(tmp_path):
    pol = seeded_tabular(tiny_vocab())
    path = str(tmp_path / "pol.bin")
    save_policy(path, pol)
    other = make_vocab(["a", "b", "d"])
    with pytest.raises(CheckpointMismatch):
        load_policy(path, other)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointMismatch):
        load_policy(str(path), tiny_vocab())


def test_value_net_shapes_and_registration():
    cfg = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 4),
                     max_parts=3, max_part=2, reward_mode=RewardMode.TERMINAL)
    vocab = build_vocab(cfg)
    problem = make_problem(cfg, seed=0)
    pol = Policy.tabular(vocab, window=4)
    net = ValueNet.for_policy(pol)
    net.register_prefixes([(problem.prompt_tokens, (2, 2))])
    ctx = pol.windows([(problem.prompt_tokens, (2, 2))])
    vals = net.forward(net.params, ctx)
    assert vals.shape == (3,)
    netn = ValueNet.for_policy(Policy.neural(vocab, window=3, embed_dim=4, hidden_dim=6))
    vals2 = netn.forward(netn.params, ctx[:, -3:])
    assert vals2.shape == (3,)


def _corrupt_checkpoint(tmp_path, edit) -> str:
    """A neural checkpoint rewritten by edit(bytearray)."""
    path = tmp_path / "net.bin"
    save_policy(str(path), Policy.neural(tiny_vocab(), window=2, embed_dim=4, hidden_dim=8, seed=5))
    blob = bytearray(path.read_bytes())
    edit(blob)
    path.write_bytes(bytes(blob))
    return str(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = _corrupt_checkpoint(tmp_path, lambda b: b.extend(b"\0" * 8))
    with pytest.raises(CheckpointMismatch):
        load_policy(path, tiny_vocab())


def test_checkpoint_rejects_unknown_kind_code(tmp_path):
    def kind_seven(blob):
        blob[len(MAGIC)] = 7

    with pytest.raises(CheckpointMismatch):
        load_policy(_corrupt_checkpoint(tmp_path, kind_seven), tiny_vocab())


def test_checkpoint_rejects_hidden_dim_that_disagrees_with_param_count(tmp_path):
    def hidden_nine(blob):
        struct.pack_into("<I", blob, len(MAGIC) + 9, 9)  # after kind, window and embed_dim

    with pytest.raises(CheckpointMismatch):
        load_policy(_corrupt_checkpoint(tmp_path, hidden_nine), tiny_vocab())


def test_checkpoint_rejects_truncated_file(tmp_path):
    path = _corrupt_checkpoint(tmp_path, lambda b: b.__delitem__(slice(-8, None)))
    with pytest.raises(CheckpointMismatch):
        load_policy(path, tiny_vocab())


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_checkpoint_rejects_non_finite_parameter(tmp_path, value):
    # the last parameter is the last 8 bytes; before the check it loaded cleanly
    path = _corrupt_checkpoint(tmp_path, lambda b: struct.pack_into("<d", b, len(b) - 8, value))
    with pytest.raises(CheckpointMismatch, match="not finite"):
        load_policy(path, tiny_vocab())


def test_checkpoint_rejects_tabular_context_token_outside_the_vocabulary(tmp_path):
    # with the prompt context's PAD cell rewritten to 999, a checkpoint once loaded and read a zero row there
    vocab = tiny_vocab()
    pol = seeded_tabular(vocab)
    path = tmp_path / "pol.bin"
    save_policy(str(path), pol)
    saved = path.read_bytes()
    cell = len(MAGIC) + struct.calcsize("<BIIIIQ") + 32 + 4 * pol.window * pol.contexts[pol.context_of((0,))]
    assert struct.unpack_from("<i", saved, cell) == (pol.pad_id,)
    for token in (999, -5, pol.pad_id + 1):
        blob = bytearray(saved)
        struct.pack_into("<i", blob, cell, token)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMismatch, match=rf"context token id {token} is outside 0\.\.{pol.pad_id}"):
            load_policy(str(path), vocab)


def test_checkpoint_rejects_repeated_tabular_context(tmp_path):
    vocab = tiny_vocab()
    pol = seeded_tabular(vocab)
    path = tmp_path / "pol.bin"
    save_policy(str(path), pol)
    blob = bytearray(path.read_bytes())
    table = len(MAGIC) + struct.calcsize("<BIIIIQ") + 32
    row = 4 * pol.window
    blob[table + row : table + 2 * row] = blob[table : table + row]
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointMismatch):
        load_policy(str(path), vocab)


@settings(max_examples=60, deadline=None)
@given(neural=st.booleans(), cut=st.integers(min_value=1, max_value=2000),
       extra=st.binary(min_size=1, max_size=64))
def test_checkpoint_fuzz_truncation_and_appended_bytes(tmp_path_factory, neural, cut, extra):
    vocab = tiny_vocab()
    pol = Policy.neural(vocab, window=2, embed_dim=4, hidden_dim=8) if neural else seeded_tabular(vocab)
    path = tmp_path_factory.mktemp("ckpt") / "pol.bin"
    save_policy(str(path), pol)
    blob = path.read_bytes()
    for bad in (blob[: max(len(blob) - cut, 0)], blob + extra):
        path.write_bytes(bad)
        with pytest.raises(CheckpointMismatch):
            load_policy(str(path), vocab)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -1.0, 0.0])
def test_decode_cfg_rejects_degenerate_temperature(temperature):
    with pytest.raises(ValueError, match="temperature"):
        DecodeCfg(temperature=temperature)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_subnormal_temperature_raises_instead_of_sampling_garbage():
    vocab = tiny_vocab()
    pol = seeded_tabular(vocab, seed=1)
    with pytest.raises(ValueError, match="1e-310"):
        _sample_with_rng(pol, tiny_problem(vocab), DecodeCfg(temperature=1e-310, top_p=1.0),
                         np.random.default_rng(0))


def _critics(vocab: Vocab):
    tab = ValueNet.for_policy(Policy.tabular(vocab, window=2))
    tab.register_prefixes([((0,), (1, 2)), ((0,), (2,))])
    tab.params = np.random.default_rng(3).normal(size=tab.params.size)
    neural = ValueNet.for_policy(Policy.neural(vocab, window=2, embed_dim=3, hidden_dim=5), seed=4)
    # at the 0.02 init scale the smallest gradients sit at the central-difference noise floor
    neural.params = np.random.default_rng(4).normal(0.0, 0.5, size=neural.params.size)
    return tab, neural


def _policies(vocab: Vocab):
    """A tabular and a neural policy of window 2 at random parameters."""
    neural = Policy.neural(vocab, window=2, embed_dim=3, hidden_dim=5)
    neural.params = np.random.default_rng(4).normal(0.0, 0.5, size=neural.params.size)
    return seeded_tabular(vocab), neural


def test_forward_on_the_array_matches_the_tape_bitwise():
    # sampling, enumeration and the critic's values read the array forward, training the tape one
    vocab = tiny_vocab()
    items = [((0,), (1, 2)), ((0,), (2,)), ((0,), ())]
    for model in _policies(vocab) + _critics(vocab):
        ctx = model.windows(items)
        got = model.forward(GradTape().input(model.params), ctx).value
        assert got.shape == ((ctx.shape[0],) if isinstance(model, ValueNet) else (ctx.shape[0], model.width))
        assert model.forward(model.params, ctx).tobytes() == got.tobytes()
    for pol in _policies(vocab):
        # and so does the padded batch, masks included
        arrays = batched_generation_log_vars(pol, pol.params, items)
        tape = batched_generation_log_vars(pol, GradTape().input(pol.params), items)
        for a, v in zip(arrays[:2], tape[:2]):
            assert a.tobytes() == v.value.tobytes()


def test_critic_squared_error_gradient_matches_finite_differences():
    vocab = tiny_vocab()
    ctx = Policy.tabular(vocab, window=2).windows([((0,), (1, 2))])
    targets = np.array([0.3, -1.2, 2.0])
    for critic in _critics(vocab):
        def loss(theta, critic=critic):
            resid = critic.forward(theta, ctx) - theta.tape.const(targets)
            return ad.vsum(ad.square(resid)) / float(targets.size)

        assert finite_diff_check(loss, critic.params) < 1e-6


def test_register_assigns_rows_in_item_order():
    vocab = tiny_vocab()
    pol = Policy.tabular(vocab, window=2)
    pol.register_prefixes([((0,), (1,)), ((0,), (2, 1))])
    # the first item's prefixes, then the second's new ones
    order = [(pol.pad_id, 0), (0, 1), (0, 2), (2, 1)]
    assert list(pol.contexts) == order
    assert list(pol.contexts.values()) == [0, 1, 2, 3]
    assert pol.params.size == len(order) * vocab.size
    neural = Policy.neural(vocab, window=2, embed_dim=3, hidden_dim=5)
    before = neural.params.copy()
    neural.register_prefixes([((0,), (1,)), ((0,), (2, 1))])
    assert np.array_equal(neural.params, before) and not neural.contexts


def test_value_net_clone_stays_a_value_net():
    vocab = tiny_vocab()
    for pol in (Policy.tabular(vocab, window=2), Policy.neural(vocab, window=2, embed_dim=3, hidden_dim=5)):
        critic = ValueNet.for_policy(pol)
        copy = critic.clone()
        assert isinstance(copy, ValueNet) and copy.width == 1
        assert np.array_equal(copy.params, critic.params)


@pytest.mark.parametrize("window", [1, 2, 3, 6])
def test_windows_match_per_prefix_contexts(window):
    vocab = make_vocab(["a", "b", "c", "d"])
    pol = Policy.tabular(vocab, window=window)
    rng = np.random.default_rng(window)
    # prompts of 1 to 4 tokens, bodies of 0 to 5: windows both shorter and longer than the prompt
    items = [(tuple(rng.integers(0, vocab.size, size=p).tolist()), tuple(rng.integers(0, vocab.size, size=n).tolist()))
             for p in (1, 2, 4) for n in range(6)]
    items = [items[i] for i in rng.permutation(len(items))]
    want = [pol.context_of(prompt + body[:t]) for prompt, body in items for t in range(len(body) + 1)]
    got = pol.windows(items)
    assert got.dtype == np.int64 and got.shape == (len(want), window)
    assert [tuple(row) for row in got.tolist()] == want
    assert pol.windows([]).shape == (0, window)


def test_register_keys_are_python_int_tuples_in_item_order():
    vocab = tiny_vocab()
    pol = Policy.tabular(vocab, window=3)
    items = [((0, 1), (2,)), ((1,), ()), ((0, 1), (2, 0, 1))]
    pol.register_prefixes(items)
    want = list(dict.fromkeys(pol.context_of(p + b[:t]) for p, b in items for t in range(len(b) + 1)))
    assert list(pol.contexts.items()) == [(ctx, row) for row, ctx in enumerate(want)]
    # numpy integers compare equal to ints but repr differently, which would move checkpoint digests
    assert all(type(ctx) is tuple and all(type(t) is int for t in ctx) for ctx in pol.contexts)


def test_register_replaces_params_once_per_call():
    class Counted(Policy):
        @property
        def params(self):
            return self._params

        @params.setter
        def params(self, value):
            self.sets = getattr(self, "sets", 0) + 1
            self._params = value

    vocab = tiny_vocab()
    pol = Counted(PolicyKind.TABULAR, vocab, 2, np.zeros(0))
    pol.sets = 0
    pol.register_prefixes([((0,), (1, 2)), ((0,), (2, 1, 0))])
    assert pol.sets == 1 and len(pol.contexts) == 6 and pol.params.size == 6 * vocab.size
    pol.register_prefixes([((0,), (1,))])  # nothing new
    assert pol.sets == 1


def test_tape_rows_of_an_unregistered_context_name_it():
    vocab = tiny_vocab()
    pol = Policy.tabular(vocab, window=2)
    pol.register_prefixes([((0,), (1,))])
    pol.params = np.random.default_rng(0).normal(size=pol.params.size)
    ctx = pol.windows([((0,), (1, 2))])  # its last context, (1, 2), is new
    with pytest.raises(KeyError, match=r"unregistered tabular context \(1, 2\)"):
        pol.forward(GradTape().input(pol.params), ctx)
    # the same forward on the parameter array reads a zero, so uniform, row there
    lp = pol.forward(pol.params, ctx)
    assert np.array_equal(lp[-1], np.full(vocab.size, -np.log(vocab.size)))
    assert lp[:-1].tobytes() == pol.forward(GradTape().input(pol.params), ctx[:-1]).value.tobytes()


def dict_rows(contexts: dict, ctx_mat: np.ndarray, grow: bool) -> list[int]:
    """The lookup's oracle on a dict: row of each context, -1 when absent; grow first appends new ones in order."""
    keys = [tuple(row) for row in ctx_mat.tolist()]
    if grow:
        for key in keys:
            contexts.setdefault(key, len(contexts))
    return [contexts.get(key, -1) for key in keys]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lookup_returns_the_dict_rows(data):
    vocab = make_vocab(["a", "b", "c", "d"])
    window = data.draw(st.integers(1, 5), label="window")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pol, want = Policy.tabular(vocab, window=window), {}
    pool = rng.integers(0, pol.pad_id + 1, size=(40, window))  # contexts that recur across batches
    for n, grow in data.draw(st.lists(st.tuples(st.sampled_from([1, 3, 127, 128, 133, 300]),
                                                st.booleans()), min_size=1, max_size=6), label="batches"):
        fresh = rng.integers(0, pol.pad_id + 1, size=(n, window))
        ctx = np.where(rng.random((n, 1)) < 0.5, pool[rng.integers(0, len(pool), size=n)], fresh)
        params = pol.params
        got = pol._rows(ctx, grow=grow)
        assert list(got) == dict_rows(want, ctx, grow)
        # registration: rows in first-appearance order, int-tuple keys, one parameter array per call
        assert list(pol.contexts.items()) == list(want.items())
        assert all(type(k) is tuple and all(type(t) is int for t in k) for k in pol.contexts)
        assert pol.params.size == len(want) * vocab.size
        assert (pol.params is params) == (not grow or pol.params.size == params.size)


def test_lookup_follows_clone_load_and_a_replaced_dict(tmp_path):
    vocab = make_vocab(["a", "b", "c", "d"])
    pol = Policy.tabular(vocab, window=3)
    rng = np.random.default_rng(7)
    seen = rng.integers(0, pol.pad_id + 1, size=(60, 3))
    pol._rows(seen, grow=True)
    pol.params = rng.normal(size=pol.params.size)
    probe = np.concatenate([seen, rng.integers(0, pol.pad_id + 1, size=(60, 3))])
    assert pol._rows(probe) == dict_rows(dict(pol.contexts), probe, False)  # builds the code dict
    copy = pol.clone()
    copy._rows(probe[60:], grow=True)
    assert min(copy._rows(probe)) >= 0
    assert pol._rows(probe) == dict_rows(dict(pol.contexts), probe, False)
    path = str(tmp_path / "p.bin")
    save_policy(path, copy)
    loaded = load_policy(path, vocab)
    assert loaded._rows(probe) == copy._rows(probe)
    # an equal-length dict of other rows: the code dict is rebuilt, not caught up by the dict's length
    pol.contexts = dict(zip(pol.contexts, reversed(range(len(pol.contexts)))))
    assert pol._rows(probe) == dict_rows(dict(pol.contexts), probe, False)


def test_a_window_too_wide_for_int64_codes_keys_contexts_by_tuple():
    vocab = build_vocab(TaskConfig(task_kind=TaskKind.ARITH, value_range=(2, 12)))
    base = vocab.size + 1
    assert base**13 - 1 <= np.iinfo(np.int64).max < base**14 - 1
    widest = Policy.tabular(vocab, window=13)
    all_pad = np.full((1, 13), widest.pad_id)
    assert int((all_pad @ widest._code_weights)[0]) == base**13 - 1
    wide = Policy.tabular(vocab, window=14)
    assert wide._code_weights is None
    rng = np.random.default_rng(3)
    ctx = rng.integers(0, wide.pad_id + 1, size=(100, 14))
    assert wide._rows(ctx[:50], grow=True) == list(range(50))
    assert wide._rows(ctx) == dict_rows(dict(wide.contexts), ctx, False)
    # its lookup probes contexts itself by tuple, and no code dict is built
    assert wide._keyed() is wide.contexts and wide._coded is None


def test_terminal_distribution_of_a_full_sumpath_problem_reads_a_rebuilt_code_dict_alike(monkeypatch):
    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 9), max_parts=4, max_part=3)
    vocab = build_vocab(task)
    problem = make_problem(task, seed=0)
    assert sum(terminal_levels(problem, vocab)) == 16105
    pol = Policy.tabular(vocab, window=8)
    rng = np.random.default_rng(0)
    pol.register_prefixes([(problem.prompt_tokens, tuple(rng.choice(vocab.body_ids, size=4).tolist()))
                           for _ in range(400)])
    pol.params = rng.normal(size=pol.params.size)
    grown = terminal_distribution(pol, problem)  # on the code dict grown with the registrations
    pol.contexts = dict(pol.contexts)  # another dict object: the code dict is rebuilt from it
    rebuilt = terminal_distribution(pol, problem)
    assert grown.probs.tobytes() == rebuilt.probs.tobytes() and grown.overflow == rebuilt.overflow
    # and both are the rows of a probe of the tuple-keyed contexts
    monkeypatch.setattr(pol, "_rows", lambda ctx_mat: dict_rows(dict(pol.contexts), ctx_mat, False))
    probed = terminal_distribution(pol, problem)
    assert probed.probs.tobytes() == grown.probs.tobytes() and probed.overflow == grown.overflow
