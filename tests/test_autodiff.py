from __future__ import annotations

import numpy as np
import pytest

from flowseq import autodiff as ad
from flowseq.autodiff import (
    BETA1,
    BETA2,
    EPS,
    AdamState,
    DimensionMismatch,
    GradTape,
    UnsupportedPrimitive,
    adam_step,
    finite_diff_check,
    grad,
)


def test_quadratic_gradient_analytic():
    # d/dx sum(x^2) = 2x
    theta = np.array([3.0, -1.5, 0.25])
    g = grad(lambda t: ad.vsum(ad.square(t)), theta)
    assert np.allclose(g, 2 * theta)


def test_chain_and_broadcast():
    tape = GradTape()
    x = tape.input(np.array([1.0, 2.0, 3.0]))
    y = (x * 2.0 + 1.0) * x  # 2x^2 + x
    g = ad.backward(ad.vsum(y), x)
    assert np.allclose(g, 4 * x.value + 1)


def test_gradient_linearity():
    theta = np.array([0.3, 0.7, -0.2])

    def f(t):
        return ad.vsum(ad.exp(t))

    def h(t):
        return ad.vsum(ad.square(t))

    gf = grad(f, theta)
    gh = grad(h, theta)
    gsum = grad(lambda t: f(t) + 3.0 * h(t), theta)
    assert np.allclose(gsum, gf + 3.0 * gh)


def test_softplus_tanh_values_and_grads():
    theta = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
    tape = GradTape()
    x = tape.input(theta)
    s = ad.softplus(x)
    assert np.allclose(s.value, np.logaddexp(0.0, theta))
    g = ad.backward(ad.vsum(s), x)
    assert np.allclose(g, 1.0 / (1.0 + np.exp(-theta)))
    g2 = grad(lambda t: ad.vsum(ad.tanh(t)), theta)
    assert np.allclose(g2, 1.0 - np.tanh(theta) ** 2)


def test_take_reshape_matmul():
    theta = np.arange(1.0, 7.0)

    def f(t):
        # a prefix sum as a constant triangular matmul, as the padded losses use it
        a = ad.take(t, np.array([0, 1, 2])).reshape(1, 3) @ np.triu(np.ones((3, 3)))
        b = ad.take(t, np.array([3, 4, 5]))
        m = a.reshape(3, 1) @ b.reshape(1, 3)
        return ad.vsum(m @ b.reshape((3, 1)))

    rel = finite_diff_check(f, theta)
    assert rel < 1e-6


def test_take_repeated_indices_scatter_adds():
    theta = np.array([2.0, 5.0])
    g = grad(lambda t: ad.vsum(ad.take(t, np.array([0, 0, 1]))), theta)
    assert np.allclose(g, [2.0, 1.0])


def test_take_backward_is_bitwise_add_at():
    # the scatter of repeated indices must sum in the same order as np.add.at
    rng = np.random.default_rng(0)
    for case in range(200):
        n = int(rng.integers(1, 12))
        idx = rng.integers(0, n, size=(int(rng.integers(0, 5)), int(rng.integers(1, 9))))
        up = rng.normal(size=idx.shape) * 10.0 ** rng.integers(-8, 9, size=idx.shape)
        tape = GradTape()
        x = tape.input(rng.normal(size=(n,)))
        got = ad.backward(ad.vsum(ad.take(x, idx) * up), x)
        want = np.zeros(n)
        np.add.at(want, idx.reshape(-1), up.reshape(-1))
        assert got.tobytes() == want.tobytes(), case


@pytest.mark.parametrize("shape, key", [
    ((12,), np.s_[2:11:3]),  # a block of a flat vector, which builds only its own positions
    ((3, 4), np.s_[1:3]),
    ((3, 4), np.s_[:, 1::2]),
    ((3, 4), np.array([2, 0, 2, 2])),  # repeated rows
    ((3, 4), (np.array([[0, 2], [2, 2]]), np.array([[1, 1], [1, 0]]))),  # a tuple of arrays, (2, 1) three times
])
def test_var_indexing_is_a_take_of_the_selected_positions(shape, key):
    rng = np.random.default_rng(0)
    theta = rng.normal(size=12)
    positions = np.arange(12).reshape(shape)[key]
    up = rng.normal(size=positions.shape)
    tape = GradTape()
    x = tape.input(theta)
    got, want = x.reshape(shape)[key], ad.take(x, positions)
    assert got.value.tobytes() == theta.reshape(shape)[key].tobytes() == want.value.tobytes()
    assert ad.backward(ad.vsum(got * up), x).tobytes() == ad.backward(ad.vsum(want * up), x).tobytes()
    assert finite_diff_check(lambda t: ad.vsum(ad.square(t.reshape(shape)[key]) * up), theta) < 1e-6


@pytest.mark.parametrize("shape", [(6,), (6, 2), (3, 2, 2)])
@pytest.mark.parametrize("key", [np.s_[1:5:2], np.s_[::-1], 2, -1, np.int64(-3), [2, 2, 0, -1],
                                 np.array([[1, -2], [1, 1]])])
def test_leading_axis_indexing_equals_the_general_take(shape, key):
    # a key on axis 0 builds its positions from the selected rows; the general path
    # gathers the same positions from an arange of the whole value
    rng = np.random.default_rng(3)
    theta = rng.normal(size=shape)
    tape = GradTape()
    x = tape.input(theta)
    got = x[key]
    assert len(tape.nodes) == 2
    want = ad.take(x, np.arange(theta.size).reshape(shape)[key])
    assert got.value.shape == theta[key].shape
    assert got.value.tobytes() == want.value.tobytes() == theta[key].tobytes()
    up = rng.normal(size=got.value.shape)
    assert ad.backward(ad.vsum(got * up), x).tobytes() == ad.backward(ad.vsum(want * up), x).tobytes()


def test_leading_axis_indexing_keeps_numpy_errors():
    x = GradTape().input(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        x[3]
    with pytest.raises(IndexError):
        x[[0, -4]]


def test_tanh_and_log_softmax_of_an_array_are_arrays_of_the_same_bits():
    x = np.random.default_rng(1).normal(size=(3, 4))
    for op in (ad.tanh, ad.log_softmax):
        got = op(x)
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == op(GradTape().input(x)).value.tobytes()


def test_log_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    theta = rng.normal(size=12)
    tape = GradTape()
    x = tape.input(theta)
    rows = ad.log_softmax(x.reshape(3, 4))
    p = np.exp(rows.value)
    assert np.allclose(p.sum(axis=1), 1.0)
    # gradient of a single selected logprob: p shifted by the one-hot pick
    picked = ad.take(rows.reshape(12), np.array([1]))
    g = ad.backward(ad.vsum(picked), x)
    want = np.zeros(12)
    want[1] = 1.0
    want[:4] -= p[0]
    assert np.allclose(g[:4], want[:4]) and np.allclose(g[4:], 0.0)


def test_clamp_minimum_gradients():
    theta = np.array([-2.0, 0.5, 3.0])
    g = grad(lambda t: ad.vsum(ad.clamp(t, 0.0, 1.0)), theta)
    assert np.allclose(g, [0.0, 1.0, 0.0])
    a = np.array([1.0, 5.0])
    b = np.array([2.0, 2.0])

    def f(t):
        return ad.vsum(ad.minimum(ad.take(t, np.array([0, 1])), ad.take(t, np.array([2, 3]))))

    g2 = grad(f, np.concatenate([a, b]))
    assert np.allclose(g2, [1.0, 0.0, 0.0, 1.0])


def test_finite_diff_on_composite_losses():
    rng = np.random.default_rng(7)
    for _ in range(5):
        theta = rng.normal(size=10)

        def f(t):
            q = ad.log_softmax(t.reshape(2, 5))
            picked = ad.take(q.reshape(10), np.array([2, 7]))
            prefix = picked.reshape(1, 2) @ np.triu(np.ones((2, 2)))
            return ad.vsum(ad.square(prefix)) + ad.vsum(ad.exp(picked))

        assert finite_diff_check(f, theta) < 1e-6


def test_unsupported_primitives_raise():
    tape = GradTape()
    x = tape.input(np.array([1.0]))
    with pytest.raises(UnsupportedPrimitive):
        np.sin(x)
    with pytest.raises(UnsupportedPrimitive):
        x ** 2


def test_backward_requires_scalar():
    tape = GradTape()
    x = tape.input(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ad.backward(x * 2.0, x)


def test_unused_leaf_gets_zero_gradient():
    tape = GradTape()
    x = tape.input(np.array([1.0, 2.0]))
    y = tape.input(np.array([3.0]))
    g = ad.backward(ad.vsum(ad.square(y)), x)
    assert np.allclose(g, 0.0)


def test_adam_first_step_magnitude():
    # with bias correction the first step moves by lr in the gradient's sign
    state = AdamState(lr=0.1)
    theta = np.zeros(3)
    g = np.array([1.0, -2.0, 0.5])
    new_theta, new_state = adam_step(state, theta, g)
    assert np.allclose(new_theta, -0.1 * np.sign(g), atol=1e-6)
    assert new_state.t == 1 and new_state.m.size == 3
    # functional update leaves the old state untouched
    assert state.t == 0 and state.m.size == state.v.size == 0


def test_adam_converges_on_quadratic():
    state = AdamState(lr=0.05)
    theta = np.array([4.0, -3.0])
    for _ in range(600):
        g = 2 * theta
        theta, state = adam_step(state, theta, g)
    assert np.linalg.norm(theta) < 1e-2


def test_adam_dimension_mismatch():
    _, state = adam_step(AdamState(lr=0.1), np.zeros(3), np.ones(3))
    with pytest.raises(DimensionMismatch):
        adam_step(state, np.zeros(4), np.zeros(3))
    # moments may grow with theta, never shrink
    with pytest.raises(DimensionMismatch):
        adam_step(state, np.zeros(2), np.zeros(2))


def test_adam_step_grows_the_moments_of_new_entries_cold():
    theta, state = adam_step(AdamState(lr=0.1), np.array([1.0, 1.0]), np.array([0.5, -0.5]))
    _, grown = adam_step(state, np.concatenate([theta, [0.0, 0.0]]), np.zeros(4))
    assert grown.m.size == 4 and grown.v.size == 4
    assert np.array_equal(grown.m[:2], state.m * BETA1) and np.array_equal(grown.m[2:], [0.0, 0.0])
    assert np.array_equal(grown.v[:2], state.v * BETA2) and np.array_equal(grown.v[2:], [0.0, 0.0])
    assert grown.t == state.t + 1


@pytest.mark.parametrize("sizes", [(1, 1), (7, 7), (40, 1000), (3, 300)])
def test_adam_step_equals_the_textbook_update_bitwise_and_moves_no_input(sizes):
    # sizes: theta's before and after it grows at step 20; the textbook update reads zero-padded moments
    rng = np.random.default_rng(sizes[1])
    state = AdamState(lr=0.05)
    theta = rng.normal(size=sizes[0])
    for step in range(50):
        if step == 20:
            theta = np.concatenate([theta, np.zeros(sizes[1] - sizes[0])])
        g = rng.normal(size=theta.size) * rng.choice([1e-9, 1.0, 1e3], size=theta.size)
        inputs = [a.tobytes() for a in (state.m, state.v, theta, g)]
        t = state.t + 1
        m = BETA1 * np.pad(state.m, (0, theta.size - state.m.size)) + (1.0 - BETA1) * g
        v = BETA2 * np.pad(state.v, (0, theta.size - state.v.size)) + (1.0 - BETA2) * g * g
        want = theta - state.lr * (m / (1.0 - BETA1 ** t)) / (np.sqrt(v / (1.0 - BETA2 ** t)) + EPS)
        new_theta, new_state = adam_step(state, theta, g)
        assert [a.tobytes() for a in (state.m, state.v, theta, g)] == inputs
        assert new_theta.tobytes() == want.tobytes()
        assert new_state.m.tobytes() == m.tobytes() and new_state.v.tobytes() == v.tobytes()
        assert new_state.t == t
        theta, state = new_theta, new_state
