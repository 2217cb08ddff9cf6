"""Reverse-mode automatic differentiation over small numpy computation graphs.

A GradTape records variables in creation order, which is already a
topological order, so the backward pass is a single reversed sweep. The
primitive set is deliberately small: exactly what the training losses need,
with a fused row-wise log-softmax so log-probabilities never pass through an
explicit exponential.

Adam lives here too; every trainer reaches it through one update step, gflownet.Fitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


class UnsupportedPrimitive(TypeError):
    """An operation outside the supported primitive set was applied to a Var."""


class DimensionMismatch(ValueError):
    """Optimizer state and parameter/gradient shapes disagree."""


class GradTape:
    """Creation-ordered list of variables for one loss evaluation."""

    def __init__(self) -> None:
        self.nodes: list[Var] = []

    def _register(self, var: "Var") -> None:
        var.index = len(self.nodes)
        self.nodes.append(var)

    def input(self, value: np.ndarray | float) -> "Var":
        """A differentiable leaf (parameters)."""
        return Var(self, np.asarray(value, dtype=np.float64), track=True)

    def const(self, value: np.ndarray | float) -> "Var":
        """A non-differentiable leaf (data, rewards, old log-probabilities)."""
        return Var(self, np.asarray(value, dtype=np.float64), track=False)


class Var:
    """A node in the computation graph: cached value plus backward links."""

    __slots__ = ("tape", "value", "track", "links", "grad", "index")

    def __init__(
        self,
        tape: GradTape,
        value: np.ndarray,
        track: bool,
        links: tuple[tuple["Var", Callable[[np.ndarray], np.ndarray]], ...] = (),
    ) -> None:
        self.tape = tape
        self.value = value
        self.track = track
        self.links = links
        self.grad: np.ndarray | None = None
        tape._register(self)

    def __array_ufunc__(self, *args, **kwargs):
        raise UnsupportedPrimitive("numpy ufuncs cannot consume Var; use the provided primitives")

    def _lift(self, other) -> "Var":
        if isinstance(other, Var):
            return other
        return self.tape.const(other)

    # arithmetic with numpy broadcasting; gradients are unbroadcast back

    def __add__(self, other):
        o = self._lift(other)
        return _binary(self, o, self.value + o.value, lambda g: g, lambda g: g)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return _binary(self, o, self.value - o.value, lambda g: g, lambda g: -g)

    def __rsub__(self, other):
        o = self._lift(other)
        return _binary(o, self, o.value - self.value, lambda g: g, lambda g: -g)

    def __mul__(self, other):
        o = self._lift(other)
        return _binary(self, o, self.value * o.value, lambda g, ov=o.value: g * ov, lambda g, sv=self.value: g * sv)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return _binary(self, o, self.value / o.value,
                       lambda g, ov=o.value: g / ov,
                       lambda g, sv=self.value, ov=o.value: -g * sv / (ov * ov))

    def __rtruediv__(self, other):
        return self._lift(other).__truediv__(self)

    def __neg__(self):
        return _unary(self, -self.value, lambda g: -g)

    def __pow__(self, other):
        raise UnsupportedPrimitive("power is not a supported primitive; use square()")

    def __matmul__(self, other):
        return matmul(self, self._lift(other))

    # numpy indexing and reshaping; both only move entries

    def __getitem__(self, key) -> "Var":
        """The entries a numpy key selects, as a take of their positions in the flattened value.

        A key on the leading axis alone (a slice, an int, or ints) builds the
        positions of the rows it selects, not an arange of the whole value.
        """
        shape = self.value.shape
        if isinstance(key, slice):
            lead = np.arange(*key.indices(shape[0]))
        elif isinstance(key, (int, np.integer, list, np.ndarray)) and np.asarray(key).dtype.kind in "iu":
            lead = np.arange(shape[0])[key]
        else:
            return take(self, np.arange(self.value.size).reshape(shape)[key])
        row = math.prod(shape[1:])
        return take(self, (lead[..., None] * row + np.arange(row)).reshape(lead.shape + shape[1:]))

    def reshape(self, *shape) -> "Var":
        """The value reshaped as ndarray.reshape would: reshape(2, 3) or reshape((2, 3))."""
        return _unary(self, self.value.reshape(*shape), lambda g, sh=self.value.shape: np.asarray(g).reshape(sh))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _binary(a: Var, b: Var, value: np.ndarray, da, db) -> Var:
    links = []
    if a.track:
        links.append((a, lambda g, f=da, sh=a.value.shape: _unbroadcast(np.asarray(f(g)), sh)))
    if b.track:
        links.append((b, lambda g, f=db, sh=b.value.shape: _unbroadcast(np.asarray(f(g)), sh)))
    track = a.track or b.track
    return Var(a.tape, np.asarray(value, dtype=np.float64), track, tuple(links))


def _unary(x: Var, value: np.ndarray, dx) -> Var:
    links = ((x, dx),) if x.track else ()
    return Var(x.tape, np.asarray(value, dtype=np.float64), x.track, links)


def exp(x: Var) -> Var:
    out = np.exp(x.value)
    return _unary(x, out, lambda g, ov=out: g * ov)


def tanh(x: Var | np.ndarray) -> Var | np.ndarray:
    """Elementwise tanh; a plain array gives a plain array."""
    if not isinstance(x, Var):
        return np.tanh(x)
    out = np.tanh(x.value)
    return _unary(x, out, lambda g, ov=out: g * (1.0 - ov * ov))


def square(x: Var) -> Var:
    return _unary(x, x.value * x.value, lambda g, xv=x.value: 2.0 * g * xv)


def softplus(x: Var) -> Var:
    """log(1 + exp(x)), computed without overflow."""
    xv = x.value
    out = np.logaddexp(0.0, xv)
    sig = 1.0 / (1.0 + np.exp(-xv))
    return _unary(x, out, lambda g, s=sig: g * s)


def vsum(x: Var) -> Var:
    return _unary(x, np.sum(x.value), lambda g, sh=x.value.shape: np.broadcast_to(g, sh).copy())


def take(x: Var, idx: np.ndarray) -> Var:
    """Gather from the flattened variable; output has the index array's shape."""
    idx = np.asarray(idx, dtype=np.int64)
    flat = x.value.reshape(-1)
    value = flat[idx]

    def dx(g, n=flat.size, ix=idx.reshape(-1), sh=x.value.shape):
        # accumulates repeated indices in input order, as np.add.at does
        weights = np.asarray(g, dtype=np.float64).reshape(-1)
        return np.bincount(ix, weights=weights, minlength=n).reshape(sh)

    return _unary(x, value, dx)


def matmul(a: Var, b: Var) -> Var:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise UnsupportedPrimitive("matmul expects 2-d variables")
    value = a.value @ b.value
    links = []
    if a.track:
        links.append((a, lambda g, bv=b.value: np.asarray(g) @ bv.T))
    if b.track:
        links.append((b, lambda g, av=a.value: av.T @ np.asarray(g)))
    return Var(a.tape, value, a.track or b.track, tuple(links))


def log_softmax(x: Var | np.ndarray) -> Var | np.ndarray:
    """Row-wise log-softmax of a 2-d variable, fused for numerical stability; a plain array gives a plain array."""
    value = x.value if isinstance(x, Var) else x
    if value.ndim != 2:
        raise UnsupportedPrimitive("log_softmax expects a 2-d variable")
    # the ufuncs' own reductions: what ndarray.max and np.sum call, without their Python wrappers
    shifted = value - np.maximum.reduce(value, axis=1, keepdims=True)
    out = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    if not isinstance(x, Var):
        return out
    return _unary(x, out, lambda g, p=np.exp(out): g - p * np.asarray(g).sum(axis=1, keepdims=True))


def clamp(x: Var, lo: float, hi: float) -> Var:
    value = np.clip(x.value, lo, hi)
    inside = (x.value >= lo) & (x.value <= hi)
    return _unary(x, value, lambda g, m=inside: np.asarray(g) * m)


def minimum(a: Var, b: Var) -> Var:
    pick_a = a.value <= b.value
    value = np.where(pick_a, a.value, b.value)
    links = []
    if a.track:
        links.append((a, lambda g, m=pick_a: np.asarray(g) * m))
    if b.track:
        links.append((b, lambda g, m=pick_a: np.asarray(g) * ~m))
    return Var(a.tape, value, a.track or b.track, tuple(links))


def backward(out: Var, wrt: Var) -> np.ndarray:
    """Gradient of a scalar output with respect to one leaf."""
    if out.value.size != 1:
        raise ValueError("backward expects a scalar output")
    tape = out.tape
    for node in tape.nodes:
        node.grad = None
    out.grad = np.ones_like(out.value)
    for node in reversed(tape.nodes[: out.index + 1]):
        if node.grad is None or not node.track:
            continue
        for parent, vjp in node.links:
            contribution = np.asarray(vjp(node.grad), dtype=np.float64)
            if parent.grad is None:
                # stored uncopied: no VJP writes into an array, and later contributions add out of place
                parent.grad = contribution
            else:
                parent.grad = parent.grad + contribution
    if wrt.grad is None:
        return np.zeros_like(wrt.value)
    return np.asarray(wrt.grad, dtype=np.float64)


def grad(loss_fn: Callable[[Var], Var], theta: np.ndarray) -> np.ndarray:
    """Exact reverse-mode gradient of a scalar loss at theta."""
    tape = GradTape()
    th = tape.input(np.asarray(theta, dtype=np.float64))
    out = loss_fn(th)
    if not isinstance(out, Var):
        raise UnsupportedPrimitive("loss_fn must return a Var built from supported primitives")
    return backward(out, th)


def loss_value(loss_fn: Callable[[Var], Var], theta: np.ndarray) -> float:
    tape = GradTape()
    out = loss_fn(tape.input(np.asarray(theta, dtype=np.float64)))
    return float(out.value)


def finite_diff_check(loss_fn: Callable[[Var], Var], theta: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central finite differences.

    Per coordinate: |analytic - central| / max(|analytic|, 1e-8).
    """
    theta = np.asarray(theta, dtype=np.float64)
    analytic = grad(loss_fn, theta)
    worst = 0.0
    for i in range(theta.size):
        bumped = theta.copy()
        bumped.flat[i] += h
        up = loss_value(loss_fn, bumped)
        bumped.flat[i] -= 2.0 * h
        down = loss_value(loss_fn, bumped)
        central = (up - down) / (2.0 * h)
        denom = max(abs(float(analytic.flat[i])), 1e-8)
        worst = max(worst, abs(float(analytic.flat[i]) - central) / denom)
    return worst


# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamState:
    """Bias-corrected Adam moments for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float

    @classmethod
    def init(cls, n: int, lr: float) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0, lr=lr)

    def resized(self, n: int) -> "AdamState":
        """Zero-padded copy for a grown parameter vector (new entries start cold)."""
        if n < self.m.size:
            raise DimensionMismatch("optimizer state cannot shrink")
        if n == self.m.size:
            return self
        m = np.zeros(n)
        v = np.zeros(n)
        m[: self.m.size] = self.m
        v[: self.v.size] = self.v
        return replace(self, m=m, v=v)


def adam_step(state: AdamState, theta: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; functional, deterministic.

    theta - lr * m_hat / (sqrt(v_hat) + eps), operation for operation, written
    into the new m and v, one scratch array and the returned step array; the
    old state, theta and g are left as they were.
    """
    theta = np.asarray(theta, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if theta.shape != g.shape or theta.ndim != 1 or state.m.shape != theta.shape:
        raise DimensionMismatch(
            f"theta {theta.shape}, grad {g.shape}, state {state.m.shape} must be equal 1-d shapes"
        )
    t = state.t + 1
    m = state.m * BETA1
    scratch = g * (1.0 - BETA1)
    m += scratch
    v = state.v * BETA2
    np.multiply(g, 1.0 - BETA2, out=scratch)
    scratch *= g
    v += scratch
    # the denominator sqrt(v_hat) + eps
    np.divide(v, 1.0 - BETA2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += EPS
    step = m / (1.0 - BETA1 ** t)
    step *= state.lr
    step /= scratch
    np.subtract(theta, step, out=step)
    return step, replace(state, m=m, v=v, t=t)
