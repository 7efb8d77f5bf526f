"""Minimal dense-network engine: two-hidden-layer nets, hand-derived
backprop, SGD/Adam, and seeded random sources.

Everything operates on float64 numpy arrays; a batch is a (rows, features)
matrix. There is no autodiff graph: the topology is fixed at
input -> hidden1 -> hidden2 -> output, so gradients are written out by hand
and verified against finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

HIDDEN_ACTIVATIONS = ("relu", "identity")
OUTPUT_ACTIVATIONS = ("sigmoid", "identity")
OPTIMIZERS = ("adam", "sgd")


# ---------------------------------------------------------------------------
# seeded random sources
# ---------------------------------------------------------------------------

def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seeds give identical draw sequences."""
    return np.random.default_rng(int(seed))


def spawn_rng(root_seed: int, *path: int) -> np.random.Generator:
    """Derive an independent stream from a root seed and an integer path.

    Splitting rule: the stream for path (i, j, ...) is seeded by
    SeedSequence((root_seed, i, j, ...)). Streams with different paths are
    statistically independent and reproducible, which lets benchmark cells
    run in any order (or in parallel) without changing results.
    """
    return np.random.default_rng(np.random.SeedSequence((int(root_seed),) + tuple(int(p) for p in path)))


def spawn_seed(root_seed: int, *path: int) -> int:
    """Integer seed derived by the same splitting rule as spawn_rng."""
    return int(np.random.SeedSequence((int(root_seed),) + tuple(int(p) for p in path)).generate_state(1)[0])


def uniform(rng: np.random.Generator, low: float, high: float, shape) -> Array:
    """Uniform draws in [low, high)."""
    if not low < high:
        raise ValueError(f"uniform requires low < high, got [{low}, {high})")
    return rng.uniform(low, high, size=shape)


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> Array:
    """Xavier/Glorot uniform init: U(-limit, limit), limit = sqrt(6/(fan_in+fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fan dimensions must be positive, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def sigmoid(z: Array) -> Array:
    """Numerically stable sigmoid: 1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z))
    below, both evaluated on exp(-|z|) without branching. Rounds to exactly
    1.0 above z of about 37 and to 0.0 below about -745."""
    z = np.asarray(z, dtype=np.float64)
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


# ---------------------------------------------------------------------------
# flat buffers
# ---------------------------------------------------------------------------

class FlatArrays(tuple):
    """Arrays that are consecutive views, in order, of one contiguous
    float64 buffer, `flat`.

    Only `FlatArrays.zeros` builds one, so holding a FlatArrays certifies
    that layout, and as a tuple its views cannot be swapped out. An
    elementwise update of `flat` is the same update of every view, rounded
    the same.
    """

    flat: Array
    shapes: tuple[tuple[int, ...], ...]

    @classmethod
    def zeros(cls, shapes) -> "FlatArrays":
        shapes = tuple(tuple(s) for s in shapes)
        return _tile(np.zeros(sum(math.prod(s) for s in shapes)), shapes)

    def __reduce__(self):
        # views do not survive pickling, so rebuild them on the unpickled buffer
        return _tile, (self.flat, self.shapes)


def _tile(flat: Array, shapes: tuple) -> FlatArrays:
    ends = np.cumsum([math.prod(s) for s in shapes])
    out = tuple.__new__(FlatArrays, (flat[e - math.prod(s):e].reshape(s) for e, s in zip(ends, shapes)))
    out.flat, out.shapes = flat, shapes
    return out


# ---------------------------------------------------------------------------
# dense networks
# ---------------------------------------------------------------------------

class DenseNet:
    """Fully connected net with exactly two hidden layers.

    Weight matrices are (fan_in, fan_out); matmul convention is
    batch (n, fan_in) @ w -> (n, fan_out). The net copies the arrays it is
    given into one float64 buffer: w1, b1, ..., b3 are views of it, in
    params() order, and are updated in place. `grads` has the same layout
    and holds the parameter gradients dense_backward last computed.
    """

    def __init__(self, w1: Array, b1: Array, w2: Array, b2: Array, w3: Array, b3: Array,
                 hidden_activation: str = "relu", output_activation: str = "sigmoid"):
        if hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {hidden_activation!r}")
        if output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {output_activation!r}")
        arrays = [np.asarray(a, dtype=np.float64) for a in (w1, b1, w2, b2, w3, b3)]
        widths = [a.shape for a in arrays[::2]]
        for (a, b), (c, _) in zip(widths, widths[1:]):
            if b != c:
                raise ValueError(f"layer widths do not chain: {widths}")
        for w, b in zip(arrays[::2], arrays[1::2]):
            if b.shape != (w.shape[1],):
                raise ValueError(f"bias shape {b.shape} does not match weight {w.shape}")
        self._params = FlatArrays.zeros(a.shape for a in arrays)
        for view, a in zip(self._params, arrays):
            view[...] = a
        self.grads = FlatArrays.zeros(self._params.shapes)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation

    w1 = property(lambda self: self._params[0])
    b1 = property(lambda self: self._params[1])
    w2 = property(lambda self: self._params[2])
    b2 = property(lambda self: self._params[3])
    w3 = property(lambda self: self._params[4])
    b3 = property(lambda self: self._params[5])

    @property
    def input_width(self) -> int:
        return self.w1.shape[0]

    @property
    def output_width(self) -> int:
        return self.w3.shape[1]

    def params(self) -> FlatArrays:
        """The six parameter arrays (w1, b1, w2, b2, w3, b3), the same
        objects on every call; mutated in place by optimizers."""
        return self._params

    def copy(self) -> "DenseNet":
        """An equal net with buffers of its own."""
        return DenseNet(*self._params, self.hidden_activation, self.output_activation)


def init_dense(rng: np.random.Generator, n_in: int, n_hidden: int, n_out: int,
               hidden_activation: str = "relu", output_activation: str = "sigmoid") -> DenseNet:
    """Xavier-uniform weights, zero biases."""
    return DenseNet(
        w1=xavier_uniform(rng, n_in, n_hidden), b1=np.zeros(n_hidden),
        w2=xavier_uniform(rng, n_hidden, n_hidden), b2=np.zeros(n_hidden),
        w3=xavier_uniform(rng, n_hidden, n_out), b3=np.zeros(n_out),
        hidden_activation=hidden_activation, output_activation=output_activation,
    )


def dense_forward(net: DenseNet, x: Array) -> tuple[Array, tuple]:
    """Forward pass. Returns (output, cache); cache feeds dense_backward."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_width:
        raise ValueError(f"input shape {x.shape} does not match net input width {net.input_width}")
    relu_hidden = net.hidden_activation == "relu"
    a1 = x @ net.w1
    a1 += net.b1
    if relu_hidden:
        np.maximum(a1, 0.0, out=a1)
    a2 = a1 @ net.w2
    a2 += net.b2
    if relu_hidden:
        np.maximum(a2, 0.0, out=a2)
    z3 = a2 @ net.w3
    z3 += net.b3
    out = sigmoid(z3) if net.output_activation == "sigmoid" else z3
    return out, (x, a1, a2, out)


BACKWARD_TARGETS = ("params", "input")


def dense_backward(net: DenseNet, cache: tuple, grad_out: Array, *, wrt: str) -> FlatArrays | Array:
    """Backprop through a cached forward pass.

    grad_out is dLoss/dOutput. wrt="params" writes the parameter gradients,
    in params() order, into net.grads and returns it: the views it holds
    are overwritten by the net's next wrt="params" call. wrt="input" returns
    the gradient w.r.t. the input batch as a new array. Only the requested
    products are computed.
    """
    if wrt not in BACKWARD_TARGETS:
        raise ValueError(f"wrt must be one of {BACKWARD_TARGETS}, got {wrt!r}")
    if cache is None:
        raise ValueError("missing forward cache")
    x, a1, a2, out = cache
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != out.shape:
        raise ValueError(f"grad shape {grad_out.shape} does not match output {out.shape}")
    # a relu unit is active exactly where its output is positive
    relu_hidden = net.hidden_activation == "relu"

    if net.output_activation == "sigmoid":
        dz3 = grad_out * out
        dz3 *= 1.0 - out
    else:
        dz3 = grad_out
    dz2 = dz3 @ net.w3.T
    if relu_hidden:
        dz2 *= a2 > 0
    dz1 = dz2 @ net.w2.T
    if relu_hidden:
        dz1 *= a1 > 0
    if wrt == "input":
        return dz1 @ net.w1.T
    gw1, gb1, gw2, gb2, gw3, gb3 = net.grads
    np.matmul(x.T, dz1, out=gw1)
    dz1.sum(axis=0, out=gb1)
    np.matmul(a1.T, dz2, out=gw2)
    dz2.sum(axis=0, out=gb2)
    np.matmul(a2.T, dz3, out=gw3)
    dz3.sum(axis=0, out=gb3)
    return net.grads


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Plain SGD or bias-corrected Adam over one FlatArrays layout, `shapes`.

    For Adam, m and v hold the moments and scratch two work buffers, each a
    FlatArrays of that layout, so updates allocate nothing.
    """

    kind: str
    learning_rate: float
    shapes: tuple[tuple[int, ...], ...]
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: FlatArrays | tuple = ()
    v: FlatArrays | tuple = ()
    scratch: tuple[FlatArrays, ...] = ()


def make_optimizer(kind: str, learning_rate: float, params: FlatArrays) -> OptimizerState:
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be positive, got {learning_rate}")
    if type(params) is not FlatArrays:
        raise ValueError(f"params must be FlatArrays (a net's params()), got {type(params).__name__}")
    state = OptimizerState(kind=kind, learning_rate=learning_rate, shapes=params.shapes)
    if kind == "adam":
        state.m, state.v = FlatArrays.zeros(params.shapes), FlatArrays.zeros(params.shapes)
        state.scratch = (FlatArrays.zeros(params.shapes), FlatArrays.zeros(params.shapes))
    return state


def optimizer_step(state: OptimizerState, params: FlatArrays, grads: FlatArrays) -> None:
    """Update params in place, one pass over the buffer per operation. SGD
    is exactly p -= lr * g; Adam is p -= lr * (m / c1) / (sqrt(v / c2) + eps),
    rounded in that order. params and grads must be FlatArrays of the state's
    layout: a net's params() and the gradients dense_backward returns."""
    if not (type(params) is type(grads) is FlatArrays and params.shapes == grads.shapes == state.shapes):
        raise ValueError(f"params and grads must be FlatArrays with the optimizer's shapes {state.shapes}")
    p, g = params.flat, grads.flat
    state.step_count += 1
    if state.kind == "sgd":
        p -= state.learning_rate * g
        return
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    m, v = state.m.flat, state.v.flat
    step, denom = (s.flat for s in state.scratch)
    m *= state.beta1
    np.multiply(1.0 - state.beta1, g, out=step)
    m += step
    v *= state.beta2
    np.multiply(1.0 - state.beta2, g, out=step)
    step *= g
    v += step
    np.divide(m, c1, out=step)
    step *= state.learning_rate
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    p -= step
