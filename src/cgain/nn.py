"""Minimal dense-network engine: two-hidden-layer nets, hand-derived
backprop, SGD/Adam, and seeded random sources.

Everything operates on float64 numpy arrays; a batch is a (rows, features)
matrix. There is no autodiff graph: the topology is fixed at
input -> hidden1 -> hidden2 -> output, so gradients are written out by hand
and verified against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray

HIDDEN_ACTIVATIONS = ("relu", "identity")
OUTPUT_ACTIVATIONS = ("sigmoid", "identity")


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


def bernoulli(rng: np.random.Generator, p: float, shape) -> Array:
    """0/1 draws with P(1) = p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bernoulli probability must be in [0, 1], got {p}")
    return (rng.random(shape) < p).astype(np.float64)


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
# dense networks
# ---------------------------------------------------------------------------

@dataclass
class DenseNet:
    """Fully connected net with exactly two hidden layers.

    Weight matrices are (fan_in, fan_out); matmul convention is
    batch (n, fan_in) @ w -> (n, fan_out).
    """

    w1: Array
    b1: Array
    w2: Array
    b2: Array
    w3: Array
    b3: Array
    hidden_activation: str = "relu"
    output_activation: str = "sigmoid"

    def __post_init__(self):
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        widths = [self.w1.shape, self.w2.shape, self.w3.shape]
        for (a, b), (c, _) in zip(widths, widths[1:]):
            if b != c:
                raise ValueError(f"layer widths do not chain: {widths}")
        for w, b in ((self.w1, self.b1), (self.w2, self.b2), (self.w3, self.b3)):
            if b.shape != (w.shape[1],):
                raise ValueError(f"bias shape {b.shape} does not match weight {w.shape}")

    @property
    def input_width(self) -> int:
        return self.w1.shape[0]

    @property
    def output_width(self) -> int:
        return self.w3.shape[1]

    def params(self) -> list[Array]:
        """Parameter arrays in a fixed order; mutated in place by optimizers."""
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def copy(self) -> "DenseNet":
        return DenseNet(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(),
                        self.w3.copy(), self.b3.copy(),
                        self.hidden_activation, self.output_activation)


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


def dense_backward(net: DenseNet, cache: tuple, grad_out: Array, *, wrt: str) -> list[Array] | Array:
    """Backprop through a cached forward pass.

    grad_out is dLoss/dOutput. wrt="params" returns the parameter gradients
    in params() order; wrt="input" returns the gradient w.r.t. the input
    batch. Only the requested products are computed.
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
    return [x.T @ dz1, dz1.sum(axis=0), a1.T @ dz2, dz2.sum(axis=0), a2.T @ dz3, dz3.sum(axis=0)]


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Plain SGD or bias-corrected Adam over a fixed list of parameters.

    scratch holds two work arrays per parameter so Adam updates allocate
    nothing.
    """

    kind: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list[Array] = field(default_factory=list)
    v: list[Array] = field(default_factory=list)
    scratch: list[tuple[Array, Array]] = field(default_factory=list)


def make_optimizer(kind: str, learning_rate: float, params: list[Array]) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer kind {kind!r}")
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be positive, got {learning_rate}")
    state = OptimizerState(kind=kind, learning_rate=learning_rate)
    if kind == "adam":
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
        state.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
    return state


def optimizer_step(state: OptimizerState, params: list[Array], grads: list[Array]) -> None:
    """Update params in place. SGD is exactly p -= lr * g; Adam is
    p -= lr * (m / c1) / (sqrt(v / c2) + eps), rounded in that order."""
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params but {len(grads)} gradients")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
    state.step_count += 1
    if state.kind == "sgd":
        for p, g in zip(params, grads):
            p -= state.learning_rate * g
        return
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for p, g, m, v, (step, denom) in zip(params, grads, state.m, state.v, state.scratch, strict=True):
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


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def finite_difference_gradients(loss_fn, params: list[Array], step: float = 1e-5) -> list[Array]:
    """Central finite differences of loss_fn() w.r.t. each entry of params.

    loss_fn takes no arguments and must read the (mutated-in-place) params.
    Slow; for verification only.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            plus = loss_fn()
            flat_p[i] = orig - step
            minus = loss_fn()
            flat_p[i] = orig
            flat_g[i] = (plus - minus) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic: list[Array], numeric: list[Array], floor: float = 1e-6) -> float:
    """Worst-case |a - n| / max(|a|, |n|, floor) over all parameter entries."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
