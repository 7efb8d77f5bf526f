"""Minimal dense-network engine: two-hidden-layer nets, hand-derived
backprop, Adam, and seeded random sources.

A net computes its forward pass, backward pass and optimizer updates in
the dtype of its parameter buffer: float32 for the nets the imputer
trains, float64 for nets built from float64 arrays, such as init_dense's.
A batch is a (rows, features) matrix. There is no autodiff graph: the
topology is fixed at input -> ReLU hidden1 -> ReLU hidden2 -> sigmoid
output, GAIN's networks, so gradients are written out by hand and verified
against finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

FLUSH_EVERY = 64    # Adam steps between flushes of subnormal moments to zero
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8   # Adam's standard constants, as in GAIN


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
    """Uniform draws in [low, high), as rng.uniform draws them: low + (high - low) * rng.random(shape),
    the same bits, leaving the stream in the same state. A scale of 1 and a shift of 0 are skipped:
    on draws >= +0 they change no bit."""
    if not low < high:
        raise ValueError(f"uniform requires low < high, got [{low}, {high})")
    u = rng.random(shape)
    if high - low != 1.0:
        u *= high - low
    if low != 0.0:
        u += low
    return u


def openblas_function(name: str, argtypes: tuple[str, ...] = (), restype: str | None = None):
    """Entry point scipy_openblas_<name>, 64_-suffixed or not, of the OpenBLAS that NumPy's wheel ships,
    typed by ctypes type names ("int" is c_int); None where absent. Only a call imports ctypes and glob."""
    import ctypes
    import glob
    libs = glob.glob(f"{np.__path__[0]}/../numpy.libs/libscipy_openblas*")
    lib = ctypes.CDLL(libs[0]) if libs else None
    function = getattr(lib, f"scipy_openblas_{name}64_", None) or getattr(lib, f"scipy_openblas_{name}", None)
    if function is not None:
        function.argtypes = [getattr(ctypes, f"c_{t}") for t in argtypes]
        function.restype = restype and getattr(ctypes, f"c_{restype}")
    return function


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
    below, both evaluated on exp(-|z|) without branching.

    Computes in float32 for float32 input and in float64 otherwise. In
    float64 it rounds to exactly 1.0 above z of about 37 and to 0.0 below
    about -745; in float32 it rounds to 1.0 above z of about 17 and to 0.0
    below about -104."""
    if type(z) is not np.ndarray or z.dtype not in (np.float32, np.float64):   # else use it as it is
        z = np.asarray(z)
        z = z.astype(np.float32 if z.dtype == np.float32 else np.float64)
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, z >= 0)   # 1 where z >= 0, else e; a bool promotes to e's dtype
    e += 1.0
    out /= e
    return out


# ---------------------------------------------------------------------------
# flat buffers
# ---------------------------------------------------------------------------

class FlatArrays(tuple):
    """Arrays that are consecutive views, in order, of one contiguous
    buffer, `flat`.

    Only `FlatArrays.zeros` builds one, so holding a FlatArrays certifies
    that layout, and as a tuple its views cannot be swapped out. An
    elementwise update of `flat` is the same update of every view, rounded
    the same.
    """

    flat: Array
    shapes: tuple[tuple[int, ...], ...]

    @classmethod
    def zeros(cls, shapes, dtype) -> "FlatArrays":
        shapes = tuple(tuple(s) for s in shapes)
        return _tile(np.zeros(sum(math.prod(s) for s in shapes), dtype=dtype), shapes)

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
    """Fully connected net with exactly two ReLU hidden layers and a
    sigmoid output.

    Weight matrices are (fan_in, fan_out); matmul convention is
    batch (n, fan_in) @ w -> (n, fan_out). The net copies the arrays it is
    given into one buffer, float32 when every array is float32 and float64
    otherwise: w1, b1, ..., b3 are views of it, in params() order, and are
    updated in place. `grads` has the same layout and dtype and holds the
    parameter gradients dense_backward last computed.
    """

    def __init__(self, w1: Array, b1: Array, w2: Array, b2: Array, w3: Array, b3: Array):
        arrays = [np.asarray(a) for a in (w1, b1, w2, b2, w3, b3)]
        dtype = np.float32 if all(a.dtype == np.float32 for a in arrays) else np.float64
        widths = [a.shape for a in arrays[::2]]
        for (a, b), (c, _) in zip(widths, widths[1:]):
            if b != c:
                raise ValueError(f"layer widths do not chain: {widths}")
        for w, b in zip(arrays[::2], arrays[1::2]):
            if b.shape != (w.shape[1],):
                raise ValueError(f"bias shape {b.shape} does not match weight {w.shape}")
        self._params = FlatArrays.zeros((a.shape for a in arrays), dtype)
        for view, a in zip(self._params, arrays):
            view[...] = a
        self.grads = FlatArrays.zeros(self._params.shapes, dtype)

    w1 = property(lambda self: self._params[0])
    b1 = property(lambda self: self._params[1])
    w2 = property(lambda self: self._params[2])
    b2 = property(lambda self: self._params[3])
    w3 = property(lambda self: self._params[4])
    b3 = property(lambda self: self._params[5])

    @property
    def dtype(self) -> np.dtype:
        return self._params.flat.dtype

    @property
    def input_width(self) -> int:
        return self.w1.shape[0]

    def params(self) -> FlatArrays:
        """The six parameter arrays (w1, b1, w2, b2, w3, b3), the same
        objects on every call; mutated in place by optimizer_step."""
        return self._params


def dense_shapes(n_in: int, n_hidden: int, n_out: int) -> tuple[tuple[int, ...], ...]:
    """The parameter shapes of a net of these widths, in params() order."""
    return (n_in, n_hidden), (n_hidden,), (n_hidden, n_hidden), (n_hidden,), (n_hidden, n_out), (n_out,)


def init_dense(rng: np.random.Generator, n_in: int, n_hidden: int, n_out: int) -> DenseNet:
    """Xavier-uniform weights, zero biases, in float64."""
    return DenseNet(
        w1=xavier_uniform(rng, n_in, n_hidden), b1=np.zeros(n_hidden),
        w2=xavier_uniform(rng, n_hidden, n_hidden), b2=np.zeros(n_hidden),
        w3=xavier_uniform(rng, n_hidden, n_out), b3=np.zeros(n_out),
    )


def dense_forward(net: DenseNet, x: Array) -> tuple[Array, tuple]:
    """Forward pass in the net's dtype, to which x is cast. Returns (output,
    cache); cache feeds dense_backward."""
    w1, b1, w2, b2, w3, b3 = net.params()
    x = np.asarray(x, dtype=w1.dtype)
    if x.ndim != 2 or x.shape[1] != w1.shape[0]:
        raise ValueError(f"input shape {x.shape} does not match net input width {w1.shape[0]}")
    a1 = x @ w1
    a1 += b1
    np.maximum(a1, 0.0, out=a1)
    a2 = a1 @ w2
    a2 += b2
    np.maximum(a2, 0.0, out=a2)
    z3 = a2 @ w3
    z3 += b3
    out = sigmoid(z3)
    return out, (x, a1, a2, out)


BACKWARD_TARGETS = ("params", "input")


def dense_backward(net: DenseNet, cache: tuple, grad_z: Array, *, wrt: str,
                   leading: int | None = None) -> FlatArrays | Array:
    """Backprop through a cached forward pass.

    grad_z is dLoss/dz at the output layer's pre-activation z, the
    sigmoid's input, cast to the net's dtype. For a cross entropy of the
    sigmoid output that is sigmoid(z) - target, with no sigmoid derivative
    in it; a loss gradient at the output is multiplied by out * (1 - out)
    by the caller. wrt="params" writes the parameter gradients, in params()
    order, into net.grads and returns it: the views it holds are
    overwritten by the net's next wrt="params" call. wrt="input" returns
    the gradient w.r.t. the input batch as a new array; with leading=k, only
    its first k columns, as the product over w1[:k] alone (which rounds
    unlike a slice of the full product). Only the requested products are
    computed.
    """
    if wrt not in BACKWARD_TARGETS:
        raise ValueError(f"wrt must be one of {BACKWARD_TARGETS}, got {wrt!r}")
    if leading is not None and (wrt != "input" or isinstance(leading, bool)
                                or not isinstance(leading, (int, np.integer))
                                or not 1 <= leading <= net.input_width):
        raise ValueError(f"leading must be an integer in [1, {net.input_width}] with wrt='input', "
                         f"got {leading!r} with wrt={wrt!r}")
    if cache is None:
        raise ValueError("missing forward cache")
    x, a1, a2, out = cache
    dz3 = np.asarray(grad_z, dtype=net.dtype)
    if dz3.shape != out.shape:
        raise ValueError(f"grad shape {dz3.shape} does not match output {out.shape}")
    w1, _, w2, _, w3, _ = net.params()
    # a relu unit is active exactly where its output is positive; the 0/1
    # masks are in the net's dtype, so the products cast nothing
    dz2 = dz3 @ w3.T
    dz2 *= np.greater(a2, 0, out=np.empty_like(a2))
    dz1 = dz2 @ w2.T
    dz1 *= np.greater(a1, 0, out=np.empty_like(a1))
    if wrt == "input":
        return dz1 @ w1[:leading].T
    gw1, gb1, gw2, gb2, gw3, gb3 = net.grads
    np.matmul(x.T, dz1, out=gw1)
    dz1.sum(axis=0, out=gb1)
    np.matmul(a1.T, dz2, out=gw2)
    dz2.sum(axis=0, out=gb2)
    np.matmul(a2.T, dz3, out=gw3)
    dz3.sum(axis=0, out=gb3)
    return net.grads


# ---------------------------------------------------------------------------
# optimizer: Adam
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Bias-corrected Adam, at the constants ADAM_BETA1, ADAM_BETA2 and
    ADAM_EPS, over one FlatArrays layout, `m.shapes`.

    m and v hold the moments and scratch two work buffers, each a
    FlatArrays of that layout in the dtype of the params, so updates
    allocate nothing and compute in that dtype.
    """

    learning_rate: float
    m: FlatArrays
    v: FlatArrays
    scratch: tuple[FlatArrays, FlatArrays]
    step_count: int = 0


def make_optimizer(learning_rate: float, params: FlatArrays) -> OptimizerState:
    """Adam's state for params, a net's params(); any other kind of params,
    such as a list of arrays, is a ValueError."""
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning rate must be positive and finite, got {learning_rate}")
    if type(params) is not FlatArrays:
        raise ValueError(f"params must be FlatArrays (a net's params()), got {type(params).__name__}")
    m, v, step, denom = (FlatArrays.zeros(params.shapes, params.flat.dtype) for _ in range(4))
    return OptimizerState(learning_rate=learning_rate, m=m, v=v, scratch=(step, denom))


def optimizer_step(state: OptimizerState, params: FlatArrays, grads: FlatArrays) -> None:
    """Update params in place, one pass over the buffer per operation:
    p -= lr * (m / c1) / (sqrt(v / c2) + eps), rounded in that order.
    params and grads must be FlatArrays of the state's layout: a net's
    params() and the gradients dense_backward returns.

    Every FLUSH_EVERY steps, after the update, moment cells below the
    dtype's smallest normal magnitude are set to 0. A dead unit's first
    moment otherwise decays into the subnormal range and stays there, since
    m * 0.9 rounds a few units of the last place back to itself, and every
    later pass over a subnormal cell is slow. Such a moment moves its weight
    by at most about lr * tiny / eps (1.2e-33 in float32 at lr 1e-3), which
    rounds away against any weight above about 1e-26."""
    if not (type(params) is type(grads) is FlatArrays and params.shapes == grads.shapes == state.m.shapes):
        raise ValueError(f"params and grads must be FlatArrays with the optimizer's shapes {state.m.shapes}")
    p, g = params.flat, grads.flat
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m.flat, state.v.flat
    step, denom = state.scratch[0].flat, state.scratch[1].flat
    m *= ADAM_BETA1
    np.multiply(1.0 - ADAM_BETA1, g, out=step)
    m += step
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, g, out=step)
    step *= g
    v += step
    np.divide(m, c1, out=step)
    step *= state.learning_rate
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    p -= step
    if t % FLUSH_EVERY == 0:
        tiny = np.finfo(m.dtype).tiny
        m[np.abs(m) < tiny] = 0.0
        v[v < tiny] = 0.0
