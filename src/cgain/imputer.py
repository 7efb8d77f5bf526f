"""Class-conditional adversarial imputer (CGAIN) and its unconditional
variant (GAIN).

The generator sees [x_tilde (zeros at missing cells), mask, (1-mask)*noise,
one-hot labels] and proposes a full row; observed cells are merged back so
only missing cells are ever replaced. The discriminator sees the completed
row, a hint (the mask with exactly one column per row blanked to 0.5) and
the labels, and predicts per cell the probability that the cell was
observed. Losses are evaluated only at the hinted-out cells, plus a
reconstruction term on observed cells weighted by alpha. Loss gradients
enter each net at its output logits z; for the cross entropies of the
discriminator's sigmoid output, that is sigmoid(z) - target at a hinted
cell, one head for both nets. The discriminator's target is the mask. The
generator's adversarial loss reads a hinted cell only where it is missing,
so in the generator step the discriminator runs on those live rows alone
(every other row's gradient is exactly zero), and there the loss is the
discriminator's cross entropy with the target flipped to 1 - mask.

With conditional=False the label block is dropped from both networks and
the pipeline is exactly the unconditional one.
"""

from __future__ import annotations

import json
import math
import struct
import time
import warnings
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from .nn import (Array, DenseNet, FlatArrays, dense_backward, dense_forward, dense_shapes,
                 init_dense, make_optimizer, make_rng, optimizer_step, uniform)
from .data import BINARY, CONTINUOUS, Dataset, IncompleteDataset

EPS = 1e-8          # log clamp inside every cross-entropy term
NOISE_HIGH = 0.01   # generator noise ~ U(0, NOISE_HIGH), as in GAIN


@dataclass
class TrainConfig:
    """Hyperparameters of the alternating training loop."""

    alpha: float = 100.0            # weight of the observed-cell reconstruction loss
    batch_size: int = 128
    iterations: int = 10_000        # discriminator/generator update pairs
    learning_rate: float = 1e-3
    hidden_multiplier: int = 3      # hidden width = multiplier * n_features
    conditional: bool = True        # False drops the label block (unconditional variant)
    seed: int = 0
    log_every: int = 100

    def validate(self) -> None:
        """ValueError unless batch_size, iterations, hidden_multiplier, seed
        and log_every are Python or NumPy integers, alpha and learning_rate
        Python or NumPy real numbers (a bool is neither), conditional a bool,
        and each value is in range."""
        for names, types, what in (
                (("batch_size", "iterations", "hidden_multiplier", "seed", "log_every"),
                 (int, np.integer), "an integer"),
                (("alpha", "learning_rate"), (int, float, np.integer, np.floating), "a number")):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, types):
                    raise ValueError(f"{name.replace('_', ' ')} must be {what}, got {value!r}")
        if not isinstance(self.conditional, bool):
            raise ValueError(f"conditional must be a bool, got {self.conditional!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.batch_size < 1 or self.iterations < 1:
            raise ValueError("batch size and iteration budget must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.hidden_multiplier < 1:
            raise ValueError(f"hidden multiplier must be at least 1, got {self.hidden_multiplier}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.log_every < 1:
            raise ValueError(f"log interval must be at least 1, got {self.log_every}")


@dataclass
class ImputerModel:
    """Trained generator/discriminator pair plus conditioning metadata; the
    feature count is len(column_kinds), a tuple, and config says whether the
    nets take the labels. binary_cols is the (1, d) row that flags the binary
    columns, or None when there is none, fixed when the model is built."""

    generator: DenseNet
    discriminator: DenseNet
    n_classes: int
    column_kinds: tuple[str, ...]
    config: TrainConfig
    binary_cols: Array | None = field(init=False, repr=False, compare=False)

    n_features = property(lambda self: len(self.column_kinds))
    conditional = property(lambda self: self.config.conditional)

    def __post_init__(self):
        self.column_kinds = tuple(self.column_kinds)
        self.binary_cols = _binary_columns(self.column_kinds, self.n_features)
        layout = [dense_shapes(*w) for w in _layer_widths(self.n_features, self.n_classes, self.config)]
        if [self.generator.params().shapes, self.discriminator.params().shapes] != layout:
            raise ValueError(f"net shapes differ from {layout}, the layout for these features, classes "
                             f"and config")


def _layer_widths(d: int, m: int, config: TrainConfig) -> list[tuple[int, int, int]]:
    """(input, hidden, output) widths of the generator, then the
    discriminator, for d features and m classes: the one layout rule of
    build_model and load_model."""
    label_width = m if config.conditional else 0
    hidden = config.hidden_multiplier * d
    return [(3 * d + label_width, hidden, d), (2 * d + label_width, hidden, d)]


@dataclass
class TrainingTrace:
    """Losses and elapsed seconds at every log_every-th iteration of the full budget."""

    iterations: list[int] = field(default_factory=list)
    d_loss: list[float] = field(default_factory=list)
    g_adversarial: list[float] = field(default_factory=list)
    g_reconstruction: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# hint mechanism
# ---------------------------------------------------------------------------

def sample_hint_b(mask: Array, rng: np.random.Generator) -> Array:
    """Per-row reveal flags: all ones except one uniformly chosen column.
    train draws through _draw; this stays because perfbench traces it by name."""
    n, d = mask.shape
    if n < 1:
        raise ValueError("empty mask batch")
    return hint_flags(rng.integers(0, d, size=n), d)


def hint_flags(cols: Array, d: int) -> Array:
    """b, the flags the losses take: 0 at row i's column cols[i], 1 elsewhere."""
    b = np.ones((len(cols), d))
    b[np.arange(len(cols)), cols] = 0.0
    return b


def hint_from_b(b: Array, mask: Array) -> Array:
    """Blend mask and the 0.5 placeholder: h = b*m + 0.5*(1-b).
    train builds hints with _hint; this stays because perfbench traces it by name."""
    if b.shape != mask.shape:
        raise ValueError(f"flag shape {b.shape} does not match mask {mask.shape}")
    return b * mask + 0.5 * (1.0 - b)


# ---------------------------------------------------------------------------
# forward paths
# ---------------------------------------------------------------------------

def generator_forward(model: ImputerModel, x_tilde: Array, mask: Array, labels: Array,
                      z: Array) -> tuple[Array, Array, tuple]:
    """Generator pass with noise z of the mask's shape; labels of another
    row count are a ValueError, unless the model is unconditional and so
    ignores them. Returns (x_bar, x_hat, cache); x_bar and x_hat are float64
    whatever the net's dtype."""
    if z.shape != mask.shape:
        raise ValueError(f"noise shape {z.shape} does not match mask {mask.shape}")
    one_minus_m = 1.0 - mask
    blocks = [x_tilde, mask, one_minus_m * z] + ([labels] if model.conditional else [])
    # each block rounded once to the net's dtype
    out, cache = dense_forward(model.generator, np.concatenate(blocks, axis=1, dtype=model.generator.dtype))
    x_bar = out.astype(np.float64)
    # merged in float64, so observed cells of an imputation stay exact
    x_hat = mask * x_tilde + one_minus_m * x_bar
    return x_bar, x_hat, cache


def generate(model: ImputerModel, x_tilde: Array, mask: Array, labels: Array,
             rng: np.random.Generator) -> tuple[Array, Array]:
    """Propose imputations and merge them with the observed cells.

    x_tilde must carry zeros at missing cells. Observed cells of x_hat are
    exactly the input values (the merge is an identity there, not a copy
    through the network).
    """
    if x_tilde.shape != mask.shape:
        raise ValueError(f"data shape {x_tilde.shape} does not match mask {mask.shape}")
    z = uniform(rng, 0.0, NOISE_HIGH, x_tilde.shape)
    x_bar, x_hat, _ = generator_forward(model, x_tilde, mask, labels, z)
    return x_bar, x_hat


def discriminator_forward(model: ImputerModel, x_hat: Array, hint: Array,
                          labels: Array) -> tuple[Array, tuple]:
    """Discriminator pass; a hint of another row count than x_hat is a
    ValueError, and so are such labels unless the model is unconditional
    and so ignores them. Returns (m_hat, cache): per cell, P(observed),
    as float64 whatever the net's dtype.

    The losses need the upcast: in float32, 1 - EPS rounds to 1.0, so an
    output that saturates at 1.0 would defeat the clamps and turn a loss
    into inf and a loss gradient into NaN.
    """
    blocks = [x_hat, hint] + ([labels] if model.conditional else [])
    out, cache = dense_forward(model.discriminator,
                               np.concatenate(blocks, axis=1, dtype=model.discriminator.dtype))
    return out.astype(np.float64), cache


# ---------------------------------------------------------------------------
# losses (restricted to the hinted-out cells, b = 0)
# ---------------------------------------------------------------------------

def _clamped(p: Array) -> Array:
    # np.clip's bits, NaN included, without its per-call overhead
    return np.minimum(np.maximum(p, EPS), 1.0 - EPS)


def loss_discriminator(m_hat: Array, mask: Array, b: Array) -> float:
    """Mean over rows of -[m log m_hat + (1-m) log(1-m_hat)] at b=0 cells."""
    if not (m_hat.shape == mask.shape == b.shape):
        raise ValueError(f"shapes differ: {m_hat.shape}, {mask.shape}, {b.shape}")
    p = _clamped(m_hat)
    cells = (1.0 - b) * (mask * np.log(p) + (1.0 - mask) * np.log(1.0 - p))
    return float(-cells.sum() / m_hat.shape[0])


def _head(m_hat: Array, target: Array, cols: Array, n: int, dtype) -> Array:
    """The gradient at the discriminator's logits z, where m_hat is
    sigmoid(z), of -[t log m_hat + (1-t) log(1-m_hat)] with t = target,
    summed over row i's hinted cell, column cols[i], and divided by n:
    (m_hat - target) / n at each hinted cell, and 0 where the clamp
    saturates and at every other cell. Built in dtype, the net's."""
    rows, d = m_hat.shape
    cells = np.arange(0, rows * d, d) + cols
    m_h = m_hat.take(cells)
    live = (m_h > EPS) & (m_h < 1.0 - EPS)
    grad = np.zeros(m_hat.shape, dtype)
    grad.put(cells, (m_h - target.take(cells)) / n * live)
    return grad


def generator_loss_parts(m_hat: Array, mask: Array, b: Array, x_bar: Array, x_tilde: Array,
                         column_kinds: list[str]) -> tuple[float, float]:
    """(adversarial, reconstruction) parts of the generator loss.

    The adversarial part is GAIN's, -sum (1-m) log m_hat over the hinted-out
    cells, so fooling the discriminator means imputed cells classified as
    observed. The reconstruction part sums squared error over observed
    continuous cells and -x log x' over observed binary cells; both parts
    are averaged over batch rows.
    """
    n = m_hat.shape[0]
    p = _clamped(m_hat)
    adv_cells = (1.0 - b) * (1.0 - mask) * np.log(p)
    adv = -float(adv_cells.sum() / n)

    binary_cols = _binary_columns(column_kinds, m_hat.shape[1])
    recon_cells = (x_bar - x_tilde) ** 2
    if binary_cols is not None:
        ce = -x_tilde * np.log(_clamped(x_bar))
        recon_cells = np.where(binary_cols, ce, recon_cells)
    recon_cells *= mask
    recon = float(recon_cells.sum() / n)
    return adv, recon


def _binary_columns(column_kinds: list[str], d: int) -> Array | None:
    """(1, d) row flagging binary columns, or None when there is none."""
    if len(column_kinds) != d:
        raise ValueError(f"{len(column_kinds)} column kinds for {d} columns")
    for k in column_kinds:
        if k not in (BINARY, CONTINUOUS):
            raise ValueError(f"unknown column kind {k!r}")
    row = np.array([k == BINARY for k in column_kinds])[None, :]
    return row if row.any() else None


def _recon_grad_xbar(x_bar: Array, x_tilde: Array, mask: Array, binary_cols: Array | None) -> Array:
    """d(reconstruction part)/dx_bar, for binary_cols as _binary_columns gives it."""
    n = x_bar.shape[0]
    grad = 2.0 * (x_bar - x_tilde)
    if binary_cols is not None:
        live = (x_bar > EPS) & (x_bar < 1.0 - EPS)
        d_ce = -x_tilde / _clamped(x_bar) * live
        grad = np.where(binary_cols, d_ce, grad)
    grad *= mask
    grad /= n
    return grad


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def build_model(d: int, m: int, column_kinds: list[str], config: TrainConfig,
                rng: np.random.Generator) -> ImputerModel:
    """Xavier-initialized float32 generator and discriminator for d
    features, m classes: the weights are drawn in float64, then rounded once."""
    gen, disc = (DenseNet(*(p.astype(np.float32) for p in init_dense(rng, *widths).params()))
                 for widths in _layer_widths(d, m, config))
    return ImputerModel(gen, disc, m, column_kinds, config)


def _draw(rng: np.random.Generator, features: Array, mask: Array, labels: Array,
          rows: int) -> tuple[tuple[Array, ...], tuple[Array, ...]]:
    """GAIN's draws for one iteration's two half-steps, each a fresh,
    independent batch: rows uniform with replacement, noise U(0, NOISE_HIGH)
    and one hinted column per row, uniform over the d columns.

    The stream is read once, as one block of 2 * rows * (d + 2) uniforms u
    in [0, 1) from uniform, which maps in order to both halves' rows
    floor(u * n), their hinted columns floor(u * d) and their noise
    NOISE_HIGH * u, the D half first each time. For a double u < 1 and an
    integer k >= 1, u * k rounds below k, so every index is in range.
    Returns (x_t, m, y, z, cols) for the D half, then for the G half,
    cols[i] being the one column of row i whose hint flag b is 0."""
    n, d = features.shape
    u = uniform(rng, 0.0, 1.0, 2 * rows * (d + 2))
    idx = (u[:2 * rows] * n).astype(np.intp)
    cols = (u[2 * rows:4 * rows] * d).astype(np.intp)
    z = (u[4 * rows:] * NOISE_HIGH).reshape(2, rows, d)
    # each half gathered on its own, so neither keeps the other's rows
    # alive; the indices are in range, so clipping them changes nothing
    d_idx, g_idx = idx[:rows], idx[rows:]
    return ((features.take(d_idx, axis=0, mode="clip"), mask.take(d_idx, axis=0, mode="clip"),
             labels.take(d_idx, axis=0, mode="clip"), z[0], cols[:rows]),
            (features.take(g_idx, axis=0, mode="clip"), mask.take(g_idx, axis=0, mode="clip"),
             labels.take(g_idx, axis=0, mode="clip"), z[1], cols[rows:]))


def _hint(m: Array, cols: Array) -> Array:
    """The discriminator's hint: the mask, with 0.5 at row i's hinted column
    cols[i], where hint_flags(cols, d) is 0 (adding 0.0 turns a -0.0 mask
    cell into 0.0)."""
    hint = m + 0.0
    hint[np.arange(len(cols)), cols] = 0.5
    return hint


def discriminator_step_grads(model: ImputerModel, x_t: Array, m: Array, y: Array, z: Array,
                             cols: Array) -> tuple[FlatArrays, Array]:
    """Discriminator gradients on one batch hinted at columns cols, generator held fixed.

    Returns (gradients, m_hat); loss_discriminator(m_hat, m,
    hint_flags(cols, d)) is the step's loss, whose head targets the mask.
    """
    _, x_hat, _ = generator_forward(model, x_t, m, y, z)
    m_hat, d_cache = discriminator_forward(model, x_hat, _hint(m, cols), y)
    head = _head(m_hat, m, cols, len(cols), model.discriminator.dtype)
    return dense_backward(model.discriminator, d_cache, head, wrt="params"), m_hat


def generator_step_grads(model: ImputerModel, x_t: Array, m: Array, y: Array, z: Array,
                         cols: Array) -> tuple[FlatArrays, Array, Array]:
    """Generator gradients on one batch hinted at columns cols, discriminator held fixed.

    Returns (gradients, m_hat, x_bar); generator_loss_parts on them, m,
    hint_flags(cols, d) and x_t gives the step's loss parts. The adversarial
    part reads m_hat only at a live row's hinted cell, a row whose hinted
    cell is missing; at every other row its weight 1 - m is 0 and so is its
    gradient. So the discriminator runs on the live rows only (on no rows
    when none is live), and m_hat holds its output there and 1.0 elsewhere.
    On those rows the part is the discriminator's cross entropy with the
    target flipped, so its head targets 1 - m. The discriminator's input
    gradient at the completed-data block, the product over w1[:d] alone, is
    masked by that same 1 - m to missing cells (observed cells of x_hat do
    not depend on the generator) and added at the live rows. The summed
    gradient at x_bar is multiplied by x_bar * (1 - x_bar) to give the
    generator's gradient at its logits.
    """
    x_bar, x_hat, g_cache = generator_forward(model, x_t, m, y, z)
    live = np.flatnonzero(m[np.arange(len(cols)), cols] == 0)
    # rows gathered by take, which is faster than fancy indexing; the
    # indices are in range, so clipping them changes nothing
    x_live, m_live, y_live, cols_live = (a.take(live, axis=0, mode="clip") for a in (x_hat, m, y, cols))
    m_hat = np.ones_like(x_bar)
    m_hat_live, d_cache = discriminator_forward(model, x_live, _hint(m_live, cols_live), y_live)
    m_hat[live] = m_hat_live
    flipped = 1.0 - m_live
    head = _head(m_hat_live, flipped, cols_live, len(cols), model.discriminator.dtype)
    d_input_grad = dense_backward(model.discriminator, d_cache, head, wrt="input", leading=model.n_features)
    dx_bar = _recon_grad_xbar(x_bar, x_t, m, model.binary_cols)
    dx_bar *= model.config.alpha
    # masking by 0 or 1 is exact; the sum is rounded in float64
    d_input_grad = d_input_grad * flipped
    d_input_grad += dx_bar.take(live, axis=0, mode="clip")
    dx_bar[live] = d_input_grad
    dx_bar *= x_bar * (1.0 - x_bar)
    g_grads = dense_backward(model.generator, g_cache, dx_bar, wrt="params")
    return g_grads, m_hat, x_bar


def train(incomplete: IncompleteDataset, config: TrainConfig) -> tuple[ImputerModel, TrainingTrace]:
    """Alternate one discriminator and one generator update per iteration,
    for exactly config.iterations iterations.

    Each step takes a fresh mini-batch (rows uniform with replacement),
    fresh noise and fresh hint flags, which _draw maps from one block of
    uniforms per iteration; each net's backward pass starts at its output
    logits. Fully determined by (config.seed, data, config). A feature or mask cell
    outside [0, 1] is a ValueError naming its column and row; a non-finite
    loss is a FloatingPointError naming its iteration, the first step
    output that held a NaN and each net whose parameters are non-finite.
    """
    config.validate()
    ds = incomplete.dataset
    n, d = ds.features.shape
    if n < 1:
        raise ValueError("cannot train on an empty dataset")
    in_unit = [(a >= 0.0) & (a <= 1.0) for a in (ds.features, incomplete.mask)]   # false at NaN
    incomplete.require(*in_unit, "train needs feature and mask cells in [0, 1]")
    rows = config.batch_size
    if rows > n:
        warnings.warn(f"batch size {rows} exceeds dataset size {n}; clamping to {n}")
        rows = n

    rng = make_rng(config.seed)
    model = build_model(d, ds.n_classes, ds.column_kinds, config, rng)
    d_params, g_params = model.discriminator.params(), model.generator.params()
    d_opt = make_optimizer(config.learning_rate, d_params)
    g_opt = make_optimizer(config.learning_rate, g_params)
    columns = (ds.features, incomplete.mask, ds.labels)

    # m_hat and x_bar are sigmoid outputs, in [0, 1] or NaN, and m_hat enters
    # the losses through a clamped log. With features and mask in [0, 1] every
    # loss term is then bounded, so a loss is non-finite exactly when the
    # step's m_hat or x_bar holds a NaN, and the losses are needed only on
    # logged iterations.
    trace = TrainingTrace()
    t0 = time.perf_counter()

    for it in range(1, config.iterations + 1):
        logged = it % config.log_every == 0
        (x_t, m, y, z, cols), g_batch = _draw(rng, *columns, rows)
        # (A) discriminator update
        d_grads, d_m_hat = discriminator_step_grads(model, x_t, m, y, z, cols)
        # every cell is NaN or in [0, 1], so a sum is NaN exactly when a cell
        # is; checked before the D update, so a NaN built into one net names
        # only that net
        if math.isnan(d_m_hat.sum()):
            raise FloatingPointError(_non_finite_report(it, model, ("the D step's m_hat", d_m_hat)))
        optimizer_step(d_opt, d_params, d_grads)
        if logged:
            d_loss = loss_discriminator(d_m_hat, m, hint_flags(cols, d))

        # (B) generator update, discriminator fixed, on a fresh batch
        x_t, m, y, z, cols = g_batch
        g_grads, g_m_hat, x_bar = generator_step_grads(model, x_t, m, y, z, cols)
        optimizer_step(g_opt, g_params, g_grads)
        if math.isnan(x_bar.sum() + g_m_hat.sum()):
            raise FloatingPointError(_non_finite_report(it, model, ("the G step's x_bar", x_bar),
                                                        ("the G step's m_hat", g_m_hat)))
        if logged:
            g_adv, g_recon = generator_loss_parts(g_m_hat, m, hint_flags(cols, d), x_bar, x_t,
                                                  model.column_kinds)
            trace.iterations.append(it)
            trace.d_loss.append(d_loss)
            trace.g_adversarial.append(g_adv)
            trace.g_reconstruction.append(g_recon)
            trace.seconds.append(time.perf_counter() - t0)

    return model, trace


def _non_finite_report(it: int, model: ImputerModel, *outputs: tuple[str, Array]) -> str:
    """train's error for a NaN at iteration it: the first of the step's
    named outputs, in the order they are computed, that holds one, and each
    net whose parameters are no longer all finite."""
    first = next(name for name, a in outputs if np.isnan(a).any())
    nets = [name for name in ("generator", "discriminator")
            if not np.isfinite(getattr(model, name).params().flat).all()]
    return (f"non-finite training loss at iteration {it}: first NaN in {first}; non-finite parameters in "
            f"{' and '.join(nets) or 'neither net'}")


def impute(model: ImputerModel, incomplete: IncompleteDataset,
           rng: np.random.Generator | None = None) -> Dataset:
    """Fill the missing cells; observed cells pass through untouched.

    Deterministic given (model, data, noise seed); rng defaults to a fresh
    stream seeded by the model's training seed. Data whose feature count or
    column kinds differ from the model's, or whose class count differs from
    a conditional model's, is a ValueError.
    """
    ds = incomplete.dataset
    if ds.n_features != model.n_features:
        raise ValueError(f"dataset has {ds.n_features} features, model expects {model.n_features}")
    if ds.column_kinds != model.column_kinds:
        raise ValueError(f"dataset column kinds {ds.column_kinds} do not match the model's "
                         f"{model.column_kinds}")
    if model.conditional and ds.n_classes != model.n_classes:
        raise ValueError(f"dataset has {ds.n_classes} classes, model expects {model.n_classes}")
    if rng is None:
        rng = make_rng(model.config.seed)
    _, x_hat = generate(model, ds.features, incomplete.mask, ds.labels, rng)
    return replace(ds, features=x_hat)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

MODEL_MAGIC = b"CGAINMDL"
MODEL_FORMAT_VERSION = 4

_PREAMBLE = struct.Struct("<IQ")          # format version, header length
_HEADER_KEYS = {"n_classes", "column_kinds", "config"}
_CONFIG_KEYS = {f.name for f in fields(TrainConfig)}


def json_number(value):
    """json's default for the NumPy scalars a validated TrainConfig may
    hold: an integer becomes a JSON integer and a real a JSON number, the
    float64 value that holds it exactly. Anything else is a TypeError."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_model(path, model: ImputerModel) -> None:
    """Magic, version, a JSON header of n_classes, column_kinds and config,
    then the generator's and the discriminator's parameter buffers as
    little-endian float32. A net that is not float32 is a ValueError."""
    nets = (model.generator, model.discriminator)
    for name, net in zip(("generator", "discriminator"), nets):
        if net.dtype != np.float32:
            raise ValueError(f"{name} is {net.dtype}; only float32 nets, as build_model makes, are saved")
    header = {"n_classes": model.n_classes, "column_kinds": model.column_kinds, "config": asdict(model.config)}
    blob = json.dumps(header, sort_keys=True, default=json_number).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(_PREAMBLE.pack(MODEL_FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for net in nets:
            fh.write(net.params().flat.astype("<f4", copy=False).tobytes())


def load_model(path) -> ImputerModel:
    """Read a save_model file into float32 nets of build_model's layout. A
    file that is not one, of another version, with other header keys or bad
    values, or with other than the layout's weight bytes is a ValueError
    that names the path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[:len(MODEL_MAGIC)]
    if magic != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic {magic!r})")
    pos = len(MODEL_MAGIC) + _PREAMBLE.size
    if len(blob) < pos:
        raise ValueError(f"{path}: truncated preamble ({len(blob)} bytes, need {pos})")
    version, header_len = _PREAMBLE.unpack_from(blob, len(MODEL_MAGIC))
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: model format version {version}, but this cgain reads version "
                         f"{MODEL_FORMAT_VERSION}; retrain the model")
    try:
        header = json.loads(blob[pos:pos + header_len].decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: unreadable header: {exc}") from None
    pos += header_len
    if not isinstance(header, dict) or header.keys() != _HEADER_KEYS:
        raise ValueError(f"{path}: header must be a JSON object with exactly the keys {sorted(_HEADER_KEYS)}")
    n_classes, kinds, config = header["n_classes"], header["column_kinds"], header["config"]
    if type(n_classes) is not int or n_classes < 1:
        raise ValueError(f"{path}: n_classes must be a positive integer, got {n_classes!r}")
    if not isinstance(kinds, list) or not kinds or any(k not in (BINARY, CONTINUOUS) for k in kinds):
        raise ValueError(f"{path}: column_kinds must be a non-empty list of {BINARY!r} and "
                         f"{CONTINUOUS!r}, got {kinds!r}")
    if not isinstance(config, dict) or config.keys() != _CONFIG_KEYS:
        raise ValueError(f"{path}: config must be an object with exactly the keys {sorted(_CONFIG_KEYS)}, "
                         f"got {config!r}")
    config = TrainConfig(**config)
    try:
        config.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: invalid config: {exc}") from None

    shapes = [s for widths in _layer_widths(len(kinds), n_classes, config) for s in dense_shapes(*widths)]
    sizes = [math.prod(s) for s in shapes]
    if len(blob) - pos != 4 * sum(sizes):
        raise ValueError(f"{path}: {len(blob) - pos} bytes of weights, but the header's layout "
                         f"needs {4 * sum(sizes)}")
    flat = np.frombuffer(blob, dtype="<f4", offset=pos).astype(np.float32, copy=False)
    arrays = [a.reshape(s) for a, s in zip(np.split(flat, np.cumsum(sizes[:-1])), shapes)]
    return ImputerModel(DenseNet(*arrays[:6]), DenseNet(*arrays[6:]), n_classes, kinds, config)
