"""Class-conditional adversarial imputer (CGAIN) and its unconditional
variant (GAIN).

The generator sees [x_tilde (zeros at missing cells), mask, (1-mask)*noise,
one-hot labels] and proposes a full row; observed cells are merged back so
only missing cells are ever replaced. The discriminator sees the completed
row, a hint (the mask with exactly one column per row blanked to 0.5) and
the labels, and predicts per cell the probability that the cell was
observed. Losses are evaluated only at the hinted-out cells, plus a
reconstruction term on observed cells weighted by alpha.

With conditional=False the label block is dropped from both networks and
the pipeline is exactly the unconditional one.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import time
import warnings
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from .nn import (OPTIMIZERS, Array, DenseNet, FlatArrays, dense_backward, dense_forward,
                 dense_shapes, init_dense, make_optimizer, make_rng, optimizer_step, uniform)
from .data import BINARY, CONTINUOUS, Dataset, IncompleteDataset

EPS = 1e-8          # log clamp inside every cross-entropy term
NOISE_HIGH = 0.01   # generator noise ~ U(0, NOISE_HIGH), as in GAIN
ADV_SIGNS = ("gain", "literal")


@dataclass
class TrainConfig:
    """Hyperparameters of the alternating training loop."""

    alpha: float = 100.0            # weight of the observed-cell reconstruction loss
    batch_size: int = 128
    iterations: int = 10_000        # discriminator/generator update pairs
    optimizer: str = "adam"         # one of nn.OPTIMIZERS
    learning_rate: float = 1e-3
    hidden_multiplier: int = 3      # hidden width = multiplier * n_features
    conditional: bool = True        # False drops the label block (unconditional variant)
    adversarial_sign: str = "gain"  # "gain" | "literal"; see loss_generator
    seed: int = 0
    log_every: int = 100

    def validate(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.batch_size < 1 or self.iterations < 1:
            raise ValueError("batch size and iteration budget must be at least 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if not isinstance(self.hidden_multiplier, int) or self.hidden_multiplier < 1:
            raise ValueError(f"hidden multiplier must be an integer of at least 1, "
                             f"got {self.hidden_multiplier!r}")
        if self.adversarial_sign not in ADV_SIGNS:
            raise ValueError(f"adversarial sign must be one of {ADV_SIGNS}, got {self.adversarial_sign!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.log_every < 1:
            raise ValueError(f"log interval must be at least 1, got {self.log_every}")


@dataclass
class ImputerModel:
    """Trained generator/discriminator pair plus conditioning metadata; the
    feature count is len(column_kinds), and config says whether the nets
    take the labels."""

    generator: DenseNet
    discriminator: DenseNet
    n_classes: int
    column_kinds: list[str]
    config: TrainConfig

    n_features = property(lambda self: len(self.column_kinds))
    conditional = property(lambda self: self.config.conditional)

    def __post_init__(self):
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
    """Per-row reveal flags: all ones except one uniformly chosen column."""
    n, d = mask.shape
    if n < 1:
        raise ValueError("empty mask batch")
    b = np.ones((n, d))
    b[np.arange(n), rng.integers(0, d, size=n)] = 0.0
    return b


def hint_from_b(b: Array, mask: Array) -> Array:
    """Blend mask and the 0.5 placeholder: h = b*m + 0.5*(1-b)."""
    if b.shape != mask.shape:
        raise ValueError(f"flag shape {b.shape} does not match mask {mask.shape}")
    return b * mask + 0.5 * (1.0 - b)


# ---------------------------------------------------------------------------
# forward paths
# ---------------------------------------------------------------------------

def _with_labels(blocks: list[Array], labels: Array, conditional: bool, dtype: np.dtype) -> Array:
    """The net input: blocks, then labels if conditional, cast to the net's
    dtype in the one copy the concatenation makes."""
    if conditional:
        blocks = blocks + [labels]
    return np.concatenate(blocks, axis=1, dtype=dtype)


def generator_forward(model: ImputerModel, x_tilde: Array, mask: Array, labels: Array,
                      z: Array) -> tuple[Array, Array, tuple]:
    """Generator pass with explicit noise. Returns (x_bar, x_hat, cache);
    x_bar and x_hat are float64 whatever the net's dtype."""
    g_in = _with_labels([x_tilde, mask, (1.0 - mask) * z], labels, model.conditional,
                        model.generator.dtype)
    out, cache = dense_forward(model.generator, g_in)
    x_bar = out.astype(np.float64)
    x_hat = mask * x_tilde + (1.0 - mask) * x_bar
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
    """Discriminator pass. Returns (m_hat, cache): per cell, P(observed),
    as float64 whatever the net's dtype.

    The losses need the upcast: in float32, 1 - EPS rounds to 1.0, so an
    output that saturates at 1.0 would defeat the clamps and turn a loss
    into inf and a loss gradient into NaN.
    """
    d_in = _with_labels([x_hat, hint], labels, model.conditional, model.discriminator.dtype)
    out, cache = dense_forward(model.discriminator, d_in)
    return out.astype(np.float64), cache


# ---------------------------------------------------------------------------
# losses (restricted to the hinted-out cells, b = 0)
# ---------------------------------------------------------------------------

def _clamped(p: Array) -> Array:
    return np.clip(p, EPS, 1.0 - EPS)


def loss_discriminator(m_hat: Array, mask: Array, b: Array) -> float:
    """Mean over rows of -[m log m_hat + (1-m) log(1-m_hat)] at b=0 cells."""
    if not (m_hat.shape == mask.shape == b.shape):
        raise ValueError(f"shapes differ: {m_hat.shape}, {mask.shape}, {b.shape}")
    p = _clamped(m_hat)
    cells = (1.0 - b) * (mask * np.log(p) + (1.0 - mask) * np.log(1.0 - p))
    return float(-cells.sum() / m_hat.shape[0])


def _loss_d_grad(m_hat: Array, mask: Array, b: Array) -> Array:
    p = _clamped(m_hat)
    live = (m_hat > EPS) & (m_hat < 1.0 - EPS)   # clamp saturates the gradient
    g = -(1.0 - b) * (mask / p - (1.0 - mask) / (1.0 - p)) / m_hat.shape[0]
    return g * live


def generator_loss_parts(m_hat: Array, mask: Array, b: Array, x_bar: Array, x_tilde: Array,
                         column_kinds: list[str], sign: str = "gain") -> tuple[float, float]:
    """(adversarial, reconstruction) parts of the generator loss.

    The adversarial part covers the hinted-out missing cells. Two sign
    conventions ship: "literal" minimizes sum (1-m) log m_hat directly,
    which drives the discriminator's belief at imputed cells toward
    "missing"; the default "gain" minimizes the negation, so fooling the
    discriminator means imputed cells classified as observed. The
    reconstruction part sums squared error over observed continuous cells
    and -x log x' over observed binary cells; both parts are averaged over
    batch rows.
    """
    if sign not in ADV_SIGNS:
        raise ValueError(f"adversarial sign must be one of {ADV_SIGNS}, got {sign!r}")
    n = m_hat.shape[0]
    p = _clamped(m_hat)
    adv_cells = (1.0 - b) * (1.0 - mask) * np.log(p)
    adv = float(adv_cells.sum() / n)
    if sign == "gain":
        adv = -adv

    binary_cols = _binary_columns(column_kinds, m_hat.shape[1])
    recon_cells = (x_bar - x_tilde) ** 2
    if binary_cols is not None:
        ce = -x_tilde * np.log(_clamped(x_bar))
        recon_cells = np.where(binary_cols, ce, recon_cells)
    recon_cells *= mask
    recon = float(recon_cells.sum() / n)
    return adv, recon


def loss_generator(m_hat: Array, mask: Array, b: Array, x_bar: Array, x_tilde: Array,
                   column_kinds: list[str], alpha: float, sign: str = "gain") -> float:
    """Adversarial part + alpha * reconstruction part."""
    if not (m_hat.shape == mask.shape == b.shape):
        raise ValueError(f"shapes differ: {m_hat.shape}, {mask.shape}, {b.shape}")
    if x_bar.shape != x_tilde.shape:
        raise ValueError(f"shapes differ: {x_bar.shape}, {x_tilde.shape}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    adv, recon = generator_loss_parts(m_hat, mask, b, x_bar, x_tilde, column_kinds, sign)
    return adv + alpha * recon


def _binary_columns(column_kinds: list[str], d: int) -> Array | None:
    """(1, d) row flagging binary columns, or None when there is none."""
    if len(column_kinds) != d:
        raise ValueError(f"{len(column_kinds)} column kinds for {d} columns")
    return _binary_row(tuple(column_kinds))


@functools.lru_cache(maxsize=32)
def _binary_row(column_kinds: tuple[str, ...]) -> Array | None:
    # validated once per distinct list of kinds; the row is shared, so read-only
    for k in column_kinds:
        if k not in (BINARY, CONTINUOUS):
            raise ValueError(f"unknown column kind {k!r}")
    row = np.array([k == BINARY for k in column_kinds])[None, :]
    if not row.any():
        return None
    row.flags.writeable = False
    return row


def _adv_grad_mhat(m_hat: Array, mask: Array, b: Array, sign: str) -> Array:
    n = m_hat.shape[0]
    p = _clamped(m_hat)
    live = (m_hat > EPS) & (m_hat < 1.0 - EPS)
    g = (1.0 - b) * (1.0 - mask) / p / n * live
    return -g if sign == "gain" else g


def _recon_grad_xbar(x_bar: Array, x_tilde: Array, mask: Array, column_kinds: list[str]) -> Array:
    n = x_bar.shape[0]
    binary_cols = _binary_columns(column_kinds, x_bar.shape[1])
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
    return ImputerModel(gen, disc, m, list(column_kinds), config)


def discriminator_step_grads(model: ImputerModel, x_t: Array, m: Array, y: Array,
                             z: Array, hint: Array, b: Array) -> tuple[FlatArrays, Array]:
    """Discriminator gradients on one batch, generator held fixed.

    Returns (gradients, m_hat); loss_discriminator(m_hat, m, b) is the
    step's loss.
    """
    _, x_hat, _ = generator_forward(model, x_t, m, y, z)
    m_hat, d_cache = discriminator_forward(model, x_hat, hint, y)
    d_grads = dense_backward(model.discriminator, d_cache, _loss_d_grad(m_hat, m, b), wrt="params")
    return d_grads, m_hat


def generator_step_grads(model: ImputerModel, x_t: Array, m: Array, y: Array,
                         z: Array, hint: Array, b: Array) -> tuple[FlatArrays, Array, Array]:
    """Generator gradients on one batch, discriminator held fixed.

    Returns (gradients, m_hat, x_bar); generator_loss_parts on them gives
    the step's loss parts. The adversarial signal flows through the
    discriminator's input gradient at the completed-data block, masked to
    missing cells (observed cells of x_hat do not depend on the generator).
    """
    cfg = model.config
    x_bar, x_hat, g_cache = generator_forward(model, x_t, m, y, z)
    m_hat, d_cache = discriminator_forward(model, x_hat, hint, y)

    # the full input-gradient product, then the x_hat block: a product over
    # w1[:d] alone would round differently
    d_input_grad = dense_backward(model.discriminator, d_cache,
                                  _adv_grad_mhat(m_hat, m, b, cfg.adversarial_sign), wrt="input")
    dx_bar = d_input_grad[:, :model.n_features] * (1.0 - m)
    recon_grad = _recon_grad_xbar(x_bar, x_t, m, model.column_kinds)
    recon_grad *= cfg.alpha
    dx_bar += recon_grad
    g_grads = dense_backward(model.generator, g_cache, dx_bar, wrt="params")
    return g_grads, m_hat, x_bar


def train(incomplete: IncompleteDataset, config: TrainConfig) -> tuple[ImputerModel, TrainingTrace]:
    """Alternate one discriminator and one generator update per iteration,
    for exactly config.iterations iterations.

    Each step draws a fresh mini-batch (rows uniform with replacement),
    fresh noise and fresh hint flags. Fully determined by (config.seed,
    data, config). A feature or mask cell outside [0, 1] is a ValueError
    naming its column and row; a non-finite loss is a FloatingPointError
    at its iteration.
    """
    config.validate()
    ds = incomplete.dataset
    n, d = ds.features.shape
    if n < 1:
        raise ValueError("cannot train on an empty dataset")
    in_unit = [(a >= 0.0) & (a <= 1.0) for a in (ds.features, incomplete.mask)]   # false at NaN
    incomplete.require(*in_unit, "train needs feature and mask cells in [0, 1]")
    batch = config.batch_size
    if batch > n:
        warnings.warn(f"batch size {batch} exceeds dataset size {n}; clamping to {n}")
        batch = n

    rng = make_rng(config.seed)
    model = build_model(d, ds.n_classes, ds.column_kinds, config, rng)
    d_opt = make_optimizer(config.optimizer, config.learning_rate, model.discriminator.params())
    g_opt = make_optimizer(config.optimizer, config.learning_rate, model.generator.params())

    columns = (ds.features, incomplete.mask, ds.labels)
    rows = [np.empty((batch,) + a.shape[1:], dtype=a.dtype) for a in columns]

    def draw() -> tuple[Array, ...]:
        """(x_t, m, y, z, hint, b) for one step; x_t, m and y are overwritten
        by the next draw."""
        idx = rng.integers(0, n, size=batch)
        # the indices are in range, and mode="raise" would buffer
        x_t, m, y = (np.take(a, idx, axis=0, out=out, mode="clip") for a, out in zip(columns, rows))
        z = uniform(rng, 0.0, NOISE_HIGH, (batch, d))
        b = sample_hint_b(m, rng)
        return x_t, m, y, z, hint_from_b(b, m), b

    # m_hat and x_bar are sigmoid outputs, in [0, 1] or NaN, and m_hat enters
    # the losses through a clamped log. With features and mask in [0, 1] every
    # loss term is then bounded, so a loss is non-finite exactly when the
    # step's m_hat or x_bar holds a NaN, and the losses are needed only on
    # logged iterations.
    trace = TrainingTrace()
    t0 = time.perf_counter()

    for it in range(1, config.iterations + 1):
        logged = it % config.log_every == 0
        # (A) discriminator update
        x_t, m, y, z, hint, b = draw()
        d_grads, d_m_hat = discriminator_step_grads(model, x_t, m, y, z, hint, b)
        optimizer_step(d_opt, model.discriminator.params(), d_grads)
        if logged:
            d_loss = loss_discriminator(d_m_hat, m, b)

        # (B) generator update, discriminator fixed
        x_t, m, y, z, hint, b = draw()
        g_grads, g_m_hat, x_bar = generator_step_grads(model, x_t, m, y, z, hint, b)
        optimizer_step(g_opt, model.generator.params(), g_grads)
        # every cell is NaN or in [0, 1], so the sum is NaN exactly when a cell is
        if math.isnan(d_m_hat.sum() + g_m_hat.sum() + x_bar.sum()):
            raise FloatingPointError(f"non-finite training loss at iteration {it}")
        if logged:
            g_adv, g_recon = generator_loss_parts(g_m_hat, m, b, x_bar, x_t, model.column_kinds,
                                                  config.adversarial_sign)
            trace.iterations.append(it)
            trace.d_loss.append(d_loss)
            trace.g_adversarial.append(g_adv)
            trace.g_reconstruction.append(g_recon)
            trace.seconds.append(time.perf_counter() - t0)

    return model, trace


def impute(model: ImputerModel, incomplete: IncompleteDataset,
           rng: np.random.Generator | None = None) -> Dataset:
    """Fill the missing cells; observed cells pass through untouched.

    Deterministic given (model, data, noise seed); rng defaults to a fresh
    stream seeded by the model's training seed.
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
MODEL_FORMAT_VERSION = 2

_PREAMBLE = struct.Struct("<IQ")          # format version, header length
_HEADER_KEYS = {"n_classes", "column_kinds", "config"}
_CONFIG_KEYS = {f.name for f in fields(TrainConfig)}


def save_model(path, model: ImputerModel) -> None:
    """Magic, version, a JSON header of n_classes, column_kinds and config,
    then the generator's and the discriminator's parameter buffers as
    little-endian float32. A net that is not float32 is a ValueError."""
    nets = (model.generator, model.discriminator)
    for name, net in zip(("generator", "discriminator"), nets):
        if net.dtype != np.float32:
            raise ValueError(f"{name} is {net.dtype}; only float32 nets, as build_model makes, are saved")
    header = {"n_classes": model.n_classes, "column_kinds": model.column_kinds, "config": asdict(model.config)}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
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
    except (TypeError, ValueError) as exc:   # a value of the wrong type fails a comparison
        raise ValueError(f"{path}: invalid config: {exc}") from None

    shapes = [s for widths in _layer_widths(len(kinds), n_classes, config) for s in dense_shapes(*widths)]
    sizes = [math.prod(s) for s in shapes]
    if len(blob) - pos != 4 * sum(sizes):
        raise ValueError(f"{path}: {len(blob) - pos} bytes of weights, but the header's layout "
                         f"needs {4 * sum(sizes)}")
    flat = np.frombuffer(blob, dtype="<f4", offset=pos).astype(np.float32, copy=False)
    arrays = [a.reshape(s) for a, s in zip(np.split(flat, np.cumsum(sizes[:-1])), shapes)]
    return ImputerModel(DenseNet(*arrays[:6]), DenseNet(*arrays[6:]), n_classes, kinds, config)
