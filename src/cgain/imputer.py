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
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .nn import (OPTIMIZERS, Array, DenseNet, FlatArrays, dense_backward, dense_forward,
                 init_dense, make_optimizer, make_rng, optimizer_step, uniform)
from .data import BINARY, CONTINUOUS, Dataset, IncompleteDataset

EPS = 1e-8          # log clamp inside every cross-entropy term
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
    noise_high: float = 0.01        # generator noise ~ U(0, noise_high)
    seed: int = 0
    log_every: int = 100
    stratified_batches: bool = False    # per-batch class shares match the dataset
    early_stop: bool = False        # optional: stop when reconstruction stalls
    early_stop_tol: float = 1e-5
    early_stop_window: int = 500

    def validate(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.batch_size < 1 or self.iterations < 1:
            raise ValueError("batch size and iteration budget must be at least 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if self.hidden_multiplier < 1:
            raise ValueError(f"hidden multiplier must be at least 1, got {self.hidden_multiplier}")
        if self.adversarial_sign not in ADV_SIGNS:
            raise ValueError(f"adversarial sign must be one of {ADV_SIGNS}, got {self.adversarial_sign!r}")
        if not 0.0 < self.noise_high <= 1.0:
            raise ValueError(f"noise amplitude must be in (0, 1], got {self.noise_high}")
        if self.log_every < 1:
            raise ValueError(f"log interval must be at least 1, got {self.log_every}")


@dataclass
class ImputerModel:
    """Trained generator/discriminator pair plus conditioning metadata."""

    generator: DenseNet
    discriminator: DenseNet
    n_features: int
    n_classes: int
    conditional: bool
    column_kinds: list[str]
    config: TrainConfig

    def __post_init__(self):
        d, m = self.n_features, self.n_classes
        label_width = m if self.conditional else 0
        if self.generator.input_width != 3 * d + label_width:
            raise ValueError(f"generator input width {self.generator.input_width}, expected {3 * d + label_width}")
        if self.discriminator.input_width != 2 * d + label_width:
            raise ValueError(f"discriminator input width {self.discriminator.input_width}, expected {2 * d + label_width}")
        if self.generator.output_width != d or self.discriminator.output_width != d:
            raise ValueError("generator and discriminator must both output one value per feature")


@dataclass
class TrainingTrace:
    """Losses sampled every log_every iterations."""

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

def _with_labels(blocks: list[Array], labels: Array, conditional: bool) -> Array:
    if conditional:
        blocks = blocks + [labels]
    return np.concatenate(blocks, axis=1)


def generator_forward(model: ImputerModel, x_tilde: Array, mask: Array, labels: Array,
                      z: Array) -> tuple[Array, Array, tuple]:
    """Generator pass with explicit noise. Returns (x_bar, x_hat, cache)."""
    g_in = _with_labels([x_tilde, mask, (1.0 - mask) * z], labels, model.conditional)
    x_bar, cache = dense_forward(model.generator, g_in)
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
    z = uniform(rng, 0.0, model.config.noise_high, x_tilde.shape)
    x_bar, x_hat, _ = generator_forward(model, x_tilde, mask, labels, z)
    return x_bar, x_hat


def discriminator_forward(model: ImputerModel, x_hat: Array, hint: Array,
                          labels: Array) -> tuple[Array, tuple]:
    """Discriminator pass. Returns (m_hat, cache): per cell, P(observed)."""
    d_in = _with_labels([x_hat, hint], labels, model.conditional)
    return dense_forward(model.discriminator, d_in)


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

def _batch_sampler(ds: Dataset, batch: int, stratified: bool):
    """Mini-batch index draws: uniform with replacement, or stratified so
    per-batch class counts match the dataset's shares to within one row."""
    n = ds.n_rows
    if not stratified:
        return lambda rng: rng.integers(0, n, size=batch)
    cls = ds.class_index()
    rows = [np.flatnonzero(cls == c) for c in range(ds.n_classes)]
    shares = np.array([r.size / n for r in rows])
    counts = np.floor(batch * shares).astype(int)
    remainder = np.argsort(-(batch * shares - counts), kind="stable")
    counts[remainder[: batch - counts.sum()]] += 1

    def draw(rng):
        return np.concatenate([r[rng.integers(0, r.size, size=k)]
                               for r, k in zip(rows, counts) if k > 0])

    return draw


def build_model(d: int, m: int, column_kinds: list[str], config: TrainConfig,
                rng: np.random.Generator) -> ImputerModel:
    """Xavier-initialized generator and discriminator for d features, m classes."""
    label_width = m if config.conditional else 0
    hidden = config.hidden_multiplier * d
    gen = init_dense(rng, 3 * d + label_width, hidden, d)
    disc = init_dense(rng, 2 * d + label_width, hidden, d)
    return ImputerModel(gen, disc, d, m, config.conditional, list(column_kinds), config)


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


def _in_unit_interval(a: Array) -> bool:
    return bool(np.all((a >= 0.0) & (a <= 1.0)))   # false at NaN


def train(incomplete: IncompleteDataset, config: TrainConfig) -> tuple[ImputerModel, TrainingTrace]:
    """Alternate one discriminator and one generator update per iteration.

    Each step draws a fresh mini-batch (uniform with replacement, or
    stratified by class when configured), fresh noise and fresh hint flags.
    Fully determined by (config.seed, data, config). Raises
    FloatingPointError at the first iteration with a non-finite loss.
    """
    config.validate()
    ds = incomplete.dataset
    n, d = ds.features.shape
    if n < 1:
        raise ValueError("cannot train on an empty dataset")
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
    sample_rows = _batch_sampler(ds, batch, config.stratified_batches)

    def draw() -> tuple[Array, ...]:
        """(x_t, m, y, z, hint, b) for one step; x_t, m and y are overwritten
        by the next draw."""
        idx = sample_rows(rng)
        # the sampler's indices are in range, and mode="raise" would buffer
        x_t, m, y = (np.take(a, idx, axis=0, out=out, mode="clip") for a, out in zip(columns, rows))
        z = uniform(rng, 0.0, config.noise_high, (batch, d))
        b = sample_hint_b(m, rng)
        return x_t, m, y, z, hint_from_b(b, m), b

    # m_hat and x_bar are sigmoid outputs, in [0, 1] or NaN, and m_hat enters
    # the losses through a clamped log. With features and mask in [0, 1] every
    # loss term is then bounded, so a loss is non-finite exactly when the
    # step's m_hat or x_bar holds a NaN, and the losses are needed only on
    # logged iterations. With other data they are computed and tested on
    # every iteration.
    every_iteration = config.early_stop or not all(map(_in_unit_interval, columns[:2]))
    trace = TrainingTrace()
    recon_hist: list[float] = []
    t0 = time.perf_counter()

    for it in range(1, config.iterations + 1):
        logged = it % config.log_every == 0
        with_losses = logged or every_iteration
        # (A) discriminator update
        x_t, m, y, z, hint, b = draw()
        d_grads, d_m_hat = discriminator_step_grads(model, x_t, m, y, z, hint, b)
        optimizer_step(d_opt, model.discriminator.params(), d_grads)
        if with_losses:
            d_loss = loss_discriminator(d_m_hat, m, b)

        # (B) generator update, discriminator fixed
        x_t, m, y, z, hint, b = draw()
        g_grads, g_m_hat, x_bar = generator_step_grads(model, x_t, m, y, z, hint, b)
        optimizer_step(g_opt, model.generator.params(), g_grads)
        if with_losses:
            g_adv, g_recon = generator_loss_parts(g_m_hat, m, b, x_bar, x_t, model.column_kinds,
                                                  config.adversarial_sign)
            finite = math.isfinite(d_loss) and math.isfinite(g_adv) and math.isfinite(g_recon)
        else:
            # every cell is NaN or in [0, 1], so the sum is NaN exactly when a cell is
            finite = not math.isnan(d_m_hat.sum() + g_m_hat.sum() + x_bar.sum())
        if not finite:
            raise FloatingPointError(f"non-finite training loss at iteration {it}")
        if logged:
            trace.iterations.append(it)
            trace.d_loss.append(d_loss)
            trace.g_adversarial.append(g_adv)
            trace.g_reconstruction.append(g_recon)
            trace.seconds.append(time.perf_counter() - t0)
        if config.early_stop:
            recon_hist.append(g_recon)
            if (len(recon_hist) > config.early_stop_window
                    and recon_hist[-config.early_stop_window - 1] - recon_hist[-1] < config.early_stop_tol):
                break

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
MODEL_FORMAT_VERSION = 1

_NET_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


def save_model(path, model: ImputerModel) -> None:
    """Self-describing flat file: magic, version, JSON header, then all
    weight/bias arrays as little-endian float64 in header order."""
    arrays = []
    manifest = []
    for net_name, net in (("generator", model.generator), ("discriminator", model.discriminator)):
        for fname in _NET_FIELDS:
            arr = getattr(net, fname)
            manifest.append({"name": f"{net_name}.{fname}", "shape": list(arr.shape)})
            arrays.append(np.ascontiguousarray(arr, dtype="<f8"))
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "n_features": model.n_features,
        "n_classes": model.n_classes,
        "conditional": model.conditional,
        "column_kinds": model.column_kinds,
        "generator_activations": [model.generator.hidden_activation, model.generator.output_activation],
        "discriminator_activations": [model.discriminator.hidden_activation, model.discriminator.output_activation],
        "config": asdict(model.config),
        "arrays": manifest,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(arr.tobytes())


def load_model(path) -> ImputerModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: not a model file (bad magic {magic!r})")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported model format version {version}")
        (header_len,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(header_len).decode("utf-8"))
        arrays = {}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"{path}: truncated array {entry['name']}")
            arrays[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape)

    def rebuild(net_name: str, acts: list[str]) -> DenseNet:
        fields = {f: arrays[f"{net_name}.{f}"] for f in _NET_FIELDS}
        return DenseNet(hidden_activation=acts[0], output_activation=acts[1], **fields)

    config = TrainConfig(**header["config"])
    return ImputerModel(
        generator=rebuild("generator", header["generator_activations"]),
        discriminator=rebuild("discriminator", header["discriminator_activations"]),
        n_features=header["n_features"],
        n_classes=header["n_classes"],
        conditional=header["conditional"],
        column_kinds=list(header["column_kinds"]),
        config=config,
    )
