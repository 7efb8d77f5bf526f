"""Independent reference implementations.

The scalar part is written with plain Python loops and math only, straight
from the definitions, so the vectorized library paths can be checked
against an implementation that shares none of their code. The vectorized
part at the end keeps the straightforward NumPy formulas, with every
product computed and every operation in its textbook order, so the lean
library paths can be required to match them bit for bit.
"""

import csv
import math

import numpy as np

EPS = 1e-8


def _relu(v):
    return v if v > 0.0 else 0.0


def _sigmoid(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def scalar_forward(net, x):
    """Unrolled forward pass of a relu-relu-sigmoid net, one scalar at a time."""
    rows = len(x)
    out = []
    for i in range(rows):
        h1 = []
        for j in range(net.w1.shape[1]):
            acc = net.b1[j]
            for k in range(net.w1.shape[0]):
                acc += x[i][k] * net.w1[k, j]
            h1.append(_relu(acc))
        h2 = []
        for j in range(net.w2.shape[1]):
            acc = net.b2[j]
            for k in range(net.w2.shape[0]):
                acc += h1[k] * net.w2[k, j]
            h2.append(_relu(acc))
        row = []
        for j in range(net.w3.shape[1]):
            acc = net.b3[j]
            for k in range(net.w3.shape[0]):
                acc += h2[k] * net.w3[k, j]
            row.append(_sigmoid(acc))
        out.append(row)
    return out


def _clamp(p):
    return min(max(p, EPS), 1.0 - EPS)


def scalar_loss_d(m_hat, mask, b):
    """Cross entropy over the hinted-out (b=0) cells, averaged over rows."""
    n, d = len(mask), len(mask[0])
    total = 0.0
    for i in range(n):
        for j in range(d):
            if b[i][j] == 0:
                p = _clamp(m_hat[i][j])
                total += mask[i][j] * math.log(p) + (1 - mask[i][j]) * math.log(1 - p)
    return -total / n


def scalar_loss_g_parts(m_hat, mask, b, x_bar, x_tilde, kinds):
    """(adversarial, reconstruction) generator loss parts, cell by cell."""
    n, d = len(mask), len(mask[0])
    adv = 0.0
    for i in range(n):
        for j in range(d):
            if b[i][j] == 0:
                adv += (1 - mask[i][j]) * math.log(_clamp(m_hat[i][j]))
    adv = -adv / n
    recon = 0.0
    for i in range(n):
        for j in range(d):
            if mask[i][j] == 1:
                if kinds[j] == "binary":
                    recon += -x_tilde[i][j] * math.log(_clamp(x_bar[i][j]))
                else:
                    recon += (x_bar[i][j] - x_tilde[i][j]) ** 2
    recon /= n
    return adv, recon


def scalar_loss_g(m_hat, mask, b, x_bar, x_tilde, kinds, alpha):
    adv, recon = scalar_loss_g_parts(m_hat, mask, b, x_bar, x_tilde, kinds)
    return adv + alpha * recon


def scalar_recombine(x_tilde, x_bar, mask):
    """Cellwise merge: observed from x_tilde, missing from x_bar."""
    n, d = len(mask), len(mask[0])
    return [[mask[i][j] * x_tilde[i][j] + (1 - mask[i][j]) * x_bar[i][j]
             for j in range(d)] for i in range(n)]


def scalar_rmse(truth, imputed, mask, classes=None):
    """Missing-cell RMSE; with classes, also per-class values and counts."""
    n, d = len(mask), len(mask[0])
    total, count = 0.0, 0
    by_class = {}
    for i in range(n):
        for j in range(d):
            if mask[i][j] == 0:
                sq = (truth[i][j] - imputed[i][j]) ** 2
                total += sq
                count += 1
                if classes is not None:
                    s, c = by_class.get(classes[i], (0.0, 0))
                    by_class[classes[i]] = (s + sq, c + 1)
    overall = math.sqrt(total / count)
    if classes is None:
        return overall, count
    per_class = {k: (math.sqrt(s / c), c) for k, (s, c) in by_class.items()}
    return overall, count, per_class


# ---------------------------------------------------------------------------
# vectorized references for bit-exact checks
# ---------------------------------------------------------------------------

def ref_sigmoid(z):
    """Two-branch stable sigmoid through boolean indexing."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_forward(net, x):
    """Forward pass keeping every pre-activation: (out, (x, z1, a1, z2, a2, out))."""
    z1 = x @ net.w1 + net.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ net.w2 + net.b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ net.w3 + net.b3
    out = ref_sigmoid(z3)
    return out, (x, z1, a1, z2, a2, out)


def ref_backward(net, cache, grad_out, leading=None):
    """Full backward pass by the chain rule from dLoss/dOutput: (parameter
    gradients in params() order, input gradient); with leading=k, the input
    gradient of the first k input columns only, as the product over w1[:k]."""
    out = cache[-1]
    return ref_logit_backward(net, cache, grad_out * out * (1.0 - out), leading)


def ref_logit_backward(net, cache, dz3, leading=None):
    """ref_backward from dLoss/dz at the output pre-activation z."""
    x, z1, a1, z2, a2, out = cache
    dz2 = (dz3 @ net.w3.T) * (z2 > 0)
    dz1 = (dz2 @ net.w2.T) * (z1 > 0)
    grads = [x.T @ dz1, dz1.sum(axis=0), a1.T @ dz2, dz2.sum(axis=0), a2.T @ dz3, dz3.sum(axis=0)]
    return grads, dz1 @ net.w1[:leading].T


def ref_adam_step(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam; updates p, m and v in place."""
    m[...] = beta1 * m + (1.0 - beta1) * g
    v[...] = beta2 * v + (1.0 - beta2) * g * g
    p -= lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)


def ref_mice_lite(features, mask, sweeps, ridge=1e-6):
    """The completion a chained-regression fit leaves on its own rows: mean
    fill, then per sweep and column a ridge least-squares fit (with
    intercept) on the column's observed rows, whose [0, 1]-clamped
    predictions overwrite its missing rows."""
    x = features.copy()
    d = x.shape[1]
    for j in range(d):
        obs = mask[:, j] == 1
        x[~obs, j] = x[obs, j].mean()
    for _ in range(sweeps):
        for j in range(d):
            obs = mask[:, j] == 1
            others = [k for k in range(d) if k != j]
            z = np.column_stack([x[obs][:, others], np.ones(obs.sum())])
            beta = np.linalg.solve(z.T @ z + ridge * np.eye(d), z.T @ x[obs, j])
            x[~obs, j] = np.clip(x[~obs][:, others] @ beta[:-1] + beta[-1], 0.0, 1.0)
    return x


def ref_loss_d_grad(m_hat, mask, b):
    """Gradient of the discriminator loss w.r.t. m_hat over the full matrix:
    zero, with a sign, wherever b = 1 or the clamp saturates."""
    p = np.clip(m_hat, EPS, 1.0 - EPS)
    live = (m_hat > EPS) & (m_hat < 1.0 - EPS)
    g = -(1.0 - b) * (mask / p - (1.0 - mask) / (1.0 - p)) / m_hat.shape[0]
    return g * live


def ref_adv_grad(m_hat, mask, b):
    """Gradient of the generator's adversarial part w.r.t. m_hat over the
    full matrix."""
    p = np.clip(m_hat, EPS, 1.0 - EPS)
    live = (m_hat > EPS) & (m_hat < 1.0 - EPS)
    g = (1.0 - b) * (1.0 - mask) / p / m_hat.shape[0] * live
    return -g


def ref_d_head(m_hat, mask, b):
    """Gradient of the discriminator loss w.r.t. the discriminator's logits
    over the full matrix: (m_hat - mask) / n where b = 0 and the clamp
    leaves a gradient, else 0."""
    live = (m_hat > EPS) & (m_hat < 1.0 - EPS)
    return np.where(b == 0, (m_hat - mask) / m_hat.shape[0] * live, 0.0)


def ref_adv_head(m_hat, mask, b):
    """Gradient of the generator's adversarial part w.r.t. the
    discriminator's logits over the full matrix: -(1 - mask)(1 - m_hat) / n
    where b = 0 and the clamp leaves a gradient, else 0."""
    live = (m_hat > EPS) & (m_hat < 1.0 - EPS)
    return np.where(b == 0, -(1.0 - mask) * (1.0 - m_hat) / m_hat.shape[0] * live, 0.0)


def ref_recon_grad(x_bar, x_tilde, mask, kinds):
    """Gradient of the reconstruction part w.r.t. the generator output."""
    binary = np.array([k == "binary" for k in kinds])[None, :]
    live = (x_bar > EPS) & (x_bar < 1.0 - EPS)
    d_ce = -x_tilde / np.clip(x_bar, EPS, 1.0 - EPS) * live
    return mask * np.where(binary, d_ce, 2.0 * (x_bar - x_tilde)) / x_bar.shape[0]


# ---------------------------------------------------------------------------
# CSV reading through the csv module, the reference for read_csv_table
# ---------------------------------------------------------------------------

def ref_read_csv_table(path):
    """(header, rows, lines) of a headered CSV, every record from csv.reader:
    blank lines are skipped, lines[i] is the file line record i starts on,
    and a duplicate header name or a row of another width is an error."""
    rows, lines = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        start = reader.line_num + 1
        for row in reader:
            if row:
                rows.append(row)
                lines.append(start)
            start = reader.line_num + 1
    for k, column in enumerate(header):
        if column in header[:k]:
            raise ValueError(f"{path}: duplicate column name {column!r} in the header; "
                             "header names must be distinct")
    for row, line in zip(rows, lines):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {line} has {len(row)} cells, expected {len(header)}")
    return header, rows, lines


# ---------------------------------------------------------------------------
# per-cell CSV parsing, the reference for the bulk parser
# ---------------------------------------------------------------------------

def ref_parse_table(path, header, rows, label_idx, allow_missing):
    """(raw, mask, labels) parsed one cell at a time, raising at the first
    bad cell: the loop of load_csv (allow_missing=False) and of
    load_incomplete_csv (allow_missing=True)."""
    raw = np.zeros((len(rows), len(header) - 1))
    mask = np.ones((len(rows), len(header) - 1))
    labels = []
    for i, row in enumerate(rows):
        text = row[label_idx].strip()
        if text == "":
            raise ValueError(f"{path}: row {i + 2}: missing label; labels must be fully observed")
        labels.append(text)
        k = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            text = cell.strip()
            if text == "":
                if not allow_missing:
                    raise ValueError(f"{path}: row {i + 2}, column {header[j]!r}: "
                                     "empty cell in a complete dataset")
                mask[i, k] = 0.0
            else:
                try:
                    raw[i, k] = float(text)
                except ValueError:
                    raise ValueError(f"{path}: row {i + 2}, column {header[j]!r}: "
                                     f"cannot parse {text!r} as a number") from None
            k += 1
    return raw, mask, labels


def ref_parse_mask(path, header, rows):
    """A 0/1 mask table parsed one cell at a time."""
    mask = np.zeros((len(rows), len(header)))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            v = cell.strip()
            if v not in ("0", "1"):
                raise ValueError(f"{path}: row {i + 2}, column {header[j]!r}: "
                                 f"mask cells must be 0 or 1, got {v!r}")
            mask[i, j] = float(v)
    return mask


def ref_denormalize(schema, values, round_binary=False):
    """denormalize one column at a time, each with its own lo and hi."""
    out = np.empty_like(values)
    for j, spec in enumerate(schema):
        out[:, j] = spec.lo + values[:, j] * (spec.hi - spec.lo)
        if round_binary and spec.kind == "binary":
            out[:, j] = np.where(out[:, j] >= 0.5, 1.0, 0.0)
    return out


def ref_normalize(schema, raw):
    """normalize one column at a time, each with its own lo and hi."""
    out = np.empty_like(raw)
    for j, spec in enumerate(schema):
        out[:, j] = (raw[:, j] - spec.lo) / (spec.hi - spec.lo)
    return out
