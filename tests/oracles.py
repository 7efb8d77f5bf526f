"""Independent reference implementations.

The scalar part is written with plain Python loops and math only, straight
from the definitions, so the vectorized library paths can be checked
against an implementation that shares none of their code. The vectorized
part at the end keeps the straightforward NumPy formulas, with every
product computed and every operation in its textbook order, so the lean
library paths can be required to match them bit for bit.
"""

import math

import numpy as np

EPS = 1e-8


def _act(kind, v):
    if kind == "relu":
        return v if v > 0.0 else 0.0
    if kind == "identity":
        return v
    if kind == "sigmoid":
        if v >= 0:
            return 1.0 / (1.0 + math.exp(-v))
        e = math.exp(v)
        return e / (1.0 + e)
    raise ValueError(kind)


def scalar_forward(net, x):
    """Unrolled forward pass of a two-hidden-layer net, one scalar at a time."""
    rows = len(x)
    out = []
    for i in range(rows):
        h1 = []
        for j in range(net.w1.shape[1]):
            acc = net.b1[j]
            for k in range(net.w1.shape[0]):
                acc += x[i][k] * net.w1[k, j]
            h1.append(_act(net.hidden_activation, acc))
        h2 = []
        for j in range(net.w2.shape[1]):
            acc = net.b2[j]
            for k in range(net.w2.shape[0]):
                acc += h1[k] * net.w2[k, j]
            h2.append(_act(net.hidden_activation, acc))
        row = []
        for j in range(net.w3.shape[1]):
            acc = net.b3[j]
            for k in range(net.w3.shape[0]):
                acc += h2[k] * net.w3[k, j]
            row.append(_act(net.output_activation, acc))
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


def scalar_loss_g_parts(m_hat, mask, b, x_bar, x_tilde, kinds, sign="gain"):
    """(adversarial, reconstruction) generator loss parts, cell by cell."""
    n, d = len(mask), len(mask[0])
    adv = 0.0
    for i in range(n):
        for j in range(d):
            if b[i][j] == 0:
                adv += (1 - mask[i][j]) * math.log(_clamp(m_hat[i][j]))
    adv /= n
    if sign == "gain":
        adv = -adv
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


def scalar_loss_g(m_hat, mask, b, x_bar, x_tilde, kinds, alpha, sign="gain"):
    adv, recon = scalar_loss_g_parts(m_hat, mask, b, x_bar, x_tilde, kinds, sign)
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
    act = (lambda z: np.maximum(z, 0.0)) if net.hidden_activation == "relu" else (lambda z: z)
    z1 = x @ net.w1 + net.b1
    a1 = act(z1)
    z2 = a1 @ net.w2 + net.b2
    a2 = act(z2)
    z3 = a2 @ net.w3 + net.b3
    out = ref_sigmoid(z3) if net.output_activation == "sigmoid" else z3
    return out, (x, z1, a1, z2, a2, out)


def ref_backward(net, cache, grad_out):
    """Full backward pass: (parameter gradients in params() order, input gradient)."""
    x, z1, a1, z2, a2, out = cache
    relu = net.hidden_activation == "relu"
    dz3 = grad_out * out * (1.0 - out) if net.output_activation == "sigmoid" else grad_out
    da2 = dz3 @ net.w3.T
    dz2 = da2 * (z2 > 0) if relu else da2
    da1 = dz2 @ net.w2.T
    dz1 = da1 * (z1 > 0) if relu else da1
    grads = [x.T @ dz1, dz1.sum(axis=0), a1.T @ dz2, dz2.sum(axis=0), a2.T @ dz3, dz3.sum(axis=0)]
    return grads, dz1 @ net.w1.T


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


def ref_recon_grad(x_bar, x_tilde, mask, kinds):
    """Gradient of the reconstruction part w.r.t. the generator output."""
    binary = np.array([k == "binary" for k in kinds])[None, :]
    live = (x_bar > EPS) & (x_bar < 1.0 - EPS)
    d_ce = -x_tilde / np.clip(x_bar, EPS, 1.0 - EPS) * live
    return mask * np.where(binary, d_ce, 2.0 * (x_bar - x_tilde)) / x_bar.shape[0]


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
        if allow_missing and text == "":
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
