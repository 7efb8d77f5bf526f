"""Finite-difference gradient checks: central differences, the worst
relative error, and checks for random nets under each of the three loss
forms the imputer uses (discriminator cross entropy, generator adversarial
term, observed-cell reconstruction)."""

import numpy as np

from cgain.nn import dense_backward, dense_forward, init_dense, make_rng
from cgain.imputer import (generator_loss_parts, loss_discriminator,
                           _adv_grad_mhat, _loss_d_grad, _recon_grad_xbar)

LOSS_FORMS = ("d_xent", "g_adv", "recon")


def finite_difference_gradients(loss_fn, params: list, step: float = 1e-5) -> list:
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


def max_relative_error(analytic: list, numeric: list, floor: float = 1e-6) -> float:
    """Worst-case |a - n| / max(|a|, |n|, floor) over all parameter entries."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def check_net_loss_gradients(seed: int, width: int, loss_form: str,
                             batch: int = 4, step: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients
    over every parameter of a seeded random net under one loss form."""
    rng = make_rng(seed)
    d_in = int(rng.integers(2, 8))
    d_out = int(rng.integers(2, 6))
    net = init_dense(rng, d_in, width, d_out)
    x = rng.uniform(0.0, 1.0, (batch, d_in))
    mask = (rng.random((batch, d_out)) < 0.7).astype(float)
    cols = rng.integers(0, d_out, batch)    # each row's hinted column, where b = 0
    b = np.ones((batch, d_out))
    b[np.arange(batch), cols] = 0.0
    x_t = rng.uniform(0.0, 1.0, (batch, d_out)) * mask
    kinds = ["continuous" if v else "binary" for v in rng.random(d_out) < 0.7]
    sign = "gain" if rng.random() < 0.5 else "literal"

    def loss():
        out, _ = dense_forward(net, x)
        if loss_form == "d_xent":
            return loss_discriminator(out, mask, b)
        adv, recon = generator_loss_parts(out, mask, b, out, x_t, kinds, sign)
        return adv if loss_form == "g_adv" else recon

    out, cache = dense_forward(net, x)
    if loss_form == "d_xent":
        grad_out = _loss_d_grad(out, mask, cols)
    elif loss_form == "g_adv":
        grad_out = _adv_grad_mhat(out, mask, cols, sign)
    elif loss_form == "recon":
        grad_out = _recon_grad_xbar(out, x_t, mask, kinds)
    else:
        raise ValueError(loss_form)
    analytic = dense_backward(net, cache, grad_out, wrt="params")
    numeric = finite_difference_gradients(loss, net.params(), step=step)
    return max_relative_error(analytic, numeric)
