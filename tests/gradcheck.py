"""Finite-difference gradient checks for random nets under each of the
three loss forms the imputer uses (discriminator cross entropy, generator
adversarial term, observed-cell reconstruction)."""

import numpy as np

from cgain.nn import (dense_backward, dense_forward, finite_difference_gradients,
                      init_dense, make_rng, max_relative_error)
from cgain.imputer import (generator_loss_parts, loss_discriminator,
                           _adv_grad_mhat, _loss_d_grad, _recon_grad_xbar)

LOSS_FORMS = ("d_xent", "g_adv", "recon")


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
    b = np.ones((batch, d_out))
    b[np.arange(batch), rng.integers(0, d_out, batch)] = 0.0
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
        grad_out = _loss_d_grad(out, mask, b)
    elif loss_form == "g_adv":
        grad_out = _adv_grad_mhat(out, mask, b, sign)
    elif loss_form == "recon":
        grad_out = _recon_grad_xbar(out, x_t, mask, kinds)
    else:
        raise ValueError(loss_form)
    analytic = dense_backward(net, cache, grad_out, wrt="params")
    numeric = finite_difference_gradients(loss, net.params(), step=step)
    return max_relative_error(analytic, numeric)
