import json
import re
import struct
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import cgain
import cgain.imputer as imputer_module
from cgain.data import BINARY, CONTINUOUS, ColumnSpec, Dataset, IncompleteDataset, corrupt_mcar
from cgain.imputer import (EPS, MODEL_MAGIC, NOISE_HIGH, TrainConfig, build_model,
                           discriminator_forward, discriminator_step_grads, generate, generator_forward,
                           generator_loss_parts, generator_step_grads, hint_flags, hint_from_b, impute,
                           load_model, loss_discriminator, sample_hint_b,
                           save_model, train, _draw, _head, _hint)
from cgain.nn import DenseNet, dense_backward, dense_forward, init_dense, make_rng, uniform
from conftest import as_format_v1, as_format_v2, as_format_v3, assert_same_bits, toy_dataset, random_incomplete
from gradcheck import finite_difference_gradients, max_relative_error
from oracles import (ref_adv_grad, ref_adv_head, ref_d_head, ref_forward, ref_logit_backward,
                     ref_loss_d_grad, ref_recon_grad, scalar_forward, scalar_loss_d, scalar_loss_g,
                     scalar_loss_g_parts, scalar_recombine)


def small_model(d=3, m=2, seed=0, conditional=True, binary=(), **cfg_kwargs):
    """A model whose columns in `binary` are binary; the kinds draw nothing,
    so they leave the weights as they are."""
    cfg = TrainConfig(conditional=conditional, hidden_multiplier=2, seed=seed, **cfg_kwargs)
    kinds = [BINARY if j in binary else CONTINUOUS for j in range(d)]
    return build_model(d, m, kinds, cfg, make_rng(seed))


def as_float64(model):
    """The model with its nets' exact values widened to float64, for the
    tests that compare against float64 oracles, finite differences or
    bit-exact references."""
    return replace(model, **{name: DenseNet(*(p.astype(np.float64) for p in getattr(model, name).params()))
                             for name in ("generator", "discriminator")})


def random_batch(model, n=5, seed=1, rate=0.4):
    rng = make_rng(seed)
    mask = (rng.random((n, model.n_features)) >= rate).astype(float)
    x_t = rng.uniform(0.0, 1.0, (n, model.n_features)) * mask
    y = np.zeros((n, model.n_classes))
    y[np.arange(n), rng.integers(0, model.n_classes, n)] = 1.0
    z = uniform(rng, 0.0, 0.01, (n, model.n_features))
    cols = rng.integers(0, model.n_features, size=n)
    return x_t, mask, y, z, hint_flags(cols, model.n_features), _hint(mask, cols)


# ---------------------------------------------------------------------------
# hint mechanism
# ---------------------------------------------------------------------------

def test_hint_single_column_is_all_half():
    mask = np.array([[1.0], [0.0], [1.0]])
    hint = hint_from_b(sample_hint_b(mask, make_rng(0)), mask)
    assert_array_equal(hint, np.full((3, 1), 0.5))


def test_hint_formula_hand_case():
    # mask (1,1,1,1) with column 3 hidden -> (1,1,0.5,1)
    b = np.array([[1.0, 1.0, 0.0, 1.0]])
    mask = np.ones((1, 4))
    assert_array_equal(hint_from_b(b, mask), [[1.0, 1.0, 0.5, 1.0]])
    # and with a missing cell revealed: mask 0 passes through where b=1
    assert_array_equal(hint_from_b(b, np.array([[0.0, 1.0, 1.0, 0.0]])),
                       [[0.0, 1.0, 0.5, 0.0]])


def test_hint_rows_have_exactly_one_half_and_mask_elsewhere():
    rng = make_rng(4)
    mask = (rng.random((64, 6)) >= 0.3).astype(float)
    b = sample_hint_b(mask, rng)
    hint = hint_from_b(b, mask)
    assert_array_equal((hint == 0.5).sum(axis=1), np.ones(64))
    revealed = b == 1.0
    assert_array_equal(hint[revealed], mask[revealed])
    # the defining blend holds entrywise
    assert_array_equal(hint, b * mask + 0.5 * (1.0 - b))


def test_hint_column_choice_is_uniform():
    rng = make_rng(2024)
    mask = np.ones((100_000, 5))
    hint = hint_from_b(sample_hint_b(mask, rng), mask)
    freq = (hint == 0.5).mean(axis=0)
    assert np.all(np.abs(freq - 0.2) <= 0.01)


def test_hint_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        sample_hint_b(np.ones((0, 3)), make_rng(0))


# ---------------------------------------------------------------------------
# generator / discriminator forward
# ---------------------------------------------------------------------------

def test_all_observed_passes_input_through_bit_exact():
    model = small_model(seed=3)
    x_t, _, y, z, _, _ = random_batch(model, seed=5)
    mask = np.ones_like(x_t)
    x_bar, x_hat = generate(model, x_t, mask, y, make_rng(0))
    assert np.array_equal(x_hat, x_t)
    assert not np.array_equal(x_bar, x_t)


def test_all_missing_returns_generator_output_exactly():
    model = small_model(seed=3)
    _, _, y, z, _, _ = random_batch(model, seed=5)
    mask = np.zeros((5, model.n_features))
    x_t = np.zeros_like(mask)
    x_bar, x_hat = generate(model, x_t, mask, y, make_rng(0))
    assert np.array_equal(x_hat, x_bar)


def test_recombination_matches_scalar_loop():
    model = small_model(seed=11)
    x_t, mask, y, z, _, _ = random_batch(model, n=7, seed=13)
    x_bar, x_hat, _ = generator_forward(model, x_t, mask, y, z)
    expected = scalar_recombine(x_t.tolist(), x_bar.tolist(), mask.tolist())
    assert_allclose(x_hat, np.array(expected), atol=1e-12, rtol=0)
    assert np.all(x_bar >= 0.0) and np.all(x_bar <= 1.0)
    assert np.all(x_hat >= 0.0) and np.all(x_hat <= 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_generator_forward_on_a_row_subset_equals_that_subset_of_the_full_call(n, seed, data):
    # BLAS may block a product differently for another row count, so the
    # network output of a row may move in its last bit; the merge may not
    model = small_model(d=5, m=3, seed=41)
    x_t, mask, y, z, _, _ = random_batch(model, n=n, seed=seed)
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    full_bar, full_hat, _ = generator_forward(model, x_t, mask, y, z)
    sub_bar, sub_hat, _ = generator_forward(model, x_t[idx], mask[idx], y[idx], z[idx])
    observed = mask[idx] == 1
    assert_same_bits(sub_hat[observed], full_hat[idx][observed])
    assert_allclose(sub_hat[~observed], full_hat[idx][~observed], atol=1e-15, rtol=0)
    assert_allclose(sub_bar, full_bar[idx], atol=1e-15, rtol=0)


def test_generator_forward_matches_scalar_net_oracle():
    model = as_float64(small_model(seed=21))
    x_t, mask, y, z, _, _ = random_batch(model, n=4, seed=22)
    x_bar, _, _ = generator_forward(model, x_t, mask, y, z)
    g_in = np.concatenate([x_t, mask, (1 - mask) * z, y], axis=1)
    expected = scalar_forward(model.generator, g_in.tolist())
    assert_allclose(x_bar, np.array(expected), atol=1e-10, rtol=0)


def test_zero_weight_discriminator_outputs_half():
    model = small_model(seed=1)
    for p in model.discriminator.params():
        p[:] = 0.0
    x_t, mask, y, _, _, hint = random_batch(model, seed=2)
    m_hat = discriminator_forward(model, x_t, hint, y)[0]
    assert_array_equal(m_hat, np.full_like(mask, 0.5))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 32))
def test_discriminator_output_shape_tracks_batch(n):
    model = small_model(seed=6)
    x_t, mask, y, _, _, hint = random_batch(model, n=n, seed=7)
    m_hat = discriminator_forward(model, x_t, hint, y)[0]
    assert m_hat.shape == mask.shape
    assert np.all(m_hat > 0.0) and np.all(m_hat < 1.0)


def test_discriminate_matches_scalar_net_oracle():
    model = as_float64(small_model(seed=31))
    x_t, mask, y, z, _, hint = random_batch(model, n=4, seed=32)
    _, x_hat, _ = generator_forward(model, x_t, mask, y, z)
    m_hat = discriminator_forward(model, x_hat, hint, y)[0]
    d_in = np.concatenate([x_hat, hint, y], axis=1)
    expected = scalar_forward(model.discriminator, d_in.tolist())
    assert_allclose(m_hat, np.array(expected), atol=1e-10, rtol=0)


@pytest.mark.parametrize("call", ["generator_labels", "discriminator_labels", "hint", "noise_row", "noise_1d"])
def test_forward_functions_refuse_blocks_of_another_shape(call):
    # a one-row block must not be broadcast over the batch
    model = small_model(seed=8)
    x_t, mask, y, z, _, hint = random_batch(model, n=5, seed=9)
    calls = {"generator_labels": lambda: generator_forward(model, x_t, mask, y[:1], z),
             "discriminator_labels": lambda: discriminator_forward(model, x_t, hint, y[:1]),
             "hint": lambda: discriminator_forward(model, x_t, hint[:1], y),
             "noise_row": lambda: generator_forward(model, x_t, mask, y, z[:1]),
             "noise_1d": lambda: generator_forward(model, x_t, mask, y, z[0])}
    with pytest.raises(ValueError):
        calls[call]()


def test_unconditional_impute_ignores_the_labels():
    ds = toy_dataset(n=24, d=3, seed=60, binary_col=False)
    inc = random_incomplete(ds, rate=0.3, seed=61)
    model, _ = train(inc, TrainConfig(iterations=5, batch_size=8, seed=62, conditional=False))
    three = replace(inc.dataset, labels=np.eye(3)[np.arange(24) % 3], class_names=["a", "b", "c"])
    relabelled = IncompleteDataset(three, inc.mask)
    assert_same_bits(impute(model, relabelled).features, impute(model, inc).features)


def test_unconditional_model_has_narrow_inputs():
    model = small_model(d=4, m=3, conditional=False)
    assert model.generator.input_width == 12
    assert model.discriminator.input_width == 8
    cond = small_model(d=4, m=3, conditional=True)
    assert cond.generator.input_width == 15
    assert cond.discriminator.input_width == 11


def test_hidden_width_is_three_times_feature_count():
    # 16 features (letter-recognition shape) -> 48 neurons per hidden layer
    cfg = TrainConfig(seed=0)
    model = build_model(16, 26, [CONTINUOUS] * 16, cfg, make_rng(0))
    assert model.generator.w1.shape[1] == 48
    assert model.generator.w2.shape == (48, 48)
    assert model.discriminator.w2.shape == (48, 48)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_perfect_discriminator_loss_is_almost_zero():
    mask = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    loss = loss_discriminator(mask.copy(), mask, b)   # m_hat == mask, clamped inside
    assert 0.0 <= loss < 1e-7


def test_discriminator_loss_single_cell_is_log_two():
    loss = loss_discriminator(np.array([[0.5]]), np.array([[1.0]]), np.array([[0.0]]))
    assert loss == pytest.approx(0.6931471805599453, abs=1e-12)


def test_discriminator_loss_matches_scalar_oracle():
    rng = make_rng(8)
    for _ in range(50):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        m_hat = rng.uniform(0.001, 0.999, (n, d))
        mask = (rng.random((n, d)) < 0.6).astype(float)
        b = hint_flags(rng.integers(0, d, size=n), d)
        expected = scalar_loss_d(m_hat.tolist(), mask.tolist(), b.tolist())
        got = loss_discriminator(m_hat, mask, b)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got >= 0.0


def test_generator_adversarial_part_zero_when_all_observed():
    rng = make_rng(9)
    m_hat = rng.uniform(0.1, 0.9, (4, 3))
    mask = np.ones((4, 3))
    b = hint_flags(rng.integers(0, 3, size=4), 3)
    x = rng.uniform(0, 1, (4, 3))
    adv = scalar_loss_g_parts(m_hat.tolist(), mask.tolist(), b.tolist(), x.tolist(), x.tolist(),
                              [CONTINUOUS] * 3)[0]
    assert adv == 0.0
    adv, recon = generator_loss_parts(m_hat, mask, b, x, x, [CONTINUOUS] * 3)
    assert adv + 100.0 * recon == pytest.approx(0.0, abs=1e-12)


def test_reconstruction_single_continuous_cell():
    m_hat = np.array([[0.5]])
    mask = np.array([[1.0]])
    b = np.array([[0.0]])
    x_bar, x_t = np.array([[0.1]]), np.array([[0.4]])
    adv, recon = generator_loss_parts(m_hat, mask, b, x_bar, x_t, [CONTINUOUS])
    assert adv == 0.0   # no missing cell
    assert recon == pytest.approx(0.09, abs=1e-12)   # (0.4 - 0.1)^2


def test_generator_loss_matches_scalar_oracle():
    rng = make_rng(10)
    for _ in range(50):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        m_hat = rng.uniform(0.001, 0.999, (n, d))
        mask = (rng.random((n, d)) < 0.6).astype(float)
        b = hint_flags(rng.integers(0, d, size=n), d)
        x_bar = rng.uniform(0.001, 0.999, (n, d))
        x_t = rng.uniform(0.0, 1.0, (n, d)) * mask
        kinds = ["binary" if v < 0.3 else CONTINUOUS for v in rng.random(d)]
        alpha = float(rng.uniform(0.5, 150.0))
        expected = scalar_loss_g(m_hat.tolist(), mask.tolist(), b.tolist(),
                                 x_bar.tolist(), x_t.tolist(), kinds, alpha)
        adv, recon = generator_loss_parts(m_hat, mask, b, x_bar, x_t, kinds)
        assert adv + alpha * recon == pytest.approx(expected, abs=1e-12)


def test_loss_validation_errors():
    ok = np.ones((2, 2))
    with pytest.raises(ValueError, match="shapes differ"):
        loss_discriminator(ok, ok, np.ones((2, 3)))
    with pytest.raises(ValueError, match="column kind"):
        generator_loss_parts(ok * 0.5, ok, ok, ok * 0.5, ok, ["categorical"] * 2)


# ---------------------------------------------------------------------------
# end-to-end gradients through both networks
# ---------------------------------------------------------------------------

def test_generator_gradients_through_fixed_discriminator():
    model = as_float64(small_model(d=3, m=2, seed=14, binary=[1], alpha=7.5))
    x_t, mask, y, z, b, hint = random_batch(model, n=4, seed=15)
    x_t[:, 1] = np.round(x_t[:, 1])
    cfg = model.config

    def g_loss():
        x_bar, x_hat, _ = generator_forward(model, x_t, mask, y, z)
        m_hat, _ = discriminator_forward(model, x_hat, hint, y)
        adv, recon = generator_loss_parts(m_hat, mask, b, x_bar, x_t, model.column_kinds)
        return adv + cfg.alpha * recon

    analytic, m_hat, x_bar = generator_step_grads(model, x_t, mask, y, z, np.argmin(b, axis=1))
    adv, recon = generator_loss_parts(m_hat, mask, b, x_bar, x_t, model.column_kinds)
    assert g_loss() == pytest.approx(adv + cfg.alpha * recon, abs=1e-12)
    numeric = finite_difference_gradients(g_loss, model.generator.params(), step=1e-5)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_discriminator_gradients_with_fixed_generator():
    model = as_float64(small_model(d=4, m=2, seed=16))
    x_t, mask, y, z, b, hint = random_batch(model, n=5, seed=17)

    def d_loss():
        _, x_hat, _ = generator_forward(model, x_t, mask, y, z)
        m_hat, _ = discriminator_forward(model, x_hat, hint, y)
        return loss_discriminator(m_hat, mask, b)

    analytic, m_hat = discriminator_step_grads(model, x_t, mask, y, z, np.argmin(b, axis=1))
    assert d_loss() == pytest.approx(loss_discriminator(m_hat, mask, b), abs=1e-12)
    numeric = finite_difference_gradients(d_loss, model.discriminator.params(), step=1e-5)
    assert max_relative_error(analytic, numeric) < 1e-4


@pytest.mark.parametrize("binary", [False, True])
def test_step_gradients_bits_equal_full_backward_reference(binary):
    # the generator step must take the discriminator's input gradient over
    # the x_hat block, the product over w1[:d]; both steps must match a
    # backward pass from the logits that computes every other product. At
    # 16 features, 3 classes and 64 rows that product rounds unlike a slice
    # of the full one.
    for d, m, n in ((5, 3, 9), (16, 3, 64)):
        model = as_float64(small_model(d=d, m=m, seed=23, binary=[2] if binary else [], alpha=7.5))
        x_t, mask, y, z, b, hint = random_batch(model, n=n, seed=24)
        x_t[:, 2] = np.round(x_t[:, 2])
        x_bar, g_cache = ref_forward(model.generator, np.concatenate([x_t, mask, (1.0 - mask) * z, y], axis=1))
        x_hat = mask * x_t + (1.0 - mask) * x_bar
        m_hat, d_cache = ref_forward(model.discriminator, np.concatenate([x_hat, hint, y], axis=1))

        cols = np.argmin(b, axis=1)
        ref_d, _ = ref_logit_backward(model.discriminator, d_cache, ref_d_head(m_hat, mask, b))
        d_grads, _ = discriminator_step_grads(model, x_t, mask, y, z, cols)
        for g, ref in zip(d_grads, ref_d, strict=True):
            assert_same_bits(g, ref)

        # the G step's discriminator pass covers the live rows, whose hinted cell is missing
        live = np.flatnonzero(mask[np.arange(n), cols] == 0)
        g_m_hat = np.ones_like(m_hat)
        g_m_hat[live], live_cache = ref_forward(model.discriminator,
                                                np.concatenate([x_hat, hint, y], axis=1)[live])
        _, d_input_grad = ref_logit_backward(model.discriminator, live_cache,
                                             ref_adv_head(g_m_hat, mask, b)[live], leading=d)
        dx_bar = model.config.alpha * ref_recon_grad(x_bar, x_t, mask, model.column_kinds)
        dx_bar[live] += d_input_grad * (1.0 - mask[live])
        ref_g, _ = ref_logit_backward(model.generator, g_cache, dx_bar * (x_bar * (1.0 - x_bar)))
        g_grads, _, _ = generator_step_grads(model, x_t, mask, y, z, cols)
        for g, ref in zip(g_grads, ref_g, strict=True):
            assert_same_bits(g, ref)


# m_hat values where the clamp, the float32 sigmoid or the sign of a zero
# decides the gradient's bits
EDGE_M_HAT = [0.0, 1.0, EPS, 1.0 - EPS, np.nextafter(EPS, 0.0), np.nextafter(1.0 - EPS, 1.0),
              float(np.float32(EPS)), float(np.nextafter(np.float32(1.0), np.float32(0.0))),
              float(np.float32(2.0 ** -149))]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), d=st.integers(1, 6))
def test_hinted_cell_gradients_equal_the_full_matrix_formulas_bit_for_bit(data, n, d):
    # signed zeros included: each non-hinted cell carries the zero the full
    # formula gives it, in float64 and rounded once to float32; and at a
    # cell the clamp leaves live, each head is the chain-rule gradient at
    # m_hat times the sigmoid's derivative there, within rounding. The
    # generator's head is the discriminator's with the target flipped to
    # 1 - mask, on the live rows, whose hinted cell is missing
    cell = st.one_of(st.sampled_from(EDGE_M_HAT), st.floats(0.0, 1.0))
    m_hat = np.array(data.draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n)))
    mask = np.array(data.draw(st.lists(st.lists(st.sampled_from([0.0, 1.0]), min_size=d, max_size=d),
                                       min_size=n, max_size=n)))
    cols = np.array(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    b = np.ones((n, d))
    b[np.arange(n), cols] = 0.0
    live = mask[np.arange(n), cols] == 0
    flipped, slope = 1.0 - mask, m_hat * (1.0 - m_hat)
    for args, want, chain in (((m_hat, mask, cols), ref_d_head(m_hat, mask, b),
                               ref_loss_d_grad(m_hat, mask, b) * slope),
                              ((m_hat[live], flipped[live], cols[live]), ref_d_head(m_hat, flipped, b)[live],
                               (ref_adv_grad(m_hat, mask, b) * slope)[live])):
        for dtype in (np.float64, np.float32):
            got = _head(*args, n, dtype)
            assert got.dtype == dtype
            assert_same_bits(got, want.astype(dtype))
        assert_allclose(want, chain, rtol=1e-12, atol=0)
    # GAIN's adversarial head, -(1 - mask)(1 - m_hat) / n, up to the sign of a zero
    assert_array_equal(_head(m_hat[live], flipped[live], cols[live], n, np.float64),
                       ref_adv_head(m_hat, mask, b)[live])


def full_matrix_step_grads(model, x_t, mask, y, z, b, all_rows=False, chain_rule=False):
    """(discriminator gradients, generator gradients, the D step's m_hat,
    x_bar, the G step's m_hat) the full-matrix way: each net input
    concatenated in float64 and cast once to the net's dtype, the merge in
    float64, both loss gradients over every cell, and the discriminator's
    input gradient over the x_hat block. The G step's discriminator pass
    covers the live rows, whose hinted cell is missing, with 1.0 as m_hat
    elsewhere, or every row with all_rows.

    The loss gradients enter each net at its logits: the heads, and the
    gradient at x_bar times x_bar * (1 - x_bar). With chain_rule, they are
    instead the gradients at the outputs, cast to the net's dtype and
    multiplied there by out * (1 - out), as backward passes from the
    outputs compute them."""
    cfg, d, n = model.config, model.n_features, len(x_t)

    def at_logits(grad, out, head):
        return grad.astype(out.dtype) * out * (1.0 - out) if chain_rule else head

    labels = [y] if model.conditional else []
    g_in = np.concatenate([x_t, mask, (1.0 - mask) * z] + labels, axis=1, dtype=model.generator.dtype)
    out, g_cache = dense_forward(model.generator, g_in)
    x_bar = out.astype(np.float64)
    x_hat = mask * x_t + (1.0 - mask) * x_bar
    d_in = np.concatenate([x_hat, b * mask + 0.5 * (1.0 - b)] + labels, axis=1,
                          dtype=model.discriminator.dtype)
    m_out, d_cache = dense_forward(model.discriminator, d_in)
    m_hat = m_out.astype(np.float64)
    d_grads = dense_backward(model.discriminator, d_cache,
                             at_logits(ref_loss_d_grad(m_hat, mask, b), m_out, ref_d_head(m_hat, mask, b)),
                             wrt="params")
    rows = np.arange(n) if all_rows else np.flatnonzero(((1.0 - b) * (1.0 - mask)).sum(axis=1))
    g_m_hat = np.ones((n, d))
    rows_out, rows_cache = dense_forward(model.discriminator, d_in[rows])
    g_m_hat[rows] = rows_out
    d_input_grad = dense_backward(model.discriminator, rows_cache,
                                  at_logits(ref_adv_grad(g_m_hat, mask, b)[rows], rows_out,
                                            ref_adv_head(g_m_hat, mask, b)[rows]),
                                  wrt="input", leading=d)
    dx_bar = cfg.alpha * ref_recon_grad(x_bar, x_t, mask, model.column_kinds)
    dx_bar[rows] += d_input_grad * (1.0 - mask[rows])
    g_grads = dense_backward(model.generator, g_cache, at_logits(dx_bar, out, dx_bar * (x_bar * (1.0 - x_bar))),
                             wrt="params")
    return d_grads.flat.copy(), g_grads.flat.copy(), m_hat, x_bar, g_m_hat


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 5), m=st.integers(1, 3), conditional=st.booleans(),
       binary=st.lists(st.booleans(), min_size=5, max_size=5),
       push=st.sampled_from([0.0, 12.0, -12.0, 40.0, -40.0]), seed=st.integers(0, 2 ** 16))
@example(n=64, d=16, m=3, conditional=True, binary=[False] * 16, push=0.0, seed=0)
def test_float32_steps_equal_the_full_matrix_reference_bit_for_bit(n, d, m, conditional, binary, push, seed):
    # push shifts the discriminator's output bias until its float32 sigmoid
    # saturates at 0 or 1; the explicit example is a shape where the input
    # gradient over w1[:d] rounds unlike a slice of the full product
    kinds = ["binary" if binary[j] else CONTINUOUS for j in range(d)]
    cfg = TrainConfig(alpha=7.5, conditional=conditional, hidden_multiplier=2)
    model = build_model(d, m, kinds, cfg, make_rng(seed))
    model.discriminator.b3[:] += push
    x_t, mask, y, z, b, _ = random_batch(model, n=n, seed=seed + 1)
    x_t[:, np.array(binary[:d])] = np.round(x_t[:, np.array(binary[:d])])
    ref_d, ref_g, ref_m_hat, ref_x_bar, ref_g_m_hat = full_matrix_step_grads(model, x_t, mask, y, z, b)
    cols = np.argmin(b, axis=1)
    d_grads, d_m_hat = discriminator_step_grads(model, x_t, mask, y, z, cols)
    assert_same_bits(d_grads.flat, ref_d)
    assert_same_bits(d_m_hat, ref_m_hat)
    g_grads, g_m_hat, x_bar = generator_step_grads(model, x_t, mask, y, z, cols)
    assert_same_bits(g_grads.flat, ref_g)
    assert_same_bits(g_m_hat, ref_g_m_hat)
    assert_same_bits(x_bar, ref_x_bar)


@pytest.mark.parametrize("wide, bound", [(True, 1e-12), (False, 1e-5)], ids=["float64", "float32"])
def test_step_gradients_from_the_logits_equal_the_chain_rule_within_rounding(wide, bound):
    # the heads are the loss gradients at m_hat times the sigmoid's
    # derivative, the factor that backward passes from the outputs multiply
    # in; push saturates the discriminator's float32 sigmoid
    for d, m, n, seed, push in ((5, 3, 9, 60, 0.0), (16, 3, 64, 61, 0.0), (30, 2, 128, 62, 0.0),
                                (57, 2, 128, 63, 0.0), (8, 3, 32, 64, 12.0), (8, 3, 32, 65, -12.0)):
        model = build_model(d, m, ["binary"] + [CONTINUOUS] * (d - 1), TrainConfig(alpha=7.5), make_rng(seed))
        model = as_float64(model) if wide else model
        model.discriminator.b3[:] += push
        x_t, mask, y, z, b, _ = random_batch(model, n=n, seed=seed, rate=0.2)
        x_t[:, 0] = np.round(x_t[:, 0])
        logit_d, logit_g, *_ = full_matrix_step_grads(model, x_t, mask, y, z, b)
        chain_d, chain_g, *_ = full_matrix_step_grads(model, x_t, mask, y, z, b, chain_rule=True)
        for got, want in ((logit_d, chain_d), (logit_g, chain_g)):
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def live_rule_batch(model, n, seed, live):
    """random_batch at a workload's rate, 0.2, with the hinted cells of
    every row ("all"), of no row ("none") or of the rows drawn ("some")
    missing, and the hinted columns."""
    x_t, mask, y, z, b, _ = random_batch(model, n=n, seed=seed, rate=0.2)
    cols = np.argmin(b, axis=1)
    if live != "some":
        mask[np.arange(n), cols] = 0.0 if live == "all" else 1.0
        x_t *= mask
    return x_t, mask, y, z, b, cols


def discriminator_row_counts(monkeypatch):
    """The row count of each discriminator_forward call from now on."""
    rows, real = [], imputer_module.discriminator_forward

    def counted(model, x_hat, hint, labels):
        rows.append(len(x_hat))
        return real(model, x_hat, hint, labels)

    monkeypatch.setattr(imputer_module, "discriminator_forward", counted)
    return rows


@pytest.mark.parametrize("wide, bound", [(True, 1e-12), (False, 1e-5)], ids=["float64", "float32"])
def test_generator_gradients_equal_an_all_rows_discriminator_pass_within_rounding(monkeypatch, wide, bound):
    # the rows left out give the adversarial part a zero gradient, so only
    # the rounding of the discriminator's products over fewer rows differs;
    # the last batch has every row live
    for d, m, n, seed, live in ((5, 3, 9, 40, "some"), (16, 3, 64, 41, "some"), (30, 2, 128, 42, "some"),
                                (57, 2, 128, 43, "some"), (16, 3, 64, 44, "all")):
        model = build_model(d, m, [CONTINUOUS] * d, TrainConfig(alpha=7.5), make_rng(seed))
        model = as_float64(model) if wide else model
        x_t, mask, y, z, b, cols = live_rule_batch(model, n, seed, live)
        live_rows = np.flatnonzero(mask[np.arange(n), cols] == 0)
        assert 0 < len(live_rows) < n or live == "all"
        _, ref_g, _, _, _ = full_matrix_step_grads(model, x_t, mask, y, z, b, all_rows=True)
        rows = discriminator_row_counts(monkeypatch)
        got = generator_step_grads(model, x_t, mask, y, z, cols)[0].flat
        monkeypatch.undo()
        assert rows == [len(live_rows)]
        assert np.max(np.abs(got - ref_g)) <= bound * np.max(np.abs(ref_g))


@pytest.mark.parametrize("wide", [True, False], ids=["float64", "float32"])
def test_a_batch_without_live_rows_runs_the_discriminator_on_no_rows_and_adds_nothing(monkeypatch, wide):
    model = small_model(d=6, m=3, seed=45, binary=[1], alpha=7.5)
    model = as_float64(model) if wide else model
    x_t, mask, y, z, b, cols = live_rule_batch(model, 16, 45, "none")
    x_t[:, 1] = np.round(x_t[:, 1])
    rows = discriminator_row_counts(monkeypatch)
    g_grads, m_hat, x_bar = generator_step_grads(model, x_t, mask, y, z, cols)
    assert rows == [0]
    assert_same_bits(m_hat, np.ones_like(m_hat))
    got = g_grads.flat.copy()
    _, _, g_cache = generator_forward(model, x_t, mask, y, z)
    recon = model.config.alpha * ref_recon_grad(x_bar, x_t, mask, model.column_kinds)
    assert_same_bits(got, dense_backward(model.generator, g_cache, recon * (x_bar * (1.0 - x_bar)),
                                         wrt="params").flat)


def test_training_draws_equal_uniform_and_the_hint_functions():
    # an iteration's draws consume the stream as one block of rng.random's
    # uniforms u: both halves' rows floor(30u), then their hinted columns
    # floor(4u), then their noise NOISE_HIGH * u, the D half first each
    # time; the hints are hint_from_b's at the flags of those columns,
    # -0.0 mask cells included. This ties the function perfbench traces to train.
    rng = make_rng(6)
    features = rng.random((30, 4))
    mask = (rng.random((30, 4)) >= 0.3).astype(float)
    mask[::2][mask[::2] == 0.0] = -0.0
    labels = np.eye(3)[rng.integers(0, 3, 30)]
    draws, replay = make_rng(7), make_rng(7)
    for _ in range(3):
        halves = _draw(draws, features, mask, labels, 16)
        u = replay.random(2 * 16 * (4 + 2))
        idx, want_cols = np.floor(u[:32] * 30).astype(int), np.floor(u[32:64] * 4).astype(int)
        want_z = NOISE_HIGH * u[64:].reshape(2, 16, 4)
        assert len(halves) == 2
        for (x_t, m, y, z, cols), rows, z_h in zip(halves, (slice(0, 16), slice(16, 32)), want_z):
            i = idx[rows]
            b = hint_flags(want_cols[rows], 4)
            assert_array_equal(cols, want_cols[rows])
            for got, want in ((x_t, features[i]), (m, mask[i]), (y, labels[i]), (z, z_h),
                              (_hint(m, cols), hint_from_b(b, mask[i]))):
                assert_same_bits(got, want)
        assert draws.bit_generator.state == replay.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(k=st.one_of(st.integers(1, 2 ** 53), st.integers(0, 53).map(lambda e: 2 ** e)), data=st.data())
@example(k=1, data=None)
@example(k=2 ** 53, data=None)
def test_an_index_drawn_from_a_uniform_below_one_is_in_range(k, data):
    # _draw maps u in [0, 1) to floor(u * k); the largest double below 1
    # times any integer k >= 1 rounds below k, and so does every smaller u
    top = np.nextafter(1.0, 0.0)
    u = np.array([0.0, top] + ([] if data is None else [data.draw(st.floats(0.0, top))]))
    got = (u * k).astype(np.intp)
    assert got[0] == 0 and got[1] == k - 1 and np.all((got >= 0) & (got < k))
    below = np.arange(1, 100_001)
    assert np.all((top * below).astype(np.intp) == below - 1)


def test_training_runs_the_forward_functions_twice_per_iteration(monkeypatch):
    # both half-steps go through generator_forward and discriminator_forward,
    # the functions the acceptance criteria check, and the G step's
    # discriminator pass takes exactly its batch's live rows
    calls = {"_draw": [], "generator_forward": [], "discriminator_forward": []}

    def recorded(name):
        original = getattr(imputer_module, name)

        def wrapper(*args):
            result = original(*args)
            calls[name].append((args, result))
            return result
        return wrapper

    for name in calls:
        monkeypatch.setattr(imputer_module, name, recorded(name))
    train(random_incomplete(toy_dataset(n=40)), TrainConfig(iterations=7, batch_size=8, hidden_multiplier=2))
    assert {name: len(c) for name, c in calls.items()} == {"_draw": 7, "generator_forward": 14,
                                                            "discriminator_forward": 14}
    live_counts = set()
    for it, (_, (_, (x_t, m, y, z, cols))) in enumerate(calls["_draw"]):
        live = np.flatnonzero(m[np.arange(8), cols] == 0)
        live_counts.add(len(live))
        _, (_, x_hat, _) = calls["generator_forward"][2 * it + 1]
        (_, got_x_hat, got_hint, got_y), _ = calls["discriminator_forward"][2 * it + 1]
        assert_same_bits(got_x_hat, x_hat[live])
        assert_same_bits(got_hint, _hint(m, cols)[live])
        assert_same_bits(got_y, y[live])
    assert len(live_counts) > 1


def test_training_reads_one_uniform_block_per_iteration(monkeypatch):
    # after the weights, the stream is read only by uniform, once per
    # iteration, for both halves' 8 rows, 8 hinted columns and 8 x 4 noise cells
    calls, rngs = [], []
    real_uniform, real_make_rng = imputer_module.uniform, imputer_module.make_rng
    monkeypatch.setattr(imputer_module, "uniform", lambda *args: calls.append(args[1:]) or real_uniform(*args))
    monkeypatch.setattr(imputer_module, "make_rng", lambda seed: rngs.append(real_make_rng(seed)) or rngs[-1])
    inc = random_incomplete(toy_dataset(n=40))
    cfg = TrainConfig(iterations=7, batch_size=8, hidden_multiplier=2)
    train(inc, cfg)
    assert calls == [(0.0, 1.0, 2 * 8 * (4 + 2))] * 7
    replay = real_make_rng(cfg.seed)
    build_model(4, inc.dataset.n_classes, inc.dataset.column_kinds, cfg, replay)
    replay.random(7 * 2 * 8 * (4 + 2))
    assert rngs[0].bit_generator.state == replay.bit_generator.state


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_training_reduces_reconstruction_loss():
    ds = toy_dataset(n=200, d=5, seed=40, binary_col=False)
    # inject a strongly class-separated feature so there is signal to learn
    cls = ds.class_index().astype(float)
    ds.features[:, 0] = 0.15 + 0.7 * cls
    inc = corrupt_mcar(ds, 0.25, make_rng(41))
    cfg = TrainConfig(iterations=400, batch_size=64, seed=42, log_every=1)
    _, trace = train(inc, cfg)
    assert trace.g_reconstruction[-1] < trace.g_reconstruction[0]
    assert trace.iterations == list(range(1, 401))


def test_batch_size_clamped_with_warning():
    ds = toy_dataset(n=20, d=3, seed=50, binary_col=False)
    inc = random_incomplete(ds, rate=0.2, seed=51)
    cfg = TrainConfig(iterations=3, batch_size=500, seed=52)
    with pytest.warns(UserWarning, match="clamping"):
        train(inc, cfg)


def test_trace_row_count_is_budget_over_interval():
    ds = toy_dataset(n=30, d=3, seed=53, binary_col=False)
    inc = random_incomplete(ds, rate=0.2, seed=54)
    cfg = TrainConfig(iterations=60, batch_size=16, seed=55, log_every=20)
    _, trace = train(inc, cfg)
    assert trace.iterations == [20, 40, 60]
    assert len(trace.d_loss) == len(trace.g_adversarial) == len(trace.g_reconstruction) == 3


def test_losses_are_computed_only_when_read(monkeypatch):
    # only logged iterations read them
    inc = random_incomplete(toy_dataset(n=30, d=3, seed=53, binary_col=False), rate=0.2, seed=54)
    seen = []
    real = imputer_module.loss_discriminator
    monkeypatch.setattr(imputer_module, "loss_discriminator",
                        lambda *args: seen.append(1) or real(*args))
    _, trace = train(inc, TrainConfig(iterations=60, batch_size=16, seed=55, log_every=20))
    assert len(seen) == 3
    assert trace.iterations == [20, 40, 60]


@pytest.mark.parametrize("what, row, col, value, shown", [
    ("feature", 7, 2, 1.5, "1.5"), ("feature", 0, 0, -0.25, "-0.25"), ("mask", 12, 1, 2.0, "2.0"),
], ids=["feature_above", "feature_below", "mask"])
def test_cell_outside_unit_interval_is_refused_before_training(monkeypatch, what, row, col, value, shown):
    # the NaN guard is exact only for data in [0, 1]; a later cell outside
    # it does not change which cell the message names
    inc = random_incomplete(toy_dataset(n=30, d=3, seed=53, binary_col=False), rate=0.2, seed=54)
    cells = inc.dataset.features if what == "feature" else inc.mask
    cells[row, col] = value
    cells[-1, -1] = 9.0
    monkeypatch.setattr(imputer_module, "build_model", lambda *args: pytest.fail("model built"))
    with pytest.raises(ValueError, match=rf"^{what} cell in column 'c{col}', row {row}, is {shown}; "
                                         r"train needs feature and mask cells in \[0, 1\]$"):
        train(inc, TrainConfig(iterations=60, batch_size=16, seed=55))


def test_training_is_deterministic():
    ds = toy_dataset(n=40, d=4, seed=60)
    inc = random_incomplete(ds, rate=0.3, seed=61)
    cfg = TrainConfig(iterations=25, batch_size=16, seed=62)
    m1, _ = train(inc, cfg)
    m2, _ = train(inc, cfg)
    for a, b in zip(m1.generator.params() + m1.discriminator.params(),
                    m2.generator.params() + m2.discriminator.params()):
        assert_array_equal(a, b)


def test_train_validates_config():
    ds = toy_dataset(n=10)
    inc = IncompleteDataset(ds, np.ones_like(ds.features))
    with pytest.raises(ValueError, match="alpha"):
        train(inc, TrainConfig(alpha=-1.0))
    # every comparison with NaN is false, so the bounds checks must test finiteness
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"alpha must be positive and finite, got {alpha}"):
            train(inc, TrainConfig(alpha=alpha))
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"learning rate must be positive and finite, got {lr}"):
            train(inc, TrainConfig(learning_rate=lr))
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        train(inc, TrainConfig(seed=-1))
    # integer fields take Python and NumPy integers, never a float or a bool
    for field, value in (("batch_size", 16.0), ("iterations", 3.0), ("log_every", 1.5), ("seed", 1.7),
                         ("hidden_multiplier", True), ("batch_size", np.float64(8.0))):
        with pytest.raises(ValueError, match=f"^{field.replace('_', ' ')} must be an integer, got "
                                             f"{re.escape(repr(value))}$"):
            train(inc, TrainConfig(**{field: value}))
    for value in (1, np.bool_(True), "yes"):
        with pytest.raises(ValueError, match=f"^conditional must be a bool, got {re.escape(repr(value))}$"):
            train(inc, TrainConfig(conditional=value))
    # float fields take Python and NumPy reals, never a bool or a string
    for field, value in (("alpha", "1"), ("alpha", True), ("learning_rate", "0.001"),
                         ("learning_rate", np.bool_(True)), ("learning_rate", None)):
        with pytest.raises(ValueError, match=f"^{field.replace('_', ' ')} must be a number, got "
                                             f"{re.escape(repr(value))}$"):
            train(inc, TrainConfig(**{field: value}))
    TrainConfig(alpha=np.float32(50.0), learning_rate=np.float64(1e-3)).validate()
    TrainConfig(alpha=np.int64(10), learning_rate=1).validate()


def test_gains_generator_loss_is_the_only_one():
    # no config field selects another sign of the adversarial term
    assert len(fields(TrainConfig)) == 8
    with pytest.raises(TypeError, match="adversarial_sign"):
        TrainConfig(adversarial_sign="gain")


def test_loss_generator_uncorrupted_and_densenet_copy_are_gone():
    # the generator loss is generator_loss_parts' adv + alpha * recon, a
    # complete table is IncompleteDataset(ds, np.ones_like(ds.features)), and
    # DenseNet(*net.params()) copies a net
    for module in (cgain, cgain.imputer, cgain.data):
        for name in ("loss_generator", "uncorrupted"):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(DenseNet, "copy")
    assert "sample_hint_b" not in _draw.__doc__ and "hint_from_b" not in _hint.__doc__


def test_numpy_integer_config_trains_and_round_trips_through_a_model_file(tmp_path):
    cfg = TrainConfig(batch_size=np.int64(8), iterations=np.int32(3), hidden_multiplier=np.int64(2),
                      seed=np.uint8(4), log_every=np.int64(1))
    ds = toy_dataset(n=10)
    model, trace = train(IncompleteDataset(ds, np.ones_like(ds.features)), cfg)
    assert trace.iterations == [1, 2, 3]
    save_model(tmp_path / "np.model", model)
    loaded = load_model(tmp_path / "np.model")
    assert asdict(loaded.config) == asdict(cfg)
    assert_array_equal(loaded.generator.params().flat, model.generator.params().flat)


def test_numpy_real_config_round_trips_through_a_model_file(tmp_path):
    # validate accepts NumPy reals; the file holds each as the float64 that holds it exactly
    cfg = TrainConfig(iterations=2, batch_size=8, hidden_multiplier=2, alpha=np.float16(10),
                      learning_rate=np.float32(1e-3))
    ds = toy_dataset(n=10)
    model, _ = train(IncompleteDataset(ds, np.ones_like(ds.features)), cfg)
    save_model(tmp_path / "np.model", model)
    loaded = load_model(tmp_path / "np.model")
    assert asdict(loaded.config) == asdict(cfg)
    assert type(loaded.config.alpha) is type(loaded.config.learning_rate) is float


@pytest.mark.parametrize("log_every", [1, TrainConfig.log_every])
def test_nan_generator_weight_stops_training_at_the_first_iteration(monkeypatch, log_every):
    # iteration 1 is logged at log_every=1 and not at the default, and the
    # guard must find the NaN either way
    ds = toy_dataset(n=40, d=4, seed=80)
    inc = corrupt_mcar(ds, 0.2, make_rng(81))
    real = imputer_module.build_model

    def poisoned(*args, **kwargs):
        model = real(*args, **kwargs)
        model.generator.w2[3, 1] = np.nan
        return model

    monkeypatch.setattr(imputer_module, "build_model", poisoned)
    # the D step's batch is completed through the NaN generator, and its
    # m_hat is checked before the discriminator's update could spread the NaN
    with pytest.raises(FloatingPointError, match=r"^non-finite training loss at iteration 1: first NaN in "
                                                 r"the D step's m_hat; non-finite parameters in generator$"):
        train(inc, TrainConfig(iterations=50, batch_size=8, seed=82, log_every=log_every))


@pytest.mark.parametrize("net, when, first, nets", [
    ("discriminator", "built", "the D step's m_hat", "discriminator"),
    ("generator", "after the D update", "the G step's x_bar", "generator"),
    ("discriminator", "after the D update", "the G step's m_hat", "generator and discriminator"),
], ids=["disc-built", "gen-mid-step", "disc-mid-step"])
def test_non_finite_loss_names_the_first_output_with_a_nan_and_the_non_finite_nets(monkeypatch, net, when,
                                                                                  first, nets):
    # a NaN weight set when the model is built, or between the D update of
    # iteration 3 and its G step; a NaN reaching only the G step leaves the
    # discriminator's weights finite, since they are not updated there
    inc = corrupt_mcar(toy_dataset(n=40, d=4, seed=80), 0.2, make_rng(81))
    real_build, real_step = imputer_module.build_model, imputer_module.optimizer_step
    models, steps = [], []

    def poison(model):
        getattr(model, net).w2[3, 1] = np.nan

    def built(*args, **kwargs):
        models.append(real_build(*args, **kwargs))
        if when == "built":
            poison(models[0])
        return models[0]

    def step(state, params, grads):
        real_step(state, params, grads)
        steps.append(params)
        if when == "after the D update" and len(steps) == 5:   # iteration 3's D update
            assert params is models[0].discriminator.params()
            poison(models[0])

    monkeypatch.setattr(imputer_module, "build_model", built)
    monkeypatch.setattr(imputer_module, "optimizer_step", step)
    it = 1 if when == "built" else 3
    with pytest.raises(FloatingPointError, match=rf"^non-finite training loss at iteration {it}: first NaN "
                                                 rf"in {first}; non-finite parameters in {nets}$"):
        train(inc, TrainConfig(iterations=5, batch_size=8, seed=82))


@pytest.mark.parametrize("observed", [False, True])
def test_inf_feature_row_is_refused_before_training(observed):
    # the hand-built table is refused at construction, with its column and
    # row named, so train never sees it; a cell marked missing is no exception
    rng = np.random.default_rng(90)
    n, d = 200, 3
    features = rng.uniform(size=(n, d))
    features[137, 1] = np.inf
    labels = np.zeros((n, 2))
    labels[np.arange(n), rng.integers(0, 2, n)] = 1.0
    schema = [ColumnSpec(f"c{j}", CONTINUOUS, 0.0, 1.0) for j in range(d)]
    mask = np.ones((n, d))
    mask[137, 1] = float(observed)
    with pytest.raises(ValueError, match=r"^feature cell in column 'c1', row 137, is inf;"):
        hand = IncompleteDataset(Dataset(features, labels, schema, ["0", "1"]), mask)
        train(hand, TrainConfig(iterations=500, batch_size=4, seed=91))


def test_mask_cell_other_than_zero_or_one_is_refused():
    ds = toy_dataset(n=20, d=3, seed=92)
    mask = np.ones_like(ds.features)
    mask[4, 2] = 0.5
    with pytest.raises(ValueError, match=r"^mask cell in column 'c2', row 4, is 0\.5;"):
        IncompleteDataset(ds, mask)


# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------

def test_impute_identity_when_nothing_missing():
    ds = toy_dataset(n=25, d=4, seed=70)
    inc = IncompleteDataset(ds, np.ones_like(ds.features))
    cfg = TrainConfig(iterations=10, batch_size=8, seed=71)
    model, _ = train(inc, cfg)
    out = impute(model, inc)
    assert np.array_equal(out.features, ds.features)


def test_impute_fills_missing_and_preserves_observed():
    ds = toy_dataset(n=30, d=4, seed=72)
    inc = random_incomplete(ds, rate=0.4, seed=73)
    cfg = TrainConfig(iterations=10, batch_size=8, seed=74)
    model, _ = train(inc, cfg)
    out = impute(model, inc, make_rng(75))
    obs = inc.mask == 1
    assert np.array_equal(out.features[obs], ds.features[obs])
    assert np.all(out.features >= 0.0) and np.all(out.features <= 1.0)
    out2 = impute(model, inc, make_rng(75))
    assert np.array_equal(out.features, out2.features)


def test_model_checks_its_column_kinds_and_keeps_the_binary_row_when_built():
    with pytest.raises(ValueError, match="^unknown column kind 'categorical'$"):
        build_model(3, 2, [CONTINUOUS, "categorical", CONTINUOUS], TrainConfig(), make_rng(0))
    assert build_model(3, 2, [CONTINUOUS] * 3, TrainConfig(), make_rng(0)).binary_cols is None
    model = build_model(3, 2, [BINARY, CONTINUOUS, BINARY], TrainConfig(), make_rng(0))
    assert_array_equal(model.binary_cols, [[True, False, True]])


def test_built_and_loaded_models_refuse_to_change_a_column_kind(tmp_path):
    model = build_model(3, 2, [BINARY, CONTINUOUS, CONTINUOUS], TrainConfig(), make_rng(0))
    save_model(tmp_path / "m.model", model)
    for m in (model, load_model(tmp_path / "m.model")):
        assert m.column_kinds == (BINARY, CONTINUOUS, CONTINUOUS)
        with pytest.raises(TypeError):
            m.column_kinds[1] = BINARY
        assert_array_equal(m.binary_cols, [[True, False, False]])


def test_impute_rejects_dimension_mismatch():
    ds = toy_dataset(n=20, d=4, seed=76)
    model, _ = train(random_incomplete(ds, seed=77), TrainConfig(iterations=2, seed=78, batch_size=8))
    other = toy_dataset(n=10, d=5, seed=79)
    with pytest.raises(ValueError, match="features"):
        impute(model, IncompleteDataset(other, np.ones_like(other.features)))
    retyped = toy_dataset(n=10, d=4, seed=79, binary_col=False)   # last column continuous
    with pytest.raises(ValueError, match="column kinds"):
        impute(model, IncompleteDataset(retyped, np.ones_like(retyped.features)))


# ---------------------------------------------------------------------------
# unconditional degeneracy
# ---------------------------------------------------------------------------

def test_conditioning_off_is_the_unconditional_pipeline():
    ds = toy_dataset(n=40, d=4, seed=80)
    inc = random_incomplete(ds, rate=0.3, seed=81)
    cfg = TrainConfig(iterations=30, batch_size=16, seed=82, conditional=False)
    m1, _ = train(inc, cfg)
    m2, _ = train(inc, TrainConfig(iterations=30, batch_size=16, seed=82, conditional=False))
    out1 = impute(m1, inc, make_rng(83))
    out2 = impute(m2, inc, make_rng(83))
    assert np.array_equal(out1.features, out2.features)
    assert m1.generator.input_width == 3 * ds.n_features


def test_single_class_conditioning_equals_gain_after_weight_ablation():
    # degenerate one-class dataset: the one-hot block is a constant column
    rng = make_rng(84)
    n, d = 24, 4
    features = rng.uniform(0.0, 1.0, (n, d))
    ds = Dataset(features=features, labels=np.ones((n, 1)),
                 schema=toy_dataset(n=n, d=d, seed=84, binary_col=False).schema,
                 class_names=["only"], name="degenerate")
    inc = corrupt_mcar(ds, 0.3, make_rng(85))

    gain_cfg = TrainConfig(iterations=40, batch_size=12, seed=86, conditional=False)
    gain_model, _ = train(inc, gain_cfg)

    cond_cfg = TrainConfig(iterations=1, batch_size=12, seed=86, conditional=True)
    cond_model = build_model(d, 1, ds.column_kinds, cond_cfg, make_rng(86))
    # transplant the trained unconditional weights; ablate the label column
    for net_c, net_g in ((cond_model.generator, gain_model.generator),
                         (cond_model.discriminator, gain_model.discriminator)):
        net_c.w1[:net_g.w1.shape[0], :] = net_g.w1
        net_c.w1[net_g.w1.shape[0]:, :] = 0.0
        net_c.b1[:] = net_g.b1
        net_c.w2[:] = net_g.w2
        net_c.b2[:] = net_g.b2
        net_c.w3[:] = net_g.w3
        net_c.b3[:] = net_g.b3

    x_t, mask, y = inc.dataset.features, inc.mask, ds.labels
    z = uniform(make_rng(87), 0.0, 0.01, x_t.shape)
    bar_c, hat_c, _ = generator_forward(cond_model, x_t, mask, y, z)
    bar_g, hat_g, _ = generator_forward(gain_model, x_t, mask, y, z)
    assert np.array_equal(bar_c, bar_g)
    assert np.array_equal(hat_c, hat_g)
    hint = _hint(mask, make_rng(88).integers(0, d, size=n))
    assert np.array_equal(discriminator_forward(cond_model, hat_c, hint, y)[0],
                          discriminator_forward(gain_model, hat_g, hint, y)[0])


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def test_model_file_round_trip(tmp_path):
    ds = toy_dataset(n=30, d=4, seed=90)
    inc = random_incomplete(ds, rate=0.3, seed=91)
    model, _ = train(inc, TrainConfig(iterations=5, batch_size=8, seed=92))
    path = tmp_path / "m.model"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.n_features == model.n_features
    assert loaded.n_classes == model.n_classes
    assert loaded.conditional == model.conditional
    assert loaded.column_kinds == model.column_kinds
    assert loaded.config == model.config
    for a, b in zip(model.generator.params() + model.discriminator.params(),
                    loaded.generator.params() + loaded.discriminator.params()):
        assert_array_equal(a, b)
    out1 = impute(model, inc, make_rng(93))
    out2 = impute(loaded, inc, make_rng(93))
    assert np.array_equal(out1.features, out2.features)


def test_model_file_layout_is_little_endian_with_version(tmp_path):
    ds = toy_dataset(n=20, d=3, seed=94, binary_col=False)
    model, _ = train(random_incomplete(ds, seed=95), TrainConfig(iterations=2, batch_size=8, seed=96))
    path = tmp_path / "m.model"
    save_model(path, model)
    blob = path.read_bytes()
    assert blob[:8] == MODEL_MAGIC
    version, header_len = struct.unpack("<IQ", blob[8:20])
    assert version == 4
    header = json.loads(blob[20:20 + header_len])
    assert header == {"n_classes": 2, "column_kinds": [CONTINUOUS] * 3, "config": asdict(model.config)}
    # the parameter buffers, generator first, and nothing after them
    assert blob[20 + header_len:] == (model.generator.params().flat.astype("<f4").tobytes()
                                      + model.discriminator.params().flat.astype("<f4").tobytes())


def with_header(edit):
    """A corruption that rewrites a model file's JSON header through edit."""
    def corrupt(blob):
        (n,) = struct.unpack_from("<Q", blob, 12)
        header = json.dumps(edit(json.loads(blob[20:20 + n]))).encode()
        return blob[:12] + struct.pack("<Q", len(header)) + header + blob[20 + n:]
    return corrupt


def with_config(**values):
    return with_header(lambda h: {**h, "config": {**h["config"], **values}})


@pytest.mark.parametrize("corrupt, message", [
    (lambda blob: b"NOTAMODEL" + b"\x00" * 64, "magic"),
    (lambda blob: blob[:15], "truncated preamble"),
    (as_format_v1, "model format version 1, but this cgain reads version 4; retrain the model"),
    (as_format_v2, "model format version 2, but this cgain reads version 4; retrain the model"),
    (as_format_v3, "model format version 3, but this cgain reads version 4; retrain the model"),
    (lambda blob: blob + b"\x00" * 8, "1724 bytes of weights, but the header's layout needs 1716"),
    (lambda blob: blob[:-4], "1712 bytes of weights, but the header's layout needs 1716"),
    (with_header(lambda h: {**h, "column_kinds": [CONTINUOUS] * 4}), "bytes of weights"),
    (with_header(lambda h: {k: v for k, v in h.items() if k != "n_classes"}), "exactly the keys"),
    (with_header(lambda h: {**h, "n_features": 3}), "exactly the keys"),
    (with_header(lambda h: [h]), "header must be a JSON object"),
    (with_header(lambda h: {**h, "n_classes": "2"}), "n_classes must be a positive integer, got '2'"),
    (with_header(lambda h: {**h, "n_classes": 0}), "n_classes must be a positive integer, got 0"),
    (with_header(lambda h: {**h, "n_classes": True}), "n_classes must be a positive integer, got True"),
    (with_header(lambda h: {**h, "column_kinds": 5}), "column_kinds must be a non-empty list"),
    (with_header(lambda h: {**h, "column_kinds": ["weird"] * 3}), "column_kinds must be a non-empty list"),
    (with_header(lambda h: {**h, "column_kinds": []}), "column_kinds must be a non-empty list"),
    (with_config(dropout=0.5), "config must be an object with exactly the keys"),
    (with_config(noise_high=0.01), "config must be an object with exactly the keys"),
    (with_header(lambda h: {**h, "config": {k: v for k, v in h["config"].items() if k != "log_every"}}),
     "config must be an object with exactly the keys"),
    (with_config(alpha=-1), "invalid config: alpha must be positive"),
    (with_config(alpha=float("nan")), "invalid config: alpha must be positive and finite, got nan"),
    (with_config(optimizer="adam"), "config must be an object with exactly the keys"),
    (with_config(seed=-3), "invalid config: seed must be non-negative"),
    (with_config(batch_size="128"), "invalid config: batch size must be an integer, got '128'"),
    (with_config(hidden_multiplier=3.0), "invalid config: hidden multiplier must be an integer"),
    (with_config(batch_size=2.5), "invalid config: batch size must be an integer, got 2.5"),
    (with_config(seed=1.5), "invalid config: seed must be an integer, got 1.5"),
    (with_config(log_every=True), "invalid config: log every must be an integer, got True"),
    (with_config(conditional=1), "invalid config: conditional must be a bool, got 1"),
    (with_config(alpha="1"), "invalid config: alpha must be a number, got '1'"),
    (with_config(learning_rate=True), "invalid config: learning rate must be a number, got True"),
    (lambda blob: blob[:-1716] + struct.pack("<f", float("nan")) + blob[-1712:],
     "generator weights are not all finite"),
    (lambda blob: blob[:-4] + struct.pack("<f", float("inf")), "discriminator weights are not all finite"),
], ids=["bad_magic", "truncated_preamble", "format_v1", "format_v2", "format_v3", "trailing_bytes",
        "short_weights", "more_column_kinds", "missing_key", "extra_n_features_key", "header_not_object",
        "string_n_classes", "zero_n_classes", "bool_n_classes", "number_column_kinds",
        "unknown_column_kinds", "empty_column_kinds", "unknown_config_key", "older_config_key",
        "config_missing_field", "negative_alpha", "nan_alpha", "unknown_optimizer", "negative_seed",
        "string_batch_size", "float_hidden_multiplier", "float_batch_size", "float_seed", "bool_log_every",
        "int_conditional", "string_alpha", "bool_learning_rate", "nan_generator_weight",
        "inf_discriminator_weight"])
def test_load_model_rejects_garbage(tmp_path, corrupt, message):
    path = tmp_path / "bad.model"
    save_model(path, build_model(3, 2, [CONTINUOUS] * 3, TrainConfig(), make_rng(0)))
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=message) as info:
        load_model(path)
    assert str(path) in str(info.value)


def test_model_nets_are_float32_and_float64_nets_are_not_saved(tmp_path):
    model = build_model(3, 2, [CONTINUOUS] * 3, TrainConfig(), make_rng(0))
    path = tmp_path / "m.model"
    save_model(path, model)
    loaded = load_model(path)
    for net in (model.generator, model.discriminator, loaded.generator, loaded.discriminator):
        assert net.dtype == np.float32 and net.grads.flat.dtype == np.float32
    with pytest.raises(ValueError, match="only float32 nets"):
        save_model(tmp_path / "wide.model", as_float64(model))
    assert not (tmp_path / "wide.model").exists()   # refused before the file is opened


# ---------------------------------------------------------------------------
# float32 nets
# ---------------------------------------------------------------------------

def test_float32_weights_are_build_models_float64_draws_rounded_once():
    cfg = TrainConfig(hidden_multiplier=2)
    model = build_model(4, 3, [CONTINUOUS] * 4, cfg, make_rng(7))
    rng = make_rng(7)
    for net in (model.generator, model.discriminator):
        ref = init_dense(rng, net.input_width, 8, 4)
        assert_same_bits(net.params().flat.astype(np.float64), ref.params().flat.astype(np.float32))


def test_saturated_float32_discriminator_leaves_steps_and_losses_finite():
    # a float32 sigmoid rounds to 1.0 near z = 17, where float32's 1 - EPS
    # is 1.0 too: only the float64 upcast of m_hat keeps the clamps working
    model = build_model(4, 2, [CONTINUOUS] * 4, TrainConfig(hidden_multiplier=2), make_rng(3))
    model.discriminator.b3[:] = 40.0
    x_t, mask, y, z, b, _ = random_batch(model, n=16, seed=4)
    assert 0 < mask.sum() < mask.size
    cols = np.argmin(b, axis=1)
    d_grads, d_m_hat = discriminator_step_grads(model, x_t, mask, y, z, cols)
    assert np.all(d_m_hat == 1.0)
    g_grads, g_m_hat, x_bar = generator_step_grads(model, x_t, mask, y, z, cols)
    assert np.all(np.isfinite(d_grads.flat)) and np.all(np.isfinite(g_grads.flat))
    assert np.isfinite(loss_discriminator(d_m_hat, mask, b))
    assert np.all(np.isfinite(generator_loss_parts(g_m_hat, mask, b, x_bar, x_t, model.column_kinds)))


def test_float32_step_gradients_match_float64_within_float32_rounding():
    # same weights in both widths; the bound, 1e-4 of the largest gradient,
    # is about 840 float32 epsilons and was fixed before the first run
    model = build_model(8, 3, ["binary"] + [CONTINUOUS] * 7, TrainConfig(alpha=7.5), make_rng(12))
    wide = as_float64(model)
    x_t, mask, y, z, b, _ = random_batch(model, n=128, seed=13)
    x_t[:, 0] = np.round(x_t[:, 0])
    cols = np.argmin(b, axis=1)
    for step in (discriminator_step_grads, generator_step_grads):
        narrow = step(model, x_t, mask, y, z, cols)[0].flat
        ref = step(wide, x_t, mask, y, z, cols)[0].flat
        assert narrow.dtype == np.float32 and ref.dtype == np.float64
        assert np.max(np.abs(narrow - ref)) <= 1e-4 * np.max(np.abs(ref))
