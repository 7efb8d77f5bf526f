import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cgain.nn import (FLUSH_EVERY, DenseNet, FlatArrays, dense_backward, dense_forward, init_dense,
                      make_optimizer, make_rng, optimizer_step, sigmoid, uniform, xavier_uniform)
from conftest import assert_same_bits
from gradcheck import (LOSS_FORMS, check_net_loss_gradients, finite_difference_gradients,
                       max_relative_error)
from oracles import ref_adam_step, ref_backward, ref_forward, ref_sigmoid, scalar_forward


def flat(*arrays) -> FlatArrays:
    """One flat buffer holding copies of arrays, the layout optimizers take."""
    out = FlatArrays.zeros((a.shape for a in arrays), np.float64)
    for view, a in zip(out, arrays):
        view[...] = a
    return out


def zero_net(d_in, h, d_out):
    return DenseNet(np.zeros((d_in, h)), np.zeros(h), np.zeros((h, h)), np.zeros(h),
                    np.zeros((h, d_out)), np.zeros(d_out))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_zero_net_sigmoid_outputs_half():
    net = zero_net(3, 5, 2)
    out, _ = dense_forward(net, np.random.default_rng(0).uniform(size=(7, 3)))
    assert_array_equal(out, np.full((7, 2), 0.5))


def test_one_by_one_identity_chain_is_affine():
    # w*x + b realized as (w, b) in layer 1; with positive pre-activations both
    # relus pass it through unchanged, so the output is sigmoid(2*3 + 1)
    net = DenseNet(np.array([[2.0]]), np.array([1.0]),
                   np.array([[1.0]]), np.array([0.0]),
                   np.array([[1.0]]), np.array([0.0]))
    out, _ = dense_forward(net, np.array([[3.0]]))
    assert out[0, 0] == 1.0 / (1.0 + np.exp(-7.0))


def test_forward_matches_scalar_loop_oracle():
    rng = make_rng(42)
    net = init_dense(rng, 4, 12, 4)
    x = rng.uniform(0.0, 1.0, (6, 4))
    out, _ = dense_forward(net, x)
    expected = scalar_forward(net, x.tolist())
    assert_allclose(out, np.array(expected), atol=1e-10, rtol=0)


def test_forward_rejects_width_mismatch():
    net = init_dense(make_rng(0), 4, 6, 2)
    with pytest.raises(ValueError, match="input width"):
        dense_forward(net, np.zeros((3, 5)))


def test_forward_is_deterministic():
    rng = make_rng(9)
    net = init_dense(rng, 5, 8, 3)
    x = rng.uniform(size=(10, 5))
    a, _ = dense_forward(net, x)
    b, _ = dense_forward(net, x)
    assert_array_equal(a, b)


def test_sigmoid_stays_inside_unit_interval():
    z = np.array([-1e6, -50.0, 0.0, 50.0, 1e6])
    s = sigmoid(z)
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert s[2] == 0.5


def test_net_validates_layer_chaining():
    with pytest.raises(ValueError, match="chain"):
        DenseNet(np.zeros((3, 4)), np.zeros(4), np.zeros((5, 4)), np.zeros(4),
                 np.zeros((4, 2)), np.zeros(2))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_zero_output_gradient_gives_zero_param_gradients():
    rng = make_rng(3)
    net = init_dense(rng, 4, 6, 3)
    x = rng.uniform(size=(5, 4))
    _, cache = dense_forward(net, x)
    grads = dense_backward(net, cache, np.zeros((5, 3)), wrt="params")
    dx = dense_backward(net, cache, np.zeros((5, 3)), wrt="input")
    for g in grads:
        assert_array_equal(g, np.zeros_like(g))
    assert_array_equal(dx, np.zeros_like(x))


def test_backward_matches_finite_differences_on_3_9_9_1_net():
    rng = make_rng(7)
    net = init_dense(rng, 3, 9, 1)
    x = rng.uniform(size=(4, 3))
    y = rng.uniform(size=(4, 1))

    def loss():
        out, _ = dense_forward(net, x)
        return float(((out - y) ** 2).sum())

    out, cache = dense_forward(net, x)
    analytic = dense_backward(net, cache, 2.0 * (out - y), wrt="params")
    numeric = finite_difference_gradients(loss, net.params(), step=1e-5)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_single_linear_neuron_squared_error_gradient():
    # one sample through a 1-1-1 chain whose pre-activations are positive, so
    # both relus pass through; dL/dw1 must be 2*(s-y) * s*(1-s) * w3 * w2 * x
    w2, w3 = 0.8, 1.25
    net = DenseNet(np.array([[1.5]]), np.array([0.0]),
                   np.array([[w2]]), np.array([0.0]),
                   np.array([[w3]]), np.array([0.0]))
    x, y = np.array([[2.0]]), 0.5
    out, cache = dense_forward(net, x)
    s = out[0, 0]
    grads = dense_backward(net, cache, 2.0 * (out - y), wrt="params")
    assert_allclose(grads[0][0, 0], 2.0 * (s - y) * s * (1.0 - s) * w3 * w2 * 2.0, rtol=1e-12)


def test_backward_rejects_bad_gradient_shape():
    net = init_dense(make_rng(0), 3, 4, 2)
    _, cache = dense_forward(net, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="grad shape"):
        dense_backward(net, cache, np.zeros((2, 3)), wrt="params")
    with pytest.raises(ValueError, match="cache"):
        dense_backward(net, None, np.zeros((2, 2)), wrt="input")
    with pytest.raises(ValueError, match="wrt"):
        dense_backward(net, cache, np.zeros((2, 2)), wrt="both")


@pytest.mark.parametrize("loss_form", LOSS_FORMS)
def test_gradients_match_finite_differences_per_loss_form(loss_form):
    assert check_net_loss_gradients(seed=11, width=16, loss_form=loss_form)[0] < 1e-4


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def test_zero_gradient_leaves_parameters_unchanged():
    p = flat(np.array([1.0, -2.0]), np.array([[3.0]]))
    state = make_optimizer(0.01, p)
    optimizer_step(state, p, flat(np.zeros(2), np.zeros((1, 1))))
    assert_array_equal(p[0], np.array([1.0, -2.0]))
    assert_array_equal(p[1], np.array([[3.0]]))
    assert state.step_count == 1


def test_adam_first_step_matches_scalar_oracle():
    # frozen from a standalone bias-corrected computation with
    # lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, g=2.0, p=1.0
    p = flat(np.array([1.0]))
    state = make_optimizer(1e-3, p)
    optimizer_step(state, p, flat(np.array([2.0])))
    assert p[0][0] == pytest.approx(0.999000000005, abs=1e-15)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0])
def test_make_optimizer_refuses_a_learning_rate_that_is_not_positive_and_finite(lr):
    with pytest.raises(ValueError, match=f"learning rate must be positive and finite, got {lr}"):
        make_optimizer(lr, flat(np.zeros(3)))


def test_optimizer_rejects_bad_inputs():
    p = flat(np.zeros(3))
    with pytest.raises(ValueError, match="learning rate"):
        make_optimizer(0.0, p)
    state = make_optimizer(0.1, p)
    with pytest.raises(ValueError, match="shape"):
        optimizer_step(state, p, flat(np.zeros(4)))


def test_adam_rejects_params_it_was_not_made_for():
    # a shorter state must not leave the extra parameters silently untouched
    state = make_optimizer(0.1, flat(np.zeros(3)))
    with pytest.raises(ValueError):
        optimizer_step(state, flat(np.zeros(3), np.zeros(2)), flat(np.ones(3), np.ones(2)))


def test_optimizer_takes_only_flat_buffers_of_its_own_layout():
    net = init_dense(make_rng(55), 3, 4, 2)
    other = init_dense(make_rng(56), 3, 5, 2)
    for g in net.grads + other.grads:
        g[...] = 1.0
    kept = net.params().flat.copy()
    plain = [p.copy() for p in net.params()]
    with pytest.raises(ValueError, match="FlatArrays"):
        make_optimizer(0.1, plain)
    state = make_optimizer(0.1, net.params())
    for params, grads in ((plain, net.grads), (net.params(), list(net.grads)),
                          (tuple(net.params()), net.grads)):
        with pytest.raises(ValueError, match="FlatArrays"):
            optimizer_step(state, params, grads)
    # a state made for another layout, and gradients of another layout
    for params, grads in ((other.params(), other.grads), (net.params(), other.grads)):
        with pytest.raises(ValueError, match="shapes"):
            optimizer_step(state, params, grads)
    assert state.step_count == 0
    assert_same_bits(net.params().flat, kept)
    assert_same_bits(other.params().flat, init_dense(make_rng(56), 3, 5, 2).params().flat)


# ---------------------------------------------------------------------------
# bit-exactness against the reference formulas
# ---------------------------------------------------------------------------

def test_sigmoid_bits_equal_two_branch_reference():
    rng = make_rng(21)
    for shape in [(1,), (7,), (33, 5), (128, 57)]:
        for scale in (1.0, 30.0, 400.0):
            z = rng.normal(scale=scale, size=shape)
            assert_same_bits(sigmoid(z), ref_sigmoid(z))
    z = np.array([800.0, -800.0, 0.0, -0.0, np.nan, np.inf, -np.inf, 745.2, -745.2, 1e-300, -5e-324])
    s = sigmoid(z)
    assert_same_bits(s, ref_sigmoid(z))
    assert s[0] == 1.0 and s[1] == 0.0 and s[2] == s[3] == 0.5 and np.isnan(s[4])


def test_forward_and_backward_bits_equal_full_reference():
    rng = make_rng(31)
    for _ in range(25):
        n_in, width, n_out, rows = (int(v) for v in rng.integers(1, 40, size=4))
        net = init_dense(rng, n_in, width, n_out)
        for p in (net.b1, net.b2, net.b3):
            p += rng.normal(scale=0.3, size=p.shape)
        x = rng.normal(size=(rows, n_in))
        grad_out = rng.normal(size=(rows, n_out))
        out, cache = dense_forward(net, x)
        ref_out, ref_cache = ref_forward(net, x)
        assert_same_bits(out, ref_out)
        ref_grads, ref_dx = ref_backward(net, ref_cache, grad_out)
        for g, ref in zip(dense_backward(net, cache, grad_out, wrt="params"), ref_grads, strict=True):
            assert_same_bits(g, ref)
        assert_same_bits(dense_backward(net, cache, grad_out, wrt="input"), ref_dx)


def test_leading_input_gradient_bits_equal_the_product_over_those_rows_of_w1():
    rng = make_rng(32)
    for _ in range(25):
        n_in, width, n_out, rows = (int(v) for v in rng.integers(1, 40, size=4))
        k = int(rng.integers(1, n_in + 1))
        net64 = init_dense(rng, n_in, width, n_out)
        x = rng.normal(size=(rows, n_in))
        grad_out = rng.normal(size=(rows, n_out))
        for net in (net64, DenseNet(*(p.astype(np.float32) for p in net64.params()))):
            _, cache = dense_forward(net, x)
            x_in, a1, a2, out = cache
            # a ReLU output is positive exactly where its pre-activation is
            _, want = ref_backward(net, (x_in, a1, a1, a2, a2, out), grad_out.astype(net.dtype), leading=k)
            got = dense_backward(net, cache, grad_out, wrt="input", leading=k)
            assert got.dtype == net.dtype and got.shape == (rows, k)
            assert_same_bits(got, want)


@pytest.mark.parametrize("wrt, leading", [("input", 0), ("input", 4), ("input", True), ("input", 2.0),
                                          ("params", 2)])
def test_backward_refuses_a_leading_width_outside_the_input(wrt, leading):
    net = init_dense(make_rng(0), 3, 4, 2)
    _, cache = dense_forward(net, np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"^leading must be an integer in \[1, 3\] with wrt='input'"):
        dense_backward(net, cache, np.zeros((2, 2)), wrt=wrt, leading=leading)


def test_adam_bits_equal_textbook_reference_over_many_steps():
    rng = make_rng(41)
    shapes = [tuple(int(v) for v in rng.integers(1, 30, size=2)) for _ in range(4)] + [(7,), (1,)]
    params = flat(*[rng.normal(size=s) for s in shapes])
    ref_p = [p.copy() for p in params]
    ref_m = [np.zeros_like(p) for p in params]
    ref_v = [np.zeros_like(p) for p in params]
    state = make_optimizer(1e-3, params)
    for t in range(1, 31):
        grads = flat(*[rng.normal(scale=10.0 ** rng.integers(-6, 4), size=s) for s in shapes])
        kept = [g.copy() for g in grads]
        optimizer_step(state, params, grads)
        for i, g in enumerate(grads):
            assert_same_bits(g, kept[i])
            ref_adam_step(ref_p[i], g, ref_m[i], ref_v[i], t, 1e-3)
            assert_same_bits(params[i], ref_p[i])
            assert_same_bits(state.m[i], ref_m[i])
            assert_same_bits(state.v[i], ref_v[i])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_flushes_subnormal_moments_every_64th_step(dtype):
    rng = make_rng(43)
    shapes = [(5, 3), (3,)]
    params = FlatArrays.zeros(shapes, dtype)
    params.flat[:] = rng.normal(size=params.flat.size)
    state = make_optimizer(1e-3, params)
    dead = np.arange(params.flat.size) % 3 == 0     # cells whose gradient is always 0
    subnormal = 3 * np.finfo(dtype).smallest_subnormal
    state.m.flat[dead], state.v.flat[dead] = subnormal, 400 * subnormal
    ref_p, ref_m, ref_v = params.flat.copy(), state.m.flat.copy(), state.v.flat.copy()
    grads = FlatArrays.zeros(shapes, dtype)
    for t in range(1, FLUSH_EVERY + 1):
        grads.flat[:] = np.where(dead, 0.0, rng.normal(size=grads.flat.size))
        optimizer_step(state, params, grads)
        ref_adam_step(ref_p, grads.flat, ref_m, ref_v, t, 1e-3)
        assert_same_bits(params.flat, ref_p)
        if t < FLUSH_EVERY:
            assert_same_bits(state.m.flat, ref_m)
            assert_same_bits(state.v.flat, ref_v)
    # the reference's moments never left the subnormal range, and the flush zeroed exactly them
    assert np.all(ref_m[dead] == subnormal)
    assert np.all((ref_v[dead] > 0) & (ref_v[dead] < np.finfo(dtype).tiny))
    assert_same_bits(state.m.flat, np.where(dead, 0.0, ref_m))
    assert_same_bits(state.v.flat, np.where(dead, 0.0, ref_v))


# ---------------------------------------------------------------------------
# flat parameter and gradient buffers
# ---------------------------------------------------------------------------

def assert_tiles_one_buffer(arrays):
    assert type(arrays) is FlatArrays and len(arrays) == 6
    offset = 0
    for a in arrays:
        assert a.base is arrays.flat
        assert np.shares_memory(a, arrays.flat[offset:offset + a.size])
        offset += a.size
    assert offset == arrays.flat.size


def test_params_are_the_same_views_of_one_buffer_on_every_call():
    net = init_dense(make_rng(51), 4, 7, 3)
    first, second = net.params(), net.params()
    assert all(a is b for a, b in zip(first, second, strict=True))
    assert first[0] is net.w1 and first[5] is net.b3
    assert_tiles_one_buffer(first)
    assert_tiles_one_buffer(net.grads)
    assert [a.shape for a in net.grads] == [a.shape for a in first]
    first.flat[:] = 2.0
    assert np.all(net.w2 == 2.0) and np.all(net.b3 == 2.0)


def test_copy_and_pickle_own_separate_buffers():
    net = init_dense(make_rng(52), 3, 5, 2)
    for other in (DenseNet(*net.params()), pickle.loads(pickle.dumps(net))):
        assert_tiles_one_buffer(other.params())
        assert not np.shares_memory(other.params().flat, net.params().flat)
        assert not np.shares_memory(other.grads.flat, net.grads.flat)
        assert_array_equal(other.params().flat, net.params().flat)
        other.w1[0, 0] += 1.0
        assert other.w1[0, 0] != net.w1[0, 0]
    state = make_optimizer(1e-3, net.params())
    assert_tiles_one_buffer(pickle.loads(pickle.dumps(state.m)))


def test_float32_net_computes_forward_backward_and_updates_in_float32():
    rng = make_rng(57)
    net = DenseNet(*(p.astype(np.float32) for p in init_dense(rng, 5, 8, 3).params()))
    for other in (net, DenseNet(*net.params()), pickle.loads(pickle.dumps(net))):
        assert other.dtype == other.grads.flat.dtype == np.float32
    out, cache = dense_forward(net, rng.uniform(size=(6, 5)))   # a float64 batch is cast
    assert out.dtype == np.float32 and all(a.dtype == np.float32 for a in cache)
    grad_out = rng.normal(size=(6, 3))
    assert dense_backward(net, cache, grad_out, wrt="input").dtype == np.float32
    grads = dense_backward(net, cache, grad_out, wrt="params")
    state = make_optimizer(1e-3, net.params())
    assert all(s.flat.dtype == np.float32 for s in (state.m, state.v, *state.scratch))
    optimizer_step(state, net.params(), grads)
    assert net.dtype == np.float32
    # one float64 array gives a float64 net
    assert DenseNet(*net.params()[:5], np.zeros(3)).dtype == np.float64


def test_float32_sigmoid_saturates_near_17_and_tracks_float64():
    z = np.array([16.0, 17.0, -17.0], dtype=np.float32)
    s = sigmoid(z)
    assert s.dtype == np.float32
    assert s[0] < 1.0 and s[1] == 1.0 and 0.0 < s[2] < 1e-7
    z = make_rng(58).uniform(-80.0, 80.0, 1000).astype(np.float32)
    assert_allclose(sigmoid(z), sigmoid(z.astype(np.float64)), rtol=4 * np.finfo(np.float32).eps, atol=0)


def test_net_from_separate_arrays_holds_their_values():
    rng = make_rng(53)
    arrays = [rng.normal(size=s) for s in [(3, 4), (4,), (4, 4), (4,), (4, 2), (2,)]]
    kept = [a.copy() for a in arrays]
    net = DenseNet(*arrays)
    for p, a in zip(net.params(), kept, strict=True):
        assert_same_bits(p, a)
    for a in arrays:
        a += 1.0   # the net holds copies
    for p, a in zip(net.params(), kept, strict=True):
        assert_same_bits(p, a)


def test_optimizers_over_a_net_buffer_bit_equal_per_array_references():
    rng = make_rng(54)
    net = init_dense(rng, 6, 11, 4)
    ref_p = [p.copy() for p in net.params()]
    ref_m = [np.zeros_like(p) for p in ref_p]
    ref_v = [np.zeros_like(p) for p in ref_p]
    adam = make_optimizer(1e-3, net.params())
    for t in range(1, 31):
        for g in net.grads:
            g[...] = rng.normal(scale=10.0 ** rng.integers(-6, 4), size=g.shape)
        kept = [g.copy() for g in net.grads]
        optimizer_step(adam, net.params(), net.grads)
        for i, g in enumerate(kept):
            assert_same_bits(net.grads[i], g)
            ref_adam_step(ref_p[i], g, ref_m[i], ref_v[i], t, 1e-3)
            assert_same_bits(net.params()[i], ref_p[i])
            assert_same_bits(adam.m[i], ref_m[i])
            assert_same_bits(adam.v[i], ref_v[i])


def test_param_backward_overwrites_the_views_it_returned_before():
    rng = make_rng(55)
    net = init_dense(rng, 5, 8, 3)
    x = rng.normal(size=(6, 5))
    out, cache = dense_forward(net, x)
    _, ref_cache = ref_forward(net, x)
    first_out, second_out = rng.normal(size=out.shape), rng.normal(size=out.shape)
    first = dense_backward(net, cache, first_out, wrt="params")
    assert first is net.grads
    dense_backward(net, cache, second_out, wrt="input")   # leaves the gradient buffer alone
    for g, ref in zip(first, ref_backward(net, ref_cache, first_out)[0], strict=True):
        assert_same_bits(g, ref)
    second = dense_backward(net, cache, second_out, wrt="params")
    assert second is first
    for g, ref in zip(first, ref_backward(net, ref_cache, second_out)[0], strict=True):
        assert_same_bits(g, ref)


# ---------------------------------------------------------------------------
# random sources
# ---------------------------------------------------------------------------

def test_same_seed_gives_identical_draws():
    a = uniform(make_rng(77), -1.0, 2.0, (8, 8))
    b = uniform(make_rng(77), -1.0, 2.0, (8, 8))
    assert_array_equal(a, b)


def test_uniform_bounds_and_errors():
    draws = uniform(make_rng(1), 0.25, 0.75, (1000,))
    assert draws.min() >= 0.25 and draws.max() < 0.75
    with pytest.raises(ValueError, match="low < high"):
        uniform(make_rng(1), 1.0, 1.0, (3,))


@pytest.mark.parametrize("low, high", [(0.0, 0.01), (0.25, 0.75), (-1.0, 2.0), (-3.5, -0.25), (-1e-3, 1e3)])
@pytest.mark.parametrize("shape", [7, (4, 5), (2, 3, 2)])
def test_uniform_bits_and_stream_state_equal_rng_uniform(low, high, shape):
    ours, theirs = make_rng(5), make_rng(5)
    for _ in range(2):
        assert_same_bits(uniform(ours, low, high, shape), theirs.uniform(low, high, size=shape))
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_xavier_bounds():
    w = xavier_uniform(make_rng(2), 30, 90)
    limit = np.sqrt(6.0 / 120.0)
    assert w.shape == (30, 90)
    assert np.all(np.abs(w) <= limit)
    with pytest.raises(ValueError, match="positive"):
        xavier_uniform(make_rng(2), 0, 4)
