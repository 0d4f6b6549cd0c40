"""Tests for the dense-network substrate: forward, backward, Adam, utilities."""

import numpy as np
import pytest

from metaran import nets
from metaran.errors import ConfigurationError, ContractViolation


def layers(net):
    """[W1, b1, W2, b2, ...]: the layer views into net.flat, in its order."""
    return [p for wb in zip(net.weights, net.biases) for p in wb]


# -- initialization ----------------------------------------------------------


def test_init_shapes_and_bounds():
    net = nets.init_network((5, 7, 2), seed=0)
    assert [w.shape for w in net.weights] == [(5, 7), (7, 2)]
    assert [b.shape for b in net.biases] == [(7,), (2,)]
    for w, fan_in in zip(net.weights, (5, 7)):
        assert (np.abs(w) <= 1.0 / np.sqrt(fan_in)).all()
    for b in net.biases:
        assert (b == 0).all()


def test_init_deterministic_per_seed():
    a = nets.init_network((4, 8, 1), seed=3)
    b = nets.init_network((4, 8, 1), seed=3)
    c = nets.init_network((4, 8, 1), seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(layers(a), layers(b)))
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_layer_views_alias_the_flat_vector():
    net = nets.init_network((3, 4, 2), seed=0)
    assert all(np.shares_memory(p, net.flat) for p in layers(net))
    assert np.array_equal(np.concatenate([p.ravel() for p in layers(net)]), net.flat)
    net.weights[1][2, 1] = 7.0
    assert net.flat[3 * 4 + 4 + 2 * 2 + 1] == 7.0
    net.flat[-1] = -3.0
    assert net.biases[1][1] == -3.0
    assert not np.shares_memory(net.copy().flat, net.flat)


def test_parameter_count_matches_closed_form():
    sizes = (5, 300, 400, 400, 2)
    net = nets.init_network(sizes, seed=0)
    expected = sum(
        fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
    )
    assert net.flat.size == expected == 283_402


@pytest.mark.parametrize("sizes", [(5,), (0, 3), (3, -1, 2)])
def test_init_rejects_bad_sizes(sizes):
    with pytest.raises(ConfigurationError):
        nets.init_network(sizes, seed=0)


def test_init_rejects_bad_activation():
    with pytest.raises(ConfigurationError):
        nets.init_network((2, 2), seed=0, output_activation="relu")


# -- forward -----------------------------------------------------------------


def test_forward_matches_manual_composition():
    net = nets.init_network((3, 4, 2), seed=1, output_activation="tanh")
    x = np.array([0.3, -0.7, 1.1])
    h = np.tanh(x @ net.weights[0] + net.biases[0])
    want = np.tanh(h @ net.weights[1] + net.biases[1])
    got = nets.forward(net, x[None, :])[0][0]
    assert np.allclose(got, want, atol=1e-14)


def test_identity_head_is_linear_in_last_layer():
    net = nets.init_network((3, 4, 1), seed=1, output_activation="identity")
    x = np.array([0.3, -0.7, 1.1])
    h = np.tanh(x @ net.weights[0] + net.biases[0])
    want = h @ net.weights[1] + net.biases[1]
    got = nets.forward(net, x[None, :])[0][0]
    assert np.allclose(got, want, atol=1e-14)
    assert np.abs(got).max() > 0  # not squashed


def test_batch_forward_matches_per_row():
    net = nets.init_network((4, 6, 3), seed=2)
    xs = np.random.default_rng(0).normal(size=(5, 4))
    batch, _ = nets.forward(net, xs)
    rows = np.stack([nets.forward(net, x[None, :])[0][0] for x in xs])
    assert np.allclose(batch, rows, atol=1e-14)


def test_forward_rejects_wrong_width():
    net = nets.init_network((4, 6, 3), seed=2)
    with pytest.raises(ContractViolation):
        nets.forward(net, np.zeros((1, 5)))
    with pytest.raises(ContractViolation, match=r"not \(B, 4\)"):
        nets.forward(net, np.zeros(4))  # a vector of the right width is not a batch


# -- backward ----------------------------------------------------------------


def finite_diff_param_grads(net, x, loss_weights, eps=1e-6):
    """Central finite differences of L = loss_weights . forward(net, x) for
    one input vector x, one entry of net.flat at a time."""
    p = net.flat
    g = np.zeros_like(p)
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + eps
        up = float(loss_weights @ nets.forward(net, x[None, :])[0][0])
        p[i] = orig - eps
        dn = float(loss_weights @ nets.forward(net, x[None, :])[0][0])
        p[i] = orig
        g[i] = (up - dn) / (2 * eps)
    return g


@pytest.mark.parametrize("activation", ["tanh", "identity"])
def test_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(5)
    net = nets.init_network((3, 5, 2), seed=5, output_activation=activation)
    x = rng.normal(size=3)
    w = rng.normal(size=2)
    out, tape = nets.forward(net, x[None, :])
    grads, _ = nets.backward(net, tape, w[None, :])
    fd = finite_diff_param_grads(net, x, w)
    assert np.allclose(grads, fd, rtol=1e-6, atol=1e-8)


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    net = nets.init_network((4, 5, 1), seed=6, output_activation="identity")
    x = rng.normal(size=4)
    _, tape = nets.forward(net, x[None, :])
    _, in_grad = nets.backward(net, tape, np.array([[1.0]]))
    eps = 1e-6
    for i in range(4):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (nets.forward(net, xp[None, :])[0][0, 0]
              - nets.forward(net, xm[None, :])[0][0, 0]) / (2 * eps)
        assert np.isclose(in_grad[0, i], fd, rtol=1e-6, atol=1e-9)


def test_batch_gradients_sum_over_rows():
    net = nets.init_network((3, 4, 2), seed=7)
    xs = np.random.default_rng(1).normal(size=(4, 3))
    g = np.random.default_rng(2).normal(size=(4, 2))
    _, tape = nets.forward(net, xs)
    batch_grads, _ = nets.backward(net, tape, g)
    summed = None
    for x, gr in zip(xs, g):
        _, tape1 = nets.forward(net, x[None, :])
        grads1, _ = nets.backward(net, tape1, gr[None, :])
        if summed is None:
            summed = grads1
        else:
            summed = [a + b for a, b in zip(summed, grads1)]
    for a, b in zip(batch_grads, summed):
        assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("batch", [1, 6])
def test_one_sided_backward_is_bitwise_the_full_backward(activation, batch):
    rng = np.random.default_rng(8)
    net = nets.init_network((5, 9, 7, 3), seed=8, output_activation=activation)
    x = rng.normal(size=(batch, 5))
    g = rng.normal(size=(batch, 3))
    _, tape = nets.forward(net, x)
    full_params, full_input = nets.backward(net, tape, g)
    params_only, none_input = nets.backward(net, tape, g, wrt="params")
    none_params, input_only = nets.backward(net, tape, g, wrt="input")
    assert none_input is None and none_params is None
    assert np.array_equal(params_only, full_params)
    assert np.array_equal(input_only, full_input)
    assert input_only.shape == x.shape


def matmul_backward(net, tape, g):
    """backward with every input product written as g @ W.T."""
    acts, last = tape, len(net.weights) - 1
    g = np.asarray(g, dtype=net.flat.dtype).reshape(acts[-1].shape)
    w_grads, b_grads = [], []
    for i in range(last, -1, -1):
        if i < last or net.output_activation == "tanh":
            g = (1.0 - np.square(acts[i + 1])) * g
        w_grads.insert(0, acts[i].T @ g)
        b_grads.insert(0, np.sum(g, axis=0))
        g = g @ net.weights[i].T
    flat = np.concatenate([a.ravel() for wb in zip(w_grads, b_grads) for a in wb])
    return flat, g


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_fan_out_one_head_backward_is_bitwise_the_matmul(dtype):
    rng = np.random.default_rng(21)
    for case in range(40):
        hidden = (int(rng.integers(1, 60)),) if case % 2 else ()  # (n, 1): head = input
        sizes = (int(rng.integers(1, 40)), *hidden, 1)
        net = nets.init_network(sizes, seed=case, output_activation="identity", dtype=dtype)
        batch = int(rng.integers(1, 150))
        x = rng.normal(size=(batch, sizes[0]))
        g = rng.normal(size=(batch, 1))
        g[0, 0] = 0.0  # with a negative weight the product is -0.0
        net.weights[-1][0, 0] = -abs(net.weights[-1][0, 0])
        _, tape = nets.forward(net, x)
        grad, in_grad = nets.backward(net, tape, g)
        ref_grad, ref_in = matmul_backward(net, tape, g)
        assert grad.tobytes() == ref_grad.tobytes(), case
        assert in_grad.dtype == np.dtype(dtype)
        assert in_grad.tobytes() == ref_in.tobytes(), case


def test_backward_rejects_unknown_target():
    net = nets.init_network((3, 4, 2), seed=7)
    _, tape = nets.forward(net, np.zeros((1, 3)))
    with pytest.raises(ContractViolation):
        nets.backward(net, tape, np.zeros((1, 2)), wrt="weights")


def test_backward_rejects_mismatched_grad_shape():
    net = nets.init_network((3, 4, 2), seed=7)
    _, tape = nets.forward(net, np.zeros((1, 3)))
    with pytest.raises(ContractViolation):
        nets.backward(net, tape, np.zeros((1, 3)))


# -- Adam --------------------------------------------------------------------


def test_adam_first_step_matches_hand_formula():
    # theta=0, g=1, lr=1e-4, defaults: m_hat=1, v_hat=1, step=lr/(1+eps).
    p = np.zeros(1)
    state = nets.init_adam(p, lr=1e-4)
    nets.adam_step(p, np.ones(1), state)
    want = -1e-4 / (1.0 + 1e-8)
    assert abs(p[0] - want) < 1e-12
    assert state.step_count == 1


def test_adam_zero_betas_is_sign_sgd():
    rng = np.random.default_rng(0)
    p = rng.normal(size=4)
    before = p.copy()
    g = rng.normal(size=4)
    state = nets.init_adam(p, lr=1e-2, beta1=0.0, beta2=0.0, epsilon=1e-12)
    nets.adam_step(p, g.copy(), state)
    assert np.allclose(p, before - 1e-2 * np.sign(g), atol=1e-9)


def test_adam_rejects_shape_mismatch():
    p = np.zeros(3)
    state = nets.init_adam(p)
    with pytest.raises(ContractViolation):
        nets.adam_step(p, np.zeros(4), state)


def test_adam_updates_in_place():
    net = nets.init_network((2, 3, 1), seed=0)
    state = nets.init_adam(net.flat, lr=1e-2)
    before = nets.params_as_vector(net).copy()
    nets.adam_step(net.flat, np.ones_like(net.flat), state)
    assert not np.allclose(nets.params_as_vector(net), before)


def test_flat_adam_and_soft_update_equal_per_layer_reference_bitwise():
    # Elementwise arithmetic does not depend on the layout, so one pass over
    # the flat vector must reproduce the per-layer formulas bit for bit.
    net = nets.init_network((4, 6, 3), seed=3)
    target = nets.init_network((4, 6, 3), seed=4)
    ref = [p.copy() for p in layers(net)]
    ref_target = [p.copy() for p in layers(target)]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in ref]
    state = nets.init_adam(net.flat, lr=1e-3)
    rng = np.random.default_rng(0)
    for t in range(1, 4):
        g = rng.normal(size=net.flat.size)
        nets.adam_step(net.flat, g, state)
        nets.soft_update(target.flat, net.flat, 0.05)
        g_layers = layers(nets.DenseNetwork(net.layer_sizes, g))
        for p, gp, (m, v) in zip(ref, g_layers, moments):
            m *= 0.9
            m += (1.0 - 0.9) * gp
            v *= 0.999
            v += (1.0 - 0.999) * gp * gp
            p -= 1e-3 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        for tp, p in zip(ref_target, ref):
            tp *= 1.0 - 0.05
            tp += 0.05 * p
    assert np.array_equal(np.concatenate([p.ravel() for p in ref]), net.flat)
    assert np.array_equal(np.concatenate([p.ravel() for p in ref_target]), target.flat)


def test_blocked_adam_and_soft_update_equal_one_pass_reference_bitwise():
    # Three full blocks and a partial one: the blocked passes must reproduce
    # the one-pass formulas bit for bit, step after step.
    n = 3 * nets.KERNEL_BLOCK + 17
    rng = np.random.default_rng(11)
    params, target = rng.normal(size=n), rng.normal(size=n)
    ref, ref_target = params.copy(), target.copy()
    m, v = np.zeros(n), np.zeros(n)
    lr, b1, b2, eps, tau = 3e-4, 0.9, 0.999, 1e-8, 0.005
    state = nets.init_adam(params, lr=lr)
    for t in range(1, 6):
        g = rng.normal(size=n)
        nets.adam_step(params, g, state)
        nets.soft_update(target, params, tau)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        denom = v / (1.0 - b2**t)
        np.sqrt(denom, out=denom)
        denom += eps
        step = m / (1.0 - b1**t)
        step *= lr
        step /= denom
        ref -= step
        ref_target *= 1.0 - tau
        ref_target += tau * ref
        assert np.array_equal(params, ref)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert np.array_equal(target, ref_target)


def test_adam_rejects_mixed_dtypes():
    p = np.zeros(3, dtype=np.float32)
    state = nets.init_adam(p)
    with pytest.raises(ContractViolation):
        nets.adam_step(p, np.zeros(3), state)


# -- dtype -------------------------------------------------------------------


def test_float32_network_is_the_rounded_float64_network():
    net64 = nets.init_network((4, 6, 2), seed=3)
    net32 = nets.init_network((4, 6, 2), seed=3, dtype="float32")
    assert net32.flat.dtype == np.float32
    assert all(p.dtype == np.float32 for p in layers(net32))
    assert np.array_equal(net32.flat, net64.flat.astype(np.float32))
    with pytest.raises(ConfigurationError):
        nets.init_network((4, 6, 2), seed=3, dtype="float16")


def test_float32_network_computes_in_float32():
    net = nets.init_network((4, 6, 2), seed=3, dtype="float32")
    x = np.random.default_rng(0).normal(size=(5, 4))  # float64 input
    out, tape = nets.forward(net, x)
    grads, in_grad = nets.backward(net, tape, np.ones((5, 2)))
    assert out.dtype == grads.dtype == in_grad.dtype == np.float32
    state = nets.init_adam(net.flat)
    nets.adam_step(net.flat, grads, state)
    nets.soft_update(net.flat, net.flat.copy(), 0.5)
    assert net.flat.dtype == state.m.dtype == state.v.dtype == np.float32
    nets.set_params_from_vector(net, np.zeros(net.flat.size))
    assert net.flat.dtype == np.float32 and not net.flat.any()


# -- soft update and vector round trips --------------------------------------


def test_soft_update_formula():
    t = np.array([1.0, 2.0])
    s = np.array([3.0, 4.0])
    nets.soft_update(t, s, tau=0.25)
    assert np.allclose(t, [1.5, 2.5])
    for target, source in ((t, s[:1]), (t.reshape(1, 2), s.reshape(1, 2))):
        with pytest.raises(ContractViolation, match="shape mismatch"):
            nets.soft_update(target, source, tau=0.25)


def test_soft_update_tau_one_copies_source():
    t = np.zeros(3)
    s = np.arange(3.0)
    nets.soft_update(t, s, tau=1.0)
    assert np.array_equal(t, s)


def test_vector_round_trip():
    net = nets.init_network((3, 5, 2), seed=9)
    vec = nets.params_as_vector(net)
    other = nets.init_network((3, 5, 2), seed=10)
    nets.set_params_from_vector(other, vec)
    assert np.array_equal(nets.params_as_vector(other), vec)
    with pytest.raises(ContractViolation):
        nets.set_params_from_vector(net, vec[:-1])
