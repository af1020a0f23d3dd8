"""Gradient and contract tests for the tape-based tensor engine."""

import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import poet.autodiff as ad


def checked_grad(build, arrays, op_floor=1e-5):
    """Compare backward() against central differences for each input array.

    ``build`` maps a list of Tensors to a scalar Tensor; the inputs are
    re-recorded on a fresh tape per finite-difference probe.
    """
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    loss = build(leaves)
    grads = ad.backward(loss)
    for i, leaf in enumerate(leaves):
        def f(t, i=i):
            consts = [ad.Tensor(a) for a in arrays]
            consts[i] = t
            return build(consts)

        numeric = ad.finite_diff(f, ad.Tensor(arrays[i]), eps=1e-4)
        err = ad.relative_error(grads.wrt(leaf), numeric.data)
        assert err < op_floor, f"input {i}: rel err {err}"


def rng():
    return np.random.default_rng(12345)


def test_add_sub_mul_broadcast_grads():
    r = rng()
    a = r.uniform(-1, 1, (3, 4))
    b = r.uniform(-1, 1, (4,))
    checked_grad(lambda ts: ad.reduce_sum(ad.mul(ad.add(ts[0], ts[1]), ad.sub(ts[0], ts[1]))), [a, b])


def test_suffix_broadcast_rejected_for_interior():
    a = ad.Tensor(np.zeros((3, 4)))
    b = ad.Tensor(np.zeros((3, 1)))
    with pytest.raises(ad.ShapeMismatch) as e:
        ad.add(a, b)
    assert "(3, 4)" in str(e.value) and "(3, 1)" in str(e.value)


def test_matmul_shapes_and_grads():
    r = rng()
    a = r.uniform(-1, 1, (2, 3))
    b = r.uniform(-1, 1, (3, 4))
    out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
    assert out.shape == (2, 4)
    probe = ad.Tensor(r.uniform(-1, 1, (2, 4)))
    checked_grad(lambda ts: ad.reduce_sum(ad.mul(ad.matmul(ts[0], ts[1]), probe)), [a, b])


def test_matmul_batched_and_shared_weight_grads():
    r = rng()
    a = r.uniform(-1, 1, (2, 3, 4, 5))
    b = r.uniform(-1, 1, (2, 3, 5, 4))
    w = r.uniform(-1, 1, (5, 6))
    checked_grad(lambda ts: ad.reduce_sum(ad.matmul(ts[0], ts[1])), [a, b])
    checked_grad(lambda ts: ad.reduce_sum(ad.matmul(ts[0], ts[1])), [a, w])


def test_matmul_mismatch_messages():
    with pytest.raises(ad.ShapeMismatch):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 2))))
    with pytest.raises(ad.ShapeMismatch):
        ad.matmul(ad.Tensor(np.zeros((2, 2, 3))), ad.Tensor(np.zeros((3, 3, 4))))


@pytest.mark.parametrize(
    "op",
    [ad.relu, ad.sigmoid, ad.absolute],
    ids=["relu", "sigmoid", "abs"],
)
def test_elementwise_grads(op):
    r = rng()
    x = r.uniform(-2, 2, (4, 5))
    x[np.abs(x) < 0.05] += 0.1  # keep away from relu/abs kinks
    probe = ad.Tensor(r.uniform(-1, 1, x.shape))
    checked_grad(lambda ts: ad.reduce_sum(ad.mul(op(ts[0]), probe)), [x])


def test_log_and_clamp_grads():
    r = rng()
    x = r.uniform(0.1, 2.0, (3, 3))
    checked_grad(lambda ts: ad.reduce_sum(ad.log(ts[0])), [x])
    checked_grad(lambda ts: ad.reduce_sum(ad.log(ad.clamp_min(ts[0], 0.5))), [x + 0.6])


def test_softmax_normalizes_and_grad():
    r = rng()
    x = r.uniform(-3, 3, (2, 5))
    y = ad.softmax(ad.Tensor(x), axis=-1)
    np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)
    probe = ad.Tensor(r.uniform(-1, 1, x.shape))
    checked_grad(lambda ts: ad.reduce_sum(ad.mul(ad.softmax(ts[0], axis=-1), probe)), [x])


def test_layer_norm_grads():
    r = rng()
    x = r.uniform(-1, 1, (2, 3, 8))
    gain = r.uniform(0.5, 1.5, (8,))
    bias = r.uniform(-0.5, 0.5, (8,))
    probe = r.uniform(-1, 1, x.shape)
    checked_grad(lambda ts: ad.reduce_sum(ad.mul(ad.layer_norm(ts[0], ts[1], ts[2]), ad.Tensor(probe))), [x, gain, bias])


def test_reshape_transpose_concat_slice_take_grads():
    r = rng()
    a = r.uniform(-1, 1, (2, 6))
    b = r.uniform(-1, 1, (2, 3))

    def build(ts):
        x = ad.reshape(ts[0], (2, 3, 2))
        x = ad.transpose(x, 1, 2)          # (2, 2, 3)
        x = ad.reshape(x, (4, 3))
        y = ad.concat([x, ts[1]], axis=0)  # (6, 3)
        y = ad.slice_axis(y, 0, 1, 5)      # (4, 3)
        y = ad.take_rows(y, [0, 0, 2, 3])
        return ad.reduce_sum(ad.mul(y, y))

    checked_grad(build, [a, b])


def test_conv2d_forward_shape_and_grads():
    r = rng()
    x = r.uniform(-1, 1, (2, 3, 8, 8))
    w = r.uniform(-0.5, 0.5, (4, 3, 3, 3))
    b = r.uniform(-0.5, 0.5, (4,))
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), stride=2, padding=1)
    assert out.shape == (2, 4, 4, 4)
    probe = r.uniform(-1, 1, out.shape)
    checked_grad(lambda ts: ad.reduce_sum(ad.mul(ad.conv2d(ts[0], ts[1], ts[2], stride=2, padding=1), ad.Tensor(probe))), [x, w, b])


# Oracles: softmax, layer_norm and conv2d as plain expressions, each returning its
# output and its VJPs at the cotangent g. The package computes the same values in
# place, so outputs and gradients must agree bit for bit.


def oracle_softmax(x, g):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out, (out * (g - dot),)


def oracle_layer_norm(x, gain, bias, g, eps=1e-5):
    lead = tuple(range(x.ndim - 1))
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    y = xc * inv
    out = y * gain + bias
    gy = g * gain
    gx = inv * (gy - gy.mean(axis=-1, keepdims=True) - y * (gy * y).mean(axis=-1, keepdims=True))
    return out, (gx, (g * y).sum(axis=lead), g.sum(axis=lead))


def oracle_conv2d(x, w, b, g, stride, padding):
    bs, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wdt + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((bs, cin, kh * kw, oh * ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i * kw + j, :] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride].reshape(bs, cin, -1)
    cols = cols.reshape(bs, cin * kh * kw, oh * ow)
    wf = w.reshape(cout, -1)
    out = (wf @ cols).reshape(bs, cout, oh, ow)
    if b is not None:
        out = out + b.reshape(1, cout, 1, 1)
    gf = g.reshape(bs, cout, oh * ow)
    gcols = (wf.T @ gf).reshape(bs, cin, kh * kw, oh * ow)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += gcols[:, :, i * kw + j, :].reshape(bs, cin, oh, ow)
    gx = gxp[:, :, padding : padding + h, padding : padding + wdt]
    gw = np.matmul(gf, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    return out, (gx, gw) if b is None else (gx, gw, g.sum(axis=(0, 2, 3)))


def assert_op_equals_oracle(op, arrays, g, expected):
    """op's output and every input's gradient at cotangent g, compared by bytes with the oracle's."""
    want_out, want_grads = expected
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    out = op(*leaves)
    assert out.data.tobytes() == want_out.tobytes()
    grads = ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(g))))  # each input's gradient is its VJP at g
    assert len(want_grads) == len(leaves)
    for leaf, want in zip(leaves, want_grads):
        assert grads.wrt(leaf).tobytes() == want.tobytes()


def test_softmax_equals_the_plain_expressions_bit_for_bit():
    r = rng()
    x = r.uniform(-30, 30, (3, 4, 7, 9))
    g = r.uniform(-1, 1, x.shape)
    assert_op_equals_oracle(lambda t: ad.softmax(t, axis=-1), [x], g, oracle_softmax(x, g))


def test_layer_norm_equals_the_plain_expressions_bit_for_bit():
    r = rng()
    x = r.uniform(-2, 2, (3, 5, 16)) + r.uniform(-5, 5, (3, 5, 1))
    gain, bias = r.uniform(0.5, 1.5, (16,)), r.uniform(-0.5, 0.5, (16,))
    g = r.uniform(-1, 1, x.shape)
    assert_op_equals_oracle(ad.layer_norm, [x, gain, bias], g, oracle_layer_norm(x, gain, bias, g))


@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("stride,padding", [(2, 1), (1, 1), (1, 0)])
def test_conv2d_equals_the_plain_expressions_bit_for_bit(with_bias, stride, padding):
    r = rng()
    x = r.uniform(-1, 1, (2, 3, 9, 8))
    w = r.uniform(-0.5, 0.5, (4, 3, 3, 3))
    b = r.uniform(-0.5, 0.5, (4,)) if with_bias else None
    oh, ow = (9 + 2 * padding - 3) // stride + 1, (8 + 2 * padding - 3) // stride + 1
    g = r.uniform(-1, 1, (2, 4, oh, ow))
    op = lambda *ts: ad.conv2d(ts[0], ts[1], ts[2] if with_bias else None, stride=stride, padding=padding)
    arrays = [x, w] if b is None else [x, w, b]
    assert_op_equals_oracle(op, arrays, g, oracle_conv2d(x, w, b, g, stride, padding))


def test_softmax_allocates_one_array_of_its_input_size():
    # the plain expression holds x - max, its exp and the quotient at once: about 3x the input
    x = np.random.default_rng(0).uniform(-3, 3, (16, 4, 144, 144))
    tracemalloc.start()
    try:
        out = ad.softmax(ad.Tensor(x), axis=-1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == x.shape
    assert peak < 1.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the input"


def test_relu_without_a_tape_allocates_only_its_output():
    # a mask for the backward pass would add an eighth of the input on top of the output
    x = np.random.default_rng(0).uniform(-1, 1, (20, 16, 48, 48))
    tracemalloc.start()
    try:
        out = ad.relu(ad.Tensor(x))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.tobytes() == np.maximum(x, 0.0).tobytes()
    assert peak < 1.05 * x.nbytes, f"peak {peak / x.nbytes:.3f}x the input"


def test_dropout_identity_modes():
    r = rng()
    x = ad.Tensor(r.uniform(-1, 1, (4, 4)))
    assert ad.dropout(x, 0.5, train=False) is x
    assert ad.dropout(x, 0.0, train=True, rng=np.random.default_rng(0)) is x


def test_dropout_inverted_scaling_and_grad():
    x = np.ones((200, 200))
    tape = ad.Tape()
    t = tape.leaf(x)
    y = ad.dropout(t, 0.25, train=True, rng=np.random.default_rng(7))
    kept = y.data != 0
    np.testing.assert_allclose(y.data[kept], 1.0 / 0.75)
    assert abs(y.data.mean() - 1.0) < 0.01
    grads = ad.backward(ad.reduce_sum(y))
    np.testing.assert_array_equal(grads.wrt(t) != 0, kept)


def test_backward_chain_rule_by_hand():
    # z = (x * y + x)^2 -> dz/dx = 2(xy + x)(y + 1), dz/dy = 2(xy + x) x
    tape = ad.Tape()
    x = tape.leaf(3.0)
    y = tape.leaf(2.0)
    z = ad.mul(ad.add(ad.mul(x, y), x), ad.add(ad.mul(x, y), x))
    grads = ad.backward(z)
    assert grads.wrt(x) == pytest.approx(2 * 9 * 3, abs=1e-12)
    assert grads.wrt(y) == pytest.approx(2 * 9 * 3, abs=1e-12)


def test_backward_d_xy_dx_is_y():
    tape = ad.Tape()
    x = tape.leaf([2.0])
    y = tape.leaf([5.0])
    grads = ad.backward(ad.reduce_sum(ad.mul(x, y)))
    np.testing.assert_array_equal(grads.wrt(x), [5.0])
    np.testing.assert_array_equal(grads.wrt(y), [2.0])


def test_backward_contract_errors():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ad.NotScalar):
        ad.backward(ad.mul(x, x))
    loss = ad.reduce_sum(x)
    ad.backward(loss)
    with pytest.raises(ad.TapeConsumed):
        ad.backward(loss)
    with pytest.raises(ad.NotRecorded):
        ad.backward(ad.Tensor(1.0))


def test_backward_frees_the_tape_without_the_cyclic_collector():
    x0 = rng().normal(size=(3, 4))

    def forward(x):
        h = ad.sigmoid(x)
        return ad.reduce_sum(ad.mul(h, h)), weakref.ref(h.data)

    gc.disable()
    try:
        tape = ad.Tape()
        x = tape.leaf(x0)
        loss, activation = forward(x)
        recorded = len(tape)
        assert activation() is not None  # held by the tape until backward
        grads = ad.backward(loss)
        assert activation() is None
        assert len(tape) == recorded
    finally:
        gc.enable()
    s = ad.sigmoid(ad.Tensor(x0)).data
    np.testing.assert_array_equal(grads.wrt(x), 2.0 * s * s * (1.0 - s))
    with pytest.raises(ad.TapeConsumed):
        ad.backward(loss)


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    with pytest.raises(ValueError):
        ad.add(t1.leaf(1.0), t2.leaf(1.0))


def test_unused_leaf_gets_zero_gradient():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3))
    unused = tape.leaf(np.ones(4))
    grads = ad.backward(ad.reduce_sum(x))
    np.testing.assert_array_equal(grads.wrt(unused), np.zeros(4))


def test_finite_diff_basics():
    g = ad.finite_diff(lambda t: float(ad.reduce_sum(ad.mul(t, t)).data), ad.Tensor(3.0), eps=1e-4)
    assert abs(float(g.data) - 6.0) < 1e-6
    g0 = ad.finite_diff(lambda t: 1.25, ad.Tensor(np.ones(5)), eps=1e-4)
    np.testing.assert_array_equal(g0.data, np.zeros(5))
    with pytest.raises(ValueError):
        ad.finite_diff(lambda t: 0.0, ad.Tensor(1.0), eps=0.0)


def test_determinism_bit_identical():
    def run():
        r = np.random.default_rng(99)
        tape = ad.Tape()
        x = tape.leaf(r.uniform(-1, 1, (8, 8)))
        w = tape.leaf(r.uniform(-1, 1, (8, 8)))
        h = ad.dropout(ad.relu(ad.matmul(x, w)), 0.3, train=True, rng=np.random.default_rng(3))
        loss = ad.reduce_sum(ad.mul(h, h))
        grads = ad.backward(loss)
        return loss.data.copy(), grads.wrt(w).copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def _shared_leaf_graph(lane=None):
    """One leaf read by three products and one leaf read by nothing; returns both gradients and the three factors."""
    r = rng()
    c2 = r.normal(size=64) * 1e16
    c1 = r.normal(size=64) - c2
    c3 = r.normal(size=64)
    tape = ad.Tape()
    x = tape.leaf(r.normal(size=64))
    unused = tape.leaf(np.ones(5))
    terms = [ad.mul(x, ad.Tensor(c)) for c in (c1, c2, c3)]
    loss = ad.reduce_sum(ad.add(ad.add(terms[0], terms[1]), terms[2]))
    grads = ad.backward(loss, lane=lane)
    return grads.wrt(x), grads.wrt(unused), (c1, c2, c3)


def test_backward_on_a_lane_adds_a_shared_leafs_gradients_in_sweep_order(lane):
    got, unused, (c1, c2, c3) = _shared_leaf_graph(lane)
    # the sweep meets the products last-recorded first; another order gives other bits here
    in_order, reversed_order = (c3 + c2) + c1, (c1 + c2) + c3
    assert in_order.tobytes() != reversed_order.tobytes()
    assert got.tobytes() == in_order.tobytes() == _shared_leaf_graph()[0].tobytes()
    assert unused.tobytes() == np.zeros(5).tobytes()


def _spied_products(lane=None):
    """Gradients of a two-matmul graph and, per input node id, whether the VJPs into it ran on the main thread."""
    r = rng()
    tape = ad.Tape()
    x, w = tape.leaf(r.normal(size=(6, 4))), tape.leaf(r.normal(size=(4, 3)))
    loss = ad.reduce_sum(ad.mul(ad.sigmoid(ad.matmul(x, w)), ad.matmul(ad.Tensor(r.normal(size=(6, 4))), w)))
    on_main = {}

    def spy(vjp, iid):
        def run(g):
            on_main.setdefault(iid, set()).add(threading.current_thread() is threading.main_thread())
            return vjp(g)

        return run

    for node in tape.nodes:
        node.vjps = tuple(spy(vjp, iid) for iid, vjp in zip(node.input_ids, node.vjps))
    grads = ad.backward(loss, lane=lane)
    return [grads.wrt(t) for t in (x, w)], on_main, (x.node_id, w.node_id)


def test_backward_on_a_lane_runs_exactly_the_leaf_vjps_there(lane):
    got, on_main, leaves = _spied_products(lane)
    want, plain_on_main, _ = _spied_products()
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
    assert {iid: on_main[iid] for iid in leaves} == {iid: {False} for iid in leaves}
    assert {iid: seen for iid, seen in on_main.items() if iid not in leaves} == {
        iid: {True} for iid in plain_on_main if iid not in leaves
    }
    assert all(seen == {True} for seen in plain_on_main.values())


def test_gradient_of_an_intermediate_tensor_raises():
    tape = ad.Tape()
    x = tape.leaf(np.array([1.0, -2.0]))
    y = ad.mul(x, ad.Tensor(np.array([3.0, 4.0])))
    loss = ad.reduce_sum(ad.mul(y, y))
    late, unused = ad.mul(x, x), tape.leaf(np.ones(3))  # recorded after the loss, so given no gradient
    grads = ad.backward(loss)
    np.testing.assert_array_equal(grads.wrt(x), [18.0, -64.0])
    assert grads.wrt(unused).tobytes() == np.zeros(3).tobytes()
    for t in (y, loss, late):
        with pytest.raises(ad.NotALeaf, match=f"node {t.node_id} is computed on the tape"):
            grads.wrt(t)


def test_backward_keeps_only_the_leaf_gradients():
    n = 50_000  # 400 KB per array; six intermediate gradients of that size would be kept besides the leaf's
    tape = ad.Tape()
    x = tape.leaf(np.linspace(-1.0, 1.0, n))
    scale = ad.Tensor(np.full(n, 1.5))
    h = x
    for _ in range(6):
        h = ad.mul(h, scale)
    loss = ad.reduce_sum(ad.mul(h, h))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grads = ad.backward(loss)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    leaf = grads.wrt(x)
    assert leaf.nbytes <= kept < leaf.nbytes + 100_000, kept
