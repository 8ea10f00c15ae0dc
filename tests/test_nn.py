import numpy as np
import pytest
from hypothesis import given, strategies as st

from devolve import nn
from devolve.nn import (Batch, Conv2D, Dense, MaxPool2D, Network, ReLU,
                        ShapeError, Softmax)
from helpers import LAYOUT_KINDS, layout_net
from oracles import (assert_gradients_close, conv2d_direct, max_pool_direct,
                     numerical_gradients)


def small_net(seed=0, layers=None, input_shape=(6,)):
    arch = {"input_shape": list(input_shape), "layers": layers or [
        {"kind": "dense", "units": 5},
        {"kind": "leaky_relu", "slope": 0.1},
        {"kind": "dense", "units": 3},
        {"kind": "softmax"},
    ]}
    return nn.build_network(arch, seed)


class TestForward:
    def test_dense_identity(self):
        net = Network([Dense(np.eye(2), np.zeros(2))], (2,))
        out = nn.forward(net, np.array([[2.0, 3.0]]))
        np.testing.assert_array_equal(out, [[2.0, 3.0]])

    def test_relu(self):
        net = Network([ReLU()], (3,))
        out = nn.forward(net, np.array([[-1.0, 2.0, 0.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0, 0.0]])

    def test_conv_all_ones(self):
        # 3x3 ones kernel, stride 1, zero padding, on a 4x4 ones image:
        # full windows see 9 ones, edges 6, corners 4
        kernel = np.ones((3, 3, 1, 1))
        net = Network([Conv2D(kernel, np.zeros(1), stride=1, padding="same")],
                      (4, 4, 1))
        out = nn.forward(net, np.ones((1, 4, 4, 1)))[0, :, :, 0]
        expected = np.array([
            [4.0, 6.0, 6.0, 4.0],
            [6.0, 9.0, 9.0, 6.0],
            [6.0, 9.0, 9.0, 6.0],
            [4.0, 6.0, 6.0, 4.0],
        ])
        np.testing.assert_array_equal(out, expected)

    def test_conv_valid_shape(self):
        net = small_net(layers=[
            {"kind": "conv2d", "filters": 2, "kernel": 3, "padding": "valid"},
            {"kind": "flatten"},
        ], input_shape=(5, 5, 1))
        out = nn.forward(net, np.zeros((2, 5, 5, 1)))
        assert out.shape == (2, 18)

    def test_maxpool(self):
        net = Network([MaxPool2D(2)], (2, 2, 1))
        x = np.array([[[[1.0], [5.0]], [[3.0], [2.0]]]])
        assert nn.forward(net, x)[0, 0, 0, 0] == 5.0

    def test_softmax_rows_sum_to_one(self):
        net = Network([Softmax()], (4,))
        out = nn.forward(net, np.random.default_rng(0).normal(size=(8, 4)) * 10)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out >= 0).all()

    def test_shape_mismatch_names_layer(self):
        net = small_net()
        with pytest.raises(ShapeError, match="batch shape"):
            nn.forward(net, np.zeros((1, 7)))
        with pytest.raises(ShapeError, match=r"layer 1 \(dense\)"):
            Network([Dense(np.eye(2), np.zeros(2)), Dense(np.eye(3), np.zeros(3))],
                    (2,))

    def test_determinism(self):
        net = small_net(seed=3)
        x = np.random.default_rng(1).normal(size=(4, 6))
        a = nn.forward(net, x)
        b = nn.forward(net, x)
        assert a.tobytes() == b.tobytes()


@given(st.integers(0, 10_000))
def test_softmax_simplex_property(seed):
    rng = np.random.default_rng(seed)
    net = Network([Softmax()], (5,))
    out = nn.forward(net, rng.normal(size=(3, 5)) * rng.uniform(0.1, 50))
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


CONV_ARCH = {"input_shape": [6, 6, 1], "layers": [
    {"kind": "conv2d", "filters": 2, "kernel": 3, "stride": 1, "padding": "same"},
    {"kind": "leaky_relu", "slope": 0.2},
    {"kind": "max_pool", "pool": 2},
    {"kind": "conv2d", "filters": 2, "kernel": 2, "padding": "valid"},
    {"kind": "relu"},
    {"kind": "flatten"},
    {"kind": "dense", "units": 3},
    {"kind": "softmax"},
]}


class TestBackward:
    def test_zero_loss_zero_grads(self):
        net = Network([Dense(np.eye(2), np.zeros(2))], (2,))
        x = np.array([[1.0, 2.0]])
        batch = Batch(x, nn.forward(net, x))
        for g in nn.backward(net, batch, "mse"):
            np.testing.assert_array_equal(g, 0.0)

    def test_single_neuron_closed_form(self):
        # mean-reduced mse on one output: dL/dw = 2(yhat - y) x / n
        w = np.array([[0.5], [-1.0]])
        net = Network([Dense(w, np.array([0.25]))], (2,))
        x = np.array([[1.0, 2.0], [3.0, -1.0]])
        y = np.array([[0.0], [1.0]])
        yhat = nn.forward(net, x)
        grads = nn.backward(net, Batch(x, y), "mse")
        expected_w = (2.0 * (yhat - y) * x).mean(axis=0).reshape(2, 1)
        np.testing.assert_allclose(grads[0], expected_w, atol=1e-12)
        np.testing.assert_allclose(grads[1], (2.0 * (yhat - y)).mean(axis=0),
                                   atol=1e-12)

    def test_missing_targets(self):
        net = small_net()
        with pytest.raises(ValueError, match="targets"):
            nn.backward(net, Batch(np.zeros((1, 6))), "mse")

    def test_three_layer_finite_difference(self, rng):
        net = small_net(seed=11)
        x = rng.normal(size=(4, 6))
        batch = Batch(x, rng.integers(0, 3, size=4))
        analytic = nn.backward(net, batch, "cross_entropy")
        numeric = numerical_gradients(net, batch, "cross_entropy")
        assert_gradients_close(analytic, numeric)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradcheck_all_layer_kinds(self, seed):
        rng = np.random.default_rng(seed)
        net = nn.build_network(CONV_ARCH, seed)
        x = rng.normal(size=(2, 6, 6, 1))
        for loss_kind, targets in (
            ("mse", rng.normal(size=(2, 3))),
            ("cross_entropy", rng.integers(0, 3, size=2)),
        ):
            batch = Batch(x, targets)
            analytic = nn.backward(net, batch, loss_kind)
            numeric = numerical_gradients(net, batch, loss_kind)
            assert_gradients_close(analytic, numeric)

    def test_value_and_grads_is_loss_and_grads(self, rng):
        net = nn.build_network(CONV_ARCH, 1)
        x = rng.normal(size=(4, 6, 6, 1))
        for loss, targets, kind in (
            (nn.mse_loss, rng.normal(size=(4, 3)), "mse"),
            (nn.cross_entropy_loss, rng.integers(0, 3, size=4), "cross_entropy"),
        ):
            value, grads = nn.value_and_grads(net, x, lambda out: loss(out, targets))
            ref_value, ref_grads = nn.loss_and_grads(net, Batch(x, targets), kind)
            assert value == ref_value
            assert len(grads) == len(ref_grads)
            for g, r in zip(grads, ref_grads):
                assert g.tobytes() == r.tobytes()

    def test_conv_stride_two_gradcheck(self, rng):
        arch = {"input_shape": [5, 5, 2], "layers": [
            {"kind": "conv2d", "filters": 2, "kernel": 3, "stride": 2,
             "padding": "same"},
            {"kind": "flatten"},
            {"kind": "dense", "units": 2},
        ]}
        net = nn.build_network(arch, 5)
        batch = Batch(rng.normal(size=(3, 5, 5, 2)), rng.normal(size=(3, 2)))
        assert_gradients_close(nn.backward(net, batch, "mse"),
                               numerical_gradients(net, batch, "mse"))


class TestConvPoolOracle:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("cin", [1, 3])
    def test_conv_matches_direct_loop(self, stride, padding, cin):
        rng = np.random.default_rng(10 * stride + cin)
        x = rng.normal(size=(3, 7, 6, cin))
        kernel = rng.normal(size=(3, 2, cin, 4))
        bias = rng.normal(size=4)
        y, _ = Conv2D(kernel, bias, stride, padding).apply(x)
        np.testing.assert_allclose(y, conv2d_direct(x, kernel, bias, stride, padding),
                                   rtol=1e-12, atol=1e-12)

    def test_conv_batch_slices(self, monkeypatch, rng):
        # a row cap below one image's output pixels gives one image per slice
        layer = Conv2D(rng.normal(size=(3, 3, 2, 3)), rng.normal(size=3), 1, "same")
        x = rng.normal(size=(5, 6, 6, 2))
        y, ctx = layer.apply(x)
        g = rng.normal(size=y.shape)
        gx, (gk, gb) = layer.grads(ctx, g)
        monkeypatch.setattr(nn, "IM2COL_ROWS", 20)
        ys, ctxs = layer.apply(x)
        gxs, (gks, gbs) = layer.grads(ctxs, g)
        np.testing.assert_allclose(ys, conv2d_direct(x, layer.kernel, layer.bias, 1, "same"),
                                   rtol=1e-12, atol=1e-12)
        for a, b in ((ys, y), (gxs, gx), (gks, gk), (gbs, gb)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    # (pool, stride): disjoint windows where they are equal, overlapping ones
    # otherwise; 7x8 inputs leave rows and columns outside every window
    @pytest.mark.parametrize("pool,stride", [(2, 2), (3, 3), (2, 1), (3, 2)])
    def test_max_pool_matches_direct_loop_with_ties(self, pool, stride, rng):
        x = rng.integers(0, 3, size=(2, 7, 8, 3)).astype(np.float64)
        layer = MaxPool2D(pool, stride)
        y, ctx = layer.apply(x)
        g = rng.normal(size=y.shape)
        gx, _ = layer.grads(ctx, g)
        y_ref, gx_ref = max_pool_direct(x, pool, stride, g)
        np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_allclose(gx, gx_ref, rtol=1e-12, atol=0.0)


class TestSgd:
    def test_arithmetic(self):
        net = Network([Dense(np.array([[1.0]]), np.zeros(1))], (1,))
        out = nn.sgd_step(net, [np.array([[0.5]]), np.zeros(1)], lr=0.1)
        assert out.layers[0].weights[0, 0] == pytest.approx(0.95)

    def test_updates_in_place(self):
        net = small_net()
        tensors = net.param_tensors()
        before = [t.copy() for t in tensors]
        grads = [np.full(t.shape, 0.25) for t in tensors]
        assert nn.sgd_step(net, grads, 0.5) is net
        assert all(a is b for a, b in zip(net.param_tensors(), tensors))
        for t, b in zip(tensors, before):
            np.testing.assert_array_equal(t, b - 0.5 * 0.25)

    def test_masked_position_stays_zero(self):
        from devolve.sparsity import CandidateSet, SparsityMask, apply_mask, merge
        net = Network([Dense(np.ones((2, 2)), np.zeros(2))], (2,))
        mask = merge(SparsityMask.empty(net), CandidateSet(0, [0]))
        stepped = net
        for _ in range(3):
            grads = [np.full((2, 2), 7.0), np.ones(2)]
            stepped = apply_mask(nn.sgd_step(stepped, grads, 0.5), mask)
            assert stepped.layers[0].weights[0, 0] == 0.0

    def test_descent_on_fixed_batch(self, rng):
        net = small_net(seed=2)
        batch = Batch(rng.normal(size=(16, 6)), rng.integers(0, 3, size=16))
        before, grads = nn.loss_and_grads(net, batch, "cross_entropy")
        after, _ = nn.loss_and_grads(nn.sgd_step(net, grads, 0.05), batch,
                                     "cross_entropy")
        assert after < before

    def test_nonpositive_lr(self):
        net = small_net()
        grads = nn.backward(net, Batch(np.zeros((1, 6)), np.array([0])),
                            "cross_entropy")
        for lr in (0.0, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                nn.sgd_step(net, grads, lr)


class TestFlatParams:
    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_roundtrip_bit_for_bit(self, kind):
        layer = layout_net(kind).layers[0]
        back = layer.with_flat_params(layer.flat_params())
        assert type(back) is type(layer) and back.hyper() == layer.hyper()
        for a, b in zip(layer.param_tensors(), back.param_tensors()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_kernel_then_bias_row_major(self, kind):
        layer = layout_net(kind).layers[0]
        kernel, bias = layer.param_tensors()
        flat = layer.flat_params()
        assert flat.shape == (kernel.size + bias.size,)
        for k in range(flat.size):
            want = kernel.reshape(-1)[k] if k < kernel.size else bias[k - kernel.size]
            assert flat[k] == want

    def test_fresh_copy(self):
        layer = layout_net("conv2d").layers[0]
        before = layer.kernel.copy()
        layer.flat_params()[:] = 0.0
        np.testing.assert_array_equal(layer.kernel, before)

    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_rejected(self, kind, delta):
        layer = layout_net(kind).layers[0]
        shapes = [t.shape for t in layer.param_tensors()]
        flat = np.zeros(layer.flat_params().size + delta)
        with pytest.raises(ShapeError):
            nn.unflatten(flat, shapes)
        with pytest.raises(ShapeError):
            layer.with_flat_params(flat)


class TestAccuracy:
    def test_all_correct(self):
        net = Network([Dense(np.eye(3), np.zeros(3))], (3,))
        ds = Batch(np.eye(3), np.array([0, 1, 2]))
        assert nn.accuracy(net, ds) == 1.0

    def test_constant_outputs_tie_break(self):
        # constant equal outputs: argmax picks class 0 everywhere
        net = Network([Dense(np.zeros((2, 3)), np.zeros(3))], (2,))
        ds = Batch(np.ones((4, 2)), np.array([0, 0, 1, 2]))
        assert nn.accuracy(net, ds) == pytest.approx(0.5)

    def test_empty_dataset(self):
        net = small_net()
        with pytest.raises(ValueError):
            nn.accuracy(net, Batch(np.zeros((1, 6)), np.array([0])).__class__(
                np.zeros((1, 6))))

    def test_trained_blobs_above_90(self):
        from devolve import datasets
        ds = datasets.synthetic_dataset("blobs", 512, 2, seed=3, feature_dim=8)
        net = nn.build_network({"input_shape": [8], "layers": [
            {"kind": "dense", "units": 16}, {"kind": "relu"},
            {"kind": "dense", "units": 2}, {"kind": "softmax"}]}, 0)
        for _ in range(60):
            grads = nn.backward(net, Batch(ds.inputs, ds.labels), "cross_entropy")
            net = nn.sgd_step(net, grads, 0.5)
        assert nn.accuracy(net, ds) > 0.9


class TestSerialization:
    def test_roundtrip_bytes(self):
        arch = {"input_shape": [4, 4, 1], "layers": [
            {"kind": "conv2d", "filters": 3, "kernel": 3, "stride": 2,
             "padding": "valid"},
            {"kind": "leaky_relu", "slope": 0.15},
            {"kind": "flatten"},
            {"kind": "dense", "units": 2},
            {"kind": "softmax"},
        ]}
        net = nn.build_network(arch, 9)
        data = nn.serialize_network(net)
        back = nn.deserialize_network(data)
        assert nn.serialize_network(back) == data
        x = np.random.default_rng(0).normal(size=(2, 4, 4, 1))
        np.testing.assert_array_equal(nn.forward(net, x), nn.forward(back, x))

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            nn.deserialize_network(b"XXXX" + b"\x00" * 16)

    def test_truncated(self):
        net = small_net()
        data = nn.serialize_network(net)
        with pytest.raises(ValueError):
            nn.deserialize_network(data[:len(data) // 2])

    def test_same_seed_same_bytes(self):
        a = nn.serialize_network(small_net(seed=4))
        b = nn.serialize_network(small_net(seed=4))
        assert a == b

    def test_parameter_count(self):
        net = small_net()
        # 6*5 + 5 + 5*3 + 3
        assert net.parameter_count() == 53
