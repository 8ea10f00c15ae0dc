import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from devolve import evolution, nn
from devolve.datasets import ProbeSet
from devolve.nn import (Batch, Conv2D, Dense, LeakyReLU, MaxPool2D, Network,
                        ReLU, ShapeError, Softmax)
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


EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300,
                        -1e-300, -1e-320, 1e-320, 1.0, -1.0, 3.5, -7.25, 1e300, -1e300])


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestActivationForms:
    """ReLU and LeakyReLU forward through np.maximum; they must give the
    bits the np.where forms gave, signed zeros included, and masks equal to
    x > 0, so relu and leaky nets keep their artifacts."""

    def inputs(self):
        rng = np.random.default_rng(3)
        return np.concatenate((EDGE_VALUES, rng.normal(size=64) * 1e-310,
                               rng.normal(size=64))).reshape(4, -1)

    def test_relu_bits(self):
        x = self.inputs()
        y, ctx = ReLU().apply(x)
        assert bits_equal(y, np.where(x > 0, x, 0.0))
        np.testing.assert_array_equal(ctx > 0, x > 0)
        g = np.random.default_rng(4).normal(size=x.shape)
        assert bits_equal(ReLU().grads(ctx, g)[0], np.where(x > 0, g, 0.0))

    @pytest.mark.parametrize("slope", [0.1, 0.2, 0.5, 0.9, 0.999])
    def test_leaky_relu_bits(self, slope):
        x = self.inputs()
        layer = LeakyReLU(slope)
        y, ctx = layer.apply(x)
        assert bits_equal(y, np.where(x > 0, x, slope * x))
        np.testing.assert_array_equal(ctx > 0, x > 0)
        g = np.random.default_rng(4).normal(size=x.shape)
        assert bits_equal(layer.grads(ctx, g)[0], np.where(x > 0, g, slope * g))


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

    def test_forward_from_a_layer_runs_the_rest(self):
        # from each layer's input, the rest of the pass has the whole pass's
        # bits; its own inputs are left alone
        net = nn.build_network(CONV_ARCH, 4)
        x = np.random.default_rng(6).normal(size=(5, 6, 6, 1))
        whole = nn.forward(net, x)
        for start in range(len(net.layers) + 1):
            acts = nn.forward(Network(net.layers[:start], net.input_shape), x)
            before = acts.copy()
            assert nn.forward(net, acts, start).tobytes() == whole.tobytes()
            assert acts.tobytes() == before.tobytes()
            assert net.shapes[start] == acts.shape[1:]
        with pytest.raises(ShapeError, match=r"does not match layer 3 input shape \(3, 3, 2\)"):
            nn.forward(net, x, 3)
        for start in (-1, len(net.layers) + 1):
            with pytest.raises(ValueError, match="outside"):
                nn.forward(net, x, start)

    def test_non_finite_from_a_layer_names_it_in_the_network(self):
        net = small_net(seed=3)
        net = net.replace_layer(2, Dense(np.full((5, 3), np.inf), np.zeros(3)))
        x = np.random.default_rng(1).normal(size=(4, 6))
        acts = nn.forward(Network(net.layers[:1], net.input_shape), x)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"^non-finite .* layer 2 \(dense\)$"):
                nn.forward(net, acts, 1)

    def test_determinism(self):
        net = small_net(seed=3)
        x = np.random.default_rng(1).normal(size=(4, 6))
        a = nn.forward(net, x)
        b = nn.forward(net, x)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("layers", [
        [{"kind": "relu"}, {"kind": "flatten"}, {"kind": "relu"}],
        [{"kind": "flatten"}, {"kind": "relu"}, {"kind": "dense", "units": 3}],
        [{"kind": "conv2d", "filters": 3, "kernel": 3, "padding": "same"},
         {"kind": "relu"}, {"kind": "max_pool", "pool": 2}, {"kind": "relu"},
         {"kind": "flatten"}, {"kind": "dense", "units": 3}, {"kind": "relu"}],
        # a valid conv pads nothing, so its ctx holds the caller's array
        [{"kind": "conv2d", "filters": 3, "kernel": 2, "stride": 2, "padding": "valid"},
         {"kind": "relu"}, {"kind": "flatten"}, {"kind": "dense", "units": 3},
         {"kind": "relu"}]])
    def test_in_place_layers_leave_inputs_and_bits_alone(self, layers):
        # forward rectifies its own arrays in place, never the caller's
        net = small_net(seed=2, layers=layers, input_shape=(4, 4, 2))
        x = np.random.default_rng(5).normal(size=(3, 4, 4, 2))
        before = x.copy()
        out = nn.forward(net, x)
        assert x.tobytes() == before.tobytes()
        assert out.tobytes() == nn._forward_with_ctx(net, x)[0].tobytes()


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

    # dense first, conv first, and a parameterless layer in front of the first
    # parameter layer
    FIRST_LAYER_NETS = [
        (None, (6,)),
        (CONV_ARCH["layers"], (6, 6, 1)),
        ([{"kind": "flatten"}, {"kind": "dense", "units": 4}, {"kind": "relu"},
          {"kind": "dense", "units": 3}], (3, 2)),
    ]

    @pytest.mark.parametrize("layers,input_shape", FIRST_LAYER_NETS)
    def test_parameter_grads_match_full_chain(self, layers, input_shape, rng):
        net = small_net(2, layers, input_shape)
        x = rng.normal(size=(5,) + input_shape)
        targets = rng.normal(size=(5,) + net.output_shape)
        value, grads = nn.value_and_grads(net, x, lambda out: nn.mse_loss(out, targets))
        y, ctxs = x, []
        for layer in net.layers:
            y, ctx = layer.apply(y)
            ctxs.append(ctx)
        ref_value, g = nn.mse_loss(y, targets)
        ref_grads = []
        for layer, ctx in zip(net.layers[::-1], ctxs[::-1]):
            g, layer_grads = layer.grads(ctx, g)  # every input gradient taken
            ref_grads = layer_grads + ref_grads
        assert value == ref_value
        assert [g.shape for g in grads] == [r.shape for r in ref_grads]
        assert all(bits_equal(g, r) for g, r in zip(grads, ref_grads))

    @pytest.mark.parametrize("layers,input_shape", FIRST_LAYER_NETS)
    def test_no_input_gradient_up_to_first_parameter_layer(self, layers, input_shape,
                                                           monkeypatch, rng):
        net = small_net(2, layers, input_shape)
        produced = {}
        for i, layer in enumerate(net.layers):
            def recording(ctx, g, *args, i=i, grads=layer.grads, **kwargs):
                gx, layer_grads = grads(ctx, g, *args, **kwargs)
                produced[i] = gx is not None
                return gx, layer_grads
            monkeypatch.setattr(layer, "grads", recording)
        x = rng.normal(size=(5,) + input_shape)
        nn.value_and_grads(net, x, lambda out: (0.0, np.ones_like(out)))
        first = net.param_layer_indices()[0]
        assert produced == {i: i > first for i in range(first, len(net.layers))}

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


class TestPrebuiltCols:
    """A conv on prebuilt im2col rows: `evolution.patch_form` makes a conv a
    1x1 stride-1 conv on `im2col(x)`, which gives the conv's bits, outputs and
    kernel and bias gradients alike, over the same batch slices."""

    @staticmethod
    def assert_paths_equal(layer, x, rng, items=slice(None)):
        """`layer` on x[items] against the patch form's conv on those items'
        patches, cut from the patch tensor of the whole of `x`."""
        net, probe = evolution.patch_form(Network([layer], x.shape[1:]), ProbeSet(x))
        one = net.layers[0]
        assert (one.kernel.shape[:2], one.stride, one.padding) == ((1, 1), 1, "valid")
        y, ctx = layer.apply(x[items])
        yp, ctxp = one.apply(probe.inputs[items])
        assert bits_equal(yp, y)
        g = rng.normal(size=y.shape)
        _, (gk, gb) = layer.grads(ctx, g, need_input=False)
        _, (gkp, gbp) = one.grads(ctxp, g, need_input=False)
        assert bits_equal(gkp.reshape(gk.shape), gk) and bits_equal(gbp, gb)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_bits_equal_per_call_im2col(self, stride, padding, rng):
        layer = Conv2D(rng.normal(size=(3, 2, 2, 4)), rng.normal(size=4), stride, padding)
        self.assert_paths_equal(layer, rng.normal(size=(3, 7, 6, 2)), rng)

    def test_a_batch_of_several_slices(self, rng):
        layer = Conv2D(rng.normal(size=(3, 3, 1, 16)), rng.normal(size=16), 1, "same")
        x = rng.normal(size=(50, 10, 10, 1))  # 5,000 rows: slices of 40 items
        assert x.shape[0] * 100 > nn.IM2COL_ROWS
        self.assert_paths_equal(layer, x, rng)

    @pytest.mark.parametrize("lo,hi", [(30, 75), (39, 41), (0, 41), (79, 100)])
    def test_item_ranges_take_their_rows_of_the_whole_matrix(self, lo, hi, rng):
        # a retraining batch of items [lo, hi); 100 pixels an item: the whole
        # matrix's slices end at items 40 and 80
        layer = Conv2D(rng.normal(size=(3, 3, 2, 5)), rng.normal(size=5), 1, "same")
        assert nn._batch_slices(100, 100)[:2] == [(0, 40), (40, 80)]
        self.assert_paths_equal(layer, rng.normal(size=(100, 10, 10, 2)), rng, slice(lo, hi))

    def test_forward_and_value_and_grads_pass_the_rows_to_layer_0(self, rng):
        net = nn.build_network({"input_shape": [6, 6, 1], "layers": [
            {"kind": "conv2d", "filters": 3, "stride": 2}, {"kind": "relu"},
            {"kind": "flatten"}, {"kind": "dense", "units": 2}]}, 3)
        x = rng.normal(size=(5, 6, 6, 1))
        patched, probe = evolution.patch_form(net, ProbeSet(x))
        assert patched.input_shape == (3, 3, 9)
        assert all(a is b for a, b in zip(patched.layers[1:], net.layers[1:], strict=True))
        assert bits_equal(nn.forward(patched, probe.inputs), nn.forward(net, x))
        target = rng.normal(size=(5, 2))
        a = nn.value_and_grads(net, x, lambda out: nn.mse_loss(out, target))
        b = nn.value_and_grads(patched, probe.inputs, lambda out: nn.mse_loss(out, target))
        assert a[0] == b[0]
        assert all(bits_equal(gb.reshape(ga.shape), ga) for ga, gb in zip(a[1], b[1]))

    def test_a_dense_first_net_and_a_large_probe_are_untouched(self, rng, monkeypatch):
        def untouched(net, probe):
            patched, same = evolution.patch_form(net, probe)
            return patched is net and same is probe

        assert untouched(small_net(), ProbeSet(rng.normal(size=(4, 6))))
        conv = small_net(layers=[{"kind": "conv2d", "filters": 2}, {"kind": "flatten"}],
                         input_shape=(5, 5, 1))
        probe = ProbeSet(rng.normal(size=(4, 5, 5, 1)))
        monkeypatch.setattr(evolution, "IM2COL_KEEP_BYTES", 4 * 25 * 9 * 8)
        assert not untouched(conv, probe)  # 4 items of 25 patches of 9, at the bound
        # a probe of another shape is left to forward's ShapeError
        assert untouched(conv, ProbeSet(rng.normal(size=(1, 6, 6, 1))))
        monkeypatch.setattr(evolution, "IM2COL_KEEP_BYTES", 4 * 25 * 9 * 8 - 1)
        assert untouched(conv, probe)


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

    def test_a_serialization_error_leaves_no_file(self, tmp_path):
        net = nn.build_network({"input_shape": [4, 4, 1], "layers": [
            {"kind": "conv2d", "filters": 2, "kernel": 1}]}, 0)
        net.layers[0].stride = 300  # past the u8 it is stored as
        path = tmp_path / "model.devn"
        with pytest.raises(Exception, match="255"):
            nn.save_network(net, str(path))
        assert not path.exists()

    def test_parameter_count(self):
        net = small_net()
        # 6*5 + 5 + 5*3 + 3
        assert net.parameter_count() == 53


class TestBuildNetwork:
    @pytest.mark.parametrize("entry,match", [
        ({"kind": "max_pool", "size": 3}, r"^layer 1 \(max_pool\): .*'size'"),
        ({"kind": "max_pool", "stride": 2.0}, r"^layer 1 \(max_pool\): stride must be an integer"),
        ({"kind": "conv2d", "filters": 2, "kernel": True},
         r"^layer 1 \(conv2d\): kernel must be an integer"),
        ({"kind": "conv2d", "filters": 2, "padding": "Same"},
         r"^layer 1 \(conv2d\): unknown padding 'Same'"),
        ({"kind": "relu", "slope": 0.1}, r"^layer 1 \(relu\): .*'slope'"),
        ({"kind": "dense", "units": 2}, r"^layer 1 \(dense\): .*insert a flatten layer"),
        ({"kind": "gelu"}, r"^layer 1: unknown layer kind 'gelu'"),
    ])
    def test_a_bad_entry_names_its_layer_and_key(self, entry, match):
        arch = {"input_shape": [4, 4, 1], "layers": [{"kind": "relu"}, entry]}
        with pytest.raises((TypeError, ValueError), match=match):
            nn.build_network(arch, 0)

    @pytest.mark.parametrize("arch,match", [
        ({"input_shape": [4], "layers": []}, "layers is empty"),
        ({"input_shape": [4, 0], "layers": [{"kind": "flatten"}]},
         r"input_shape\[1\] must be an integer >= 1, got 0"),
    ])
    def test_an_empty_architecture_is_refused(self, arch, match):
        with pytest.raises(ValueError, match=match):
            nn.build_network(arch, 0)

    @pytest.mark.parametrize("entry,name", [
        ({"kind": "conv2d", "filters": 2, "kernel": 1, "stride": 300}, "stride"),
        ({"kind": "max_pool", "pool": 256}, "pool"),
        ({"kind": "max_pool", "pool": 1, "stride": 256}, "stride"),
    ])
    def test_a_u8_hyperparameter_above_255_is_refused(self, entry, name):
        arch = {"input_shape": [255, 255, 1], "layers": [entry]}
        with pytest.raises(ValueError, match=rf"{name} must be an integer in \[1, 255\]"):
            nn.build_network(arch, 0)
        arch["layers"][0][name] = 255
        net = nn.build_network(arch, 0)
        assert nn.serialize_network(nn.deserialize_network(
            nn.serialize_network(net))) == nn.serialize_network(net)

    def test_omitted_keys_take_the_constructor_defaults(self):
        net = nn.build_network({"input_shape": [6, 6, 1], "layers": [
            {"kind": "conv2d", "filters": 2}, {"kind": "leaky_relu"},
            {"kind": "max_pool"}]}, 0)
        conv, leaky, pool = net.layers
        assert conv.kernel.shape == (3, 3, 1, 2)
        assert (conv.hyper(), leaky.hyper(), pool.hyper()) == (
            {"stride": 1, "padding": "same"}, {"slope": 0.1}, {"pool": 2, "stride": 2})


def entry_keys(cls):
    """{key: default, or inspect.Parameter.empty if required} of the
    architecture entries `cls.build` takes; the keys it passes on to the
    constructor are its HYPER."""
    build = inspect.signature(cls.build).parameters
    init = inspect.signature(cls.__init__).parameters
    keys = {name: p.default for name, p in build.items()
            if name not in ("shape", "rng") and p.kind is not p.VAR_KEYWORD}
    return keys | {name: init[name].default for name in cls.HYPER}


def test_readme_states_each_layer_kinds_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^- `(\w+)`: (.*)$", readme, re.M))
    for kind, cls in nn.LAYER_KINDS.items():
        keys = entry_keys(cls)
        assert set(re.findall(r"`(\w+)`", rows[kind])) == set(keys), kind
        for name, default in keys.items():
            if default is inspect.Parameter.empty:
                assert f"`{name}` (required)" in rows[kind], (kind, name)
            elif default is not None:
                assert f"`{name}` ({json.dumps(default)}" in rows[kind], (kind, name)
