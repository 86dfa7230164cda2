import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsdust.errors import ValidationError
from marsdust.tinynet import NetConfig, Tensor, build_params, forward, graph_forward, init_weights, loss_l1
from marsdust.tinynet import autodiff as ad

from gradcheck import MINIATURE

rng = np.random.default_rng(2024)


def numeric_grads(make_scalar, tensors, h=1e-5):
    """Central differences per element of each tensor."""
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = make_scalar()
            flat[i] = orig - h
            lm = make_scalar()
            flat[i] = orig
            g[i] = (lp - lm) / (2 * h)
        grads.append(g.reshape(t.data.shape))
    return grads


def check_op(build, tensors, tol=2e-6):
    """Elementwise FD vs analytic for an op composed into a random projection."""
    probe = rng.standard_normal(build(*tensors).data.shape)

    def scalar():
        return float(np.sum(build(*tensors).data * probe))

    out = build(*tensors)
    loss = ad.mean_all(ad.mul(out, Tensor(probe)))
    for t in tensors:
        t.grad = None
    loss.backward()
    n = out.data.size
    numeric = numeric_grads(scalar, tensors)
    for t, num in zip(tensors, numeric):
        analytic = t.grad * n  # mean_all divides by element count
        err = np.abs(analytic - num) / np.maximum(np.maximum(np.abs(analytic), np.abs(num)), 1e-3)
        assert err.max() < tol, f"worst rel err {err.max():.3e}"


def T(shape, scale=1.0, lo=None, hi=None):
    if lo is not None:
        data = rng.uniform(lo, hi, shape)
    else:
        data = rng.standard_normal(shape) * scale
    return Tensor(data, requires_grad=True)


class TestPrimitives:
    def test_conv2d_stride1(self):
        check_op(lambda x, w, b: ad.conv2d(x, w, b), [T((2, 3, 6, 5)), T((4, 3, 3, 3), 0.5), T((4,), 0.1)])

    def test_conv2d_stride2(self):
        check_op(lambda x, w, b: ad.conv2d(x, w, b, 2), [T((2, 3, 6, 6)), T((4, 3, 3, 3), 0.5), T((4,), 0.1)])

    def test_conv2d_1x1(self):
        check_op(lambda x, w, b: ad.conv2d(x, w, b), [T((2, 5, 4, 4)), T((3, 5, 1, 1), 0.5), T((3,), 0.1)])

    def test_conv2d_channel_mismatch(self):
        with pytest.raises(ValidationError):
            ad.conv2d(T((1, 3, 4, 4)), T((2, 4, 3, 3)), T((2,)))

    def test_dwconv2d(self):
        check_op(lambda x, w, b: ad.dwconv2d(x, w, b), [T((2, 3, 5, 6)), T((3, 3, 3), 0.5), T((3,), 0.1)])

    def test_sigmoid(self):
        check_op(lambda x: ad.sigmoid(x), [T((3, 4))])

    def test_relu_off_kink(self):
        check_op(lambda x: ad.relu(x), [T((4, 5), lo=0.5, hi=2.0)])
        check_op(lambda x: ad.relu(x), [T((4, 5), lo=-2.0, hi=-0.5)])

    def test_clamp01_interior_and_exterior(self):
        check_op(lambda x: ad.clamp01(x), [T((4, 5), lo=0.1, hi=0.9)])
        check_op(lambda x: ad.clamp01(x), [T((4, 5), lo=1.5, hi=2.0)])  # saturated: zero grad

    def test_upsample2x(self):
        check_op(lambda x: ad.upsample2x(x), [T((2, 3, 3, 4))])

    def test_spatial_mean(self):
        check_op(lambda x: ad.spatial_mean(x), [T((2, 3, 4, 5))])

    def test_concat(self):
        check_op(lambda a, b: ad.concat([a, b]), [T((2, 2, 3, 3)), T((2, 4, 3, 3))])

    def test_mul_broadcast_channel_gate(self):
        check_op(lambda x, g: ad.mul(x, g), [T((2, 3, 4, 4)), T((2, 3, 1, 1))])

    def test_mul_broadcast_pixel_gate(self):
        check_op(lambda x, g: ad.mul(x, g), [T((2, 3, 4, 4)), T((2, 1, 4, 4))])

    def test_add_sub(self):
        check_op(lambda a, b: ad.add(a, b), [T((3, 4)), T((3, 4))])
        check_op(lambda a, b: ad.sub(a, b), [T((3, 4)), T((3, 4))])

    def test_abs_off_tie(self):
        check_op(lambda x: ad.absval(x), [T((4, 4), lo=0.2, hi=1.0)])


def dyadic(shape, seed):
    """float32 multiples of 1/8 in [-2, 2]: every product and sum in the conv
    below is exact, so its digests do not depend on the BLAS summation order."""
    ints = np.random.default_rng(seed).integers(-16, 17, shape)
    return Tensor((ints / 8).astype(np.float32), requires_grad=True)


class TestConvGoldens:
    """sha256 of conv2d's output and x/w/b gradients, pinned from the tap-loop im2col."""

    @pytest.mark.parametrize(
        "kernel, stride, pad, want",
        [
            (3, 1, 1, [
                "4b9ffcc2f0875cf33f9102c83a52d17311f2f5bb3e0026fcccc503204ac13d2b",
                "c029c45491fd48e564a0eaa1493dc954c653fcdf0b211bd1df2f3f2d682f66d1",
                "14fc814910436c716c36be715b311782fb9e81217c312f166d80f1a20b51f1e5",
                "277aa77405c329c57f00ee44cc36dccd292c1e228cb252f647cef8f0d0aa40d0",
            ]),
            (3, 2, 1, [
                "2ced37b3e2019d94c630ba871d815550af0ba11f4bace82b4d0316d289374319",
                "d2492b52b33118f8cd593dd5fa8be274f3c2086b09b7a44b2eb222a05756212a",
                "9f7fdf2137c91af8c81b589dbef0b4fe883cc51e54dcc256f0bde1d59a29be1a",
                "d2744674f3aab5f6bac5850913a979b233563cc66fde7b7c0fbc470b9a93f882",
            ]),
            (1, 1, 0, [
                "dcb3b2f26b1db1fef2d41bf1a6c6cd83bee30711e2872523d987cbe3037ac498",
                "e4565730220d8e2ecf430b341fa7d1879ac3c57761a6ec5e24e14e10ad61b034",
                "c2af2b47dfd3e95ff9b3599c39740be55ceb0f17ae4dcd6d7c7f7a4d03fc6cb9",
                "277aa77405c329c57f00ee44cc36dccd292c1e228cb252f647cef8f0d0aa40d0",
            ]),
        ],
    )
    def test_output_and_gradient_digests(self, kernel, stride, pad, want):
        assert pad == kernel // 2  # the padding conv2d applies
        x, w, b = dyadic((2, 4, 8, 8), 1), dyadic((4, 4, kernel, kernel), 2), dyadic((4,), 3)
        y = ad.conv2d(x, w, b, stride)
        probe = Tensor(dyadic(y.data.shape, 4).data)  # y.size is a power of two, so 1/n is exact
        ad.mean_all(ad.mul(y, probe)).backward()
        got = [hashlib.sha256(a.tobytes()).hexdigest() for a in (y.data, x.grad, w.grad, b.grad)]
        assert got == want


def probed_digests(y, x, w, b):
    """sha256 of y and of the x/w/b gradients for the output gradient probe
    ``dyadic(y.shape, 4)``, fed straight to the op's backward so that no 1/n
    factor rounds: every sum stays exact whatever the output size."""
    x.grad, w.grad, b.grad = y._backward(dyadic(y.data.shape, 4).data)
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in (y.data, x.grad, w.grad, b.grad)]


class TestMoreConvGoldens:
    """Digests for dwconv2d and for a non-square, odd-sized conv2d input,
    pinned from the im2col and per-tap loop kernels."""

    @pytest.mark.parametrize(
        "shape, want",
        [
            ((2, 4, 8, 8), [
                "fdca9045bfca86ba3fcfaa7e8b3661fd04663222b81c1e2fc83e92ed16bd3009",
                "3c7da24f39483dbe6192cc731f7462df646a970fcebdc12e1dda50d06290fd4f",
                "f1145a8cc84319f9d434f16f5f3980f5506a46857ae7f5b468b4f6972712cf1b",
                "0a745e2d067a2f01791fe612e4c639ce271999ef0c721b254ad07a061097e2eb",
            ]),
            ((2, 3, 7, 5), [
                "1d8801b24fd7458c03e4da709a2443ce957adb29c653a7ffd739854da4040735",
                "92af08a19555082a02a076cad801e4820ffec553d145af2b59185f5f6f8da5b1",
                "ca69a47cc1f41db8a397e4845f59dfeaf3b8df33b937733a75798c77a5224db3",
                "388ee02c3ff1d83fd723efdaf84c7f9f33a0c835270aabca1d679fda89c55a2c",
            ]),
        ],
    )
    def test_dwconv2d(self, shape, want):
        c = shape[1]
        x, w, b = dyadic(shape, 1), dyadic((c, 3, 3), 2), dyadic((c,), 3)
        assert probed_digests(ad.dwconv2d(x, w, b), x, w, b) == want

    @pytest.mark.parametrize(
        "stride, want",
        [
            (1, [
                "4cfd9df216c0320d53cbb102e49b0f26197bfbe228001d2201bff1911c57582b",
                "b4136bb929138f5cb255055ef1591cad6007dde120a52086410b63900aef391f",
                "38b1decf5276e98993b011b5e4f87cd25f7381a3d8362b4099563a4971de0189",
                "d5c94bf668fc1a0e786614be77937c20140ccfc6080af7fdd26b60370aba3625",
            ]),
            (2, [
                "50e6c761bb5bc22393d02c41d24cdd0bfb77e8e982fd13a5fb4d64296eaccb3a",
                "b4320bc1d7cb24fd94b3f0580843e16bec51ddb6cc2c4e9fbde1b4cd40b70a39",
                "e2fc3b2bc6cde27eb8c5bebe0a8b52349bd622efc155a24cf953619833811397",
                "515ba2a0d75f8d1eaef0211175bcd20643d22deed15c57d416bd1370d4706050",
            ]),
        ],
    )
    def test_conv2d_non_square(self, stride, want):
        x, w, b = dyadic((2, 3, 7, 5), 1), dyadic((4, 3, 3, 3), 2), dyadic((4,), 3)
        assert probed_digests(ad.conv2d(x, w, b, stride), x, w, b) == want


class TestConvDtype:
    """float32 in, float32 out: a buffer made at numpy's default float64
    would double a convolution's memory and time without failing any digest."""

    @pytest.mark.parametrize("kernel, stride, depthwise", [
        (1, 1, False), (1, 2, False), (3, 1, False), (3, 2, False), (3, 1, True),
    ])
    def test_float32_output_and_gradients(self, kernel, stride, depthwise):
        x = dyadic((2, 4, 7, 6), 1)
        if depthwise:
            w, b = dyadic((4, 3, 3), 2), dyadic((4,), 3)
            y = ad.dwconv2d(x, w, b)
        else:
            w, b = dyadic((5, 4, kernel, kernel), 2), dyadic((5,), 3)
            y = ad.conv2d(x, w, b, stride)
        grads = y._backward(dyadic(y.data.shape, 4).data)
        assert [a.dtype for a in (y.data, *grads)] == [np.float32] * 4


def naive_conv(x, w, b, g, stride, pad, depthwise):
    """Output and x/w/b gradients for output gradient ``g``, one output pixel
    at a time, in float64.  Depthwise weights are (C, k, k)."""
    bs, _, h, wd = x.shape
    k = w.shape[-1]
    oh, ow = g.shape[2], g.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = np.zeros(g.shape)
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for n in range(bs):
        for r in range(oh):
            for c in range(ow):
                rows = np.s_[n, :, r * stride : r * stride + k, c * stride : c * stride + k]
                win = xp[rows]
                if depthwise:
                    y[n, :, r, c] = (win * w).sum(axis=(1, 2)) + b
                    dw += g[n, :, r, c, None, None] * win
                    dxp[rows] += g[n, :, r, c, None, None] * w
                else:
                    y[n, :, r, c] = np.tensordot(w, win, 3) + b
                    dw += g[n, :, r, c, None, None, None] * win
                    dxp[rows] += np.tensordot(g[n, :, r, c], w, 1)
    return y, dxp[:, :, pad : pad + h, pad : pad + wd], dw, g.sum(axis=(0, 2, 3))


@st.composite
def conv_cases(draw, depthwise):
    k = draw(st.sampled_from([3] if depthwise else [1, 3]))
    stride = 1 if depthwise else draw(st.sampled_from([1, 2]))
    pad = k // 2  # the padding conv2d and dwconv2d apply
    h = draw(st.integers(1, 9))
    wd = draw(st.integers(1, 9).filter(lambda v: v != h))
    bs, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    o = c if depthwise else draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return k, stride, pad, (bs, c, h, wd), o, seed


class TestConvAgainstNaiveLoop:
    """conv2d, dwconv2d and their gradients equal a per-output-pixel loop."""

    def check(self, case, depthwise):
        k, stride, pad, shape, o, seed = case
        r = np.random.default_rng(seed)
        wshape = (o, k, k) if depthwise else (o, shape[1], k, k)
        x, w, b = (Tensor(r.standard_normal(s), requires_grad=True) for s in (shape, wshape, (o,)))
        y = ad.dwconv2d(x, w, b) if depthwise else ad.conv2d(x, w, b, stride)
        g = r.standard_normal(y.data.shape)
        x.grad, w.grad, b.grad = y._backward(g)
        want = naive_conv(x.data, w.data, b.data, g, stride, pad, depthwise)
        for got, ref in zip((y.data, x.grad, w.grad, b.grad), want):
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=conv_cases(depthwise=False))
    def test_conv2d(self, case):
        self.check(case, depthwise=False)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=conv_cases(depthwise=True))
    def test_dwconv2d(self, case):
        self.check(case, depthwise=True)


class TestMeanAndLoss:
    def test_mean_gradient_is_one_over_n(self):
        x = T((4, 8))
        out = ad.mean_all(x)
        out.backward()
        assert np.allclose(x.grad, 1.0 / 32, rtol=0, atol=0)

    def test_l1_zero_at_equality(self):
        a = rng.random((3, 3))
        assert float(loss_l1(Tensor(a), Tensor(a.copy())).data) == 0.0

    def test_l1_constant_offset(self):
        a = rng.random((5, 5)) * 0.5
        v = float(loss_l1(Tensor(a + 0.1), Tensor(a)).data)
        assert abs(v - 0.1) < 1e-12

    def test_l1_matches_scalar_loop_oracle(self):
        for _ in range(5):
            a = rng.standard_normal((4, 6, 3))
            b = rng.standard_normal((4, 6, 3))
            got = float(loss_l1(Tensor(a), Tensor(b)).data)
            acc = 0.0
            for v1, v2 in zip(a.ravel(), b.ravel()):
                acc += abs(v1 - v2)
            assert abs(got - acc / a.size) < 1e-12

    def test_l1_gradient_is_sign_over_n(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.5, 2.0], [2.0, 4.5]])  # one tie at (0,1)
        pred = Tensor(a, requires_grad=True)
        loss = loss_l1(pred, Tensor(b))
        loss.backward()
        want = np.sign(a - b) / a.size  # subgradient 0 at the tie
        assert np.array_equal(pred.grad, want)

    def test_l1_shape_mismatch(self):
        with pytest.raises(ValidationError):
            loss_l1(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


class TestBackward:
    def test_non_scalar_root_rejected(self):
        x = T((3, 3))
        y = ad.relu(x)
        with pytest.raises(ValidationError, match="scalar"):
            y.backward()

    def test_grad_accumulates_through_fanout(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # d/dx (x^2 + x) = 2x + 1 = 5
        y.backward()
        assert float(x.grad) == 5.0

    @pytest.mark.parametrize("op,want_a,want_b", [
        (ad.add, [2.0, 4.0], [1.0, 2.0]),
        (ad.sub, [2.0, 4.0], [-1.0, -2.0]),
        (lambda a, b: ad.concat([a, b]), [1.5, 3.0], [0.5, 1.0]),
    ])
    def test_no_two_tensors_share_a_gradient_buffer(self, op, want_a, want_b):
        # add, sub and concat hand on their output gradient or views of it; a
        # also reaches the root past op(a, b), so a shared buffer would take
        # a's second gradient into b's or into op's output gradient.  The
        # leaves are one-channel (1, 1, 1, 2) images; concat joins channels.
        a = Tensor(np.array([1.0, 2.0]).reshape(1, 1, 1, 2), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]).reshape(1, 1, 1, 2), requires_grad=True)
        joined = op(a, b)
        y = ad.add(joined, a)
        ad.mean_all(ad.mul(y, Tensor(np.array([2.0, 4.0]).reshape(1, 1, 1, 2)))).backward()
        assert a.grad.shape == b.grad.shape == (1, 1, 1, 2)
        assert np.array_equal(a.grad.ravel(), want_a) and np.array_equal(b.grad.ravel(), want_b)
        # the interior gradients are released by backward, so the values above
        # are what would show a buffer shared along the way; the leaves' own
        # buffers must still be apart
        assert joined.grad is None and y.grad is None
        assert not np.shares_memory(a.grad, b.grad)

    @pytest.mark.parametrize("pool_first", [True, False])
    def test_one_pixel_pool_gradient_takes_a_second_gradient(self, pool_first):
        # spatial_mean's gradient of a 1x1 input is a read-only broadcast view;
        # whichever of x's two uses backward reaches first, x.grad must be an
        # array of its own that the other use's gradient can be added into
        leaf = Tensor(np.array([[[[1.0]], [[2.0]]]]), requires_grad=True)
        x = ad.relu(leaf)
        pooled, passed = ad.spatial_mean(x), ad.relu(x)
        ad.mean_all(ad.add(pooled, passed) if pool_first else ad.add(passed, pooled)).backward()
        assert np.array_equal(leaf.grad, np.ones((1, 2, 1, 1)))
        assert leaf.grad.flags.writeable

    def test_graph_reusable_after_grad_reset(self):
        x = T((2, 2))
        for _ in range(2):
            loss = ad.mean_all(ad.mul(x, x))
            x.grad = None
            loss.backward()
        assert np.allclose(x.grad, 2 * x.data / 4)

    def test_no_node_when_no_input_requires_grad(self):
        x, w, dw, b = (Tensor(rng.standard_normal(s)) for s in ((1, 2, 4, 4), (2, 2, 3, 3), (2, 3, 3), (2,)))
        h = ad.conv2d(x, w, b)
        outs = [h, ad.dwconv2d(h, dw, b), ad.relu(h), ad.sigmoid(h), ad.clamp01(h), ad.absval(h),
                ad.mean_all(h), ad.add(h, x), ad.sub(h, x), ad.mul(h, x), ad.concat([h, x]),
                ad.upsample2x(h), ad.spatial_mean(h), loss_l1(h, x)]
        for y in outs:
            assert y._backward is None and y._parents == () and not y.requires_grad

    def test_inference_beside_a_training_thread(self):
        # a forward on one thread and a loss built and backpropagated on
        # another give what each gives alone
        weights = init_weights(MINIATURE, seed=4, head_zero=False, dtype=np.float64)
        x = rng.uniform(0.2, 0.8, (2, MINIATURE.in_channels, 8, 8))
        target = rng.uniform(0.2, 0.8, x.shape)

        def grads():
            params = build_params(weights, MINIATURE)
            loss_l1(graph_forward(params, MINIATURE, Tensor(x)), Tensor(target)).backward()
            return [params[n].grad for n in sorted(params)]

        jobs = {"infer": lambda: forward(weights, MINIATURE, x), "train": grads}
        want = {key: job() for key, job in jobs.items()}
        got = {}
        start = threading.Barrier(2)

        def run(key):
            start.wait(5)
            got[key] = [jobs[key]() for _ in range(4)]

        workers = [threading.Thread(target=run, args=(key,)) for key in jobs]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
        assert not any(w.is_alive() for w in workers)
        assert all(np.array_equal(out, want["infer"]) for out in got["infer"])
        for grads_run in got["train"]:
            assert all(np.array_equal(g, h) for g, h in zip(grads_run, want["train"], strict=True))


def traced_train_step():
    """Bytes held after a width-4 forward and loss (batch 2 x 32², float32),
    the peak during its backward, and the bytes held after it with the loss
    still referenced, all above what was held before the forward; and the
    bytes of the leaf gradients."""
    net = NetConfig(base_width=4)
    params = build_params(init_weights(net, 3, head_zero=False), net, dtype=np.float32)
    x = rng.uniform(0.2, 0.8, (2, net.in_channels, 32, 32)).astype(np.float32)
    target = rng.uniform(0.2, 0.8, x.shape).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = loss_l1(graph_forward(params, net, Tensor(x)), Tensor(target))
        forward_held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    leaf_bytes = sum(p.grad.nbytes for p in params.values())
    return forward_held, peak - base, held - base, leaf_bytes


class TestTapeRelease:
    """backward frees each node once its own backward has run."""

    def test_backward_peak_stays_near_the_forward_footprint(self):
        forward_held, peak, _, _ = traced_train_step()
        assert peak <= 1.15 * forward_held, (peak, forward_held)

    def test_only_leaf_gradients_outlive_backward(self):
        _, _, held, leaf_bytes = traced_train_step()
        assert held <= leaf_bytes + 0.25 * 2**20, (held, leaf_bytes)

    def test_interior_nodes_released_and_leaves_keep_their_gradients(self):
        params = build_params(init_weights(MINIATURE, seed=4, head_zero=False), MINIATURE)
        x = rng.uniform(0.2, 0.8, (2, MINIATURE.in_channels, 8, 8))
        loss = loss_l1(graph_forward(params, MINIATURE, Tensor(x)), Tensor(x))
        interior, stack = {}, [loss]  # every node reached from the root that has a backward
        while stack:
            node = stack.pop()
            if node._backward is not None and id(node) not in interior:
                interior[id(node)] = node
                stack.extend(node._parents)
        assert len(interior) > 20
        loss.backward()
        for node in interior.values():
            assert node._backward is None and node._parents == ()
            assert node.grad is None or node is loss
        grads = {name: p.grad.copy() for name, p in params.items()}
        loss.backward()
        assert all(np.array_equal(params[name].grad, g) for name, g in grads.items())
