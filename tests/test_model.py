import tracemalloc

import numpy as np
import pytest

from marsdust.errors import ValidationError
from marsdust.tinynet import (
    NetConfig,
    Tensor,
    build_params,
    forward,
    graph_forward,
    infer_config,
    init_weights,
    param_shapes,
)
from marsdust.tinynet import autodiff as ad

from gradcheck import MINIATURE


class TestConfig:
    def test_defaults_match_architecture_contract(self):
        cfg = NetConfig()
        assert cfg.ddsc_modules == 3
        assert [n for n in param_shapes(cfg) if n.startswith("down")] == [
            "down1.w", "down1.b", "down2.w", "down2.b",
        ]
        assert param_shapes(cfg)["down2.w"][0] == 64

    def test_counts_validated(self):
        with pytest.raises(ValidationError):
            NetConfig(base_width=0)


class TestShapes:
    def test_dense_connectivity_channel_law(self):
        # layer l of a block consumes module_input + l * growth channels
        cfg = NetConfig(base_width=8, growth=16, ddsc_layers=4)
        shapes = param_shapes(cfg)
        f = shapes["down2.w"][0]
        for m in range(cfg.ddsc_modules):
            for l in range(cfg.ddsc_layers):
                assert shapes[f"ddsc{m}.l{l}.dw.w"] == (f + l * 16, 3, 3)
                assert shapes[f"ddsc{m}.l{l}.pw.w"] == (16, f + l * 16, 1, 1)
            assert shapes[f"ddsc{m}.fuse.w"] == (f, f + 4 * 16, 1, 1)

    def test_channel_path(self):
        cfg = NetConfig(base_width=8)
        shapes = param_shapes(cfg)
        assert shapes["stem.w"][:2] == (8, 3)
        assert shapes["down1.w"][:2] == (16, 8)
        assert shapes["down2.w"][:2] == (32, 16)
        assert shapes["up1.w"][:2] == (16, 32)
        assert shapes["up2.w"][:2] == (8, 16)
        assert shapes["head.w"][:2] == (3, 8)

    @pytest.mark.parametrize("h,w", [(8, 8), (16, 12), (64, 32)])
    def test_forward_preserves_spatial_dims(self, h, w):
        cfg = NetConfig(in_channels=3, base_width=4, ddsc_modules=1, ddsc_layers=2, growth=4)
        weights = init_weights(cfg, seed=1, head_zero=False)
        x = np.random.default_rng(0).uniform(0.2, 0.8, (2, 3, h, w))
        out = forward(weights, cfg, x)
        assert out.shape == x.shape

    def test_indivisible_dims_rejected(self):
        cfg = NetConfig(base_width=4, ddsc_modules=1, ddsc_layers=1, growth=4)
        weights = init_weights(cfg, seed=1)
        with pytest.raises(ValidationError, match="divisible"):
            forward(weights, cfg, np.zeros((1, 3, 10, 8)))

    def test_channel_mismatch_rejected(self):
        cfg = NetConfig(base_width=4, ddsc_modules=1, ddsc_layers=1, growth=4)
        weights = init_weights(cfg, seed=1)
        with pytest.raises(ValidationError):
            forward(weights, cfg, np.zeros((1, 1, 8, 8)))

    def test_weights_shape_mismatch_rejected(self):
        cfg = NetConfig(base_width=4, ddsc_modules=1, ddsc_layers=1, growth=4)
        weights = init_weights(cfg, seed=1)
        weights["stem.w"] = np.zeros((5, 3, 3, 3), dtype=np.float32)
        with pytest.raises(ValidationError, match="stem.w"):
            build_params(weights, cfg)


class TestForwardSemantics:
    def test_zero_weights_with_residual_is_identity(self):
        cfg = NetConfig(base_width=4, ddsc_modules=1, ddsc_layers=1, growth=4)
        weights = init_weights(cfg, seed=0, head_zero=True)
        for name in weights:
            weights[name] = np.zeros_like(weights[name])
        x = np.random.default_rng(1).uniform(0, 1, (1, 3, 8, 8)).astype(np.float32)
        out = forward(weights, cfg, x)
        assert np.array_equal(out, x)

    def test_head_zero_init_starts_as_identity(self):
        cfg = NetConfig(base_width=4, ddsc_modules=1, ddsc_layers=2, growth=4)
        weights = init_weights(cfg, seed=3, head_zero=True)
        x = np.random.default_rng(2).uniform(0, 1, (1, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(forward(weights, cfg, x), x)

    def test_attention_gates_in_open_unit_interval(self):
        cfg = MINIATURE
        weights = init_weights(cfg, seed=5, head_zero=False)
        params = build_params(weights, cfg, dtype=np.float64)
        x = np.random.default_rng(3).uniform(0.2, 0.8, (2, cfg.in_channels, 8, 8))
        internals = {}
        graph_forward(params, cfg, Tensor(x), internals=internals)
        for m in range(cfg.ddsc_modules):
            for key in (f"ddsc{m}.channel_gate", f"ddsc{m}.pixel_gate"):
                g = internals[key].data
                assert g.min() > 0.0 and g.max() < 1.0

    def test_internals_hold_every_convolution_in_forward_order(self):
        # pre.<name> is layer name's output before its ReLU or logistic, for
        # every weight of param_shapes, the gate outputs ca2 and pa2 included
        cfg = MINIATURE
        params = build_params(init_weights(cfg, seed=8, head_zero=False), cfg, dtype=np.float64)
        internals = {}
        graph_forward(params, cfg, Tensor(np.full((1, cfg.in_channels, 8, 8), 0.5)), internals=internals)
        shapes = param_shapes(cfg)
        convs = [name[:-2] for name in shapes if name.endswith(".w")]
        assert [key[4:] for key in internals if key.startswith("pre.")] == convs
        for name in convs:
            assert internals[f"pre.{name}"].data.shape[1] == shapes[f"{name}.b"][0]

    def test_output_always_in_unit_interval(self):
        cfg = MINIATURE
        weights = init_weights(cfg, seed=6, head_zero=False)
        x = np.random.default_rng(4).uniform(0, 1, (1, cfg.in_channels, 8, 8))
        out = forward(weights, cfg, x)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_forward_records_no_graph_node(self, monkeypatch):
        made = []
        node = ad._node
        monkeypatch.setattr(ad, "_node", lambda *args: made.append(node(*args)) or made[-1])
        weights = init_weights(MINIATURE, seed=7, head_zero=False)
        forward(weights, MINIATURE, np.full((1, MINIATURE.in_channels, 8, 8), 0.5))
        assert len(made) > 50
        assert not any(t.requires_grad or t._backward is not None or t._parents for t in made)


class TestFloat32Inference:
    """Inference runs in float32, the dtype the weights are trained and stored in."""

    def test_output_is_float32_and_close_to_float64(self):
        weights = init_weights(MINIATURE, seed=11, head_zero=False)
        x = np.random.default_rng(12).uniform(0.2, 0.8, (2, MINIATURE.in_channels, 16, 16))
        x = x.astype(np.float32)
        out = forward(weights, MINIATURE, x)
        ref = graph_forward(build_params(weights, MINIATURE, dtype=np.float64), MINIATURE,
                            Tensor(x.astype(np.float64))).data
        assert out.dtype == np.float32
        # measured max |delta| 3.5e-8, under one float32 step at 0.5
        assert np.abs(out - ref).max() < 1e-6

    def test_forward_peak_memory_is_float32_sized(self):
        # tracemalloc peak of this forward: 20.2 MiB in float32, 42.3 MiB when
        # weights and input were up-cast to float64; the bound is the midpoint
        cfg = NetConfig(base_width=8)
        weights = init_weights(cfg, seed=13, head_zero=False)
        x = np.random.default_rng(14).uniform(0, 1, (1, 3, 256, 256)).astype(np.float32)
        tracemalloc.start()
        try:
            forward(weights, cfg, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 31.25 * 2**20, peak / 2**20


class TestInferConfig:
    def test_roundtrip(self):
        cfg = NetConfig(in_channels=3, base_width=8, ddsc_modules=2, ddsc_layers=3, growth=8)
        weights = init_weights(cfg, seed=9)
        got = infer_config(weights)
        assert got == cfg

    def test_missing_tensor_rejected(self):
        cfg = NetConfig(base_width=4, ddsc_modules=1, ddsc_layers=1, growth=4)
        weights = init_weights(cfg, seed=9)
        del weights["stem.w"]
        with pytest.raises(ValidationError, match="missing expected tensor 'stem.w'"):
            infer_config(weights)

    @pytest.mark.parametrize("name, shape", [("stem.w", (4,)), ("ddsc0.l0.pw.w", ())])
    def test_size_tensor_of_low_rank_rejected(self, name, shape):
        cfg = NetConfig(base_width=4, ddsc_modules=1, ddsc_layers=1, growth=4)
        weights = init_weights(cfg, seed=9)
        weights[name] = np.zeros(shape, np.float32)
        with pytest.raises(ValidationError, match=f"missing expected tensor '{name}'"):
            infer_config(weights)


class TestGradient:
    def test_full_network_matches_finite_differences(self, full_network_gradcheck):
        # the central numerical property, on the miniature config
        worst = full_network_gradcheck["worst"]
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
