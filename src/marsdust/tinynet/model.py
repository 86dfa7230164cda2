"""Encoder-decoder restoration network.

Layout, in order: a 3x3 stem, two stride-2 3x3 downsampling convolutions,
three densely connected depthwise-separable blocks each followed by a
channel-then-pixel attention gate, two nearest-neighbour x2 upsamplings each
followed by a channel-halving 3x3 convolution, and a final 3x3 projection
back to the input channel count.  The output is the global residual
clamp(input + prediction, 0, 1), so an all-zero prediction leaves the image
untouched.  ReLU follows every convolution except the gate outputs
(logistic) and the final projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class NetConfig:
    in_channels: int = 3
    base_width: int = 16
    ddsc_modules: int = 3
    ddsc_layers: int = 4
    growth: int = 16

    def __post_init__(self):
        for name in ("in_channels", "base_width", "ddsc_modules", "ddsc_layers", "growth"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")


def param_shapes(cfg: NetConfig) -> dict[str, tuple]:
    """Name -> shape table, in layer order; the single source of truth for the layer layout."""
    cin, b = cfg.in_channels, cfg.base_width
    f, r = 4 * b, max(1, 4 * b // 8)  # bottleneck and attention widths
    shapes = {}

    def conv(name, out_c, in_c, k):
        shapes[f"{name}.w"] = (out_c, in_c, k, k)
        shapes[f"{name}.b"] = (out_c,)

    conv("stem", b, cin, 3)
    conv("down1", 2 * b, b, 3)
    conv("down2", f, 2 * b, 3)
    for m in range(cfg.ddsc_modules):
        for l in range(cfg.ddsc_layers):
            c_in = f + l * cfg.growth
            shapes[f"ddsc{m}.l{l}.dw.w"] = (c_in, 3, 3)
            shapes[f"ddsc{m}.l{l}.dw.b"] = (c_in,)
            conv(f"ddsc{m}.l{l}.pw", cfg.growth, c_in, 1)
        conv(f"ddsc{m}.fuse", f, f + cfg.ddsc_layers * cfg.growth, 1)
        conv(f"ddsc{m}.ca1", r, f, 1)
        conv(f"ddsc{m}.ca2", f, r, 1)
        conv(f"ddsc{m}.pa1", r, f, 1)
        conv(f"ddsc{m}.pa2", 1, r, 1)
    conv("up1", 2 * b, f, 3)
    conv("up2", b, 2 * b, 3)
    conv("head", cin, b, 3)
    return shapes


def init_weights(
    cfg: NetConfig, seed: int, head_zero: bool = True, dtype=np.float32
) -> dict[str, np.ndarray]:
    """He-normal weights, zero biases; optionally a zeroed final projection so
    the residual network starts as the identity while gradients still flow."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tensors = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".b"):
            tensors[name] = np.zeros(shape, dtype=dtype)
            continue
        std = np.sqrt(2.0 / np.prod(shape[1:]))  # He-normal over the fan-in
        arr = rng.normal(0.0, std, size=shape)
        if head_zero and name == "head.w":
            arr = np.zeros(shape)
        tensors[name] = arr.astype(dtype)
    return tensors


def _check_weights(weights: dict[str, np.ndarray], cfg: NetConfig) -> None:
    """Raise ValidationError unless ``weights`` holds exactly cfg's names and shapes."""
    expected = param_shapes(cfg)
    missing = [n for n in expected if n not in weights]
    extra = [n for n in weights if n not in expected]
    if missing or extra:
        raise ValidationError(
            f"weights do not match config: missing {missing[:3]}, unexpected {extra[:3]}"
        )
    for name, shape in expected.items():
        if tuple(weights[name].shape) != shape:
            raise ValidationError(
                f"weight {name} has shape {tuple(weights[name].shape)}, config expects {shape}"
            )


def build_params(weights: dict[str, np.ndarray], cfg: NetConfig, dtype=None) -> dict[str, Tensor]:
    """Copy weight arrays into trainable tensors, validating names and shapes."""
    _check_weights(weights, cfg)
    return {n: Tensor(np.array(arr, dtype=dtype), requires_grad=True) for n, arr in weights.items()}


def graph_forward(
    params: dict[str, Tensor], cfg: NetConfig, x: Tensor, internals: dict | None = None
) -> Tensor:
    """Differentiable forward pass; ``internals`` collects gate tensors for tests."""
    if x.data.ndim != 4 or x.data.shape[1] != cfg.in_channels:
        raise ValidationError(
            f"input must be (B, {cfg.in_channels}, H, W), got {x.data.shape}"
        )
    if x.data.shape[2] % 4 or x.data.shape[3] % 4:
        raise ValidationError(
            f"spatial dims must be divisible by 4, got {x.data.shape[2]}x{x.data.shape[3]}"
        )

    def conv(name, t, stride=1, act=ad.relu):
        """Layer ``name`` (depthwise when its weight has rank 3), then ``act`` unless None."""
        w, b = params[f"{name}.w"], params[f"{name}.b"]
        out = ad.dwconv2d(t, w, b) if w.data.ndim == 3 else ad.conv2d(t, w, b, stride=stride)
        if internals is not None:
            internals[f"pre.{name}"] = out
        return out if act is None else act(out)

    h = conv("stem", x)
    h = conv("down1", h, stride=2)
    h = conv("down2", h, stride=2)

    for m in range(cfg.ddsc_modules):
        feats = [h]
        for l in range(cfg.ddsc_layers):
            t = conv(f"ddsc{m}.l{l}.dw", feats[0] if l == 0 else ad.concat(feats))
            feats.append(conv(f"ddsc{m}.l{l}.pw", t))
        fused = conv(f"ddsc{m}.fuse", ad.concat(feats))
        # channel gate, then pixel gate
        s = conv(f"ddsc{m}.ca2", conv(f"ddsc{m}.ca1", ad.spatial_mean(fused)), act=ad.sigmoid)
        gated = ad.mul(fused, s)
        p = conv(f"ddsc{m}.pa2", conv(f"ddsc{m}.pa1", gated), act=ad.sigmoid)
        h = ad.mul(gated, p)
        if internals is not None:
            internals[f"ddsc{m}.channel_gate"] = s
            internals[f"ddsc{m}.pixel_gate"] = p

    h = conv("up1", ad.upsample2x(h))
    h = conv("up2", ad.upsample2x(h))
    pred = conv("head", h, act=None)
    if internals is not None:
        internals["prediction"] = pred
    return ad.clamp01(ad.add(x, pred))


def forward(weights: dict[str, np.ndarray], cfg: NetConfig, x: np.ndarray) -> np.ndarray:
    """Inference in float32, the weights' own dtype: numpy (B, C, H, W) in and out, no graph."""
    _check_weights(weights, cfg)
    params = {name: Tensor(np.asarray(arr, dtype=np.float32)) for name, arr in weights.items()}
    return graph_forward(params, cfg, Tensor(np.asarray(x, dtype=np.float32))).data


def infer_config(weights: dict[str, np.ndarray]) -> NetConfig:
    """Reconstruct the architecture from weight names and shapes."""
    for name in ("stem.w", "ddsc0.l0.pw.w"):  # the sizes are read from these
        if name not in weights or weights[name].ndim != 4:
            raise ValidationError(f"weights are missing expected tensor {name!r} (rank 4)")
    cfg = NetConfig(
        in_channels=weights["stem.w"].shape[1],
        base_width=weights["stem.w"].shape[0],
        ddsc_modules=len({n.split(".")[0] for n in weights if n.startswith("ddsc")}),
        ddsc_layers=len({n.split(".")[1] for n in weights if n.startswith("ddsc0.l")}),
        growth=weights["ddsc0.l0.pw.w"].shape[0],
    )
    _check_weights(weights, cfg)  # validates the full table
    return cfg
