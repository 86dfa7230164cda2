"""Finite-difference gradient oracle for the network, with kink conditioning.

Central differences are only a valid derivative oracle where the function is
smooth across the probe step, so before checking we nudge each convolution's
per-channel biases (walking layers in forward order) until no ReLU
pre-activation sits within a margin of its kink at the probe point.  The
probe input lives well inside (0, 1) and the final projection is scaled down
so the output clamp stays interior too.
"""

import numpy as np

from marsdust.tinynet import NetConfig, Tensor, build_params, graph_forward, init_weights
from marsdust.tinynet import autodiff as ad

MINIATURE = NetConfig(in_channels=2, base_width=4, ddsc_modules=2, ddsc_layers=2, growth=4)

KINK_MARGIN = 0.02
FD_STEP = 1e-3


def build_conditioned_net(cfg: NetConfig, seed: int, x: np.ndarray):
    """Float64 params at a probe point with all ReLU kinks cleared by MARGIN."""
    weights = init_weights(cfg, seed, head_zero=False, dtype=np.float64)
    weights["head.w"] = weights["head.w"] * 0.05
    params = build_params(weights, cfg, dtype=np.float64)

    def probe():
        internals = {}
        graph_forward(params, cfg, Tensor(x), internals=internals)
        return internals

    gate_names = {f"ddsc{m}.{g}2" for m in range(cfg.ddsc_modules) for g in ("ca", "pa")}
    relu_layers = [
        k[4:] for k in probe() if k.startswith("pre.") and k[4:] not in gate_names and k[4:] != "head"
    ]
    for name in relu_layers:
        z = probe()[f"pre.{name}"].data
        bias = params[f"{name}.b"].data
        for c in range(z.shape[1]):
            vals = z[:, c].ravel()
            if np.min(np.abs(vals)) >= KINK_MARGIN:
                continue
            best_d, best_m = 0.0, float(np.min(np.abs(vals)))
            for d in np.linspace(-0.06, 0.06, 121):
                m = float(np.min(np.abs(vals + d)))
                if m > best_m:
                    best_m, best_d = m, d
            bias[c] += best_d
    return params


def fd_full_gradient_check(cfg: NetConfig, params, x: np.ndarray, target: np.ndarray,
                           step: float = FD_STEP):
    """Max over all parameters of |analytic - numeric| / max(|a|, |n|, 1e-8)."""

    def loss_fn():
        out = graph_forward(params, cfg, Tensor(x))
        diff = ad.sub(out, Tensor(target))
        return ad.mean_all(ad.mul(diff, diff))

    loss = loss_fn()
    for p in params.values():
        p.grad = None
    loss.backward()

    worst = 0.0
    for name in sorted(params):
        p = params[name]
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1) if p.grad is not None else np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = float(loss_fn().data)
            flat[i] = orig - step
            lm = float(loss_fn().data)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * step)
            rel = abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
