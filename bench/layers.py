"""Which marsdust functions the traced run wraps, and the per-layer metrics
computed from their spans.

Span names are ``<layer>.<row>``.  Self times are summed per name; counters
(bytes, octave pixels, convolution flops, graph nodes) are taken from each
call's arguments and result after the call returns, outside the span.
"""

from __future__ import annotations

import os
from pathlib import Path

from marsdust import degrade, metrics, noise, pngio, raster, restore
from marsdust.tinynet import autodiff
from marsdust.tinynet.model import forward
from marsdust.tinynet.train import AdamW
from marsdust.tinynet.weights import load_weights, save_weights

from tracer import Tracer

ELEMENTWISE_OPS = (
    "add", "sub", "mul", "relu", "sigmoid", "clamp01", "absval", "mean_all",
    "concat", "upsample2x", "spatial_mean",
)

# name -> unit, in report order.  Rows whose span never ran read 0.
PER_LAYER_UNITS = {
    "pngio.decode_filtered_s": "s",
    "pngio.decode_filtered_mb": "MB",
    "pngio.decode_plain_s": "s",
    "pngio.decode_plain_mb": "MB",
    "pngio.encode_s": "s",
    "pngio.encode_mb": "MB",
    "pngio.compress_ratio": "ratio",
    "raster.images_built": "count",
    "raster.validate_s": "s",
    "raster.quantize_s": "s",
    "raster.dequantize_s": "s",
    "noise.perlin2d_s": "s",
    "noise.octave_mpix": "Mpix",
    "noise.octave_mpix_per_s": "Mpix/s",
    "degrade.synthesize_s": "s",
    "degrade.transmission_s": "s",
    "degrade.reflexivity_s": "s",
    "degrade.patch_select_s": "s",
    "degrade.manifest_io_s": "s",
    "restore.transmission_est_s": "s",
    "restore.invert_s": "s",
    "metrics.dust_index_s": "s",
    "metrics.dust_index_calls": "count",
    "metrics.dark_channel_s": "s",
    "metrics.ssim_s": "s",
    "metrics.psnr_s": "s",
    "tinynet.conv2d_fwd_s": "s",
    "tinynet.conv2d_bwd_s": "s",
    "tinynet.dwconv2d_fwd_s": "s",
    "tinynet.dwconv2d_bwd_s": "s",
    "tinynet.elementwise_s": "s",
    "tinynet.backward_other_s": "s",
    "tinynet.adamw_step_s": "s",
    "tinynet.conv_gflop": "GFLOP",
    "tinynet.gflop_per_s": "GFLOP/s",
    "tinynet.forward_peak_mib": "MiB",
    "tinynet.infer_graph_nodes": "count",
    "tinynet.weights_io_s": "s",
    "cli.thread_busy_ratio": "ratio",
    "cli.thread_cpu_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

_CONV_ROWS = ("tinynet.conv2d_fwd", "tinynet.conv2d_bwd",
              "tinynet.dwconv2d_fwd", "tinynet.dwconv2d_bwd")


def install(tracer: Tracer, foreign_paths: set[str]) -> None:
    """Wrap every traced function; ``foreign_paths`` are the resolved paths of
    PNGs written with per-row filters, whose decodes count as filtered."""

    def decode_name(args, kwargs):
        path = args[0] if args else kwargs["path"]
        filtered = str(Path(path).resolve()) in foreign_paths
        return "pngio.decode_filtered" if filtered else "pngio.decode_plain"

    def after_decode(name, args, kwargs, result):
        tracer.count(f"{name}_mb", result[0].nbytes / 1e6)

    def after_encode(name, args, kwargs, result):
        path, samples, depth = args
        tracer.count("pngio.encode_mb", samples.size * (depth // 8) / 1e6)
        tracer.count("pngio.encode_file_mb", os.path.getsize(path) / 1e6)

    def after_perlin(name, args, kwargs, result):
        params = args[0]
        tracer.count("noise.octave_mpix", params.octaves * result.values.size / 1e6)

    def in_inference() -> bool:
        return any(span.name == "tinynet.forward" for span in tracer.stack())

    def after_op(name, args, kwargs, out):
        if out._backward is not None and in_inference():
            tracer.count("tinynet.infer_graph_nodes")

    def after_conv(name, args, kwargs, out):
        x, w = args[0], args[1]
        batch, out_c, oh, ow = out.data.shape
        taps = 1
        for dim in w.data.shape[1:]:  # conv2d: (C, kh, kw); dwconv2d: (kh, kw)
            taps *= dim
        gflop = 2.0 * batch * out_c * oh * ow * taps / 1e9
        tracer.count("tinynet.conv_gflop", gflop)
        if out._backward is not None:
            # dx and dw each cost about one forward pass.
            bw_gflop = gflop * (int(x.requires_grad) + int(w.requires_grad))
            out._backward = tracer.timed(
                out._backward,
                name.replace("_fwd", "_bwd"),
                lambda *_: tracer.count("tinynet.conv_gflop", bw_gflop),
            )
        after_op(name, args, kwargs, out)

    patch = tracer.patch_function
    patch(pngio.read_png, decode_name, after_decode)
    patch(pngio.write_png, "pngio.encode", after_encode)
    tracer.patch_method(raster.Image, "__post_init__", "raster.validate")
    patch(raster.load_image, "raster.dequantize")
    patch(raster.save_image, "raster.quantize")
    patch(noise.perlin2d, "noise.perlin2d", after_perlin)
    patch(degrade.synthesize_dusty, "degrade.synthesize")
    patch(degrade.make_transmission, "degrade.transmission")
    patch(degrade.estimate_reflexivity, "degrade.reflexivity")
    patch(degrade.estimate_atmospheric_light, "degrade.reflexivity")
    patch(degrade.auto_select_dusty_patches, "degrade.patch_select")
    for attr in ("save", "load", "by_dusty_name"):
        tracer.patch_method(degrade.DatasetManifest, attr, "degrade.manifest_io")
    patch(restore.estimate_transmission, "restore.transmission_est")
    patch(restore.invert_degradation, "restore.invert")
    patch(metrics.dust_index, "metrics.dust_index")
    patch(metrics.dark_channel, "metrics.dark_channel")
    patch(metrics.ssim, "metrics.ssim")
    patch(metrics.psnr, "metrics.psnr")
    patch(autodiff.conv2d, "tinynet.conv2d_fwd", after_conv)
    patch(autodiff.dwconv2d, "tinynet.dwconv2d_fwd", after_conv)
    for op in ELEMENTWISE_OPS:
        patch(getattr(autodiff, op), "tinynet.elementwise", after_op)
    tracer.patch_method(autodiff.Tensor, "backward", "tinynet.backward")
    tracer.patch_method(AdamW, "step", "tinynet.adamw_step")
    patch(forward, "tinynet.forward")
    patch(load_weights, "tinynet.weights_io")
    patch(save_weights, "tinynet.weights_io")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer rows of one traced pass (trace.overhead_ratio, forward peak
    memory and set-up weight writes are filled in by the caller)."""
    sec = tracer.self_seconds()
    calls = tracer.calls()
    count = tracer.counters
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in PER_LAYER_UNITS:
        if name.endswith("_s") and name[:-2] in sec:
            out[name] = sec[name[:-2]]
    for name in ("pngio.decode_filtered_mb", "pngio.decode_plain_mb", "pngio.encode_mb",
                 "noise.octave_mpix", "tinynet.conv_gflop", "tinynet.infer_graph_nodes"):
        out[name] = count.get(name, 0.0)
    if count.get("pngio.encode_file_mb"):
        out["pngio.compress_ratio"] = count["pngio.encode_mb"] / count["pngio.encode_file_mb"]
    if out["noise.perlin2d_s"]:
        out["noise.octave_mpix_per_s"] = out["noise.octave_mpix"] / out["noise.perlin2d_s"]
    conv_s = sum(sec.get(row, 0.0) for row in _CONV_ROWS)
    if conv_s:
        out["tinynet.gflop_per_s"] = out["tinynet.conv_gflop"] / conv_s
    out["raster.images_built"] = calls.get("raster.validate", 0)
    out["metrics.dust_index_calls"] = calls.get("metrics.dust_index", 0)
    out["tinynet.backward_other_s"] = sec.get("tinynet.backward", 0.0)
    out["tinynet.weights_io_s"] = sec.get("tinynet.weights_io", 0.0)
    out["cli.thread_busy_ratio"], out["cli.thread_cpu_ratio"] = tracer.pool_ratios()
    out["trace.coverage"] = tracer.coverage()
    return out
