"""Supervised training: AdamW on mean-absolute-error over random patches.

Every source of randomness (epoch shuffling, patch offsets, augmentation,
weight init) is keyed off the config seed, so equal seeds give byte-identical
weights files.  Training math runs in float32; weights are float32 on disk.

The weights are one dict of float32 arrays from init to save.  Each batch
is cut into ``SHARDS`` fixed shards, with BLAS on one thread: the caller
runs the first while a worker process, spawned once and reused by every
``train`` call, runs the second; their gradients are summed in shard order
into the dict AdamW steps on.  The shards fix every reduction order, so
the weights are the same at any core count and BLAS thread count.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..atomic import check_file_output, write_atomic
from ..blas import blas_name, one_blas_thread
from ..degrade import DatasetManifest
from ..errors import MarsdustError, ValidationError
from ..raster import load_image
from ..rng import mix64
from . import autodiff as ad
from .autodiff import Tensor
from .model import NetConfig, graph_forward, init_weights
from .weights import save_weights

logger = logging.getLogger(__name__)

_INIT_SALT = 0x57E16B7
# Share of samples fed clean -> clean, anchoring "no dust, no change".
_IDENTITY_FRACTION = 0.1
# AdamW's moment decays, denominator guard and decoupled weight decay.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
WEIGHT_DECAY = 0.01
# Pieces each batch is split into, one for the caller and one for the worker.
# A constant, not a setting: the shards set the summation order and so the weights.
SHARDS = 2


@dataclass(frozen=True)
class TrainConfig:
    patch: int = 64
    batch: int = 8
    lr: float = 1e-4
    epochs: int = 30
    seed: int = 0
    patches_per_image: int = 8  # draws per record per epoch; sets the epoch length

    def __post_init__(self):
        if self.patch < 4 or self.patch % 4:
            raise ValidationError(f"patch must be a multiple of 4 and >= 4, got {self.patch}")
        if self.batch < 1:
            raise ValidationError(f"batch must be >= 1, got {self.batch}")
        if not 0 < self.lr < math.inf:
            raise ValidationError(f"lr must be finite and > 0, got {self.lr}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.patches_per_image < 1:
            raise ValidationError("patches_per_image must be >= 1")


@dataclass
class TrainReport:
    train_config: dict
    net_config: dict
    epoch_losses: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    samples_per_s: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    loss_quartiles: list[list[float]] = field(default_factory=list)
    seconds: float = 0.0
    host: dict = field(default_factory=dict)


class AdamW:
    """Decoupled weight decay Adam on a dict of arrays, which ``step``
    updates in place in sorted name order."""

    def __init__(self, params: dict[str, np.ndarray], lr):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros_like(p) for n, p in params.items()}
        self.v = {n: np.zeros_like(p) for n, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]):
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name in sorted(self.params):
            p, g, m, v = self.params[name], grads[name], self.m[name], self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p -= self.lr * (update + WEIGHT_DECAY * p)


def _load_pairs(manifest: DatasetManifest, patch: int, channels: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(clean, dusty) CHW float32 pairs; records that share a clean path share its one array."""
    to_chw = lambda path: np.moveaxis(load_image(path).data, 2, 0).astype(np.float32)
    cleans, pairs = {}, []
    for rec in manifest.records:
        if rec.clean not in cleans:
            cleans[rec.clean] = to_chw(rec.clean)
        clean, dusty = cleans[rec.clean], to_chw(rec.dusty)
        if clean.shape != dusty.shape:
            raise ValidationError(f"pair shape mismatch for {rec.dusty}")
        c, h, w = clean.shape
        if c != channels:
            raise ValidationError(f"{rec.dusty} is a {c}-channel pair; the network takes {channels} channels")
        if w < patch or h < patch:
            raise ValidationError(f"patch {patch} larger than image {w}x{h} ({rec.clean})")
        pairs.append((clean, dusty))
    return pairs


def _augment_chw(arr: np.ndarray, rot: int, flip: bool) -> np.ndarray:
    out = np.rot90(arr, rot, axes=(1, 2))
    return out[:, :, ::-1] if flip else out


def _draw_batch(pairs, cfg: TrainConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One (B, C, patch, patch) batch of augmented dusty inputs and clean targets."""
    xs, ys = [], []
    for _ in range(cfg.batch):
        clean, dusty = pairs[int(rng.integers(0, len(pairs)))]
        _, h, w = clean.shape
        x0 = int(rng.integers(0, w - cfg.patch + 1))
        y0 = int(rng.integers(0, h - cfg.patch + 1))
        rot = int(rng.integers(0, 4))
        flip = bool(rng.integers(0, 2))
        if rng.random() < _IDENTITY_FRACTION:
            dusty = clean  # identity anchor: dust-free input must pass through
        sl = np.s_[:, y0 : y0 + cfg.patch, x0 : x0 + cfg.patch]
        xs.append(_augment_chw(dusty[sl], rot, flip))
        ys.append(_augment_chw(clean[sl], rot, flip))
    return np.stack(xs), np.stack(ys)


def _shard_step(params: dict[str, np.ndarray], net: NetConfig, x: np.ndarray, y: np.ndarray):
    """Loss and parameter gradients of one shard.  The shard wraps the
    parameter arrays in Tensors of its own, so no two shards accumulate into
    one ``.grad``; the arrays are only read until every shard has returned."""
    own = {name: Tensor(a, requires_grad=True) for name, a in params.items()}
    loss = ad.loss_l1(graph_forward(own, net, Tensor(x)), Tensor(y))
    loss.backward()
    return float(loss.data), {name: t.grad for name, t in own.items()}


def _worker_step(*args):
    with one_blas_thread():
        return _shard_step(*args)


@functools.cache
def _shard_pool():
    """The worker for shard 1: one spawned process, started at the first
    submit and kept for later ``train`` calls until interpreter exit, since
    the interpreter lock holds two threads to about 1.3 cores."""
    return ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn"))


def report_path(out_path) -> Path:
    """The JSON report ``train`` writes next to the weights file ``out_path``."""
    return Path(out_path).with_suffix(".report.json")


def train(
    cfg: TrainConfig, net: NetConfig, manifest: DatasetManifest, out_path
) -> TrainReport:
    """Train on manifest pairs and write the weights file plus a JSON report
    (``report_path(out_path)``)."""
    if not manifest.records:
        raise ValidationError("manifest is empty; nothing to train on")
    check_file_output(out_path, "the weights file")  # both outputs, before any pair loads
    check_file_output(report_path(out_path), "the training report")
    t0 = time.monotonic()
    pairs = _load_pairs(manifest, cfg.patch, net.in_channels)
    params = dict(sorted(init_weights(net, mix64(cfg.seed, _INIT_SALT), head_zero=True).items()))
    opt = AdamW(params, cfg.lr)
    steps = math.ceil(len(pairs) * cfg.patches_per_image / cfg.batch)
    cut = -(-cfg.batch // SHARDS)  # x[:cut] on the caller, x[cut:] on the worker
    shares = [cut / cfg.batch, (cfg.batch - cut) / cfg.batch]

    report = TrainReport(train_config=asdict(cfg), net_config=asdict(net))
    with one_blas_thread() as previous:
        report.host = {"cpu_count": os.cpu_count(), "numpy": np.__version__, "blas": blas_name(),
                       "blas_threads": None if previous is None else 1}
        for epoch in range(cfg.epochs):
            t_epoch = time.monotonic()
            rng = np.random.Generator(np.random.PCG64(mix64(cfg.seed, epoch)))
            losses, norms = [], []
            for _ in range(steps):
                x, y = _draw_batch(pairs, cfg, rng)
                try:
                    rest = ([_shard_pool().submit(_worker_step, params, net, x[cut:], y[cut:])]
                            if cut < cfg.batch else [])
                    results = [_shard_step(params, net, x[:cut], y[:cut])] + [f.result() for f in rest]
                except BrokenExecutor:
                    _shard_pool.cache_clear()  # the next call starts a fresh worker
                    raise MarsdustError("the training worker process died") from None
                # batch means: each shard's mean weighted by its share, summed in shard order
                grads = {n: sum(share * g[n] for share, (_, g) in zip(shares, results)) for n in params}
                # global L2 norm of the batch gradient, summed in parameter-name order
                norms.append(math.sqrt(sum(float(np.square(g, dtype=np.float64).sum()) for g in grads.values())))
                opt.step(grads)
                losses.append(sum(share * shard_loss for share, (shard_loss, _) in zip(shares, results)))
            epoch_loss = math.fsum(losses) / len(losses)
            wall = time.monotonic() - t_epoch
            report.epoch_losses.append(epoch_loss)
            report.epoch_seconds.append(wall)
            report.samples_per_s.append(steps * cfg.batch / wall)
            report.grad_norms.append(math.fsum(norms) / len(norms))
            report.loss_quartiles.append(np.percentile(losses, [25, 50, 75]).tolist())
            logger.info("epoch %d/%d: loss %.6f", epoch + 1, cfg.epochs, epoch_loss)

    save_weights(params, out_path)
    report.seconds = time.monotonic() - t0
    text = json.dumps(asdict(report), indent=2) + "\n"
    write_atomic(report_path(out_path), [text.encode()])
    return report
