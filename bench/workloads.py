"""The three benchmark workloads: inputs, one pass through the CLI, and the
checks on its outputs.

Every pass calls ``marsdust.cli.run(argv)`` in this process, one stage after
another, exactly as a user would type the commands.  A stage that takes
``--jobs`` runs with ``--jobs 2``; ``train`` is single-threaded by contract.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
import traceback
from pathlib import Path

import numpy as np

from marsdust import cli, restore
from marsdust.degrade import estimate_reflexivity, generate_pairs
from marsdust.noise import sample_params
from marsdust.pngio import read_png
from marsdust.raster import save_image
from marsdust.rng import mix64
from marsdust.tinynet import NetConfig, init_weights, save_weights

from corpus import make_clean_image, make_dust_patches, write_filtered_png

JOBS = 2


class Checks:
    """Operations attempted and failed: CLI stages, output checks, input checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    """Shared pass machinery; subclasses define inputs, stages and checks."""

    name = ""
    stage_jobs: dict[str, int] = {}
    # Per-layer time rows that must read above zero in every traced pass.
    expected_rows: tuple[str, ...] = ()

    def __init__(self, root: Path, seed: int, checks: Checks):
        self.root = root
        self.seed = seed
        self.checks = checks
        self.inputs = root / "inputs"
        self.out = root / "out"
        self.foreign_paths: set[str] = set()
        # Share of rows per PNG filter type in each foreign frame.
        self.filter_share: dict[str, dict[str, float]] = {}
        self.tracer = None
        self._first_digest: str | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def validate_inputs(self) -> None:
        """Checks on the generated inputs, made once per run outside set-up."""

    def stages(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check_pass(self) -> None:
        raise NotImplementedError

    def rates(self, walls: dict[str, float]) -> dict[str, float]:
        raise NotImplementedError

    def run_stage(self, name: str, argv: list[str]) -> float:
        jobs = self.stage_jobs.get(name, 1)
        if jobs > 1:
            argv = argv + ["--jobs", str(jobs)]
        if self.tracer is not None:
            self.tracer.begin_stage(name, jobs)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(argv)
        except Exception:  # an uncaught crash is a failed stage, not a dead benchmark
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end_stage()
        self.checks.expect(code == 0, f"{self.name}: {name} exited with {code}")
        return wall

    def run_pass(self) -> dict[str, float]:
        """One whole pass; returns stage walls plus ``pass_s``."""
        fresh_dir(self.out)
        stages = self.stages()
        walls = {}
        start = time.perf_counter()
        for name, argv in stages:
            walls[name] = self.run_stage(name, argv)
        walls["pass_s"] = time.perf_counter() - start
        self.check_pass()
        return walls

    def same_as_first(self, value: str, what: str) -> None:
        if self._first_digest is None:
            self._first_digest = value
        self.checks.expect(value == self._first_digest, f"{self.name}: {what} changed between passes")


def _mpix(n_images: int, size: int) -> float:
    return n_images * size * size / 1e6


class Dataset(Workload):
    """Clean 512^2 PNGs -> estimate-phi -> synth (16-bit) -> remove analytic-known."""

    name = "dataset"
    stage_jobs = {"synth": JOBS, "remove_known": JOBS}
    expected_rows = (
        "pngio.decode_plain_s", "pngio.encode_s", "raster.validate_s", "raster.quantize_s",
        "raster.dequantize_s", "noise.perlin2d_s", "degrade.synthesize_s",
        "degrade.transmission_s", "degrade.reflexivity_s", "degrade.manifest_io_s",
        "restore.invert_s",
    )
    n_clean = 2
    size = 512
    maps = 7

    def synth_seed(self) -> int:
        """The first of the seeds ``mix64(workload seed, k)``, k = 0, 1, ...,
        whose maps draw 3.5 Perlin octaves on average, the mean of the default
        2..5 range.

        Perlin cost is linear in the octave count, which ``synth`` draws per
        map from its seed (``generate_pairs``: map seeds
        ``mix64(mix64(seed, i), j + 1)``).  Holding the total fixed keeps the
        work of a pass the same for every workload seed while the maps
        themselves still change with it.
        """
        target = self.n_clean * self.maps * 7 // 2
        k = 0
        while True:
            seed = mix64(self.seed, k)
            octaves = sum(sample_params(mix64(mix64(seed, i), j + 1)).octaves
                          for i in range(self.n_clean) for j in range(self.maps))
            if octaves == target:
                return seed
            k += 1

    def setup(self):
        clean = fresh_dir(self.inputs / "clean")
        patches = fresh_dir(self.inputs / "patches")
        for i in range(self.n_clean):
            img = make_clean_image(mix64(self.seed, i), self.size, self.size)
            save_image(img, clean / f"clean_{i:03d}.png", 8)
        for k, patch in enumerate(make_dust_patches(mix64(self.seed, 99))):
            save_image(patch, patches / f"patch_{k:02d}.png", 8)

    def stages(self):
        o, i = self.out, self.inputs
        return [
            ("estimate_phi", ["estimate-phi", "--patches", str(i / "patches"),
                              "--out", str(o / "phi.json")]),
            ("synth", ["synth", "--clean", str(i / "clean"), "--phi", str(o / "phi.json"),
                       "--maps", str(self.maps), "--out", str(o / "dusty"),
                       "--manifest", str(o / "pairs.jsonl"), "--seed", str(self.synth_seed())]),
            ("remove_known", ["remove", "--in", str(o / "dusty"), "--method", "analytic-known",
                              "--manifest", str(o / "pairs.jsonl"),
                              "--out", str(o / "restored")]),
        ]

    def check_pass(self):
        manifest = self.out / "pairs.jsonl"
        records = []
        if manifest.is_file():
            records = [json.loads(line) for line in manifest.read_text().splitlines() if line]
        self.checks.expect(len(records) == self.n_clean * self.maps,
                           f"dataset: manifest has {len(records)} records")
        for rec in records:
            restored = self.out / "restored" / Path(rec["dusty"]).name
            self.checks.expect(
                restored.is_file() and restored.read_bytes() == Path(rec["clean"]).read_bytes(),
                f"dataset: {restored.name} is not byte-equal to its clean source",
            )
        self.same_as_first(digest((self.out / "dusty").glob("*.png")), "dusty-file digest")

    def rates(self, walls):
        n = _mpix(self.n_clean * self.maps, self.size)
        return {"synth.mpix_per_s": n / walls["synth"],
                "remove_known.mpix_per_s": n / walls["remove_known"]}


class Training(Workload):
    """128^2 pairs (acceptance-fixture image size and net) -> train."""

    name = "training"
    stage_jobs = {}
    expected_rows = (
        "pngio.decode_plain_s", "raster.dequantize_s", "raster.validate_s",
        "degrade.manifest_io_s", "tinynet.conv2d_fwd_s", "tinynet.conv2d_bwd_s",
        "tinynet.dwconv2d_fwd_s", "tinynet.dwconv2d_bwd_s", "tinynet.elementwise_s",
        "tinynet.backward_other_s", "tinynet.adamw_step_s", "tinynet.weights_io_s",
    )
    n_clean = 8
    maps = 2
    size = 128
    epochs = 1
    batch = 8

    def setup(self):
        clean = fresh_dir(self.inputs / "clean")
        for i in range(self.n_clean):
            img = make_clean_image(mix64(self.seed, i), self.size, self.size)
            save_image(img, clean / f"clean_{i:03d}.png", 8)
        phi = estimate_reflexivity(make_dust_patches(mix64(self.seed, 99)))
        manifest = generate_pairs(clean, phi, maps_per_image=self.maps, seed=self.seed,
                                  out_dir=fresh_dir(self.inputs / "dusty"))
        manifest.save(self.inputs / "pairs.jsonl")

    def stages(self):
        return [
            ("train", ["train", "--manifest", str(self.inputs / "pairs.jsonl"),
                       "--patch", "64", "--batch", str(self.batch), "--width", "8",
                       "--lr", "1e-4", "--epochs", str(self.epochs),
                       "--out", str(self.out / "model.mdw"), "--seed", str(self.seed)]),
        ]

    def samples(self) -> int:
        report = json.loads((self.out / "model.report.json").read_text())
        cfg = report["train_config"]
        steps = math.ceil(self.n_clean * self.maps * cfg["patches_per_image"] / cfg["batch"])
        return cfg["epochs"] * steps * cfg["batch"]

    def check_pass(self):
        report = self.out / "model.report.json"
        losses = json.loads(report.read_text())["epoch_losses"] if report.is_file() else []
        self.checks.expect(len(losses) == self.epochs and all(map(math.isfinite, losses)),
                           f"training: epoch losses {losses}")
        weights = self.out / "model.mdw"
        self.same_as_first(digest([weights]) if weights.is_file() else "", "weights file")

    def rates(self, walls):
        return {"train.samples_per_s": self.samples() / walls["train"]}


class RestoreForeign(Workload):
    """Per-row filtered 8-bit 256^2 frames -> remove analytic-est -> remove
    learned -> eval of dusty, est and learned against clean."""

    name = "restore-foreign"
    stage_jobs = {"remove_est": JOBS, "remove_learned": JOBS, "eval": JOBS}
    expected_rows = (
        "pngio.decode_filtered_s", "pngio.decode_plain_s", "pngio.encode_s",
        "raster.validate_s", "raster.quantize_s", "raster.dequantize_s",
        "degrade.reflexivity_s", "degrade.patch_select_s", "degrade.manifest_io_s",
        "restore.transmission_est_s", "restore.invert_s", "metrics.dust_index_s",
        "metrics.dark_channel_s", "metrics.ssim_s", "metrics.psnr_s",
        "tinynet.conv2d_fwd_s", "tinynet.dwconv2d_fwd_s", "tinynet.elementwise_s",
        "tinynet.weights_io_s",
    )
    n_frames = 2
    # 256^2, not 512^2: with libpng's filter choice nearly every row is
    # Average or Paeth, and decoding those costs about 7 s per 512^2 frame
    # when two threads share the interpreter lock.
    size = 256
    sets = ("dusty", "est", "learned")

    def setup(self):
        clean_dir = fresh_dir(self.inputs / "clean")
        for i in range(self.n_frames):
            img = make_clean_image(mix64(self.seed, i), self.size, self.size)
            save_image(img, clean_dir / f"frame_{i:03d}.png", 8)
        phi = estimate_reflexivity(make_dust_patches(mix64(self.seed, 99)))
        manifest = generate_pairs(clean_dir, phi, maps_per_image=1, bit_depth=8, seed=self.seed,
                                  out_dir=fresh_dir(self.inputs / "dusty"))
        manifest.save(self.inputs / "pairs.jsonl")
        # Re-encode each dusty frame in place, same samples, libpng's filters.
        self.sources = {}
        for rec in manifest.records:
            path = Path(rec.dusty)
            samples, _ = read_png(path)
            filters = write_filtered_png(path, samples)
            self.sources[path] = samples
            self.filter_share[path.name] = {
                kind: float(np.mean(filters == ftype))
                for ftype, kind in enumerate(("none", "sub", "up", "average", "paeth"))
            }
        self.foreign_paths = {str(p.resolve()) for p in self.sources}
        weights = init_weights(NetConfig(base_width=8), mix64(self.seed, 7), head_zero=False)
        save_weights(weights, self.inputs / "model.mdw")

    def validate_inputs(self):
        for path, samples in self.sources.items():
            decoded, depth = read_png(path)
            self.checks.expect(depth == 8 and np.array_equal(decoded, samples),
                               f"restore-foreign: read_png does not reproduce {path.name}")

    def stages(self):
        i, o = self.inputs, self.out
        sets = ",".join(f"{s}={self._set_dir(s)}" for s in self.sets)
        return [
            ("remove_est", ["remove", "--in", str(i / "dusty"), "--method", "analytic-est",
                            "--out", str(o / "est")]),
            ("remove_learned", ["remove", "--in", str(i / "dusty"), "--method", "learned",
                                "--weights", str(i / "model.mdw"), "--out", str(o / "learned")]),
            ("eval", ["eval", "--sets", sets, "--pairs", str(i / "pairs.jsonl"),
                      "--out", str(o / "report.json")]),
        ]

    def run_pass(self):
        # Each ``remove`` command is a fresh process that reads the weights
        # file; drop the in-process model cache so every pass does too.
        restore._load_model.cache_clear()
        return super().run_pass()

    def _set_dir(self, label: str) -> Path:
        return self.inputs / "dusty" if label == "dusty" else self.out / label

    def check_pass(self):
        path = self.out / "report.json"
        report = json.loads(path.read_text()) if path.is_file() else {"sets": [], "rows": []}
        # Rows are counted here because the JSON report omits skipped images.
        for label in self.sets:
            rows = [r for r in report["rows"] if r["set"] == label]
            self.checks.expect(len(rows) == self.n_frames,
                               f"restore-foreign: set {label} has {len(rows)} rows")
        psnr = {s["label"]: s.get("psnr_mean") for s in report["sets"]}
        self.checks.expect(
            psnr.get("est") is not None and psnr.get("dusty") is not None
            and _as_float(psnr["est"]) > _as_float(psnr["dusty"]),
            f"restore-foreign: est PSNR does not beat dusty PSNR ({psnr})",
        )
        self.same_as_first(digest((self.out / "learned").glob("*.png")), "learned outputs")

    def rates(self, walls):
        n = _mpix(self.n_frames, self.size)
        return {"remove_est.mpix_per_s": n / walls["remove_est"],
                "remove_learned.mpix_per_s": n / walls["remove_learned"],
                "eval.mpix_per_s": len(self.sets) * n / walls["eval"]}


def _as_float(value) -> float:
    return math.inf if value == "inf" else float(value)


WORKLOADS = {cls.name: cls for cls in (Dataset, Training, RestoreForeign)}
