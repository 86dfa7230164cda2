import ctypes
import hashlib
import importlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import marsdust
from marsdust.cli import run
from marsdust.degrade import DatasetManifest, estimate_reflexivity, generate_pairs
from marsdust.errors import ValidationError
from marsdust.raster import save_image
from marsdust.tinynet import AdamW, NetConfig, TrainConfig, init_weights, train
from marsdust.tinynet.train import WEIGHT_DECAY

from conftest import make_clean_image, make_dust_patches

TINY_NET = NetConfig(base_width=4, ddsc_modules=1, ddsc_layers=2, growth=4)
# the package re-exports the function train, which hides its module
train_module = importlib.import_module("marsdust.tinynet.train")

# sha256 of the .mdw that test_weights_at_batch_are_the_recorded_bytes
# trains, recorded while shard 1 still ran in a forked process.  Float32 sums
# round per numpy build and OpenBLAS kernel, so they hold on RECORDED_HOST only.
RECORDED_HOST = ("2.4.6", "SkylakeX")
RECORDED_SHA256 = {
    3: "e8acbe09457b90cd6002506ad99c90a54645e054a3590b61bf9f377e0ae4d04f",
    4: "abb63c8c63aba1aaafa09da903333fbe05e21f4d8c727af041fe86ddde4b572c",
}


def _openblas_core():
    """The name of the kernel numpy's OpenBLAS picked on this CPU, or None."""
    for path in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


def _fails_in_worker(*args):
    # module level, so the spawned worker can import it by name
    raise ValidationError("failed in the worker")


def _worker_pid() -> int:
    return train_module._shard_pool().submit(os.getpid).result(timeout=60)


# One train call in a fresh Python, which then prints its worker's pid.
_TRAIN_AND_PRINT_WORKER_PID = """
import os, sys
from marsdust.degrade import DatasetManifest
from marsdust.tinynet import NetConfig, TrainConfig, train
from marsdust.tinynet.train import _shard_pool

cfg = TrainConfig(patch=32, batch=2, epochs=1, patches_per_image=1)
train(cfg, NetConfig(base_width=4), DatasetManifest.load(sys.argv[1]), sys.argv[2])
print(_shard_pool().submit(os.getpid).result(timeout=60))
"""


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinytrain")
    clean = root / "clean"
    clean.mkdir()
    for i in range(4):
        save_image(make_clean_image(700 + i, 40, 40), clean / f"c{i}.png", 8)
    phi = estimate_reflexivity(make_dust_patches(3))
    return generate_pairs(clean, phi, maps_per_image=1, seed=21, out_dir=root / "dusty")


class TestTrainConfig:
    def test_paper_scale_echo(self):
        # the published recipe remains expressible
        cfg = TrainConfig(patch=512, batch=8, lr=1e-4, epochs=180, seed=0)
        assert (cfg.patch, cfg.batch, cfg.lr, cfg.epochs) == (512, 8, 1e-4, 180)

    def test_patch_divisibility(self):
        with pytest.raises(ValidationError):
            TrainConfig(patch=30)

    def test_lr_positive(self):
        with pytest.raises(ValidationError):
            TrainConfig(lr=0.0)


class TestAdamW:
    def test_single_step_matches_hand_computation(self):
        p = np.array([1.0, -2.0])
        opt = AdamW({"p": p}, lr=0.01)
        opt.step({"p": np.array([0.5, -0.25])})
        g = np.array([0.5, -0.25])
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        want = np.array([1.0, -2.0]) - 0.01 * (m_hat / (np.sqrt(v_hat) + 1e-8) + 0.01 * np.array([1.0, -2.0]))
        assert np.allclose(p, want, rtol=0, atol=1e-15)

    def test_decoupled_decay_moves_params_without_grad_history(self):
        p = np.array([4.0])
        opt = AdamW({"p": p}, lr=0.1)
        opt.step({"p": np.array([0.0])})
        assert p[0] == pytest.approx(4.0 - 0.1 * WEIGHT_DECAY * 4.0)


class TestTraining:
    def test_run_produces_weights_report_and_decreasing_loss(self, tiny_manifest, tmp_path):
        out = tmp_path / "tiny.mdw"
        cfg = TrainConfig(patch=32, batch=2, lr=1e-3, epochs=3, seed=5, patches_per_image=4)
        report = train(cfg, TINY_NET, tiny_manifest, out)
        assert out.is_file()
        assert len(report.epoch_losses) == 3
        assert all(np.isfinite(v) for v in report.epoch_losses)
        payload = json.loads((tmp_path / "tiny.report.json").read_text())
        assert payload["train_config"]["lr"] == 1e-3
        assert payload["net_config"]["base_width"] == 4
        assert payload["epoch_losses"] == report.epoch_losses
        assert payload["epoch_seconds"] == report.epoch_seconds
        assert len(report.epoch_seconds) == 3 and all(t > 0 for t in report.epoch_seconds)
        assert sum(report.epoch_seconds) <= report.seconds

    def test_report_grad_norms_are_the_mean_norm_adamw_steps_on(self, tiny_manifest, tmp_path, monkeypatch):
        seen = []
        step = AdamW.step

        def spy(opt, grads):
            flat = np.concatenate([grads[n].ravel() for n in sorted(grads)]).astype(np.float64)
            seen.append(float(np.linalg.norm(flat)))
            step(opt, grads)

        monkeypatch.setattr(AdamW, "step", spy)
        cfg = TrainConfig(patch=32, batch=2, lr=1e-3, epochs=2, seed=5, patches_per_image=2)
        report = train(cfg, TINY_NET, tiny_manifest, tmp_path / "w.mdw")
        steps = math.ceil(len(tiny_manifest.records) * cfg.patches_per_image / cfg.batch)
        assert len(seen) == 2 * steps
        want = [np.mean(seen[:steps]), np.mean(seen[steps:])]
        assert report.grad_norms == pytest.approx(want, rel=1e-9)
        assert all(q1 <= q2 <= q3 for q1, q2, q3 in report.loss_quartiles)
        payload = json.loads((tmp_path / "w.report.json").read_text())
        assert payload["grad_norms"] == report.grad_norms
        assert payload["loss_quartiles"] == report.loss_quartiles

    def test_loss_quartiles_of_a_single_step_epoch(self, tiny_manifest, tmp_path):
        cfg = TrainConfig(patch=32, batch=8, lr=1e-3, epochs=1, seed=5, patches_per_image=2)  # 4 x 2 / 8
        report = train(cfg, TINY_NET, tiny_manifest, tmp_path / "w.mdw")
        assert report.loss_quartiles == [[report.epoch_losses[0]] * 3]

    def test_seeded_determinism_byte_identical(self, tiny_manifest, tmp_path):
        cfg = TrainConfig(patch=32, batch=2, lr=1e-3, epochs=2, seed=9, patches_per_image=2)
        p1, p2 = tmp_path / "a.mdw", tmp_path / "b.mdw"
        train(cfg, TINY_NET, tiny_manifest, p1)
        train(cfg, TINY_NET, tiny_manifest, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("batch", sorted(RECORDED_SHA256))
    def test_weights_at_batch_are_the_recorded_bytes(self, tiny_manifest, tmp_path, batch):
        # batch 3 cuts uneven shards (2 on the caller, 1 on the worker)
        host = (np.__version__, _openblas_core())
        if host != RECORDED_HOST:
            pytest.skip(f"digests recorded on numpy {RECORDED_HOST[0]} with OpenBLAS kernel "
                        f"{RECORDED_HOST[1]}; this host has {host}")
        cfg = TrainConfig(patch=32, batch=batch, lr=1e-3, epochs=2, seed=3, patches_per_image=2)
        train(cfg, TINY_NET, tiny_manifest, tmp_path / "w.mdw")
        assert hashlib.sha256((tmp_path / "w.mdw").read_bytes()).hexdigest() == RECORDED_SHA256[batch]

    def test_two_train_calls_in_one_process_use_one_worker(self, tiny_manifest, tmp_path):
        cfg = TrainConfig(patch=32, batch=2, lr=1e-3, epochs=1, seed=3, patches_per_image=2)
        report = train(cfg, TINY_NET, tiny_manifest, tmp_path / "a.mdw")
        first = _worker_pid()
        train(cfg, TINY_NET, tiny_manifest, tmp_path / "b.mdw")
        assert _worker_pid() == first != os.getpid()
        assert [p.pid for p in multiprocessing.active_children()] == [first]
        assert list(report.host) == ["cpu_count", "numpy", "blas", "blas_threads"]

    def test_failing_worker_raises_its_error_and_writes_no_weights(self, tiny_manifest, tmp_path, monkeypatch):
        monkeypatch.setattr(train_module, "_worker_step", _fails_in_worker)
        cfg = TrainConfig(patch=32, batch=2, lr=1e-3, epochs=1, seed=3, patches_per_image=2)
        with pytest.raises(ValidationError, match="failed in the worker"):
            train(cfg, TINY_NET, tiny_manifest, tmp_path / "w.mdw")
        assert not (tmp_path / "w.mdw").exists()
        assert not (tmp_path / "w.report.json").exists()

    def test_dead_worker_is_one_error_line_and_the_next_call_starts_a_fresh_one(
        self, tiny_manifest, tmp_path, monkeypatch, capsys
    ):
        tiny_manifest.save(tmp_path / "m.jsonl")
        argv = ["train", "--manifest", str(tmp_path / "m.jsonl"), "--patch", "32", "--batch", "2",
                "--epochs", "1", "--width", "4", "--seed", "3", "--out"]
        assert run(argv + [str(tmp_path / "undisturbed.mdw")]) == 0
        draw, steps, killed = train_module._draw_batch, [], []

        def kills_worker_at_step_2(*args):
            steps.append(args)
            if len(steps) == 2:
                worker = multiprocessing.active_children()[0]
                worker.kill()
                killed.append(worker.pid)
            return draw(*args)

        monkeypatch.setattr(train_module, "_draw_batch", kills_worker_at_step_2)
        capsys.readouterr()
        assert run(argv + [str(tmp_path / "killed.mdw")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("error: ") and "worker process died" in err
        assert not (tmp_path / "killed.mdw").exists() and not (tmp_path / "killed.report.json").exists()
        monkeypatch.undo()
        assert run(argv + [str(tmp_path / "next.mdw")]) == 0
        assert (tmp_path / "next.mdw").read_bytes() == (tmp_path / "undisturbed.mdw").read_bytes()
        assert len(killed) == 1 and _worker_pid() != killed[0]

    def test_worker_ends_with_the_python_that_started_it(self, tiny_manifest, tmp_path):
        tiny_manifest.save(tmp_path / "m.jsonl")
        src = str(Path(marsdust.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _TRAIN_AND_PRINT_WORKER_PID, str(tmp_path / "m.jsonl"),
                               str(tmp_path / "w.mdw")], env=env, capture_output=True, text=True, timeout=300,
                              check=True)
        assert (tmp_path / "w.mdw").is_file()
        # the worker is joined at interpreter exit, not left running
        with pytest.raises(ProcessLookupError):
            os.kill(int(done.stdout), 0)

    def test_batch_of_one_is_one_shard(self, tiny_manifest, tmp_path, monkeypatch):
        class NoSubmit(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                raise AssertionError("batch 1 reached the worker")

        monkeypatch.setattr(train_module, "_shard_pool", lambda: NoSubmit(max_workers=1))
        cfg = TrainConfig(patch=32, batch=1, lr=1e-3, epochs=1, seed=3, patches_per_image=2)
        report = train(cfg, TINY_NET, tiny_manifest, tmp_path / "w.mdw")
        assert len(report.epoch_losses) == 1 and np.isfinite(report.epoch_losses[0])

    def test_each_clean_image_is_decoded_once(self, tmp_path, monkeypatch):
        clean = tmp_path / "clean"
        clean.mkdir()
        for i in range(2):
            save_image(make_clean_image(710 + i, 40, 40), clean / f"c{i}.png", 8)
        phi = estimate_reflexivity(make_dust_patches(3))
        manifest = generate_pairs(clean, phi, maps_per_image=2, seed=21, out_dir=tmp_path / "dusty")
        loads = []
        load_image = train_module.load_image
        monkeypatch.setattr(train_module, "load_image", lambda path: loads.append(str(path)) or load_image(path))
        cfg = TrainConfig(patch=32, batch=2, lr=1e-3, epochs=1, seed=3, patches_per_image=1)
        train(cfg, TINY_NET, manifest, tmp_path / "w.mdw")
        assert len(manifest.records) == 4
        assert sorted(loads) == sorted({r.clean for r in manifest.records} | {r.dusty for r in manifest.records})

    def test_different_seed_different_weights(self, tiny_manifest, tmp_path):
        p1, p2 = tmp_path / "a.mdw", tmp_path / "b.mdw"
        train(TrainConfig(patch=32, batch=2, epochs=1, seed=1, patches_per_image=2), TINY_NET, tiny_manifest, p1)
        train(TrainConfig(patch=32, batch=2, epochs=1, seed=2, patches_per_image=2), TINY_NET, tiny_manifest, p2)
        assert p1.read_bytes() != p2.read_bytes()

    @pytest.mark.parametrize("taken", ["w.mdw", "w.report.json"])
    def test_an_output_that_is_a_directory_raises_before_any_pair_loads(
        self, tiny_manifest, tmp_path, monkeypatch, taken
    ):
        (tmp_path / taken).mkdir()
        loaded = []
        monkeypatch.setattr(train_module, "_load_pairs", lambda *a: loaded.append(a))
        cfg = TrainConfig(patch=32, batch=2, lr=1e-3, epochs=1, seed=3, patches_per_image=2)
        with pytest.raises(IsADirectoryError, match=taken):
            train(cfg, TINY_NET, tiny_manifest, tmp_path / "w.mdw")
        assert loaded == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken]

    def test_empty_manifest_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="empty"):
            train(TrainConfig(), TINY_NET, DatasetManifest([]), tmp_path / "x.mdw")

    def test_patch_larger_than_images_rejected(self, tiny_manifest, tmp_path):
        cfg = TrainConfig(patch=64, batch=2, epochs=1)  # images are 40x40
        with pytest.raises(ValidationError, match="larger than image"):
            train(cfg, TINY_NET, tiny_manifest, tmp_path / "x.mdw")


class TestShardMemory:
    # Bound from tracemalloc on numpy 2.4 / Python 3.11: this step peaks at
    # 25.43 MiB with batch-major phase planes and 1x1 convolutions that read
    # their input in place, and at 29.74 MiB with channel-major planes that
    # copied every input, 1x1 included.
    PEAK_MIB = 27.5

    def test_one_shard_step_peak(self):
        net = NetConfig(base_width=8)
        params = dict(sorted(init_weights(net, 5, head_zero=False).items()))
        r = np.random.default_rng(0)
        x, y = (r.uniform(0.1, 0.9, (4, 3, 64, 64)).astype(np.float32) for _ in range(2))
        tracemalloc.start()
        try:
            train_module._shard_step(params, net, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 <= self.PEAK_MIB, peak / 2**20
