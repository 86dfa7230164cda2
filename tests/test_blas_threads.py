"""BLAS thread count: inside every --jobs map and every training run,
OpenBLAS runs on one thread, so learned removal gives the same bytes whatever
its pool size, and training writes the same weights at any
OPENBLAS_NUM_THREADS."""

import ctypes
import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import marsdust
from marsdust import blas
from marsdust.blas import blas_name, map_in_order, one_blas_thread
from marsdust.cli import run
from marsdust.degrade import estimate_reflexivity, generate_pairs
from marsdust.raster import Image, save_image
from marsdust.tinynet import NetConfig, init_weights, save_weights

from conftest import make_clean_image, make_dust_patches

FRAMES = ((132, 260), (256, 256), (384, 512))

# Learned removal of FRAMES inside one_blas_thread; prints the count it
# replaced and the sha256 of each float64 output.
_SCRIPT = f"""
import hashlib, json
import numpy as np
from marsdust.blas import one_blas_thread
from marsdust.raster import Image
from marsdust.restore import remove_learned
from marsdust.tinynet import NetConfig, init_weights

cfg = NetConfig(base_width=8)
model = (init_weights(cfg, seed=5, head_zero=False), cfg)
rng = np.random.Generator(np.random.PCG64(9))
digests = {{}}
with one_blas_thread() as previous:
    for h, w in {FRAMES!r}:
        out = remove_learned(Image(rng.random((h, w, 3))), model)
        digests[f"{{h}}x{{w}}"] = hashlib.sha256(out.data.tobytes()).hexdigest()
print(json.dumps({{"previous": previous, "digests": digests}}))
"""


def _env(threads: int) -> dict:
    src = str(Path(marsdust.__file__).parent.parent)
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _learned_digests(threads: int) -> dict:
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=_env(threads), capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def test_learned_forward_same_bytes_at_one_and_two_blas_threads():
    one, two = _learned_digests(1), _learned_digests(2)
    if one["previous"] is None:
        pytest.skip(f"no OpenBLAS thread control found; numpy's BLAS is {blas_name()}")
    assert list(one["digests"]) == [f"{h}x{w}" for h, w in FRAMES]
    assert one["digests"] == two["digests"]


def test_remove_learned_same_png_bytes_at_any_jobs(tmp_path):
    cfg = NetConfig(base_width=8)
    weights = tmp_path / "w.mdw"
    save_weights(init_weights(cfg, seed=5, head_zero=False), weights)
    frames = tmp_path / "in"
    frames.mkdir()
    rng = np.random.Generator(np.random.PCG64(4))
    for i, (h, w) in enumerate(FRAMES):
        save_image(Image(rng.random((h, w, 3))), frames / f"f{i}.png", 8)
    outs = []
    for jobs in ("1", "2"):
        outs.append(tmp_path / f"r{jobs}")
        assert run(["remove", "--in", str(frames), "--method", "learned", "--weights", str(weights),
                    "--out", str(outs[-1]), "--jobs", jobs]) == 0
    pngs = [sorted(out.glob("*.png")) for out in outs]
    assert [p.name for p in pngs[0]] == [p.name for p in pngs[1]] == ["f0.png", "f1.png", "f2.png"]
    assert [p.read_bytes() for p in pngs[0]] == [p.read_bytes() for p in pngs[1]]


def test_train_same_weights_at_one_two_and_four_blas_threads(tmp_path):
    with one_blas_thread() as previous:
        if previous is None:
            pytest.skip(f"no OpenBLAS thread control found; numpy's BLAS is {blas_name()}")
    clean = tmp_path / "clean"
    clean.mkdir()
    for i in range(4):
        save_image(make_clean_image(600 + i), clean / f"c{i}.png", 8)  # 128x128 terrain
    phi = estimate_reflexivity(make_dust_patches(3))
    generate_pairs(clean, phi, maps_per_image=2, seed=7, out_dir=tmp_path / "dusty").save(tmp_path / "m.jsonl")
    weights = {}
    for threads in (1, 2, 4):  # more threads than cores is fine: only the split changes
        out = tmp_path / f"w{threads}.mdw"
        subprocess.run([sys.executable, "-m", "marsdust.cli", "train", "--manifest", str(tmp_path / "m.jsonl"),
                        "--epochs", "2", "--seed", "7", "--out", str(out)],
                       env=_env(threads), capture_output=True, check=True)
        weights[threads] = out.read_bytes()
    assert weights[1] == weights[2] == weights[4]


class _FakeOpenBLAS:
    """Stands in for the shared library: a thread count behind get and set."""

    threads = 4

    def __init__(self, path):
        def get():
            return _FakeOpenBLAS.threads

        def set_(n):
            _FakeOpenBLAS.threads = n

        self.openblas_get_num_threads, self.openblas_set_num_threads = get, set_


@pytest.fixture
def fake_openblas(tmp_path, monkeypatch):
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy.libs").mkdir()
    (tmp_path / "numpy.libs" / "libopenblas-0123.so").touch()
    monkeypatch.setattr(blas.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    monkeypatch.setattr(ctypes, "CDLL", _FakeOpenBLAS)
    monkeypatch.setattr(_FakeOpenBLAS, "threads", 4)
    return _FakeOpenBLAS


def test_previous_count_restored_after_normal_exit(fake_openblas):
    with one_blas_thread() as previous:
        assert (previous, fake_openblas.threads) == (4, 1)
    assert fake_openblas.threads == 4


def test_previous_count_restored_after_exception(fake_openblas):
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            assert fake_openblas.threads == 1
            raise RuntimeError
    assert fake_openblas.threads == 4


def test_no_openblas_runs_the_block_and_logs_the_blas(fake_openblas, monkeypatch, caplog):
    def unloadable(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    with caplog.at_level(logging.DEBUG, logger="marsdust.cli"):
        with one_blas_thread() as previous:
            assert previous is None
    assert fake_openblas.threads == 4
    assert [r.getMessage() for r in caplog.records] == [
        f"no OpenBLAS thread control in numpy's libraries (BLAS: {blas_name()})"
    ]


def test_real_openblas_count_restored():
    with one_blas_thread() as outer:
        if outer is None:
            pytest.skip(f"no OpenBLAS thread control found; numpy's BLAS is {blas_name()}")
        with one_blas_thread() as inner:
            assert inner == 1
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            raise RuntimeError
    with one_blas_thread() as after:
        assert after == outer


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_map_in_order_keeps_input_order_when_fn_finishes_out_of_order(jobs):
    second_done, finished = threading.Event(), []

    def fn(i):
        if i == 0 and jobs > 1:  # another worker takes item 1; item 0 ends after it
            assert second_done.wait(timeout=30)
        finished.append(i)
        if i == 1:
            second_done.set()
        return i * i

    assert map_in_order(fn, range(8), jobs) == [i * i for i in range(8)]
    assert sorted(finished) == list(range(8))
    assert (finished == sorted(finished)) == (jobs == 1)


@pytest.mark.parametrize("raises", [False, True])
def test_map_in_order_runs_fn_on_one_blas_thread_then_restores(raises):
    with one_blas_thread() as outer:
        if outer is None:
            pytest.skip(f"no OpenBLAS thread control found; numpy's BLAS is {blas_name()}")

    def fn(i):
        with one_blas_thread() as inside:  # yields the count fn ran under
            if raises and i == 2:
                raise RuntimeError(inside)
            return inside

    if raises:
        with pytest.raises(RuntimeError, match="^1$"):
            map_in_order(fn, range(4), 2)
    else:
        assert map_in_order(fn, range(4), 2) == [1, 1, 1, 1]
    with one_blas_thread() as after:
        assert after == outer
