"""Outputs appear whole or not at all: a write that fails after its temporary
file exists keeps the old target and leaves no temporary file behind.  Inputs
are read whole, and a failed open is one error of the caller's type."""

import errno
import os

import numpy as np
import pytest

from marsdust.atomic import read_input, write_atomic
from marsdust.cli import run
from marsdust.degrade import DatasetManifest, PairRecord, Reflexivity, generate_pairs
from marsdust.pngio import write_png
from marsdust.raster import save_image
from marsdust.tinynet import NetConfig, TrainConfig, save_weights, train

from conftest import make_clean_image

OLD = b"the previous output\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A clean frame and its one dusty pair; the clean directory doubles as
    a directory of dust patches."""
    root = tmp_path_factory.mktemp("atomic_inputs")
    (root / "clean").mkdir()
    save_image(make_clean_image(5, 16, 16), root / "clean" / "c0.png", 8)
    manifest = generate_pairs(root / "clean", Reflexivity((0.9, 0.8, 0.7)), root / "dusty", maps_per_image=1)
    return root, manifest


def _temporary_files(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


def test_failure_while_writing_keeps_the_target(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(OLD)
    seen = []

    def parts():
        yield b"half of the new "
        seen.extend(_temporary_files(tmp_path))
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        write_atomic(target, parts())
    assert len(seen) == 1  # the partial output went to a temporary file
    assert target.read_bytes() == OLD
    assert _temporary_files(tmp_path) == []


class Unreadable(Exception):
    pass


def test_read_input_returns_the_bytes(tmp_path):
    (tmp_path / "in.bin").write_bytes(b"\x00\xffbytes")
    assert read_input(tmp_path / "in.bin", Unreadable) == b"\x00\xffbytes"


@pytest.mark.parametrize("name, reason", [
    ("absent.bin", os.strerror(errno.ENOENT)),
    ("a_directory", os.strerror(errno.EISDIR)),
    ("nul\0.bin", "embedded null byte"),
    ("\ud800.bin", "surrogates not allowed"),
], ids=["missing", "directory", "nul-byte", "unencodable"])
def test_read_input_raises_the_given_type_naming_the_path_once(tmp_path, name, reason):
    (tmp_path / "a_directory").mkdir()
    path = tmp_path / name
    with pytest.raises(Unreadable) as info:
        read_input(path, Unreadable)
    message = str(info.value)
    assert message.startswith(f"{path}: cannot read (") and message.endswith(")")
    assert reason in message and message.count(str(path)) == 1


def test_success_replaces_the_target(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(OLD)
    write_atomic(target, [b"new ", memoryview(b"bytes")])
    assert target.read_bytes() == b"new bytes"
    assert os.listdir(tmp_path) == ["out.bin"]


def _write_png(inputs, target):
    write_png(target, np.zeros((2, 3, 3), np.uint16), 16)


def _save_weights(inputs, target):
    save_weights({"w": np.ones((2, 2), np.float32)}, target)


def _save_manifest(inputs, target):
    DatasetManifest([PairRecord("a.png", "b.png", 100.0, 2, 2.0, 0.5, 0.4, (0.9,), 1)]).save(target)


def _phi_json(inputs, target):
    root, _ = inputs
    return run(["estimate-phi", "--patches", str(root / "clean"), "--out", str(target)])


def _eval_report(inputs, target):
    root, _ = inputs
    return run(["eval", "--sets", f"clean={root / 'clean'}", "--out", str(target)])


def _train_report(inputs, target):
    _, manifest = inputs
    cfg = TrainConfig(patch=8, batch=1, epochs=1, patches_per_image=1)
    train(cfg, NetConfig(base_width=2, ddsc_modules=1, ddsc_layers=1, growth=2), manifest,
          target.with_name("model.mdw"))


@pytest.mark.parametrize("write, name", [
    (_write_png, "image.png"),
    (_save_weights, "model.mdw"),
    (_save_manifest, "pairs.jsonl"),
    (_phi_json, "phi.json"),
    (_eval_report, "report.json"),
    (_train_report, "model.report.json"),
], ids=["write_png", "save_weights", "manifest", "phi.json", "eval-report", "train-report"])
def test_every_writer_keeps_the_old_target_when_its_replace_fails(inputs, tmp_path, monkeypatch,
                                                                  capsys, write, name):
    target = tmp_path / name
    target.write_bytes(OLD)
    real_replace = os.replace

    def replace(src, dst):
        if os.fspath(dst) == os.fspath(target):
            raise OSError(28, "No space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    try:
        code = write(inputs, target)
    except OSError:  # what the CLI reports with exit 2
        code = 2
    assert code == 2
    assert target.read_bytes() == OLD
    assert _temporary_files(tmp_path) == []
    err = capsys.readouterr().err
    assert err in ("", f"i/o error: [Errno 28] No space left on device: '{target}'\n")
