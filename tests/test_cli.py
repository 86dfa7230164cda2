import json
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import marsdust
from marsdust import cli, pngio
from marsdust.cli import run
from marsdust.degrade import DatasetManifest, PairRecord
from marsdust.raster import Image, load_image, save_image
from marsdust.tinynet import NetConfig, init_weights, save_weights

from conftest import make_clean_image, make_dust_patches
from test_pngio import encode_png, terrain_samples


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    clean = root / "clean"
    patches = root / "patches"
    clean.mkdir()
    patches.mkdir()
    for i in range(3):
        save_image(make_clean_image(800 + i, 48, 48), clean / f"c{i}.png", 8)
    for i, patch in enumerate(make_dust_patches(17, count=4)):
        save_image(patch, patches / f"p{i}.png", 8)
    return root


def test_unknown_flag_exits_1(capsys):
    code = run(["synth", "--clean", "x", "--no-such-flag"])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage" in captured.err.lower()


def test_unknown_subcommand_exits_1(capsys):
    assert run(["frobnicate"]) == 1


def test_failure_is_one_stderr_line_in_a_shell(tmp_path):
    # a real process: pytest's log capture would hide a second, logged copy
    src = str(Path(marsdust.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "MARSDUST_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "marsdust.cli", "remove", "--in", str(tmp_path / "absent"),
         "--method", "analytic-est", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("i/o error: ") and "absent" in done.stderr
    assert not (tmp_path / "out").exists()


def test_estimate_phi_on_gray_patches(tmp_path, capsys):
    d = tmp_path / "p"
    d.mkdir()
    save_image(Image(np.full((8, 8, 3), 0.5)), d / "gray.png", 8)
    out = tmp_path / "phi.json"
    assert run(["estimate-phi", "--patches", str(d), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["phi"] == [1.0, 1.0, 1.0]


def test_estimate_phi_accepts_json_list(tmp_path):
    d = tmp_path / "p"
    d.mkdir()
    save_image(Image(np.full((4, 4, 3), 0.5)), d / "a.png", 8)
    listing = tmp_path / "list.json"
    listing.write_text(json.dumps([str(d / "a.png")]))
    out = tmp_path / "phi.json"
    assert run(["estimate-phi", "--patches", str(listing), "--out", str(out)]) == 0


def test_estimate_phi_missing_dir_exits_2(tmp_path):
    assert run(["estimate-phi", "--patches", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("content", [b"[5]", b'["a.png", null]', b'{"a.png": 1}', b"\xff\xfe["])
def test_estimate_phi_rejects_malformed_patch_list(tmp_path, capsys, content):
    listing = tmp_path / "list.json"
    listing.write_bytes(content)
    assert run(["estimate-phi", "--patches", str(listing), "--out", str(tmp_path / "phi.json")]) == 1
    assert "patch list" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b'"phi"', b'{"phi": 5}', b'{"phi": ["a"]}', b'{"phi": [true, 0.5]}', b"[0.5]", b"{}", b"\xff\xfe{",
    pytest.param(b'{"phi": [0.5, 1%s]}' % (b"0" * 400), id="int-no-float-holds"),
])
def test_synth_rejects_malformed_phi_file(workspace, tmp_path, capsys, content):
    phi = tmp_path / "phi.json"
    phi.write_bytes(content)
    code = run([
        "synth", "--clean", str(workspace / "clean"), "--phi", str(phi),
        "--out", str(tmp_path / "dusty"), "--manifest", str(tmp_path / "m.jsonl"),
    ])
    assert code == 1
    assert f"error: {phi}: phi file" in capsys.readouterr().err
    assert not (tmp_path / "dusty").exists()


def test_synth_missing_phi_file_exits_2(workspace, tmp_path):
    code = run([
        "synth", "--clean", str(workspace / "clean"), "--phi", str(tmp_path / "absent.json"),
        "--out", str(tmp_path / "dusty"), "--manifest", str(tmp_path / "m.jsonl"),
    ])
    assert code == 2


@pytest.fixture
def no_blue_frame(tmp_path):
    arr = make_clean_image(3, 64, 64).data.copy()
    arr[..., 2] = 0.0
    d = tmp_path / "no_blue"
    d.mkdir()
    save_image(Image(arr), d / "frame.png", 8)
    return d


def test_estimate_phi_names_a_zero_channel(no_blue_frame, tmp_path, capsys):
    out = tmp_path / "phi.json"
    assert run(["estimate-phi", "--patches", str(no_blue_frame), "--out", str(out)]) == 1
    assert "no signal in channel 2" in capsys.readouterr().err
    assert not out.exists()


def test_remove_analytic_est_names_a_zero_channel(no_blue_frame, tmp_path, capsys):
    out = tmp_path / "r"
    code = run(["remove", "--in", str(no_blue_frame), "--method", "analytic-est",
                "--out", str(out)])
    assert code == 1
    assert "no signal in channel 2" in capsys.readouterr().err


def test_synth_counts_and_manifest(workspace, tmp_path):
    phi = tmp_path / "phi.json"
    assert run(["estimate-phi", "--patches", str(workspace / "patches"), "--out", str(phi)]) == 0
    out = tmp_path / "dusty"
    manifest = tmp_path / "pairs.jsonl"
    code = run([
        "synth", "--clean", str(workspace / "clean"), "--phi", str(phi),
        "--maps", "7", "--out", str(out), "--manifest", str(manifest), "--seed", "3",
    ])
    assert code == 0
    assert len(sorted(out.glob("*.png"))) == 3 * 7
    records = DatasetManifest.load(manifest).records
    assert len(records) == 21


def test_synth_jobs_parallel_identical(workspace, tmp_path):
    phi = tmp_path / "phi.json"
    run(["estimate-phi", "--patches", str(workspace / "patches"), "--out", str(phi)])
    args = lambda o, m, jobs: [
        "synth", "--clean", str(workspace / "clean"), "--phi", str(phi),
        "--maps", "2", "--out", str(o), "--manifest", str(m), "--seed", "4", "--jobs", jobs,
    ]
    assert run(args(tmp_path / "d1", tmp_path / "m1.jsonl", "1")) == 0
    assert run(args(tmp_path / "d2", tmp_path / "m2.jsonl", "2")) == 0
    f1 = sorted((tmp_path / "d1").glob("*.png"))
    f2 = sorted((tmp_path / "d2").glob("*.png"))
    assert [p.name for p in f1] == [p.name for p in f2]
    for a, b in zip(f1, f2):
        assert a.read_bytes() == b.read_bytes()
    # manifests identical up to the output directory embedded in the dusty path
    def normalized(path):
        return [
            replace(r, dusty=r.dusty.rsplit("/", 1)[-1])
            for r in DatasetManifest.load(path).records
        ]

    assert normalized(tmp_path / "m1.jsonl") == normalized(tmp_path / "m2.jsonl")


def test_remove_requires_manifest_for_known(workspace, tmp_path):
    out = tmp_path / "r"
    code = run(["remove", "--in", str(workspace / "clean"), "--method", "analytic-known", "--out", str(out)])
    assert code == 1


def test_remove_learned_requires_weights(workspace, tmp_path):
    code = run(["remove", "--in", str(workspace / "clean"), "--method", "learned", "--out", str(tmp_path / "r")])
    assert code == 1


def test_remove_unknown_method_exits_1(workspace, tmp_path, capsys):
    out = tmp_path / "r"
    code = run(["remove", "--in", str(workspace / "clean"), "--method", "magic", "--out", str(out)])
    assert code == 1
    assert "magic" in capsys.readouterr().err
    assert not out.exists()


def test_remove_missing_weights_file_exits_2(workspace, tmp_path, capsys):
    out = tmp_path / "r"
    weights = tmp_path / "absent.mdw"
    code = run(["remove", "--in", str(workspace / "clean"), "--method", "learned",
                "--weights", str(weights), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"i/o error: cannot read weights file {weights}")
    assert not out.exists()


def test_remove_corrupt_weights_reported_once(workspace, tmp_path, capsys):
    out = tmp_path / "r"
    weights = tmp_path / "bad.mdw"
    weights.write_bytes(b"not weights")
    code = run(["remove", "--in", str(workspace / "clean"), "--method", "learned",
                "--weights", str(weights), "--out", str(out), "--jobs", "2"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len([line for line in lines if line.startswith("i/o error:")]) == 1
    assert str(weights) in lines[0]
    assert not out.exists()


def test_remove_weights_whose_size_overflows_exits_2(workspace, tmp_path, capsys):
    out = tmp_path / "r"
    weights = tmp_path / "bad.mdw"
    weights.write_bytes(b"MDW1" + struct.pack("<IIIcI4I", 1, 1, 1, b"a", 4, 2, 3, 682295299, 3952736990))
    code = run(["remove", "--in", str(workspace / "clean"), "--method", "learned",
                "--weights", str(weights), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"i/o error: {weights}: truncated")
    assert not out.exists()


@pytest.mark.parametrize("name, shape", [("stem.w", (8,)), ("ddsc0.l0.pw.w", ())])
def test_remove_weights_with_low_rank_size_tensor_exits_1(workspace, tmp_path, capsys, name, shape):
    out = tmp_path / "r"
    weights = tmp_path / "low.mdw"
    tensors = init_weights(NetConfig(base_width=8), seed=1)
    tensors[name] = np.zeros(shape, np.float32)
    save_weights(tensors, weights)
    code = run(["remove", "--in", str(workspace / "clean"), "--method", "learned",
                "--weights", str(weights), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: weights are missing expected tensor '{name}'")
    assert not out.exists()


def test_remove_known_names_a_file_without_record(synth_pairs, tmp_path, capsys):
    dusty, manifest = synth_pairs
    stray = dusty / "zz_stray.png"
    stray.write_bytes(sorted(dusty.glob("*.png"))[0].read_bytes())
    out = tmp_path / "restored"
    code = run(["remove", "--in", str(dusty), "--method", "analytic-known",
                "--manifest", str(manifest), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {stray}: no manifest record for zz_stray.png\n"
    assert len(list(out.glob("*.png"))) == len(list(dusty.glob("*.png"))) - 1


@pytest.mark.parametrize(
    "key, value",
    [("octaves", 5000), ("octaves", 60), ("lacunarity", 1e200), ("scale", 1e-300)],
)
def test_remove_known_rejects_perlin_params_out_of_range(synth_pairs, tmp_path, capsys, key, value):
    dusty, manifest = synth_pairs
    lines = manifest.read_text().splitlines()
    obj = json.loads(lines[0])
    lines[0] = json.dumps({**obj, key: value})
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "restored"
    code = run(["remove", "--in", str(dusty), "--method", "analytic-known",
                "--manifest", str(manifest), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: {obj['dusty']}: ")
    assert key in err[0]


def test_eval_bad_sets_syntax(tmp_path):
    assert run(["eval", "--sets", "nodirhere", "--out", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("sets, label", [("a={d},a={d}", "'a' is repeated"), ("={d}", "'' is empty"),
                                         ("a={d}, a ={d}", "'a' is repeated")])
def test_eval_rejects_repeated_or_empty_label(workspace, tmp_path, capsys, sets, label):
    report_path = tmp_path / "r.json"
    code = run(["eval", "--sets", sets.format(d=workspace / "clean"), "--out", str(report_path)])
    assert code == 1
    assert f"--sets label {label}" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--sets", "a=", "--out", "r.json"],
    ["eval", "--sets", "a=clean, b= ", "--out", "r.json"],
    ["remove", "--in", "", "--method", "analytic-est", "--out", "r"],
    ["synth", "--clean", " ", "--phi", "phi.json", "--out", "r", "--manifest", "m.jsonl"],
    ["estimate-phi", "--patches", "", "--out", "r.json"],
])
def test_empty_directory_argument_exits_1(workspace, tmp_path, monkeypatch, capsys, argv):
    # an empty path is the working directory, which here holds PNGs
    for png in (workspace / "clean").glob("*.png"):
        (tmp_path / png.name).write_bytes(png.read_bytes())
    (tmp_path / "clean").mkdir()
    (tmp_path / "phi.json").write_text('{"phi": [0.8, 0.6, 0.4]}')
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(argv) == 1
    assert "names no directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["estimate-phi", "--patches", "patches", "--out", ""],
    ["synth", "--clean", "clean", "--phi", "phi.json", "--out", "", "--manifest", "m.jsonl"],
    ["synth", "--clean", "clean", "--phi", "phi.json", "--out", "d", "--manifest", " "],
    ["train", "--manifest", "m.jsonl", "--epochs", "1", "--out", ""],
    ["train", "--manifest", "", "--epochs", "1", "--out", "w.mdw"],
    ["remove", "--in", "clean", "--method", "analytic-est", "--out", ""],
    ["remove", "--in", "clean", "--method", "analytic-known", "--manifest", "", "--out", "r"],
    ["eval", "--sets", "a=clean", "--out", ""],
    ["synth", "--clean", "clean", "--phi", "", "--out", "d", "--manifest", "m.jsonl"],
    ["eval", "--sets", "a=clean", "--pairs", " ", "--out", "r.json"],
    ["remove", "--in", "clean", "--method", "learned", "--weights", "", "--out", "r"],
])
def test_blank_output_path_exits_1(workspace, tmp_path, monkeypatch, capsys, argv):
    # an empty path is the working directory; nothing may be written there
    for sub in ("clean", "patches"):
        (tmp_path / sub).mkdir()
        for png in (workspace / sub).glob("*.png"):
            (tmp_path / sub / png.name).write_bytes(png.read_bytes())
    (tmp_path / "phi.json").write_text('{"phi": [0.8, 0.6, 0.4]}')
    flag = next(a for a, b in zip(argv, argv[1:]) if not b.strip())
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {flag} names no path"]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", [
    ["estimate-phi", "--patches", "patches", "--out", "{target}"],
    ["synth", "--clean", "clean", "--phi", "phi.json", "--out", "d", "--manifest", "{target}"],
    ["train", "--manifest", "m.jsonl", "--epochs", "1", "--out", "{target}"],
    ["eval", "--sets", "a=clean", "--out", "{target}"],
])
@pytest.mark.parametrize("target,reason", [
    ("outdir", "is a directory"),
    ("no_such_dir/out.file", "does not exist"),
    ("phi.json/out.file", "does not exist"),  # the parent is a file
])
def test_unwritable_output_file_exits_2_before_any_work(
    workspace, tmp_path, monkeypatch, capsys, argv, target, reason
):
    for sub in ("clean", "patches"):
        (tmp_path / sub).mkdir()
        for png in (workspace / sub).glob("*.png"):
            (tmp_path / sub / png.name).write_bytes(png.read_bytes())
    (tmp_path / "phi.json").write_text('{"phi": [0.8, 0.6, 0.4]}')
    (tmp_path / "m.jsonl").write_text("")
    (tmp_path / "outdir").mkdir()
    ran = []
    for name in ("estimate_reflexivity", "generate_pairs", "train", "corpus_report"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: ran.append(name))
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert run([a.format(target=target) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:") and reason in err[0] and target in err[0]
    assert ran == []
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", [
    ["synth", "--clean", "clean", "--phi", "phi.json", "--out", "taken", "--manifest", "m.jsonl"],
    ["remove", "--in", "clean", "--method", "analytic-est", "--out", "taken"],
])
def test_directory_output_that_is_a_file_exits_2_writing_nothing(workspace, tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "clean").mkdir()
    for png in (workspace / "clean").glob("*.png"):
        (tmp_path / "clean" / png.name).write_bytes(png.read_bytes())
    (tmp_path / "phi.json").write_text('{"phi": [0.8, 0.6, 0.4]}')
    (tmp_path / "taken").write_text("a file, not a directory")
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:") and "taken" in err[0]
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "taken").read_text() == "a file, not a directory"


def test_train_report_path_a_directory_exits_2_before_training(synth_pairs, tmp_path, monkeypatch, capsys):
    # the report is written after the weights, so it is checked before any epoch
    _, manifest = synth_pairs
    (tmp_path / "w.report.json").mkdir()
    ran = []
    monkeypatch.setattr(cli, "train", lambda *a, real=cli.train, **k: ran.append(a) or real(*a, **k))
    monkeypatch.chdir(tmp_path)
    argv = ["train", "--manifest", str(manifest), "--patch", "16", "--batch", "2",
            "--epochs", "1", "--width", "4", "--out", "w.mdw"]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:") and "w.report.json" in err[0]
    assert ran == []
    assert not (tmp_path / "w.mdw").exists()


def test_full_pipeline_with_exact_inversion(workspace, tmp_path, capsys):
    """estimate-phi -> synth -> train (tiny) -> remove (known) -> eval.

    The analytic-known route on 16-bit dusty intermediates reconstructs the
    8-bit clean images exactly, so eval reports infinite PSNR for the
    restored set and a lower dust index than the dusty set.
    """
    phi = tmp_path / "phi.json"
    dusty = tmp_path / "dusty"
    restored = tmp_path / "restored"
    manifest = tmp_path / "pairs.jsonl"
    report_path = tmp_path / "report.json"

    assert run(["estimate-phi", "--patches", str(workspace / "patches"), "--out", str(phi)]) == 0
    assert run([
        "synth", "--clean", str(workspace / "clean"), "--phi", str(phi),
        "--maps", "2", "--out", str(dusty), "--manifest", str(manifest), "--seed", "9",
    ]) == 0
    weights = tmp_path / "tiny.mdw"
    assert run([
        "train", "--manifest", str(manifest), "--patch", "16", "--batch", "2",
        "--lr", "1e-3", "--epochs", "2", "--width", "4", "--out", str(weights), "--seed", "1",
    ]) == 0
    assert weights.is_file()
    train_report = json.loads((tmp_path / "tiny.report.json").read_text())
    assert list(train_report) == [
        "train_config", "net_config", "epoch_losses", "epoch_seconds", "samples_per_s",
        "grad_norms", "loss_quartiles", "seconds", "host",
    ]
    steps = -(-6 * train_report["train_config"]["patches_per_image"] // 2)  # 3 frames x 2 maps, batch 2
    assert train_report["samples_per_s"] == pytest.approx(
        [steps * 2 / s for s in train_report["epoch_seconds"]])
    host = train_report["host"]
    assert list(host) == ["cpu_count", "numpy", "blas", "blas_threads", "shard_worker"]
    assert host["cpu_count"] == os.cpu_count() and host["numpy"] == np.__version__
    assert isinstance(host["blas"], str) and host["blas_threads"] in (1, None)
    assert host["shard_worker"] in ("process", "thread")
    assert run([
        "remove", "--in", str(dusty), "--method", "analytic-known",
        "--manifest", str(manifest), "--out", str(restored),
    ]) == 0
    assert run([
        "eval",
        "--sets",
        f"clean={workspace / 'clean'},dusty={dusty},restored={restored}",
        "--pairs", str(manifest),
        "--out", str(report_path),
    ]) == 0

    payload = json.loads(report_path.read_text())
    sets = {s["label"]: s for s in payload["sets"]}
    assert sets["restored"]["psnr_mean"] == "inf"  # lossless round trip
    assert sets["restored"]["dust_index_mean"] < sets["dusty"]["dust_index_mean"]
    # exact reconstruction: restored files byte-equal re-encoded clean sources
    clean_by_name = {rec.dusty: rec.clean for rec in DatasetManifest.load(manifest).records}
    some = sorted(restored.glob("*.png"))[0]
    rec_clean = clean_by_name[str(dusty / some.name)]
    assert np.array_equal(load_image(some).data, load_image(rec_clean).data)


@pytest.mark.parametrize("out", ["{d}", "{d}/.", "{d}/../clean"])
def test_remove_out_that_is_the_in_directory_exits_1_inputs_unchanged(workspace, tmp_path, capsys, out):
    d = tmp_path / "clean"
    d.mkdir()
    for png in (workspace / "clean").glob("*.png"):
        (d / png.name).write_bytes(png.read_bytes())
    before = {p.name: p.read_bytes() for p in d.iterdir()}
    code = run(["remove", "--in", str(d), "--method", "analytic-est", "--out", out.format(d=d)])
    assert code == 1
    assert "is the --in directory" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in d.iterdir()} == before


@pytest.mark.parametrize("out", ["{c}", "{c}/.", "{c}/../clean"])
def test_synth_out_that_is_the_clean_directory_exits_1_inputs_unchanged(workspace, tmp_path, capsys, out):
    # dusty frames written beside the clean ones would be paired as clean by the next run
    c = tmp_path / "clean"
    c.mkdir()
    for png in (workspace / "clean").glob("*.png"):
        (c / png.name).write_bytes(png.read_bytes())
    (tmp_path / "phi.json").write_text('{"phi": [0.8, 0.6, 0.4]}')
    before = {p.name: p.read_bytes() for p in c.iterdir()}
    code = run(["synth", "--clean", str(c), "--phi", str(tmp_path / "phi.json"), "--maps", "1",
                "--out", out.format(c=c), "--manifest", str(tmp_path / "m.jsonl")])
    assert code == 1
    assert "is the --clean directory" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in c.iterdir()} == before
    assert not (tmp_path / "m.jsonl").exists()


def test_remove_learned_roundtrip(workspace, tmp_path):
    phi = tmp_path / "phi.json"
    dusty = tmp_path / "dusty"
    manifest = tmp_path / "pairs.jsonl"
    run(["estimate-phi", "--patches", str(workspace / "patches"), "--out", str(phi)])
    run([
        "synth", "--clean", str(workspace / "clean"), "--phi", str(phi),
        "--maps", "1", "--out", str(dusty), "--manifest", str(manifest), "--seed", "2",
    ])
    weights = tmp_path / "w.mdw"
    assert run([
        "train", "--manifest", str(manifest), "--patch", "16", "--batch", "2",
        "--lr", "1e-3", "--epochs", "1", "--width", "4", "--out", str(weights), "--seed", "3",
    ]) == 0
    restored = tmp_path / "restored"
    assert run([
        "remove", "--in", str(dusty), "--method", "learned",
        "--weights", str(weights), "--out", str(restored),
    ]) == 0
    assert len(list(restored.glob("*.png"))) == len(list(dusty.glob("*.png")))


def test_remove_jobs_parallel_identical(workspace, tmp_path):
    phi = tmp_path / "phi.json"
    dusty = tmp_path / "dusty"
    manifest = tmp_path / "pairs.jsonl"
    run(["estimate-phi", "--patches", str(workspace / "patches"), "--out", str(phi)])
    run([
        "synth", "--clean", str(workspace / "clean"), "--phi", str(phi),
        "--maps", "2", "--out", str(dusty), "--manifest", str(manifest), "--seed", "6",
    ])
    for jobs, out in (("1", tmp_path / "r1"), ("3", tmp_path / "r2")):
        assert run([
            "remove", "--in", str(dusty), "--method", "analytic-known",
            "--manifest", str(manifest), "--out", str(out), "--jobs", jobs,
        ]) == 0
    f1 = sorted((tmp_path / "r1").glob("*.png"))
    f2 = sorted((tmp_path / "r2").glob("*.png"))
    assert [p.name for p in f1] == [p.name for p in f2] and f1
    for a, b in zip(f1, f2):
        assert a.read_bytes() == b.read_bytes()


def test_remove_est_on_libpng_filtered_frames_same_bytes_at_any_jobs(tmp_path):
    plain, filtered = tmp_path / "plain", tmp_path / "filtered"
    plain.mkdir()
    filtered.mkdir()
    for i in range(3):
        samples = terrain_samples(840 + i, 96)
        pngio.write_png(plain / f"f{i}.png", samples, 8)
        blob, filters = encode_png(samples, 8)
        assert {3, 4} <= set(filters.tolist())
        (filtered / f"f{i}.png").write_bytes(blob)
    outputs = []
    for src, jobs in ((filtered, "2"), (filtered, "1"), (plain, "1")):
        pngio._prediction_table.cache_clear()  # two threads may both build it; either copy serves
        out = tmp_path / f"{src.name}-{jobs}"
        assert run(["remove", "--in", str(src), "--method", "analytic-est", "--out", str(out),
                    "--jobs", jobs]) == 0
        outputs.append([p.read_bytes() for p in sorted(out.glob("*.png"))])
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1] == outputs[2]


def test_remove_jobs_zero_exits_1(workspace, tmp_path, capsys):
    out = tmp_path / "r"
    code = run([
        "remove", "--in", str(workspace / "clean"), "--method", "analytic-est",
        "--out", str(out), "--jobs", "0",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_remove_jobs_names_every_failed_file(workspace, tmp_path, capsys):
    src = tmp_path / "in"
    src.mkdir()
    good = (workspace / "clean" / "c0.png").read_bytes()
    (src / "a_good.png").write_bytes(good)
    for name in ("b_cut.png", "c_cut.png"):
        (src / name).write_bytes(good[:60])
    out = tmp_path / "out"
    code = run(["remove", "--in", str(src), "--method", "analytic-est",
                "--out", str(out), "--jobs", "2"])
    err = capsys.readouterr().err
    assert code == 2
    lines = [line for line in err.splitlines() if line.startswith("i/o error:")]
    assert len(lines) == 2
    assert str(src / "b_cut.png") in lines[0] and str(src / "c_cut.png") in lines[1]
    assert [p.name for p in out.iterdir()] == ["a_good.png"]


def test_train_rejects_parallel_jobs(workspace, tmp_path):
    phi = tmp_path / "phi.json"
    manifest = tmp_path / "m.jsonl"
    run(["estimate-phi", "--patches", str(workspace / "patches"), "--out", str(phi)])
    run([
        "synth", "--clean", str(workspace / "clean"), "--phi", str(phi),
        "--maps", "1", "--out", str(tmp_path / "d"), "--manifest", str(manifest), "--seed", "1",
    ])
    code = run([
        "train", "--manifest", str(manifest), "--patch", "16", "--batch", "2",
        "--epochs", "1", "--width", "4", "--out", str(tmp_path / "w.mdw"), "--jobs", "2",
    ])
    assert code == 1


@pytest.mark.parametrize("flag,value", [("--patch", "0"), ("--patch", "-4"), ("--lr", "inf")])
def test_train_rejects_degenerate_patch_and_lr(workspace, tmp_path, capsys, flag, value):
    phi = tmp_path / "phi.json"
    manifest = tmp_path / "m.jsonl"
    run(["estimate-phi", "--patches", str(workspace / "patches"), "--out", str(phi)])
    run([
        "synth", "--clean", str(workspace / "clean"), "--phi", str(phi),
        "--maps", "1", "--out", str(tmp_path / "d"), "--manifest", str(manifest), "--seed", "1",
    ])
    weights = tmp_path / "w.mdw"
    code = run([
        "train", "--manifest", str(manifest), "--patch", "16", "--batch", "2", "--epochs", "1",
        "--width", "4", "--out", str(weights), flag, value,  # the last --patch wins
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not weights.exists()


@pytest.mark.parametrize("argv", [
    ["estimate-phi", "--patches", "p", "--out", "o", "--seed", "1"],
    ["estimate-phi", "--patches", "p", "--out", "o", "--jobs", "2"],
    ["train", "--manifest", "m", "--out", "o", "--jobs", "2"],
    ["remove", "--in", "i", "--method", "analytic-est", "--out", "o", "--seed", "1"],
    ["eval", "--sets", "a=b", "--out", "o", "--seed", "1"],
])
def test_seed_and_jobs_only_where_used(argv, capsys):
    assert run(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_remove_reads_uppercase_png_suffix(workspace, tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    (src / "FRAME.PNG").write_bytes((workspace / "clean" / "c0.png").read_bytes())
    out = tmp_path / "out"
    assert run(["remove", "--in", str(src), "--method", "analytic-est", "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["FRAME.PNG"]


@pytest.fixture()
def synth_pairs(workspace, tmp_path):
    """The dusty directory and manifest of a one-map synth run."""
    phi = tmp_path / "phi.json"
    dusty = tmp_path / "dusty"
    manifest = tmp_path / "pairs.jsonl"
    assert run(["estimate-phi", "--patches", str(workspace / "patches"), "--out", str(phi)]) == 0
    assert run([
        "synth", "--clean", str(workspace / "clean"), "--phi", str(phi),
        "--maps", "1", "--out", str(dusty), "--manifest", str(manifest), "--seed", "2",
    ]) == 0
    return dusty, manifest


@pytest.fixture()
def shared_name_manifest(synth_pairs, tmp_path):
    """A synth manifest plus one record from another directory whose dusty
    file has the same basename as the first record's."""
    dusty, manifest = synth_pairs
    m = DatasetManifest.load(manifest)
    first = m.records[0]
    m.records.append(replace(first, dusty=str(tmp_path / "other" / Path(first.dusty).name)))
    m.save(manifest)
    return dusty, manifest


def test_remove_known_rejects_shared_dusty_name(shared_name_manifest, tmp_path, capsys):
    dusty, manifest = shared_name_manifest
    out = tmp_path / "restored"
    code = run([
        "remove", "--in", str(dusty), "--method", "analytic-known",
        "--manifest", str(manifest), "--out", str(out),
    ])
    assert code == 2
    assert "shared by" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_shared_dusty_name(shared_name_manifest, tmp_path, capsys):
    dusty, manifest = shared_name_manifest
    report_path = tmp_path / "report.json"
    code = run(["eval", "--sets", f"dusty={dusty}", "--pairs", str(manifest), "--out", str(report_path)])
    assert code == 2
    assert "shared by" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("key, value", [
    ("scale", "x"), ("light", 5), ("octaves", 2.5),
    pytest.param("scale", 10**400, id="scale-int-no-float-holds"),
    pytest.param("light", [0.5, -(10**400), 0.5], id="light-int-no-float-holds"),
    ("seed", -5), pytest.param("seed", 10**400, id="seed-400-digits"),
    pytest.param("scale", float("inf"), id="scale-inf"),
])
def test_manifest_value_of_wrong_type_exits_2(synth_pairs, tmp_path, capsys, key, value):
    dusty, manifest = synth_pairs
    lines = manifest.read_text().splitlines()
    obj = json.loads(lines[1])
    lines[1] = json.dumps({**obj, key: value})
    manifest.write_text("\n".join(lines) + "\n")
    for argv in (
        ["remove", "--in", str(dusty), "--method", "analytic-known",
         "--manifest", str(manifest), "--out", str(tmp_path / "restored")],
        ["eval", "--sets", f"dusty={dusty}", "--pairs", str(manifest), "--out", str(tmp_path / "r.json")],
        ["train", "--manifest", str(manifest), "--out", str(tmp_path / "w.mdw")],
    ):
        assert run(argv) == 2
        assert f"i/o error: {manifest}:2: {key} must be" in capsys.readouterr().err


def test_eval_missing_pairs_file_exits_2(workspace, tmp_path):
    code = run([
        "eval", "--sets", f"clean={workspace / 'clean'}",
        "--pairs", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2


def test_eval_skips_image_whose_clean_reference_is_truncated(workspace, tmp_path):
    clean = tmp_path / "clean"
    clean.mkdir()
    for src in sorted((workspace / "clean").glob("*.png")):
        (clean / src.name).write_bytes(src.read_bytes())
    phi = tmp_path / "phi.json"
    dusty = tmp_path / "dusty"
    manifest = tmp_path / "pairs.jsonl"
    assert run(["estimate-phi", "--patches", str(workspace / "patches"), "--out", str(phi)]) == 0
    assert run([
        "synth", "--clean", str(clean), "--phi", str(phi),
        "--maps", "1", "--out", str(dusty), "--manifest", str(manifest), "--seed", "2",
    ]) == 0
    broken = clean / "c0.png"
    broken.write_bytes(broken.read_bytes()[:60])
    (victim,) = [r.dusty for r in DatasetManifest.load(manifest).records if r.clean == str(broken)]
    report_path = tmp_path / "report.json"
    assert run([
        "eval", "--sets", f"dusty={dusty}", "--pairs", str(manifest), "--out", str(report_path),
    ]) == 0
    payload = json.loads(report_path.read_text())
    (skip,) = payload["skipped"]
    assert skip["path"] == victim
    assert str(broken) in skip["reason"] and "truncated" in skip["reason"]
    assert [s["n"] for s in payload["sets"]] == [2]
    assert victim not in [row["path"] for row in payload["rows"]]


GOLDEN_EVAL_JSON = """{
  "sets": [
    {
      "label": "clean",
      "n": 2,
      "dust_index_mean": 0.2521188775630109,
      "dust_index_std": 0.0023442031035657285
    },
    {
      "label": "dusty",
      "n": 2,
      "dust_index_mean": 0.3811780690119969,
      "dust_index_std": 0.1314033945525518,
      "psnr_mean": "inf",
      "ssim_mean": 0.8836065074669701
    }
  ],
  "rows": [
    {
      "set": "clean",
      "path": "<tmp>/clean/c0.png",
      "dust_index": 0.24977467445944512
    },
    {
      "set": "clean",
      "path": "<tmp>/clean/c1.png",
      "dust_index": 0.2544630806665766
    },
    {
      "set": "dusty",
      "path": "<tmp>/dusty/c0_d00.png",
      "dust_index": 0.24977467445944512,
      "psnr": "inf",
      "ssim": 1.0
    },
    {
      "set": "dusty",
      "path": "<tmp>/dusty/c1_d00.png",
      "dust_index": 0.5125814635645487,
      "psnr": 14.23873553046784,
      "ssim": 0.7672130149339402
    }
  ],
  "skipped": [
    {
      "path": "<tmp>/dusty/broken.png",
      "reason": "<tmp>/dusty/broken.png: truncated IDAT chunk"
    }
  ]
}
"""

GOLDEN_EVAL_TABLE = """\
set            n  dust_index (FADE-surrogate)       psnr     ssim
-----------------------------------------------------------------
clean          2            0.2521 +/- 0.0023          -        -
dusty          2            0.3812 +/- 0.1314        inf   0.8836
wrote <tmp>/r.json
"""


def test_eval_golden_report_and_table(tmp_path, capsys):
    """Exact eval JSON and table: one pair reconstructs its clean file
    (infinite PSNR), one is a fixed blend, and one truncated file is skipped."""
    clean, dusty = tmp_path / "clean", tmp_path / "dusty"
    clean.mkdir()
    dusty.mkdir()
    for i in range(2):
        save_image(make_clean_image(900 + i, 24, 24), clean / f"c{i}.png", 8)
    (dusty / "c0_d00.png").write_bytes((clean / "c0.png").read_bytes())
    save_image(Image(0.6 * make_clean_image(901, 24, 24).data + 0.4 * 0.8), dusty / "c1_d00.png", 8)
    (dusty / "broken.png").write_bytes((clean / "c1.png").read_bytes()[:60])
    DatasetManifest([
        PairRecord(str(clean / f"c{i}.png"), str(dusty / f"c{i}_d00.png"),
                   64.0, 2, 2.0, 0.5, 0.4, (0.8, 0.8, 0.8), i)
        for i in range(2)
    ]).save(tmp_path / "pairs.jsonl")
    capsys.readouterr()
    assert run([
        "eval", "--sets", f"clean={clean},dusty={dusty}",
        "--pairs", str(tmp_path / "pairs.jsonl"), "--out", str(tmp_path / "r.json"),
    ]) == 0
    assert (tmp_path / "r.json").read_text().replace(str(tmp_path), "<tmp>") == GOLDEN_EVAL_JSON
    assert capsys.readouterr().out.replace(str(tmp_path), "<tmp>") == GOLDEN_EVAL_TABLE


def test_learned_pipeline_on_desk_corpus(desk_corpus, trained_model, tmp_path):
    """remove --method learned + eval on the held-out desk set, via the CLI."""
    restored = tmp_path / "restored"
    assert run([
        "remove", "--in", str(desk_corpus["holdout_dir"]), "--method", "learned",
        "--weights", str(trained_model["weights_path"]), "--out", str(restored),
    ]) == 0
    report_path = tmp_path / "report.json"
    assert run([
        "eval",
        "--sets",
        f"clean={desk_corpus['holdout_clean_dir']},dusty={desk_corpus['holdout_dir']},restored={restored}",
        "--pairs", str(desk_corpus["holdout_manifest_path"]),
        "--out", str(report_path),
    ]) == 0
    payload = json.loads(report_path.read_text())
    sets = {s["label"]: s for s in payload["sets"]}
    assert sets["restored"]["dust_index_mean"] < sets["dusty"]["dust_index_mean"]
    assert sets["restored"]["psnr_mean"] > sets["dusty"]["psnr_mean"]
