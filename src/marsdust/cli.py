"""Command-line surface: estimate-phi, synth, train, remove, eval.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.  Inputs are
never mutated; outputs land only under the --out / --manifest paths.
Verbosity comes from MARSDUST_LOG (error|warn|info|debug) or --verbose.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys
from pathlib import Path

from .atomic import write_atomic
from .blas import map_in_order
from .degrade import (
    DatasetManifest,
    Reflexivity,
    estimate_reflexivity,
    generate_pairs,
    is_number,
)
from .errors import (
    DecodeError,
    ManifestError,
    MarsdustError,
    ValidationError,
    WeightsFormatError,
)
from .metrics import corpus_report
from .raster import list_pngs, load_image, save_image
from .restore import load_model, remove_estimated, remove_known, remove_learned
from .tinynet import NetConfig, TrainConfig, report_path, train

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="marsdust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, jobs=False):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if jobs:
            p.add_argument("--jobs", type=_positive_int, default=1, help="worker threads")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("estimate-phi", help="estimate dust reflexivity from heavy-dust patches")
    p.add_argument("--patches", required=True, help="directory of patch PNGs, or a JSON list of paths")
    p.add_argument("--out", required=True, help="output phi.json")
    common(p)

    p = sub.add_parser("synth", help="synthesize dusty counterparts for clean images")
    p.add_argument("--clean", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--maps", type=int, default=7)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", required=True)
    common(p, seed=True, jobs=True)

    p = sub.add_parser("train", help="train the restoration network on a pair manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--patch", type=int, default=64)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--out", required=True)
    common(p, seed=True)

    p = sub.add_parser("remove", help="remove dust from a directory of images")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--method", required=True,
                   choices=["analytic-known", "analytic-est", "learned"])
    p.add_argument("--weights")
    p.add_argument("--manifest")
    p.add_argument("--out", required=True)
    common(p, jobs=True)

    p = sub.add_parser("eval", help="dust-index / PSNR / SSIM report over image sets")
    p.add_argument("--sets", required=True, help="label=dir[,label=dir...]")
    p.add_argument("--pairs")
    p.add_argument("--out", required=True)
    common(p, jobs=True)

    return parser


def _setup_logging(verbose: bool):
    env = os.environ.get("MARSDUST_LOG", "").lower()
    level = _LOG_LEVELS.get(env, logging.DEBUG if verbose else logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _read_json(path, what: str):
    """The parsed JSON of a small input file; ``what`` names it in errors."""
    try:
        return json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise DecodeError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValidationError(f"{path}: {what} is not valid JSON ({exc})") from exc


def _nonblank(text: str, flag: str, what: str = "directory") -> str:
    """``text``, unless it is blank: ``Path("")`` is the working directory."""
    if not text.strip():
        raise ValidationError(f"{flag} names no {what}")
    return text


def _check_out_dir(out: str, source: str, flag: str) -> None:
    """Reject an ``--out`` that resolves to the ``flag`` directory ``source``."""
    if Path(out).resolve() == Path(source).resolve():
        raise ValidationError(f"--out {out} is the {flag} directory; the outputs would land among its inputs")


def _load_patches(source: str):
    path = Path(_nonblank(source, "--patches"))
    if path.is_dir():
        files = list_pngs(path)
    else:
        listed = _read_json(path, "patch list")
        if not isinstance(listed, list) or not all(isinstance(p, str) for p in listed):
            raise ValidationError(f"{source}: patch list JSON must be an array of paths")
        files = [Path(p) for p in listed]
    if not files:
        raise ValidationError(f"no patches found in {source}")
    return [load_image(p) for p in files]


def _cmd_estimate_phi(args) -> int:
    phi = estimate_reflexivity(_load_patches(args.patches))
    text = json.dumps({"phi": list(phi.phi), "channels": len(phi.phi)}, indent=2) + "\n"
    write_atomic(args.out, [text.encode()])
    print(f"wrote {args.out}: phi = {[round(v, 4) for v in phi.phi]}")
    return 0


def _read_phi(path) -> Reflexivity:
    obj = _read_json(path, "phi file")
    phi = obj.get("phi") if isinstance(obj, dict) else None
    if not isinstance(phi, list) or not all(map(is_number, phi)):
        raise ValidationError(f"{path}: phi file must be a JSON object whose 'phi' is a list of numbers")
    return Reflexivity(tuple(float(v) for v in phi))


def _cmd_synth(args) -> int:
    clean = _nonblank(args.clean, "--clean")
    _check_out_dir(args.out, clean, "--clean")
    phi = _read_phi(args.phi)
    manifest = generate_pairs(
        clean,
        phi,
        maps_per_image=args.maps,
        seed=args.seed,
        out_dir=args.out,
        jobs=args.jobs,
    )
    manifest.save(args.manifest)
    print(f"wrote {len(manifest.records)} pairs to {args.out} (manifest {args.manifest})")
    return 0


def _cmd_train(args) -> int:
    manifest = DatasetManifest.load(args.manifest)
    cfg = TrainConfig(
        patch=args.patch, batch=args.batch, lr=args.lr, epochs=args.epochs, seed=args.seed
    )
    net = NetConfig(base_width=args.width)
    report = train(cfg, net, manifest, args.out)
    print(
        f"wrote {args.out}: first-epoch loss {report.epoch_losses[0]:.5f}, "
        f"final {report.epoch_losses[-1]:.5f}"
    )
    return 0


def _cmd_remove(args) -> int:
    in_dir, out_dir = Path(_nonblank(args.in_dir, "--in")), Path(args.out)
    _check_out_dir(args.out, args.in_dir, "--in")
    if args.method == "learned":
        if not args.weights:
            raise ValidationError("--method learned requires --weights")
        model = load_model(args.weights)
        restore = lambda path: remove_learned(load_image(path), model)
    elif args.method == "analytic-known":
        if not args.manifest:
            raise ValidationError("--method analytic-known requires --manifest")
        records = DatasetManifest.load(args.manifest).by_dusty_name()

        def restore(path: Path):
            if path.name not in records:
                raise ValidationError(f"no manifest record for {path.name}")
            return remove_known(load_image(path), records[path.name])
    else:
        restore = lambda path: remove_estimated(load_image(path))
    paths = list_pngs(in_dir)
    if not paths:
        raise ValidationError(f"no PNG images found in {in_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)

    def one(path: Path):
        """None once the restored image is written, else the error that stopped it."""
        try:
            save_image(restore(path), out_dir / path.name, bit_depth=8)
        except (MarsdustError, OSError) as exc:
            return exc
        return None

    errors = map_in_order(one, paths, args.jobs)
    codes = [_report(exc, str(path)) for path, exc in zip(paths, errors) if exc is not None]
    if codes:  # every failed file has its line; the first one sets the exit code
        return codes[0]
    print(f"restored {len(paths)} images into {out_dir}")
    return 0


def _cmd_eval(args) -> int:
    sets = {}
    for piece in args.sets.split(","):
        if "=" not in piece:
            raise ValidationError(f"--sets entries must be label=dir, got {piece!r}")
        label, directory = (part.strip() for part in piece.split("=", 1))
        if not label or label in sets:
            raise ValidationError(f"--sets label {label!r} is {'repeated' if label else 'empty'}")
        sets[label] = _nonblank(directory, f"--sets {label}")
    pairs = DatasetManifest.load(args.pairs) if args.pairs else None
    report = corpus_report(sets, pairs, jobs=args.jobs)
    write_atomic(args.out, [(report.to_json() + "\n").encode()])
    print(report.to_table())
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "estimate-phi": _cmd_estimate_phi,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "remove": _cmd_remove,
    "eval": _cmd_eval,
}


# the flag that names each subcommand's one output file (remove and synth --out are directories)
_FILE_OUTPUT = {"estimate-phi": "out", "synth": "manifest", "train": "out", "eval": "out"}


def _check_file_output(text: str, flag: str) -> None:
    """Raise the OSError that writing ``text`` would end with, so it ends no
    run after its work: the path is a directory, or its parent is not one."""
    path = Path(text)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, f"{flag} is a directory", text)
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, f"the directory of {flag} does not exist", text)


def _report(exc: Exception, path: str = "") -> int:
    """Print one ``error:`` (exit 1) or ``i/o error:`` (exit 2) line for
    ``exc``, naming ``path`` unless the message already does; return the code."""
    code = 2 if isinstance(exc, (OSError, DecodeError, ManifestError, WeightsFormatError)) else 1
    message = f"{path}: {exc}" if path not in str(exc) else str(exc)
    print(f"{'i/o error' if code == 2 else 'error'}: {message}", file=sys.stderr)
    return code


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _setup_logging(args.verbose)
        for flag in ("out", "manifest", "phi", "pairs", "weights"):  # checked before any work is done
            if getattr(args, flag, None) is not None:
                _nonblank(getattr(args, flag), f"--{flag}", "path")
        flag = _FILE_OUTPUT.get(args.command)
        if flag:
            _check_file_output(getattr(args, flag), f"--{flag}")
        if args.command == "train":  # its report, written after the weights
            _check_file_output(str(report_path(args.out)), "the report of --out")
        return _COMMANDS[args.command](args)
    except (MarsdustError, OSError) as exc:
        return _report(exc)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
