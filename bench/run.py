"""marsdust benchmark: drives the public CLI in-process on seeded inputs.

    python3 bench/run.py --workload dataset --seed 1 --seconds 20 --trace 0

Run from the repository root; marsdust is imported from ``src/``.  Workloads
(see ``workloads.py``): ``dataset``, ``training`` and ``restore-foreign``.

With ``--trace 0`` the run sets up its inputs several times (median
``setup_s``), makes one warm-up pass, then repeats whole passes for
``--seconds`` and reports the median ``pass_s`` and the process's
``peak_rss_mib``.  With ``--trace 1`` it alternates untraced and traced
passes for ``--seconds`` and reports per-layer rows from the traced passes,
the stage rates from the untraced ones, and traced over untraced pass wall.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
describe the run environment, the stage rates and the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
STAGE_RATE_UNITS = {
    "synth.mpix_per_s": "Mpix/s",
    "remove_known.mpix_per_s": "Mpix/s",
    "train.samples_per_s": "1/s",
    "remove_est.mpix_per_s": "Mpix/s",
    "remove_learned.mpix_per_s": "Mpix/s",
    "eval.mpix_per_s": "Mpix/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args, workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "jobs": {name: workload.stage_jobs.get(name, 1) for name, _ in workload.stages()},
    }
    if "OPENBLAS_NUM_THREADS" in os.environ:
        env["OPENBLAS_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"]
    return env


def median_dict(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def forward_peak_mib(workload) -> float:
    """tracemalloc peak of one whole-frame inference, single-threaded."""
    import tracemalloc

    import numpy as np
    from marsdust.tinynet import forward, infer_config, load_weights

    weights = load_weights(workload.inputs / "model.mdw")
    cfg = infer_config(weights)
    samples = next(iter(workload.sources.values()))
    chw = np.moveaxis(samples / 255.0, 2, 0)[None]
    tracemalloc.start()
    try:
        forward(weights, cfg, chw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def measure(workload, seconds: float, trace: bool) -> dict:
    from layers import PER_LAYER_UNITS, install, layer_metrics
    from tracer import Tracer

    setup_times = []
    for _ in range(SETUPS if not trace else 1):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    workload.validate_inputs()
    if workload.filter_share:
        print(json.dumps({"filter_share": workload.filter_share}))

    def traced_pass():
        tracer = Tracer()
        install(tracer, workload.foreign_paths)
        workload.tracer = tracer
        try:
            walls = workload.run_pass()
        finally:
            tracer.restore()
            workload.tracer = None
        row = layer_metrics(tracer)
        for name in workload.expected_rows:
            workload.checks.expect(row[name] > 0,
                                   f"{workload.name}: traced pass recorded no span for {name}")
        return walls["pass_s"], row, tracer.bindings

    # Warm-up: caches, allocator, lazy imports.  Traced in a traced run, for
    # the graph-node count only: the first whole-frame inference of the
    # process is where the no_grad race can show.
    warm_up = traced_pass() if trace else workload.run_pass()

    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(workload.run_pass())
        if trace:
            traced.append(traced_pass())
        if time.perf_counter() >= deadline:
            break

    rates = median_dict([workload.rates(walls) for walls in untraced])
    pass_s = statistics.median(walls["pass_s"] for walls in untraced)
    print(json.dumps({"pass_walls": untraced, "stage_rates": rates}))
    if not trace:
        return {
            "pass_s": pass_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    layers = median_dict([row for _, row, _ in traced])
    layers["trace.overhead_ratio"] = statistics.median(wall for wall, _, _ in traced) / pass_s
    layers["tinynet.infer_graph_nodes"] = max(
        row["tinynet.infer_graph_nodes"] for _, row, _ in [warm_up] + traced)
    if "remove_learned" in workload.stage_jobs:
        layers["tinynet.forward_peak_mib"] = forward_peak_mib(workload)
    print(json.dumps({"bindings": traced[0][2]}))
    report_layers(workload, layers, PER_LAYER_UNITS)
    out = {name: rates.get(name, 0.0) for name in STAGE_RATE_UNITS}
    out.update(layers)
    checks = workload.checks
    out["failed_ratio"] = checks.failed / max(checks.attempted, 1)
    return out


def report_layers(workload, layers: dict, units: dict) -> None:
    """Print the per-layer table, then the rows predicted to read zero here."""
    print(f"per-layer rows, {workload.name}, median of traced passes:")
    for name, unit in units.items():
        print(f"  {name:<30} {layers[name]:>14.6g} {unit}")
    zero = [name for name in units
            if name.endswith("_s") and not name.endswith("per_s")
            and name not in workload.expected_rows]
    print(f"rows predicted zero on {workload.name}:")
    for name in zero:
        flag = "" if layers[name] == 0 else "   <- not zero"
        print(f"  {name:<30} {layers[name]:>14.6g}{flag}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "marsdust" / "__init__.py").is_file():
        print(f"error: marsdust sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    checks = Checks()
    workload = WORKLOADS[args.workload](work, args.seed, checks)
    print(json.dumps({"environment": environment(args, workload)}))
    try:
        values = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    units = dict(END_TO_END_UNITS)
    if args.trace:
        from layers import PER_LAYER_UNITS

        units = {**STAGE_RATE_UNITS, **PER_LAYER_UNITS, "failed_ratio": "ratio"}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
