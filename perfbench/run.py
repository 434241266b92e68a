#!/usr/bin/env python3
"""Benchmark of tensorgds: training, 1-NN queries and all-pairs embedding.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {fit-wgds,classify-nn,embed-dist}
        --seed N --seconds S --trace {0,1}

Each run is one process with one closed-loop client. BLAS and OpenMP are
pinned to one thread before numpy loads. The run sets up `setup_repeats`
times and reports the median set-up time (each set-up ends with one warm-up
op), then runs a fixed number of ops derived from --seconds, timing each and
checking each output. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1. See README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

from reference import CheckError

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# Per-layer metrics of a traced run: (metric, span or counter, quantity).
# Op layers are reported per timed op; set-up layers per set-up, as the
# median over the run's set-ups.
OP_LAYERS = [
    ("fisher.karcher_mean_calls", "fisher.karcher_mean", "calls"),
    ("fisher.karcher_mean_ms", "fisher.karcher_mean", "ms"),
    ("fisher.karcher_unconverged", "fisher.karcher_unconverged", "calls"),
    ("fisher.fisher_mode_calls", "fisher.fisher_mode", "calls"),
    ("fisher.fisher_mode_ms", "fisher.fisher_mode", "ms"),
    ("linalg.pinv_calls", "linalg.pinv", "calls"),
    ("pipeline.optimize_gds_dims_ms", "pipeline.optimize_gds_dims", "ms"),
    ("gds.mode_gram_ms", "gds.mode_gram", "ms"),
    ("gds.gds_from_gram_calls", "gds.gds_from_gram", "calls"),
    ("gds.gds_from_gram_ms", "gds.gds_from_gram", "ms"),
    ("manifold.weighted_geodesic_calls", "manifold.weighted_geodesic", "calls"),
    ("manifold.weighted_geodesic_ms", "manifold.weighted_geodesic", "ms"),
    ("subspace.principal_angles_calls", "subspace.principal_angles", "calls"),
    ("subspace.principal_angles_ms", "subspace.principal_angles", "ms"),
    ("subspace.geodesic_distance_calls", "subspace.geodesic_distance", "calls"),
    ("pipeline.classify_ms", "pipeline.classify", "ms"),
    ("pipeline.pairwise_distances_ms", "pipeline.pairwise_distances", "ms"),
    ("pipeline.transform_ms", "pipeline.transform", "ms"),
    ("tensor.unfold_calls", "tensor.unfold", "calls"),
    ("tensor.unfold_ms", "tensor.unfold", "ms"),
    ("subspace.basis_from_unfolding_calls", "subspace.basis_from_unfolding", "calls"),
    ("subspace.basis_from_unfolding_ms", "subspace.basis_from_unfolding", "ms"),
    ("gds.project_onto_gds_calls", "gds.project_onto_gds", "calls"),
    ("gds.project_onto_gds_ms", "gds.project_onto_gds", "ms"),
    ("linalg.svd_calls", "linalg.svd", "calls"),
    ("linalg.qr_calls", "linalg.qr", "calls"),
    ("linalg.eigh_calls", "linalg.eigh", "calls"),
    ("cli.classical_mds_ms", "cli.classical_mds", "ms"),
]
SETUP_LAYERS = [
    ("dataio.generate_synthetic_ms", "dataio.generate_synthetic", "ms"),
    ("dataio.write_tensor_ms", "dataio.write_tensor", "ms"),
    ("dataio.read_tensor_ms", "dataio.read_tensor", "ms"),
    ("dataio.write_model_ms", "dataio.write_model", "ms"),
    ("dataio.read_model_ms", "dataio.read_model", "ms"),
]
UNITS = {"calls": "count", "ms": "ms"}
TAIL_MIN_OPS = 100


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import tensorgds from this checkout's source tree, nowhere else."""
    src = ROOT / "src"
    if not (src / "tensorgds" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tensorgds source tree at {src}")
    sys.path.insert(0, str(src))
    import tensorgds

    if Path(tensorgds.__file__).resolve().parent != (src / "tensorgds").resolve():
        sys.exit(f"perfbench: imported tensorgds from {tensorgds.__file__}, not {src}")
    return tensorgds


def tail_ms(sorted_values):
    """Nearest-rank 90th percentile, the ceil(0.9 n)-th smallest value.

    Below TAIL_MIN_OPS ops fewer than ten samples lie beyond it, so the
    median stands in."""
    if len(sorted_values) < TAIL_MIN_OPS:
        return statistics.median(sorted_values)
    return sorted_values[math.ceil(0.9 * len(sorted_values)) - 1]


def measure(workload, seconds, run_dir, phase):
    """Set up, run and check the ops; returns the set-up times, the
    op times in ms, the number of failed ops and whether every op that
    returned passed its check."""
    setups = []
    for k in range(workload.setup_repeats):
        gc.collect()
        directory = Path(tempfile.mkdtemp(prefix=f"setup{k}-", dir=run_dir))
        with phase(f"setup:{k}"):
            t0 = time.perf_counter()
            workload.setup(directory)
            setups.append(time.perf_counter() - t0)
        shutil.rmtree(directory)
    with phase("check:prepare"):
        workload.prepare()

    times, failed, correct = [], 0, True
    count = workload.ops(seconds)
    gc.collect()
    for i in range(count):
        try:
            with phase(f"op:{i}"):
                t0 = time.perf_counter_ns()
                output = workload.run(i)
                elapsed = time.perf_counter_ns() - t0
        except Exception as exc:  # a failed op is counted, not fatal
            failed += 1
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        try:
            with phase(f"check:{i}"):
                workload.check(i, output)
        except CheckError as exc:
            failed += 1
            correct = False
            print(f"op {i} failed its check: {exc}", file=sys.stderr)
            continue
        times.append(elapsed / 1e6)
    return setups, times, count, failed, correct


def traced_metrics(tracer, times, model_bytes):
    metrics = {}
    ops = tracer.phases_named("op:")
    op_totals = tracer.phase_totals(ops)
    for metric, layer, key in OP_LAYERS:
        metrics[metric] = (op_totals.get(layer, {}).get(key, 0) / len(ops), UNITS[key])
    metrics["pipeline.search_candidates"] = (
        tracer.calls_within("fisher.fisher_mode", "pipeline.optimize_gds_dims", ops) / len(ops),
        "count",
    )
    per_setup = [tracer.phase_totals([p]) for p in tracer.phases_named("setup:")]
    for metric, layer, key in SETUP_LAYERS:
        metrics[metric] = (
            statistics.median(t.get(layer, {}).get(key, 0.0) for t in per_setup),
            UNITS[key],
        )
    metrics["dataio.model_bytes"] = (model_bytes, "bytes")
    metrics["trace.op_p50_ms"] = (statistics.median(times), "ms")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    tensorgds = import_program()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    warning = tensorgds.KarcherConvergenceWarning

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

        def phase(label):
            return tracer.phase_of(label, warning)
    else:
        warnings.simplefilter("ignore", warning)

        def phase(label):
            return contextlib.nullcontext()

    try:
        setups, times, attempted, failed, correct = measure(workload, args.seconds, run_dir, phase)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not times:
        sys.exit("perfbench: every op failed")

    if tracer is None:
        ordered = sorted(times)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_ms": (statistics.median(ordered), "ms"),
            "op_p90_ms": (tail_ms(ordered), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = traced_metrics(tracer, times, workload.model_bytes)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}")
    print(
        f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed; "
        f"set-ups {[round(s, 3) for s in setups]} s",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
