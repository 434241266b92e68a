#!/usr/bin/env python3
"""Desk-scale benchmark on the seeded synthetic dataset.

Reports, per mode, the single-mode baselines (plain subspaces vs
difference-subspace projection) with their separability scores, then the
combined-mode ablations for the product-manifold methods, and finally exports
a pairwise distance matrix with 3-D embedding coordinates for scatter plots.

Usage:
    python scripts/run_benchmark.py --out bench_out [--seed 7] [--noise 0.15]
"""

import argparse
import itertools
import sys
import warnings
from pathlib import Path

import numpy as np

from tensorgds import (
    KarcherConvergenceWarning,
    PipelineConfig,
    evaluate,
    fit,
    pairwise_distances,
    transform,
)
from tensorgds.cli import classical_mds
from tensorgds.dataio import SynthSpec, generate_synthetic


def split_dataset(spec, train_fraction):
    samples, manifest = generate_synthetic(spec, train_fraction=train_fraction)
    tr = [(samples[i], e.label) for i, e in enumerate(manifest.entries) if e.split == "train"]
    te = [(samples[i], e.label) for i, e in enumerate(manifest.entries) if e.split == "test"]
    tr_s, tr_l = map(list, zip(*tr))
    te_s, te_l = map(list, zip(*te))
    return tr_s, tr_l, te_s, te_l


def run_method(method, modes, tr, te):
    cfg = PipelineConfig(method=method, modes_used=modes)
    model = fit(tr[0], tr[1], cfg)
    metrics = evaluate(model, te[0], te[1])
    return model, metrics


def fmt_pct(x):
    return f"{100.0 * x:6.2f}%"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--classes", type=int, default=4)
    ap.add_argument("--samples-per-class", type=int, default=10)
    ap.add_argument("--dims", default="12x12x12")
    ap.add_argument("--shared-dim", type=int, default=1)
    ap.add_argument("--class-dim", type=int, default=2)
    ap.add_argument("--noise", type=float, default=0.15)
    ap.add_argument("--train-frac", type=float, default=0.7)
    args = ap.parse_args(argv)

    warnings.simplefilter("ignore", KarcherConvergenceWarning)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = SynthSpec(
        classes=args.classes,
        samples_per_class=args.samples_per_class,
        dims=tuple(int(x) for x in args.dims.lower().split("x")),
        shared_dim=args.shared_dim,
        class_dim=args.class_dim,
        within_noise=args.noise,
        seed=args.seed,
    )
    tr_s, tr_l, te_s, te_l = split_dataset(spec, args.train_frac)
    tr, te = (tr_s, tr_l), (te_s, te_l)
    n_modes = len(spec.dims)
    print(
        f"dataset: {spec.classes} classes x {spec.samples_per_class}, dims "
        f"{spec.dims}, shared {spec.shared_dim}, class {spec.class_dim}, "
        f"noise {spec.within_noise}, seed {spec.seed} "
        f"({len(tr_s)} train / {len(te_s)} test)"
    )

    # single-mode baselines with per-mode separability, like the per-mode
    # accuracy-and-score tables: pgm on one mode is MSM, nmode-gds is GDS
    print("\nper-mode accuracy (combined separability score in parentheses)")
    header = "method      " + "".join(f"  {m}-mode          " for m in range(1, n_modes + 1))
    print(header)
    single_rows = []
    for method in ("pgm", "nmode-gds"):
        cells = []
        for mode in range(1, n_modes + 1):
            model, metrics = run_method(method, (mode,), tr, te)
            cells.append((metrics.accuracy, model.fisher.score_n))
        single_rows.append((method, cells))
        print(
            f"{method:12s}"
            + "".join(f"  {fmt_pct(a)} ({f:5.2f})" for a, f in cells)
        )

    # combined-mode ablations over every mode pair plus the full set
    combos = [c for r in range(2, n_modes + 1) for c in itertools.combinations(range(1, n_modes + 1), r)]
    print("\ncombined-mode accuracy")
    print("method      " + "".join(f"  {'-'.join(map(str, c)):14s}" for c in combos))
    combo_rows = []
    for method in ("pgm", "nmode-gds", "nmode-wgds"):
        cells = []
        for combo in combos:
            model, metrics = run_method(method, combo, tr, te)
            cells.append((metrics.accuracy, model.fisher.score_n))
        combo_rows.append((method, cells))
        print(
            f"{method:12s}"
            + "".join(f"  {fmt_pct(a)} ({f:5.2f})" for a, f in cells)
        )

    with (out / "accuracy.csv").open("w") as fh:
        fh.write("method,modes,accuracy,score\n")
        for method, cells in single_rows:
            for mode, (a, f) in enumerate(cells, start=1):
                fh.write(f"{method},{mode},{a!r},{f!r}\n")
        for method, cells in combo_rows:
            for combo, (a, f) in zip(combos, cells):
                fh.write(f"{method},{'-'.join(map(str, combo))},{a!r},{f!r}\n")

    # separability gain of the projection on the full mode set
    model, _ = run_method("nmode-wgds", None, tr, te)
    print(
        f"\nfull-set separability: raw {model.fisher_raw.score_n:.4f} -> "
        f"projected {model.fisher.score_n:.4f}; weights "
        f"{np.round(model.weights.weights, 4).tolist()}"
    )
    for mode, (raw, proj) in zip(model.modes, model.angle_diag):
        print(
            f"  mode {mode}: mean class angle {raw:.4f} -> "
            f"{proj:.4f} rad after projection"
        )

    # distance matrix and 3-D embedding for external plotting
    everything = tr_s + te_s
    points = [transform(model, s) for s in everything]
    dist = pairwise_distances(model, points)
    np.savetxt(out / "distances.csv", dist, delimiter=",")
    coords, evals = classical_mds(dist, 3)
    with (out / "coords.csv").open("w") as fh:
        fh.write("index,label,split,x1,x2,x3\n")
        labels = tr_l + te_l
        splits = ["train"] * len(tr_s) + ["test"] * len(te_s)
        for i, (lab, sp, row) in enumerate(zip(labels, splits, coords)):
            fh.write(f"{i},{lab},{sp}," + ",".join(repr(float(v)) for v in row) + "\n")
    neg = float(np.sum(np.abs(evals[evals < 0])))
    tot = float(np.sum(np.abs(evals)))
    print(
        f"\nwrote accuracy.csv, distances.csv, coords.csv to {out} "
        f"(embedding non-Euclidean mass {0.0 if tot == 0 else neg / tot:.3f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
