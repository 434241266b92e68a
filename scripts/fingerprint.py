#!/usr/bin/env python3
"""Fingerprint the pipeline's outputs: one SHA-256 per configuration.

Each hash covers the saved model bytes, the per-class `classify` scores of
every test sample for the fitted and for the reloaded model, the test-split
`pairwise_distances` matrix, its `classical_mds` coordinates and
eigenvalues, the band search trace and the number of Karcher convergence
warnings; a fit that fails hashes its error instead. The `seed7-unbalanced`
runs drop the first j training samples of class j from the seed-7 set, so
its class stacks differ in size. Two source trees that
print the same lines give bit-identical outputs on these configurations, so
a change meant to keep outputs exact is checked by diffing this script's
output before and after it.

Usage, from the root of a source checkout (under a minute):
    PYTHONPATH=src python scripts/fingerprint.py
"""

import hashlib
import warnings
from collections import Counter

import numpy as np

from tensorgds import (
    KarcherConvergenceWarning,
    PipelineConfig,
    classify,
    fit,
    pairwise_distances,
    transform,
)
from tensorgds.cli import classical_mds
from tensorgds.dataio import (
    SynthSpec,
    generate_synthetic,
    ingest_feature_modes,
    model_from_bytes,
    model_to_bytes,
)
from tensorgds.tensor import unfold

SETS = {
    "seed7": SynthSpec(
        4, 10, (12, 12, 12), shared_dim=1, class_dim=2, within_noise=0.15, seed=7
    ),
    "shared2-noise0.6-seed3": SynthSpec(
        4, 10, (12, 12, 12), shared_dim=2, class_dim=2, within_noise=0.6, seed=3
    ),
    "noise-free": SynthSpec(
        4, 10, (12, 12, 12), shared_dim=1, class_dim=2, within_noise=0.0, seed=7
    ),
}
LARGE = SynthSpec(8, 25, (16, 16, 16), shared_dim=1, class_dim=2, within_noise=0.15, seed=7)

# name -> (config, whether mode 1 is read through a ModeView)
CONFIGS = {
    "msm-mode1": (PipelineConfig(method="msm", modes_used=(1,)), False),
    "gds-mode2": (PipelineConfig(method="gds", modes_used=(2,)), False),
    "pgm": (PipelineConfig(method="pgm"), False),
    "nmode-gds": (PipelineConfig(method="nmode-gds"), False),
    "nmode-wgds": (PipelineConfig(method="nmode-wgds"), False),
    # the legacy `gds_search` spelling: it runs the one band search, so its
    # outputs must be the coordinate model's (bytes apart from that setting)
    "nmode-wgds-exhaustive": (
        PipelineConfig(method="nmode-wgds", gds_search="exhaustive", gds_alpha_max=3),
        False,
    ),
    "nmode-wgds-beta": (
        PipelineConfig(method="nmode-wgds", gds_beta_search=True, gds_alpha_max=3),
        False,
    ),
    "nmode-gds-class-karcher": (
        PipelineConfig(method="nmode-gds", classifier="class-karcher"),
        False,
    ),
    "nmode-wgds-angles1-full-seed5": (
        PipelineConfig(method="nmode-wgds", angle_counts=(1, 1, 1), full_spectrum=True, seed=5),
        False,
    ),
    "nmode-gds-modeview": (PipelineConfig(method="nmode-gds"), True),
}


def configurations():
    """(name, config, spec, mode-view flag, unbalanced flag) for every
    fingerprinted run."""
    runs = [
        (f"{set_name}/{name}", config, spec, view, False)
        for set_name, spec in SETS.items()
        for name, (config, view) in CONFIGS.items()
    ]
    runs.append(("8x25-16^3/nmode-wgds", CONFIGS["nmode-wgds"][0], LARGE, False, False))
    runs.append(("8x25-16^3/nmode-gds-class-karcher", CONFIGS["nmode-gds-class-karcher"][0], LARGE, False, False))
    runs += [
        (f"seed7-unbalanced/{name}", config, SETS["seed7"], view, True)
        for name, (config, view) in CONFIGS.items()
    ]
    return runs


def fingerprint(
    config: PipelineConfig, spec: SynthSpec, view: bool = False, unbalanced: bool = False
) -> str:
    """SHA-256 over the outputs of one fit on `spec` and its test split; with
    `unbalanced`, class j (in label order) loses its first j training
    samples."""
    samples, manifest = generate_synthetic(spec, train_fraction=0.7)
    if view:
        samples = ingest_feature_modes(samples, {1: [unfold(t, 1).matrix for t in samples]})
    split = {"train": ([], []), "test": ([], [])}
    for sample, entry in zip(samples, manifest.entries):
        split[entry.split][0].append(sample)
        split[entry.split][1].append(entry.label)
    if unbalanced:
        rank = {label: j for j, label in enumerate(sorted(set(split["train"][1])))}
        seen = Counter()
        kept = ([], [])
        for sample, label in zip(*split["train"]):
            seen[label] += 1
            if seen[label] > rank[label]:
                kept[0].append(sample)
                kept[1].append(label)
        split["train"] = kept
    digest = hashlib.sha256()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", KarcherConvergenceWarning)
        try:
            model = fit(*split["train"], config)
            blob = model_to_bytes(model)
            digest.update(blob)
            for m in (model, model_from_bytes(blob)):
                for sample in split["test"][0]:
                    label, scores = classify(m, sample)
                    digest.update(repr(label).encode() + scores.tobytes())
            dist = pairwise_distances(model, [transform(model, s) for s in split["test"][0]])
            coords, evals = classical_mds(dist, 3)
            for arr in (dist, coords, evals):
                digest.update(np.ascontiguousarray(arr).tobytes())
            digest.update(repr(model.search_trace).encode())
        except Exception as exc:  # a failing fit is an output too
            digest.update(f"{type(exc).__name__}: {exc}".encode())
    unconverged = sum(issubclass(w.category, KarcherConvergenceWarning) for w in caught)
    digest.update(f"karcher_warnings={unconverged}".encode())
    return digest.hexdigest()


def main() -> int:
    for name, config, spec, view, unbalanced in configurations():
        print(f"{fingerprint(config, spec, view, unbalanced)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
