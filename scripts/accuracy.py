#!/usr/bin/env python3
"""Accuracy grid: rank the methods on noisy planted-subspace data.

Every (within_noise, shared_dim) regime of REGIMES is generated once per
generator seed of SEEDS at the fixed scale of SPEC (4 classes x 100
samples, 12^3, class_dim 2; the first 70 samples of each class train, so
each class has 30 test samples). Each configuration is fitted on the train
split at its defaults and scored by `evaluate` on the test split. A fit or
evaluation that raises scores 0 and counts as a failure, never as a skip.

The grid prints one JSON object: the fixed scale, and per regime and
configuration the mean accuracy over the seeds, the worst seed's accuracy,
the per-seed accuracies, the failure count and each failure's error.

`grid(configs, ...)` takes any mapping of names to `PipelineConfig`s, so a
wrapper can score other configurations on the same grid without a flag.

Usage, from the root of a source checkout (a few minutes):
    PYTHONPATH=src python scripts/accuracy.py > accuracy.json
"""

import argparse
import dataclasses
import json
import warnings

from tensorgds import KarcherConvergenceWarning, PipelineConfig, evaluate, fit
from tensorgds.dataio import SynthSpec, generate_synthetic

# (within_noise, shared_dim), fixed before any method change is scored
REGIMES = ((0.3, 1), (0.6, 1), (0.6, 2), (1.0, 1), (1.0, 2))
SEEDS = (1, 2, 3, 4, 5)
# the regime's noise, shared dimension and seed replace these three fields
SPEC = SynthSpec(4, 100, (12, 12, 12), shared_dim=1, class_dim=2, within_noise=0.0, seed=1)
TRAIN_FRACTION = 0.7
METHODS = {
    "pgm": PipelineConfig(method="pgm"),
    "nmode-gds": PipelineConfig(method="nmode-gds"),
    "nmode-wgds": PipelineConfig(method="nmode-wgds"),
}


def split(spec: SynthSpec, train_fraction: float):
    """The (samples, labels) of the train and of the test split of `spec`."""
    samples, manifest = generate_synthetic(spec, train_fraction=train_fraction)
    parts = {"train": ([], []), "test": ([], [])}
    for sample, entry in zip(samples, manifest.entries):
        parts[entry.split][0].append(sample)
        parts[entry.split][1].append(entry.label)
    return parts["train"], parts["test"]


def score(config: PipelineConfig, train, test) -> tuple[float, str | None]:
    """The test accuracy of `config` fitted on `train`, and None; or 0 and
    the error when the fit or the evaluation raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KarcherConvergenceWarning)
            return evaluate(fit(*train, config), *test).accuracy, None
    except Exception as exc:  # a failing fit scores 0
        return 0.0, f"{type(exc).__name__}: {exc}"


def grid(configs, regimes=REGIMES, seeds=SEEDS, spec=SPEC, train_fraction=TRAIN_FRACTION) -> dict:
    """Per regime and configuration of `configs` (name -> PipelineConfig):
    the mean and worst accuracy over `seeds`, each seed's accuracy, and the
    failures, each as "seed N: error"."""
    rows = []
    for noise, shared in regimes:
        found = {name: ([], []) for name in configs}
        for seed in seeds:
            data = dataclasses.replace(spec, within_noise=noise, shared_dim=shared, seed=seed)
            train, test = split(data, train_fraction)
            for name, config in configs.items():
                accuracy, error = score(config, train, test)
                found[name][0].append(accuracy)
                if error is not None:
                    found[name][1].append(f"seed {seed}: {error}")
        methods = {
            name: {
                "mean_accuracy": sum(accs) / len(accs),
                "worst_accuracy": min(accs),
                "accuracies": accs,
                "failures": len(errors),
                "errors": errors,
            }
            for name, (accs, errors) in found.items()
        }
        rows.append({"within_noise": noise, "shared_dim": shared, "methods": methods})
    scale = {
        "classes": spec.classes,
        "samples_per_class": spec.samples_per_class,
        "dims": list(spec.dims),
        "class_dim": spec.class_dim,
        "train_fraction": train_fraction,
        "seeds": list(seeds),
    }
    return {"spec": scale, "regimes": rows}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    print(json.dumps(grid(METHODS), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
