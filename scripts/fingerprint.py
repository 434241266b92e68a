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

A change that is meant to move outputs by rounding only is checked with
`--dump`, which also saves the arrays behind each hash (bands, dims,
decisions, scores, distances, weights, search trace and warning count) to
an .npz file, together with three unhashed arrays: `reference_projectors`,
per model reference the concatenated projectors B B^T of its parts, which
a change that only rotates the stored bases leaves alone, and the Karcher
work of the run, `karcher_calls` (calls of `fisher.karcher_means`),
`karcher_passes` (calls of `fisher._mean_tangent`, one per loop pass) and
`karcher_set_iterations` (the sets those calls stepped, summed). `--compare`
reads two such files and prints, per configuration, whether the discrete
outputs match (error, bands, dims, both models' decisions, the search
trace's bands and the warning count), the warning count and Karcher work
of both runs, and the largest absolute deviation of each other array, then
one `largest:` line per such array with its largest deviation over all
configurations and the configuration where it occurs.
`--compare` exits 1 when any discrete output differs.

Usage, from the root of a source checkout (under a minute per run):
    PYTHONPATH=src python scripts/fingerprint.py
    PYTHONPATH=src python scripts/fingerprint.py --dump after.npz
    PYTHONPATH=src python scripts/fingerprint.py --compare before.npz after.npz
"""

import argparse
import hashlib
import warnings
from collections import Counter
from unittest import mock

import numpy as np

from tensorgds import (
    KarcherConvergenceWarning,
    PipelineConfig,
    classify,
    fisher,
    fit,
    pairwise_distances,
    pipeline,
    transform,
)
from tensorgds.cli import classical_mds
from tensorgds.dataio import (
    SynthSpec,
    generate_synthetic,
    model_from_bytes,
    model_to_bytes,
)

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

CONFIGS = {
    # single-mode baselines: MSM on mode 1 and GDS on mode 2
    "pgm-mode1": PipelineConfig(method="pgm", modes_used=(1,)),
    "nmode-gds-mode2": PipelineConfig(method="nmode-gds", modes_used=(2,)),
    "pgm": PipelineConfig(method="pgm"),
    "nmode-gds": PipelineConfig(method="nmode-gds"),
    "nmode-wgds": PipelineConfig(method="nmode-wgds"),
    "nmode-wgds-alpha3": PipelineConfig(method="nmode-wgds", gds_alpha_max=3),
    "nmode-gds-class-karcher": PipelineConfig(method="nmode-gds", classifier="class-karcher"),
    "nmode-wgds-angles1-full": PipelineConfig(
        method="nmode-wgds", angle_counts=(1, 1, 1), full_spectrum=True
    ),
}


def configurations():
    """(name, config, spec, unbalanced flag) for every fingerprinted run."""
    runs = [
        (f"{set_name}/{name}", config, spec, False)
        for set_name, spec in SETS.items()
        for name, config in CONFIGS.items()
    ]
    runs.append(("8x25-16^3/nmode-wgds", CONFIGS["nmode-wgds"], LARGE, False))
    runs.append(("8x25-16^3/nmode-gds-class-karcher", CONFIGS["nmode-gds-class-karcher"], LARGE, False))
    runs += [
        (f"seed7-unbalanced/{name}", config, SETS["seed7"], True)
        for name, config in CONFIGS.items()
    ]
    return runs


# outputs that must match exactly; every other array is compared by its
# largest absolute deviation
DISCRETE = (
    "error", "bands", "dims", "decisions", "reloaded_decisions", "trace_bands", "karcher_warnings"
)
# printed by `--compare` as both runs' values, never as a deviation
KARCHER = {
    "warnings": "karcher_warnings",
    "calls": "karcher_calls",
    "passes": "karcher_passes",
    "set-iterations": "karcher_set_iterations",
}


def run(config: PipelineConfig, spec: SynthSpec, unbalanced: bool = False) -> tuple[str, dict]:
    """SHA-256 over the outputs of one fit on `spec` and its test split, and
    the arrays behind it keyed by output name; with `unbalanced`, class j (in
    label order) loses its first j training samples."""
    samples, manifest = generate_synthetic(spec, train_fraction=0.7)
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
    out = {}
    work = Counter()
    mean_tangent, karcher_means = fisher._mean_tangent, fisher.karcher_means

    def counting(base, members):
        work["karcher_passes"] += 1
        work["karcher_set_iterations"] += members.shape[0]
        return mean_tangent(base, members)

    def counting_means(*args, **kwargs):
        work["karcher_calls"] += 1
        return karcher_means(*args, **kwargs)

    # `pipeline` calls `karcher_means` for the class-karcher class means
    with (
        warnings.catch_warnings(record=True) as caught,
        mock.patch.object(fisher, "_mean_tangent", counting),
        mock.patch.object(fisher, "karcher_means", counting_means),
        mock.patch.object(pipeline, "karcher_means", counting_means),
    ):
        warnings.simplefilter("always", KarcherConvergenceWarning)
        try:
            model = fit(*split["train"], config)
            blob = model_to_bytes(model)
            digest.update(blob)
            out["dims"] = np.array(model.dims)
            out["bands"] = np.array([(g.alpha, g.beta) for g in model.gds or ()], dtype=int)
            out["weights"] = model.weights.weights
            # not hashed, so the printed hashes of a tree stay as they were
            out["reference_projectors"] = np.array(
                [
                    np.concatenate([(p.basis @ p.basis.T).ravel() for p in ref.parts])
                    for ref in model.references
                ]
            )
            for tag, m in (("", model), ("reloaded_", model_from_bytes(blob))):
                decisions, scores = [], []
                for sample in split["test"][0]:
                    label, row = classify(m, sample)
                    digest.update(repr(label).encode() + row.tobytes())
                    decisions.append(label)
                    scores.append(row)
                out[tag + "decisions"] = np.array(decisions)
                out[tag + "scores"] = np.array(scores)
            dist = pairwise_distances(model, [transform(model, s) for s in split["test"][0]])
            coords, evals = classical_mds(dist, 3)
            for arr in (dist, coords, evals):
                digest.update(np.ascontiguousarray(arr).tobytes())
            out["distances"] = dist
            trace = model.search_trace
            digest.update(repr(trace).encode())
            out["trace_bands"] = np.array(
                [(t["round"], t["mode"], t["alpha"], t["beta"]) for t in trace], dtype=int
            )
            out["trace_scores"] = np.array([t["score"] for t in trace], dtype=float)
        except Exception as exc:  # a failing fit is an output too
            error = f"{type(exc).__name__}: {exc}"
            digest.update(error.encode())
            out["error"] = np.array(error)
    unconverged = sum(issubclass(w.category, KarcherConvergenceWarning) for w in caught)
    digest.update(f"karcher_warnings={unconverged}".encode())
    out["karcher_warnings"] = np.array(unconverged)
    # not hashed: the work to reach the same means may change
    for key in ("karcher_calls", "karcher_passes", "karcher_set_iterations"):
        out[key] = np.array(work[key])
    return digest.hexdigest(), out


def fingerprint(config: PipelineConfig, spec: SynthSpec, unbalanced: bool = False) -> str:
    """The SHA-256 of `run`."""
    return run(config, spec, unbalanced)[0]


def dump(path, runs) -> None:
    """Print the hash of each (name, config, spec, unbalanced) run and save
    its arrays to the .npz file `path` under "<name>|<output>" keys."""
    arrays = {}
    for name, config, spec, unbalanced in runs:
        digest, out = run(config, spec, unbalanced)
        print(f"{digest}  {name}", flush=True)
        arrays.update({f"{name}|{key}": value for key, value in out.items()})
    np.savez(path, **arrays)


def _grouped(npz) -> dict:
    runs = {}
    for key in npz.files:
        name, output = key.rsplit("|", 1)
        runs.setdefault(name, {})[output] = npz[key]
    return runs


def compare(path_a, path_b) -> int:
    """Print, per configuration of two `dump` files, whether the discrete
    outputs match, both runs' Karcher warnings and work, and the largest
    absolute deviation of each other array, then that array's largest
    deviation over all configurations; 0 when every discrete output matches,
    else 1."""
    with np.load(path_a) as a, np.load(path_b) as b:
        runs_a, runs_b = _grouped(a), _grouped(b)
    status = 0
    largest = {}  # output -> (deviation, configuration)
    for name in list(runs_a) + [n for n in runs_b if n not in runs_a]:
        if name not in runs_a or name not in runs_b:
            print(f"{name}: only in {path_a if name in runs_a else path_b}")
            status = 1
            continue
        ra, rb = runs_a[name], runs_b[name]
        # an output present on one side only differs too
        differ = [key for key in DISCRETE if not np.array_equal(ra.get(key), rb.get(key))]
        status |= bool(differ)
        fields = ["discrete " + (f"DIFFER ({', '.join(differ)})" if differ else "match")]
        # a dump written before the work was saved shows it as "?"
        fields.append("karcher " + ", ".join(
            f"{label} {ra.get(key, '?')} -> {rb.get(key, '?')}" for label, key in KARCHER.items()
        ))
        for key in sorted(set(ra) & set(rb) - set(DISCRETE) - set(KARCHER.values())):
            if ra[key].shape != rb[key].shape:
                fields.append(f"{key} shape {ra[key].shape} vs {rb[key].shape}")
            elif ra[key].size:
                deviation = np.max(np.abs(ra[key] - rb[key]))
                fields.append(f"{key} {deviation:.1e}")
                if key not in largest or deviation > largest[key][0]:
                    largest[key] = (deviation, name)
        print(f"{name}: " + "; ".join(fields))
    for key, (deviation, name) in sorted(largest.items()):
        print(f"largest: {key} {deviation:.1e} ({name})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--dump", metavar="FILE.npz", help="also save the hashed arrays")
    action.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.dump:
        dump(args.dump, configurations())
        return 0
    for name, config, spec, unbalanced in configurations():
        print(f"{fingerprint(config, spec, unbalanced)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
