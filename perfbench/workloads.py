"""The benchmark's three workloads: their inputs, set-up, operation and
output checks.

Every workload draws its inputs with `dataio.generate_synthetic` from the run
seed and passes them through `.nmt` files, the manifest and
`dataio.load_dataset`, as `tensorgds gen` and the commands that read a
dataset do. Outputs are checked against `reference`, which shares no code
with the program, or against properties the method guarantees.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference as ref
from reference import CheckError
from tensorgds import cli, dataio, pipeline

TRAIN_FRACTION = 0.7
MDS_DIM = 3
CONFIG = pipeline.PipelineConfig(method="nmode-wgds", gds_search="coordinate")


def synth_spec(seed: int, extent: int) -> dataio.SynthSpec:
    return dataio.SynthSpec(
        classes=8,
        samples_per_class=25,
        dims=(extent,) * 3,
        shared_dim=1,
        class_dim=2,
        within_noise=0.15,
        seed=seed,
    )


def load_inputs(spec, directory: Path, splits) -> dict:
    """Generate, write, and read back the dataset as the CLI does; returns
    {split: (samples, labels)}."""
    samples, manifest = dataio.generate_synthetic(spec, train_fraction=TRAIN_FRACTION)
    for sample, entry in zip(samples, manifest.entries):
        dataio.write_tensor(directory / entry.path, sample)
    dataio.write_manifest(directory / "manifest.txt", manifest)
    del samples
    manifest = dataio.load_manifest(directory / "manifest.txt")
    return {s: dataio.load_dataset(manifest, directory, split=s) for s in splits}


def model_round_trip(model, directory: Path):
    """Write the model and read it back; returns it with the file size."""
    path = directory / "model.nmdl"
    dataio.write_model(path, model)
    return dataio.read_model(path), path.stat().st_size


def check_default_metric(model) -> None:
    """The reference implements the default distance: all angles, mean per
    mode, nearest reference."""
    cfg = model.config
    if cfg.angle_counts is not None or cfg.full_spectrum or cfg.classifier != "nn":
        raise CheckError("model does not use the distance the reference implements")


def model_points(model):
    """The model's reference points, weights and labels in reference form."""
    check_default_metric(model)
    points = ref.PointSet([[s.basis for s in r.parts] for r in model.references])
    labels = np.array([r.label for r in model.references])
    return points, np.asarray(model.weights.weights), labels


class Workload:
    """One closed-loop client: `ops(seconds)` operations, each `run(i)`
    followed by `check(i, output)`, after `setup` and `prepare`."""

    # Set-up work shows in setup_s; it is repeated and the median reported.
    # Every set-up ends with one warm-up op, so each takes seconds.
    setup_repeats = 2
    # Size of the model file the workload writes and reads back.
    model_bytes = 0

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Reference results for the checks; untimed and outside set-up."""

    def ops(self, seconds: float) -> int:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> None:
        raise NotImplementedError


class FitWgds(Workload):
    """One op is one `pipeline.fit` on a 144-tensor train split at 16^3.

    A run fits `datasets` datasets drawn from its seed in turn, in whole
    rounds, because Karcher work differs between datasets by up to a third
    and a run's median should not rest on one of them."""

    datasets = 4
    # Wall seconds per fit at the commit that introduced the benchmark; fixes
    # the op count for a given --seconds so both sides of a comparison do the
    # same work.
    nominal_op_s = 3.0

    def __init__(self, seed: int, scratch: Path):
        self.seed, self.scratch = seed, scratch
        self.bands: dict[int, list] = {}
        self._refcache: dict = {}

    def setup(self, directory):
        self.data = []
        for j in range(self.datasets):
            sub = directory / f"dataset{j}"
            sub.mkdir()
            # Dataset 0 is the run seed's own dataset.
            data = load_inputs(synth_spec(self.seed + 100_000 * j, 16), sub, ("train", "test"))
            self.data.append((data["train"], data["test"]))
        self.warm = self.run(0)

    def prepare(self):
        self.check(0, self.warm)

    def ops(self, seconds):
        rounds = max(1, round(seconds / (self.datasets * self.nominal_op_s)))
        return rounds * self.datasets

    def run(self, i):
        train, _ = self.data[i % self.datasets]
        return pipeline.fit(*train, CONFIG)

    def _reference_inputs(self, j, dims):
        """Raw test-sample bases and per-mode Gram ranks of dataset j at `dims`."""
        if (j, dims) not in self._refcache:
            (train, labels), (test, _) = self.data[j]
            raw = [ref.raw_point(t.data, dims) for t in test]
            ranks = []
            for p, k in enumerate(dims):
                class_bases = [
                    ref.leading_basis(
                        np.hstack([ref.unfold(t.data, p + 1) for t, y in zip(train, labels) if y == c]),
                        k,
                    )
                    for c in sorted(set(labels))
                ]
                ranks.append(ref.gram_rank(class_bases))
            self._refcache[j, dims] = raw, ranks
        return self._refcache[j, dims]

    def _decisions(self, model, raw):
        points, weights, labels = model_points(model)
        gds = [g.basis for g in model.gds]
        return [
            model.class_ids[int(np.argmin(
                ref.class_scores(ref.projected_point(r, gds), points, labels, model.class_ids, weights)
            ))]
            for r in raw
        ]

    def check(self, i, model):
        j = i % self.datasets
        raw, ranks = self._reference_inputs(j, tuple(model.dims))
        w = np.asarray(model.weights.weights)
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > ref.WEIGHT_SUM_TOL:
            raise CheckError(f"weights {w} are not non-negative summing to 1")
        for g, rank in zip(model.gds, ranks):
            if not 1 <= g.alpha <= min(CONFIG.gds_alpha_max, rank) or g.beta != rank:
                raise CheckError(f"mode {g.mode}: band ({g.alpha}, {g.beta}) for Gram rank {rank}")
            if ref.orthonormality_error(g.basis) > ref.ORTHO_TOL:
                raise CheckError(f"mode {g.mode}: GDS basis is not orthonormal")
        for r in model.references:
            if max(ref.orthonormality_error(s.basis) for s in r.parts) > ref.ORTHO_TOL:
                raise CheckError("a reference part is not orthonormal")
        bands = [(g.alpha, g.beta) for g in model.gds]
        if self.bands.setdefault(j, bands) != bands:
            raise CheckError(f"bands {bands} differ from the first fit of dataset {j}: {self.bands[j]}")
        decisions = self._decisions(model, raw)
        if decisions != list(self.data[j][1][1]):
            raise CheckError("test-split decisions differ from the generator's labels")
        reread, self.model_bytes = model_round_trip(model, self.scratch)
        if self._decisions(reread, raw) != decisions:
            raise CheckError("the written and re-read model decides differently")


class ClassifyNn(Workload):
    """One op is one `pipeline.classify` of a test-split tensor against the
    model fitted, written and read back in set-up."""

    nominal_round_s = 56 * 0.016
    # 2 rounds of 56 queries leave ten samples beyond the nearest-rank p90.
    min_rounds = 2

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self, directory):
        data = load_inputs(synth_spec(self.seed, 16), directory, ("train", "test"))
        self.test = data["test"]
        model = pipeline.fit(*data["train"], CONFIG)
        self.model, self.model_bytes = model_round_trip(model, directory)
        self.run(0)

    def prepare(self):
        points, weights, labels = model_points(self.model)
        gds = [g.basis for g in self.model.gds]
        self.want = [
            ref.class_scores(
                ref.projected_point(ref.raw_point(t.data, self.model.dims), gds),
                points, labels, self.model.class_ids, weights,
            )
            for t in self.test[0]
        ]

    def ops(self, seconds):
        return len(self.test[0]) * max(self.min_rounds, math.ceil(seconds / self.nominal_round_s))

    def run(self, i):
        return pipeline.classify(self.model, self.test[0][i % len(self.test[0])])

    def check(self, i, output):
        label, scores = output
        q = i % len(self.test[0])
        if label != self.test[1][q]:
            raise CheckError(f"query {q}: decided {label}, generator label {self.test[1][q]}")
        ref.check_close(f"query {q} class distances", scores, self.want[q], ref.DISTANCE_TOL)


class EmbedDist(Workload):
    """One op transforms all 200 tensors at 32^3, takes the 19,900 pairwise
    distances and embeds them in 3-D, as `tensorgds dist` then
    `tensorgds mds` do."""

    nominal_op_s = 3.6
    min_ops = 3

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self, directory):
        data = load_inputs(synth_spec(self.seed, 32), directory, ("train", "all"))
        self.samples = data["all"][0]
        model = pipeline.fit(*data["train"], CONFIG)
        self.model, self.model_bytes = model_round_trip(model, directory)
        self.run(0)

    def prepare(self):
        check_default_metric(self.model)
        gds = [g.basis for g in self.model.gds]
        points = [ref.projected_point(ref.raw_point(t.data, self.model.dims), gds) for t in self.samples]
        self.want = ref.distance_matrix(points, np.asarray(self.model.weights.weights))

    def ops(self, seconds):
        return max(self.min_ops, round(seconds / self.nominal_op_s))

    def run(self, i):
        points = [pipeline.transform(self.model, s) for s in self.samples]
        dist = pipeline.pairwise_distances(self.model, points)
        coords, evals = cli.classical_mds(dist, MDS_DIM)
        return dist, coords, evals

    def check(self, i, output):
        dist, coords, evals = output
        ref.check_distance_matrix(dist, self.want)
        ref.check_mds(dist, coords, evals)


WORKLOADS = {"fit-wgds": FitWgds, "classify-nn": ClassifyNn, "embed-dist": EmbedDist}
