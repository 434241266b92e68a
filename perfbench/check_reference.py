#!/usr/bin/env python3
"""Self-test of the benchmark's reference checker.

The reference must reproduce the analytic principal angles of planted
subspaces, agree with the program on correct output, and reject program
output that has been perturbed. Run from the root of a source checkout:

    python3 perfbench/check_reference.py
"""

import dataclasses
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import import_program  # noqa: E402  (also pins BLAS to one thread)

import_program()

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from reference import CheckError  # noqa: E402
from tensorgds import ProductPoint, WeightVector, cli, dataio, pipeline  # noqa: E402


def planted_pair(rng, d, thetas, extra=0):
    """Bases of two subspaces of R^d whose principal angles are `thetas`;
    the first gets `extra` more directions orthogonal to both. Both are
    rotated by one random orthogonal matrix and re-based within their span."""
    k = len(thetas)
    e = np.eye(d)
    a = np.hstack([e[:, :k], e[:, 2 * k : 2 * k + extra]])
    b = e[:, :k] * np.cos(thetas) + e[:, k : 2 * k] * np.sin(thetas)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    ra, _ = np.linalg.qr(rng.standard_normal((k + extra, k + extra)))
    rb, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return q @ a @ ra, q @ b @ rb


class PlantedAngles(unittest.TestCase):
    def setUp(self):
        self.rng = np.random.default_rng(0)

    def test_equal_dimensions(self):
        thetas = np.array([0.05, 0.7, 1.5])
        a, b = planted_pair(self.rng, 12, thetas)
        np.testing.assert_allclose(np.sort(ref.sine_angles(a, b)), thetas, atol=1e-12)
        np.testing.assert_allclose(np.sort(ref.sine_angles(b, a)), thetas, atol=1e-12)

    def test_unequal_dimensions(self):
        thetas = np.array([0.3, 1.1])
        a, b = planted_pair(self.rng, 12, thetas, extra=2)
        np.testing.assert_allclose(np.sort(ref.sine_angles(a, b)), thetas, atol=1e-12)
        np.testing.assert_allclose(np.sort(ref.sine_angles(b, a)), thetas, atol=1e-12)

    def test_batched_weighted_distance(self):
        weights = np.array([0.5, 0.3, 0.2])
        thetas = [np.array([0.2, 0.4]), np.array([0.1, 1.0]), np.array([0.6, 0.9])]
        pairs = [planted_pair(self.rng, 10, t) for t in thetas]
        query = [a for a, _ in pairs]
        points = ref.PointSet([[b for _, b in pairs], query])
        want = np.sqrt(sum((w * t.mean()) ** 2 for w, t in zip(weights, thetas)))
        np.testing.assert_allclose(points.distances_to(query, weights), [want, 0.0], atol=1e-12)


class ProgramOutputs(unittest.TestCase):
    """Correct program output passes; perturbed output is rejected."""

    @classmethod
    def setUpClass(cls):
        spec = dataio.SynthSpec(
            classes=3, samples_per_class=8, dims=(10, 10, 10),
            shared_dim=1, class_dim=2, within_noise=0.15, seed=3,
        )
        samples, manifest = dataio.generate_synthetic(spec, train_fraction=0.75)
        split = {
            name: ([s for s, e in zip(samples, manifest.entries) if e.split == name],
                   [e.label for e in manifest.entries if e.split == name])
            for name in ("train", "test")
        }
        cls.samples, cls.train, cls.test = samples, split["train"], split["test"]
        cls.model = pipeline.fit(*cls.train, workloads.CONFIG)
        gds = [g.basis for g in cls.model.gds]
        cls.ref_points = [
            ref.projected_point(ref.raw_point(s.data, cls.model.dims), gds) for s in samples
        ]
        cls.weights = np.asarray(cls.model.weights.weights)

    def test_class_scores(self):
        points, weights, labels = workloads.model_points(self.model)
        for s, want_pt in zip(self.samples, self.ref_points):
            _, scores = pipeline.classify(self.model, s)
            want = ref.class_scores(want_pt, points, labels, self.model.class_ids, weights)
            ref.check_close("scores", scores, want, ref.DISTANCE_TOL)
            bad = scores.copy()
            bad[0] += 1e-6
            with self.assertRaises(CheckError):
                ref.check_close("scores", bad, want, ref.DISTANCE_TOL)

    def test_distance_matrix_and_mds(self):
        points = [pipeline.transform(self.model, s) for s in self.samples]
        dist = pipeline.pairwise_distances(self.model, points)
        want = ref.distance_matrix(self.ref_points, self.weights)
        ref.check_distance_matrix(dist, want)
        coords, evals = cli.classical_mds(dist, 3)
        ref.check_mds(dist, coords, evals)

        bad = dist.copy()
        bad[0, 1] = bad[1, 0] = dist[0, 1] + 1e-6
        with self.assertRaises(CheckError):
            ref.check_distance_matrix(bad, want)
        bad = dist.copy()
        bad[0, 1] += 1e-11
        with self.assertRaises(CheckError):
            ref.check_distance_matrix(bad, want)
        bad = dist.copy()
        bad[2, 2] = 1e-9
        with self.assertRaises(CheckError):
            ref.check_distance_matrix(bad, want)
        bad = coords.copy()
        bad[3, 1] += 1e-6
        with self.assertRaises(CheckError):
            ref.check_mds(dist, bad, evals)
        with self.assertRaises(CheckError):
            ref.check_mds(dist, coords * np.array([1.0, -1.0, 1.0]), evals)

    def test_fit_properties(self):
        with tempfile.TemporaryDirectory() as scratch:
            fit = workloads.FitWgds(seed=0, scratch=Path(scratch))
            fit.data = [(self.train, self.test)] * fit.datasets
            fit.check(0, self.model)

            w = self.model.weights.weights
            with self.assertRaises(CheckError):
                fit.check(0, dataclasses.replace(self.model, weights=WeightVector(w * 1.01)))
            relabelled = tuple(
                ProductPoint(r.parts, label=(r.label + 1) % 3) for r in self.model.references
            )
            with self.assertRaises(CheckError):
                fit.check(0, dataclasses.replace(self.model, references=relabelled))
            fit.bands[0] = [(g.alpha + 1, g.beta) for g in self.model.gds]
            with self.assertRaises(CheckError):
                fit.check(0, self.model)
        for g in self.model.gds:
            bent = g.basis.copy()
            bent[:, 0] *= 1.0 + 1e-8
            self.assertGreater(ref.orthonormality_error(bent), ref.ORTHO_TOL)


if __name__ == "__main__":
    unittest.main()
