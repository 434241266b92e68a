import json
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def test_run_benchmark_small_dataset(tmp_path):
    main = runpy.run_path(str(SCRIPTS / "run_benchmark.py"))["main"]
    code = main([
        "--out", str(tmp_path), "--classes", "2", "--samples-per-class", "4",
        "--dims", "6x6x6",
    ])
    assert code == 0
    rows = (tmp_path / "accuracy.csv").read_text().splitlines()
    assert rows[0] == "method,modes,accuracy,score"
    # pgm and nmode-gds on each of the 3 modes alone (MSM and GDS), then pgm,
    # nmode-gds and nmode-wgds on each of the 3 mode pairs and the full set
    assert len(rows) - 1 == 18
    assert np.loadtxt(tmp_path / "distances.csv", delimiter=",").shape == (8, 8)


def test_fingerprint_small_spec():
    script = runpy.run_path(str(SCRIPTS / "fingerprint.py"))
    spec = script["SynthSpec"](2, 4, (6, 6, 6), shared_dim=1, class_dim=2, within_noise=0.2, seed=1)
    config = script["PipelineConfig"](method="nmode-wgds")
    digest = script["fingerprint"](config, spec)
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert script["fingerprint"](config, spec) == digest  # deterministic
    assert script["fingerprint"](config, spec, unbalanced=True) != digest  # fewer samples
    names = [name for name, *_ in script["configurations"]()]
    assert len(names) == len(set(names)) == 34


def test_fingerprint_dump_and_compare(tmp_path, capsys):
    script = runpy.run_path(str(SCRIPTS / "fingerprint.py"))
    spec = script["SynthSpec"](2, 4, (6, 6, 6), shared_dim=1, class_dim=2, within_noise=0.2, seed=1)
    config = script["PipelineConfig"]
    runs = [
        ("small/nmode-wgds", config(method="nmode-wgds"), spec, False),
        # angle counts beyond the references' dimensions: the fit fails
        ("small/pgm-failing", config(method="pgm", angle_counts=(9, 9, 9)), spec, False),
    ]
    before = tmp_path / "before.npz"
    script["dump"](before, runs)
    assert capsys.readouterr().out.splitlines() == [
        f"{script['fingerprint'](*run[1:])}  {run[0]}" for run in runs
    ]
    with np.load(before) as npz:
        arrays = dict(npz)
    assert arrays["small/nmode-wgds|bands"].shape == (3, 2)
    assert arrays["small/nmode-wgds|distances"].shape == (2, 2)
    # per training reference, one flattened w x w projector per mode, w the
    # width of the mode's band
    alpha, beta = arrays["small/nmode-wgds|bands"].T
    widths = beta - alpha + 1
    assert arrays["small/nmode-wgds|reference_projectors"].shape == (6, np.sum(widths**2))
    assert str(arrays["small/pgm-failing|error"]).startswith("DimensionError")
    # the Karcher work of the run, counted at `karcher_means` and at the
    # mean tangent of each pass; one `fisher_modes` call scores the raw bases and
    # every band candidate: one call for the class means and one for the
    # grand means
    calls = int(arrays["small/nmode-wgds|karcher_calls"])
    passes = int(arrays["small/nmode-wgds|karcher_passes"])
    set_iterations = int(arrays["small/nmode-wgds|karcher_set_iterations"])
    assert calls == 2 and 0 < passes <= set_iterations
    assert arrays["small/pgm-failing|karcher_calls"] == 0
    assert arrays["small/pgm-failing|karcher_passes"] == 0

    main = script["main"]
    assert main(["--compare", str(before), str(before)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("small/nmode-wgds: discrete match;") and "scores 0.0e+00" in lines[0]
    work = (
        f"calls {calls} -> {calls}, passes {passes} -> {passes}, "
        f"set-iterations {set_iterations} -> {set_iterations}"
    )
    assert f"; karcher warnings 0 -> 0, {work};" in lines[0]
    assert lines[1] == (
        "small/pgm-failing: discrete match; "
        "karcher warnings 0 -> 0, calls 0 -> 0, passes 0 -> 0, set-iterations 0 -> 0"
    )
    # then one summary line per compared array, named by configuration
    compared = [
        "distances", "reference_projectors", "reloaded_scores", "scores", "trace_scores", "weights"
    ]
    assert lines[2:] == [f"largest: {key} 0.0e+00 (small/nmode-wgds)" for key in compared]

    arrays["small/nmode-wgds|scores"] = arrays["small/nmode-wgds|scores"] + 1e-9
    rounded = tmp_path / "rounded.npz"
    np.savez(rounded, **arrays)
    assert main(["--compare", str(before), str(rounded)]) == 0
    out = capsys.readouterr().out
    assert "; scores 1.0e-09" in out
    assert "largest: scores 1.0e-09 (small/nmode-wgds)" in out.splitlines()

    arrays["small/nmode-wgds|karcher_warnings"] = arrays["small/nmode-wgds|karcher_warnings"] + 1
    del arrays["small/pgm-failing|error"]
    del arrays["small/pgm-failing|karcher_passes"]  # as in a dump from before it was saved
    changed = tmp_path / "changed.npz"
    np.savez(changed, **arrays)
    assert main(["--compare", str(before), str(changed)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "discrete DIFFER (karcher_warnings); karcher warnings 0 -> 1," in lines[0]
    assert lines[1] == (
        "small/pgm-failing: discrete DIFFER (error); "
        "karcher warnings 0 -> 0, calls 0 -> 0, passes 0 -> ?, set-iterations 0 -> 0"
    )


def test_accuracy_grid_small_spec():
    script = runpy.run_path(str(SCRIPTS / "accuracy.py"))
    # the committed grid: 5 regimes, 5 seeds, 30 test samples per class
    assert script["REGIMES"] == ((0.3, 1), (0.6, 1), (0.6, 2), (1.0, 1), (1.0, 2))
    assert script["SEEDS"] == (1, 2, 3, 4, 5)
    full = script["SPEC"]
    assert (full.classes, full.dims, full.class_dim) == (4, (12, 12, 12), 2)
    assert full.samples_per_class - round(script["TRAIN_FRACTION"] * full.samples_per_class) == 30
    assert list(script["METHODS"]) == ["pgm", "nmode-gds", "nmode-wgds"]

    spec = script["SynthSpec"](2, 4, (6, 6, 6), shared_dim=1, class_dim=2, within_noise=0.0, seed=1)
    configs = {name: script["METHODS"][name] for name in ("pgm", "nmode-gds")}
    out = script["grid"](
        configs, regimes=((0.0, 1), (0.3, 1)), seeds=(1,), spec=spec, train_fraction=0.5
    )
    assert json.loads(json.dumps(out)) == out
    assert out["spec"] == {
        "classes": 2, "samples_per_class": 4, "dims": [6, 6, 6], "class_dim": 2,
        "train_fraction": 0.5, "seeds": [1],
    }
    assert [(r["within_noise"], r["shared_dim"]) for r in out["regimes"]] == [(0.0, 1), (0.3, 1)]
    for row in out["regimes"]:
        assert list(row["methods"]) == ["pgm", "nmode-gds"]
        for cell in row["methods"].values():
            keys = {"mean_accuracy", "worst_accuracy", "accuracies", "failures", "errors"}
            assert set(cell) == keys
            accs = cell["accuracies"]
            assert len(accs) == 1 and 0.0 <= accs[0] <= 1.0
            assert cell["mean_accuracy"] == cell["worst_accuracy"] == accs[0]
            assert cell["failures"] == len(cell["errors"])
    # noise-free data: every band candidate has zero within-class spread, so
    # the difference-subspace fit raises and scores 0; pgm fits
    noise_free = out["regimes"][0]["methods"]
    assert noise_free["pgm"]["failures"] == 0
    gds = noise_free["nmode-gds"]
    assert gds["failures"] == 1 and gds["accuracies"] == [0.0]
    assert gds["errors"][0].startswith("seed 1: DegeneracyError: ")


def test_benchmark_reference_checker_passes():
    # the benchmark builds models with `TrainedModel`'s constructor and checks
    # `transform` and `pairwise_distances` against its own reference; its
    # self-test fails when a change breaks that contract
    done = subprocess.run(
        [sys.executable, "perfbench/check_reference.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
