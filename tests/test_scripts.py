import runpy
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_benchmark_small_dataset(tmp_path):
    main = runpy.run_path(str(SCRIPTS / "run_benchmark.py"))["main"]
    code = main([
        "--out", str(tmp_path), "--classes", "2", "--samples-per-class", "4",
        "--dims", "6x6x6",
    ])
    assert code == 0
    rows = (tmp_path / "accuracy.csv").read_text().splitlines()
    assert rows[0] == "method,modes,accuracy,score"
    # msm and gds on each of 3 modes, then pgm, nmode-gds and nmode-wgds on
    # each of the 3 mode pairs and the full set
    assert len(rows) - 1 == 18
    assert np.loadtxt(tmp_path / "distances.csv", delimiter=",").shape == (8, 8)


def test_fingerprint_small_spec():
    script = runpy.run_path(str(SCRIPTS / "fingerprint.py"))
    spec = script["SynthSpec"](2, 4, (6, 6, 6), shared_dim=1, class_dim=2, within_noise=0.2, seed=1)
    config = script["PipelineConfig"](method="nmode-wgds")
    digest = script["fingerprint"](config, spec)
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert script["fingerprint"](config, spec) == digest  # deterministic
    assert script["fingerprint"](config, spec, view=True) != digest  # data_dims differ
    assert script["fingerprint"](config, spec, unbalanced=True) != digest  # fewer samples
    names = [name for name, *_ in script["configurations"]()]
    assert len(names) == len(set(names)) == 42
