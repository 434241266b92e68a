import dataclasses
import hashlib
import json
import math
import re
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from tensorgds import DenseTensor, dataio, pipeline
from tensorgds.cli import build_parser, classical_mds, main
from tensorgds.errors import DimensionError
from tensorgds.pipeline import SETTINGS
from conftest import edit_model_conf, edit_model_matrix


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tensorgds", *map(str, args)],
        capture_output=True,
        text=True,
    )


def tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


# --- classical scaling -------------------------------------------------------


def test_mds_collinear_points():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    coords, _ = classical_mds(d, 2)
    emb = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    assert np.max(np.abs(emb - d)) <= 1e-9


def test_mds_unit_square():
    s = math.sqrt(2.0)
    d = np.array(
        [[0, 1, s, 1], [1, 0, 1, s], [s, 1, 0, 1], [1, s, 1, 0]], dtype=float
    )
    coords, evals = classical_mds(d, 2)
    emb = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    assert np.max(np.abs(emb - d)) <= 1e-9
    assert np.all(evals[2:] <= 1e-9)  # exactly planar input


def test_mds_identical_points():
    coords, _ = classical_mds(np.zeros((3, 3)), 3)
    assert np.all(coords == 0.0)


def test_mds_permutation_invariance(rng):
    pts = rng.standard_normal((6, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    perm = rng.permutation(6)
    c1, _ = classical_mds(d, 3)
    c2, _ = classical_mds(d[np.ix_(perm, perm)], 3)
    e1 = np.linalg.norm(c1[:, None, :] - c1[None, :, :], axis=2)
    e2 = np.linalg.norm(c2[:, None, :] - c2[None, :, :], axis=2)
    assert np.max(np.abs(e1[np.ix_(perm, perm)] - e2)) <= 1e-9


def test_mds_validation():
    with pytest.raises(DimensionError, match="symmetric"):
        classical_mds(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)
    with pytest.raises(DimensionError, match="diagonal"):
        classical_mds(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
    with pytest.raises(DimensionError, match="square"):
        classical_mds(np.zeros((2, 3)), 1)


# --- subcommands -------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    res = run_cli(
        "gen", "--out", out, "--seed", 7, "--classes", 3,
        "--samples-per-class", 4, "--dims", "8x8x8",
        "--shared-dim", 1, "--class-dim", 2, "--noise", 0.2,
    )
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="module")
def model_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    res = run_cli(
        "fit", "--manifest", dataset_dir / "manifest.txt", "--out", out,
        "--method", "nmode-wgds",
    )
    assert res.returncode == 0, res.stderr
    return out


def test_gen_deterministic_trees(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = run_cli(
            "gen", "--out", out, "--seed", 7, "--classes", 2,
            "--samples-per-class", 3, "--dims", "6x6x6",
            "--shared-dim", 1, "--class-dim", 2, "--noise", 0.1,
        )
        assert res.returncode == 0, res.stderr
    assert tree_digest(a) == tree_digest(b)


def test_fit_then_eval_train_split_is_perfect(dataset_dir, model_dir, tmp_path):
    out = tmp_path / "eval"
    res = run_cli(
        "eval", "--model", model_dir / "model.nmdl",
        "--manifest", dataset_dir / "manifest.txt",
        "--split", "train", "--out", out,
    )
    assert res.returncode == 0, res.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["accuracy"] == 1.0
    assert (out / "confusion.csv").exists()
    assert (out / "run_config.txt").exists()


def test_eval_dim_mismatch_exits_2(model_dir, tmp_path):
    other = tmp_path / "other"
    res = run_cli(
        "gen", "--out", other, "--seed", 3, "--classes", 2,
        "--samples-per-class", 2, "--dims", "5x5x5",
        "--shared-dim", 0, "--class-dim", 2, "--noise", 0.1,
    )
    assert res.returncode == 0
    res = run_cli(
        "eval", "--model", model_dir / "model.nmdl",
        "--manifest", other / "manifest.txt",
        "--split", "train", "--out", tmp_path / "eval",
    )
    assert res.returncode == 2
    assert "dims" in res.stderr


def test_eval_with_model_classes_the_manifest_does_not_name_exits_2(model_dir, tmp_path, capsys):
    # the model knows classes 0..2; this manifest names classes 0 and 1 only
    other = tmp_path / "other"
    res = run_cli(
        "gen", "--out", other, "--seed", 3, "--classes", 2,
        "--samples-per-class", 4, "--dims", "8x8x8",
        "--shared-dim", 1, "--class-dim", 2, "--noise", 0.2,
    )
    assert res.returncode == 0, res.stderr
    out = tmp_path / "eval"
    assert main([
        "eval", "--model", str(model_dir / "model.nmdl"),
        "--manifest", str(other / "manifest.txt"), "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: model class 2 ")
    assert not out.exists()


def test_usage_error_exits_1():
    res = run_cli("fit", "--manifest")  # missing value
    assert res.returncode == 1
    res = run_cli("frobnicate")
    assert res.returncode == 1


def test_degenerate_dataset_exits_3(tmp_path):
    # two classes with identical tensors in each class and across classes:
    # no separability anywhere
    from tensorgds.dataio import (
        DatasetManifest,
        ManifestEntry,
        write_manifest,
        write_tensor,
    )
    from tensorgds import DenseTensor

    data = tmp_path / "degenerate"
    data.mkdir()
    t = DenseTensor(np.arange(64.0).reshape(4, 4, 4))
    entries = []
    for j in range(2):
        for i in range(2):
            name = f"c{j}_s{i}.nmt"
            write_tensor(data / name, t)
            entries.append(ManifestEntry(name, j, "train"))
    write_manifest(
        data / "manifest.txt",
        DatasetManifest(tuple(entries), (4, 4, 4), ("a", "b")),
    )
    res = run_cli(
        "fit", "--manifest", data / "manifest.txt", "--out", tmp_path / "m",
        "--method", "nmode-gds",
    )
    assert res.returncode == 3, res.stderr


def test_dist_and_mds_roundtrip(dataset_dir, model_dir, tmp_path):
    dist_out = tmp_path / "dist"
    res = run_cli(
        "dist", "--model", model_dir / "model.nmdl",
        "--manifest", dataset_dir / "manifest.txt",
        "--split", "all", "--out", dist_out,
    )
    assert res.returncode == 0, res.stderr
    d = np.array(
        [
            [float(x) for x in line.split(",")]
            for line in (dist_out / "distances.csv").read_text().strip().splitlines()
        ]
    )
    assert d.shape == (12, 12)
    assert np.max(np.abs(d - d.T)) <= 1e-12

    mds_out = tmp_path / "mds"
    res = run_cli(
        "mds", "--distances", dist_out / "distances.csv", "--k", 3, "--out", mds_out
    )
    assert res.returncode == 0, res.stderr
    coords = (mds_out / "coords.csv").read_text().strip().splitlines()
    assert len(coords) == 13  # header plus one row per sample
    summary = json.loads((mds_out / "summary.json").read_text())
    assert 0.0 <= summary["negative_eigenvalue_mass"] <= 1.0


def test_fisher_subcommand(model_dir, tmp_path):
    out = tmp_path / "fisher"
    res = run_cli("fisher", "--model", model_dir / "model.nmdl", "--out", out)
    assert res.returncode == 0, res.stderr
    table = (out / "fisher.csv").read_text().splitlines()
    assert table[0] == "stage,mode,between,within,score,flag"
    assert any(row.startswith("raw,") for row in table)
    assert any(row.startswith("final,nmode") for row in table)
    weights = (out / "weights.csv").read_text().splitlines()
    assert len(weights) == 4  # header + 3 modes


def test_fit_summary_and_config_echo(model_dir):
    summary = json.loads((model_dir / "summary.json").read_text())
    assert summary["method"] == "nmode-wgds"
    assert summary["fisher_final"] >= summary["fisher_raw"]
    echo = (model_dir / "run_config.txt").read_text()
    assert "command=fit" in echo
    assert "method=nmode-wgds" in echo


def test_config_file_with_flag_override(dataset_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    # `seed` is a retired key: the file still fits, and the key is ignored
    cfg.write_text("method=pgm\nmu=0.95\nseed=3\nalpha-max=3\n")
    out = tmp_path / "fit"
    res = run_cli(
        "fit", "--manifest", dataset_dir / "manifest.txt", "--out", out,
        "--config", cfg, "--alpha-max", 2,
    )
    assert res.returncode == 0, res.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "pgm"  # from the file
    echo = dict(
        line.split("=", 1)
        for line in (out / "run_config.txt").read_text().splitlines()
    )
    assert echo["alpha-max"] == "2"  # flag wins over the file
    assert "seed" not in echo
    assert float(echo["mu"]) == 0.95  # 17-digit float echo parses back exactly


@pytest.mark.parametrize(
    "line", ["mu=abc", "modes=1,x", "full-spectrum=yes", "karcher-max-iter=1e2"]
)
def test_config_file_bad_value_exits_2(dataset_dir, tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = main([
        "fit", "--manifest", str(dataset_dir / "manifest.txt"),
        "--out", str(tmp_path / "fit"), "--config", str(cfg),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and repr(line.split("=")[0]) in err


def test_config_file_that_repeats_a_key_exits_2(dataset_dir, tmp_path, capsys):
    # a key stated twice is refused, as in a model file; the last value does
    # not silently win
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("method=nmode-wgds\nmethod=pgm\n")
    out = tmp_path / "fit"
    code = main([
        "fit", "--manifest", str(dataset_dir / "manifest.txt"),
        "--out", str(out), "--config", str(cfg),
    ])
    assert code == 2
    assert "config key 'method' appears twice" in capsys.readouterr().err
    assert not (out / "model.nmdl").exists()


def test_malformed_model_file_exits_2(model_dir, tmp_path, capsys):
    bad = tmp_path / "bad.nmdl"
    bad.write_bytes(
        edit_model_conf(
            (model_dir / "model.nmdl").read_bytes(),
            lambda text: text.replace("has_gds=true\n", ""),
        )
    )
    assert main(["fisher", "--model", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "'has_gds'" in err


def test_model_of_one_class_exits_2(dataset_dir, model_dir, tmp_path, capsys):
    # such a model would label every query with its one class
    model = dataio.read_model(model_dir / "model.nmdl")
    refs = tuple(r for r in model.references if r.label == 2)
    one = tmp_path / "one.nmdl"
    dataio.write_model(one, dataclasses.replace(model, references=refs))
    out = tmp_path / "dist"
    assert main([
        "dist", "--model", str(one), "--manifest", str(dataset_dir / "manifest.txt"),
        "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: CONF key 'labels'") and "got 1" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["method", "gds_search"])
def test_model_with_rejected_setting_exits_2(dataset_dir, model_dir, tmp_path, capsys, key):
    bad = tmp_path / "bad.nmdl"
    bad.write_bytes(
        edit_model_conf(
            (model_dir / "model.nmdl").read_bytes(),
            lambda text: re.sub(rf"^{key}=.*$", f"{key}=foo", text, flags=re.M),
        )
    )
    assert main([
        "eval", "--model", str(bad), "--manifest", str(dataset_dir / "manifest.txt"),
        "--split", "test", "--out", str(tmp_path / "eval"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and f"'{key}': bad value 'foo'" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("alphas", "1"),
        ("betas", "99,99,99"),
        ("class_ids", "0,1,2,3,4"),
        ("dims", "1,1,1"),
        ("mode_ambients", "9,8,8"),
        ("modes", "none"),
        ("data_dims", "9,8,8"),
        # only fits of the retired mode-view type saved no tensor extents
        ("data_dims", "none"),
        ("fisher_modes", "1,2"),
        ("angle_counts", "1,2"),
    ],
)
def test_model_with_malformed_bands_or_labels_exits_2(
    dataset_dir, model_dir, tmp_path, capsys, key, value
):
    bad = tmp_path / "bad.nmdl"
    bad.write_bytes(
        edit_model_conf(
            (model_dir / "model.nmdl").read_bytes(),
            lambda text: re.sub(rf"^{key}=.*$", f"{key}={value}", text, flags=re.M),
        )
    )
    assert main([
        "eval", "--model", str(bad), "--manifest", str(dataset_dir / "manifest.txt"),
        "--split", "test", "--out", str(tmp_path / "eval"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and f"CONF key '{key}': bad value" in err


@pytest.mark.parametrize(
    "line, code",
    [
        ("karcher_tol=1e-08", 0),
        ("karcher_max_iter=100", 0),
        ("karcher_tol=1e-07", 2),
        ("karcher_max_iter=50", 2),
    ],
)
def test_model_with_a_retired_karcher_key_loads_only_at_the_fixed_rule(
    dataset_dir, model_dir, tmp_path, capsys, line, code
):
    # older writers saved the Karcher stopping rule; the reader drops it at
    # the rule every fit now runs and refuses any other value by its key
    old = tmp_path / "old.nmdl"
    old.write_bytes(
        edit_model_conf((model_dir / "model.nmdl").read_bytes(), lambda text: text + line + "\n")
    )
    assert main([
        "eval", "--model", str(old), "--manifest", str(dataset_dir / "manifest.txt"),
        "--split", "test", "--out", str(tmp_path / "eval"),
    ]) == code
    key, _, value = line.partition("=")
    if code:
        err = capsys.readouterr().err
        assert err.startswith("data error") and f"CONF key '{key}': bad value '{value}'" in err


@pytest.mark.parametrize("what", ["model", "manifest", "config"])
def test_files_that_do_not_decode_exit_2(dataset_dir, model_dir, tmp_path, capsys, what):
    # a matrix section too short for its name length, and text that is not
    # UTF-8, are data errors, not tracebacks
    model = (model_dir / "model.nmdl").read_bytes()
    manifest = (dataset_dir / "manifest.txt").read_bytes()
    body = model[:-4] + b"MATX" + struct.pack("<Q", 1) + b"\x01"
    bad = {
        "model": body + struct.pack("<I", zlib.crc32(body)),
        "manifest": manifest.replace(b"class0", b"class\xff", 1),
        "config": b"mu=\xff\n",
    }[what]
    path = tmp_path / f"bad.{what}"
    path.write_bytes(bad)
    out = str(tmp_path / "out")
    argv = {
        "model": ["fisher", "--model", str(path), "--out", out],
        "manifest": ["fit", "--manifest", str(path), "--data-dir", str(dataset_dir), "--out", out],
        "config": [
            "fit", "--manifest", str(dataset_dir / "manifest.txt"), "--out", out,
            "--config", str(path),
        ],
    }[what]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error")
    assert ("malformed section payload" if what == "model" else "cannot read") in err


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("command", ["fit", "eval", "dist"])
def test_tensor_file_with_a_non_finite_entry_exits_2(
    dataset_dir, model_dir, tmp_path, capsys, command, value
):
    # one bad entry in a training tensor is a data error naming the file, not
    # an SVD traceback
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    manifest = data / "manifest.txt"
    entry = next(e for e in dataio.load_manifest(manifest).entries if e.split == "train")
    tensor = dataio.read_tensor(data / entry.path).data.copy()
    tensor.flat[5] = value
    dataio.write_tensor(data / entry.path, DenseTensor(tensor))
    model, out = str(model_dir / "model.nmdl"), str(tmp_path / "out")
    argv = {
        "fit": ["fit", "--manifest", str(manifest), "--out", out],
        "eval": ["eval", "--model", model, "--manifest", str(manifest), "--split", "train"],
        "dist": ["dist", "--model", model, "--manifest", str(manifest), "--split", "all"],
    }[command]
    assert main(argv + (["--out", out] if command != "fit" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error")
    assert f"{entry.path} has 1 non-finite entries" in err


def test_tensor_file_that_fails_to_decode_exits_2_naming_it(dataset_dir, tmp_path, capsys):
    # a decode error names the file, as the non-finite check does, so the
    # bad file of a large set can be found from the message alone
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    manifest = data / "manifest.txt"
    entry = next(e for e in dataio.load_manifest(manifest).entries if e.split == "train")
    path = data / entry.path
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    assert main(["fit", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error")
    assert f"tensor file {path}: bad magic at offset 0: expected b'NMT1', got b'XXXX'" in err


def test_model_with_references_of_mixed_width_exits_2(dataset_dir, model_dir, tmp_path, capsys):
    def narrow(basis):
        assert basis.shape[1] >= 2
        return basis[:, :-1]

    bad = tmp_path / "bad.nmdl"
    bad.write_bytes(edit_model_matrix((model_dir / "model.nmdl").read_bytes(), "ref0_m1", narrow))
    assert main([
        "eval", "--model", str(bad), "--manifest", str(dataset_dir / "manifest.txt"),
        "--split", "test", "--out", str(tmp_path / "eval"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "MATX section 'ref0_m1': bad value" in err
    assert "wide; most references of mode 1 are" in err


@pytest.mark.filterwarnings("ignore::tensorgds.KarcherConvergenceWarning")
def test_config_file_legacy_search_value_still_fits(dataset_dir, tmp_path):
    cfg = tmp_path / "legacy.cfg"
    cfg.write_text("search=exhaustive\n")
    out = tmp_path / "fit"
    assert main([
        "fit", "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out),
        "--config", str(cfg),
    ]) == 0
    # it reads as the value of the one band search, and is echoed as that
    assert "search=coordinate" in (out / "run_config.txt").read_text().splitlines()


def test_main_in_process_exit_codes(tmp_path):
    assert main(["mds", "--distances", str(tmp_path / "missing.csv"), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("0,1\n1\n", "ragged rows"),
        ("0,nan\nnan,0\n", "non-finite"),
        ("0,inf\ninf,0\n", "non-finite"),
    ],
)
def test_mds_rejects_ragged_and_non_finite_matrices(tmp_path, capsys, text, message):
    path = tmp_path / "distances.csv"
    path.write_text(text)
    assert main(["mds", "--distances", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "coords.csv").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--classes", "1"],
        ["--train-frac", "0"],
        ["--noise", "-1"],
        ["--dims", "12xab"],
        ["--dims", "12x0x12"],
    ],
)
def test_gen_invalid_parameters_exit_1(tmp_path, capsys, flags):
    assert main(["gen", "--out", str(tmp_path / "gen"), *flags]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    if flags[0] == "--dims":
        assert "--dims" in err[0] and "12x12x12" in err[0]


@pytest.mark.parametrize("k", ["0", "-2"])
def test_mds_invalid_k_exit_1(tmp_path, capsys, k):
    path = tmp_path / "distances.csv"
    path.write_text("0,1\n1,0\n")
    out = tmp_path / "out"
    assert main(["mds", "--distances", str(path), "--k", k, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "--k" in err[0]
    assert not (out / "coords.csv").exists()


def test_fit_flags_are_the_settings_keys():
    subparsers = next(
        a for a in build_parser()._actions if a.dest == "command"
    )
    flags = {
        opt
        for action in subparsers.choices["fit"]._actions
        for opt in action.option_strings
    } - {"-h", "--help", "--manifest", "--data-dir", "--out", "--config"}
    assert flags == {f"--{s.key}" for s in SETTINGS}


@pytest.mark.filterwarnings("ignore::tensorgds.KarcherConvergenceWarning")
def test_run_config_settings_reproduce_the_fit(dataset_dir, tmp_path):
    manifest = str(dataset_dir / "manifest.txt")
    first = tmp_path / "flags"
    assert main([
        "fit", "--manifest", manifest, "--out", str(first),
        "--method", "nmode-wgds", "--alpha-max", "3",
        "--angles", "1,1,1", "--full-spectrum", "--mu", "0.85",
    ]) == 0
    settings = [
        line
        for line in (first / "run_config.txt").read_text().splitlines()
        if not line.startswith(("command=", "manifest="))
    ]
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("\n".join(settings) + "\n")
    second = tmp_path / "config"
    assert main(
        ["fit", "--manifest", manifest, "--out", str(second), "--config", str(cfg)]
    ) == 0
    assert (first / "model.nmdl").read_bytes() == (second / "model.nmdl").read_bytes()


@pytest.mark.filterwarnings("ignore::tensorgds.KarcherConvergenceWarning")
@pytest.mark.parametrize("method", ["pgm", "nmode-gds", "nmode-wgds"])
def test_echo_with_retired_keys_refits_the_same_model(dataset_dir, tmp_path, method):
    # an echo written while `seed`, `weights`, `beta-search` and the Karcher
    # stopping rule were settings carries them all; `seed` is ignored,
    # `weights` restates the weighting the method implies, `beta-search=false`
    # the band search that is left and the Karcher keys the fixed rule
    manifest = str(dataset_dir / "manifest.txt")
    first = tmp_path / "flags"
    assert main(["fit", "--manifest", manifest, "--out", str(first), "--method", method]) == 0
    settings = [
        line
        for line in (first / "run_config.txt").read_text().splitlines()
        if not line.startswith(("command=", "manifest="))
    ]
    weights = "fisher" if method == "nmode-wgds" else "uniform"
    cfg = tmp_path / "echo.cfg"
    retired = [
        "seed=0", f"weights={weights}", "beta-search=false",
        "karcher-tol=1e-08", "karcher-max-iter=100",
    ]
    cfg.write_text("\n".join(sorted(settings + retired)) + "\n")
    second = tmp_path / "config"
    assert main(
        ["fit", "--manifest", manifest, "--out", str(second), "--config", str(cfg)]
    ) == 0
    assert (first / "model.nmdl").read_bytes() == (second / "model.nmdl").read_bytes()


@pytest.mark.filterwarnings("ignore::tensorgds.KarcherConvergenceWarning")
@pytest.mark.parametrize("old, new", [("msm", "pgm"), ("gds", "nmode-gds")])
def test_echo_with_a_retired_method_refits_the_same_model(dataset_dir, tmp_path, old, new):
    # an echo of a fit with `--method msm` or `--method gds` says so; those
    # fitted the `pgm` and `nmode-gds` models, and the echo fits them still
    manifest = str(dataset_dir / "manifest.txt")
    first = tmp_path / "flags"
    assert main(["fit", "--manifest", manifest, "--out", str(first), "--method", new]) == 0
    echo = (first / "run_config.txt").read_text()
    settings = [
        line for line in echo.splitlines() if not line.startswith(("command=", "manifest="))
    ]
    assert f"method={new}" in settings
    cfg = tmp_path / "echo.cfg"
    settings[settings.index(f"method={new}")] = f"method={old}"
    cfg.write_text("\n".join(settings + ["weights=uniform"]) + "\n")
    second = tmp_path / "config"
    assert main(
        ["fit", "--manifest", manifest, "--out", str(second), "--config", str(cfg)]
    ) == 0
    assert (first / "model.nmdl").read_bytes() == (second / "model.nmdl").read_bytes()
    assert (second / "run_config.txt").read_text() == echo


@pytest.mark.parametrize(
    "flags", [["--method", "msm"], ["--method", "gds"], ["--search", "exhaustive"]]
)
def test_retired_values_as_flags_exit_1(dataset_dir, tmp_path, capsys, flags):
    # flags take only the values that run the code, as for any bad choice
    out = tmp_path / "fit"
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out), *flags])
    assert exc.value.code == 1
    assert f"invalid choice: '{flags[1]}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, flags",
    [
        ("method=pgm\nweights=fisher\n", []),
        ("weights=uniform\n", []),  # the default method is nmode-wgds
        ("weights=fisher\n", ["--method", "nmode-gds"]),
        ("weights=foo\n", []),
        # the retired beta search cannot be turned on, nor the Karcher
        # stopping rule moved from 1e-08 and 100: either would change the run
        ("beta-search=true\n", []),
        ("karcher-tol=nan\n", []),
        ("karcher-tol=1e-07\n", []),
        ("karcher-max-iter=0\n", []),
    ],
)
def test_config_file_weights_that_contradict_the_method_exit_1(
    dataset_dir, tmp_path, capsys, text, flags
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "fit"
    assert main([
        "fit", "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out),
        "--config", str(cfg), *flags,
    ]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {text.splitlines()[-1]}")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, line, name",
    [
        (["--angles", "0,1,1"], None, "angle_counts"),
        (["--mode-dims", "0,2,2"], None, "per_mode_dims"),
        ([], "angles=1,-1,1", "angle_counts"),
    ],
)
def test_bad_mode_dims_and_angles_exit_1_before_fitting(
    dataset_dir, tmp_path, capsys, monkeypatch, flags, line, name
):
    monkeypatch.setattr(pipeline, "fit", lambda *a: pytest.fail("fit ran"))
    if line is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        flags = ["--config", str(cfg)]
    out = tmp_path / "fit"
    assert main([
        "fit", "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out), *flags,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{name} entries must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "dims, code, message",
    [
        # above the extent: a data error naming the mode
        ("9,2,2", 2, "data error: per_mode_dims entry 9 for mode 1 exceeds its extent 8"),
        # within the extent but above the rank of the planted 3-dim frames
        ("2,2,4", 3, "numerical degeneracy: requested 4 basis vectors but the numerical rank is 3"),
    ],
)
def test_mode_dims_beyond_the_extent_or_the_rank(dataset_dir, tmp_path, capsys, dims, code, message):
    assert main([
        "fit", "--manifest", str(dataset_dir / "manifest.txt"),
        "--out", str(tmp_path / "fit"), "--mode-dims", dims,
    ]) == code
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize("flag", ["--karcher-tol", "--karcher-max-iter"])
def test_karcher_flags_are_unknown(dataset_dir, tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([
            "fit", "--manifest", str(dataset_dir / "manifest.txt"),
            "--out", str(tmp_path / "fit"), flag, "100",
        ])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} 100" in capsys.readouterr().err


def test_model_with_a_reference_that_is_not_orthonormal_exits_2(
    dataset_dir, model_dir, tmp_path, capsys
):
    bad = tmp_path / "bad.nmdl"
    model = (model_dir / "model.nmdl").read_bytes()
    bad.write_bytes(edit_model_matrix(model, "ref0_m1", lambda basis: basis * 2.0))
    assert main([
        "eval", "--model", str(bad), "--manifest", str(dataset_dir / "manifest.txt"),
        "--split", "test", "--out", str(tmp_path / "eval"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "MATX section 'ref0_m1': bad value" in err
    assert "basis is not column-orthonormal" in err
