import dataclasses
import functools
import math
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgds import (
    DenseTensor,
    DimensionError,
    FormatError,
    PipelineConfig,
    ProductPoint,
    classify,
    fit,
    gds_from_gram,
    mode_weights,
    project_onto_gds,
    unfold,
)
from tensorgds.dataio import (
    RETIRED_KEYS,
    DatasetManifest,
    ManifestEntry,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    load_manifest,
    model_from_bytes,
    model_to_bytes,
    planted_bases,
    read_model,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_manifest,
    write_model,
    write_tensor,
    _model_conf,
    _model_matrices,
    _named_matrix,
    _section,
)
from tensorgds.pipeline import CHOICES
from tensorgds.subspace import Subspace, canonical_correlations
from conftest import edit_model_conf, edit_model_matrix, random_tensor

pytestmark = pytest.mark.filterwarnings("ignore::tensorgds.KarcherConvergenceWarning")


# --- tensor format ----------------------------------------------------------


def test_tensor_roundtrip_bit_identical(tmp_path, rng):
    t = random_tensor(rng, (3, 4, 5))
    path = tmp_path / "t.nmt"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.dims == t.dims
    assert back.data.tobytes() == t.data.tobytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_tensor_file_with_a_non_finite_entry_is_refused(tmp_path, rng, value):
    # the file is well formed, but no subspace can be taken of its tensor
    data = random_tensor(rng, (3, 4, 5)).data.copy()
    data[1, 2, 3] = value
    path = tmp_path / "t.nmt"
    write_tensor(path, DenseTensor(data))
    # the byte format itself holds any float64
    np.testing.assert_equal(tensor_from_bytes(path.read_bytes()).data, data)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))} has 1 non-finite entries"):
        read_tensor(path)


def test_tensor_bad_magic_names_offset(rng):
    buf = bytearray(tensor_to_bytes(random_tensor(rng, (2, 3))))
    buf[0] ^= 0xFF
    with pytest.raises(FormatError, match="offset 0"):
        tensor_from_bytes(bytes(buf))


def test_tensor_bad_version(rng):
    buf = bytearray(tensor_to_bytes(random_tensor(rng, (2, 3))))
    buf[4] = 99
    with pytest.raises(FormatError, match="version"):
        tensor_from_bytes(bytes(buf))


def test_tensor_truncation(rng):
    buf = tensor_to_bytes(random_tensor(rng, (2, 3)))
    with pytest.raises(FormatError, match="truncated"):
        tensor_from_bytes(buf[: len(buf) - 9])


def test_tensor_dims_payload_mismatch(rng):
    import struct

    buf = bytearray(tensor_to_bytes(random_tensor(rng, (2, 3))))
    struct.pack_into("<Q", buf, 8, 4)  # claim extent 4 instead of 2
    with pytest.raises(FormatError, match="truncated"):
        tensor_from_bytes(bytes(buf))


def test_tensor_checksum(rng):
    buf = bytearray(tensor_to_bytes(random_tensor(rng, (2, 3))))
    buf[-6] ^= 0x01  # flip a payload bit, keep length
    with pytest.raises(FormatError, match="checksum"):
        tensor_from_bytes(bytes(buf))


def test_tensor_dim_overflow():
    import struct
    import zlib

    body = b"NMT1" + struct.pack("<HBB", 1, 0, 9)  # 9 modes not allowed
    body += struct.pack("<9Q", *([1] * 9))
    buf = body + struct.pack("<I", zlib.crc32(body))
    with pytest.raises(FormatError, match="dim overflow"):
        tensor_from_bytes(buf)


# --- manifest ---------------------------------------------------------------


def manifest_fixture():
    entries = tuple(
        ManifestEntry(f"c{j}_s{i}.nmt", j, "train" if i < 2 else "test")
        for j in range(2)
        for i in range(3)
    )
    return DatasetManifest(entries, (4, 4, 4), ("a", "b"))


def test_manifest_roundtrip(tmp_path):
    m = manifest_fixture()
    path = tmp_path / "manifest.txt"
    write_manifest(path, m)
    back = load_manifest(path)
    assert back == m


def test_manifest_rejects_sparse_labels():
    entries = (ManifestEntry("x.nmt", 0, "train"), ManifestEntry("y.nmt", 2, "train"))
    with pytest.raises(FormatError, match="dense"):
        DatasetManifest(entries, (4, 4), ("a", "b", "c"))


def test_manifest_rejects_duplicate_paths():
    entries = (ManifestEntry("x.nmt", 0, "train"), ManifestEntry("x.nmt", 1, "train"))
    with pytest.raises(FormatError, match="unique"):
        DatasetManifest(entries, (4, 4), ("a", "b"))


def test_manifest_rejects_bad_split():
    entries = (ManifestEntry("x.nmt", 0, "validation"), ManifestEntry("y.nmt", 1, "train"))
    with pytest.raises(FormatError, match="split"):
        DatasetManifest(entries, (4, 4), ("a", "b"))


def test_load_dataset_checks_dims(tmp_path, rng):
    m = DatasetManifest(
        (ManifestEntry("x.nmt", 0, "train"), ManifestEntry("y.nmt", 1, "train")),
        (4, 4),
        ("a", "b"),
    )
    write_manifest(tmp_path / "manifest.txt", m)
    write_tensor(tmp_path / "x.nmt", random_tensor(rng, (4, 4)))
    write_tensor(tmp_path / "y.nmt", random_tensor(rng, (4, 5)))
    with pytest.raises(DimensionError, match="dims"):
        load_dataset(m, tmp_path)


# --- synthetic generator ----------------------------------------------------


def bench_spec(**kw):
    base = dict(
        classes=3,
        samples_per_class=4,
        dims=(8, 8, 8),
        shared_dim=1,
        class_dim=2,
        within_noise=0.1,
        seed=5,
    )
    base.update(kw)
    return SynthSpec(**base)


def test_generator_deterministic():
    s1, m1 = generate_synthetic(bench_spec())
    s2, m2 = generate_synthetic(bench_spec())
    assert m1 == m2
    for a, b in zip(s1, s2):
        assert a.data.tobytes() == b.data.tobytes()


def test_generator_noiseless_no_shared_plants_blocks_exactly():
    spec = bench_spec(within_noise=0.0, shared_dim=0)
    samples, manifest = generate_synthetic(spec)
    bases = planted_bases(spec)
    for i in range(len(spec.dims)):
        shared, blocks = bases[i]
        assert shared.shape[1] == 0
        per_class = []
        for j in range(spec.classes):
            cols = np.hstack(
                [
                    unfold(samples[k], i + 1)
                    for k, e in enumerate(manifest.entries)
                    if e.label == j
                ]
            )
            sub = np.linalg.svd(cols, full_matrices=False)[0][:, : spec.class_dim]
            planted = Subspace(blocks[j])
            angles = np.arccos(canonical_correlations(sub, planted))
            assert np.max(angles) <= 1e-8
            per_class.append(sub)
        # jointly drawn blocks are mutually orthogonal
        for a in range(spec.classes):
            for b in range(a + 1, spec.classes):
                angles = np.arccos(canonical_correlations(per_class[a], per_class[b]))
                assert np.min(np.abs(angles - np.pi / 2)) <= 1e-8
                assert np.max(np.abs(angles - np.pi / 2)) <= 1e-8


def test_generator_shared_direction_overlaps_classes():
    spec = bench_spec(within_noise=0.0, shared_dim=1)
    samples, manifest = generate_synthetic(spec)
    d = spec.shared_dim + spec.class_dim
    for i in range(len(spec.dims)):
        subs = []
        for j in range(spec.classes):
            cols = np.hstack(
                [
                    unfold(samples[k], i + 1)
                    for k, e in enumerate(manifest.entries)
                    if e.label == j
                ]
            )
            subs.append(np.linalg.svd(cols, full_matrices=False)[0][:, :d])
        for a in range(spec.classes):
            for b in range(a + 1, spec.classes):
                smallest = np.arccos(canonical_correlations(subs[a], subs[b]))[0]
                assert smallest <= 1e-10


def test_generator_split_counts():
    _, manifest = generate_synthetic(bench_spec(), train_fraction=0.75)
    assert [e.label for e in manifest.entries] == [0] * 4 + [1] * 4 + [2] * 4
    train = manifest.subset("train")
    assert len(train) == 9  # 3 per class


def test_spec_validation():
    with pytest.raises(ValueError):
        bench_spec(classes=1)
    with pytest.raises(ValueError):
        bench_spec(shared_dim=5, class_dim=4)  # 9 > extent 8
    with pytest.raises(ValueError):
        bench_spec(within_noise=-0.1)


# --- model container ---------------------------------------------------------


def trained_model():
    spec = bench_spec(within_noise=0.2, seed=9)
    samples, manifest = generate_synthetic(spec)
    labels = [e.label for e in manifest.entries]
    model = fit(samples, labels, PipelineConfig(method="nmode-wgds"))
    return model, samples, labels


def test_model_roundtrip_reproduces_classification(tmp_path):
    model, samples, labels = trained_model()
    path = tmp_path / "model.nmdl"
    write_model(path, model)
    back = read_model(path)
    assert back.modes == model.modes
    assert back.dims == model.dims
    assert np.array_equal(back.weights.weights, model.weights.weights)
    for g1, g2 in zip(model.gds, back.gds):
        assert np.array_equal(g1.basis, g2.basis)
    for t in samples:  # every sample doubles as a probe
        p1, s1 = classify(model, t)
        p2, s2 = classify(back, t)
        assert p1 == p2
        assert np.array_equal(s1, s2)


def test_model_truncated_file(tmp_path):
    model, _, _ = trained_model()
    buf = model_to_bytes(model)
    with pytest.raises(FormatError, match="checksum|truncated"):
        model_from_bytes(buf[:-20])


def test_model_corrupted_payload():
    model, _, _ = trained_model()
    buf = bytearray(model_to_bytes(model))
    buf[len(buf) // 2] ^= 0x10
    with pytest.raises(FormatError, match="checksum"):
        model_from_bytes(bytes(buf))


def drop_conf_line(*keys):
    return lambda text: "".join(
        line for line in text.splitlines(keepends=True) if line.partition("=")[0] not in keys
    )


def insert_conf_line(*lines):
    """Add each `key=value` where a writer that wrote the key put it: in key order."""
    return lambda text: "".join(
        sorted(
            text.splitlines(keepends=True) + [line + "\n" for line in lines],
            key=lambda l: l.partition("=")[0],
        )
    )


def set_conf_value(key, value):
    return lambda text: "".join(
        f"{key}={value}\n" if line.startswith(key + "=") else line
        for line in text.splitlines(keepends=True)
    )


def test_model_missing_conf_key_names_it():
    model, _, _ = trained_model()
    buf = edit_model_conf(model_to_bytes(model), drop_conf_line("has_gds"))
    with pytest.raises(FormatError, match="CONF key 'has_gds'"):
        model_from_bytes(buf)


def test_model_missing_matrix_section_names_it():
    model, _, _ = trained_model()
    n = len(model.references)
    buf = edit_model_conf(model_to_bytes(model), set_conf_value("n_refs", n + 1))
    with pytest.raises(FormatError, match=f"MATX section 'ref{n}_m1'"):
        model_from_bytes(buf)


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_refs", "12x"),
        ("energy_mu", "abc"),
        ("class_ids", "0,one"),
        # values that parse but that PipelineConfig rejects
        ("method", "foo"),
        ("gds_search", "foo"),
        ("dims", "0,2,2"),
        ("angle_counts", "0,1,1"),
        # reference and band values that parse but disagree with the model:
        # 12 references of classes 0..2, bands (2, 6), (1, 8), (1, 6)
        ("labels", "0,0,0,0,1,1,1,1,2,2,2"),
        ("class_ids", "0,1,2,3,4"),
        ("alphas", "1"),
        ("betas", "6,8"),
        ("ranks", "6,8,6,6"),
        ("ranks", "6,8,5"),
        ("alphas", "0,1,1"),
        ("alphas", "9,9,9"),
        ("betas", "99,99,99"),
        ("betas", "6,8,0"),
    ],
)
def test_model_unparsable_value_names_the_key(key, value):
    model, _, _ = trained_model()
    buf = edit_model_conf(model_to_bytes(model), set_conf_value(key, value))
    with pytest.raises(FormatError, match=f"CONF key '{key}': bad value"):
        model_from_bytes(buf)


@pytest.mark.parametrize("key, value", [("alphas", "3,1,1"), ("betas", "6,8,5")])
def test_model_band_that_disagrees_with_its_references_names_both_keys(key, value):
    # a valid band of the stored spectrum, but not the one the references
    # were projected onto: mode 1 keeps 5 directions, mode 3 keeps 6
    model, _, _ = trained_model()
    buf = edit_model_conf(model_to_bytes(model), set_conf_value(key, value))
    with pytest.raises(FormatError, match="CONF keys 'alphas', 'betas': mode [13]: band"):
        model_from_bytes(buf)


@functools.cache
def seed7_model_bytes(method):
    """The saved model of `method` fitted on the train split of the seed-7
    set (4 classes x 10 samples, 12^3); every method used here keeps dims
    3,2,2 and every mode's ambient is 12."""
    spec = bench_spec(
        classes=4, samples_per_class=10, dims=(12, 12, 12), within_noise=0.15, seed=7
    )
    samples, manifest = generate_synthetic(spec)
    train = [(s, e.label) for s, e in zip(samples, manifest.entries) if e.split == "train"]
    return model_to_bytes(fit(*zip(*train), PipelineConfig(method=method)))


@pytest.mark.parametrize(
    "method, key, value, reason",
    [
        # a reference part wider than its mode's dims entry
        ("nmode-wgds", "dims", "3,2,1", "mode 3: the references are 2 wide"),
        ("pgm", "dims", "3,1,2", "mode 2: the references are 2 wide"),
        # narrower, in a model without a band that could have narrowed it
        ("pgm", "dims", "3,2,3", "mode 3: the references are 2 wide"),
        ("nmode-wgds", "dims", "3,2", "need one entry for each of the 3 modes"),
        ("nmode-wgds", "modes", "none", "a model names the modes it uses"),
        # each mode's extent must be the rows of its stored spectrum, or of
        # its references without bands; every model records its extents
        ("nmode-wgds", "data_dims", "13,12,12", "mode 1: 12 rows in the stored spectrum"),
        ("pgm", "data_dims", "12,12,11", "mode 3: 12 rows in the stored references"),
        ("pgm", "data_dims", "12,12", "2 extents for mode 3"),
        ("pgm", "data_dims", "12,12,12,0", "a tensor has 2..8 extents, each at least 1"),
        ("pgm", "data_dims", "12,12,12,1,1,1,1,1,1", "a tensor has 2..8 extents, each at least 1"),
        ("nmode-wgds", "data_dims", "none", "invalid literal for int() with base 10: 'none'"),
        # the per-mode ambients are derived from the extents
        ("nmode-wgds", "mode_ambients", "13,12,12", "need '12,12,12'"),
        ("pgm", "mode_ambients", "12,12,11", "need '12,12,12'"),
        ("pgm", "mode_ambients", "12,12", "need '12,12,12'"),
        # one finite, non-negative spread per model mode; the mode ids and
        # flags are derived from them
        ("nmode-wgds", "fisher_modes", "1,2", "need '1,2,3'"),
        ("pgm", "fisher_raw_modes", "1,3,2", "need '1,2,3'"),
        ("nmode-wgds", "fisher_between", "0.5,0.5", "2 entries for 3 modes"),
        ("pgm", "fisher_raw_within", "0.5,0.5,0.5,0.5", "4 entries for 3 modes"),
        ("nmode-wgds", "fisher_raw_flags", "-,-", "need '-,-,-'"),
        ("nmode-wgds", "fisher_between", "0.5,-0.5,0.5", "spreads are finite and non-negative"),
        ("nmode-wgds", "fisher_within", "0.5,0.5,nan", "spreads are finite and non-negative"),
        ("pgm", "fisher_raw_between", "-0.5,-0.5,-0.5", "spreads are finite and non-negative"),
        ("pgm", "fisher_raw_within", "-0.5,-0.5,-0.5", "spreads are finite and non-negative"),
        ("nmode-wgds", "fisher_raw_within", "-0.5,-0.5,-0.5", "spreads are finite and non-negative"),
        # one finite, non-negative angle per mode, projected ones exactly
        # in a model with bands
        ("nmode-wgds", "angle_diag_raw", "0.5,0.5", "2 entries for 3 modes"),
        ("pgm", "angle_diag_raw", "0.5,0.5,0.5,0.5", "4 entries for 3 modes"),
        ("nmode-wgds", "angle_diag_projected", "0.5,0.5", "2 entries for 3 modes"),
        ("nmode-wgds", "angle_diag_raw", "0.5,-0.5,0.5", "angles are finite and non-negative"),
        ("nmode-wgds", "angle_diag_projected", "0.5,nan,0.5", "angles are finite and non-negative"),
        ("pgm", "angle_diag_raw", "0.5,0.5,inf", "angles are finite and non-negative"),
        ("nmode-wgds", "angle_diag_projected", "none", "could not convert string to float: 'none'"),
        ("pgm", "angle_diag_projected", "0.5,0.5,0.5", "need 'none'"),
        # the angle counts `fit` would refuse: one per mode, each at most the
        # width of the mode's references
        ("nmode-wgds", "angle_counts", "1,2", "angle_counts has 2 entries for 3 modes"),
        ("nmode-wgds", "angle_counts", "1,1,9", "angle_counts entry 9 for mode 3 is outside 1..2"),
        ("pgm", "angle_counts", "1,3,1", "angle_counts entry 3 for mode 2 is outside 1..2"),
        # every value must be the one the writer writes for the model read
        ("nmode-wgds", "format_version", "x", "need '1'"),
        ("pgm", "format_version", "2", "need '1'"),
        ("nmode-wgds", "ranks", "12,8,7", "need '12,8,8'"),
        ("nmode-wgds", "energy_mu", "0.9", "need '0.90000000000000002'"),
        # dims 3,2,2 read in the order 1,3,2 pair as they are written
        ("pgm", "modes", "1,3,2", "need '1,2,3'"),
        ("nmode-wgds", "has_gds", "false", "need 'true'"),
    ],
)
def test_model_dims_and_ambients_must_match_what_is_stored(method, key, value, reason):
    buf = seed7_model_bytes(method)
    assert model_to_bytes(model_from_bytes(buf)) == buf
    with pytest.raises(FormatError) as err:
        model_from_bytes(edit_model_conf(buf, set_conf_value(key, value)))
    assert str(err.value) == f"CONF key '{key}': bad value '{value}' ({reason})"


@pytest.mark.parametrize(
    "method, key, value",
    [
        ("nmode-wgds", "fisher_flags", "x,-,-"),
        ("nmode-wgds", "fisher_raw_flags", "-,indeterminate,-"),
        ("pgm", "fisher_raw_flags", "-,-,infinite"),
    ],
)
def test_model_flags_must_be_the_ones_the_spreads_give(method, key, value):
    buf = seed7_model_bytes(method)
    nf = getattr(model_from_bytes(buf), key.removesuffix("_flags"))
    assert [r.flag for r in nf.per_mode] == [None] * 3
    with pytest.raises(FormatError) as err:
        model_from_bytes(edit_model_conf(buf, set_conf_value(key, value)))
    assert str(err.value) == f"CONF key '{key}': bad value '{value}' (need '-,-,-')"
    # a zero within spread does give the "infinite" flag; the other spreads
    # are spelled as the writer spells them
    raw = model_from_bytes(buf).fisher_raw.per_mode
    within = ",".join(["0"] + [format(r.within, ".17g") for r in raw[1:]])
    for key, value in (("fisher_raw_within", within), ("fisher_raw_flags", "infinite,-,-")):
        buf = edit_model_conf(buf, set_conf_value(key, value))
    back = model_from_bytes(buf)
    assert back.fisher_raw.per_mode[0].flag == "infinite"
    assert model_to_bytes(back) == buf


@pytest.mark.parametrize("method", ["nmode-wgds", "nmode-gds", "pgm"])
def test_model_weights_must_be_the_ones_the_method_gives(method):
    buf = seed7_model_bytes(method)
    back = model_from_bytes(buf)
    if method == "nmode-wgds":
        expected = mode_weights([r.score for r in back.fisher.per_mode]).weights
    else:
        expected = np.ones(3)
    assert back.weights.weights.tobytes() == expected.tobytes()
    edits = [lambda w: w[:-1], lambda w: w[::-1] * 2.0, lambda w: np.full_like(w, 1.0 / 3.0)]
    if method != "nmode-wgds":  # uniform weights are all ones, not 1/3 each
        edits[2] = lambda w: w / 3.0
    for edit in edits:
        with pytest.raises(FormatError, match="MATX section 'weights': bad value"):
            model_from_bytes(edit_model_matrix(buf, "weights", edit))
    if method == "nmode-wgds":  # an infinite score has no weights
        within = ",".join(["0"] + [repr(r.within) for r in back.fisher.per_mode[1:]])
        for key, value in (("fisher_within", within), ("fisher_flags", "infinite,-,-")):
            buf = edit_model_conf(buf, set_conf_value(key, value))
        with pytest.raises(FormatError, match="'weights': the stored scores give none"):
            model_from_bytes(buf)


def test_model_references_of_one_mode_must_share_a_width():
    # a band may narrow a reference, but all of a mode's references stack
    # into one array, so they must be narrowed alike; the error names the
    # reference whose width differs from most
    buf = seed7_model_bytes("nmode-wgds")
    for i in (0, 5):
        bad = edit_model_matrix(buf, f"ref{i}_m1", lambda basis: basis[:, :-1])
        with pytest.raises(FormatError) as err:
            model_from_bytes(bad)
        assert str(err.value).startswith(f"MATX section 'ref{i}_m1': bad value ")
        assert str(err.value).endswith("(2 wide; most references of mode 1 are 3 wide)")


DESCENDING = "need finite, descending values, the leading one positive"


@pytest.mark.parametrize(
    "section, edit, reason",
    [
        ("gds1_eigvecs", lambda v: v * 2.0, "not column-orthonormal (max deviation 3.000e+00)"),
        ("gds1_eigvecs", lambda v: v[:, :-1], "12x11 is not square"),
        ("gds2_eigvecs", lambda v: -v, "column signs are not fixed"),
        ("gds1_eigvals", lambda v: v[:-1], "need one column of 12 eigenvalues"),
        ("gds1_eigvals", lambda v: v[::-1], DESCENDING),
        ("gds3_eigvals", np.zeros_like, DESCENDING),
        ("gds3_eigvals", lambda v: np.where(v == v.max(), np.nan, v), DESCENDING),
    ],
)
def test_model_spectrum_must_be_one_that_mode_gram_writes(section, edit, reason):
    buf = seed7_model_bytes("nmode-wgds")
    with pytest.raises(FormatError) as err:
        model_from_bytes(edit_model_matrix(buf, section, edit))
    assert str(err.value).startswith(f"MATX section '{section}': bad value ")
    assert str(err.value).endswith(f"{reason})")


@pytest.mark.parametrize("method", ["nmode-wgds", "pgm"])
@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda basis: basis * 2.0, "basis is not column-orthonormal (max deviation 3.000e+00)"),
        (np.zeros_like, "basis is not column-orthonormal (max deviation 1.000e+00)"),
        (lambda basis: basis * np.nan, "basis is not column-orthonormal (max deviation nan)"),
        (lambda basis: basis[:1], "exceeds ambient dimension 1"),
    ],
)
def test_model_references_must_be_orthonormal_bases(method, edit, reason):
    buf = seed7_model_bytes(method)
    with pytest.raises(FormatError) as err:
        model_from_bytes(edit_model_matrix(buf, "ref0_m1", edit))
    assert str(err.value).startswith("MATX section 'ref0_m1': bad value ")
    assert str(err.value).endswith(f"{reason})")
    # the angle counts of a model that loads reach every reference width
    model = model_from_bytes(buf)
    widths = [b.shape[1] for b in model.references[0].bases]
    counts = ",".join(map(str, widths))
    back = model_from_bytes(edit_model_conf(buf, set_conf_value("angle_counts", counts)))
    assert back.config.angle_counts == tuple(widths)


def with_checksum(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize(
    "section",
    [
        # a matrix section too short for its name length
        _section(b"MATX", b""),
        _section(b"MATX", b"\x01"),
        # text that is not UTF-8
        _section(b"CONF", b"method=\xff\n"),
        _section(b"MATX", struct.pack("<H", 1) + b"\xff"),
    ],
)
def test_model_sections_that_do_not_decode_are_format_errors(section):
    buf = with_checksum(b"NMDL" + struct.pack("<H", 1) + section)
    with pytest.raises(FormatError, match="malformed section payload at offset 18: "):
        model_from_bytes(buf)


@pytest.mark.parametrize("method", ["nmode-wgds", "pgm"])
def test_model_file_must_be_framed_as_the_writer_frames_it(method):
    buf = seed7_model_bytes(method)
    back = model_from_bytes(buf)
    *_, (last, value) = _model_conf(back).items()

    def swap_last_lines(text):
        lines = text.splitlines(keepends=True)
        return "".join(lines[:-2] + [lines[-1], lines[-2]])

    cases = {
        f"CONF section: no newline after '{last}={value}'": edit_model_conf(buf, str.rstrip),
        f"CONF key '{last}' appears twice": edit_model_conf(
            buf, lambda text: text + f"{last}={value}\n"
        ),
        "CONF key 'zzz': the writer does not write it here": edit_model_conf(
            buf, lambda text: text + "zzz=1\n"
        ),
        f"CONF key '{last}': the writer does not write it here": edit_model_conf(
            buf, swap_last_lines
        ),
        "MATX section 'weights' appears twice": with_checksum(
            buf[:-4] + _named_matrix("weights", back.weights.weights[:, None])
        ),
        "MATX section 'ref99_m1': the writer does not write it here": with_checksum(
            buf[:-4] + _named_matrix("ref99_m1", np.eye(12, 3))
        ),
    }
    for message, bad in cases.items():
        with pytest.raises(FormatError, match=re.escape(message)):
            model_from_bytes(bad)


# Values a single CONF edit may set: tokens of every kind the file uses, and
# short strings of the characters its numbers, flags and lists are made of.
TOKENS = (
    "", "x", "none", "-", "0", "-0", "1", "01", " 1", "-1", "2", "3", "12", "13", "0.5",
    "-0.5", "nan", "inf", "-inf", "1e-8", "true", "True", "false", "infinite", "1,2",
    "3,2,1", "1,1,1", "0,0,0", "-0.5,-0.5,-0.5", "-,-,-", "12,12,12,12",
    "msm", "gds", "exhaustive",
)
# The retired values of older files, by key, and what they read as.
RETIRED_VALUES = {
    ("method", "msm"): "pgm",
    ("method", "gds"): "nmode-gds",
    ("gds_search", "exhaustive"): "coordinate",
}


@st.composite
def conf_edits(draw, conf):
    """A key of `conf` and its edited value, or None to drop the key."""
    key = draw(st.sampled_from(sorted(conf)))
    items = conf[key].split(",")
    item = st.one_of(
        st.sampled_from(TOKENS + tuple(items)), st.text("0123456789.-e, abcfinotuxy", max_size=6)
    )
    i = draw(st.integers(0, len(items) - 1))
    value = draw(
        st.one_of(
            st.none(),
            st.sampled_from(TOKENS + tuple(conf.values())),
            item.map(lambda x: ",".join(items[:i] + [x] + items[i + 1 :])),
            st.lists(item, min_size=1, max_size=5).map(",".join),
        )
    )
    return key, value


@settings(max_examples=400, deadline=None)
@given(method=st.sampled_from(["nmode-wgds", "pgm"]), data=st.data())
def test_a_single_key_edit_is_refused_by_name_or_saves_back_to_the_same_bytes(method, data):
    # a file that states two facts that disagree cannot say which was edited,
    # so the error may name a key derived from the edited one
    buf = seed7_model_bytes(method)
    key, value = data.draw(conf_edits(_model_conf(model_from_bytes(buf))))
    edit = drop_conf_line(key) if value is None else set_conf_value(key, value)
    edited = edit_model_conf(buf, edit)
    try:
        back = model_from_bytes(edited)
    except FormatError as exc:
        assert re.match(r"(no )?(CONF keys?|MATX section) '", str(exc)), str(exc)
    else:
        # only a retired value saves back otherwise: as the value it reads as
        new = RETIRED_VALUES.get((key, value))
        assert model_to_bytes(back) == (
            edited if new is None else edit_model_conf(edited, set_conf_value(key, new))
        )


@st.composite
def matrix_edits(draw, matrices):
    """A reference, spectrum or weights section of `matrices` and its edited
    matrix: scaled, two rows or columns swapped, the last row or column
    dropped, or the rows or columns reordered. The kind of section (ref#_m#,
    gds#_eigvecs, gds#_eigvals or weights) is drawn first, as references
    outnumber the rest."""
    kinds = {}
    for name in matrices:
        kinds.setdefault(re.sub(r"\d+", "#", name), []).append(name)
    name = draw(st.sampled_from(kinds[draw(st.sampled_from(sorted(kinds)))]))
    matrix = matrices[name]
    axis = draw(st.integers(0, 1))
    size = matrix.shape[axis]
    kind = draw(st.sampled_from(["scale", "swap", "truncate", "reorder"]))
    if kind == "scale":
        factor = draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0, 1.0 + 1e-12, 1.0 + 1e-6, math.nan]))
        return name, matrix * factor
    if kind == "truncate" and size > 1:
        return name, np.delete(matrix, -1, axis=axis)
    order = np.arange(size)
    if kind == "swap":
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        order[[i, j]] = order[[j, i]]
    elif kind == "reorder":
        order = np.array(draw(st.permutations(range(size))))
    return name, np.take(matrix, order, axis=axis)


@settings(max_examples=300, deadline=None)
@given(method=st.sampled_from(["nmode-wgds", "pgm"]), data=st.data())
def test_a_single_matrix_edit_is_refused_by_name_or_saves_back_to_the_same_bytes(method, data):
    buf = seed7_model_bytes(method)
    name, matrix = data.draw(matrix_edits(_model_matrices(model_from_bytes(buf))))
    edited = edit_model_matrix(buf, name, lambda _: matrix)
    try:
        back = model_from_bytes(edited)
    except FormatError as exc:
        assert str(exc).startswith(f"MATX section '{name}': "), str(exc)
    else:
        assert model_to_bytes(back) == edited


def test_legacy_exhaustive_model_matches_the_coordinate_model():
    # `exhaustive` ran the one band search, so a model that spells it differs
    # from the coordinate model only in that CONF value and the checksum; it
    # loads as the coordinate model and saves back as it
    spec = bench_spec(
        classes=4, samples_per_class=10, dims=(12, 12, 12), within_noise=0.15, seed=7
    )
    samples, manifest = generate_synthetic(spec)
    labels = [e.label for e in manifest.entries]
    coordinate = model_to_bytes(
        fit(samples, labels, PipelineConfig(method="nmode-wgds", gds_alpha_max=3))
    )
    legacy = edit_model_conf(coordinate, set_conf_value("gds_search", "exhaustive"))
    assert legacy != coordinate
    back = model_from_bytes(legacy)
    assert back.config.gds_search == "coordinate"
    assert model_to_bytes(back) == coordinate


@pytest.mark.parametrize("old, new", [("msm", "pgm"), ("gds", "nmode-gds")])
def test_legacy_method_model_loads_as_the_method_it_ran(old, new):
    # `msm` and `gds` fitted the `pgm` and `nmode-gds` models, so a model that
    # spells one differs from that model only in its `method` line
    buf = seed7_model_bytes(new)
    legacy = edit_model_conf(buf, set_conf_value("method", old))
    assert legacy != buf
    back = model_from_bytes(legacy)
    assert back.config.method == new
    assert model_to_bytes(back) == buf


def test_each_method_fits_a_model_of_its_own():
    # a method value that fits another's model but for its `method` line
    # selects no code of its own
    stripped = {
        edit_model_conf(seed7_model_bytes(method), drop_conf_line("method"))
        for method in CHOICES["method"]
    }
    assert len(stripped) == len(CHOICES["method"])


@pytest.mark.parametrize("kept", [(), (2,)])
def test_model_of_fewer_than_2_classes_is_refused(kept):
    # `fit` writes no such model; one class would win every query
    model = model_from_bytes(seed7_model_bytes("nmode-wgds"))
    few = dataclasses.replace(
        model, references=tuple(r for r in model.references if r.label in kept)
    )
    assert few.class_ids == kept
    with pytest.raises(FormatError, match=f"CONF key 'labels': .*got {len(kept)}"):
        model_from_bytes(model_to_bytes(few))


def test_model_with_the_retired_projection_tol_key_still_loads():
    spec = bench_spec(
        classes=4, samples_per_class=10, dims=(12, 12, 12), within_noise=0.15, seed=7
    )
    samples, manifest = generate_synthetic(spec)
    split = {"train": ([], []), "test": ([], [])}
    for sample, entry in zip(samples, manifest.entries):
        split[entry.split][0].append(sample)
        split[entry.split][1].append(entry.label)
    model = fit(*split["train"], PipelineConfig(method="nmode-wgds"))
    train = split["train"][0]
    # a model fitted with the retired beta search: each band ends below the
    # Gram rank, and the references are the training bases projected onto it
    bands = tuple(gds_from_gram(g, g.alpha, g.rank - 1) for g in model.gds)
    stacks = [
        project_onto_gds(
            band, np.linalg.svd(np.stack([unfold(s, mode) for s in train]))[0][..., :dim]
        )
        for band, mode, dim in zip(bands, model.modes, model.dims)
    ]
    narrowed = dataclasses.replace(
        model,
        gds=bands,
        references=tuple(
            ProductPoint(tuple(map(Subspace, parts)), label=ref.label)
            for parts, ref in zip(zip(*stacks), model.references)
        ),
    )
    assert all(g.beta < g.rank for g in narrowed.gds)
    # the class means of a class-karcher model are Karcher means of its
    # references, taken at the one stopping rule the retired keys state
    karcher = dataclasses.replace(
        model, config=dataclasses.replace(model.config, classifier="class-karcher")
    )
    karcher_lines = ("karcher_tol=1e-08", "karcher_max_iter=100")
    cases = (
        # no setting reads these keys any more, so the reader ignores them;
        # the weights come from the `weights` section whatever the scheme says
        (
            model,
            lambda text: text
            + "projection_tol=1.0000000000000001e-10\nseed=5\nweights_scheme=uniform\n"
            + "gds_beta_search=true\nkarcher_tol=1e-08\nkarcher_max_iter=100\n",
        ),
        # the beta search's narrowed bands are stored in `alphas` and `betas`,
        # and its key in the writer's (sorted) place is ignored
        (narrowed, insert_conf_line("gds_beta_search=true")),
        # the Karcher keys in the writer's places, as older writers put them
        (karcher, insert_conf_line(*karcher_lines)),
    )
    for fitted, edit in cases:
        edited = edit_model_conf(model_to_bytes(fitted), edit)
        back = model_from_bytes(edited)
        # saved again without the retired keys
        assert model_to_bytes(back) == edit_model_conf(edited, drop_conf_line(*RETIRED_KEYS))
        assert [(g.alpha, g.beta) for g in back.gds] == [(g.alpha, g.beta) for g in fitted.gds]
        for t in split["test"][0]:
            p1, s1 = classify(fitted, t)
            p2, s2 = classify(back, t)
            assert p1 == p2
            assert s1.tobytes() == s2.tobytes()
    assert b"gds_beta_search=true\n" in edit_model_conf(model_to_bytes(narrowed), cases[1][1])
    old_karcher = edit_model_conf(model_to_bytes(karcher), cases[2][1])
    assert all(line.encode() + b"\n" in old_karcher for line in karcher_lines)
    # another stopping rule would give another class-karcher model
    for line, need in (
        ("karcher_tol=1e-07", "1e-08"),
        ("karcher_tol=nan", "1e-08"),
        ("karcher_max_iter=50", "100"),
    ):
        key, _, value = line.partition("=")
        with pytest.raises(FormatError) as err:
            model_from_bytes(edit_model_conf(model_to_bytes(karcher), insert_conf_line(line)))
        assert str(err.value) == f"CONF key '{key}': bad value '{value}' (need '{need}')"
    with pytest.raises(FormatError, match="CONF key 'karcher_max_iter': bad value '1e2'"):
        model_from_bytes(
            edit_model_conf(model_to_bytes(karcher), insert_conf_line("karcher_max_iter=1e2"))
        )
    # the stored extents fix each mode's ambient dimension
    with pytest.raises(DimensionError, match=r"tensor dims \(5, 12, 12\) do not match"):
        classify(back, random_tensor(np.random.default_rng(0), (5, 12, 12)))


def test_model_dims_mismatch_at_classify(tmp_path, rng):
    model, _, _ = trained_model()
    path = tmp_path / "model.nmdl"
    write_model(path, model)
    back = read_model(path)
    with pytest.raises(DimensionError, match="dims"):
        classify(back, random_tensor(rng, (5, 5, 5)))
