import numpy as np
import pytest

from tensorgds import (
    DimensionError,
    FormatError,
    PipelineConfig,
    classify,
    fit,
    principal_angles,
    unfold,
)
from tensorgds.dataio import (
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
)
from tensorgds.subspace import Subspace, basis_from_unfolding
from conftest import edit_model_conf, random_tensor

pytestmark = pytest.mark.filterwarnings("ignore::tensorgds.KarcherConvergenceWarning")


# --- tensor format ----------------------------------------------------------


def test_tensor_roundtrip_bit_identical(tmp_path, rng):
    t = random_tensor(rng, (3, 4, 5))
    path = tmp_path / "t.nmt"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.dims == t.dims
    assert back.data.tobytes() == t.data.tobytes()


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
            sub = basis_from_unfolding(cols, dim=spec.class_dim)
            planted = Subspace(blocks[j])
            angles = principal_angles(sub, planted).angles
            assert np.max(angles) <= 1e-8
            per_class.append(sub)
        # jointly drawn blocks are mutually orthogonal
        for a in range(spec.classes):
            for b in range(a + 1, spec.classes):
                angles = principal_angles(per_class[a], per_class[b]).angles
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
            subs.append(basis_from_unfolding(cols, dim=d))
        for a in range(spec.classes):
            for b in range(a + 1, spec.classes):
                smallest = principal_angles(subs[a], subs[b]).angles[0]
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


def drop_conf_line(key):
    return lambda text: "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith(key + "=")
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
        ("karcher_max_iter", "0"),
        ("dims", "0,2,2"),
        ("angle_counts", "0,1,1"),
    ],
)
def test_model_unparsable_value_names_the_key(key, value):
    model, _, _ = trained_model()
    buf = edit_model_conf(model_to_bytes(model), set_conf_value(key, value))
    with pytest.raises(FormatError, match=f"CONF key '{key}': bad value"):
        model_from_bytes(buf)


def test_legacy_exhaustive_model_matches_the_coordinate_model():
    # both gds_search values run the one band search, so the models differ
    # only in that CONF value and the checksum
    spec = bench_spec(
        classes=4, samples_per_class=10, dims=(12, 12, 12), within_noise=0.15, seed=7
    )
    samples, manifest = generate_synthetic(spec)
    labels = [e.label for e in manifest.entries]
    legacy, coordinate = (
        model_to_bytes(
            fit(
                samples,
                labels,
                PipelineConfig(method="nmode-wgds", gds_search=search, gds_alpha_max=3),
            )
        )
        for search in ("exhaustive", "coordinate")
    )
    assert model_to_bytes(model_from_bytes(legacy)) == legacy
    assert legacy != coordinate
    assert edit_model_conf(legacy, set_conf_value("gds_search", "coordinate")) == coordinate


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
    edits = (
        # no setting reads these keys any more, so the reader ignores them;
        # the weights come from the `weights` section whatever the scheme says
        lambda text: text
        + "projection_tol=1.0000000000000001e-10\nseed=5\nweights_scheme=uniform\n",
        # a model that did not record its data dims checks each mode's ambient
        set_conf_value("data_dims", "none"),
    )
    for edit in edits:
        back = model_from_bytes(edit_model_conf(model_to_bytes(model), edit))
        for t in split["test"][0]:
            p1, s1 = classify(model, t)
            p2, s2 = classify(back, t)
            assert p1 == p2
            assert s1.tobytes() == s2.tobytes()
    # the last model has no data dims; the per-mode ambient check still holds
    assert back.data_dims is None
    with pytest.raises(DimensionError, match="mode 1: ambient 5"):
        classify(back, random_tensor(np.random.default_rng(0), (5, 12, 12)))


def test_model_dims_mismatch_at_classify(tmp_path, rng):
    model, _, _ = trained_model()
    path = tmp_path / "model.nmdl"
    write_model(path, model)
    back = read_model(path)
    with pytest.raises(DimensionError, match="dims"):
        classify(back, random_tensor(rng, (5, 5, 5)))
