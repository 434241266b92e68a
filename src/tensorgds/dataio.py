"""File formats, dataset manifests, and the seeded synthetic dataset
generator.

Tensor files ("NMT1"):
    magic "NMT1" | version u16 | dtype u8 (0 = float64) | ndim u8 |
    dims ndim x u64 | payload float64 (C order, last index fastest) | crc32 u32
All integers and floats are little-endian; the CRC covers every preceding
byte. Matrices are stored as 2-mode tensors.

Manifests are plain text: a `# dims: I1xI2x...` header, an optional
`# classes: name0,name1,...` header, then one `path,label,split` record per
line with dense labels 0..m-1 and split in {train, test}.

Model files ("NMDL") hold tagged sections (a canonical key=value text block
plus named NMT1-encoded matrices) and end with a whole-file crc32.

The generator uses the Philox counter-based bit generator: stream (seed, 0)
draws the planted per-mode frames, stream (seed, 1) draws the samples, so
datasets are reproducible byte for byte.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegeneracyError, DimensionError, FormatError
from .fisher import FisherReport, NModeFisher, nmode_fisher, separability_ratio
from .gds import GdsBasis, full_band, gds_from_gram
from .manifold import ProductPoint, WeightVector
from .pipeline import SETTINGS, PipelineConfig, TrainedModel
from .subspace import Subspace, qr_positive
from .tensor import MAX_ORDER, DenseTensor, mode_multiply

TENSOR_MAGIC = b"NMT1"
TENSOR_VERSION = 1
DTYPE_F64 = 0
MODEL_MAGIC = b"NMDL"
MODEL_VERSION = 1

# Relative energy boost of the planted common component in the synthetic
# generator; a strong shared block gives classes the structural overlap the
# difference-subspace projection is meant to remove.
SHARED_GAIN = 1.5


class NamedValues(dict):
    """Values by name read from a model or config file; a missing name, or a
    value that its parser rejects, is a FormatError naming it."""

    def __init__(self, what: str):
        super().__init__()
        self.what = what

    def __missing__(self, name: str):
        raise FormatError(f"no {self.what} {name!r}")

    def parse(self, name: str, kind, many: bool = False):
        """`kind` applied to the value, or with `many` to each item of its
        comma list, returned as a tuple."""
        text = self[name]
        try:
            return tuple(kind(x) for x in text.split(",")) if many else kind(text)
        except ValueError as exc:
            raise self.bad(name) from exc

    def bad(self, name: str, reason: str | None = None) -> FormatError:
        """The error for a value of `name` that parses but cannot be used."""
        suffix = "" if reason is None else f" ({reason})"
        return FormatError(f"{self.what} {name!r}: bad value {self[name]!r}{suffix}")


def _write_atomic(path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# tensor format


def tensor_to_bytes(tensor: DenseTensor) -> bytes:
    header = TENSOR_MAGIC + struct.pack(
        "<HBB", TENSOR_VERSION, DTYPE_F64, tensor.order
    )
    header += struct.pack(f"<{tensor.order}Q", *tensor.dims)
    payload = np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
    body = header + payload
    return body + struct.pack("<I", zlib.crc32(body))


def tensor_from_bytes(buf: bytes) -> DenseTensor:
    if len(buf) < 8:
        raise FormatError(f"truncated header: {len(buf)} bytes, need at least 8")
    if buf[:4] != TENSOR_MAGIC:
        raise FormatError(
            f"bad magic at offset 0: expected {TENSOR_MAGIC!r}, got {buf[:4]!r}"
        )
    version, dtype, ndim = struct.unpack_from("<HBB", buf, 4)
    if version != TENSOR_VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    if dtype != DTYPE_F64:
        raise FormatError(f"unsupported dtype code {dtype} at offset 6")
    if not 2 <= ndim <= MAX_ORDER:
        raise FormatError(f"dim overflow at offset 7: ndim {ndim} not in 2..{MAX_ORDER}")
    header_end = 8 + 8 * ndim
    if len(buf) < header_end + 4:
        raise FormatError(f"truncated dims block: file has {len(buf)} bytes")
    dims = struct.unpack_from(f"<{ndim}Q", buf, 8)
    if any(d < 1 for d in dims):
        raise FormatError(f"dim overflow: extent 0 in dims {dims}")
    count = math.prod(dims)
    expected = header_end + 8 * count + 4
    if len(buf) != expected:
        raise FormatError(
            f"truncated payload: dims {dims} need {expected} bytes, file has {len(buf)}"
        )
    stored = struct.unpack_from("<I", buf, len(buf) - 4)[0]
    actual = zlib.crc32(buf[:-4])
    if stored != actual:
        raise FormatError(
            f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )
    data = np.frombuffer(buf, dtype="<f8", count=count, offset=header_end)
    return DenseTensor(data.reshape(dims))


def write_tensor(path, tensor: DenseTensor) -> None:
    _write_atomic(path, tensor_to_bytes(tensor))


def read_tensor(path) -> DenseTensor:
    try:
        buf = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read tensor file {path}: {exc}") from exc
    return tensor_from_bytes(buf)


def _matrix_to_bytes(matrix: np.ndarray) -> bytes:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    return tensor_to_bytes(DenseTensor(arr))


def _matrix_from_bytes(buf: bytes) -> np.ndarray:
    t = tensor_from_bytes(buf)
    if t.order != 2:
        raise FormatError(f"expected a matrix section, got order {t.order}")
    return np.asarray(t.data)


# ---------------------------------------------------------------------------
# manifests


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int
    split: str


@dataclass(frozen=True)
class DatasetManifest:
    """Index of a dataset: entry paths with labels and splits, the shared
    tensor extents, and class names."""

    entries: tuple[ManifestEntry, ...]
    dims: tuple[int, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise FormatError("manifest has no entries")
        paths = [e.path for e in entries]
        if len(set(paths)) != len(paths):
            raise FormatError("manifest paths are not unique")
        labels = sorted({e.label for e in entries})
        m = len(self.class_names)
        if labels != list(range(m)):
            raise FormatError(
                f"labels must be dense 0..{m - 1}, got {labels}"
            )
        for e in entries:
            if e.split not in ("train", "test"):
                raise FormatError(f"bad split {e.split!r} for {e.path}")
        if any(d < 1 for d in self.dims):
            raise FormatError(f"bad dims {self.dims}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "class_names", tuple(self.class_names))

    def subset(self, split: str) -> tuple[ManifestEntry, ...]:
        if split == "all":
            return self.entries
        return tuple(e for e in self.entries if e.split == split)


def write_manifest(path, manifest: DatasetManifest) -> None:
    lines = ["# dims: " + "x".join(str(d) for d in manifest.dims)]
    lines.append("# classes: " + ",".join(manifest.class_names))
    for e in manifest.entries:
        lines.append(f"{e.path},{e.label},{e.split}")
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def load_manifest(path) -> DatasetManifest:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read manifest {path}: {exc}") from exc
    dims = None
    class_names = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("dims:"):
                try:
                    dims = tuple(int(x) for x in body[5:].strip().split("x"))
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: bad dims header") from exc
            elif body.startswith("classes:"):
                class_names = tuple(
                    s.strip() for s in body[8:].strip().split(",") if s.strip()
                )
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: expected path,label,split")
        try:
            label = int(fields[1])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad label {fields[1]!r}") from exc
        entries.append(ManifestEntry(fields[0], label, fields[2]))
    if dims is None:
        raise FormatError("manifest is missing the '# dims:' header")
    if class_names is None:
        m = max((e.label for e in entries), default=-1) + 1
        class_names = tuple(f"class{j}" for j in range(m))
    return DatasetManifest(tuple(entries), dims, class_names)


def load_dataset(
    manifest: DatasetManifest, base_dir, split: str = "all"
) -> tuple[list[DenseTensor], list[int]]:
    """Read the tensors of one split; every file must match the manifest dims."""
    base = Path(base_dir)
    samples, labels = [], []
    for entry in manifest.subset(split):
        tensor = read_tensor(base / entry.path)
        if tensor.dims != manifest.dims:
            raise DimensionError(
                f"{entry.path}: tensor dims {tensor.dims} do not match "
                f"manifest dims {manifest.dims}"
            )
        samples.append(tensor)
        labels.append(entry.label)
    if not samples:
        raise FormatError(f"split {split!r} selects no entries")
    return samples, labels


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a planted-subspace dataset.

    Per mode, one shared orthonormal block is common to all classes and one
    block per class carries its discriminative directions; samples mix those
    directions at random and are perturbed by a rotation of scale
    `within_noise` (radians, roughly)."""

    classes: int
    samples_per_class: int
    dims: tuple[int, ...]
    shared_dim: int
    class_dim: int
    within_noise: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        if self.samples_per_class < 1:
            raise ValueError("need at least one sample per class")
        if self.shared_dim < 0 or self.class_dim < 1:
            raise ValueError("shared_dim must be >= 0 and class_dim >= 1")
        if self.within_noise < 0:
            raise ValueError("within_noise must be >= 0")
        if len(self.dims) < 2:
            raise ValueError("need at least 2 modes")
        block = self.shared_dim + self.class_dim
        if any(block > d for d in self.dims):
            raise ValueError(
                f"shared_dim + class_dim = {block} exceeds an extent in {self.dims}"
            )


def planted_bases(
    spec: SynthSpec,
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Per mode: the shared block and the per-class blocks.

    When the shared block and every class block fit jointly in the extent they
    are drawn as one orthonormal frame, so distinct class blocks are mutually
    orthogonal; otherwise class blocks are drawn independently and only
    orthogonalized against the shared block.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([spec.seed, 0])))
    s, c, m = spec.shared_dim, spec.class_dim, spec.classes
    out = []
    for extent in spec.dims:
        total = s + m * c
        if total <= extent:
            frame = qr_positive(rng.standard_normal((extent, total)))
            shared = frame[:, :s]
            blocks = [frame[:, s + j * c : s + (j + 1) * c] for j in range(m)]
        else:
            shared = qr_positive(rng.standard_normal((extent, s)))
            blocks = []
            for _ in range(m):
                raw = rng.standard_normal((extent, c))
                if s:
                    raw -= shared @ (shared.T @ raw)
                blocks.append(qr_positive(raw))
        out.append((shared, blocks))
    return out


def generate_synthetic(
    spec: SynthSpec, train_fraction: float = 0.7
) -> tuple[list[DenseTensor], DatasetManifest]:
    """Build the dataset in memory together with its manifest.

    Every sample is a random core tensor expanded through per-mode frames
    [shared | class block]; shared coordinates of the core carry SHARED_GAIN
    times the amplitude of class coordinates along each mode. With positive
    `within_noise` each frame is perturbed before expansion. The first
    round(train_fraction * samples_per_class) samples of each class land in
    the train split.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError(f"train_fraction must be in (0, 1], got {train_fraction}")
    bases = planted_bases(spec)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([spec.seed, 1])))
    s, c = spec.shared_dim, spec.class_dim
    d = s + c
    n = len(spec.dims)
    scale = np.ones(d)
    scale[:s] = SHARED_GAIN
    n_train = int(round(spec.samples_per_class * train_fraction))
    samples: list[DenseTensor] = []
    entries: list[ManifestEntry] = []
    for j in range(spec.classes):
        for l in range(spec.samples_per_class):
            frames = []
            for i, extent in enumerate(spec.dims):
                shared, blocks = bases[i]
                frame = np.hstack([shared, blocks[j]])
                if spec.within_noise > 0:
                    noise = rng.standard_normal((extent, d)) * (
                        spec.within_noise / np.sqrt(extent)
                    )
                    frame = qr_positive(frame + noise)
                frames.append(frame)
            core = rng.standard_normal((d,) * n)
            for axis in range(n):
                core = core * scale.reshape((-1,) + (1,) * (n - 1 - axis))
            t = DenseTensor(core)
            for i, frame in enumerate(frames):
                t = mode_multiply(t, frame, i + 1)
            samples.append(t)
            split = "train" if l < n_train else "test"
            entries.append(ManifestEntry(f"c{j}_s{l}.nmt", j, split))
    manifest = DatasetManifest(
        tuple(entries),
        spec.dims,
        tuple(f"class{j}" for j in range(spec.classes)),
    )
    return samples, manifest


# ---------------------------------------------------------------------------
# model container


def _fmt_tuple(values) -> str:
    return ",".join(str(v) for v in values)


def _fmt_floats(values) -> str:
    return ",".join(format(float(v), ".17g") for v in values)


def _section(tag: bytes, payload: bytes) -> bytes:
    return tag + struct.pack("<Q", len(payload)) + payload


def _named_matrix(name: str, matrix: np.ndarray) -> bytes:
    blob = _matrix_to_bytes(matrix)
    encoded = name.encode()
    return _section(b"MATX", struct.pack("<H", len(encoded)) + encoded + blob)


def _fisher_conf(prefix: str, nf: NModeFisher, lines: list[str]) -> None:
    lines.append(f"{prefix}_modes={_fmt_tuple(r.mode for r in nf.per_mode)}")
    lines.append(f"{prefix}_between={_fmt_floats(r.between for r in nf.per_mode)}")
    lines.append(f"{prefix}_within={_fmt_floats(r.within for r in nf.per_mode)}")
    lines.append(
        f"{prefix}_flags={_fmt_tuple((r.flag or '-') for r in nf.per_mode)}"
    )


def _fisher_from_conf(prefix: str, conf: NamedValues, modes) -> NModeFisher:
    """The reports stored under `prefix`: one entry per model mode in each
    list, in the model's mode order."""
    if conf.parse(f"{prefix}_modes", int, many=True) != modes:
        raise conf.bad(f"{prefix}_modes", f"need the model's modes {_fmt_tuple(modes)}")
    between = conf.parse(f"{prefix}_between", float, many=True)
    within = conf.parse(f"{prefix}_within", float, many=True)
    flags = [None if x == "-" else x for x in conf[f"{prefix}_flags"].split(",")]
    for key, values in (("between", between), ("within", within), ("flags", flags)):
        if len(values) != len(modes):
            raise conf.bad(f"{prefix}_{key}", f"{len(values)} entries for {len(modes)} modes")
    reports = []
    for mode, b, w, fl in zip(modes, between, within, flags):
        score, _ = separability_ratio(b, w)
        reports.append(FisherReport(mode, b, w, score, flag=fl))
    return nmode_fisher(reports)


def _bands_from_conf(conf: NamedValues, matrices: NamedValues, modes) -> tuple[GdsBasis, ...]:
    """Each mode's band, rebuilt from its stored spectrum by the band rule."""
    bands = {key: conf.parse(key, int, many=True) for key in ("alphas", "betas", "ranks")}
    for key, entries in bands.items():
        if len(entries) != len(modes):
            raise conf.bad(key, f"{len(entries)} entries for {len(modes)} modes")
    gds = []
    for mode, alpha, beta, rank in zip(modes, *bands.values()):
        full = full_band(
            mode, matrices[f"gds{mode}_eigvecs"], matrices[f"gds{mode}_eigvals"].ravel()
        )
        if full.rank != rank:
            raise conf.bad("ranks", f"mode {mode}: the stored spectrum has rank {full.rank}")
        # the alpha alone, then the band it opens with beta
        for key, limits in (("alphas", (alpha,)), ("betas", (alpha, beta))):
            try:
                band = gds_from_gram(full, *limits)
            except (DegeneracyError, DimensionError) as exc:
                raise conf.bad(key, f"mode {mode}: {exc}") from exc
        gds.append(band)
    return tuple(gds)


def _check_mode_shapes(
    conf: NamedValues, modes, dims, mode_ambients, data_dims, gds, parts
) -> None:
    """Each mode's `dims` and `mode_ambients` entry against what is stored:
    the ambient is the row count of the mode's spectrum, or of its
    references in a model without bands; the references of a mode share one
    width, at most `dims`, and exactly that when no band can have narrowed
    it. `data_dims`, when recorded, gives each mode its ambient extent."""
    for key, values in (("dims", dims), ("mode_ambients", mode_ambients)):
        if values is None or len(values) != len(modes):
            raise conf.bad(key, f"need one entry for each of the {len(modes)} modes")
    for p, mode in enumerate(modes):
        shapes = {ref[p].basis.shape for ref in parts}
        rows = {gds[p].ambient_dim} if gds else {r for r, _ in shapes}
        if rows - {mode_ambients[p]}:
            stored = "spectrum" if gds else "references"
            reason = f"mode {mode}: {rows.pop()} rows in the stored {stored}"
            raise conf.bad("mode_ambients", reason)
        widths = {w for _, w in shapes}
        if len(widths) > 1:
            reason = f"mode {mode}: the references are {min(widths)} to {max(widths)} wide"
            raise conf.bad("dims", reason)
        if any(w > dims[p] for w in widths) or (gds is None and widths - {dims[p]}):
            raise conf.bad("dims", f"mode {mode}: the references are {max(widths)} wide")
    if data_dims is None:
        return
    if len(data_dims) < max(modes):
        raise conf.bad("data_dims", f"{len(data_dims)} extents for mode {max(modes)}")
    for mode, ambient in zip(modes, mode_ambients):
        if data_dims[mode - 1] != ambient:
            raise conf.bad("data_dims", f"mode {mode}: mode_ambients gives {ambient}")


def model_to_bytes(model: TrainedModel) -> bytes:
    lines = [
        f"format_version={MODEL_VERSION}",
        *(
            f"{s.model_key}={s.format(getattr(model.config, s.name))}"
            for s in SETTINGS
        ),
        f"mode_ambients={_fmt_tuple(model.mode_ambients)}",
        "data_dims="
        + ("none" if model.data_dims is None else _fmt_tuple(model.data_dims)),
        f"class_ids={_fmt_tuple(model.class_ids)}",
        f"labels={_fmt_tuple(r.label for r in model.references)}",
        f"n_refs={len(model.references)}",
        "has_gds=" + ("true" if model.gds is not None else "false"),
    ]
    if model.gds is not None:
        lines.append(f"alphas={_fmt_tuple(g.alpha for g in model.gds)}")
        lines.append(f"betas={_fmt_tuple(g.beta for g in model.gds)}")
        lines.append(f"ranks={_fmt_tuple(g.rank for g in model.gds)}")
    _fisher_conf("fisher_raw", model.fisher_raw, lines)
    _fisher_conf("fisher", model.fisher, lines)
    lines.append(
        "angle_diag_raw=" + _fmt_floats(a for a, _ in model.angle_diag)
    )
    lines.append(
        "angle_diag_projected="
        + (
            "none"
            if model.angle_diag[0][1] is None
            else _fmt_floats(b for _, b in model.angle_diag)
        )
    )
    conf_text = "\n".join(sorted(lines)) + "\n"

    body = MODEL_MAGIC + struct.pack("<H", MODEL_VERSION)
    body += _section(b"CONF", conf_text.encode())
    body += _named_matrix("weights", model.weights.weights)
    if model.gds is not None:
        for g in model.gds:
            body += _named_matrix(f"gds{g.mode}_eigvecs", g.eigvecs)
            body += _named_matrix(f"gds{g.mode}_eigvals", g.eigvals)
    for i, ref in enumerate(model.references):
        for p, mode in enumerate(model.modes):
            body += _named_matrix(f"ref{i}_m{mode}", ref.parts[p].basis)
    return body + struct.pack("<I", zlib.crc32(body))


def model_from_bytes(buf: bytes) -> TrainedModel:
    if len(buf) < 10:
        raise FormatError("truncated model file")
    if buf[:4] != MODEL_MAGIC:
        raise FormatError(
            f"bad magic at offset 0: expected {MODEL_MAGIC!r}, got {buf[:4]!r}"
        )
    version = struct.unpack_from("<H", buf, 4)[0]
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    stored = struct.unpack_from("<I", buf, len(buf) - 4)[0]
    if stored != zlib.crc32(buf[:-4]):
        raise FormatError("checksum mismatch: model file is corrupted")

    pos = 6
    end = len(buf) - 4
    conf = NamedValues("CONF key")
    matrices = NamedValues("MATX section")
    while pos < end:
        if pos + 12 > end:
            raise FormatError(f"truncated section header at offset {pos}")
        tag = buf[pos : pos + 4]
        length = struct.unpack_from("<Q", buf, pos + 4)[0]
        pos += 12
        if pos + length > end:
            raise FormatError(f"truncated section payload at offset {pos}")
        payload = buf[pos : pos + length]
        pos += length
        if tag == b"CONF":
            for line in payload.decode().splitlines():
                if line:
                    key, _, value = line.partition("=")
                    conf[key] = value
        elif tag == b"MATX":
            name_len = struct.unpack_from("<H", payload, 0)[0]
            name = payload[2 : 2 + name_len].decode()
            matrices[name] = _matrix_from_bytes(payload[2 + name_len :])
        else:
            raise FormatError(f"unknown section tag {tag!r}")

    values = {s.name: conf.parse(s.model_key, s.parse) for s in SETTINGS}
    for s in SETTINGS:  # PipelineConfig checks each field on its own
        try:
            PipelineConfig(**{s.name: values[s.name]})
        except ValueError as exc:
            raise conf.bad(s.model_key, str(exc)) from exc
    config = PipelineConfig(**values)
    modes, dims = config.modes_used, config.per_mode_dims
    if modes is None:
        raise conf.bad("modes", "a model names the modes it uses")
    gds = _bands_from_conf(conf, matrices, modes) if conf["has_gds"] == "true" else None
    labels = conf.parse("labels", int, many=True) if conf["labels"] else ()
    n_refs = conf.parse("n_refs", int)
    parts = [tuple(Subspace(matrices[f"ref{i}_m{m}"]) for m in modes) for i in range(n_refs)]
    if len(labels) != n_refs:
        raise conf.bad("labels", f"{len(labels)} labels for n_refs={n_refs}")
    # a valid band of the spectrum may still not be the one the references
    # were projected onto
    for p, band in enumerate(gds or ()):
        widths = {ref[p].ambient_dim for ref in parts} - {band.basis.shape[1]}
        if widths:
            raise FormatError(
                f"CONF keys 'alphas', 'betas': mode {band.mode}: band {band.alpha}..{band.beta} "
                f"is {band.basis.shape[1]} wide but the references are {widths.pop()} wide"
            )
    class_ids = conf.parse("class_ids", int, many=True)
    if class_ids != tuple(sorted(set(labels))):
        raise conf.bad("class_ids", "not the sorted set of the reference labels")
    mode_ambients = conf.parse("mode_ambients", int, many=True)
    data_dims = None if conf["data_dims"] == "none" else conf.parse("data_dims", int, many=True)
    _check_mode_shapes(conf, modes, dims, mode_ambients, data_dims, gds, parts)
    references = [ProductPoint(ref, label=label) for ref, label in zip(parts, labels)]
    raw_angles = conf.parse("angle_diag_raw", float, many=True)
    if conf["angle_diag_projected"] == "none":
        angle_diag = tuple((a, None) for a in raw_angles)
    else:
        proj = conf.parse("angle_diag_projected", float, many=True)
        angle_diag = tuple(zip(raw_angles, proj))
    return TrainedModel(
        config=config,
        modes=modes,
        dims=dims,
        mode_ambients=mode_ambients,
        data_dims=data_dims,
        class_ids=class_ids,
        gds=gds,
        weights=WeightVector(matrices["weights"].ravel()),
        references=tuple(references),
        fisher_raw=_fisher_from_conf("fisher_raw", conf, modes),
        fisher=_fisher_from_conf("fisher", conf, modes),
        angle_diag=angle_diag,
    )


def write_model(path, model: TrainedModel) -> None:
    _write_atomic(path, model_to_bytes(model))


def read_model(path) -> TrainedModel:
    try:
        buf = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read model file {path}: {exc}") from exc
    return model_from_bytes(buf)
