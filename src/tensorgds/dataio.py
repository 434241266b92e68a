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
plus named NMT1-encoded matrices) and end with a whole-file crc32. The writer
states what a model file holds: `_model_conf` its settings and
`_model_matrices` its matrix sections. The reader decodes what `fit` chose,
derives the rest with `fit`'s own code, and accepts the file only if the
writer would write it for the model so built.

The generator uses the Philox counter-based bit generator: stream (seed, 0)
draws the planted per-mode frames, stream (seed, 1) draws the samples, so
datasets are reproducible byte for byte.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegeneracyError, DimensionError, FormatError
from .fisher import DEFAULT_KARCHER_MAX_ITER, DEFAULT_KARCHER_TOL, FisherReport, NModeFisher
from .fisher import nmode_fisher, separability_ratio
from .gds import GRAM_RANK_TOL, GdsBasis, full_band, gds_from_gram
from .manifold import ProductPoint
from .pipeline import SETTINGS, PipelineConfig, TrainedModel, check_angle_counts, method_weights
from .subspace import Subspace, fix_column_signs, qr_positive
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


def _fmt_tuple(values) -> str:
    return ",".join(str(v) for v in values)


def _fmt_floats(values) -> str:
    return ",".join(format(float(v), ".17g") for v in values)


def _shown(value) -> str:
    """A text value quoted, a matrix as its entries in row order."""
    return repr(value) if isinstance(value, str) else _fmt_floats(value.ravel())


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
        value = self[name]
        try:
            return tuple(kind(x) for x in value.split(",")) if many else kind(value)
        except ValueError as exc:
            raise self.bad(name, str(exc)) from exc

    def bad(self, name: str, reason: str | None = None) -> FormatError:
        """The error for the value of `name`, with the reason it cannot be used."""
        suffix = "" if reason is None else f" ({reason})"
        return FormatError(f"{self.what} {name!r}: bad value {_shown(self[name])}{suffix}")

    def add(self, name: str, value) -> None:
        """Store the value of a name that a file may state only once."""
        if name in self:
            raise FormatError(f"{self.what} {name!r} appears twice")
        self[name] = value


def read_file(path, what: str, text: bool = False):
    """The bytes of a file, or with `text` its UTF-8 text."""
    try:
        data = Path(path).read_bytes()
        return data.decode() if text else data
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc


def _write_atomic(path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# tensor format


def tensor_to_bytes(tensor: DenseTensor) -> bytes:
    header = TENSOR_MAGIC + struct.pack("<HBB", TENSOR_VERSION, DTYPE_F64, tensor.order)
    header += struct.pack(f"<{tensor.order}Q", *tensor.dims)
    payload = np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
    body = header + payload
    return body + struct.pack("<I", zlib.crc32(body))


def tensor_from_bytes(buf: bytes) -> DenseTensor:
    if len(buf) < 8:
        raise FormatError(f"truncated header: {len(buf)} bytes, need at least 8")
    if buf[:4] != TENSOR_MAGIC:
        raise FormatError(f"bad magic at offset 0: expected {TENSOR_MAGIC!r}, got {buf[:4]!r}")
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
        need = f"dims {dims} need {expected} bytes"
        raise FormatError(f"truncated payload: {need}, file has {len(buf)}")
    stored = struct.unpack_from("<I", buf, len(buf) - 4)[0]
    actual = zlib.crc32(buf[:-4])
    if stored != actual:
        raise FormatError(f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")
    data = np.frombuffer(buf, dtype="<f8", count=count, offset=header_end)
    return DenseTensor(data.reshape(dims))


def write_tensor(path, tensor: DenseTensor) -> None:
    _write_atomic(path, tensor_to_bytes(tensor))


def read_tensor(path) -> DenseTensor:
    """The tensor of a tensor file. A file that does not decode, or has a NaN
    or infinite entry, is a data error naming the file: no subspace can be
    taken of it."""
    buf = read_file(path, "tensor file")
    try:
        tensor = tensor_from_bytes(buf)
    except FormatError as exc:
        raise FormatError(f"tensor file {path}: {exc}") from exc
    bad = np.count_nonzero(~np.isfinite(tensor.data))
    if bad:
        raise FormatError(f"tensor file {path} has {bad} non-finite entries")
    return tensor


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
        if len({e.path for e in entries}) != len(entries):
            raise FormatError("manifest paths are not unique")
        labels = sorted({e.label for e in entries})
        m = len(self.class_names)
        if labels != list(range(m)):
            raise FormatError(f"labels must be dense 0..{m - 1}, got {labels}")
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
    lines += [f"{e.path},{e.label},{e.split}" for e in manifest.entries]
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def load_manifest(path) -> DatasetManifest:
    text = read_file(path, "manifest", text=True)
    dims = class_names = None
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
                class_names = tuple(s.strip() for s in body[8:].split(",") if s.strip())
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
            raise ValueError(f"shared_dim + class_dim = {block} exceeds an extent in {self.dims}")


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
                    spread = spec.within_noise / np.sqrt(extent)
                    noise = rng.standard_normal((extent, d)) * spread
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
    names = tuple(f"class{j}" for j in range(spec.classes))
    return samples, DatasetManifest(tuple(entries), spec.dims, names)


# ---------------------------------------------------------------------------
# model container

# Keys of older files that nothing reads any more; the reader drops them. A key
# with a value was a setting now fixed at it, and a file must state that value.
RETIRED_KEYS = dict.fromkeys(("seed", "projection_tol", "weights_scheme", "gds_beta_search"))
RETIRED_KEYS.update(karcher_tol=DEFAULT_KARCHER_TOL, karcher_max_iter=DEFAULT_KARCHER_MAX_ITER)
# Settings by model key; the reader reads a retired value as its new value.
_MODEL_KEYS = {s.model_key: s for s in SETTINGS}


def _section(tag: bytes, payload: bytes) -> bytes:
    return tag + struct.pack("<Q", len(payload)) + payload


def _named_matrix(name: str, matrix: np.ndarray) -> bytes:
    blob = tensor_to_bytes(DenseTensor(np.asarray(matrix, dtype=np.float64)))
    encoded = name.encode()
    return _section(b"MATX", struct.pack("<H", len(encoded)) + encoded + blob)


def _model_conf(model: TrainedModel) -> dict[str, str]:
    """The settings of `model`'s file by key, in file order (sorted)."""
    conf = {s.model_key: s.format(getattr(model.config, s.name)) for s in SETTINGS}
    conf.update(
        format_version=str(MODEL_VERSION),
        mode_ambients=_fmt_tuple(model.mode_ambients),
        data_dims=_fmt_tuple(model.data_dims),
        class_ids=_fmt_tuple(model.class_ids),
        labels=_fmt_tuple(r.label for r in model.references),
        n_refs=str(len(model.references)),
        has_gds="false" if model.gds is None else "true",
    )
    for field in ("alpha", "beta", "rank") if model.gds is not None else ():
        conf[field + "s"] = _fmt_tuple(getattr(g, field) for g in model.gds)
    for prefix, nf in (("fisher_raw", model.fisher_raw), ("fisher", model.fisher)):
        conf[f"{prefix}_modes"] = _fmt_tuple(r.mode for r in nf.per_mode)
        conf[f"{prefix}_between"] = _fmt_floats(r.between for r in nf.per_mode)
        conf[f"{prefix}_within"] = _fmt_floats(r.within for r in nf.per_mode)
        conf[f"{prefix}_flags"] = _fmt_tuple(r.flag or "-" for r in nf.per_mode)
    raw, projected = zip(*model.angle_diag)
    conf["angle_diag_raw"] = _fmt_floats(raw)
    conf["angle_diag_projected"] = "none" if projected[0] is None else _fmt_floats(projected)
    return dict(sorted(conf.items()))


def _model_matrices(model: TrainedModel) -> dict[str, np.ndarray]:
    """The matrix sections of `model`'s file by name, in file order."""
    matrices = {"weights": model.weights.weights[:, None]}  # a vector is one column
    for g in model.gds or ():
        matrices[f"gds{g.mode}_eigvecs"] = g.eigvecs
        matrices[f"gds{g.mode}_eigvals"] = g.eigvals[:, None]
    for i, ref in enumerate(model.references):
        for mode, part in zip(model.modes, ref.parts):
            matrices[f"ref{i}_m{mode}"] = part.basis
    return matrices


def model_to_bytes(model: TrainedModel) -> bytes:
    conf = "".join(f"{key}={text}\n" for key, text in _model_conf(model).items())
    body = MODEL_MAGIC + struct.pack("<H", MODEL_VERSION) + _section(b"CONF", conf.encode())
    body += b"".join(_named_matrix(*item) for item in _model_matrices(model).items())
    return body + struct.pack("<I", zlib.crc32(body))


def _read_sections(buf: bytes) -> tuple[NamedValues, NamedValues]:
    """A model file's settings and matrices, each name stated once, framed soundly."""
    if len(buf) < 10:
        raise FormatError("truncated model file")
    if buf[:4] != MODEL_MAGIC:
        raise FormatError(f"bad magic at offset 0: expected {MODEL_MAGIC!r}, got {buf[:4]!r}")
    version = struct.unpack_from("<H", buf, 4)[0]
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    if struct.unpack_from("<I", buf, len(buf) - 4)[0] != zlib.crc32(buf[:-4]):
        raise FormatError("checksum mismatch: model file is corrupted")
    pos, end = 6, len(buf) - 4
    conf, matrices = NamedValues("CONF key"), NamedValues("MATX section")
    while pos < end:
        if pos + 12 > end:
            raise FormatError(f"truncated section header at offset {pos}")
        tag, length = buf[pos : pos + 4], struct.unpack_from("<Q", buf, pos + 4)[0]
        pos += 12
        if pos + length > end:
            raise FormatError(f"truncated section payload at offset {pos}")
        payload = buf[pos : pos + length]
        try:
            if tag == b"CONF":
                *lines, rest = payload.decode().split("\n")
                if rest:
                    raise FormatError(f"CONF section: no newline after {rest!r}")
                for key, _, value in (line.partition("=") for line in lines):
                    if key in _MODEL_KEYS:
                        value = _MODEL_KEYS[key].current(value)
                    conf.add(key, value)
            elif tag == b"MATX":
                name_len = struct.unpack_from("<H", payload, 0)[0]
                name = payload[2 : 2 + name_len].decode()
                matrices.add(name, _matrix_from_bytes(payload[2 + name_len :]))
            else:
                raise FormatError(f"unknown section tag {tag!r}")
        except (UnicodeDecodeError, struct.error) as exc:
            raise FormatError(f"malformed section payload at offset {pos}: {exc}") from exc
        pos += length
    for key, kept in RETIRED_KEYS.items():
        if kept is not None and key in conf and conf.parse(key, type(kept)) != kept:
            raise conf.bad(key, f"need '{kept}'")
        conf.pop(key, None)
    return conf, matrices


def _per_mode(conf: NamedValues, key: str, modes, what: str | None = None) -> tuple:
    """The comma list under `key`, one entry per model mode: ints, or with
    `what` finite, non-negative floats."""
    values = conf.parse(key, int if what is None else float, many=True)
    if len(values) != len(modes):
        raise conf.bad(key, f"{len(values)} entries for {len(modes)} modes")
    if what and not all(math.isfinite(v) and v >= 0.0 for v in values):
        raise conf.bad(key, f"{what} are finite and non-negative")
    return values


def _fisher_from_conf(prefix: str, conf: NamedValues, modes) -> NModeFisher:
    """The spreads under `prefix`, scored and flagged by `separability_ratio`."""
    spreads = [_per_mode(conf, f"{prefix}_{k}", modes, "spreads") for k in ("between", "within")]
    return nmode_fisher(
        [FisherReport(m, b, w, *separability_ratio(b, w)) for m, b, w in zip(modes, *spreads)]
    )


def _spectrum(matrices: NamedValues, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """A mode's stored Gram spectrum as `mode_gram` writes it: a square,
    orthonormal eigenvector matrix with fixed column signs, and one finite
    eigenvalue per eigenvector, in descending order, the leading one above
    GRAM_RANK_TOL (a mean of projectors has trace at least 1)."""
    vecs, vals = f"gds{mode}_eigvecs", f"gds{mode}_eigvals"
    eigvecs = matrices.parse(vecs, Subspace).basis
    if eigvecs.shape[0] != eigvecs.shape[1]:
        raise matrices.bad(vecs, f"{eigvecs.shape[0]}x{eigvecs.shape[1]} is not square")
    if not np.array_equal(fix_column_signs(eigvecs), eigvecs):
        raise matrices.bad(vecs, "column signs are not fixed")
    eigvals = matrices[vals].ravel()
    if matrices[vals].shape != (len(eigvecs), 1):
        raise matrices.bad(vals, f"need one column of {len(eigvecs)} eigenvalues")
    finite = np.all(np.isfinite(eigvals))
    if not (finite and np.all(np.diff(eigvals) <= 0.0) and eigvals[0] > GRAM_RANK_TOL):
        raise matrices.bad(vals, "need finite, descending values, the leading one positive")
    return matrices[vecs], eigvals


def _bands_from_conf(conf: NamedValues, matrices: NamedValues, modes) -> tuple[GdsBasis, ...]:
    """Each mode's band: the full band of its stored spectrum, narrowed to the
    stored alpha and beta by the band rule."""
    gds = []
    alphas, betas = (_per_mode(conf, key, modes) for key in ("alphas", "betas"))
    for mode, alpha, beta in zip(modes, alphas, betas):
        full = full_band(mode, *_spectrum(matrices, mode))
        # the alpha alone, then the band it opens with beta
        for key, limits in (("alphas", (alpha,)), ("betas", (alpha, beta))):
            try:
                band = gds_from_gram(full, *limits)
            except (DegeneracyError, DimensionError) as exc:
                raise conf.bad(key, f"mode {mode}: {exc}") from exc
        gds.append(band)
    return tuple(gds)


def _check_mode_shapes(conf, matrices, modes, dims, data_dims, gds, parts) -> None:
    """Each mode's entries against what is stored: a band as wide as the
    rows of the references projected onto it; an extent in `data_dims` equal
    to the rows of the mode's spectrum, or of its references without bands;
    references of one width (one that differs from most is named), at most
    `dims`, and exactly that when no band can have narrowed them. The
    extents must be a tensor's, or no query could match them."""
    if dims is None or len(dims) != len(modes):
        raise conf.bad("dims", f"need one entry for each of the {len(modes)} modes")
    if not 2 <= len(data_dims) <= MAX_ORDER or min(data_dims) < 1:
        raise conf.bad("data_dims", f"a tensor has 2..{MAX_ORDER} extents, each at least 1")
    if len(data_dims) < modes[-1]:
        raise conf.bad("data_dims", f"{len(data_dims)} extents for mode {modes[-1]}")
    for p, mode in enumerate(modes):
        shapes = {ref[p].basis.shape for ref in parts}
        rows, widths = {r for r, _ in shapes}, {w for _, w in shapes}
        band = gds[p] if gds else None
        if band and rows - {band.basis.shape[1]}:
            raise FormatError(
                f"CONF keys 'alphas', 'betas': mode {mode}: band {band.alpha}..{band.beta} "
                f"is {band.basis.shape[1]} wide but the references are {rows.pop()} wide"
            )
        ambients = {band.ambient_dim} if band else rows
        if ambients - {data_dims[mode - 1]}:
            stored = "spectrum" if band else "references"
            reason = f"mode {mode}: {ambients.pop()} rows in the stored {stored}"
            raise conf.bad("data_dims", reason)
        if len(widths) > 1:
            common = Counter(ref[p].dim for ref in parts).most_common(1)[0][0]
            i = next(i for i, ref in enumerate(parts) if ref[p].dim != common)
            reason = f"{parts[i][p].dim} wide; most references of mode {mode} are {common} wide"
            raise matrices.bad(f"ref{i}_m{mode}", reason)
        if any(w > dims[p] for w in widths) or (band is None and widths - {dims[p]}):
            raise conf.bad("dims", f"mode {mode}: the references are {max(widths)} wide")


def _build_model(conf: NamedValues, matrices: NamedValues) -> TrainedModel:
    """The model of what `fit` chose (settings, bands, labelled references,
    shapes, spreads and angles), each other fact derived by `fit`'s rules."""
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
    gds = _bands_from_conf(conf, matrices, modes) if config.uses_gds else None
    labels = conf.parse("labels", int, many=True) if conf["labels"] else ()
    if len(set(labels)) < 2:  # as `fit` requires
        raise conf.bad("labels", f"need at least 2 classes, got {len(set(labels))}")
    n_refs = conf.parse("n_refs", int)
    # each reference must be an orthonormal basis
    parts = [tuple(matrices.parse(f"ref{i}_m{m}", Subspace) for m in modes) for i in range(n_refs)]
    if len(labels) != n_refs:
        raise conf.bad("labels", f"{len(labels)} labels for n_refs={n_refs}")
    data_dims = conf.parse("data_dims", int, many=True)
    _check_mode_shapes(conf, matrices, modes, dims, data_dims, gds, parts)
    widths = [b.dim for b in parts[0]]  # a model has references of 2 classes at least
    try:
        check_angle_counts(config.angle_counts, modes, widths)
    except DimensionError as exc:
        raise conf.bad("angle_counts", str(exc)) from exc
    fisher = _fisher_from_conf("fisher", conf, modes)
    try:
        weights = method_weights(config, fisher)
    except (DegeneracyError, ValueError) as exc:
        raise FormatError(f"MATX section 'weights': the stored scores give none: {exc}") from exc
    raw = _per_mode(conf, "angle_diag_raw", modes, "angles")
    projected = (None,) * len(modes)
    if gds is not None:
        projected = _per_mode(conf, "angle_diag_projected", modes, "angles")
    return TrainedModel(
        config=config, data_dims=data_dims, gds=gds, weights=weights,
        references=tuple(ProductPoint(ref, label=label) for ref, label in zip(parts, labels)),
        fisher_raw=_fisher_from_conf("fisher_raw", conf, modes), fisher=fisher,
        angle_diag=tuple(zip(raw, projected)),
    )


def _same(stated, written) -> bool:
    """The same text, or the same matrix bit for bit."""
    if isinstance(written, str):
        return stated == written
    return stated.shape == written.shape and stated.tobytes() == written.tobytes()


def model_from_bytes(buf: bytes) -> TrainedModel:
    """The model a file holds, if the writer writes that very file for it: each
    value and matrix bit for bit, no other name, in order, but for retired keys."""
    conf, matrices = _read_sections(buf)
    model = _build_model(conf, matrices)
    for stated, written in ((conf, _model_conf(model)), (matrices, _model_matrices(model))):
        for name, value in written.items():
            if not _same(stated[name], value):
                raise stated.bad(name, f"need {_shown(value)}")
        if list(stated) != list(written):
            name = next(n for n, w in zip(stated, [*written, None]) if n != w)
            raise FormatError(f"{stated.what} {name!r}: the writer does not write it here")
    return model


def write_model(path, model: TrainedModel) -> None:
    _write_atomic(path, model_to_bytes(model))


def read_model(path) -> TrainedModel:
    return model_from_bytes(read_file(path, "model file"))
