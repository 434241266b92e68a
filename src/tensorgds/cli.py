"""Command-line front end.

Subcommands: gen (synthetic dataset), fit (train), eval (metrics), dist
(pairwise distance matrix), mds (classical scaling of a distance matrix),
fisher (separability tables and weights).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical degeneracy.
Every run writes a `run_config.txt` echo; for fit, each settings line is a
valid `--config` line, so the echo reproduces the run. Floats in CSV output
carry 17 significant digits so they round-trip losslessly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio, pipeline
from .errors import DegeneracyError, DimensionError, FormatError
from .fisher import NModeFisher
from .pipeline import CHOICES, SETTINGS, PipelineConfig
from .subspace import eigh_descending, fix_column_signs

MDS_SYMMETRY_TOL = 1e-9
_FLOAT_FMT = ".17g"


def classical_mds(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical (Torgerson) scaling of a symmetric zero-diagonal distance
    matrix into k coordinates.

    Double-centers the squared distances, takes the top-k eigenpairs, clips
    negative eigenvalues to zero, and fixes each coordinate axis sign so the
    first non-negligible loading is positive. Returns the coordinates and the
    full eigenvalue spectrum (descending); negative trailing eigenvalues
    measure how far the input is from exactly Euclidean.
    """
    d = np.asarray(distances, dtype=np.float64)
    if k < 1:
        raise DimensionError(f"k must be >= 1, got {k}")
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimensionError(f"distance matrix must be square, got {d.shape}")
    if not np.all(np.isfinite(d)):
        raise DimensionError("distance matrix has non-finite entries")
    if np.max(np.abs(d - d.T), initial=0.0) > MDS_SYMMETRY_TOL:
        raise DimensionError("distance matrix is not symmetric")
    if np.max(np.abs(np.diag(d)), initial=0.0) > 1e-12:
        raise DimensionError("distance matrix has a non-zero diagonal")
    n = d.shape[0]
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * j @ (d * d) @ j
    b = (b + b.T) / 2.0
    evals, evecs = eigh_descending(b)
    kk = min(k, n)
    coords = evecs[:, :kk] * np.sqrt(np.clip(evals[:kk], 0.0, None))
    if kk < k:
        coords = np.hstack([coords, np.zeros((n, k - kk))])
    return fix_column_signs(coords), evals


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, _FLOAT_FMT)
    return str(x)


def _write_csv(path: Path, header: list[str] | None, rows) -> None:
    lines = []
    if header is not None:
        lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    dataio._write_atomic(path, ("\n".join(lines) + "\n").encode())


def _echo_config(outdir: Path, command: str, settings: dict) -> None:
    lines = [f"command={command}"]
    for key in sorted(settings):
        lines.append(f"{key}={_fmt(settings[key])}")
    dataio._write_atomic(outdir / "run_config.txt", ("\n".join(lines) + "\n").encode())


def _write_summary(outdir: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    dataio._write_atomic(outdir / "summary.json", text.encode())


def _fisher_rows(nf: NModeFisher):
    for r in nf.per_mode:
        yield [str(r.mode), _fmt(r.between), _fmt(r.within), _fmt(r.score), r.flag or "-"]
    yield ["nmode", _fmt(nf.between_n), _fmt(nf.within_n), _fmt(nf.score_n), nf.flag or "-"]


def _write_fisher_tables(outdir: Path, model) -> None:
    rows = []
    for r in _fisher_rows(model.fisher_raw):
        rows.append(["raw"] + r)
    for r in _fisher_rows(model.fisher):
        rows.append(["final"] + r)
    _write_csv(
        outdir / "fisher.csv",
        ["stage", "mode", "between", "within", "score", "flag"],
        rows,
    )
    _write_csv(
        outdir / "weights.csv",
        ["mode", "weight"],
        (
            [str(m), _fmt(float(w))]
            for m, w in zip(model.modes, model.weights.weights)
        ),
    )
    _write_csv(
        outdir / "angles.csv",
        ["mode", "mean_class_angle_raw", "mean_class_angle_projected"],
        (
            [str(m), _fmt(a), "-" if b is None else _fmt(b)]
            for m, (a, b) in zip(model.modes, model.angle_diag)
        ),
    )


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(x) for x in text.lower().split("x"))
    except ValueError:
        dims = ()
    if not dims or min(dims) < 1:
        raise UsageError(
            f"--dims must be positive integer extents like 12x12x12, got {text!r}"
        )
    return dims


def _load_config_file(path) -> dataio.NamedValues:
    out = dataio.NamedValues("config key")
    text = dataio.read_file(path, "config file", text=True)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


# Config-file key (also the flag name and the run_config.txt key) -> setting.
_CONFIG_KEYS = {s.key: s for s in SETTINGS}


def _build_pipeline_config(args) -> PipelineConfig:
    """PipelineConfig from the keys set in the config file and by flags, flags
    taking precedence; unset keys keep the PipelineConfig defaults.

    Older config files and `run_config.txt` echoes may spell three retired
    keys: `seed` is ignored, and `weights` and `beta-search` are accepted only
    as what the fit does anyway (`weights` as `auto` or the weighting `method`
    implies, `beta-search` as `false`), so a run never changes silently. A
    retired value such as `method=msm` reads as its new value (`pgm`; see
    `pipeline.RETIRED_VALUES`); flags take only the current values."""
    values: dict = {}
    weights = None
    if args.config:
        config = _load_config_file(args.config)
        config.pop("seed", None)
        weights = config.pop("weights", None)
        beta_search = config.pop("beta-search", "false")
        if beta_search.lower() != "false":
            raise UsageError(f"beta-search={beta_search}: the beta search is retired")
        for key, text in config.items():
            if key not in _CONFIG_KEYS:
                raise FormatError(f"unknown config key {key!r}")
            setting = _CONFIG_KEYS[key]
            config[key] = setting.current(text)
            values[setting.name] = config.parse(key, setting.parse)
    flags = vars(args)
    for key, setting in _CONFIG_KEYS.items():
        dest = key.replace("-", "_")
        if dest in flags:
            values[setting.name] = flags[dest]
    try:
        result = PipelineConfig(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    implied = "fisher" if result.uses_fisher_weights else "uniform"
    if weights not in (None, "auto", implied):
        raise UsageError(
            f"weights={weights} does not match method={result.method}, "
            f"which implies weights={implied}"
        )
    return result


class UsageError(Exception):
    pass


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    try:
        spec = dataio.SynthSpec(
            classes=args.classes,
            samples_per_class=args.samples_per_class,
            dims=_parse_dims(args.dims),
            shared_dim=args.shared_dim,
            class_dim=args.class_dim,
            within_noise=args.noise,
            seed=args.seed,
        )
        samples, manifest = dataio.generate_synthetic(spec, train_fraction=args.train_frac)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _outdir(args)
    for sample, entry in zip(samples, manifest.entries):
        dataio.write_tensor(out / entry.path, sample)
    dataio.write_manifest(out / "manifest.txt", manifest)
    _echo_config(
        out,
        "gen",
        {
            "classes": spec.classes,
            "samples_per_class": spec.samples_per_class,
            "dims": "x".join(map(str, spec.dims)),
            "shared_dim": spec.shared_dim,
            "class_dim": spec.class_dim,
            "noise": spec.within_noise,
            "seed": spec.seed,
            "train_frac": args.train_frac,
        },
    )
    print(f"wrote {len(samples)} tensors and manifest.txt to {out}")
    return 0


def _load_split(args, split: str):
    manifest = dataio.load_manifest(args.manifest)
    base = Path(args.data_dir) if args.data_dir else Path(args.manifest).parent
    samples, labels = dataio.load_dataset(manifest, base, split=split)
    return manifest, samples, labels


def _cmd_fit(args) -> int:
    config = _build_pipeline_config(args)
    manifest, samples, labels = _load_split(args, "train")
    model = pipeline.fit(samples, labels, config)
    out = _outdir(args)
    dataio.write_model(out / "model.nmdl", model)
    _write_fisher_tables(out, model)
    settings = {
        key: setting.format(getattr(model.config, setting.name))
        for key, setting in _CONFIG_KEYS.items()
    }
    _echo_config(out, "fit", {"manifest": str(args.manifest), **settings})
    _write_summary(
        out,
        {
            "command": "fit",
            "method": model.config.method,
            "train_samples": len(samples),
            "classes": len(model.class_ids),
            "modes": list(model.modes),
            "dims": list(model.dims),
            "gds_alphas": None if model.gds is None else [g.alpha for g in model.gds],
            "gds_betas": None if model.gds is None else [g.beta for g in model.gds],
            "fisher_raw": model.fisher_raw.score_n,
            "fisher_final": model.fisher.score_n,
            "weights": [float(w) for w in model.weights.weights],
        },
    )
    print(f"trained {model.config.method} on {len(samples)} samples -> {out / 'model.nmdl'}")
    return 0


def _cmd_eval(args) -> int:
    model = dataio.read_model(args.model)
    manifest, samples, labels = _load_split(args, args.split)
    metrics = pipeline.evaluate(model, samples, labels)  # its dims checks come first
    unnamed = set(model.class_ids) - set(range(len(manifest.class_names)))
    if unnamed:  # metrics.csv names every model class
        raise DimensionError(f"model class {min(unnamed)} has no name in {args.manifest}")
    out = _outdir(args)
    _write_csv(
        out / "metrics.csv",
        ["class", "name", "recall", "support"],
        (
            [str(cid), manifest.class_names[cid], _fmt(float(metrics.recalls[i])), str(int(metrics.confusion[i].sum()))]
            for i, cid in enumerate(model.class_ids)
        ),
    )
    _write_csv(
        out / "confusion.csv",
        ["true\\pred"] + [str(c) for c in model.class_ids],
        (
            [str(cid)] + [str(int(x)) for x in metrics.confusion[i]]
            for i, cid in enumerate(model.class_ids)
        ),
    )
    _echo_config(
        out,
        "eval",
        {"model": str(args.model), "manifest": str(args.manifest), "split": args.split},
    )
    _write_summary(
        out,
        {
            "command": "eval",
            "split": args.split,
            "samples": metrics.count,
            "accuracy": metrics.accuracy,
            "mean_margin": metrics.mean_margin,
        },
    )
    print(f"accuracy {metrics.accuracy:.4f} on {metrics.count} samples ({args.split})")
    return 0


def _cmd_dist(args) -> int:
    model = dataio.read_model(args.model)
    manifest, samples, labels = _load_split(args, args.split)
    points = [pipeline.transform(model, s) for s in samples]
    dist = pipeline.pairwise_distances(model, points)
    out = _outdir(args)
    _write_csv(out / "distances.csv", None, dist.tolist())
    entries = manifest.subset(args.split)
    _write_csv(
        out / "samples.csv",
        ["index", "path", "label", "split"],
        ([str(i), e.path, str(e.label), e.split] for i, e in enumerate(entries)),
    )
    _echo_config(
        out,
        "dist",
        {"model": str(args.model), "manifest": str(args.manifest), "split": args.split},
    )
    _write_summary(
        out,
        {"command": "dist", "samples": len(points), "split": args.split},
    )
    print(f"wrote {dist.shape[0]}x{dist.shape[1]} distance matrix to {out / 'distances.csv'}")
    return 0


def _read_distance_csv(path) -> np.ndarray:
    text = dataio.read_file(path, "distance matrix", text=True)
    try:
        return np.array([[float(x) for x in line.split(",")] for line in text.strip().splitlines()])
    except ValueError as exc:
        raise FormatError(
            f"distance matrix {path} has non-numeric entries or ragged rows"
        ) from exc


def _cmd_mds(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    dist = _read_distance_csv(args.distances)
    coords, evals = classical_mds(dist, args.k)
    out = _outdir(args)
    _write_csv(
        out / "coords.csv",
        ["index"] + [f"x{i + 1}" for i in range(coords.shape[1])],
        ([str(i)] + [_fmt(float(v)) for v in row] for i, row in enumerate(coords)),
    )
    total = float(np.sum(np.abs(evals)))
    negative = float(np.sum(np.abs(evals[evals < 0])))
    _echo_config(out, "mds", {"distances": str(args.distances), "k": args.k})
    _write_summary(
        out,
        {
            "command": "mds",
            "samples": int(coords.shape[0]),
            "k": args.k,
            "negative_eigenvalue_mass": 0.0 if total == 0 else negative / total,
        },
    )
    print(f"wrote {coords.shape[0]}x{coords.shape[1]} coordinates to {out / 'coords.csv'}")
    return 0


def _cmd_fisher(args) -> int:
    model = dataio.read_model(args.model)
    out = _outdir(args)
    _write_fisher_tables(out, model)
    _echo_config(out, "fisher", {"model": str(args.model)})
    _write_summary(
        out,
        {
            "command": "fisher",
            "fisher_raw": model.fisher_raw.score_n,
            "fisher_final": model.fisher.score_n,
            "weights": [float(w) for w in model.weights.weights],
        },
    )
    print(
        f"separability raw {model.fisher_raw.score_n:.4f} -> final {model.fisher.score_n:.4f}"
    )
    return 0


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    """`--config` plus one flag per config-file key; a flag the user does not
    give leaves no attribute, so it cannot override the file."""
    p.add_argument("--config", help="key=value config file; flags override it")
    for key, setting in _CONFIG_KEYS.items():
        if setting.kind is bool:
            kind = dict(action="store_const", const=True)
        else:
            kind = dict(type=setting.parse, choices=CHOICES.get(setting.name))
        p.add_argument(
            f"--{key}", default=argparse.SUPPRESS, help=setting.help, **kind
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tensorgds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--samples-per-class", type=int, default=10)
    p.add_argument("--dims", default="12x12x12")
    p.add_argument("--shared-dim", type=int, default=1)
    p.add_argument("--class-dim", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.15)
    p.add_argument("--train-frac", type=float, default=0.7)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("fit", help="train a model from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--data-dir", help="tensor directory (default: manifest directory)")
    p.add_argument("--out", required=True)
    _add_fit_flags(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("eval", help="evaluate a model on a manifest split")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--data-dir")
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("dist", help="pairwise distance matrix for a split")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--data-dir")
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_dist)

    p = sub.add_parser("mds", help="classical scaling of a distance matrix")
    p.add_argument("--distances", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_mds)

    p = sub.add_parser("fisher", help="separability tables and weights of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_fisher)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, DimensionError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
