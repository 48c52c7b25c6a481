"""Command-line front end.

Subcommands cover the whole pipeline: feature extraction from WAV files,
scene synthesis, corpus statistics and normalization, augmentation, scoring,
and diagnostic heatmap images. Exit codes: 0 ok, 2 missing or unreadable
input, 3 validation error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .augment import augment_pipeline
# The whole-clip stft and assemble are not called here, but stay importable
# from this module: perfbench/tracing.py wraps the names this module holds.
from .baseline import FEATURE_KINDS, assemble, assemble_stream  # noqa: F401
from .config import PipelineConfig
from .imaging import render_heatmap, write_ppm
from .metrics import MetricsConfig, evaluate_many, seld_error
from .normalize import STD_FLOOR, ChannelStats, StatsAccumulator, apply_stats
from .spatial import ArrayFormat
from .stft import AudioClip, FeatureTensor, stft, stft_stream  # noqa: F401
from .synth import (
    N_CLASSES,
    SeldLabels,
    parse_scene,
    render_scene,
    rows_from_csv,
    rows_to_csv,
    unit_vector,
)
from .tensorfile import (
    atomic_write_bytes,
    atomic_write_text,
    manifest_path_for,
    read_manifest,
    read_tensor,
    tensor_writer,
    write_manifest,
    write_tensor,
)
from .wavio import WavReader


class InputError(Exception):
    """Missing or unreadable input; maps to exit code 2."""


class NumericalError(Exception):
    """Non-finite values where finite ones are required; maps to exit code 4."""


class UsageError(Exception):
    """Malformed command line; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# file helpers


def _collect_inputs(paths, suffix: str) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(q for q in p.iterdir() if q.suffix == suffix))
        elif p.exists():
            out.append(p)
        else:
            raise InputError(f"{p}: no such file or directory")
    if not out:
        raise InputError("no inputs")
    return out


def open_wav(path: str | Path) -> WavReader:
    """Open a WAV file for block reads (see seldkit.wavio).

    Raises InputError if the file is missing or its header cannot be read.
    """
    path = Path(path)
    try:
        return WavReader(path)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except (ValueError, OSError) as exc:
        raise InputError(f"{path}: cannot read ({exc})") from None


def read_wav(path: str | Path) -> AudioClip:
    """Load a whole WAV file as (channels, samples) float64 in [-1, 1].

    One read of open_wav: integer formats are scaled by their full range
    (24-bit as left-aligned 32-bit), float samples pass through unscaled.
    """
    with open_wav(path) as wav:
        return AudioClip(wav.read(wav.n_samples), wav.sample_rate)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write float32 WAV, channels x samples transposed to WAV layout."""
    from scipy.io import wavfile  # only writers need scipy.io; it is slow to import

    wavfile.write(path, clip.sample_rate, clip.samples.T.astype(np.float32))


_MANIFEST_INT = (
    "sample_rate", "n_mels", "n_lags", "compress_start_bin", "compress_factor", "seed",
    "in_band_bins", "candidates", "selected",
)
_MANIFEST_FLOAT = ("bin_hz", "frame_rate", "f_low", "f_high", "speed_of_sound")
_MANIFEST_BOOL = ("normalized", "augmented")
_MANIFEST_STR = ("feature", "format", "config")


def _write_feature_manifest(path: Path, shape, roles, scale: str, meta: dict) -> None:
    entries = {
        "kind": "feature",
        "scale": scale,
        "channel_roles": roles,
        "channels": shape[0],
        "frames": shape[1],
        "bands": shape[2],
    }
    for key in _MANIFEST_STR + _MANIFEST_INT + _MANIFEST_FLOAT + _MANIFEST_BOOL:
        if key in meta:
            entries[key] = meta[key]
    write_manifest(manifest_path_for(path), entries)


def write_feature(path: str | Path, feat: FeatureTensor) -> None:
    """Store a feature tensor as float32 with its sidecar manifest."""
    path = Path(path)
    write_tensor(path, feat.data.astype(np.float32, copy=False))
    _write_feature_manifest(path, feat.data.shape, feat.channel_roles, feat.scale, feat.meta)


def read_feature(path: str | Path) -> FeatureTensor:
    """Load a feature tensor as float32 and rebuild roles and metadata from its manifest."""
    path = Path(path)
    data = read_tensor(path).astype(np.float32, copy=False)
    manifest = read_manifest(manifest_path_for(path))
    if manifest.get("kind") != "feature":
        raise ValueError(f"{path}: manifest does not describe a feature tensor")
    roles = manifest["channel_roles"].split(",")
    meta: dict = {}
    for key, value in manifest.items():
        if key in _MANIFEST_INT:
            meta[key] = int(value)
        elif key in _MANIFEST_FLOAT:
            meta[key] = float(value)
        elif key in _MANIFEST_BOOL:
            meta[key] = value == "True"
        elif key in _MANIFEST_STR:
            meta[key] = value
    return FeatureTensor(data, roles, manifest.get("scale", "linear"), meta)


def _labels_from_rows(rows) -> SeldLabels:
    """Label rows back to frame-rate arrays; one instance per frame and class."""
    n_frames = max((r[0] for r in rows), default=-1) + 1
    n_classes = max(N_CLASSES, max((r[1] for r in rows), default=0) + 1)
    activity = np.zeros((n_frames, n_classes), dtype=np.uint8)
    doa = np.zeros((n_frames, n_classes, 3))
    track = np.zeros((n_frames, n_classes), dtype=np.int16)
    for frame, cls, trk, az, el in rows:
        if activity[frame, cls]:
            raise ValueError(
                f"label frame {frame} has two instances of class {cls}; "
                "only one instance per class is supported"
            )
        activity[frame, cls] = 1
        doa[frame, cls] = unit_vector(az, el)
        track[frame, cls] = trk
    return SeldLabels(activity, doa, track)


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    return cfg.with_overrides(args.overrides)


def _shape_text(shape) -> str:
    return "x".join(str(n) for n in shape)


# ---------------------------------------------------------------------------
# subcommands


def _finite_reads(wav: WavReader):
    """wav.read that refuses non-finite samples with a NumericalError.

    A NaN inside a covariance window would otherwise stop the eigen step
    (exit 3) or reach an output block (exit 4), depending on where block
    edges fall; checked as read, non-finite audio always exits 4.
    """

    def read(count: int) -> np.ndarray:
        samples = wav.read(count)
        if not np.isfinite(samples).all():
            raise NumericalError(f"{wav.path}: audio has non-finite samples")
        return samples

    return read


def cmd_extract(args) -> None:
    cfg = _load_config(args)
    if args.feature in ("melspeciv", "linspeciv") and args.format != "foa":
        raise ValueError(f"feature {args.feature} requires --format foa")
    inputs = _collect_inputs(args.inputs, ".wav")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = ArrayFormat(args.format, speed_of_sound=cfg.speed_of_sound)
    for path in inputs:
        with open_wav(path) as wav:
            if args.format == "foa" and wav.n_channels != 4:
                raise ValueError(
                    f"{path}: foa input must have 4 channels, got {wav.n_channels}"
                )
            eff = cfg
            if wav.sample_rate != cfg.sample_rate:
                if not args.allow_any_rate:
                    raise ValueError(
                        f"{path}: sample rate {wav.sample_rate} != configured "
                        f"{cfg.sample_rate}; pass --allow-any-rate to accept"
                    )
                eff = replace(cfg, sample_rate=wav.sample_rate)
            # Samples flow block by block from the file through the STFT and
            # the feature stack into the tensor file; no whole-clip array.
            spec = stft_stream(
                _finite_reads(wav), wav.n_channels, wav.n_samples, eff.stft_config()
            )
            feat = assemble_stream(
                spec, args.feature, fmt, eff.selection_config(args.format), eff.n_mels
            )
            feat.meta["sample_rate"] = wav.sample_rate
            feat.meta["config"] = eff.digest()
            out_path = out_dir / (path.stem + ".ftb")
            with tensor_writer(out_path, feat.shape, np.float32) as append:
                for block in feat.blocks:
                    if not np.isfinite(block).all():
                        raise NumericalError(f"{path}: feature tensor has non-finite values")
                    append(block)
        _write_feature_manifest(out_path, feat.shape, feat.channel_roles, feat.scale, feat.meta)
        print(f"{out_path} {_shape_text(feat.shape)}")


def cmd_synth(args) -> None:
    cfg = _load_config(args)
    scene_path = Path(args.scene)
    if not scene_path.exists():
        raise InputError(f"{scene_path}: no such file")
    scene = parse_scene(scene_path.read_text())
    spec, labels = render_scene(scene, cfg.stft_config())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.name or scene_path.stem
    tensor_path = out_dir / f"{stem}.ftb"
    write_tensor(tensor_path, spec.data.astype(np.complex64))
    write_manifest(
        manifest_path_for(tensor_path),
        {
            "kind": "stft",
            "format": scene.fmt.kind,
            "channels": spec.n_channels,
            "frames": spec.n_frames,
            "bands": spec.n_bins,
            "bin_hz": spec.bin_hz,
            "frame_rate": spec.frame_rate,
            "label_fps": labels.frame_rate,
            "seed": scene.seed,
            "config": cfg.digest(),
        },
    )
    csv_path = out_dir / f"{stem}.csv"
    rows = labels.to_rows()
    atomic_write_text(csv_path, rows_to_csv(rows))
    print(f"{tensor_path} {_shape_text(spec.data.shape)}")
    print(f"{csv_path} {len(rows)} rows")


def cmd_eval(args) -> None:
    if args.aggregate_only is not None:
        er, f, le, lr = args.aggregate_only
        print(f"{seld_error(er, f, le, lr):.6g}")
        return
    if not args.pred or not args.ref:
        raise ValueError("eval needs --pred and --ref (or --aggregate-only)")
    cfg = _load_config(args)
    mcfg = MetricsConfig(
        doa_threshold_deg=cfg.doa_threshold_deg,
        segment_seconds=cfg.segment_seconds,
        convention=args.metrics,
    )
    pred_files = _collect_inputs([args.pred], ".csv")
    ref_root = Path(args.ref)
    pairs = []
    for p in pred_files:
        r = ref_root / p.name if ref_root.is_dir() else ref_root
        if not r.exists():
            raise InputError(f"{r}: missing reference file")
        pairs.append((rows_from_csv(p.read_text()), rows_from_csv(r.read_text())))
    report = evaluate_many(pairs, mcfg)
    print(json.dumps(report.as_dict()))
    table = report.as_dict()
    for key in (
        "error_rate",
        "f_score",
        "localization_error_deg",
        "localization_recall",
        "aggregate",
    ):
        print(f"{key:<24} {table[key]:.6g}")


def cmd_render_image(args) -> None:
    path = Path(args.tensor)
    if not path.exists():
        raise InputError(f"{path}: no such file")
    arr = read_tensor(path)
    if np.iscomplexobj(arr):
        arr = np.log(np.abs(arr) + 1e-12)
    if arr.ndim == 2:
        planes = arr[None]
    elif arr.ndim == 3:
        planes = arr
    else:
        raise ValueError(f"cannot render a rank-{arr.ndim} tensor as an image")
    if not (0 <= args.channel < planes.shape[0]):
        raise ValueError(
            f"channel {args.channel} out of range 0..{planes.shape[0] - 1}"
        )
    plane = planes[args.channel].astype(np.float64)
    if not np.isfinite(plane).all():
        raise NumericalError(f"{path}: channel {args.channel} has non-finite values")
    out = (
        Path(args.out)
        if args.out
        else path.with_name(f"{path.stem}.ch{args.channel}.ppm")
    )
    lo = float(plane.min()) if args.vmin is None else args.vmin
    hi = float(plane.max()) if args.vmax is None else args.vmax
    write_ppm(out, render_heatmap(plane, lo, hi))
    write_manifest(
        out.with_suffix(".txt"),
        {"source": path.name, "channel": args.channel, "min": lo, "max": hi},
    )
    print(f"{out} {plane.shape[1]}x{plane.shape[0]}")


def cmd_stats(args) -> None:
    inputs = _collect_inputs(args.inputs, ".ftb")
    acc = StatsAccumulator()
    first_meta: dict = {}
    for path in inputs:
        feat = read_feature(path)
        if not first_meta:
            first_meta = feat.meta
        acc.add(feat)
    del feat  # the --apply pass below reads every tensor again
    raw = acc.finish()
    stats = ChannelStats(
        raw.mean, np.maximum(raw.std, STD_FLOOR), raw.channel_roles
    )
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_tensor(out_path, np.stack([stats.mean, stats.std]))
    write_manifest(
        manifest_path_for(out_path),
        {
            "kind": "stats",
            "feature": first_meta.get("feature", ""),
            "channel_roles": stats.channel_roles,
            "files": len(inputs),
            "std_floor": STD_FLOOR,
        },
    )
    print(f"{out_path} {len(inputs)} files, {len(stats.mean)} channels")
    if args.apply:
        apply_dir = Path(args.apply)
        apply_dir.mkdir(parents=True, exist_ok=True)
        for path in inputs:
            feat = apply_stats(read_feature(path), stats, in_place=True)
            write_feature(apply_dir / path.name, feat)
        print(f"{apply_dir}: normalized {len(inputs)} tensors")


def cmd_augment(args) -> None:
    cfg = _load_config(args)
    acfg = cfg.augment_config()
    inputs = _collect_inputs(args.inputs, ".ftb")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels_dir = Path(args.labels) if args.labels else None
    for index, path in enumerate(inputs):
        label_path = labels_dir / (path.stem + ".csv") if labels_dir else None
        if label_path is not None and not label_path.exists():
            raise InputError(f"{label_path}: missing label file")
        rows = rows_from_csv(label_path.read_text()) if label_path is not None else None
        if acfg.p_apply == 0.0:
            # Nothing can be applied; outputs are verbatim copies.
            atomic_write_bytes(out_dir / path.name, path.read_bytes())
            src_manifest = manifest_path_for(path)
            if src_manifest.exists():
                atomic_write_bytes(
                    manifest_path_for(out_dir / path.name), src_manifest.read_bytes()
                )
            if label_path is not None:
                atomic_write_bytes(
                    out_dir / label_path.name, label_path.read_bytes()
                )
            print(f"{out_dir / path.name} copied")
            continue
        labels = _labels_from_rows(rows) if rows is not None else None
        rng = np.random.default_rng([args.seed, index])
        feat, labels = augment_pipeline(read_feature(path), labels, rng, acfg, in_place=True)
        feat.meta["augmented"] = True
        feat.meta["seed"] = args.seed
        write_feature(out_dir / path.name, feat)
        if labels is not None:
            atomic_write_text(
                out_dir / (path.stem + ".csv"), rows_to_csv(labels.to_rows())
            )
        print(f"{out_dir / path.name} augmented")


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_options(p) -> None:
    p.add_argument("--config", help="configuration file (key=value lines)")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seldkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("extract", help="extract feature tensors from WAV files")
    p.add_argument("inputs", nargs="+", help="WAV files or directories")
    p.add_argument("--format", required=True, choices=("foa", "mic"))
    p.add_argument("--feature", required=True, choices=FEATURE_KINDS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--allow-any-rate",
        action="store_true",
        help="accept files whose rate differs from the configured one",
    )
    _add_config_options(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("synth", help="render a scene file to an STFT tensor + labels")
    p.add_argument("scene", help="scene description file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--name", help="output stem (default: scene file stem)")
    _add_config_options(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score prediction CSVs against references")
    p.add_argument("--pred", help="prediction CSV file or directory")
    p.add_argument("--ref", help="reference CSV file or directory")
    p.add_argument("--metrics", choices=("2020", "2021"), default="2021")
    p.add_argument(
        "--aggregate-only",
        nargs=4,
        type=float,
        metavar=("ER", "F", "LE", "LR"),
        help="print the single aggregate score of four given components",
    )
    _add_config_options(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render-image", help="render one tensor channel as a PPM heatmap")
    p.add_argument("tensor", help="tensor file")
    p.add_argument("--channel", type=int, required=True)
    p.add_argument("--out", help="output image (default: <tensor>.ch<N>.ppm)")
    p.add_argument("--vmin", type=float, help="fixed lower bound of the color scale")
    p.add_argument("--vmax", type=float, help="fixed upper bound of the color scale")
    p.set_defaults(func=cmd_render_image)

    p = sub.add_parser("stats", help="per-channel corpus statistics")
    p.add_argument("inputs", nargs="+", help="feature tensors or directories")
    p.add_argument("--out", required=True, help="output statistics tensor")
    p.add_argument("--apply", help="also write normalized tensors to this directory")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("augment", help="randomized augmentation of feature tensors")
    p.add_argument("inputs", nargs="+", help="feature tensors or directories")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", help="directory of matching label CSVs")
    _add_config_options(p)
    p.set_defaults(func=cmd_augment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a subcommand is required (see --help)")
        args.func(args)
    except UsageError as exc:
        print(f"seldkit: usage error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"seldkit: input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"seldkit: input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"seldkit: numerical error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"seldkit: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
