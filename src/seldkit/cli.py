"""Command-line front end.

Subcommands cover the whole pipeline: feature extraction from WAV files,
scene synthesis, corpus statistics and normalization, augmentation, scoring,
and diagnostic heatmap images. Exit codes: 0 ok, 2 missing or unreadable
input, 3 validation error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

from .augment import augment_pipeline
# The whole-clip stft and assemble are not called here, but stay importable
# from this module: perfbench/tracing.py wraps the names this module holds.
from .baseline import FEATURE_KINDS, assemble, assemble_stream, check_kind  # noqa: F401
from .config import PipelineConfig
from .imaging import render_heatmap, write_ppm
from .metrics import evaluate_many, seld_error
# apply_stats is not called here either; perfbench/tracing.py wraps it.
from .normalize import (  # noqa: F401
    STD_FLOOR,
    ChannelStats,
    StatsAccumulator,
    apply_stats,
    standardize_channels,
)
from .spatial import ArrayFormat
from .stft import AudioClip, stft, stft_stream  # noqa: F401
# render_scene is not called here either; perfbench/tracing.py wraps it.
from .synth import (  # noqa: F401
    LABEL_FPS,
    LabelRows,
    csv_label_table,
    parse_scene,
    render_scene,
    render_stream,
    rows_from_csv,
    rows_to_csv,
)
from .tensorfile import (
    FeatureReader,
    atomic_write_text,
    manifest_path_for,
    read_feature,
    read_tensor,
    tensor_info,
    tensor_writer,
    write_feature,
    write_feature_manifest,
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


# The errors main reports, first match first: class, exit code and the
# prefix of the message after "seldkit: ". A forked helper reports these by
# class name (_in_ranges).
_ERRORS = (
    (UsageError, 3, "usage error: "),
    (InputError, 2, "input error: "),
    (OSError, 2, "input error: "),
    (NumericalError, 4, "numerical error: "),
    (ValueError, 3, ""),
)


def _error_row(exc: BaseException) -> tuple | None:
    """The row of _ERRORS that reports exc, or None."""
    return next((row for row in _ERRORS if isinstance(exc, row[0])), None)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponents and infinities, so it would
        # take "-1e3" or "-inf" for an option instead of a value.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

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
        return AudioClip(wav.read(0, wav.n_samples), wav.sample_rate)


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    return cfg.with_overrides(args.overrides)


def _shape_text(shape) -> str:
    return "x".join(str(n) for n in shape)


# ---------------------------------------------------------------------------
# subcommands


def _finite_reads(wav: WavReader):
    """Positional reads of wav for stft_stream that refuse non-finite samples.

    A NaN inside a covariance window would otherwise stop the eigen step
    (exit 3) or reach an output block (exit 4), depending on where block
    edges fall; checked as read, non-finite audio always exits 4 (a
    NumericalError).
    """

    def read(start: int, count: int) -> np.ndarray:
        samples = wav.read(start, count)
        if not np.isfinite(samples).all():
            raise NumericalError(f"{wav.path}: audio has non-finite samples")
        return samples

    return read


def _cpus() -> int:
    """Processes to split each clip or scene between: one per CPU of this
    process's affinity set. One where that set cannot be read (every
    platform that has it also has fork), and one while other threads run,
    because a forked child holds a copy of the calling thread only."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _ranges(length: int, n: int) -> list[slice]:
    """min(n, length) contiguous near-equal slices covering [0, length)."""
    n = min(n, length)
    edges = [length * k // n for k in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _in_ranges(work, n: int) -> list:
    """[work(0), ..., work(n - 1)]: work(0) here, every other in a forked helper.

    Each helper sends its result, or the class and message of its error,
    as JSON through a pipe and ends with os._exit, so it prints nothing and
    runs none of the caller's cleanup. Once work(0) is done, the reports
    are read in range order and the first error is raised here as the same
    class (RuntimeError for a class main does not map, or for a helper that
    died without reporting). Every helper is killed if still running and
    reaped before this returns or raises, on any error or interrupt.
    """
    helpers = {}  # pid -> read end of its pipe, for helpers not reaped yet
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _run_helper(work, k, w)
            os.close(w)
            helpers[pid] = os.fdopen(r, "rb")
        results = [work(0)]
        for k, (pid, pipe) in enumerate(list(helpers.items()), 1):
            report = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del helpers[pid]
            pipe.close()
            if status != 0:
                raise RuntimeError(f"helper for range {k} ended with wait status {status}")
            report = json.loads(report)
            if "error" in report:
                cls = {c.__name__: c for c, _, _ in _ERRORS}.get(report["error"], RuntimeError)
                raise cls(report["message"])
            results.append(report["result"])
        return results
    finally:
        for pid in helpers:
            os.kill(pid, signal.SIGKILL)
        for pid, pipe in helpers.items():
            os.waitpid(pid, 0)
            pipe.close()


def _run_helper(work, k: int, w: int):
    """A forked helper's whole life: report work(k) through the pipe end w, then exit."""
    status = 1
    try:
        try:
            report = {"result": work(k)}
        except BaseException as exc:
            row = _error_row(exc)
            report = {
                "error": row[0].__name__ if row else "RuntimeError",
                "message": str(exc) if row else f"{type(exc).__name__}: {exc}",
            }
        with os.fdopen(w, "wb") as pipe:
            pipe.write(json.dumps(report).encode())
        status = 0
    finally:
        os._exit(status)


def cmd_extract(args) -> None:
    cfg = _load_config(args)
    fmt = ArrayFormat(args.format, speed_of_sound=cfg.speed_of_sound)
    check_kind(args.feature, fmt.kind)
    selection = cfg.selection_config(fmt.kind)
    inputs = _collect_inputs(args.inputs, ".wav")
    out_dir = Path(args.out)
    for path in inputs:
        with open_wav(path) as wav:
            eff = cfg
            if wav.sample_rate != cfg.sample_rate:
                if not args.allow_any_rate:
                    raise ValueError(f"{path}: sample rate {wav.sample_rate} != configured "
                                     f"{cfg.sample_rate}; pass --allow-any-rate to accept")
                eff = replace(cfg, sample_rate=wav.sample_rate)
            # Samples flow block by block from the file through the STFT and
            # the feature stack into the tensor file; no whole-clip array.
            # Each range of frames is built and written by its own process.
            spec = stft_stream(_finite_reads(wav), wav.n_channels, wav.n_samples,
                               eff.stft_config())
            ranges = _ranges(spec.n_frames, _cpus())
            streams = [assemble_stream(spec, args.feature, fmt, selection, eff.n_mels, frames)
                       for frames in ranges]
            feat = streams[0]
            out_path = out_dir / (path.stem + ".ftb")
            with tensor_writer(out_path, feat.shape, np.float32) as append:
                parts = [append.part(frames) for frames in ranges]

                def work(k: int) -> dict:
                    for block in streams[k].blocks:
                        if not np.isfinite(block).all():
                            raise NumericalError(f"{path}: feature tensor has non-finite values")
                        parts[k](block)
                    return {"counts": streams[k].counts, "written": parts[k].written}

                meta = dict(feat.meta, sample_rate=wav.sample_rate, config=eff.digest())
                for part, result in zip(parts, _in_ranges(work, len(ranges))):
                    part.written = result["written"]
                    for key, n in result["counts"].items():
                        meta[key] = meta.get(key, 0) + n
        write_feature_manifest(out_path, feat.shape, feat.channel_roles, feat.scale, meta)
        print(f"{out_path} {_shape_text(feat.shape)}")


def cmd_synth(args) -> None:
    cfg = _load_config(args)
    scene_path = Path(args.scene)
    if not scene_path.exists():
        raise InputError(f"{scene_path}: no such file")
    scene = parse_scene(scene_path.read_text())
    scene.fmt = replace(scene.fmt, speed_of_sound=cfg.speed_of_sound)
    # Each range of channels is rendered and written by its own process,
    # channel by channel and one frame block at a time; no whole-scene
    # spectrogram exists. The first range's stream checks the scene before
    # anything is written, and gives the shape and labels of all.
    ranges = _ranges(scene.fmt.n_channels, _cpus())
    stream = render_stream(scene, cfg.stft_config(), ranges[0])
    out_dir = Path(args.out)
    stem = args.name or scene_path.stem
    tensor_path = out_dir / f"{stem}.ftb"
    with tensor_writer(tensor_path, stream.shape, np.complex64) as append:
        parts = [append.part(slice(None)) for _ in ranges]

        def work(k: int) -> list:
            rows = stream if k == 0 else render_stream(scene, cfg.stft_config(), ranges[k])
            for channel, _, block in rows.pieces:
                parts[k](block, row=channel)
            return parts[k].written

        for part, written in zip(parts, _in_ranges(work, len(ranges))):
            part.written = written
    channels, frames, bands = stream.shape
    write_manifest(
        manifest_path_for(tensor_path),
        {
            "kind": "stft",
            "format": scene.fmt.kind,
            "channels": channels,
            "frames": frames,
            "bands": bands,
            "bin_hz": stream.bin_hz,
            "frame_rate": stream.frame_rate,
            "label_fps": LABEL_FPS,
            "seed": scene.seed,
            "config": cfg.digest(),
        },
    )
    csv_path = out_dir / f"{stem}.csv"
    atomic_write_text(csv_path, rows_to_csv(stream.labels))
    print(f"{tensor_path} {_shape_text(stream.shape)}")
    print(f"{csv_path} {len(stream.labels)} rows")


def cmd_eval(args) -> None:
    if args.aggregate_only is not None:
        er, f, le, lr = args.aggregate_only
        print(f"{seld_error(er, f, le, lr):.6g}")
        return
    if not args.pred or not args.ref:
        raise ValueError("eval needs --pred and --ref (or --aggregate-only)")
    cfg = _load_config(args)
    mcfg = cfg.metrics_config(args.metrics)
    pred_files = _collect_inputs([args.pred], ".csv")
    ref_root = Path(args.ref)
    pairs = []
    for p in pred_files:
        r = ref_root / p.name if ref_root.is_dir() else ref_root
        if not r.exists():
            raise InputError(f"{r}: missing reference file")
        pairs.append((csv_label_table(p.read_text()), csv_label_table(r.read_text())))
    table = evaluate_many(pairs, mcfg).as_dict()
    print(json.dumps(table))
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
    out = Path(args.out) if args.out else path.with_name(f"{path.stem}.ch{args.channel}.ppm")
    manifest = out.with_suffix(".txt")
    if len({path.resolve(), out.resolve(), manifest.resolve()}) < 3:
        raise ValueError(f"--out {out}: the tensor, the image and its manifest {manifest} "
                         "must be three different files")
    shape, _ = tensor_info(path)
    if len(shape) not in (2, 3):
        raise ValueError(f"cannot render a rank-{len(shape)} tensor as an image")
    n_planes = shape[0] if len(shape) == 3 else 1
    if not (0 <= args.channel < n_planes):
        raise ValueError(f"channel {args.channel} out of range 0..{n_planes - 1}")
    # Only the requested plane is read and converted.
    plane = read_tensor(path, args.channel) if len(shape) == 3 else read_tensor(path)
    if np.iscomplexobj(plane):
        plane = np.log(np.abs(plane) + 1e-12)
    plane = plane.astype(np.float64)
    if not np.isfinite(plane).all():
        raise NumericalError(f"{path}: channel {args.channel} has non-finite values")
    lo = float(plane.min()) if args.vmin is None else args.vmin
    hi = float(plane.max()) if args.vmax is None else args.vmax
    write_ppm(out, render_heatmap(plane, lo, hi))
    write_manifest(manifest, {"source": path.name, "channel": args.channel, "min": lo, "max": hi})
    print(f"{out} {plane.shape[1]}x{plane.shape[0]}")


def cmd_stats(args) -> None:
    inputs = _collect_inputs(args.inputs, ".ftb")
    acc = StatsAccumulator()
    kinds = []  # each tensor's (format, feature), which must be the first one's
    # Both passes read one channel of one tensor at a time; no whole tensor
    # is held.
    for path in inputs:
        with FeatureReader(path) as feat:
            kinds.append((feat.meta.get("format", ""), feat.meta.get("feature", "")))
            if kinds[-1] != kinds[0]:
                raise ValueError(f"{path}: cannot mix feature kinds in one statistics pass "
                                 f"({' '.join(kinds[-1])} after {' '.join(kinds[0])})")
            try:
                acc.add_channels(feat.channel_roles, feat.channels())
            except FloatingPointError as exc:
                raise NumericalError(f"{path}: feature tensor {exc}") from None
    raw = acc.finish()
    stats = ChannelStats(
        raw.mean, np.maximum(raw.std, STD_FLOOR), raw.channel_roles
    )
    out_path = Path(args.out)
    write_tensor(out_path, np.stack([stats.mean, stats.std]))
    write_manifest(
        manifest_path_for(out_path),
        {
            "kind": "stats",
            "feature": kinds[0][1],
            "format": kinds[0][0],
            "channel_roles": stats.channel_roles,
            "files": len(inputs),
            "std_floor": STD_FLOOR,
        },
    )
    print(f"{out_path} {len(inputs)} files, {len(stats.mean)} channels")
    if args.apply:
        apply_dir = Path(args.apply)
        for path in inputs:
            out = apply_dir / path.name
            with FeatureReader(path) as feat:
                normed = standardize_channels(
                    stats, feat.channel_roles, feat.meta.get("feature"), feat.channels()
                )
                with tensor_writer(out, feat.shape, np.float32) as append:
                    for ch, channel in enumerate(normed):
                        append(channel, row=ch)
            meta = dict(feat.meta, normalized=True)
            write_feature_manifest(out, feat.shape, feat.channel_roles, feat.scale, meta)
        print(f"{apply_dir}: normalized {len(inputs)} tensors")


def cmd_augment(args) -> None:
    cfg = _load_config(args)
    acfg = cfg.augment_config()
    inputs = _collect_inputs(args.inputs, ".ftb")
    out_dir = Path(args.out)
    labels_dir = Path(args.labels) if args.labels else None
    for index, path in enumerate(inputs):
        label_path = labels_dir / (path.stem + ".csv") if labels_dir else None
        if label_path is not None and not label_path.exists():
            raise InputError(f"{label_path}: missing label file")
        labels = LabelRows(rows_from_csv(label_path.read_text())) if label_path else None
        feat = read_feature(path)
        if not all(np.isfinite(channel).all() for channel in feat.data):
            raise NumericalError(f"{path}: feature tensor has non-finite values")
        rng = np.random.default_rng([args.seed, index])
        feat, labels = augment_pipeline(feat, labels, rng, acfg)
        feat.meta["augmented"] = True
        feat.meta["seed"] = args.seed
        write_feature(out_dir / path.name, feat)
        if labels is not None:
            atomic_write_text(out_dir / (path.stem + ".csv"), rows_to_csv(labels))
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
    except tuple(cls for cls, _, _ in _ERRORS) as exc:
        _, code, prefix = _error_row(exc)
        print(f"seldkit: {prefix}{exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
