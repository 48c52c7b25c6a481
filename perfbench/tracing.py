"""Spans around the library calls the `seldkit` CLI makes.

`traced(cli, tracer)` swaps the names that `seldkit.cli` looks up at call
time (read_wav, stft, assemble, read/write_feature, read/write_tensor,
StatsAccumulator, apply_stats, augment_pipeline, render_scene,
evaluate_many) for wrappers that record one span per call, so a traced round
runs the real CLI path with the real arguments. Spans stay in memory as
(name, start, end, parent) and are written out by the caller.

The stages inside `salsa` and `assemble` are not wrapped: after each call the
tracer times the public sub-stages again on the same input under a "probe"
span (track_noise_floor; passband_bins with magnitude_test;
log_linear_spectrogram; compress_high_bands; log_mel_spectrogram; gcc_phat).
The covariance/eigen cost of `salsa` is its duration minus those stages.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

TIME_LAYERS = (
    "cli.read_wav", "stft.stft", "stft.log_spec", "stft.compress", "stft.mel",
    "spatial.salsa", "spatial.cov_eig", "spatial.noise_floor", "spatial.gate",
    "baseline.gcc", "baseline.assemble", "tensorfile.write", "tensorfile.read",
    "normalize.stats", "normalize.apply", "augment.pipeline", "synth.render",
    "metrics.evaluate",
)
COUNTS = (
    "stft.frames", "spatial.in_band_bins", "spatial.candidates", "spatial.selected",
    "synth.cells", "metrics.rows", "metrics.matched_pairs",
    "tensorfile.mb_written", "tensorfile.mb_read",
)
# Fixed by the inputs, so equal in every round and every run of a seed.
REPEATED = COUNTS + ("spatial.selected_ratio",)


class Tracer:
    """In-memory spans, counts and derived stage times of one round."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.derived: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def seconds(self, name: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, per name."""
        covered = [0.0] * len(self.spans)
        for _, s, e, parent in self.spans:
            if parent >= 0:
                covered[parent] += e - s
        out: dict[str, float] = {}
        for (name, s, e, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (e - s) - child
        return out

    def layers(self) -> dict[str, float]:
        """Per-layer seconds and counts of the round."""
        own = self.self_times()
        out = {f"{name}_s": own.get(name, 0.0) for name in TIME_LAYERS}
        for name, value in self.derived.items():
            out[f"{name}_s"] = value
        out.update(self.counts)
        cand = self.counts["spatial.candidates"]
        out["spatial.selected_ratio"] = self.counts["spatial.selected"] / cand if cand else 0.0
        return out


@contextmanager
def traced(cli, tracer: Tracer):
    """Install span wrappers into `seldkit.cli` for the duration of a round."""
    from seldkit import baseline, spatial

    # The package re-exports the function `stft`, which hides the module.
    stft_mod = importlib.import_module("seldkit.stft")

    saved = {}

    def patch(name, wrapper):
        saved[name] = getattr(cli, name)
        setattr(cli, name, wrapper)

    def timed(span_name, fn, after=None):
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def add(key, n):
        tracer.counts[key] += n

    def probe(spec, kind, cfg, n_mels, feat) -> float:
        """Re-time the public sub-stages on the call's input; returns seconds."""
        t0 = time.perf_counter()
        M, T, F = spec.data.shape
        with tracer.span("probe"):
            if kind == "salsa":
                with tracer.span("spatial.noise_floor"):
                    mag = np.abs(spec.data[0])
                    floor = spatial.track_noise_floor(mag, cfg)
                with tracer.span("spatial.gate"):
                    band = spatial.passband_bins(F, spec.bin_hz, cfg)
                    cand = spatial.magnitude_test(mag, floor, cfg) & band[None, :]
                add("spatial.in_band_bins", T * int(band.sum()))
                add("spatial.candidates", int(cand.sum()))
                add("spatial.selected", int(np.any(feat.data[M:] != 0, axis=0).sum()))
            if kind in ("salsa", "linspeciv", "linspecgcc"):
                with tracer.span("stft.log_spec"):
                    logspec = stft_mod.log_linear_spectrogram(spec, floor=cfg.log_floor).data
                with tracer.span("stft.compress"):
                    if kind == "salsa":
                        logspec = np.concatenate([logspec, np.zeros((M - 1, T, F))])
                    stft_mod.compress_high_bands(
                        logspec, cfg.compress_start_bin, cfg.compress_factor
                    )
            if kind.startswith("mel"):
                with tracer.span("stft.mel"):
                    fft_size = 2 * (F - 1)
                    fb = stft_mod.mel_filterbank(
                        int(round(spec.bin_hz * fft_size)), fft_size, n_mels
                    )
                    stft_mod.log_mel_spectrogram(spec, fb, floor=cfg.log_floor)
            if kind.endswith("gcc"):
                with tracer.span("baseline.gcc"):
                    for i, j in baseline.channel_pairs(M):
                        baseline.gcc_phat(spec, i, j, feat.meta["n_lags"])
        return time.perf_counter() - t0

    def assemble(spec, kind, fmt, cfg=None, n_mels=128):
        name = "spatial.salsa" if kind == "salsa" else "baseline.assemble"
        t0 = time.perf_counter()
        with tracer.span(name):
            feat = saved["assemble"](spec, kind, fmt, cfg, n_mels)
        total = time.perf_counter() - t0
        if cfg is None:
            cfg = spatial.BinSelectionConfig.for_format(fmt.kind)
        # Probe time includes its own span bookkeeping, so the residual
        # can dip below zero on a stage-dominated call; it is floored.
        rest = max(total - probe(spec, kind, cfg, n_mels, feat), 0.0)
        key = "spatial.cov_eig" if kind == "salsa" else "baseline.assemble"
        tracer.derived[key] = tracer.derived.get(key, 0.0) + rest
        return feat

    def evaluate_many(pairs, cfg=None):
        pairs = list(pairs)
        with tracer.span("metrics.evaluate"):
            report = saved["evaluate_many"](pairs, cfg)
        add("metrics.rows", sum(len(p) + len(r) for p, r in pairs))
        add("metrics.matched_pairs", report.counts["matched_pairs"])
        return report

    class StatsAccumulator(cli.StatsAccumulator):
        def add(self, feat):
            with tracer.span("normalize.stats"):
                super().add(feat)

        def finish(self):
            with tracer.span("normalize.stats"):
                return super().finish()

    def file_mb(path):
        return Path(path).stat().st_size / 1e6

    patch("read_wav", timed("cli.read_wav", cli.read_wav))
    patch("stft", timed("stft.stft", cli.stft,
                        lambda spec, *a: add("stft.frames", spec.n_frames)))
    patch("assemble", assemble)
    patch("write_feature", timed("tensorfile.write", cli.write_feature))
    patch("write_tensor", timed("tensorfile.write", cli.write_tensor,
                                lambda _, path, *a: add("tensorfile.mb_written", file_mb(path))))
    patch("read_feature", timed("tensorfile.read", cli.read_feature))
    patch("read_tensor", timed("tensorfile.read", cli.read_tensor,
                               lambda _, path, *a: add("tensorfile.mb_read", file_mb(path))))
    patch("StatsAccumulator", StatsAccumulator)
    patch("apply_stats", timed("normalize.apply", cli.apply_stats))
    patch("augment_pipeline", timed("augment.pipeline", cli.augment_pipeline))
    patch("render_scene", timed("synth.render", cli.render_scene,
                                lambda res, *a: add("synth.cells", int(res[0].data.size))))
    patch("evaluate_many", evaluate_many)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
