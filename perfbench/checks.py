"""Output checks that do not rely on the program under test.

Every check is derived either from the generated ground truth or from a
property the method must have, using this file's own tensor reader, STFT and
geometry. `verify` runs each check on the real outputs and then on a
corrupted copy, which the check must reject: a check that accepts its
corruption is as much a failure as an output that fails its check.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from workloads import (
    LABEL_FPS,
    SCENE_SECONDS,
    SPEED_OF_SOUND,
    SR,
    Workload,
    tetra_positions,
    unit,
)

WIN = 512
HOP = 300
NFFT = 512
BIN_HZ = SR / NFFT
COMPRESS_START = 192
COMPRESS_FACTOR = 8
F_LOW = 50.0
F_HIGH = {"foa": 9000.0, "mic": 4000.0}
COV_HALF = 3  # frames either side of the local covariance window
PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

DOA_TOL_DEG = 5.0  # a selected FOA cue counts as on target within this angle
PATH_TOL_M = 0.002  # a selected MIC path difference counts within 2 mm
ON_TARGET_SHARE = 0.9  # share of checked cues that must be on target


class CheckFailed(Exception):
    """An output disagrees with its independent expectation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# readers


def read_ftb(path: Path) -> np.ndarray:
    """Tensor container: b"FTB1", u8 dtype code, u8 rank, u64 dims, payload."""
    blob = Path(path).read_bytes()
    require(blob[:4] == b"FTB1", f"{path}: bad magic")
    code, ndim = struct.unpack_from("<BB", blob, 4)
    dims = struct.unpack_from(f"<{ndim}Q", blob, 6)
    dtype = {0: "<f4", 1: "<f8", 2: "<c8"}[code]
    return np.frombuffer(blob[6 + 8 * ndim :], dtype=dtype).reshape(dims)


def read_rows(path: Path) -> list[tuple]:
    rows = []
    for line in Path(path).read_text().split():
        f, c, t, az, el = line.split(",")
        rows.append((int(f), int(c), int(t), float(az), float(el)))
    return sorted(rows)


# ---------------------------------------------------------------------------
# geometry shared by the checks


def log_spec_frames(samples: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """log(|X|^2 + 1e-12) of the given frames, periodic Hann, compressed."""
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(WIN) / WIN)
    idx = frames[:, None] * HOP + np.arange(WIN)[None, :]
    x = samples.astype(np.float64)[:, idx] * win
    logp = np.log(np.abs(np.fft.rfft(x, NFFT, axis=-1)) ** 2 + 1e-12)
    n_groups = (logp.shape[-1] - COMPRESS_START) // COMPRESS_FACTOR
    tail = logp[..., COMPRESS_START : COMPRESS_START + n_groups * COMPRESS_FACTOR]
    grouped = tail.reshape(*tail.shape[:-1], n_groups, COMPRESS_FACTOR).mean(-1)
    return np.concatenate([logp[..., :COMPRESS_START], grouped], axis=-1)


def single_event_frames(events, n_frames: int, margin: int) -> dict[int, np.ndarray]:
    """Frames whose samples, widened by `margin` frames each side, overlap
    exactly one event and lie inside it; keyed by event index."""
    start = (np.arange(n_frames) - margin) * HOP
    end = (np.arange(n_frames) + margin) * HOP + WIN
    busy = np.zeros(n_frames, dtype=int)
    inside = {}
    for i, ev in enumerate(events):
        a, b = ev.onset * SR, ev.offset * SR
        busy += (end > a) & (start < b)
        inside[i] = (start >= a) & (end <= b)
    return {i: np.nonzero(m & (busy == 1))[0] for i, m in inside.items()}


def support_bins(ev) -> np.ndarray:
    """Uncompressed bins where the event has energy, clear of band edges."""
    freqs = np.arange(COMPRESS_START) * BIN_HZ
    if ev.kind == "noise":
        return np.nonzero((freqs >= ev.f_lo + 2 * BIN_HZ) & (freqs <= ev.f_hi - 2 * BIN_HZ))[0]
    peaks = np.round(ev.f0 * np.arange(1, ev.n_harm + 1) / BIN_HZ).astype(int)
    return peaks[peaks < COMPRESS_START]


def _wrapped_path_error(est, true, f_hz):
    """Path-difference error modulo one wavelength, in metres."""
    lam = SPEED_OF_SOUND / f_hz
    return (est - true + lam / 2) % lam - lam / 2


def mic_swap_matrices() -> list[np.ndarray]:
    """Signed permutations among z-rotations by 90 degree steps, y mirror and
    z flip that map the tetrahedral capsule set onto itself."""
    pos = tetra_positions()
    keys = {tuple(np.round(p / np.abs(p).max()).astype(int)) for p in pos}
    out = []
    for k in range(4):
        c, s = round(np.cos(k * np.pi / 2)), round(np.sin(k * np.pi / 2))
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        for my in (1, -1):
            for mz in (1, -1):
                m = rot @ np.diag([1, my, mz])
                moved = {tuple(np.round(m @ p / np.abs(p).max()).astype(int)) for p in pos}
                if moved == keys:
                    out.append(m.astype(float))
    return out


# ---------------------------------------------------------------------------
# checks: each takes the output under test and raises CheckFailed


def check_spec(out, samples, frames) -> None:
    """`spec` channels equal this file's own STFT on the sampled frames."""
    want = log_spec_frames(samples, frames)
    got = out[: samples.shape[0]][:, frames].astype(np.float64)
    err = np.abs(got - want).max()
    require(err <= 1e-4 + 1e-5 * np.abs(want).max(), f"spec channels differ by {err:.3g}")


def check_out_of_band_zero(out, n_spec: int, fmt: str) -> None:
    """Spatial cells of bands wholly outside [f_low, f_high] are zero."""
    lo = np.arange(COMPRESS_START) * BIN_HZ
    n_groups = out.shape[-1] - COMPRESS_START
    group_lo = (COMPRESS_START + COMPRESS_FACTOR * np.arange(n_groups)) * BIN_HZ
    group_hi = group_lo + (COMPRESS_FACTOR - 1) * BIN_HZ
    outside = np.concatenate(
        [(lo < F_LOW) | (lo > F_HIGH[fmt]), (group_hi < F_LOW) | (group_lo > F_HIGH[fmt])]
    )
    stray = np.count_nonzero(out[n_spec:][:, :, outside])
    require(stray == 0, f"{stray} spatial cells outside [{F_LOW}, {F_HIGH[fmt]}] Hz are non-zero")


def foa_doa_errors(out, events) -> np.ndarray:
    """Angles (deg) between selected FOA cues and the single active event."""
    spatial = out[4:7].astype(np.float64)
    errs = []
    for i, frames in single_event_frames(events, out.shape[1], COV_HALF).items():
        bins = support_bins(events[i])
        if not len(frames) or not len(bins):
            continue
        v = spatial[:, frames][:, :, bins].reshape(3, -1)
        v = v[:, np.any(v != 0, axis=0)]
        if v.shape[1]:
            v /= np.linalg.norm(v, axis=0)
            cos = np.clip(unit(events[i].az, events[i].el) @ v, -1, 1)
            errs.append(np.degrees(np.arccos(cos)))
    return np.concatenate(errs) if errs else np.zeros(0)


def check_on_target(errs: np.ndarray, tol: float, what: str) -> None:
    """At least one cue is checked and most lie within `tol` of the truth."""
    require(len(errs) > 0, f"no selected {what} cue in any single-event frame")
    share = float(np.mean(np.abs(errs) <= tol))
    require(share >= ON_TARGET_SHARE,
            f"only {share:.1%} of {len(errs)} {what} cues within {tol:g} of the truth")


def check_gcc_peaks(gcc, events) -> int:
    """Mean GCC-PHAT per pair over each single-source noise event peaks
    within one lag of the geometric TDOA; returns the number of peaks checked."""
    pos = tetra_positions()
    n_lags = gcc.shape[-1]
    lags = np.arange(n_lags) - (n_lags // 2 - 1)
    checked = 0
    for i, frames in single_event_frames(events, gcc.shape[1], 0).items():
        ev = events[i]
        if ev.kind != "noise" or len(frames) < 40:
            continue
        d = (pos[0] - pos) @ unit(ev.az, ev.el)  # path excess of each capsule
        for k, (a, b) in enumerate(PAIRS):
            peak = lags[np.argmax(gcc[k][frames].mean(axis=0))]
            tdoa = (d[b] - d[a]) / SPEED_OF_SOUND * SR
            require(abs(peak - tdoa) <= 1.0,
                    f"event {i} pair {a}-{b}: GCC peak at lag {peak}, TDOA {tdoa:.2f}")
            checked += 1
    require(checked > 0, "no single-source noise segment for the GCC check")
    return checked


def mic_path_errors(out, events) -> np.ndarray:
    """Per selected cell, the largest |path difference - (p0 - pm) . u| over
    the capsules, wrapped to one wavelength, in metres."""
    pos = tetra_positions()
    spatial = out[4:7].astype(np.float64)
    errs = []
    for i, frames in single_event_frames(events, out.shape[1], COV_HALF).items():
        ev = events[i]
        bins = support_bins(ev)
        bins = bins[(bins * BIN_HZ <= F_HIGH["mic"]) & (bins > 0)]
        if not len(frames) or not len(bins):
            continue
        v = spatial[:, frames][:, :, bins]  # (3, frames, bins)
        sel = np.any(v != 0, axis=0)
        true = ((pos[0] - pos) @ unit(ev.az, ev.el))[1:]
        f_hz = np.broadcast_to(bins * BIN_HZ, sel.shape)[sel]
        err = _wrapped_path_error(v[:, sel], true[:, None], f_hz[None, :])
        errs.append(np.abs(err).max(axis=0))
    return np.concatenate(errs) if errs else np.zeros(0)


def check_stats(stats, feats) -> None:
    """`stats` equals numpy's per-channel mean and std (floored at 1e-8)."""
    x = np.concatenate([f.reshape(f.shape[0], -1) for f in feats], axis=1).astype(np.float64)
    want = np.stack([x.mean(axis=1), np.maximum(x.std(axis=1), 1e-8)])
    require(stats.shape == want.shape, f"stats shape {stats.shape} != {want.shape}")
    require(np.allclose(stats, want, rtol=1e-6, atol=1e-9),
            f"stats differ from numpy by {np.abs(stats - want).max():.3g}")


def check_swapped_labels(rows_in, rows_out) -> None:
    """Same active cells; all directions mapped by one of the 8 array swaps."""
    require([r[:3] for r in rows_in] == [r[:3] for r in rows_out],
            "augmented labels changed the active (frame, class, track) cells")
    u_in = unit(np.array([r[3] for r in rows_in]), np.array([r[4] for r in rows_in]))
    u_out = unit(np.array([r[3] for r in rows_out]), np.array([r[4] for r in rows_out]))
    best = min(np.abs(u_in @ m.T - u_out).max() for m in mic_swap_matrices())
    require(best < 1e-4, f"no swap matrix maps the label directions (residual {best:.3g})")


def check_label_rows(got, want) -> None:
    """Rendered label rows equal the rows derived from the scene text."""
    require([r[:3] for r in got] == [r[:3] for r in want],
            f"{len(got)} rendered label rows vs {len(want)} expected, or cells differ")
    ug = unit(np.array([r[3] for r in got]), np.array([r[4] for r in got]))
    uw = unit(np.array([r[3] for r in want]), np.array([r[4] for r in want]))
    err = np.abs(ug - uw).max() if len(got) else 0.0
    require(err < 1e-4, f"rendered label directions differ by {err:.3g}")


def check_report(report: dict, expect: dict) -> None:
    """Scores equal their expected values (tolerance 1e-3, CSV rounding)."""
    for key, value in expect.items():
        require(abs(report[key] - value) <= 1e-3, f"{key} = {report[key]}, expected {value}")


# ---------------------------------------------------------------------------
# expected rows of a scene


def scene_rows(sources) -> list[tuple]:
    """Label rows a scene must produce: 10 fps frame centers, track = source
    index, piecewise-linear trajectories with azimuth unwrapped."""
    centers = (np.arange(int(round(SCENE_SECONDS * LABEL_FPS))) + 0.5) / LABEL_FPS
    rows = []
    for si, s in enumerate(sources):
        active = (centers >= s["onset"]) & (centers < s["offset"])
        t = centers[active]
        kt = np.array([k[0] for k in s["trajectory"]])
        az = np.degrees(np.unwrap(np.radians([k[1] for k in s["trajectory"]])))
        el = np.array([k[2] for k in s["trajectory"]])
        az_t, el_t = np.interp(t, kt, az), np.interp(t, kt, el)
        for frame, a, e in zip(np.nonzero(active)[0], az_t, el_t):
            rows.append((int(frame), s["class"], si, float(a), float(e)))
    return sorted(rows)


# ---------------------------------------------------------------------------
# corruptions for the self-test


def _plus(x, delta, index=np.s_[...]):
    y = np.array(x, dtype=np.float64)
    y[index] += delta
    return y


def _nudge_cues(x, delta):
    y = np.array(x, dtype=np.float64)
    cues = y[4:]
    cues[cues != 0] += delta
    return y


def _swap_xy(x):
    y = np.array(x)
    y[[4, 5]] = y[[5, 4]]
    return y


def _shift_first_row(rows):
    f, c, t, az, el = rows[0]
    return [(f, c, t, az + 3.0, el)] + rows[1:]


# ---------------------------------------------------------------------------
# per-workload verification


def verify(wl: Workload, out: Path, rng: np.random.Generator) -> dict:
    """Run every check on the outputs under `out`, then its self-test.

    Returns a summary of what was checked; raises CheckFailed on the first
    failure.
    """
    cases = []  # (name, check, output, corrupt)
    summary: dict = {}
    if wl.name == "foa-salsa-dense":
        feats, events = [], []
        for stem, info in wl.truth["files"].items():
            feat = read_ftb(out / "feat" / f"{stem}.ftb")
            frames = np.sort(rng.choice(feat.shape[1], size=64, replace=False))
            cases.append((f"{stem} spec",
                          lambda o, s=info["samples"], fr=frames: check_spec(o, s, fr),
                          feat, lambda o: _plus(o, 0.05, np.s_[2])))
            cases.append((f"{stem} out-of-band",
                          lambda o: check_out_of_band_zero(o, 4, "foa"),
                          feat, lambda o: _plus(o, 0.3, np.s_[5, :, 0])))
            feats.append(feat)
            events.append(info["events"])

        def doa_errors(outputs):
            return np.concatenate([foa_doa_errors(o, e) for o, e in zip(outputs, events)])

        errs = doa_errors(feats)
        summary["doa_cues_checked"] = len(errs)
        summary["doa_within_tol"] = float(np.mean(errs <= DOA_TOL_DEG)) if len(errs) else None
        cases.append(("foa directions",
                      lambda o: check_on_target(doa_errors(o), DOA_TOL_DEG, "FOA direction"),
                      feats, lambda o: [_swap_xy(f) for f in o]))
    elif wl.name == "mic-long-prep":
        events = wl.truth["events"]
        gcc = read_ftb(out / "gcc" / "long.ftb")
        sal = read_ftb(out / "salsa" / "long.ftb")
        summary["gcc_peaks_checked"] = check_gcc_peaks(gcc[4:], events)
        cases.append(("gcc peaks", lambda o: check_gcc_peaks(o[4:], events),
                      gcc, lambda o: np.roll(o, 2, axis=-1)))
        perrs = mic_path_errors(sal, events)
        summary["path_cues_checked"] = len(perrs)
        summary["path_within_tol"] = float(np.mean(perrs <= PATH_TOL_M)) if len(perrs) else None
        cases.append(("mic path differences",
                      lambda o: check_on_target(mic_path_errors(o, events), PATH_TOL_M,
                                                "MIC path-difference"),
                      sal, lambda o: _nudge_cues(o, 0.005)))
        cases.append(("mic out-of-band", lambda o: check_out_of_band_zero(o, 4, "mic"),
                      sal, lambda o: _plus(o, 0.01, np.s_[4, :, 150])))
        frames = np.sort(rng.choice(sal.shape[1], size=64, replace=False))
        cases.append(("mic spec", lambda o: check_spec(o, wl.truth["samples"], frames),
                      sal, lambda o: _plus(o, 0.05, np.s_[1])))
        rows_in = read_rows(wl.truth["labels"])
        for kind, feat in (("gcc", gcc), ("salsa", sal)):
            stats = read_ftb(out / "stats" / f"{kind}.ftb")
            cases.append((f"stats {kind}", lambda s, f=feat: check_stats(s, [f]),
                          stats, lambda s: _plus(s, 1e-3, np.s_[0, 0])))
            rows_out = read_rows(out / f"aug_{kind}" / "long.csv")
            cases.append((f"augment {kind} labels",
                          lambda r: check_swapped_labels(rows_in, r),
                          rows_out, _shift_first_row))
    elif wl.name == "synth-eval-corpus":
        for stem, sources in wl.truth["scenes"].items():
            want = scene_rows(sources)
            cases.append((f"{stem} labels", lambda r, w=want: check_label_rows(r, w),
                          read_rows(out / "synth" / f"{stem}.csv"), lambda r: r[:-1]))
        perfect = {"error_rate": 0.0, "f_score": 1.0,
                   "localization_error_deg": 0.0, "localization_recall": 1.0}
        expects = {
            "self": (perfect, {"f_score": 0.99}),
            "shift10": ({"f_score": 1.0, "localization_error_deg": 10.0},
                        {"localization_error_deg": 10.5}),
            "shift30": ({"count_tp": 0}, {"count_tp": 1}),
        }
        for op in wl.ops:
            if not op.keep_stdout:
                continue
            report = json.loads((out / "stdout" / f"{op.name}.txt").read_text().splitlines()[0])
            expect, bad = next(v for k, v in expects.items() if f"-{k}-" in op.name)
            cases.append((op.name, lambda r, e=expect: check_report(r, e), report,
                          lambda r, b=bad: {**r, **b}))
    else:
        raise ValueError(f"unknown workload {wl.name!r}")

    for name, check, output, corrupt in cases:
        try:
            check(output)
        except CheckFailed as exc:
            raise CheckFailed(f"{name}: {exc}") from None
        try:
            check(corrupt(output))
        except CheckFailed:
            continue
        raise CheckFailed(f"{name}: self-test: the check accepted a corrupted output")
    summary["checks"] = len(cases)
    return summary
