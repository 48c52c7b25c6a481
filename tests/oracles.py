"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way: explicit loops, pure
Python where possible, no shared code with the package.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections import defaultdict

import numpy as np


# ---------------------------------------------------------------------------
# linear algebra


def power_iteration_eig(matrix, seed=0, tol=1e-13, max_iters=200000):
    """Dominant eigenpair of a Hermitian PSD matrix by power iteration.

    Returns (value, unit vector). Iterates until the relative residual
    ||Av - lambda v|| / lambda falls below tol.
    """
    matrix = np.asarray(matrix)
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(max_iters):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, v
        v = w / norm
        value = float(np.real(np.conj(v) @ matrix @ v))
        if np.linalg.norm(matrix @ v - value * v) <= tol * max(value, 1e-300):
            break
    return value, v


def top_two_eigenvalues(matrix, seed=0):
    """Largest two eigenvalues via power iteration plus deflation."""
    first, v = power_iteration_eig(matrix, seed=seed)
    deflated = matrix - first * np.outer(v, np.conj(v))
    second, _ = power_iteration_eig(deflated, seed=seed + 1)
    return first, max(second, 0.0)


def naive_local_covariance(spec, frame, freq, half_window):
    """Direct-sum covariance over the truncated frame window at one bin."""
    n_frames = spec.shape[1]
    lo = max(0, frame - half_window)
    hi = min(n_frames - 1, frame + half_window)
    acc = np.zeros((spec.shape[0], spec.shape[0]), dtype=np.complex128)
    for t in range(lo, hi + 1):
        x = spec[:, t, freq]
        acc += np.outer(x, np.conj(x))
    return acc / (hi - lo + 1), hi - lo + 1


# ---------------------------------------------------------------------------
# signal processing


def naive_stft(samples, sample_rate, window_length=512, hop_length=300, fft_size=512):
    """Loop-based STFT with a periodic Hann window, one frame at a time."""
    samples = np.atleast_2d(samples)
    window = np.array(
        [0.5 - 0.5 * math.cos(2.0 * math.pi * k / window_length) for k in range(window_length)]
    )
    n_frames = 1 + (samples.shape[1] - window_length) // hop_length
    out = np.zeros((samples.shape[0], n_frames, fft_size // 2 + 1), dtype=np.complex128)
    for ch in range(samples.shape[0]):
        for t in range(n_frames):
            frame = samples[ch, t * hop_length : t * hop_length + window_length]
            out[ch, t] = np.fft.rfft(frame * window, n=fft_size)
    return out


def time_domain_delay(a, b, max_lag):
    """Lag of b relative to a by brute-force cross-correlation argmax."""
    best_lag, best_val = 0, -np.inf
    n = len(a)
    for lag in range(-max_lag, max_lag + 1):
        total = 0.0
        for i in range(n):
            j = i + lag
            if 0 <= j < n:
                total += a[i] * b[j]
        if total > best_val:
            best_val, best_lag = total, lag
    return best_lag


# ---------------------------------------------------------------------------
# scoring


def _vec(az_deg, el_deg):
    az, el = math.radians(az_deg), math.radians(el_deg)
    return (
        math.cos(el) * math.cos(az),
        math.cos(el) * math.sin(az),
        math.sin(el),
    )


def _angle_deg(u, v):
    dot = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    cx = u[1] * v[2] - u[2] * v[1]
    cy = u[2] * v[0] - u[0] * v[2]
    cz = u[0] * v[1] - u[1] * v[0]
    cross = math.sqrt(cx * cx + cy * cy + cz * cz)
    return math.degrees(math.atan2(cross, dot))


def best_assignment(cost):
    """All min(n, m) pairings of an n x m cost matrix (nested lists), keep the
    first in permutation order with the least total, summed row by row."""
    if not cost or not cost[0]:
        return []
    flip = len(cost) > len(cost[0])
    if flip:
        cost = [list(col) for col in zip(*cost)]
    best_total, best = None, []
    for choice in itertools.permutations(range(len(cost[0])), len(cost)):
        pairing = list(enumerate(choice))
        total = sum(cost[i][j] for i, j in pairing)
        if best_total is None or total < best_total:
            best_total, best = total, pairing
    if flip:
        return [(j, i) for i, j in best]
    return best


def _best_pairs(preds, refs):
    """The least-total-angle pairing of prediction and reference vectors."""
    return best_assignment([[_angle_deg(p, r) for r in refs] for p in preds])


def score_rows(
    pred_rows,
    ref_rows,
    threshold_deg=20.0,
    frames_per_segment=10,
    convention="2021",
):
    """Reference SELD scorer over label rows, exhaustive matching throughout.

    Rows are (frame, class, track, azimuth_deg, elevation_deg). Returns a
    dict of raw counts plus the four derived scores.
    """
    pred_frame = defaultdict(list)
    ref_frame = defaultdict(list)
    pred_seg = defaultdict(lambda: defaultdict(list))
    ref_seg = defaultdict(lambda: defaultdict(list))
    for rows, frame_map, seg_map in (
        (pred_rows, pred_frame, pred_seg),
        (ref_rows, ref_frame, ref_seg),
    ):
        for frame, cls, track, az, el in rows:
            v = _vec(az, el)
            frame_map[(frame, cls)].append(v)
            seg_map[(frame // frames_per_segment, cls)][track].append(v)

    le_sum, le_n = 0.0, 0
    recalled, ref_units = 0, 0
    for key in set(pred_frame) | set(ref_frame):
        p, r = pred_frame.get(key, []), ref_frame.get(key, [])
        for i, j in _best_pairs(p, r):
            le_sum += _angle_deg(p[i], r[j])
            le_n += 1
        if convention == "2020":
            if r:
                ref_units += 1
                recalled += 1 if p else 0
        else:
            ref_units += len(r)
            recalled += min(len(p), len(r))

    def instances(seg_map, key):
        reps = []
        for track in sorted(seg_map.get(key, {})):
            vecs = seg_map[key][track]
            mean = [sum(v[k] for v in vecs) / len(vecs) for k in range(3)]
            norm = math.sqrt(sum(x * x for x in mean))
            reps.append(tuple(x / norm for x in mean) if norm > 0 else (1.0, 0.0, 0.0))
        return reps

    tp = fp = fn = subs = dels = ins = n_ref = 0
    segments = {seg for seg, _ in pred_seg} | {seg for seg, _ in ref_seg}
    for seg in segments:
        classes = {c for s, c in pred_seg if s == seg} | {
            c for s, c in ref_seg if s == seg
        }
        seg_fp = seg_fn = 0
        for cls in classes:
            p = instances(pred_seg, (seg, cls))
            r = instances(ref_seg, (seg, cls))
            n_ref += len(r)
            hits = sum(
                1
                for i, j in _best_pairs(p, r)
                if _angle_deg(p[i], r[j]) < threshold_deg
            )
            tp += hits
            seg_fp += len(p) - hits
            seg_fn += len(r) - hits
        s = min(seg_fp, seg_fn)
        subs += s
        dels += seg_fn - s
        ins += seg_fp - s
        fp += seg_fp
        fn += seg_fn

    den = 2 * tp + fp + fn
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "substitutions": subs,
        "deletions": dels,
        "insertions": ins,
        "references": n_ref,
        "matched_pairs": le_n,
        "le_sum": le_sum,
        "recalled": recalled,
        "ref_units": ref_units,
        "error_rate": (subs + dels + ins) / max(n_ref, 1),
        "f_score": 2 * tp / den if den > 0 else 1.0,
        "localization_error_deg": le_sum / le_n if le_n else 180.0,
        "localization_recall": recalled / ref_units if ref_units else 1.0,
    }


# ---------------------------------------------------------------------------
# scene rendering


def _unit(az_deg, el_deg):
    az = np.radians(np.asarray(az_deg, dtype=np.float64))
    el = np.radians(np.asarray(el_deg, dtype=np.float64))
    return np.stack(
        [np.cos(az) * np.cos(el), np.sin(az) * np.cos(el), np.sin(el)], axis=-1
    )


def _directions(src, times):
    knots = sorted(src.trajectory)
    kt = np.array([k[0] for k in knots])
    az = np.array([k[1] for k in knots], dtype=np.float64)
    el = np.array([k[2] for k in knots], dtype=np.float64)
    if len(knots) == 1:
        return _unit(np.full(len(times), az[0]), np.full(len(times), el[0]))
    az_unwrapped = np.degrees(np.unwrap(np.radians(az)))
    return _unit(np.interp(times, kt, az_unwrapped), np.interp(times, kt, el))


def _dense_frame_spectra(src, times, freqs, rng):
    """Source STFT over every bin of each active frame, (len(times), F)."""
    F = len(freqs)
    S = np.zeros((len(times), F), dtype=np.complex128)
    if src.signal == "noise":
        f_lo = float(src.params.get("f_low", 200.0))
        f_hi = float(src.params.get("f_high", freqs[-1]))
        band = (freqs >= f_lo) & (freqs <= f_hi)
        draws = rng.standard_normal((len(times), int(band.sum()), 2))
        S[:, band] = (draws[..., 0] + 1j * draws[..., 1]) / np.sqrt(2.0)
    elif src.signal == "tone":
        f0 = float(src.params.get("f0", 440.0))
        bin_hz = freqs[1] - freqs[0]
        for h in range(1, int(src.params.get("harmonics", 3)) + 1):
            fh = h * f0
            if fh > freqs[-1]:
                break
            b = int(round(fh / bin_hz))
            phase0 = rng.uniform(0, 2 * np.pi)
            S[:, b] += np.exp(1j * (2 * np.pi * fh * times + phase0))
    else:
        f_start = float(src.params.get("f_start", 200.0))
        f_end = float(src.params.get("f_end", freqs[-1]))
        bin_hz = freqs[1] - freqs[0]
        frac = (times - src.onset) / (src.offset - src.onset)
        inst = f_start + (f_end - f_start) * np.clip(frac, 0.0, 1.0)
        bins = np.clip(np.round(inst / bin_hz).astype(int), 0, F - 1)
        S[np.arange(len(times)), bins] = np.exp(1j * 2 * np.pi * inst * times)
    return S * src.gain


def noise_stream(seed, j):
    """The random stream of a scene's ambient-noise channel j."""
    return np.random.default_rng(np.random.SeedSequence([seed, 0]).spawn(j + 1)[j])


def dense_render_scene(scene, cfg):
    """Scene spectrogram with every source multiplied by its steering over all
    bins of its active frames, (M, T, F) complex128.

    Uses the renderer's seeds, draw order and per-element arithmetic, so
    its output is meant to match `render_scene` bit for bit.
    """
    n_samples = int(round(scene.duration * cfg.sample_rate))
    T = 1 + (n_samples - cfg.window_length) // cfg.hop_length
    F = cfg.fft_size // 2 + 1
    M = 4 if scene.fmt.kind == "foa" else len(scene.fmt.mic_positions)
    freqs = np.arange(F) * cfg.bin_hz
    centers = (np.arange(T) * cfg.hop_length + cfg.window_length / 2) / cfg.sample_rate
    if scene.noise_power > 0:
        # Noise channel j is drawn whole from the j-th child of SeedSequence([seed, 0]).
        draws = np.stack([noise_stream(scene.seed, j).standard_normal((T, F, 2))
                          for j in range(M)])
        X = np.sqrt(scene.noise_power / 2.0) * (draws[..., 0] + 1j * draws[..., 1])
        if scene.fmt.kind == "foa" and not np.array_equal(scene.orientation, np.eye(3)):
            A = np.zeros((4, 4))
            A[0, 0] = 1.0
            A[1:, 1:] = scene.orientation
            X = np.einsum("ij,jtf->itf", A, X)
    else:
        X = np.zeros((M, T, F), dtype=np.complex128)
    for si, src in enumerate(scene.sources):
        active = (centers >= src.onset) & (centers < src.offset)
        if not np.any(active):
            continue
        t_act = centers[active]
        S = _dense_frame_spectra(
            src, t_act, freqs, np.random.default_rng([scene.seed, 1 + si])
        )
        u = _directions(src, t_act) @ scene.orientation.T
        if scene.fmt.kind == "foa":
            H = np.concatenate([np.ones((len(t_act), 1)), u], axis=1).T
            X[:, active, :] += H[:, :, None] * S[None, :, :]
        else:
            pos = scene.fmt.mic_positions
            d = (pos[0][None, :] - pos) @ u.T
            phase = (
                -2.0 * np.pi * d[:, :, None] * freqs[None, None, :]
                / scene.fmt.speed_of_sound
            )
            X[:, active, :] += np.exp(1j * phase) * S[None, :, :]
    return X


def _angles_of(u):
    """(azimuth, elevation) in degrees of Cartesian vectors (..., 3)."""
    az = np.degrees(np.arctan2(u[..., 1], u[..., 0]))
    el = np.degrees(np.arctan2(u[..., 2], np.hypot(u[..., 0], u[..., 1])))
    return az, el


def label_rows(scene, fps=10.0):
    """The scene's label rows (frame, class, source index, az, el), sorted.

    One row per label frame whose center lies in a source's [onset, offset),
    its direction the trajectory at that center seen through the scene's
    orientation. Uses the renderer's arithmetic, so its rows are meant to
    equal `render_scene`'s bit for bit.
    """
    centers = (np.arange(int(round(scene.duration * fps))) + 0.5) / fps
    rows = []
    for si, src in enumerate(scene.sources):
        frames = np.flatnonzero((centers >= src.onset) & (centers < src.offset))
        az, el = _angles_of(_directions(src, centers[frames]) @ scene.orientation.T)
        for t, a, e in zip(frames, az, el):
            rows.append((int(t), src.class_id, si, float(a), float(e)))
    return sorted(rows)


def turned_rows(rows, matrix):
    """Label rows turned one row at a time: unit vector, matrix, then angles."""
    out = []
    for frame, cls, track, az, el in rows:
        az, el = _angles_of(_unit(az, el) @ np.asarray(matrix, dtype=np.float64).T)
        out.append((frame, cls, track, float(az), float(el)))
    return out


# ---------------------------------------------------------------------------
# file I/O


def whole_wav_samples(path):
    """(rate, (channels, samples) float64) of a WAV file read whole by scipy.

    Integers are scaled by their full range (scipy gives 24-bit samples as
    left-aligned 32-bit), 8-bit around 128; floats pass through.
    """
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    data = np.atleast_2d(data.T if data.ndim == 2 else data)
    if data.dtype == np.int16:
        return rate, data.astype(np.float64) / 2.0**15
    if data.dtype == np.int32:
        return rate, data.astype(np.float64) / 2.0**31
    if data.dtype == np.uint8:
        return rate, (data.astype(np.float64) - 128.0) / 128.0
    return rate, data.astype(np.float64)


def tensor_file_bytes(array):
    """The bytes of a tensor file holding array: complex64 for a complex64
    array, float32 for any other."""
    array = np.asarray(array)
    code, dtype = (2, "<c8") if array.dtype == np.complex64 else (0, "<f4")
    array = np.asarray(array, dtype=dtype)
    head = b"FTB1" + struct.pack("<BB", code, array.ndim) + struct.pack(f"<{array.ndim}Q", *array.shape)
    return head + array.tobytes()
