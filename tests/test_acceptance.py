"""Acceptance gate: end-to-end checks of the published contracts.

Each test prints one PASS line with its measured numbers so a plain
`pytest -v tests/test_acceptance.py` run doubles as the acceptance report.
"""

import time
from pathlib import Path

import numpy as np

from seldkit import (
    ArrayFormat,
    AudioClip,
    StftConfig,
    channel_swap,
    evaluate,
    render_scene,
    salsa,
    seld_error,
    stft,
    transforms_for,
    unit_vector,
)
from seldkit.baseline import assemble, gcc_phat
from seldkit.cli import main
from seldkit.spatial import dominance_ratio, eigen_summary, local_covariance

from oracles import power_iteration_eig, score_rows
from support import assert_rows_turn_alike, random_scene, single_source_scene, write_wav_blocks


def _report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE criterion {n:02d} PASS - {detail}")


# criterion 1 -----------------------------------------------------------------

# (label, error rate, F-score, localization error, localization recall,
#  published aggregate); first six rows without augmentation, last six with
#  each feature's best augmentation combination.
AGGREGATE_ROWS = [
    ("melspeciv/foa/none", 0.555, 0.584, 15.9, 0.625, 0.358),
    ("linspeciv/foa/none", 0.527, 0.609, 15.6, 0.642, 0.341),
    ("melspecgcc/mic/none", 0.660, 0.455, 21.1, 0.521, 0.450),
    ("linspecgcc/mic/none", 0.622, 0.506, 19.6, 0.583, 0.410),
    ("salsa/foa/none", 0.543, 0.592, 15.4, 0.627, 0.352),
    ("salsa/mic/none", 0.528, 0.601, 15.9, 0.644, 0.343),
    ("melspeciv/foa/best", 0.444, 0.686, 11.8, 0.686, 0.284),
    ("linspeciv/foa/best", 0.410, 0.710, 10.5, 0.702, 0.264),
    ("melspecgcc/mic/best", 0.507, 0.614, 17.9, 0.679, 0.328),
    ("linspecgcc/mic/best", 0.514, 0.606, 17.8, 0.676, 0.333),
    ("salsa/foa/best", 0.404, 0.724, 12.5, 0.727, 0.255),
    ("salsa/mic/best", 0.408, 0.715, 12.6, 0.728, 0.259),
]


def test_criterion_01_aggregate_reproduces_published_tables():
    t0 = time.perf_counter()
    deltas = {
        label: abs(seld_error(er, f, le, lr) - published)
        for label, er, f, le, lr, published in AGGREGATE_ROWS
    }
    close = sum(1 for d in deltas.values() if d < 5e-4)
    # every row must at least agree to publication rounding
    worst = max(deltas, key=deltas.get)
    assert deltas[worst] < 1.5e-3, (worst, deltas[worst])
    assert close >= 6, deltas
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(
        1,
        f"{close}/12 rows within 5e-4, worst {worst} off by "
        f"{deltas[worst]:.2e}, {elapsed * 1e3:.1f} ms",
    )


# criterion 2 -----------------------------------------------------------------


def _angles_between(vectors: np.ndarray, truth: np.ndarray) -> np.ndarray:
    dots = vectors @ truth
    cross = np.cross(vectors, truth[None, :])
    return np.degrees(np.arctan2(np.linalg.norm(cross, axis=1), dots))


def test_criterion_02_foa_direction_recovery():
    t0 = time.perf_counter()
    cfg = StftConfig()
    fmt = ArrayFormat("foa")
    rng = np.random.default_rng(202)
    errors = []
    for seed in range(200):
        az = float(rng.uniform(-180.0, 180.0))
        el = float(rng.uniform(-60.0, 60.0))
        # per-bin source power 1.0 over ambient 0.01 = 20 dB
        scene = single_source_scene(
            "foa", az=az, el=el, seed=seed, noise_power=0.01, gain=1.0
        )
        feat = salsa(render_scene(scene, cfg)[0], fmt)
        spatial = feat.data[4:7][:, :, 2:192]
        selected = np.any(spatial != 0.0, axis=0)
        vecs = spatial[:, selected].T
        errors.append(_angles_between(vecs, unit_vector(az, el)))
    pooled = np.concatenate(errors)
    median = float(np.median(pooled))
    p95 = float(np.percentile(pooled, 95))
    elapsed = time.perf_counter() - t0
    assert median < 2.0, median
    assert p95 < 5.0, p95
    assert elapsed < 60.0
    _report(
        2,
        f"{len(pooled)} selected bins over 200 scenes: median "
        f"{median:.3f} deg, p95 {p95:.3f} deg, {elapsed:.1f} s",
    )


# criterion 3 -----------------------------------------------------------------


def test_criterion_03_mic_relative_distance_recovery():
    t0 = time.perf_counter()
    cfg = StftConfig()
    fmt = ArrayFormat("mic")
    pos = fmt.mic_positions
    rng = np.random.default_rng(303)
    per_pair = [[], [], []]
    for seed in range(200):
        az = float(rng.uniform(-180.0, 180.0))
        el = float(rng.uniform(-60.0, 60.0))
        scene = single_source_scene(
            "mic", az=az, el=el, seed=seed, noise_power=0.01, gain=1.0,
            params={"f_low": 300.0, "f_high": 3900.0},
        )
        feat = salsa(render_scene(scene, cfg)[0], fmt)
        u = unit_vector(az, el)
        # bins whose centre frequency lies in [200 Hz, 4 kHz]
        spatial = feat.data[4:7][:, :, 5:86]
        selected = np.any(spatial != 0.0, axis=0)
        for m in range(3):
            truth = float((pos[0] - pos[m + 1]) @ u)
            per_pair[m].append(np.abs(spatial[m][selected] - truth))
    medians = [float(np.median(np.concatenate(chunks))) for chunks in per_pair]
    elapsed = time.perf_counter() - t0
    for m, med in enumerate(medians):
        assert med < 2e-3, (m, med)
    assert elapsed < 60.0
    _report(
        3,
        "per-pair median |EPV - RDOA| = "
        + ", ".join(f"{m * 1e3:.3f} mm" for m in medians)
        + f", {elapsed:.1f} s",
    )


# criterion 4 -----------------------------------------------------------------


def _steering(u: np.ndarray) -> np.ndarray:
    return np.concatenate([[1.0], u])


def _random_direction(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def test_criterion_04_coherence_test_discrimination():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    half = 15
    T = 2 * half + 1
    n_cases = 1000

    def ratios(cases: list) -> np.ndarray:
        """Dominance ratios of (4, T) cases, each the T frames of one bin."""
        data = np.stack(cases, axis=-1)  # (4, T, n_cases)
        t_idx, f_idx = np.full(n_cases, half), np.arange(n_cases)
        cov, _ = local_covariance(data, t_idx, f_idx, half)
        return dominance_ratio(eigen_summary(cov)[1])

    single = []
    for _ in range(n_cases):
        h = _steering(_random_direction(rng))
        S = rng.standard_normal(T) + 1j * rng.standard_normal(T)
        single.append(h[:, None] * S[None, :])

    double = []
    for _ in range(n_cases):
        u1 = _random_direction(rng)
        u2 = _random_direction(rng)
        while float(np.degrees(np.arccos(np.clip(u1 @ u2, -1, 1)))) < 90.0:
            u2 = _random_direction(rng)
        S1 = rng.standard_normal(T) + 1j * rng.standard_normal(T)
        S2 = rng.standard_normal(T) + 1j * rng.standard_normal(T)
        double.append(_steering(u1)[:, None] * S1 + _steering(u2)[:, None] * S2)

    single_pass = int(np.sum(ratios(single) > 5.0))
    double_fail = int(np.sum(ratios(double) <= 5.0))
    elapsed = time.perf_counter() - t0
    assert single_pass >= 0.99 * n_cases, single_pass
    assert double_fail >= 0.99 * n_cases, double_fail
    assert elapsed < 30.0
    _report(
        4,
        f"single-source pass {single_pass}/{n_cases}, two-source fail "
        f"{double_fail}/{n_cases}, {elapsed:.1f} s",
    )


# criterion 5 -----------------------------------------------------------------


def test_criterion_05_augmentation_commutation():
    t0 = time.perf_counter()
    cfg = StftConfig()
    worst = 0.0

    rng = np.random.default_rng(505)
    for case in range(20):
        scene = random_scene(rng, "foa", duration=0.6, noise_power=1e-4)
        spec, labels = render_scene(scene, cfg)
        feat = salsa(spec, ArrayFormat("foa"))
        for tx in transforms_for("foa"):
            swapped, swapped_labels = channel_swap(feat, labels, tx)
            spec2, labels2 = render_scene(scene.transformed(tx.matrix), cfg)
            direct = salsa(spec2, ArrayFormat("foa"))
            diff = float(np.abs(swapped.data - direct.data).max())
            worst = max(worst, diff)
            assert diff < 1e-6, (case, tx.name, diff)
            assert_rows_turn_alike(swapped_labels, labels2)

    for case in range(20):
        az = float(rng.uniform(-180.0, 180.0))
        el = float(rng.uniform(-60.0, 60.0))
        signal = ("noise", "tone", "chirp")[case % 3]
        scene = single_source_scene(
            "mic", az=az, el=el, seed=1000 + case, duration=0.6, onset=0.1,
            noise_power=0.0, signal=signal,
        )
        spec, labels = render_scene(scene, cfg)
        feat = salsa(spec, ArrayFormat("mic"))
        for tx in transforms_for("mic"):
            swapped, swapped_labels = channel_swap(feat, labels, tx)
            spec2, labels2 = render_scene(scene.transformed(tx.matrix), cfg)
            direct = salsa(spec2, ArrayFormat("mic"))
            diff = float(np.abs(swapped.data - direct.data).max())
            worst = max(worst, diff)
            assert diff < 1e-6, (case, tx.name, diff)
            assert_rows_turn_alike(swapped_labels, labels2)

    elapsed = time.perf_counter() - t0
    _report(
        5,
        f"16 foa + 8 mic transforms x 20 scenes, worst feature gap "
        f"{worst:.2e}, label rows CSV-equal, {elapsed:.1f} s",
    )


# criterion 6 -----------------------------------------------------------------


def test_criterion_06_gcc_phat_lag_fixture():
    cfg = StftConfig()
    n_lags = 200
    lags = np.arange(-(n_lags // 2) + 1, n_lags // 2 + 1)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng([606, seed])
        x = rng.standard_normal(12000)
        clip = AudioClip(np.stack([x, np.roll(x, 5)]), cfg.sample_rate)
        spec = stft(clip, cfg)
        curve = gcc_phat(spec, 0, 1, n_lags).mean(axis=0)
        if lags[int(curve.argmax())] == 5:
            hits += 1
    assert hits == 100, hits
    _report(6, "argmax lag = +5 for 100/100 random broadband signals")


# criterion 7 -----------------------------------------------------------------

FEATURE_SHAPES = {
    ("melspeciv", "foa"): (7, 128),
    ("linspeciv", "foa"): (7, 200),
    ("melspecgcc", "mic"): (10, 128),
    ("linspecgcc", "mic"): (10, 200),
    ("salsa", "foa"): (7, 200),
    ("salsa", "mic"): (7, 200),
}


def test_criterion_07_shape_and_channel_contract():
    t0 = time.perf_counter()
    cfg = StftConfig()
    n_samples = 60 * cfg.sample_rate
    expected_frames = cfg.n_frames(n_samples)
    assert expected_frames == 4799  # one short of the nominal 80 fps x 60 s
    checked = 0
    for clip_idx in range(10):
        rng = np.random.default_rng([707, clip_idx])
        clip = AudioClip(0.1 * rng.standard_normal((4, n_samples)), cfg.sample_rate)
        spec = stft(clip, cfg)
        assert spec.n_frames == expected_frames
        for (kind, fmt_kind), (channels, bands) in FEATURE_SHAPES.items():
            fmt = ArrayFormat(fmt_kind)
            feat = (
                salsa(spec, fmt) if kind == "salsa" else assemble(spec, kind, fmt)
            )
            assert feat.data.shape == (channels, expected_frames, bands), (
                kind,
                fmt_kind,
                feat.data.shape,
            )
            assert len(feat.channel_roles) == channels
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        7,
        f"{checked} tensors over 10 x 60 s clips, every kind at its exact "
        f"channel/band count, {expected_frames} frames, {elapsed:.1f} s",
    )


# criterion 8 -----------------------------------------------------------------


def test_criterion_08_eigen_residual_oracle():
    rng = np.random.default_rng(808)
    worst_residual = 0.0
    worst_value = 0.0
    mats = []
    for _ in range(1000):
        rank = int(rng.integers(1, 5))
        scale = 10.0 ** rng.uniform(-6, 6)
        G = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        mats.append(scale * (G @ G.conj().T))
    vectors, values = eigen_summary(np.array(mats))
    for i, R in enumerate(mats):
        sigma1 = float(values[i, 0])
        u = vectors[i]
        residual = float(np.linalg.norm(R @ u - sigma1 * u))
        worst_residual = max(worst_residual, residual / sigma1)
        assert residual <= 1e-8 * sigma1, (i, residual, sigma1)
        oracle_value, _ = power_iteration_eig(R, seed=i)
        rel = abs(sigma1 - oracle_value) / sigma1
        worst_value = max(worst_value, rel)
        assert rel <= 1e-8, (i, sigma1, oracle_value)
    _report(
        8,
        f"1000 PSD matrices: worst residual {worst_residual:.2e}, worst "
        f"value gap vs power iteration {worst_value:.2e}",
    )


# criterion 9 -----------------------------------------------------------------


def _random_metrics_case(rng):
    ref, pred = [], []
    used = set()
    for _ in range(rng.integers(1, 14)):
        key = (
            int(rng.integers(0, 30)),
            int(rng.integers(0, 6)),
            int(rng.integers(0, 2)),
        )
        if key in used:
            continue
        used.add(key)
        az = float(rng.uniform(-180.0, 180.0))
        el = float(rng.uniform(-80.0, 80.0))
        ref.append((*key, az, el))
        roll = rng.uniform()
        if roll < 0.35:  # exact hit
            pred.append((*key, az, el))
        elif roll < 0.6:  # perturbed hit, may cross the 20 degree gate
            pred.append(
                (*key, az + float(rng.uniform(5.0, 35.0)) * rng.choice([-1, 1]), el)
            )
        elif roll < 0.75:  # wrong class
            pred.append((key[0], int(rng.integers(0, 6)), key[2], az, el))
    for _ in range(rng.integers(0, 5)):
        pred.append(
            (
                int(rng.integers(0, 30)),
                int(rng.integers(0, 6)),
                int(rng.integers(0, 2)),
                float(rng.uniform(-180.0, 180.0)),
                float(rng.uniform(-80.0, 80.0)),
            )
        )
    return pred, ref


def test_criterion_09_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(909)
    worst_le = 0.0
    for _ in range(500):
        pred, ref = _random_metrics_case(rng)
        rep = evaluate(pred, ref)
        want = score_rows(pred, ref)
        assert rep.counts["tp"] == want["tp"]
        assert rep.counts["fp"] == want["fp"]
        assert rep.counts["fn"] == want["fn"]
        gap = abs(rep.localization_error_deg - want["localization_error_deg"])
        worst_le = max(worst_le, gap)
        assert gap <= 1e-9, gap
    _report(
        9,
        f"500 cases: TP/FP/FN exact, worst localization-error gap "
        f"{worst_le:.2e} deg",
    )


# criterion 10 ----------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "src/seldkit/data/demo_scene.txt"
    assert demo.exists()
    for run in ("s1", "s2"):
        assert main(["synth", str(demo), "--out", str(tmp_path / run)]) == 0
    for name in ("demo_scene.ftb", "demo_scene.manifest.txt", "demo_scene.csv"):
        a = (tmp_path / "s1" / name).read_bytes()
        b = (tmp_path / "s2" / name).read_bytes()
        assert a == b, name

    rng = np.random.default_rng(1010)
    wav = tmp_path / "clip.wav"
    write_wav_blocks(wav, 24000, 4, [0.1 * rng.standard_normal((4, 24000))])
    for run in ("e1", "e2"):
        code = main(
            ["extract", str(wav), "--format", "foa", "--feature", "salsa",
             "--out", str(tmp_path / run)]
        )
        assert code == 0
    for name in ("clip.ftb", "clip.manifest.txt"):
        a = (tmp_path / "e1" / name).read_bytes()
        b = (tmp_path / "e2" / name).read_bytes()
        assert a == b, name
    _report(10, "synth and extract outputs byte-identical across reruns")


# criterion 11 ----------------------------------------------------------------


def test_criterion_11_throughput():
    cfg = StftConfig()
    rng = np.random.default_rng(1111)
    clip = AudioClip(0.1 * rng.standard_normal((4, 60 * cfg.sample_rate)), 24000)
    t0 = time.perf_counter()
    feat = salsa(stft(clip, cfg), ArrayFormat("foa"))
    elapsed = time.perf_counter() - t0
    assert feat.data.shape == (7, 4799, 200)
    assert elapsed < 10.0, elapsed
    _report(
        11,
        f"60 s 4-channel clip to combined feature in {elapsed:.2f} s "
        f"({60.0 / elapsed:.0f}x real time)",
    )
