"""Covariance, eigenvector direction features and TF-bin selection."""

import numpy as np
import pytest

from seldkit import (
    ArrayFormat,
    BinSelectionConfig,
    ComplexSpectrogram,
    SPEED_OF_SOUND,
    SceneDescription,
    SourceSpec,
    StftConfig,
    compress_high_bands,
    dominance_ratio,
    eigen_summary,
    local_covariance,
    magnitude_test,
    passband_bins,
    render_scene,
    salsa,
    tetra_positions,
    track_noise_floor,
    transforms_for,
    unit_vector,
)
from seldkit.spatial import _EPS, _windowed_rms

import oracles
from support import single_source_scene


def _random_spec(rng, channels=4, frames=20, bins=12):
    data = rng.standard_normal((channels, frames, bins)) + 1j * rng.standard_normal(
        (channels, frames, bins)
    )
    return ComplexSpectrogram(data, bin_hz=46.875, frame_rate=80.0)


def test_local_covariance_matches_direct_sum():
    rng = np.random.default_rng(0)
    spec = _random_spec(rng)
    t_idx = np.array([0, 1, 3, 10, 19])
    cov, used = local_covariance(spec.data, t_idx, np.full(len(t_idx), 5), half_window=3)
    for k, t in enumerate(t_idx):
        ref, ref_used = oracles.naive_local_covariance(spec.data, t, 5, 3)
        assert used[k] == ref_used
        np.testing.assert_allclose(cov[k], ref, atol=1e-12)


def test_local_covariance_edge_windows_shrink():
    rng = np.random.default_rng(1)
    spec = _random_spec(rng, frames=10)
    _, used = local_covariance(spec.data, np.array([0, 9, 5]), np.zeros(3, dtype=int), 3)
    assert list(used) == [4, 4, 7]
    with pytest.raises(ValueError):
        local_covariance(spec.data, np.array([10]), np.array([0]), 3)


@pytest.mark.parametrize("t, f, half", [(-1, 0, 3), (10, 0, 3), (0, -1, 3), (0, 12, 3), (0, 0, -1)])
def test_local_covariance_rejects_a_bin_outside_the_clip_or_a_negative_half_window(t, f, half):
    spec = _random_spec(np.random.default_rng(1), frames=10)  # 10 frames, 12 bins
    # The bad bin comes after good ones: every bin of the batch is checked.
    t_idx, f_idx = np.array([0, 5, t]), np.array([0, 5, f])
    with pytest.raises(ValueError, match="out of range" if half >= 0 else "half_window"):
        local_covariance(spec.data, t_idx, f_idx, half)


def test_batched_covariances_match_direct_sum():
    # Every frame, including those within `half` of either end where the
    # window is truncated, against the loop-based oracle.
    rng = np.random.default_rng(2)
    spec = _random_spec(rng, frames=12, bins=30)
    t_idx = np.repeat(np.arange(12), 3)
    f_idx = rng.integers(0, 30, size=len(t_idx))
    for half in (0, 1, 3):
        batch, used = local_covariance(spec.data, t_idx, f_idx, half)
        for k in range(len(t_idx)):
            t, f = int(t_idx[k]), int(f_idx[k])
            ref, ref_used = oracles.naive_local_covariance(spec.data, t, f, half)
            assert used[k] == ref_used
            np.testing.assert_allclose(batch[k], ref, atol=1e-12, err_msg=f"half={half}")


def test_eigen_summary_agrees_with_power_iteration():
    rng = np.random.default_rng(3)
    mats = []
    for _ in range(25):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mats.append(a @ a.conj().T)
    vectors, values = eigen_summary(np.array(mats))
    np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0)
    assert np.all(np.diff(values, axis=1) <= 1e-12)
    for k, mat in enumerate(mats):
        value, vector = oracles.power_iteration_eig(mat, seed=k)
        assert values[k, 0] == pytest.approx(value, rel=1e-10)
        # same ray: dot magnitude 1 regardless of phase convention
        assert abs(np.vdot(vector, vectors[k])) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("kind", ["foa", "mic"])
def test_cues_do_not_depend_on_the_eigenvectors_phase(kind):
    # eigh fixes no phase of a principal vector; a cue divides the vector by
    # its reference component, so any phase gives the same cue.
    fmt, rng, n = ArrayFormat(kind), np.random.default_rng(4), 200
    v = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    turn = np.exp(1j * rng.uniform(-np.pi, np.pi, (n, 1)))
    f = rng.uniform(50.0, 4000.0, n)
    cues = fmt.cues(v, f)
    assert np.all(cues != 0)
    np.testing.assert_allclose(fmt.cues(turn * v, f), cues, rtol=0, atol=1e-12)


def test_eigen_summary_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eigen_summary(np.array([[1.0, 2.0], [0.0, 1.0]])[None])


def test_eigen_summary_checks_each_matrix_of_a_batch():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    good = a @ a.conj().transpose(0, 2, 1)
    good[0] *= 1e8
    eigen_summary(good)
    # A skew far below the batch's largest entry, but not below matrix 3's.
    skewed = good.copy()
    skewed[3, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        eigen_summary(skewed)
    nan = good.copy()
    nan[2, 1, 1] = np.nan
    with pytest.raises(ValueError, match="Hermitian"):
        eigen_summary(nan)


def test_dominance_ratio_separates_rank_one_from_mixture():
    u = np.array([1.0, 1j, -1.0, -1j]) / 2.0
    v = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    pure = np.outer(u, u.conj())
    mixed = 0.5 * np.outer(u, u.conj()) + 0.5 * np.outer(v, v.conj())
    ratio = dominance_ratio(eigen_summary(np.array([pure, mixed]))[1])
    assert ratio[0] > 1e10
    assert ratio[1] == pytest.approx(1.0, rel=1e-9)


def test_noise_floor_recurrence_step_by_step():
    cfg = BinSelectionConfig()
    mag = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.5, 0.5])
    floor = track_noise_floor(mag, cfg)
    # seeded with the mean of the first five frames, then one multiplicative
    # step per frame: up 5% on exceedance, down 0.2% otherwise
    expected = [1.0] * 5
    eta = 1.0
    for m in mag[5:]:
        eta = eta * 1.05 if m > eta else eta * 0.998
        expected.append(eta)
    np.testing.assert_allclose(floor, expected, rtol=1e-12)


def test_noise_floor_stays_below_a_loud_event():
    cfg = BinSelectionConfig()
    rng = np.random.default_rng(8)
    mag = np.concatenate([rng.uniform(0.05, 0.15, 40), np.full(30, 5.0)])
    floor = track_noise_floor(mag, cfg)
    # the floor hugs the background level, then grows only 5% per frame, so
    # the event stays far above the magnitude-test threshold throughout
    assert np.all(floor[:40] < 0.3)
    assert np.all(floor[40:] < 5.0 / cfg.alpha_mag)


def _naive_running_rms(mag, half):
    T = len(mag)
    return np.array([
        np.sqrt(np.mean(mag[max(t - half, 0) : min(t + half, T - 1) + 1] ** 2, axis=0))
        for t in range(T)
    ])


def _running_rms(mag, half):
    """The whole clip's running RMS, as magnitude_test takes it."""
    return _windowed_rms(mag * mag, 0, len(mag), half, len(mag))


def test_running_rms_matches_naive_window():
    rng = np.random.default_rng(5)
    mag = rng.uniform(0.0, 2.0, size=(15, 3))
    fast = _running_rms(mag, 1)
    np.testing.assert_allclose(fast, _naive_running_rms(mag, 1), atol=1e-12)
    # Quiet frames after a long loud passage: a difference of running sums
    # from frame 0 was off by up to 7 % here, and more the longer the clip.
    loud, quiet = rng.uniform(50.0, 150.0, (4000, 3)), rng.uniform(1e-4, 3e-4, (200, 3))
    mag = np.concatenate([loud, quiet])
    for half in (1, 3):
        ref = _naive_running_rms(mag, half)
        np.testing.assert_allclose(_running_rms(mag, half), ref, rtol=1e-12)


def test_magnitude_test_threshold():
    cfg = BinSelectionConfig()
    mag = np.full((9, 1), 2.0)
    floor = np.ones((9, 1))
    assert magnitude_test(mag, floor, cfg).all()  # 2.0 > 1.5 * 1.0
    assert not magnitude_test(mag, 1.5 * floor, cfg).any()  # 2.0 < 2.25


def test_intensity_style_direction_recovers_steering():
    rng = np.random.default_rng(6)
    steering = []
    for _ in range(20):
        az = rng.uniform(-180.0, 180.0)
        el = rng.uniform(-90.0, 90.0)
        steering.append(ArrayFormat("foa").steering(unit_vector(az, el)[None], None)[:, 0, 0])
    h = np.array(steering)
    vectors, _ = eigen_summary((h[:, :, None] * h[:, None, :].conj()).astype(complex))
    v = ArrayFormat("foa").cues(vectors)
    np.testing.assert_allclose(v, h[:, 1:] / np.linalg.norm(h[:, 1:], axis=1, keepdims=True),
                               atol=1e-9)


def _foa_cue(cov):
    return ArrayFormat("foa").cues(eigen_summary(cov[None])[0])[0]


def test_intensity_direction_sign_convention():
    # A source straight ahead must come out as +x, not -x.
    h = ArrayFormat("foa").steering(unit_vector(0.0, 0.0)[None], None)[:, 0, 0]
    cov = np.outer(h, h).astype(complex)
    np.testing.assert_allclose(_foa_cue(cov), [1.0, 0.0, 0.0], atol=1e-12)


def test_intensity_direction_degenerate_cases():
    assert np.all(_foa_cue(np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)) == 0.0)


def test_phase_style_direction_recovers_path_differences():
    positions = tetra_positions()
    rng = np.random.default_rng(7)
    steering, f_hz, expected = [], [], []
    fmt = ArrayFormat("mic", positions)
    for _ in range(20):
        az = rng.uniform(-180.0, 180.0)
        el = rng.uniform(-90.0, 90.0)
        f_hz.append(rng.uniform(300.0, 2400.0))  # below spatial aliasing
        steering.append(fmt.steering(unit_vector(az, el)[None], np.array([[f_hz[-1]]]))[:, 0, 0])
        u = np.array(
            [
                np.cos(np.radians(el)) * np.cos(np.radians(az)),
                np.cos(np.radians(el)) * np.sin(np.radians(az)),
                np.sin(np.radians(el)),
            ]
        )
        expected.append((positions[0] - positions[1:]) @ u)
    h = np.array(steering)
    vectors, _ = eigen_summary(h[:, :, None] * h[:, None, :].conj())
    d = ArrayFormat("mic", positions).cues(vectors, np.array(f_hz))
    np.testing.assert_allclose(d, np.array(expected), atol=1e-9)


def test_phase_style_direction_zero_frequency():
    vectors, _ = eigen_summary(np.eye(4, dtype=complex)[None])
    assert np.all(ArrayFormat("mic").cues(vectors, np.array([0.0])) == 0.0)


def test_passband_default_bins():
    foa = BinSelectionConfig.for_format("foa")
    mic = BinSelectionConfig.for_format("mic")
    mask_foa = passband_bins(257, 46.875, foa)
    mask_mic = passband_bins(257, 46.875, mic)
    # 50 Hz is above bin 1 (46.875 Hz); 9 kHz is exactly bin 192, inclusive
    assert list(np.nonzero(mask_foa)[0][[0, -1]]) == [2, 192]
    assert list(np.nonzero(mask_mic)[0][[0, -1]]) == [2, 85]


def test_array_format_aliasing_frequency():
    fmt = ArrayFormat("mic")
    assert fmt.aliasing_frequency() == pytest.approx(SPEED_OF_SOUND / (2 * 0.042))
    assert ArrayFormat("foa").aliasing_frequency() == np.inf
    with pytest.raises(ValueError):
        ArrayFormat("stereo")


@pytest.mark.parametrize("speed", [0.0, -343.0, np.nan, np.inf])
def test_array_format_requires_a_finite_positive_speed_of_sound(speed):
    for kind in ("foa", "mic"):
        with pytest.raises(ValueError, match="speed_of_sound must be finite and > 0"):
            ArrayFormat(kind, speed_of_sound=speed)


@pytest.mark.parametrize("kind", ["foa", "mic"])
def test_turned_cues_are_the_cues_of_the_turned_direction(kind):
    # The steering vector of a direction is the principal eigenvector of a
    # bin that one source owns. Turning its cues by a swap's channel map
    # must give the cues of the turned direction's steering: the foa unit
    # vector, and the mic path lengths wrapped to one phase turn at the same
    # in-band frequency below spatial aliasing.
    fmt, rng, n = ArrayFormat(kind), np.random.default_rng(8), 200
    u = rng.standard_normal((n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    cfg = BinSelectionConfig.for_format(kind)
    f = rng.uniform(cfg.f_low, min(cfg.f_high, fmt.aliasing_frequency()), n)

    def cues(directions):
        return fmt.cues(fmt.steering(directions, f[:, None])[:, :, 0].T, f)

    before = cues(u)
    if kind == "mic":  # some path lengths pass half a wavelength, so cues wrap
        d = (fmt.mic_positions[0] - fmt.mic_positions[1:]) @ u.T
        assert (np.abs(d * f / fmt.speed_of_sound) > 0.5).any()
    for tx in transforms_for(kind):
        perm, sign = fmt.channel_map(tx.matrix)
        # One frame whose bands are the n directions, each at its own frequency.
        turned = fmt.turn_cues(before.T[:, None, :], perm, sign, f)[:, 0, :].T
        np.testing.assert_allclose(turned, cues(u @ tx.matrix.T), rtol=0,
                                   atol=1e-12 if kind == "foa" else 1e-9, err_msg=tx.name)


def test_salsa_layout_and_masking():
    scene = single_source_scene("foa", az=40.0, el=10.0, seed=3, noise_power=1e-4)
    spec, _ = render_scene(scene, StftConfig())
    feat = salsa(spec, ArrayFormat("foa"))
    assert feat.data.shape == (7, spec.n_frames, 200)
    assert feat.channel_roles == ["spec"] * 4 + ["spatial"] * 3
    assert feat.scale == "linear"
    spatial = feat.data[4:]
    # below f_low nothing may be selected
    assert np.all(spatial[:, :, :2] == 0.0)
    # wherever a direction was written it is unit norm (uncompressed bands)
    norms = np.linalg.norm(spatial[:, :, :192], axis=0)
    nonzero = norms > 0
    assert nonzero.any()
    np.testing.assert_allclose(norms[nonzero], 1.0, atol=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="FOUND: salsa puts cues in the first frames of a noisy scene, where frame 0's "
    "covariance window holds 4 of its 7 frames: frames 0-2 of this scene hold a cue cell "
    "for 15 of seeds 0-39 (9 before each noise channel had its own stream); "
    "test_salsa_layout_and_masking's seed 3 is free of them by luck of the draw",
)
def test_salsa_first_frames_of_a_noisy_scene_carry_no_cue():
    for seed in range(40):
        scene = single_source_scene("foa", az=40.0, el=10.0, seed=seed, noise_power=1e-4)
        spec, _ = render_scene(scene, StftConfig())
        spatial = salsa(spec, ArrayFormat("foa")).data[4:]
        assert np.all(spatial[:, :3, :] == 0.0), f"seed {seed}"


def test_salsa_rejects_wrong_foa_channel_count():
    data = np.zeros((3, 10, 257), dtype=complex)
    spec = ComplexSpectrogram(data, 46.875, 80.0)
    with pytest.raises(ValueError, match="4 channels"):
        salsa(spec, ArrayFormat("foa"))


def test_salsa_silence_has_no_spatial_content():
    # 0 frames give an empty tensor, though no frame seeds the noise floor.
    for n_frames in (30, 0):
        data = np.zeros((4, n_frames, 257), dtype=complex)
        spec = ComplexSpectrogram(data, 46.875, 80.0)
        feat = salsa(spec, ArrayFormat("foa"))
        assert feat.data.shape == (7, n_frames, 200)
        assert np.all(feat.data[4:] == 0.0)


@pytest.mark.xfail(
    strict=True,
    reason="track_noise_floor makes a sustained source its own floor: it rises 5 % per "
    "frame while the source is above it, so cues appear only at onsets",
)
@pytest.mark.parametrize("kind", ["foa", "mic"])
def test_salsa_sustained_source_keeps_its_cues(kind):
    # 10 s of band-limited noise from onset 1 s. About 41 % of the passband
    # cells from 300 Hz to 8.5 kHz carry a cue in seconds 1-2 and none from
    # second 4 on; with the floor frozen (noise_delta_up=0) all of them do.
    scene = single_source_scene(kind, az=40.0, el=10.0, seed=3, duration=11.0, onset=1.0,
                                noise_power=1e-2)
    spec, _ = render_scene(scene, StftConfig())
    cfg = BinSelectionConfig.for_format(kind)
    freqs = np.arange(cfg.compress_start_bin) * spec.bin_hz
    band = (freqs >= 300.0) & (freqs <= min(8500.0, cfg.f_high))
    cues = salsa(spec, ArrayFormat(kind)).data[len(spec.data) :, :, : cfg.compress_start_bin]
    late = np.any(cues[:, int(4 * spec.frame_rate) :, band] != 0, axis=0)
    assert late.mean() >= 0.5


def _two_source_spec(kind, seed):
    sources = [
        SourceSpec(class_id=0, onset=0.15, offset=0.9, signal="noise",
                   params={"f_low": 300.0, "f_high": 8500.0},
                   trajectory=[(0.0, 30.0, 10.0), (1.0, 60.0, 20.0)]),
        SourceSpec(class_id=1, onset=0.3, offset=1.0, signal="chirp", gain=0.8,
                   params={"f_start": 400.0, "f_end": 6000.0},
                   trajectory=[(0.0, -120.0, -15.0)]),
    ]
    scene = SceneDescription(fmt=ArrayFormat(kind), duration=1.0, sources=sources,
                             noise_power=1e-4, seed=seed)
    return render_scene(scene, StftConfig())[0]


def _short_spec():
    # 6 frames: every covariance window (7 frames wide) is truncated, and a
    # rank-one burst in the last frames clears the magnitude test.
    rng = np.random.default_rng(9)
    data = 0.01 * (rng.standard_normal((4, 6, 257)) + 1j * rng.standard_normal((4, 6, 257)))
    steer = rng.standard_normal((4, 1, 257)) + 1j * rng.standard_normal((4, 1, 257))
    data[:, 4:] += steer * rng.standard_normal((1, 2, 257))
    return ComplexSpectrogram(data, bin_hz=46.875, frame_rate=80.0)


def _reference_salsa_spatial(spec, fmt):
    """Direction channels from oracle covariances, SVD and the paper's formulas."""
    cfg = BinSelectionConfig.for_format(fmt.kind)
    M, T, F = spec.data.shape
    mag = np.abs(spec.data[0])
    cand = magnitude_test(mag, track_noise_floor(mag, cfg), cfg)
    cand &= passband_bins(F, spec.bin_hz, cfg)[None, :]
    spatial = np.zeros((M - 1, T, F))
    for t, f in zip(*np.nonzero(cand)):
        cov, _ = oracles.naive_local_covariance(spec.data, t, f, cfg.cov_half_window)
        u, s, _ = np.linalg.svd(cov)
        if not s[0] > cfg.beta_ratio * (s[1] + _EPS):
            continue
        if abs(u[0, 0]) < _EPS:
            continue
        ubar = u[1:, 0] / u[0, 0]
        if fmt.kind == "foa":
            v = np.real(ubar)
            norm = np.linalg.norm(v)
            spatial[:, t, f] = v / norm if norm >= _EPS else 0.0
        elif f > 0:
            spatial[:, t, f] = -fmt.speed_of_sound * np.angle(ubar) / (2 * np.pi * f * spec.bin_hz)
    return spatial, int(cand.sum())


def test_salsa_mic_cues_scale_with_the_formats_speed_of_sound():
    # The delay cues are -c * phase / (2 pi f): linear in the format's c.
    spec = _two_source_spec("mic", seed=11)
    at_343 = salsa(spec, ArrayFormat("mic"))
    at_300 = salsa(spec, ArrayFormat("mic", speed_of_sound=300.0))
    assert (at_343.meta["speed_of_sound"], at_300.meta["speed_of_sound"]) == (343.0, 300.0)
    np.testing.assert_array_equal(at_300.data[:4], at_343.data[:4])
    assert np.count_nonzero(at_343.data[4:]) > 100
    np.testing.assert_allclose(at_300.data[4:], at_343.data[4:] * (300.0 / 343.0),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "case", ["foa-two-source", "mic-two-source", "foa-silent", "foa-short", "mic-short"]
)
def test_salsa_spatial_channels_match_svd_reference(case):
    kind, clip = case.split("-", 1)
    fmt = ArrayFormat(kind)
    if clip == "two-source":
        spec = _two_source_spec(kind, seed=11)
    elif clip == "short":
        spec = _short_spec()
    else:
        spec = ComplexSpectrogram(np.zeros((4, 40, 257), dtype=complex), 46.875, 80.0)
    ref, n_candidates = _reference_salsa_spatial(spec, fmt)
    assert (n_candidates == 0) == (clip == "silent")

    feat = salsa(spec, fmt)
    cfg = BinSelectionConfig.for_format(kind)
    spatial = feat.data[4:]
    uncompressed = slice(0, cfg.compress_start_bin)
    np.testing.assert_array_equal(
        np.any(spatial[:, :, uncompressed] != 0, axis=0),
        np.any(ref[:, :, uncompressed] != 0, axis=0),
    )
    expected = compress_high_bands(ref, cfg.compress_start_bin, cfg.compress_factor)
    np.testing.assert_allclose(spatial, expected, rtol=0, atol=1e-9)
