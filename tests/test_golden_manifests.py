"""Golden manifests: the full text every manifest-writing command produces.

Tiny runs of extract (foa and mic salsa, melspecgcc), stats --apply, augment and synth at
the default configuration; each manifest must equal its pinned text, so a
change of key order, value format, gate count or configuration digest fails
here.
"""

from pathlib import Path

import numpy as np
import pytest

from seldkit.cli import main

import support

SCENE = """\
version=1
format=mic
duration=0.6
seed=9
noise_power=0.0001
[source]
class=4
onset=0.1
offset=0.5
signal=tone
f0=1000
harmonics=2
trajectory=0:-30:15
"""


def _source_wav(path, channels, seconds=0.5, rate=24000):
    """One white noise, one sample later on each next channel, plus a little
    independent noise per channel."""
    rng = np.random.default_rng(4)
    n = int(seconds * rate)
    source = rng.standard_normal(n + channels)
    samples = np.array([source[channels - m : channels - m + n] for m in range(channels)])
    noise = 1e-3 * rng.standard_normal((channels, n))
    support.write_wav_blocks(path, rate, channels, [0.1 * samples + noise])


def _run(tmp_path: Path) -> dict[str, str]:
    """Every manifest the calls write, by path relative to tmp_path."""
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    _source_wav(wavs / "clip.wav", 4)
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    calls = [
        ["extract", str(wavs), "--format", "foa", "--feature", "salsa",
         "--out", str(tmp_path / "salsa")],
        ["extract", str(wavs), "--format", "mic", "--feature", "salsa",
         "--out", str(tmp_path / "mic_salsa")],
        ["extract", str(wavs), "--format", "mic", "--feature", "melspecgcc",
         "--out", str(tmp_path / "gcc")],
        ["stats", str(tmp_path / "salsa"), "--out", str(tmp_path / "stats" / "salsa.ftb"),
         "--apply", str(tmp_path / "norm")],
        ["augment", str(tmp_path / "norm"), "--out", str(tmp_path / "aug"), "--seed", "3",
         "--set", "p_apply=1"],
        ["synth", str(scene), "--out", str(tmp_path / "synth")],
    ]
    for argv in calls:
        assert main(argv) == 0, argv
    return {
        str(p.relative_to(tmp_path)): p.read_text()
        for p in sorted(tmp_path.rglob("*.manifest.txt"))
    }


GOLDEN = {
    'aug/clip.manifest.txt': (
        'kind=feature\n'
        'scale=linear\n'
        'channel_roles=spec,spec,spec,spec,spatial,spatial,spatial\n'
        'channels=7\n'
        'frames=39\n'
        'bands=200\n'
        'feature=salsa\n'
        'format=foa\n'
        'config=fdc65fc9b7df368b\n'
        'sample_rate=24000\n'
        'compress_start_bin=192\n'
        'compress_factor=8\n'
        'seed=3\n'
        'in_band_bins=7449\n'
        'candidates=274\n'
        'selected=274\n'
        'bin_hz=46.875\n'
        'frame_rate=80.0\n'
        'f_low=50.0\n'
        'f_high=9000.0\n'
        'speed_of_sound=343.0\n'
        'normalized=True\n'
        'augmented=True\n'
    ),
    'gcc/clip.manifest.txt': (
        'kind=feature\n'
        'scale=mel\n'
        'channel_roles=spec,spec,spec,spec,gcc,gcc,gcc,gcc,gcc,gcc\n'
        'channels=10\n'
        'frames=39\n'
        'bands=128\n'
        'feature=melspecgcc\n'
        'format=mic\n'
        'config=fdc65fc9b7df368b\n'
        'sample_rate=24000\n'
        'n_mels=128\n'
        'n_lags=128\n'
        'bin_hz=46.875\n'
        'frame_rate=80.0\n'
    ),
    'mic_salsa/clip.manifest.txt': (
        'kind=feature\n'
        'scale=linear\n'
        'channel_roles=spec,spec,spec,spec,spatial,spatial,spatial\n'
        'channels=7\n'
        'frames=39\n'
        'bands=200\n'
        'feature=salsa\n'
        'format=mic\n'
        'config=fdc65fc9b7df368b\n'
        'sample_rate=24000\n'
        'compress_start_bin=192\n'
        'compress_factor=8\n'
        'in_band_bins=3276\n'
        'candidates=105\n'
        'selected=105\n'
        'bin_hz=46.875\n'
        'frame_rate=80.0\n'
        'f_low=50.0\n'
        'f_high=4000.0\n'
        'speed_of_sound=343.0\n'
    ),
    'norm/clip.manifest.txt': (
        'kind=feature\n'
        'scale=linear\n'
        'channel_roles=spec,spec,spec,spec,spatial,spatial,spatial\n'
        'channels=7\n'
        'frames=39\n'
        'bands=200\n'
        'feature=salsa\n'
        'format=foa\n'
        'config=fdc65fc9b7df368b\n'
        'sample_rate=24000\n'
        'compress_start_bin=192\n'
        'compress_factor=8\n'
        'in_band_bins=7449\n'
        'candidates=274\n'
        'selected=274\n'
        'bin_hz=46.875\n'
        'frame_rate=80.0\n'
        'f_low=50.0\n'
        'f_high=9000.0\n'
        'speed_of_sound=343.0\n'
        'normalized=True\n'
    ),
    'salsa/clip.manifest.txt': (
        'kind=feature\n'
        'scale=linear\n'
        'channel_roles=spec,spec,spec,spec,spatial,spatial,spatial\n'
        'channels=7\n'
        'frames=39\n'
        'bands=200\n'
        'feature=salsa\n'
        'format=foa\n'
        'config=fdc65fc9b7df368b\n'
        'sample_rate=24000\n'
        'compress_start_bin=192\n'
        'compress_factor=8\n'
        'in_band_bins=7449\n'
        'candidates=274\n'
        'selected=274\n'
        'bin_hz=46.875\n'
        'frame_rate=80.0\n'
        'f_low=50.0\n'
        'f_high=9000.0\n'
        'speed_of_sound=343.0\n'
    ),
    'stats/salsa.manifest.txt': (
        'kind=stats\n'
        'feature=salsa\n'
        'format=foa\n'
        'channel_roles=spec,spec,spec,spec,spatial,spatial,spatial\n'
        'files=1\n'
        'std_floor=1e-08\n'
    ),
    'synth/scene.manifest.txt': (
        'kind=stft\n'
        'format=mic\n'
        'channels=4\n'
        'frames=47\n'
        'bands=257\n'
        'bin_hz=46.875\n'
        'frame_rate=80.0\n'
        'label_fps=10.0\n'
        'seed=9\n'
        'config=fdc65fc9b7df368b\n'
    ),
}


def test_manifests_match_golden_text(tmp_path, capsys):
    got = _run(tmp_path)
    capsys.readouterr()
    assert sorted(got) == sorted(GOLDEN)
    for name, text in GOLDEN.items():
        assert got[name] == text, name
