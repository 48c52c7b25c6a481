"""Golden digests: the sha256 of every file that tiny seeded runs write.

extract of every (format, kind) pair, synth of noisy and noise-free foa and
mic scenes, stats --apply, augment --labels at two seeds, eval's stdout and
the whole-clip assemble(stft(clip)) of every pair must each give the pinned
digest, at every process count, so any change of an output bit or of label
row order fails here. An intended byte change edits GOLDEN_ASSEMBLE or
GOLDEN_FILES in the same change and says which digests changed and why.

The bits also depend on numpy's pocketfft and on the loaded LAPACK's eigh,
so a failure names numpy's version and the BLAS it was built with: a
toolchain change can then be told from a code change.
"""

import hashlib

import numpy as np

from seldkit import ArrayFormat, AudioClip, StftConfig, assemble, stft
from seldkit import cli
from seldkit.baseline import FORMAT_KINDS
from seldkit.cli import main

import support

# Every (format, kind) pair that extract writes.
PAIRS = [(fmt, kind) for fmt, kinds in FORMAT_KINDS.items() for kind in kinds]

# Scenes of 1 s (79 frames, more than one 64-frame block): two overlapping
# sources of one class over ambient noise, and one moving tone without noise.
OVERLAP = """\
version=1
format={fmt}
duration=1.0
seed=21
noise_power=0.001
[source]
class=3
onset=0.1
offset=0.8
signal=noise
f_low=400
f_high=6000
trajectory=0:30:10, 1:60:0
[source]
class=3
onset=0.4
offset=1.0
signal=chirp
f_start=500
f_end=4000
trajectory=0:-120:-20
"""
QUIET = """\
version=1
format={fmt}
duration=1.0
seed=22
[source]
class=7
onset=0.2
offset=0.9
gain=0.7
signal=tone
f0=440
harmonics=4
trajectory=0:170:5, 1:-170:15
"""


def _clip(fmt_kind, seconds=1.0, rate=24000):
    """Ambient noise, then one directional noise source from 0.3 s.

    foa: a plane wave's W/X/Y/Z gains; mic: integer-sample delays per capsule.
    """
    rng = np.random.default_rng(31 if fmt_kind == "foa" else 32)
    n = int(seconds * rate)
    source = 0.2 * rng.standard_normal(n + 8) * (np.arange(n + 8) >= int(0.3 * rate))
    samples = 0.01 * rng.standard_normal((4, n))
    if fmt_kind == "foa":
        u = np.array([-0.3, 0.8, 0.2]) / np.linalg.norm([-0.3, 0.8, 0.2])
        samples += np.vstack([source[:n], u[:, None] * source[:n]])
    else:
        for m, delay in enumerate((0, 3, 6, 2)):
            samples[m] += source[8 - delay : 8 - delay + n]
    return np.clip(samples, -0.999, 0.999)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(tmp_path, capsys, monkeypatch, extract_ranges, synth_ranges) -> dict[str, str]:
    """Digests of every file the calls write, by path relative to tmp_path,
    and of eval's stdout. extract splits each clip's frames and synth each
    scene's channels between that many processes."""
    for fmt_kind in FORMAT_KINDS:
        wavs = tmp_path / "wav" / fmt_kind
        wavs.mkdir(parents=True)
        # Named after a scene, so that augment finds that scene's labels.
        support.write_wav_blocks(wavs / f"{fmt_kind}_overlap.wav", 24000, 4, [_clip(fmt_kind)])
        monkeypatch.setattr(cli, "_cpus", lambda: extract_ranges)
        for kind in FORMAT_KINDS[fmt_kind]:
            assert main(["extract", str(wavs), "--format", fmt_kind, "--feature", kind,
                         "--out", str(tmp_path / "extract" / fmt_kind / kind)]) == 0
        monkeypatch.setattr(cli, "_cpus", lambda: synth_ranges)
        for name, text in (("overlap", OVERLAP), ("quiet", QUIET)):
            scene = tmp_path / "scenes" / f"{fmt_kind}_{name}.txt"
            scene.parent.mkdir(exist_ok=True)
            scene.write_text(text.format(fmt=fmt_kind))
            assert main(["synth", str(scene), "--out", str(tmp_path / "synth")]) == 0
    assert main(["stats", str(tmp_path / "extract" / "foa" / "salsa"),
                 "--out", str(tmp_path / "stats" / "salsa.ftb"),
                 "--apply", str(tmp_path / "norm")]) == 0
    for seed in ("1", "2"):
        assert main(["augment", str(tmp_path / "norm"), "--out", str(tmp_path / f"aug{seed}"),
                     "--seed", seed, "--set", "p_apply=1",
                     "--labels", str(tmp_path / "synth")]) == 0
    capsys.readouterr()
    assert main(["eval", "--pred", str(tmp_path / "aug1" / "foa_overlap.csv"),
                 "--ref", str(tmp_path / "synth" / "foa_overlap.csv")]) == 0
    got = {"eval.stdout": _digest(capsys.readouterr().out.encode())}
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        name = str(path.relative_to(tmp_path))
        if not name.startswith(("wav/", "scenes/")):
            got[name] = _digest(path.read_bytes())
    return got


def _toolchain() -> str:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no configuration string')})")


def _check(got: dict[str, str], want: dict[str, str]) -> None:
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not changed, (f"digests differ from the pinned ones under {_toolchain()}: "
                         + ", ".join(changed))


def test_whole_clip_assemble_matches_golden_digests():
    got = {}
    for fmt_kind, kind in PAIRS:
        spec = stft(AudioClip(_clip(fmt_kind), 24000), StftConfig())
        feat = assemble(spec, kind, ArrayFormat(fmt_kind))
        got[f"{fmt_kind}/{kind}"] = _digest(feat.data.tobytes())
    _check(got, GOLDEN_ASSEMBLE)


def test_command_outputs_match_golden_digests(tmp_path, monkeypatch, capsys):
    # (extract ranges, synth ranges): one process each, then 2 frame ranges
    # per clip and 3 channel ranges per scene.
    for ranges in ((1, 1), (2, 3)):
        _check(_run(tmp_path / "x".join(map(str, ranges)), capsys, monkeypatch, *ranges),
               GOLDEN_FILES)
    assert support.no_children_left()


# sha256 of assemble(stft(_clip(format)), kind, format).data, by format/kind.
GOLDEN_ASSEMBLE = {
    'foa/linspeciv': '6611375bb88f45256a934de8e3d96bf969bd1377170659b3eed99e9764d086d7',
    'foa/melspeciv': 'dc09cbecb34b625d1503163130a700945c2d1a354cf847c0d4b8d0c13880dcdd',
    'foa/salsa': '3b7e13cac5e5ef87e6ef067e435ea5bb7ad2e4ead4b0c1c6229e07ed2ef940a2',
    'mic/linspecgcc': 'dfdd3c6338fe4367c30628ed87146edfdfabf4659d0285157e747db215265ae8',
    'mic/melspecgcc': 'c5c3c5c648eead3e2eb58d976025f4abfe19688d211ec79e231a0c0d2cd57a59',
    'mic/salsa': 'b7a704b7b2703eb36a23a75d795548c6ba2c7319a811aea539db39abe938b3f1',
}

# sha256 of each file written under _run's directory, and of eval's stdout.
GOLDEN_FILES = {
    'aug1/foa_overlap.csv': '8a3c7e87a6f4f5131f16bdf38ab4268ded956c1f3d2e0bcf9dc91ebdcdecdaff',
    'aug1/foa_overlap.ftb': '6644d37f425fa4cf11201907b7c8756e74abb9830ef80ac0ef6513c592d216aa',
    'aug1/foa_overlap.manifest.txt': 'b6c37cf017c2cca521c10894df1c64785fe35d32d5a1dd2a92140113ff506ba8',
    'aug2/foa_overlap.csv': '867d534b5464279c9e4c31250885c924b905d81c2c170349663f0767b560a6be',
    'aug2/foa_overlap.ftb': '968e72744c5806b1195642a8a1ffdcd8e0dd21bf4feeaa2ff5016056e49edf6f',
    'aug2/foa_overlap.manifest.txt': 'd213903c89ea1229561e0506fd5a33f0dbe26f402c4bcb2b97e217da08d9ee5d',
    'eval.stdout': 'e0bee30a0be4ece6bbb4f0dbf2877690a40ad6ee6b632e316333c28569514e13',
    'extract/foa/linspeciv/foa_overlap.ftb': '67a078e5e9034ee5bdde345a353c510f4641d687e8d7905b55a5ed3f94e61851',
    'extract/foa/linspeciv/foa_overlap.manifest.txt': '8b6e11fefa3fb21ff1cd21b400b7917a3af922a3190c40e74dbf1898185bf956',
    'extract/foa/melspeciv/foa_overlap.ftb': '79322e15804d9dc2b011190ee78b6120f7b178fda1a3cade7ad3deb3edcaa397',
    'extract/foa/melspeciv/foa_overlap.manifest.txt': 'be608faf7390b5c45f06c54eec461345b384fe40414386575e97fe9e65993777',
    'extract/foa/salsa/foa_overlap.ftb': 'b43772fed816ed51601201d5fabe9192dd1d528c206c06e46913ab540aa6e8a0',
    'extract/foa/salsa/foa_overlap.manifest.txt': '51a0565adfbc99339d02ca7ef79dd46309c31885213eb235ddb2f24447db81ff',
    'extract/mic/linspecgcc/mic_overlap.ftb': '853ba175d0aa9aa22fa572cb843ab1dcc2bd1e851450200e6755a18dbf206d6d',
    'extract/mic/linspecgcc/mic_overlap.manifest.txt': '950936608b11f053ccd73664d610c35a7186e9ef5d9ea07b2a0de6fbcefa0e3f',
    'extract/mic/melspecgcc/mic_overlap.ftb': '4c435963b33125e6431c78d4012a775853da3faf06783dfa1c53fd7b1608183a',
    'extract/mic/melspecgcc/mic_overlap.manifest.txt': 'f0a31c43bdb1a9a21816d1b7fecf2d7d186450fdb189260c8eedcfe52718d59a',
    'extract/mic/salsa/mic_overlap.ftb': '7cd6f9ab6732d8bb186f5f594b71a6f43055a863db4b7805196bcc2d27cd2e3d',
    'extract/mic/salsa/mic_overlap.manifest.txt': '4a99dcf7c4c4ccdb4f35bc9b5daf26ded342b4a1c4b16f0ac4c23300ab18eb90',
    'norm/foa_overlap.ftb': 'f79ec770bccd022563e2f1613b103eab6af85626c09bb931e89e2039c4048c85',
    'norm/foa_overlap.manifest.txt': 'bdf66a44e0330df083a3eedd93fa53d4da8aeafb07859b861213c3a7ae5f7539',
    'stats/salsa.ftb': 'afdfd43f0b7e4a3c68d28a4727dc06bbd0a294b3f78e4eaad18f1178b046275b',
    'stats/salsa.manifest.txt': '4ab13a890f639c2b71a8939e06fe4e812bf959bfae39df17d820249868097253',
    'synth/foa_overlap.csv': '15efec86edc266779d0399f49e1539be0f5df78a6fda75af1847a167940158b5',
    'synth/foa_overlap.ftb': 'c1caf0d1665c9a81108f8e0ad987ab7230d7782c6978011ce041c0dd41f1ce24',
    'synth/foa_overlap.manifest.txt': '8dd1fdf05e0da42fdddbbc1da735ad46bdc57426ad7e3a23a0beb8a4f8917c4c',
    'synth/foa_quiet.csv': '969c31bf6f59391fd23ce6aec74609bb5ff01f521e8f4a205b9d369c1ddb261c',
    'synth/foa_quiet.ftb': '9a1b3ac25a47f49aa0013367610516960f6cff0cf11a1c3c21daed9b568f1e00',
    'synth/foa_quiet.manifest.txt': 'c5eaab3b376f351994f3bb6063884228198988ed12e6a36e328f0338c2953cae',
    'synth/mic_overlap.csv': '15efec86edc266779d0399f49e1539be0f5df78a6fda75af1847a167940158b5',
    'synth/mic_overlap.ftb': '7930862b890264a42aec7876a68ae6e4ce3da0504e8410bd305591cc152c762f',
    'synth/mic_overlap.manifest.txt': 'f1964339af858112811eafd8347f1b7de29e5d19b985bdb234cdcb134e763a26',
    'synth/mic_quiet.csv': '969c31bf6f59391fd23ce6aec74609bb5ff01f521e8f4a205b9d369c1ddb261c',
    'synth/mic_quiet.ftb': 'f3c98cfb24cdcb23664cb0ac82bc11296f6d214acf02fdeaa8c2559544d6df93',
    'synth/mic_quiet.manifest.txt': 'f2d1d4921a4fabafc57d8879fc67dda8ec607e127f4da344dbfa89f3cbd8e33a',
}
