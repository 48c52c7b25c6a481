"""Seeded inputs for the three benchmark workloads.

Each generator writes one workload's inputs under a work directory and
returns a Workload: the `seldkit` argument lists of one round, the seconds of
audio each call carries, and the ground truth the output checks need. The
same seed always gives byte-identical inputs. Output paths in the argument
lists hold the placeholder "{out}", so that an untraced and a traced round
can write to separate trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

SR = 24000
SPEED_OF_SOUND = 343.0
MIC_RADIUS = 0.042
AMBIENT = 1e-3  # per-channel std of the ambient noise, about -60 dBFS
N_CLASSES = 12
LABEL_FPS = 10

FOA_FILES = 4
FOA_SECONDS = 60.0
MIC_SECONDS = 180.0
SCENE_SECONDS = 60.0
SCENES_PER_FORMAT = 2
# Every scene has one 10 s source of each kind listed, so the rendered
# cells and label rows do not depend on the seed.
SOURCE_KINDS = ("noise", "tone", "chirp", "noise", "tone", "chirp")
SOURCE_SECONDS = 10.0
MULTI_FILES = 1
MULTI_SECONDS = 120
MULTI_CLASSES = 2
# With this `augment --seed` the single input file draws a non-identity
# channel swap, a frequency shift and a cutout, so every round does all three
# stages whatever the workload seed.
AUGMENT_SEED = "12"


@dataclass
class Event:
    """One rendered sound event with a static direction."""

    cls: int  # -1 for an unlabelled directional interferer
    onset: float  # seconds
    offset: float
    az: float  # degrees
    el: float
    amp: float  # RMS amplitude
    kind: str  # "noise" (band-limited) or "harmonic"
    f_lo: float = 0.0
    f_hi: float = 0.0
    f0: float = 0.0
    n_harm: int = 0


@dataclass
class Op:
    """One `seldkit` call: its arguments and the audio seconds it carries."""

    name: str
    argv: list[str]
    audio_s: float
    keep_stdout: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    truth: dict = field(default_factory=dict)


def unit(az_deg, el_deg) -> np.ndarray:
    az, el = np.radians(az_deg), np.radians(el_deg)
    return np.stack(
        [np.cos(az) * np.cos(el), np.sin(az) * np.cos(el), np.sin(el)], axis=-1
    )


def tetra_positions() -> np.ndarray:
    """Default capsule layout of the `mic` format: a regular tetrahedron."""
    corners = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    return corners / np.sqrt(3.0) * MIC_RADIUS


def _wrap_deg(az: float) -> float:
    return (az + 180.0) % 360.0 - 180.0


# ---------------------------------------------------------------------------
# time-domain event rendering


def _make_event(rng, onset, offset, cls, amp_db, f_max) -> Event:
    az = round(float(rng.uniform(-180.0, 180.0)), 2)
    el = round(float(rng.uniform(-45.0, 45.0)), 2)
    amp = 10.0 ** (float(rng.uniform(*amp_db)) / 20.0)
    if rng.random() < 0.6:
        f_lo = float(rng.uniform(200.0, 2500.0))
        f_hi = min(f_lo + float(rng.uniform(1500.0, 6000.0)), f_max)
        return Event(cls, onset, offset, az, el, amp, "noise", f_lo=f_lo, f_hi=f_hi)
    f0 = float(rng.uniform(200.0, 800.0))
    return Event(cls, onset, offset, az, el, amp, "harmonic", f0=f0, n_harm=5)


def _place(rng, duration, lead_in, dur_range, gap_range, make) -> list[Event]:
    """Events laid end to end on one layer, with random gaps."""
    events = []
    t = lead_in + float(rng.uniform(0.0, 2.0))
    while True:
        d = float(rng.uniform(*dur_range))
        if t + d > duration - 0.5:
            return events
        events.append(make(round(t, 3), round(t + d, 3)))
        t += d + float(rng.uniform(*gap_range))


def _mono(rng, ev: Event) -> np.ndarray:
    """Event waveform at its RMS amplitude with 20 ms raised-cosine fades."""
    n = int(round(ev.offset * SR)) - int(round(ev.onset * SR))
    if ev.kind == "noise":
        spec = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        f = np.fft.rfftfreq(n, 1.0 / SR)
        spec[(f < ev.f_lo) | (f > ev.f_hi)] = 0.0
        x = np.fft.irfft(spec, n)
    else:
        t = np.arange(n) / SR
        x = np.zeros(n)
        for h in range(1, ev.n_harm + 1):
            x += np.sin(2 * np.pi * h * ev.f0 * t + rng.uniform(0, 2 * np.pi)) / h
    x *= ev.amp / np.sqrt(np.mean(x * x))
    ramp = int(0.02 * SR)
    fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    x[:ramp] *= fade
    x[-ramp:] *= fade[::-1]
    return x


def _write_wav(path: Path, channels: np.ndarray) -> np.ndarray:
    """Write float32 WAV; returns the samples exactly as stored."""
    stored = channels.astype(np.float32)
    wavfile.write(path, SR, stored.T)
    return stored


def render_foa(rng, events: list[Event], duration: float) -> np.ndarray:
    n = int(round(duration * SR))
    out = rng.standard_normal((4, n)) * AMBIENT
    for ev in events:
        a = int(round(ev.onset * SR))
        x = _mono(rng, ev)
        gains = np.concatenate([[1.0], unit(ev.az, ev.el)])
        out[:, a : a + len(x)] += gains[:, None] * x[None, :]
    return out


def render_mic(rng, events: list[Event], duration: float) -> np.ndarray:
    """Far-field plane waves on the tetrahedral array, fractional delays
    applied in the frequency domain over each padded event."""
    n = int(round(duration * SR))
    pos = tetra_positions()
    out = rng.standard_normal((4, n)) * AMBIENT
    pad = 64
    for ev in events:
        a = int(round(ev.onset * SR))
        x = np.concatenate([np.zeros(pad), _mono(rng, ev), np.zeros(pad)])
        spec = np.fft.rfft(x)
        f = np.fft.rfftfreq(len(x), 1.0 / SR)
        delays = (pos[0] - pos) @ unit(ev.az, ev.el) / SPEED_OF_SOUND
        for m, tau in enumerate(delays):
            y = np.fft.irfft(spec * np.exp(-2j * np.pi * f * tau), len(x))
            out[m, a - pad : a - pad + len(x)] += y
    return out


def label_rows(events: list[Event], duration: float) -> list[tuple]:
    """Label rows at 10 fps frame centers, one track per event."""
    rows = []
    centers = (np.arange(int(round(duration * LABEL_FPS))) + 0.5) / LABEL_FPS
    for ev in events:
        for k in np.nonzero((centers >= ev.onset) & (centers < ev.offset))[0]:
            rows.append((int(k), ev.cls, 0, ev.az, ev.el))
    return sorted(rows)


def rows_text(rows) -> str:
    return "".join(f"{f},{c},{t},{az:.6g},{el:.6g}\n" for f, c, t, az, el in rows)


# ---------------------------------------------------------------------------
# workloads


def foa_salsa_dense(work: Path, seed: int) -> Workload:
    """Several 60 s FOA clips: two overlapping target layers, one layer of
    unlabelled directional interferers, ambient noise, 1.5 s noise lead-in."""
    rng = np.random.default_rng([seed, 1])
    inp = work / "foa_wav"
    inp.mkdir(parents=True)
    files = {}
    for i in range(FOA_FILES):
        events = []
        for layer in range(3):
            target = layer < 2
            events += _place(
                rng,
                FOA_SECONDS,
                1.5,
                (1.5, 5.0),
                (0.5, 4.0),
                lambda on, off, target=target: _make_event(
                    rng,
                    on,
                    off,
                    int(rng.integers(N_CLASSES)) if target else -1,
                    (-30.0, -12.0) if target else (-36.0, -24.0),
                    8500.0,
                ),
            )
        stem = f"foa{i}"
        samples = _write_wav(inp / f"{stem}.wav", render_foa(rng, events, FOA_SECONDS))
        files[stem] = {"samples": samples, "events": events}
    # One call per clip, so that the per-call median over rounds can drop a
    # stall in one clip without dropping the whole round.
    ops = [
        Op(
            f"extract-salsa-{stem}",
            ["extract", str(inp / f"{stem}.wav"), "--format", "foa", "--feature",
             "salsa", "--out", "{out}/feat"],
            FOA_SECONDS,
        )
        for stem in files
    ]
    return Workload("foa-salsa-dense", ops, {"files": files})


def mic_long_prep(work: Path, seed: int) -> Workload:
    """One long tetrahedral-MIC clip with sparse, non-overlapping events."""
    rng = np.random.default_rng([seed, 2])
    inp = work / "mic_wav"
    labels = work / "mic_labels"
    inp.mkdir(parents=True)
    labels.mkdir()
    events = _place(
        rng,
        MIC_SECONDS,
        2.0,
        (2.0, 6.0),
        (3.0, 8.0),
        lambda on, off: _make_event(
            rng, on, off, int(rng.integers(N_CLASSES)), (-30.0, -14.0), 10000.0
        ),
    )
    samples = _write_wav(inp / "long.wav", render_mic(rng, events, MIC_SECONDS))
    (labels / "long.csv").write_text(rows_text(label_rows(events, MIC_SECONDS)))
    ops = [
        Op("extract-mic-melspecgcc",
           ["extract", str(inp), "--format", "mic", "--feature", "melspecgcc",
            "--out", "{out}/gcc"], MIC_SECONDS),
        Op("extract-mic-salsa",
           ["extract", str(inp), "--format", "mic", "--feature", "salsa",
            "--out", "{out}/salsa"], MIC_SECONDS),
        Op("stats-gcc",
           ["stats", "{out}/gcc", "--out", "{out}/stats/gcc.ftb",
            "--apply", "{out}/norm_gcc"], MIC_SECONDS),
        Op("stats-salsa",
           ["stats", "{out}/salsa", "--out", "{out}/stats/salsa.ftb",
            "--apply", "{out}/norm_salsa"], MIC_SECONDS),
        Op("augment-gcc",
           ["augment", "{out}/gcc", "--out", "{out}/aug_gcc", "--seed", AUGMENT_SEED,
            "--labels", str(labels)], MIC_SECONDS),
        Op("augment-salsa",
           ["augment", "{out}/salsa", "--out", "{out}/aug_salsa", "--seed",
            AUGMENT_SEED, "--labels", str(labels)], MIC_SECONDS),
    ]
    truth = {"samples": samples, "events": events, "labels": labels / "long.csv"}
    return Workload("mic-long-prep", ops, truth)


def _scene_source(rng, cls: int, kind: str, duration: float) -> dict:
    onset = round(float(rng.uniform(0.0, duration - SOURCE_SECONDS)), 2)
    offset = round(onset + SOURCE_SECONDS, 2)
    if kind == "noise":
        f_lo = round(float(rng.uniform(200, 5000)))
        params = {"f_low": f_lo, "f_high": f_lo + 3000}
    elif kind == "tone":
        params = {"f0": round(float(rng.uniform(150, 900)), 1), "harmonics": 4}
    else:
        params = {"f_start": round(float(rng.uniform(300, 2000))),
                  "f_end": round(float(rng.uniform(2000, 8000)))}
    az0 = round(float(rng.uniform(-180, 180)), 1)
    el0 = round(float(rng.uniform(-40, 40)), 1)
    if rng.random() < 0.5:
        knots = [(0.0, az0, el0)]
    else:
        # Moving source; the azimuth may cross the +-180 seam.
        az1 = round(_wrap_deg(az0 + float(rng.uniform(-120, 120))), 1)
        el1 = round(float(rng.uniform(-40, 40)), 1)
        knots = [(0.0, az0, el0), (duration, az1, el1)]
    return {"class": cls, "onset": onset, "offset": offset,
            "gain": round(float(rng.uniform(0.3, 1.0)), 3), "signal": kind,
            "params": params, "trajectory": knots}


def scene_text(fmt: str, duration: float, seed: int, sources: list[dict]) -> str:
    lines = ["version=1", f"format={fmt}", f"duration={duration:g}",
             f"seed={seed}", "noise_power=0.0001"]
    for s in sources:
        lines += ["[source]", f"class={s['class']}", f"onset={s['onset']:g}",
                  f"offset={s['offset']:g}", f"gain={s['gain']:g}",
                  f"signal={s['signal']}"]
        lines += [f"{k}={v:g}" for k, v in s["params"].items()]
        knots = ", ".join(f"{t:g}:{a:g}:{e:g}" for t, a, e in s["trajectory"])
        lines.append(f"trajectory={knots}")
    return "\n".join(lines) + "\n"


def _multi_instance_rows(rng, n_frames: int) -> list[tuple]:
    """Up to 3 same-class instances per frame at elevation 0, at least 80
    degrees apart, each 5 s long with onsets and offsets on 1 s segment
    boundaries. The seed moves classes and directions, not the row count."""
    rows = []
    n_seg = n_frames // LABEL_FPS
    for cls in rng.choice(N_CLASSES, size=MULTI_CLASSES, replace=False):
        base = float(rng.uniform(-180, 180))
        for slot in range(3):
            for seg in range(slot, n_seg, 7):
                az = round(_wrap_deg(base + 120 * slot + float(rng.uniform(-20, 20))), 2)
                for frame in range(seg * LABEL_FPS, min(seg + 5, n_seg) * LABEL_FPS):
                    rows.append((frame, int(cls), slot, az, 0.0))
    return sorted(rows)


def _shifted(rows, deg: float) -> list[tuple]:
    return [(f, c, t, round(_wrap_deg(az + deg), 2), el) for f, c, t, az, el in rows]


def synth_eval_corpus(work: Path, seed: int) -> Workload:
    """60 s scene files in both formats, rendered by `synth` and scored by
    `eval`, plus long multi-instance label files scored against themselves
    and against azimuth-shifted copies."""
    rng = np.random.default_rng([seed, 3])
    scenes = work / "scenes"
    scenes.mkdir(parents=True)
    truth: dict = {"scenes": {}}
    ops = []
    for fmt in ("foa", "mic"):
        for i in range(SCENES_PER_FORMAT):
            classes = rng.choice(N_CLASSES, size=len(SOURCE_KINDS), replace=False)
            sources = [_scene_source(rng, int(c), kind, SCENE_SECONDS)
                       for c, kind in zip(classes, SOURCE_KINDS)]
            stem = f"{fmt}{i}"
            path = scenes / f"{stem}.txt"
            path.write_text(
                scene_text(fmt, SCENE_SECONDS, int(rng.integers(1 << 30)), sources)
            )
            truth["scenes"][stem] = sources
            ops.append(Op(f"synth-{stem}", ["synth", str(path), "--out", "{out}/synth"],
                          SCENE_SECONDS))
    n_scenes = len(truth["scenes"])
    dirs = {name: work / name for name in ("multi_ref", "multi_shift10", "multi_shift30")}
    for d in dirs.values():
        d.mkdir()
    n_frames = MULTI_SECONDS * LABEL_FPS
    for k in range(MULTI_FILES):
        rows = _multi_instance_rows(rng, n_frames)
        (dirs["multi_ref"] / f"m{k}.csv").write_text(rows_text(rows))
        (dirs["multi_shift10"] / f"m{k}.csv").write_text(rows_text(_shifted(rows, 10.0)))
        (dirs["multi_shift30"] / f"m{k}.csv").write_text(rows_text(_shifted(rows, 30.0)))
    ref = str(dirs["multi_ref"])
    multi_s = MULTI_FILES * MULTI_SECONDS
    for conv in ("2021", "2020"):
        ops.append(Op(f"eval-synth-self-{conv}",
                      ["eval", "--pred", "{out}/synth", "--ref", "{out}/synth",
                       "--metrics", conv], n_scenes * SCENE_SECONDS, True))
        ops.append(Op(f"eval-multi-self-{conv}",
                      ["eval", "--pred", ref, "--ref", ref, "--metrics", conv],
                      multi_s, True))
    for shift in ("10", "30"):
        ops.append(Op(f"eval-multi-shift{shift}-2021",
                      ["eval", "--pred", str(dirs[f"multi_shift{shift}"]), "--ref", ref,
                       "--metrics", "2021"], multi_s, True))
    return Workload("synth-eval-corpus", ops, truth)


GENERATORS = {
    "foa-salsa-dense": foa_salsa_dense,
    "mic-long-prep": mic_long_prep,
    "synth-eval-corpus": synth_eval_corpus,
}
