"""Joint detection/localization scoring.

Detection error rate and F-score are computed over 1 s segments with
location-sensitive matching; localization error and recall are class-dependent
and computed per label frame. Matching inside each (segment, class) or
(frame, class) cell is the exact minimum-total-angle assignment between the
prediction and reference instances: enumerated for cells of up to 8
instances, solved by the Hungarian method above that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .synth import unit_vector


@dataclass
class MetricsConfig:
    """Matching threshold, segment geometry and convention switches."""

    doa_threshold_deg: float = 20.0
    segment_seconds: float = 1.0
    label_fps: float = 10.0
    convention: str = "2021"  # "2020" or "2021"

    def __post_init__(self):
        if self.convention not in ("2020", "2021"):
            raise ValueError(f"unknown convention {self.convention!r}")
        if self.doa_threshold_deg <= 0:
            raise ValueError("doa_threshold_deg must be positive")

    @property
    def frames_per_segment(self) -> int:
        n = int(round(self.segment_seconds * self.label_fps))
        if n < 1:
            raise ValueError("segment must cover at least one label frame")
        return n


@dataclass
class MetricsReport:
    """Aggregated scores plus the raw counts they were derived from."""

    error_rate: float
    f_score: float
    localization_error_deg: float
    localization_recall: float
    convention: str
    counts: dict = field(default_factory=dict)

    @property
    def aggregate(self) -> float:
        return seld_error(
            self.error_rate,
            self.f_score,
            self.localization_error_deg,
            self.localization_recall,
        )

    def as_dict(self) -> dict:
        return {
            "error_rate": self.error_rate,
            "f_score": self.f_score,
            "localization_error_deg": self.localization_error_deg,
            "localization_recall": self.localization_recall,
            "aggregate": self.aggregate,
            "convention": self.convention,
            **{f"count_{k}": v for k, v in self.counts.items()},
        }


def seld_error(er: float, f: float, le_deg: float, lr: float) -> float:
    """Single-number aggregate: mean of ER, 1-F, LE/180 and 1-LR.

    Ranges are validated; localization error is taken in degrees.
    """
    if er < 0:
        raise ValueError("error rate must be >= 0")
    if not (0.0 <= f <= 1.0 and 0.0 <= lr <= 1.0):
        raise ValueError("F-score and recall must be in [0, 1]")
    if not (0.0 <= le_deg <= 180.0):
        raise ValueError("localization error must be in [0, 180] degrees")
    return 0.25 * (er + (1.0 - f) + le_deg / 180.0 + (1.0 - lr))


def angular_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Great-circle angle between two direction vectors, degrees in [0, 180].

    Uses atan2 of the cross and dot products, which stays accurate where
    arccos loses precision (nearly parallel or anti-parallel vectors).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.linalg.norm(a) > 0 and np.linalg.norm(b) > 0):
        raise ValueError("zero vector has no direction")
    return float(np.degrees(np.arctan2(np.linalg.norm(np.cross(a, b)), a @ b)))


def _min_total_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """Exact assignment of min(n, m) pairs minimizing total cost.

    Enumerates all assignments when the larger side has at most 8 instances,
    the usual handful of simultaneous same-class events; larger cells go to
    scipy's linear_sum_assignment, imported only then because importing
    scipy.optimize costs a third of a second at start-up.
    """
    n, m = cost.shape
    if n == 0 or m == 0:
        return []
    if n > m:
        best = _min_total_assignment(cost.T)
        return [(i, j) for j, i in best]
    if m > 8:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(cost)
        return [(int(i), int(j)) for i, j in zip(rows, cols)]
    best_total, best_cols = None, None
    for cols in itertools.permutations(range(m), n):
        total = sum(cost[i, c] for i, c in enumerate(cols))
        if best_total is None or total < best_total:
            best_total, best_cols = total, cols
    return list(enumerate(best_cols))


def _row_maps(rows, fps_scale: int):
    """Group rows into frame-level and segment-level structures.

    Returns (frame_map, segment_map): frame_map[(frame, class)] is a list of
    direction vectors; segment_map[(segment, class)] maps track id to the list
    of its per-frame vectors within the segment.
    """
    frame_map: dict = {}
    segment_map: dict = {}
    for frame, cls, track, az, el in rows:
        vec = unit_vector(az, el)
        frame_map.setdefault((frame, cls), []).append(vec)
        seg = frame // fps_scale
        segment_map.setdefault((seg, cls), {}).setdefault(track, []).append(vec)
    return frame_map, segment_map


def _segment_instances(segment_map):
    """One representative unit vector per (segment, class, track)."""
    out = {}
    for key, tracks in segment_map.items():
        reps = []
        for track in sorted(tracks):
            mean = np.mean(tracks[track], axis=0)
            norm = np.linalg.norm(mean)
            reps.append(mean / norm if norm > 0 else np.array([1.0, 0.0, 0.0]))
        out[key] = reps
    return out


class _Accumulator:
    """Count accumulator shared by single- and multi-file evaluation."""

    def __init__(self, cfg: MetricsConfig):
        self.cfg = cfg
        self.tp = 0
        self.fp = 0
        self.fn = 0
        self.subs = 0
        self.dels = 0
        self.ins = 0
        self.n_ref = 0
        self.le_sum = 0.0
        self.le_n = 0
        self.recalled = 0
        self.ref_units = 0

    def add(self, pred_rows, ref_rows) -> None:
        cfg = self.cfg
        pred_frames, pred_segs = _row_maps(pred_rows, cfg.frames_per_segment)
        ref_frames, ref_segs = _row_maps(ref_rows, cfg.frames_per_segment)

        # Frame-level class-dependent localization error and recall.
        for key in set(pred_frames) | set(ref_frames):
            p = pred_frames.get(key, [])
            r = ref_frames.get(key, [])
            if p and r:
                cost = np.array([[angular_distance(a, b) for b in r] for a in p])
                pairs = _min_total_assignment(cost)
                self.le_sum += sum(cost[i, j] for i, j in pairs)
                self.le_n += len(pairs)
            if cfg.convention == "2020":
                if r:
                    self.ref_units += 1
                    if p:
                        self.recalled += 1
            else:
                self.ref_units += len(r)
                self.recalled += min(len(p), len(r))

        # Segment-level location-sensitive detection counts.
        pred_inst = _segment_instances(pred_segs)
        ref_inst = _segment_instances(ref_segs)
        segments = {seg for seg, _ in pred_inst} | {seg for seg, _ in ref_inst}
        for seg in segments:
            seg_fp = 0
            seg_fn = 0
            seg_n = 0
            classes = {c for s, c in pred_inst if s == seg} | {
                c for s, c in ref_inst if s == seg
            }
            for cls in classes:
                p = pred_inst.get((seg, cls), [])
                r = ref_inst.get((seg, cls), [])
                seg_n += len(r)
                tp_c = 0
                if p and r:
                    cost = np.array(
                        [[angular_distance(a, b) for b in r] for a in p]
                    )
                    pairs = _min_total_assignment(cost)
                    tp_c = sum(
                        1 for i, j in pairs if cost[i, j] < cfg.doa_threshold_deg
                    )
                self.tp += tp_c
                seg_fp += len(p) - tp_c
                seg_fn += len(r) - tp_c
            s = min(seg_fp, seg_fn)
            self.subs += s
            self.dels += seg_fn - s
            self.ins += seg_fp - s
            self.fp += seg_fp
            self.fn += seg_fn
            self.n_ref += seg_n

    def report(self) -> MetricsReport:
        er = (self.subs + self.dels + self.ins) / max(self.n_ref, 1)
        den = 2 * self.tp + self.fp + self.fn
        f = 2 * self.tp / den if den > 0 else 1.0
        le = self.le_sum / self.le_n if self.le_n > 0 else 180.0
        lr = self.recalled / self.ref_units if self.ref_units > 0 else 1.0
        return MetricsReport(
            error_rate=er,
            f_score=f,
            localization_error_deg=le,
            localization_recall=lr,
            convention=self.cfg.convention,
            counts={
                "tp": self.tp,
                "fp": self.fp,
                "fn": self.fn,
                "substitutions": self.subs,
                "deletions": self.dels,
                "insertions": self.ins,
                "references": self.n_ref,
                "matched_pairs": self.le_n,
            },
        )


def evaluate(pred_rows, ref_rows, cfg: MetricsConfig | None = None) -> MetricsReport:
    """Score one prediction/reference pair of label row lists.

    Rows are (frame, class, track, azimuth_deg, elevation_deg) tuples as read
    from the label CSV format.
    """
    acc = _Accumulator(cfg or MetricsConfig())
    acc.add(pred_rows, ref_rows)
    return acc.report()


def evaluate_many(pairs, cfg: MetricsConfig | None = None) -> MetricsReport:
    """Micro-averaged scores over an iterable of (pred_rows, ref_rows)."""
    acc = _Accumulator(cfg or MetricsConfig())
    n = 0
    for pred_rows, ref_rows in pairs:
        acc.add(pred_rows, ref_rows)
        n += 1
    if n == 0:
        raise ValueError("no file pairs to evaluate")
    return acc.report()
