"""Joint detection/localization scoring.

Detection error rate and F-score are computed over 1 s segments with
location-sensitive matching; localization error and recall are class-dependent
and computed per label frame. Matching inside each (segment, class) or
(frame, class) cell is the exact minimum-total-angle assignment between the
prediction and reference instances.

All file pairs are scored from one set of arrays, keyed by pair: the rows
of every pair become unit vectors in one call, a lexsort led by the pair
index makes every cell one contiguous run (predictions first), so no cell or
segment spans two pairs, and segment instances are per-track mean directions
summed with reduceat. The cells of one (predictions, references) shape, from
any pair, get their angle blocks from one batched atan2 and are assigned
together by one enumeration, if a side has one instance or neither has more
than 8; other cells are solved by the Hungarian method. Localization error
sums matched angles with math.fsum and true positives are counted with
bincount, so neither depends on the order of cells or pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .synth import LABEL_FPS, label_table, unit_vector


@dataclass
class MetricsConfig:
    """Matching threshold, segment geometry and convention switches."""

    doa_threshold_deg: float = 20.0
    segment_seconds: float = 1.0
    convention: str = "2021"  # "2020" or "2021"

    def __post_init__(self):
        if self.convention not in ("2020", "2021"):
            raise ValueError(f"unknown convention {self.convention!r}")
        if not 0 < self.doa_threshold_deg < math.inf:
            raise ValueError("doa_threshold_deg must be finite and positive")
        frames = self.segment_seconds * LABEL_FPS
        if not (math.isfinite(frames) and round(frames) >= 1):
            raise ValueError("segment_seconds must be finite and cover at least one label frame")

    @property
    def frames_per_segment(self) -> int:
        return int(round(self.segment_seconds * LABEL_FPS))


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
    if not 0.0 <= er < math.inf:
        raise ValueError("error rate must be finite and >= 0")
    if not (0.0 <= f <= 1.0 and 0.0 <= lr <= 1.0):
        raise ValueError("F-score and recall must be in [0, 1]")
    if not (0.0 <= le_deg <= 180.0):
        raise ValueError("localization error must be in [0, 180] degrees")
    return 0.25 * (er + (1.0 - f) + le_deg / 180.0 + (1.0 - lr))


def _angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great-circle angles in degrees between direction vectors (..., 3)."""
    cross = np.cross(a, b)
    return np.degrees(np.arctan2(np.sqrt((cross * cross).sum(-1)), (a * b).sum(-1)))


_CHUNK = 1 << 18  # elements of one enumeration temporary


def _assign(cost: np.ndarray) -> np.ndarray:
    """Matched costs of the exact minimum-total assignment of each block.

    cost is (N, n, m) with n <= m: N blocks of one shape, n instances on the
    smaller side. Returns (N, n), the costs of the chosen pairs. Blocks with
    n == 1 or m <= 8, the usual handful of simultaneous same-class events,
    enumerate every assignment, summed left to right from the first row,
    and keep the first minimum in itertools.permutations order. Larger
    blocks go to scipy's linear_sum_assignment, imported only then because
    importing scipy.optimize costs a third of a second at start-up.
    """
    n, m = cost.shape[1:]
    if n > 1 and m > 8:
        from scipy.optimize import linear_sum_assignment

        return np.array([block[linear_sum_assignment(block)] for block in cost])
    perms = np.array(list(itertools.permutations(range(m), n)))
    step = max(1, _CHUNK // perms.size)
    out = []
    for lo in range(0, len(cost), step):
        chosen = cost[lo : lo + step][:, np.arange(n), perms]  # (blocks, perms, n)
        total = chosen[..., 0].copy()
        for i in range(1, n):
            total += chosen[..., i]
        out.append(chosen[np.arange(len(total)), total.argmin(1)])
    return np.concatenate(out)


def _starts(*keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal key tuples in sorted key arrays."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(new)


def _match_cells(start: np.ndarray, side: np.ndarray, vec: np.ndarray):
    """Minimum-total-angle matching inside every cell.

    Instances are sorted so that each cell is one run beginning at `start`,
    predictions (side 0) before references (side 1). Returns per-cell
    prediction and reference counts and, for every matched pair, its cell
    and angle, grouped by cell shape.
    """
    n_r = np.add.reduceat(side, start)
    n_p = np.diff(np.append(start, len(side))) - n_r
    shapes, group = np.unique(np.stack([n_p, n_r], 1), axis=0, return_inverse=True)
    members = np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1])
    cells, costs = [np.zeros(0, np.int64)], [np.zeros(0)]
    for (n, m), k in zip(shapes, members):
        if n == 0 or m == 0:
            continue
        pred = vec[start[k, None] + np.arange(n)]
        ref = vec[start[k, None] + n + np.arange(m)]
        cost = _angles(pred[:, :, None], ref[:, None])  # (cells, n, m)
        costs.append(_assign(cost if n <= m else cost.transpose(0, 2, 1)).ravel())
        cells.append(np.repeat(k, min(n, m)))
    return n_p, n_r, np.concatenate(cells), np.concatenate(costs)


def evaluate(pred_rows, ref_rows, cfg: MetricsConfig | None = None) -> MetricsReport:
    """Score one prediction/reference pair of label rows: evaluate_many of the one pair."""
    return evaluate_many([(pred_rows, ref_rows)], cfg)


def evaluate_many(pairs, cfg: MetricsConfig | None = None) -> MetricsReport:
    """Micro-averaged scores over an iterable of (pred_rows, ref_rows).

    Each side is a list of (frame, class, track, azimuth_deg, elevation_deg)
    tuples as read from the label CSV format, or a table label_table built
    of them; label_table checks the first and takes the second as it is.
    Every row of every pair goes into one table, and the pair index leads
    every sort key, so no cell or segment spans two pairs.
    """
    cfg = cfg or MetricsConfig()
    tables = [label_table(rows) for pred, ref in pairs for rows in (pred, ref)]
    if not tables:
        raise ValueError("no file pairs to evaluate")
    sizes = [len(t) for t in tables]
    rows = np.concatenate(tables)
    pair = np.repeat(np.arange(len(tables)) // 2, sizes)
    side = np.repeat(np.arange(len(tables)) % 2, sizes)
    frame, cls, track = rows["frame"], rows["cls"], rows["track"]
    vec = unit_vector(rows["az"], rows["el"])

    # Frame-level class-dependent localization error and recall.
    o = np.lexsort((side, cls, frame, pair))
    n_p, n_r, _, le_cost = _match_cells(_starts(pair[o], frame[o], cls[o]), side[o], vec[o])
    if cfg.convention == "2020":
        ref_units = int(np.count_nonzero(n_r))
        recalled = int(np.count_nonzero(n_r * n_p))
    else:
        ref_units = int(n_r.sum())
        recalled = len(le_cost)

    # Segment-level location-sensitive detection counts: one instance per
    # (pair, segment, class, side, track), its direction the normalized mean.
    seg = frame // cfg.frames_per_segment
    o = np.lexsort((track, side, cls, seg, pair))
    pair, seg, cls, side, track = pair[o], seg[o], cls[o], side[o], track[o]
    inst = _starts(pair, seg, cls, side, track)
    n_rows = np.diff(np.append(inst, len(o)))
    mean = np.add.reduceat(vec[o], inst, axis=0) / n_rows[:, None]
    norm = np.linalg.norm(mean, axis=1)[:, None]
    ok = norm > 0
    reps = np.where(ok, mean / np.where(ok, norm, 1.0), [1.0, 0.0, 0.0])
    pair, seg, cls, side = pair[inst], seg[inst], cls[inst], side[inst]
    cells = _starts(pair, seg, cls)
    n_p, n_r, cell, cost = _match_cells(cells, side, reps)
    tp = np.bincount(cell[cost < cfg.doa_threshold_deg], minlength=len(cells))
    segs = _starts(pair[cells], seg[cells])
    fp = np.add.reduceat(n_p - tp, segs)
    fn = np.add.reduceat(n_r - tp, segs)
    subs = np.minimum(fp, fn)
    le_n = len(le_cost)
    counts = {
        "tp": int(tp.sum()),
        "fp": int(fp.sum()),
        "fn": int(fn.sum()),
        "substitutions": int(subs.sum()),
        "deletions": int((fn - subs).sum()),
        "insertions": int((fp - subs).sum()),
        "references": int(n_r.sum()),
        "matched_pairs": le_n,
    }

    errors = counts["substitutions"] + counts["deletions"] + counts["insertions"]
    den = 2 * counts["tp"] + counts["fp"] + counts["fn"]
    return MetricsReport(
        error_rate=errors / max(counts["references"], 1),
        f_score=2 * counts["tp"] / den if den > 0 else 1.0,
        localization_error_deg=math.fsum(le_cost.tolist()) / le_n if le_n else 180.0,
        localization_recall=recalled / ref_units if ref_units > 0 else 1.0,
        convention=cfg.convention,
        counts=counts,
    )
