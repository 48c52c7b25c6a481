"""Detection/localization scoring against hand-worked cases and an oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seldkit import (
    MetricsConfig,
    evaluate,
    evaluate_many,
    seld_error,
    unit_vector,
)

from seldkit import metrics
from seldkit.synth import csv_label_table, label_table, rows_from_csv, rows_to_csv
from oracles import best_assignment, score_rows


def test_seld_error_published_rows():
    # four-component summaries and their known aggregates
    assert seld_error(0.0, 1.0, 0.0, 1.0) == 0.0
    assert abs(seld_error(0.404, 0.724, 12.5, 0.727) - 0.255611) < 5e-7
    assert abs(seld_error(0.528, 0.601, 15.9, 0.644) - 0.342833) < 1e-6
    assert seld_error(1.0, 0.0, 180.0, 0.0) == 1.0


def test_seld_error_validation():
    with pytest.raises(ValueError):
        seld_error(-0.1, 0.5, 10.0, 0.5)
    with pytest.raises(ValueError):
        seld_error(0.5, 1.2, 10.0, 0.5)
    with pytest.raises(ValueError):
        seld_error(0.5, 0.5, 200.0, 0.5)
    with pytest.raises(ValueError):
        seld_error(0.5, 0.5, 10.0, -0.01)
    for er in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="error rate"):
            seld_error(er, 0.5, 10.0, 0.5)


def test_angular_distance_cardinal_cases():
    # metrics._angles is the scorer's one angle formula.
    x = np.array([1.0, 0.0, 0.0])
    assert metrics._angles(x, x) == 0.0
    assert metrics._angles(x, np.array([0.0, 1.0, 0.0])) == pytest.approx(90.0)
    assert metrics._angles(x, -x) == pytest.approx(180.0)
    # scale invariant
    assert metrics._angles(3.0 * x, np.array([0.0, 0.0, 0.2])) == pytest.approx(90.0)


def test_angular_distance_is_exact_for_duplicates():
    # arccos-based formulas drift to ~1e-7 degrees here; this must be exact
    for az, el in [(13.7, -42.1), (179.0, 5.0), (-91.3, 60.0)]:
        v = unit_vector(az, el)
        assert metrics._angles(v, v.copy()) == 0.0


def _rows(*rows):
    return [tuple(r) for r in rows]


def test_perfect_match_scores_zero():
    ref = _rows((0, 1, 0, 30.0, 10.0), (1, 1, 0, 32.0, 10.0), (5, 4, 0, -60.0, 0.0))
    rep = evaluate(ref, ref)
    assert rep.error_rate == 0.0
    assert rep.f_score == 1.0
    assert rep.localization_error_deg == 0.0
    assert rep.localization_recall == 1.0
    assert rep.aggregate == 0.0
    # frames 0 and 1 share segment 0, so class 1 is one instance there
    assert rep.counts["tp"] == 2


def test_insertion_and_deletion_counts():
    ref = _rows((0, 1, 0, 30.0, 10.0))
    extra = _rows((0, 1, 0, 30.0, 10.0), (0, 2, 0, 0.0, 0.0))
    rep = evaluate(extra, ref)
    assert rep.counts == dict(
        tp=1, fp=1, fn=0, substitutions=0, deletions=0, insertions=1,
        references=1, matched_pairs=1,
    )
    assert rep.error_rate == 1.0  # 1 insertion / 1 reference
    rep = evaluate(_rows(), ref)
    assert rep.counts["deletions"] == 1
    assert rep.f_score == 0.0
    assert rep.localization_error_deg == 180.0  # nothing matched
    assert rep.localization_recall == 0.0


def test_wrong_class_is_a_substitution():
    ref = _rows((0, 1, 0, 30.0, 10.0))
    pred = _rows((0, 2, 0, 30.0, 10.0))
    rep = evaluate(pred, ref)
    c = rep.counts
    assert (c["substitutions"], c["deletions"], c["insertions"]) == (1, 0, 0)
    assert rep.error_rate == 1.0


def test_doa_threshold_splits_tp_from_substitution():
    ref = _rows((0, 3, 0, 0.0, 0.0))
    near = _rows((0, 3, 0, 15.0, 0.0))
    far = _rows((0, 3, 0, 25.0, 0.0))
    rep = evaluate(near, ref)
    assert rep.counts["tp"] == 1
    assert rep.localization_error_deg == pytest.approx(15.0)
    rep = evaluate(far, ref)
    assert rep.counts["tp"] == 0
    assert rep.counts["substitutions"] == 1
    # class matched, so the frame pair still contributes to LE and recall
    assert rep.localization_error_deg == pytest.approx(25.0)
    assert rep.localization_recall == 1.0
    wide = MetricsConfig(doa_threshold_deg=30.0)
    assert evaluate(far, ref, wide).counts["tp"] == 1


def test_recall_conventions_differ_on_polyphony():
    # two same-class instances, prediction finds one of them
    ref = _rows((0, 6, 0, 40.0, 0.0), (0, 6, 1, -40.0, 0.0))
    pred = _rows((0, 6, 0, 40.0, 0.0))
    lr_new = evaluate(pred, ref, MetricsConfig(convention="2021"))
    lr_old = evaluate(pred, ref, MetricsConfig(convention="2020"))
    assert lr_new.localization_recall == pytest.approx(0.5)
    assert lr_old.localization_recall == pytest.approx(1.0)


def test_evaluate_many_micro_averages_counts():
    a_ref = _rows((0, 1, 0, 10.0, 0.0))
    a_pred = _rows((0, 1, 0, 12.0, 0.0))
    b_ref = _rows((0, 2, 0, -50.0, 20.0), (10, 2, 0, -50.0, 20.0))
    b_pred = _rows((0, 2, 0, 100.0, 20.0))
    combined = evaluate_many([(a_pred, a_ref), (b_pred, b_ref)])
    ra = evaluate(a_pred, a_ref)
    rb = evaluate(b_pred, b_ref)
    for key in ("tp", "fp", "fn", "references", "matched_pairs"):
        assert combined.counts[key] == ra.counts[key] + rb.counts[key]
    with pytest.raises(ValueError, match="no file pairs"):
        evaluate_many([])


def test_metrics_config_validation():
    with pytest.raises(ValueError, match="convention"):
        MetricsConfig(convention="2019")
    # A nan threshold once scored a perfect prediction as F = 0, and an
    # infinite segment raised OverflowError.
    for bad in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="doa_threshold_deg"):
            MetricsConfig(doa_threshold_deg=bad)
    for bad in (0.01, 0.0, float("nan"), float("inf"), -float("inf"), 1e308):
        with pytest.raises(ValueError, match="segment_seconds"):
            MetricsConfig(segment_seconds=bad)
    assert MetricsConfig().frames_per_segment == 10


def _random_case(rng):
    ref, pred = [], []
    used = set()
    for _ in range(rng.integers(1, 12)):
        key = (int(rng.integers(0, 25)), int(rng.integers(0, 5)), int(rng.integers(0, 2)))
        if key in used:
            continue
        used.add(key)
        az = float(rng.uniform(-180.0, 180.0))
        el = float(rng.uniform(-75.0, 75.0))
        ref.append((*key, az, el))
        roll = rng.uniform()
        if roll < 0.55:  # detected, possibly off in angle
            step = float(rng.uniform(0.0, 40.0))
            pred.append((*key, az + step * rng.choice([-1.0, 1.0]), el))
        elif roll < 0.7:  # detected as the wrong class
            pred.append((key[0], int(rng.integers(0, 5)), key[2], az, el))
    for _ in range(rng.integers(0, 4)):  # spurious extras
        pred.append(
            (int(rng.integers(0, 25)), int(rng.integers(0, 5)), 0,
             float(rng.uniform(-180.0, 180.0)), float(rng.uniform(-75.0, 75.0)))
        )
    return pred, ref


def test_matches_independent_scorer_on_random_cases():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        pred, ref = _random_case(rng)
        rep = evaluate(pred, ref)
        want = score_rows(pred, ref)
        assert rep.counts["tp"] == want["tp"]
        assert rep.counts["fp"] == want["fp"]
        assert rep.counts["fn"] == want["fn"]
        assert rep.error_rate == pytest.approx(want["error_rate"], abs=1e-12)
        assert rep.f_score == pytest.approx(want["f_score"], abs=1e-12)
        assert rep.localization_error_deg == pytest.approx(
            want["localization_error_deg"], abs=1e-9
        )
        assert rep.localization_recall == pytest.approx(
            want["localization_recall"], abs=1e-12
        )


def _multi_instance_case(rng, n_frames=30, n_classes=3):
    """1-5 same-class instances per side in a cell; tracks span frames."""
    pred, ref = [], []
    for frame in range(n_frames):
        for cls in range(n_classes):
            if rng.uniform() < 0.4:
                continue
            tracks = rng.permutation(5)
            n_ref = int(rng.integers(0, 6))
            n_pred = 0
            for track in tracks[:n_ref]:
                az, el = float(rng.uniform(-180, 180)), float(rng.uniform(-75, 75))
                ref.append((frame, cls, int(track), az, el))
                if rng.uniform() < 0.6:  # detected, off by up to 30 degrees
                    n_pred += 1
                    step = float(rng.uniform(-30.0, 30.0))
                    pred.append((frame, cls, int(track), az + step, el))
            for track in tracks[n_ref:][: int(rng.integers(0, 3))]:  # spurious
                n_pred += 1
                pred.append((frame, cls, int(track), float(rng.uniform(-180, 180)),
                             float(rng.uniform(-75, 75))))
            if n_pred == 0 and n_ref == 0:
                ref.append((frame, cls, 0, 0.0, 0.0))
    rng.shuffle(pred)
    rng.shuffle(ref)
    return [tuple(r) for r in pred], [tuple(r) for r in ref]


def _crowded_cell(rng, n_pred, n_ref, frame=4, cls=1):
    """One (frame, class) cell of n_pred predictions and n_ref references."""
    ref = [(frame, cls, k, float(rng.uniform(-180, 180)), float(rng.uniform(-60, 60)))
           for k in range(n_ref)]
    pred = [(frame, cls, k, float(rng.uniform(-180, 180)), float(rng.uniform(-60, 60)))
            for k in range(n_pred)]
    return pred, ref


@pytest.mark.parametrize("convention", ["2021", "2020"])
def test_multi_instance_files_match_independent_scorer(convention):
    rng = np.random.default_rng(77)
    cfg = MetricsConfig(convention=convention)
    inputs = []
    for _ in range(6):
        files = [_multi_instance_case(rng) for _ in range(3)]
        files.append(([], _multi_instance_case(rng)[1]))  # empty prediction file
        files.append((_multi_instance_case(rng)[0], []))  # empty reference file
        inputs.append(files)
    # Two pairs, each with a cell of 12 instances at the same (frame, class),
    # 3 predictions and 9 references: one Hungarian batch of _assign holds
    # the cells of both pairs.
    inputs.append([_crowded_cell(rng, 3, 9), _crowded_cell(rng, 3, 9)])
    for files in inputs:
        rep = evaluate_many(files, cfg)
        wants = [score_rows(p, r, convention=convention) for p, r in files]
        total = {k: sum(w[k] for w in wants) for k in wants[0]}
        for key in ("tp", "fp", "fn", "substitutions", "deletions", "insertions",
                    "references", "matched_pairs"):
            assert rep.counts[key] == total[key], key
        assert max(len(p) for p, _ in files) > 0 and total["matched_pairs"] > 0
        assert rep.localization_error_deg == pytest.approx(
            total["le_sum"] / total["matched_pairs"], abs=1e-9
        )
        assert rep.localization_recall == total["recalled"] / total["ref_units"]


def test_frame_indices_beyond_float64_precision_stay_distinct():
    # 2**53 + 1 rounds to 2**53 in float64: the two rows once scored as a
    # perfect match. With one frame per segment they are a miss and a
    # false alarm.
    ref = [(2**53, 1, 0, 30.0, 10.0)]
    pred = [(2**53 + 1, 1, 0, 30.0, 10.0)]
    rep = evaluate(pred, ref, MetricsConfig(segment_seconds=0.1))
    assert (rep.counts["tp"], rep.counts["fp"], rep.counts["fn"]) == (0, 1, 1)
    assert rep.counts["matched_pairs"] == 0 and rep.aggregate > 0
    assert evaluate(ref, ref, MetricsConfig(segment_seconds=0.1)).aggregate == 0.0


@pytest.mark.parametrize("bad", [
    (2**63, 1, 0, 30.0, 10.0), (3.7, 1, 0, 30.0, 10.0), (3.0, 1, 0, 30.0, 10.0),
    (3, -1, 0, 30.0, 10.0), (3, 1, 2**64 + 1, 30.0, 10.0), (3, 1, "0", 30.0, 10.0),
    (3, 1, 0, float("nan"), 10.0), (3, 1, 0, 30.0, float("inf")),
])
def test_evaluate_refuses_rows_the_label_csv_would(bad):
    # A frame of 2**63 once raised OverflowError, and one of 3.7 was cut to 3
    # and scored as a perfect match. label_table, which rows_from_csv uses
    # too, names the first bad row of the file.
    ref = [(3, 1, 0, 30.0, 10.0)]
    with pytest.raises(ValueError, match="label row 0"):
        evaluate([bad], ref)
    with pytest.raises(ValueError, match="label row 1"):
        evaluate_many([(ref, ref), (ref, ref + [bad])])
    with pytest.raises(ValueError, match="5 fields"):
        evaluate([bad[:4]], ref)
    # Integers of any numpy type within range are taken as they are.
    rows = [(np.int64(3), np.uint8(1), np.int16(0), np.float32(30.0), 10)]
    assert evaluate(rows, ref).aggregate == pytest.approx(0.0, abs=1e-6)


def test_evaluate_takes_a_label_table_as_it_is():
    # eval builds each file's table once, in csv_label_table, and scores it
    # as evaluate scores the same file's rows.
    rng = np.random.default_rng(4)
    ref = [(int(f), int(c), 0, float(az), float(el)) for f, c, az, el in zip(
        rng.integers(0, 50, 40), rng.integers(0, 3, 40),
        rng.uniform(-180, 180, 40), rng.uniform(-45, 45, 40))]
    pred = [(f, c, t, az + 7.0, el) for f, c, t, az, el in ref]
    tables = [csv_label_table(rows_to_csv(rows)) for rows in (pred, ref)]
    assert all(label_table(t) is t for t in tables)
    want = evaluate(*(rows_from_csv(rows_to_csv(rows)) for rows in (pred, ref)))
    assert evaluate_many([tables]).as_dict() == want.as_dict()
    assert 0 < want.counts["matched_pairs"]


def test_report_dict_round_trip():
    ref = _rows((0, 1, 0, 30.0, 10.0))
    d = evaluate(ref, ref).as_dict()
    assert d["aggregate"] == 0.0
    assert d["convention"] == "2021"
    assert d["count_tp"] == 1


def _tied_cells(rng, shapes):
    """One cell per (n, m) shape, laid out as _match_cells takes them: n
    predictions then m references, directions from a 4 x 3 grid so that many
    assignments tie."""
    sizes = [n + m for n, m in shapes]
    start = np.cumsum([0] + sizes[:-1])
    side = np.concatenate([np.repeat([0, 1], shape) for shape in shapes])
    vec = unit_vector(rng.choice([0.0, 10.0, 20.0, 45.0], len(side)),
                      rng.choice([0.0, 10.5, -30.0], len(side)))
    return start, side, vec


def _check_against_oracle(start, side, vec, shapes):
    # The oracle enumerates on the same angle blocks, so ties break alike
    # and every matched angle must be equal, not close.
    _, _, cell, cost = metrics._match_cells(start, side, vec)
    for k, (n, m) in enumerate(shapes):
        pred, ref = vec[start[k] : start[k] + n], vec[start[k] + n : start[k] + n + m]
        block = metrics._angles(pred[:, None], ref[None])
        want = sorted(block[i, j] for i, j in best_assignment(block.tolist()))
        assert sorted(cost[cell == k].tolist()) == want, (n, m)


def test_assignment_matches_exhaustive_oracle_on_tied_cells():
    rng = np.random.default_rng(13)
    shapes = [(n, m) for n in range(1, 9) for m in range(1, 9)] + [(0, 3), (2, 0), (2, 3)]
    _check_against_oracle(*_tied_cells(rng, shapes), shapes)


def test_assignment_of_many_cells_of_one_shape_spans_chunks():
    rng = np.random.default_rng(14)
    shapes = [(6, 5)] * 300
    assert 300 * 720 * 5 > 4 * metrics._CHUNK  # 6P5 assignments of 5 pairs per cell
    _check_against_oracle(*_tied_cells(rng, shapes), shapes)


def test_cell_above_eight_instances_matches_oracle():
    # 3 predictions x 12 references in one cell: solved by the Hungarian method.
    rng = np.random.default_rng(15)
    ref = [(0, 2, k, float(rng.uniform(-180, 180)), float(rng.uniform(-60, 60)))
           for k in range(12)]
    pred = [(0, 2, k, az + 7.0, el) for _, _, k, az, el in ref[:3]]
    rep = evaluate(pred, ref)
    want = score_rows(pred, ref)
    assert rep.counts["matched_pairs"] == want["matched_pairs"] == 3
    assert rep.localization_error_deg == pytest.approx(want["localization_error_deg"], abs=1e-9)
    assert rep.counts["tp"] == want["tp"]


def test_scipy_optimize_loads_only_for_cells_above_eight_on_both_sides():
    src = str(Path(metrics.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = """
import sys
from seldkit import evaluate
def cell(n, az=0.0):
    return [(0, 1, k, az + 20.0 * k, 0.0) for k in range(n)]
for n, m in [(1, 12), (12, 1), (8, 8), (5, 8), (8, 2)]:
    evaluate(cell(n, 3.0), cell(m))
print("scipy.optimize" in sys.modules)
evaluate(cell(3, 3.0), cell(12))
print("scipy.optimize" in sys.modules)
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "True"]
