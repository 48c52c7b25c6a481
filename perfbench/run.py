"""Benchmark of the `seldkit` CLI paths on seeded, generated workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload foa-salsa-dense --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, times a fresh interpreter's
import of `seldkit.cli` (set-up), runs whole rounds of the workload's CLI
calls in a worker process for the given seconds, checks every output against
independent expectations, and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics: setup_s, audio_x, peak_rss_mb.
--trace 1 reports the per-layer metrics from span-traced rounds and checks
that traced outputs are byte-identical to untraced ones and that the traced
counts repeat exactly from round to round.

The program is imported from `src/` of the checkout; nothing is installed.
BLAS runs on one thread in every process (see BLAS_THREADS).
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_STARTS = 21
SETUP_CODE = "import seldkit.cli as c; c.build_parser()"
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(env) -> float:
    """Median wall time of fresh interpreters importing seldkit.cli.

    No timeout is passed: with one, the wait polls with sleeps of up to
    50 ms and quantizes every start time to that step.
    """
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def trees_identical(a: Path, b: Path) -> bool:
    """Same relative file names and byte-identical contents."""
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return names_a == names_b and all(
        filecmp.cmp(a / n, b / n, shallow=False) for n in names_a
    )


def audio_x(ops, op_seconds: list[list[float]]) -> float:
    """Audio seconds of one round over the round time made of each call's
    median across rounds, so a stall in one call of one round is dropped
    rather than carried by that whole round."""
    median_round = sum(statistics.median(col) for col in zip(*op_seconds))
    return sum(op.audio_s for op in ops) / median_round


def trace_metrics(res: dict) -> tuple[dict, list[str]]:
    """Per-layer medians over traced rounds, with the units BENCHMARK.json
    gives them; counts must repeat exactly."""
    from tracing import REPEATED

    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    rounds = res["layers"]
    problems = [f"traced round {i} counts differ from round 0"
                for i, r in enumerate(rounds[1:], 1)
                if any(r[k] != rounds[0][k] for k in REPEATED)]
    values = {key: rounds[0][key] if key in REPEATED
              else statistics.median(r[key] for r in rounds) for key in rounds[0]}
    values["trace.overhead_ratio"] = (statistics.median(res["traced_s"])
                                      / statistics.median(res["plain_s"]))
    if set(values) != set(units):
        problems.append(f"traced metrics {sorted(set(values) ^ set(units))} "
                        "do not match BENCHMARK.json's per_layer list")
    metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()}
    return metrics, problems


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "seldkit" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'seldkit'} not found; run from a seldkit checkout",
              file=sys.stderr)
        return 2

    import numpy as np

    import checks

    work = HERE / "_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    env = child_env()
    try:
        wl = workloads.GENERATORS[args.workload](work, args.seed)
        setup_s = None if args.trace else measure_setup(env)
        spec = {"ops": [asdict(op) for op in wl.ops], "out": str(work / "out"),
                "seconds": args.seconds, "trace": bool(args.trace)}
        spec_path, result_path = work / "spec.json", work / "result.json"
        spec_path.write_text(json.dumps(spec))
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                        str(result_path)], env=env, cwd=ROOT, check=True,
                       timeout=WORKER_TIMEOUT_S)
        res = json.loads(result_path.read_text())
        problems: list[str] = []
        summary: dict = {}
        try:
            summary = checks.verify(wl, work / "out" / "plain",
                                    np.random.default_rng([args.seed, 99]))
        except Exception as exc:  # any failure to check counts against correctness
            problems.append(f"check: {type(exc).__name__}: {exc}")
        if args.trace:
            metrics, trace_problems = trace_metrics(res)
            problems += trace_problems
            if not trees_identical(work / "out" / "plain", work / "out" / "traced"):
                problems.append("traced outputs differ from untraced outputs")
            shutil.copy(result_path.with_suffix(".spans.jsonl"),
                        results / f"spans-{args.workload}-s{args.seed}.jsonl")
            rounds = len(res["layers"])
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "audio_x": {"value": audio_x(wl.ops, res["op_seconds"]), "unit": "x"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            }
            rounds = len(res["op_seconds"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "blas_threads": int(BLAS_THREADS), "numpy": np.__version__,
            "checked": summary, "problems": problems, "op_errors": res["errors"]}
    print("# " + json.dumps(info))
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
