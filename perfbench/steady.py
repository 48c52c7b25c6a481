"""Steadiness check: two sets of benchmark runs of the same code.

Usage (from the repository root):

    python3 perfbench/steady.py

For every workload in BENCHMARK.json, runs `perfbench/run.py --trace 0` once
per seed in set A (seeds 1..10) and then in set B (seeds 101..110), and
prints for each end-to-end metric both sets' median, quartiles and
interquartile spread as a share of the median, and whether the sets agree:
set B's median no worse than set A's by more than the bound in
BENCHMARK.json, each spread below a third of its bound, and the same share
of failed operations. It then runs `--trace 1` twice on seed 1 and requires
every traced count to repeat exactly. Raw values go to
perfbench/results/steady-<time>.json. Exits 1 if anything disagrees.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import REPEATED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SET_SEEDS = {"A": 1, "B": 101}
RUNS = 10  # runs per set and workload


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2][2:])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    record: dict = {"run_seconds": seconds, "runs": RUNS, "sets": {}, "trace": {}}
    ok = True

    for set_name, first in SET_SEEDS.items():
        for wl in names:
            for seed in range(first, first + RUNS):
                t0 = time.perf_counter()
                res = run(wl, seed, seconds, 0)
                res["wall_s"] = time.perf_counter() - t0
                record["sets"].setdefault(set_name, {}).setdefault(wl, []).append(res)
                if not res["correct"]:
                    print(f"{wl} seed {seed}: incorrect: {res['info']['problems']}")
                    ok = False

    print(f"| workload | metric | set | median | q1 | q3 | spread | bound | B vs A |")
    print("|---|---|---|---|---|---|---|---|---|")
    for wl in names:
        shares = {s: {r["failed"] / r["attempted"] for r in record["sets"][s][wl]}
                  for s in SET_SEEDS}
        if len(shares["A"] | shares["B"]) != 1:
            print(f"{wl}: failed shares differ: {shares}")
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med = {}
            for s in SET_SEEDS:
                values = [r["metrics"][name]["value"] for r in record["sets"][s][wl]]
                q1, q2, q3 = quartiles(values)
                med[s] = q2
                spread = (q3 - q1) / q2
                steady = spread < bound / 3
                ok &= steady
                worse = (med[s] - med["A"]) / med["A"]
                if metric["better"] == "higher":
                    worse = -worse
                agree = worse <= bound
                ok &= agree
                verdict = "" if s == "A" else f"{worse:+.1%} {'ok' if agree else 'WORSE'}"
                print(f"| {wl} | {name} | {s} | {q2:.4g} | {q1:.4g} | {q3:.4g} | "
                      f"{spread:.1%}{'' if steady else ' (>bound/3)'} | {bound} | {verdict} |")

    for wl in names:
        first, second = (run(wl, 1, seconds, 1) for _ in range(2))
        record["trace"][wl] = [first, second]
        moved = [k for k in REPEATED
                 if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        correct = first["correct"] and second["correct"]
        ok &= correct and not moved
        overhead = [r["metrics"]["trace.overhead_ratio"]["value"] for r in (first, second)]
        print(f"trace {wl}: correct={correct} counts repeat={not moved} {moved or ''} "
              f"overhead={overhead[0]:.3f},{overhead[1]:.3f}")

    out = HERE / "results" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"{'steady' if ok else 'NOT STEADY'}; raw values in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
