"""Runs one workload's `seldkit` rounds in a fresh process.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC holds the rounds' argument lists, the seconds to measure, the output
root and whether to trace. Every call goes through `seldkit.cli.main` in this
process. An untraced run repeats whole rounds until the time is used and
reads its peak resident memory right after the last one, before anything
else allocates. A traced run warms up with one round, then alternates
untraced and traced rounds, so the tracing overhead is measured against
neighbouring untraced rounds, and writes its spans next to the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def run_round(main, ops, out: Path) -> tuple[list[float], int, list[str]]:
    """One pass over the ops; returns (seconds per op, failed ops, errors)."""
    failed, errors, times = 0, [], []
    for op in ops:
        argv = [a.replace("{out}", str(out)) for a in op["argv"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            code = main(argv)
            times.append(time.perf_counter() - t0)
        if code != 0:
            failed += 1
            errors.append(f"{op['name']}: exit {code}: {stderr.getvalue().strip()}")
        if op["keep_stdout"]:
            (out / "stdout").mkdir(parents=True, exist_ok=True)
            (out / "stdout" / f"{op['name']}.txt").write_text(stdout.getvalue())
    return times, failed, errors


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result_path = Path(sys.argv[2])
    from seldkit import cli

    ops, out, seconds = spec["ops"], Path(spec["out"]), spec["seconds"]
    rounds, attempted, failed, errors = [], 0, 0, []
    result: dict = {}
    start = time.perf_counter()
    if not spec["trace"]:
        while not rounds or time.perf_counter() - start < seconds:
            times, bad, errs = run_round(cli.main, ops, out / "plain")
            rounds.append(times)
            attempted, failed, errors = attempted + len(ops), failed + bad, errors + errs
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["op_seconds"] = rounds
    else:
        from tracing import Tracer, traced

        # A first untimed round takes the one-off costs of first calls, which
        # would otherwise all land on the first untraced round.
        _, failed, errors = run_round(cli.main, ops, out / "plain")
        attempted = len(ops)
        plain, traced_walls, layers, spans = [], [], [], []
        while len(layers) < 2 or time.perf_counter() - start < seconds:
            times, bad, errs = run_round(cli.main, ops, out / "plain")
            plain.append(sum(times))
            tracer = Tracer()
            with traced(cli, tracer):
                times_t, bad_t, errs_t = run_round(cli.main, ops, out / "traced")
            traced_walls.append(sum(times_t) - tracer.seconds("probe"))
            layers.append(tracer.layers())
            spans.append(tracer.spans)
            attempted += 2 * len(ops)
            failed += bad + bad_t
            errors += errs + errs_t
        result.update(plain_s=plain, traced_s=traced_walls, layers=layers)
        with open(result_path.with_suffix(".spans.jsonl"), "w") as fh:
            for index, round_spans in enumerate(spans):
                for name, s, e, parent in round_spans:
                    fh.write(json.dumps({"round": index, "name": name, "start": s,
                                         "end": e, "parent": parent}) + "\n")
    result.update(attempted=attempted, failed=failed, errors=errors[:5])
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
