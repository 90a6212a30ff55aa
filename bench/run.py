"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload until S seconds have passed.  Each round
is a fresh process (bench/round.py), single-threaded, so every round starts
with cold library caches, as a user's process does.  All rounds of a run use
the inputs built from the same seed, and every round times at least 100
operations.  The first round checks every output; the later ones check that
each output is identical to the first round's (by digest), which keeps the
costly checks from crowding out rounds.

With --trace 0 the last line of stdout is the end-to-end result:

    setup_s      first round: process start to the first timed operation
    run_s        sum over the operations of their wall times
    op_p50_ms    median operation wall time
    op_p90_ms    90th percentile (nearest rank) of the operation wall times;
                 a round has at least 100 operations, so at least ten lie
                 beyond it
    peak_rss_mb  largest ru_maxrss of any round process

The wall time of an operation is the fastest of its repeats, one per round.
The machine is shared: a neighbour's load only ever adds time, comes in
bursts of seconds, and moved single rounds by up to 30% while this was
written, so the fastest repeat is the steadiest estimate of what the
operation costs.

With --trace 1 untraced and traced rounds alternate; the result holds the
per-layer metrics (median over traced rounds) and trace.overhead_s, run_s of
the traced rounds minus run_s of the untraced ones.  Spans of the last
traced round are written to bench/traces/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("jacobian-sweep", "oracle-census", "kdec-classify", "cli-calls")
DEADLINE_S = 170  # the whole run, rounds included, must end well inside 180 s
REQUIRED = (ROOT / "src" / "dihedra" / "__init__.py",
            ROOT / "tests" / "golden" / "transcribe.py")


class RoundFailed(Exception):
    pass


def run_round(workload: str, seed: int, trace: int, check: int, deadline: float,
              spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--check", str(check)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RoundFailed("round did not finish inside the deadline") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(rounds: list[dict]) -> tuple[bool, int, int]:
    """rounds[0] is the fully checked round."""
    failures = sorted({f for r in rounds for f in r["failures"]})
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    for line in rounds[0]["problems"]:
        print(f"WRONG: {line}", file=sys.stderr)
    correct = rounds[0]["problem_count"] == 0
    for k, r in enumerate(rounds[1:], start=1):
        changed = [i for i, (a, b) in enumerate(zip(rounds[0]["digests"], r["digests"]))
                   if a != b]
        if changed or len(r["digests"]) != len(rounds[0]["digests"]):
            print(f"WRONG: round {k} gave other outputs than round 0 "
                  f"for operations {changed[:10]}", file=sys.stderr)
            correct = False
    attempted = sum(len(r["op_s"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    return correct, attempted, failed


def op_times(rounds: list[dict]) -> list[float]:
    """Each operation's fastest repeat; every round runs the same
    operations in the same order."""
    return [min(repeats) for repeats in zip(*(r["op_s"] for r in rounds))]


def end_to_end(rounds: list[dict]) -> dict:
    ops = op_times(rounds)
    return {
        "setup_s": (rounds[0]["setup_s"], "s"),
        "run_s": (sum(ops), "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_p90_ms": (percentile(ops, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    from tracing import LAYER_METRICS

    out = {
        name: (statistics.median(r["layers"][name] for r in traced), unit)
        for name, unit in LAYER_METRICS
    }
    overhead = sum(op_times(traced)) - sum(op_times(plain))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"not a dihedra checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    spans = BENCH / "traces" / f"{args.workload}.seed{args.seed}.spans.jsonl"
    try:
        while True:
            first = not plain  # only the first round runs the full checks
            plain.append(run_round(args.workload, args.seed, 0, int(first), deadline))
            if args.trace:
                traced.append(run_round(args.workload, args.seed, 1, 0, deadline, spans))
            elapsed = time.monotonic() - start
            if elapsed >= args.seconds or elapsed * (1 + 1 / len(plain)) > DEADLINE_S:
                break
    except RoundFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    correct, attempted, failed = summarize(plain + traced)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
