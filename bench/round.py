"""One round of one workload, in a process of its own.

    python3 bench/round.py --workload NAME --seed N --trace 0|1 --check 0|1 \
        --spawned-at T [--spans PATH]

T is the parent's time.monotonic() just before it started this process, so
set-up time counts interpreter start, ``import dihedra`` and building the
inputs.  Prints one JSON line: set-up time, the wall time of each operation,
a digest of each operation's output, failures, check problems (with
--check 1), peak RSS and, when traced, the per-layer metrics.  run.py starts
this; it is not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import zlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def digest(result) -> str:
    """CRC of an operation's output, fed piece by piece so that a large
    output never becomes one large string.  zlib rather than hashlib, whose
    OpenSSL library alone would add 4 MB to every round's peak RSS."""
    crc = 0

    def feed(x):
        nonlocal crc
        if isinstance(x, (list, tuple)):
            crc = zlib.crc32(b"[", crc)
            for y in x:
                feed(y)
            crc = zlib.crc32(b"]", crc)
        else:
            crc = zlib.crc32(repr(x).encode() + b",", crc)

    feed(result)
    return f"{crc:08x}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    sys.path[:0] = [str(SRC), str(BENCH)]
    import dihedra

    if Path(dihedra.__file__).resolve().parent != SRC / "dihedra":
        print(f"dihedra was imported from {dihedra.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import dihedra.cli  # noqa: F401  (load every module before wrapping)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    # Building the inputs is traced too (as operation -1): it is where
    # jacobian-sweep enumerates its signatures.
    if tracer:
        tracer.active = True
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, ROOT)
    finally:
        if tracer:
            tracer.active = False

    clock = time.perf_counter
    setup_s = time.monotonic() - args.spawned_at
    times, digests, failures, problems = [], [], [], []
    for i, op in enumerate(ops):
        ok = True
        t0 = clock()
        try:
            if tracer:
                tracer.active, tracer.op = True, i
                try:
                    result = tracer.span("op", op.run)
                finally:
                    tracer.active = False
            else:
                result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            ok = False
            result = f"{op.label}: {type(exc).__name__}: {exc}"
            failures.append(result)
        times.append(clock() - t0)
        digests.append(digest(result))
        if ok and args.check:
            try:
                problems += op.check(result)
            except Exception as exc:  # output the check cannot even read
                problems.append(f"{op.label}: check raised {type(exc).__name__}: {exc}")

    if tracer and args.spans:
        tracer.write_spans(args.spans)
    out = {
        "setup_s": setup_s,
        "op_s": times,
        "digests": digests,
        "failures": failures,
        "problems": problems[:20],
        "problem_count": len(problems),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
