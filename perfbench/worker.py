"""Process that runs one workload's operations in a closed loop.

It imports the program from the checkout's ``src``, warms up, prints
``ready`` (the parent times set-up up to that line), then runs whole
rounds over the manifest's operations until the time budget is spent.
Before each operation it times the workload's reference kernel. One
operation is one in-process call of ``dirquant.cli.main``.

    python3 perfbench/worker.py --manifest M --seconds S --trace 0|1 --result R
    python3 perfbench/worker.py --manifest M --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from dirquant import cli  # noqa: E402

import refkernels  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_op(argv: list[str]) -> int:
    """One CLI invocation; any exception or non-zero exit counts as a failure."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) and exc.code else 2
    except Exception as exc:  # a crash is a failed operation, not a dead run
        sys.stderr.write(f"operation crashed: {type(exc).__name__}: {exc}\n")
        return 70


def output_files(op: dict) -> list[str]:
    return [p for p in (op["out"], op["out"] + ".report.json") if os.path.exists(p)]


def digest(op: dict) -> str:
    h = hashlib.sha256()
    for path in output_files(op):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    ops = manifest["ops"]
    with contextlib.redirect_stdout(sys.stderr):
        warm_rc = run_op(manifest["warmup"])
    print("ready", flush=True)
    if args.setup_only:
        return 0 if warm_rc == 0 else 1
    # the benchmark's own kernel is built and warmed after set-up is timed
    kernel = refkernels.KERNELS[manifest["workload"]]()
    kernel()

    tracer = Tracer() if args.trace else None
    ref_s, op_s, traced_s, codes, digests, out_bytes = [], [], [], [], [], 0
    start = time.perf_counter()
    rounds, round_s = 0, 0.0
    # whole rounds only, and none that would end past the time budget
    while rounds == 0 or time.perf_counter() - start + round_s <= args.seconds:
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            rc = run_op(op["argv"])
            t2 = time.perf_counter()
            ref_s.append(t1 - t0)
            op_s.append(t2 - t1)
            codes.append(rc)
            digests.append([i, digest(op) if rc == 0 else None])
            if tracer is not None:
                # the traced twin of the operation, with its own reference time
                t0 = time.perf_counter()
                kernel()
                t1 = time.perf_counter()
                tracer.install()
                try:
                    rc = run_op(op["argv"])
                finally:
                    tracer.uninstall()
                t2 = time.perf_counter()
                ref_s.append(t1 - t0)
                traced_s.append(t2 - t1)
                codes.append(rc)
                digests.append([i, digest(op) if rc == 0 else None])
                out_bytes += sum(os.path.getsize(p) for p in output_files(op))
        rounds += 1
        round_s = time.perf_counter() - round_start
    result = dict(
        rounds=rounds, ref_s=ref_s, op_s=op_s, traced_s=traced_s, codes=codes,
        digests=digests, warmup_rc=warm_rc,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        result["trace"] = dict(inclusive=dict(tracer.inclusive),
                               self_time=dict(tracer.self_time),
                               counts=dict(tracer.counts), output_bytes=out_bytes)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
