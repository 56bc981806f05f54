"""Benchmark entry point for dirquant.

    python3 perfbench/run.py --workload estimate-auto --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, times set-up in a few
fresh processes, runs the operations in a worker process for the given
number of seconds, checks every output apart from the program, and
prints a summary followed by one JSON line. With ``--trace 0`` the JSON
holds the end-to-end metrics (op_ref, setup_s, peak_rss_mib); with
``--trace 1`` it holds the per-layer metrics of a traced run. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed in this many fresh processes (the worker being one).
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# One run must end within 180 s; the worker stops starting rounds after
# --seconds, so this only catches a hung worker.
WORKER_TIMEOUT_S = 150

# BLAS pinned to one thread; the CLI's --workers stays at its default of 1.
# A fixed malloc mmap threshold returns every large array to the system
# when freed: with glibc's default sliding threshold, freed arrays below
# 32 MiB stay in the heap, and the peak resident set then depends on the
# order of allocations and moved by 20% between runs of flag-large.
ENV_PINS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
ENV_PINS["GLIBC_TUNABLES"] = "glibc.malloc.mmap_threshold=131072"



def worker_cmd(manifest: str, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--manifest", manifest, *extra]


def start_worker(cmd: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its set-up time: from process
    start until it reports ready to time the first operation."""
    env = dict(os.environ, **ENV_PINS)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


def op_ref(op_s: list[float], ref_s: list[float], n_inputs: int) -> float:
    """Seconds per operation over seconds per reference kernel.

    Seconds per operation is the mean over distinct inputs of each input's
    mean time, so the mix of inputs a run happens to end on does not move
    it (operations are recorded in round-robin input order). Means, not
    medians: this host's speed flips between two levels about 35% apart
    every second or so, and the median of such a two-level sample jumps
    between them, while the means of interleaved timings keep the same
    mixture in numerator and denominator.
    """
    per_op = statistics.fmean(statistics.fmean(op_s[i::n_inputs]) for i in range(n_inputs))
    return per_op / statistics.fmean(ref_s)


def layer_metrics(res: dict, n_inputs: int) -> dict:
    """Per-layer metrics of a traced run, per traced operation: times in
    s/op, work in count/op (README.md names the end-to-end metric each
    should move)."""
    tr = res["trace"]
    inc, own, cnt = tr["inclusive"], tr["self_time"], tr["counts"]
    raw = {
        "bootstrap.select_k_s": inc.get("bootstrap.select_k", 0.0),
        "bootstrap.resamples": cnt.get("bootstrap.resamples", 0),
        "bootstrap.self_s": own.get("bootstrap", 0.0),
        "evt.profile_calls": cnt.get("evt.log_moment_profiles", 0),
        "evt.profile_s": inc.get("evt.log_moment_profiles", 0.0),
        "evt.fit_tails_s": inc.get("evt.fit_tails", 0.0),
        "parallel.items": cnt.get("parallel.items", 0),
        "stdf.count_calls": cnt.get("stdf.union_exceedance_counts", 0),
        "stdf.cells": cnt.get("stdf.cells", 0),
        "stdf.count_s": inc.get("stdf.union_exceedance_counts", 0.0),
        "quantile.self_s": own.get("quantile", 0.0),
        "quantile.points": cnt.get("quantile.quantile_point", 0),
        "geometry.rotation_for_calls": cnt.get("geometry.rotation_for", 0),
        "geometry.self_s": own.get("geometry", 0.0),
        "tmodel.rho_calls": cnt.get("tmodel.theoretical_rho", 0),
        "tmodel.norm_seq_calls": cnt.get("tmodel.theoretical_norm_sequences", 0),
        "tmodel.t_cdf_calls": cnt.get("tmodel.t_cdf", 0),
        "tmodel.t_cdf_1d_calls": cnt.get("tmodel.t_cdf_1d", 0),
        "tmodel.self_s": own.get("tmodel", 0.0),
        "cli.parse_csv_s": inc.get("cli.parse_csv", 0.0),
        "cli.rows_parsed": cnt.get("cli.rows_parsed", 0),
        "cli.output_bytes": tr["output_bytes"],
        "cli.self_s": own.get("cli", 0.0),
    }
    ops = len(res["traced_s"])
    out = {name: {"value": v / ops, "unit": "s/op" if name.endswith("_s") else "count/op"}
           for name, v in raw.items()}
    overhead = (op_ref(res["traced_s"], res["ref_s"], n_inputs)
                - op_ref(res["op_s"], res["ref_s"], n_inputs))
    out["trace.overhead_ref"] = {"value": overhead, "unit": "ref"}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "dirquant", "cli.py")):
        sys.stderr.write(f"program source not found under {ROOT}/src/dirquant\n")
        return 2

    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, work: str) -> int:
    manifest = workloads.make_inputs(args.workload, args.seed, work)
    mpath = os.path.join(work, "manifest.json")
    result_path = os.path.join(work, "result.json")

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker(worker_cmd(mpath, "--setup-only"))
        finish(proc, SETUP_TIMEOUT_S)
        setups.append(setup)
    proc, setup = start_worker(worker_cmd(
        mpath, "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", result_path))
    setups.append(setup)
    finish(proc, WORKER_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    # Identical inputs must give identical bytes; the first output of each
    # distinct input is then checked in full.
    ops = manifest["ops"]
    failed = sum(1 for rc in res["codes"] if rc != 0)
    errors = [] if res["warmup_rc"] == 0 else [f"warm-up exited {res['warmup_rc']}"]
    for i, op in enumerate(ops):
        seen = {d for j, d in res["digests"] if j == i and d is not None}
        if len(seen) > 1:
            errors.append(f"op {i}: outputs differ between repeats")
    for i, op in enumerate(ops):
        errors += [f"op {i}: {e}" for e in checks.check_output(args.workload, op)]
    for e in errors:
        print("CHECK FAILED", e)

    ref = statistics.fmean(res["ref_s"])
    ratio = op_ref(res["op_s"], res["ref_s"], len(ops))
    replaced = sum(op.get("replaced_draws", 0) for op in ops)
    print(f"workload {args.workload} seed {args.seed}: {len(res['op_s'])} operations "
          f"in {res['rounds']} rounds, {failed} failed; {replaced} input draws replaced")
    print(f"  raw seconds: {ratio * ref:.4f} s per operation, {ref:.4f} s per reference kernel")
    print("  set-up samples (s, the operating worker last): "
          + " ".join(f"{t:.4f}" for t in setups))
    if args.trace:
        metrics = layer_metrics(res, len(ops))
    else:
        metrics = {
            "op_ref": {"value": ratio, "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": len(res["codes"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
