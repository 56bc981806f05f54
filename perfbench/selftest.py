"""Self-test of the output checks: real outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Runs the first operation of each workload once (seed 0), requires its
output to pass the checks, then requires each deliberately corrupted
copy to be rejected: one rho off by 1/k, one b_j perturbed in the ninth
significant digit, one flipped ``flagged``. Exits 1 if any expectation
fails.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from dirquant import cli  # noqa: E402


def ninth_digit(v: float) -> float:
    """v with one added to its ninth significant digit."""
    return v + 10.0 ** (math.floor(math.log10(abs(v))) - 8)


def rho_off(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    doc["points"][len(doc["points"]) // 2]["rho"] += 1.0 / doc["k"]
    return doc


def b_perturbed(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    doc["fit"]["b"][1] = ninth_digit(doc["fit"]["b"][1])
    return doc


def flag_flipped(text: str) -> str:
    lines = text.splitlines()
    i = 1 + len(lines) // 2
    row, az, fl = lines[i].split(",")
    lines[i] = ",".join([row, az, "false" if fl == "true" else "true"])
    return "\n".join(lines) + "\n"


def main() -> int:
    work = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")
    try:
        failures = run_checks(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if failures == 0 else f"failed ({failures})")
    return 1 if failures else 0


def run_checks(work: str) -> int:
    failures = 0

    def expect(label: str, errors: list[str], reject: bool) -> None:
        nonlocal failures
        ok = bool(errors) == reject
        failures += not ok
        verdict = "rejected" if errors else "accepted"
        print(f"{'PASS' if ok else 'FAIL'} {label}: {verdict}"
              + (f" ({errors[0]})" if errors else ""))

    for workload in workloads.WORKLOADS:
        op = workloads.make_inputs(workload, 0, os.path.join(work, workload))["ops"][0]
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(list(op["argv"]))
        if rc != 0:
            print(f"FAIL {workload}: operation exited {rc}")
            failures += 1
            continue
        with open(op["out"], encoding="utf-8") as fh:
            text = fh.read()
        expect(f"{workload} real output", checks.check_output(workload, op), False)
        if workload == "flag-large":
            expect(f"{workload} one flagged flipped",
                   checks.check_flag(op, flag_flipped(text)), True)
            continue
        doc = json.loads(text)
        if workload == "estimate-auto":
            with open(op["out"] + ".report.json", encoding="utf-8") as fh:
                report = json.load(fh)
            check = lambda d: checks.check_estimate(op, d, report)  # noqa: E731
        else:
            check = lambda d: checks.check_oracle(op, d)  # noqa: E731
        expect(f"{workload} rho off by 1/k", check(rho_off(doc)), True)
        expect(f"{workload} b_j perturbed in the ninth digit", check(b_perturbed(doc)), True)
    return failures


if __name__ == "__main__":
    sys.exit(main())
