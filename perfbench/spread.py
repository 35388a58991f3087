"""Remeasure the run-to-run spread that the bounds in BENCHMARK.json rest on.

    python3 perfbench/spread.py

Makes two sets of runs, one after the other.  A set runs the benchmark
ten times on every workload of BENCHMARK.json, with seeds 1..10, one run
at a time, at the run length of BENCHMARK.json.  For every end-to-end
metric of every set it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median; then the shift
of the second set's median from the first's, as a share of the first.
Raw results go to ``perfbench/out/spread-<set>-<workload>.json``.

Exits with 1 if a run fails or reports incorrect output, if the share of
failed operations differs between runs, if a spread exceeds its metric's
bound, or if a median got worse between the sets by more than the bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = (1, 2)


def run_set(bench: dict, set_no: int, out_dir: str) -> dict[str, list[dict]]:
    """Ten runs per workload; returns workload -> results."""
    by_workload = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.monotonic() - start
            if proc.returncode != 0:
                raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            result["elapsed_s"] = elapsed
            results.append(result)
            print(f"set {set_no} {workload} seed {seed} ({elapsed:.1f} s): " + ", ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
        with open(os.path.join(out_dir, f"spread-{set_no}-{workload}.json"), "w") as fh:
            json.dump(results, fh, indent=1)
        by_workload[workload] = results
    return by_workload


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        sets = [run_set(bench, set_no, out_dir) for set_no in SETS]
    except RuntimeError as exc:
        print(exc)
        return 1

    ok = True
    for workload in sets[0]:
        runs = [r for s in sets for r in s[workload]]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        elapsed = [r["elapsed_s"] for r in runs]
        print(f"{workload}: correct in every run: {correct}; failed shares: {sorted(shares)}; "
              f"run took {min(elapsed):.1f}-{max(elapsed):.1f} s")
        for metric in bench["end_to_end"]:
            medians = []
            for set_no, s in zip(SETS, sets):
                values = [r["metrics"][metric["name"]]["value"] for r in s[workload]]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                within = spread <= metric["bound"]
                ok &= within
                medians.append(median)
                print(f"  {metric['name']:18s} set {set_no}: median {median:12.6g} {metric['unit']:5s} "
                      f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.3f}  bound {metric['bound']}"
                      + ("" if within else "  OVER BOUND"))
            shift = (medians[1] - medians[0]) / medians[0]
            worse = shift if metric["better"] == "lower" else -shift
            ok &= worse <= metric["bound"]
            print(f"  {metric['name']:18s} median shift {shift:+.3f}"
                  + ("" if worse <= metric["bound"] else "  WORSE THAN BOUND"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
