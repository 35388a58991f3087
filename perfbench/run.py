"""The arrstab benchmark: one workload, measured and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: table-ladder, char-queries, oracle-verify (see README.md).
The library is imported from ``src/`` next to this directory.  A run
runs rounds of the workload, each in a fresh worker process, until the
next round would end after ``--seconds``; at least two rounds always
run.  Before every round and after the last it starts a few fresh
interpreters that only import the library (the set-up samples).  Outputs are checked after the rounds.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a summary goes to standard
error.

With ``--trace 1`` every round is traced, and the metrics are the
per-layer figures named in BENCHMARK.json (medians over the rounds),
the tracing overhead among them.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402
from checks import Checker  # noqa: E402

# Set-up samples are taken before every round and after the last, so
# that they spread over the run instead of one stretch of it.
PROBES_PER_GAP = 3
# A table-ladder round takes 14-20 s on a shared 2-vCPU host, so a time
# limit alone would give one round or two in a 40 s run depending on the
# host's speed at the time; every metric is a median of at least two.
MIN_ROUNDS = 2
# Every worker must have ended this long after the run started.
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for another worker")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def slowest_share_mean(ops: list[dict], share: float = 0.01) -> float:
    """Mean latency of the slowest 1% of a round's operations (at least
    one): the slowest row itself on table-ladder's ten rows, and a mean
    over several heavy operations where a single one is too noisy."""
    count = max(1, math.ceil(share * len(ops)))
    return statistics.fmean(sorted(op["seconds"] for op in ops)[-count:])


def end_to_end(rounds: list[dict], setup_samples: list[float]) -> tuple[dict, str]:
    """End-to-end metrics over the untraced rounds, and a summary.

    Per-round figures are combined by their median across rounds; the
    99th percentile pools every round's latencies, so that its tail has
    enough samples.  Failed operations keep their latency.
    """
    latencies, cold_medians = [], []
    for rnd in rounds:
        seen, cold = set(), []
        for op in rnd["ops"]:
            key = tuple(op["key"])
            latencies.append(op["seconds"])
            if key not in seen:
                cold.append(op["seconds"])
                seen.add(key)
        cold_medians.append(statistics.median(cold))
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "row_max_s": (statistics.median(slowest_share_mean(r["ops"]) for r in rounds), "s"),
        "query_p99_ms": (nearest_rank(latencies, 0.99) * 1e3, "ms"),
        "query_cold_p50_ms": (statistics.median(cold_medians) * 1e3, "ms"),
    }
    beyond = len(latencies) - math.ceil(0.99 * len(latencies))
    summary = (
        f"{len(rounds)} round(s); {len(setup_samples)} set-up samples; "
        f"{len(latencies)} operation latencies, {beyond} beyond p99"
    )
    return metrics, summary


def per_layer(traced: list[dict]) -> tuple[dict, str]:
    """Medians over the traced rounds of the per-layer metrics named in
    BENCHMARK.json, the tracing overhead among them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    metrics = {name: (statistics.median(r["layers"][name] for r in traced), unit) for name, unit in names}
    return metrics, f"{len(traced)} traced round(s)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arrstab", "__init__.py")):
        print(f"no arrstab sources under {SRC}", file=sys.stderr)
        return 2

    measure_start = time.monotonic()
    deadline = measure_start + RUN_LIMIT_S
    try:
        setup_samples = []

        def probe() -> None:
            for _ in range(0 if args.trace else PROBES_PER_GAP):
                setup_samples.append(spawn(["--probe"], deadline)["setup_s"])

        rounds = []
        while True:
            round_start = time.monotonic()
            probe()
            rounds.append(spawn(
                ["--workload", args.workload, "--seed", str(args.seed),
                 "--round", str(len(rounds)), "--trace", str(args.trace)],
                deadline,
            ))
            now = time.monotonic()
            took = now - round_start
            if len(rounds) >= MIN_ROUNDS and (now - measure_start + took > args.seconds or now + took > deadline):
                break
        probe()
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    checker = Checker()
    attempted = failed = 0
    problems_seen = []
    for rnd in rounds:
        problems = checker.check(args.workload, rnd["ops"])
        attempted += len(rnd["ops"])
        failed += sum(1 for idx, op in enumerate(rnd["ops"]) if op["error"] is not None or idx in problems)
        for idx, found in problems.items():
            problems_seen.append(f"{rnd['ops'][idx]['key']}: {'; '.join(found)}")
        for op in rnd["ops"]:
            if op["error"] is not None:
                print(f"operation {op['key']} raised {op['error']}", file=sys.stderr)

    if args.trace:
        metrics, summary = per_layer(rounds)
    else:
        setup_samples += [r["setup_s"] for r in rounds]
        metrics, summary = end_to_end(rounds, setup_samples)
    print(f"{args.workload} seed={args.seed}: {summary}", file=sys.stderr)
    for problem in problems_seen[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems_seen,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
