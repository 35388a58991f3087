"""One round of a workload, in a fresh interpreter of its own.

    python3 perfbench/worker.py --workload NAME --seed N --round R --trace 0|1
    python3 perfbench/worker.py --probe

The first lines time the import of ``arrstab`` and ``arrstab.cli`` from
``src/`` (the set-up time).  The round's operations then run in this
single process, with no pool; their outputs are rendered after the
timed loop.  One JSON object goes to standard output: set-up time, wall
time of the loop, peak resident size and one record per operation.
``--probe`` stops after the imports.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import arrstab  # noqa: E402
import arrstab.cli  # noqa: E402

SETUP_S = time.perf_counter() - _START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import arrstab.oracle  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


class ExitCodeError(Exception):
    """The CLI returned a non-zero exit code."""


# An operation that raises one of these counts as failed; anything else
# is a fault of the benchmark and ends the round.
OP_ERRORS = (AssertionError, arrstab.oracle.OracleLimitError, ExitCodeError)


def ladder_op(key: tuple[int, int]) -> str:
    """Certify one paper row through the CLI; returns its JSON output."""
    k, i = key
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = arrstab.cli.main(workloads.ladder_argv(k, i))
    if code != 0:
        raise ExitCodeError(f"exit code {code}")
    return out.getvalue()


def query_op(key: tuple[int, int, int, int]):
    return arrstab.kequal_char(*key)


def oracle_op(case: tuple) -> list:
    if case[0] == "kequal":
        _, d, k, n, i = case
        types = [arrstab.Partition((k,)).pad_to(n)]
        return [
            arrstab.kequal_char(n, i, d, k),
            arrstab.oracle.sw_complement_char(n, d, types, i, limit=workloads.ORACLE_N7_EXTRA),
        ]
    _, spec, d, n, i = case
    return [arrstab.lambda_char_smalln(n, d, arrstab.LambdaSet.parse(spec), i)]


# workload -> (inputs from seed and round, one operation)
WORKLOADS = {
    "table-ladder": (lambda seed, round_no: list(workloads.LADDER_ROWS), ladder_op),
    "char-queries": (
        lambda seed, round_no: workloads.query_stream(workloads.query_grid(), seed, round_no),
        query_op,
    ),
    "oracle-verify": (lambda seed, round_no: workloads.oracle_cases(), oracle_op),
}


def run_round(inputs: list, op) -> tuple[list[dict], float]:
    """Run the operations in order; each starts when the previous ended."""
    ops = []
    start = time.perf_counter()
    for key in inputs:
        op_start = time.perf_counter()
        try:
            value, error = op(key), None
        except OP_ERRORS as exc:
            value, error = None, repr(exc)
        seconds = time.perf_counter() - op_start
        ops.append({"key": list(key), "seconds": seconds, "error": error, "output": value})
    return ops, time.perf_counter() - start


def render(output):
    """Symmetric functions to their text form; other values unchanged."""
    if isinstance(output, list):
        return [render(x) for x in output]
    if isinstance(output, arrstab.SymmetricFunction):
        return output.to_text()
    return output


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.path.dirname(os.path.abspath(arrstab.__file__)) != os.path.join(SRC, "arrstab"):
        print(f"arrstab was imported from {arrstab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    make_inputs, op = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, args.round)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    ops, wall_s = run_round(inputs, op)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        layers = tracer.metrics()
        # Tracing overhead: what the wrappers themselves add, estimated
        # from their cost per call rather than from a second, untraced
        # round, whose wall time differs by more than that on a busy host.
        overhead_s = len(tracer.spans) * tracing.wrapper_cost_s()
        layers["tracing.overhead_s"] = overhead_s
        layers["tracing.overhead_pct"] = 100 * overhead_s / (wall_s - overhead_s)
        out_dir = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}-{args.round}.jsonl"))
    for record in ops:
        record["output"] = render(record["output"])
    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
