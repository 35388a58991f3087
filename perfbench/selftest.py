"""Self-test of the output checks: right outputs pass, wrong ones fail.

    python3 perfbench/selftest.py

Computes a table row, a few queries and a few oracle cases with the
same operations the workloads run, confirms that the checks accept
them, then confirms that the checks reject each of these changes:

* a table bound off by one, in either direction;
* a characteristic of the table row with one coefficient changed, at
  n <= 6 (caught by the lattice model) and past the bound (caught by
  the add-a-box step);
* a query answer with one coefficient changed, at n <= 6 and past the
  least proven bound;
* a formula value of oracle-verify with one coefficient changed;
* a braid-arrangement value with one coefficient changed (caught by
  the Stirling dimensions and the regular representation).

Exits with 0 when every case behaves as stated, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys

import worker
from checks import Checker, parse_char


def bump_one_coefficient(text: str) -> str:
    """The same characteristic with its largest key's coefficient + 1."""
    f = parse_char(text)
    key = max(f)
    f[key] += 1
    return " + ".join(f"{c}*s[{','.join(map(str, key))}]" for key, c in sorted(f.items()))


def record(key, output) -> dict:
    return {"key": list(key), "seconds": 0.0, "error": None, "output": worker.render(output)}


def main() -> int:
    checker = Checker()
    outcomes: list[tuple[str, bool]] = []

    def expect(name: str, workload: str, ops: list[dict], rejected: bool) -> None:
        problems = checker.check(workload, ops)
        ok = bool(problems) == rejected
        outcomes.append((name, ok))
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {next(iter(problems.values()))[0]}" if problems else ""))

    # table-ladder: d=2, k=3, i=5 has bound 8 and horizon 10.
    row = [record((3, 5), worker.ladder_op((3, 5)))]
    expect("table row as computed is accepted", "table-ladder", row, rejected=False)
    for delta in (1, -1):
        bad = copy.deepcopy(row)
        report = json.loads(bad[0]["output"])
        report[0]["sharp_bound"] += delta
        bad[0]["output"] = json.dumps(report)
        expect(f"table bound off by {delta:+d} is rejected", "table-ladder", bad, rejected=True)
    for n in (5, 10):
        bad = copy.deepcopy(row)
        report = json.loads(bad[0]["output"])
        report[0]["chars"][str(n)] = bump_one_coefficient(report[0]["chars"][str(n)])
        bad[0]["output"] = json.dumps(report)
        expect(f"table characteristic changed at n={n} is rejected", "table-ladder", bad, rejected=True)

    # char-queries: (n, i, d, k); the least proven bound of i=3, d=2, k=3 is 6.
    keys = [(6, 3, 2, 3), (10, 3, 2, 3), (6, 4, 3, 4)]
    queries = [record(key, worker.query_op(key)) for key in keys]
    expect("query answers as computed are accepted", "char-queries", queries, rejected=False)
    for idx in (0, 1):
        bad = copy.deepcopy(queries)
        bad[idx]["output"] = bump_one_coefficient(bad[idx]["output"])
        expect(f"query answer changed at {keys[idx]} is rejected", "char-queries", bad, rejected=True)

    # oracle-verify: one formula comparison and the braid arrangement at n=4, d=3.
    cases = [("kequal", 2, 3, 5, 3)] + [("base", "[2]", 3, 4, i) for i in range(12)]
    oracle = [record(case, worker.oracle_op(case)) for case in cases]
    expect("oracle values as computed are accepted", "oracle-verify", oracle, rejected=False)
    bad = copy.deepcopy(oracle)
    bad[0]["output"][0] = bump_one_coefficient(bad[0]["output"][0])
    expect("formula value changed is rejected", "oracle-verify", bad, rejected=True)
    bad = copy.deepcopy(oracle)
    braid = next(op for op in bad[1:] if op["output"][0] != "0")
    braid["output"][0] = bump_one_coefficient(braid["output"][0])
    expect("braid-arrangement value changed is rejected", "oracle-verify", bad, rejected=True)

    failed = [name for name, ok in outcomes if not ok]
    print(f"{len(outcomes) - len(failed)} of {len(outcomes)} self-test cases behave")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
