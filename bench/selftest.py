"""Self-test for the benchmark: tiny one-pass runs of every workload.

For each workload it checks that

* an untraced and a traced run emit exactly the metrics BENCHMARK.json names;
* two runs with the same seed attempt the same number of operations;
* an operation whose expected result is deliberately wrong counts as one
  more failed operation and makes the run incorrect.

Run from the repository root::

    python3 bench/selftest.py

It prints one line per check and exits 0 when all pass, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 7
TINY = {"slice-pipeline": {"size": 4},
        "elimination": {"members": 6, "gcds": 3},
        "corpus-replay": {}}


def tiny_run(workload: str, trace: bool = False, corrupt: bool = False) -> dict:
    wl, setup_s = run.setup(workload, SEED)
    for attr, value in TINY[workload].items():
        setattr(wl, attr, value)
    wl.op_set = wl.build_ops()
    if corrupt:
        corrupt_expectation(workload, wl.op_set)
    line, _, _ = run.run_benchmark(workload, SEED, 0, trace, max_passes=1, wl=wl,
                                   setup_s=setup_s)
    return line


def corrupt_expectation(workload: str, ops):
    """Make the expected result of one operation wrong."""
    op = ops[0]
    if workload == "slice-pipeline":
        op.expected["triangular-fpf"] = "fail"
    elif workload == "elimination":
        op = next(o for o in ops if o.meta.get("kind") == "gcd")
        op.expected = op.expected * op.expected  # the gcd has the planted factor only once
    else:
        op = next(o for o in ops if o.label == "worked-t-slice")
        op.expected, n = re.subn(r"expect verdict=(\S+)", r"expect verdict=\1-wrong",
                                 op.expected, count=1)
        if n != 1:
            raise SystemExit(f"{op.label} has no verdict expectation to corrupt")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    failures = 0

    def expect(ok: bool, what: str):
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)

    for workload in run.workloads.WORKLOADS:
        first = tiny_run(workload)
        again = tiny_run(workload)
        traced = tiny_run(workload, trace=True)
        wrong = tiny_run(workload, corrupt=True)
        got = set(first["metrics"])
        expect(got == e2e, f"{workload}: untraced metrics {sorted(got ^ e2e) or 'match'}")
        got = set(traced["metrics"])
        expect(got == layer, f"{workload}: traced metrics {sorted(got ^ layer) or 'match'}")
        expect(all(v["value"] > 0 for v in first["metrics"].values()),
               f"{workload}: every end-to-end metric is positive")
        expect(first["attempted"] == again["attempted"] and first["attempted"] > 0,
               f"{workload}: op count repeats ({first['attempted']}, {again['attempted']})")
        expect(first["correct"] and again["correct"] and traced["correct"],
               f"{workload}: clean runs are correct")
        expect(wrong["failed"] == first["failed"] + 1 and not wrong["correct"],
               f"{workload}: a wrong expectation is one failed op "
               f"({first['failed']} -> {wrong['failed']})")
    print("selftest " + ("passed" if not failures else f"failed {failures} checks"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
