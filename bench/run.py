"""lndkit benchmark: verified verdicts per second, end to end and per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload slice-pipeline --seed 1 --seconds 30 --trace 0

Each workload runs in this one process and thread as a closed loop with one
client: the next operation starts only after the previous one has returned
and its output has been checked (the check is outside the timed region).
Operations come in fixed-size passes built from ``--seed``; passes run until
``--seconds`` have elapsed, and a started pass always finishes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and the full result, with the
environment, are written under ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
MIN_SAMPLES = 100  # at least ten samples beyond p90

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


class BenchError(Exception):
    pass


# -- set-up --------------------------------------------------------------------


def _fresh_import():
    for name in [n for n in sys.modules if n == "lndkit" or n.startswith("lndkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lndkit = importlib.import_module("lndkit")
    importlib.import_module("lndkit.harness")
    if Path(lndkit.__file__).resolve().parent != (SRC / "lndkit").resolve():
        raise BenchError(f"imported lndkit from {lndkit.__file__}, not from {SRC}")
    return lndkit


def setup(workload: str, seed: int):
    """Import lndkit and build the workload's op set, SETUP_REPEATS times.

    Returns the last workload and the median set-up time.  The first import
    may compile bytecode; the median keeps that out.
    """
    if not (SRC / "lndkit" / "__init__.py").is_file():
        raise BenchError(f"no lndkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _fresh_import()
        wl = workloads.WORKLOADS[workload](seed)
        ops = wl.build_ops()
        times.append(time.perf_counter() - t0)
    wl.op_set = ops
    if isinstance(wl, workloads.Elimination):
        wl.attach_oracle(workloads.SympyOracle())
    return wl, statistics.median(times)


# -- the closed loop -----------------------------------------------------------------


class Tally:
    """Timings of every execution, per op of the set, and the gate verdicts."""

    def __init__(self, size: int):
        self.times: list[list[float]] = [[] for _ in range(size)]
        self.pass_walls: list[float] = []
        self.bad: set[int] = set()  # ops that failed at least once
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[str, int] = {}

    def record(self, index: int, dt: float, verdict):
        self.times[index].append(dt)
        self.attempted += 1
        if verdict is not None:
            kind, reason = verdict
            self.bad.add(index)
            self.failed += 1
            self.wrong += kind == "wrong"
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def merge(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        for reason, k in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + k


def run_op(ops, index: int, tally: Tally, tracer=None, op_id: int = 0) -> float:
    """Time one operation, then gate its output; returns the timed seconds."""
    op = ops[index]
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        result = op.run()
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{op.label}: {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    if error is not None:
        verdict = ("failed", error)
    else:
        try:
            verdict = op.check(result)
        except Exception as exc:
            verdict = ("wrong", f"{op.label}: output gate raised {type(exc).__name__}: {exc}")
    tally.record(index, dt, verdict)
    return dt


def _groups(size: int) -> int:
    """Interleaved groups of passes, so there are at least MIN_SAMPLES samples."""
    return -(-MIN_SAMPLES // size)


def _passes(wl, seconds: float, max_passes: int | None):
    """Yield (pass index, op order) until the time budget (or max_passes) is used up.

    Every pass runs the whole op set, in an order shuffled by seed and pass.
    """
    size = len(wl.op_set)
    start = time.perf_counter()
    index = 0
    while True:
        order = list(range(size))
        random.Random(wl.seed * 1_000_003 + index).shuffle(order)
        yield index, order
        index += 1
        if max_passes is not None:
            if index >= max_passes:
                return
        elif time.perf_counter() - start >= seconds and index >= _groups(size):
            return


def measure(wl, seconds: float, max_passes: int | None = None) -> Tally:
    tally = Tally(len(wl.op_set))
    for _, order in _passes(wl, seconds, max_passes):
        tally.pass_walls.append(sum(run_op(wl.op_set, i, tally) for i in order))
    return tally


def measure_traced(wl, seconds: float, max_passes: int | None = None):
    """Run every pass twice, untraced and traced, alternating which goes first."""
    from tracing import Tracer

    tracer = Tracer()
    ops = wl.op_set
    plain, traced = Tally(len(ops)), Tally(len(ops))
    overheads = []
    op_id = 0
    traced_op_s = attributed_s = 0.0
    for index, order in _passes(wl, seconds, max_passes):
        walls = {}
        for mode in (("plain", "traced") if index % 2 == 0 else ("traced", "plain")):
            if mode == "plain":
                walls[mode] = sum(run_op(ops, i, plain) for i in order)
                continue
            tracer.install()
            try:
                wall = 0.0
                for i in order:
                    dt = run_op(ops, i, traced, tracer, op_id)
                    op_id += 1
                    wall += dt
                    traced_op_s += dt
                    attributed_s += tracer.last_attributed
            finally:
                tracer.uninstall()
            walls[mode] = wall
        plain.pass_walls.append(walls["plain"])
        traced.pass_walls.append(walls["traced"])
        overheads.append(walls["traced"] - walls["plain"])
    return tracer, plain, traced, overheads, traced_op_s, attributed_s


# -- metrics ---------------------------------------------------------------------------


def end_to_end(tally: Tally, setup_s: float) -> dict:
    """End-to-end metrics from each op's best times.

    The machine this was built on changes speed by up to a third for tens of
    seconds at a time, so a mean over one run mostly measures how much of
    the run fell into slow phases.  An op's best time over passes spread
    across the run is far steadier.  Each op yields one sample per group of
    interleaved passes (pass k belongs to group k mod G), so percentiles
    rest on at least MIN_SAMPLES samples even for a small op set.
    """
    times = tally.times
    groups = min(_groups(len(times)), min(len(t) for t in times))
    samples = [min(t[g::groups]) for t in times for g in range(groups)]
    wall = sum(min(t) for t in times)
    deciles = statistics.quantiles(samples, n=10) if len(samples) > 1 else [samples[0]] * 9
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": ((len(times) - len(tally.bad)) / wall, "1/s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_share": (tally.failed / tally.attempted, "share"),
    }


# Metrics printed for humans but kept out of the JSON line, because the JSON
# metrics must be nonzero and failed_share is 0 on a clean workload.  The
# JSON line carries the same information as ``failed`` / ``attempted``.
TABLE_ONLY = ("failed_share",)

FAMILIES = ("triangular-fpf", "triangular-nonfpf", "projection-laws", "falling-factorial",
            "groebner-membership")


def per_layer(summary: dict, passes: int, traced_op_s: float, attributed_s: float,
              overheads: list[float]) -> dict:
    calls, total, self_same = summary["calls"], summary["total_s"], summary["self_same_layer_s"]
    counters = summary["counters"]

    def n(name):  # calls per pass
        return calls.get(name, 0) / passes

    def t(name):  # outermost seconds per pass
        return total.get(name, 0.0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in summary["layer_self_s"]:
        out[f"{layer}.calls"] = (summary["layer_calls"][layer] / passes, "calls/pass")
        out[f"{layer}.self_s"] = (summary["layer_self_s"][layer] / passes, "s/pass")
        out[f"{layer}.self_share"] = (ratio(summary["layer_self_s"][layer], traced_op_s), "share")
    inserts = calls.get("linalg.RowSpace.insert", 0)
    spans = calls.get("subalgebra.GeneratorSpan.__init__", 0)
    buchbergers = calls.get("groebner.buchberger", 0)
    out.update({
        "polynomial.mul_calls": (n("polynomial.Polynomial.__mul__"), "calls/pass"),
        "polynomial.add_calls": (n("polynomial.Polynomial.__add__"), "calls/pass"),
        "polynomial.max_coeff_bits": (summary["max_coeff_bits"], "bits"),
        "derivation.apply_calls": (n("derivation.Derivation.apply"), "calls/pass"),
        "derivation.apply_s": (t("derivation.Derivation.apply"), "s/pass"),
        "derivation.fpf_s": (t("derivation.is_fixed_point_free"), "s/pass"),
        "linalg.inserts": (inserts / passes, "calls/pass"),
        "linalg.rank_ratio": (ratio(counters["independent_inserts"], inserts), "ratio"),
        "linalg.insert_s": (t("linalg.RowSpace.insert"), "s/pass"),
        "linalg.express_s": (t("linalg.RowSpace.express"), "s/pass"),
        "subalgebra.span_builds": (spans / passes, "calls/pass"),
        "subalgebra.span_products": (counters["span_products"] / passes, "products/pass"),
        "subalgebra.span_rank": (counters["span_rank"] / passes, "rows/pass"),
        "subalgebra.span_build_s": (t("subalgebra.GeneratorSpan.__init__"), "s/pass"),
        "subalgebra.member_hit_ratio": (
            ratio(counters["member_hits"], calls.get("subalgebra.subalgebra_member", 0)), "ratio"),
        "slices.find_slice_s": (t("slices.find_slice"), "s/pass"),
        "slices.find_slice_hit_ratio": (
            ratio(counters["slice_hits"], calls.get("slices.find_slice", 0)), "ratio"),
        "slices.dixmier_calls": (n("slices.dixmier"), "calls/pass"),
        "slices.dixmier_applies": (counters["dixmier_applies"] / passes, "calls/pass"),
        "slices.dixmier_s": (t("slices.dixmier"), "s/pass"),
        "slices.verify_slice_theorem_s": (t("slices.verify_slice_theorem"), "s/pass"),
        "slices.iterate_composed_s": (t("slices.RetractionDerivation.iterate_composed"), "s/pass"),
        "groebner.buchberger_self_s": (
            self_same.get("groebner.buchberger", 0.0) / passes, "s/pass"),
        "groebner.normal_form_calls": (n("groebner.normal_form"), "calls/pass"),
        "groebner.normal_form_s": (t("groebner.normal_form"), "s/pass"),
        "groebner.verify_s": (t("groebner.GroebnerBasis.verify"), "s/pass"),
        "groebner.basis_len": (ratio(counters["basis_len"], buchbergers), "polys"),
        "groebner.member_yes_ratio": (
            ratio(counters["ideal_yes"], calls.get("groebner.ideal_member", 0)), "ratio"),
        "polygcd.gcd_calls": (n("polygcd.gcd"), "calls/pass"),
        "polygcd.gcd_s": (t("polygcd.gcd"), "s/pass"),
        "polygcd.exact_divide_calls": (n("polygcd.exact_divide"), "calls/pass"),
        "parse.polynomials": (n("parse.parse_polynomial"), "calls/pass"),
        "parse.parse_s": (t("parse.parse_polynomial"), "s/pass"),
        "harness.parse_job_s": (t("harness.parse_job"), "s/pass"),
        "harness.run_job_self_s": (self_same.get("harness.run_job", 0.0) / passes, "s/pass"),
        "harness.report_text_s": (t("harness.Report.to_text"), "s/pass"),
        "harness.validate_s": (t("harness.validate_report_text"), "s/pass"),
        "trace.overhead_s": (statistics.median(overheads), "s/pass"),
        "trace.unattributed_share": (ratio(traced_op_s - attributed_s, traced_op_s), "share"),
    })
    for family in FAMILIES:
        out[f"harness.family.{family}_s"] = (t(f"harness.family.{family}"), "s/pass")
    return out


# -- environment ------------------------------------------------------------------------


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        src_lines += len(data.splitlines())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "src_lines": src_lines,
    }


# -- entry point -------------------------------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  max_passes: int | None = None, wl=None, setup_s: float | None = None):
    """Run one workload; returns (result line, metrics with units, details).

    ``wl``/``setup_s`` let a caller pass an already set-up (and possibly
    altered) workload, as the self-test does.
    """
    if wl is None:
        wl, setup_s = setup(workload, seed)
    details = {}
    if not trace:
        tally = measure(wl, seconds, max_passes)
        metrics = end_to_end(tally, setup_s)
        counted = tally
    else:
        tracer, plain, traced, overheads, traced_op_s, attributed_s = measure_traced(
            wl, seconds, max_passes)
        summary = tracer.summary()
        metrics = per_layer(summary, len(traced.pass_walls), traced_op_s, attributed_s,
                            overheads)
        details["spans"] = summary["spans"]
        details["tracer"] = tracer
        counted = traced
        counted.merge(plain)
    details["passes"] = len(counted.pass_walls)
    details["reasons"] = counted.reasons
    line = {
        "correct": counted.wrong == 0,
        "attempted": counted.attempted,
        "failed": counted.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in TABLE_ONLY},
    }
    return line, metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        line, metrics, details = run_benchmark(args.workload, args.seed, args.seconds,
                                               bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = details.pop("tracer", None)
    if tracer is not None:
        tracer.write(OUT / f"spans-{tag}.jsonl.gz")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"env": env, "details": details, "result": line,
         "table": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}, indent=1) + "\n")
    print("env " + json.dumps(env))
    print(f"workload {args.workload} passes {details['passes']} attempted {line['attempted']} "
          f"failed {line['failed']} correct {line['correct']}")
    for reason, k in sorted(details["reasons"].items()):
        print(f"failure x{k}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} {value!r} {unit}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
