"""One workload run in its own process; `run.py` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The untraced run warms the package's caches, then issues operations one at a
time until `--seconds` have passed and every stratum has run once, and prints
the end-to-end metrics.  Each operation is paired with the same operation on
the frozen seed copy of the package, loaded into the same process and run
right before or after it.  The traced run warms up under the tracer, runs one
fixed cycle of operations untraced and the same cycle traced, and prints the
per-layer metrics with the tracing overhead.  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import scipy  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402

# The host's speed drifts by up to 25% between runs, in wall and CPU time
# alike, so operation cost is reported as CPU time relative to the same
# operation on the frozen seed code, timed back to back in the same process.
# (In two processes, identical code differed by up to 18% for a whole run.)
# Raw CPU and wall-clock figures are printed alongside.
END_TO_END = {  # name -> unit; run.py measures the set-up metrics
    "op_cpu_ratio.median_gm": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metrics: values are per operation of the traced cycle, except
# max_depth (the largest), the set-up probes and the tracing overhead
PER_LAYER = {
    "trace.overhead_frac": "frac",
    "cli.main.self_s": "s",
    "optimizer.two_level_line_search.self_s": "s",
    "optimizer.two_level_line_search.calls": "count",
    "optimizer.gap_constants.self_s": "s",
    "policy.classify_structure.self_s": "s",
    "optimizer.sweep.cells_per_beta": "count",
    "optimizer.branch_and_bound.self_s": "s",
    "optimizer.branch_and_bound.nodes": "count",
    "optimizer.branch_and_bound.max_depth": "count",
    "optimizer.branch_and_bound.value_evals": "count",
    "optimizer.grid_search.self_s": "s",
    "optimizer.grid_search.enumerate_s": "s",
    "optimizer.grid_search.near_best_frac": "frac",
    "objective.lattice_value.self_s": "s",
    "objective.lattice_value.term_evals": "count",
    "objective.lattice_value.bytes_computed": "B",
    "equilibrium.simulate.self_s": "s",
    "equilibrium.draws_s": "s",
    "equilibrium.deviation_audit_s": "s",
    "equilibrium.cdf_table.self_s": "s",
    "bernstein.h_eval.self_s": "s",
    "bernstein.h_eval.points": "count",
    "bernstein.h_inverse.self_s": "s",
    "bernstein.h_inverse.points": "count",
    "bernstein.basis_matrix.self_s": "s",
    "bernstein.basis_matrix.points": "count",
    "quadrature.nodes_weights.cold_s": "s",
}


@dataclass
class Sample:
    op: wls.Op
    seconds: float | None  # wall time; None when the call raised
    cpu: float | None  # CPU time of the process, all threads
    out: object
    problems: list
    base_cpu: float | None = None  # CPU time of the seed code on the same input


def attempt(wl, op, corrupt=None, around=contextlib.nullcontext) -> Sample:
    """Time one operation, then check its output outside the timed region."""
    try:
        with around():
            t0, c0 = time.perf_counter(), time.process_time()
            out = wl.run(op)
            seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
    except Exception:  # a failed operation is counted, and the loop goes on
        return Sample(op, None, None, None, [traceback.format_exc(limit=3)])
    if corrupt is not None:
        out = corrupt(out)
    try:
        problems = wl.check(op, out)
    except Exception:
        problems = ["check raised: " + traceback.format_exc(limit=3)]
    return Sample(op, seconds, cpu, out, problems)


def stratum_medians(pairs) -> dict:
    per: dict = {}
    for stratum, value in pairs:
        per.setdefault(stratum, []).append(value)
    return {k: float(np.median(v)) for k, v in per.items()}


def median_gm(pairs) -> float:
    """Each stratum's median, combined across strata by geometric mean.

    Strata differ in cost by up to 30x; a pooled median would report the
    one stratum it lands in, while this uses every sample of every stratum.
    """
    medians = list(stratum_medians(pairs).values())
    return float(np.exp(np.mean(np.log(medians))))


def tail(values) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return "p%d" % math.floor(100.0 * (n - 10) / n), float(sorted(values)[n - 11])


def end_to_end(wl, samples) -> tuple[dict, list[str]]:
    timed = [s for s in samples if s.seconds is not None]
    if not timed:
        raise RuntimeError("no operation completed")
    op_cpu = [(s.op.stratum, s.cpu) for s in timed]
    op_times = [(s.op.stratum, s.seconds) for s in timed]
    base_cpu = [(s.op.stratum, s.base_cpu) for s in timed]
    units = stratum_medians((s.op.stratum, s.op.units) for s in timed)

    def rate(pairs):  # the rate of the whole mix: heavy strata weigh by cost
        return sum(units.values()) / sum(stratum_medians(pairs).values())

    values = {
        "op_cpu_ratio.median_gm": median_gm(
            [(s.op.stratum, s.cpu / s.base_cpu) for s in timed]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = ["metric %s = %r %s (n=%d)" % (k, v, END_TO_END[k], len(timed))
             for k, v in values.items()]
    lines += [
        "metric op_cpu_s.median_gm = %r s (seed code: %r s)"
        % (median_gm(op_cpu), median_gm(base_cpu)),
        "metric work_per_cpu_s = %r 1/s (seed code: %r 1/s)"
        % (rate(op_cpu), rate(base_cpu)),
        "metric %s = %r 1/s (wall clock, %s per second)"
        % (wl.rate_name, rate(op_times), wl.unit),
    ]
    for name, pairs in [(wl.timing_name, op_times)] + wl.named(samples):
        times = [v for _, v in pairs]
        lines.append("metric %s.p50 = %r s (wall clock, pooled median, n=%d)"
                     % (name, float(np.median(times)), len(times)))
        lines.append("metric %s.median_gm = %r s (wall clock, n=%d)"
                     % (name, median_gm(pairs), len(times)))
        top = tail(times)
        lines.append("metric %s.%s = %r s (n=%d)" % ((name,) + top + (len(times),)) if top
                     else "metric %s tail: none, %d samples leave none with 10 beyond it"
                     % (name, len(times)))
    lines.append("strata %s: %s" % (wl.unit, json.dumps(
        {str(k): {"median_s": v, "median_cpu_s": c, "units": units[k]}
         for (k, v), c in zip(stratum_medians(op_times).items(),
                              stratum_medians(op_cpu).values())})))
    return values, lines


def per_layer(tracer, ops, extras, warm, untraced, traced) -> dict:
    spans = tracer.spans
    per_op = 1.0 / len(ops)
    # figures measured outside the spans, or over the warm-up
    values = {k: sum(e.get(k, 0.0) for e in extras) * per_op for e in extras for k in e}
    values.update(warm)
    simulate = sum(s.end - s.start for s in spans
                   if s.op != "warmup" and s.name == "equilibrium.simulate")
    values["equilibrium.deviation_audit_s"] = (
        simulate * per_op - values.get("equilibrium.draws_s", 0.0))
    values["quadrature.nodes_weights.cold_s"] = sum(
        s.end - s.start for s in spans
        if s.name == "quadrature.nodes_weights" and s.counts.get("cold"))
    both = [(u.cpu, t.cpu) for u, t in zip(untraced, traced)
            if u.cpu is not None and t.cpu is not None]
    values["trace.overhead_frac"] = (sum(t for _, t in both) / sum(u for u, _ in both) - 1.0
                                     if both else 0.0)
    # the rest are "<span name>.<self_s | calls | max_depth | count key>"
    selfs = tr.self_times(spans)
    for name in PER_LAYER:
        if name in values:
            continue
        span_name, _, field = name.rpartition(".")
        hits = [s for s in spans if s.op != "warmup" and s.name == span_name]
        if field == "self_s":
            values[name] = sum(selfs[s.span_id] for s in hits) * per_op
        elif field == "calls":
            values[name] = len(hits) * per_op
        elif field == "max_depth":
            values[name] = max((s.counts.get(field, 0) for s in hits), default=0)
        else:
            values[name] = sum(s.counts.get(field, 0) for s in hits) * per_op
    return {k: float(values.get(k, 0.0)) for k in PER_LAYER}


def seed_cpu(base, seed: int, i: int) -> float:
    """CPU seconds of operation i on the seed copy of the package.

    Its check runs too, untimed, so that the caches of both copies go
    through the same calls between operations.
    """
    op = base.op(seed, i)
    c0 = time.process_time()
    out = base.run(op)
    cpu = time.process_time() - c0
    base.check(op, out)
    return cpu


def run_workload(wl, seed: int, seconds: float, trace: bool, corrupt=None,
                 base=None, span_file: Path | None = None) -> tuple[dict, list[str]]:
    """One run; returns the result object and the report lines before it.

    Untraced runs need `base`: the same workload bound to the seed copy.
    """
    if not trace:
        wl.warmup(measure=False)
        base.warmup(measure=False)
        samples, start, i = [], time.perf_counter(), 0
        while True:
            # alternate which version runs first, so neither gains from order
            base_cpu = seed_cpu(base, seed, i) if i % 2 else None
            sample = attempt(wl, wl.op(seed, i), corrupt)
            if sample.cpu is not None:
                sample.base_cpu = base_cpu if i % 2 else seed_cpu(base, seed, i)
            samples.append(sample)
            i += 1
            # every stratum runs at least once, or the mix would shift
            if time.perf_counter() - start >= seconds and i >= len(wl.strata):
                break
        values, lines = end_to_end(wl, samples)
        units = END_TO_END
    else:
        tracer = tr.Tracer()
        inst = tr.Instrumentation(tracer)
        tracer.op = "warmup"
        with inst:
            warm = wl.warmup(measure=True)
        ops = [wl.op(seed, i) for i in range(wl.trace_ops)]
        untraced = [attempt(wl, op, corrupt) for op in ops]
        traced = []
        for k, op in enumerate(ops):
            tracer.op = k
            traced.append(attempt(wl, op, corrupt, around=lambda: inst))
        extras = [wl.extras(s.op, s.out) for s in traced if s.out is not None]
        values = per_layer(tracer, ops, extras, warm, untraced, traced)
        samples = untraced + traced
        units = PER_LAYER
        lines = ["metric %s = %r %s" % (k, v, units[k]) for k, v in values.items()]
        lines.append("spans: %d recorded" % len(tracer.spans))
        if span_file is not None:
            tracer.dump(span_file)
            lines.append("spans written to %s" % span_file)
    failed = sum(1 for s in samples if s.problems)
    for s in samples:
        if s.problems:
            lines.append("FAILED op stratum %s %r: %s" % (
                s.op.stratum, s.op.params, "; ".join(s.problems)[:2000]))
    lines.append("failed_frac = %r (%d failed of %d attempted)"
                 % (failed / len(samples), failed, len(samples)))
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, lines


def run_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "workers": os.environ.get("CONTEST_OPT_THREADS"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = wls.WORKLOADS[args.workload]
    wl = workload(wls.Package())
    if args.trace:
        span_file = ROOT / ".perfbench" / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
        result, lines = run_workload(wl, args.seed, args.seconds, True, span_file=span_file)
    else:
        result, lines = run_workload(wl, args.seed, args.seconds, False,
                                     base=workload(wls.Package.seed()))
    print("info: " + json.dumps(run_info(), sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
