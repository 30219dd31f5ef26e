"""Pipeline benchmark of cywbench: one workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sphere-s3 --seed 0 --seconds 25 --trace 0

A run repeats passes for about ``--seconds`` seconds; one pass runs every
case of the workload once on freshly built inputs.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``pass_s``, ``setup_s``, ``peak_rss_mib``); with
``--trace 1`` the run alternates traced and untraced passes and reports the
per-layer metrics of the traced ones, the tracing overhead, and writes the
spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@dataclass
class PassRecord:
    setup_s: float
    pass_s: float
    wall_s: float
    failed: int
    wrong: int
    tracer: object = None


def run_pass(cases, memos, first_op: int, tracer=None) -> PassRecord:
    """Run every case once; time set-up and operation apart, then check."""
    t_pass = time.perf_counter()
    setup_s = pass_s = 0.0
    failed = wrong = 0
    for k, case in enumerate(cases):
        if tracer is not None:
            tracer.op = first_op + k
            sid = tracer.open("bench.setup")
        t0 = time.perf_counter()
        inputs = case.setup()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(sid)
            sid = tracer.open("bench.operation")
        try:
            outcome = case.operation(inputs)
        except Exception:  # an unexpected raise is a failed operation
            outcome = None
            print(f"{case.name}: operation raised\n{traceback.format_exc()}", file=sys.stderr)
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.close(sid)
        setup_s += t1 - t0
        pass_s += t2 - t1
        if outcome is None:
            failed += 1
            wrong += 1
            continue
        try:
            failed += bool(case.check(inputs, outcome, memos[k]))
        except Exception:  # a wrong output, or a check that cannot read it
            failed += 1
            wrong += 1
            print(f"{case.name}: output check failed\n{traceback.format_exc()}", file=sys.stderr)
    return PassRecord(setup_s, pass_s, time.perf_counter() - t_pass, failed, wrong, tracer)


def measure(cases, seconds: float, trace: bool):
    import tracing

    memos = [{} for _ in cases]
    records = []
    start = time.perf_counter()
    while True:
        op = len(records) * len(cases)
        if trace and len(records) % 2 == 0:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                rec = run_pass(cases, memos, op, tracer)
        else:
            rec = run_pass(cases, memos, op)
        records.append(rec)
        print(f"pass {len(records)}: setup {rec.setup_s:.4f} s, operations {rec.pass_s:.4f} s, "
              f"failed {rec.failed}/{len(cases)}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if (not trace or len(records) >= 2) and elapsed + rec.wall_s > seconds:
            break
    return records


def end_to_end_metrics(records) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "pass_s": {"value": statistics.median(r.pass_s for r in records), "unit": "s"},
        "setup_s": {"value": statistics.median(r.setup_s for r in records), "unit": "s"},
        "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }


def per_layer_metrics(records) -> dict:
    import tracing

    traced = [r for r in records if r.tracer is not None]
    values = tracing.median_metrics([tracing.pass_metrics(r.tracer) for r in traced])
    out = {name: {"value": values[name], "unit": unit}
           for name, unit in tracing.PASS_METRICS.items()}
    traced_s = statistics.median(r.pass_s for r in traced)
    untraced_s = statistics.median(r.pass_s for r in records if r.tracer is None)
    out["trace.pass_s"] = {"value": traced_s, "unit": "s"}
    out["trace.untraced_pass_s"] = {"value": untraced_s, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    return out


def write_trace(workload: str, seed: int, cases, records) -> Path:
    import tracing

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    passes = []
    for r in records:
        entry = {"traced": r.tracer is not None, "setup_s": r.setup_s, "pass_s": r.pass_s}
        if r.tracer is not None:
            entry["spans"] = r.tracer.spans
            entry["counters"] = dict(r.tracer.counters)
            entry["metrics"] = tracing.pass_metrics(r.tracer)
        passes.append(entry)
    doc = {"workload": workload, "seed": seed, "cases": [c.name for c in cases],
           "span_fields": ["name", "start", "end", "parent", "op"], "passes": passes}
    path.write_text(json.dumps(doc))
    return path


def main(argv=None) -> int:
    if not (SRC / "cywbench").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cases = WORKLOADS[args.workload](args.seed)
    records = measure(cases, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer_metrics(records)
        print(f"spans written to {write_trace(args.workload, args.seed, cases, records)}",
              file=sys.stderr)
    else:
        metrics = end_to_end_metrics(records)
    result = {
        "correct": all(r.wrong == 0 for r in records),
        "attempted": len(records) * len(cases),
        "failed": sum(r.failed for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
