#!/usr/bin/env python3
"""topoideal benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload sets5 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.

--trace 0 measures the end-to-end metrics with no instrumentation: the
set-up time, as the median of several fresh processes, then as many
passes of the workload as fit in --seconds (at least one), each checked
against expected.json.  Timings are medians over the passes.  A sets5 or
pairs3 pass takes 13-22 s on a 2-vCPU Xeon, so those runs make one or two
passes at --seconds 30.

--trace 1 reports the per-layer metrics: it fills the enumeration caches
under the tracer, runs one untraced and one traced pass, and reports the
traced pass's layer times and counts, the difference of the two pass
times as tracing overhead, and writes the spans to .perfbench-out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracing import NullTracer, Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60


def load_package():
    if not (SRC / "topoideal" / "__init__.py").is_file():
        raise SystemExit(f"error: no topoideal package under {SRC}; "
                         "run from the root of a topoideal checkout")
    sys.path.insert(0, str(SRC))
    import topoideal
    if Path(topoideal.__file__).resolve().parent != SRC / "topoideal":
        raise SystemExit(f"error: imported topoideal from {topoideal.__file__}, not {SRC}")
    return topoideal


def probe_setup(workload: str) -> float:
    """Seconds one fresh process needs to import topoideal and warm its caches."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(topoideal, args, expected) -> tuple[dict, list]:
    setups = [probe_setup(args.workload) for _ in range(SETUP_REPEATS)]
    wl.warm(topoideal, args.workload)
    passes = []
    started = time.perf_counter()
    while True:
        result = wl.run_pass(args.workload, args.seed, NullTracer())
        wl.check_pass(args.workload, result, expected)
        passes.append(result)
        # stop before a pass that would likely end after --seconds
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - started + typical > args.seconds:
            break
    print(f"{args.workload}: {len(passes)} passes, wall s "
          + " ".join(f"{p.wall_s:.4f}" for p in passes)
          + ", set-up s " + " ".join(f"{s:.4f}" for s in setups))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": metric(statistics.median(p.cpu_s for p in passes), "s"),
        "throughput": metric(statistics.median(p.units / p.wall_s for p in passes), "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": metric(1 - failed / attempted, "ratio"),
    }
    return metrics, passes


def layer_metrics(t: Tracer, result: wl.PassResult, base: wl.PassResult) -> dict:
    """Per-layer metrics of one traced pass (enumeration also covers set-up)."""
    if result.report is not None:
        visited = result.units
        violations = sum(r.violation_count for r in result.report.results)
        kept = len(result.report.violations)
    else:
        visited = violations = 0
        kept = sum(w is not None for w in result.answers.values())
    built = t.counts.get("verify.witnesses_built", 0)
    s, count = "s", "count"
    return {
        "enumeration.topologies_s": metric(t.total_s("enumeration.topologies"), s),
        "enumeration.topologies_count": metric(t.counts.get("enumeration.topologies_built", 0), count),
        "enumeration.maps_s": metric(t.total_s("enumeration.maps"), s),
        "core.local_function_calls": metric(t.calls("core.local_function"), count),
        "core.local_function_s": metric(t.total_s("core.local_function"), s),
        "analysis.topology_builds": metric(t.calls("analysis.topology_build"), count),
        "analysis.topology_tables_s": metric(t.self_s("analysis.topology_table"), s),
        "analysis.space_builds": metric(t.calls("analysis.space_build"), count),
        "analysis.space_tables_s": metric(
            t.self_s("analysis.space_table") + t.self_s("analysis.star_t"), s),
        "analysis.star_t_s": metric(t.total_s("analysis.star_t"), s),
        "analysis.class_vector_calls": metric(t.calls("analysis.class_vector"), count),
        "analysis.class_vector_s": metric(t.total_s("analysis.class_vector"), s),
        "claims.parse_s": metric(t.total_s("claims.parse_claim"), s),
        "claims.evaluate_calls": metric(t.calls("claims.evaluate"), count),
        "claims.evaluate_s": metric(t.total_s("claims.evaluate"), s),
        "verify.sweep_self_s": metric(t.self_s("verify.run_theorem_suite"), s),
        "verify.search_self_s": metric(t.self_s("verify.find_counterexample"), s),
        "verify.structures_visited": metric(visited, count),
        "verify.violations": metric(violations, count),
        "verify.witnesses_built": metric(built, count),
        "verify.witnesses_kept": metric(kept, count),
        "verify.witness_keep_ratio": metric(kept / built if built else 0.0, "ratio"),
        "verify.replay_calls": metric(t.calls("verify.replay_witness"), count),
        "verify.replay_s": metric(t.total_s("verify.replay_witness"), s),
        "classes.set_classes_calls": metric(t.counts.get("classes.set_classes", 0), count),
        "maps.map_classes_calls": metric(t.counts.get("maps.map_classes", 0), count),
        "cli.report_s": metric(t.total_s("cli.report"), s),
        "cli.report_bytes": metric(t.counts.get("cli.report_bytes", 0), "bytes"),
        "trace.untraced_wall_s": metric(base.wall_s, s),
        "trace.traced_wall_s": metric(result.wall_s, s),
        "trace.overhead_s": metric(result.wall_s - base.wall_s, s),
    }


def traced_run(topoideal, args, expected) -> tuple[dict, list]:
    tracer = Tracer()
    with instrument(tracer), tracer.span("setup"):
        wl.warm(topoideal, args.workload)
    base = wl.run_pass(args.workload, args.seed, NullTracer())
    with instrument(tracer), tracer.span("pass"):
        result = wl.run_pass(args.workload, args.seed, tracer)
    for p in (base, result):
        wl.check_pass(args.workload, p, expected)
    if result.report is not None:
        result.check(result.digest == base.digest, "tracing changed the report digest")
    else:
        result.check(wl.answers_json(result) == wl.answers_json(base),
                     "tracing changed the search answers")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(path, workload=args.workload, seed=args.seed)
    print(f"{args.workload}: untraced pass {base.wall_s:.4f} s, traced pass "
          f"{result.wall_s:.4f} s, {len(tracer.spans)} kept spans written to {path}")
    return layer_metrics(tracer, result, base), [base, result]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    topoideal = load_package()
    expected = wl.load_expected()
    run = traced_run if args.trace else timed_run
    metrics, passes = run(topoideal, args, expected)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
