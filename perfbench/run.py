"""obroute benchmark: one workload per process, or every workload with --all.

  python3 perfbench/run.py --workload gravity-8x8 --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py --all --out perfbench/out/summary.json

A single run prints each metric with its unit and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, from a run whose only timers are the
benchmark's own around each stage, scaled by a calibration timed between
the stages (see harness.end_to_end_metrics). With --trace 1 they are the per-layer ones,
from traced runs over the same inputs, in turn with untraced ones (see
tracing.py).
Reports, spans and a detail file go to perfbench/out/.

--all runs every workload on seeds 1..10, each run in its own process, plus
one traced run per workload, and writes the medians and quartiles of every
metric with the machine's facts.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SEEDS = range(1, 11)    # the seeds --all runs every workload on


def single(harness, name: str, seed: int, seconds: float, trace: int) -> dict:
    w = harness.WORKLOADS[name]
    ops = harness.Ops()
    out_dir = OUT / f"{name}-s{seed}"
    detail = {"workload": name, "seed": seed, "trace": trace}
    if trace == 0:
        summary = harness.untraced(w, seed, seconds, out_dir, ops)
        metrics, extra = harness.end_to_end_metrics(summary)
        detail.update(rounds=summary["rounds"])
    else:
        metrics, extra = traced(harness, w, seed, out_dir, ops, detail)
    print(f"workload {name} seed {seed} trace {trace}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"  {key:36s} {value:14.6f} {unit}")
    print(f"  ops_attempted {ops.attempted}  ops_failed {ops.failed}")
    for problem in ops.problems[:20]:
        print(f"  FAILED {problem}")
    detail.update(metrics=metrics, extra=extra, attempted=ops.attempted, failed=ops.failed,
                  problems=ops.problems)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-s{seed}-t{trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced(harness, w, seed: int, out_dir: Path, ops, detail: dict):
    """TRACED_ROUNDS untraced and TRACED_ROUNDS traced full runs, in turn; each
    traced run is followed by a fixed set of traced queries.

    The per-layer metrics come from the fastest traced run. The tracing
    overhead compares the two sides as the end-to-end metrics are taken:
    the median over each side's runs of run_s, scaled by the run's own
    calibrate() times, so the machine's drift between runs drops out."""
    import tracing

    plain, runs = [], []
    best = None
    for _ in range(harness.TRACED_ROUNDS):
        base = harness.full_run(w, seed, out_dir)
        harness.check_run(base, out_dir, ops)
        plain.append(harness.round_record(base))
        del base
        tr = tracing.Tracer()
        with tr.installed():
            run = harness.full_run(w, seed, out_dir, tracer=tr)
            harness.check_run(run, out_dir, ops)
            harness.query_phase(run, w, seed, ops, count=harness.TRACED_QUERIES,
                                clock=harness.Clock(tr))
        runs.append(harness.round_record(run))
        if best is None or run.run_s < best[0]["run_s"]:
            best = (runs[-1], tr)
        del run, tr
    fastest, tr = best
    untraced = harness.stage_medians(plain, w.schemes)
    traced_ = harness.stage_medians(runs, w.schemes)
    tr.write(OUT / f"trace-{w.name}-s{seed}")
    metrics = tracing.layer_metrics(tr, traced_["run_s"] - untraced["run_s"])
    layers_run = harness.stage_medians([fastest], w.schemes, scaled=False)
    extra = {}
    for key in untraced:
        extra[f"untraced.{key}"] = (untraced[key], "s")
        extra[f"traced.{key}"] = (traced_[key], "s")
        extra[f"layers_run.{key}"] = (layers_run[key], "s")
    scaled_runs = [harness.stage_times(r, w.schemes)["run_s"] for r in plain]
    extra["untraced.run_s_range"] = (max(scaled_runs) - min(scaled_runs), "s")
    detail.update(untraced_rounds=plain, traced_rounds=runs, lp_records=tr.lp_records())
    return metrics, extra


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "lp_solver": f"HiGHS bundled with scipy {scipy.__version__}",
            "platform": platform.platform(), "machine": platform.machine()}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def run_all(workloads: dict, seconds: float, out: Path) -> int:
    """Every workload on SEEDS, one process per run, and one traced run each."""
    report = {"machine": machine(), "seconds": seconds, "seeds": list(SEEDS),
              "workloads": {}}
    status = 0
    for name in workloads:
        runs = []
        for seed in SEEDS:
            for trace in (0, 1) if seed == SEEDS[0] else (0,):
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                    return proc.returncode
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                detail = json.loads((OUT / f"{name}-s{seed}-t{trace}.json").read_text())
                runs.append((trace, result, detail))
                print(f"{name} seed {seed} trace {trace}: attempted {result['attempted']} "
                      f"failed {result['failed']}", flush=True)
                status |= 0 if result["correct"] else 1
        plain = [(r, d) for t, r, d in runs if t == 0]
        stats = {}
        for key in plain[0][1]["metrics"] | plain[0][1]["extra"]:
            values = [(d["metrics"] | d["extra"])[key][0] for _, d in plain]
            stats[key] = {"unit": (plain[0][1]["metrics"] | plain[0][1]["extra"])[key][1],
                          **quartiles(values)}
        traced_detail = next(d for t, _, d in runs if t == 1)
        report["workloads"][name] = {
            "definition": workloads[name].definition(),
            "ops_attempted": [r["attempted"] for r, _ in plain],
            "ops_failed": [r["failed"] for r, _ in plain],
            "end_to_end": stats,
            "per_layer_seed_1": {k: {"value": v, "unit": u}
                                 for k, (v, u) in traced_detail["metrics"].items()},
            "traced_stages_seed_1": {k: {"value": v, "unit": u}
                                     for k, (v, u) in traced_detail["extra"].items()}}
        for key, s in stats.items():
            print(f"  {name:14s} {key:32s} median {s['median']:12.4f} "
                  f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} spread {s['spread']:.3f}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of an untraced run; defaults to run_seconds "
                         "in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload on seeds 1..10")
    ap.add_argument("--out", type=Path, default=OUT / "summary.json")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        import harness
    except ImportError as exc:
        print(f"perfbench: cannot load obroute: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((harness.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.all:
        return run_all(harness.WORKLOADS, seconds, args.out)
    if args.workload not in harness.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    result = single(harness, args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
