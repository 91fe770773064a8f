"""Workloads, the staged obroute pipeline, its output checks and the query phase.

One run drives the same steps as `obroute route` (`run_experiment`), but calls
them stage by stage so each stage can be timed; scheme builds, the guarantee
bound and the CSV writing are `experiment`'s own helpers:

  setup   graph and demand battery, build_tree, certify_congestion, every
          scheme build
  oracle  optimal_congestion
  loads   route_demands for every scheme
  audit   audit_tree
  write   report.json, loads.csv and tables.csv per scheme

A full run also times calibrate(), fixed work outside obroute, before every
stage; end_to_end_metrics scales the stage times by it.

Module functions are looked up at call time (`decomposition.build_tree`, not
a name imported once), so the wrappers a traced run installs in every obroute
module, `experiment` included, are the ones called.
"""
from __future__ import annotations

import csv
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if not (_SRC / "obroute" / "__init__.py").is_file():
    raise ImportError(f"no obroute sources under {_SRC}")
sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from obroute import decomposition, experiment, graph, optimum, routing  # noqa: E402

if Path(graph.__file__).resolve().parent != _SRC / "obroute":
    raise ImportError(f"imported obroute from {graph.__file__}, not from {_SRC}")

QUERY_STREAM = 3    # pair choice and path sampling of the query phase
CAL_STREAM = 4      # the calibration LP
CAL_REF_S = 0.030   # calibrate() at the speed every scaled time is reported at
INSTANCE_SEED = 0   # draws every workload's capacities, battery and tree
MIN_ROUNDS = 2      # full runs per untraced run, at the least
SLICE_S = 0.25      # query slice after each full run, in seconds
WARMUP = 20         # untimed queries per scheme before each timed slice
TRACED_ROUNDS = 4   # untraced and traced full runs of a traced run, each
TRACED_QUERIES = 200


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    battery: str
    schemes: tuple[str, ...]
    samples: int                    # Monte-Carlo paths per demand pair
    why: str
    stresses: str

    def instance(self):
        """The graph and demand battery; fixed per workload, whatever --seed is."""
        g = graph.grid_graph(self.rows, self.cols)
        return g, experiment.demand_battery(self.battery, g, INSTANCE_SEED)

    def definition(self) -> dict:
        return {"graph": f"grid:{self.rows}x{self.cols}", "demands": self.battery,
                "instance_seed": INSTANCE_SEED, "schemes": list(self.schemes),
                "samples": self.samples, "arity": 2,
                "seed": "--seed seeds the cube builds' rounding, route_demands and "
                        "the query phase",
                "why": self.why, "stresses": self.stresses}


WORKLOADS = {w.name: w for w in (
    Workload("gravity-8x8", 8, 8, "gravity", ("reference", "impl-a", "impl-b"), 1,
             why="2016 pairs with one sample each: routing is about 45% of a run and "
                 "per-pair overhead dominates it; set-up and oracle (mostly LPs) the rest",
             stresses="routing: route_demands, select_path, sample_path, hypercube_route, "
                      "path_groups"),
    Workload("lp-10x10", 10, 10, "uniform_pairs:24", ("reference", "impl-a", "impl-b"),
             32,
             why="LP-bound: set-up (~100 certify LPs, ~200 cube-embedding LPs) and the "
                 "oracle LP are about 80% of a run; routing is about 18%",
             stresses="cmcf: certify_congestion, build_cube_scheme, round_paths"),
)}


class Ops:
    """Operations attempted and failed; a failed output check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.problems.append(what)


class Clock:
    """Wall time per stage, and per stage and scheme; a traced run also opens
    one root span per stage. With `calibrating`, `calibrate()` runs before
    every stage, outside its timer, and its times are kept in `cal`."""

    def __init__(self, tracer=None, calibrating: bool = False):
        self.times: dict[str, float] = defaultdict(float)
        self.tracer = tracer
        self.calibrating = calibrating
        self.cal: list[float] = []

    @contextmanager
    def stage(self, name: str, scheme: str | None = None):
        if self.calibrating:
            self.cal.append(calibrate())
        with self.tracer.stage(name, scheme) if self.tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                yield
            finally:
                dt = time.perf_counter() - t0
                self.times[name] += dt
                if scheme:
                    self.times[f"{name}.{scheme}"] += dt


def _calibration_lp():
    rng = np.random.default_rng(np.random.SeedSequence((INSTANCE_SEED, CAL_STREAM)))
    a = rng.random((110, 220))
    return -rng.random(220), a, a.sum(axis=1)


_CAL_LP = _calibration_lp()


def calibrate() -> float:
    """Seconds taken by a fixed piece of work that runs no obroute code: a
    dict-and-list loop in the interpreter and one HiGHS LP, the two kinds of
    work a run spends its time on. Other work on the machine slows it as it
    slows the run; CAL_REF_S over its time is the machine's speed just then."""
    from scipy.optimize import linprog
    c, a, b = _CAL_LP
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    order = []
    for i in range(50000):
        k = (i * 7919) % 1013
        counts[k] = counts.get(k, 0) + 1
        order.append(k)
    order.sort()
    res = linprog(c, A_ub=a, b_ub=b, bounds=(0, 1), method="highs")
    dt = time.perf_counter() - t0
    if res.status != 0:
        raise RuntimeError(f"calibration LP failed: {res.message}")
    return dt


@dataclass
class Built:
    """What `experiment._build_backend` returns for one scheme."""
    backend: object
    bits: dict[int, int] | None     # per-vertex table bits; None for the reference
    label_bits: int | None
    header_bits: int | None
    events: list[str]
    audits: list[str]


def setup(w: Workload, seed: int, clock: Clock):
    with clock.stage("setup"):
        g, demands = w.instance()
        tree = decomposition.build_tree(g, target_arity=2, seed=INSTANCE_SEED)
        cert = decomposition.certify_congestion(g, tree, store_solutions=True)
        built = {}
        for scheme in w.schemes:
            built[scheme] = Built(*experiment._build_backend(scheme, g, tree, cert, seed))
    return g, demands, tree, cert, built


@dataclass
class Run:
    g: object
    tree: object
    cert: object
    built: dict[str, Built]
    demands: object
    c_opt: float
    reports: dict[str, object]
    pairs: int
    times: dict[str, float]
    run_s: float
    problems: dict[str, str]        # scheme -> why its routing raised
    tree_audit: list[str]
    cal: list[float]                # calibrate() times around the stages


def full_run(w: Workload, seed: int, out_dir: Path, tracer=None) -> Run:
    """Every stage once; run_s is the whole run, report writing included.
    calibrate() also runs before every stage and once after the last;
    run_s leaves its time out."""
    clock = Clock(tracer, calibrating=True)
    t0 = time.perf_counter()
    g, demands, tree, cert, built = setup(w, seed, clock)
    with clock.stage("oracle"):
        c_opt = optimum.optimal_congestion(g, demands)
    reports, problems = {}, {}
    for scheme in w.schemes:
        with clock.stage("loads", scheme):
            try:
                reports[scheme] = routing.route_demands(g, tree, built[scheme].backend, demands,
                                                        samples=w.samples, seed=seed)
            except Exception as exc:   # a bad route fails this scheme's routed pairs
                problems[scheme] = f"{type(exc).__name__}: {exc}"
    with clock.stage("audit"):
        tree_audit = decomposition.audit_tree(g, tree)
    with clock.stage("write"):
        write_reports(out_dir, w, seed, g, tree, cert, built, demands, reports, c_opt)
    run_s = time.perf_counter() - t0 - sum(clock.cal)
    clock.cal.append(calibrate())
    return Run(g, tree, cert, built, demands, c_opt, reports, len(demands), dict(clock.times),
               run_s, problems, tree_audit, clock.cal)


def write_reports(out: Path, w: Workload, seed, g, tree, cert, built, demands, reports,
                  c_opt) -> None:
    """Per scheme, run_experiment's report.json payload, and loads.csv and
    tables.csv by the package's own writer."""
    for scheme, report in reports.items():
        b = built[scheme]
        payload = {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "scheme": scheme, "graph": graph.graph_stats(g),
            "tree": {"height": tree.height, "degree": tree.degree, "arity": 2,
                     "seed": INSTANCE_SEED},
            "certificate": {"value": cert.value, "int_value": cert.int_value},
            "demands": w.battery, "pairs": len(demands.entries),
            "samples": w.samples, "seed": seed,
            "congestion": report.congestion, "c_opt": c_opt,
            "ratio": optimum.competitive_ratio(report.congestion, c_opt),
            "ratio_note": "measured against this demand battery only; the "
                          "worst case over all demand matrices can be larger",
            "label_bits": b.label_bits, "header_bits": b.header_bits,
            "max_table_bits": max(b.bits.values()) if b.bits else None,
            "total_table_bits": sum(b.bits.values()) if b.bits else None,
            "scale_events": b.events,
        }
        d = out / scheme
        d.mkdir(parents=True, exist_ok=True)
        (d / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        experiment._write_csvs(d, report, b.bits, g.n)


def csv_ratio(path: Path, c_opt: float) -> float:
    """Congestion recomputed from a written loads.csv, over c_opt."""
    with path.open() as f:
        worst = max((float(r["load"]) / float(r["cap"]) for r in csv.DictReader(f)), default=0.0)
    return worst / c_opt


def check_run(run: Run, out_dir: Path, ops: Ops) -> dict[str, float]:
    """Output checks of one full run; returns the ratio per routed scheme."""
    ops.check(not run.tree_audit, f"tree audit: {run.tree_audit[:3]}")
    ratios = {}
    for scheme, b in run.built.items():
        ops.check(not b.audits, f"{scheme} audit: {b.audits[:3]}")
        report = run.reports.get(scheme)
        ops.check(report is not None, f"{scheme} routing: {run.problems.get(scheme)}",
                  n=run.pairs)
        if report is None:
            continue
        ops.check(all(run.g.has_edge(u, v) for u, v in report.edge_loads),
                  f"{scheme}: load on a non-edge")
        bound = (experiment._guarantee_factor(scheme, run.tree, b.backend)
                 * run.cert.int_value * run.c_opt)
        slack = 3.0 * max(report.edge_stderr.values(), default=0.0)
        ops.check(report.congestion <= bound + slack,
                  f"{scheme}: congestion {report.congestion:.6g} exceeds guarantee {bound:.6g}")
        ratio = optimum.competitive_ratio(report.congestion, run.c_opt)
        from_csv = csv_ratio(out_dir / scheme / "loads.csv", run.c_opt)
        ops.check(abs(from_csv - ratio) <= 1e-7 * ratio,
                  f"{scheme}: ratio {ratio!r} but loads.csv gives {from_csv!r}")
        ratios[scheme] = ratio
    return ratios


def path_ok(g, s: int, t: int, path) -> bool:
    """A query path starts at s, ends at t and steps only along real edges."""
    return (isinstance(path, list) and len(path) >= 2 and path[0] == s and path[-1] == t
            and all(g.has_edge(a, b) for a, b in zip(path, path[1:])))


def query_phase(run: Run, w: Workload, seed: int, ops: Ops, stream: int = 0,
                seconds: float | None = None, count: int | None = None,
                clock: Clock | None = None, select=None) -> dict[str, list[int]]:
    """Closed loop, one caller: each select_path call starts after the last returns.

    The schemes take turns, one query each, so their samples cover the same
    stretch of time. Each scheme cycles through the battery's pairs in an
    order shuffled by (seed, stream), so every pair is asked equally often.
    After WARMUP untimed turns, turns run for `seconds` or exactly `count`
    times. Returns per-scheme latencies in ns; every query, warm-up
    included, is one operation.
    """
    clock = clock or Clock()
    select = select or routing.select_path
    pairs = sorted(run.demands.entries)
    query_ids = itertools.count(1)
    streams = {}
    for i, scheme in enumerate(w.schemes):
        shuffle = np.random.default_rng(np.random.SeedSequence((seed, QUERY_STREAM, stream, i)))
        walk = np.random.default_rng(np.random.SeedSequence((seed, QUERY_STREAM, stream, i, 1)))
        streams[scheme] = (itertools.cycle(shuffle.permutation(len(pairs)).tolist()), walk)

    def query(scheme: str) -> int:
        order, walk = streams[scheme]
        s, t = pairs[next(order)]
        if clock.tracer:
            clock.tracer.trace_id = next(query_ids)
        with clock.stage("query", scheme):
            t0 = time.perf_counter_ns()
            try:
                path = select(s, t, run.tree, run.built[scheme].backend, walk)
            except Exception:   # a query that raises is a failed operation
                path = None
            dt = time.perf_counter_ns() - t0
        if clock.tracer:
            clock.tracer.trace_id = 0
        ops.check(path_ok(run.g, s, t, path), f"{scheme}: bad path for ({s},{t})")
        return dt

    for _ in range(WARMUP):
        for scheme in w.schemes:
            query(scheme)
    latencies: dict[str, list[int]] = {scheme: [] for scheme in w.schemes}
    turns, t_end = 0, time.perf_counter() + (seconds or 0.0)
    while turns < count if count is not None else time.perf_counter() < t_end:
        for scheme in w.schemes:
            latencies[scheme].append(query(scheme))
        turns += 1
    return latencies


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcome(run: Run, ratios: dict[str, float]) -> dict:
    """What every round of one seed must reproduce exactly."""
    return {"clusters": len(run.tree.clusters), "height": run.tree.height,
            "certificate": run.cert.value, "c_opt": run.c_opt, "ratios": ratios,
            "bits": {s: max(b.bits.values()) for s, b in run.built.items() if b.bits}}


def untraced(w: Workload, seed: int, seconds: float, out_dir: Path, ops: Ops) -> dict:
    """The end-to-end run: full runs, each followed by one query slice, for as
    long as another such round still fits in `seconds` (MIN_ROUNDS at the least)."""
    rounds, slices, first = [], defaultdict(list), None
    t0 = time.perf_counter()
    last = 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() + last <= t0 + seconds:
        t_round = time.perf_counter()
        run = full_run(w, seed, out_dir)
        result = outcome(run, check_run(run, out_dir, ops))
        if first is None:
            first = result
        ops.check(result == first, f"round {len(rounds)} results differ from round 0")
        for scheme, ns in query_phase(run, w, seed, ops, stream=len(rounds),
                                      seconds=SLICE_S).items():
            slices[scheme].append(ns)
        rounds.append(round_record(run))
        del run
        last = time.perf_counter() - t_round
    return {"rounds": rounds, "slices": dict(slices), "outcome": first,
            "peak_rss_mb": peak_rss_mb()}


def round_record(run: Run) -> dict:
    """A full run's times, per stage and per stage and scheme, with its calibrate() times."""
    return {"run_s": run.run_s, **run.times, "cal": run.cal}


def speed(record: dict) -> float:
    """A round's speed: CAL_REF_S over the mean of its calibrate() times."""
    return CAL_REF_S / statistics.fmean(record["cal"])


def stage_times(record: dict, schemes, scaled: bool = True) -> dict[str, float]:
    """A round's run_s, setup_s, oracle_s and loads_s (summed over `schemes`),
    with `scaled` multiplied by the round's speed."""
    f = speed(record) if scaled else 1.0
    return {"run_s": record["run_s"] * f, "setup_s": record["setup"] * f,
            "oracle_s": record["oracle"] * f,
            "loads_s": sum(record[f"loads.{s}"] for s in schemes) * f}


def stage_medians(records: list[dict], schemes, scaled: bool = True) -> dict[str, float]:
    """Medians over round records of stage_times."""
    times = [stage_times(r, schemes, scaled) for r in records]
    return {key: statistics.median(t[key] for t in times) for key in times[0]}


def end_to_end_metrics(summary: dict) -> tuple[dict, dict]:
    """(metrics named in BENCHMARK.json, extra figures that are only printed).

    Other work on the machine slows every round down, and on the 2-core
    virtual machine of baseline.json by up to 1.7x, for seconds to many
    minutes at a time, so no statistic of raw times within one run repeats
    between runs. Each round therefore also times calibrate(), fixed work
    outside obroute, before every stage, and a time is reported scaled to
    the speed at which calibrate() takes CAL_REF_S (see stage_times): the
    metric is the median over the rounds of the scaled times. Query
    percentiles are scaled by the speed of the round before each slice,
    and the figure is the median over the slices. The raw medians are printed
    beside them as raw.*.
    """
    rounds = summary["rounds"]
    schemes = list(summary["slices"])
    m = {k: (v, "s") for k, v in stage_medians(rounds, schemes).items()}
    extra = {f"raw.{k}": (v, "s")
             for k, v in stage_medians(rounds, schemes, scaled=False).items()}
    extra["calibrate_ms"] = (1000.0 * statistics.median(c for r in rounds for c in r["cal"]),
                             "ms")
    extra["rounds"] = (len(rounds), "count")
    for scheme, slices in summary["slices"].items():
        per_slice = [np.percentile(np.asarray(ns, dtype=float) / 1000.0, [50, 90])
                     * speed(r)
                     for ns, r in zip(slices, rounds)]
        p50, p90 = np.median(per_slice, axis=0)
        extra[f"route_us_p50.{scheme}"] = (float(p50), "us")
        extra[f"route_us_p90.{scheme}"] = (float(p90), "us")
        extra[f"queries.{scheme}"] = (sum(len(ns) for ns in slices), "count")
    for scheme, ratio in summary["outcome"]["ratios"].items():
        m[f"ratio.{scheme}"] = (ratio, "ratio")
    for scheme, bits in summary["outcome"]["bits"].items():
        m[f"max_table_bits.{scheme}"] = (float(bits), "bits")
    m["peak_rss_mb"] = (summary["peak_rss_mb"], "MiB")
    return m, extra
