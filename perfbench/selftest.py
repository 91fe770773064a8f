"""Fast self-test of the benchmark harness on grid:4x4 (a few seconds).

  python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that counts, ratios and table bits repeat exactly across two runs of one
seed, and that a corrupted query path (one that steps along a non-edge) is
counted in ops_failed. Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import sys

import harness
import run

SMOKE = harness.Workload("smoke-4x4", 4, 4, "permutation",
                         ("reference", "impl-a", "impl-b"), 4,
                         why="self-test", stresses="all layers, briefly")


def corrupting(select, g, at: int):
    """select_path, except that call number `at` returns a path through a non-edge."""
    calls = 0

    def wrong(s, t, tree, backend, rng):
        nonlocal calls
        calls += 1
        path = select(s, t, tree, backend, rng)
        if calls == at:
            far = next(v for v in range(g.n) if v != path[0] and not g.has_edge(path[0], v))
            path = [path[0], far] + path[1:]
        return path
    return wrong


def main() -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    harness.WORKLOADS[SMOKE.name] = SMOKE
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        results = [run.single(harness, SMOKE.name, 7, 0.3, trace) for _ in range(2)]
        want = {m["name"]: m["unit"] for m in spec[section]}
        for r in results:
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == want, f"trace {trace}: every {section} metric with its unit "
                                f"(missing {sorted(want.keys() - got.keys())}, "
                                f"extra {sorted(got.keys() - want.keys())})")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                   f"trace {trace}: all {r['attempted']} operations pass")
        same = [k for k, v in results[0]["metrics"].items()
                if v["unit"] in ("count", "ratio", "bits")]
        differ = [k for k in same
                  if results[0]["metrics"][k] != results[1]["metrics"].get(k)]
        expect(bool(same) and not differ,
               f"trace {trace}: {len(same)} counts, ratios and bits repeat exactly "
               f"(differ: {differ})")

    ops = harness.Ops()
    result = harness.full_run(SMOKE, 7, run.OUT / "smoke-corrupt")
    wrong = corrupting(harness.routing.select_path, result.g, at=harness.WARMUP + 5)
    harness.query_phase(result, SMOKE, 7, ops, count=20, select=wrong)
    expect(ops.failed == 1 and ops.attempted == len(SMOKE.schemes) * (harness.WARMUP + 20),
           f"a non-edge query path counts as failed ({ops.failed} of {ops.attempted})")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
