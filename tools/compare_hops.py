"""Compare the per-hop loads of two tools/snapshot.sh outputs.

    python3 tools/compare_hops.py OUT1 OUT2

For each route-* run and scheme, prints `identical` when its hops.npz and
report congestion agree to the last bit; `different hops` when the two cross
different hops; or else the largest difference of its hop rows, relative to
the largest hop-row entry of OUT1, and the relative difference of its
congestion.
"""
import json
import sys
from pathlib import Path

import numpy as np

old, new = map(Path, sys.argv[1:3])
for run in sorted(path.name for path in old.glob("route-*")):
    for scheme in ("reference", "impl-a", "impl-b"):
        paths = [root / run / f"{scheme}-hops.npz" for root in (old, new)]
        if not all(path.exists() for path in paths):
            print(run, scheme, "no hops.npz")
            continue
        with np.load(paths[0]) as a, np.load(paths[1]) as b:
            same = a.files == b.files and all(np.array_equal(a[f], b[f]) for f in a.files
                                              if f != "loads")
            rows, other = a["loads"], b["loads"]
        if not same or rows.shape != other.shape:
            print(run, scheme, "different hops")
            continue
        x, y = (json.loads((root / run / f"{scheme}-report.json").read_text())["congestion"]
                for root in (old, new))
        if np.array_equal(rows, other) and x == y:
            print(run, scheme, "identical")
        else:
            print(run, scheme, f"hop rows {np.abs(rows - other).max() / np.abs(rows).max():.2g}",
                  f"congestion {np.divide(abs(x - y), abs(x)):.2g}")
