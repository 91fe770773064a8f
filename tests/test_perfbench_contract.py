"""The benchmark harness still drives the package: its self-test passes.

perfbench/ calls obroute stage by stage and wraps named obroute functions
for tracing, so a package change that breaks one of those calls or names
fails here rather than only when the benchmark runs. The self-test writes
under perfbench/out/ only.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "selftest: passed" in proc.stdout
