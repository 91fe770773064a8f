"""The master LP is one HiGHS model built from the tree pool's column arrays.

`cmcf._TreePool.solve_master` passes its model straight to HiGHS through
`cmcf._solve_lp`, with the options linprog sets, so its vertex and duals are
linprog's bit for bit; `linprog` survives only in `helpers.linprog_master`,
the oracle here.
"""
from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obroute
from obroute import cmcf
from obroute.decomposition import build_tree, certify_congestion
from obroute.experiment import demand_battery
from obroute.graph import generate_graph, grid_graph
from obroute.optimum import optimal_congestion
from helpers import column_matrix, linprog_master

CORE = "scipy.optimize._highspy._core"
# every name of CORE the package reads, with the attributes it reads of them
USED = [
    "HighsLp", "HighsModelStatus.kModelError", "HighsModelStatus.kNotset",
    "HighsModelStatus.kOptimal",
    "HighsOptions", "HighsStatus.kError", "MatrixFormat.kColwise", "_Highs.passOptions",
    "_Highs.passModel", "_Highs.run", "_Highs.getModelStatus", "_Highs.modelStatusToString",
    "_Highs.getSolution", "HighsSolution.col_value", "HighsSolution.row_dual", "kHighsInf",
    "simplex_constants.SimplexStrategy.kSimplexStrategyDual",
]
LP_FIELDS = ["num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_", "row_lower_",
             "row_upper_", "a_matrix_"]
MATRIX_FIELDS = ["format_", "num_col_", "num_row_", "start_", "index_", "value_"]
OPTION_FIELDS = ["presolve", "simplex_strategy", "output_flag", "log_to_console"]


def test_the_private_highs_api_the_package_uses_exists():
    # scipy.optimize._highspy is private: a SciPy that moves a name fails
    # here by that name, not deep inside a certification
    core = importlib.import_module(CORE)
    missing = []
    for name in USED:
        obj = core
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    lp, options = core.HighsLp(), core.HighsOptions()
    missing += [f"HighsLp.{f}" for f in LP_FIELDS if not hasattr(lp, f)]
    missing += [f"HighsSparseMatrix.{f}" for f in MATRIX_FIELDS
                if not hasattr(lp.a_matrix_, f)]
    missing += [f"HighsOptions.{f}" for f in OPTION_FIELDS if not hasattr(options, f)]
    if missing:
        pytest.fail(f"{CORE} lacks {', '.join(missing)}")


def test_the_api_list_covers_every_import():
    # a name imported from CORE anywhere in the package must be checked above
    roots = {name.split(".")[0] for name in USED}
    imported = {alias.name
                for path in Path(obroute.__file__).parent.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == CORE
                for alias in node.names}
    assert imported and imported <= roots, sorted(imported - roots)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("case, master_lps", [
    ("grid-8x8 certify", 29), ("torus-6x6 certify", 24),
    ("grid-10x10 uniform_pairs:24 oracle", 5),
])
def test_direct_master_equals_linprog_bit_for_bit(monkeypatch, case, master_lps):
    # on every master LP of the run: the tree weights, the convexity duals
    # and the edge lengths
    solve, compared = cmcf._TreePool.solve_master, []

    def checked(pool, caps):
        got = solve(pool, caps)
        compared.append([_bits(a) == _bits(b) for a, b in zip(got, linprog_master(pool, caps))])
        return got

    monkeypatch.setattr(cmcf._TreePool, "solve_master", checked)
    if case.endswith("certify"):
        kind, side = case.split("-")[0], int(case.split("-")[1].split("x")[0])
        g = generate_graph(kind, rows=side, cols=side)
        certify_congestion(g, build_tree(g, target_arity=2, seed=0))
    else:
        g = grid_graph(10, 10)
        optimal_congestion(g, demand_battery("uniform_pairs:24", g, 0))
    assert compared == [[True, True, True]] * master_lps


@st.composite
def pools(draw):
    m = draw(st.integers(1, 12))
    n_sources = draw(st.integers(1, 4))
    k = draw(st.integers(1, 15))
    amount = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))
    loads = np.array([[draw(amount) for _ in range(m)] for _ in range(k)])
    sources = np.array([draw(st.integers(0, n_sources - 1)) for _ in range(k)])
    pool = cmcf._TreePool(n_sources, m)
    pool.add(sources, np.zeros((k, 1), dtype=np.int32), loads)
    weight = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    x = np.array([draw(weight) for _ in range(len(pool.source))])
    return pool, x


@settings(max_examples=300, deadline=None)
@given(pools())
def test_pool_loads_equal_the_csr_product_bit_for_bit(case):
    pool, x = case
    assert _bits(pool.loads(x)) == _bits(column_matrix(pool) @ x)


def _two_column_lp():
    # min x0 + 2 x1 with x0 + x1 = 1 and x >= 0: x = (1, 0), row dual 1
    lp = cmcf.HighsLp()
    lp.num_col_, lp.num_row_ = 2, 1
    lp.col_cost_ = [1.0, 2.0]
    lp.col_lower_, lp.col_upper_ = [0.0, 0.0], [cmcf.kHighsInf] * 2
    lp.row_lower_, lp.row_upper_ = [1.0], [1.0]
    a = lp.a_matrix_
    a.format_ = cmcf.MatrixFormat.kColwise
    a.num_col_, a.num_row_ = 2, 1
    a.start_, a.index_, a.value_ = [0, 1, 2], [0, 0], [1.0, 1.0]
    return lp


def test_solve_lp_returns_values_and_duals():
    x, duals = cmcf._solve_lp(_two_column_lp())
    assert x.tolist() == [1.0, 0.0] and duals.tolist() == [1.0]


def _infeasible(lp):
    lp.col_upper_ = [0.0, 0.0]


def _rejected(lp):
    lp.a_matrix_.index_ = [0, 5]     # row 5 of 1


@pytest.mark.parametrize("spoil, failing, message", [
    (_infeasible, None, "LP solver failed (status 8): Infeasible"),
    (_rejected, None, "LP solver failed (status 2): HiGHS rejected the model"),
    (None, "passOptions", "LP solver failed (status 0): HiGHS rejected the options"),
    (None, "passModel", "LP solver failed (status 2): HiGHS rejected the model"),
    (None, "run", "LP solver failed (status 7): HiGHS run failed, Optimal"),
], ids=["infeasible", "rejected", "options-error", "model-error", "run-error"])
def test_solver_failures_raise_before_the_solution_is_read(monkeypatch, spoil, failing,
                                                           message):
    # `failing` names the HiGHS call made to return kError after it ran
    read = []

    class Watched(cmcf._Highs):
        def _status(self, name, status):
            return cmcf.HighsStatus.kError if name == failing else status

        def passOptions(self, options):
            return self._status("passOptions", super().passOptions(options))

        def passModel(self, lp):
            return self._status("passModel", super().passModel(lp))

        def run(self):
            return self._status("run", super().run())

        def getSolution(self):
            read.append(True)
            return super().getSolution()

    monkeypatch.setattr(cmcf, "_Highs", Watched)
    lp = _two_column_lp()
    if spoil is not None:
        spoil(lp)
    with pytest.raises(RuntimeError) as err:
        cmcf._solve_lp(lp)
    assert str(err.value) == message
    assert read == []


def test_solver_failure_raises_under_python_O():
    # the check is a raise, not an assert, so optimisation keeps it
    script = ("import sys; sys.path[:0] = sys.argv[1:]; import test_master_lp as t\n"
              "from obroute import cmcf\n"
              "lp = t._two_column_lp(); t._infeasible(lp)\n"
              "try:\n    cmcf._solve_lp(lp)\nexcept RuntimeError as e:\n    print(e)\n")
    paths = [str(Path(__file__).parent), str(Path(obroute.__file__).parent.parent)]
    proc = subprocess.run([sys.executable, "-O", "-c", script, *paths],
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "LP solver failed (status 8): Infeasible", proc.stderr
