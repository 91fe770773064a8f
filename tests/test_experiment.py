"""Harness and CLI tests: config parsing, demand batteries, end-to-end runs."""
from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import path_graph, single_edge
from obroute import cmcf, experiment, routing
from obroute.cli import main
from obroute.decomposition import build_tree, certify_congestion
from obroute.experiment import (SCHEMES, demand_battery, graph_from_config,
                                load_config, parse_config, run_experiment)
from obroute.graph import grid_graph
from obroute.impl_b import audit_cube_scheme


# ---------------------------------------------------------------- config


def test_parse_config_defaults():
    cfg = parse_config("")
    assert cfg["schemes"] == "reference"
    assert cfg["demands"] == "permutation"
    assert "samples" not in cfg
    assert cfg["seed"] == "0"
    assert cfg["arity"] == "2"
    assert "assert_audit" not in cfg and "assert_bounds" not in cfg
    assert "graph" not in cfg and "generate" not in cfg


def test_parse_config_comments_and_spacing():
    text = "\n".join([
        "# a full-line comment",
        "seed = 7   # trailing comment",
        "",
        "arity=3",
        "schemes = reference , impl-a",
    ])
    cfg = parse_config(text)
    assert cfg["seed"] == "7"
    assert cfg["arity"] == "3"
    assert cfg["schemes"] == "reference , impl-a"


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="line 2.*unknown key 'sample'"):
        parse_config("seed = 1\nsample = 10")
    with pytest.raises(ValueError, match="unknown key 'samples'"):
        parse_config("samples = 10")
    with pytest.raises(ValueError, match="unknown key 'assert_audit'"):
        parse_config("assert_audit = on")
    with pytest.raises(ValueError, match="unknown key 'assert_bounds'"):
        parse_config("assert_bounds = on")


def test_parse_config_rejects_bad_line():
    with pytest.raises(ValueError, match="line 1.*expected 'key = value'"):
        parse_config("just some words")


def test_parse_config_rejects_a_repeated_key():
    with pytest.raises(ValueError, match=r"^config line 2: key 'seed' repeats line 1$"):
        parse_config("seed = 1\nseed = 2")
    with pytest.raises(ValueError, match=r"^config line 4: key 'schemes' repeats line 2$"):
        parse_config("# run\nschemes = impl-a\nseed = 1\nschemes=impl-b")
    # a key given once overrides its default
    assert parse_config("schemes = impl-a")["schemes"] == "impl-a"


def test_cli_rejects_a_repeated_config_key_before_building(tmp_path, capsys, monkeypatch):
    def no_tree(*args, **kwargs):
        raise AssertionError("a tree was built")

    monkeypatch.setattr(experiment, "build_tree", no_tree)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("generate = grid:2x2\nseed = 1\nseed = 2\n")
    out = tmp_path / "out"
    assert main(["route", "--config", str(cfg_file), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: config line 3: key 'seed' repeats line 2"]
    assert not out.exists()


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("generate = grid:2x2\nseed = 3\n")
    cfg = load_config(path)
    assert cfg["generate"] == "grid:2x2"
    assert cfg["seed"] == "3"


# ---------------------------------------------------------------- generators


def test_generator_specs():
    g = graph_from_config({"generate": "grid:3x4"})
    assert (g.n, len(g.edges)) == (12, 17)
    assert g.uniform_capacities()

    g = graph_from_config({"generate": "torus:3x3"})
    assert (g.n, len(g.edges)) == (9, 18)

    g = graph_from_config({"generate": "hypercube:3"})
    assert (g.n, len(g.edges)) == (8, 12)

    g = graph_from_config({"generate": "random_regular:8,3"})
    assert g.n == 8
    assert all(g.degree(v) == 3 for v in range(8))

    g = graph_from_config({"generate": "grid:2x2:2-4"})
    caps = {c for _, _, c in g.edges}
    assert caps <= {2, 3, 4} and len(caps) > 1


def test_generator_spec_errors():
    with pytest.raises(ValueError, match="bad generator spec"):
        graph_from_config({"generate": "grid:3"})
    with pytest.raises(ValueError, match="unknown generator kind"):
        graph_from_config({"generate": "blob:4"})
    with pytest.raises(ValueError, match="exactly one of"):
        graph_from_config({})
    with pytest.raises(ValueError, match="exactly one of"):
        graph_from_config({"graph": "x", "generate": "grid:2x2"})


def test_graph_from_file(tmp_path):
    path = tmp_path / "k2.graph"
    path.write_text("2 1\n0 1 1\n")
    g = graph_from_config({"graph": str(path)})
    assert (g.n, len(g.edges)) == (2, 1)


# ---------------------------------------------------------------- batteries


def test_permutation_battery_frozen():
    # Seeded generator output, observed once and frozen; must be a derangement.
    g = grid_graph(2, 2)
    d = demand_battery("permutation", g, 1)
    assert dict(d.entries) == {(0, 2): 1.0, (1, 3): 1.0, (2, 0): 1.0, (3, 1): 1.0}
    assert dict(demand_battery("permutation", g, 1).entries) == dict(d.entries)
    other = demand_battery("permutation", g, 2)
    assert dict(other.entries) != dict(d.entries)
    for (s, t), v in other.entries.items():
        assert s != t and v == 1.0
    sources = [s for s, _ in other.entries]
    targets = [t for _, t in other.entries]
    assert sorted(sources) == sorted(targets) == list(range(4))


def test_permutation_battery_tiny_graph():
    assert demand_battery("permutation", path_graph(1), 0).entries == {}
    assert dict(demand_battery("permutation", single_edge(), 5).entries) == {
        (0, 1): 1.0, (1, 0): 1.0}


def test_uniform_pairs_battery():
    g = grid_graph(2, 2)
    assert demand_battery("uniform_pairs:0", g, 1).entries == {}
    d = demand_battery("uniform_pairs:3", g, 1)
    assert dict(d.entries) == {(1, 0): 1.0, (1, 2): 1.0, (1, 3): 1.0}  # frozen
    with pytest.raises(ValueError, match="only 12 exist"):
        demand_battery("uniform_pairs:13", g, 1)


@pytest.mark.parametrize("k", ["-1", "1.5", "two", pytest.param("", id="empty"),
                               pytest.param(None, id="missing")])
def test_uniform_pairs_rejects_bad_k(k, capsys):
    spec = "uniform_pairs" if k is None else f"uniform_pairs:{k}"
    with pytest.raises(ValueError, match=f"demand battery '{spec}'"):
        demand_battery(spec, grid_graph(2, 2), 1)
    assert main(["route", "--generate", "grid:2x2", "--scheme", "reference",
                 "--demands", spec]) == 2
    assert (f"error: demand battery '{spec}': k must be a non-negative "
            "integer") in capsys.readouterr().err


def test_bad_battery_fails_before_the_tree(monkeypatch, tmp_path):
    # the battery needs only the graph and the seed; a bad one is rejected
    # before any tree is built or certified
    def never(*args, **kwargs):
        raise AssertionError("called before the battery was checked")

    monkeypatch.setattr(experiment, "build_tree", never)
    monkeypatch.setattr(experiment, "certify_congestion", never)
    cfg = parse_config("generate = grid:3x3\ndemands = uniform_pairs:-1\n")
    with pytest.raises(ValueError, match="k must be a non-negative integer"):
        run_experiment(cfg, out_dir="unused")
    far = tmp_path / "far.txt"
    far.write_text("0 1 1\n0 9 1\n")
    cfg["demands"] = f"file:{far}"
    with pytest.raises(ValueError, match="line 2: vertex outside 0..8"):
        run_experiment(cfg, out_dir="unused")
    for spec in ("permutation:9", "gravity:x", "gravity:"):
        cfg["demands"] = spec
        with pytest.raises(ValueError, match=f"demand battery '{spec}': .* takes no argument"):
            run_experiment(cfg, out_dir="unused")


@pytest.mark.parametrize("schemes, message", [
    ("", "names no scheme"),
    (" , ", "names no scheme"),
    ("impl-a, impl-a", "scheme 'impl-a' is listed twice"),
    ("reference,impl-b,reference", "scheme 'reference' is listed twice"),
])
def test_bad_scheme_list_fails_before_the_tree(schemes, message, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("called before the scheme list was checked")

    monkeypatch.setattr(experiment, "build_tree", never)
    cfg = parse_config(f"generate = grid:3x3\nschemes = {schemes}\n")
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg, out_dir="unused")


def test_cli_rejects_a_repeated_scheme(tmp_path, capsys):
    assert main(["route", "--generate", "grid:3x3", "--scheme", "impl-a",
                 "--scheme", "impl-a", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: scheme 'impl-a' is listed twice"]
    assert not any(tmp_path.iterdir())


def test_gravity_battery():
    assert dict(demand_battery("gravity", single_edge(), 0).entries) == {(0, 1): 1.0}
    # path on 3 vertices: degree products 1*2, 1*1, 2*1 for the u < v pairs
    assert dict(demand_battery("gravity", path_graph(3), 0).entries) == {
        (0, 1): 2.0, (0, 2): 1.0, (1, 2): 2.0}


def test_file_battery(tmp_path):
    path = tmp_path / "demands.txt"
    path.write_text("0 2 1.5\n# comment line\n1 3 2\n")
    d = demand_battery(f"file:{path}", grid_graph(2, 2), 0)
    assert dict(d.entries) == {(0, 2): 1.5, (1, 3): 2.0}

    for text, match in [("0 1 1\n0 2\n", "line 2: expected 's t d'"),
                        ("0 1 1\n\n0 4 1\n", "line 3: vertex outside 0..3"),
                        ("-1 1 1\n", "line 1: vertex outside 0..3"),
                        ("0 1 1\n0 1 5\n", r"line 2: duplicate pair \(0,1\)"),
                        ("2 2 1\n", "line 1: demand from 2 to itself"),
                        ("0 1 x\n", "line 1: non-numeric field"),
                        ("0 1.5 1\n", "line 1: non-numeric field"),
                        ("0 1 1\n0 2 -5\n", "line 2: amount must be finite and >= 0"),
                        ("0 1 nan\n", "line 1: amount must be finite and >= 0"),
                        ("0 1 inf\n", "line 1: amount must be finite and >= 0")]:
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(ValueError, match=match):
            demand_battery(f"file:{bad}", grid_graph(2, 2), 0)


def test_unknown_battery_kind():
    with pytest.raises(ValueError, match="unknown demand battery.*gravity"):
        demand_battery("chaos", single_edge(), 0)


# ---------------------------------------------------------------- run_experiment


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid-run")
    cfg = parse_config("")
    cfg.update({"generate": "grid:3x3", "schemes": ",".join(SCHEMES), "seed": "1"})
    code, failures = run_experiment(cfg, out)
    return out, code, failures


def test_run_experiment_exit_code(grid_run):
    _, code, failures = grid_run
    assert failures == []
    assert code == 0


def test_run_experiment_report_fields(grid_run):
    out, _, _ = grid_run
    for scheme in SCHEMES:
        data = json.loads((out / scheme / "report.json").read_text())
        assert data["scheme"] == scheme
        assert data["graph"]["n"] == 9
        assert data["tree"]["height"] >= 1
        assert data["certificate"]["int_value"] >= 1
        assert data["pairs"] == 9
        assert data["estimator"] == "exact" and "samples" not in data
        assert data["c_opt"] > 0
        assert data["ratio"] == pytest.approx(data["congestion"] / data["c_opt"])
        assert "lower" in data["ratio_note"] or "battery" in data["ratio_note"]
        if scheme == "reference":
            assert data["max_table_bits"] is None
            assert data["label_bits"] is None
        else:
            assert data["max_table_bits"] > 0
            assert data["total_table_bits"] >= data["max_table_bits"]
            assert data["label_bits"] > 0 and data["header_bits"] > 0


def test_run_experiment_csv_shapes(grid_run):
    out, _, _ = grid_run
    for scheme in SCHEMES:
        loads = (out / scheme / "loads.csv").read_text().splitlines()
        assert loads[0] == "u,v,cap,load,stderr"
        assert len(loads) == 1 + 12  # one row per grid edge
        assert {row.split(",")[4] for row in loads[1:]} == {"0"}
        tables = (out / scheme / "tables.csv").read_text().splitlines()
        assert tables[0] == "vertex,bits"
        assert len(tables) == 1 + 9
        bits = [int(row.split(",")[1]) for row in tables[1:]]
        if scheme == "reference":
            assert set(bits) == {0}
        else:
            assert max(bits) > 0


def test_hops_npz_gives_the_reported_congestion(grid_run):
    # each scheme's hops.npz holds one row per hop the battery crosses, in
    # sorted order; the demand through each hop (_through) times its row,
    # added in row order, gives report.json's congestion to the last bit
    out, _, _ = grid_run
    g = grid_graph(3, 3)
    tree = build_tree(g, target_arity=2, seed=1)
    through = routing._through(tree, g.n, demand_battery("permutation", g, 1).entries)
    children = [tree.cluster(child) for _, child in through]
    for scheme in SCHEMES:
        with np.load(out / scheme / "hops.npz") as hops:
            assert list(zip(hops["downward"].tolist(), hops["child"].tolist())) == list(through)
            assert hops["total_border"].tolist() == [c.total_border for c in children]
            assert hops["level"].tolist() == [c.level for c in children]
            assert hops["loads"].shape == (len(through), g.m)
            totals = np.zeros(g.m)
            for d, row in zip(through.values(), hops["loads"]):
                totals += d * row
        hit = np.flatnonzero(totals)
        congestion = max(x / g.edges[e][2] for e, x in zip(hit.tolist(), totals[hit].tolist()))
        report = json.loads((out / scheme / "report.json").read_text())
        assert congestion == report["congestion"], scheme


def test_run_experiment_validates_config():
    cfg = parse_config("")
    cfg.update({"generate": "grid:2x2", "schemes": "impl-c"})
    with pytest.raises(ValueError, match="unknown scheme 'impl-c'"):
        run_experiment(cfg, "unused")
    cfg.update({"schemes": "reference", "seed": "-1"})
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run_experiment(cfg, "unused")


def test_run_experiment_rejects_cubes_on_weighted_graphs(tmp_path):
    cfg = parse_config("")
    cfg.update({"generate": "grid:2x2:2-4", "schemes": "impl-b"})
    with pytest.raises(ValueError, match="uniform unit edge capacities"):
        run_experiment(cfg, tmp_path)


def test_single_edge_ratios(tmp_path):
    # Permutation on two vertices is the swap; C_opt = 2 on the unit edge.
    # All three schemes route the lone edge exactly once per unit of demand,
    # so every measured ratio is exactly 1.  The cube scheme's walks are
    # one-phase, not the paper's two-phase walks through a random
    # intermediate node, so they never bounce: the spread in the root crosses
    # the edge iff it draws the target's node, and the descent crosses it iff
    # the spread did not.
    graph_file = tmp_path / "k2.graph"
    graph_file.write_text("2 1\n0 1 1\n")
    cfg = parse_config("")
    cfg.update({"graph": str(graph_file), "schemes": ",".join(SCHEMES), "seed": "3"})
    code, failures = run_experiment(cfg, tmp_path / "out")
    assert code == 0 and failures == []
    ratios = {s: json.loads((tmp_path / "out" / s / "report.json").read_text())["ratio"]
              for s in SCHEMES}
    assert ratios["reference"] == 1.0
    assert ratios["impl-a"] == 1.0
    assert ratios["impl-b"] == 1.0


def _strip_timestamp(path: Path) -> str:
    return "\n".join(line for line in path.read_text().splitlines()
                     if '"timestamp"' not in line)


def test_reports_reproducible_modulo_timestamp(tmp_path):
    cfg = parse_config("")
    cfg.update({"generate": "grid:2x2", "schemes": ",".join(SCHEMES), "seed": "4"})
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for scheme in SCHEMES:
        a, b = tmp_path / "a" / scheme, tmp_path / "b" / scheme
        assert _strip_timestamp(a / "report.json") == _strip_timestamp(b / "report.json")
        assert (a / "loads.csv").read_bytes() == (b / "loads.csv").read_bytes()
        assert (a / "tables.csv").read_bytes() == (b / "tables.csv").read_bytes()
        with np.load(a / "hops.npz") as x, np.load(b / "hops.npz") as y:
            assert x.files == y.files
            assert all(np.array_equal(x[name], y[name]) for name in x.files)


# ---------------------------------------------------------------- cli


def test_cli_build(tmp_path, capsys):
    assert main(["build", "--generate", "grid:3x3", "--out-dir", str(tmp_path)]) == 0
    outp = capsys.readouterr().out
    assert "tree: height=" in outp and "certificate: value=" in outp
    data = json.loads((tmp_path / "tree.json").read_text())
    assert data["clusters"][0]["vertices"] == list(range(9))
    assert data["certificate"]["int_value"] >= 1


def test_cli_route_with_config_and_overlay(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("generate = grid:2x2\nschemes = reference\n"
                        f"out_dir = {tmp_path / 'out'}\n")
    code = main(["route", "--config", str(cfg_file), "--scheme", "impl-a"])
    assert code == 0
    assert (tmp_path / "out" / "impl-a" / "report.json").exists()
    assert not (tmp_path / "out" / "reference").exists()  # overlay replaced the list
    outp = capsys.readouterr().out
    assert "impl-a: congestion=" in outp and "max_table_bits=" in outp


def test_cli_route_requires_a_graph(capsys):
    assert main(["route", "--scheme", "reference"]) == 2
    assert "exactly one of" in capsys.readouterr().err


def test_cli_route_rejects_cubes_on_weighted_graphs(tmp_path, capsys):
    code = main(["route", "--generate", "grid:2x2:2-4", "--scheme", "impl-b",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "uniform unit edge capacities" in capsys.readouterr().err


def test_cubes_on_weighted_graphs_fail_before_the_tree(tmp_path, monkeypatch, capsys):
    # impl-b listed after another scheme: no tree, no scheme directory
    def never(*args, **kwargs):
        raise AssertionError("tree built for a scheme list that cannot run")

    monkeypatch.setattr(experiment, "build_tree", never)
    out = tmp_path / "out"
    code = main(["route", "--generate", "grid:3x3:1-4", "--scheme", "reference",
                 "--scheme", "impl-b", "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: hypercube scheme requires uniform unit edge capacities"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "route", "audit"])
def test_cli_rejects_a_negative_seed(command, tmp_path, capsys):
    out = [] if command == "audit" else ["--out-dir", str(tmp_path)]
    assert main([command, "--generate", "grid:2x2", "--seed", "-1", *out]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key", ["seed", "arity"])
def test_cli_names_a_config_key_that_is_not_an_integer(key, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"generate = grid:2x2\n{key} = abc\n")
    out = tmp_path / "out"
    assert main(["route", "--config", str(cfg_file), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: config key '{key}' must be an integer, got 'abc'"]
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["build", "--graph", "{dir}"],
    ["route", "--config", "{dir}"],
    ["route", "--generate", "grid:2x2", "--demands", "file:"],     # reads "."
])
def test_cli_reports_a_directory_read_as_a_file(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = [a.format(dir=tmp_path) for a in args]
    assert main([*args, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "Is a directory" in err[0]


def test_cli_maps_solver_failure_to_exit_2(tmp_path, monkeypatch, capsys):
    def failing_linprog(*args, **kwargs):
        return SimpleNamespace(status=4, message="numerical difficulties")

    monkeypatch.setattr(cmcf, "linprog", failing_linprog)
    assert main(["build", "--generate", "grid:2x2", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: LP solver failed (status 4): numerical difficulties"]


def test_cli_audit(capsys):
    assert main(["audit", "--generate", "grid:2x2"]) == 0
    outp = capsys.readouterr().out
    assert "weight identities: ok" in outp
    assert "impl-a flows: ok" in outp
    assert "impl-b mappings: ok" in outp

    assert main(["audit", "--generate", "grid:2x2:2-4"]) == 0
    outp = capsys.readouterr().out
    assert "impl-b mappings: skipped" in outp


def test_cli_audit_checks_the_cubes_route_builds(monkeypatch, capsys):
    audited = []

    def recording_audit(scheme):
        audited.append(scheme)
        return audit_cube_scheme(scheme)

    monkeypatch.setattr(experiment, "audit_cube_scheme", recording_audit)
    assert main(["audit", "--generate", "grid:4x4", "--seed", "3",
                 "--scheme", "impl-b"]) == 0
    assert "impl-b mappings: ok" in capsys.readouterr().out
    monkeypatch.undo()

    g = grid_graph(4, 4)
    tree = build_tree(g, seed=3)
    cert = certify_congestion(g, tree, store_solutions=True)
    routed = experiment._build_backend("impl-b", g, tree, cert, seed=3)[0]
    (checked,) = audited
    for cid in routed.mains:
        for cubes in ("mains", "shuffles"):
            assert (getattr(checked, cubes)[cid].edge_paths
                    == getattr(routed, cubes)[cid].edge_paths)


def test_cli_report(tmp_path, capsys):
    cfg = parse_config("")
    cfg.update({"generate": "grid:2x2", "schemes": "reference,impl-a", "seed": "0"})
    run_experiment(cfg, tmp_path)
    capsys.readouterr()
    assert main(["report", "--out-dir", str(tmp_path)]) == 0
    outp = capsys.readouterr().out
    assert outp.splitlines()[0].startswith("scheme")
    assert "reference" in outp and "impl-a" in outp
    assert " - " in outp  # reference has no table bits

    assert main(["report", "--out-dir", str(tmp_path / "empty")]) == 1

    (tmp_path / "blank").mkdir()
    (tmp_path / "blank" / "report.json").write_text("{}")
    capsys.readouterr()
    assert main(["report", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == f"error: {tmp_path / 'blank' / 'report.json'}: missing field 'scheme'"

    # a report whose top level is not an object, that is not JSON at all, or
    # whose field has the wrong type
    report = json.loads((tmp_path / "reference" / "report.json").read_text())
    for text, reason in [("[]", "top level is a JSON list, not an object"),
                         ("not json", "Expecting value: line 1 column 1 (char 0)"),
                         (json.dumps({**report, "congestion": None}),
                          "unsupported format string passed to NoneType.__format__")]:
        (tmp_path / "blank" / "report.json").write_text(text)
        assert main(["report", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"error: {tmp_path / 'blank' / 'report.json'}: {reason}"


def test_empty_file_battery_has_zero_optimum(tmp_path):
    empty = tmp_path / "none.txt"
    empty.write_text("# no demands\n")
    cfg = parse_config("")
    cfg.update({"generate": "grid:2x2", "schemes": ",".join(SCHEMES),
                "demands": f"file:{empty}"})
    code, failures = run_experiment(cfg, tmp_path / "out")
    assert code == 0 and failures == []
    for scheme in SCHEMES:
        report = json.loads((tmp_path / "out" / scheme / "report.json").read_text())
        assert (report["pairs"], report["c_opt"], report["congestion"], report["ratio"]) == \
            (0, 0.0, 0.0, 1.0)
