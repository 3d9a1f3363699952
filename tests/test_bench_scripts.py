"""The scripts under bench/ still run against the package: each is loaded by
path, as it stands, with its workload shrunk to a few steps. Each perf-claim
script's `measure` runs (in-process, or in child processes for peak_rss)
without writing a BENCH_*.json, and outputs.py compares two saved outputs."""

import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from conftest import CONFIG_DIR
from submhe.config import loads_config

ROOT = CONFIG_DIR.parent
BENCH = ROOT / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def scripts(monkeypatch, tmp_path):
    """(step_cost, oracle_cost), loaded by path; oracle_cost imports
    step_cost by name, and both write their results under tmp_path. The
    BLAS thread variables step_cost sets on import are restored after."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    step_cost = load("step_cost")
    monkeypatch.setitem(sys.modules, "step_cost", step_cost)
    oracle_cost = load("oracle_cost")
    for module in (step_cost, oracle_cost):
        monkeypatch.setattr(module, "RESULTS", tmp_path / module.RESULTS.name)
    return step_cost, oracle_cost


def bench_files():
    return {path.name: path.read_bytes() for path in ROOT.glob("BENCH_*.json")}


def test_step_cost_measures(scripts, certified_doc, tmp_path):
    step_cost, _ = scripts
    steps = certified_doc.mhe["M"] + 3
    before = bench_files()
    result = step_cost.measure(certified_doc, (1,), steps, 1)
    assert set(result) == {"oracle_off", "oracle_on"}
    for res in result.values():
        assert set(res) == {"K", "steps_timed", "p50_us", "p90_us", "loop_ms",
                            "growing", "by_looped"}
        assert res["steps_timed"] == steps - 1
        assert sum(cls["steps"] for cls in res["by_looped"].values()) == steps - 1
        assert res["growing"]["steps"] == certified_doc.mhe["M"]
    assert result["oracle_on"]["K"] == 25
    assert bench_files() == before
    assert not list(tmp_path.iterdir())


def test_oracle_cost_measures(scripts, certified_doc, monkeypatch, tmp_path):
    _, oracle_cost = scripts
    steps = certified_doc.mhe["M"] + 3
    for name, value in (("PROBE_SEEDS", (11,)), ("PROBE_TRIALS", 3),
                        ("LOOP_SEEDS", (1,)), ("STEPS", steps), ("REPEATS", 1)):
        monkeypatch.setattr(oracle_cost, name, value)
    before = bench_files()
    result = oracle_cost.measure()
    assert set(result) == {"probe_trial", "cold_probe_solve", "warm_loop_solve"}
    assert set(result["probe_trial"]) == {"count", "p50_us", "p90_us"}
    assert result["probe_trial"]["count"] == 3
    for kind in ("cold_probe_solve", "warm_loop_solve"):
        res = result[kind]
        assert set(res) == {"count", "p50_us", "p90_us", "iters"}
        assert sum(res["iters"].values()) == res["count"]
    assert bench_files() == before
    assert not list(tmp_path.iterdir())


def test_bench_scripts_run_on_a_searched_certificate(scripts, certified_doc,
                                                     monkeypatch):
    # each script sets its loop runs up as simulate does (cli.prepare_run),
    # so a config whose P is searched runs as it does under simulate
    step_cost, oracle_cost = scripts
    raw = json.loads((CONFIG_DIR / "case_study_certified.json").read_text())
    raw["certificate"]["P"] = "search"
    doc = loads_config(json.dumps(raw))
    assert doc.certificate is None
    steps = certified_doc.mhe["M"] + 3
    result = step_cost.measure(doc, (1,), steps, 1)
    assert result["oracle_off"]["K"] >= 1
    assert result["oracle_on"]["K"] == 25
    assert all(res["steps_timed"] == steps - 1 for res in result.values())
    monkeypatch.setattr(oracle_cost, "STEPS", steps)
    solves, iters = oracle_cost.loop_run(doc, 1)
    assert len(solves) == len(iters) > 0


def test_write_row_keeps_one_row_per_label(scripts, tmp_path):
    step_cost, _ = scripts
    results = tmp_path / "BENCH_test.json"
    step_cost.write_row(results, "bench/test.py", {"label": "a", "value": 1})
    step_cost.write_row(results, "bench/test.py", {"label": "b", "value": 2})
    step_cost.write_row(results, "bench/test.py", {"label": "a", "value": 3})
    doc = json.loads(results.read_text())
    assert doc == {"script": "bench/test.py",
                   "config": "configs/case_study_certified.json",
                   "rows": [{"label": "b", "value": 2}, {"label": "a", "value": 3}]}
    assert results.read_text().endswith("}\n")


def test_peak_rss_measures(scripts, certified_doc, monkeypatch, tmp_path):
    peak_rss = load("peak_rss")  # imports step_cost by name, as oracle_cost does
    monkeypatch.setattr(peak_rss, "RESULTS", tmp_path / peak_rss.RESULTS.name)
    steps = certified_doc.mhe["M"] + 3
    before = bench_files()
    result = peak_rss.measure((steps,), 1)
    assert set(result) == {"oracle_off", "oracle_on"}
    for cells in result.values():
        assert set(cells) == {str(steps)}
        cell = cells[str(steps)]
        assert len(cell["runs_mb"]) == 1
        assert cell["median_mb"] == cell["runs_mb"][0] > 0
    assert bench_files() == before
    assert not list(tmp_path.iterdir())


def test_src_lines_counts(capsys):
    src_lines = load("src_lines")
    text = ('"""Module docstring,\n\nover three lines."""\n'
            "\n"
            "# a comment\n"
            "def f(x):  # trailing comment\n"
            '    """Function docstring."""\n'
            "    s = '''a\n"
            "b'''\n"
            "    return (x +\n"
            "            1)\n")
    assert src_lines.code_lines(text) == 5  # def, the string's two lines, return's two
    src_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(p.relative_to(ROOT / "src").as_posix()
                     for p in (ROOT / "src").rglob("*.py"))
    assert [name for _, name in rows] == modules + ["total"]
    counts = [int(n) for n, _ in rows]
    assert all(n > 0 for n in counts[:-1]) and counts[-1] == sum(counts[:-1])


def test_outputs_names_the_first_difference(certified_doc, monkeypatch, tmp_path,
                                            capsys):
    # a shrunken matrix: one seed, a few steps past the growing phase, a
    # three-trial probe and one config per command
    outputs = load("outputs")
    probe = {"certificate": {"P": "search"},
             "analysis": {"L_Phi": "probe", "probe_seed": 7, "probe_trials": 3}}
    certified = "case_study_certified.json"
    for name, value in (("SEEDS", (1,)), ("STEPS", certified_doc.mhe["M"] + 3),
                        ("PROBE", probe),
                        ("COMMANDS", (("analyze-k", (outputs.PROBE_CONFIG,)),
                                      ("verify", (certified,)),
                                      ("certify", (certified,))))):
        monkeypatch.setattr(outputs, name, value)
    base, again, changed = (tmp_path / f"{name}.npz"
                            for name in ("base", "again", "changed"))
    assert outputs.main([str(base)]) == 0
    assert outputs.main([str(again), str(base)]) == 0  # the tree against itself
    assert "no difference" in capsys.readouterr().out

    with np.load(base) as saved:
        columns = {key: saved[key] for key in saved.files}
    assert f"cli/analyze-k/{outputs.PROBE_CONFIG}/text" in columns
    key = f"{certified}/seed1/K25_on/looped"
    columns[key] = columns[key].copy()
    columns[key][-1] += 1
    np.savez(changed, **columns)
    assert outputs.main([str(again), str(changed)]) == 1
    assert f"first difference from {changed}: {key}" in capsys.readouterr().out
