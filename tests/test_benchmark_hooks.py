"""The names perfbench/child.py hooks into submhe still exist and still count
what it counts, and its kernel sweep still runs. child.py is loaded by path,
as it stands."""

import argparse
import importlib
import importlib.util

import numpy as np

from conftest import CONFIG_DIR

import submhe.harness as harness
from submhe.harness import lipschitz_probe, run_closed_loop

CHILD = CONFIG_DIR.parent / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_calls(monkeypatch, name):
    """Count the calls of harness.<name>, as child.py's untraced stamp does."""
    calls = []
    orig = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return orig(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def test_traced_targets_resolve():
    targets = load_child().TARGETS
    assert targets
    for mod_name, fn_name in targets:
        module = importlib.import_module(f"submhe.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_evaluate_stamps_one_loop_step(certified_doc, monkeypatch):
    doc = certified_doc
    calls = count_calls(monkeypatch, "evaluate")
    cfg = doc.scenario_config(doc.window_shapes(doc.certificate), K=25,
                              steps=6, oracle=False)
    assert run_closed_loop(cfg).steps == 6
    assert len(calls) == 6


def test_residual_sigma_parts_stamps_one_probe_trial(certified_doc,
                                                     monkeypatch):
    doc = certified_doc
    calls = count_calls(monkeypatch, "residual_sigma_parts")
    probe = lipschitz_probe(doc.window_shapes(doc.certificate), n_trials=3,
                            seed=0)
    assert np.isfinite(probe.value)
    assert len(calls) == 3


def test_kernel_sweep_runs_in_process(monkeypatch):
    # The sweep's solve_fixed_iters(prob, zeros(dim_z), K) and rep.point.z,
    # which only traced benchmark runs reach otherwise
    child = load_child()
    monkeypatch.setattr(child, "SWEEP_ROUNDS", 1)
    args = argparse.Namespace(config=CONFIG_DIR / "case_study_certified.json", seed=0)
    rc, result = child.run_sweep_mode(args)
    assert rc == 0, result
    assert set(result["us_per_iter"]) == {"29", "49", "119"}
