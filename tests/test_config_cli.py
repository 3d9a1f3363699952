import json
import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import CONFIG_DIR, child_env, count_calls

from submhe.analysis import AnalysisParams
from submhe.cli import prepare_run, run_cli
from submhe.config import json_value, load_config, loads_config
from submhe.errors import ContractionViolated, ParseError, ValidationError
from submhe.model import Box


@pytest.fixture(scope="module")
def base_dict():
    with open(CONFIG_DIR / "case_study.json") as fh:
        return json.load(fh)


# keys that are no longer accepted, each with a value the old schema took
DELETED_KEYS = [
    # the contraction base q is computed from the window shapes
    ("mhe", "phi_base", 0.98),
    # the t = 0 warm start is the prior
    ("scenario", "z0", [0.0, 0.0, 0.0, 0.0]),
    # disturbances are drawn from the system's W, the set the bounds assume
    ("scenario", "w1_box", [[-1.0, 1.0]] * 4),
    ("scenario", "w2_box", [[-1.0, 1.0]]),
    ("scenario", "oracle_tol", 1e-10),
    # the monitors run exactly when the oracle does
    ("scenario", "monitors", True),
    # the law saturates at system.u_box
    ("controller", "u_box", [[-1.0, 1.0]] * 2),
    # L_pi is ||gain||_2, derived from the law
    ("controller", "L_pi", 2.65),
    # gamma13 is b / (1 - a), derived from the law's vertex systems
    ("controller", "gamma13_slope", 28.8),
    # the LMI passes on a rounding margin derived from its inputs
    ("certificate", "tol", 1e-8),
    # the certificate search runs with a fixed budget
    ("certificate", "search_budget", 500),
    # the controller smoke test runs with fixed settings
    ("analysis", "smoke_radius", 1.0),
    ("analysis", "smoke_horizon", 300),
    ("analysis", "smoke_samples", 10),
    # K* exists whenever rho < 1, and the search brackets it by doubling
    ("analysis", "K_max", 5000),
    # simulate's --oracle flag is the one switch for the oracle, on by default
    ("scenario", "oracle", True),
]

# every key the schema accepts, block by block
ACCEPTED_KEYS = {
    "system": {"A", "B", "C", "x_box", "u_box", "y_box", "w1_box", "w2_box"},
    "certificate": {"P", "Q", "R", "eta"},
    "controller": {"gain"},
    "mhe": {"M", "K"},
    "scenario": {"x0", "prior", "steps", "seed"},
    "analysis": {"L_Phi", "probe_trials", "probe_seed"},
    "output": {"dir", "csv", "summary"},
}


class TestLoadConfig:
    def test_case_study_values(self, case_study_doc):
        doc = case_study_doc
        assert doc.mhe["M"] == 5
        assert doc.certificate.eta == 0.8
        assert np.array_equal(doc.certificate.R, [[1.0]])
        assert np.array_equal(doc.certificate.Q, np.eye(5))
        assert doc.mhe["K"] == 652
        assert doc.analysis["L_Phi"] == 5.32
        assert not doc.system.x_box.is_bounded
        assert doc.system.w1_box.is_bounded

    def test_auto_iteration_budget(self, certified_doc):
        assert certified_doc.mhe["K"] == "auto"
        assert certified_doc.mhe["M"] == 9

    def test_missing_field_reports_path(self, base_dict):
        broken = json.loads(json.dumps(base_dict))
        del broken["system"]["C"]
        with pytest.raises(ValidationError) as err:
            loads_config(json.dumps(broken))
        assert err.value.path == "$.system.C"

    def test_unknown_key_rejected(self, base_dict):
        broken = json.loads(json.dumps(base_dict))
        broken["system"]["D"] = [[1.0]]
        with pytest.raises(ValidationError) as err:
            loads_config(json.dumps(broken))
        assert "unknown key" in err.value.reason
        for block, key, value in DELETED_KEYS:
            broken = json.loads(json.dumps(base_dict))
            broken[block][key] = value
            with pytest.raises(ValidationError) as err:
                loads_config(json.dumps(broken))
            assert err.value.path == f"$.{block}.{key}"
            assert "unknown key" in err.value.reason

    def test_block_must_be_an_object(self, base_dict):
        for block in ("system", "analysis"):
            broken = json.loads(json.dumps(base_dict))
            broken[block] = 5
            with pytest.raises(ValidationError) as err:
                loads_config(json.dumps(broken))
            assert err.value.path == f"$.{block}"

    def test_canonical_form_names_every_accepted_key(self, base_dict):
        full = json.loads(json.dumps(base_dict))
        full["analysis"].update(probe_trials=60, probe_seed=4)
        assert {block: set(full[block]) for block in ACCEPTED_KEYS} == ACCEPTED_KEYS
        doc = loads_config(json.dumps(full))
        encoded = doc.to_dict()
        assert set(encoded) == {"schema_version", *ACCEPTED_KEYS}
        for block, keys in ACCEPTED_KEYS.items():
            assert set(encoded[block]) == keys
        assert encoded == full
        text = doc.canonical_json()
        assert loads_config(text).canonical_json() == text

    def test_box_excluding_origin_rejected(self, base_dict):
        broken = json.loads(json.dumps(base_dict))
        broken["system"]["u_box"] = [[1.0, 2.0], [-1.0, 1.0]]
        with pytest.raises(ValidationError) as err:
            loads_config(json.dumps(broken))
        assert err.value.path == "$.system"

    @pytest.mark.parametrize("end", ["-inf", "inf"])
    def test_side_of_one_infinity_rejected(self, base_dict, tmp_path, capsys, end):
        doc = json.loads(json.dumps(base_dict))
        doc["system"]["y_box"] = [[end, end]]
        with pytest.raises(ValidationError) as err:
            loads_config(json.dumps(doc))
        assert err.value.path == "$.system.y_box[0]"
        path = tmp_path / "same_infinity.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["analyze-k", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "$.system.y_box[0]"

    def test_bound_sentinels(self, base_dict):
        doc = json.loads(json.dumps(base_dict))
        doc["system"]["y_box"] = [[None, "Infinity"]]
        loaded = loads_config(json.dumps(doc))
        assert loaded.system.y_box.lower[0] == -np.inf
        assert loaded.system.y_box.upper[0] == np.inf

    def test_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_config(path)

    # the token fails at decode, before any key is checked, so a deleted key
    # (controller.gamma13_slope, controller.L_pi) fails the same way
    @pytest.mark.parametrize("block, key, token", [
        ("certificate", "eta", "NaN"),
        ("analysis", "L_Phi", "NaN"),
        ("controller", "gamma13_slope", "NaN"),
        ("controller", "L_pi", "Infinity"),
        ("controller", "L_pi", "-Infinity"),
        ("certificate", "eta", "1e999")])
    def test_nonfinite_number_is_parse_error(self, base_dict, tmp_path, capsys,
                                             block, key, token):
        doc = json.loads(json.dumps(base_dict))
        doc[block][key] = "TOKEN"
        text = json.dumps(doc).replace('"TOKEN"', token)
        with pytest.raises(ParseError) as err:
            loads_config(text)
        assert token in err.value.reason
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        assert run_cli(["analyze-k", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "absent.json")

    def test_round_trip_canonical(self, case_study_doc):
        text = case_study_doc.canonical_json()
        again = loads_config(text)
        assert again.canonical_json() == text
        assert again.config_hash() == case_study_doc.config_hash()

    def test_round_trip_certified(self, certified_doc):
        text = certified_doc.canonical_json()
        assert loads_config(text).canonical_json() == text

    def test_search_directive(self, base_dict):
        doc = json.loads(json.dumps(base_dict))
        doc["certificate"]["P"] = "search"
        loaded = loads_config(json.dumps(doc))
        assert loaded.certificate is None
        text = loaded.canonical_json()
        assert loads_config(text).canonical_json() == text

    def test_nonnumber_matrix_entry(self, base_dict):
        broken = json.loads(json.dumps(base_dict))
        broken["system"]["A"][0][0] = "zero"
        with pytest.raises(ValidationError) as err:
            loads_config(json.dumps(broken))
        assert err.value.path == "$.system.A[0][0]"


class TestJsonValue:
    """config.json_value, the one encoder of the canonical config and of
    every document the CLI writes."""

    def test_box_sides_as_pairs(self):
        box = Box(np.array([-math.inf, -1.0]), np.array([2.0, math.inf]))
        assert json_value(box) == [["-inf", 2.0], [-1.0, "inf"]]

    def test_arrays_lists_and_tuples_nest(self):
        value = {"a": np.array([[1.0, math.inf], [math.nan, 2.0]]),
                 "t": (1, (2.5, -math.inf)), "l": [np.array([3.0])]}
        assert json_value(value) == {"a": [[1.0, "inf"], ["nan", 2.0]],
                                     "t": [1, [2.5, "-inf"]], "l": [[3.0]]}

    @pytest.mark.parametrize("value, encoded", [
        (math.nan, "nan"), (-math.inf, "-inf"), (math.inf, "inf"),
        (np.float64(-math.inf), "-inf")])
    def test_nonfinite_numbers_as_strings(self, value, encoded):
        assert json_value(value) == encoded

    @pytest.mark.parametrize("value", [None, 0, 7, -3, True, 1.5, "inf", "x"])
    def test_other_values_pass_through(self, value):
        assert json_value(value) is value


class TestCli:
    def test_certify_pass(self, capsys):
        code = run_cli(["certify", "--config",
                        str(CONFIG_DIR / "case_study.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["passed"] is True
        assert 0.0 < out["margin"] < 1e-12
        assert out["max_eigenvalue"] + out["margin"] <= 0.0

    def test_certify_search_path(self, tmp_path, base_dict, capsys):
        doc = json.loads(json.dumps(base_dict))
        doc["certificate"]["P"] = "search"
        path = tmp_path / "search.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["certify", "--config", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["searched"] is True
        assert np.linalg.eigvalsh(np.array(out["P"]))[0] > 0

    def test_analyze_k_contraction_violated(self, capsys):
        code = run_cli(["analyze-k", "--config",
                        str(CONFIG_DIR / "case_study.json")])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"] == "ContractionViolated"
        assert err["suggested_M"] == 9

    def test_analyze_k_certified(self, capsys, tmp_path):
        code = run_cli(["analyze-k", "--config",
                        str(CONFIG_DIR / "case_study_certified.json"),
                        "--out", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["K_star"] >= 1
        assert out["ledger"]["small_gain"]["passed"] is True
        assert (tmp_path / "analyze_k.json").exists()
        # L_Phi is asserted; L_pi and gamma13 are derived from the law
        assert out["meta"] == {"L_Phi_probed": False}
        assert out["K_star"] == 189
        doc = load_config(CONFIG_DIR / "case_study_certified.json")
        A, B, G = doc.system.A, doc.system.B, doc.controller.gain
        params = out["ledger"]["params"]
        assert params["sampled"] == []
        assert params["L_pi"] == np.linalg.norm(G, 2)
        vertices = [B @ np.diag(d) @ G for d in ([0, 0], [1, 0], [0, 1], [1, 1])]
        a = max(np.linalg.norm(A - v, 2) for v in vertices)
        b = max(np.linalg.norm(v, 2) for v in vertices)
        assert params["gamma13_slope"] == pytest.approx(b / (1 - a), rel=1e-12)
        assert params["gamma13_slope"] == pytest.approx(1.80569, abs=1e-5)
        small_gain = out["ledger"]["small_gain"]
        assert small_gain["margin"] == 1.0 - sum(small_gain["products"])
        assert small_gain["margin"] == pytest.approx(0.0427, abs=5e-5)
        assert small_gain["dominant"] == f"P{1 + np.argmax(small_gain['products'])}"

    def test_analyze_k_params_are_the_analysis_params_fields(self, capsys):
        # the ledger's params block is AnalysisParams field by field, in
        # their declared order
        run_cli(["analyze-k", "--config",
                 str(CONFIG_DIR / "case_study_certified.json")])
        params = json.loads(capsys.readouterr().out)["ledger"]["params"]
        assert list(params) == [f.name for f in fields(AnalysisParams)]

    def test_prepare_run_settles_k_as_simulate_does(self, certified_doc,
                                                    case_study_doc):
        # K None is the config's K ("auto" here), "auto" is K*, an int is kept
        auto = prepare_run(certified_doc, seed=4, steps=7, oracle=False)
        assert (auto.K, auto.seed, auto.steps, auto.oracle) == (189, 4, 7, False)
        assert prepare_run(certified_doc, "auto").K == 189
        fixed = prepare_run(certified_doc, 25)
        assert fixed.K == 25 and fixed.params.sampled == ()
        assert fixed.steps == certified_doc.scenario["steps"]
        # rho >= 1 is refused unless uncertified
        with pytest.raises(ContractionViolated):
            prepare_run(case_study_doc, 25)
        run = prepare_run(case_study_doc, 25, uncertified=True)
        assert (run.K, run.params.M) == (25, 5)

    def test_analyze_k_estimated_scalars(self, tmp_path, base_dict, capsys):
        doc = json.loads(json.dumps(base_dict))
        doc["mhe"]["M"] = 9
        doc["analysis"]["L_Phi"] = "probe"
        doc["analysis"]["probe_trials"] = 60
        path = tmp_path / "estimated.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["analyze-k", "--config", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["meta"] == {"L_Phi_probed": True}
        assert out["ledger"]["params"]["L_phi"] >= 1.0
        assert out["ledger"]["params"]["sampled"] == ["L_Phi"]

    @pytest.mark.parametrize("block, key, value, name", [
        ("analysis", "L_Phi", "probe", "L_Phi")],
        ids=["L_Phi_probed"])
    def test_simulate_sampled_input_is_uncertified(self, tmp_path, base_dict,
                                                   capsys, block, key, value,
                                                   name):
        # the loop reports the ledger at the K it runs, and a passing ledger
        # on a sampled input certifies nothing
        doc = json.loads(json.dumps(base_dict))
        doc["mhe"]["M"] = 9
        doc["mhe"]["K"] = "auto"
        doc["analysis"]["probe_trials"] = 60
        doc[block][key] = value
        path = tmp_path / "sampled.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["simulate", "--config", str(path),
                        "--out", str(tmp_path), "--steps", "12",
                        "--oracle", "off"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["ledger"]["K"] == summary["K"]
        assert summary["ledger"]["small_gain"]["passed"] is True
        assert summary["ledger"]["params"]["sampled"] == [name]
        assert summary["certified"] is False
        assert summary["uncertified_reason"] == (
            f"ledger inputs sampled, not derived or asserted: {name}")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--steps", "12", "--oracle", "off"], ["analyze-k"],
        ["simulate", "--steps", "12", "--iters", "25"]],
        ids=["simulate_auto", "analyze_k", "simulate_fixed_k"])
    def test_params_are_built_once(self, argv, tmp_path, capsys, monkeypatch):
        # each build of the params derives the controller's gain once
        import submhe.analysis as analysis
        import submhe.cli as cli
        calls = count_calls(monkeypatch, analysis, "build_params")
        gains = count_calls(monkeypatch, analysis, "closed_loop_gain")
        code = run_cli([argv[0], "--config",
                        str(CONFIG_DIR / "case_study_certified.json"),
                        "--out", str(tmp_path), *argv[1:]])
        capsys.readouterr()
        assert code == 0
        assert len(calls) == 1
        assert len(gains) == 1

    def test_unstable_law_builds_no_ledger(self, tmp_path, capsys):
        # the certified config with its gain scaled by -2: its vertex systems
        # reach a = 1.86, so no gain is derived and a fixed-K run goes on
        # uncertified
        with open(CONFIG_DIR / "case_study_certified.json") as fh:
            doc = json.load(fh)
        doc["controller"]["gain"] = (
            -2.0 * np.array(doc["controller"]["gain"])).tolist()
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["analyze-k", "--config", str(path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"] == "StabilityAssumptionViolated"
        assert "a = max ||A - B Delta G||_2 = 1.8567" in err["message"]
        code = run_cli(["simulate", "--config", str(path), "--out",
                        str(tmp_path / "out"), "--iters", "50",
                        "--steps", "20"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["certified"] is False
        assert summary["ledger"] is None
        assert summary["uncertified_reason"] == (
            f"no gain ledger: StabilityAssumptionViolated: {err['message']}")

    def test_negative_seed_rejected(self, capsys):
        for flag, value in (("--seed", "-1"), ("--steps", "0"),
                            ("--iters", "-1")):
            code = run_cli(["simulate", "--config",
                            str(CONFIG_DIR / "case_study.json"),
                            flag, value, "--uncertified"])
            err = json.loads(capsys.readouterr().err)
            assert code == 2
            assert err["error"] == "ValidationError"
            assert err["field"] == flag

    @pytest.mark.parametrize("block, key, value", [
        ("certificate", "tol", 1.0), ("certificate", "search_budget", 500),
        ("analysis", "K_max", 5000), ("scenario", "oracle", True)])
    def test_deleted_keys_exit_two(self, block, key, value, base_dict,
                                   tmp_path, capsys):
        doc = json.loads(json.dumps(base_dict))
        doc[block][key] = value
        path = tmp_path / "deleted.json"
        path.write_text(json.dumps(doc))
        for command in ("certify", "verify", "analyze-k", "simulate"):
            code = run_cli([command, "--config", str(path), *(
                ["--out", str(tmp_path / "out")] if command == "simulate"
                else [])])
            err = json.loads(capsys.readouterr().err)
            assert code == 2
            assert err["error"] == "ValidationError"
            assert err["field"] == f"$.{block}.{key}"
            assert err["message"].endswith("unknown key")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale, lam", [(2.0, 0.8897), (1.05, 0.0426)],
                             ids=["P_x2", "P_x1.05"])
    def test_violated_lmi_builds_no_ledger(self, scale, lam, tmp_path, capsys):
        # the certified config with P scaled up: its LMI fails, so no path
        # reports a K* or a certified run
        with open(CONFIG_DIR / "case_study_certified.json") as fh:
            doc = json.load(fh)
        doc["certificate"]["P"] = (
            scale * np.array(doc["certificate"]["P"])).tolist()
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        for argv in (["analyze-k"], ["simulate", "--steps", "12"]):
            code = run_cli([*argv, "--config", str(path),
                            "--out", str(tmp_path / "auto")])
            err = json.loads(capsys.readouterr().err)
            assert code == 1
            assert err["error"] == "LmiViolated"
            assert err["max_eigenvalue"] == pytest.approx(lam, abs=1e-4)
            assert 0.0 < err["margin"] < 1e-12
            assert f"{err['max_eigenvalue']:.6e}" in err["message"]
        lam_hat = err["max_eigenvalue"]
        assert not (tmp_path / "auto").exists()
        for command in ("certify", "verify"):
            assert run_cli([command, "--config", str(path)]) == 1
        capsys.readouterr()
        code = run_cli(["simulate", "--config", str(path), "--out",
                        str(tmp_path / "out"), "--iters", "50"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["ledger"] is None
        assert summary["certified"] is False
        # the reason names the error that stopped the params, not just
        # their absence
        reason = summary["uncertified_reason"]
        assert reason.startswith("no gain ledger: LmiViolated: ")
        assert f"{lam_hat:.6e}" in reason

    def test_violated_lmi_stops_before_the_probe(self, tmp_path, capsys,
                                                 monkeypatch):
        # P x 2 with L_Phi left to the probe: the LMI fails before any of the
        # probe's trials runs
        import submhe.cli as cli
        probes = count_calls(monkeypatch, cli, "lipschitz_probe")
        with open(CONFIG_DIR / "case_study_certified.json") as fh:
            doc = json.load(fh)
        doc["certificate"]["P"] = (
            2.0 * np.array(doc["certificate"]["P"])).tolist()
        doc["analysis"]["L_Phi"] = "probe"
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["analyze-k", "--config", str(path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"] == "LmiViolated"
        assert probes == []

    def test_analyze_k_checks_the_lmi_once(self, tmp_path, capsys,
                                           monkeypatch):
        # on a probed L_Phi, the LMI is evaluated once, in build_params
        import submhe.analysis as analysis
        import submhe.cli as cli
        checks = [count_calls(monkeypatch, module, "verify_ioss_lmi")
                  for module in (analysis, cli)]
        with open(CONFIG_DIR / "case_study_certified.json") as fh:
            doc = json.load(fh)
        doc["analysis"].update(L_Phi="probe", probe_trials=20)
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["analyze-k", "--config", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["meta"]["L_Phi_probed"] is True
        assert [len(calls) for calls in checks] == [1, 0]

    @pytest.mark.parametrize("M, k_star", [(15, 664), (25, 6307)])
    def test_analyze_k_long_horizons(self, M, k_star, tmp_path, capsys):
        # K* exists at every horizon with rho < 1, however large it is
        with open(CONFIG_DIR / "case_study_certified.json") as fh:
            doc = json.load(fh)
        doc["mhe"]["M"] = M
        path = tmp_path / "horizon.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["analyze-k", "--config", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["K_star"] == k_star
        assert out["ledger"]["small_gain"]["passed"] is True

    def test_simulate_requires_uncertified_gate(self, tmp_path, base_dict,
                                                capsys, monkeypatch):
        # rho >= 1 is refused before anything is probed or derived:
        # simulate on the shipped config and on a copy with a fixed K that
        # probes L_Phi, and analyze-k on that copy
        import submhe.analysis as analysis
        import submhe.cli as cli
        probes = count_calls(monkeypatch, cli, "lipschitz_probe")
        gains = count_calls(monkeypatch, analysis, "closed_loop_gain")
        doc = json.loads(json.dumps(base_dict))
        doc["analysis"].update(L_Phi="probe", probe_trials=20)
        probed = tmp_path / "probe.json"
        probed.write_text(json.dumps(doc))
        shipped = CONFIG_DIR / "case_study.json"
        for argv in (["simulate", "--config", str(shipped), "--steps", "3"],
                     ["simulate", "--config", str(probed), "--steps", "3"],
                     ["analyze-k", "--config", str(probed)]):
            code = run_cli([*argv, "--out", str(tmp_path / "out")])
            err = json.loads(capsys.readouterr().err)
            assert code == 1
            assert err["error"] == "ContractionViolated"
        assert probes == [] and gains == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze-k", "simulate"])
    def test_zero_eta_exits_two(self, command, tmp_path, capsys):
        # at eta = 0 the window weights only its newest slot: S is singular
        with open(CONFIG_DIR / "case_study_certified.json") as fh:
            doc = json.load(fh)
        doc["certificate"]["eta"] = 0
        path = tmp_path / "eta.json"
        path.write_text(json.dumps(doc))
        code = run_cli([command, "--config", str(path), "--out",
                        str(tmp_path / "out")])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["field"] == "$.certificate.eta"

    def test_simulate_uncertified_writes_outputs(self, tmp_path, capsys):
        code = run_cli(["simulate", "--config",
                        str(CONFIG_DIR / "case_study.json"),
                        "--out", str(tmp_path), "--uncertified",
                        "--steps", "12", "--iters", "60"])
        capsys.readouterr()
        assert code == 0
        csv = (tmp_path / "trajectory.csv").read_text()
        assert len(csv.strip().split("\n")) == 13
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["certified"] is False
        assert summary["steps"] == 12
        assert summary["K"] == 60

    @pytest.mark.parametrize("oracle", [[], ["--oracle", "off"]],
                             ids=["oracle_default", "oracle_off"])
    def test_simulate_certified_forty_steps(self, oracle, tmp_path, capsys):
        code = run_cli(["simulate", "--config",
                        str(CONFIG_DIR / "case_study_certified.json"),
                        "--out", str(tmp_path), "--steps", "40", *oracle])
        capsys.readouterr()
        assert code == 0
        csv = (tmp_path / "trajectory.csv").read_text()
        assert len(csv.strip().split("\n")) == 41
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["certified"] is True
        assert summary["ledger"]["small_gain"]["passed"] is True

    @pytest.mark.parametrize("oracle", ["off", "on"])
    def test_simulate_memory_is_flat_in_run_length(self, oracle, tmp_path, capsys):
        # beyond the record's own columns, simulate keeps nothing per step:
        # the CSV is streamed and the flags are checked a block of steps at
        # a time. The traced peak of a 2,000-step run exceeds a 200-step
        # run's by at most 0.75 KB per extra step (the record and the
        # post-loop monitor pass take about 0.3 KB with the oracle off and
        # 0.55 KB with it on; holding the CSV text and every kept row took
        # 1.6 KB and 1.8 KB)
        import tracemalloc

        def traced_peak(steps):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert run_cli(["simulate", "--config",
                            str(CONFIG_DIR / "case_study_certified.json"),
                            "--out", str(tmp_path), "--oracle", oracle,
                            "--steps", str(steps)]) == 0
            return tracemalloc.get_traced_memory()[1] - before

        tracemalloc.start()
        try:
            traced_peak(20)  # lazy imports and caches, outside the comparison
            short, long = traced_peak(200), traced_peak(2000)
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert (long - short) / 1800 <= 0.75 * 1024

    def test_certified_solves_take_the_closed_form_tail(self, tmp_path, capsys):
        code = run_cli(["simulate", "--config",
                        str(CONFIG_DIR / "case_study_certified.json"),
                        "--out", str(tmp_path), "--steps", "400",
                        "--oracle", "off"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        solver = summary["solver"]
        assert solver["solves"] == 400
        assert solver["tail_jumps"] >= 0.9 * solver["solves"]
        assert 0.0 <= solver["looped_mean"] < summary["K"]
        assert solver["oracle_solves"] == 0

    def test_outputs_are_strict_json(self, tmp_path, capsys):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        # at K = 5 the lifted contract expands, so the ledger's gains are infinite
        code = run_cli(["simulate", "--config",
                        str(CONFIG_DIR / "case_study_certified.json"),
                        "--out", str(tmp_path), "--steps", "5", "--iters", "5"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=reject)
        assert summary["ledger"]["slopes"]["g21"] == "inf"
        for argv in (["analyze-k"], ["certify"]):
            run_cli(argv + ["--config", str(CONFIG_DIR / "case_study_certified.json")])
            json.loads(capsys.readouterr().out, parse_constant=reject)

    def test_simulate_builds_each_window_shape_once(self, tmp_path, capsys,
                                                    monkeypatch):
        import submhe.mhe as mhe
        built = []
        real = mhe.window_shape

        def counting(sys, cert, m_eff):
            built.append(m_eff)
            return real(sys, cert, m_eff)

        monkeypatch.setattr(mhe, "window_shape", counting)
        code = run_cli(["simulate", "--config",
                        str(CONFIG_DIR / "case_study_certified.json"),
                        "--out", str(tmp_path), "--steps", "12",
                        "--oracle", "off"])
        capsys.readouterr()
        assert code == 0
        assert sorted(built) == list(range(10))  # M = 9: one build per length

    def test_simulate_oracle_off(self, tmp_path, capsys):
        code = run_cli(["simulate", "--config",
                        str(CONFIG_DIR / "case_study.json"),
                        "--out", str(tmp_path), "--uncertified",
                        "--steps", "5", "--oracle", "off"])
        capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        eps_col = header.index("eps")
        for line in lines[1:]:
            assert line.split(",")[eps_col] == ""

    def test_simulate_strict_failure_exits_nonzero(self, tmp_path, base_dict,
                                                   capsys, monkeypatch):
        # an impossible contraction rate makes the contraction monitor fail
        import submhe.harness as harness
        monkeypatch.setattr("submhe.analysis.worst_case_contraction",
                            lambda shapes: 1e-6)
        doc = json.loads(json.dumps(base_dict))
        doc["mhe"]["K"] = 1
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(doc))
        argv = ["simulate", "--config", str(path), "--uncertified",
                "--steps", "6"]
        # the same run without --strict: its CSV names the first failure
        assert run_cli(argv + ["--out", str(tmp_path / "relaxed")]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "relaxed" / "trajectory.csv").read_text().split()]
        mons = [i for i, name in enumerate(rows[0]) if name.startswith("mon_")]
        first = next(row for row in rows[1:] if "fail" in row)
        failed = [rows[0][i][4:] for i in mons if first[i] == "fail"]
        assert "contraction" in failed
        capsys.readouterr()

        evaluated = []
        real = harness.evaluate
        monkeypatch.setattr(harness, "evaluate",
                            lambda *a: evaluated.append(a) or real(*a))
        out = tmp_path / "strict"
        code = run_cli(argv + ["--out", str(out), "--strict"])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"] == "MonitorViolation"
        assert err["message"] == (f"monitor(s) {', '.join(failed)} failed at "
                                  f"step {first[0]}")
        assert len(evaluated) == 6  # every step ran before the raise
        assert not out.exists()  # no CSV or summary

    def test_determinism_byte_identical(self, tmp_path, capsys):
        for sub in ("a", "b"):
            code = run_cli(["simulate", "--config",
                            str(CONFIG_DIR / "case_study.json"),
                            "--out", str(tmp_path / sub), "--uncertified",
                            "--steps", "10", "--iters", "40"])
            assert code == 0
        capsys.readouterr()
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
            (tmp_path / "b" / "trajectory.csv").read_bytes()

    def test_verify_subcommand(self, capsys):
        code = run_cli(["verify", "--config",
                        str(CONFIG_DIR / "case_study_certified.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS tail-optimum" in out
        assert "9/9 checks passed" in out

    @pytest.mark.parametrize("name", ["case_study_certified", "case_study"])
    def test_verify_runs_one_closed_loop(self, name, capsys, monkeypatch):
        # short-closed-loop and tail-optimum read one run of the loop
        import submhe.cli as cli
        loops = count_calls(monkeypatch, cli, "run_closed_loop")
        assert run_cli(["verify", "--config", str(CONFIG_DIR / f"{name}.json")]) == 0
        assert "9/9 checks passed" in capsys.readouterr().out
        assert len(loops) == 1

    @pytest.mark.parametrize("name", ["case_study_certified", "case_study"])
    def test_verify_builds_each_window_shape_once(self, name, capsys, monkeypatch):
        # every check and the short loop read one WindowShapes, and
        # strong-convexity reads its shapes without drawing windows
        import submhe.mhe as mhe
        built = count_calls(monkeypatch, mhe, "window_shape")
        path = CONFIG_DIR / f"{name}.json"
        assert run_cli(["verify", "--config", str(path)]) == 0
        assert "9/9 checks passed" in capsys.readouterr().out
        M = load_config(path).mhe["M"]
        assert sorted(args[2] for args, _ in built) == list(range(M + 1))

    @pytest.mark.parametrize("name", ["case_study_certified", "case_study"])
    def test_verify_reports_a_failing_oracle_where_it_is_called(
            self, name, capsys, monkeypatch):
        # oracle-agreement and tail-optimum call the oracle, and so does the
        # short loop, whose error both loop rows report; every other row
        # still runs and passes
        import submhe.harness as harness
        import submhe.solver as solver
        from submhe.errors import SubmheError

        def down(*args, **kwargs):
            raise SubmheError("oracle down")

        for module in (solver, harness):
            monkeypatch.setattr(module, "solve_oracle", down)
        code = run_cli(["verify", "--config", str(CONFIG_DIR / f"{name}.json")])
        rows = capsys.readouterr().out.splitlines()
        assert code == 1
        failing = ("oracle-agreement", "short-closed-loop", "tail-optimum")
        assert rows == [
            f"FAIL {row}: oracle down" if row in failing else f"PASS {row}"
            for row in ("certificate-lmi", "dissipation-inequality",
                        "condensing-soundness", "cost-equivalence",
                        "strong-convexity", "oracle-agreement",
                        "controller-stability-smoke", "short-closed-loop",
                        "tail-optimum")] + ["6/9 checks passed"]

    def test_violated_lmi_skips_the_lyapunov_monitor(self, tmp_path, capsys,
                                                     monkeypatch):
        # the M-step decay rests on the LMI: with P x 2 (lambda_max = +0.89)
        # the monitor skips every step, and the shipped P checks every step;
        # the loop evaluates the LMI only for the run without AnalysisParams
        import submhe.harness as harness
        checks = count_calls(monkeypatch, harness, "verify_ioss_lmi")
        with open(CONFIG_DIR / "case_study_certified.json") as fh:
            doc = json.load(fh)
        shipped = tmp_path / "shipped.json"
        shipped.write_text(json.dumps(doc))
        doc["certificate"]["P"] = (
            2.0 * np.array(doc["certificate"]["P"])).tolist()
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(doc))
        for path, verdict, evaluated in ((scaled, "skip", 1), (shipped, "pass", 0)):
            checks.clear()
            out = tmp_path / path.stem
            assert run_cli(["simulate", "--config", str(path), "--iters", "50",
                            "--steps", "100", "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["monitors"]["lyapunov"][verdict] == 100
            assert len(checks) == evaluated
        assert "LmiViolated" in json.loads(
            (tmp_path / "scaled" / "summary.json").read_text())["uncertified_reason"]
        capsys.readouterr()

    def test_fixed_k_run_resolves_its_params_whatever_the_oracle(
            self, tmp_path, capsys, monkeypatch):
        # a fixed-K run builds its params as analyze-k does: with P x 2 its
        # reason names the LMI after no probe call, with or without the
        # oracle; with the shipped P it probes once and its ledger does not
        # depend on the oracle (at a K past K*, where the ledger passes and
        # only the sampled L_Phi keeps the run uncertified)
        import submhe.cli as cli
        probes = count_calls(monkeypatch, cli, "lipschitz_probe")
        with open(CONFIG_DIR / "case_study_certified.json") as fh:
            doc = json.load(fh)
        doc["analysis"].update(L_Phi="probe", probe_trials=20)
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc))
        doc["certificate"]["P"] = (
            2.0 * np.array(doc["certificate"]["P"])).tolist()
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(doc))

        def summary(config, iters, oracle):
            out = tmp_path / f"{config.stem}_{oracle}"
            code = run_cli(["simulate", "--config", str(config), "--out",
                            str(out), "--steps", "12", "--iters", iters,
                            "--oracle", oracle])
            capsys.readouterr()
            assert code == 0
            return json.loads((out / "summary.json").read_text())

        for oracle in ("off", "on"):
            reason = summary(scaled, "25", oracle)["uncertified_reason"]
            assert reason.startswith("no gain ledger: LmiViolated: ")
        assert probes == []
        off = summary(path, "400", "off")
        assert len(probes) == 1
        assert off["uncertified_reason"] == (
            "ledger inputs sampled, not derived or asserted: L_Phi")
        assert off["ledger"] is not None
        assert off["ledger"] == summary(path, "400", "on")["ledger"]

    @pytest.mark.parametrize("key, value, field", [
        ("csv", None, "$.output.csv"),
        ("summary", 5, "$.output.summary"),
        ("dir", ["x"], "$.output.dir"),
        ("csv", "", "$.output.csv"),
        ("csv", "summary.json", "$.output.summary"),
        ("csv", ".", "$.output.csv"),
        ("csv", "nodir/t.csv", "$.output.csv"),
        ("summary", "..", "$.output.summary")],
        ids=["csv_null", "summary_number", "dir_list", "csv_empty",
             "csv_is_summary", "csv_dot", "csv_in_subdir", "summary_dotdot"])
    def test_bad_output_names_exit_two(self, key, value, field, base_dict,
                                       tmp_path, capsys, monkeypatch):
        doc = json.loads(json.dumps(base_dict))
        doc["output"][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        code = run_cli(["simulate", "--config", str(path), "--steps", "3",
                        "--oracle", "off", "--uncertified"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["field"] == field
        assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["certify", "verify"])
    def test_out_flag_only_where_something_is_written(self, command, tmp_path,
                                                      capsys):
        code = run_cli([command, "--config", str(CONFIG_DIR / "case_study.json"),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert "--out" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_usage_errors_exit_two(self, tmp_path, base_dict, capsys):
        assert run_cli(["simulate", "--config",
                        str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run_cli(["certify", "--config", str(bad)]) == 2
        capsys.readouterr()
        deleted = json.loads(json.dumps(base_dict))
        deleted["scenario"]["monitors"] = True
        bad.write_text(json.dumps(deleted))
        assert run_cli(["simulate", "--config", str(bad)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "$.scenario.monitors"
        deleted = json.loads(json.dumps(base_dict))
        deleted["controller"]["L_pi"] = 0.1
        bad.write_text(json.dumps(deleted))
        assert run_cli(["analyze-k", "--config", str(bad)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "$.controller.L_pi"
        deleted = json.loads(json.dumps(base_dict))
        deleted["controller"]["gamma13_slope"] = 28.8
        bad.write_text(json.dumps(deleted))
        assert run_cli(["analyze-k", "--config", str(bad)]) == 2
        assert json.loads(capsys.readouterr().err)["message"] == (
            "$.controller.gamma13_slope: unknown key")
        assert run_cli(["bogus-subcommand"]) == 2


def test_module_entrypoint(tmp_path):
    import subprocess
    import sys
    res = subprocess.run(
        [sys.executable, "-m", "submhe.cli", "certify", "--config",
         str(CONFIG_DIR / "case_study.json")],
        capture_output=True, text=True, env=child_env())
    assert res.returncode == 0
    assert json.loads(res.stdout)["passed"] is True


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "set"])
def test_blas_threads_default_to_one(preset):
    # the package sets the default on import, before numpy's first import
    import subprocess
    import sys
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = child_env()
    for name in names:
        env.pop(name, None)
        if preset is not None:
            env[name] = preset
    res = subprocess.run(
        [sys.executable, "-c",
         "import os; import submhe; "
         f"print(' '.join(os.environ[n] for n in {names!r}))"],
        capture_output=True, text=True, env=env, check=True)
    assert res.stdout.split() == [preset or "1"] * 3
