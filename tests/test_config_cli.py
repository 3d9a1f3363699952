import json

import numpy as np
import pytest

from conftest import CONFIG_DIR, child_env, count_calls

from submhe.cli import run_cli
from submhe.config import load_config, loads_config
from submhe.errors import ParseError, ValidationError


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
    # the controller smoke test runs with fixed settings
    ("analysis", "smoke_radius", 1.0),
    ("analysis", "smoke_horizon", 300),
    ("analysis", "smoke_samples", 10),
]

# every key the schema accepts, block by block
ACCEPTED_KEYS = {
    "system": {"A", "B", "C", "x_box", "u_box", "y_box", "w1_box", "w2_box"},
    "certificate": {"P", "Q", "R", "eta", "tol", "search_budget"},
    "controller": {"gain"},
    "mhe": {"M", "K"},
    "scenario": {"x0", "prior", "steps", "seed", "oracle"},
    "analysis": {"K_max", "L_Phi", "probe_trials", "probe_seed"},
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
        full["certificate"]["search_budget"] = 123
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
        doc["certificate"]["search_budget"] = 123
        loaded = loads_config(json.dumps(doc))
        assert loaded.certificate is None
        assert loaded.certificate_search["budget"] == 123
        text = loaded.canonical_json()
        assert loads_config(text).canonical_json() == text

    def test_search_budget_checked_beside_explicit_p(self, base_dict):
        doc = json.loads(json.dumps(base_dict))
        doc["certificate"]["search_budget"] = 77
        loaded = loads_config(json.dumps(doc))
        assert loaded.certificate is not None
        text = loaded.canonical_json()
        assert json.loads(text)["certificate"]["search_budget"] == 77
        assert loads_config(text).canonical_json() == text

    def test_nonnumber_matrix_entry(self, base_dict):
        broken = json.loads(json.dumps(base_dict))
        broken["system"]["A"][0][0] = "zero"
        with pytest.raises(ValidationError) as err:
            loads_config(json.dumps(broken))
        assert err.value.path == "$.system.A[0][0]"


class TestCli:
    def test_certify_pass(self, capsys):
        code = run_cli(["certify", "--config",
                        str(CONFIG_DIR / "case_study.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["passed"] is True
        assert out["max_eigenvalue"] <= out["tol"]

    def test_certify_search_path(self, tmp_path, base_dict, capsys):
        doc = json.loads(json.dumps(base_dict))
        doc["certificate"]["P"] = "search"
        doc["certificate"]["search_budget"] = 3000
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
        assert out["K_star"] == 182
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
        assert out["ledger"]["small_gain"]["margins"] == pytest.approx(
            [0.904, 0.604, 0.028], abs=5e-4)

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
        gains = count_calls(monkeypatch, cli, "closed_loop_gain")
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
                        str(tmp_path / "out"), "--iters", "300",
                        "--steps", "20"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["certified"] is False
        assert summary["ledger"] is None

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

    @pytest.mark.parametrize("budget", ["abc", -5, 1.5, None, 0, True])
    def test_bad_search_budget_exits_two(self, budget, base_dict, tmp_path,
                                         capsys):
        doc = json.loads(json.dumps(base_dict))
        doc["certificate"]["search_budget"] = budget  # beside an explicit P
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["certify", "--config", str(path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ValidationError"
        assert err["field"] == "$.certificate.search_budget"

    def test_simulate_requires_uncertified_gate(self, tmp_path, base_dict,
                                                capsys, monkeypatch):
        # rho >= 1 is refused before anything is probed or derived:
        # simulate on the shipped config and on a copy with a fixed K that
        # probes L_Phi, and analyze-k on that copy
        import submhe.cli as cli
        probes = count_calls(monkeypatch, cli, "lipschitz_probe")
        gains = count_calls(monkeypatch, cli, "closed_loop_gain")
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

    def test_oracle_off_in_config_skips_the_probe(self, tmp_path, base_dict,
                                                  capsys, monkeypatch):
        # a fixed-K run probes L_Phi only for the monitors, which run only
        # with the oracle
        import submhe.cli as cli
        probes = []
        real = cli.lipschitz_probe

        def counting(*args, **kwargs):
            probes.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "lipschitz_probe", counting)
        doc = json.loads(json.dumps(base_dict))
        doc["mhe"].update(M=9, K=25)
        doc["scenario"]["oracle"] = False
        doc["analysis"].update(L_Phi="probe", probe_trials=20)
        path = tmp_path / "oracle_off.json"
        path.write_text(json.dumps(doc))
        summaries = {}
        for name, flags in (("config", []), ("flag", ["--oracle", "off"]),
                            ("on", ["--oracle", "on"])):
            code = run_cli(["simulate", "--config", str(path), "--out",
                            str(tmp_path / name), "--steps", "12", *flags])
            assert code == 0
            summaries[name] = (tmp_path / name / "summary.json").read_text()
            assert len(probes) == (1 if name == "on" else 0)
        capsys.readouterr()
        assert summaries["config"] == summaries["flag"]
        assert json.loads(summaries["on"])["ledger"] is not None

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
