"""JSON configuration: strict parsing, canonical form, and hashing.

The document is schema-versioned JSON with matrices as nested row arrays and
interval bounds as numbers or the sentinels "inf" / "-inf" (null also means
unbounded on that side). Unknown keys are rejected; every error carries the
offending field path. Loading applies defaults, so a loaded document
re-serialized and re-loaded is identical (canonical form).
"""

import hashlib
import json
import math

import numpy as np

from .controller import FeedbackLaw
from .errors import ParseError, ValidationError
from .harness import ScenarioConfig
from .mhe import WindowShapes
from .model import Box, IossCertificate, LtiSystem, validate_system

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "system", "certificate", "controller", "mhe",
             "scenario", "analysis", "output"}


def _check_keys(d, allowed, path):
    unknown = set(d) - allowed
    if unknown:
        raise ValidationError(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _require(d, key, path):
    if key not in d:
        raise ValidationError(f"{path}.{key}", "missing required field")
    return d[key]


def _bound(value, path):
    if value is None:
        return None
    if isinstance(value, str):
        s = value.strip().lower()
        if s in ("inf", "+inf", "infinity", "+infinity"):
            return math.inf
        if s in ("-inf", "-infinity"):
            return -math.inf
        raise ValidationError(path, f"not a bound: {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"not a number: {value!r}")
    return float(value)


def _box(value, dim, path):
    if not isinstance(value, list) or len(value) != dim:
        raise ValidationError(path, f"expected {dim} [lo, hi] pairs")
    lo, hi = [], []
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"{path}[{i}]", "expected a [lo, hi] pair")
        a = _bound(pair[0], f"{path}[{i}][0]")
        b = _bound(pair[1], f"{path}[{i}][1]")
        lo.append(-math.inf if a is None else a)
        hi.append(math.inf if b is None else b)
        if lo[-1] > hi[-1]:
            raise ValidationError(f"{path}[{i}]", "lower bound exceeds upper bound")
    return Box(np.array(lo), np.array(hi))


def _matrix(value, path, rows=None, cols=None):
    if not isinstance(value, list) or not value or not all(
            isinstance(r, list) for r in value):
        raise ValidationError(path, "expected a nested row array")
    width = len(value[0])
    for i, r in enumerate(value):
        if len(r) != width:
            raise ValidationError(f"{path}[{i}]", "ragged matrix rows")
        for j, x in enumerate(r):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ValidationError(f"{path}[{i}][{j}]", f"not a number: {x!r}")
    m = np.array(value, dtype=float)
    if rows is not None and m.shape[0] != rows:
        raise ValidationError(path, f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValidationError(path, f"expected {cols} columns, got {m.shape[1]}")
    return m


def _vector(value, dim, path):
    if not isinstance(value, list) or len(value) != dim:
        raise ValidationError(path, f"expected a vector of length {dim}")
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValidationError(f"{path}[{i}]", f"not a number: {x!r}")
    return np.array(value, dtype=float)


def _number(value, path, minimum=None, strict_min=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"not a number: {value!r}")
    v = float(value)
    if minimum is not None and v < minimum:
        raise ValidationError(path, f"must be >= {minimum}")
    if strict_min is not None and v <= strict_min:
        raise ValidationError(path, f"must be > {strict_min}")
    return v


def _integer(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"not an integer: {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(path, f"must be >= {minimum}")
    return value


def _boolean(value, path):
    if not isinstance(value, bool):
        raise ValidationError(path, f"not a boolean: {value!r}")
    return value


class ConfigDocument:
    """Validated configuration with canonical serialization."""

    def __init__(self, sys, cert, cert_search, law, mhe, scenario, analysis_block,
                 output):
        self.system = sys
        self.certificate = cert          # IossCertificate or None when searching
        self.certificate_search = cert_search  # dict or None
        self.controller = law
        self.mhe = mhe                   # {"M", "K"}
        self.scenario = scenario
        self.analysis = analysis_block
        self.output = output

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValidationError("$", "top level must be an object")
        _check_keys(doc, _TOP_KEYS, "$")
        version = _require(doc, "schema_version", "$")
        if version != SCHEMA_VERSION:
            raise ValidationError("$.schema_version",
                                  f"unsupported version {version!r}")

        sblock = _require(doc, "system", "$")
        _check_keys(sblock, {"A", "B", "C", "x_box", "u_box", "y_box",
                             "w1_box", "w2_box"}, "$.system")
        A = _matrix(_require(sblock, "A", "$.system"), "$.system.A")
        n_x = A.shape[0]
        if A.shape[1] != n_x:
            raise ValidationError("$.system.A", "must be square")
        B = _matrix(_require(sblock, "B", "$.system"), "$.system.B", rows=n_x)
        C = _matrix(_require(sblock, "C", "$.system"), "$.system.C", cols=n_x)
        n_u, n_y = B.shape[1], C.shape[0]
        sys = LtiSystem(
            A=A, B=B, C=C,
            x_box=_box(_require(sblock, "x_box", "$.system"), n_x, "$.system.x_box"),
            u_box=_box(_require(sblock, "u_box", "$.system"), n_u, "$.system.u_box"),
            y_box=_box(_require(sblock, "y_box", "$.system"), n_y, "$.system.y_box"),
            w1_box=_box(_require(sblock, "w1_box", "$.system"), n_x, "$.system.w1_box"),
            w2_box=_box(_require(sblock, "w2_box", "$.system"), n_y, "$.system.w2_box"),
        )
        try:
            validate_system(sys)
        except Exception as exc:
            raise ValidationError("$.system", str(exc)) from exc

        cblock = _require(doc, "certificate", "$")
        _check_keys(cblock, {"P", "Q", "R", "eta", "tol", "search_budget"},
                    "$.certificate")
        eta = _number(_require(cblock, "eta", "$.certificate"), "$.certificate.eta",
                      minimum=0.0)
        if eta >= 1.0:
            raise ValidationError("$.certificate.eta", "must be < 1")
        tol = _number(cblock.get("tol", 1e-8), "$.certificate.tol", minimum=0.0)
        Q = _matrix(_require(cblock, "Q", "$.certificate"), "$.certificate.Q",
                    rows=n_x + n_y, cols=n_x + n_y)
        R = _matrix(_require(cblock, "R", "$.certificate"), "$.certificate.R",
                    rows=n_y, cols=n_y)
        budget = _integer(cblock.get("search_budget", 500),
                          "$.certificate.search_budget", minimum=1)
        p_val = _require(cblock, "P", "$.certificate")
        cert = None
        cert_search = None
        if p_val == "search":
            cert_search = {"Q": Q, "R": R, "eta": eta, "tol": tol,
                           "budget": budget}
        else:
            P = _matrix(p_val, "$.certificate.P", rows=n_x, cols=n_x)
            cert = IossCertificate(P=P, Q=Q, R=R, eta=eta, tol=tol)
            try:
                cert.check_definiteness()
            except Exception as exc:
                raise ValidationError("$.certificate", str(exc)) from exc

        kblock = _require(doc, "controller", "$")
        _check_keys(kblock, {"gain", "u_box", "L_pi", "gamma13_slope"},
                    "$.controller")
        gain = _matrix(_require(kblock, "gain", "$.controller"),
                       "$.controller.gain", rows=n_u, cols=n_x)
        u_box = sys.u_box
        if "u_box" in kblock and kblock["u_box"] is not None:
            u_box = _box(kblock["u_box"], n_u, "$.controller.u_box")
        L_pi = kblock.get("L_pi")
        if L_pi is not None:
            L_pi = _number(L_pi, "$.controller.L_pi", strict_min=0.0)
        gamma13 = kblock.get("gamma13_slope")
        if gamma13 is not None:
            gamma13 = _number(gamma13, "$.controller.gamma13_slope", minimum=0.0)
        law = FeedbackLaw(gain=gain, u_box=u_box, declared_lipschitz=L_pi)

        mblock = _require(doc, "mhe", "$")
        _check_keys(mblock, {"M", "K"}, "$.mhe")
        M = _integer(_require(mblock, "M", "$.mhe"), "$.mhe.M", minimum=1)
        K = _require(mblock, "K", "$.mhe")
        if K != "auto":
            K = _integer(K, "$.mhe.K", minimum=0)
        mhe = {"M": M, "K": K}

        scblock = _require(doc, "scenario", "$")
        _check_keys(scblock, {"x0", "prior", "z0", "steps", "seed", "w1_box",
                              "w2_box", "oracle", "oracle_tol", "monitors"},
                    "$.scenario")
        scenario = {
            "x0": _vector(_require(scblock, "x0", "$.scenario"), n_x,
                          "$.scenario.x0"),
            "prior": _vector(_require(scblock, "prior", "$.scenario"), n_x,
                             "$.scenario.prior"),
            "z0": (_vector(scblock["z0"], n_x, "$.scenario.z0")
                   if scblock.get("z0") is not None else None),
            "steps": _integer(_require(scblock, "steps", "$.scenario"),
                              "$.scenario.steps", minimum=1),
            "seed": _integer(_require(scblock, "seed", "$.scenario"),
                             "$.scenario.seed", minimum=0),
            "w1_box": (_box(scblock["w1_box"], n_x, "$.scenario.w1_box")
                       if scblock.get("w1_box") is not None else None),
            "w2_box": (_box(scblock["w2_box"], n_y, "$.scenario.w2_box")
                       if scblock.get("w2_box") is not None else None),
            "oracle": _boolean(scblock.get("oracle", True), "$.scenario.oracle"),
            "oracle_tol": _number(scblock.get("oracle_tol", 1e-10),
                                  "$.scenario.oracle_tol", strict_min=0.0),
            "monitors": _boolean(scblock.get("monitors", True),
                                 "$.scenario.monitors"),
        }

        ablock = doc.get("analysis", {})
        _check_keys(ablock, {"K_max", "L_Phi", "probe_trials", "probe_seed",
                             "smoke_radius", "smoke_horizon", "smoke_samples"},
                    "$.analysis")
        L_phi_src = ablock.get("L_Phi", "probe")
        if L_phi_src != "probe":
            L_phi_src = _number(L_phi_src, "$.analysis.L_Phi", strict_min=1.0)
        analysis_block = {
            "K_max": _integer(ablock.get("K_max", 5000), "$.analysis.K_max",
                              minimum=1),
            "L_Phi": L_phi_src,
            "probe_trials": _integer(ablock.get("probe_trials", 200),
                                     "$.analysis.probe_trials", minimum=1),
            "probe_seed": _integer(ablock.get("probe_seed", 1),
                                   "$.analysis.probe_seed", minimum=0),
            "smoke_radius": _number(ablock.get("smoke_radius", 1.0),
                                    "$.analysis.smoke_radius", strict_min=0.0),
            "smoke_horizon": _integer(ablock.get("smoke_horizon", 300),
                                      "$.analysis.smoke_horizon", minimum=1),
            "smoke_samples": _integer(ablock.get("smoke_samples", 10),
                                      "$.analysis.smoke_samples", minimum=1),
        }

        oblock = doc.get("output", {})
        _check_keys(oblock, {"dir", "csv", "summary"}, "$.output")
        output = {
            "dir": str(oblock.get("dir", ".")),
            "csv": str(oblock.get("csv", "trajectory.csv")),
            "summary": str(oblock.get("summary", "summary.json")),
        }
        out = cls(sys, cert, cert_search, law, mhe, scenario, analysis_block,
                  output)
        out._gamma13 = gamma13
        out._search_budget = budget
        return out

    # -- serialization ----------------------------------------------------

    @staticmethod
    def _encode_bound(x):
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "-inf"
        return x

    def _encode_box(self, box):
        return [[self._encode_bound(lo), self._encode_bound(hi)]
                for lo, hi in zip(box.lower.tolist(), box.upper.tolist())]

    def to_dict(self):
        sys = self.system
        cert_block = {
            "eta": (self.certificate.eta if self.certificate is not None
                    else self.certificate_search["eta"]),
            "tol": (self.certificate.tol if self.certificate is not None
                    else self.certificate_search["tol"]),
        }
        if self.certificate is not None:
            cert_block["P"] = self.certificate.P.tolist()
            cert_block["Q"] = self.certificate.Q.tolist()
            cert_block["R"] = self.certificate.R.tolist()
        else:
            cert_block["P"] = "search"
            cert_block["Q"] = self.certificate_search["Q"].tolist()
            cert_block["R"] = self.certificate_search["R"].tolist()
        cert_block["search_budget"] = self._search_budget
        sc = self.scenario
        return {
            "schema_version": SCHEMA_VERSION,
            "system": {
                "A": sys.A.tolist(), "B": sys.B.tolist(), "C": sys.C.tolist(),
                "x_box": self._encode_box(sys.x_box),
                "u_box": self._encode_box(sys.u_box),
                "y_box": self._encode_box(sys.y_box),
                "w1_box": self._encode_box(sys.w1_box),
                "w2_box": self._encode_box(sys.w2_box),
            },
            "certificate": cert_block,
            "controller": {
                "gain": self.controller.gain.tolist(),
                "u_box": self._encode_box(self.controller.u_box),
                "L_pi": self.controller.declared_lipschitz,
                "gamma13_slope": self._gamma13,
            },
            "mhe": dict(self.mhe),
            "scenario": {
                "x0": sc["x0"].tolist(),
                "prior": sc["prior"].tolist(),
                "z0": sc["z0"].tolist() if sc["z0"] is not None else None,
                "steps": sc["steps"],
                "seed": sc["seed"],
                "w1_box": (self._encode_box(sc["w1_box"])
                           if sc["w1_box"] is not None else None),
                "w2_box": (self._encode_box(sc["w2_box"])
                           if sc["w2_box"] is not None else None),
                "oracle": sc["oracle"],
                "oracle_tol": sc["oracle_tol"],
                "monitors": sc["monitors"],
            },
            "analysis": dict(self.analysis),
            "output": dict(self.output),
        }

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @property
    def gamma13_slope(self):
        return self._gamma13

    # -- adapters ----------------------------------------------------------

    def window_shapes(self, cert):
        """The WindowShapes of this system, `cert` and the configured M."""
        return WindowShapes(self.system, cert, self.mhe["M"])

    def scenario_config(self, shapes, *, K, seed=None, steps=None, oracle=None,
                        strict=False, allow_uncertified=False, params=None):
        """The scenario run on `shapes`, from window_shapes(cert), with the
        AnalysisParams `params` built on the same shapes (None: no ledger)."""
        sc = self.scenario
        return ScenarioConfig(
            shapes=shapes, law=self.controller, K=K,
            steps=steps if steps is not None else sc["steps"],
            x0=sc["x0"], x_prior0=sc["prior"], z0_0=sc["z0"],
            w1_box=sc["w1_box"], w2_box=sc["w2_box"],
            seed=seed if seed is not None else sc["seed"],
            oracle=oracle if oracle is not None else sc["oracle"],
            oracle_tol=sc["oracle_tol"], monitors=sc["monitors"],
            strict=strict, allow_uncertified=allow_uncertified,
            params=params, config_hash=self.config_hash())


def load_config(path):
    """Parse and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("$", f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from exc
    return ConfigDocument.from_dict(doc)


def loads_config(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from exc
    return ConfigDocument.from_dict(doc)
