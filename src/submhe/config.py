"""JSON configuration: strict parsing, canonical form, and hashing.

The document is schema-versioned JSON with matrices as nested row arrays and
interval bounds as numbers or the sentinels "inf" / "-inf" (null also means
unbounded on that side). Unknown keys are rejected; every error carries the
offending field path. Loading applies defaults, so a loaded document
re-serialized and re-loaded is identical (canonical form). The canonical
form is the encoding of the parsed blocks, so it names every accepted key.
json_value is that encoding, and the one strict-JSON encoder of the
package: the CLI writes every document it emits through it too.
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


def _check_keys(d, allowed, path):
    unknown = set(d).difference(allowed)
    if unknown:
        raise ValidationError(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _require(d, key, path):
    if key not in d:
        raise ValidationError(f"{path}.{key}", "missing required field")
    return d[key]


def _block(doc, key, required=True):
    """The object at $.key; an optional block left out is empty."""
    value = _require(doc, key, "$") if required else doc.get(key, {})
    if not isinstance(value, dict):
        raise ValidationError(f"$.{key}", "expected an object")
    return value


def json_value(value):
    """The strict-JSON form of value, the one encoder of the package: a dict
    key by key, a Box as [lo, hi] pairs, an array, list or tuple as nested
    lists, a non-finite number as "inf", "-inf" or "nan"; anything else as
    it is."""
    if isinstance(value, dict):
        return {key: json_value(val) for key, val in value.items()}
    if isinstance(value, Box):
        value = np.column_stack([value.lower, value.upper])
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [json_value(val) for val in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


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
        if lo[-1] == hi[-1] and math.isinf(lo[-1]):
            raise ValidationError(f"{path}[{i}]", "both ends are the same infinity")
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


def _path_name(value, path):
    if not isinstance(value, str) or not value:
        raise ValidationError(path, f"not a non-empty string: {value!r}")
    return value


def _file_name(value, path):
    """A file name inside the output dir: no '.', '..' or path separator."""
    name = _path_name(value, path)
    if name in (".", "..") or "/" in name or "\\" in name:
        raise ValidationError(path, f"not a file name in $.output.dir: {name!r}")
    return name


class ConfigDocument:
    """Validated configuration with canonical serialization.

    `blocks` holds the parsed value of every accepted key, defaults applied,
    block by block. The canonical form is their encoding, so a key is hashed
    exactly when it is accepted.
    """

    def __init__(self, blocks, system, certificate, controller):
        self.blocks = blocks
        self.system = system
        self.certificate = certificate   # IossCertificate, or None when searching
        self.controller = controller
        self.mhe = blocks["mhe"]         # {"M", "K"}
        self.scenario = blocks["scenario"]
        self.analysis = blocks["analysis"]
        self.output = blocks["output"]

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValidationError("$", "top level must be an object")
        version = _require(doc, "schema_version", "$")
        if version != SCHEMA_VERSION:
            raise ValidationError("$.schema_version",
                                  f"unsupported version {version!r}")

        sblock = _block(doc, "system")
        A = _matrix(_require(sblock, "A", "$.system"), "$.system.A")
        n_x = A.shape[0]
        if A.shape[1] != n_x:
            raise ValidationError("$.system.A", "must be square")
        B = _matrix(_require(sblock, "B", "$.system"), "$.system.B", rows=n_x)
        C = _matrix(_require(sblock, "C", "$.system"), "$.system.C", cols=n_x)
        n_u, n_y = B.shape[1], C.shape[0]
        system = {"A": A, "B": B, "C": C}
        for key, dim in (("x_box", n_x), ("u_box", n_u), ("y_box", n_y),
                         ("w1_box", n_x), ("w2_box", n_y)):
            system[key] = _box(_require(sblock, key, "$.system"), dim,
                               f"$.system.{key}")
        _check_keys(sblock, system, "$.system")
        sys = LtiSystem(**system)
        try:
            validate_system(sys)
        except Exception as exc:
            raise ValidationError("$.system", str(exc)) from exc

        cblock = _block(doc, "certificate")
        eta = _number(_require(cblock, "eta", "$.certificate"), "$.certificate.eta",
                      strict_min=0.0)
        if eta >= 1.0:
            raise ValidationError("$.certificate.eta", "must be < 1")
        p_val = _require(cblock, "P", "$.certificate")
        if p_val != "search":
            p_val = _matrix(p_val, "$.certificate.P", rows=n_x, cols=n_x)
        certificate = {
            "P": p_val,
            "Q": _matrix(_require(cblock, "Q", "$.certificate"), "$.certificate.Q",
                         rows=n_x + n_y, cols=n_x + n_y),
            "R": _matrix(_require(cblock, "R", "$.certificate"), "$.certificate.R",
                         rows=n_y, cols=n_y),
            "eta": eta,
        }
        _check_keys(cblock, certificate, "$.certificate")
        cert = None
        if not isinstance(p_val, str):
            cert = IossCertificate(P=p_val, Q=certificate["Q"], R=certificate["R"],
                                   eta=eta)
            try:
                cert.check_definiteness()
            except Exception as exc:
                raise ValidationError("$.certificate", str(exc)) from exc

        kblock = _block(doc, "controller")
        controller = {
            "gain": _matrix(_require(kblock, "gain", "$.controller"),
                            "$.controller.gain", rows=n_u, cols=n_x),
        }
        _check_keys(kblock, controller, "$.controller")
        law = FeedbackLaw(gain=controller["gain"], u_box=sys.u_box)

        mblock = _block(doc, "mhe")
        K = _require(mblock, "K", "$.mhe")
        mhe = {
            "M": _integer(_require(mblock, "M", "$.mhe"), "$.mhe.M", minimum=1),
            "K": K if K == "auto" else _integer(K, "$.mhe.K", minimum=0),
        }
        _check_keys(mblock, mhe, "$.mhe")

        scblock = _block(doc, "scenario")
        scenario = {
            "x0": _vector(_require(scblock, "x0", "$.scenario"), n_x,
                          "$.scenario.x0"),
            "prior": _vector(_require(scblock, "prior", "$.scenario"), n_x,
                             "$.scenario.prior"),
            "steps": _integer(_require(scblock, "steps", "$.scenario"),
                              "$.scenario.steps", minimum=1),
            "seed": _integer(_require(scblock, "seed", "$.scenario"),
                             "$.scenario.seed", minimum=0),
        }
        _check_keys(scblock, scenario, "$.scenario")

        ablock = _block(doc, "analysis", required=False)
        L_phi_src = ablock.get("L_Phi", "probe")
        analysis_block = {
            "L_Phi": (L_phi_src if L_phi_src == "probe" else
                      _number(L_phi_src, "$.analysis.L_Phi", strict_min=1.0)),
            "probe_trials": _integer(ablock.get("probe_trials", 200),
                                     "$.analysis.probe_trials", minimum=1),
            "probe_seed": _integer(ablock.get("probe_seed", 1),
                                   "$.analysis.probe_seed", minimum=0),
        }
        _check_keys(ablock, analysis_block, "$.analysis")

        oblock = _block(doc, "output", required=False)
        output = {key: check(oblock.get(key, default), f"$.output.{key}")
                  for key, default, check in (
                      ("dir", ".", _path_name),
                      ("csv", "trajectory.csv", _file_name),
                      ("summary", "summary.json", _file_name))}
        _check_keys(oblock, output, "$.output")
        if output["summary"] == output["csv"]:
            raise ValidationError("$.output.summary",
                                  "names the same file as $.output.csv")

        blocks = {"system": system, "certificate": certificate,
                  "controller": controller, "mhe": mhe, "scenario": scenario,
                  "analysis": analysis_block, "output": output}
        _check_keys(doc, {"schema_version", *blocks}, "$")
        return cls(blocks, sys, cert, law)

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return {"schema_version": SCHEMA_VERSION, **json_value(self.blocks)}

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- adapters ----------------------------------------------------------

    def window_shapes(self, cert):
        """The WindowShapes of this system, `cert` and the configured M."""
        return WindowShapes(self.system, cert, self.mhe["M"])

    def scenario_config(self, shapes, *, K, seed=None, steps=None, oracle=True,
                        params=None):
        """The scenario run on `shapes`, from window_shapes(cert), with the
        AnalysisParams `params` built on the same shapes (None, or the
        SubmheError that stopped their build: no ledger)."""
        sc = self.scenario
        return ScenarioConfig(
            shapes=shapes, law=self.controller, K=K,
            steps=steps if steps is not None else sc["steps"],
            x0=sc["x0"], x_prior0=sc["prior"],
            seed=seed if seed is not None else sc["seed"],
            oracle=oracle,
            params=params, config_hash=self.config_hash())


def load_config(path):
    """Parse and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("$", f"cannot read {path}: {exc}") from exc
    return loads_config(text)


def _finite_number(token):
    """Decode hook for float literals and the NaN / Infinity / -Infinity
    tokens: a config number is finite (a box side is unbounded as "inf")."""
    value = float(token)
    if not math.isfinite(value):
        raise ParseError("$", f"invalid JSON: {token} is not a finite number")
    return value


def loads_config(text):
    try:
        doc = json.loads(text, parse_constant=_finite_number,
                         parse_float=_finite_number)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from exc
    return ConfigDocument.from_dict(doc)
