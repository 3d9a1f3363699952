"""Outputs of one tree of the package, saved and compared with another tree's.

    PYTHONPATH=src python bench/outputs.py PATH [BASE]

Runs a fixed matrix in-process on the submhe on PYTHONPATH and saves every
output to PATH (numpy .npz):
- the loop: `simulate`'s loop on both shipped configs, seeds 1-6, 400
  steps, each run set up through `cli.prepare_run` (rho >= 1 allowed, as
  `simulate --uncertified` allows it, which case_study.json needs), three
  ways: at the config's K with the oracle off, at the config's K with it
  on, and at K = 25 with it on. Every column of each run's record is kept,
  with its K and oracle counters;
- the CLI: the text (stdout, exit code, stderr) of `analyze-k` on both
  configs and on the certify-probe config (P searched, L_Phi probed, probe
  seed 7, 200 trials), and of `verify` and `certify` on both configs.

With BASE, a file this script saved from another tree, it names the first
run whose `looped`, `feasible`, verdicts, K or CLI text differs from
BASE's, and exits 1 if one does. It also prints, per float column over all
runs, the largest absolute gap and the largest gap relative to the run's
column maximum (its largest absolute value in BASE).
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from submhe.cli import prepare_run, run_cli
from submhe.config import load_config
from submhe.harness import run_closed_loop

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("case_study.json", "case_study_certified.json")
SEEDS = (1, 2, 3, 4, 5, 6)
STEPS = 400
RUNS = (("K_off", None, False), ("K_on", None, True), ("K25_on", 25, True))  # K None: the config's
PROBE_CONFIG = "certify_probe.json"  # case_study_certified.json, as PROBE changes it
PROBE = {"certificate": {"P": "search"},
         "analysis": {"L_Phi": "probe", "probe_seed": 7, "probe_trials": 200}}
COMMANDS = (("analyze-k", CONFIGS + (PROBE_CONFIG,)), ("verify", CONFIGS),
            ("certify", CONFIGS))
EXACT = ("K", "looped", "feasible", "verdicts", "text")  # compared byte for byte
COLUMNS = ("x", "y", "u", "xhat", "e_norm", "w_delta", "sigma_raw", "sigma_clamped",
           "looped", "feasible", "eps", "eps_v", "warm_v", "verdicts", "K",
           "oracle_solves", "oracle_extra_iters", "oracle_bound_max")


def loop_outputs(name, doc, seed, K, oracle):
    """{run/column: array} of one loop run; a column the run has not (eps
    with the oracle off, say) is left out."""
    cfg = prepare_run(doc, K, seed=seed, steps=STEPS, oracle=oracle, uncertified=True)
    log = run_closed_loop(cfg)
    return {f"{name}/{col}": np.asarray(getattr(log, col)) for col in COLUMNS
            if getattr(log, col) is not None}


def cli_text(argv):
    """stdout, exit code and stderr of one CLI call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return f"{out.getvalue()}[exit {code}]\n{err.getvalue()}"


def measure():
    """{key: array} of the whole matrix, in matrix order: the loop runs,
    then the CLI texts."""
    outputs = {}
    for config in CONFIGS:
        doc = load_config(ROOT / "configs" / config)
        for seed in SEEDS:
            for mode, K, oracle in RUNS:
                outputs.update(loop_outputs(f"{config}/seed{seed}/{mode}", doc, seed,
                                            K, oracle))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {config: ROOT / "configs" / config for config in CONFIGS}
        raw = json.loads(paths["case_study_certified.json"].read_text())
        for block, values in PROBE.items():
            raw[block].update(values)
        paths[PROBE_CONFIG] = Path(tmp) / PROBE_CONFIG
        paths[PROBE_CONFIG].write_text(json.dumps(raw))
        for command, configs in COMMANDS:
            for config in configs:
                text = cli_text([command, "--config", str(paths[config])])
                outputs[f"cli/{command}/{config}/text"] = np.array(text)
    return outputs


def compare(outputs, base):
    """(first, gaps): the first key, in the order of `outputs`, whose exact
    column differs from base's or that one side lacks (None when none
    does), and {float column: (largest absolute gap, largest relative
    gap)} over the runs both sides have."""
    def differs(key):
        if key not in base or key not in outputs:
            return True
        got, want = outputs[key], base[key]
        return got.shape != want.shape or (key.rsplit("/", 1)[1] in EXACT
                                           and not np.array_equal(got, want))

    first = next(filter(differs, list(outputs) + [k for k in base if k not in outputs]),
                 None)
    gaps = {}
    for key, got in outputs.items():
        col = key.rsplit("/", 1)[1]
        if col in EXACT or differs(key):
            continue
        want = base[key].astype(float)
        gap = float(np.max(np.abs(got - want), initial=0.0))
        scale = float(np.max(np.abs(want), initial=0.0))
        absolute, relative = gaps.get(col, (0.0, 0.0))
        gaps[col] = (max(absolute, gap),
                     max(relative, gap / scale if scale > 0 else float(gap > 0)))
    return first, gaps


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    outputs = measure()
    np.savez_compressed(args[0], **outputs)
    print(f"saved {len(outputs)} outputs to {args[0]}")
    if len(args) == 1:
        return 0
    with np.load(args[1]) as saved:
        base = {key: saved[key] for key in saved.files}
    first, gaps = compare(outputs, base)
    for col, (absolute, relative) in gaps.items():
        print(f"{col:>18}: largest gap {absolute:.3g} absolute, {relative:.3g} "
              "relative to the run's column maximum")
    if first is None:
        print(f"no difference in {', '.join(EXACT)} from {args[1]}")
        return 0
    print(f"first difference from {args[1]}: {first}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
