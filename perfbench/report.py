"""Print every metric of every workload, with units, and the correctness gate.

    python3 perfbench/report.py [--seed 1] [--seconds 10]

Runs each workload of run.py twice, untraced for the end-to-end metrics and
traced for the per-layer ones, then prints the tracing overhead (traced
minus untraced op_ms_p90) and, for the loops, how the layers' self times
add up to the closed loop's wall time. Exits 1 if any gate fails.
"""

import argparse
import json
import sys

import run


def unit_of(name):
    if name.endswith(".us") or ".us_per_iter" in name:
        return "us"
    if "_ms_p" in name:
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_rms"):
        return "norm"
    return "count"


def table(title, rows, workloads):
    print(f"\n{title}")
    width = max(len(r[0]) for r in rows) + 2
    print(f"{'':{width}s}{'unit':>7s}" + "".join(f"{w:>16s}" for w in workloads))
    for name, unit, values in rows:
        cells = "".join(f"{v:>16.6g}" if isinstance(v, (int, float))
                        and not isinstance(v, bool) else f"{str(v):>16s}"
                        for v in values)
        print(f"{name:{width}s}{unit:>7s}{cells}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    workloads = list(run.WORKLOADS)
    plain, traced = {}, {}
    for w in workloads:
        print(f"running {w} ...", file=sys.stderr, flush=True)
        plain[w] = run.run_workload(w, args.seed, args.seconds, 0)
        traced[w] = run.run_workload(w, args.seed, args.seconds, 1)

    print("environment:", json.dumps(plain[workloads[0]]["environment"]))
    e2e, _ = run.metric_spec()
    table("end-to-end (untraced)",
          [(m["name"], m["unit"], [plain[w]["metrics"][m["name"]]["value"]
                                   for w in workloads]) for m in e2e], workloads)
    gated = {m["name"] for m in e2e}
    table("also measured, not in BENCHMARK.json",
          [(k, unit_of(k), [plain[w]["end_to_end"][k] for w in workloads])
           for k in plain[workloads[0]]["end_to_end"] if k not in gated],
          workloads)

    gate_keys = ("correct", "attempted", "failed", "failed_frac", "reproducible",
                 "K", "solver_backend", "monitor_fail", "est_err_rms",
                 "subopt_rms")
    table("correctness gate (untraced run)",
          [(k, unit_of(k) if k.endswith(("_rms", "_frac")) else "",
            [plain[w]["gate"][k] for w in workloads]) for k in gate_keys],
          workloads)

    names = list(traced[workloads[0]]["layers"])
    table("per layer (traced run)",
          [(n, unit_of(n), [traced[w]["layers"][n] for w in workloads])
           for n in names], workloads)

    print("\ntracing overhead: traced minus untraced op_ms_p90")
    for w in workloads:
        base = plain[w]["metrics"]["op_ms_p90"]["value"]
        over = traced[w]["layers"]["traced.op_ms_p90"] - base
        print(f"  {w:16s} {over:+.4g} ms ({100 * over / base:+.1f} %)")

    for w in workloads:
        acc = traced[w]["loop_accounting"]
        if not acc["loop_wall_s"]:
            continue
        wall = acc["loop_wall_s"]
        parts = sorted(acc["self_s"].items(), key=lambda kv: -kv[1])
        print(f"\n{w}: run_closed_loop wall {wall:.4f} s per process; "
              f"self time by layer:")
        for layer, s in parts:
            print(f"  {layer:12s} {s:9.4f} s  {100 * s / wall:5.1f} %")
        print(f"  {'sum':12s} {sum(s for _, s in parts):9.4f} s")

    ok = all(r["gate"]["correct"] for r in (*plain.values(), *traced.values()))
    print(f"\nall gates passed: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
