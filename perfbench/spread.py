"""Repeat the benchmark over seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py [--baseline perfbench/baseline.json]

Runs the command in BENCHMARK.json on every workload it lists, once per
seed 1 to 10, one run at a time, and prints per metric the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound.
With --baseline it also makes one traced run per workload and writes, per
workload, the environment record of its first run, the medians, quartiles
and spreads, and the traced per-layer values to that file.
Exits 1 if a run fails or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return env, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--baseline", help="write the results to this JSON file")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    report = {"run_seconds": spec["run_seconds"], "runs": len(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            env, result = run_once(spec, workload, seed, 0)
            report["workloads"].setdefault(workload, {"env": env})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        e2e = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= m["bound"] / 3 else "WIDE"
            if spread > m["bound"]:
                flag, ok = "OVER", False
            print(f"{workload:10} {m['name']:15} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.4f} bound {m['bound']:.2f} {flag}",
                  flush=True)
            e2e[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "unit": m["unit"], "values": vals}
        report["workloads"][workload]["end_to_end"] = e2e
        if args.baseline:
            _, traced = run_once(spec, workload, SEEDS[0], 1)
            report["workloads"][workload]["per_layer"] = traced["metrics"]
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
