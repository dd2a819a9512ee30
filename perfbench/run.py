"""lifebench benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Runs passes of the workload (see workloads.py) until --seconds have gone by,
checks every engine's output in every pass, and prints the metrics by name
and unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Each metric is the median
over the passes after the first, which only warms up.

--trace 0 reports the end-to-end metrics:
  wall_s        one pass, from the fresh package import to its last check
  setup_s       import, world generation or pattern parse, elaborate and the
                first load: everything before the first step
  <engine>.cups cells x generations / that engine's load + step + world() time
  peak_rss_mb   the process's ru_maxrss
--trace 1 alternates plain and traced passes, reports per-layer self times
and counts from the traced ones, the tracing overhead, and writes every span
to perfbench/traces/<workload>-seed<seed>.jsonl. Plain passes record only the
spans the end-to-end metrics come from (the pass, its set-up and the engine
loops); traced passes add every other span, and on frames a span per engine
call. The overhead is given twice:
  trace.overhead_s    traced minus plain wall_s. Tracing adds tens (ladder,
                      megaworld) to hundreds (frames) of spans to a pass of
                      about a second, so this is mostly pass-to-pass noise.
  trace.span_cost_s   the spans a traced pass adds times the measured cost of
                      recording one span.

Exit status: 0 when every check passed, 1 when one failed (the result line
then says "correct": false), 2 when the lifebench sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, self_ns, span_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# End-to-end metric -> unit.
E2E = {"wall_s": "s", "setup_s": "s", **{f"{k}.cups": "cells/s" for k in workloads.KINDS},
       "peak_rss_mb": "MB"}

# Per-layer metric -> unit; values are per-pass sums over the traced spans.
LAYERS = {"import.s": "s", "trace.overhead_s": "s", "trace.span_cost_s": "s"}
for _k in workloads.KINDS:
    LAYERS.update({f"engines.{_k}.step.s": "s", f"engines.{_k}.step.ns_per_cell": "ns/cell",
                   f"engines.{_k}.steps": "count", f"engines.{_k}.load.s": "s",
                   f"engines.{_k}.world.s": "s", f"engines.{_k}.codec_share": "ratio"})
LAYERS.update({
    "grid.random_world.s": "s", "grid.random_world.cells": "count",
    "circuit.elaborate.s": "s", "circuit.elaborate.ns_per_cell": "ns/cell",
    "circuit.nodes": "count",
    "grid.parse_pattern.s": "s", "grid.serialize_pattern.s": "s", "grid.pattern.bytes": "count",
    "cli.run.s": "s",
    "bench.run_bench.s": "s", "bench.harness_overhead.ns_per_step": "ns/step",
    "energy.comparison_table.s": "s", "bench.linear_fit.s": "s",
})


def git_commit(root: Path):
    """HEAD commit read from root/.git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    """The first "model name" in /proc/cpuinfo, or None where there is none."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
            "loadavg_1m": os.getloadavg()[0], "commit": git_commit(ROOT)}


def pass_metrics(spans, first: int) -> dict:
    """End-to-end and per-layer values of the pass whose spans start at `first`."""
    own = self_ns(spans, first)
    by_name: dict[str, int] = {}
    total: dict[str, int] = {}
    counts: dict[str, int] = {}
    engine_ns = dict.fromkeys(workloads.KINDS, 0)
    cellgens = dict.fromkeys(workloads.KINDS, 0)
    for s, ns in zip(spans[first:], own):
        by_name[s.name] = by_name.get(s.name, 0) + ns
        total[s.name] = total.get(s.name, 0) + s.ns
        for key, value in s.attrs.items():
            if key != "engine":
                counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value
        if "engine" in s.attrs:
            engine_ns[s.attrs["engine"]] += s.ns
            cellgens[s.attrs["engine"]] += s.attrs.get("cellgens", 0)

    def per(num_ns, den):
        return num_ns / den if den else 0.0

    m = {"wall_s": total["pass"] / 1e9, "setup_s": total["setup"] / 1e9,
         "spans": len(spans) - first}
    for name in ("import", "grid.random_world", "circuit.elaborate", "grid.parse_pattern",
                 "grid.serialize_pattern", "cli.run", "bench.run_bench",
                 "energy.comparison_table", "bench.linear_fit"):
        m[f"{name}.s"] = by_name.get(name, 0) / 1e9
    for k in workloads.KINDS:
        m[f"{k}.cups"] = per(cellgens[k] * 1e9, engine_ns[k])
        e = f"engines.{k}"
        step, load, world = (by_name.get(f"{e}.{p}", 0) for p in ("step", "load", "world"))
        m[f"{e}.step.s"] = step / 1e9
        m[f"{e}.load.s"] = load / 1e9
        m[f"{e}.world.s"] = world / 1e9
        m[f"{e}.steps"] = counts.get(f"{e}.step.steps", 0)
        m[f"{e}.step.ns_per_cell"] = per(step, counts.get(f"{e}.step.cellgens", 0))
        m[f"{e}.codec_share"] = per(load + world, load + step + world)
    m["grid.random_world.cells"] = counts.get("grid.random_world.cells", 0)
    m["circuit.elaborate.ns_per_cell"] = per(by_name.get("circuit.elaborate", 0),
                                             counts.get("circuit.elaborate.cells", 0))
    m["circuit.nodes"] = counts.get("circuit.elaborate.nodes", 0)
    m["grid.pattern.bytes"] = (counts.get("grid.parse_pattern.bytes", 0)
                               + counts.get("grid.serialize_pattern.bytes", 0))
    # run_bench ns/step minus the bare step loop's, same worlds and steps.
    # Taken on the bitsliced engine: its step is the cheapest and its loop
    # the longest, so the harness's per-step cost stands out of the noise.
    rb = "bench.run_bench.bitsliced"
    m["bench.harness_overhead.ns_per_step"] = per(
        counts.get(f"{rb}.sample_ns", 0) - by_name.get("engines.bitsliced.step", 0),
        counts.get(f"{rb}.steps", 0))
    return m


def median_of(passes) -> dict:
    return {n: statistics.median(p[n] for p in passes) for n in passes[0]} if passes else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lifebench" / "__init__.py").is_file():
        print(f"error: no lifebench sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = environment(args)
    print("env " + json.dumps(env))

    run_pass, cfg = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    gate = workloads.Gate()
    plain, traced, digests = [], [], set()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        for n in itertools.count():
            detailed = bool(args.trace) and len(plain) > len(traced)
            first = tracer.begin(n, detailed)
            try:
                with tracer.span("pass"):
                    digests.add(run_pass(tracer, gate, args.seed, cfg, Path(workdir)))
            except Exception:
                traceback.print_exc()
                gate.check(False, f"pass {n} raised")
                break
            if gate.failed:
                break
            # pass 0 warms the allocator and caches: it is checked, not timed
            if n > 0:
                (traced if detailed else plain).append(pass_metrics(tracer.spans, first))
            if (time.perf_counter() - start >= args.seconds
                    and len(plain) >= 1 and len(traced) >= args.trace):
                break
            gc.collect()

    pinned = cfg["digests"].get(args.seed)
    if not gate.failed:
        gate.check(len(digests) == 1, f"final worlds changed between passes: {digests}")
        gate.check(pinned is None or digests == {pinned},
                   f"final-world digest {digests} != pinned {pinned} for seed {args.seed}")
    for err in gate.errors:
        print(f"FAIL {err}", file=sys.stderr)

    if args.trace:
        units = LAYERS
        metrics = median_of(traced)
        if traced:
            extra = metrics["spans"] - median_of(plain)["spans"]
            metrics["trace.overhead_s"] = metrics["wall_s"] - median_of(plain)["wall_s"]
            metrics["trace.span_cost_s"] = extra * span_ns() / 1e9
        out = HERE / "traces"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{args.workload}-seed{args.seed}.jsonl", env)
    else:
        units = E2E
        metrics = median_of(plain)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # zeros stand in only when a failure left no timed pass
    metrics = {name: metrics.get(name, 0.0) for name in units}

    fail_ratio = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"passes {len(plain)} plain, {len(traced)} traced; digest {sorted(digests)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {fail_ratio:.6g} ratio ({gate.failed}/{gate.attempted})")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
