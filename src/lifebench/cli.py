"""Command-line interface: run patterns, benchmark engines, estimate FPGA
resources/energy, and build comparison reports.

Exit codes: 0 success, 1 environment or I/O failure (OSError), 2 usage or
validation failure. Commands raise; main() alone prints a failure as one
"error: ..." line on stderr and picks the exit code, and "warning: ..."
lines never change it. Every user-input error, argument errors included, is
a lifebench.grid.InputError, which a library caller can catch. Commands never
touch the network.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

from .engines import ENGINE_KINDS, run
from .grid import InputError, parse_pattern, serialize_pattern

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


def parse_size(token: str) -> tuple[int, int]:
    """'WxH' -> (W, H)."""
    w, sep, h = token.lower().partition("x")
    try:
        if not sep:
            raise ValueError
        width, height = int(w), int(h)
        if width < 1 or height < 1:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH with positive integers, got {token!r}")
    return width, height


def parse_sizes(spec: str) -> tuple[tuple[int, int], ...]:
    """Size list: 'WxH' items and 'W1xH1..W2xH2:STEP' ranges, comma separated.

    A range advances both dimensions by STEP (default 10) while neither
    exceeds its end value, so '10x10..100x100:10' is the standard ladder.
    """
    sizes = []
    for item in spec.split(","):
        item = item.strip()
        if ".." in item:
            start, _, rest = item.partition("..")
            end, _, step_s = rest.partition(":")
            w1, h1 = parse_size(start)
            w2, h2 = parse_size(end)
            try:
                step = int(step_s) if step_s else 10
                if step < 1:
                    raise ValueError
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad range step in {item!r}")
            if w2 < w1 or h2 < h1:
                raise argparse.ArgumentTypeError(f"range end below start in {item!r}")
            i = 0
            while w1 + i * step <= w2 and h1 + i * step <= h2:
                sizes.append((w1 + i * step, h1 + i * step))
                i += 1
        else:
            sizes.append(parse_size(item))
    if not sizes:
        raise argparse.ArgumentTypeError("no sizes given")
    return tuple(sizes)


def _nonneg_int(token: str) -> int:
    try:
        value = int(token)
        if value < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {token!r}")
    return value


def _input_spec(token: str) -> tuple[str, str]:
    """'[LABEL=]PATH' -> (LABEL, PATH); the label defaults to the file's stem."""
    label, sep, path = token.partition("=")
    if not sep:
        label, path = Path(token).stem, token
    if not (label and path):
        raise argparse.ArgumentTypeError(
            f"expected --input [LABEL=]PATH with a nonempty label and path, got {token!r}")
    return label, path


def _power_spec(token: str) -> tuple[str, float]:
    """'LABEL=WATTS' -> (LABEL, WATTS) with positive finite watts."""
    label, sep, watts_s = token.partition("=")
    try:
        watts = float(watts_s)
        if not (sep and label and math.isfinite(watts) and watts > 0):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected --power LABEL=WATTS with a nonempty label "
                                         f"and positive finite watts, got {token!r}")
    return label, watts


def _read(path: str, parse, what: str):
    """parse(the ASCII text of path); an InputError names the file."""
    try:
        return parse(Path(path).read_text("ascii"))
    except UnicodeDecodeError:
        raise InputError(f"{path}: not an ASCII {what} file") from None
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def cmd_run(args) -> int:
    world = _read(args.pattern, parse_pattern, "pattern")
    # --out is opened before any step, so that a bad path fails at once.
    with open(args.out, "w", encoding="ascii") if args.out else contextlib.nullcontext() as out:
        (out or sys.stdout).write(serialize_pattern(run(args.engine, world, args.steps)))
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench
    cfg = bench.BenchConfig(sizes=args.sizes or bench.DEFAULT_SIZES, engine=args.engine,
                            min_steps=args.min_steps, min_duration=args.min_duration,
                            warmup_steps=args.warmup, seed=args.seed,
                            density=args.density)
    cfg.validate()
    # The CSV is opened before anything is timed, so that a bad path fails at once.
    with open(args.csv, "w", encoding="ascii") if args.csv else contextlib.nullcontext() as csv:
        samples = bench.run_bench(cfg)
        for s in samples:
            print(f"{s.width}x{s.height} cells={s.cells} steps={s.steps} "
                  f"ns/step={s.ns_per_step:.3f}")
        if len({s.cells for s in samples}) >= 2:
            fit = bench.linear_fit((s.cells, s.ns_per_step) for s in samples)
            print(f"fit: slope={fit.slope:.6g} ns/cell intercept={fit.intercept:.6g} ns "
                  f"r2={fit.r_squared:.6f}")
        else:
            print("warning: need at least two distinct sizes for a trend line",
                  file=sys.stderr)
        if csv:
            csv.write(bench.samples_to_csv(samples))
    return EXIT_OK


def cmd_estimate(args) -> int:
    from .bench import speedup
    from .energy import energy_per_step, energy_ratio, format_energy
    from .refdata import estimate_resources
    width, height = args.size
    est = estimate_resources(width, height, extrapolate=args.extrapolate)
    fpga_ns = est.min_clock_ns
    fpga_energy = energy_per_step(args.power_fpga, fpga_ns * 1e-9)
    if args.sw_ns_per_step is not None:
        sw_energy = energy_per_step(args.power_sw, args.sw_ns_per_step * 1e-9)
        ratio = energy_ratio(sw_energy, fpga_energy)
    print(f"size: {width}x{height} ({width * height} cells)")
    print(f"registers: {est.registers}")
    print(f"logic elements: {est.les}")
    print(f"min clock period: {est.min_clock_ns} ns")
    print(f"fpga ns/step: {fpga_ns}")
    print(f"fpga energy/step: {format_energy(fpga_energy)} ({fpga_energy:.7g} J)")
    if args.sw_ns_per_step is not None:
        print(f"software ns/step: {args.sw_ns_per_step}")
        print(f"software energy/step: {format_energy(sw_energy)} ({sw_energy:.7g} J)")
        print(f"speedup fpga vs software: {speedup(args.sw_ns_per_step, fpga_ns):.1f}")
        print(f"energy ratio software/fpga: {ratio:.1f}")
    return EXIT_OK


def cmd_report(args) -> int:
    from . import bench
    from .energy import (DEFAULT_PROFILES, PowerProfile, comparison_csv, comparison_markdown,
                         comparison_table)
    from .refdata import published_samples
    device_samples = {}
    if args.published:
        device_samples.update(published_samples())
    for label, path in args.input or []:
        if label in device_samples:
            raise InputError(f"device label {label!r} is given twice")
        device_samples[label] = _read(path, bench.read_csv, "CSV")
    if not device_samples:
        raise InputError("no input samples (give --input or --published)")
    profiles, powered = dict(DEFAULT_PROFILES), set()
    for label, watts in args.power or []:
        if label in powered:
            raise InputError(f"--power label {label!r} is given twice")
        if label not in device_samples and label != "fpga":
            raise InputError(f"--power label {label!r} names no device of the report")
        powered.add(label)
        profiles[label] = PowerProfile(label, watts, "command line")
    rows = comparison_table(device_samples, profiles=profiles)
    plots = {device: [Path(f"{args.plot_data}_{device}{end}") for end in (".csv", "_fit.csv")]
             for device in sorted(device_samples)} if args.plot_data else {}
    for path in (path for paths in plots.values() for path in paths):
        if not path.parent.is_dir():  # fail before the table is printed
            raise FileNotFoundError(f"no such directory: {path.parent}")
    sys.stdout.write(comparison_csv(rows) if args.format == "csv"
                     else comparison_markdown(rows))

    for device, (points_path, fit_path) in plots.items():
        points, fit = bench.plot_data(device_samples[device])
        if fit is None:
            print(f"warning: {device}: need at least two sizes for a trend line",
                  file=sys.stderr)
        points_path.write_text(points, encoding="ascii")
        if fit is not None:
            fit_path.write_text(fit, encoding="ascii")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument error raises InputError, so main() reports it like any other."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lifebench",
        description="Game of Life engines, benchmarks, and FPGA estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="step a pattern file and print the final world")
    p.add_argument("pattern", help="plaintext pattern file ('.' dead, 'O' alive)")
    p.add_argument("--engine", choices=ENGINE_KINDS, default="reference")
    p.add_argument("--steps", type=_nonneg_int, default=1)
    p.add_argument("--out", help="write the final pattern here instead of stdout")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="time engine steps over a ladder of world sizes")
    p.add_argument("--sizes", type=parse_sizes, default=None,
                   help="e.g. '10x10..100x100:10' or '8x8,16x16' (default: the 10..100 ladder)")
    p.add_argument("--engine", choices=ENGINE_KINDS, default="reference")
    p.add_argument("--min-steps", type=_nonneg_int, default=1_000_000)
    p.add_argument("--min-duration", type=float, default=1.0,
                   help="per-size wall time floor in seconds (default 1.0)")
    p.add_argument("--warmup", type=_nonneg_int, default=10_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--csv", help="also write samples as CSV to this path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("estimate", help="FPGA resource and energy estimate for one size")
    p.add_argument("--size", type=parse_size, required=True, help="world size WxH")
    p.add_argument("--power-fpga", type=float, default=24.0,
                   help="FPGA board power in watts (default 24, the board supply rating)")
    p.add_argument("--power-sw", type=float, default=6.4,
                   help="software device power in watts (default 6.4)")
    p.add_argument("--sw-ns-per-step", type=float, default=None,
                   help="measured software ns/step for speedup and energy comparison")
    p.add_argument("--extrapolate", action="store_true",
                   help="allow sizes outside the calibration range")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("report", help="comparison tables and plot data from bench CSVs")
    p.add_argument("--input", type=_input_spec, action="append", metavar="[LABEL=]PATH",
                   help="bench CSV for one device; repeatable")
    p.add_argument("--published", action="store_true",
                   help="include the packaged published device timings")
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.add_argument("--plot-data", metavar="PREFIX",
                   help="write PREFIX_<device>.csv plot-data files")
    p.add_argument("--power", type=_power_spec, action="append", metavar="LABEL=WATTS",
                   help="power profile for a device label; repeatable")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, InputError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
