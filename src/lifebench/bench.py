"""Benchmark harness: seeded random worlds per size, ns/step, trend lines.

Timing reads an injectable monotonic nanosecond clock once per engine step;
the timed region contains nothing but step calls and those reads. Samples
carry exact integer (total_ns, steps) pairs, and ns/step is derived from
them only at display time (3 fractional digits in CSV output).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .engines import ENGINE_KINDS, make_engine
from .grid import InputError, Rng, random_world

CSV_HEADER = "width,height,cells,engine,steps,total_ns,ns_per_step"
_COLUMN_TYPES = (int, int, int, str, int, int, float)

DEFAULT_SIZES = tuple((k, k) for k in range(10, 101, 10))


class ClockError(RuntimeError):
    """The injected clock produced a decreasing reading."""


class DegeneratePoints(ValueError):
    """Regression input has fewer than two distinct x values."""


class ZeroDivisor(ZeroDivisionError):
    """Denominator of a ratio is zero (or not positive)."""


class CsvSchemaError(InputError):
    """CSV input does not match the benchmark sample schema."""


@dataclass
class BenchConfig:
    sizes: tuple = DEFAULT_SIZES
    engine: str = "reference"
    min_steps: int = 1_000_000
    min_duration: float = 1.0     # seconds; both floors must be met
    warmup_steps: int = 10_000
    seed: int = 1
    density: float = 0.5

    def validate(self) -> None:
        if not self.sizes:
            raise InputError("sizes must be nonempty")
        if self.engine not in ENGINE_KINDS:
            raise InputError(f"unknown engine {self.engine!r}")
        if self.min_steps < 1:
            raise InputError("min_steps must be >= 1")
        if not 0 <= self.min_duration * 1e9 < 2 ** 63:  # also rejects NaN; as in BenchSample
            raise InputError(f"min_duration must be in [0 s, 2**63 ns), got {self.min_duration}")
        if self.warmup_steps < 0:
            raise InputError("warmup_steps must be >= 0")
        if not 0.0 <= self.density <= 1.0:  # also rejects NaN
            raise InputError(f"density must be in [0, 1], got {self.density}")


@dataclass
class BenchSample:
    width: int
    height: int
    cells: int
    engine: str
    steps: int
    total_ns: int

    def __post_init__(self):
        if min(self.width, self.height) < 1 or self.cells != self.width * self.height:
            raise ValueError(f"{self.cells} cells is not a {self.width}x{self.height} world")
        if self.steps < 1 or not 0 <= self.total_ns < 2 ** 63:  # ns/step is a finite float
            raise ValueError(f"need steps >= 1 and 0 <= total_ns < 2**63, "
                             f"got {self.steps}, {self.total_ns}")

    @property
    def ns_per_step(self) -> float:
        return self.total_ns / self.steps


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    r_squared: float


def run_bench(cfg: BenchConfig, clock=None) -> list[BenchSample]:
    """One timed sample per configured size.

    Per size: build a seeded random world, run the warmup untimed, then
    step until both the step floor and the duration floor are satisfied.
    World seeds are drawn from a SplitMix64 stream over cfg.seed, so output
    is reproducible given the config (and a deterministic clock).
    """
    cfg.validate()
    if clock is None:
        clock = time.perf_counter_ns
    rng = Rng(cfg.seed)
    min_dur_ns = int(cfg.min_duration * 1e9)
    samples = []
    for width, height in cfg.sizes:
        world = random_world(width, height, cfg.density, rng.next_u64())
        engine = make_engine(cfg.engine, world)
        for _ in range(cfg.warmup_steps):
            engine.step()
        start = clock()
        last = start
        steps = 0
        while steps < cfg.min_steps or last - start < min_dur_ns:
            engine.step()
            now = clock()
            if now < last:
                raise ClockError(f"clock regressed: {now} < {last}")
            last = now
            steps += 1
        samples.append(BenchSample(width, height, width * height,
                                   cfg.engine, steps, last - start))
    return samples


def samples_to_csv(samples) -> str:
    lines = [CSV_HEADER]
    for s in samples:
        lines.append(f"{s.width},{s.height},{s.cells},{s.engine},"
                     f"{s.steps},{s.total_ns},{s.total_ns / s.steps:.3f}")
    return "\n".join(lines) + "\n"


def read_csv(text: str) -> list[BenchSample]:
    """Parse benchmark CSV text; CsvSchemaError names any bad column or row.

    A row's ns_per_step must equal total_ns / steps to the 3 decimals that
    samples_to_csv writes.
    """
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise CsvSchemaError("empty CSV, expected header " + CSV_HEADER)
    header = lines[0].split(",")
    expected = CSV_HEADER.split(",")
    if header != expected:
        missing = [c for c in expected if c not in header]
        extra = [c for c in header if c not in expected]
        parts = []
        if missing:
            parts.append("missing column(s): " + ", ".join(missing))
        if extra:
            parts.append("unexpected column(s): " + ", ".join(extra))
        if not parts:
            parts.append("columns out of order: " + ",".join(header))
        raise CsvSchemaError("; ".join(parts))
    samples = []
    for i, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        if len(cols) != len(expected):
            raise CsvSchemaError(f"line {i}: expected {len(expected)} columns, got {len(cols)}")
        values = []
        for name, kind, text in zip(expected, _COLUMN_TYPES, cols):
            try:
                values.append(kind(text))
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise CsvSchemaError(f"line {i}: {name} {text!r} is not {what}") from None
        *fields, ns_per_step = values
        try:
            sample = BenchSample(*fields)
            due = f"{sample.ns_per_step:.3f}"  # as samples_to_csv writes it
            if ns_per_step != float(due):
                raise ValueError(f"ns_per_step {cols[6]} is not total_ns / steps = {due}")
        except ValueError as exc:
            raise CsvSchemaError(f"line {i}: {exc}") from None
        samples.append(sample)
    return samples


def linear_fit(points) -> RegressionFit:
    """Ordinary least squares over (x, y) pairs.

    r_squared = 1 - SSres/SStot, defined as 1.0 when the y values have no
    variance (a constant is a perfect fit of constant data).
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise DegeneratePoints("need at least two points")
    n = len(pts)
    xbar = sum(x for x, _ in pts) / n
    ybar = sum(y for _, y in pts) / n
    sxx = sum((x - xbar) ** 2 for x, _ in pts)
    if sxx == 0.0:
        raise DegeneratePoints("all x values are equal")
    sxy = sum((x - xbar) * (y - ybar) for x, y in pts)
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in pts)
    ss_tot = sum((y - ybar) ** 2 for _, y in pts)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RegressionFit(slope, intercept, min(1.0, max(0.0, r2)))


def plot_data(samples) -> tuple[str, str | None]:
    """Plot-data CSV text for one device's samples: (points, fit).

    points has a cells,ns_per_step,fit_ns line per sample. fit holds the
    trend line's coefficients; with fewer than two distinct sizes there is
    no trend line, so fit is None and every fit_ns is empty.
    """
    pts = [(s.cells, s.ns_per_step) for s in samples]
    fit = linear_fit(pts) if len({c for c, _ in pts}) >= 2 else None
    lines = ["cells,ns_per_step,fit_ns"]
    for cells, ns in pts:
        fitted = f"{fit.slope * cells + fit.intercept:.3f}" if fit else ""
        lines.append(f"{cells},{ns:.3f},{fitted}")
    points = "\n".join(lines) + "\n"
    if fit is None:
        return points, None
    return points, ("slope_ns_per_cell,intercept_ns,r_squared\n"
                    f"{fit.slope:.9g},{fit.intercept:.9g},{fit.r_squared:.9g}\n")


def speedup(sw_time, hw_time) -> float:
    """Ratio of software to hardware time-per-step (any common unit)."""
    if hw_time <= 0:
        raise ZeroDivisor(f"hardware time must be positive, got {hw_time}")
    return sw_time / hw_time

