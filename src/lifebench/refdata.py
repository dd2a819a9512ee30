"""Packaged reference tables, and the FPGA model calibrated on them.

The tables are published device timings and FPGA synthesis results
(Cyclone IV on a DE2-115; Quartus 19.1 Lite). Resource estimation is
separate from the netlist: registers, LEs and the min clock period for a
world size are modeled from the synthesis table, not derived from our node
counts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .bench import BenchSample
from .grid import InputError

# The calibration table's register counts exceed cells by exactly this
# constant on every row. An artifact of the synthesized designs, not
# circuit structure; our netlists carry exactly one register per cell.
REGISTER_OVERHEAD = 4


class OutOfRange(InputError):
    """Requested size falls outside the calibration table."""


@dataclass(frozen=True)
class CalRow:
    cells: int
    les: int
    registers: int
    min_clock_ns: float


class CalibrationTable:
    """Synthesis results by world size: LEs, registers, min clock period."""

    def __init__(self, rows):
        rows = tuple(rows)
        if not rows:
            raise ValueError("calibration table is empty")
        for prev, cur in zip(rows, rows[1:]):
            if cur.cells <= prev.cells:
                raise ValueError("calibration rows must be strictly increasing in cells")
        self.rows = rows

    def model(self, cells: int, extrapolate: bool = False) -> tuple[int, float]:
        """(LEs, min clock period) for a cell count.

        LEs interpolate linearly between the bracketing rows, rounding half
        up, and are exact at a row. The clock is the max of the bracketing
        rows (the column is not monotonic, so no curve fit). Outside the
        table an OutOfRange is raised unless extrapolate=True, which extends
        the edge LE segment and reuses the edge row's clock.
        """
        rows = self.rows
        first, last = rows[0].cells, rows[-1].cells
        if first <= cells <= last:
            hi = next(row for row in rows if row.cells >= cells)
            if hi.cells == cells:
                return hi.les, hi.min_clock_ns
            lo = rows[rows.index(hi) - 1]
            clock = max(lo.min_clock_ns, hi.min_clock_ns)
        elif extrapolate:
            lo, hi = rows[:2] if cells < first else rows[-2:]
            clock = (lo if cells < first else hi).min_clock_ns
        else:
            raise OutOfRange(f"{cells} cells outside calibration range [{first}, {last}]")
        les = lo.les + _round_half_up((cells - lo.cells) * (hi.les - lo.les), hi.cells - lo.cells)
        return max(les, 0), clock


def _round_half_up(num: int, den: int) -> int:
    return (2 * num + den) // (2 * den)


@dataclass(frozen=True)
class ResourceEstimate:
    width: int
    height: int
    registers: int
    les: int
    min_clock_ns: float


@dataclass(frozen=True)
class DeviceTimesRow:
    world: str
    cells: int
    mac_us: float
    raspberry_us: float
    fpga_us: float
    speedup_mac: float
    speedup_raspberry: float

    @property
    def size(self) -> tuple[int, int]:
        w, _, h = self.world.partition("x")
        return int(w), int(h)


def _read(name: str):
    text = resources.files(__package__).joinpath("data", name).read_text("ascii")
    return list(csv.DictReader(text.splitlines()))


@lru_cache(maxsize=None)
def load_calibration() -> CalibrationTable:
    rows = [CalRow(cells=int(r["cells"]), les=int(r["les"]),
                   registers=int(r["registers"]), min_clock_ns=float(r["min_clock_ns"]))
            for r in _read("fpga_calibration.csv")]
    return CalibrationTable(rows)


@lru_cache(maxsize=None)
def load_device_times() -> tuple[DeviceTimesRow, ...]:
    return tuple(DeviceTimesRow(world=r["world"], cells=int(r["cells"]),
                                mac_us=float(r["mac_us"]),
                                raspberry_us=float(r["raspberry_us"]),
                                fpga_us=float(r["fpga_us"]),
                                speedup_mac=float(r["speedup_mac"]),
                                speedup_raspberry=float(r["speedup_raspberry"]))
                 for r in _read("device_times_us.csv"))


def published_samples() -> dict[str, list[BenchSample]]:
    """The device timing table as benchmark samples per device (mac, raspberry)."""
    samples = {"mac": [], "raspberry": []}
    for row in load_device_times():
        width, height = row.size
        for device, us in (("mac", row.mac_us), ("raspberry", row.raspberry_us)):
            samples[device].append(BenchSample(width, height, row.cells, "published", 1,
                                               int(round(us * 1000))))
    return samples


def estimate_resources(width: int, height: int, extrapolate: bool = False) -> ResourceEstimate:
    """Model registers, LEs, and min clock period for a world size.

    Registers are cells + REGISTER_OVERHEAD (exact on every calibration
    row); LEs and the clock come from CalibrationTable.model. Outside the
    calibration range an OutOfRange is raised unless extrapolate=True (a
    rough guess, since large designs may not route the same way).
    """
    cells = width * height
    try:
        les, clock = load_calibration().model(cells, extrapolate)
    except OutOfRange as exc:
        raise OutOfRange(f"{width}x{height} = {exc}; pass extrapolate=True to force") from None
    return ResourceEstimate(width, height, cells + REGISTER_OVERHEAD, les, clock)


def fpga_time_model(size: tuple[int, int]) -> float:
    """Modeled FPGA ns/step for a world size: its min clock period, since
    the circuit updates the whole world once per clock."""
    width, height = size
    return load_calibration().model(width * height)[1]
