"""Conservative energy-per-step estimates and device comparison tables.

Power values are user-supplied profiles (board supply ratings, reported
averages), never measurements. Energy math stays in double-precision
joules; unit prefixes are chosen only when formatting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bench import speedup
from .grid import InputError
from .refdata import fpga_time_model


class EnergyInputError(InputError):
    """Power or time per step is not a usable number."""


class NonpositivePower(EnergyInputError):
    """Power must be positive, finite watts."""


@dataclass(frozen=True)
class PowerProfile:
    name: str
    watts: float
    source: str = ""


# Conservative defaults: the FPGA number is the whole DE2-115 board's supply
# rating (an upper bound including peripherals), the Raspberry Pi number a
# reported all-cores-busy average.
DEFAULT_PROFILES = {
    "fpga": PowerProfile("fpga", 24.0, "DE2-115 board power supply rating (upper bound)"),
    "raspberry": PowerProfile("raspberry", 6.4,
                              "Raspberry Pi 4 average, four cores busy (pidramble.com)"),
}


def energy_per_step(watts: float, seconds: float) -> float:
    """Joules per step: exact product, no rounding until display.

    A product that overflows to inf, or underflows to 0 for a time above 0,
    is rejected rather than shown.
    """
    if not (math.isfinite(watts) and watts > 0):
        raise NonpositivePower(f"power must be positive and finite, got {watts} W")
    if not (math.isfinite(seconds) and seconds >= 0):
        raise EnergyInputError(f"time per step must be finite and >= 0, got {seconds} s")
    joules = watts * seconds
    if not math.isfinite(joules) or (joules == 0 and seconds > 0):
        raise EnergyInputError(f"energy per step of {watts} W for {seconds} s "
                               "is out of floating-point range")
    return joules


def energy_ratio(sw_joules: float, fpga_joules: float) -> float:
    """Software over FPGA energy per step; a ratio past float range is rejected."""
    ratio = sw_joules / fpga_joules
    if not math.isfinite(ratio):
        raise EnergyInputError("energy ratio is out of floating-point range")
    return ratio


def format_energy(joules: float) -> str:
    """Human-readable energy with 4 significant digits (nJ/uJ/mJ/J)."""
    for unit, scale in (("nJ", 1e-9), ("uJ", 1e-6), ("mJ", 1e-3)):
        if joules < scale * 1000:
            return f"{joules / scale:.4g} {unit}"
    return f"{joules:.4g} J"


@dataclass(frozen=True)
class ComparisonRow:
    device: str
    width: int
    height: int
    cells: int
    ns_per_step: float
    speedup_vs_fpga: float
    energy_j: float | None


def comparison_table(device_samples, profiles=None) -> list[ComparisonRow]:
    """Per-(device, size) comparison rows against the modeled FPGA.

    device_samples maps device name -> benchmark samples; the name "fpga"
    is reserved for the model. One row per sample plus one FPGA row per
    distinct size; speedup is device time over modeled FPGA time, energy
    comes from the device's power profile (None if the device has no
    profile).
    """
    if profiles is None:
        profiles = DEFAULT_PROFILES
    rows = []
    sizes = set()
    for device, samples in sorted(device_samples.items()):
        if device == "fpga":
            raise InputError("device name 'fpga' is reserved for the FPGA model")
        profile = profiles.get(device)
        for s in samples:
            size = (s.width, s.height)
            sizes.add(size)
            fpga_ns = fpga_time_model(size)
            energy = (energy_per_step(profile.watts, s.ns_per_step * 1e-9)
                      if profile else None)
            rows.append(ComparisonRow(device, s.width, s.height, s.cells,
                                      s.ns_per_step, speedup(s.ns_per_step, fpga_ns),
                                      energy))
    fpga_profile = profiles.get("fpga")
    for width, height in sorted(sizes, key=lambda wh: (wh[0] * wh[1], wh)):
        fpga_ns = fpga_time_model((width, height))
        energy = (energy_per_step(fpga_profile.watts, fpga_ns * 1e-9)
                  if fpga_profile else None)
        rows.append(ComparisonRow("fpga", width, height, width * height,
                                  fpga_ns, 1.0, energy))
    rows.sort(key=lambda r: (r.cells, r.width, r.device))
    return rows


def comparison_markdown(rows) -> str:
    out = ["| World | Cells | Device | Time/step (us) | Speedup vs FPGA | Energy/step |",
           "|---|---|---|---|---|---|"]
    for r in rows:
        energy = format_energy(r.energy_j) if r.energy_j is not None else "-"
        out.append(f"| {r.width}x{r.height} | {r.cells} | {r.device} "
                   f"| {r.ns_per_step / 1000:.4f} | {r.speedup_vs_fpga:.1f} | {energy} |")
    return "\n".join(out) + "\n"


def comparison_csv(rows) -> str:
    out = ["world,cells,device,ns_per_step,speedup_vs_fpga,energy_j_per_step"]
    for r in rows:
        energy = "" if r.energy_j is None else f"{r.energy_j:.6e}"
        out.append(f"{r.width}x{r.height},{r.cells},{r.device},"
                   f"{r.ns_per_step:.3f},{r.speedup_vs_fpga:.3f},{energy}")
    return "\n".join(out) + "\n"
