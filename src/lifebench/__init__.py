"""lifebench: Game of Life step engines, benchmarks, and FPGA cost models.

`import lifebench` loads only what steps worlds: grid, circuit and engines.
The harness (bench), the FPGA model (refdata), the comparison tables
(energy) and the CLI (cli) load on first use, by attribute or by import.
"""

import importlib

from .circuit import Netlist, count_resources, elaborate
from .engines import ENGINE_KINDS, make_engine, run
from .grid import Rng, World, parse_pattern, population, random_world, serialize_pattern

__all__ = [
    "BenchConfig", "BenchSample", "ENGINE_KINDS", "Netlist", "RegressionFit",
    "Rng", "World", "count_resources", "elaborate", "linear_fit", "make_engine",
    "parse_pattern", "population", "random_world", "run", "run_bench",
    "samples_to_csv", "serialize_pattern", "speedup",
]

__version__ = "0.1.0"


def __getattr__(name):
    """Import a deferred submodule, or fetch a bench name, on first access."""
    if name in ("bench", "cli", "energy", "refdata"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in __all__:  # every name in __all__ that is not bound above is bench's
        return getattr(importlib.import_module(f"{__name__}.bench"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
