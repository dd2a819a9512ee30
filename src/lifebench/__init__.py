"""lifebench: Game of Life step engines, benchmarks, and FPGA cost models.

The FPGA model (lifebench.refdata) and the comparison tables
(lifebench.energy) read the packaged data; import them from there.
"""

from .bench import (BenchConfig, BenchSample, RegressionFit, linear_fit, run_bench,
                    samples_to_csv, speedup)
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
