import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import BEACON_A, BEACON_B, cells_of, tick_in_order
from lifebench.circuit import (_INT_TICK_MAX_BITS, CONST0, KIND_NAMES, SizeMismatch,
                              count_resources, elaborate)
from lifebench.engines import CircuitEngine, run
from lifebench.grid import World, parse_pattern, population, random_world
from lifebench.refdata import (REGISTER_OVERHEAD, CalibrationTable, CalRow, OutOfRange,
                               estimate_resources, fpga_time_model, load_calibration)


def comb_level(netlist):
    """Level of every node: registers and the constant are 0, gates 1 + max(input)."""
    base = netlist.n_registers
    levels = np.zeros(base + netlist.n_comb_nodes, dtype=int)
    for k in range(netlist.n_comb_nodes):
        if netlist.kinds[k] == CONST0:
            continue
        ins = [i for i in netlist.inputs[k] if i >= 0]
        levels[base + k] = 1 + max(levels[i] for i in ins)
    return levels


# ---------------------------------------------------------------------------
# elaboration structure
# ---------------------------------------------------------------------------


def test_one_register_per_cell():
    for w, h in [(1, 1), (3, 3), (10, 10), (7, 13)]:
        regs, _ = count_resources(elaborate(w, h))
        assert regs == w * h


def test_1x1_isolated_cell():
    n = elaborate(1, 1)
    regs, _ = count_resources(n)
    assert regs == 1
    # every popcount leaf (inputs of the level-1 adder nodes) is the constant
    levels = comb_level(n)
    leaves = [i for k in range(n.n_comb_nodes) if levels[n.n_registers + k] == 1
              for i in n.inputs[k] if i >= 0]
    assert len(leaves) == 16  # 8 neighbor slots, each read by a sum and a carry
    assert all(i == n.const_id for i in leaves)
    # a live isolated cell dies on the next tick (count 0)
    n.load(World(1, 1, (1,)))
    n.tick()
    assert population(n.to_world()) == 0
    n.tick()
    assert population(n.to_world()) == 0


def test_corner_cell_const_inputs():
    n = elaborate(3, 3)
    base = n.n_registers
    # popcount leaves of the corner cell = inputs of its six level-1 adder
    # nodes; each of the 8 neighbor slots is read twice (sum and carry)
    levels = comb_level(n)
    leaves = []
    for k in range(1, n.n_comb_nodes):
        if levels[base + k] == 1 and (k - 1) % n.n_registers == 0:
            leaves.extend(int(i) for i in n.inputs[k] if i >= 0)
    assert len(leaves) == 16
    assert leaves.count(n.const_id) == 10  # 5 missing neighbors, read twice
    live_capable = [i for i in leaves if i < base]
    assert len(live_capable) == 6  # 3 in-grid neighbors, read twice
    assert set(live_capable) == {1, 3, 4}  # registers (1,0), (0,1), (1,1)


def test_node_count_scales_quadratically():
    _, c10 = count_resources(elaborate(10, 10))
    _, c20 = count_resources(elaborate(20, 20))
    assert abs(c20 / c10 - 4.0) <= 0.2  # +-5%


def test_elaboration_deterministic():
    a = elaborate(9, 4)
    b = elaborate(9, 4)
    assert np.array_equal(a.kinds, b.kinds)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.reg_next, b.reg_next)


def test_combinational_graph_is_acyclic():
    n = elaborate(5, 7)
    base = n.n_registers
    for k in range(n.n_comb_nodes):
        for i in n.inputs[k]:
            if i >= 0:
                assert i < base + k  # inputs strictly earlier: a DAG
    # the only cycles go through registers
    assert all(nid >= base for nid in n.reg_next)


# sha256 over kinds, inputs and reg_next as int64, pinned from the netlist
# that the original gather-based emulation elaborated.
GRAPH_DIGESTS = {
    (1, 1): "b173290dd244f00675d5bd74f2b8760ed32215275cdbb3f65a7e6aac8f0cb02b",
    (7, 5): "944e30fd26f38800545e1b6f9d6d75d74790ce367ea118f0927fa0a9762491fb",
    (64, 2): "b8217924425b15eedabbe75475addb061badff6b53b094eca12a9694e20b3abe",
    (65, 3): "5407f6ef05995becdacf8c228f34dff73629bd2d86a2adb6f1e372a33629436a",
}


@pytest.mark.parametrize("size", sorted(GRAPH_DIGESTS))
def test_graph_pinned(size):
    n = elaborate(*size)
    digest = hashlib.sha256()
    for array in (n.kinds, n.inputs, n.reg_next):
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    assert digest.hexdigest() == GRAPH_DIGESTS[size]


def test_elaborate_rejects_bad_args():
    with pytest.raises(ValueError):
        elaborate(0, 3)
    with pytest.raises(SizeMismatch):
        elaborate(4, 4, initial=World.empty(3, 3))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_beacon_ticks():
    start = parse_pattern(BEACON_A)
    n = elaborate(6, 6, initial=start)
    assert n.to_world() == start  # registers reset to the starting pattern
    n.tick()
    assert cells_of(n.to_world()) == cells_of(parse_pattern(BEACON_B))
    n.tick()
    assert n.to_world() == start


def test_reset_restores_initial_pattern():
    start = parse_pattern(BEACON_A)
    n = elaborate(6, 6, initial=start)
    n.tick()
    n.reset()
    assert n.to_world() == start


def test_all_dead_stays_dead():
    n = elaborate(4, 4)
    for _ in range(3):
        n.tick()
        assert population(n.to_world()) == 0


def test_load_size_mismatch():
    with pytest.raises(SizeMismatch):
        elaborate(4, 4).load(World.empty(4, 5))


def test_tick_order_insensitive():
    # Latching must not depend on the order combinational nodes settle.
    # These worlds tick on one int, so a cell shifted into a guard bit would
    # show; the plane tick's cross-word carries are checked against the
    # bitsliced engine in test_engines.py.
    rng = np.random.default_rng(9)
    for width, height in [(4, 4), (70, 3), (64, 3), (128, 2)]:
        world = random_world(width, height, 0.5, 12)
        n = elaborate(width, height)
        n.load(world)
        n.tick()
        expected = n.to_world()

        levels = comb_level(n)
        ids = np.arange(n.n_registers, n.n_registers + n.n_comb_nodes)
        for _ in range(5):
            keys = rng.random(len(ids))
            order = ids[np.lexsort((keys, levels[ids]))]  # random valid topo order
            n.load(world)
            tick_in_order(n, order)
            assert n.to_world() == expected


def tall(width):
    """Height of the shortest world of this width that ticks on planes."""
    return _INT_TICK_MAX_BITS // (width + 1) + 1


def test_describe_pinned():
    for width, height in [(2, 2), (70, 3)]:
        n = elaborate(width, height)
        r = n.n_registers
        info = n.describe()
        assert info["nodes"] == {"REG": r, "CONST0": 1, "AND": 5 * r, "OR": 2 * r, "NOT": r,
                                 "XOR": 3 * r, "XOR3": 4 * r, "MAJ3": 4 * r}
        assert sum(info["nodes"].values()) == r + n.n_comb_nodes
        for name, count in info["nodes"].items():
            if name != "REG":
                assert np.count_nonzero(n.kinds == KIND_NAMES.index(name)) == count
        assert info["depth"] == 8 == comb_level(n).max()
        # 8 neighbor shifts, 4 pairs of XOR3/MAJ3 at 5 ops each and 11
        # other gates, whatever the width
        assert (info["evaluator"], info["ops_per_tick"], info["plane_bytes"]) == ("int", 39, 0)
    # On planes: 2 shifts, the same 31 gate steps, plus 4 carry ops when a
    # row spans more than one word.
    for width in (1, 64):
        info = elaborate(width, tall(width)).describe()
        assert (info["evaluator"], info["ops_per_tick"]) == ("planes", 33)
    for width in (65, 1000):
        info = elaborate(width, tall(width)).describe()
        assert (info["evaluator"], info["ops_per_tick"]) == ("planes", 37)
    plane = 1000 * 16 * 8  # one uint64 plane of a 1000x1000 world
    assert elaborate(1000, 1000).describe()["plane_bytes"] <= 10 * plane


@pytest.mark.parametrize("width", [1, 63, 64, 65, 200])
def test_evaluator_follows_board_size(width):
    # The largest int board and the smallest plane board, each against bitsliced.
    height = tall(width)
    assert (height - 1) * (width + 1) <= _INT_TICK_MAX_BITS < height * (width + 1)
    for h, evaluator in ((height - 1, "int"), (height, "planes")):
        world = random_world(width, h, 0.4, width)
        netlist = elaborate(width, h)
        assert netlist.describe()["evaluator"] == evaluator
        assert run(CircuitEngine(netlist=netlist), world, 3) == run("bitsliced", world, 3)


# ---------------------------------------------------------------------------
# calibrated resource model
# ---------------------------------------------------------------------------


def test_estimate_matches_calibration_rows():
    for row in load_calibration().rows:
        side = int(round(row.cells ** 0.5))
        assert side * side == row.cells
        est = estimate_resources(side, side)
        assert est.registers == row.registers
        assert est.registers == row.cells + REGISTER_OVERHEAD
        assert est.les == row.les
        assert est.min_clock_ns == row.min_clock_ns


def test_estimate_interpolates_les():
    # 3000 cells sits between the 2500-cell and 3600-cell rows
    est = estimate_resources(50, 60)
    assert est.les == 28428  # 23439 + round(500/1100 * 10975)
    assert est.registers == 3004
    assert est.min_clock_ns == 4.5  # max of bracketing 4.4 and 4.5


def test_estimate_clock_is_conservative_bracket():
    est = estimate_resources(25, 34)  # 850 cells between 400 (4.0) and 900 (4.1)
    assert est.min_clock_ns == 4.1


def test_estimate_out_of_range():
    with pytest.raises(OutOfRange):
        estimate_resources(5, 5)
    with pytest.raises(OutOfRange):
        estimate_resources(101, 100)


def test_estimate_extrapolation_flag():
    est = estimate_resources(5, 5, extrapolate=True)
    assert est.registers == 25 + REGISTER_OVERHEAD
    assert est.les > 0
    big = estimate_resources(110, 110, extrapolate=True)
    assert big.registers == 12104
    assert big.les > 97871


# (cells, LEs, min clock ns) at every calibration row and bracket midpoint,
# then extrapolated below and above the table; computed before the
# interpolation was folded into CalibrationTable.model.
_PINNED_ESTIMATES = (
    (100, 804, 4.0), (250, 2172, 4.0), (400, 3539, 4.0), (650, 5767, 4.1),
    (900, 7995, 4.1), (1250, 11229, 4.1), (1600, 14463, 4.0), (2050, 18951, 4.4),
    (2500, 23439, 4.4), (3050, 28927, 4.5), (3600, 34414, 4.5), (4250, 39767, 4.5),
    (4900, 45119, 4.0), (5650, 52128, 4.7), (6400, 59136, 4.7), (7250, 67119, 4.7),
    (8100, 75102, 4.5), (9050, 86487, 4.8), (10000, 97871, 4.8),
)
_PINNED_EXTRAPOLATED = ((1, 0, 4.0), (25, 120, 4.0), (12100, 123037, 4.8), (50000, 577218, 4.8))


def test_estimate_pinned():
    for cells, les, clock in _PINNED_ESTIMATES:
        est = estimate_resources(cells, 1)
        assert (est.les, est.min_clock_ns) == (les, clock)
        assert fpga_time_model((cells, 1)) == clock
    for cells, les, clock in _PINNED_EXTRAPOLATED:
        est = estimate_resources(cells, 1, extrapolate=True)
        assert (est.registers, est.les, est.min_clock_ns) == (cells + 4, les, clock)
        with pytest.raises(OutOfRange, match=f"{cells}x1 = {cells} cells outside"):
            estimate_resources(cells, 1)
        with pytest.raises(OutOfRange):
            fpga_time_model((cells, 1))


def test_calibration_table_validates():
    rows = [CalRow(100, 10, 104, 4.0), CalRow(100, 20, 204, 4.0)]
    with pytest.raises(ValueError):
        CalibrationTable(rows)
    with pytest.raises(ValueError):
        CalibrationTable([])


def test_elaborate_builds_no_graph_for_resources():
    tracemalloc.start()
    try:
        regs, nodes = count_resources(elaborate(1000, 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (regs, nodes) == (10 ** 6, 1 + 19 * 10 ** 6)
    assert peak < 16 * 2 ** 20
