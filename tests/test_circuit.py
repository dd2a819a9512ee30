import hashlib
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BEACON_A, BEACON_B, RECORD_IDS, RECORD_SIZES, assert_stepped, bit_rows,
                     cells_of, get_cell, naive_step, neighbourhood_world, next_cell_state,
                     node_graph, record_worlds, table_step, tall, tick_in_order,
                     world_from_rows)
from lifebench.circuit import (_BLOCKS, _CELL, _SYMBOLS, AND, CONST0, KIND_NAMES, MAJ3, NOT, OR,
                              XOR, XOR3, Schedule, SizeMismatch, _IntTick, _PlaneTick,
                              count_resources, elaborate, evaluator)
from lifebench.engines import _SCHEDULE, _TABLE, CircuitEngine, run
from lifebench.grid import World, parse_pattern, population, random_world
from lifebench.refdata import (REGISTER_OVERHEAD, CalibrationTable, CalRow, OutOfRange,
                               estimate_resources, fpga_time_model, load_calibration)


def comb_level(netlist):
    """Level of every node: registers and the constant are 0, gates 1 + max(input)."""
    kinds, inputs, _ = node_graph(netlist)
    base = netlist.n_registers
    levels = np.zeros(base + netlist.n_comb_nodes, dtype=int)
    for k in range(netlist.n_comb_nodes):
        if kinds[k] == CONST0:
            continue
        ins = [i for i in inputs[k] if i >= 0]
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
    levels, (_, inputs, _) = comb_level(n), node_graph(n)
    leaves = [i for k in range(n.n_comb_nodes) if levels[n.n_registers + k] == 1
              for i in inputs[k] if i >= 0]
    assert len(leaves) == 16  # 8 neighbor slots, each read by a sum and a carry
    assert all(i == n.n_registers for i in leaves)  # the constant's id
    # a live isolated cell dies on the next tick (count 0)
    n.load(World(1, 1, (1,)))
    n.tick()
    assert population(n.world()) == 0
    n.tick()
    assert population(n.world()) == 0


def test_corner_cell_const_inputs():
    n = elaborate(3, 3)
    base = n.n_registers
    # popcount leaves of the corner cell = inputs of its six level-1 adder
    # nodes; each of the 8 neighbor slots is read twice (sum and carry)
    levels, (_, inputs, _) = comb_level(n), node_graph(n)
    leaves = []
    for k in range(1, n.n_comb_nodes):
        if levels[base + k] == 1 and (k - 1) % n.n_registers == 0:
            leaves.extend(int(i) for i in inputs[k] if i >= 0)
    assert len(leaves) == 16
    assert leaves.count(base) == 10  # the constant: 5 missing neighbors, read twice
    live_capable = [i for i in leaves if i < base]
    assert len(live_capable) == 6  # 3 in-grid neighbors, read twice
    assert set(live_capable) == {1, 3, 4}  # registers (1,0), (0,1), (1,1)


def test_node_count_scales_quadratically():
    _, c10 = count_resources(elaborate(10, 10))
    _, c20 = count_resources(elaborate(20, 20))
    assert abs(c20 / c10 - 4.0) <= 0.2  # +-5%


def test_elaboration_deterministic():
    for a, b in zip(node_graph(elaborate(9, 4)), node_graph(elaborate(9, 4))):
        assert np.array_equal(a, b)


def test_combinational_graph_is_acyclic():
    n = elaborate(5, 7)
    _, inputs, reg_next = node_graph(n)
    base = n.n_registers
    for k in range(n.n_comb_nodes):
        for i in inputs[k]:
            if i >= 0:
                assert i < base + k  # inputs strictly earlier: a DAG
    # the only cycles go through registers
    assert all(nid >= base for nid in reg_next)


# sha256 over node_graph's kinds, inputs and reg_next as int64, pinned from
# the netlist that the original gather-based emulation elaborated.
GRAPH_DIGESTS = {
    (1, 1): "b173290dd244f00675d5bd74f2b8760ed32215275cdbb3f65a7e6aac8f0cb02b",
    (7, 5): "944e30fd26f38800545e1b6f9d6d75d74790ce367ea118f0927fa0a9762491fb",
    (64, 2): "b8217924425b15eedabbe75475addb061badff6b53b094eca12a9694e20b3abe",
    (65, 3): "5407f6ef05995becdacf8c228f34dff73629bd2d86a2adb6f1e372a33629436a",
}


@pytest.mark.parametrize("size", sorted(GRAPH_DIGESTS))
def test_graph_pinned(size):
    digest = hashlib.sha256()
    for array in node_graph(elaborate(*size)):
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    assert digest.hexdigest() == GRAPH_DIGESTS[size]


def test_elaborate_rejects_bad_args():
    with pytest.raises(ValueError):
        elaborate(0, 3)
    with pytest.raises(ValueError):
        elaborate(3, 0)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_beacon_ticks():
    start = parse_pattern(BEACON_A)
    n = elaborate(6, 6)
    n.load(start)
    assert n.world() == start
    n.tick()
    assert cells_of(n.world()) == cells_of(parse_pattern(BEACON_B))
    n.tick()
    assert n.world() == start


def test_all_dead_stays_dead():
    n = elaborate(4, 4)
    assert n.world() == World.empty(4, 4)  # a new netlist powers up all dead
    for _ in range(3):
        n.tick()
        assert population(n.world()) == 0


def test_load_size_mismatch():
    with pytest.raises(SizeMismatch):
        elaborate(4, 4).load(World.empty(4, 5))


@pytest.mark.parametrize("schedule", [_CELL, _SCHEDULE], ids=["circuit", "bitsliced"])
@pytest.mark.parametrize("name, size, other", [
    ("int", (40, 10), (30, 10)), ("int", (12, 5), (5, 12)),
    ("planes", (500, 500), (450, 500)), ("planes", (500, 500), (500, 400))],
    ids=["int-narrower", "int-transposed", "planes-narrower", "planes-shorter"])
def test_evaluator_load_size_mismatch(schedule, name, size, other):
    # Every evaluator checks the size where its registers are: a World of
    # fewer or transposed cells must not load into a larger board or planes.
    ev, world = evaluator(schedule, *size), random_world(*size, 0.5, 3)
    ev.load(world)
    with pytest.raises(SizeMismatch):
        ev.load(random_world(*other, 0.5, 4))
    assert (ev.name, ev.world()) == (name, world)


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
        expected = n.world()

        levels = comb_level(n)
        ids = np.arange(n.n_registers, n.n_registers + n.n_comb_nodes)
        for _ in range(5):
            keys = rng.random(len(ids))
            order = ids[np.lexsort((keys, levels[ids]))]  # random valid topo order
            n.load(world)
            tick_in_order(n, order)
            assert n.world() == expected


@pytest.mark.parametrize("make, per_cell, depth, int_ops, plane_ops", [
    # The cell table. As ints: the w and e shifts, 5 row shifts and 25
    # gates, whatever the width. On planes: 2 shifts, the same 25 gate
    # steps, plus 4 carry ops when a row spans more than one word.
    (elaborate, {"AND": 5, "OR": 2, "NOT": 1, "XOR": 3, "XOR3": 4, "MAJ3": 4},
     8, 32, (27, 31)),
    # The bit-sliced table: 2 register shifts, 4 row shifts and 20 gates as
    # ints; 2 shifts (6 with the carries) and the 20 gates on planes.
    (partial(evaluator, _SCHEDULE), {"AND": 4, "OR": 2, "NOT": 1, "XOR": 3, "XOR3": 2, "MAJ3": 2},
     7, 26, (22, 26)),
], ids=["circuit", "bitsliced"])
def test_describe_pinned(make, per_cell, depth, int_ops, plane_ops):
    for width, height in [(2, 2), (70, 3)]:
        n = make(width, height)
        r = n.n_registers
        info = n.describe()
        assert info["nodes"] == {"REG": r, "CONST0": 1, **{k: c * r for k, c in per_cell.items()}}
        assert sum(info["nodes"].values()) == r + n.n_comb_nodes
        assert info["depth"] == depth
        if make is elaborate:  # node_graph builds the cell table's gates
            kinds = node_graph(n)[0]
            for name, count in info["nodes"].items():
                if name != "REG":
                    assert np.count_nonzero(kinds == KIND_NAMES.index(name)) == count
            assert comb_level(n).max() == depth
        assert (info["evaluator"], info["ops_per_tick"], info["plane_bytes"]) == ("int", int_ops, 0)
    for width, ops in ((63, plane_ops[0]), (64, plane_ops[0]), (65, plane_ops[1]),
                       (1000, plane_ops[1])):
        info = make(width, tall(width)).describe()
        assert (info["evaluator"], info["ops_per_tick"]) == ("planes", ops)
    # Both tables' 4 flat planes and the mask, 8 words a row at 500x500
    assert make(500, 500).describe()["plane_bytes"] == 5 * 500 * 8 * 8 == 160000
    plane = 1000 * 16 * 8  # one uint64 plane of a 1000x1000 world
    assert make(1000, 1000).describe()["plane_bytes"] <= 10 * plane


# engines._SCHEDULE's steps as (operator, (a, b, out)), pinned from the
# compiler before row hoisting, hashing and the half-adder identities: none
# of them applies to the bit-sliced table, so its step must not move.
BITSLICED_STEPS = (
    ("^", (0, 1, 2)), ("&", (0, 1, 1)), ("^", (2, (0, 0), (1, 0))), ("&", (2, (0, 0), 0)),
    ("|", (1, 0, (2, 0))), ("^", ((1, -1), 2, 0)), ("^", (0, (1, 1), 3)),
    ("&", (0, (1, 1), 0)), ("&", ((1, -1), 2, 2)), ("|", (2, 0, 2)), ("^", ((2, -1), 1, 0)),
    ("^", (0, (2, 1), (1, 0))), ("&", (0, (2, 1), 0)), ("&", ((2, -1), 1, 1)),
    ("|", (1, 0, 1)), ("^", ((1, 0), 2, 2)), ("^", (1, "mask", 1)), ("&", (1, 2, 2)),
    ("|", (3, (0, 0), 3)), ("&", (2, 3, (0, 0))),
)


def test_schedules_pinned():
    # The cell table: 25 gate steps, on row planes for the registers, w,
    # the two sums and carries of the row above (the hoisted full adder)
    # and of the row below (the hoisted half adder; the sum takes w's
    # plane), and 4 flat planes. As ints it makes the w and e shifts, 5 row
    # shifts and the 25 gates. The bit-sliced table: 20 gate steps on row
    # planes for the registers, ts and tc, and 4 flat planes, w and e
    # among them. As ints it makes 2 register shifts, 4 row shifts and the
    # 20 gates; on planes 2 shifts (6 with the carries of rows of more than
    # one word) and the 20 gates.
    assert (len(_CELL.steps), _CELL.n_rows, _CELL.n_flat, _CELL.int_ops) == (25, 5, 4, 32)
    assert [(_SYMBOLS[ufunc], args) for ufunc, args in _SCHEDULE.steps] == list(BITSLICED_STEPS)
    assert (_SCHEDULE.west, _SCHEDULE.east, _SCHEDULE.carry) == (0, 1, 2)
    assert (len(_SCHEDULE.steps), _SCHEDULE.n_rows, _SCHEDULE.n_flat) == (20, 3, 4)
    for width, ops in ((63, 22), (64, 22), (65, 26), (1000, 26)):
        small = evaluator(_SCHEDULE, width, 3)
        assert (small.name, small.ops_per_tick, small.plane_bytes) == ("int", 26, 0)
        big = evaluator(_SCHEDULE, width, tall(width))
        assert (big.name, big.ops_per_tick) == ("planes", ops)


def on_cells(*blocks):
    """The blocks, then next: the last one's value on the cells and 0 off
    them, as a register's D input must be, with no cell's value masked."""
    return (*blocks, ("ns", NOT, ("self",)), ("cells", OR, ("self", "ns")),
            ("next", AND, (blocks[-1][0], "cells")))


def assert_ticks_like_table(table, schedule):
    # Both evaluators of the compiled table, three ticks from random worlds
    # of one and of several words a row, against the table read block by block.
    for width, height, seed in ((5, 4, 1), (64, 3, 2), (70, 5, 3), (130, 2, 4)):
        world = random_world(width, height, 0.5, seed)
        for cls in (_IntTick, _PlaneTick):
            ev, expected = cls(schedule, width, height), world
            ev.load(world)
            for _ in range(3):
                ev.tick()
                expected = table_step(table, expected)
                assert ev.world() == expected, (cls.name, width, height)


def test_hoisting_stops_at_the_not():
    # w & e one row down is computed at row 0 and read one row down; the
    # masked NOT of e one row down reads e there itself. Hoisted, the NOT
    # would read 0 below the last row, where NOT(0) is 1.
    table = on_cells(("a", AND, (("w", 1), ("e", 1))), ("n", NOT, (("e", 1),)),
                     ("x", OR, ("a", "n")))
    schedule = Schedule(table)
    (_, hoisted), (_, negated), (_, joined), *_ = schedule.steps
    assert isinstance(schedule.east, tuple) and hoisted[:2] == (schedule.west, schedule.east)
    assert negated[:2] == ((schedule.east[0], 1), "mask")
    assert joined[0] == (hoisted[2][0], 1)
    assert_ticks_like_table(table, schedule)


def test_hashing_shares_a_gate():
    # a, b and u one row down are one gate: w & e, computed once.
    table = on_cells(("a", AND, ("w", "e")), ("b", AND, ("e", "w")),
                     ("u", AND, (("w", -1), ("e", -1))), ("x", XOR, ("b", "u")))
    schedule = Schedule(table)
    assert len(schedule.steps) == 5  # w & e, x and the 3 gates of on_cells
    (_, shared), (ufunc, (b, u, _)), *_ = schedule.steps
    assert (ufunc, b, u) == (np.bitwise_xor, shared[2], (shared[2][0], -1))
    assert_ticks_like_table(table, schedule)


@pytest.mark.parametrize("carry, steps", [("c", 11), ("d", 13)], ids=["its-carry", "other-carry"])
def test_identities_need_a_half_adder(carry, steps):
    # s, c and t, d are the half adders of w + e and of e + self. With c,
    # s's own carry, s | c is w | e and NOT(self | c) & s is NOT(self) & s:
    # c, its OR and that NOT are dropped, and NOT(self) is on_cells' own.
    # With d, neither identity holds.
    table = on_cells(("s", XOR, ("w", "e")), ("c", AND, ("w", "e")), ("t", XOR, ("e", "self")),
                     ("d", AND, ("e", "self")), ("k", XOR, ("t", "d")), ("o", OR, ("s", carry)),
                     ("g", OR, ("self", carry)), ("n", NOT, ("g",)), ("m", AND, ("n", "s")),
                     ("x", XOR, ("o", "m")), ("y", XOR, ("x", "k")))
    schedule = Schedule(table)
    assert len(schedule.steps) == steps
    assert_ticks_like_table(table, schedule)


_ARITY = {AND: 2, OR: 2, XOR: 2, NOT: 1, XOR3: 3, MAJ3: 3}


@st.composite
def cell_tables(draw):
    """Tables of up to 8 random blocks over the registers and earlier
    blocks, each input read in its own row or one row up or down."""
    names, blocks = ["self", "w", "e"], []
    for i in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(sorted(_ARITY)))
        sources = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from([0, -1, 1])),
                                min_size=_ARITY[kind], max_size=_ARITY[kind]))
        blocks.append((f"b{i}", kind, tuple((src, dy) if dy else src for src, dy in sources)))
        names.append(f"b{i}")
    return on_cells(*blocks)


@settings(max_examples=60, deadline=None)
@given(table=cell_tables())
def test_any_table_ticks_like_its_blocks(table):
    assert_ticks_like_table(table, Schedule(table))


def test_cell_table_compiles_to_its_blocks():
    # The passes change the gates, not what the cell table computes.
    assert_ticks_like_table(_BLOCKS, _CELL)
    assert_ticks_like_table(_TABLE, _SCHEDULE)


@pytest.mark.parametrize("width", [1, 5, 63, 64, 65, 200])
def test_evaluator_follows_board_size(width):
    # One rule for both tables: the largest int board and the smallest
    # plane board, each against the reference engine. Below 16 columns every
    # board is an int, here one of more than 61,440 bits.
    height = tall(width)
    boards = (((height - 1, "int"), (height, "planes")) if height
              else ((61_440 // (width + 1) + 1, "int"),))
    for h, name in boards:
        world = random_world(width, h, 0.4, width)
        expected = run("reference", world, 3)
        for schedule in (_CELL, _SCHEDULE):
            ev = evaluator(schedule, width, h)
            ev.load(world)
            for _ in range(3):
                ev.tick()
            assert (ev.describe()["evaluator"], ev.world()) == (name, expected)


def test_workloads_keep_their_evaluators():
    # The benchmark's sizes: ladder's 10x10 to 100x100 tick on ints, and
    # frames' 500x500 and megaworld's 1000x1000 on planes, for both tables.
    for schedule in (_CELL, _SCHEDULE):
        for size, name in (((10, 10), "int"), ((100, 100), "int"), ((500, 500), "planes"),
                           ((1000, 1000), "planes")):
            assert evaluator(schedule, *size).describe()["evaluator"] == name


@pytest.mark.parametrize("schedule", [_CELL, _SCHEDULE], ids=["circuit", "bitsliced"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_int_and_plane_ticks_agree(schedule, data):
    # Both evaluators of one compiled table on one small board, bypassing
    # the size choice: the generated int function against the plane tick.
    width = data.draw(st.sampled_from([1, 2, 63, 64, 65, 100]))
    rows = data.draw(bit_rows(width, 1, 6))
    world = world_from_rows(width, len(rows), rows)
    ticks = [cls(schedule, width, len(rows)) for cls in (_IntTick, _PlaneTick)]
    for t in ticks:
        t.load(world)
    for _ in range(data.draw(st.integers(1, 8))):
        for t in ticks:
            t.tick()
        assert ticks[0].world() == ticks[1].world()


@pytest.mark.parametrize("tick", [_IntTick, _PlaneTick], ids=["int", "planes"])
@pytest.mark.parametrize("schedule", [_CELL, _SCHEDULE], ids=["circuit", "bitsliced"])
def test_every_neighbourhood(schedule, tick):
    # Each of the 512 3x3 neighbourhoods, one generation, on both
    # evaluators of both tables: the centre follows B3/S23, and every
    # other cell matches the scalar oracle.
    world, centres = neighbourhood_world()
    ev = tick(schedule, world.width, world.height)
    ev.load(world)
    ev.tick()
    stepped = ev.world()
    for pattern, (x, y) in enumerate(centres):
        count = (pattern & ~(1 << 4)).bit_count()
        assert get_cell(stepped, x, y) == next_cell_state(pattern >> 4 & 1, count), pattern
    assert stepped == naive_step(world)


@pytest.mark.parametrize("size", RECORD_SIZES, ids=RECORD_IDS)
def test_shared_netlist_readbacks(size):
    # Two engines on one netlist, loading each other's readbacks: the record
    # lives with the registers, so a load is skipped only while they still
    # hold the readback.
    start, _ = record_worlds(*size)
    netlist = elaborate(*size)
    assert netlist.describe()["evaluator"] == RECORD_IDS[RECORD_SIZES.index(size)]
    a, b = CircuitEngine(netlist=netlist), CircuitEngine(netlist=netlist)
    a.load(start)
    a.step()
    back_a = a.world()
    b.load(back_a)  # the registers hold it
    b.step()
    back_b = b.world()
    a.load(back_a)  # they have ticked since
    a.step()
    assert_stepped(a.world(), start, 2)
    b.load(back_b)  # a.world() read out since, after a tick
    b.step()
    assert_stepped(b.world(), start, 3)
    a.load(back_b)
    assert_stepped(a.world(), start, 2)


@pytest.mark.parametrize("size", RECORD_SIZES, ids=RECORD_IDS)
def test_netlist_load_between_readback_and_reload(size):
    start, foreign = record_worlds(*size)
    netlist = elaborate(*size)
    engine = CircuitEngine(start, netlist)
    engine.step()
    back = engine.world()
    netlist.load(foreign)  # the readback's generation, other cells
    engine.load(back)
    engine.step()
    assert_stepped(engine.world(), start, 2)


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
