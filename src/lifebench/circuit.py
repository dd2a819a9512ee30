"""Synchronous-circuit emulation of the Game of Life, and the gate-table
compiler that steps both bit-parallel engines.

Each cell is one D flip-flop, a popcount adder tree over its eight neighbor
registers, and rule logic on the 4-bit sum, written once as a table of gate
blocks. A Netlist replicates the table over the grid, with a constant 0
for every neighbor input that would fall outside it. The whole world
updates on every clock tick. A Schedule compiles such a table the way
synthesis would; the bit-sliced engine's adder chain is a second table,
compiled the same way. evaluator() binds a schedule to one world size,
which picks how it runs: a small world is one Python int in the
grid.board layout, ticked by one straight-line function generated from
the schedule, with no dispatch per op; a larger one is bit-packed uint64
planes (grid.Planes), 64 cells per ufunc call with no allocation.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from types import MethodType

import numpy as np

from .grid import Planes, World, board, from_board, full_board

# Node kind codes. XOR3/MAJ3 are the sum and carry halves of a full-adder
# stage; everything else is an ordinary 1- or 2-input gate.
CONST0 = 0
AND = 1
OR = 2
NOT = 3
XOR = 4
XOR3 = 5
MAJ3 = 6

KIND_NAMES = ("CONST0", "AND", "OR", "NOT", "XOR", "XOR3", "MAJ3")


class SizeMismatch(ValueError):
    """World dimensions do not match the elaborated netlist."""


# The per-cell circuit, one block per logical signal in dependency order:
# (name, kind, inputs), in the input language of Schedule. The eight
# neighbor registers are w, self and e of the rows above and below, and w
# and e of the cell's own row. Three neighbors feed each of two full
# adders and the last two a half adder; the last block is the register's
# D input. Netlist compiles this table into its tick and describe() counts
# its nodes from it, so the rule is written once.
_NW, _N, _NE, _SW, _S, _SE = ("w", -1), ("self", -1), ("e", -1), ("w", 1), ("self", 1), ("e", 1)
_BLOCKS = (
    ("sum_a", XOR3, (_NW, _N, _NE)),
    ("sum_b", XOR3, ("w", "e", _SW)),
    ("car_a", MAJ3, (_NW, _N, _NE)),
    ("car_b", MAJ3, ("w", "e", _SW)),
    ("sum_c", XOR, (_S, _SE)),
    ("car_c", AND, (_S, _SE)),
    ("bit0", XOR3, ("sum_a", "sum_b", "sum_c")),    # ones column sum
    ("ones_c", MAJ3, ("sum_a", "sum_b", "sum_c")),  # and its carry
    ("twos", XOR3, ("car_a", "car_b", "car_c")),    # carry column sum
    ("twos_c", MAJ3, ("car_a", "car_b", "car_c")),  # and its carry
    ("bit1", XOR, ("twos", "ones_c")),
    ("car_f", AND, ("twos", "ones_c")),
    ("bit2", XOR, ("twos_c", "car_f")),
    ("bit3", AND, ("twos_c", "car_f")),
    ("ge4", OR, ("bit3", "bit2")),                  # count >= 4
    ("lt4", NOT, ("ge4",)),
    ("is23", AND, ("lt4", "bit1")),                 # count is 2 or 3
    ("b0_or_self", OR, ("bit0", "self")),
    ("next", AND, ("is23", "b0_or_self")),          # next cell state
)

_BINARY_UFUNCS = {AND: np.bitwise_and, OR: np.bitwise_or, XOR: np.bitwise_xor}
_SYMBOLS = {np.bitwise_and: "&", np.bitwise_or: "|", np.bitwise_xor: "^"}


def _signal(src) -> tuple[str, int]:
    """A table input as (signal, row offset)."""
    return src if isinstance(src, tuple) else (src, 0)


class Schedule:
    """A cell table compiled into the gate steps of one tick, for any size.

    A table is (name, kind, inputs) blocks in dependency order; the last
    block is the register's D input. An input is "self" (the cell's
    register), "w" or "e" (the register of the cell to the west or east)
    or an earlier block, or one of these read one row up or down,
    (signal, -1) or (signal, 1). Outside the grid an input reads 0.
    int_max_bits is the largest board, height * (width + 1) bits, that
    evaluator() runs as one int.

    A signal read at a row offset lives in a bordered row plane (k, 0) and
    is read as (k, dy); row plane 0 is the registers. Any other signal
    lives in flat plane k or in a dead signal's row plane. A step is
    (ufunc, (a, b, out)) over these planes and "mask". w and e, the
    registers shifted by the evaluator before the steps, are signals too;
    carry is a flat plane free while those shifts run. Three passes:

    * Shared XOR. An XOR3/MAJ3 pair with the same first two inputs
      computes t = a ^ b once: sum = t ^ c, carry = (a & b) | (t & c).
      The carry half is t's last reader in the table, so t & c is
      computed in place.
    * Plane liveness. Each block's output plane is taken from a free list,
      and goes back to it after the block's last reader. A block reads all
      its inputs before its first write to its output, so the output may
      reuse the plane of an input that dies there, unless it reads that
      input at a row offset.
    * Masked NOT. NOT is x ^ mask, with mask 1 on the cells alone, so a
      table whose last block is is23 & (bit0 | self), with is23 = lt4 &
      bit1 and lt4 the NOT of a signal g that, given bit1, is count >= 4,
      writes it straight into the registers, as both tables do. Off the
      cells, where the registers and mask are 0, that block is g & bit1 &
      bit0: a count of 7. No bit there sees more than six cells (a guard
      bit, of an int or of a plane, at most the last column of rows y - 1
      to y + 1 and the first column of rows y to y + 2), so the registers
      stay 0 off the cells.
    """

    def __init__(self, table, int_max_bits: int):
        self.int_max_bits = int_max_bits
        table = [(name, kind, tuple(map(_signal, sources))) for name, kind, sources in table]
        rows = {s for _, _, sources in table for s, dy in sources if dy}
        last = {}  # signal, or the (a, b) of a shared XOR, -> index of its last reader
        for i, (_, kind, sources) in enumerate(table):
            last.update((s, i) for s, _ in sources)
            if kind in (XOR3, MAJ3):
                last[sources[:2]] = i
        row_planes, fresh, free = itertools.count(1), itertools.count(), []

        def take(name=None):
            if name in rows:
                return next(row_planes), 0
            return free.pop() if free else next(fresh)

        value = {"self": (0, 0), "w": take("w"), "e": take("e")}
        self.west, self.east, self.carry = value["w"], value["e"], take()
        free.append(self.carry)
        steps = []
        for i, (name, kind, sources) in enumerate(table):
            a, *rest = ((value[s][0], dy) if dy else value[s] for s, dy in sources)
            if kind in (XOR3, MAJ3):
                pair = sources[:2]
                if pair not in value:
                    value[pair] = take()
                    steps.append((np.bitwise_xor, (a, rest[0], value[pair])))
                t = value[pair]
            names = dict.fromkeys(s for s, _ in sources)
            dead = [s for s in names if last[s] == i and s != "self"]
            offset = {s for s, dy in sources if dy}  # out on these, numpy would copy
            free += [value.pop(s) for s in dead if s not in offset]
            out = (0, 0) if i == len(table) - 1 else take(name)
            free += [value.pop(s) for s in dead if s in offset]
            if kind == NOT:
                steps.append((np.bitwise_xor, (a, "mask", out)))
            elif kind == XOR3:
                steps.append((np.bitwise_xor, (t, rest[1], out)))
            elif kind == MAJ3:
                b, c = rest
                steps += [(np.bitwise_and, (t, c, t)), (np.bitwise_and, (a, b, out)),
                          (np.bitwise_or, (out, t, out))]
            else:
                steps.append((_BINARY_UFUNCS[kind], (a, *rest, out)))
            if kind in (XOR3, MAJ3) and last[pair] == i:
                free.append(value.pop(pair))
            value[name] = out
        self.steps = steps
        self.n_rows, self.n_flat = next(row_planes), next(fresh)
        shifted = {src for _, _, sources in table for src in sources if src[1]}
        self.int_ops = 2 + len(shifted) + len(steps)  # w, e, row shifts, gates

    @cached_property
    def int_tick(self):
        """The tick over ints as one function tick(ev) of an _IntTick ev.

        Its source is written from the schedule alone, no size, input or
        user value, and compiled on first use. It reads the registers r0,
        the row stride and the mask from ev and writes back the next r0 and
        generation, so that a tick is one Python frame. Flat plane k is the
        local pk and row plane k rk; rk read one row up is rk_n = rk <<
        stride and one row down rk_s = rk >> stride, each made before its
        first read. Bits shifted in are 0, the dead boundary.
        """
        def local(arg):
            if isinstance(arg, int):
                return f"p{arg}"
            return arg if arg == "mask" else f"r{arg[0]}" + ("", "_s", "_n")[arg[1]]

        lines = ["def tick(ev):", "r0, stride, mask = ev._r, ev._stride, ev._mask",
                 f"{local(self.west)} = r0 << 1", f"{local(self.east)} = r0 >> 1"]
        made = set()
        for ufunc, args in self.steps:
            for arg in args:
                if isinstance(arg, tuple) and arg[1] and arg not in made:
                    made.add(arg)
                    lines.append(f"{local(arg)} = r{arg[0]} {'<<' if arg[1] < 0 else '>>'} stride")
            a, b, out = map(local, args)
            lines.append(f"{out} = {a} {_SYMBOLS[ufunc]} {b}")
        scope = {}
        source = "\n    ".join([*lines, "ev._r = r0", "ev.generation += 1\n"])
        exec(compile(source, "<int tick>", "exec"), scope)
        return scope["tick"]


# Largest board, height * (width + 1) bits, that the cell table ticks as
# one int: an int op's cost grows with the board, a ufunc call's barely up
# to 100x100. Per-tick time, int / planes, median of 11 interleaved rounds
# on a 2-vCPU Xeon, Python 3.11, numpy 2.4 (BENCH_gate_tables.json):
#   100x100   7 / 17 us    200x200  20 / 24 us    225x225  24 / 26 us
#   230x230  25 / 25 us    235x235  26 / 26 us    300x300  42 / 34 us
# Over six runs the planes first won at 230x230 (53,130 bits) once and at
# 235x235 in the others; 3 << 14 bits (about 221x221) stays below both.
_INT_TICK_MAX_BITS = 3 << 14

_CELL = Schedule(_BLOCKS, _INT_TICK_MAX_BITS)


def evaluator(schedule: Schedule, width: int, height: int):
    """The schedule bound to a width x height world, on ints or on planes.

    A board of at most schedule.int_max_bits bits ticks as one Python int
    (_IntTick), a larger one on grid.Planes (_PlaneTick). Either has
    load(world), tick(), world() and generation, the loaded world's
    generation plus the ticks since, and reports its name, ops_per_tick
    and plane_bytes.
    """
    small = height * (width + 1) <= schedule.int_max_bits
    return (_IntTick if small else _PlaneTick)(schedule, width, height)


class _IntTick:
    """The registers as one int, a grid.board; tick() is Schedule.int_tick.

    The mask is the all-cells board; the bits off it are the guard bits
    and the bits past the last row. A tick is one call, with no dispatch
    per gate step, but CPython still allocates an int per op.
    """

    name = "int"
    plane_bytes = 0

    def __init__(self, schedule: Schedule, width: int, height: int):
        self._width, self._height, self._stride = width, height, width + 1
        self._mask = full_board(width, height)
        self.tick = MethodType(schedule.int_tick, self)
        self.ops_per_tick = schedule.int_ops

    def load(self, world: World) -> None:
        self._r = board(world)
        self.generation = world.generation

    def world(self) -> World:
        return from_board(self._r, self._width, self._height, self.generation)


class _PlaneTick:
    """The registers as grid.Planes, and the gate steps over them.

    A row plane is a bordered plane of grid.Planes, so each of its row
    offset reads is a flat offset view. The tick is a list of ufunc calls,
    64 cells per op and with no allocation: the west and east shifts with
    their carries (Planes.shifts), then the schedule's steps bound to this
    size's planes. The mask is zero on the guard bits.
    """

    name = "planes"

    def __init__(self, schedule: Schedule, width: int, height: int):
        p = Planes(width, height, bordered=schedule.n_rows, flat=schedule.n_flat)
        self._planes = p

        @cache  # one view per plane: numpy steps in place faster on the input object itself
        def plane(arg):
            if isinstance(arg, int):
                return p.flat[arg]
            return p.mask if arg == "mask" else p.row(*arg)

        shifts = p.shifts(plane(schedule.west), plane(schedule.east), plane(schedule.carry))
        self._ops = shifts + [(ufunc, tuple(map(plane, args))) for ufunc, args in schedule.steps]
        self.ops_per_tick = len(self._ops)
        self.plane_bytes = p.mask.nbytes + p.flat.nbytes

    def load(self, world: World) -> None:
        self._planes.load(world)
        self.generation = world.generation

    def world(self) -> World:
        return self._planes.world(self.generation)

    def tick(self) -> None:
        for op, args in self._ops:
            op(*args)
        self.generation += 1


class Netlist:
    """The cell table's registers and gates, replicated over one world size.

    A tick runs the cell table's schedule on evaluator(), which the
    world's size picks: tick and to_world are the evaluator's own tick and
    world, which returns the registers as a World whose generation is the
    loaded one's plus the ticks since. Each block reads only registers and
    earlier blocks, and the registers are overwritten by the last step
    alone, so no register update is visible before the simultaneous latch.
    A new netlist powers up all dead. Use elaborate() to build one. Do not
    tick an instance from two threads at once; distinct netlists are
    independent.
    """

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.n_registers = width * height
        self.n_comb_nodes = 1 + len(_BLOCKS) * self.n_registers  # the gates and one constant 0
        self._eval = evaluator(_CELL, width, height)
        self.tick, self.to_world = self._eval.tick, self._eval.world
        self._eval.load(World.empty(width, height))

    def load(self, world: World) -> None:
        """Overwrite register state with a world of matching size."""
        if (world.width, world.height) != (self.width, self.height):
            raise SizeMismatch(
                f"netlist is {self.width}x{self.height}, world is {world.width}x{world.height}")
        self._eval.load(world)

    def describe(self) -> dict:
        """The netlist's structure, from the cell table and the compiled tick.

        nodes: node count per kind of the cell table replicated over the
        grid, with one shared constant 0 (REG for the registers); depth:
        logic depth in gate levels from the registers to their D inputs;
        evaluator: "int" or "planes"; ops_per_tick: the evaluator's
        operator or ufunc calls per clock; plane_bytes: bytes of the flat
        planes the tick evaluates into, the NOT mask included (not the row
        planes), 0 for the int evaluator.
        """
        nodes = {"REG": self.n_registers, **dict.fromkeys(KIND_NAMES, 0), "CONST0": 1}
        level = dict.fromkeys(("w", "self", "e"), 0)
        for name, kind, sources in _BLOCKS:
            nodes[KIND_NAMES[kind]] += self.n_registers
            level[name] = 1 + max(level[_signal(src)[0]] for src in sources)
        return {"nodes": nodes, "depth": max(level.values()), "evaluator": self._eval.name,
                "ops_per_tick": self._eval.ops_per_tick, "plane_bytes": self._eval.plane_bytes}


def elaborate(width: int, height: int) -> Netlist:
    """Replicate the per-cell circuit over a width x height grid, all cells dead.

    Every cell gets a register, a full-adder popcount tree over its eight
    neighbor registers (constant-0 stands in for missing neighbors), and
    the rule logic comparing the 4-bit sum against 2 and 3.
    """
    if width < 1 or height < 1:
        raise ValueError(f"netlist dimensions must be >= 1, got {width}x{height}")
    return Netlist(width, height)


def count_resources(netlist: Netlist) -> tuple[int, int]:
    """(state registers, combinational node count) of an elaborated netlist.

    The node count is our netlist metric; it is not a vendor LE count.
    """
    return netlist.n_registers, netlist.n_comb_nodes
