"""Synchronous-circuit emulation of the Game of Life.

Each cell is one D flip-flop, a popcount adder tree over its eight neighbor
registers, and rule logic on the 4-bit sum, written once as a table of gate
blocks. A Netlist replicates the table into an explicit node graph, built
on first read, in which neighbor inputs that would fall outside the grid
are wired to a constant-0 node. The whole world updates on every clock
tick. The tick runs the table compiled the way synthesis would: XOR3/MAJ3
pairs share their a ^ b, gate planes are reused once their last reader is
done, and NOT is masked so that the D inputs latch straight into the
registers. The world's size picks the evaluator. A small world is one
Python int in the grid.board layout, one int op per gate step, so it pays
no numpy per-call cost. A larger one is bit-packed uint64 planes
(grid.Planes, the bit-sliced engine's layout too), 64 cells per gate op
with no allocation, whose neighbor shifts carry across words in contiguous
1-D ops. Either way every register latches at once.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property

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


# Moore neighborhood by compass direction: (dx, dy), y pointing down.
_NEIGHBORS = {"nw": (-1, -1), "n": (0, -1), "ne": (1, -1), "w": (-1, 0),
              "e": (1, 0), "sw": (-1, 1), "s": (0, 1), "se": (1, 1)}

# The per-cell circuit, one block per logical signal in dependency order:
# (name, kind, inputs). An input is a neighbor register, "self" (the cell's
# own register) or an earlier block. Three neighbors feed each of two full
# adders and the last two a half adder; the last block is the register's D
# input. Netlist replicates this table into the explicit graph and compiles
# it into its packed tick, so the rule is written once.
_BLOCKS = (
    ("sum_a", XOR3, ("nw", "n", "ne")),
    ("sum_b", XOR3, ("w", "e", "sw")),
    ("car_a", MAJ3, ("nw", "n", "ne")),
    ("car_b", MAJ3, ("w", "e", "sw")),
    ("sum_c", XOR, ("s", "se")),
    ("car_c", AND, ("s", "se")),
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
_BLOCK_INDEX = {name: i for i, (name, _, _) in enumerate(_BLOCKS)}

_BINARY_UFUNCS = {AND: np.bitwise_and, OR: np.bitwise_or, XOR: np.bitwise_xor}
_OPERATORS = {np.bitwise_and: operator.and_, np.bitwise_or: operator.or_,
              np.bitwise_xor: operator.xor}


def _schedule():
    """The gate steps of a tick, compiled from the cell table for any size.

    Returns (steps, n_planes). A step is (ufunc, operands) over symbolic
    operands: "self" (the registers, which the last block writes), a
    neighbor name, "mask", or the index of one of n_planes gate planes.
    Each evaluator binds them to its own values. Three passes:

    * Shared XOR. An XOR3/MAJ3 pair with the same first two inputs
      computes t = a ^ b once: sum = t ^ c, carry = (a & b) | (t & c).
      The carry half is t's last reader in the table, so t & c is
      computed in place.
    * Plane liveness. Each block's output plane is taken from a free list,
      and goes back to it after the block's last reader. A block reads all
      its inputs before its first write to its output, so the output may
      reuse the plane of an input that dies there.
    * Masked NOT. NOT is x ^ mask, with mask 1 on the cells alone, so the
      last block may write straight into the registers. Each evaluator's
      docstring shows why their bits off the cells stay 0.
    """
    last = {}  # signal, or the (a, b) of a shared XOR, -> index of its last reader
    for i, (_, kind, sources) in enumerate(_BLOCKS):
        last.update((src, i) for src in sources)
        if kind in (XOR3, MAJ3):
            last[sources[:2]] = i
    steps, value, free = [], {}, []
    fresh = itertools.count()

    def take():
        return free.pop() if free else next(fresh)

    for i, (name, kind, sources) in enumerate(_BLOCKS):
        a, *rest = (value.get(src, src) for src in sources)
        if kind in (XOR3, MAJ3):
            pair = sources[:2]
            if pair not in value:
                value[pair] = take()
                steps.append((np.bitwise_xor, (a, rest[0], value[pair])))
            t = value[pair]
        free += [value.pop(src) for src in sources if last[src] == i and src in value]
        out = "self" if i == len(_BLOCKS) - 1 else take()
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
    return steps, next(fresh)


_STEPS, _N_PLANES = _schedule()


# Largest board, height * (width + 1) bits, that ticks as one int. An int
# op's cost grows about linearly with the board, while numpy's per-call
# cost (about 0.5 us for each of 33-37 ufunc calls) keeps the plane tick
# near flat up to 100x100. Per-tick time, int / planes, median of 5 interleaved rounds on
# a 2-vCPU Xeon, Python 3.11, numpy 2.4 (BENCH_circuit_int.json):
#   100x100  12 / 26 us    181x181  24 / 30 us    200x200   31 / 34 us
#   256x256  42 / 37 us    300x300  62 / 42 us    500x500  145 / 80 us
# Over three such runs the planes first drew level at 190x190, 200x200 and
# 256x256; 2**15 bits (180x180) stays below all three.
_INT_TICK_MAX_BITS = 1 << 15


class Netlist:
    """Explicit register + gate graph for one world size.

    Node ids: 0..R-1 are the cell state registers (row-major), id R is the
    shared constant-0 node, and ids R+1.. are gates in topological order,
    one contiguous block of R nodes per signal of the cell table.

    A tick runs the gate steps that _schedule compiles from the cell table.
    The evaluator depends on the world's size alone: a board of at most
    _INT_TICK_MAX_BITS bits is ticked as one Python int (_IntTick), a
    larger one on bit-packed uint64 planes with no allocation
    (_PlaneTick). The explicit graph (kinds, inputs, reg_next), which the
    tick never reads, is built on first read; describe() reports the
    structure without it. Use elaborate() to build one. Do not tick an
    instance from two threads at once; distinct netlists are independent.
    """

    def __init__(self, width: int, height: int, initial: World):
        self.width = width
        self.height = height
        self.n_registers = width * height
        self._initial = initial    # the reset pattern
        small = height * (width + 1) <= _INT_TICK_MAX_BITS
        self._eval = (_IntTick if small else _PlaneTick)(width, height)
        self.reset()

    kinds = property(lambda self: self._graph[0])     # int8 (C,), per gate node (const included)
    inputs = property(lambda self: self._graph[1])    # int32 (C, 3), node ids, -1 = unused
    reg_next = property(lambda self: self._graph[2])  # intp (R,), each register's D input

    @cached_property
    def _graph(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The explicit graph; block i of the cell table is node ids const + 1 + i*n + cell."""
        width, height, n = self.width, self.height, self.n_registers
        const = self.const_id
        cell = np.arange(n, dtype=np.int32).reshape(height, width)
        kinds = np.empty(self.n_comb_nodes, dtype=np.int8)
        inputs = np.empty((self.n_comb_nodes, 3), dtype=np.int32)
        kinds[0] = CONST0
        inputs[0] = -1
        for i, (_, kind, sources) in enumerate(_BLOCKS):
            lo = 1 + i * n
            kinds[lo:lo + n] = kind
            block = inputs[lo:lo + n].reshape(height, width, 3)
            block[:, :, len(sources):] = -1
            for col, src in enumerate(sources):
                out = block[:, :, col]
                if src == "self":
                    out[...] = cell
                elif src in _NEIGHBORS:
                    dx, dy = _NEIGHBORS[src]
                    out.fill(const)
                    ys = slice(max(0, -dy), height - max(0, dy))
                    xs = slice(max(0, -dx), width - max(0, dx))
                    np.add(cell[ys, xs], dy * width + dx, out=out[ys, xs])
                else:
                    np.add(cell, const + 1 + _BLOCK_INDEX[src] * n, out=out)
        nxt = const + 1 + (len(_BLOCKS) - 1) * n
        return kinds, inputs, np.arange(nxt, nxt + n, dtype=np.intp)

    @property
    def n_comb_nodes(self) -> int:
        return 1 + len(_BLOCKS) * self.n_registers

    @property
    def const_id(self) -> int:
        return self.n_registers

    def reset(self) -> None:
        """Latch the reset pattern into the registers."""
        self._eval.load(self._initial)

    def load(self, world: World) -> None:
        """Overwrite register state with a world of matching size."""
        if (world.width, world.height) != (self.width, self.height):
            raise SizeMismatch(
                f"netlist is {self.width}x{self.height}, world is {world.width}x{world.height}")
        self._eval.load(world)

    def to_world(self, generation: int = 0) -> World:
        return self._eval.world(generation)

    def tick(self) -> None:
        """One clock: evaluate all gate blocks from register values, then latch.

        Each block reads only registers and earlier blocks, and the
        registers are overwritten by the last step alone, so no register
        update is visible before the simultaneous latch.
        """
        self._eval.tick()

    def describe(self) -> dict:
        """The netlist's structure, from the cell table and the compiled tick.

        nodes: node count per kind in the explicit graph (REG for the
        registers), which is not built; depth: logic depth in gate levels
        from the registers to their D inputs; evaluator: "int" or
        "planes"; ops_per_tick: the evaluator's operator or ufunc calls per
        clock; plane_bytes: bytes of the gate planes the tick evaluates
        into, the NOT mask included (not the registers and their shifts),
        0 for the int evaluator.
        """
        nodes = {"REG": self.n_registers, **dict.fromkeys(KIND_NAMES, 0), "CONST0": 1}
        level = dict.fromkeys(("self", *_NEIGHBORS), 0)
        for name, kind, sources in _BLOCKS:
            nodes[KIND_NAMES[kind]] += self.n_registers
            level[name] = 1 + max(level[src] for src in sources)
        return {"nodes": nodes, "depth": max(level.values()), "evaluator": self._eval.name,
                "ops_per_tick": self._eval.ops_per_tick, "plane_bytes": self._eval.plane_bytes}


class _IntTick:
    """The registers as one int, a grid.board, and the gate steps over it.

    Every signal is a board-sized int in a list of slots: the gate planes
    of _STEPS, then the registers, the mask and the eight neighbor inputs.
    A neighbor input is the registers, or their west (<< 1) or east (>> 1)
    shift, shifted one row up (<< stride) or down (>> stride); bits shifted
    in are 0, the dead boundary. The mask is the all-cells board. Outside
    it (guard bits and the bits past the last row) the registers are 0, so
    lt4 = ge4 ^ 0 = ge4 there and next is ge4 & bit1 & bit0, set only by a
    count of 7. Such a bit sees at most six cells, the two edge columns
    beside a guard bit, so next writes 0 there and the registers stay a
    board. CPython allocates a new int per op.
    """

    name = "int"
    plane_bytes = 0

    def __init__(self, width: int, height: int):
        self._width, self._height, self._stride = width, height, width + 1
        slot = {name: _N_PLANES + i for i, name in enumerate(("self", "mask", *_NEIGHBORS))}
        self._reg, self._nbr = slot["self"], slot["nw"]
        self._v = [0] * (_N_PLANES + len(slot))
        self._v[slot["mask"]] = full_board(width, height)
        self._steps = [(_OPERATORS[ufunc], *(slot.get(arg, arg) for arg in args))
                       for ufunc, args in _STEPS]
        self.ops_per_tick = 8 + len(self._steps)  # the neighbor shifts, then the gates

    def load(self, world: World) -> None:
        self._v[self._reg] = board(world)

    def world(self, generation: int) -> World:
        return from_board(self._v[self._reg], self._width, self._height, generation)

    def tick(self) -> None:
        v, s = self._v, self._stride
        r = v[self._reg]
        west, east = r << 1, r >> 1
        # in _NEIGHBORS order: nw, n, ne, w, e, sw, s, se
        v[self._nbr:] = west << s, r << s, east << s, west, east, west >> s, r >> s, east >> s
        for op, a, b, out in self._steps:
            v[out] = op(v[a], v[b])


class _PlaneTick:
    """The registers as grid.Planes, and the gate steps over them.

    Bordered planes 1 and 2 hold the registers shifted west and east, so
    each neighbor input is a flat offset view of plane 0, 1 or 2. The tick
    is a list of ufunc calls, 64 cells per op and with no allocation: the
    west and east shifts with their carries (Planes.shifts), then _STEPS
    bound to this size's planes. The mask is zero on padding bits and
    guard words. There a neighbor input holds at most the three cells of
    one edge column, so ge4 is 0, lt4 = ge4 ^ 0 is 0, and so is next: it
    writes straight into the registers, keeping their padding and guard
    words 0.
    """

    name = "planes"

    def __init__(self, width: int, height: int):
        p = Planes(width, height, bordered=3, flat=_N_PLANES)
        self.load, self.world = p.load, p.world
        regs, west, east = p.row(0), p.row(1), p.row(2)
        by_dx = {0: 0, -1: 1, 1: 2}  # the bordered plane whose bit x holds cell x + dx
        operand = {src: p.row(by_dx[dx], dy) for src, (dx, dy) in _NEIGHBORS.items()}
        operand.update(enumerate(p.flat), self=regs, mask=p.mask)
        shifts = p.shifts(west, east, carry=p.flat[0])  # no gate plane is live yet
        self._ops = shifts + [(ufunc, tuple(operand[arg] for arg in args)) for ufunc, args in _STEPS]
        self.ops_per_tick = len(self._ops)
        self.plane_bytes = p.mask.nbytes + p.flat.nbytes

    def tick(self) -> None:
        for op, args in self._ops:
            op(*args)


def elaborate(width: int, height: int, initial: World | None = None) -> Netlist:
    """Replicate the per-cell circuit over a width x height grid.

    Every cell gets a register, a full-adder popcount tree over its eight
    neighbor registers (constant-0 stands in for missing neighbors), and
    the rule logic comparing the 4-bit sum against 2 and 3. `initial`
    supplies the register reset pattern (all dead if omitted).
    """
    if width < 1 or height < 1:
        raise ValueError(f"netlist dimensions must be >= 1, got {width}x{height}")
    if initial is not None and (initial.width, initial.height) != (width, height):
        raise SizeMismatch(
            f"initial world is {initial.width}x{initial.height}, netlist is {width}x{height}")

    return Netlist(width, height, initial or World.empty(width, height))


def count_resources(netlist: Netlist) -> tuple[int, int]:
    """(state registers, combinational node count) of an elaborated netlist.

    The node count is our netlist metric; it is not a vendor LE count.
    """
    return netlist.n_registers, netlist.n_comb_nodes
