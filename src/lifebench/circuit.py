"""Synchronous-circuit emulation of the Game of Life, plus FPGA resource models.

Each cell is one D flip-flop, a popcount adder tree over its eight neighbor
registers, and rule logic on the 4-bit sum, written once as a table of gate
blocks. A Netlist replicates the table into an explicit node graph, built
on first read, in which neighbor inputs that would fall outside the grid
are wired to a constant-0 node. The whole world updates on every clock
tick. The tick runs the table compiled the way synthesis would: XOR3/MAJ3
pairs share their a ^ b, gate planes are reused once their last reader is
done, NOT is masked so that the D inputs latch straight into the registers,
and the neighbor shifts carry across words in contiguous 1-D ops. It
evaluates bit-packed uint64 planes, 64 cells per gate op, with no
allocation, and then every register latches at once.

Resource estimation is separate from the netlist: registers and LEs for a
given world size are modeled from a calibration table of synthesis results
(Cyclone IV, DE2-115 board), not derived from our node counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import MASK64, World, cells

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

# The calibration table's register counts exceed cells by exactly this
# constant on every row. An artifact of the synthesized designs, not
# circuit structure; our netlists carry exactly one register per cell.
REGISTER_OVERHEAD = 4


class SizeMismatch(ValueError):
    """World dimensions do not match the elaborated netlist."""


class OutOfRange(ValueError):
    """Requested size falls outside the calibration table."""


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


def _schedule():
    """The size-independent half of Netlist._compile: the gate steps of a tick.

    Returns (steps, n_planes). A step is (ufunc, operands) over symbolic
    operands: "self" (the registers, which the last block writes), a
    neighbor name, "mask", or the index of one of n_planes gate planes.
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


class Netlist:
    """Explicit register + gate graph for one world size.

    Node ids: 0..R-1 are the cell state registers (row-major), id R is the
    shared constant-0 node, and ids R+1.. are gates in topological order,
    one contiguous block of R nodes per signal of the cell table.

    The registers are held bit-packed in the World.data layout, with one
    zero guard word after each row. A tick runs the list of ufunc calls
    that _compile makes from the cell table in four passes (contiguous
    carries, shared XOR, plane liveness, masked NOT), 64 cells per op and
    with no allocation. The explicit graph (kinds, inputs, reg_next), which
    the tick never reads, is built on first read; describe() reports the
    structure without it. Use elaborate() to build one. Do not tick an
    instance from two threads at once; distinct netlists are independent.
    """

    def __init__(self, width, height, reg_init):
        self.width = width
        self.height = height
        self.n_registers = width * height
        self.reg_init = reg_init    # read-only <u8 (height, row words), reset values
        self._compile()
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

    def _compile(self) -> None:
        """Compile the cell table into one list of ufunc calls, as synthesis would.

        A plane holds one bit per cell: each row of rw words is followed by
        one guard word, and it is evaluated as one flat 1-D array.
        shifted[dx + 1] holds the registers shifted so that bit x of a row
        is cell x + dx, between an all-zero row above and below (the dead
        boundary), so each neighbor input is a flat offset view of it. The
        registers are the interior of shifted[1], with zero guard words.
        Four passes over the table, all for one tick path. The last three
        depend on the table alone, so _schedule makes them once, over
        symbolic operands, and _compile binds those to this size's planes.

        * Contiguous carries. The west and east shifts, and the bit each
          carries across a word boundary, are 1-D ops over the flat
          interior. No carry crosses a row, because the guard word is 0.
        * Shared XOR. An XOR3/MAJ3 pair with the same first two inputs
          computes t = a ^ b once: sum = t ^ c, carry = (a & b) | (t & c).
          The carry half is t's last reader in the table, so t & c is
          computed in place.
        * Plane liveness. Each block's output plane is taken from a free
          list, and goes back to it after the block's last reader. A block
          reads all its inputs before its first write to its output, so the
          output may reuse the plane of an input that dies there.
        * Masked NOT. NOT is x ^ mask, with mask zero on padding bits and
          guard words. There a neighbor input holds at most the three cells
          of one edge column, so ge4 is 0, lt4 = ge4 ^ 0 is 0, and so is
          next: it writes straight into the registers, keeping their
          padding and guard words 0.
        """
        h = self.height
        rw = (self.width + 63) >> 6
        stride = rw + 1
        size = h * stride
        self._mask = np.zeros((h, stride), dtype=np.uint64)
        self._mask[:, :rw] = MASK64
        self._mask[:, rw - 1] = (1 << (self.width - 64 * (rw - 1))) - 1
        # np.full writes every page now, so the first tick does not pay
        # the page faults; the border rows and guard words must be 0.
        shifted = np.full((3, h + 2, stride), 0, dtype=np.uint64)
        flat = shifted.reshape(3, -1)
        west, regs, east = flat[:, stride:-stride]
        self._regs = shifted[1, 1:-1, :rw]
        self._planes = np.full((_N_PLANES, size), 0, dtype=np.uint64)

        one, top = np.uint64(1), np.uint64(63)
        ops = [(np.left_shift, (regs, one, west)),
               (np.right_shift, (regs, one, east))]
        if rw > 1:  # carry the bit that crosses each word boundary
            carry = self._planes[0][:-1]  # no gate plane is live yet
            ops += [(np.right_shift, (regs[:-1], top, carry)),
                    (np.bitwise_or, (west[1:], carry, west[1:])),
                    (np.left_shift, (regs[1:], top, carry)),
                    (np.bitwise_or, (east[:-1], carry, east[:-1]))]
        operand = {src: flat[dx + 1, (1 + dy) * stride:(1 + dy) * stride + size]
                   for src, (dx, dy) in _NEIGHBORS.items()}
        operand.update(enumerate(self._planes), self=regs, mask=self._mask.reshape(-1))
        self._ops = ops + [(ufunc, tuple(operand[arg] for arg in args)) for ufunc, args in _STEPS]

    @property
    def n_comb_nodes(self) -> int:
        return 1 + len(_BLOCKS) * self.n_registers

    @property
    def const_id(self) -> int:
        return self.n_registers

    def reset(self) -> None:
        """Latch the reset pattern into the registers."""
        np.bitwise_and(self.reg_init, self._mask[:, :-1], out=self._regs)

    def load(self, world: World) -> None:
        """Overwrite register state with a world of matching size (one buffer copy)."""
        if (world.width, world.height) != (self.width, self.height):
            raise SizeMismatch(
                f"netlist is {self.width}x{self.height}, world is {world.width}x{world.height}")
        words = np.frombuffer(world.data, dtype="<u8").reshape(self._regs.shape)
        np.bitwise_and(words, self._mask[:, :-1], out=self._regs)

    def registers(self) -> np.ndarray:
        """Copy of the current register values as a row-major bool array."""
        return cells(self.to_world()).astype(bool).ravel()

    def to_world(self, generation: int = 0) -> World:
        data = self._regs.astype("<u8", copy=False).tobytes()
        return World.from_bytes(self.width, self.height, data, generation)

    def tick(self) -> None:
        """One clock: evaluate all gate blocks from register values, then latch.

        Each block reads only registers and earlier blocks, and the
        registers are overwritten by the last op alone, so no register
        update is visible before the simultaneous latch.
        """
        for op, args in self._ops:
            op(*args)

    def describe(self) -> dict:
        """The netlist's structure, from the cell table and the compiled tick.

        nodes: node count per kind in the explicit graph (REG for the
        registers), which is not built; depth: logic depth in gate levels
        from the registers to their D inputs; ops_per_tick: ufunc calls per
        clock; plane_bytes: bytes of the gate planes the tick evaluates
        into, the NOT mask included (not the registers and their shifts).
        """
        nodes = {"REG": self.n_registers, **dict.fromkeys(KIND_NAMES, 0), "CONST0": 1}
        level = dict.fromkeys(("self", *_NEIGHBORS), 0)
        for name, kind, sources in _BLOCKS:
            nodes[KIND_NAMES[kind]] += self.n_registers
            level[name] = 1 + max(level[src] for src in sources)
        return {"nodes": nodes, "depth": max(level.values()), "ops_per_tick": len(self._ops),
                "plane_bytes": self._mask.nbytes + self._planes.nbytes}


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

    data = (initial or World.empty(width, height)).data
    return Netlist(width, height, np.frombuffer(data, dtype="<u8").reshape(height, -1))


def count_resources(netlist: Netlist) -> tuple[int, int]:
    """(state registers, combinational node count) of an elaborated netlist.

    The node count is our netlist metric; it is not a vendor LE count.
    """
    return netlist.n_registers, netlist.n_comb_nodes


# ---------------------------------------------------------------------------
# Calibrated resource model
# ---------------------------------------------------------------------------


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

    @property
    def min_cells(self) -> int:
        return self.rows[0].cells

    @property
    def max_cells(self) -> int:
        return self.rows[-1].cells

    def model(self, cells: int, extrapolate: bool = False) -> tuple[int, float]:
        """(LEs, min clock period) for a cell count.

        LEs interpolate linearly between the bracketing rows, rounding half
        up, and are exact at a row. The clock is the max of the bracketing
        rows (the column is not monotonic, so no curve fit). Outside the
        table an OutOfRange is raised unless extrapolate=True, which extends
        the edge LE segment and reuses the edge row's clock.
        """
        rows = self.rows
        if self.min_cells <= cells <= self.max_cells:
            hi = next(row for row in rows if row.cells >= cells)
            if hi.cells == cells:
                return hi.les, hi.min_clock_ns
            lo = rows[rows.index(hi) - 1]
            clock = max(lo.min_clock_ns, hi.min_clock_ns)
        elif extrapolate:
            lo, hi = rows[:2] if cells < self.min_cells else rows[-2:]
            clock = (lo if cells < self.min_cells else hi).min_clock_ns
        else:
            raise OutOfRange(f"{cells} cells outside calibration range "
                             f"[{self.min_cells}, {self.max_cells}]")
        les = lo.les + _round_half_up((cells - lo.cells) * (hi.les - lo.les), hi.cells - lo.cells)
        return max(les, 0), clock


@dataclass(frozen=True)
class ResourceEstimate:
    width: int
    height: int
    registers: int
    les: int
    min_clock_ns: float


def _default_calibration() -> CalibrationTable:
    from . import refdata
    return refdata.load_calibration()


def _round_half_up(num: int, den: int) -> int:
    return (2 * num + den) // (2 * den)


def calibrated_min_clock_ns(cells: int, cal: CalibrationTable | None = None) -> float:
    """Min clock period for a size: table value if listed, else the max of
    the two bracketing rows (the table is not monotonic, so no curve fit)."""
    return (cal or _default_calibration()).model(cells)[1]


def estimate_resources(width: int, height: int, cal: CalibrationTable | None = None,
                       extrapolate: bool = False) -> ResourceEstimate:
    """Model registers, LEs, and min clock period for a world size.

    Registers are cells + REGISTER_OVERHEAD (exact on every calibration
    row); LEs and the clock come from CalibrationTable.model. Outside the
    calibration range an OutOfRange is raised unless extrapolate=True (a
    rough guess, since large designs may not route the same way).
    """
    cells = width * height
    try:
        les, clock = (cal or _default_calibration()).model(cells, extrapolate)
    except OutOfRange as exc:
        raise OutOfRange(f"{width}x{height} = {exc}; pass extrapolate=True to force") from None
    return ResourceEstimate(width, height, cells + REGISTER_OVERHEAD, les, clock)
