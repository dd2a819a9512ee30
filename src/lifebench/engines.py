"""Three interchangeable Game of Life step engines.

* ReferenceEngine: scalar per-cell kernel over a halo-padded byte grid,
  the software baseline. The one-cell-wide dead halo removes all bounds
  tests from the inner loop.
* BitSlicedEngine: every cell is updated at once with word-wide boolean
  adder chains, on one arbitrary-precision integer for a small world and
  on bit-packed uint64 planes (grid.Planes) for a larger one.
* CircuitEngine: drives the synchronous netlist from the circuit module,
  one clock tick per step.

All three produce bit-identical world sequences from the same start.
step() and world() raise NoWorld until the first load().

Engine instances are single-threaded (no concurrent step calls); distinct
instances are independent, and Worlds move freely between threads.
"""

from __future__ import annotations

import numpy as np

from . import circuit as _circuit
from .grid import Planes, World, board, cells, from_board, from_cells, full_board

ENGINE_KINDS = ("reference", "bitsliced", "circuit")

# Largest board, height * (width + 1) bits, that the bit-sliced engine
# steps as one int. An int op's cost grows about linearly with the board,
# while the plane step pays numpy's per-call cost on each of its 24-28
# ufunc calls. Per-step time, int / planes, median of 20 interleaved runs
# on a 2-vCPU Xeon, Python 3.11, numpy 2.4 (BENCH_bitsliced_planes.json):
#   256x256  29.0 / 26.4 us    300x300  39.1 / 35.1 us    362x362  54.4 / 39.0 us
#   400x400  65.7 / 42.5 us    500x500 103.1 / 60.6 us
# The int step won runs at 256x256 and 300x300, and one at 400x400
# (160,400 bits) in an earlier table that timed the two sides one after
# the other; none at 500x500. The constant lies above every size it won
# at, so no size steps slower than on one int.
_INT_STEP_MAX_BITS = 5 << 15  # 163,840 bits: up to 404x404


class NoWorld(ValueError):
    """step() or world() on an engine that no world has been loaded into."""


def _no_world(*_):
    raise NoWorld("no world loaded: call load(world) first")


class ReferenceEngine:
    """Scalar baseline: per-cell neighbor sum over a halo-padded byte grid.

    Two buffers are allocated at load time and swapped after every step,
    so the steady-state step cost contains no allocation.
    """

    kind = "reference"

    def __init__(self, world: World | None = None):
        self._cur = bytearray(0)
        self._next = bytearray(0)
        self._width = 0
        self._height = 0
        self._generation = 0
        if world is not None:
            self.load(world)

    def load(self, world: World) -> None:
        w, h = world.width, world.height
        if (w, h) != (self._width, self._height):
            self._width, self._height = w, h
            self._cur = bytearray((h + 2) * (w + 2))
            self._next = bytearray((h + 2) * (w + 2))
        self._interior()[...] = cells(world)  # the halo is never written
        self._generation = world.generation

    def _interior(self) -> np.ndarray:
        """Writable (height, width) view of the current grid inside its halo."""
        grid = np.frombuffer(self._cur, dtype=np.uint8).reshape(self._height + 2, -1)
        return grid[1:-1, 1:-1]

    def step(self) -> None:
        if not self._height:
            _no_world()
        cur = self._cur
        nxt = self._next
        w = self._width
        stride = w + 2
        for y in range(1, self._height + 1):
            a = (y - 1) * stride
            m = y * stride
            b = (y + 1) * stride
            for x in range(1, w + 1):
                ax = a + x
                mx = m + x
                bx = b + x
                cnt = (cur[ax - 1] + cur[ax] + cur[ax + 1]
                       + cur[mx - 1] + cur[mx + 1]
                       + cur[bx - 1] + cur[bx] + cur[bx + 1])
                if cnt == 3 or (cnt == 2 and cur[mx]):
                    nxt[mx] = 1
                else:
                    nxt[mx] = 0
        self._cur, self._next = nxt, cur
        self._generation += 1

    def world(self) -> World:
        if not self._height:
            _no_world()
        return from_cells(self._interior(), self._generation)


class BitSlicedEngine:
    """All cells updated at once with boolean adder chains over bit-packed cells.

    Per step: 2-bit horizontal sums (pair for the cell's own row, triple
    for the rows above and below) are combined by full adders into the
    4-bit neighbor count, and the rule is applied as a boolean expression
    over the count bits. Bits shifted in from outside the grid are 0, the
    same fixed dead boundary as the halo in the reference engine.

    The world's size picks the representation at load(), which binds
    step() and world() to it: a board of at most _INT_STEP_MAX_BITS bits
    is one int (_IntStep), a larger world grid.Planes (_PlaneStep).
    """

    kind = "bitsliced"
    step = world = _no_world

    def __init__(self, world: World | None = None):
        self._size = None
        if world is not None:
            self.load(world)

    def load(self, world: World) -> None:
        size = world.width, world.height
        if size != self._size:
            self._size = size
            small = world.height * (world.width + 1) <= _INT_STEP_MAX_BITS
            self._state = (_IntStep if small else _PlaneStep)(*size)
            self.step, self.world = self._state.step, self._state.world
        self._state.load(world)


class _IntStep:
    """The world as one int in grid.board's layout, bit (x, y) at y * (width + 1) + x.

    The guard column per row is always zero, so a shift by one never
    carries a row edge into its neighbor row. The stride stays width + 1,
    the narrowest the step allows; load() and world() are grid.board and
    grid.from_board. CPython's big integers carry shifted bits across word
    boundaries exactly, and allocate a new int per op.
    """

    def __init__(self, width: int, height: int):
        self._width, self._height = width, height
        self._stride = width + 1
        self._full = full_board(width, height)

    def load(self, world: World) -> None:
        self._board = board(world)
        self._generation = world.generation

    def step(self) -> None:
        board = self._board
        s = self._stride
        full = self._full
        left = board << 1
        right = board >> 1
        # 2-bit sums: (hs, hc) = left + right, (ts, tc) = left + right + self
        hs = left ^ right
        hc = left & right
        ts = hs ^ board
        tc = hc | (hs & board)
        above1 = ts << s
        below1 = ts >> s
        above2 = tc << s
        below2 = tc >> s
        # ones column: above triple + own pair + below triple
        x = above1 ^ hs
        bit0 = x ^ below1
        c1 = (above1 & hs) | (below1 & x)
        # twos column plus the carry from the ones
        e = above2 ^ hc
        f = e ^ below2
        c2 = (above2 & hc) | (below2 & e)
        bit1 = f ^ c1
        c3 = f & c1
        hi = c2 | c3  # any weight-4 carry means count >= 4
        self._board = bit1 & (bit0 | board) & (hi ^ full) & full
        self._generation += 1

    def world(self) -> World:
        return from_board(self._board, self._width, self._height, self._generation)


class _PlaneStep:
    """The world as grid.Planes, and the same adder chain as in-place ufunc calls.

    ts and tc go to bordered planes, so the triples of the rows above and
    below are flat offset views of them; the other signals reuse four flat
    planes once their last reader is done. 24 ufunc calls per step (28 for
    rows of more than one word), 64 cells per op, with no allocation. The
    mask is zero on padding bits and guard words, and the registers are 0
    there. A neighbor input there holds at most the three cells of one
    edge column, so hi is 0, hi ^ mask is 0, and the step writes 0 there.
    """

    def __init__(self, width: int, height: int):
        p = Planes(width, height, bordered=3, flat=4)
        self._planes = p
        xor, and_, or_ = np.bitwise_xor, np.bitwise_and, np.bitwise_or
        regs, ts, tc = p.row(0), p.row(1), p.row(2)
        above1, below1, above2, below2 = p.row(1, -1), p.row(1, 1), p.row(2, -1), p.row(2, 1)
        west, east, hs, hc = p.flat
        self._ops = p.shifts(west, east, carry=hs) + [
            # 2-bit sums: (hs, hc) = west + east, (ts, tc) = west + east + self
            (xor, (west, east, hs)), (and_, (west, east, hc)),
            (xor, (hs, regs, ts)), (and_, (hs, regs, tc)), (or_, (tc, hc, tc)),
            # ones column: x = above1 ^ hs in west, bit0 in east, c1 in hs
            (xor, (above1, hs, west)), (xor, (west, below1, east)),
            (and_, (hs, above1, hs)), (and_, (west, below1, west)), (or_, (hs, west, hs)),
            # twos column plus c1: e = above2 ^ hc in west, f in ts, c2 in hc
            (xor, (above2, hc, west)), (and_, (hc, above2, hc)), (xor, (west, below2, ts)),
            (and_, (west, below2, west)), (or_, (hc, west, hc)),
            # bit1 in west, c3 in hs, hi = c2 | c3 in hc (count >= 4)
            (xor, (ts, hs, west)), (and_, (hs, ts, hs)), (or_, (hc, hs, hc)),
            # next = bit1 & (bit0 | self) & ~hi, written into the registers
            (or_, (east, regs, east)), (xor, (hc, p.mask, hc)),
            (and_, (west, east, west)), (and_, (west, hc, regs)),
        ]

    def load(self, world: World) -> None:
        self._planes.load(world)
        self._generation = world.generation

    def step(self) -> None:
        for op, args in self._ops:
            op(*args)
        self._generation += 1

    def world(self) -> World:
        return self._planes.world(self._generation)


class CircuitEngine:
    """Synchronous-circuit emulation: one netlist clock tick per step.

    A netlist elaborated for another size is rejected; without a fixed
    netlist one is elaborated (and reused) for the loaded world's size.
    """

    kind = "circuit"

    def __init__(self, world: World | None = None, netlist: "_circuit.Netlist | None" = None):
        self._netlist = netlist
        self._fixed = netlist is not None
        self._tick = self._read = _no_world  # until load() binds the netlist's
        self._generation = 0
        if world is not None:
            self.load(world)

    def load(self, world: World) -> None:
        n = self._netlist
        if n is None or (not self._fixed and (n.width, n.height) != (world.width, world.height)):
            n = _circuit.elaborate(world.width, world.height)
            self._netlist = n
        n.load(world)  # SizeMismatch if a fixed netlist is for another size
        self._tick, self._read = n.tick, n.to_world
        self._generation = world.generation

    def step(self) -> None:
        self._tick()
        self._generation += 1

    def world(self) -> World:
        return self._read(self._generation)


_ENGINES = {
    "reference": ReferenceEngine,
    "bitsliced": BitSlicedEngine,
    "circuit": CircuitEngine,
}


def make_engine(kind: str, world: World | None = None):
    """Engine instance by kind name ('reference', 'bitsliced', 'circuit')."""
    try:
        cls = _ENGINES[kind]
    except KeyError:
        raise ValueError(f"unknown engine kind {kind!r}, expected one of {ENGINE_KINDS}")
    return cls(world)


def run(engine, world: World, steps: int) -> World:
    """Advance `world` by `steps` with the given engine (instance or kind name).

    steps == 0 returns the input world unchanged.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps == 0:
        return world
    if isinstance(engine, str):
        engine = make_engine(engine)
    engine.load(world)
    for _ in range(steps):
        engine.step()
    return engine.world()
