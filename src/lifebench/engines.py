"""Three interchangeable Game of Life step engines.

* ReferenceEngine: scalar per-cell kernel over a halo-padded byte grid,
  the software baseline. The one-cell-wide dead halo removes all bounds
  tests from the inner loop.
* BitSlicedEngine: the whole grid lives in one arbitrary-precision integer
  and every cell is updated at once with word-wide boolean adder chains.
* CircuitEngine: drives the synchronous netlist from the circuit module,
  one clock tick per step.

All three produce bit-identical world sequences from the same start.

Engine instances are single-threaded (no concurrent step calls); distinct
instances are independent, and Worlds move freely between threads.
"""

from __future__ import annotations

import numpy as np

from . import circuit as _circuit
from .grid import World, board, cells, from_board, from_cells, full_board

ENGINE_KINDS = ("reference", "bitsliced", "circuit")


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
        return from_cells(self._interior(), self._generation)


class BitSlicedEngine:
    """All cells updated at once with boolean adder chains on one big integer.

    Layout: grid.board's, bit (x, y) at position y * (width + 1) + x. The
    extra guard column per row is always zero, so a shift by one never
    carries a row edge into its neighbor row; shifted-in bits are zero
    everywhere (the same fixed dead boundary as the halo in the reference
    engine). The stride stays width + 1, the narrowest the step allows;
    load() and world() are grid.board and grid.from_board.

    Per step: 2-bit horizontal sums (pair for the cell's own row, triple
    for the rows above and below) are combined by full adders into the
    4-bit neighbor count, and the rule is applied as a boolean expression
    over the count bits. CPython's big integers carry shifted bits across
    word boundaries exactly.
    """

    kind = "bitsliced"

    def __init__(self, world: World | None = None):
        self._board = 0
        self._width = 0
        self._height = 0
        self._stride = 0
        self._full = 0
        self._generation = 0
        if world is not None:
            self.load(world)

    def load(self, world: World) -> None:
        w, h = world.width, world.height
        if (w, h) != (self._width, self._height):
            self._width, self._height = w, h
            self._stride = w + 1
            self._full = full_board(w, h)
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


class CircuitEngine:
    """Synchronous-circuit emulation: one netlist clock tick per step.

    A netlist elaborated for another size is rejected; without a fixed
    netlist one is elaborated (and reused) for the loaded world's size.
    """

    kind = "circuit"

    def __init__(self, world: World | None = None, netlist: "_circuit.Netlist | None" = None):
        self._netlist = netlist
        self._fixed = netlist is not None
        self._generation = 0
        if world is not None:
            self.load(world)

    def load(self, world: World) -> None:
        n = self._netlist
        if n is None or (not self._fixed and (n.width, n.height) != (world.width, world.height)):
            n = _circuit.elaborate(world.width, world.height)
            self._netlist = n
        n.load(world)  # SizeMismatch if a fixed netlist is for another size
        self._generation = world.generation

    def step(self) -> None:
        self._netlist.tick()
        self._generation += 1

    def world(self) -> World:
        return self._netlist.to_world(self._generation)


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
