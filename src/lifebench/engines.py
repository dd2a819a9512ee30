"""Three interchangeable Game of Life step engines.

* ReferenceEngine: scalar per-cell kernel over a halo-padded byte grid,
  the software baseline. The one-cell-wide dead halo removes all bounds
  tests from the inner loop.
* BitSlicedEngine: every cell is updated at once with word-wide boolean
  adder chains, written as a cell table that the circuit module compiles
  and binds to the world's size like the netlist's: on one
  arbitrary-precision integer for a small world and on bit-packed uint64
  planes for a larger one.
* CircuitEngine: drives the synchronous netlist from the circuit module,
  one clock tick per step.

All three produce bit-identical world sequences from the same start.
They share one load/step/world shell, _Engine, and differ only in the
per-size state it loads and steps: a halo grid, or a circuit.Netlist of
the bit-sliced table or of the cell table, which checks the size, reads
back and reports its structure (describe()) for both. step() and world()
raise NoWorld until the first load().

Engine instances are single-threaded (no concurrent step calls); distinct
instances are independent, and Worlds move freely between threads.
"""

from __future__ import annotations

import numpy as np

from . import circuit as _circuit
from .circuit import AND, MAJ3, NOT, OR, XOR, XOR3
from .grid import World, cells, from_cells

# The bit-sliced step as a cell table in the input language of
# circuit.Schedule: 2-bit horizontal sums (a pair for the cell's own row, a
# triple for the rows above and below) are combined by two full adders and
# a half adder into the count's ones and twos bits. Given bit1 = f ^ c1, the
# twos column adds to 1 + 2 * c2, so c2 is count >= 4. The table is compiled
# once per process, at import, like the circuit's cell table.
_TABLE = (
    ("hs", XOR, ("w", "e")),                        # (hs, hc) = w + e
    ("hc", AND, ("w", "e")),
    ("ts", XOR, ("hs", "self")),                    # (ts, tc) = w + self + e
    ("hs_self", AND, ("hs", "self")),
    ("tc", OR, ("hc", "hs_self")),
    ("bit0", XOR3, (("ts", -1), "hs", ("ts", 1))),  # ones column, its carry c1
    ("c1", MAJ3, (("ts", -1), "hs", ("ts", 1))),
    ("f", XOR3, (("tc", -1), "hc", ("tc", 1))),     # twos column before c1, carry c2
    ("c2", MAJ3, (("tc", -1), "hc", ("tc", 1))),
    ("bit1", XOR, ("f", "c1")),
    ("lt4", NOT, ("c2",)),                          # given bit1, count < 4
    ("is23", AND, ("lt4", "bit1")),                 # count is 2 or 3
    ("b0_or_self", OR, ("bit0", "self")),
    ("next", AND, ("is23", "b0_or_self")),          # next cell state
)

_SCHEDULE = _circuit.Schedule(_TABLE)


class NoWorld(ValueError):
    """step() or world() on an engine that no world has been loaded into."""


def _no_world(*_):
    raise NoWorld("no world loaded: call load(world) first")


class _Halo:
    """The reference's state: a halo-padded byte grid and its scalar kernel.

    Two buffers are allocated once per size and swapped after every tick,
    so the steady-state tick cost contains no allocation.
    """

    def __init__(self, width: int, height: int):
        self._width, self._height = width, height
        self._cur = bytearray((height + 2) * (width + 2))
        self._next = bytearray((height + 2) * (width + 2))

    def load(self, world: World) -> None:
        self._interior()[...] = cells(world)  # the halo is never written
        self.generation = world.generation

    def _interior(self) -> np.ndarray:
        """Writable (height, width) view of the current grid inside its halo."""
        grid = np.frombuffer(self._cur, dtype=np.uint8).reshape(self._height + 2, -1)
        return grid[1:-1, 1:-1]

    def tick(self) -> None:
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
        self.generation += 1

    def world(self) -> World:
        return from_cells(self._interior(), self.generation)


class _Engine:
    """The load/step/world protocol, over the per-size state _new() builds.

    A state has load(world), tick() and world(). load() builds a new one
    only when the world's size changes, loads the world into it and only
    then binds step() straight to its tick, so a refused load binds nothing
    and the step path carries no check and no forwarding frame. step() is
    bound again only when the state changes, so a step set in its place
    since survives a load of the same size. world() stays a method of the
    class, so that patching the class reaches every instance.
    """

    step = _no_world
    _state = _size = None

    def __init__(self, world: World | None = None):
        if world is not None:
            self.load(world)

    def load(self, world: World) -> None:
        size = world.width, world.height
        state = self._state if size == self._size else self._new(*size)
        state.load(world)
        if state is not self._state:
            self._state, self._size = state, size
            self.step = state.tick

    def world(self) -> World:
        if self._state is None:
            _no_world()
        return self._state.world()


class ReferenceEngine(_Engine):
    """Scalar baseline: per-cell neighbor sum over a halo-padded byte grid."""

    kind = "reference"

    def _new(self, width: int, height: int) -> _Halo:
        return _Halo(width, height)


class BitSlicedEngine(_Engine):
    """All cells updated at once with boolean adder chains over bit-packed cells.

    Per step: 2-bit horizontal sums (pair for the cell's own row, triple
    for the rows above and below) are combined by full adders into the
    neighbor count's low bits, and the rule is applied as a boolean
    expression over them. Bits shifted in from outside the grid are 0, the
    same fixed dead boundary as the halo in the reference engine.

    The step is _TABLE, compiled by the circuit module like the netlist's
    cell table and bound to the world's size by circuit.evaluator(): one
    int for a small board, uint64 planes for a larger one.
    """

    kind = "bitsliced"

    def _new(self, width: int, height: int) -> _circuit.Netlist:
        return _circuit.evaluator(_SCHEDULE, width, height)


class CircuitEngine(_Engine):
    """Synchronous-circuit emulation: one netlist clock tick per step.

    A world of another size than a fixed netlist's raises SizeMismatch;
    without one a netlist is elaborated (and reused) for the world's size.
    """

    kind = "circuit"

    def __init__(self, world: World | None = None, netlist: _circuit.Netlist | None = None):
        self._fixed = netlist  # the one netlist this engine steps, if given
        super().__init__(world)

    def _new(self, width: int, height: int) -> _circuit.Netlist:
        return self._fixed or _circuit.elaborate(width, height)


_ENGINES = {cls.kind: cls for cls in (ReferenceEngine, BitSlicedEngine, CircuitEngine)}
ENGINE_KINDS = tuple(_ENGINES)


def make_engine(kind: str, world: World | None = None):
    """Engine instance by kind name, one of ENGINE_KINDS."""
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
