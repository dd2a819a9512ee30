"""Shared fixtures and independent oracles for the test suite."""

import numpy as np

from lifebench.circuit import AND, CONST0, NOT, OR, XOR, XOR3
from lifebench.grid import MASK64, Rng, World, cells

# Two phases of the beacon oscillator (period 2).
BEACON_A = (
    "......\n"
    ".OO...\n"
    ".O....\n"
    "....O.\n"
    "...OO.\n"
    "......\n"
)
BEACON_B = (
    "......\n"
    ".OO...\n"
    ".OO...\n"
    "...OO.\n"
    "...OO.\n"
    "......\n"
)

BEACON_A_CELLS = {(1, 1), (2, 1), (1, 2), (3, 4), (4, 3), (4, 4)}

# Southeast-moving glider phase: translates by (+1, +1) every 4 steps.
GLIDER = {(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)}

# Published Mac-column points (cells, us/step) and their OLS fit, computed
# independently with exact rational arithmetic (normal equations over
# Fraction) and frozen here.
MAC_POINTS = [(100, 0.10), (400, 0.33), (900, 0.70), (1600, 1.21), (2500, 1.81),
              (3600, 2.76), (4900, 3.54), (6400, 4.81), (8100, 6.50), (10000, 7.51)]
MAC_SLOPE = 0.0007645640074211503     # = 4121/5390000 us per cell
MAC_INTERCEPT = -0.01657142857142857  # = -29/1750 us
MAC_R2 = 0.9972208199507837           # = 1103871665/1106948073


class FakeClock:
    """Deterministic clock for run_bench: advances a fixed amount per reading."""

    def __init__(self, advance_ns, start_ns=0):
        self.advance_ns = advance_ns
        self.now_ns = start_ns

    def __call__(self):
        self.now_ns += self.advance_ns
        return self.now_ns


def world_from_rows(width, height, rows, generation=0):
    """World from one int per row, bit x = cell x; bits at x >= width must be 0."""
    row_words = (width + 63) >> 6
    words = [(r >> (64 * i)) & MASK64 for r in rows for i in range(row_words)]
    return World(width, height, words, generation)


def row_ints(world):
    """Each row of world.data as one int, bit x = cell x, padding bits included."""
    size = 8 * world.row_words
    return [int.from_bytes(world.data[i:i + size], "little")
            for i in range(0, len(world.data), size)]


def world_from_cells(width, height, live, generation=0):
    rows = [0] * height
    for x, y in live:
        rows[y] |= 1 << x
    return world_from_rows(width, height, rows, generation)


def cells_of(world):
    """The set of (x, y) of every live cell."""
    ys, xs = np.nonzero(cells(world))
    return set(zip(xs.tolist(), ys.tolist()))


def random_world_oracle(width, height, density, seed):
    """Scalar generator: one Rng draw per cell, row-major, alive below the
    density threshold. grid.random_world must match it word for word."""
    rng = Rng(seed)
    threshold = int(round(density * 2.0 ** 64))
    rows = []
    for _y in range(height):
        r = 0
        for x in range(width):
            if rng.next_u64() < threshold:
                r |= 1 << x
        rows.append(r)
    return world_from_rows(width, height, rows)


def next_cell_state(alive, cnt):
    """Step rule for one cell given its live-neighbor count (0..8).

    A cell is alive next step iff it has exactly 3 live neighbors, or it
    is alive now and has exactly 2.
    """
    return cnt == 3 or (bool(alive) and cnt == 2)


def neighbor_count(world, x, y):
    """Live cells among the 8 Moore neighbors; out-of-bounds reads as dead."""
    if not (0 <= x < world.width and 0 <= y < world.height):
        raise IndexError(f"({x},{y}) outside {world.width}x{world.height} world")
    cnt = 0
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            nx, ny = x + dx, y + dy
            if (dx or dy) and 0 <= nx < world.width and 0 <= ny < world.height:
                cnt += world.get(nx, ny)
    return cnt


def naive_step(world):
    """Independent single-step oracle: per-cell rule over per-cell counts."""
    rows = []
    for y in range(world.height):
        r = 0
        for x in range(world.width):
            if next_cell_state(world.get(x, y), neighbor_count(world, x, y)):
                r |= 1 << x
        rows.append(r)
    return world_from_rows(world.width, world.height, rows, world.generation + 1)


def embed(world, margin):
    """Center a world in a dead frame `margin` cells wide."""
    live = {(x + margin, y + margin) for x, y in cells_of(world)}
    return world_from_cells(world.width + 2 * margin, world.height + 2 * margin,
                            live, world.generation)


def crop(world, margin):
    """Inverse of embed: drop a frame `margin` cells wide."""
    w = world.width - 2 * margin
    h = world.height - 2 * margin
    live = set()
    for x, y in cells_of(world):
        if margin <= x < margin + w and margin <= y < margin + h:
            live.add((x - margin, y - margin))
    return world_from_cells(w, h, live, world.generation)


def tick_in_order(netlist, order):
    """One clock of the explicit graph, evaluating gates one at a time.

    `order` must be a topological permutation of the combinational node ids
    (constant included). Node values live in a per-node bool vector seeded
    from the netlist's registers; the next states are latched back through
    netlist.load. Far too slow for real stepping.
    """
    base = netlist.n_registers
    v = np.zeros(base + netlist.n_comb_nodes, dtype=bool)
    v[:base] = cells(netlist.to_world()).ravel()
    for nid in order:
        k = netlist.kinds[nid - base]
        a, b, c = netlist.inputs[nid - base]
        if k == CONST0:
            v[nid] = False
        elif k == AND:
            v[nid] = v[a] & v[b]
        elif k == OR:
            v[nid] = v[a] | v[b]
        elif k == NOT:
            v[nid] = not v[a]
        elif k == XOR:
            v[nid] = v[a] ^ v[b]
        elif k == XOR3:
            v[nid] = v[a] ^ v[b] ^ v[c]
        else:
            v[nid] = (v[a] & v[b]) | (v[a] & v[c]) | (v[b] & v[c])
    w = netlist.width
    live = np.flatnonzero(v[netlist.reg_next]).tolist()
    netlist.load(world_from_cells(w, netlist.height, {(i % w, i // w) for i in live}))
