"""Shared fixtures and independent oracles for the test suite."""

import numpy as np

from lifebench.circuit import AND, CONST0, NOT, OR, XOR, XOR3
from lifebench.engines import neighbor_count, next_cell_state
from lifebench.grid import Rng, World

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


def world_from_cells(width, height, cells, generation=0):
    rows = [0] * height
    for x, y in cells:
        rows[y] |= 1 << x
    return World.from_row_ints(width, height, rows, generation)


def cells_of(world):
    return set(world.live_cells())


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
    return World.from_row_ints(width, height, rows)


def naive_step(world):
    """Independent single-step oracle: per-cell rule over per-cell counts."""
    rows = []
    for y in range(world.height):
        r = 0
        for x in range(world.width):
            if next_cell_state(world.get(x, y), neighbor_count(world, x, y)):
                r |= 1 << x
        rows.append(r)
    return World.from_row_ints(world.width, world.height, rows, world.generation + 1)


def embed(world, margin):
    """Center a world in a dead frame `margin` cells wide."""
    cells = {(x + margin, y + margin) for x, y in world.live_cells()}
    return world_from_cells(world.width + 2 * margin, world.height + 2 * margin,
                            cells, world.generation)


def crop(world, margin):
    """Inverse of embed: drop a frame `margin` cells wide."""
    w = world.width - 2 * margin
    h = world.height - 2 * margin
    cells = set()
    for x, y in world.live_cells():
        if margin <= x < margin + w and margin <= y < margin + h:
            cells.add((x - margin, y - margin))
    return world_from_cells(w, h, cells, world.generation)


def tick_in_order(netlist, order):
    """One clock of the explicit graph, evaluating gates one at a time.

    `order` must be a topological permutation of the combinational node ids
    (constant included). Node values live in a per-node bool vector seeded
    from the netlist's registers; the next states are latched back through
    netlist.load. Far too slow for real stepping.
    """
    base = netlist.n_registers
    v = np.zeros(base + netlist.n_comb_nodes, dtype=bool)
    v[:base] = netlist.registers()
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
