"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
from hypothesis import strategies as st

from lifebench.circuit import _BLOCKS, AND, CONST0, MAJ3, NOT, OR, XOR, XOR3, _signal
from lifebench.grid import MASK64, Rng, World, cells, from_cells, random_world

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


def row_words(world):
    """The words that hold one row of world.data."""
    return (world.width + 63) >> 6


def get_cell(world, x, y):
    """Cell (x, y) read straight from world.data's bits, 1 = alive."""
    if not (0 <= x < world.width and 0 <= y < world.height):
        raise IndexError(f"cell ({x},{y}) outside {world.width}x{world.height} world")
    return (world.data[8 * y * row_words(world) + (x >> 3)] >> (x & 7)) & 1


def world_from_rows(width, height, rows, generation=0):
    """World from one int per row, bit x = cell x; bits at x >= width must be 0."""
    n = (width + 63) >> 6
    words = [(r >> (64 * i)) & MASK64 for r in rows for i in range(n)]
    return World(width, height, words, generation)


def bit_rows(width, min_size, max_size):
    """Hypothesis strategy: lists of row ints, bit x = cell x, drawn bit by bit.

    Drawn as st.integers(0, 2 ** width - 1), rows are mostly small, so a
    row's high columns are rarely live.
    """
    row = st.lists(st.booleans(), min_size=width, max_size=width).map(
        lambda bits: sum(bit << x for x, bit in enumerate(bits)))
    return st.lists(row, min_size=min_size, max_size=max_size)


def row_ints(world):
    """Each row of world.data as one int, bit x = cell x, padding bits included."""
    size = 8 * row_words(world)
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
                cnt += get_cell(world, nx, ny)
    return cnt


def naive_step(world):
    """Independent single-step oracle: per-cell rule over per-cell counts."""
    rows = []
    for y in range(world.height):
        r = 0
        for x in range(world.width):
            if next_cell_state(get_cell(world, x, y), neighbor_count(world, x, y)):
                r |= 1 << x
        rows.append(r)
    return world_from_rows(world.width, world.height, rows, world.generation + 1)


_STEPPED = {}  # (width, height, data) -> naive_step's data


def naive_steps(world, n):
    """naive_step applied n times, each step of a given size and cells computed once."""
    for _ in range(n):
        key = world.width, world.height, world.data
        if key not in _STEPPED:
            _STEPPED[key] = naive_step(world).data
        world = World.from_bytes(world.width, world.height, _STEPPED[key], world.generation + 1)
    return world


def tall(width):
    """The height of the shortest board of this width that circuit.evaluator()
    ticks on planes, for either table: the first at which height * (width +
    1) bits are more than 2**15 plus 16 per plane word. None below 16
    columns, where a row holds at most 16 bits a word and every height
    ticks on an int."""
    over = width + 1 - 16 * ((width + 64) >> 6)  # the bits a row holds past 16 a word
    return (1 << 15) // over + 1 if over > 0 else None


# An int and a plane board of both bit-parallel engines: 64x993 is
# tall(64). world() records the World it returns, a load() of it before any
# tick is skipped and any other load() clears the record, so each
# readback-record case must step like naive_step.
RECORD_SIZES = ((20, 15), (64, 993))
RECORD_IDS = ("int", "planes")


def record_worlds(width, height):
    """A start world at generation 0 and a foreign one at generation 1."""
    foreign = random_world(width, height, 0.5, 62)
    return random_world(width, height, 0.5, 61), World.from_bytes(width, height, foreign.data, 1)


def assert_stepped(out, start, steps):
    expect = naive_steps(start, steps)
    assert out == expect and out.generation == expect.generation


def neighbourhood_world():
    """One world holding all 512 3x3 neighbourhoods, each ringed by dead cells.

    Pattern p sets cell (dx, dy) of its tile when bit 3 * dy + dx of p is
    set, so bit 4 is the centre. Tile p's top left is at (2 + 4 * (p % 32),
    1 + 4 * (p // 32)) in a 130x65 world: the tiles of column 15 straddle
    the 64-bit word boundary, and a row spans three words. Returns the world
    and the centre (x, y) of each pattern.
    """
    rows = [0] * 65
    centres = []
    for p in range(512):
        x0, y0 = 2 + 4 * (p % 32), 1 + 4 * (p // 32)
        for dy in range(3):
            rows[y0 + dy] |= (p >> 3 * dy & 7) << x0
        centres.append((x0 + 1, y0 + 1))
    return world_from_rows(130, 65, rows), centres


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


_DX = {"w": -1, "self": 0, "e": 1}  # the register column each of these reads


def table_step(table, world):
    """One tick of a circuit.Schedule cell table, block by block over bool arrays.

    Independent of the compiler: each block is evaluated as written on the
    (height, width) cells, an input read at (dx, dy) taking the value at
    (x + dx, y + dy) and 0 outside the grid, NOT the complement on the cells.
    The last block is the next state.
    """
    alive = cells(world).astype(bool)
    h, w = alive.shape
    values = {"self": np.pad(alive, 1)}
    ops = {AND: lambda a, b: a & b, OR: lambda a, b: a | b, XOR: lambda a, b: a ^ b,
           NOT: lambda a: ~a, XOR3: lambda a, b, c: a ^ b ^ c,
           MAJ3: lambda a, b, c: (a & b) | (a & c) | (b & c)}
    for name, kind, sources in table:
        args = []
        for src, dy in map(_signal, sources):
            dx = _DX.get(src, 0)
            base = values["self" if src in _DX else src]
            args.append(base[1 + dy:1 + dy + h, 1 + dx:1 + dx + w])
        values[name] = np.pad(ops[kind](*args), 1)
    return from_cells(values[table[-1][0]][1:-1, 1:-1], world.generation + 1)


def node_graph(netlist):
    """The netlist's explicit register + gate graph, (kinds, inputs, reg_next).

    Node ids: 0..R-1 are the cell state registers (row-major), id R is the
    shared constant-0 node, and ids R+1.. are gates in topological order,
    one contiguous block of R nodes per signal of the cell table: block i
    is ids R + 1 + i*R + cell. kinds is int8 (C,), per gate node (constant
    included); inputs is int32 (C, 3), node ids, -1 = unused, with the
    constant wired to every neighbor input outside the grid; reg_next is
    intp (R,), each register's D input.
    """
    width, height, n = netlist.width, netlist.height, netlist.n_registers
    const = n
    index = {name: i for i, (name, _, _) in enumerate(_BLOCKS)}
    cell = np.arange(n, dtype=np.int32).reshape(height, width)
    kinds = np.empty(netlist.n_comb_nodes, dtype=np.int8)
    inputs = np.empty((netlist.n_comb_nodes, 3), dtype=np.int32)
    kinds[0] = CONST0
    inputs[0] = -1
    for i, (_, kind, sources) in enumerate(_BLOCKS):
        lo = 1 + i * n
        kinds[lo:lo + n] = kind
        block = inputs[lo:lo + n].reshape(height, width, 3)
        block[:, :, len(sources):] = -1
        for col, (src, dy) in enumerate(map(_signal, sources)):
            out = block[:, :, col]
            dx = _DX.get(src, 0)
            base = 0 if src in _DX else const + 1 + index[src] * n
            out.fill(const)
            ys = slice(max(0, -dy), height - max(0, dy))
            xs = slice(max(0, -dx), width - max(0, dx))
            np.add(cell[ys, xs], base + dy * width + dx, out=out[ys, xs])
    nxt = const + 1 + (len(_BLOCKS) - 1) * n
    return kinds, inputs, np.arange(nxt, nxt + n, dtype=np.intp)


def tick_in_order(netlist, order):
    """One clock of node_graph(netlist), evaluating gates one at a time.

    `order` must be a topological permutation of the combinational node ids
    (constant included). Node values live in a per-node bool vector seeded
    from the netlist's registers; the next states are latched back through
    netlist.load. Far too slow for real stepping.
    """
    kinds, inputs, reg_next = node_graph(netlist)
    base = netlist.n_registers
    v = np.zeros(base + netlist.n_comb_nodes, dtype=bool)
    v[:base] = cells(netlist.world()).ravel()
    for nid in order:
        k = kinds[nid - base]
        a, b, c = inputs[nid - base]
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
    live = np.flatnonzero(v[reg_next]).tolist()
    netlist.load(world_from_cells(w, netlist.height, {(i % w, i // w) for i in live}))
