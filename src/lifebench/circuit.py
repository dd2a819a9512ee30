"""Synchronous-circuit emulation of the Game of Life, and the gate-table
compiler that steps both bit-parallel engines.

Each cell is one D flip-flop, a popcount adder tree over its eight neighbor
registers, and rule logic on the 4-bit sum, written once as a table of gate
blocks. A Schedule compiles such a table the way synthesis would; the
bit-sliced engine's adder chain is a second table, compiled the same way.
evaluator() binds a schedule to one world size, a Netlist: the table
replicated over the grid, with a constant 0 for every neighbor input that
would fall outside it, updating the whole world on every clock tick. The
world's shape picks how it runs: a small world is one Python int, a
board (_IntTick), ticked by one straight-line function generated from the
schedule, with no dispatch per op; a larger one is bit-packed uint64
planes (_PlaneTick), 64 cells per ufunc call with no allocation. Each
holds its register layout and its World codec, so this module decides
both layouts, beside the Schedule that numbers the planes. The Netlist
base checks a loaded World's size, reports the structure (describe()) and
records the World it last read out, so that loading it straight back, as
one-generation World-in/World-out calls do, costs nothing. elaborate()
is the cell table's netlist, powered up all dead.
"""

from __future__ import annotations

import collections
import itertools
from functools import cache, cached_property
from types import MethodType

import numpy as np

from .grid import MASK64, World, from_cells

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
    """World dimensions do not match the netlist's."""


# The per-cell circuit, one block per logical signal in dependency order:
# (name, kind, inputs), in the input language of Schedule. The eight
# neighbor registers are w, self and e of the rows above and below, and w
# and e of the cell's own row. Three neighbors feed each of two full
# adders and the last two a half adder; the last block is the register's
# D input. _CELL compiles this table into the tick and describe() counts
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


def _pair_key(a, b):
    """Inputs a and b as an unordered pair, up to a row offset that both read."""
    if a[1] == b[1]:
        a, b = a[0], b[0]
    return (a, b) if a < b else (b, a)


_HALF_ADDER = {XOR: AND, AND: XOR}  # a half adder's sum gate <-> its carry gate


def _lower(table):
    """The table as 2-input gates and NOTs, by the passes of Schedule.

    A gate is (kind, inputs): kind AND, OR, XOR or NOT, and each input
    (signal, row offset), the signal "self", "w", "e" or an earlier gate's
    index. Returns the gates, dead ones among them, the index of the last
    block's gate and the indexes of the MAJ3 carries.
    """
    table = [(name, kind, tuple(map(_signal, sources))) for name, kind, sources in table]
    shifted = {s for _, _, sources in table for s, dy in sources if dy}
    adders = {}  # a full adder's sum and carry are lowered one after the other
    for block in table:
        key = frozenset(block[2]) if block[1] in (XOR3, MAJ3) else block[0]
        adders.setdefault(key, []).append(block)
    pairs = collections.Counter(  # full adders per pair of inputs
        _pair_key(a, b) for group in adders.values() if group[0][1] in (XOR3, MAJ3)
        for a, b in itertools.combinations(group[0][2], 2))
    # index: gates by (kind, *inputs) in both orders; half: a half adder's
    # sum <-> its carry; ors, nots: the inputs of each OR and NOT
    gates, index, half, ors, nots, carries = [], {}, {}, {}, {}, set()

    def gate(kind, a, b=None, hoist=True, share=True, carry=False):
        if hoist and a[1] and kind != NOT and b[1] == a[1]:
            return gate(kind, (a[0], 0), (b[0], 0), carry=carry)[0], a[1]
        if kind == OR and half.get(a) == b:  # (p ^ q) | (p & q) = p | q
            return gate(OR, *gates[a[0]][1], hoist, share)
        if kind == AND and (a in nots or b in nots):  # NOT(x | c) & s = NOT(x) & s
            for n, s in ((a, b), (b, a)):
                x, c = ors.get(nots.get(n), (None, None))
                if x and half.get(s) in (x, c):
                    return gate(AND, gate(NOT, c if half[s] == x else x), s, hoist, share)
        g = index.get((kind, a, b)) if share else None
        if g is None:
            g = len(gates)
            gates.append((kind, (a, b) if b else (a,)))
            if share:
                index[kind, a, b] = index[kind, b, a] = g
            if carry:
                carries.add(g)
            if kind == OR:
                ors[g, 0] = a, b
            elif kind == NOT:
                nots[g, 0] = a
            elif (_HALF_ADDER[kind], a, b) in index:
                h = index[_HALF_ADDER[kind], a, b]
                half[g, 0], half[h, 0] = (h, 0), (g, 0)
        return g, 0

    value = {s: (s, 0) for s in ("self", "w", "e")}
    for name, kind, sources in itertools.chain(*adders.values()):
        args = [(value[s][0], value[s][1] + dy) for s, dy in sources]
        last = name == table[-1][0]
        hoist, share = not (last or name in shifted), not last
        if kind in (XOR3, MAJ3):  # the pair that the most full adders read first
            i, j, k = max(((0, 1, 2), (0, 2, 1), (1, 2, 0)),
                          key=lambda ijk: pairs[_pair_key(sources[ijk[0]], sources[ijk[1]])])
            a, b, c = args[i], args[j], args[k]
            t = gate(XOR, a, b)
            if kind == XOR3:
                value[name] = gate(XOR, t, c, hoist, share)
            else:
                tc = gate(AND, t, c)
                value[name] = gate(OR, gate(AND, a, b), tc, hoist, share, carry=True)
        else:
            value[name] = gate(kind, *args, hoist=hoist, share=share)
    return gates, value[table[-1][0]][0], carries


class Schedule:
    """A cell table compiled into the gate steps of one tick, for any size.

    A table is (name, kind, inputs) blocks in dependency order; the last
    block is the register's D input. An input is "self" (the cell's
    register), "w" or "e" (the register of the cell to the west or east)
    or an earlier block, or one of these read one row up or down,
    (signal, -1) or (signal, 1). Outside the grid an input reads 0.
    table is the table compiled, which describe() counts.

    The table is first synthesized into 2-input gates and NOTs (_lower),
    a full adder's sum and carry one after the other. An XOR3/MAJ3 over
    a, b and c is t = a ^ b, sum t ^ c and carry (a & b) | (t & c), a and
    b the pair of its inputs that the most full adders of the table read
    (a pair read at one row offset counts as that pair at row 0, and the
    first pair wins a tie). Each pass is a bitwise identity, so every bit
    that the tick computes is one that the table defines:

    * Row hoisting. An AND, OR or XOR whose inputs all read one row
      offset dy is computed at row 0 and read at dy: a row shifted in
      reads 0, and so does the gate over 0s. The masked NOT (below) is
      never hoisted, nor is the last block or a block read at an offset.
    * Hashing. A gate of the kind and inputs of an earlier one is that
      gate. So the cell table's full adder over NW, N and NE, hoisted to
      the adder over w, self and e one row up, shares w ^ e and w & e
      with the adder over w, e and SW.
    * Half-adder identities. For a half adder's sum s = a ^ b and carry
      c = a & b, s | c = a | b, and NOT(x | c) & s = NOT(x) & s since
      c & s = 0, with the masked NOT too, on the cells and off them.
      Gates that the last block no longer reads are dropped.

    A signal read at a row offset lives in row plane (k, 0) and is read
    one row up or down as (k, dy); row plane 0 is the registers. Any other
    signal lives in flat plane k or in a dead signal's plane. A step is
    (ufunc, (a, b, out)) over these planes and "mask"; n_rows and n_flat
    count the planes, and each evaluator lays them out. w and e, the
    registers shifted by the evaluator before the steps, are signals too;
    carry is a flat plane free while those shifts run.

    * Plane liveness. Each gate's output plane is taken from a free list,
      a row plane for a signal read at an offset, and goes back to it
      after the gate's last reader. A step reads its inputs before it
      writes its output, so the output may reuse the plane of an input
      that dies there, unless it reads that input at a row offset; a MAJ3
      carry is accumulated in the plane of a & b.
    * Masked NOT. NOT is x ^ mask, with mask 1 on the cells alone. Both
      tables end in is23 & (bit0 | self), is23 = lt4 & bit1, which their
      schedules compute as NOT(g) & bit1 with g the twos column's carry:
      the bit-sliced table's c2, and the circuit's twos_c, to which the
      identities reduce its lt4 = NOT(bit3 | bit2). Given bit1, g is
      count >= 4, and the last block goes straight into the registers.
      Off the cells, where the registers and mask are 0, it is g & bit1 &
      bit0: a count of at least 7. No bit there sees more than six cells
      (a guard bit, of an int or of a plane, at most the last column of
      rows y - 1 to y + 1 and the first column of rows y to y + 2), so
      the registers stay 0 off the cells.
    """

    def __init__(self, table):
        self.table = table
        gates, final, carries = _lower(table)
        live, read, rows, shifted = [], {"self", final}, set(), set()
        for g in range(final, -1, -1):  # the live gates and their dying inputs, last first
            if g in read:
                dying = []
                for s, dy in gates[g][1]:
                    if s not in read:
                        read.add(s)
                        dying.append(s)
                    if dy:
                        rows.add(s)
                        shifted.add((s, dy))
                # a carry frees a & b last, so that it takes a & b's plane
                live.append((g, dying[::-1] if g in carries else dying))
        row_planes, fresh, free = itertools.count(1), itertools.count(), []

        def take(signal=None):
            if signal not in rows:
                return free.pop() if free else next(fresh)
            dead_rows = [p for p in free if isinstance(p, tuple)]
            if dead_rows:
                free.remove(dead_rows[-1])
                return dead_rows[-1]
            return next(row_planes), 0

        value = {"self": (0, 0), "w": take("w"), "e": take("e")}
        self.west, self.east, self.carry = value["w"], value["e"], take()
        free.append(self.carry)
        steps = []
        for g, dying in reversed(live):
            kind, args = gates[g]
            planes = [(value[s][0], dy) if dy else value[s] for s, dy in args]
            offset = [s for s, dy in args if dy]  # out on these, numpy would copy
            free += [value.pop(s) for s in dying if s not in offset]
            out = (0, 0) if g == final else take(g)
            free += [value.pop(s) for s in dying if s in offset]
            if kind == NOT:
                steps.append((np.bitwise_xor, (*planes, "mask", out)))
            else:
                steps.append((_BINARY_UFUNCS[kind], (*planes, out)))
            value[g] = out
        self.steps = steps
        self.n_rows, self.n_flat = next(row_planes), next(fresh)
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
        first read since rk was last written. Bits shifted in are 0, the
        dead boundary. Unlike a plane, an int has bits past its last row: a
        read one row up moves the last row there, so a value made from one
        is masked to the board before it is read one row down.
        """
        def local(arg):
            if isinstance(arg, int):
                return f"p{arg}"
            return arg if arg == "mask" else f"r{arg[0]}" + ("", "_s", "_n")[arg[1]]

        lines = ["def tick(ev):", "r0, stride, mask = ev._r, ev._stride, ev._mask",
                 f"{local(self.west)} = r0 << 1", f"{local(self.east)} = r0 >> 1"]
        made, past = set(), set()  # past: the locals that may hold bits past the last row
        for ufunc, args in self.steps:
            for arg in args:
                if isinstance(arg, tuple) and arg[1] and arg not in made:
                    made.add(arg)
                    k = f"r{arg[0]}"
                    if arg[1] < 0:
                        lines.append(f"{k}_n = {k} << stride")
                    else:
                        lines.append(f"{k}_s = {f'({k} & board)' if k in past else k} >> stride")
            a, b, out = map(local, args)
            lines.append(f"{out} = {a} {_SYMBOLS[ufunc]} {b}")
            if isinstance(args[2], tuple):  # a row plane written anew is shifted anew
                made -= {(args[2][0], -1), (args[2][0], 1)}
            if a.endswith("_n") or b.endswith("_n") or {a, b} & past:
                past.add(out)
            else:
                past.discard(out)
        if any("board" in line for line in lines):
            lines.insert(2, "board = (1 << ev.height * stride) - 1")
        scope = {}
        source = "\n    ".join([*lines, "ev._r = r0", "ev.generation += 1\n"])
        exec(compile(source, "<int tick>", "exec"), scope)
        return scope["tick"]


_CELL = Schedule(_BLOCKS)


def evaluator(schedule: Schedule, width: int, height: int) -> Netlist:
    """The schedule bound to a width x height world, on ints or on planes.

    A board ticks as one Python int (_IntTick) while its height * (width
    + 1) bits are at most 2**15 plus 16 per word of one uint64 plane,
    height * ((width + 64) >> 6); a larger one ticks on planes (_PlaneTick).
    Either reports its name, ops_per_tick and plane_bytes.
    """
    # An int op pays per bit of the board and a ufunc call per word of a
    # plane, alike for either table, so the shape decides: a board narrower
    # than 16 columns, at most 16 bits a word, is an int at any height, and
    # squares switch at 215x215. BENCH_int_limit.json times both evaluators
    # in paired rounds at 66 shapes for each table, squares from 200x200 to
    # 247x247 and widths 2 to 1000 at 25k to 200k bits: the int tick is up
    # to x13 faster (2x66666), the planes up to x2.4 (63x3125), and this
    # rule picks the faster one, or one within x1.09 of it, at every point.
    words = height * ((width + 64) >> 6)
    small = height * (width + 1) <= (1 << 15) + 16 * words
    return (_IntTick if small else _PlaneTick)(schedule, width, height)


class Netlist:
    """A schedule bound to one world size: its table's registers and gates,
    replicated over the grid. evaluator() builds one, an _IntTick or a
    _PlaneTick, which adds tick() and its layout's codec, _load() and
    _world(), under load() and world() here.

    load() overwrites the registers with a world of this size; world()
    returns them as a World whose generation is the loaded one's plus the
    ticks since. Each block reads only registers and earlier blocks, and
    the registers are overwritten by the last step alone, so no register
    update is visible before the simultaneous latch. Do not tick an
    instance from two threads at once; distinct netlists are independent.

    world() records the bytes object it returns and the generation. load()
    returns at once when the world's data is that object, its generation
    the recorded one and the recorded one still the netlist's: bytes are
    immutable, so the same object holds the same cells, and a tick always
    advances the generation, so nothing has ticked since the readback. Any
    other load() checks the size, clears the record and overwrites the
    registers. The record lives here, with the registers, as two engines
    may share one netlist and its load() may be called directly.
    """

    _readback = _readback_generation = None

    def __init__(self, schedule: Schedule, width: int, height: int):
        self.width, self.height, self._table = width, height, schedule.table
        self.n_registers = width * height
        self.n_comb_nodes = 1 + len(self._table) * self.n_registers  # the gates and one constant 0

    def load(self, world: World) -> None:
        if (world.data is self._readback
                and world.generation == self._readback_generation == self.generation):
            return
        if (world.width, world.height) != (self.width, self.height):
            raise SizeMismatch(
                f"netlist is {self.width}x{self.height}, world is {world.width}x{world.height}")
        self._readback = None
        self._load(world)
        self.generation = world.generation

    def world(self) -> World:
        world = self._world()
        self._readback, self._readback_generation = world.data, world.generation
        return world

    def describe(self) -> dict:
        """The netlist's structure, from its table and the compiled tick.

        nodes: node count per kind of the table replicated over the grid,
        with one shared constant 0 (REG for the registers); depth: logic
        depth in gate levels from the registers to their D inputs;
        evaluator: "int" or "planes"; ops_per_tick: the operator or ufunc
        calls per clock; plane_bytes: bytes of the flat planes the tick
        evaluates into, the NOT mask included (not the row planes), 0 on
        an int.
        """
        nodes = {"REG": self.n_registers, **dict.fromkeys(KIND_NAMES, 0), "CONST0": 1}
        level = dict.fromkeys(("w", "self", "e"), 0)
        for name, kind, sources in self._table:
            nodes[KIND_NAMES[kind]] += self.n_registers
            level[name] = 1 + max(level[_signal(src)[0]] for src in sources)
        return {"nodes": nodes, "depth": max(level.values()), "evaluator": self.name,
                "ops_per_tick": self.ops_per_tick, "plane_bytes": self.plane_bytes}


class _IntTick(Netlist):
    """The registers as one int, a board, and Schedule.int_tick over it.

    A board holds cell (x, y) at bit y * (width + 1) + x. The guard bit x =
    width of each row is 0, so a shift by one never carries a cell into
    the next row; load() takes the guard bits from the World's zero padding
    bits. The mask is the all-cells board, 0 on the guard bits and past the
    last row. A tick is one call, with no dispatch per gate step, but
    CPython still allocates an int per op. The codec unpacks the World's
    rows into width + 1 bits and packs them back: world() builds its World
    with from_cells, and load() of the last readback is skipped (Netlist).
    """

    name = "int"
    plane_bytes = 0

    def __init__(self, schedule: Schedule, width: int, height: int):
        super().__init__(schedule, width, height)
        self._stride = width + 1
        mask, rows = (1 << width) - 1, 1
        while rows < height:  # double the rows that are set
            mask |= mask << (rows * self._stride)
            rows *= 2
        self._mask = mask & ((1 << (height * self._stride)) - 1)
        self.tick = MethodType(schedule.int_tick, self)
        self.ops_per_tick = schedule.int_ops

    def _load(self, world: World) -> None:
        rows = np.frombuffer(world.data, dtype=np.uint8).reshape(world.height, -1)
        plane = np.unpackbits(rows, axis=1, count=world.width + 1, bitorder="little")
        self._r = int.from_bytes(np.packbits(plane, bitorder="little").tobytes(), "little")

    def _world(self) -> World:
        n = self.height * self._stride
        octets = np.frombuffer(self._r.to_bytes((n + 7) >> 3, "little"), dtype=np.uint8)
        plane = np.unpackbits(octets, count=n, bitorder="little").reshape(self.height, -1)
        return from_cells(plane[:, :self.width], self.generation)


# Bytes per page: the unit every plane of a _PlaneTick is aligned and spaced to.
_PAGE = 4096


class _PlaneTick(Netlist):
    """The registers as bit-packed uint64 planes, and the gate steps over them.

    A plane is one flat array of height * stride words, stride the words
    that hold width + 1 bits: a row's cells, then zero guard bits, as on a
    board. Unless width % 64 == 0 they are the row's padding bits, so the
    registers are World.data word for word, and load() and world() are one
    copy each. Their padding bits stay 0 (Schedule), so world() builds its
    World with the unchecked World._packed, and load() of the last readback
    is skipped (Netlist). A row plane adds an all-zero row above and
    below, so the rows above and below any row are flat offset views of
    it. The registers are row plane 0's interior; the mask is 1 on the
    cells.

    All planes are carved from one buffer, allocated here, once: the
    schedule's n_rows row planes, its n_flat flat planes, then the mask.
    Row 0 of each starts on a page boundary, with a border row just before
    it, and each is a whole number of pages from the next, so a step's
    speed does not depend on where the heap puts the buffer.

    The tick is a list of ufunc calls, 64 cells per op and with no
    allocation: the west and east shifts, then the schedule's steps bound
    to this size's planes. Bit x of a row of west holds cell x - 1 and of
    east cell x + 1, with 0 shifted in; the shifts are 1-D ops that move a
    cell past its row's end only onto a guard bit, and rows of more than
    one word carry the bit that crosses each word boundary through the
    carry plane.
    """

    name = "planes"

    def __init__(self, schedule: Schedule, width: int, height: int):
        super().__init__(schedule, width, height)
        n_rows = schedule.n_rows
        rw = (width + 63) >> 6
        stride = (width + 64) >> 6
        size = height * stride
        page = _PAGE // 8  # words
        lead = -(-stride // page) * page  # the pages before row 0
        span = -(-(lead + size + stride) // page) * page
        n = n_rows + schedule.n_flat + 1
        # np.full writes every page now, so the first tick does not pay
        # the page faults; the border rows and guard bits must be 0.
        buf = np.full(n * span + page, 0, dtype=np.uint64)
        start = -buf.ctypes.data % _PAGE // 8
        planes = buf[start:start + n * span].reshape(n, span)
        planes = planes[:, lead - stride:lead + size + stride]
        flat = planes[n_rows:-1, stride:-stride]
        mask = planes[-1, stride:-stride].reshape(height, stride)
        mask[:, :rw] = MASK64
        mask[:, rw - 1] = (1 << (width - 64 * (rw - 1))) - 1
        mask = mask.reshape(-1)
        self._regs = planes[0, stride:-stride].reshape(height, stride)[:, :rw]

        @cache  # one view per plane: numpy steps in place faster on the input object itself
        def plane(arg):
            if isinstance(arg, int):
                return flat[arg]
            if arg == "mask":
                return mask
            k, dy = arg  # row y of the view reads row y + dy of row plane k
            return planes[k, (1 + dy) * stride:(1 + dy) * stride + size]

        regs, west, east = plane((0, 0)), plane(schedule.west), plane(schedule.east)
        # 0-d arrays: numpy converts a scalar shift count on every call
        one, top = np.array(1, dtype=np.uint64), np.array(63, dtype=np.uint64)
        ops = [(np.left_shift, (regs, one, west)),
               (np.right_shift, (regs, one, east))]
        if width > 64:  # carry the bit that crosses each word boundary
            carry = plane(schedule.carry)[:-1]
            ops += [(np.right_shift, (regs[:-1], top, carry)),
                    (np.bitwise_or, (west[1:], carry, west[1:])),
                    (np.left_shift, (regs[1:], top, carry)),
                    (np.bitwise_or, (east[:-1], carry, east[:-1]))]
        self._ops = ops + [(ufunc, tuple(map(plane, args))) for ufunc, args in schedule.steps]
        self.ops_per_tick = len(self._ops)
        self.plane_bytes = mask.nbytes + flat.nbytes

    def _load(self, world: World) -> None:
        self._regs[...] = np.frombuffer(world.data, dtype="<u8").reshape(self._regs.shape)

    def _world(self) -> World:
        data = self._regs.astype("<u8", copy=False).tobytes()  # off the cells the registers are 0
        return World._packed(self.width, self.height, data, self.generation)

    def tick(self) -> None:
        for op, args in self._ops:
            op(*args)
        self.generation += 1


def elaborate(width: int, height: int) -> Netlist:
    """Replicate the per-cell circuit over a width x height grid, all cells dead.

    Every cell gets a register, a full-adder popcount tree over its eight
    neighbor registers (constant-0 stands in for missing neighbors), and
    the rule logic comparing the 4-bit sum against 2 and 3.
    """
    if width < 1 or height < 1:
        raise ValueError(f"netlist dimensions must be >= 1, got {width}x{height}")
    netlist = evaluator(_CELL, width, height)
    netlist.load(World.empty(width, height))
    return netlist


def count_resources(netlist: Netlist) -> tuple[int, int]:
    """(state registers, combinational node count) of an elaborated netlist.

    The node count is our netlist metric; it is not a vendor LE count.
    """
    return netlist.n_registers, netlist.n_comb_nodes
