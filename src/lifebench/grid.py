"""World representation, deterministic random worlds, and plaintext pattern I/O.

A world is a fixed-size 2D grid of live/dead cells with a permanently dead
boundary: every cell outside [0, width) x [0, height) reads as dead.
Coordinates are (x right, y down) with the origin at the top left, matching
the text order of the plaintext pattern format ('.' dead, 'O' alive).

A World's cells are one immutable bytes object, World.data. cells() and
from_cells() are the one codec between it and an (height, width) 0/1
array; the generator, pattern text and the byte and plane engines use it.
board() and from_board() convert a World to and from the one-int layout
of the bit-sliced engine and the circuit on small worlds, and Planes holds
a larger one as uint64 planes; both close each row with zero guard bits.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

ALIVE_CHAR = "O"
DEAD_CHAR = "."


class InputError(ValueError):
    """Base class of every user-input error: the CLI exits 2 with its message."""


class PatternError(InputError):
    """Base class for plaintext pattern parse failures."""


class RaggedLines(PatternError):
    """Pattern lines are not all the same length."""


class IllegalChar(PatternError):
    """Pattern contains a character other than '.', 'O', or a newline."""


class EmptyPattern(PatternError):
    """Pattern has no cells (empty text or an empty line)."""


class BadDensity(ValueError):
    """Requested live-cell density is outside [0, 1]."""


# ---------------------------------------------------------------------------
# Deterministic PRNG
# ---------------------------------------------------------------------------

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z):
    """SplitMix64 finalizer: avalanche a 64-bit int, or each of a uint64 array."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class Rng:
    """SplitMix64 generator: a 64-bit counter-based stream.

    The i-th output is a pure function of (seed, i), so sequences are
    identical on every platform and independent of call batching. Good
    enough statistically for world generation; not for cryptography.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return mix64(self._state)


# ---------------------------------------------------------------------------
# World
# ---------------------------------------------------------------------------


class World:
    """Bit-packed grid of cells. 1 = alive, 0 = dead.

    `data` is one immutable bytes object: the cells packed LSB-first into
    little-endian 64-bit words, row-major, each row padded to a whole number
    of words. Padding bits are always zero, which makes equality a plain
    bytes compare. `words` is the same store as a tuple of ints.

    Worlds are immutable once constructed; engines build new ones. Equality
    compares dimensions and cells only, not the generation counter.
    """

    __slots__ = ("width", "height", "generation", "data")

    def __init__(self, width: int, height: int, words: tuple[int, ...], generation: int = 0):
        """World from packed words: integers in [0, 2**64), with each row's padding bits zero."""
        if not all(issubclass(kind, (int, np.integer)) for kind in set(map(type, words))):
            raise ValueError("world words must be integers")
        try:
            data = np.array(list(map(int, words)), dtype="<u8").tobytes()  # int(): no numpy wrap-around
        except OverflowError:
            raise ValueError("world words must lie in [0, 2**64)") from None
        self._set(width, height, data, generation)

    @classmethod
    def from_bytes(cls, width: int, height: int, data: bytes, generation: int = 0) -> "World":
        """World over `data` in the packed layout; its padding bits must be zero."""
        world = cls.__new__(cls)
        world._set(width, height, bytes(data), generation)
        return world

    def _set(self, width, height, data, generation):
        if width < 1 or height < 1:
            raise ValueError(f"world dimensions must be >= 1, got {width}x{height}")
        n = height * ((width + 63) >> 6)
        if len(data) != 8 * n:
            raise ValueError(f"expected {n} words for {width}x{height}, got {len(data) / 8:g}")
        if width & 63:  # a row's last word has padding bits
            last = np.frombuffer(data, dtype="<u8")[n // height - 1::n // height]
            if int(np.bitwise_or.reduce(last)) >> (width & 63):
                raise ValueError(f"world sets padding bits at x >= width {width}")
        self.width = width
        self.height = height
        self.generation = generation
        self.data = data

    @property
    def words(self) -> tuple[int, ...]:
        return tuple(np.frombuffer(self.data, dtype="<u8").tolist())

    @property
    def row_words(self) -> int:
        return (self.width + 63) >> 6

    @classmethod
    def empty(cls, width: int, height: int) -> "World":
        return cls.from_bytes(width, height, bytes(8 * height * ((width + 63) >> 6)))

    def get(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"cell ({x},{y}) outside {self.width}x{self.height} world")
        return (self.data[8 * y * self.row_words + (x >> 3)] >> (x & 7)) & 1

    def __eq__(self, other):
        if not isinstance(other, World):
            return NotImplemented
        return (self.width == other.width and self.height == other.height
                and self.data == other.data)

    def __hash__(self):
        return hash((self.width, self.height, self.data))

    def __repr__(self):
        return f"<World {self.width}x{self.height} gen={self.generation} pop={population(self)}>"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def cells(world: World) -> np.ndarray:
    """The world as an (height, width) uint8 array, 1 = alive."""
    rows = np.frombuffer(world.data, dtype=np.uint8).reshape(world.height, -1)
    return np.unpackbits(rows, axis=1, count=world.width, bitorder="little")


def from_cells(bits, generation: int = 0) -> World:
    """World from an (height, width) array whose nonzero entries are live."""
    height, width = np.shape(bits)
    octets = np.zeros((height, 8 * ((width + 63) >> 6)), dtype=np.uint8)
    octets[:, :(width + 7) >> 3] = np.packbits(bits, axis=1, bitorder="little")
    return World.from_bytes(width, height, octets.tobytes(), generation)


# A board is a world as one int, the layout of the int-based engines: bit
# (x, y) sits at y * (width + 1) + x. The guard bit x = width of each row is
# 0, so a shift by one never carries a cell into the next row.


def board(world: World) -> int:
    """The world as a board; its guard bits are the World's zero padding bits."""
    rows = np.frombuffer(world.data, dtype=np.uint8).reshape(world.height, -1)
    plane = np.unpackbits(rows, axis=1, count=world.width + 1, bitorder="little")
    return int.from_bytes(np.packbits(plane, bitorder="little").tobytes(), "little")


def from_board(value: int, width: int, height: int, generation: int = 0) -> World:
    """World from a width x height board; its guard bits are ignored."""
    n = height * (width + 1)
    octets = np.frombuffer(value.to_bytes((n + 7) >> 3, "little"), dtype=np.uint8)
    plane = np.unpackbits(octets, count=n, bitorder="little").reshape(height, -1)
    return from_cells(plane[:, :width], generation)


def full_board(width: int, height: int) -> int:
    """The board with every cell set and every guard bit 0."""
    full, rows = (1 << width) - 1, 1
    while rows < height:  # double the rows that are set
        full |= full << (rows * (width + 1))
        rows *= 2
    return full & ((1 << (height * (width + 1))) - 1)


# Bytes per page: the unit every plane of a Planes is aligned and spaced to.
PAGE = 4096


class Planes:
    """A world's cells as bit-packed uint64 planes: the layout both plane evaluators step.

    A plane is one flat array of height * stride words, stride the words
    that hold width + 1 bits: a row's cells, then zero guard bits, as on a
    board. Unless width % 64 == 0 they are the row's padding bits, so the
    registers are World.data word for word. The west and east shifts
    (shifts()) are 1-D ops that move a cell past its row's end only onto a
    guard bit. A bordered plane adds an all-zero row above and below, so
    the rows above and below any row are flat offset views of it (row()).
    The registers are bordered plane 0's interior; mask is 1 on the cells.

    All planes are carved from one buffer, allocated here, once, so a step
    that writes into them allocates nothing: the bordered planes, the flat
    planes, then the mask. Row 0 of each starts on a page boundary, with a
    border row just before it, and each is a whole number of pages from
    the next, so a step's speed does not depend on where the heap puts the
    buffer.
    """

    def __init__(self, width: int, height: int, bordered: int, flat: int):
        rw = (width + 63) >> 6
        self.width, self.height = width, height
        self._stride = stride = (width + 64) >> 6
        self._size = height * stride
        page = PAGE // 8  # words
        lead = -(-stride // page) * page  # the pages before row 0
        span = -(-(lead + self._size + stride) // page) * page
        n = bordered + flat + 1
        # np.full writes every page now, so the first step does not pay
        # the page faults; the border rows and guard bits must be 0.
        buf = np.full(n * span + page, 0, dtype=np.uint64)
        start = -buf.ctypes.data % PAGE // 8
        planes = buf[start:start + n * span].reshape(n, span)
        planes = planes[:, lead - stride:lead + self._size + stride]
        self._bordered = planes[:bordered].reshape(bordered, height + 2, stride)
        self.flat = planes[bordered:-1, stride:-stride]
        mask = planes[-1, stride:-stride].reshape(height, stride)
        mask[:, :rw] = MASK64
        mask[:, rw - 1] = (1 << (width - 64 * (rw - 1))) - 1
        self.mask = mask.reshape(-1)
        self._regs = self._bordered[0, 1:-1, :rw]

    def row(self, plane: int, dy: int = 0) -> np.ndarray:
        """Bordered plane `plane` as a flat plane whose row y reads its row y + dy (|dy| <= 1)."""
        lo = (1 + dy) * self._stride
        return self._bordered[plane].reshape(-1)[lo:lo + self._size]

    def shifts(self, west: np.ndarray, east: np.ndarray, carry: np.ndarray) -> list:
        """(ufunc, args) ops that write the registers shifted into flat planes.

        Bit x of a row of west holds cell x - 1 and of east cell x + 1;
        bits shifted in are 0. carry is a plane that is free while they run.
        """
        regs = self.row(0)
        # 0-d arrays: numpy converts a scalar shift count on every call
        one, top = np.array(1, dtype=np.uint64), np.array(63, dtype=np.uint64)
        ops = [(np.left_shift, (regs, one, west)),
               (np.right_shift, (regs, one, east))]
        if self.width > 64:  # carry the bit that crosses each word boundary
            carry = carry[:-1]
            ops += [(np.right_shift, (regs[:-1], top, carry)),
                    (np.bitwise_or, (west[1:], carry, west[1:])),
                    (np.left_shift, (regs[1:], top, carry)),
                    (np.bitwise_or, (east[:-1], carry, east[:-1]))]
        return ops

    def load(self, world: World) -> None:
        """The world into the registers, its zero padding bits as guard bits: one copy."""
        self._regs[...] = np.frombuffer(world.data, dtype="<u8").reshape(self._regs.shape)

    def world(self, generation: int) -> World:
        """The registers as a World: one tobytes, contiguous unless width % 64 == 0."""
        data = self._regs.astype("<u8", copy=False).tobytes()
        return World.from_bytes(self.width, self.height, data, generation)


def parse_pattern(text: str) -> World:
    """Parse plaintext pattern lines ('.' dead, 'O' alive) into a World.

    Lines are '\\n'-terminated; a single trailing newline is optional.
    Raises RaggedLines, IllegalChar or EmptyPattern (all PatternError) for
    the first bad line.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EmptyPattern("pattern text is empty")
    width = len(lines[0])
    # Non-ASCII becomes '?', also illegal; the line loop names the original.
    glyphs = np.frombuffer("".join(lines).encode("ascii", "replace"), dtype=np.uint8)
    alive = glyphs == ord(ALIVE_CHAR)
    legal = np.count_nonzero(alive | (glyphs == ord(DEAD_CHAR))) == glyphs.size
    for i, line in enumerate(lines):
        if line == "":
            raise EmptyPattern(f"line {i + 1} is empty")
        if len(line) != width:
            raise RaggedLines(
                f"line {i + 1} has length {len(line)}, expected {width}")
        if not legal:
            ch = next((c for c in line if c not in (ALIVE_CHAR, DEAD_CHAR)), None)
            if ch is not None:
                raise IllegalChar(f"line {i + 1}: illegal character {ch!r}")
    return from_cells(alive.reshape(len(lines), width))


_GLYPHS = np.frombuffer((DEAD_CHAR + ALIVE_CHAR).encode("ascii"), dtype=np.uint8)


def serialize_pattern(world: World) -> str:
    """Render a World as plaintext pattern lines, one '\\n' per row.

    parse_pattern(serialize_pattern(w)) reproduces w cell-for-cell.
    """
    text = np.full((world.height, world.width + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = _GLYPHS[cells(world)]
    return text.tobytes().decode("ascii")


# Cells drawn per numpy pass: temporaries stay in cache at any world size.
_DRAW_BLOCK = 1 << 14


def random_world(width: int, height: int, density: float = 0.5, seed: int = 0) -> World:
    """World with each cell independently alive with probability `density`.

    Deterministic for a fixed (width, height, density, seed) on every
    platform: cells are drawn row-major from a SplitMix64 stream, the same
    one Rng(seed) yields. Its i-th draw is mix64(seed + i * GAMMA), which
    uint64 arithmetic computes exactly since it wraps modulo 2**64.
    """
    if width < 1 or height < 1:
        raise ValueError(f"world dimensions must be >= 1, got {width}x{height}")
    if not 0.0 <= density <= 1.0:
        raise BadDensity(f"density must be in [0, 1], got {density}")
    threshold = int(round(density * 2.0 ** 64))
    if threshold > MASK64:  # every 64-bit draw is below 2**64
        return from_cells(np.ones((height, width), dtype=bool))
    n = width * height
    alive = np.empty(n, dtype=bool)
    for lo in range(0, n, _DRAW_BLOCK):
        draws = np.arange(lo + 1, min(n, lo + _DRAW_BLOCK) + 1, dtype=np.uint64)
        draws *= np.uint64(_GAMMA)
        draws += np.uint64(seed & MASK64)
        np.less(mix64(draws), np.uint64(threshold), out=alive[lo:lo + _DRAW_BLOCK])
    return from_cells(alive.reshape(height, width))


def population(world: World) -> int:
    """Number of live cells."""
    return int.from_bytes(world.data, "little").bit_count()
