"""World representation, deterministic random worlds, and plaintext pattern I/O.

A world is a fixed-size 2D grid of live/dead cells with a permanently dead
boundary: every cell outside [0, width) x [0, height) reads as dead.
Coordinates are (x right, y down) with the origin at the top left, matching
the text order of the plaintext pattern format ('.' dead, 'O' alive).

A World's cells are one immutable bytes object, World.data. cells() and
from_cells() are the one codec between it and an (height, width) 0/1
array; the generator, pattern text, the reference engine and the int
evaluator's readback use it. The register layouts that the bit-parallel
engines step, one int or uint64 planes, live in the circuit module's
evaluators. World.from_bytes checks that a buffer's padding bits are zero;
from_cells and the plane evaluator's readback, whose padding is zero by
construction, build their Worlds with the unchecked World._packed.
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


def mix64(z, scratch=None):
    """SplitMix64 finalizer: avalanche a 64-bit int, or each of a uint64 array.

    An array is mixed in place, with `scratch` a uint64 array of its shape
    for the shifts; its arithmetic wraps modulo 2**64, so it is not masked.
    """
    for shift, factor in ((30, _MIX1), (27, _MIX2), (31, 1)):
        if scratch is None:
            z = (z ^ (z >> shift)) * factor & MASK64
        else:
            z ^= np.right_shift(z, shift, out=scratch)
            if factor != 1:
                z *= factor
    return z


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
    bytes compare, and every buffer a caller passes in is checked for it.
    `words` is the same store as a tuple of ints. Since `data` is immutable, an
    evaluator can tell its own readback by the bytes object's identity.

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
        self._check_padding()

    @classmethod
    def from_bytes(cls, width: int, height: int, data: bytes, generation: int = 0) -> "World":
        """World over `data` in the packed layout; its padding bits must be zero."""
        world = cls._packed(width, height, bytes(data), generation)
        world._check_padding()
        return world

    @classmethod
    def _packed(cls, width: int, height: int, data: bytes, generation: int = 0) -> "World":
        """World over bytes whose padding bits are zero by construction, unchecked.

        from_cells and the plane evaluator's readback build such bytes and
        come here; every buffer a caller passes in goes through from_bytes.
        """
        world = cls.__new__(cls)
        world._set(width, height, data, generation)
        return world

    def _set(self, width, height, data, generation):
        if width < 1 or height < 1:
            raise ValueError(f"world dimensions must be >= 1, got {width}x{height}")
        n = height * ((width + 63) >> 6)
        if len(data) != 8 * n:
            raise ValueError(f"expected {n} words for {width}x{height}, got {len(data) / 8:g}")
        self.width = width
        self.height = height
        self.generation = generation
        self.data = data

    def _check_padding(self):
        if self.width & 63:  # a row's last word has padding bits
            rw = (self.width + 63) >> 6
            last = np.frombuffer(self.data, dtype="<u8")[rw - 1::rw]
            if int(np.bitwise_or.reduce(last)) >> (self.width & 63):
                raise ValueError(f"world sets padding bits at x >= width {self.width}")

    @property
    def words(self) -> tuple[int, ...]:
        return tuple(np.frombuffer(self.data, dtype="<u8").tolist())

    @classmethod
    def empty(cls, width: int, height: int) -> "World":
        return cls.from_bytes(width, height, bytes(8 * height * ((width + 63) >> 6)))

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
    return World._packed(width, height, octets.tobytes(), generation)  # padding stays 0


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


def serialize_pattern(world: World) -> str:
    """Render a World as plaintext pattern lines, one '\\n' per row.

    parse_pattern(serialize_pattern(w)) reproduces w cell-for-cell.
    """
    text = np.full((world.height, world.width + 1), ord("\n"), dtype=np.uint8)
    glyphs = text[:, :-1]  # a cell's glyph is DEAD_CHAR + cell * (ALIVE_CHAR - DEAD_CHAR)
    np.multiply(cells(world), ord(ALIVE_CHAR) - ord(DEAD_CHAR), out=glyphs)
    glyphs += ord(DEAD_CHAR)
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
    gammas = np.arange(1, min(n, _DRAW_BLOCK) + 1, dtype=np.uint64) * _GAMMA  # i * GAMMA
    draws, scratch = np.empty_like(gammas), np.empty_like(gammas)
    for lo in range(0, n, _DRAW_BLOCK):
        k = min(n - lo, _DRAW_BLOCK)  # draws lo + 1 .. lo + k: (seed + lo * GAMMA) + i * GAMMA
        np.add(gammas[:k], (seed + lo * _GAMMA) & MASK64, out=draws[:k])
        np.less(mix64(draws[:k], scratch[:k]), threshold, out=alive[lo:lo + k])
    return from_cells(alive.reshape(height, width))


def population(world: World) -> int:
    """Number of live cells."""
    return int.from_bytes(world.data, "little").bit_count()
