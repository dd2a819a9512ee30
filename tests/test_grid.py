import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BEACON_A, BEACON_B, BEACON_A_CELLS, cells_of, random_world_oracle,
                     row_ints, world_from_rows)
from lifebench.grid import (BadDensity, EmptyPattern, IllegalChar, RaggedLines, Rng,
                            World, board, cells, from_board, from_cells, full_board,
                            parse_pattern, population, random_world, serialize_pattern)


def test_parse_beacon():
    w = parse_pattern(BEACON_A)
    assert (w.width, w.height) == (6, 6)
    assert w.generation == 0
    assert cells_of(w) == BEACON_A_CELLS


def test_parse_minimal():
    w = parse_pattern(".")
    assert (w.width, w.height) == (1, 1)
    assert population(w) == 0


def test_parse_small():
    w = parse_pattern("OO\nO.")
    assert (w.width, w.height) == (2, 2)
    assert population(w) == 3
    assert cells_of(w) == {(0, 0), (1, 0), (0, 1)}


def test_parse_trailing_newline_optional():
    assert parse_pattern("OO\nO.") == parse_pattern("OO\nO.\n")


def test_parse_ragged():
    with pytest.raises(RaggedLines, match="line 2"):
        parse_pattern("OO\nO\n")


def test_parse_illegal_char():
    with pytest.raises(IllegalChar, match="line 1"):
        parse_pattern("OX\n..\n")
    with pytest.raises(IllegalChar):
        parse_pattern("..\r\n..\r\n")


def test_parse_empty():
    with pytest.raises(EmptyPattern):
        parse_pattern("")
    with pytest.raises(EmptyPattern):
        parse_pattern("\n")
    with pytest.raises(EmptyPattern):
        parse_pattern("..\n\n..\n")


def test_serialize_beacon_exact():
    assert serialize_pattern(parse_pattern(BEACON_A)) == BEACON_A
    assert serialize_pattern(parse_pattern(BEACON_B)) == BEACON_B


def test_serialize_all_dead():
    assert serialize_pattern(World.empty(3, 3)) == "...\n...\n...\n"


def test_roundtrip_random_worlds():
    rng = Rng(20240)
    for _ in range(100):
        w = 1 + rng.next_u64() % 90
        h = 1 + rng.next_u64() % 40
        world = random_world(w, h, 0.5, rng.next_u64())
        again = parse_pattern(serialize_pattern(world))
        assert again == world


def test_padding_bits_zero():
    rng = Rng(3)
    for w, h in [(1, 1), (63, 2), (64, 2), (65, 2), (100, 7), (129, 3)]:
        world = random_world(w, h, 0.9, rng.next_u64())
        rw = world.row_words
        mask = (1 << (64 * rw)) - (1 << w)  # bits above width, per row
        assert all(row & mask == 0 for row in row_ints(world))


def test_random_world_density_extremes():
    assert population(random_world(13, 9, 0.0, 5)) == 0
    assert population(random_world(13, 9, 1.0, 5)) == 13 * 9


def test_random_world_population_band():
    w = random_world(64, 64, 0.5, 42)
    pop = population(w)
    assert 1843 <= pop <= 2253  # +-5 sigma binomial band around 2048
    assert pop == 2059  # frozen: the generator is platform-independent


def test_random_world_deterministic():
    a = random_world(37, 21, 0.43, 99)
    b = random_world(37, 21, 0.43, 99)
    assert a == b
    assert a != random_world(37, 21, 0.43, 100)


def test_random_world_density_convergence():
    # 100 seeds x 10^4 cells: observed density stays within 0.5 +- 0.05
    for seed in range(100):
        pop = population(random_world(100, 100, 0.5, seed))
        assert abs(pop / 10_000 - 0.5) <= 0.05


def test_bad_density():
    with pytest.raises(BadDensity):
        random_world(4, 4, -0.01, 1)
    with pytest.raises(BadDensity):
        random_world(4, 4, 1.01, 1)


def test_bad_dimensions():
    with pytest.raises(ValueError):
        random_world(0, 4, 0.5, 1)
    with pytest.raises(ValueError):
        World.empty(3, 0)


def test_rng_reference_vector():
    # SplitMix64 test vector for seed 1234567 (reference implementation).
    r = Rng(1234567)
    assert [r.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_world_get_and_bounds():
    w = parse_pattern("O.\n.O")
    assert w.get(0, 0) == 1
    assert w.get(1, 0) == 0
    assert w.get(1, 1) == 1
    with pytest.raises(IndexError):
        w.get(2, 0)
    with pytest.raises(IndexError):
        w.get(0, -1)


def test_world_equality_ignores_generation():
    a = parse_pattern("OO\n..")
    b = World(a.width, a.height, a.words, generation=7)
    assert a == b
    assert a != parse_pattern("OO\nO.")


@pytest.mark.parametrize("words", [(0b1111,), (-1,), (1 << 70,)])
def test_world_rejects_bad_words(words):
    with pytest.raises(ValueError):
        World(2, 1, words)


@pytest.mark.parametrize("words", [(1.5, 0), (0, 1.0), (np.float64(1), 0)])
def test_world_rejects_float_words(words):
    with pytest.raises(ValueError, match="must be integers"):
        World(65, 1, words)


@pytest.mark.parametrize("words", [("3", 0), (0, "1"), (b"1", 0)])
def test_world_rejects_string_words(words):
    with pytest.raises(ValueError, match="must be integers"):
        World(65, 1, words)


@pytest.mark.parametrize("word", [np.int64(-1), np.int8(-1)])
def test_world_rejects_negative_numpy_words(word):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        World(64, 1, (word,))


def test_world_accepts_numpy_integer_words():
    world = random_world(70, 3, 0.5, 2)
    as_numpy = tuple(np.uint64(w) for w in world.words)
    assert World(70, 3, as_numpy) == world
    assert World(65, 1, (np.uint64(2 ** 64 - 1), np.int8(1))).words == (2 ** 64 - 1, 1)
    assert World(65, 1, (2 ** 64 - 1, 1)).words == (2 ** 64 - 1, 1)


def test_world_accepts_full_last_word():
    assert population(World(64, 1, (2 ** 64 - 1,))) == 64
    assert population(World(65, 1, (2 ** 64 - 1, 1))) == 65
    with pytest.raises(ValueError):
        World(65, 1, (0, 2))


def test_world_data_is_bytes():
    world = random_world(70, 3, 0.5, 1)
    for w in (world, World(70, 3, world.words), World.from_bytes(70, 3, bytearray(world.data)),
              World.empty(3, 2), World(3, 1, (5,)), parse_pattern("O.\n.O"),
              from_cells(cells(world))):
        assert type(w.data) is bytes
        assert len(w.data) == 8 * w.height * w.row_words


@pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 129])
def test_bytes_and_words_constructors_agree(width):
    world = random_world(width, 4, 0.5, width)
    assert World.from_bytes(width, 4, world.data, 3) == world
    assert World(width, 4, world.words) == world
    assert world.words == tuple(int.from_bytes(world.data[i:i + 8], "little")
                                for i in range(0, len(world.data), 8))
    with pytest.raises(ValueError):
        World.from_bytes(width, 4, world.data[:-1])


def test_from_bytes_rejects_set_padding_bits():
    # two live cells and two set padding bits: once a 2x1 world of population 4
    with pytest.raises(ValueError, match="padding bits"):
        World.from_bytes(2, 1, bytes([0b1111]) + bytes(7))
    world = World.from_bytes(2, 1, bytearray([0b11]) + bytearray(7))
    assert world == World(2, 1, (3,)) and type(world.data) is bytes


@pytest.mark.parametrize("width", [63, 64, 65, 129])
def test_from_bytes_padding_roundtrip(width):
    full = from_cells(np.ones((3, width), dtype=np.uint8))
    assert World.from_bytes(width, 3, full.data) == full
    assert World.from_bytes(width, 3, bytearray(full.data)).words == full.words
    if width % 64:
        for y in range(3):  # the first padding bit, x = width, of each row
            data = bytearray(full.data)
            bit = 64 * full.row_words * y + width
            data[bit >> 3] |= 1 << (bit & 7)
            with pytest.raises(ValueError, match="padding bits"):
                World.from_bytes(width, 3, data)


def test_get_agrees_with_cells():
    world = random_world(130, 4, 0.5, 2)
    bits = cells(world)
    for y in range(4):
        for x in (0, 7, 8, 63, 64, 65, 129):
            assert world.get(x, y) == bits[y, x]


def test_hash_and_eq_agree_with_words():
    worlds = [random_world(65, 2, d, s) for d in (0.0, 0.5) for s in (1, 2)]
    worlds += [World(65, 2, w.words, generation=5) for w in worlds]
    for a in worlds:
        for b in worlds:
            same = (a.width, a.height, a.words) == (b.width, b.height, b.words)
            assert (a == b) is same
            if same:
                assert hash(a) == hash(b)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 129])
def test_population_counts_cells(width):
    for density in (0.0, 0.3, 1.0):
        world = random_world(width, 5, density, width)
        assert population(world) == cells(world).sum()


def test_population_examples():
    assert population(parse_pattern(BEACON_A)) == 6
    assert population(parse_pattern(BEACON_B)) == 8
    assert population(World.empty(5, 5)) == 0


# ---------------------------------------------------------------------------
# generator and codec against their scalar definitions
# ---------------------------------------------------------------------------

_DENSITIES = st.one_of(st.sampled_from([0.0, 1.0, 1 - 1e-18, 1e-19]),
                       st.floats(0.0, 1.0))
_SEEDS = st.one_of(st.sampled_from([0, 2 ** 64 - 1]), st.integers(max_value=-1),
                   st.integers(min_value=2 ** 64), st.integers(0, 2 ** 64 - 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 130), st.integers(1, 130), _DENSITIES, _SEEDS)
def test_random_world_matches_scalar_oracle(width, height, density, seed):
    world = random_world(width, height, density, seed)
    assert world.words == random_world_oracle(width, height, density, seed).words


@pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 129])
def test_cells_codec_roundtrip(width):
    world = random_world(width, 3, 0.5, width)
    bits = cells(world)
    assert bits.shape == (3, width)
    assert bits.tolist() == [[world.get(x, y) for x in range(width)] for y in range(3)]
    again = from_cells(bits, generation=9)
    assert again == world and again.words == world.words
    assert again.generation == 9


@st.composite
def worlds(draw):
    width = draw(st.integers(1, 130))
    height = draw(st.integers(1, 12))
    rows = draw(st.lists(st.integers(0, 2 ** width - 1), min_size=height, max_size=height))
    return world_from_rows(width, height, rows)


@settings(max_examples=100, deadline=None)
@given(worlds())
def test_board_codec_roundtrip(world):
    w, h = world.width, world.height
    value = board(world)
    assert value == sum(world.get(x, y) << (y * (w + 1) + x)
                        for y in range(h) for x in range(w))
    assert value & ~full_board(w, h) == 0  # guard bits 0
    again = from_board(value, w, h, generation=5)
    assert again == world and again.generation == 5
    assert full_board(w, h) == board(from_cells(np.ones((h, w), dtype=bool)))


@settings(max_examples=100, deadline=None)
@given(worlds())
def test_pattern_roundtrip_any_world(world):
    assert parse_pattern(serialize_pattern(world)) == world


@pytest.mark.parametrize("text, error, message", [
    ("..\nX.\n.\n", IllegalChar, "line 2: illegal character 'X'"),  # before a ragged line
    ("..\n.é\n", IllegalChar, "line 2: illegal character 'é'"),
    ("..\n\n..\n", EmptyPattern, "line 2 is empty"),
    ("..\n..\nO", RaggedLines, "line 3 has length 1, expected 2"),  # no trailing newline
])
def test_parse_first_bad_line_wins(text, error, message):
    with pytest.raises(error) as exc:
        parse_pattern(text)
    assert type(exc.value) is error
    assert str(exc.value) == message
