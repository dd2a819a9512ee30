import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BEACON_A, BEACON_B, GLIDER, cells_of, crop, embed, naive_step,
                     neighbor_count, next_cell_state, row_ints, world_from_cells,
                     world_from_rows)
from lifebench.circuit import _INT_TICK_MAX_BITS, SizeMismatch, elaborate
from lifebench.engines import (_INT_STEP_MAX_BITS, ENGINE_KINDS, CircuitEngine, NoWorld,
                               make_engine, run)
from lifebench.grid import Rng, World, parse_pattern, population, random_world

ALL_ALIVE_3x3 = world_from_cells(3, 3, {(x, y) for x in range(3) for y in range(3)})


def tall(width):
    """Height of the shortest world of this width that the bit-sliced engine steps on planes."""
    return _INT_STEP_MAX_BITS // (width + 1) + 1


def test_next_cell_state_truth_table():
    for cnt in range(9):
        for alive in (False, True):
            expected = cnt == 3 or (alive and cnt == 2)
            assert next_cell_state(alive, cnt) is expected
    # survival, birth, and death edges pinned explicitly
    assert next_cell_state(True, 2) is True
    assert next_cell_state(False, 3) is True
    assert next_cell_state(True, 4) is False
    assert next_cell_state(False, 2) is False
    assert next_cell_state(True, 0) is False


def test_neighbor_count_saturation_and_corner():
    assert neighbor_count(ALL_ALIVE_3x3, 1, 1) == 8
    assert neighbor_count(ALL_ALIVE_3x3, 0, 0) == 3
    assert neighbor_count(ALL_ALIVE_3x3, 2, 2) == 3


def test_neighbor_count_beacon():
    w = parse_pattern(BEACON_A)
    assert w.get(2, 2) == 0
    assert neighbor_count(w, 2, 2) == 3  # (1,1), (2,1), (1,2)


def test_neighbor_count_out_of_bounds():
    with pytest.raises(IndexError):
        neighbor_count(ALL_ALIVE_3x3, 3, 0)
    with pytest.raises(IndexError):
        neighbor_count(ALL_ALIVE_3x3, 0, -1)


def test_reference_matches_percell_composition():
    # The reference engine must equal the rule applied cell by cell.
    rng = Rng(77)
    for _ in range(40):
        w = 1 + rng.next_u64() % 12
        h = 1 + rng.next_u64() % 12
        world = random_world(w, h, 0.5, rng.next_u64())
        assert run("reference", world, 1) == naive_step(world)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_beacon_oscillates(kind):
    a = parse_pattern(BEACON_A)
    b = run(kind, a, 1)
    assert cells_of(b) == cells_of(parse_pattern(BEACON_B))
    back = run(kind, b, 1)
    assert back == a
    assert back.generation == 2


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_all_dead_stays_dead(kind):
    for n in (1, 2, 5):
        w = World.empty(n, n)
        assert run(kind, w, 3) == w


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_single_cell_dies(kind):
    for pos in [(0, 0), (2, 1), (3, 3)]:
        w = world_from_cells(4, 4, {pos})
        assert population(run(kind, w, 1)) == 0


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_block_still_life(kind):
    # Every live cell sees 3 neighbors, every dead cell at most 2.
    block = world_from_cells(4, 4, {(1, 1), (2, 1), (1, 2), (2, 2)})
    assert run(kind, block, 100) == block


def test_bitsliced_equals_reference_many_worlds():
    # 10^4 seeded random worlds, sizes 1x1..80x80 biased small, one step.
    rng = Rng(2024)

    def uniform():  # [0, 1) from the top 53 bits of a draw
        return (rng.next_u64() >> 11) * 2.0 ** -53

    for _ in range(10_000):
        w = max(1, min(80, round(80 ** uniform())))
        h = max(1, min(80, round(80 ** uniform())))
        world = random_world(w, h, 0.5, rng.next_u64())
        assert run("bitsliced", world, 1) == run("reference", world, 1)


def test_circuit_equals_reference_32x32():
    netlist = elaborate(32, 32)  # one netlist reused across all loads
    rng = Rng(5150)
    for _ in range(1000):
        world = random_world(32, 32, 0.5, rng.next_u64())
        assert run(CircuitEngine(netlist=netlist), world, 1) == run("reference", world, 1)


def test_cross_engine_equivalence_size_sweep():
    # Degenerate and odd shapes from 1x1 up to 100x100, a few steps each;
    # 200x200, past the largest board the circuit ticks as one int; and two
    # tall worlds, past the largest board the bit-sliced engine steps as one.
    sizes = [(1, 1), (1, 2), (2, 1), (1, 8), (8, 1), (2, 2), (3, 3), (1, 100),
             (100, 1), (2, 63), (63, 2), (64, 1), (64, 2), (65, 3), (5, 5),
             (7, 4), (9, 17), (13, 13), (31, 2), (32, 32), (33, 7), (50, 17),
             (64, 64), (65, 65), (77, 3), (100, 100), (200, 200), (65, tall(65)),
             (300, tall(300))]
    rng = Rng(888)
    for w, h in sizes:
        world = random_world(w, h, 0.5, rng.next_u64())
        engines = [make_engine(k, world) for k in ENGINE_KINDS]
        for _ in range(3):
            for e in engines:
                e.step()
            worlds = [e.world() for e in engines]
            assert worlds[0] == worlds[1] == worlds[2], f"divergence at {w}x{h}"
            world = worlds[0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compiled_tick_matches_bitsliced(data):
    # Widths at word boundaries are drawn explicitly and so often, as the
    # carry, guard-word and masked-NOT passes of the compiled tick meet them.
    # A tall world repeats the drawn rows past the largest int board, so
    # the same widths reach the plane tick too. Every board here stays below
    # the largest one the bit-sliced engine steps as one int, so the oracle
    # shares no plane code with the circuit's plane tick.
    width = data.draw(st.one_of(st.sampled_from([63, 64, 65, 128, 129]), st.integers(1, 200)))
    rows = data.draw(st.lists(st.integers(0, 2 ** width - 1), min_size=1, max_size=6))
    evaluator = data.draw(st.sampled_from(["int", "planes"]))
    height = len(rows) + (_INT_TICK_MAX_BITS // (width + 1) if evaluator == "planes" else 0)
    world = world_from_rows(width, height, (rows * height)[:height])
    netlist = elaborate(width, height)
    assert netlist.describe()["evaluator"] == evaluator
    circuit, oracle = CircuitEngine(world, netlist=netlist), make_engine("bitsliced", world)
    for _ in range(data.draw(st.integers(1, 8))):
        circuit.step()
        oracle.step()
        # world() raises if the registers' padding bits are set
        assert circuit.world() == oracle.world()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_engines_agree_on_arbitrary_worlds(width, height, data):
    # Beside criterion 2's seeded worlds: any world up to 12x12, where the
    # reference engine is the oracle, since bitsliced and the circuit's int
    # tick share grid.board.
    rows = data.draw(st.lists(st.integers(0, 2 ** width - 1), min_size=height, max_size=height))
    world = world_from_rows(width, height, rows)
    steps = data.draw(st.integers(1, 4))
    expected = run("reference", world, steps)
    assert run("bitsliced", world, steps) == expected
    assert run("circuit", world, steps) == expected


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_bitsliced_planes_match_reference(data):
    # The bit-sliced plane step shares grid.Planes with the circuit's plane
    # tick, so the reference engine is the oracle. The drawn rows repeat to
    # just past the largest board the bit-sliced engine steps as one int.
    width = data.draw(st.one_of(st.sampled_from([1, 63, 64, 65, 128, 129]), st.integers(1, 300)))
    # rows drawn bit by bit: Hypothesis draws small integers most often
    rows = [sum(bit << x for x, bit in enumerate(bits)) for bits in data.draw(
        st.lists(st.lists(st.booleans(), min_size=width, max_size=width), min_size=1, max_size=4))]
    height = tall(width)
    world = world_from_rows(width, height, (rows * height)[:height])
    steps = data.draw(st.integers(1, 3))
    assert run("bitsliced", world, steps) == run("reference", world, steps)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_step_keeps_padding_bits_zero(kind):
    # widths straddling word boundaries; stray bits would break word
    # equality. A tall world is stepped by the bit-sliced engine on planes.
    rng = Rng(414)
    for w, h in [(63, 3), (64, 3), (65, 3), (100, 2), (129, tall(129))]:
        world = random_world(w, h, 0.8, rng.next_u64())
        stepped = run(kind, world, 2)
        mask = (1 << (64 * stepped.row_words)) - (1 << w)
        assert all(row & mask == 0 for row in row_ints(stepped))


def test_run_zero_steps_is_identity():
    w = parse_pattern(BEACON_A)
    assert run("reference", w, 0) is w


def test_run_negative_steps_rejected():
    with pytest.raises(ValueError):
        run("reference", parse_pattern(BEACON_A), -1)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_run_composes(kind):
    world = random_world(12, 9, 0.5, 4242)
    whole = run(kind, world, 7)
    split = run(kind, run(kind, world, 3), 4)
    assert whole == split
    assert whole.generation == world.generation + 7


def test_step_is_pure_function_of_world():
    world = random_world(16, 16, 0.5, 31337)
    for kind in ENGINE_KINDS:
        assert run(kind, world, 1) == run(kind, world, 1)


def test_unknown_engine_kind():
    with pytest.raises(ValueError):
        make_engine("quantum")


def test_circuit_engine_size_mismatch():
    netlist = elaborate(6, 6)
    with pytest.raises(SizeMismatch):
        run(CircuitEngine(netlist=netlist), World.empty(5, 5), 1)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_glider_translates(kind):
    # A glider moves (+1, +1) every 4 steps until it nears the border.
    size = 20
    offset = 0
    world = world_from_cells(size, size, GLIDER)
    while True:
        cells = cells_of(world)
        if max(max(x, y) for x, y in cells) >= size - 3:
            break
        world = run(kind, world, 4)
        offset += 1
        expected = {(x + offset, y + offset) for x, y in GLIDER}
        assert cells_of(world) == expected
    assert offset >= 10  # actually walked across the grid


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_dead_frame_embedding_commutes(kind):
    # With live cells kept 2+ cells away from the border, stepping commutes
    # with embedding in (or cropping from) a larger dead frame.
    rng = Rng(606)
    for _ in range(20):
        w = 5 + rng.next_u64() % 10
        h = 5 + rng.next_u64() % 10
        inner = random_world(w - 4, h - 4, 0.6, rng.next_u64())
        world = embed(inner, 2)
        assert (world.width, world.height) == (w, h)
        for margin in (1, 3):
            big = embed(world, margin)
            assert crop(run(kind, big, 1), margin) == run(kind, world, 1)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
@pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 129])
def test_load_world_roundtrip(kind, width):
    # a tall world is held on the bit-sliced engine's planes
    for height in (3, tall(width)):
        engine = make_engine(kind)
        live = random_world(width, height, 0.5, width).words
        # the second load reuses the first one's buffers
        for world in (World(width, height, live, generation=11), World.empty(width, height)):
            engine.load(world)
            back = engine.world()
            assert back.words == world.words
            assert back.generation == world.generation


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_world_readback_is_not_a_view(kind):
    # a tall world is held on the bit-sliced engine's planes
    for h in (6, tall(70)):
        engine = make_engine(kind, random_world(70, h, 0.5, 3))
        out = engine.world()
        assert type(out.data) is bytes
        data, words = out.data, out.words
        engine.step()
        engine.load(random_world(70, h, 0.5, 4))
        engine.step()
        assert (out.data, out.words) == (data, words)
        assert out == World(70, h, words)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
@pytest.mark.parametrize("call", ["step", "world"])
def test_no_world_before_load(kind, call):
    with pytest.raises(NoWorld, match="^no world loaded"):
        getattr(make_engine(kind), call)()
    assert issubclass(NoWorld, ValueError)


def test_plane_steps_allocate_nothing():
    # 20 steps of the bit-sliced plane step and 20 ticks of the circuit's
    # plane tick, after one warm-up call, each peak below one plane's bytes.
    plane = 500 * ((500 + 63) // 64 + 1) * 8
    world = random_world(500, 500, 0.5, 7)
    netlist = elaborate(500, 500, world)
    assert netlist.describe()["evaluator"] == "planes"
    for step in (make_engine("bitsliced", world).step, netlist.tick):
        step()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < plane
