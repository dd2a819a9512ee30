import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BEACON_A, BEACON_B, GLIDER, cells_of, crop, embed, naive_step,
                     world_from_cells)
from lifebench.circuit import SizeMismatch, elaborate
from lifebench.engines import (ENGINE_KINDS, OutOfBounds, make_engine, neighbor_count,
                               next_cell_state, run, step_bitsliced, step_circuit,
                               step_reference)
from lifebench.grid import Rng, World, parse_pattern, population, random_world

ALL_ALIVE_3x3 = world_from_cells(3, 3, {(x, y) for x in range(3) for y in range(3)})


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
    with pytest.raises(OutOfBounds):
        neighbor_count(ALL_ALIVE_3x3, 3, 0)
    with pytest.raises(OutOfBounds):
        neighbor_count(ALL_ALIVE_3x3, 0, -1)


def test_reference_matches_percell_composition():
    # The reference engine must equal the rule applied cell by cell.
    rng = Rng(77)
    for _ in range(40):
        w = 1 + rng.next_u64() % 12
        h = 1 + rng.next_u64() % 12
        world = random_world(w, h, 0.5, rng.next_u64())
        assert step_reference(world) == naive_step(world)


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
    for _ in range(10_000):
        w = max(1, min(80, round(80 ** rng.next_float())))
        h = max(1, min(80, round(80 ** rng.next_float())))
        world = random_world(w, h, 0.5, rng.next_u64())
        assert step_bitsliced(world) == step_reference(world)


def test_circuit_equals_reference_32x32():
    netlist = elaborate(32, 32)  # one netlist reused across all loads
    rng = Rng(5150)
    for _ in range(1000):
        world = random_world(32, 32, 0.5, rng.next_u64())
        assert step_circuit(world, netlist) == step_reference(world)


def test_cross_engine_equivalence_size_sweep():
    # Degenerate and odd shapes from 1x1 up to 100x100, a few steps each.
    sizes = [(1, 1), (1, 2), (2, 1), (1, 8), (8, 1), (2, 2), (3, 3), (1, 100),
             (100, 1), (2, 63), (63, 2), (64, 1), (64, 2), (65, 3), (5, 5),
             (7, 4), (9, 17), (13, 13), (31, 2), (32, 32), (33, 7), (50, 17),
             (64, 64), (65, 65), (77, 3), (100, 100)]
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
    width = data.draw(st.one_of(st.sampled_from([63, 64, 65, 128, 129]), st.integers(1, 200)))
    height = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.integers(0, 2 ** width - 1), min_size=height, max_size=height))
    world = World.from_row_ints(width, height, rows)
    circuit, oracle = make_engine("circuit", world), make_engine("bitsliced", world)
    for _ in range(data.draw(st.integers(1, 8))):
        circuit.step()
        oracle.step()
        assert circuit.world() == oracle.world()
        # World() re-checks the padding bits that World.from_bytes skips.
        World(width, height, circuit.netlist.to_world().words)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_step_keeps_padding_bits_zero(kind):
    # widths straddling word boundaries; stray bits would break word equality
    rng = Rng(414)
    for w, h in [(63, 3), (64, 3), (65, 3), (100, 2)]:
        world = random_world(w, h, 0.8, rng.next_u64())
        stepped = run(kind, world, 2)
        mask = (1 << (64 * stepped.row_words)) - (1 << w)
        for y in range(h):
            assert stepped.row_int(y) & mask == 0


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
        step_circuit(World.empty(5, 5), netlist)


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
    engine = make_engine(kind)
    live = random_world(width, 3, 0.5, width).words
    # the second load reuses the first one's buffers
    for world in (World(width, 3, live, generation=11), World.empty(width, 3)):
        engine.load(world)
        back = engine.world()
        assert back.words == world.words
        assert back.generation == world.generation


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_world_readback_is_not_a_view(kind):
    engine = make_engine(kind, random_world(70, 6, 0.5, 3))
    out = engine.world()
    assert type(out.data) is bytes
    data, words = out.data, out.words
    engine.step()
    engine.load(random_world(70, 6, 0.5, 4))
    engine.step()
    assert (out.data, out.words) == (data, words)
    assert out == World(70, 6, words)
