import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BEACON_A, BEACON_B, GLIDER, RECORD_IDS, RECORD_SIZES, assert_stepped,
                     bit_rows, cells_of, crop, embed, get_cell, naive_step, naive_steps,
                     neighbor_count, next_cell_state, record_worlds, row_ints, row_words, tall,
                     world_from_cells, world_from_rows)
from lifebench.circuit import SizeMismatch, _IntTick, elaborate
from lifebench.engines import _SCHEDULE, ENGINE_KINDS, CircuitEngine, NoWorld, make_engine, run
from lifebench.grid import Rng, World, parse_pattern, population, random_world

ALL_ALIVE_3x3 = world_from_cells(3, 3, {(x, y) for x in range(3) for y in range(3)})


def high(width):
    """tall(width), the shortest plane board; below 16 columns, where every
    board ticks on an int, the height of one past 2**16 bits."""
    return tall(width) or (1 << 16) // (width + 1) + 1


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
    assert get_cell(w, 2, 2) == 0
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
    # 200x200, near the largest square board either engine ticks as one
    # int; and tall worlds, just past the largest int board of their width.
    sizes = [(1, 1), (1, 2), (2, 1), (1, 8), (8, 1), (2, 2), (3, 3), (1, 100),
             (100, 1), (2, 63), (63, 2), (64, 1), (64, 2), (65, 3), (5, 5),
             (7, 4), (9, 17), (13, 13), (31, 2), (32, 32), (33, 7), (50, 17),
             (64, 64), (65, 65), (77, 3), (100, 100), (200, 200), (65, tall(65)),
             (127, tall(127)), (128, tall(128)), (300, tall(300))]
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
    # carry, guard-bit and masked-NOT passes of the compiled tick meet them.
    # A tall world repeats the drawn rows to the smallest plane board, so
    # the same widths reach the plane tick too; below 16 columns, to an int
    # board of more than 2**16 bits. The oracle is the bit-sliced table on
    # the int evaluator, whatever the size. Both tables are compiled by
    # circuit.Schedule, so the reference engine, whose kernel and codec share
    # no code with either, is the independent oracle (the tests below and
    # criterion 2).
    width = data.draw(st.one_of(st.sampled_from([63, 64, 65, 127, 128, 129]), st.integers(1, 200)))
    rows = data.draw(bit_rows(width, 1, 6))
    evaluator = data.draw(st.sampled_from(["int", "planes"]))
    height = len(rows)
    if evaluator == "planes":
        height += high(width) - 1
        evaluator = "planes" if tall(width) else "int"
    world = world_from_rows(width, height, (rows * height)[:height])
    netlist = elaborate(width, height)
    assert netlist.describe()["evaluator"] == evaluator
    circuit, oracle = CircuitEngine(world, netlist=netlist), _IntTick(_SCHEDULE, width, height)
    oracle.load(world)
    for _ in range(data.draw(st.integers(1, 8))):
        circuit.step()
        oracle.tick()
        # world() raises if the registers' padding bits are set
        assert circuit.world() == oracle.world()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_engines_agree_on_arbitrary_worlds(width, height, data):
    # Beside criterion 2's seeded worlds: any world up to 12x12, where the
    # reference engine is the oracle, since bitsliced and the circuit's int
    # tick share circuit._IntTick's board.
    rows = data.draw(bit_rows(width, height, height))
    world = world_from_rows(width, height, rows)
    steps = data.draw(st.integers(1, 4))
    expected = run("reference", world, steps)
    assert run("bitsliced", world, steps) == expected
    assert run("circuit", world, steps) == expected


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_bitsliced_planes_match_reference(data):
    # The bit-sliced plane step shares circuit._PlaneTick's planes with the
    # circuit's plane tick, so the reference engine is the oracle. The drawn
    # rows repeat to the smallest plane board, or below 16 columns, where
    # every board is an int, to just past 2**16 bits.
    width = data.draw(st.one_of(st.sampled_from([1, 63, 64, 65, 127, 128, 129]),
                                st.integers(1, 300)))
    rows = data.draw(bit_rows(width, 1, 4))
    height = high(width)
    world = world_from_rows(width, height, (rows * height)[:height])
    steps = data.draw(st.integers(1, 3))
    assert run("bitsliced", world, steps) == run("reference", world, steps)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_step_keeps_padding_bits_zero(kind):
    # widths straddling word boundaries; stray bits would break word
    # equality. A tall world is stepped on planes by both bit-parallel
    # engines, a short one on an int, and so is a tall one 1 column wide.
    # Live first and last columns show each guard bit the most live cells
    # it can see (six, for an int's guard bit and for the one padding bit of
    # a 127-cell plane row, which takes both carries). The plane readback
    # builds its World unchecked, so every world() must also pass
    # World.from_bytes' padding check.
    rng = Rng(414)
    sizes = [(w, h) for w in (1, 63, 64, 65, 127, 128, 500) for h in (3, high(w))]
    for w, h in [*sizes, (100, 2), (129, tall(129))]:
        edges = world_from_rows(w, h, [1 | 1 << (w - 1)] * h)
        for world in (random_world(w, h, 0.8, rng.next_u64()), edges):
            stepped = run(kind, world, 2)
            mask = (1 << (64 * row_words(stepped))) - (1 << w)
            assert all(row & mask == 0 for row in row_ints(stepped))
            assert World.from_bytes(w, h, stepped.data) == stepped


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
    # A refused first load binds nothing: the engine still holds no world.
    engine = CircuitEngine(netlist=netlist)
    with pytest.raises(SizeMismatch):
        engine.load(World.empty(5, 5))
    for call in (engine.step, engine.world):
        with pytest.raises(NoWorld):
            call()
    # A refused load leaves the engine with the world it held.
    world = random_world(6, 6, 0.5, 5)
    engine, oracle = CircuitEngine(world, netlist=netlist), make_engine("reference", world)
    with pytest.raises(SizeMismatch):
        engine.load(World.empty(5, 5))
    for _ in range(3):
        engine.step()
        oracle.step()
        assert engine.world() == oracle.world()


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
    # a tall world is held on the bit-parallel engines' planes, 1 column on an int
    for height in (3, high(width)):
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
    # a tall world is held on the bit-parallel engines' planes
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


@pytest.mark.parametrize("kind", [*ENGINE_KINDS, "circuit-netlist"])
@pytest.mark.parametrize("call", ["step", "world"])
def test_no_world_before_load(kind, call):
    # "circuit-netlist" is a circuit engine given a netlist, which powers up
    # all dead but holds no loaded world.
    if kind == "circuit-netlist":
        engine = CircuitEngine(netlist=elaborate(3, 3))
    else:
        engine = make_engine(kind)
    with pytest.raises(NoWorld, match="^no world loaded"):
        getattr(engine, call)()
    assert issubclass(NoWorld, ValueError)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_wrappers_survive_same_size_load(kind):
    # What a caller sets in place of step and world, as a tracer wrapping
    # every call does, stays through a load of a world of the same size.
    engine = make_engine(kind, random_world(9, 6, 0.5, 1))
    step, world, calls = engine.step, engine.world, []

    def traced_step():
        calls.append("step")
        step()

    def traced_world():
        calls.append("world")
        return world()

    engine.step, engine.world = traced_step, traced_world
    second = random_world(9, 6, 0.5, 2)
    engine.load(second)
    assert (engine.step, engine.world) == (traced_step, traced_world)
    engine.step()
    assert engine.world() == run("reference", second, 1)
    assert calls == ["step", "world"]


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_one_engine_steps_worlds_of_changing_size(kind):
    # Every size change builds a new state and binds step() to it: int
    # boards, planes at tall(70), a size held before, 1x1 and a word edge.
    engine = make_engine(kind)
    for seed, (w, h) in enumerate([(9, 6), (70, tall(70)), (9, 6), (1, 1), (65, 3)]):
        world = World(w, h, random_world(w, h, 0.5, seed).words, generation=10 * seed)
        engine.load(world)
        for _ in range(2):
            engine.step()
            world = naive_step(world)
            out = engine.world()
            assert out == world, f"divergence at {w}x{h}"
            assert out.generation == world.generation


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_class_patch_of_world_reaches_loaded_engines(kind, monkeypatch):
    # perfbench's corrupted-engine test patches world() on the class, after
    # the engine was made, so no load may bind world() on the instance.
    engine = make_engine(kind, random_world(9, 6, 0.5, 1))
    monkeypatch.setattr(type(engine), "world", lambda self: "patched")
    assert engine.world() == "patched"
    engine.load(random_world(5, 5, 0.5, 2))
    assert engine.world() == "patched"


@pytest.mark.parametrize("size", RECORD_SIZES, ids=RECORD_IDS)
@pytest.mark.parametrize("kind", ["bitsliced", "circuit"])
def test_readback_reload_after_foreign_load(kind, size):
    # The foreign world has the readback's generation, so only the record's
    # clear on a full load tells the readback's cells from the foreign ones.
    assert RECORD_SIZES[1][1] >= tall(64)  # planes for both engines
    start, foreign = record_worlds(*size)
    engine = make_engine(kind, start)
    engine.step()
    back = engine.world()
    engine.load(foreign)
    engine.load(back)
    engine.step()
    assert_stepped(engine.world(), start, 2)


@pytest.mark.parametrize("size", RECORD_SIZES, ids=RECORD_IDS)
@pytest.mark.parametrize("kind", ["bitsliced", "circuit"])
def test_readback_reload_after_tick(kind, size):
    start, _ = record_worlds(*size)
    engine = make_engine(kind, start)
    back = engine.world()
    engine.step()
    engine.load(back)  # rewinds the tick
    engine.step()
    assert_stepped(engine.world(), start, 1)
    world = start  # World-in/World-out, whose reloads are skipped
    for _ in range(3):
        world = run(engine, world, 1)
    assert_stepped(world, start, 3)


@pytest.mark.parametrize("size", RECORD_SIZES, ids=RECORD_IDS)
@pytest.mark.parametrize("kind", ["bitsliced", "circuit"])
def test_readback_reload_with_new_generation(kind, size):
    start, _ = record_worlds(*size)
    engine = make_engine(kind, start)
    engine.step()
    back = engine.world()
    back.generation = 7
    engine.load(back)
    assert engine.world().generation == 7
    engine.step()
    out = engine.world()
    assert out == naive_steps(start, 2) and out.generation == 8


def test_plane_steps_allocate_nothing():
    # 20 steps of the bit-sliced plane step and 20 ticks of the circuit's
    # plane tick, after one warm-up call, each peak below one plane's bytes.
    plane = 500 * ((500 + 64) >> 6) * 8  # 32,000 bytes: rows of 500 + 1 bits
    world = random_world(500, 500, 0.5, 7)
    netlist = elaborate(500, 500)
    netlist.load(world)
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


def test_plane_readback_allocates_one_world():
    # At 500x500 on planes: loading the World that world() just returned
    # allocates no more than calling a no-op in the same loop, and world()
    # one World's bytes and a small constant, the World and array views.
    def peak(calls, call, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(calls):
                out = call(*args)
            return tracemalloc.get_traced_memory()[1] - base, out
        finally:
            tracemalloc.stop()

    world = random_world(500, 500, 0.5, 7)
    netlist = elaborate(500, 500)
    assert netlist.describe()["evaluator"] == "planes"
    for engine in (make_engine("bitsliced", world), CircuitEngine(world, netlist)):
        engine.step()
        back = engine.world()
        engine.load(back)
        assert peak(20, engine.load, back) == peak(20, lambda _: None, back)
        readback, out = peak(1, engine.world)
        assert out == back
        assert readback <= len(world.data) + 1024
