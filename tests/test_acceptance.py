"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass. Budget assertions use wall time on the build machine.
"""

import math
import time

from helpers import BEACON_A, BEACON_B, MAC_POINTS, MAC_R2, FakeClock
from lifebench.bench import BenchConfig, linear_fit, run_bench, samples_to_csv, speedup
from lifebench.circuit import elaborate
from lifebench.energy import energy_per_step
from lifebench.engines import ENGINE_KINDS, CircuitEngine, make_engine, run
from lifebench.grid import Rng, parse_pattern, random_world
from lifebench.refdata import estimate_resources, load_calibration, load_device_times

# 1000 worlds: (size, world count), spanning 1x1 up to 100x100 with the
# bulk of the draws on small grids so the full three-engine sweep stays
# well inside its budget.
EQUIVALENCE_PALETTE = [
    ((1, 1), 70), ((1, 2), 60), ((2, 1), 60), ((2, 2), 60), ((3, 3), 60),
    ((1, 8), 55), ((8, 1), 55), ((4, 7), 55), ((7, 4), 55), ((5, 5), 55),
    ((8, 8), 50), ((9, 17), 45), ((13, 13), 45), ((16, 16), 40), ((10, 21), 40),
    ((25, 25), 35), ((32, 32), 30), ((40, 40), 25), ((17, 50), 20), ((3, 77), 20),
    ((64, 64), 25), ((63, 2), 20), ((80, 80), 10), ((91, 91), 5), ((100, 100), 5),
]


def test_criterion_1_golden_sequence():
    t0 = time.perf_counter()
    a = parse_pattern(BEACON_A)
    b = parse_pattern(BEACON_B)
    for kind in ENGINE_KINDS:
        stepped = run(kind, a, 1)
        assert stepped == b, f"{kind}: step(a) != b"
        assert run(kind, stepped, 1) == a, f"{kind}: step(step(a)) != a"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: beacon (a)->(b)->(a) exact on all engines "
          f"({elapsed:.3f}s)")


def test_criterion_2_cross_engine_equivalence():
    t0 = time.perf_counter()
    assert sum(count for _, count in EQUIVALENCE_PALETTE) == 1000
    rng = Rng(0xC2)
    netlists = {}
    worlds = 0
    for (w, h), count in EQUIVALENCE_PALETTE:
        if (w, h) not in netlists:
            netlists[(w, h)] = elaborate(w, h)
        for _ in range(count):
            world = random_world(w, h, 0.5, rng.next_u64())
            engines = [
                make_engine("reference", world),
                make_engine("bitsliced", world),
                CircuitEngine(world, netlist=netlists[(w, h)]),
            ]
            for step in range(50):
                for e in engines:
                    e.step()
                ref, bits, circ = (e.world() for e in engines)
                assert ref == bits, f"bitsliced diverged at {w}x{h} step {step + 1}"
                assert ref == circ, f"circuit diverged at {w}x{h} step {step + 1}"
            worlds += 1
    elapsed = time.perf_counter() - t0
    assert worlds == 1000
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: 1000 worlds x 50 steps identical on all engines "
          f"({elapsed:.1f}s)")


def test_criterion_3_resource_model_exact():
    t0 = time.perf_counter()
    for row in load_calibration().rows:
        side = int(round(row.cells ** 0.5))
        est = estimate_resources(side, side)
        assert est.registers == row.registers
        assert est.les == row.les
        assert est.min_clock_ns == row.min_clock_ns
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 3: all 10 calibration rows reproduced exactly "
          f"({elapsed:.3f}s)")


def test_criterion_4_energy_formulas():
    t0 = time.perf_counter()
    sw = energy_per_step(6.4, 109.964e-6)
    assert math.isclose(sw, 0.7037696e-3, rel_tol=1e-12)
    assert abs(sw - 0.703769e-3) < 1e-9  # agrees with the printed 6 digits
    hw = energy_per_step(24.0, 4e-9)
    assert math.isclose(hw, 96e-9, rel_tol=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 4: 6.4W x 109.964us = 0.7037696 mJ and "
          f"24W x 4ns = 96 nJ ({elapsed:.3f}s)")


def test_criterion_5_speedup_reproduction():
    t0 = time.perf_counter()
    checked = 0
    for row in load_device_times():
        for measured, printed in ((row.mac_us, row.speedup_mac),
                                  (row.raspberry_us, row.speedup_raspberry)):
            computed = speedup(measured, row.fpga_us)
            assert abs(computed - printed) / printed <= 0.01, \
                f"{row.world}: {computed} vs printed {printed}"
            checked += 1
    assert checked == 20
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 5: all 20 printed speedups within 1% "
          f"({elapsed:.3f}s)")


def test_criterion_6_scaling_shape():
    t0 = time.perf_counter()
    cfg = BenchConfig(sizes=tuple((k, k) for k in range(10, 101, 10)),
                      engine="reference", min_steps=1, min_duration=0.2,
                      warmup_steps=3, seed=0xC6)
    samples = run_bench(cfg)
    times = [(s.cells, s.ns_per_step) for s in samples]
    for (c1, t1), (c2, t2) in zip(times, times[1:]):
        assert t2 > t1, f"ns/step not strictly increasing: {c1}:{t1} -> {c2}:{t2}"
    fit = linear_fit(times)
    assert fit.slope > 0
    assert fit.r_squared >= 0.98
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    print(f"\nPASS criterion 6: reference times strictly increasing, "
          f"r2={fit.r_squared:.4f}, slope={fit.slope:.1f} ns/cell ({elapsed:.1f}s)")


def test_criterion_7_bitsliced_advantage():
    base = BenchConfig(sizes=((100, 100),), min_steps=1, min_duration=0.2,
                       warmup_steps=3, seed=0xC7)
    ref = run_bench(BenchConfig(**{**base.__dict__, "engine": "reference"}))[0]
    bits = run_bench(BenchConfig(**{**base.__dict__, "engine": "bitsliced",
                                    "warmup_steps": 100}))[0]
    ratio = ref.ns_per_step / bits.ns_per_step
    assert ratio >= 4.0, f"bit-sliced only {ratio:.1f}x faster at 100x100"
    print(f"\nPASS criterion 7: bit-sliced {ratio:.0f}x faster than reference "
          f"at 100x100 ({ref.ns_per_step:.0f} vs {bits.ns_per_step:.0f} ns/step)")


def test_criterion_8_harness_determinism():
    t0 = time.perf_counter()
    cfg = BenchConfig(sizes=((10, 10), (20, 20)), engine="bitsliced",
                      min_steps=500, min_duration=0.0, warmup_steps=10, seed=0xC8)
    a = samples_to_csv(run_bench(cfg, clock=FakeClock(4321))).encode()
    b = samples_to_csv(run_bench(cfg, clock=FakeClock(4321))).encode()
    assert a == b
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 8: fake-clock benchmark CSV byte-identical "
          f"({elapsed:.3f}s)")


def test_criterion_9_regression_unit():
    t0 = time.perf_counter()
    fit = linear_fit([(1, 2), (2, 4), (3, 6)])
    assert fit.slope == 2.0 and fit.intercept == 0.0 and fit.r_squared == 1.0
    mac = linear_fit(MAC_POINTS)
    assert mac.r_squared > 0.99
    assert math.isclose(mac.r_squared, MAC_R2, rel_tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 9: exact affine fit; published Mac column "
          f"r2={mac.r_squared:.6f} ({elapsed:.3f}s)")
