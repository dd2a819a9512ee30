import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lifebench.bench import (CSV_HEADER, BenchConfig, BenchSample, ClockError,
                             CsvSchemaError, DEFAULT_SIZES, DegeneratePoints, ZeroDivisor,
                             linear_fit, read_csv, run_bench, samples_to_csv, speedup)
from lifebench.engines import ENGINE_KINDS
from lifebench.refdata import OutOfRange, fpga_time_model

from helpers import MAC_INTERCEPT, MAC_POINTS, MAC_R2, MAC_SLOPE, FakeClock


def test_fake_clock_exact_ns_per_step():
    cfg = BenchConfig(sizes=((10, 10),), engine="bitsliced", min_steps=1000,
                      min_duration=0.0, warmup_steps=0, seed=1)
    samples = run_bench(cfg, clock=FakeClock(5000))
    assert len(samples) == 1
    s = samples[0]
    assert (s.width, s.height, s.cells) == (10, 10, 100)
    assert s.steps == 1000
    assert s.total_ns == 5_000_000
    assert s.ns_per_step == 5000.0
    # exact integer identity behind the derived ns/step
    assert Fraction(s.total_ns, s.steps) * s.steps == s.total_ns


def test_run_bench_respects_duration_floor():
    # 1 us per step against a 1 ms floor: needs 1000 steps, not min_steps
    cfg = BenchConfig(sizes=((5, 5),), engine="bitsliced", min_steps=1,
                      min_duration=0.001, warmup_steps=0)
    samples = run_bench(cfg, clock=FakeClock(1000))
    assert samples[0].steps == 1000


def test_run_bench_clock_regression_detected():
    class BadClock:
        def __init__(self):
            self.n = 0

        def __call__(self):
            self.n += 1
            return -self.n * 10

    cfg = BenchConfig(sizes=((4, 4),), engine="bitsliced", min_steps=5,
                      min_duration=0.0, warmup_steps=0)
    with pytest.raises(ClockError):
        run_bench(cfg, clock=BadClock())


def test_run_bench_deterministic_csv():
    cfg = BenchConfig(sizes=((8, 8), (12, 12)), engine="bitsliced", min_steps=200,
                      min_duration=0.0, warmup_steps=10, seed=7)
    a = samples_to_csv(run_bench(cfg, clock=FakeClock(137)))
    b = samples_to_csv(run_bench(cfg, clock=FakeClock(137)))
    assert a.encode() == b.encode()


def test_config_validation():
    with pytest.raises(ValueError):
        run_bench(BenchConfig(sizes=()))
    with pytest.raises(ValueError):
        run_bench(BenchConfig(engine="nope"))
    with pytest.raises(ValueError):
        run_bench(BenchConfig(min_steps=0))
    with pytest.raises(ValueError):
        run_bench(BenchConfig(density=1.5))


def test_default_sizes_ladder():
    assert DEFAULT_SIZES == tuple((k, k) for k in range(10, 101, 10))


def test_csv_header_and_shape():
    cfg = BenchConfig(sizes=((10, 10),), engine="reference", min_steps=3,
                      min_duration=0.0, warmup_steps=0)
    text = samples_to_csv(run_bench(cfg, clock=FakeClock(500)))
    lines = text.splitlines()
    assert lines[0] == "width,height,cells,engine,steps,total_ns,ns_per_step"
    assert lines[0] == CSV_HEADER
    assert lines[1] == "10,10,100,reference,3,1500,500.000"


def test_csv_roundtrip():
    cfg = BenchConfig(sizes=((6, 4), (10, 10)), engine="bitsliced", min_steps=17,
                      min_duration=0.0, warmup_steps=0)
    samples = run_bench(cfg, clock=FakeClock(123))
    parsed = read_csv(samples_to_csv(samples))
    assert parsed == samples


def test_csv_schema_mismatch_names_column():
    with pytest.raises(CsvSchemaError, match="total_ns"):
        read_csv("width,height,cells,engine,steps,ns_per_step\n1,1,1,x,1,1.0\n")
    with pytest.raises(CsvSchemaError):
        read_csv("")
    with pytest.raises(CsvSchemaError, match="line 2"):
        read_csv(CSV_HEADER + "\n1,1,1,x,banana,10,1.0\n")


_SAMPLES = st.lists(st.builds(
    lambda w, h, engine, steps, total_ns: BenchSample(w, h, w * h, engine, steps, total_ns),
    st.integers(1, 10 ** 6), st.integers(1, 10 ** 6), st.sampled_from(ENGINE_KINDS),
    st.integers(1, 2 ** 64), st.integers(0, 2 ** 63 - 1)), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(_SAMPLES)
def test_csv_roundtrip_any_samples(samples):
    assert read_csv(samples_to_csv(samples)) == samples


def _reads_as(text, value):
    try:
        return float(text) == float(value)
    except ValueError:
        return False


@settings(max_examples=200, deadline=None)
@given(_SAMPLES, st.data())
def test_csv_rejects_corrupt_row(samples, data):
    lines = samples_to_csv(samples).splitlines()
    row = data.draw(st.integers(1, len(samples)))
    cols = lines[row].split(",")
    if data.draw(st.booleans()):  # an ns_per_step that disagrees with total_ns / steps
        bad = data.draw(st.one_of(st.floats().map(repr), st.text("0123456789.-e", max_size=8)))
        assume(not _reads_as(bad, cols[6]))
        cols[6] = bad
    elif data.draw(st.booleans()):
        cols.pop()
    else:
        cols.append("0")
    lines[row] = ",".join(cols)
    with pytest.raises(CsvSchemaError, match=f"^line {row + 1}: "):
        read_csv("\n".join(lines) + "\n")


def test_csv_ns_per_step_checked():
    row = "10,10,100,reference,3,1000,{}\n"
    assert read_csv(CSV_HEADER + "\n" + row.format("333.333"))[0].total_ns == 1000
    assert read_csv(CSV_HEADER + "\n" + row.format("333.3330"))[0].total_ns == 1000
    for bad in ("9.5", "333.33", "333.334", "nan"):
        with pytest.raises(CsvSchemaError, match="line 2: ns_per_step"):
            read_csv(CSV_HEADER + "\n" + row.format(bad))
    with pytest.raises(CsvSchemaError, match="^line 2: ns_per_step '' is not a number$"):
        read_csv(CSV_HEADER + "\n" + row.format(""))


@pytest.mark.parametrize("column", [0, 1, 2, 4, 5, 6])
def test_csv_unparsable_cell_names_column(column):
    cols = "10,10,100,reference,3,1000,333.333".split(",")
    cols[column] = "banana"
    name = CSV_HEADER.split(",")[column]
    what = "a number" if name == "ns_per_step" else "an integer"
    with pytest.raises(CsvSchemaError, match=f"^line 2: {name} 'banana' is not {what}$"):
        read_csv(CSV_HEADER + "\n" + ",".join(cols) + "\n")


def test_linear_fit_exact_line():
    fit = linear_fit([(1, 2), (2, 4), (3, 6)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_linear_fit_constant_data_convention():
    fit = linear_fit([(0, 1), (1, 1), (2, 1)])
    assert fit.slope == pytest.approx(0.0, abs=1e-15)
    assert fit.intercept == pytest.approx(1.0, abs=1e-15)
    assert fit.r_squared == 1.0  # zero-variance y counts as a perfect fit


def test_linear_fit_order_invariant():
    pts = [(3.0, 1.5), (10.0, 4.0), (5.0, 2.0), (8.0, 3.9)]
    a = linear_fit(pts)
    b = linear_fit(list(reversed(pts)))
    assert a == b


def test_linear_fit_degenerate():
    with pytest.raises(DegeneratePoints):
        linear_fit([(1, 1)])
    with pytest.raises(DegeneratePoints):
        linear_fit([(2, 1), (2, 5), (2, 9)])


def test_linear_fit_published_mac_column():
    fit = linear_fit(MAC_POINTS)
    assert math.isclose(fit.slope, MAC_SLOPE, rel_tol=1e-9)
    assert math.isclose(fit.intercept, MAC_INTERCEPT, rel_tol=1e-9)
    assert math.isclose(fit.r_squared, MAC_R2, rel_tol=1e-9)
    assert fit.r_squared > 0.99


def test_speedup():
    assert speedup(0.10, 0.0040) == pytest.approx(25.0, rel=1e-12)
    assert speedup(7.5, 7.5) == 1.0
    with pytest.raises(ZeroDivisor):
        speedup(1.0, 0.0)


def test_fpga_time_model_rows():
    assert fpga_time_model((10, 10)) == 4.0
    assert fpga_time_model((50, 50)) == 4.4
    assert fpga_time_model((100, 100)) == 4.8


def test_fpga_time_model_bracketing():
    # 850 cells falls between the 400-cell (4.0) and 900-cell (4.1) rows
    assert fpga_time_model((25, 34)) == 4.1


def test_fpga_time_model_out_of_range():
    with pytest.raises(OutOfRange):
        fpga_time_model((5, 5))


def test_real_clock_smoke():
    cfg = BenchConfig(sizes=((8, 8),), engine="bitsliced", min_steps=50,
                      min_duration=0.0, warmup_steps=10)
    s = run_bench(cfg)[0]
    assert s.steps == 50
    assert s.total_ns > 0
    assert s.ns_per_step > 0
