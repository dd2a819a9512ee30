import math

import pytest

from lifebench.bench import BenchSample
from lifebench.energy import (DEFAULT_PROFILES, ComparisonRow, EnergyInputError,
                              NonpositivePower, PowerProfile, comparison_csv,
                              comparison_markdown, comparison_table, energy_per_step,
                              energy_ratio, format_energy)
from lifebench.refdata import load_calibration, load_device_times, published_samples


def test_energy_published_anchors():
    # 6.4 W for 109.964 us -> 0.7037696 mJ; 24 W for 4 ns -> 96 nJ
    sw = energy_per_step(6.4, 109.964e-6)
    assert math.isclose(sw, 0.7037696e-3, rel_tol=1e-12)
    hw = energy_per_step(24.0, 4e-9)
    assert math.isclose(hw, 96e-9, rel_tol=1e-12)


def test_energy_zero_time():
    assert energy_per_step(5.0, 0.0) == 0.0


def test_energy_linearity():
    base = energy_per_step(3.0, 2e-6)
    assert math.isclose(energy_per_step(6.0, 2e-6), 2 * base, rel_tol=1e-12)
    assert math.isclose(energy_per_step(3.0, 4e-6), 2 * base, rel_tol=1e-12)


def test_energy_errors():
    with pytest.raises(NonpositivePower):
        energy_per_step(0.0, 1.0)
    with pytest.raises(NonpositivePower):
        energy_per_step(-2.0, 1.0)
    for watts in (math.nan, math.inf):
        with pytest.raises(NonpositivePower):
            energy_per_step(watts, 1.0)
    for seconds in (-1.0, math.nan, math.inf):
        with pytest.raises(EnergyInputError):
            energy_per_step(1.0, seconds)


@pytest.mark.parametrize("watts, seconds", [(1e10, 1e299), (1e308, 10.0),  # overflow to inf
                                            (1e-320, 4e-9), (1e-200, 1e-200)])  # underflow to 0
def test_energy_out_of_float_range(watts, seconds):
    with pytest.raises(EnergyInputError, match="out of floating-point range"):
        energy_per_step(watts, seconds)


def test_energy_tiny_but_representable():
    assert energy_per_step(1e-300, 4.8e-9) > 0  # a subnormal product is kept
    assert energy_per_step(1e-320, 0.0) == 0.0  # zero time is zero energy


def test_energy_ratio():
    assert energy_ratio(0.7037696e-3, 96e-9) == 0.7037696e-3 / 96e-9
    with pytest.raises(EnergyInputError, match="energy ratio is out of floating-point range"):
        energy_ratio(1e300, 1e-300)


def test_format_energy_units():
    assert format_energy(96e-9) == "96 nJ"
    assert format_energy(0.7037696e-3) == "703.8 uJ"
    assert format_energy(1.5e-3) == "1.5 mJ"
    assert format_energy(2.25) == "2.25 J"


def test_default_profiles():
    assert DEFAULT_PROFILES["fpga"].watts == 24.0
    assert DEFAULT_PROFILES["raspberry"].watts == 6.4
    assert DEFAULT_PROFILES["fpga"].source


def _published_device_samples():
    mac, rasp = [], []
    for row in load_device_times():
        w, h = row.size
        mac.append(BenchSample(w, h, row.cells, "published", 1, int(round(row.mac_us * 1000))))
        rasp.append(BenchSample(w, h, row.cells, "published", 1,
                                int(round(row.raspberry_us * 1000))))
    return {"mac": mac, "raspberry": rasp}


def test_published_samples_match_device_table():
    assert published_samples() == _published_device_samples()


def test_comparison_reproduces_published_speedups():
    rows = comparison_table(_published_device_samples())
    printed = {("mac", r.cells): r.speedup_mac for r in load_device_times()}
    printed.update({("raspberry", r.cells): r.speedup_raspberry for r in load_device_times()})
    checked = 0
    for row in rows:
        if row.device in ("mac", "raspberry"):
            expected = printed[(row.device, row.cells)]
            assert abs(row.speedup_vs_fpga - expected) / expected <= 0.01
            checked += 1
    assert checked == 20


def test_comparison_fpga_rows():
    rows = comparison_table(_published_device_samples())
    fpga_rows = [r for r in rows if r.device == "fpga"]
    assert len(fpga_rows) == 10
    for r in fpga_rows:
        assert r.speedup_vs_fpga == 1.0
        # 24 W at the modeled clock
        assert math.isclose(r.energy_j, 24.0 * r.ns_per_step * 1e-9, rel_tol=1e-12)


def test_comparison_energy_column():
    rows = comparison_table(_published_device_samples())
    rasp_100 = [r for r in rows if r.device == "raspberry" and r.cells == 10000]
    assert len(rasp_100) == 1
    assert math.isclose(rasp_100[0].energy_j, 0.7037696e-3, rel_tol=1e-12)


def test_published_fpga_column_matches_calibration():
    # static consistency: the published FPGA us/step equals the calibration
    # table's min clock period for every size
    clocks = {row.cells: row.min_clock_ns for row in load_calibration().rows}
    for row in load_device_times():
        assert math.isclose(row.fpga_us * 1000, clocks[row.cells], rel_tol=1e-12)


def test_comparison_single_device_single_size():
    samples = {"lab": [BenchSample(10, 10, 100, "reference", 5, 10_000)]}
    rows = comparison_table(samples, profiles={})
    assert len(rows) == 2  # the device row plus the FPGA model row
    lab = [r for r in rows if r.device == "lab"][0]
    assert lab.energy_j is None
    assert math.isclose(lab.speedup_vs_fpga, 2000 / 4.0, rel_tol=1e-12)
    fpga = [r for r in rows if r.device == "fpga"][0]
    assert fpga.speedup_vs_fpga == 1.0


def test_comparison_rejects_reserved_name():
    with pytest.raises(ValueError):
        comparison_table({"fpga": [BenchSample(10, 10, 100, "x", 1, 100)]})


def test_comparison_deterministic():
    samples = _published_device_samples()
    assert comparison_table(samples) == comparison_table(samples)


def test_emitters_shape():
    rows = [ComparisonRow("dev", 10, 10, 100, 2000.0, 500.0, 1.28e-5),
            ComparisonRow("fpga", 10, 10, 100, 4.0, 1.0, 9.6e-8)]
    md = comparison_markdown(rows)
    lines = md.splitlines()
    assert lines[0].startswith("| World | Cells | Device |")
    assert len(lines) == 2 + len(rows)
    assert "| 10x10 | 100 | dev | 2.0000 | 500.0 | 12.8 uJ |" in lines
    csv_text = comparison_csv(rows)
    csv_lines = csv_text.splitlines()
    assert csv_lines[0] == "world,cells,device,ns_per_step,speedup_vs_fpga,energy_j_per_step"
    assert len(csv_lines) == 1 + len(rows)
    assert csv_lines[1].startswith("10x10,100,dev,2000.000,500.000,")
