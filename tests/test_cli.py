import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lifebench
from helpers import BEACON_A, BEACON_B
from lifebench.cli import main, parse_size, parse_sizes


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def beacon_file(tmp_path):
    path = tmp_path / "beacon.txt"
    path.write_text(BEACON_A)
    return str(path)


# ---------------------------------------------------------------------------
# size parsing
# ---------------------------------------------------------------------------


def test_parse_size():
    assert parse_size("10x10") == (10, 10)
    assert parse_size("3X7") == (3, 7)
    for bad in ("10", "0x5", "axb", "10x-1"):
        with pytest.raises(Exception):
            parse_size(bad)


def test_parse_sizes_ladder_and_list():
    assert parse_sizes("10x10..100x100:10") == tuple((k, k) for k in range(10, 101, 10))
    assert parse_sizes("3x4,5x6") == ((3, 4), (5, 6))
    assert parse_sizes("2x2..10x10:4") == ((2, 2), (6, 6), (10, 10))
    with pytest.raises(Exception):
        parse_sizes("10x10..5x5:10")


def test_bad_flags_exit_2(beacon_file, capsys):
    """An argument error is one `error: ` line and exit 2, with no usage text."""
    for argv in (["run", beacon_file, "--engine", "warp"], ["bench", "--sizes", "banana"], [],
                 ["report", "--power", "=3"], ["run", beacon_file, "--steps", "x"],
                 ["bench", "--min-steps", "-1"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    _, _, err = run_cli(["run", beacon_file, "--steps", "x"], capsys)
    assert err == "error: argument --steps: expected a nonnegative integer, got 'x'\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: lifebench run ") and err == ""


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_beacon_period_two(beacon_file, capsys):
    code, out, _ = run_cli(["run", beacon_file, "--engine", "circuit", "--steps", "2"],
                           capsys)
    assert code == 0
    assert out == BEACON_A


def test_run_zero_steps_echo(beacon_file, capsys):
    code, out, _ = run_cli(["run", beacon_file, "--steps", "0"], capsys)
    assert code == 0
    assert out == BEACON_A


def test_run_engines_agree(beacon_file, capsys):
    outputs = set()
    for engine in ("reference", "bitsliced", "circuit"):
        code, out, _ = run_cli(["run", beacon_file, "--engine", engine, "--steps", "1"],
                               capsys)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_run_out_file(beacon_file, tmp_path, capsys):
    out_path = tmp_path / "result.txt"
    code, out, _ = run_cli(["run", beacon_file, "--steps", "2", "--out", str(out_path)],
                           capsys)
    assert code == 0
    assert out == ""
    assert out_path.read_text() == BEACON_A


def test_run_ragged_pattern_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("OO\nO\n")
    code, _, err = run_cli(["run", str(path)], capsys)
    assert code == 2
    assert "line 2" in err


def test_run_out_in_missing_dir_fails_before_stepping(beacon_file, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(lifebench.cli, "run", lambda *a: pytest.fail("stepped before --out opened"))
    code, out, err = run_cli(["run", beacon_file, "--steps", "20000",
                              "--out", str(tmp_path / "nodir" / "x.txt")], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "nodir" in err
    # a bad pattern fails before --out is opened, so it leaves the file as it was
    kept, ragged = tmp_path / "kept.txt", tmp_path / "ragged.txt"
    kept.write_text(BEACON_B)
    ragged.write_text("OO\nO\n")
    code, _, _ = run_cli(["run", str(ragged), "--out", str(kept)], capsys)
    assert code == 2 and kept.read_text() == BEACON_B


def test_run_missing_file_exit_1(capsys):
    code, _, err = run_cli(["run", "/nonexistent/pattern.txt"], capsys)
    assert code == 1
    assert "error" in err


_LOAD_PROBE = """
import json, sys
import lifebench, lifebench.cli
codes = [lifebench.cli.main(["run", sys.argv[1], "--engine", "bitsliced", "--out", sys.argv[2]]),
         lifebench.cli.main(["run", sys.argv[3]]),
         lifebench.cli.main(["run", "p", "--engine", "warp"])]
deferred = ("lifebench.bench", "lifebench.energy", "lifebench.refdata")
loaded = [name for name in deferred if name in sys.modules]
star = {}
exec("from lifebench import *", star)
print(json.dumps({
    "codes": codes, "loaded": loaded,
    "resolved": [lifebench.energy.__name__, lifebench.refdata.__name__,
                 lifebench.BenchConfig.__qualname__],
    "star": sorted(name for name in star if name != "__builtins__"),
    "nope": hasattr(lifebench, "nope"),
}))
"""


def test_run_loads_no_bench_energy_or_refdata(tmp_path):
    """In a fresh interpreter, `run` leaves bench, energy and refdata unimported,
    on success and on error, and each still resolves on first use."""
    pattern, out, ragged = tmp_path / "block.txt", tmp_path / "out.txt", tmp_path / "ragged.txt"
    pattern.write_text("OO\nOO\n")
    ragged.write_text("OO\nO\n")
    env = {**os.environ, "PYTHONPATH": str(Path(lifebench.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _LOAD_PROBE, str(pattern), str(out), str(ragged)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 2, 2] and out.read_text() == "OO\nOO\n"
    assert result["loaded"] == []
    assert result["resolved"] == ["lifebench.energy", "lifebench.refdata", "BenchConfig"]
    assert result["star"] == sorted(lifebench.__all__)
    assert result["nope"] is False


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_single_size_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code, out, err = run_cli(
        ["bench", "--sizes", "10x10", "--engine", "bitsliced", "--min-steps", "1000",
         "--min-duration", "0", "--warmup", "10", "--seed", "1",
         "--csv", str(csv_path)], capsys)
    assert code == 0
    assert "10x10 cells=100" in out
    assert "warning" in err  # single size: no trend line
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "width,height,cells,engine,steps,total_ns,ns_per_step"
    assert len(lines) == 2
    assert lines[1].startswith("10,10,100,bitsliced,1000,")


def test_bench_default_ladder_csv(tmp_path, capsys):
    # the default --sizes value is the 10x10..100x100 ladder: 10 CSV rows
    csv_path = tmp_path / "ladder.csv"
    code, _, _ = run_cli(
        ["bench", "--engine", "bitsliced", "--min-steps", "20",
         "--min-duration", "0", "--warmup", "2", "--csv", str(csv_path)], capsys)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 11
    assert [int(ln.split(",")[2]) for ln in lines[1:]] == \
        [100, 400, 900, 1600, 2500, 3600, 4900, 6400, 8100, 10000]


def test_bench_circuit_engine(capsys):
    code, out, _ = run_cli(
        ["bench", "--sizes", "6x6,12x12", "--engine", "circuit", "--min-steps", "50",
         "--min-duration", "0", "--warmup", "5"], capsys)
    assert code == 0
    assert "6x6 cells=36" in out


def test_bench_two_sizes_prints_fit(capsys):
    code, out, _ = run_cli(
        ["bench", "--sizes", "8x8,24x24", "--engine", "bitsliced", "--min-steps", "500",
         "--min-duration", "0", "--warmup", "10"], capsys)
    assert code == 0
    assert "fit: slope=" in out


def test_bench_csv_in_missing_dir_fails_before_timing(tmp_path, capsys, monkeypatch):
    from lifebench import bench
    monkeypatch.setattr(bench, "run_bench", lambda cfg: pytest.fail("timed before --csv opened"))
    code, out, err = run_cli(["bench", "--sizes", "4x4", "--min-steps", "1", "--warmup", "0",
                              "--csv", str(tmp_path / "nodir" / "b.csv")], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "nodir" in err


@pytest.mark.parametrize("flag, value", [("--min-duration", "nan"), ("--min-duration", "inf"),
                                         ("--min-duration", "-1"), ("--min-duration", "1e300"),
                                         ("--min-duration", "1e10"), ("--density", "nan")])
def test_bench_non_finite_exit_2(flag, value, capsys):
    code, out, err = run_cli(["bench", "--sizes", "8x8", "--min-steps", "1",
                              "--warmup", "0", flag, value], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_100x100(capsys):
    code, out, _ = run_cli(["estimate", "--size", "100x100"], capsys)
    assert code == 0
    assert "registers: 10004" in out
    assert "logic elements: 97871" in out
    assert "min clock period: 4.8 ns" in out


def test_estimate_energy_anchors(capsys):
    code, out, _ = run_cli(
        ["estimate", "--size", "100x100", "--power-sw", "6.4",
         "--sw-ns-per-step", "109964"], capsys)
    assert code == 0
    assert "703.8 uJ" in out
    assert "0.0007037696 J" in out
    assert "speedup fpga vs software: 22909.2" in out


def test_estimate_10x10_fpga_energy(capsys):
    code, out, _ = run_cli(["estimate", "--size", "10x10"], capsys)
    assert code == 0
    assert "96 nJ" in out


def test_estimate_out_of_range_exit_2(capsys):
    code, _, err = run_cli(["estimate", "--size", "5x5"], capsys)
    assert code == 2
    assert "calibration range" in err
    code, out, _ = run_cli(["estimate", "--size", "5x5", "--extrapolate"], capsys)
    assert code == 0
    assert "registers: 29" in out


@pytest.mark.parametrize("args", [["--sw-ns-per-step", "-5"], ["--sw-ns-per-step", "nan"],
                                  ["--power-fpga", "nan"], ["--power-fpga", "inf"],
                                  ["--power-sw", "-1", "--sw-ns-per-step", "5"]])
def test_estimate_bad_numbers_exit_2(args, capsys):
    code, out, err = run_cli(["estimate", "--size", "50x50", *args], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["--power-fpga", "1e-320", "--sw-ns-per-step", "5"],  # FPGA energy underflows to 0
    ["--power-sw", "1e10", "--sw-ns-per-step", "1e308"],  # software energy overflows
    ["--power-fpga", "1e-300", "--sw-ns-per-step", "1e9"],  # the energy ratio overflows
])
def test_estimate_energy_out_of_range_exit_2(args, capsys):
    code, out, err = run_cli(["estimate", "--size", "10x10", *args], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "out of floating-point range" in err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def bench_csv(tmp_path, name, rows):
    lines = ["width,height,cells,engine,steps,total_ns,ns_per_step"]
    for w, h, steps, total in rows:
        lines.append(f"{w},{h},{w * h},reference,{steps},{total},{total / steps:.3f}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_report_published_speedups(capsys):
    code, out, _ = run_cli(["report", "--published", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "world,cells,device,ns_per_step,speedup_vs_fpga,energy_j_per_step"
    assert len(lines) == 1 + 30  # 10 sizes x (mac, raspberry, fpga)
    mac10 = [ln for ln in lines if ln.startswith("10x10,100,mac")]
    assert len(mac10) == 1
    assert float(mac10[0].split(",")[4]) == pytest.approx(25.0, rel=0.01)


def test_report_pipeline_lossless(tmp_path, capsys):
    path = bench_csv(tmp_path, "dev.csv", [(10, 10, 100, 250_000), (20, 20, 100, 900_000)])
    code, out, _ = run_cli(["report", "--input", f"lab={path}", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    lab_rows = [ln for ln in lines if ",lab," in ln]
    assert len(lab_rows) == 2  # every sample row appears exactly once
    fpga_rows = [ln for ln in lines if ",fpga," in ln]
    assert len(fpga_rows) == 2


def test_report_plot_data_affine(tmp_path, capsys):
    # synthetic exactly-affine times: fit must be perfect
    rows = [(10, 10, 1000, 1_000 * 1100), (20, 20, 1000, 1_000 * 4400),
            (30, 30, 1000, 1_000 * 9900)]  # ns/step = 11*cells
    path = bench_csv(tmp_path, "aff.csv", rows)
    prefix = str(tmp_path / "plot")
    code, _, err = run_cli(["report", "--input", f"aff={path}",
                            "--plot-data", prefix], capsys)
    assert code == 0
    data = (tmp_path / "plot_aff.csv").read_text().splitlines()
    assert data[0] == "cells,ns_per_step,fit_ns"
    assert len(data) == 4
    fit = (tmp_path / "plot_aff_fit.csv").read_text().splitlines()
    assert fit[0] == "slope_ns_per_cell,intercept_ns,r_squared"
    slope, intercept, r2 = map(float, fit[1].split(","))
    assert slope == pytest.approx(11.0, rel=1e-9)
    assert intercept == pytest.approx(0.0, abs=1e-6)
    assert r2 == 1.0


def test_report_single_row_warns_no_fit(tmp_path, capsys):
    path = bench_csv(tmp_path, "one.csv", [(10, 10, 100, 250_000)])
    prefix = str(tmp_path / "p")
    code, out, err = run_cli(["report", "--input", f"one={path}",
                              "--plot-data", prefix], capsys)
    assert code == 0
    assert out.count("| 10x10 | 100 |") == 2  # device row plus FPGA row
    assert "trend line" in err
    assert (tmp_path / "p_one.csv").exists()
    assert not (tmp_path / "p_one_fit.csv").exists()


def test_report_plot_data_in_missing_dir_fails_before_the_table(tmp_path, capsys):
    path = bench_csv(tmp_path, "dev.csv", [(10, 10, 100, 250_000), (20, 20, 100, 900_000)])
    code, out, err = run_cli(["report", "--input", f"lab={path}",
                              "--plot-data", str(tmp_path / "nodir" / "p")], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "nodir" in err
    assert not any(tmp_path.glob("**/p_*"))


def test_report_plot_data_label_with_separator_fails_before_the_table(tmp_path, capsys):
    # The label a/b puts PREFIX_a/b.csv in a directory PREFIX_a, which is
    # checked, like the prefix's own, before anything is printed.
    path = bench_csv(tmp_path, "dev.csv", [(10, 10, 100, 250_000), (20, 20, 100, 900_000)])
    argv = ["report", "--input", f"a/b={path}", "--plot-data", str(tmp_path / "out")]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: no such directory: {tmp_path / 'out_a'}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dev.csv"]
    (tmp_path / "out_a").mkdir()
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and "| a/b |" in out
    assert sorted(p.name for p in (tmp_path / "out_a").iterdir()) == ["b.csv", "b_fit.csv"]


def test_report_schema_mismatch_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("width,height,cells,steps,total_ns\n10,10,100,1,100\n")
    code, _, err = run_cli(["report", "--input", str(path)], capsys)
    assert code == 2
    assert "engine" in err  # the missing column is named


def test_report_no_inputs_exit_2(capsys):
    code, _, err = run_cli(["report"], capsys)
    assert code == 2


def test_report_power_override(tmp_path, capsys):
    path = bench_csv(tmp_path, "dev.csv", [(10, 10, 100, 250_000)])
    code, out, _ = run_cli(["report", "--input", f"lab={path}", "--power", "lab=2.0",
                            "--format", "csv"], capsys)
    assert code == 0
    lab = [ln for ln in out.splitlines() if ",lab," in ln][0]
    energy = float(lab.split(",")[5])
    assert energy == pytest.approx(2.0 * 2500e-9, rel=1e-9)
    for bad in ("lab=x", "lab=nan", "lab=inf"):
        code, _, err = run_cli(["report", "--input", f"lab={path}", "--power", bad], capsys)
        assert code == 2


@pytest.mark.parametrize("row", [
    "10,10,100,reference,0,100,0",        # steps = 0
    "10,10,100,reference,1,-100,-100.0",  # negative total_ns
    "0,10,0,reference,1,100,100.0",       # zero width
    "10,0,0,reference,1,100,100.0",       # zero height
    "10,10,99,reference,1,100,100.0",     # cells != width * height
])
def test_report_impossible_row_exit_2(tmp_path, capsys, row):
    path = tmp_path / "bad.csv"
    path.write_text("width,height,cells,engine,steps,total_ns,ns_per_step\n" + row + "\n")
    for fmt in ("csv", "md"):
        code, out, err = run_cli(["report", "--input", f"lab={path}", "--format", fmt],
                                 capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "line 2: " in err


def test_report_power_underflow_exit_2(capsys):
    code, out, err = run_cli(["report", "--published", "--power", "mac=1e-320"], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "out of floating-point range" in err


def test_report_reserved_fpga_label_exit_2(tmp_path, capsys):
    path = bench_csv(tmp_path, "dev.csv", [(10, 10, 100, 250_000)])
    code, out, err = run_cli(["report", "--input", f"fpga={path}"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: device name 'fpga' is reserved for the FPGA model\n"


@pytest.mark.parametrize("argv", [["--input", "=PATH"], ["--input", "lab=PATH", "--power", "=3"]])
def test_report_empty_label_exit_2(tmp_path, capsys, argv):
    path = bench_csv(tmp_path, "x.csv", [(10, 10, 100, 250_000), (20, 20, 100, 900_000)])
    argv = [arg.replace("PATH", path) for arg in argv]
    code, out, err = run_cli(["report", *argv, "--format", "csv",
                              "--plot-data", str(tmp_path / "pe")], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "nonempty label" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


@pytest.mark.parametrize("label, argv", [
    ("run", ["--input", "DIR/a/run.csv", "--input", "DIR/b/run.csv"]),  # both default to the stem
    ("mac", ["--published", "--input", "mac=DIR/a/run.csv"]),
])
def test_report_label_given_twice_exit_2(tmp_path, capsys, label, argv):
    # A second set of samples under one label would silently replace the first.
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        bench_csv(tmp_path / d, "run.csv", [(10, 10, 100, 250_000), (20, 20, 100, 900_000)])
    code, out, err = run_cli(["report", *(arg.replace("DIR", str(tmp_path)) for arg in argv)],
                             capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: device label {label!r} is given twice\n"


@pytest.mark.parametrize("power, message", [
    (["pi=3", "pi=5"], "--power label 'pi' is given twice"),  # the last would win
    (["typo=3"], "--power label 'typo' names no device of the report"),  # would be ignored
    (["raspberry=3"], "--power label 'raspberry' names no device of the report"),
], ids=["twice", "unknown", "default-profile"])
def test_report_power_label_exit_2(tmp_path, capsys, power, message):
    path = bench_csv(tmp_path, "pi.csv", [(10, 10, 100, 250_000)])
    argv = ["report", "--input", f"pi={path}", *(f"--power={spec}" for spec in power)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run_cli([*argv[:3], "--power", "fpga=30"], capsys)  # the model's own label
    assert code == 0 and out


def test_report_empty_input_path_exit_2(capsys):
    code, out, err = run_cli(["report", "--input", "lab="], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "nonempty label and path" in err


def test_report_ns_per_step_mismatch_exit_2(tmp_path, capsys):
    path = tmp_path / "mism.csv"
    path.write_text("width,height,cells,engine,steps,total_ns,ns_per_step\n"
                    "10,10,100,reference,3,1000,9.5\n")
    code, out, err = run_cli(["report", "--input", f"lab={path}"], capsys)
    assert code == 2
    assert out == ""
    assert err == (f"error: {path}: line 2: ns_per_step 9.5 is not "
                   "total_ns / steps = 333.333\n")


# ---------------------------------------------------------------------------
# argument fuzzing: every input succeeds or fails cleanly
# ---------------------------------------------------------------------------

_NUMBER = st.one_of(st.sampled_from(["1e-320", "1e-300", "1e308", "0", "-0.0", "-1", "nan",
                                     "inf", "x", ""]),
                    st.floats(1e-3, 1e6).map(repr), st.floats().map(repr))
_SIZE = st.one_of(st.tuples(st.integers(1, 120), st.integers(1, 120)).map("{0[0]}x{0[1]}".format),
                  st.sampled_from(["5x5", "100x100", "x", "10", "-3x4", ""]))
_LABEL = st.sampled_from(["lab", "mac", "raspberry", "fpga", ""])
_HEADER = "width,height,cells,engine,steps,total_ns,ns_per_step"
# Mostly rows the table accepts; test_report_impossible_row_exit_2 covers the others.
_CSV_ROW = st.tuples(st.integers(1, 110), st.integers(1, 110),
                     st.sampled_from(["reference", "", "x y"]), st.integers(1, 10 ** 9),
                     st.one_of(st.integers(0, 10 ** 12), st.sampled_from([-1, 2 ** 63, 10 ** 400])))


def _ns_per_step(total_ns, steps):
    """The column as samples_to_csv writes it, where a float holds it."""
    return f"{total_ns / steps:.3f}" if total_ns < 2 ** 1000 else "1.0"


def _assert_clean(argv):
    """main(argv) returns 0, 1 or 2; a failure ends stderr with its one `error: ` line,
    and exit 2 prints nothing else to stderr. Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    errors = [i for i, line in enumerate(lines) if line.startswith("error: ")]
    assert code in (0, 1, 2), (argv, code)
    assert errors == ([len(lines) - 1] if code else []), (argv, code, lines)
    assert code != 2 or len(lines) == 1, (argv, lines)
    return code


# Values are passed as --flag=value, so that argparse never reads one as a flag.
@settings(max_examples=300, deadline=None)
@given(_SIZE, st.dictionaries(st.sampled_from(["--power-fpga", "--power-sw", "--sw-ns-per-step"]),
                              _NUMBER),
       st.booleans())
def test_fuzz_estimate(size, numbers, extrapolate):
    _assert_clean(["estimate", f"--size={size}", *(f"{flag}={v}" for flag, v in numbers.items())]
                  + ["--extrapolate"] * extrapolate)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.sampled_from(["md", "csv"]), st.dictionaries(_LABEL, _NUMBER, max_size=3),
       _LABEL, st.sampled_from([_HEADER, "width"]), st.lists(_CSV_ROW, max_size=4))
def test_fuzz_report(published, fmt, powers, label, header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "in.csv")
        path.write_text("".join(f"{line}\n" for line in [header] + [
            f"{w},{h},{w * h},{engine},{steps},{total_ns},{_ns_per_step(total_ns, steps)}"
            for w, h, engine, steps, total_ns in rows]))
        argv = ["report", f"--format={fmt}", f"--plot-data={tmp}/plot", f"--input={label}={path}"]
        argv += ["--published"] * published
        argv += [f"--power={device}={watts}" for device, watts in powers.items()]
        _assert_clean(argv)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.text(".O\n", max_size=40), st.text(".O\nX", max_size=40)),
       st.sampled_from(["reference", "bitsliced", "circuit"]), st.integers(0, 5))
def test_fuzz_run(pattern, engine, steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "pattern.txt")
        path.write_text(pattern)
        _assert_clean(["run", str(path), f"--engine={engine}", f"--steps={steps}",
                       f"--out={tmp}/out.txt"])


_BENCH_SIZES = st.one_of(
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)).map("{0[0]}x{0[1]}".format),
             min_size=1, max_size=3).map(",".join),
    st.sampled_from(["2x2..12x12:5", "2x3..4x5", "5x5..2x2", "2x2..4x4:0", "2x2..x", "x", "",
                     "0x3", "3x4,"]))
# A valid large --min-duration would run for years: draw only tiny or invalid ones.
_MIN_DURATION = st.one_of(st.floats(0, 1e-3).map(repr),
                          st.sampled_from(["-1", "nan", "inf", "1e300", "x"]))


@settings(max_examples=100, deadline=None)
@given(_BENCH_SIZES, st.sampled_from(["reference", "bitsliced", "circuit", "warp"]),
       st.sampled_from(["1", "3", "0", "-1", "x"]), st.sampled_from(["0", "2", "-1", "x"]),
       _MIN_DURATION, st.one_of(st.floats(0, 1).map(repr), _NUMBER),
       st.one_of(st.integers(-2 ** 70, 2 ** 70).map(str), st.just("x")), st.booleans())
def test_fuzz_bench(sizes, engine, min_steps, warmup, min_duration, density, seed, missing_dir):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp, "missing" if missing_dir else "", "out.csv")
        code = _assert_clean(["bench", f"--sizes={sizes}", f"--engine={engine}",
                              f"--min-steps={min_steps}", f"--warmup={warmup}",
                              f"--min-duration={min_duration}", f"--density={density}",
                              f"--seed={seed}", f"--csv={csv_path}"])
        assert code in ((1, 2) if missing_dir else (0, 2))
        assert csv_path.exists() == (code == 0)
