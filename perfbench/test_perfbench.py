"""Tests of the benchmark itself, on tiny worlds.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "ladder": {"sizes": ((10, 10), (20, 20)),
               "steps": {"reference": 2, "bitsliced": 7, "circuit": 3}, "digests": {}},
    "megaworld": {"size": (13, 9), "steps": {"reference": 2, "bitsliced": 5, "circuit": 3},
                  "digests": {}},
    "frames": {"size": (11, 7), "steps": {"reference": 2, "bitsliced": 6, "circuit": 4},
               "digests": {}},
}


@pytest.fixture
def tiny(monkeypatch):
    for name, cfg in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, (workloads.WORKLOADS[name][0], cfg))


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_emits_every_metric_with_its_unit(tiny, capsys, workload, trace, section):
    code, result = bench(capsys, workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("detailed, names", [
    (False, ["pass", "engines.bitsliced.step"]),
    (True, ["pass", "import", "engines.bitsliced.step"]),
])
def test_untraced_pass_records_only_core_spans(detailed, names):
    tr = Tracer()
    tr.begin(0, detailed)
    with tr.span("pass"):
        with tr.span("import"):
            pass
        with tr.span("engines.bitsliced.step", engine="bitsliced"):
            pass
    assert [s.name for s in tr.spans] == names
    assert tr.spans[-1].parent == 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_corrupted_engine_fails_the_gate(tiny, capsys, monkeypatch, workload):
    real_import = workloads.import_package

    def corrupted_import():
        lb = real_import()
        real_world = lb.engines.CircuitEngine.world

        def world(self):
            w = real_world(self)  # flip cell (0, 0)
            return lb.grid.World(w.width, w.height, (w.words[0] ^ 1,) + w.words[1:],
                                 w.generation)
        monkeypatch.setattr(lb.engines.CircuitEngine, "world", world)
        return lb

    monkeypatch.setattr(workloads, "import_package", corrupted_import)
    code, result = bench(capsys, workload)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_pinned_digest_mismatch_fails(tiny, capsys, monkeypatch):
    fn, cfg = workloads.WORKLOADS["megaworld"]
    monkeypatch.setitem(workloads.WORKLOADS, "megaworld", (fn, {**cfg, "digests": {3: "0" * 16}}))
    code, result = bench(capsys, "megaworld")
    assert code == 1 and result["failed"] == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "traces", ".work-*"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
