"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import measure
import run

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
PACKAGE = REPO_ROOT / "src" / "repro"


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ layers

def test_every_source_file_maps_to_one_named_layer():
    mapping = layers.source_layers(PACKAGE)
    assert len(mapping) == len(list(PACKAGE.rglob("*.py")))
    assert set(mapping.values()) == set(layers.LAYERS) | {layers.ENTRY_LAYER}
    assert mapping["sim/simulator.py"] == "sim.engine"
    assert mapping["sim/stats.py"] == "sim.system"
    assert mapping["protocols/registry.py"] == "protocols.base"
    assert mapping["protocols/tsocc/l1_controller.py"] == "protocols.tsocc"


@pytest.mark.parametrize("relpath", ["newpkg/module.py",
                                     "protocols/newproto/l1_controller.py",
                                     "analysis/backends/remote/client.py"])
def test_unmapped_subpackage_fails_loudly(relpath, tmp_path):
    with pytest.raises(layers.UnmappedSourceError, match="has no layer"):
        layers.layer_of(relpath)
    source = tmp_path / "repro" / relpath
    source.parent.mkdir(parents=True)
    source.write_text("")
    with pytest.raises(layers.UnmappedSourceError):
        layers.source_layers(tmp_path / "repro")


def _func(relpath: str, name: str, line: int = 1):
    return (str(PACKAGE / relpath), line, name)


def test_builtin_and_stdlib_time_is_charged_to_the_calling_layer():
    l1 = _func("protocols/mesi/l1_controller.py", "handle")
    key = _func("analysis/parallel.py", "cell_key")
    core = _func("cpu/core_model.py", "step")
    length = ("~", 0, "<built-in method builtins.len>")
    encode = ("/usr/lib/python3.11/json/encoder.py", 183, "encode")
    inner = ("/usr/lib/python3.11/dataclasses.py", 1287, "_asdict_inner")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    profiler = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        # func: (primitive calls, calls, tottime, cumtime, callers)
        l1: (1, 1, 1.0, 3.0, {}),
        key: (1, 1, 0.5, 1.5, {}),
        core: (1, 1, 0.25, 1.25, {}),
        length: (3, 3, 2.0, 2.0, {l1: (2, 2, 1.5, 1.5),
                                  core: (1, 1, 0.5, 0.5)}),
        encode: (1, 1, 0.5, 1.0, {key: (1, 1, 0.5, 1.0)}),
        # A recursive stdlib function: the self-edge must not lose time.
        inner: (1, 4, 0.5, 0.5, {core: (1, 1, 0.125, 0.5),
                                 inner: (3, 3, 0.375, 0.375)}),
        append: (2, 2, 0.5, 0.5, {encode: (2, 2, 0.5, 0.5)}),
        profiler: (1, 1, 0.25, 0.25, {}),
    }
    fold = layers.Fold(stats, PACKAGE)
    assert fold.self_s["protocols.mesi"] == pytest.approx(1.0 + 1.5)
    assert fold.self_s["analysis"] == pytest.approx(0.5 + 0.5 + 0.5)
    assert fold.self_s["cpu"] == pytest.approx(0.25 + 0.5 + 0.5)
    assert fold.unattributed_s == pytest.approx(0.25)
    assert fold.calls == {"protocols.mesi": 1, "analysis": 1, "cpu": 1}
    assert fold.attributed_share == pytest.approx(5.25 / 5.5)


def test_span_counts_the_outermost_call_of_a_name_once():
    outer = _func("sim/stats.py", "to_dict", 321)
    inner = _func("sim/stats.py", "to_dict", 180)
    cell = _func("analysis/parallel.py", "simulate_cell")
    stats = {
        cell: (2, 2, 0.5, 2.5, {}),
        outer: (2, 2, 1.0, 2.0, {cell: (2, 2, 1.0, 2.0)}),
        inner: (8, 8, 1.0, 1.0, {outer: (8, 8, 1.0, 1.0)}),
    }
    fold = layers.Fold(stats, PACKAGE)
    assert fold.span("stats_to_dict") == (pytest.approx(2.0), 2)
    assert fold.span("simulator_run") == (0.0, 0)


# ------------------------------------------------------------------ measure

@pytest.mark.parametrize("n, expected", [
    (85000, 99.9), (10000, 99.9), (9999, 99), (1000, 99), (999, 95),
    (200, 95), (199, 90), (100, 90), (99, 75), (40, 75), (39, 100), (1, 100),
])
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    p = measure.tail_percentile(n)
    assert p == expected
    if p < 100:
        assert n - measure.rank(n, p) >= measure.MIN_BEYOND


def test_latency_samples_take_one_median_per_cell_when_cells_suffice():
    many = [[1.0, 2.0, 3.0] for _ in range(40)]
    many[0] = [1.0, 1000.0, 1.0]  # one hiccup moves nothing
    samples = measure.latency_samples(many)
    assert len(samples) == 40 and max(samples) == 2.0
    few = [[1.0, 2.0, 3.0] for _ in range(39)]
    assert len(measure.latency_samples(few)) == 117


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile(values, 100) == 100
    assert measure.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("better, value, worse", [
    ("lower", 111.0, True), ("lower", 109.0, False), ("lower", 50.0, False),
    ("higher", 89.0, True), ("higher", 91.0, False), ("higher", 200.0, False),
])
def test_bound_check_in_both_directions(better, value, worse):
    assert measure.regressed(better, 0.10, 100.0, value) is worse


def test_bound_rule_has_a_floor_and_a_cap():
    assert measure.derive_bound([0.01, 0.02], floor=0.10) == 0.10
    assert measure.derive_bound([0.01, 0.05], floor=0.10) == pytest.approx(0.15)
    assert measure.derive_bound([0.09], floor=0.10) == measure.BOUND_CAP
    with pytest.raises(ValueError):
        measure.regressed("sideways", 0.1, 1.0, 1.0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# ------------------------------------------------------------------ end to end

def test_smoke_run_reports_every_metric_quickly():
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                           "--smoke"], stdout=subprocess.PIPE, text=True,
                          timeout=120, check=False)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout
    result = _last_json(done.stdout)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    expected = {f"{workload}/{name}"
                for workload in run.WORKLOADS
                for name in list(run.END_TO_END) + list(run.PER_LAYER)}
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        if name.split("/", 1)[1] in run.END_TO_END:
            assert metric["value"] > 0, name
    assert elapsed < 20.0


def test_tampered_digest_fails_the_run(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, copy / path.name)
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    digests["digests"]["stats|MESI|blackscholes|c8|x0.35|s1"] = "0" * 16
    (copy / "digests.json").write_text(json.dumps(digests))
    done = subprocess.run([sys.executable, str(copy / "run.py"), "--smoke",
                           "--workload", "paper-table3", "--trace", "0",
                           "--src", str(REPO_ROOT / "src")],
                          stdout=subprocess.PIPE, text=True, timeout=120,
                          check=False)
    assert done.returncode == 1
    result = _last_json(done.stdout)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "!= pinned" in done.stdout


def test_missing_source_tree_exits_without_a_result(tmp_path):
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                           "--workload", "warm-cache", "--src", str(tmp_path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60, check=False)
    assert done.returncode == 2
    assert done.stdout == ""
