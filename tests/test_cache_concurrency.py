"""Concurrency stress for the shared cache root.

N forked workers drive real :class:`MatrixExecutor` runs and mixed
put/get/gc/rebuild loops against one cache root.  The multi-writer
contract under test: no lost entries, no duplicate simulation beyond the
planned cold misses, payloads byte-identical to a serial run, and
**never** a wrong payload or an exception — a concurrent GC or writer can
only turn a read into a miss.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from pathlib import Path

import _cachekind  # noqa: F401  (registers the "cachetest" cell kind)
from repro.analysis.cache_index import CacheIndex, collect_garbage
from repro.analysis.parallel import (MatrixExecutor, ResultCache, cell_key)
from repro.sim.config import SystemConfig
from repro.sim.stats import STATS_SCHEMA_VERSION

_MP = multiprocessing.get_context("fork")  # test workers share the registry

SCALE, MAX_CYCLES = 0.2, 1000
PROTOCOLS = ["MESI", "MSI", "TSO", "BC"]
WORKLOADS = [f"wl-{i}" for i in range(6)]
ALL_CELLS = [(p, w) for p in PROTOCOLS for w in WORKLOADS]  # 24 cells


def _config() -> SystemConfig:
    return SystemConfig().scaled(num_cores=2)


def _run_executor(root: str, out_path: str, cells) -> None:
    """Child-process body: run ``cells`` through a fresh executor and
    report how many simulations it actually performed."""
    cache = ResultCache(Path(root))
    executor = MatrixExecutor(_config(), scale=SCALE, max_cycles=MAX_CYCLES,
                              jobs=1, cache=cache, kind="cachetest")
    results = executor.run_cells([tuple(cell) for cell in cells])
    Path(out_path).write_text(json.dumps({
        "simulated": executor.simulations_run,
        "returned": len(results),
    }), encoding="utf-8")


def _spawn(target, argslist, timeout=120.0):
    """Fork one process per args tuple; fail the test on any nonzero exit."""
    processes = [_MP.Process(target=target, args=args) for args in argslist]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=timeout)
    codes = [process.exitcode for process in processes]
    assert codes == [0] * len(processes), f"worker exit codes: {codes}"


def test_cold_then_warm_executor_fleet_loses_no_entries(tmp_path):
    root = tmp_path / "cache"
    outs = tmp_path / "outs"
    outs.mkdir()

    # Phase 1 — cold, disjoint partitions: each worker owns 6 cells, so the
    # fleet performs exactly len(ALL_CELLS) simulations in total.
    parts = [ALL_CELLS[i::4] for i in range(4)]
    _spawn(_run_executor,
           [(str(root), str(outs / f"cold-{i}.json"), parts[i])
            for i in range(4)])
    cold = [json.loads((outs / f"cold-{i}.json").read_text())
            for i in range(4)]
    assert sum(report["simulated"] for report in cold) == len(ALL_CELLS)
    assert all(report["returned"] == 6 for report in cold)

    # Phase 2 — warm, full overlap: every worker re-runs the complete cell
    # list.  Zero simulations anywhere proves no phase-1 entry was lost or
    # clobbered by the concurrent writers.
    _spawn(_run_executor,
           [(str(root), str(outs / f"warm-{i}.json"), ALL_CELLS)
            for i in range(4)])
    warm = [json.loads((outs / f"warm-{i}.json").read_text())
            for i in range(4)]
    assert sum(report["simulated"] for report in warm) == 0
    assert all(report["returned"] == len(ALL_CELLS) for report in warm)

    # Byte identity against a serial reference run in a pristine root.
    serial_root = tmp_path / "serial"
    serial = MatrixExecutor(_config(), scale=SCALE, max_cycles=MAX_CYCLES,
                            jobs=1, cache=ResultCache(serial_root),
                            kind="cachetest")
    serial.run_cells(ALL_CELLS)
    assert serial.simulations_run == len(ALL_CELLS)
    for protocol, workload in ALL_CELLS:
        key = cell_key(_config(), protocol, workload, SCALE, MAX_CYCLES,
                       kind="cachetest")
        concurrent_bytes = (root / key[:2] / f"{key}.json").read_bytes()
        serial_bytes = (serial_root / key[:2] / f"{key}.json").read_bytes()
        assert concurrent_bytes == serial_bytes

    # The index written under concurrency reconciles against the tree
    # after one rebuild (concurrent flushes may each have lost the other's
    # metadata deltas — the documented advisory semantics — but rebuild
    # heals from the tree, which lost nothing).
    index = CacheIndex(root)
    index.rebuild()
    report = index.verify()
    assert report.in_sync
    assert report.entries == len(ALL_CELLS)


# ------------------------------------------------------- mixed put/get/gc


_STRESS_KEYS = [hashlib.sha256(f"stress-{i}".encode()).hexdigest()
                for i in range(16)]


def _stress_payload(i: int):
    return {"schema": STATS_SCHEMA_VERSION, "workload": f"stress-{i}",
            "protocol": "MESI", "slot": i}


def _run_stress(root: str, out_path: str, worker_id: int, rounds: int) -> None:
    """Mixed put/get/gc/rebuild loop.  The one inviolable property: a get
    returns either ``None`` or the exact payload for its key."""
    import random

    cache = ResultCache(Path(root))
    rng = random.Random(worker_id)
    wrong = 0
    for step in range(rounds):
        i = rng.randrange(len(_STRESS_KEYS))
        op = rng.random()
        if op < 0.45:
            cache.put(_STRESS_KEYS[i], _stress_payload(i))
        elif op < 0.85:
            payload = cache.get(_STRESS_KEYS[i])
            if payload is not None and payload != _stress_payload(i):
                wrong += 1
        elif op < 0.95:
            collect_garbage(Path(root), max_bytes=6 * 200, index=cache.index)
        else:
            cache.index.rebuild()
    cache.flush_index()
    Path(out_path).write_text(json.dumps({"wrong": wrong}), encoding="utf-8")


def test_mixed_put_get_gc_swarm_never_serves_wrong_bytes(tmp_path):
    root = tmp_path / "cache"
    ResultCache(root).put(_STRESS_KEYS[0], _stress_payload(0))
    outs = tmp_path / "outs"
    outs.mkdir()
    _spawn(_run_stress,
           [(str(root), str(outs / f"stress-{i}.json"), i, 120)
            for i in range(4)])
    for i in range(4):
        report = json.loads((outs / f"stress-{i}.json").read_text())
        assert report["wrong"] == 0

    # Whatever survived the battle parses and holds exactly the payload
    # its key demands — GC and racing writers never left torn state.
    survivors = sorted(root.glob("*/*.json"))
    for path in survivors:
        i = _STRESS_KEYS.index(path.stem)
        assert json.loads(path.read_text(encoding="utf-8")) == \
            _stress_payload(i)
    # And the index heals to exactly the surviving tree.
    index = CacheIndex(root)
    index.rebuild()
    assert index.verify().in_sync
    assert len(index.load()) == len(survivors)
