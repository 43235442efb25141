"""A cheap, deterministic cell kind for cache tests.

The cache machinery is kind-agnostic; the concurrency, fault and
report suites need cells that are *instant* so N-process stress runs spend
their time on the storage layer, not in the simulator.  ``simulate`` is a
pure hash of the cell inputs — byte-identical across processes and runs,
exactly like real cells — and is module-level so process pools can pickle
it by reference.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.analysis.parallel import CELL_KINDS, CellKind, register_cell_kind

CACHETEST_SCHEMA = 1


def simulate_cachetest_cell(config, protocol: str, workload_name: str,
                            scale: float, max_cycles: int) -> Dict[str, object]:
    """Deterministic stand-in for a simulation: payload is a pure function
    of the cache-key inputs, like a real (seeded) cell."""
    blob = f"{config.num_cores}|{protocol}|{workload_name}|{scale}|{max_cycles}"
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return {
        "schema": CACHETEST_SCHEMA,
        "kind": "cachetest",
        "workload": workload_name,
        "protocol": protocol,
        "digest": digest,
    }


def decode_cachetest(payload: Dict[str, object]) -> Dict[str, object]:
    return dict(payload)


def _register() -> CellKind:
    # Idempotent: the registry is process-global and several test modules
    # import this helper.
    if "cachetest" in CELL_KINDS:
        return CELL_KINDS["cachetest"]
    return register_cell_kind(CellKind(
        name="cachetest",
        simulate=simulate_cachetest_cell,
        decode=decode_cachetest,
        schema=CACHETEST_SCHEMA,
    ))


CACHETEST_KIND = _register()
