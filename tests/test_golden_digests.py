"""Golden digest matrix: every bundled protocol pinned on five workloads.

``tests/goldens/digest_matrix.json`` maps each cell to the first 16 hex
characters of the SHA-256 of its canonical ``SystemStats.to_dict()``
payload (``json.dumps(sort_keys=True, separators=(",", ":"))``, the digest
``bench/cells.py`` pins).  The cells are every bundled protocol x
{fft, intruder, a zipf generator, lockstorm, the committed
``fft-mesi-c2`` trace} on a small 4-core platform (2 cores for the 2-core
trace), plus FIFO and random replacement on the zipf workload.  The small
L2 makes the zipf column evict and recall, so the victim path is pinned
too.

A refactor meant to keep results the same must leave every digest
unchanged.  After an *intentional* timing or protocol change, rewrite the
file with ``PYTHONPATH=src python tests/test_golden_digests.py --update``,
regenerate the other goldens and bump ``CACHE_SCHEMA_VERSION`` in
``repro/analysis/parallel.py`` in the same change.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.parallel import simulate_cell
from repro.protocols.registry import registered_protocols
from repro.sim.config import SystemConfig

GOLDEN = Path(__file__).parent / "goldens" / "digest_matrix.json"

WORKLOADS = ("fft", "intruder", "zipf:n200-s1", "lockstorm:n20-s1",
             "trace:fft-mesi-c2")
ZIPF = "zipf:n200-s1"
SCALE = 0.5
MAX_CYCLES = 50_000_000
#: Replacement policies besides the default LRU, pinned on the zipf column.
POLICY_CELLS = [(protocol, ZIPF, policy)
                for protocol in ("MESI", "TSO-CC-4-12-3")
                for policy in ("fifo", "random")]


def bundled_protocols():
    """Names of the protocols shipped in ``repro`` (not test-only ones)."""
    return [protocol.name for protocol in registered_protocols()
            if type(protocol).__module__.startswith("repro.")]


def cell_id(protocol, workload, policy="lru"):
    return "|".join([protocol, workload] + ([policy] if policy != "lru" else []))


def all_cells():
    cells = [(protocol, workload, "lru") for protocol in bundled_protocols()
             for workload in WORKLOADS]
    return cells + POLICY_CELLS


def run_cell(protocol, workload, policy="lru"):
    cores = 2 if workload == "trace:fft-mesi-c2" else 4
    config = SystemConfig().scaled(num_cores=cores, seed=1,
                                   l1_size_bytes=2048,
                                   l2_tile_size_bytes=16 * 1024)
    config = dataclasses.replace(config, replacement_policy=policy)
    return simulate_cell(config, protocol, workload, SCALE, MAX_CYCLES)


def digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def load_golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("protocol,workload,policy", all_cells(),
                         ids=[cell_id(*cell) for cell in all_cells()])
def test_golden_digest(protocol, workload, policy):
    key = cell_id(protocol, workload, policy)
    expected = load_golden().get(key)
    assert expected is not None, f"{key}: no pinned digest"
    payload = run_cell(protocol, workload, policy)
    assert digest(payload) == expected, (
        f"{key}: payload diverged from the pinned digest — simulator results "
        f"changed (see module docstring)")
    if workload == ZIPF:
        # The zipf column is the one that exercises L2 victim selection.
        assert sum(sum(tile["evictions"].values()) for tile in payload["l2"]) > 0
        assert sum(tile["recalls"] for tile in payload["l2"]) > 0


def test_golden_every_bundled_protocol_pinned():
    pinned = {key.split("|")[0] for key in load_golden()}
    missing = [name for name in bundled_protocols() if name not in pinned]
    assert not missing, f"bundled protocols without pinned cells: {missing}"
    assert set(load_golden()) == {cell_id(*cell) for cell in all_cells()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_digests.py --update")
    digests = {cell_id(*cell): digest(run_cell(*cell)) for cell in all_cells()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
