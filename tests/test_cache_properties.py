"""Property-based tests for the GC invariants.

A model-checking harness: random op sequences (put / gc-by-age /
gc-by-bytes) run against a real cache tree **and** a pure in-memory
model, under a logical clock (a put stamps its entry's mtime with the
step number and every ``now=`` is injected, so the properties are exact,
not timing-dependent).  After every operation:

* the tree holds exactly the model's entries, with their sizes;
* age-GC removed exactly the entries written before the cutoff;
* bytes-GC evicted oldest-written first and landed within budget.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.parallel import collect_garbage, iter_entry_files
from repro.sim.stats import STATS_SCHEMA_VERSION

_KEYS = [hashlib.sha256(f"prop-{i}".encode()).hexdigest() for i in range(8)]


def _payload(i: int):
    kind = "stats" if i % 2 == 0 else "cachetest"
    payload = {"schema": STATS_SCHEMA_VERSION, "workload": f"prop-{i}",
               "protocol": "MESI", "filler": "x" * (3 * i)}
    if kind != "stats":
        payload["kind"] = kind
    return payload


def _write_entry(root: Path, i: int, mtime: float) -> int:
    key = _KEYS[i]
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(_payload(i), sort_keys=True)
    path.write_text(blob, encoding="utf-8")
    os.utime(path, (mtime, mtime))
    return len(blob.encode("utf-8"))


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, len(_KEYS) - 1)),
        st.tuples(st.just("gc_age"), st.integers(0, 12)),
        st.tuples(st.just("gc_bytes"), st.integers(0, 600)),
    ),
    min_size=1, max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_gc_agrees_with_a_pure_model(ops):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        model = {}  # key -> (written, size), mirrored expectations

        for step, (op, arg) in enumerate(ops):
            now = float(step + 1)  # logical clock: unique, increasing
            if op == "put":
                model[_KEYS[arg]] = (now, _write_entry(root, arg, now))
            elif op == "gc_age":
                cutoff = now - float(arg)
                report = collect_garbage(root, max_age=float(arg), now=now)
                # Invariant: nothing written after the cutoff was removed.
                expected = {key for key, (written, _) in model.items()
                            if written < cutoff}
                assert set(report.removed) == expected
                for key in report.removed:
                    del model[key]
            else:  # gc_bytes
                report = collect_garbage(root, max_bytes=arg, now=now)
                # Oldest-written first: survivors are exactly the newest
                # suffix that fits the budget (write times are unique).
                order = sorted(model.items(), key=lambda item: item[1][0])
                total = sum(size for _, (_, size) in order)
                doomed = []
                for key, (_, size) in order:
                    if total <= arg:
                        break
                    doomed.append(key)
                    total -= size
                assert report.removed == doomed
                assert report.remaining_bytes == total
                assert report.remaining_bytes <= arg or not model
                for key in report.removed:
                    del model[key]

            # --- invariant after every op: the tree is the model ---------
            assert {path.stem: path.stat().st_size
                    for path in iter_entry_files(root)} == \
                {key: size for key, (_, size) in model.items()}
