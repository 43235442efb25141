"""Golden tables: the exact stdout of every table-rendering command.

``tests/goldens/tables/<name>.txt`` pins what twenty-two ``repro``
commands print, run in-process at ``--jobs 1``:

* ``figure 2`` … ``figure 9`` on a 2-core platform at scale 0.1 — all seven
  paper configurations x the 16 Table 3 stand-ins.  The figures share one
  result cache, so the matrix is simulated once;
* ``storage`` with the default and an explicit core axis;
* five ``sweep`` runs.  They use ``--no-cache``, so the "N simulated"
  footer does not depend on what an earlier run left behind;
* ``run``, plain and as each shard of two; ``shard plan`` (whose table
  prints every cell's cache-key prefix and shard) and ``shard run``;
* ``fuzz run``, complete and as one shard of two.

Every path from simulated cells to a printed table is covered: a refactor
of the reporting code must leave every file byte-identical.  After an
intended change to a rendered table, rewrite the files with
``PYTHONPATH=src python tests/test_golden_tables.py --update``.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens" / "tables"

_FIGURE_PLATFORM = ["--cores", "2", "--scale", "0.1", "--jobs", "1"]
_SWEEP_FLAGS = ["--jobs", "1", "--no-cache"]
_RUN = ["run", "fft", "--protocol", "MESI", "--protocol", "TSO-CC-4-12-3",
        "--cores", "2", "--scale", "0.1"] + _SWEEP_FLAGS
_FUZZ_RUN = ["fuzz", "run", "fuzz-smoke", "--seeds", "3"] + _SWEEP_FLAGS

#: Golden file stem -> ``repro`` argv.  Figures also get ``--cache-dir``.
COMMANDS = {
    **{f"figure-{n}": ["figure", str(n)] + _FIGURE_PLATFORM
       for n in range(2, 10)},
    "storage": ["storage"],
    "storage-cores-32-128": ["storage", "--cores", "32,128"],
    "sweep-ci-smoke": ["sweep", "ci-smoke"] + _SWEEP_FLAGS,
    "sweep-ci-smoke-per-cell": ["sweep", "ci-smoke", "--per-cell"]
    + _SWEEP_FLAGS,
    "sweep-protocol-baselines": ["sweep", "protocol-baselines", "--scales",
                                 "0.1", "--baseline", "MESI"] + _SWEEP_FLAGS,
    "sweep-timestamp-bits-figure": ["sweep", "timestamp-bits", "--cores", "2",
                                    "--scales", "0.1", "--figure"]
    + _SWEEP_FLAGS,
    "sweep-scenario-smoke": ["sweep", "scenario-smoke"] + _SWEEP_FLAGS,
    "run-fft": _RUN,
    "run-fft-shard-0-of-2": _RUN + ["--shard-index", "0", "--shard-count",
                                    "2"],
    "run-fft-shard-1-of-2": _RUN + ["--shard-index", "1", "--shard-count",
                                    "2"],
    "shard-plan-ci-smoke": ["shard", "plan", "ci-smoke", "--shard-count",
                            "3"],
    "shard-run-ci-smoke-1-of-2": ["shard", "run", "ci-smoke", "--shard-index",
                                  "1", "--shard-count", "2"] + _SWEEP_FLAGS,
    "fuzz-run-fuzz-smoke": _FUZZ_RUN,
    "fuzz-run-fuzz-smoke-shard-1-of-2": _FUZZ_RUN + ["--shard-index", "1",
                                                     "--shard-count", "2"],
}


def render(name, cache_dir):
    """Run one pinned command in-process and return its stdout."""
    argv = list(COMMANDS[name])
    if argv[0] == "figure":
        argv += ["--cache-dir", str(cache_dir)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"repro {' '.join(argv)} exited {code}"
    return out.getvalue()


@pytest.fixture(scope="module")
def figure_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("figure-cache")


@pytest.mark.parametrize("name", list(COMMANDS))
def test_golden_table(name, figure_cache):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert render(name, figure_cache) == expected, (
        f"{name}: rendered table diverged from its golden (see module "
        f"docstring)")


def test_golden_tables_cover_every_command():
    pinned = {path.stem for path in GOLDEN_DIR.glob("*.txt")}
    assert pinned == set(COMMANDS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_tables.py "
                 "--update")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as cache_dir:
        for name in COMMANDS:
            (GOLDEN_DIR / f"{name}.txt").write_text(
                render(name, cache_dir), encoding="utf-8")
    print(f"wrote {len(COMMANDS)} tables to {GOLDEN_DIR}")
