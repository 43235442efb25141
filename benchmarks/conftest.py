"""Shared fixtures for the figure/table regeneration benchmarks.

The benchmarks are organised one file per table/figure of the paper.  The
figure files share one session-wide
:class:`~repro.analysis.report.SpecReport` over the paper's evaluation
matrix (:func:`~repro.analysis.sweeps.figure_spec`, simulated once per
pytest session), read its Figures 3–9 views and write the text ``repro
figure N`` prints to ``benchmarks/results/``, so the numbers can be
inspected and compared against the paper (see EXPERIMENTS.md).

Independent matrix cells are fanned out over worker processes, one
submission per cell, and persisted in the content-addressed result cache
under ``benchmarks/results/cache/``, so re-running a figure benchmark with
an unchanged configuration performs zero new simulations.

Environment knobs (all optional):

* ``REPRO_BENCH_CORES``     — simulated core count (default 8)
* ``REPRO_BENCH_SCALE``     — workload scale factor (default 0.35)
* ``REPRO_BENCH_WORKLOADS`` — comma-separated subset of Table 3 names
* ``REPRO_BENCH_PROTOCOLS`` — comma-separated subset of configuration names
  (the normalized Figures 3, 4 and 8 need MESI among them)
* ``REPRO_BENCH_JOBS``      — worker processes for the matrix fan-out
  (default: ``REPRO_JOBS`` or the CPU count)
* ``REPRO_BENCH_CACHE``     — set to ``0`` to bypass the on-disk result cache
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.parallel import ResultCache
from repro.analysis.report import SpecReport
from repro.analysis.sweeps import figure_spec

RESULTS_DIR = Path(__file__).parent / "results"


def _env_list(name: str):
    raw = os.environ.get(name, "").strip()
    return [item.strip() for item in raw.split(",") if item.strip()] or None


def _executor_knobs():
    """Worker-count and cache settings shared by every session fixture
    (``REPRO_BENCH_JOBS`` / ``REPRO_BENCH_CACHE``)."""
    jobs_env = os.environ.get("REPRO_BENCH_JOBS", "").strip()
    jobs = int(jobs_env) if jobs_env else None
    cache_enabled = os.environ.get("REPRO_BENCH_CACHE", "1").lower() not in (
        "0", "false", "no")
    return jobs, ResultCache(RESULTS_DIR / "cache", enabled=cache_enabled)


@pytest.fixture(scope="session")
def bench_report() -> SpecReport:
    """Session-wide report over the full evaluation matrix, the one
    ``repro figure`` renders.  Its figures raise ``ValueError`` on a
    partial matrix, e.g. when ``REPRO_SHARD`` is exported."""
    spec = figure_spec(
        protocols=_env_list("REPRO_BENCH_PROTOCOLS"),
        workloads=_env_list("REPRO_BENCH_WORKLOADS"),
        cores=int(os.environ.get("REPRO_BENCH_CORES", "8")),
        scale=float(os.environ.get("REPRO_BENCH_SCALE", "0.35")),
    )
    jobs, cache = _executor_knobs()
    return spec.run(jobs=jobs, cache=cache).report()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory the regenerated tables are written to."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def run_sweep():
    """Run a registered sensitivity sweep with the session's executor knobs
    (``REPRO_BENCH_JOBS`` / ``REPRO_BENCH_CACHE``) applied and return its
    mix table: one row per variant, metrics summed over the workload mix.

    The ablation benchmarks are thin declarations over
    :mod:`repro.analysis.sweeps`; this fixture is their only execution
    plumbing."""
    from repro.analysis.sweeps import get_sweep

    jobs, cache = _executor_knobs()

    def _run(name: str):
        result = get_sweep(name).run(jobs=jobs, cache=cache)
        return result.report().mix_table(normalized=False)

    return _run
