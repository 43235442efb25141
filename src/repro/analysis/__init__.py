"""Analysis and experiment harness.

* :mod:`repro.analysis.parallel` — :class:`MatrixExecutor` (the one code
  path that runs matrix cells: inline or one process-pool submission per
  cell), ``MatrixSpec.run`` (shared by sweeps and fuzz campaigns) and
  :class:`ResultCache` (content-addressed on-disk result cache); see
  EXPERIMENTS.md.
* :mod:`repro.analysis.shard` — coordinator-free sharding by cache key:
  shard coordinates, plans/manifests, and merging shard caches.
* :mod:`repro.analysis.sweeps` — :class:`~repro.analysis.sweeps.SweepSpec`:
  declared (protocol x workload x cores x scale) matrices, run through the
  executor.  ``figure_spec`` is the matrix behind the paper's Figures 3-9.
* :mod:`repro.analysis.report` — declarative reporting over sweep results
  and the result cache: :class:`SpecReport` renders every table (the
  paper's Figures 3-9 as declared views, speedup/geomean mix tables,
  per-cell tables), plus HTML dashboards and cache-snapshot diffing
  (``repro report``); see EXPERIMENTS.md "Reporting & dashboards".
* :mod:`repro.analysis.tables` — plain-text table rendering.
"""

from repro.analysis.parallel import (MatrixExecutor, ResultCache,
                                     WorkloadValidationError, resolve_jobs)
from repro.analysis.report import (ReportTable, SpecReport, diff_snapshots,
                                   gather_cells, render_dashboard)
from repro.analysis.tables import format_series_table, format_table

__all__ = [
    "MatrixExecutor",
    "ResultCache",
    "WorkloadValidationError",
    "resolve_jobs",
    "format_table",
    "format_series_table",
    "ReportTable",
    "SpecReport",
    "diff_snapshots",
    "gather_cells",
    "render_dashboard",
]
