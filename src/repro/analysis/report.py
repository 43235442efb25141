"""Declarative reporting/aggregation over the content-addressed result cache.

After a sweep or fuzz campaign has populated the cache (locally or via
CI shards), this module answers the cross-run questions the
per-invocation tables cannot: *aggregate every cached cell matching a
filter, normalize against a named baseline variant, render dashboards,
and diff two cache snapshots cell by cell*.

The layer is driven entirely by **declared metadata**
(:class:`~repro.analysis.parallel.ReportField` declarations on each cell
kind): stats cells and fuzz verdicts flow through one pipeline because both
merely declare which quantities their decoded results expose, how each
aggregates over a workload mix, and which direction is better.  Nothing
here re-simulates — a report is a pure function of the cache tree.

Three public surfaces (all behind the ``repro report`` CLI family):

* :class:`SpecReport` — aggregate one spec's cells (from the cache *or* an
  in-memory :class:`~repro.analysis.parallel.SpecResult`) into mix tables
  with ``<field>_speedup`` columns vs the spec's baseline variant, geomean
  rows, per-axis figure pivots and the paper's Figures 3–9
  (:data:`FIGURES`).  ``repro figure``, ``repro sweep``, ``repro shard
  run``, ``repro report`` and ``benchmarks/`` all render through it, so
  cache-side reports reproduce live tables exactly.
* :func:`gather_cells` — filter every cached cell (any kind) into a
  :class:`ReportTable` for ad-hoc cross-run analysis.
* :func:`diff_snapshots` — classify two cache trees cell-by-cell into
  added/removed/changed/unchanged (plus torn/alien entries), the tool that
  makes "same results, faster" checkable byte-for-byte in CI.

Model: ``vusec__instrumentation-infra``'s report layer, where reportable
fields are declared metadata on the reported target.
"""

from __future__ import annotations

import html as _html
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.analysis.parallel import (CellKind, ReportField, ResultCache,
                                     get_cell_kind, iter_entry_files,
                                     read_entry, report_fields)
from repro.analysis.shard import plan_sweep
from repro.analysis.tables import format_series_table, format_table

#: Rendering of a missing value (baseline in another shard, cell not yet
#: simulated, undefined geomean) in terminal/CSV output.
MISSING = "—"


def geomean(values: Iterable[Optional[float]]) -> Optional[float]:
    """Geometric mean over the non-missing values.

    Missing (``None``) entries are skipped; an empty (or all-missing)
    input and any negative value yield ``None`` (undefined); any zero
    yields ``0.0`` (the limit, without blowing up in ``log``).
    """
    present = [float(v) for v in values if v is not None]
    if not present or any(v < 0 for v in present):
        return None
    if any(v == 0 for v in present):
        return 0.0
    return math.exp(sum(math.log(v) for v in present) / len(present))


def aggregate_values(aggregate: str,
                     values: Sequence[object]) -> Optional[object]:
    """Fold extracted per-cell values per the declared aggregation mode.

    ``None`` (no value — the cell is aggregate-``"none"`` or the list is
    empty) propagates; otherwise ``"sum"``/``"mean"`` fold numerically and
    ``"all"`` is boolean conjunction.
    """
    if aggregate == "none" or not values:
        return None
    if aggregate == "sum":
        return sum(values)
    if aggregate == "mean":
        return sum(values) / len(values)
    if aggregate == "all":
        return all(bool(v) for v in values)
    raise ValueError(f"unknown aggregate {aggregate!r}")


# -------------------------------------------------------------------- tables

@dataclass
class ReportTable:
    """A lightweight DataFrame-like result: ordered columns + row dicts.

    Values are plain Python objects; ``None`` marks a missing value and
    renders as ``—``.  ``formats`` optionally maps a column to a
    ``str.format`` spec (from the declaring field's ``format``).
    """

    columns: List[str]
    rows: List[Dict[str, object]]
    title: str = ""
    formats: Dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> List[object]:
        """One column as a list (``None`` for missing)."""
        return [row.get(name) for row in self.rows]

    def filter(self, predicate: Callable[[Dict[str, object]], bool]
               ) -> "ReportTable":
        """A copy keeping only the rows matching ``predicate``."""
        return ReportTable(columns=list(self.columns),
                           rows=[r for r in self.rows if predicate(r)],
                           title=self.title, formats=dict(self.formats))

    # -------------------------------------------------------- rendering

    def _format_cell(self, column: str, value: object) -> str:
        if value is None:
            return MISSING
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return self.formats.get(column, "{:.3f}").format(value)
        return str(value)

    def render(self) -> str:
        """Aligned plain-text table (the ``repro report`` terminal view)."""
        rendered = [{col: self._format_cell(col, row.get(col))
                     for col in self.columns} for row in self.rows]
        return format_table(rendered, columns=self.columns, title=self.title)

    def to_csv(self) -> str:
        """RFC-4180 CSV with a header row (missing values stay empty)."""
        import csv

        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=self.columns,
                                extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({col: ("" if row.get(col) is None else row[col])
                             for col in self.columns})
        return out.getvalue()

    def to_json(self) -> str:
        """JSON document: ``{"title", "columns", "rows"}`` (missing values
        are ``null``)."""
        return json.dumps({
            "title": self.title,
            "columns": self.columns,
            "rows": [{col: row.get(col) for col in self.columns}
                     for row in self.rows],
        }, indent=2, sort_keys=False) + "\n"

    def to_html(self) -> str:
        """One ``<table>`` fragment (used by the dashboard renderer)."""
        parts = ["<table>"]
        if self.title:
            parts.append(f"<caption>{_html.escape(self.title)}</caption>")
        parts.append("<thead><tr>")
        for col in self.columns:
            parts.append(f"<th>{_html.escape(col)}</th>")
        parts.append("</tr></thead><tbody>")
        for row in self.rows:
            parts.append("<tr>")
            for col in self.columns:
                value = row.get(col)
                css = "num" if isinstance(value, (int, float)) \
                    and not isinstance(value, bool) else "txt"
                parts.append(f'<td class="{css}">'
                             f"{_html.escape(self._format_cell(col, value))}"
                             f"</td>")
            parts.append("</tr>")
        parts.append("</tbody></table>")
        return "".join(parts)


def render_table(table: ReportTable, fmt: str = "terminal") -> str:
    """Render a :class:`ReportTable` in one of the CLI output formats
    (``terminal`` / ``csv`` / ``json`` / ``html``)."""
    renderers = {"terminal": table.render, "csv": table.to_csv,
                 "json": table.to_json, "html": table.to_html}
    if fmt not in renderers:
        raise ValueError(
            f"unknown report format {fmt!r}; known: {', '.join(renderers)}")
    return renderers[fmt]()


# -------------------------------------------------------- reading the cache

def _cache_root(cache: Union[str, Path, ResultCache]) -> Path:
    return cache.root if isinstance(cache, ResultCache) else Path(cache)


# ------------------------------------------------------------- spec reports

#: The axis-identity columns every spec-level table leads with.
_AXIS_COLUMNS = ("protocol", "workload", "cores", "scale")


def _ordered_unique(values: Iterable) -> List:
    """First-seen-order deduplication (axis values from an expansion)."""
    seen = set()
    out = []
    for value in values:
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


# ------------------------------------------------------------ paper figures

#: The protocol normalized figures divide by.  The figures keep the paper's
#: orientation, value over MESI; ``mix_table``'s speedup columns put the
#: baseline on top instead.
FIGURE_BASELINE = "MESI"


def _scalar(metric: Callable[[object], float]
            ) -> Callable[[object], Dict[str, float]]:
    """Extractor of a figure with one column per protocol."""
    return lambda stats: {"": float(metric(stats))}


def _percent(breakdown: str) -> Callable[[object], Dict[str, float]]:
    """Extractor of a figure with one ``protocol:component`` column per
    component of a ``SystemStats`` fraction breakdown, in percent."""
    return lambda stats: {component: 100.0 * value for component, value
                          in getattr(stats, breakdown)().items()}


@dataclass(frozen=True)
class FigureView:
    """One of the paper's Figures 3–9, declared as a view over stats cells.

    Attributes:
        number: the figure's number in the paper.
        description: what it plots (its title after the number).
        extract: ``SystemStats`` -> ``{component: value}``.  Each component
            becomes the column ``protocol:component``; the empty component
            becomes the column ``protocol``.
        normalized: divide every value by the :data:`FIGURE_BASELINE` value
            of its workload (skipping a zero baseline) and add a ``gmean``
            row per column.
        self_invalidating_only: keep only protocols that self-invalidate.
    """

    number: int
    description: str
    extract: Callable[[object], Dict[str, float]]
    normalized: bool = False
    self_invalidating_only: bool = False

    @property
    def title(self) -> str:
        return f"Figure {self.number} — {self.description}"

    def check(self, protocols: Sequence[str]) -> None:
        """Raise ``ValueError`` if the figure is normalized and
        ``protocols`` lack its baseline."""
        if self.normalized and FIGURE_BASELINE not in protocols:
            raise ValueError(
                f"Figure {self.number} is normalized to {FIGURE_BASELINE}, "
                f"which the protocols ({', '.join(protocols)}) omit")


#: The paper's Figures 3–9 by number.  Figure 2 is analytic (the storage
#: model over core counts, ``StorageModel.figure2_series``), not a view.
FIGURES: Dict[int, FigureView] = {view.number: view for view in (
    FigureView(3, "execution time normalized to MESI",
               _scalar(lambda s: s.cycles), normalized=True),
    FigureView(4, "network traffic (total flits) normalized to MESI",
               _scalar(lambda s: s.total_flits), normalized=True),
    FigureView(5, "L1 miss breakdown (percent of accesses) by state",
               _percent("miss_breakdown")),
    FigureView(6, "L1 hit/miss breakdown (percent of accesses)",
               _percent("hit_breakdown")),
    FigureView(7, "% of L1 data responses triggering self-invalidation",
               _percent("self_invalidation_trigger_fraction"),
               self_invalidating_only=True),
    # Floored so a workload without RMWs still divides.
    FigureView(8, "RMW latency normalized to MESI",
               _scalar(lambda s: max(s.avg_rmw_latency(), 1e-9)),
               normalized=True),
    FigureView(9, "breakdown of L1 self-invalidation causes",
               _percent("self_invalidation_cause_breakdown"),
               self_invalidating_only=True),
)}

#: Title and core counts of ``repro figure 2``.
FIGURE2_TITLE = "Figure 2 — coherence storage overhead (MB) vs core count"
FIGURE2_CORES = (16, 32, 64, 96, 128)


class SpecReport:
    """Aggregated report over one spec's cell expansion.

    Build it :meth:`from_cache` (pure cache read, no simulation — missing
    cells become ``—``, and :meth:`figure` refuses them) or
    :meth:`from_stats` (an in-memory
    :class:`~repro.analysis.parallel.SpecResult`'s decoded cells).  Both
    paths extract the spec's declared fields once per cell and aggregate
    identically, which is what makes ``repro report sweep`` reproduce
    ``repro sweep`` tables value-for-value.

    Attributes:
        spec: the reported spec (the
            :class:`~repro.analysis.parallel.MatrixSpec` surface:
            ``name``, ``description``, ``cells()`` and optionally
            ``cell_kind`` — sweeps and fuzz campaigns alike).
        cells: ``(protocol, workload, cores, scale)`` -> decoded cell, for
            the cells present (the paper's figures extract from these).
        baseline: protocol name normalized columns divide against
            (``None`` disables normalization).
        fields: the declared fields reported, in declaration order
            (``spec.metrics`` selects a subset for the stats kind).
        warnings: human-readable aggregation caveats (missing baseline
            cells, incomplete mixes, unknown baseline).
    """

    def __init__(self, spec, cells: Dict[Tuple[str, str, int, float], object],
                 baseline: Optional[str] = None) -> None:
        self.spec = spec
        self.kind: CellKind = get_cell_kind(getattr(spec, "cell_kind", "stats"))
        self.baseline = baseline
        self.fields: Tuple[ReportField, ...] = self._select_fields()
        self.warnings: List[str] = []
        # Axes derived from the expansion rather than spec attributes, so
        # any spec with the ``cells()`` surface (fuzz campaigns included)
        # reports through the same machinery.
        self._expansion: List[Tuple[int, float, str, str]] = spec.cells()
        self.protocols: List[str] = _ordered_unique(
            p for _, _, p, _ in self._expansion)
        self.platforms: List[Tuple[int, float]] = _ordered_unique(
            (c, s) for c, s, _, _ in self._expansion)
        self.workloads: List[str] = _ordered_unique(
            w for _, _, _, w in self._expansion)
        self._mix_workloads: Dict[Tuple[int, float], List[str]] = {
            platform: _ordered_unique(
                w for c, s, _, w in self._expansion if (c, s) == platform)
            for platform in self.platforms
        }
        self.cells = cells
        # (protocol, workload, cores, scale) -> {field name: value}, only
        # for cells actually present.
        self.values: Dict[Tuple[str, str, int, float], Dict[str, object]] = {
            cell: {f.name: f.extract(decoded) for f in self.fields}
            for cell, decoded in cells.items()
        }
        if baseline is not None and baseline not in self.protocols:
            self.warnings.append(
                f"baseline {baseline!r} is not on the sweep's protocol axis; "
                f"normalized columns will be {MISSING}")

    def _select_fields(self) -> Tuple[ReportField, ...]:
        declared = self.kind.report_fields
        selected = getattr(self.spec, "metrics", None)
        if selected:
            by_name = {f.name: f for f in declared}
            missing = [m for m in selected if m not in by_name]
            if missing:
                raise ValueError(
                    f"spec {self.spec.name!r} selects undeclared report "
                    f"fields {missing} of kind {self.kind.name!r}")
            return tuple(by_name[m] for m in selected)
        return declared

    # -------------------------------------------------------- constructors

    @classmethod
    def from_cache(cls, spec, cache: Union[str, Path, ResultCache],
                   baseline: Optional[str] = None) -> "SpecReport":
        """Aggregate whatever the cache holds for ``spec`` — a pure read
        (never simulates, never mutates the tree); absent or invalid
        entries leave holes reported as ``—``."""
        if not isinstance(cache, ResultCache):
            cache = ResultCache(Path(cache))
        kind = get_cell_kind(getattr(spec, "cell_kind", "stats"))
        cells: Dict[Tuple[str, str, int, float], object] = {}
        for cell in plan_sweep(spec, shard_count=1).cells:
            payload = cache.peek(cell.key)
            if payload is None or payload.get("kind", "stats") != kind.name:
                continue
            cells[(cell.protocol, cell.workload, cell.cores, cell.scale)] = \
                kind.decode(payload)
        if baseline is None:
            baseline = getattr(spec, "baseline", None)
        return cls(spec, cells, baseline=baseline)

    @classmethod
    def from_stats(cls, spec,
                   stats: Mapping[Tuple[str, str, int, float], object],
                   baseline: Optional[str] = None) -> "SpecReport":
        """Wrap an in-memory result (``SpecResult.cells``-shaped mapping
        of decoded objects) in the same aggregation pipeline."""
        if baseline is None:
            baseline = getattr(spec, "baseline", None)
        return cls(spec, dict(stats), baseline=baseline)

    # ------------------------------------------------------------- queries

    @property
    def complete(self) -> bool:
        """Whether every cell of the spec's expansion was present."""
        return all((p, w, c, s) in self.values
                   for c, s, p, w in self._expansion)

    @property
    def num_present(self) -> int:
        return len(self.values)

    def _formats(self) -> Dict[str, str]:
        formats = {f.name: f.format for f in self.fields}
        for f in self.fields:
            if f.directed:
                formats[f"{f.name}_speedup"] = "{:.3f}"
        return formats

    def cell_table(self) -> ReportTable:
        """One row per *present* cell with every reported field."""
        rows: List[Dict[str, object]] = []
        for cores, scale, protocol, workload in self._expansion:
            extracted = self.values.get((protocol, workload, cores, scale))
            if extracted is None:
                continue
            row: Dict[str, object] = {
                "protocol": protocol, "workload": workload,
                "cores": cores, "scale": scale,
            }
            row.update(extracted)
            rows.append(row)
        return ReportTable(
            columns=list(_AXIS_COLUMNS) + [f.name for f in self.fields],
            rows=rows, formats=self._formats(),
            title=f"Cells of {self.spec.name} "
                  f"({self.num_present}/{len(self._expansion)} present)")

    def _mix_value(self, f: ReportField, protocol: str, cores: int,
                   scale: float) -> Optional[object]:
        """One field aggregated over the platform point's workload mix,
        ``None`` when any mix cell is missing (summing over holes would
        silently compare unequal subsets)."""
        per_cell = []
        for workload in self._mix_workloads[(cores, scale)]:
            extracted = self.values.get((protocol, workload, cores, scale))
            if extracted is None:
                return None
            per_cell.append(extracted[f.name])
        return aggregate_values(f.aggregate, per_cell)

    def mix_table(self, normalized: bool = True) -> ReportTable:
        """One row per (protocol, cores, scale): fields aggregated over the
        workload mix — the table ``repro sweep`` prints — plus, when
        ``normalized``, a ``<field>_speedup`` column against
        the baseline variant and a closing geomean row per platform point.

        Speedup is ``baseline/value`` for lower-is-better fields and
        ``value/baseline`` for higher-is-better ones, so > 1 always means
        better than baseline.  A missing baseline mix (e.g. its cells live
        in an unmerged shard) warns once and renders ``—`` instead of
        silently dropping the column.
        """
        normalize = normalized and self.baseline is not None
        directed = [f for f in self.fields if f.directed] if normalize else []
        columns = ["protocol", "cores", "scale"]
        for f in self.fields:
            columns.append(f.name)
            if f in directed:
                columns.append(f"{f.name}_speedup")
        rows: List[Dict[str, object]] = []
        for cores, scale in self.platforms:
            base = {f.name: self._mix_value(f, self.baseline, cores, scale)
                    for f in directed} if normalize else {}
            if normalize and directed and \
                    all(v is None for v in base.values()):
                self._warn_missing_baseline(cores, scale)
            group: List[Dict[str, object]] = []
            for protocol in self.protocols:
                row: Dict[str, object] = {
                    "protocol": protocol, "cores": cores, "scale": scale,
                }
                for f in self.fields:
                    value = self._mix_value(f, protocol, cores, scale)
                    row[f.name] = value
                    if f in directed:
                        row[f"{f.name}_speedup"] = _speedup(
                            value, base.get(f.name), f.better)
                group.append(row)
            rows.extend(group)
            if directed:
                gmean_row: Dict[str, object] = {
                    "protocol": "geomean", "cores": cores, "scale": scale,
                }
                for f in directed:
                    gmean_row[f"{f.name}_speedup"] = geomean(
                        row.get(f"{f.name}_speedup") for row in group)
                rows.append(gmean_row)
        mix = (", ".join(self.workloads) if len(self.workloads) <= 6
               else f"{len(self.workloads)} workloads")
        title = (f"Report {self.spec.name} — {self.spec.description} "
                 f"(workloads: {mix}")
        title += f"; baseline: {self.baseline})" if normalize else ")"
        return ReportTable(columns=columns, rows=rows,
                           formats=self._formats(), title=title)

    def _warn_missing_baseline(self, cores: int, scale: float) -> None:
        message = (
            f"baseline {self.baseline!r} has no complete workload mix at "
            f"cores={cores} scale={scale} (cells in an unmerged shard?); "
            f"normalized columns degrade to {MISSING}")
        if message not in self.warnings:
            self.warnings.append(message)

    def _platform(self, cores: Optional[int],
                  scale: Optional[float]) -> Tuple[int, float]:
        """``(cores, scale)``, taking an omitted one from the first
        platform point."""
        if cores is None or scale is None:
            default = self.platforms[0]
            cores = cores if cores is not None else default[0]
            scale = scale if scale is not None else default[1]
        return cores, scale

    def _platform_cells(self, protocols: Sequence[str], cores: int,
                        scale: float):
        """``(protocol, workload, cell)`` for every cell of ``protocols`` at
        one platform point, present or not, in axis order — the
        per-workload loop of pivots and figures."""
        for protocol in protocols:
            for workload in self._mix_workloads.get((cores, scale), []):
                yield protocol, workload, (protocol, workload, cores, scale)

    def pivot(self, field_name: str, cores: Optional[int] = None,
              scale: Optional[float] = None) -> Dict[str, Dict[str, float]]:
        """Figure-style series for one field: ``{protocol: {workload:
        value}}`` at one platform point (the layout of the paper's
        figures; feed to
        :func:`repro.analysis.tables.format_series_table`)."""
        names = [f.name for f in self.fields]
        if field_name not in names:
            raise ValueError(
                f"unknown report field {field_name!r}; known: "
                f"{', '.join(names)}")
        cores, scale = self._platform(cores, scale)
        series: Dict[str, Dict[str, float]] = {p: {} for p in self.protocols}
        for protocol, workload, cell in self._platform_cells(
                self.protocols, cores, scale):
            if cell in self.values:
                series[protocol][workload] = self.values[cell][field_name]
        return series

    def figures(self, cores: Optional[int] = None,
                scale: Optional[float] = None) -> str:
        """Every reported field as a figure-style series table (one column
        per variant, one row per workload) at one platform point — the
        ``repro sweep --figure`` view."""
        cores, scale = self._platform(cores, scale)
        sections = []
        for f in self.fields:
            sections.append(format_series_table(
                self.pivot(f.name, cores=cores, scale=scale),
                row_order=self._mix_workloads.get((cores, scale), []),
                float_format=f.format,
                title=f"{self.spec.name}: {f.name} per workload "
                      f"(cores={cores}, scale={scale})"))
        return "\n\n".join(sections)

    def figure(self, number: int, cores: Optional[int] = None,
               scale: Optional[float] = None) -> Dict[str, Dict[str, float]]:
        """The series of the paper's Figure ``number`` (a :data:`FIGURES`
        view) at one platform point: ``{column: {workload: value}}``, plus
        a ``gmean`` row per column when the figure is normalized.

        Raises:
            KeyError: for a figure number without a view.
            ValueError: for a normalized figure whose protocols omit
                :data:`FIGURE_BASELINE`, or when a cell of the figure's
                protocols at that platform point is missing (a partial
                cache or shard): columns over unequal workload subsets,
                and their gmean rows, would not compare.
        """
        from repro.protocols.registry import get_protocol

        view = FIGURES[number]
        view.check(self.protocols)
        protocols = [p for p in self.protocols
                     if not view.self_invalidating_only
                     or get_protocol(p).self_invalidates]
        cores, scale = self._platform(cores, scale)
        series: Dict[str, Dict[str, float]] = {}
        missing: List[str] = []
        for protocol, workload, cell in self._platform_cells(
                protocols, cores, scale):
            decoded = self.cells.get(cell)
            if decoded is None:
                missing.append(f"{protocol} x {workload}")
                continue
            for component, value in view.extract(decoded).items():
                column = f"{protocol}:{component}" if component else protocol
                series.setdefault(column, {})[workload] = value
        if missing:
            shown = ", ".join(missing[:4])
            if len(missing) > 4:
                shown += f", and {len(missing) - 4} more"
            raise ValueError(
                f"Figure {number} needs every cell at cores={cores} "
                f"scale={scale}; {len(missing)} missing: {shown}")
        if view.normalized:
            base = series.get(FIGURE_BASELINE, {})
            series = {column: {w: v / base[w] for w, v in values.items()
                               if base.get(w)}
                      for column, values in series.items()}
            for values in series.values():
                if values:
                    values["gmean"] = geomean(values.values())
        return series

    def figure_table(self, number: int, cores: Optional[int] = None,
                     scale: Optional[float] = None) -> str:
        """Figure ``number`` as ``repro figure`` prints it: one column per
        protocol (or ``protocol:component``), one row per workload."""
        cores, scale = self._platform(cores, scale)
        return format_series_table(
            self.figure(number, cores, scale),
            row_order=self._mix_workloads.get((cores, scale), []),
            title=FIGURES[number].title)


def _speedup(value: Optional[object], base: Optional[object],
             better: Optional[str]) -> Optional[float]:
    """Normalize one mix value against the baseline's so that > 1 is
    better: ``base/value`` for lower-is-better fields, ``value/base``
    otherwise.  Missing operands or a zero denominator yield ``None``."""
    if value is None or base is None:
        return None
    num, den = (base, value) if better == "lower" else (value, base)
    try:
        return num / den
    except ZeroDivisionError:
        return None


# ------------------------------------------------------------ cache gather

def gather_cells(cache: Union[str, Path, ResultCache],
                 kind: Optional[str] = None,
                 protocol: Optional[str] = None,
                 workload: Optional[str] = None) -> Dict[str, ReportTable]:
    """Filter every valid cached cell into one :class:`ReportTable` per
    cell kind (cells of different kinds have different declared columns, so
    they cannot share a table).

    A pure tree scan that parses every entry — torn or alien entries are
    skipped, nothing is mutated.  ``kind``/``protocol``/``workload``
    narrow the match; identity columns come from the payload itself
    (every bundled kind writes ``protocol``/``workload`` into its
    payload).  This is the cache listing ``repro report cache`` prints.
    """
    grouped: Dict[str, List[Tuple[str, Dict[str, object]]]] = {}
    for path in iter_entry_files(_cache_root(cache)):
        payload = read_entry(path)
        if payload is None:
            continue
        entry_kind = payload.get("kind", "stats")
        if kind is not None and entry_kind != kind:
            continue
        if protocol is not None and payload.get("protocol") != protocol:
            continue
        if workload is not None and payload.get("workload") != workload:
            continue
        grouped.setdefault(entry_kind, []).append((path.stem, payload))
    tables: Dict[str, ReportTable] = {}
    for entry_kind, entries in sorted(grouped.items()):
        cell_kind = get_cell_kind(entry_kind)
        fields = cell_kind.report_fields
        rows = []
        for key, payload in entries:
            decoded = cell_kind.decode(payload)
            row: Dict[str, object] = {
                "key": key[:12],
                "protocol": payload.get("protocol"),
                "workload": payload.get("workload"),
            }
            for f in fields:
                row[f.name] = f.extract(decoded)
            rows.append(row)
        rows.sort(key=lambda r: (str(r["protocol"]), str(r["workload"]),
                                 r["key"]))
        tables[entry_kind] = ReportTable(
            columns=["key", "protocol", "workload"] + [f.name for f in fields],
            rows=rows, formats={f.name: f.format for f in fields},
            title=f"Cached {entry_kind!r} cells ({len(rows)})")
    return tables


# ---------------------------------------------------------- snapshot diffs

@dataclass
class SnapshotDiff:
    """Cell-by-cell classification of two cache trees.

    Valid entries compare by **canonical payload** (sorted-key JSON
    re-serialization), so formatting differences never count as drift.
    Torn (unparseable) and alien/stale (parseable but not a current cache
    payload) entries are tracked per side and excluded from the
    added/removed/changed accounting — a snapshot diffed against itself is
    always ``0 added / 0 removed / 0 changed``.
    """

    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    changed: List[str] = field(default_factory=list)
    unchanged: int = 0
    invalid_a: List[str] = field(default_factory=list)
    invalid_b: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No drift of any class (invalid entries included)."""
        return not (self.added or self.removed or self.changed
                    or self.invalid_a or self.invalid_b)

    def counts(self) -> Dict[str, int]:
        return {
            "added": len(self.added),
            "removed": len(self.removed),
            "changed": len(self.changed),
            "unchanged": self.unchanged,
            "invalid_a": len(self.invalid_a),
            "invalid_b": len(self.invalid_b),
        }

    def describe(self) -> str:
        counts = self.counts()
        lines = [
            f"snapshot diff: {counts['changed']} changed / "
            f"{counts['added']} added / {counts['removed']} removed / "
            f"{counts['unchanged']} unchanged"
            + (f" / {counts['invalid_a']}+{counts['invalid_b']} invalid"
               if self.invalid_a or self.invalid_b else "")
        ]
        for label, keys in (("changed", self.changed), ("added", self.added),
                            ("removed", self.removed),
                            ("invalid in A", self.invalid_a),
                            ("invalid in B", self.invalid_b)):
            for key in keys:
                lines.append(f"  {label}: {key}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "counts": self.counts(),
            "added": self.added, "removed": self.removed,
            "changed": self.changed,
            "invalid_a": self.invalid_a, "invalid_b": self.invalid_b,
        }, indent=2) + "\n"


def _snapshot_entries(root: Path, kind: Optional[str]
                      ) -> Tuple[Dict[str, str], List[str]]:
    """``{key: canonical payload}`` for one tree plus the keys of its
    torn/alien entries.  ``kind`` filters valid entries; an invalid entry
    has no trustworthy kind, so it is always reported."""
    canonical: Dict[str, str] = {}
    invalid: List[str] = []
    for path in iter_entry_files(root):
        payload = read_entry(path)
        if payload is None:
            invalid.append(path.stem)
            continue
        if kind is not None and payload.get("kind", "stats") != kind:
            continue
        canonical[path.stem] = json.dumps(payload, sort_keys=True)
    return canonical, invalid


def diff_snapshots(a: Union[str, Path, ResultCache],
                   b: Union[str, Path, ResultCache],
                   kind: Optional[str] = None) -> SnapshotDiff:
    """Diff cache tree ``a`` (the reference) against ``b`` (the candidate).

    ``added``/``removed`` are relative to the candidate: a key only in
    ``b`` is added, a key only in ``a`` is removed.  ``kind`` restricts
    the comparison to one cell kind (e.g. ``"stats"`` in the CI drift
    gate, where the merged cache also holds fuzz cells the freshly
    recomputed set does not).  Pure read — safe on live caches.
    """
    entries_a, invalid_a = _snapshot_entries(_cache_root(a), kind)
    entries_b, invalid_b = _snapshot_entries(_cache_root(b), kind)
    diff = SnapshotDiff(invalid_a=sorted(invalid_a),
                        invalid_b=sorted(invalid_b))
    for key in sorted(set(entries_a) | set(entries_b)):
        if key not in entries_a:
            diff.added.append(key)
        elif key not in entries_b:
            diff.removed.append(key)
        elif entries_a[key] != entries_b[key]:
            diff.changed.append(key)
        else:
            diff.unchanged += 1
    return diff


# --------------------------------------------------------------- dashboard

_DASHBOARD_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1b1f24; background: #fafbfc; }
h1 { border-bottom: 2px solid #d0d7de; padding-bottom: .4rem; }
h2 { margin-top: 2.2rem; }
p.meta { color: #57606a; font-size: .9rem; }
table { border-collapse: collapse; margin: 1rem 0; font-size: .85rem; }
caption { caption-side: top; text-align: left; font-weight: 600;
          padding-bottom: .4rem; }
th, td { border: 1px solid #d0d7de; padding: .3rem .6rem; }
th { background: #f6f8fa; text-align: left; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
tr:nth-child(even) td { background: #f6f8fa; }
ul.warnings { color: #9a6700; }
""".strip()


def render_dashboard(reports: Sequence[SpecReport],
                     title: str = "repro report dashboard",
                     generated: str = "") -> str:
    """A static, self-contained HTML dashboard: one section per spec with
    its normalized mix table and per-field figure pivots (no external
    assets — uploadable as a single CI artifact)."""
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_html.escape(title)}</title>",
        f"<style>{_DASHBOARD_CSS}</style>",
        "</head><body>",
        f"<h1>{_html.escape(title)}</h1>",
    ]
    if generated:
        parts.append(f'<p class="meta">{_html.escape(generated)}</p>')
    if not reports:
        parts.append("<p>No cached cells matched any requested spec.</p>")
    for report in reports:
        spec = report.spec
        parts.append(f"<h2>{_html.escape(spec.name)}</h2>")
        parts.append(
            f'<p class="meta">{_html.escape(spec.description)} — '
            f"{report.num_present}/{len(spec.cells())} cells cached"
            + (", complete" if report.complete else ", partial") + "</p>")
        parts.append(report.mix_table().to_html())
        for cores, scale in report.platforms:
            for f in report.fields:
                series = report.pivot(f.name, cores=cores, scale=scale)
                if not any(series.values()):
                    continue
                pivot_rows = [
                    dict({"workload": w},
                         **{p: series[p].get(w) for p in series})
                    for w in report._mix_workloads[(cores, scale)]
                ]
                parts.append(ReportTable(
                    columns=["workload"] + list(series),
                    rows=pivot_rows,
                    formats={p: f.format for p in series},
                    title=f"{f.name} per workload "
                          f"(cores={cores}, scale={scale})").to_html())
        if report.warnings:
            parts.append('<ul class="warnings">')
            for warning in report.warnings:
                parts.append(f"<li>{_html.escape(warning)}</li>")
            parts.append("</ul>")
    parts.append("</body></html>")
    return "\n".join(parts)
