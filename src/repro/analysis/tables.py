"""Plain-text table rendering for the benchmark harness and examples, plus
row builders over the protocol plugin API (``repro list protocols``)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.3f}",
    title: str = "",
) -> str:
    """Render a list of row dictionaries as an aligned plain-text table."""
    if not rows:
        return title + "\n(empty)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series_table(
    series: Mapping[str, Mapping[str, float]],
    row_order: Optional[Iterable[str]] = None,
    float_format: str = "{:.3f}",
    title: str = "",
    row_label: str = "workload",
) -> str:
    """Render a ``{config: {row: value}}`` mapping as a table with one column
    per configuration (the layout of the paper's figures)."""
    configs = list(series.keys())
    rows: List[str] = []
    seen = set()
    if row_order is not None:
        rows = [r for r in row_order]
        seen = set(rows)
    for per_row in series.values():
        for key in per_row:
            if key not in seen:
                rows.append(key)
                seen.add(key)
    table_rows: List[Dict[str, object]] = []
    for row in rows:
        entry: Dict[str, object] = {row_label: row}
        for config in configs:
            value = series[config].get(row)
            entry[config] = value if value is not None else ""
        table_rows.append(entry)
    return format_table(table_rows, columns=[row_label] + configs,
                        float_format=float_format, title=title)


def protocol_rows(protocols=None, system_config=None) -> List[Dict[str, object]]:
    """One row per registered protocol plugin: name, family kind, metadata
    flags, config summary and storage overhead on ``system_config`` (the
    full Table 2 platform by default).  Consumed by ``repro list
    protocols``."""
    from repro.protocols.registry import registered_protocols
    from repro.sim.config import SystemConfig

    if protocols is None:
        protocols = registered_protocols()
    if system_config is None:
        system_config = SystemConfig()
    rows: List[Dict[str, object]] = []
    for protocol in protocols:
        rows.append({
            "protocol": protocol.name,
            "kind": protocol.kind,
            "paper": "yes" if protocol.in_paper else "no",
            "baseline": "yes" if protocol.is_baseline else "no",
            "self_inval": "yes" if protocol.self_invalidates else "no",
            "storage_bits": protocol.overhead_bits(system_config),
            "config": protocol.config_summary(),
        })
    return rows
