"""Tests for the declarative sensitivity-sweep subsystem and its CLI.

Covers the :class:`~repro.analysis.sweeps.SweepSpec` axis expansion, the
sweep registry, the variant groups the bundled sweeps range over, execution
through the cached :class:`~repro.analysis.parallel.MatrixExecutor`, and
the ``repro sweep`` subcommand.
"""

import pytest

from repro.analysis.parallel import ResultCache
from repro.analysis.sweeps import (METRICS, SWEEPS, SweepSpec, get_sweep,
                                   list_sweeps, register_sweep)
from repro.cli import main
from repro.protocols.registry import (VARIANT_GROUPS, Protocol,
                                      get_protocol, list_protocol_names,
                                      register_variants,
                                      unregister_configuration,
                                      variant_group)


def tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        name="tiny",
        description="two-variant smoke sweep",
        protocols=("MESI", "TSO-CC-4-12-3"),
        workloads=("fft",),
        cores=(2,),
        scales=(0.2,),
        metrics=("cycles", "flits"),
    )
    base.update(overrides)
    return SweepSpec(**base)


# ------------------------------------------------------------------ spec expansion

def test_cells_expand_all_axes():
    spec = tiny_spec(workloads=("fft", "radix"), cores=(2, 4), scales=(0.2, 0.3))
    cells = spec.cells()
    assert len(cells) == spec.num_cells == 2 * 2 * 2 * 2
    assert cells[0] == (2, 0.2, "MESI", "fft")
    # Deterministic order: cores, then scale, then protocol, then workload.
    assert cells == sorted(cells, key=lambda c: (spec.cores.index(c[0]),
                                                 spec.scales.index(c[1]),
                                                 spec.protocols.index(c[2]),
                                                 spec.workloads.index(c[3])))


def test_subset_overrides_axes():
    spec = tiny_spec().subset(workloads=["radix"], cores=[4])
    assert spec.workloads == ("radix",) and spec.cores == (4,)
    assert spec.protocols == ("MESI", "TSO-CC-4-12-3")   # untouched


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown metrics"):
        tiny_spec(metrics=("cycles", "bogus"))
    with pytest.raises(ValueError, match="empty"):
        tiny_spec(protocols=())
    with pytest.raises(ValueError, match="empty"):
        tiny_spec(cores=())


def test_run_rejects_unregistered_protocol():
    with pytest.raises(KeyError, match="unregistered"):
        tiny_spec(protocols=("NOPE-9000",)).run()


def test_baseline_is_soft_metadata():
    # A baseline is report metadata, not an axis: it need not be on the
    # protocol axis (its cells may live in another shard) and it survives
    # subset() so sharded/filtered runs still report against it.
    spec = tiny_spec(baseline="MESI")
    assert spec.baseline == "MESI"
    assert tiny_spec(baseline="MOESI").cells() == tiny_spec().cells()
    assert spec.subset(protocols=["TSO-CC-4-12-3"]).baseline == "MESI"
    assert tiny_spec().baseline is None


def test_bundled_sweeps_declare_baselines():
    assert get_sweep("ci-smoke").baseline == "MESI"
    assert get_sweep("protocol-baselines").baseline == "MESI"
    for name in ("timestamp-bits", "access-counter", "decay", "shared-ro",
                 "ts-table"):
        assert get_sweep(name).baseline == "TSO-CC-4-12-3"


# ------------------------------------------------------------------ registry

def test_bundled_sweeps_cover_the_roadmap_families():
    names = [spec.name for spec in list_sweeps()]
    assert len(names) >= 3
    for expected in ("timestamp-bits", "access-counter", "decay",
                     "shared-ro", "protocol-baselines", "ts-table"):
        assert expected in names


# ------------------------------------------------------------------ ts-table

def test_ts_table_variants_pin_the_axis():
    """The ts_table_entries axis of the ROADMAP protocol item: the variant
    group ranges LRU-evicting table capacities against the paper default
    (one entry per core, no eviction)."""
    members = variant_group("tsocc-ts-table")
    assert members == ["TSO-CC-4-12-3-tsTable1", "TSO-CC-4-12-3-tsTable2",
                       "TSO-CC-4-12-3-tsTable4", "TSO-CC-4-12-3"]
    capacities = [get_protocol(name).config.ts_table_entries
                  for name in members]
    assert capacities == [1, 2, 4, None]
    # Only the capacity differs from the paper's best configuration.
    base = get_protocol("TSO-CC-4-12-3").config
    for name in members[:-1]:
        config = get_protocol(name).config
        assert (config.max_acc_bits, config.ts_bits,
                config.write_group_bits) == (base.max_acc_bits, base.ts_bits,
                                             base.write_group_bits)


def test_ts_table_sweep_cell_expansion_pinned():
    spec = get_sweep("ts-table")
    assert spec.protocols == tuple(variant_group("tsocc-ts-table"))
    assert spec.workloads == ("fft", "dedup", "intruder")
    assert (spec.cores, spec.scales) == ((8,), (0.3,))
    assert spec.num_cells == 12
    cells = spec.cells()
    assert cells[0] == (8, 0.3, "TSO-CC-4-12-3-tsTable1", "fft")
    assert cells[-1] == (8, 0.3, "TSO-CC-4-12-3", "intruder")


def test_ts_table_sweep_cache_keys_stable_across_processes():
    """The sweep's cache keys are a pure function of its declaration: an
    independent interpreter computes byte-identical keys, so ts-table
    cells cache and shard exactly like every other cell."""
    import json
    import subprocess
    import sys
    from pathlib import Path

    from repro.analysis.shard import plan_sweep

    spec = get_sweep("ts-table")
    plan = plan_sweep(spec, shard_count=1)
    ours = [cell.key for cell in plan.cells]
    assert len(set(ours)) == spec.num_cells
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from repro.analysis.shard import plan_sweep\n"
        "from repro.analysis.sweeps import get_sweep\n"
        "plan = plan_sweep(get_sweep('ts-table'), shard_count=1)\n"
        "print(json.dumps([cell.key for cell in plan.cells]))\n"
    )
    theirs = json.loads(subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True).stdout)
    assert ours == theirs


def test_bundled_sweeps_reference_registered_configurations():
    known = set(list_protocol_names())
    for spec in list_sweeps():
        assert set(spec.protocols) <= known
        for metric in spec.metrics:
            assert metric in METRICS


def test_register_sweep_rejects_duplicates():
    with pytest.raises(ValueError):
        register_sweep(get_sweep("timestamp-bits"))


def test_get_sweep_unknown_name():
    with pytest.raises(KeyError, match="unknown sweep"):
        get_sweep("definitely-not-a-sweep")


def test_sweeps_registry_order_is_stable():
    assert list(SWEEPS) == [spec.name for spec in list_sweeps()]


# ------------------------------------------------------------------ variant groups

def test_variant_groups_published_for_every_tsocc_axis():
    for group in ("tsocc-timestamp-bits", "tsocc-access-counter",
                  "tsocc-decay", "tsocc-shared-ro", "tsocc-ts-table"):
        members = variant_group(group)
        assert len(members) >= 2
        for name in members:
            assert get_protocol(name).kind == "tsocc"
    with pytest.raises(KeyError):
        variant_group("no-such-group")


def test_generated_variants_are_never_in_the_paper_matrix():
    from repro.protocols.registry import PAPER_CONFIGURATIONS
    assert "TSO-CC-4-6-3" in variant_group("tsocc-timestamp-bits")
    assert "TSO-CC-4-6-3" not in PAPER_CONFIGURATIONS
    # ... while paper configurations referenced by name stay in it.
    assert "TSO-CC-4-12-3" in PAPER_CONFIGURATIONS


def test_register_variants_accepts_names_and_instances():
    class ThrowawayProtocol(Protocol):
        kind = "throwaway"

        @property
        def name(self):
            return "Throwaway-1"

        def overhead_bits(self, system_config):
            return 1

    names = register_variants("throwaway-group",
                              ["MESI", ThrowawayProtocol()])
    try:
        assert names == ["MESI", "Throwaway-1"]
        assert variant_group("throwaway-group") == names
        assert not get_protocol("Throwaway-1").in_paper
        with pytest.raises(KeyError):
            register_variants("throwaway-group", ["not-registered"])
    finally:
        unregister_configuration("Throwaway-1")
        VARIANT_GROUPS.pop("throwaway-group", None)


def test_register_variants_rejects_clashing_instance_without_corruption():
    """Passing an already-registered plugin *instance* (instead of its
    name) must fail cleanly — in particular it must not flip the registered
    paper configuration's ``in_paper`` flag before the clash is detected."""
    paper = get_protocol("TSO-CC-4-12-3")
    with pytest.raises(ValueError, match="already registered"):
        register_variants("clash-group", [paper])
    assert paper.in_paper
    from repro.protocols.registry import PAPER_CONFIGURATIONS
    assert "TSO-CC-4-12-3" in PAPER_CONFIGURATIONS
    VARIANT_GROUPS.pop("clash-group", None)


def test_unregister_removes_variant_from_groups():
    class TempProtocol(Protocol):
        kind = "temp-variant"

        @property
        def name(self):
            return "Temp-1"

        def overhead_bits(self, system_config):
            return 1

    register_variants("temp-group", [TempProtocol()])
    unregister_configuration("Temp-1")
    assert "Temp-1" not in VARIANT_GROUPS["temp-group"]
    VARIANT_GROUPS.pop("temp-group", None)


def test_variant_configs_match_their_names():
    """The generated name encodes the parameter triple; the registered
    configuration must actually carry those parameters."""
    config = get_protocol("TSO-CC-4-6-3").config
    assert (config.max_acc_bits, config.ts_bits, config.write_group_bits) \
        == (4, 6, 3)
    config = get_protocol("TSO-CC-0-12-3").config
    assert config.max_acc_bits == 0
    nosro = get_protocol("TSO-CC-4-12-3-noSRO").config
    assert not nosro.use_shared_ro and nosro.decay_writes is None


# ------------------------------------------------------------------ execution

def test_sweep_runs_through_the_cached_executor(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = tiny_spec()
    result = spec.run(jobs=1, cache=cache)
    assert result.simulations_run == spec.num_cells == 2
    rows = result.report().mix_table(normalized=False).rows
    assert [row["protocol"] for row in rows] == list(spec.protocols)
    for row in rows:
        assert row["cycles"] > 0 and row["flits"] > 0
    # Cell rows carry the per-workload grain.
    assert len(result.report().cell_table()) == spec.num_cells
    # A second run with the same cache performs zero new simulations and
    # reproduces the numbers exactly.
    again = spec.run(jobs=1, cache=cache)
    assert again.simulations_run == 0
    assert again.report().mix_table(normalized=False).rows == rows


def test_sweep_accessors_and_tabulation(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = tiny_spec()
    result = spec.run(jobs=1, cache=cache)
    report = result.report()
    mix = report.mix_table(normalized=False)
    by = {row["protocol"]: row for row in mix.rows}
    assert by["MESI"]["cycles"] == sum(
        stats.cycles for (protocol, _, _, _), stats in result.cells.items()
        if protocol == "MESI")
    table = mix.render()
    assert "MESI" in table and "cycles" in table
    per_cell = report.cell_table().render()
    assert "workload" in per_cell and "fft" in per_cell


# ------------------------------------------------------------------ CLI

def test_cli_sweep_list(capsys):
    assert main(["sweep", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("timestamp-bits", "access-counter", "decay",
                 "shared-ro", "protocol-baselines"):
        assert name in out


def test_cli_sweep_cells(capsys):
    assert main(["sweep", "timestamp-bits", "--cells"]) == 0
    out = capsys.readouterr().out
    assert "TSO-CC-4-6-3" in out and "canneal" in out


def test_cli_sweep_unknown_name(capsys):
    assert main(["sweep", "not-a-sweep"]) == 2


def test_cli_sweep_unknown_protocol_override(capsys):
    """A typo in --protocols must be reported as user error (exit 2, clean
    message), not an unhandled KeyError traceback."""
    assert main(["sweep", "timestamp-bits",
                 "--protocols", "TSO-CC-9-9-9", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "TSO-CC-9-9-9" in err and "Traceback" not in err


def test_cli_sweep_runs_small_subset(tmp_path, capsys):
    code = main(["sweep", "timestamp-bits",
                 "--protocols", "TSO-CC-4-12-3,TSO-CC-4-6-3",
                 "--workloads", "fft", "--cores", "2", "--scales", "0.2",
                 "--cache-dir", str(tmp_path / "cache"), "--jobs", "1",
                 "--save", "--results-dir", str(tmp_path / "results")])
    assert code == 0
    out = capsys.readouterr().out
    assert "TSO-CC-4-6-3" in out and "cycles" in out
    assert (tmp_path / "results" / "sweep_timestamp-bits.txt").exists()


def test_cli_sweep_help_smoke(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--help"])
    assert excinfo.value.code == 0
    assert "--list" in capsys.readouterr().out
