"""Tests for the conformance-fuzzing subsystem (repro/consistency/fuzz.py).

Four properties are load-bearing:

* **Matrix citizenship** — fuzz cells flow through the same executor,
  cache and shard planner as paper cells: byte-identical payloads inline
  and pooled, zero re-simulation on a warm cache, disjoint shard cover,
  and corrupt-entry replacement on merge.
* **Seeded determinism** — a campaign cell's generated op stream, cache
  key and verdict payload are pure functions of the encoded workload
  name, byte-identical across independent processes.
* **Teeth** — every real protocol passes; the deliberately broken
  ``MESI-droppedinv`` mutant (``tests/_mutant.py``) is reported as a TSO
  violation, and the counterexample shrinks to a minimal test that still
  violates.
* **CLI surface** — a campaign through ``repro list campaigns``,
  ``repro sweep``, ``repro shard run/merge`` and ``repro fuzz
  replay/shrink``, and ``repro litmus --random``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import _mutant
from repro.analysis.parallel import (ResultCache, cell_key, get_cell_kind,
                                     payload_is_current)
from repro.analysis.shard import merge_results, missing_cells, plan_sweep
from repro.cli import main
from repro.consistency.fuzz import (FUZZ_SCHEMA_VERSION, FuzzCampaign,
                                    FuzzCellResult, failing_cells,
                                    fuzz_workload_name, generate_cell_test,
                                    get_campaign, list_campaigns,
                                    parse_fuzz_workload, replay_cell,
                                    shrink_cell, shrink_test,
                                    simulate_fuzz_cell)
from repro.consistency.litmus import generate_random_test
from repro.sim.config import SystemConfig

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _clean_shard_env(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD", raising=False)


def tiny_campaign(**overrides) -> FuzzCampaign:
    base = dict(
        name="tiny-fuzz",
        description="test fixture",
        protocols=("MESI", "TSO-CC-4-12-3"),
        num_seeds=4,
        num_threads=(2,),
        ops_per_thread=(4,),
        num_vars=(2,),
        fence_permille=(150,),
        iterations=3,
        max_jitter=25,
    )
    base.update(overrides)
    return FuzzCampaign(**base)


#: Axes on which the mutant is deterministically caught (probed offline;
#: everything is seeded, so the catch is reproducible).
TEETH = dict(num_seeds=10, seed_start=0, num_threads=(2,),
             ops_per_thread=(6,), num_vars=(2,), fence_permille=(150,),
             iterations=8, max_jitter=60)
TEETH_SEED = 8


# ------------------------------------------------------------------ naming

def test_workload_name_round_trip():
    name = fuzz_workload_name(17, 2, 5, 2, 150, 6, 40)
    assert name == "fuzz:s17:t2:o5:v2:f150:i6:j40"
    assert parse_fuzz_workload(name) == {
        "seed": 17, "num_threads": 2, "ops_per_thread": 5, "num_vars": 2,
        "fence_permille": 150, "iterations": 6, "max_jitter": 40,
    }


def test_parse_rejects_foreign_names():
    for bad in ("fft", "fuzz:s1", "fuzz:s1:t2:o3:v2:f150:i5:j30:extra", ""):
        with pytest.raises(ValueError, match="not a fuzz workload"):
            parse_fuzz_workload(bad)


def test_generated_test_matches_generator():
    params = parse_fuzz_workload(fuzz_workload_name(9, 2, 4, 2, 150, 5, 30))
    test = generate_cell_test(params)
    reference = generate_random_test(9, num_threads=2, ops_per_thread=4,
                                     num_vars=2, fence_probability=0.150)
    assert test.threads == reference.threads


# ------------------------------------------------------------------ campaign spec

def test_campaign_expansion_shape_and_order():
    spec = tiny_campaign(num_seeds=3, num_threads=(2, 3),
                         fence_permille=(0, 150))
    assert spec.num_cells == 3 * 2 * 2 * 2  # seeds x threads x fence x protos
    cells = spec.cells()
    assert len(cells) == spec.num_cells
    assert len(set(cells)) == spec.num_cells
    cores = {cell[0] for cell in cells}
    assert cores == {2, 3}  # platform sized to the test's thread count
    # Deterministic order: a re-expansion is identical.
    assert spec.cells() == cells


def test_campaign_validation():
    with pytest.raises(ValueError, match="empty protocol"):
        tiny_campaign(protocols=())
    with pytest.raises(ValueError, match="num_seeds"):
        tiny_campaign(num_seeds=0)
    with pytest.raises(ValueError, match="intractable"):
        tiny_campaign(num_threads=(4,), ops_per_thread=(5,))
    with pytest.raises(ValueError, match="fence_permille"):
        tiny_campaign(fence_permille=(1500,))


@pytest.mark.parametrize("threads, ops", [(8, 2), (5, 3)])
def test_campaign_refuses_more_threads_than_the_oracle_handles(threads, ops):
    # Both shapes stay within MAX_TOTAL_OPS, yet over one variable their
    # reference enumeration exhausts memory or takes minutes per test.
    with pytest.raises(ValueError, match="beyond 4 threads"):
        tiny_campaign(num_threads=(threads,), ops_per_thread=(ops,),
                      num_vars=(1,))


def test_campaign_accepts_the_largest_tractable_shape():
    spec = tiny_campaign(num_threads=(4,), ops_per_thread=(4,), num_vars=(1,))
    assert spec.shapes() == [(4, 4, 1, 150)]


def test_campaign_subset_overrides():
    spec = tiny_campaign().subset(protocols=["MESI"], num_seeds=2,
                                  seed_start=100)
    assert spec.protocols == ("MESI",)
    assert list(spec.seeds) == [100, 101]
    assert spec.num_cells == 2


def test_campaign_registry_bundles():
    names = [spec.name for spec in list_campaigns()]
    assert "fuzz-smoke" in names and "tso-conformance" in names
    assert get_campaign("tso-conformance").num_seeds >= 500
    with pytest.raises(KeyError, match="unknown fuzz campaign"):
        get_campaign("nope")


def test_campaign_rejects_unregistered_protocols():
    with pytest.raises(KeyError, match="BOGUS"):
        tiny_campaign(protocols=("BOGUS",)).run(jobs=1)


# ------------------------------------------------------------------ cell kind

def test_fuzz_kind_registered_and_keys_disjoint_from_stats():
    kind = get_cell_kind("fuzz")
    assert kind.schema == FUZZ_SCHEMA_VERSION
    config = SystemConfig().scaled(num_cores=2)
    name = fuzz_workload_name(1, 2, 4, 2, 150, 3, 25)
    fuzz_key = cell_key(config, "MESI", name, 1.0, 5_000_000, kind="fuzz")
    stats_key = cell_key(config, "MESI", name, 1.0, 5_000_000)
    assert fuzz_key != stats_key  # kinds never collide in the cache


def test_payload_is_current_accepts_both_kinds():
    assert payload_is_current({"schema": FUZZ_SCHEMA_VERSION, "kind": "fuzz"})
    from repro.sim.stats import STATS_SCHEMA_VERSION
    assert payload_is_current({"schema": STATS_SCHEMA_VERSION})
    assert not payload_is_current({"schema": -1, "kind": "fuzz"})
    assert not payload_is_current({"schema": 1, "kind": "alien"})


def test_fuzz_cell_result_round_trip():
    name = fuzz_workload_name(3, 2, 4, 2, 150, 3, 25)
    payload = simulate_fuzz_cell(SystemConfig().scaled(num_cores=2), "MESI",
                                 name, 1.0, 5_000_000)
    assert payload["kind"] == "fuzz"
    result = FuzzCellResult.from_dict(payload)
    assert result.workload == name and result.seed == 3
    assert result.passed and not result.violations
    assert 0.0 <= result.coverage <= 1.0
    with pytest.raises(ValueError, match="fuzz-cell payload"):
        FuzzCellResult.from_dict({"schema": -1})


# ------------------------------------------------------------------ running

def test_campaign_runs_caches_and_rehits(tmp_path):
    spec = tiny_campaign()
    cache = ResultCache(tmp_path / "cache")
    result = spec.run(jobs=1, cache=cache)
    assert result.report().complete
    assert result.simulations_run == spec.num_cells
    assert failing_cells(result) == []
    # Warm cache: zero new simulations, identical verdicts.
    again = spec.run(jobs=1, cache=cache)
    assert again.simulations_run == 0
    assert again.report().complete and failing_cells(again) == []
    assert again.cells == result.cells


def test_campaign_payloads_identical_inline_and_pooled(tmp_path):
    spec = tiny_campaign(num_seeds=2)
    spec.run(jobs=1, cache=ResultCache(tmp_path / "inline"))
    spec.run(jobs=2, cache=ResultCache(tmp_path / "pooled"))
    inline_entries = {p.name: p.read_text() for p in
                      (tmp_path / "inline").glob("*/*.json")}
    pooled_entries = {p.name: p.read_text() for p in
                      (tmp_path / "pooled").glob("*/*.json")}
    assert inline_entries == pooled_entries
    assert len(inline_entries) == spec.num_cells


def test_campaign_report_mix_table():
    spec = tiny_campaign(num_seeds=2)
    table = spec.run(jobs=1).report().mix_table(normalized=False)
    assert [row["protocol"] for row in table.rows] == list(spec.protocols)
    assert all(row["passed"] is True and row["violations"] == 0
               for row in table.rows)
    assert "tiny-fuzz" in table.title and "MESI" in table.render()


# ------------------------------------------------- sharded-edge paths

def test_sharded_campaign_partitions_and_partial_guards(tmp_path):
    """The fuzz pipeline exercises the shard partition + the partial-result
    guards: shards are disjoint, a single shard's result is incomplete but
    still judges its own cells, and the merged caches serve the unsharded
    campaign with zero simulations."""
    spec = tiny_campaign()
    plan = plan_sweep(spec, 3)
    assert sum(plan.shard_sizes()) == spec.num_cells
    assert len({cell.key for cell in plan.cells}) == spec.num_cells

    shard_dirs, seen = [], set()
    for index in range(3):
        shard_dir = tmp_path / f"shard-{index}"
        result = spec.run(jobs=1, cache=ResultCache(shard_dir),
                          shard=(index, 3))
        assert result.simulations_run == len(plan.shard_cells(index))
        assert result.report().complete == \
            (result.simulations_run == spec.num_cells)
        # Partial results still judge executed cells.
        assert failing_cells(result) == []
        assert not seen & set(result.cells), "shards must be disjoint"
        seen |= set(result.cells)
        shard_dirs.append(shard_dir)
    assert len(seen) == spec.num_cells

    merged = ResultCache(tmp_path / "merged")
    assert len(missing_cells(spec, merged)) == spec.num_cells
    report = merge_results(shard_dirs, merged)
    assert report.merged == spec.num_cells and report.invalid == 0
    assert missing_cells(spec, merged) == []

    warm = spec.run(jobs=1, cache=merged)
    assert warm.simulations_run == 0 and warm.report().complete
    assert failing_cells(warm) == []


def test_merge_replaces_corrupt_fuzz_entries(tmp_path):
    """merge_results corrupt-entry replacement through the fuzz pipeline:
    a truncated destination entry is replaced by the valid shard payload,
    and a valid destination entry is never re-written."""
    spec = tiny_campaign(num_seeds=1, protocols=("MESI",))
    source = ResultCache(tmp_path / "source")
    spec.run(jobs=1, cache=source)
    entry = next((tmp_path / "source").glob("*/*.json"))

    dest = ResultCache(tmp_path / "dest")
    corrupt = dest.path(entry.stem)
    corrupt.parent.mkdir(parents=True)
    corrupt.write_text("{ truncated", encoding="utf-8")
    assert len(missing_cells(spec, dest)) == 1  # corrupt counts as missing

    report = merge_results([tmp_path / "source"], dest)
    assert report.merged == 1
    replaced = json.loads(corrupt.read_text(encoding="utf-8"))
    assert replaced["schema"] == FUZZ_SCHEMA_VERSION
    assert missing_cells(spec, dest) == []
    # Idempotent: a second merge finds the entry already present.
    again = merge_results([tmp_path / "source"], dest)
    assert (again.merged, again.already_present) == (0, 1)


def test_stale_fuzz_schema_counts_invalid_on_merge(tmp_path):
    spec = tiny_campaign(num_seeds=1, protocols=("MESI",))
    source = ResultCache(tmp_path / "source")
    spec.run(jobs=1, cache=source)
    entry = next((tmp_path / "source").glob("*/*.json"))
    payload = json.loads(entry.read_text(encoding="utf-8"))
    payload["schema"] = FUZZ_SCHEMA_VERSION + 1
    entry.write_text(json.dumps(payload), encoding="utf-8")
    report = merge_results([tmp_path / "source"],
                           ResultCache(tmp_path / "dest"))
    assert (report.merged, report.invalid) == (0, 1)


# ------------------------------------------------------------------ determinism

def test_cell_payloads_and_keys_byte_identical_across_processes(tmp_path):
    """Seeded determinism, the property the whole cache/shard design rests
    on: an independent interpreter generates byte-identical op streams,
    cache keys and verdict payloads for the same encoded cell."""
    spec = tiny_campaign(num_seeds=2)
    cells = [(cores, scale, protocol, workload)
             for cores, scale, protocol, workload in spec.cells()]
    script = r"""
import json, sys
sys.path.insert(0, {src!r})
from repro.analysis.parallel import cell_key
from repro.consistency.fuzz import (generate_cell_test, parse_fuzz_workload,
                                    simulate_fuzz_cell)
from repro.sim.config import SystemConfig
out = []
for cores, scale, protocol, workload in {cells!r}:
    config = SystemConfig().scaled(num_cores=cores)
    test = generate_cell_test(parse_fuzz_workload(workload))
    ops = [[(op.kind, op.var, op.value, op.register) for op in t.ops]
           for t in test.threads]
    key = cell_key(config, protocol, workload, scale, {max_cycles},
                   kind="fuzz")
    payload = simulate_fuzz_cell(config, protocol, workload, scale,
                                 {max_cycles})
    out.append([ops, key, json.dumps(payload, sort_keys=True)])
print(json.dumps(out))
"""
    script = script.format(src=str(REPO_ROOT / "src"), cells=cells,
                           max_cycles=spec.max_cycles)
    subprocess_out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True).stdout
    their = json.loads(subprocess_out)

    for (cores, scale, protocol, workload), (their_ops, their_key,
                                             their_payload) in \
            zip(cells, their):
        config = SystemConfig().scaled(num_cores=cores)
        test = generate_cell_test(parse_fuzz_workload(workload))
        ours_ops = [[[op.kind, op.var, op.value, op.register]
                     for op in t.ops] for t in test.threads]
        their_ops = [[list(op) for op in thread] for thread in their_ops]
        assert ours_ops == their_ops, workload  # byte-identical op streams
        assert cell_key(config, protocol, workload, scale, spec.max_cycles,
                        kind="fuzz") == their_key
        payload = simulate_fuzz_cell(config, protocol, workload, scale,
                                     spec.max_cycles)
        assert json.dumps(payload, sort_keys=True) == their_payload


def test_workload_generator_deterministic_across_processes():
    """The stats-kind analogue of the property above: a workload builder's
    op stream is identical in a fresh interpreter (the pre-existing
    determinism contract the fuzz design generalizes)."""
    script = r"""
import json, sys
sys.path.insert(0, {src!r})
from repro.workloads.benchmarks import make_benchmark
wl = make_benchmark("fft", num_cores=2, scale=0.2)
print(json.dumps(sorted(wl.params.items())))
"""
    script = script.format(src=str(REPO_ROOT / "src"))
    theirs = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True,
                            check=True).stdout.strip()
    from repro.workloads.benchmarks import make_benchmark
    ours = json.dumps(sorted(make_benchmark("fft", num_cores=2,
                                            scale=0.2).params.items()))
    assert ours == theirs


# ------------------------------------------------------------------ teeth

def test_mutant_protocol_is_caught_and_real_protocols_pass():
    """The harness has teeth: the dropped-invalidation mutant produces
    forbidden outcomes on the same campaign every real protocol passes."""
    spec = tiny_campaign(name="teeth",
                         protocols=("MESI", _mutant.MUTANT_PROTOCOL),
                         **TEETH)
    result = spec.run(jobs=1)  # jobs=1: the mutant only exists in-process
    report = result.report()
    assert report.complete
    failures = failing_cells(result)
    assert failures, "the broken protocol must be caught"
    assert {cell.protocol for cell in failures} == {_mutant.MUTANT_PROTOCOL}
    assert TEETH_SEED in {cell.seed for cell in failures}
    rows = {row["protocol"]: row
            for row in report.mix_table(normalized=False).rows}
    assert rows["MESI"]["passed"] is True
    assert rows[_mutant.MUTANT_PROTOCOL]["passed"] is False
    # Violations carry the forbidden outcome for the report.
    assert all(cell.violations for cell in failures)


def test_shrink_produces_minimal_still_violating_counterexample():
    spec = tiny_campaign(name="teeth-shrink",
                         protocols=(_mutant.MUTANT_PROTOCOL,), **TEETH)
    outcome = shrink_cell(spec, _mutant.MUTANT_PROTOCOL, TEETH_SEED)
    assert outcome is not None, "the teeth seed must violate on replay"
    original, shrunk, shrunk_result = outcome
    original_ops = sum(len(t.ops) for t in original.threads)
    shrunk_ops = sum(len(t.ops) for t in shrunk.threads)
    assert shrunk_ops < original_ops
    assert not shrunk_result.passed  # still violates after shrinking
    assert shrunk.name.endswith("-shrunk") and "-shrunk-shrunk" not in shrunk.name
    # 1-minimality: no single further deletion may still violate — implied
    # by the shrink loop's fixpoint; spot-check the shrunk test is small.
    assert shrunk_ops <= original_ops - 1
    assert len(shrunk.threads) <= len(original.threads)


def test_shrink_cell_returns_none_for_passing_cell():
    spec = tiny_campaign(num_seeds=1)
    assert shrink_cell(spec, "MESI", 0) is None


def test_shrink_test_respects_predicate():
    """shrink_test with a structural predicate: keeps deleting while the
    predicate holds, never returns an empty test."""
    test = generate_random_test(5, num_threads=2, ops_per_thread=4)
    shrunk = shrink_test(test, lambda t: sum(len(x.ops) for x in t.threads) >= 2)
    assert sum(len(x.ops) for x in shrunk.threads) == 2


def test_replay_cell_matches_campaign_verdict():
    spec = tiny_campaign(protocols=(_mutant.MUTANT_PROTOCOL,), **TEETH)
    test, result = replay_cell(spec, _mutant.MUTANT_PROTOCOL, TEETH_SEED)
    assert not result.passed
    assert test.name == f"rand-{TEETH_SEED}"
    with pytest.raises(ValueError, match="shape"):
        replay_cell(spec, "MESI", 0, shape=(9, 9, 9, 9))


# ------------------------------------------------------------------ CLI

def test_cli_fuzz_list(capsys):
    assert main(["list", "campaigns"]) == 0
    out = capsys.readouterr().out
    assert "fuzz-smoke" in out and "tso-conformance" in out


def test_cli_fuzz_cells(capsys):
    assert main(["sweep", "fuzz-smoke", "--cells", "--seeds", "2",
                 "--protocols", "MESI"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Campaign fuzz-smoke: 2 cells")
    assert "fuzz:s0:" in out and "fuzz:s1:" in out and "fuzz:s2:" not in out


def test_cli_fuzz_run_conformant(tmp_path, capsys):
    args = ["sweep", "fuzz-smoke", "--seeds", "2",
            "--protocols", "MESI,TSO-CC-4-12-3", "--jobs", "1",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "CONFORMANT" in out and "4 simulated" in out
    # Warm cache: the same run reports zero simulations.
    assert main(args) == 0
    assert "0 simulated" in capsys.readouterr().out


def test_cli_fuzz_run_reports_violations(tmp_path, capsys):
    code = main(["sweep", "fuzz-smoke", "--seeds", "10",
                 "--protocols", _mutant.MUTANT_PROTOCOL, "--jobs", "1",
                 "--no-cache"])
    # fuzz-smoke axes (5 ops) may or may not catch this mutant in 10
    # seeds; pin the teeth via an exit-code check on the teeth campaign
    # below instead, and only require a clean exit protocol here.
    captured = capsys.readouterr()
    assert code in (0, 1)
    if code == 1:
        assert "FORBIDDEN" in captured.err


def test_cli_fuzz_run_teeth_exit_code(monkeypatch, capsys):
    """Pin the red-path CLI contract on axes that deterministically catch
    the mutant: exit 1, forbidden outcomes and replay/shrink hints."""
    import repro.consistency.fuzz as fuzz

    spec = tiny_campaign(name="cli-teeth",
                         protocols=(_mutant.MUTANT_PROTOCOL,), **TEETH)
    monkeypatch.setitem(fuzz.CAMPAIGNS, "cli-teeth", spec)
    code = main(["sweep", "cli-teeth", "--jobs", "1", "--no-cache"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FORBIDDEN OUTCOMES OBSERVED" in captured.err
    assert "repro fuzz replay" in captured.err
    assert "repro fuzz shrink" in captured.err
    assert "CONFORMANT" not in captured.out


def test_cli_fuzz_run_hints_pin_the_failing_shape(monkeypatch, capsys):
    """On a multi-shape campaign the replay/shrink hints must carry the
    failing cell's own shape flags — replay defaults to the first shape
    point and would otherwise regenerate a different (passing) test."""
    import repro.consistency.fuzz as fuzz

    shaped = dict(TEETH)
    shaped["ops_per_thread"] = (4, 6)  # the catch lives at ops=6, shape #2
    spec = tiny_campaign(name="cli-teeth-shape",
                         protocols=(_mutant.MUTANT_PROTOCOL,), **shaped)
    monkeypatch.setitem(fuzz.CAMPAIGNS, "cli-teeth-shape", spec)
    code = main(["sweep", "cli-teeth-shape", "--jobs", "1",
                 "--no-cache"])
    captured = capsys.readouterr()
    assert code == 1
    hint = next(line for line in captured.err.splitlines()
                if "repro fuzz replay" in line)
    for flag in ("--threads 2", "--ops 6", "--vars 2", "--fence 150"):
        assert flag in hint, hint
    # The hinted command must actually reproduce the violation.
    seed = int(hint.split("--seed ")[1].split()[0])
    assert main(["fuzz", "replay", "cli-teeth-shape", "--seed", str(seed),
                 "--protocol", _mutant.MUTANT_PROTOCOL, "--threads", "2",
                 "--ops", "6", "--vars", "2", "--fence", "150"]) == 1
    assert "FORBIDDEN" in capsys.readouterr().out


def test_cli_fuzz_replay_and_shrink(monkeypatch, capsys):
    import repro.consistency.fuzz as fuzz

    spec = tiny_campaign(name="cli-teeth2",
                         protocols=("MESI", _mutant.MUTANT_PROTOCOL),
                         **TEETH)
    monkeypatch.setitem(fuzz.CAMPAIGNS, "cli-teeth2", spec)
    assert main(["fuzz", "replay", "cli-teeth2", "--seed", str(TEETH_SEED),
                 "--protocol", "MESI"]) == 0
    assert "allowed" in capsys.readouterr().out
    assert main(["fuzz", "replay", "cli-teeth2", "--seed", str(TEETH_SEED),
                 "--protocol", _mutant.MUTANT_PROTOCOL]) == 1
    assert "FORBIDDEN" in capsys.readouterr().out
    assert main(["fuzz", "shrink", "cli-teeth2", "--seed", str(TEETH_SEED),
                 "--protocol", _mutant.MUTANT_PROTOCOL]) == 1
    out = capsys.readouterr().out
    assert "shrunk" in out and "forbidden outcome still reproduced" in out
    assert main(["fuzz", "shrink", "cli-teeth2", "--seed", "0",
                 "--protocol", "MESI"]) == 0
    assert "nothing to shrink" in capsys.readouterr().out


def test_cli_fuzz_sharded_run_and_merge(tmp_path, capsys):
    """The CI recipe end to end on a tiny campaign: per-shard runs with
    per-shard caches, a completeness-checked merge, and a warm unsharded
    run with zero simulations."""
    overrides = ["--seeds", "2", "--protocols", "MESI,TSO-CC-4-12-3"]
    shard_dirs = [str(tmp_path / f"shard-{i}") for i in range(2)]
    for index in range(2):
        code = main(["shard", "run", "fuzz-smoke", "--shard-index",
                     str(index), "--shard-count", "2", "--jobs", "1",
                     "--cache-dir", shard_dirs[index]] + overrides)
        assert code == 0
        out = capsys.readouterr().out
        assert f"shard {index}/2: owns" in out
        assert "CONFORMANT" not in out or "owns 4 of 4" in out

    merged = str(tmp_path / "merged")
    incomplete = main(["shard", "merge", "fuzz-smoke", "--from", shard_dirs[0],
                       "--cache-dir", merged] + overrides)
    counts = [sum(1 for _ in Path(d).glob("*/*.json")) for d in shard_dirs]
    assert sum(counts) == 4  # disjoint full cover
    output = capsys.readouterr()
    if counts[0] < 4:
        assert incomplete == 1 and "INCOMPLETE" in output.err
    else:
        assert incomplete == 0

    complete = main(["shard", "merge", "fuzz-smoke", "--from", shard_dirs[0],
                     "--from", shard_dirs[1], "--cache-dir", merged]
                    + overrides)
    assert complete == 0
    assert "complete" in capsys.readouterr().out

    code = main(["sweep", "fuzz-smoke", "--jobs", "1",
                 "--cache-dir", merged] + overrides)
    assert code == 0
    out = capsys.readouterr().out
    assert "0 simulated" in out and "CONFORMANT" in out


def test_cli_fuzz_usage_errors(capsys):
    assert main(["sweep", "no-such-campaign", "--no-cache"]) == 2
    assert "unknown sweep or campaign" in capsys.readouterr().err
    assert main(["fuzz", "replay", "no-such-campaign", "--seed", "0"]) == 2
    assert "unknown fuzz campaign" in capsys.readouterr().err
    assert main(["fuzz", "replay", "fuzz-smoke", "--seed", "0",
                 "--protocol", "BOGUS"]) == 2
    assert "BOGUS" in capsys.readouterr().err
    assert main(["sweep", "fuzz-smoke", "--protocols", "BOGUS",
                 "--no-cache"]) == 2
    assert "BOGUS" in capsys.readouterr().err
    assert main(["sweep", "fuzz-smoke", "--shard-index", "0",
                 "--no-cache"]) == 2
    assert "together" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "fuzz-smoke", "--seeds", "0", "--cells"])
    assert excinfo.value.code == 2
    assert "argument --seeds: invalid" in capsys.readouterr().err


def test_cli_litmus_random(capsys):
    assert main(["litmus", "--random", "2", "--seed", "3",
                 "--iterations", "2", "--tests", "SB"]) == 0
    out = capsys.readouterr().out
    assert "rand-3" in out and "rand-4" in out and "SB" in out
    with pytest.raises(SystemExit) as excinfo:
        main(["litmus", "--random", "-1"])
    assert excinfo.value.code == 2
