"""Tests for the trace-and-suite subsystem: the on-disk trace format,
capture/replay byte-identity, parameterised generators, registered suites
and their CLI surface.

The load-bearing property is the replay contract: a captured trace, fed
back through the simulator on an identical platform, must reproduce the
capture run's :class:`SystemStats` *byte-identically* — under an eager
protocol (MESI) and a lazy one (TSO-CC) alike.  Everything else (digest
names, eager validation, suite expansion) exists to keep that contract
honest at experiment-matrix scale.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.sweeps import SweepSpec, get_sweep
from repro.cli import main
from repro.sim.config import SystemConfig
from repro.sim.system import build_system
from repro.workloads.benchmarks import make_benchmark
from repro.workloads.catalog import canonical_workload_name, make_workload
from repro.workloads.generators import (canonical_generator_name,
                                        generator_schemes, is_generator_name,
                                        make_generator)
from repro.workloads.suites import Suite, get_suite, register_suite, suite
from repro.workloads.trace import TraceOp, trace_program, validate_trace_ops
from repro.workloads.tracefile import (Trace, canonical_trace_name,
                                       capture_trace, list_traces,
                                       trace_digest, trace_workload)


def _stats_blob(result) -> str:
    return json.dumps(result.stats.to_dict(), sort_keys=True)


def _run(workload, protocol, workload_name=None):
    config = SystemConfig().scaled(num_cores=workload.num_cores)
    system = build_system(config, protocol)
    return system.run(workload.programs, params=workload.params,
                      max_cycles=50_000_000,
                      workload_name=workload_name or workload.name)


# ------------------------------------------------------------ eager validation

def test_validate_trace_ops_reports_offending_index():
    ops = [TraceOp(kind="load", address=0x40),
           TraceOp(kind="store", address=0x40, value=1),
           TraceOp(kind="teleport", address=0x40)]
    with pytest.raises(ValueError, match=r"at op 2"):
        validate_trace_ops(ops)
    with pytest.raises(ValueError, match=r"negative address"):
        validate_trace_ops([TraceOp(kind="load", address=-8)])
    with pytest.raises(ValueError, match=r"work"):
        validate_trace_ops([TraceOp(kind="work", value=-1)])


def test_record_as_rejected_on_non_recording_kinds():
    # record_as names a destination register; stores, fences and work
    # intervals produce no value, so a record_as there was silently ignored
    # before — now it is an eager error.
    for kind in ("store", "fence", "work"):
        with pytest.raises(ValueError, match="record_as"):
            trace_program([TraceOp(kind=kind, address=0, value=1,
                                   record_as="r0")])
    # Loads, RMWs and exchanges do record.
    trace_program([TraceOp(kind="load", address=0, record_as="r0"),
                   TraceOp(kind="rmw", address=0, value=1, record_as="r1"),
                   TraceOp(kind="xchg", address=0, value=1, record_as="r2")])


# ------------------------------------------------------------ on-disk format

def _sample_trace() -> Trace:
    return Trace(
        streams=(
            (TraceOp(kind="load", address=0x1000),
             TraceOp(kind="store", address=0x1000, value=-7),
             TraceOp(kind="work", value=12),
             TraceOp(kind="fence")),
            (TraceOp(kind="xchg", address=0x1040, value=3),
             TraceOp(kind="rmw", address=0x1000, value=1)),
        ),
        source="sample", protocol="MESI", scale=0.5, description="unit test",
    )


def test_trace_round_trips_through_bytes():
    trace = _sample_trace()
    data = trace.to_bytes()
    again = Trace.from_bytes(data)
    assert again == trace
    # Serialization is deterministic, so the digest is stable.
    assert again.to_bytes() == data
    assert trace.num_cores == 2 and trace.num_ops == 6


def test_trace_loader_rejects_corruption():
    data = _sample_trace().to_bytes()
    with pytest.raises(ValueError, match="bad magic"):
        Trace.from_bytes(b"NOPE" + data[4:])
    with pytest.raises(ValueError, match="format version"):
        Trace.from_bytes(data[:4] + bytes([99]) + data[5:])
    # Flip one body byte: the header digest no longer matches.
    corrupt = bytearray(data)
    corrupt[-1] ^= 0xFF
    with pytest.raises(ValueError, match="digest mismatch"):
        Trace.from_bytes(bytes(corrupt))


def test_trace_names_are_content_addressed(tmp_path):
    trace = _sample_trace()
    digest = trace.save(tmp_path / "sample.trace")
    assert canonical_trace_name("trace:sample", directory=tmp_path) \
        == f"trace:sample@{digest}"
    # A stale digest in the name is a hard error, not a silent cache miss.
    with pytest.raises(ValueError, match="digest mismatch"):
        canonical_trace_name("trace:sample@000000000000", directory=tmp_path)
    with pytest.raises(FileNotFoundError):
        canonical_trace_name("trace:absent", directory=tmp_path)
    assert [stem for stem, _ in list_traces(tmp_path)] == ["sample"]


def test_trace_workload_checks_platform_cores(tmp_path):
    _sample_trace().save(tmp_path / "sample.trace")
    workload = trace_workload("trace:sample", num_cores=4, directory=tmp_path)
    assert workload.num_cores == 2 and workload.suite == "trace"
    with pytest.raises(ValueError, match="cores"):
        trace_workload("trace:sample", num_cores=1, directory=tmp_path)


# ------------------------------------------------------- capture and replay

@pytest.mark.parametrize("protocol", ["MESI", "TSO-CC-4-12-3"])
def test_captured_trace_replays_byte_identically(tmp_path, protocol):
    live = make_benchmark("fft", num_cores=2, scale=0.2)
    trace, capture_run = capture_trace(live, protocol, scale=0.2)
    assert capture_run.finished and live.validate(capture_run)

    # The observer must not perturb the run it observes.
    plain_run = _run(live, protocol)
    assert _stats_blob(capture_run) == _stats_blob(plain_run)

    # Round-trip through the on-disk format, then replay.
    trace.save(tmp_path / "fft.trace")
    replay = trace_workload("trace:fft", directory=tmp_path)
    replay_run = _run(replay, protocol, workload_name=live.name)
    assert _stats_blob(replay_run) == _stats_blob(capture_run)


def test_trace_replays_under_a_different_protocol(tmp_path):
    live = make_benchmark("fft", num_cores=2, scale=0.2)
    trace, _ = capture_trace(live, "MESI", scale=0.2)
    trace.save(tmp_path / "fft.trace")
    replay = trace_workload("trace:fft", directory=tmp_path)
    result = _run(replay, "TSO-CC-4-12-3")
    assert result.finished
    assert result.stats.summary()["cycles"] > 0


# ----------------------------------------------------------------- generators

def test_generator_names_round_trip_and_default():
    assert is_generator_name("zipf:n100-s3") and not is_generator_name("fft")
    assert canonical_generator_name("zipf:n100-s3") \
        == "zipf:n100-l2048-a80-r80-s3"
    assert canonical_generator_name("pipeline:") == "pipeline:n2000-s1"
    assert set(generator_schemes()) == {"zipf", "pipeline", "lockstorm"}
    with pytest.raises(KeyError):
        make_generator("markov:n100")
    with pytest.raises(ValueError):
        make_generator("zipf:q9")
    with pytest.raises(ValueError):
        make_generator("zipf:n100", num_cores=1)


@pytest.mark.parametrize("name", ["zipf:n400-l64-s5", "pipeline:n40-s5",
                                  "lockstorm:n30-k2-s5"])
def test_generators_run_and_validate(name):
    for protocol in ("MESI", "TSO-CC-4-12-3"):
        workload = make_generator(name, num_cores=2)
        result = _run(workload, protocol)
        assert result.finished, f"{name} under {protocol}"
        assert workload.validate(result), f"{name} under {protocol}"


def test_generators_are_deterministic_by_seed():
    def capture(name):
        workload = make_generator(name, num_cores=2)
        trace, _ = capture_trace(workload, "MESI")
        return trace.to_bytes()

    assert capture("zipf:n300-l64-s7") == capture("zipf:n300-l64-s7")
    assert capture("zipf:n300-l64-s7") != capture("zipf:n300-l64-s8")


def test_generator_scale_multiplies_op_counts():
    small = make_generator("zipf:n200-l64-s1", num_cores=2, scale=0.25)
    trace_small, _ = capture_trace(small, "MESI")
    full = make_generator("zipf:n200-l64-s1", num_cores=2, scale=1.0)
    trace_full, _ = capture_trace(full, "MESI")
    assert trace_small.num_ops < trace_full.num_ops


# --------------------------------------------------------------------- suites

def test_suite_expansion_matches_hand_listed_members():
    assert suite("parsec") == ("blackscholes", "canneal", "dedup",
                               "fluidanimate", "x264")
    assert len(suite("table3")) == 16
    smoke = get_suite("scenario-smoke")
    assert smoke.workloads == ("fft", "zipf:n800-l128-a80-r80-s1",
                               "lockstorm:n60-k4-s1", "trace:fft-mesi-c2")
    with pytest.raises(KeyError):
        get_suite("nope")


def test_suite_registry_rejects_bad_suites():
    with pytest.raises(ValueError, match="empty"):
        Suite(name="x", version=1, description="", workloads=())
    with pytest.raises(ValueError, match="duplicate"):
        Suite(name="x", version=1, description="", workloads=("fft", "fft"))
    with pytest.raises(ValueError, match="already registered"):
        register_suite(Suite(name="parsec", version=9, description="",
                             workloads=("fft",)))


def test_sweep_spec_expands_suites_and_dedups():
    spec = SweepSpec(name="t", description="", protocols=("MESI",),
                     workloads=("fft", "suite:parsec", "blackscholes"),
                     cores=(2,), scales=(0.2,), metrics=("cycles",))
    resolved = spec.resolved_workloads()
    assert resolved == ("fft", "blackscholes", "canneal", "dedup",
                        "fluidanimate", "x264")
    assert spec.num_cells == len(resolved)
    # Generator members canonicalize inside the expansion.
    spec2 = SweepSpec(name="t2", description="", protocols=("MESI",),
                      workloads=("zipf:n100-s3",), cores=(2,), scales=(0.2,),
                      metrics=("cycles",))
    assert spec2.resolved_workloads() == ("zipf:n100-l2048-a80-r80-s3",)
    with pytest.raises(KeyError):
        SweepSpec(name="t3", description="", protocols=("MESI",),
                  workloads=("suite:nope",), cores=(2,), scales=(0.2,),
                  metrics=("cycles",)).resolved_workloads()


def test_registered_scenario_smoke_sweep_uses_the_committed_trace():
    spec = get_sweep("scenario-smoke")
    resolved = spec.resolved_workloads()
    assert any(name.startswith("trace:fft-mesi-c2@") for name in resolved)
    assert any(name.startswith("zipf:") for name in resolved)


# ------------------------------------------------------------------- catalog

def test_catalog_dispatches_every_name_form(tmp_path):
    assert canonical_workload_name("fft") == "fft"
    assert canonical_workload_name("zipf:n100-s2") \
        == "zipf:n100-l2048-a80-r80-s2"
    assert make_workload("fft", num_cores=2, scale=0.2).name == "fft"
    assert make_workload("lockstorm:n20-k2-s1", num_cores=2).num_cores == 2
    with pytest.raises(KeyError):
        make_workload("nosuch")
    with pytest.raises(FileNotFoundError):
        canonical_workload_name("trace:nosuch")


# ----------------------------------------------------------------------- CLI

def test_cli_trace_capture_replay_info_roundtrip(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    assert main(["trace", "capture", "fft", "--protocol", "MESI",
                 "--cores", "2", "--scale", "0.2", "-o", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "verified: replay reproduces the capture run" in out
    assert main(["trace", "ls"]) == 0
    assert "smoke" in capsys.readouterr().out
    assert main(["trace", "info", "smoke"]) == 0
    assert "trace:smoke@" in capsys.readouterr().out
    assert main(["trace", "replay", "smoke", "--protocol", "MESI"]) == 0
    capsys.readouterr()


def test_cli_trace_and_suites_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    assert main(["trace", "replay", "absent"]) == 2
    assert main(["trace", "info", "absent"]) == 2
    assert main(["trace", "capture", "nosuchbench"]) == 2
    assert main(["trace", "capture", "fft", "--protocol", "NOPE",
                 "--cores", "2", "--scale", "0.1"]) == 2
    assert main(["trace", "ls"]) == 0
    capsys.readouterr()
    assert main(["list", "suites"]) == 0
    assert "scenario-smoke" in capsys.readouterr().out
    assert main(["list", "suites", "suite:parsec"]) == 0
    assert "blackscholes" in capsys.readouterr().out
    assert main(["list", "suites", "parsec"]) == 0
    assert "blackscholes" in capsys.readouterr().out
    assert main(["list", "suites", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err
