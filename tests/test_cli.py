"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list", "workloads"]) == 0
    out = capsys.readouterr().out
    assert "blackscholes" in out and "STAMP" in out
    assert main(["list", "protocols", "TSO-CC-4-12-3"]) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    assert [row.split()[0] for row in rows] == ["TSO-CC-4-12-3"]
    # A NAME no entry has, and --cores off the protocols topic, are
    # usage errors, not an empty table or a silently ignored flag.
    assert main(["list", "workloads", "MESI"]) == 2
    assert "no entry 'MESI'" in capsys.readouterr().err
    assert main(["list", "sweeps", "--cores", "8"]) == 2
    assert "--cores" in capsys.readouterr().err


def test_protocols_command(capsys):
    assert main(["list", "protocols"]) == 0
    out = capsys.readouterr().out
    assert "MESI" in out and "TSO-CC-4-12-3" in out and "MSI" in out
    assert "storage_bits" in out and "kind" in out


def test_protocols_command_scales_storage_with_cores(capsys):
    assert main(["list", "protocols", "--cores", "8"]) == 0
    small = capsys.readouterr().out
    assert main(["list", "protocols", "--cores", "128"]) == 0
    large = capsys.readouterr().out
    assert small != large and "128 cores" in large


def test_run_command_accepts_msi(capsys):
    code = main(["run", "fft", "--protocol", "MSI", "--cores", "2",
                 "--scale", "0.2", "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "MSI" in out and "cycles" in out


def test_run_command_small(tmp_path, capsys):
    code = main(["run", "fft", "--protocol", "MESI", "--protocol", "TSO-CC-4-12-3",
                 "--cores", "4", "--scale", "0.2", "--cache-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "MESI" in out and "TSO-CC-4-12-3" in out
    assert "cycles" in out


def test_storage_command(capsys):
    assert main(["storage", "--cores", "32,128"]) == 0
    out = capsys.readouterr().out
    assert "MESI" in out and "128" in out


def test_figure_command_subset(tmp_path, capsys):
    code = main(["figure", "3", "--workloads", "fft", "--cores", "4",
                 "--scale", "0.2", "--protocols", "MESI,TSO-CC-4-basic",
                 "--cache-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out and "gmean" in out


def test_figure_command_normalizes_to_mesi_wherever_listed(tmp_path, capsys):
    code = main(["figure", "3", "--workloads", "fft,intruder", "--protocols",
                 "TSO-CC-4-12-3,MESI", "--cores", "2", "--scale", "0.1",
                 "--jobs", "1", "--cache-dir", str(tmp_path)])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    assert [row.split()[0] for row in rows] == ["fft", "intruder", "gmean"]
    # Columns: workload, TSO-CC-4-12-3, MESI.
    assert [row.split()[2] for row in rows] == ["1.000"] * 3
    assert [row.split()[1] for row in rows] != ["1.000"] * 3


def test_figure_command_refuses_a_normalized_figure_without_mesi(tmp_path,
                                                                 capsys):
    cache = tmp_path / "cache"
    code = main(["figure", "8", "--workloads", "fft", "--protocols",
                 "TSO-CC-4-basic,TSO-CC-4-12-3", "--cores", "2",
                 "--scale", "0.1", "--cache-dir", str(cache)])
    assert code == 2
    assert "normalized to MESI" in capsys.readouterr().err
    assert not cache.exists()  # refused before simulating anything
    # Breakdown figures need no baseline.
    assert main(["figure", "9", "--workloads", "fft", "--protocols",
                 "TSO-CC-4-basic", "--cores", "2", "--scale", "0.1",
                 "--jobs", "1", "--cache-dir", str(cache)]) == 0


def test_figure_command_rejects_unknown_figure(capsys):
    assert main(["figure", "42", "--workloads", "fft", "--cores", "4",
                 "--scale", "0.2"]) == 2


def test_litmus_command(capsys):
    code = main(["litmus", "--protocol", "TSO-CC-4-12-3", "--iterations", "3",
                 "--tests", "MP,SB"])
    assert code == 0
    out = capsys.readouterr().out
    assert "MP" in out and "ALL PASS" in out


def test_litmus_command_unknown_test(capsys):
    assert main(["litmus", "--tests", "NOPE"]) == 2
    # A name that matches nothing is refused even beside one that does,
    # before any test runs.
    assert main(["litmus", "--tests", "MP,NOPE"]) == 2
    captured = capsys.readouterr()
    assert "NOPE" in captured.err and captured.out == ""


def test_litmus_command_resolves_the_protocol_first(capsys):
    # The registry's line and exit 2, before any test runs: no traceback.
    assert main(["litmus", "--protocol", "BOGUS", "--tests", "MP"]) == 2
    captured = capsys.readouterr()
    assert "unknown protocol 'BOGUS'" in captured.err
    assert captured.out == ""


def test_trace_replay_resolves_every_protocol_first(monkeypatch, capsys):
    import repro.cli

    replayed = []
    monkeypatch.setattr(repro.cli, "_replay_result",
                        lambda _workload, protocol, *_: replayed.append(
                            protocol))
    assert main(["trace", "replay", "fft-mesi-c2", "--protocol", "MESI",
                 "--protocol", "NOPE"]) == 2
    assert "unknown protocol 'NOPE'" in capsys.readouterr().err
    assert replayed == []  # MESI was not simulated before NOPE was refused


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("argv, flag", [
    (["storage", "--cores", "32,x"], "--cores"),
    (["list", "protocols", "--cores", "0"], "--cores"),
    (["figure", "3", "--cores", "0", "--workloads", "fft"], "--cores"),
    (["litmus", "--iterations", "0", "--tests", "MP"], "--iterations"),
    (["run", "fft", "--cores", "2", "--scale", "-1", "--no-cache"],
     "--scale"),
    (["run", "fft", "--cores", "2", "--scale", "0.1", "--max-cycles", "0",
      "--no-cache"], "--max-cycles"),
    (["report", "sweep", "ci-smoke", "--cores", "0"], "--cores"),
    (["shard", "plan", "ci-smoke", "--shard-count", "2", "--cores", "0"],
     "--cores"),
    (["sweep", "ci-smoke", "--scales", "-1", "--cells"], "--scales"),
    (["sweep", "ci-smoke", "--jobs", "0", "--no-cache"], "--jobs"),
    (["sweep", "ci-smoke", "--jobs", "-4", "--no-cache"], "--jobs"),
    (["run", "fft", "--cores", "0", "--no-cache"], "--cores"),
    (["trace", "capture", "fft", "--cores", "0"], "--cores"),
    (["litmus", "--random", "-1", "--tests", "MP"], "--random"),
    (["litmus", "--random", "1", "--seed", "-1"], "--seed"),
    (["sweep", "fuzz-smoke", "--seeds", "0", "--no-cache"], "--seeds"),
    (["sweep", "fuzz-smoke", "--seed-start", "-1", "--cells"],
     "--seed-start"),
    (["shard", "plan", "ci-smoke", "--shard-count", "0"], "--shard-count"),
    (["shard", "run", "ci-smoke", "--shard-index", "-1", "--shard-count",
      "2", "--no-cache"], "--shard-index"),
    (["fuzz", "replay", "fuzz-smoke", "--seed", "0", "--fence", "1001"],
     "--fence"),
    (["fuzz", "shrink", "fuzz-smoke", "--seed", "0", "--threads", "0"],
     "--threads"),
    # A repeated value would run and count its cells twice.
    (["sweep", "ci-smoke", "--protocols", "MESI,MESI", "--no-cache"],
     "--protocols"),
    (["shard", "plan", "ci-smoke", "--shard-count", "2", "--workloads",
      "fft,fft"], "--workloads"),
    (["sweep", "ci-smoke", "--cores", "2,2", "--cells"], "--cores"),
    (["report", "sweep", "ci-smoke", "--scales", "0.2,0.20"], "--scales"),
    (["report", "dash", "-o", "dash.html", "--sweeps", "ci-smoke,ci-smoke"],
     "--sweeps"),
    (["litmus", "--tests", "MP,MP"], "--tests"),
], ids=["storage", "protocols", "figure", "litmus", "run-scale",
        "run-max-cycles", "report-sweep-cores", "shard-plan-cores",
        "sweep-scales", "sweep-jobs-zero", "sweep-jobs-negative",
        "run-cores", "trace-capture-cores", "litmus-random", "litmus-seed",
        "sweep-seeds", "sweep-seed-start", "shard-plan-count",
        "shard-run-index", "fuzz-replay-fence", "fuzz-shrink-threads",
        "repeated-protocols", "repeated-workloads", "repeated-cores",
        "repeated-scales", "repeated-sweeps", "repeated-tests"])
def test_parser_rejects_malformed_counts(argv, flag, capsys):
    # A usage error naming the flag, before any work runs: no traceback,
    # no run at a clamped minimum size, and no litmus run that observes
    # nothing and still reports a pass.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
    (["shard", "run", "ci-smoke", "--shard-index", "5", "--shard-count",
      "2", "--no-cache"], "outside [0, 2)"),
    (["sweep", "fuzz-smoke", "--workloads", "fft", "--no-cache"],
     "--workloads does not apply to campaign 'fuzz-smoke'"),
    (["sweep", "ci-smoke", "--seeds", "3", "--no-cache"],
     "--seeds does not apply to sweep 'ci-smoke'"),
    (["sweep", "nope", "--no-cache"], "unknown sweep or campaign 'nope'"),
    (["fuzz", "replay", "fuzz-smoke", "--seed", "0", "--threads", "3"],
     "is not a point of campaign 'fuzz-smoke'"),
], ids=["shard-index-range", "campaign-workloads", "sweep-seeds",
        "unknown-spec", "replay-shape"])
def test_resolution_errors_are_one_line(argv, needle, capsys):
    """Names and flag combinations argparse cannot check are resolved
    before any work: one stderr line, exit 2, no traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and needle in captured.err


@pytest.mark.parametrize("command", [["sweep"], ["report", "sweep"]])
def test_baseline_off_the_protocol_axis_is_refused(command, tmp_path,
                                                   capsys):
    # An explicit --baseline is checked against the protocol axis after
    # the overrides, before any cell runs or any cache is read.
    cache = tmp_path / "cache"
    assert main(command + ["ci-smoke", "--baseline", "BOGUS",
                           "--cache-dir", str(cache)]) == 2
    assert "--baseline 'BOGUS' is not on the protocol axis" in \
        capsys.readouterr().err
    assert main(command + ["ci-smoke", "--protocols", "MSI", "--baseline",
                           "MESI", "--cache-dir", str(cache)]) == 2
    assert not cache.exists()


def test_declared_baseline_dropped_by_protocols_still_warns(tmp_path,
                                                            capsys):
    # ci-smoke declares MESI; --protocols may drop it, and the report says
    # so instead of refusing the run.
    assert main(["sweep", "ci-smoke", "--protocols", "MSI", "--workloads",
                 "fft", "--figure", "--jobs", "1", "--no-cache"]) == 0
    assert "baseline 'MESI' is not on the sweep's protocol axis" in \
        capsys.readouterr().err


def _command_paths(parser, argv=()):
    """The argv of ``parser`` and of every command and sub-command."""
    yield list(argv)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _command_paths(child, [*argv, name])


def test_every_command_help_exits_zero(capsys):
    paths = list(_command_paths(build_parser()))
    # 11 commands and 15 sub-commands, plus the top-level parser.
    assert len(paths) == 27
    for argv in paths:
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--help"])
        assert excinfo.value.code == 0, argv
        assert capsys.readouterr().out.startswith("usage: repro")


def test_run_command_rejects_unknown_workload(capsys):
    # The workload argument is free-form (benchmarks, generators, traces),
    # so rejection happens at eager name resolution, not argparse.
    assert main(["run", "unknownbench"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err
    assert main(["run", "zipf:q9"]) == 2
    assert main(["run", "trace:no-such-trace"]) == 2


def test_import_loads_no_process_pool():
    """Every entry point and worker pays the CLI's imports; the process
    pool is loaded only by a run that starts one."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import repro.cli; "
              "print(sorted(m for m in ('multiprocessing', "
              "'concurrent.futures') if m in sys.modules))")
    loaded = subprocess.run([sys.executable, "-c", script, str(src)],
                            capture_output=True, text=True,
                            check=True).stdout.strip()
    assert loaded == "[]"


def test_closed_stdout_pipe_exits_quietly():
    """A reader that stops early (``repro sweep tso-conformance --cells |
    head -2``) ends the command with exit 1 and no traceback on stderr."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from repro.cli import main; sys.exit(main(sys.argv[2:]))")
    # The campaign's cell table (~280 KB) overfills the pipe buffer, so
    # the command is still writing when the reader goes away.
    process = subprocess.Popen(
        [sys.executable, "-c", script, str(src),
         "sweep", "tso-conformance", "--cells"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert process.stdout.readline().startswith("Campaign tso-conformance")
    process.stdout.close()
    _, stderr = process.communicate(timeout=60)
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
    assert process.returncode == 1
