"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "TSO-CC-4-12-3" in out
    assert "blackscholes" in out and "STAMP" in out


def test_protocols_command(capsys):
    assert main(["protocols"]) == 0
    out = capsys.readouterr().out
    assert "MESI" in out and "TSO-CC-4-12-3" in out and "MSI" in out
    assert "storage_bits" in out and "kind" in out


def test_protocols_command_scales_storage_with_cores(capsys):
    assert main(["protocols", "--cores", "8"]) == 0
    small = capsys.readouterr().out
    assert main(["protocols", "--cores", "128"]) == 0
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


def test_litmus_command_unknown_test():
    assert main(["litmus", "--tests", "NOPE"]) == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("argv, flag", [
    (["storage", "--cores", "32,x"], "--cores"),
    (["protocols", "--cores", "0"], "--cores"),
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
], ids=["storage", "protocols", "figure", "litmus", "run-scale",
        "run-max-cycles", "report-sweep-cores", "shard-plan-cores",
        "sweep-scales"])
def test_parser_rejects_malformed_counts(argv, flag, capsys):
    # A usage error naming the flag, before any work runs: no traceback,
    # no run at a clamped minimum size, and no litmus run that observes
    # nothing and still reports a pass.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err


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
    """A reader that stops early (``repro fuzz cells ... | head -2``) ends
    the command with exit 1 and no traceback on stderr."""
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
         "fuzz", "cells", "tso-conformance"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert process.stdout.readline().startswith("Campaign tso-conformance")
    process.stdout.close()
    _, stderr = process.communicate(timeout=60)
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
    assert process.returncode == 1
