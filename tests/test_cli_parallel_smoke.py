"""End-to-end smoke test for the CLI's --jobs/--no-cache experiment flags."""

from pathlib import Path

from repro.cli import DEFAULT_RESULTS_DIR, main

RESULTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def test_default_results_dir_is_benchmarks_results():
    assert DEFAULT_RESULTS_DIR == RESULTS_DIR


def test_figure_cli_parallel_no_cache_writes_results_file(tmp_path, capsys):
    out_file = tmp_path / "figure3.txt"

    code = main(["figure", "3", "--workloads", "fft", "--cores", "2",
                 "--scale", "0.2", "--protocols", "MESI,TSO-CC-4-basic",
                 "--jobs", "2", "--no-cache", "--save",
                 "--results-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out and "gmean" in out

    assert out_file.exists()
    content = out_file.read_text(encoding="utf-8")
    assert "Figure 3" in content and "MESI" in content


def test_figure_cli_second_run_hits_cache(tmp_path, capsys):
    args = ["figure", "3", "--workloads", "fft", "--cores", "2",
            "--scale", "0.2", "--protocols", "MESI,TSO-CC-4-basic",
            "--jobs", "2", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    # Entry files only (the advisory index-v1.json is not an entry).
    entries = list(tmp_path.glob("*/*.json"))
    assert len(entries) == 2  # one per (protocol, workload) cell
    mtimes = {path: path.stat().st_mtime_ns for path in entries}

    capsys.readouterr()
    assert main(args) == 0
    assert "Figure 3" in capsys.readouterr().out
    # Cache entries were reused, not rewritten.
    assert {path: path.stat().st_mtime_ns for path in entries} == mtimes


def test_run_cli_accepts_jobs_and_no_cache(capsys):
    code = main(["run", "fft", "--protocol", "MESI", "--cores", "2",
                 "--scale", "0.2", "--jobs", "2", "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "MESI" in out and "cycles" in out
