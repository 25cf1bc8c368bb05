"""Tests for the fcbench command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_list_methods_and_datasets(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bitshuffle-zstd" in out
    assert "citytemp" in out
    assert "HPC" in out


def test_list_methods_only(capsys):
    assert main(["list", "--methods"]) == 0
    out = capsys.readouterr().out
    assert "gorilla" in out
    assert "citytemp" not in out


def test_run_streams_cells_and_summarizes(capsys):
    rc = main(
        [
            "run",
            "--methods", "gorilla,chimp",
            "--datasets", "citytemp",
            "--target-elements", "512",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "[   1/2]" in out and "[   2/2]" in out
    assert "ok=2 failed=0" in out
    assert "0 hits / 2 misses" in out


def test_run_quiet_emits_summary_only(capsys):
    rc = main(
        [
            "run", "--quiet",
            "--methods", "gorilla",
            "--datasets", "citytemp",
            "--target-elements", "512",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("\n") == 1
    assert out.startswith("ran 1 cells")


def test_run_reports_cache_hits_on_second_invocation(capsys):
    args = [
        "run", "--quiet",
        "--methods", "gorilla",
        "--datasets", "citytemp",
        "--target-elements", "512",
    ]
    main(args)
    capsys.readouterr()
    main(args)
    assert "cache: 1 hits / 0 misses" in capsys.readouterr().out


def test_run_rejects_unknown_method(capsys):
    rc = main(["run", "--methods", "zipzap"])
    assert rc == 2
    assert "unknown methods: zipzap" in capsys.readouterr().err


def test_run_rejects_unknown_dataset(capsys):
    rc = main(["run", "--datasets", "nope"])
    assert rc == 2
    assert "unknown datasets: nope" in capsys.readouterr().err


def test_cache_inspect_and_clear(tmp_path, capsys):
    main(
        [
            "run", "--quiet",
            "--methods", "gorilla,chimp",
            "--datasets", "citytemp",
            "--target-elements", "512",
        ]
    )
    (tmp_path / "suite_oldformat.json").write_text("[]")
    capsys.readouterr()

    assert main(["cache"]) == 0
    out = capsys.readouterr().out
    assert "cells: 2 (0 stale" in out
    assert "legacy suite blobs: 1" in out
    assert "last run: 0 hits / 2 misses" in out

    assert main(["cache", "clear", "--stale"]) == 0
    out = capsys.readouterr().out
    assert "0 cell(s), 1 legacy blob(s), 2 kept" in out
    assert not list(tmp_path.glob("suite_*.json"))
    assert len(list(tmp_path.glob("cells/*/*.json"))) == 2

    assert main(["cache", "clear"]) == 0
    assert not list(tmp_path.glob("cells/*/*.json"))


def test_report_table4(capsys):
    rc = main(
        [
            "report", "table4",
            "--methods", "gorilla,chimp",
            "--datasets", "citytemp,gas-price",
            "--target-elements", "512",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "Table 4" in out
    assert "Gorilla" in out and "Chimp" in out


def test_report_arbitrary_metric(capsys):
    rc = main(
        [
            "report",
            "--metric", "compressed_bytes",
            "--methods", "gorilla",
            "--datasets", "citytemp",
            "--target-elements", "512",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "metric: compressed_bytes" in out
    assert "citytemp" in out


def test_report_unknown_metric(capsys):
    rc = main(
        [
            "report",
            "--metric", "nonsense",
            "--methods", "gorilla",
            "--datasets", "citytemp",
            "--target-elements", "512",
        ]
    )
    assert rc == 2
    assert "unknown metric" in capsys.readouterr().err


def test_parallel_run_matches_serial_fingerprint(capsys):
    args = [
        "run", "--quiet", "--no-cache",
        "--methods", "gorilla,chimp",
        "--datasets", "citytemp,gas-price",
        "--target-elements", "512",
    ]
    assert main(args + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    def fp(text):
        return text.rsplit("fingerprint=", 1)[1].split()[0]

    assert fp(serial) == fp(parallel)


def test_run_jobs_zero_auto_detects(capsys):
    rc = main(
        [
            "run", "--quiet", "--no-cache",
            "--methods", "gorilla",
            "--datasets", "citytemp",
            "--target-elements", "512",
            "--jobs", "0",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    import os

    assert f"jobs={os.cpu_count() or 1}" in out


def test_jobs_help_documents_auto_detection(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert "os.cpu_count()" in capsys.readouterr().out


def test_bench_writes_snapshot_and_diffs(tmp_path, capsys):
    import json

    out_path = tmp_path / "BENCH_test.json"
    args = [
        "bench",
        "--methods", "gorilla",
        "--datasets", "citytemp",
        "--elements", "1024",
        "--repeats", "1",
        "--no-guard",
        "--output", str(out_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "enc" in out and "MB/s" in out and "vs scalar" in out
    report = json.loads(out_path.read_text())
    assert report["cells"][0]["method"] == "gorilla"
    assert report["cells"][0]["encode_speedup_vs_scalar"] > 0

    # A second snapshot in the same directory diffs against the first.
    second = tmp_path / "BENCH_test2.json"
    assert main(args[:-1] + [str(second)]) == 0
    out = capsys.readouterr().out
    assert "enc Δ" in out


def test_bench_fails_on_a_red_gate(tmp_path, capsys, monkeypatch):
    from repro.perf import bench

    report = {
        "cells": [],
        "service": {
            "tenancy": {"acceptance": {"pass": False, "target": 0.97}},
            "tracing_overhead": {"within_budget": True},
        },
    }
    monkeypatch.setattr(bench, "run_bench", lambda **kwargs: report)
    out_path = tmp_path / "BENCH_red.json"
    args = ["bench", "--methods", "gorilla", "--output", str(out_path)]
    assert main(args) == 1
    assert out_path.exists()  # the snapshot is written before failing
    err = capsys.readouterr().err
    assert "service.tenancy.acceptance" in err

    report["service"]["tenancy"]["acceptance"]["pass"] = True
    assert main(args) == 0
    report["service"]["tracing_overhead"]["within_budget"] = False
    assert main(args) == 1
    assert "service.tracing_overhead.within_budget" in capsys.readouterr().err


def test_bench_rejects_unknown_method(capsys):
    assert main(["bench", "--methods", "nope"]) == 2
    assert "unknown methods" in capsys.readouterr().err


def test_version_flag_prints_package_version(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"fcbench {repro.__version__}"


def test_client_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:  # argparse's own exit
        main(["client"])
    assert excinfo.value.code == 2


def test_client_refused_connection_is_a_clean_error(tmp_path, capsys):
    import socket

    # Grab a port, then close it so nothing is listening there.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    code = main(["client", "--port", str(port), "--retries", "0", "ping"])
    assert code == 2
    assert "error" in capsys.readouterr().err
