"""``fcbench`` — drive the benchmark suite without pytest.

Subcommands:

* ``fcbench run``    — execute (a slice of) the measurement matrix,
  streaming per-cell status, with ``--jobs N`` parallelism and the
  per-cell incremental cache.
* ``fcbench report`` — render a paper table (4/5/6) or an arbitrary
  metric matrix from suite results; with ``--db`` render per-domain
  tables plus Friedman / Nemenyi / CD-diagram statistics from an
  experiment database (``--json`` and ``--artifacts`` for the
  machine-readable forms).
* ``fcbench sweep``  — the resumable experiment database:
  ``init`` expands a codec x dataset x configuration grid into pending
  cells (idempotently), ``run --workers N`` drives them to completion
  with crash-safe claim/heartbeat semantics, ``status`` shows progress,
  ``import-cache`` migrates the per-cell JSON cache into the database,
  and ``reset`` re-queues failures.  See ``docs/experiments.md``.
* ``fcbench cache``  — inspect the cache (``inspect``, the default) or
  delete entries (``clear``, with ``--stale`` to drop only entries
  whose cache version or method fingerprint is out of date, plus
  legacy monolithic ``suite_*.json`` blobs).
* ``fcbench bench``  — measure *real* encode/decode throughput per
  (method, dataset) cell (plus the scalar-oracle baselines where a
  codec retains one), write ``BENCH_<git-sha>.json`` at the repo root,
  and diff against the previous snapshot; exits 1 when any
  ``acceptance`` or ``within_budget`` gate in the report is red.
* ``fcbench compress / decompress / inspect`` — the streaming codec
  surface: turn a ``.npy`` array into a seekable ``.fcf`` frame stream
  (``--codec``, ``--chunk-elements``, ``--jobs``), restore it
  bit-exactly, or print a stream's header and chunk index.
  ``--codec auto`` selects a codec per chunk (``--policy
  heuristic|measured|learned``) and writes a mixed-codec v2 stream.
* ``fcbench select`` — the selection subsystem offline: ``explain``
  prints per-chunk features, the chosen codec, and the reason;
  ``train`` fits the learned policy's feature → winner table from the
  suite cache.
* ``fcbench serve``  — run the network compression service (an asyncio
  TCP server speaking the FCS wire protocol; see ``docs/service.md``)
  with request batching and graceful drain; ``--metrics-json`` writes
  the final metrics snapshot on shutdown.
* ``fcbench client`` — talk to a running server:
  ``ping | compress | decompress | stats``.  A served ``compress`` is
  byte-identical to the local one.
* ``fcbench trace`` — inspect a traced server's span buffer:
  ``tail | export | stats`` (see ``docs/observability.md``); the
  cluster-wide view is ``fcbench cluster trace``.
* ``fcbench list``   — enumerate the registered methods and datasets
  (``--json`` for machine-readable registry introspection).

Usage — run a single cell, then clear the cache it left behind:

    >>> import tempfile, os
    >>> os.environ["FCBENCH_CACHE_DIR"] = tempfile.mkdtemp()
    >>> from repro.cli import main
    >>> main(["run", "--methods", "gorilla", "--datasets", "citytemp",
    ...       "--target-elements", "512", "--quiet"])  # doctest: +ELLIPSIS
    ran 1 cells in ...s (jobs=1) ok=1 failed=0 cache: 0 hits / 1 misses fingerprint=...
    0
    >>> main(["cache", "clear"])
    cleared (all): 1 cell(s), 0 legacy blob(s), 0 kept
    0

Stream a ``.npy`` array into the frame format and back, bit-exactly:

    >>> import numpy as np
    >>> d = tempfile.mkdtemp()
    >>> npy = os.path.join(d, "field.npy")
    >>> np.save(npy, np.linspace(0.0, 1.0, 3000).reshape(3, 1000))
    >>> main(["compress", npy, npy + ".fcf", "--codec", "gorilla",
    ...       "--chunk-elements", "1024", "--quiet"])
    0
    >>> main(["inspect", npy + ".fcf"])  # doctest: +ELLIPSIS
    codec            gorilla
    version          1
    dtype            float64
    shape            3x1000
    chunk elements   1024
    chunks           3
    raw bytes        24000
    compressed bytes ...
    ratio            ...
    0
    >>> main(["decompress", npy + ".fcf", os.path.join(d, "back.npy"),
    ...       "--quiet"])
    0
    >>> bool(np.array_equal(np.load(os.path.join(d, "back.npy")),
    ...                     np.load(npy)))
    True

Exit codes: 0 on success (the summary line still reports per-cell
failures, which include the paper's deliberate "-" skip cells), 1 when
*no* cell produced a measurement, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.compressors import compressor_names, get_compressor
from repro.core import cache as cell_cache
from repro.core.executor import CellTask
from repro.core.report import format_matrix, format_table
from repro.core.results import Measurement, ResultSet
from repro.core.suite import (
    default_datasets,
    default_methods,
    run_suite_detailed,
)
from repro.data.catalog import CATALOG
from repro.data.loader import DEFAULT_TARGET_ELEMENTS

__all__ = ["main", "build_parser"]


def _csv(value: str | None) -> list[str] | None:
    if not value:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _validate(kind: str, names: list[str] | None, known: list[str]) -> list[str] | None:
    if names is None:
        return None
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(
            f"error: unknown {kind}: {', '.join(unknown)}\n"
            f"known {kind}: {', '.join(known)}"
        )
    return names


# ----------------------------------------------------------------------
# fcbench run
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    methods = _validate("methods", _csv(args.methods), compressor_names())
    datasets = _validate("datasets", _csv(args.datasets), default_datasets())
    total = len(methods or default_methods()) * len(datasets or default_datasets())
    done = {"n": 0}

    def on_cell(task: CellTask, measurement: Measurement, elapsed: float) -> None:
        done["n"] += 1
        if args.quiet:
            return
        if measurement.ok:
            status = f"CR={measurement.compression_ratio:7.3f}"
        else:
            status = f"skip ({measurement.error})"
        timing = "   cached" if elapsed == 0.0 else f"{elapsed * 1e3:7.1f}ms"
        print(
            f"[{done['n']:4d}/{total}] {task.dataset:<16} {task.method:<16} "
            f"{timing}  {status}",
            flush=True,
        )

    run = run_suite_detailed(
        methods=methods,
        datasets=datasets,
        target_elements=args.target_elements,
        seed=args.seed,
        use_cache=not args.no_cache,
        jobs=args.jobs,
        on_cell=on_cell,
    )
    ok = sum(1 for m in run.results.measurements if m.ok)
    failed = len(run.results) - ok
    stats = run.cache_stats
    print(
        f"ran {len(run.results)} cells in {run.elapsed_seconds:.2f}s "
        f"(jobs={run.jobs}) ok={ok} failed={failed} "
        f"cache: {stats.hits} hits / {stats.misses} misses "
        f"fingerprint={run.results.fingerprint()}"
    )
    # "failed" includes the paper's deliberate "-" cells (GFC size skips);
    # only a run where nothing succeeded signals a broken harness.
    return 0 if ok else 1


# ----------------------------------------------------------------------
# fcbench report
# ----------------------------------------------------------------------
_REPORT_PRESETS = ("table4", "table5", "table6")


def _cmd_report(args: argparse.Namespace) -> int:
    if args.db:
        return _cmd_report_db(args)
    if args.json is not None or args.artifacts:
        raise SystemExit(
            "error: --json/--artifacts render the experiment database; "
            "pass --db PATH"
        )
    methods = _validate("methods", _csv(args.methods), compressor_names())
    datasets = _validate("datasets", _csv(args.datasets), default_datasets())
    run = run_suite_detailed(
        methods=methods,
        datasets=datasets,
        target_elements=args.target_elements,
        seed=args.seed,
        jobs=args.jobs,
    )
    results = run.results
    if args.metric:
        print(_metric_matrix(results, args.metric))
        return 0
    from repro.core import experiments

    driver = {
        "table4": experiments.table4_cr_matrix,
        "table5": experiments.table5_throughput,
        "table6": experiments.table6_walltime,
    }[args.what]
    print(driver(results))
    return 0


def _cmd_report_db(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.expdb import ExperimentStore, render_report, sweep_report
    from repro.expdb.report import METRICS, write_artifacts

    if not Path(args.db).exists():
        raise SystemExit(f"error: no experiment database at {args.db!r}")
    metric = args.metric or "ratio"
    if metric not in METRICS:
        raise SystemExit(
            f"error: unknown sweep metric {metric!r}\n"
            f"sweep metrics: {', '.join(METRICS)}"
        )
    with ExperimentStore(args.db) as store:
        report = sweep_report(store, metric=metric, alpha=args.alpha)
    if args.artifacts:
        for path in write_artifacts(report, args.artifacts):
            print(f"wrote {path}")
    if args.json is not None:
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            print(payload, end="")
        else:
            Path(args.json).write_text(payload)
            print(f"wrote {args.json}")
    if args.json is None:
        print(render_report(report), end="")
    return 0


def _metric_matrix(results: ResultSet, metric: str) -> str:
    import dataclasses

    numeric = [
        f.name
        for f in dataclasses.fields(Measurement)
        if f.type in ("int", "float")
    ]
    if metric not in numeric:
        raise SystemExit(
            f"error: unknown metric {metric!r}\n"
            f"numeric metrics: {', '.join(numeric)}"
        )
    methods = results.methods()
    datasets = results.datasets()
    matrix = results.matrix(metric, methods, datasets)
    display = [get_compressor(m).info.display_name for m in methods]
    return format_matrix(datasets, display, matrix, title=f"metric: {metric}")


# ----------------------------------------------------------------------
# fcbench cache
# ----------------------------------------------------------------------
def _cmd_cache(args: argparse.Namespace) -> int:
    if args.action == "clear":
        counts = cell_cache.clear_cache(stale_only=args.stale)
        mode = "stale" if args.stale else "all"
        print(
            f"cleared ({mode}): {counts['removed_cells']} cell(s), "
            f"{counts['removed_legacy']} legacy blob(s), "
            f"{counts['kept']} kept"
        )
        return 0

    scan = cell_cache.scan_cache()
    print(f"cache root: {scan.root}")
    print(f"cache version: {cell_cache.CACHE_VERSION}")
    print(
        f"cells: {len(scan.entries)} "
        f"({len(scan.stale_entries)} stale, {scan.total_bytes / 1024:.1f} KiB)"
    )
    if scan.legacy_blobs:
        print(
            f"legacy suite blobs: {len(scan.legacy_blobs)} "
            "(run `fcbench cache clear --stale` to drop)"
        )
    per_method = scan.per_method()
    if per_method:
        rows = [[name, str(count)] for name, count in per_method.items()]
        print(format_table(["method", "cells"], rows))
    last = cell_cache.read_last_run()
    if last:
        print(
            f"last run: {last.get('hits', 0)} hits / "
            f"{last.get('misses', 0)} misses over {last.get('cells', '?')} cells "
            f"(jobs={last.get('jobs', '?')}, "
            f"{last.get('elapsed_seconds', '?')}s)"
        )
    return 0


# ----------------------------------------------------------------------
# fcbench bench
# ----------------------------------------------------------------------
def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.perf import bench

    methods = _validate(
        "methods", _csv(args.methods), compressor_names()
    ) or list(bench.DEFAULT_METHODS)
    datasets = _validate(
        "datasets", _csv(args.datasets), default_datasets()
    ) or list(bench.DEFAULT_DATASETS)

    def on_cell(cell: dict) -> None:
        if args.quiet:
            return
        if "throughput_mbs" in cell:  # a loadgen (service/cluster) cell
            label = (
                f"cluster[{cell['nodes']}]" if "nodes" in cell else "service"
            )
            print(
                f"{label:<10} {cell['codec']:<16} "
                f"{cell['completed_round_trips']:3d} round trips  "
                f"p50 {cell['compress']['p50_ms']:6.1f}ms  "
                f"p99 {cell['compress']['p99_ms']:6.1f}ms  "
                f"{cell['throughput_mbs']:7.1f} MB/s",
                flush=True,
            )
            return
        if "online_ratio" in cell:  # a tenancy regime row
            verdict = "beats" if cell["beats_heuristic"] else "trails"
            print(
                f"tenancy    {cell['regime']:<14} "
                f"online {cell['online_ratio']:6.3f} = "
                f"{cell['online_vs_best_fixed'] * 100:5.1f}% of best fixed "
                f"({cell['best_fixed_arm']} {cell['best_fixed_ratio']:.3f}) "
                f"{verdict} heuristic {cell['heuristic_ratio']:.3f}",
                flush=True,
            )
            return
        if "auto_cr" in cell:
            chunks = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(cell["frame_codecs"].items())
            )
            print(
                f"{cell['dataset']:<14} auto/{cell['policy']:<9} "
                f"CR {cell['auto_cr']:6.3f} = "
                f"{cell['fraction_of_best'] * 100:5.1f}% of best fixed "
                f"({cell['best_fixed_method']} {cell['best_fixed_cr']:.3f}) "
                f"[{chunks}]",
                flush=True,
            )
            return
        speedup = cell.get("encode_speedup_vs_scalar")
        extra = f"  {speedup:5.1f}x vs scalar" if speedup else ""
        print(
            f"{cell['dataset']:<14} {cell['method']:<10} "
            f"enc {cell['compress_mbs']:8.1f} MB/s  "
            f"dec {cell['decompress_mbs']:8.1f} MB/s{extra}",
            flush=True,
        )

    report = bench.run_bench(
        methods=methods,
        datasets=datasets,
        elements=args.elements,
        repeats=args.repeats,
        oracle=not args.no_oracle,
        guard=not args.no_guard,
        auto=args.auto,
        service=args.service,
        resilience=args.resilience,
        tenancy=args.tenancy,
        seed=args.seed,
        sweep_db=args.sweep_db,
        on_cell=on_cell,
    )
    root = Path(args.output).parent if args.output else bench.repo_root()
    if args.output:
        path = Path(args.output)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        path = bench.write_report(report)
    print(f"wrote {path}")
    previous = bench.latest_snapshot(root, exclude=path)
    if previous is not None:
        print(bench.diff_reports(json.loads(previous.read_text()), report))
    red = bench.red_gates(report)
    for gate in red:
        print(f"fcbench bench: gate failed: {gate}", file=sys.stderr)
    return 1 if red else 0


# ----------------------------------------------------------------------
# fcbench sweep (the experiment database)
# ----------------------------------------------------------------------
def _sweep_grid(args: argparse.Namespace):
    from repro.expdb import GridSpec

    grid = GridSpec()
    overrides = {}
    if args.codecs:
        overrides["codecs"] = tuple(_csv(args.codecs))
    if args.datasets:
        overrides["datasets"] = tuple(_csv(args.datasets))
    if args.chunk_elements:
        overrides["chunk_elements"] = tuple(
            int(v) for v in _csv(args.chunk_elements)
        )
    if args.jobs:
        overrides["jobs"] = tuple(int(v) for v in _csv(args.jobs))
    if args.policies:
        overrides["policies"] = tuple(_csv(args.policies))
    if args.seeds:
        overrides["seeds"] = tuple(int(v) for v in _csv(args.seeds))
    if args.target_elements:
        overrides["target_elements"] = args.target_elements
    import dataclasses

    return dataclasses.replace(grid, **overrides)


def _cmd_sweep_init(args: argparse.Namespace) -> int:
    from repro.data.catalog import ExternalCorpus
    from repro.errors import DatasetError, ExperimentError
    from repro.expdb import ExperimentStore, init_grid

    corpus = None
    if args.corpus:
        try:
            corpus = ExternalCorpus.from_manifest(args.corpus)
        except DatasetError as exc:
            raise SystemExit(f"error: {exc}") from exc
    grid = _sweep_grid(args)
    try:
        with ExperimentStore(args.db) as store:
            summary = init_grid(
                store, grid, corpus, manifest_path=args.corpus
            )
            counts = store.counts()
    except ExperimentError as exc:
        raise SystemExit(f"error: {exc}") from exc
    line = (
        f"grid: {summary.added} added, {counts['total']} total cells "
        f"({counts['pending']} pending, {counts['done']} done, "
        f"{counts['skipped']} skipped)"
    )
    if summary.offline_datasets:
        line += f"  offline: {', '.join(summary.offline_datasets)}"
    if summary.revived:
        line += f"  revived: {summary.revived}"
    print(line)
    return 0


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.expdb import ExperimentStore, run_sweep
    from repro.expdb.store import CellRow

    if not Path(args.db).exists():
        raise SystemExit(
            f"error: no experiment database at {args.db!r} "
            "(run `fcbench sweep init` first)"
        )

    def on_cell(cell: CellRow, status: str, fields: dict, error: str) -> None:
        if args.quiet:
            return
        key = cell.key
        detail = (
            f"CR={fields['ratio']:.3f}"
            if status == "done" and fields.get("ratio")
            else error
        )
        print(
            f"{key.dataset:<16} {key.method_label:<16} "
            f"ce={key.chunk_elements:<6} {status:<8} {detail}",
            flush=True,
        )

    def on_progress(counts: dict) -> None:
        if args.quiet:
            return
        print(
            f"\r{counts['done']} done / {counts['failed']} failed / "
            f"{counts['pending']} pending / {counts['claimed']} claimed",
            end="",
            flush=True,
        )

    summary = run_sweep(
        args.db,
        workers=args.workers,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        max_cells=args.max_cells,
        on_cell=on_cell,
        on_progress=None if args.quiet or args.workers <= 1 else on_progress,
    )
    if not args.quiet and args.workers > 1:
        print()
    counts = summary["counts"]
    print(
        f"sweep: executed {summary['executed']} cells with "
        f"{summary['workers']} worker(s); now {counts['done']} done / "
        f"{counts['failed']} failed / {counts['skipped']} skipped / "
        f"{counts['pending']} pending"
    )
    return 0 if counts["pending"] == 0 and counts["claimed"] == 0 else 1


def _cmd_sweep_worker(args: argparse.Namespace) -> int:
    """Internal verb: one worker process (spawned by ``sweep run``)."""
    import json

    from repro.expdb import worker_loop

    summary = worker_loop(
        args.db,
        owner=args.owner,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        max_cells=args.max_cells,
    )
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(
            f"worker {summary['owner']}: {summary['executed']} executed "
            f"({summary['done']} done, {summary['failed']} failed, "
            f"{summary['skipped']} skipped)"
        )
    return 0


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.expdb import ExperimentStore

    if not Path(args.db).exists():
        raise SystemExit(f"error: no experiment database at {args.db!r}")
    with ExperimentStore(args.db) as store:
        counts = store.counts()
        grid = store.get_meta("grid")
        claimed = store.cells(status="claimed")
        failed = store.cells(status="failed")
    if args.json:
        print(
            json.dumps(
                {
                    "counts": counts,
                    "grid": grid,
                    "claimed": [
                        {"id": c.id, "owner": c.owner, **c.key.as_dict()}
                        for c in claimed
                    ],
                    "failed": [
                        {"id": c.id, "error": c.error, **c.key.as_dict()}
                        for c in failed
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        f"{counts['total']} cells: {counts['done']} done, "
        f"{counts['failed']} failed, {counts['skipped']} skipped, "
        f"{counts['pending']} pending, {counts['claimed']} claimed"
    )
    for cell in claimed:
        print(
            f"  claimed: {cell.key.dataset}/{cell.key.method_label} "
            f"by {cell.owner}"
        )
    for cell in failed[:10]:
        print(
            f"  failed: {cell.key.dataset}/{cell.key.method_label}: "
            f"{cell.error}"
        )
    if len(failed) > 10:
        print(f"  ... and {len(failed) - 10} more failures")
    return 0


def _cmd_sweep_import_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.expdb import ExperimentStore, import_cache

    root = Path(args.cache_root) if args.cache_root else None
    with ExperimentStore(args.db) as store:
        counts = import_cache(store, root)
    print(
        f"imported {counts['imported']} cells "
        f"({counts['imported_done']} done, {counts['imported_failed']} "
        f"failed); skipped {counts['skipped_existing']} existing, "
        f"{counts['skipped_stale']} stale, {counts['malformed']} malformed"
    )
    return 0


def _cmd_sweep_reset(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.expdb import ExperimentStore

    if not Path(args.db).exists():
        raise SystemExit(f"error: no experiment database at {args.db!r}")
    statuses = tuple(_csv(args.statuses) or ("failed",))
    with ExperimentStore(args.db) as store:
        reset = store.reset_cells(statuses)
    print(f"reset {reset} cell(s) ({', '.join(statuses)} -> pending)")
    return 0


# ----------------------------------------------------------------------
# fcbench compress / decompress / inspect (the streaming surface)
# ----------------------------------------------------------------------
def _load_npy(path: str):
    import numpy as np

    try:
        array = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {path!r}: {exc}") from exc
    if array.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise SystemExit(
            f"error: {path!r} holds {array.dtype}; the frame format stores "
            "float32/float64 (cast the array first)"
        )
    return array


def _build_policy(args: argparse.Namespace):
    """Resolve the ``--policy`` family of flags into a policy instance."""
    from repro.errors import SelectionError
    from repro.select import resolve_policy

    options: dict = {}
    if args.policy == "measured" and args.select_sample is not None:
        options["sample_elements"] = args.select_sample
    if args.policy == "learned" and args.select_table is not None:
        options["table_path"] = args.select_table
    try:
        return resolve_policy(args.policy, **options)
    except SelectionError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _add_policy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy",
        default="heuristic",
        choices=("heuristic", "measured", "learned"),
        help="selection policy for the auto codec (default %(default)s)",
    )
    parser.add_argument(
        "--select-sample",
        type=int,
        default=None,
        help="measured policy: trial-compress this many leading elements "
        "per chunk (default 2048)",
    )
    parser.add_argument(
        "--select-table",
        default=None,
        help="learned policy: training table path "
        "(default: the suite cache's select_table.json)",
    )


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.api import AUTO_CODEC, available_codecs, open_stream

    known = [*available_codecs(), AUTO_CODEC]
    if args.codec not in known:
        raise SystemExit(
            f"error: unknown codec {args.codec!r}\n"
            f"known codecs: {', '.join(known)}"
        )
    codec = args.codec
    if codec == AUTO_CODEC:
        codec = _build_policy(args)
    array = _load_npy(args.input)
    out = open_stream(
        args.output,
        "wb",
        codec=codec,
        dtype=array.dtype,
        chunk_elements=args.chunk_elements,
        jobs=args.jobs,
        shape=array.shape,
    )
    with out:
        out.write(array)
    if not args.quiet:
        import os

        compressed = os.path.getsize(args.output)
        ratio = out.raw_bytes / compressed if compressed else float("inf")
        chosen = ""
        if out.codec_frames:
            counts = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(out.codec_frames.items())
            )
            chosen = f" [{counts}]"
        print(
            f"{args.input} -> {args.output}: {array.size} elements in "
            f"{len(out.frames)} chunk(s), {out.raw_bytes} -> {compressed} "
            f"bytes (ratio {ratio:.3f}, codec {args.codec}){chosen}"
        )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.api import open_stream
    from repro.errors import ReproError

    try:
        with open_stream(args.input, jobs=args.jobs) as stream:
            array = stream.read_all()
            codec = stream.codec_name
    except OSError as exc:
        raise SystemExit(f"error: cannot read {args.input!r}: {exc}") from exc
    except ReproError as exc:
        raise SystemExit(f"error: {args.input}: {exc}") from exc
    np.save(args.output, array)
    if not args.quiet:
        print(
            f"{args.input} -> {args.output}: {array.size} x {array.dtype} "
            f"restored (shape {'x'.join(map(str, array.shape))}, codec {codec})"
        )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.api import open_stream
    from repro.errors import ReproError

    try:
        with open_stream(args.file) as stream:
            dtype = stream.dtype
            raw = stream.n_elements * dtype.itemsize
            compressed = stream.compressed_bytes
            frame_codecs = stream.frame_codec_names()
            payload = {
                "codec": stream.codec_name,
                "format_version": stream.format_version,
                "codec_table": list(stream.codec_table),
                "dtype": str(dtype),
                "shape": list(stream.shape),
                "chunk_elements": stream.chunk_elements,
                "n_chunks": stream.n_chunks,
                "n_elements": stream.n_elements,
                "raw_bytes": raw,
                "compressed_bytes": compressed,
                "compression_ratio": raw / compressed if compressed else None,
                "chunks": [
                    {
                        "n_elements": f.n_elements,
                        "compressed_bytes": f.compressed_bytes,
                        "offset": f.offset,
                        "codec": name,
                    }
                    for f, name in zip(stream.frames, frame_codecs)
                ],
            }
    except OSError as exc:
        raise SystemExit(f"error: cannot read {args.file!r}: {exc}") from exc
    except ReproError as exc:
        raise SystemExit(f"error: {args.file}: {exc}") from exc
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    ratio = payload["compression_ratio"]
    rows = [
        ("codec", payload["codec"]),
        ("version", str(payload["format_version"])),
        ("dtype", payload["dtype"]),
        ("shape", "x".join(map(str, payload["shape"])) or "scalar"),
        ("chunk elements", str(payload["chunk_elements"])),
        ("chunks", str(payload["n_chunks"])),
        ("raw bytes", str(raw)),
        ("compressed bytes", str(compressed)),
        ("ratio", f"{ratio:.3f}" if ratio else "inf"),
    ]
    if payload["codec_table"]:
        from collections import Counter

        counts = Counter(frame_codecs)
        rows.insert(
            2,
            (
                "codec table",
                ", ".join(
                    f"{name} x{counts.get(name, 0)}"
                    for name in payload["codec_table"]
                ),
            ),
        )
    for key, value in rows:
        print(f"{key:<16} {value}")
    return 0


# ----------------------------------------------------------------------
# fcbench select
# ----------------------------------------------------------------------
def _explain_input(args: argparse.Namespace):
    """``select explain`` takes a .npy path or a catalog dataset name."""
    import os

    from repro.data.catalog import dataset_names
    from repro.data.loader import load

    if os.path.exists(args.input):
        return _load_npy(args.input)
    if args.input in dataset_names():
        return load(args.input, args.target_elements, args.seed)
    raise SystemExit(
        f"error: {args.input!r} is neither a readable .npy file nor a "
        "catalog dataset name (see `fcbench list --datasets`)"
    )


def _cmd_select_explain(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    import numpy as np

    policy = _build_policy(args)
    array = np.ascontiguousarray(_explain_input(args)).ravel()
    step = max(1, args.chunk_elements)
    decisions = []
    for start in range(0, max(array.size, 1), step):
        chunk = array[start : start + step]
        if chunk.size == 0:
            break
        decisions.append((start, policy.decide(chunk)))
    if args.json:
        print(
            json.dumps(
                {
                    "policy": policy.name,
                    "candidates": list(policy.candidates),
                    "chunks": [
                        {
                            "start": start,
                            "codec": decision.codec,
                            "reason": decision.reason,
                            "features": dataclasses.asdict(decision.features),
                        }
                        for start, decision in decisions
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"policy {policy.name}  candidates: {', '.join(policy.candidates)}")
    for index, (start, decision) in enumerate(decisions):
        features = decision.features
        print(
            f"chunk {index:4d} @ {start:>10d}  -> {decision.codec:<16} "
            f"({decision.reason})"
        )
        if args.verbose:
            print(
                f"            frac_unique={features.frac_unique:.3f} "
                f"autocorr={features.lag1_autocorr:+.3f} "
                f"byte_entropy={features.byte_entropy:.2f} "
                f"xor_sig={features.xor_significant_fraction:.2f} "
                f"decimals={features.decimal_digits}"
            )
    from collections import Counter

    counts = Counter(decision.codec for _, decision in decisions)
    summary = ", ".join(f"{k} x{v}" for k, v in sorted(counts.items()))
    print(f"{len(decisions)} chunk(s): {summary}")
    return 0


def _cmd_select_train(args: argparse.Namespace) -> int:
    from repro.errors import SelectionError
    from repro.select import build_table, save_table

    candidates = _csv(args.candidates)
    if candidates is not None:
        candidates = tuple(
            _validate("methods", candidates, compressor_names()) or ()
        )
    try:
        rows = build_table(candidates=candidates)
    except SelectionError as exc:
        raise SystemExit(f"error: {exc}") from exc
    from collections import Counter

    path = save_table(rows, args.output)
    winners = Counter(row.winner for row in rows)
    summary = ", ".join(f"{k} x{v}" for k, v in sorted(winners.items()))
    print(f"trained on {len(rows)} cached dataset cell group(s): {summary}")
    print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
# fcbench serve / client (the network compression service)
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.service.server import run_server

    tenants = None
    if args.tenants:
        from repro.errors import ReproError
        from repro.service.tenants import TenantRegistry

        try:
            tenants = TenantRegistry.load(args.tenants)
        except (OSError, ReproError) as exc:
            raise SystemExit(
                f"error: bad tenants file {args.tenants!r}: {exc}"
            ) from exc

    gateways = []

    def on_ready(server) -> None:
        # Machine-parseable: CI greps this line for the ephemeral port.
        print(f"serving on {server.host}:{server.port}", flush=True)
        if args.gateway_port is not None:
            from repro.service.gateway import ObservabilityGateway

            gateway = ObservabilityGateway(
                server, host=args.host, port=args.gateway_port
            ).start()
            gateways.append(gateway)
            # Machine-parseable: CI greps this line for the scrape port.
            print(f"gateway on {gateway.host}:{gateway.port}", flush=True)
        if not args.quiet:
            print(
                f"  jobs={server.jobs or 1} batch_max={server.batch_max} "
                f"batch_window={server.batch_window}s  (Ctrl-C drains "
                "gracefully)",
                flush=True,
            )
            if tenants is not None:
                print(f"  tenants={len(tenants)} from {args.tenants}", flush=True)

    topology = None
    if args.topology_json:
        from repro.errors import ProtocolError
        from repro.service.protocol import validate_topology

        try:
            with open(args.topology_json) as fh:
                topology = validate_topology(json.load(fh))
        except (OSError, json.JSONDecodeError, ProtocolError) as exc:
            raise SystemExit(
                f"error: bad topology file {args.topology_json!r}: {exc}"
            ) from exc

    try:
        metrics = run_server(
            args.host,
            args.port,
            on_ready=on_ready,
            jobs=args.jobs,
            batch_max=args.batch_max,
            batch_window=args.batch_window,
            grace=args.grace,
            max_queued_requests=args.max_queued_requests,
            max_queued_bytes=args.max_queued_bytes,
            shed_retry_after_ms=args.shed_retry_after_ms,
            node_id=args.node_id,
            topology=topology,
            tenants=tenants,
            online_seed=args.online_seed,
            trace=args.trace,
            trace_capacity=args.trace_capacity,
            slow_request_ms=args.slow_ms,
        )
    finally:
        for gateway in gateways:
            gateway.stop()
    snapshot = metrics.snapshot()
    if args.metrics_json:
        with open(args.metrics_json, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.metrics_json}")
    elif not args.quiet:
        ops = snapshot["ops"]
        served = ", ".join(
            f"{op} x{c['requests']}" for op, c in ops.items()
        ) or "nothing"
        print(f"drained: served {served}")
    return 0


def _client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(
        args.host,
        args.port,
        retry=args.retries,
        deadline=args.timeout,
        token=args.token,
    )


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.errors import ReproError

    try:
        if args.client_command == "ping":
            with _client(args) as client:
                seconds = client.ping()
            print(f"pong from {args.host}:{args.port} in {seconds * 1e3:.2f}ms")
            return 0
        if args.client_command == "stats":
            with _client(args) as client:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.client_command == "compress":
            array = _load_npy(args.input)
            with _client(args) as client:
                blob = client.compress_array(
                    array,
                    args.codec,
                    chunk_elements=args.chunk_elements,
                    policy=args.policy,
                )
            with open(args.output, "wb") as fh:
                fh.write(blob)
            if not args.quiet:
                ratio = array.nbytes / len(blob) if blob else float("inf")
                print(
                    f"{args.input} -> {args.output}: {array.size} elements, "
                    f"{array.nbytes} -> {len(blob)} bytes "
                    f"(ratio {ratio:.3f}, codec {args.codec}, served by "
                    f"{args.host}:{args.port})"
                )
            return 0
        # decompress
        try:
            with open(args.input, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise SystemExit(f"error: cannot read {args.input!r}: {exc}") from exc
        with _client(args) as client:
            array = client.decompress_array(blob)
        np.save(args.output, array)
        if not args.quiet:
            print(
                f"{args.input} -> {args.output}: {array.size} x {array.dtype} "
                f"restored (shape {'x'.join(map(str, array.shape))})"
            )
        return 0
    except ConnectionRefusedError as exc:
        raise SystemExit(
            f"error: no server at {args.host}:{args.port} ({exc})"
        ) from exc
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from exc


# ----------------------------------------------------------------------
# fcbench tenant (multi-tenant registry management)
# ----------------------------------------------------------------------
def _load_registry(path, *, must_exist: bool):
    import os

    from repro.errors import ReproError
    from repro.service.tenants import TenantRegistry

    if not os.path.exists(path):
        if must_exist:
            raise SystemExit(f"error: no tenants file at {path!r}")
        return TenantRegistry()
    try:
        return TenantRegistry.load(path)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _cmd_tenant(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.service.tenants import (
        TenantConfig,
        TenantRegistry,
        generate_token,
    )

    if args.tenant_command == "create":
        registry = _load_registry(args.file, must_exist=False)
        token = args.token or generate_token()
        try:
            registry.add(
                TenantConfig(
                    args.tenant_id,
                    token=token,
                    priority=args.priority,
                    max_bytes_per_window=args.max_bytes,
                    max_requests_per_window=args.max_requests,
                    window_seconds=args.window,
                )
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from exc
        registry.save(args.file)
        # The one moment the token is shown: it is never readable from
        # stats or the gateway afterwards.
        print(f"tenant {args.tenant_id!r} created in {args.file}")
        print(f"token: {token}")
        return 0

    if args.tenant_command == "quota":
        registry = _load_registry(args.file, must_exist=True)
        try:
            current = registry.get(args.tenant_id)
        except KeyError as exc:
            raise SystemExit(f"error: {exc}") from exc
        changes = {}
        if args.priority is not None:
            changes["priority"] = args.priority
        if args.max_bytes is not None:
            changes["max_bytes_per_window"] = (
                None if args.max_bytes < 0 else args.max_bytes
            )
        if args.max_requests is not None:
            changes["max_requests_per_window"] = (
                None if args.max_requests < 0 else args.max_requests
            )
        if args.window is not None:
            changes["window_seconds"] = args.window
        if not changes:
            raise SystemExit(
                "error: nothing to change (pass --priority, --max-bytes, "
                "--max-requests, or --window)"
            )
        # TenantConfig is frozen and the registry append-only, so a
        # quota change rebuilds the registry with one tenant replaced.
        updated = TenantRegistry()
        for tenant_id in registry.tenant_ids():
            tenant = registry.get(tenant_id)
            if tenant_id == args.tenant_id:
                tenant = dataclasses.replace(tenant, **changes)
            updated.add(tenant)
        updated.save(args.file)
        row = updated.get(args.tenant_id).as_dict()
        row.pop("token", None)
        print(json.dumps({args.tenant_id: row}, indent=2, sort_keys=True))
        return 0

    if args.tenant_command == "list":
        registry = _load_registry(args.file, must_exist=True)
        snap = registry.snapshot()["tenants"]
        print(json.dumps(snap, indent=2, sort_keys=True))
        return 0

    # stats: dial a live server and print its tenancy accounting
    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    try:
        with ServiceClient(
            args.host, args.port, deadline=args.timeout
        ) as client:
            stats = client.stats()
    except ConnectionRefusedError as exc:
        raise SystemExit(
            f"error: no server at {args.host}:{args.port} ({exc})"
        ) from exc
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from exc
    body = {
        "tenancy": stats.get("tenancy", {}),
        "tenants": stats.get("tenants", {}),
        "online": stats.get("online", {}),
    }
    print(json.dumps(body, indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# fcbench cluster (sharded multi-node serving)
# ----------------------------------------------------------------------
def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    import signal
    import time as _time

    from repro.cluster import ClusterSupervisor
    from repro.errors import ClusterError

    try:
        supervisor = ClusterSupervisor(
            args.nodes,
            host=args.host,
            replication=args.replication,
            vnodes=args.vnodes,
            jobs=args.jobs,
            batch_window=args.batch_window,
            health_interval=args.health_interval,
            auto_restart=not args.no_restart,
            node_grace=args.grace,
            state_dir=args.state_dir,
            control_port=args.control_port,
            tenants=args.tenants,
            trace=args.trace,
        )
        supervisor.start()
    except (ClusterError, OSError) as exc:
        raise SystemExit(f"error: {exc}") from exc

    stop = []

    def _signal(signum, frame):  # noqa: ARG001 - signal handler shape
        stop.append(signum)

    signal.signal(signal.SIGINT, _signal)
    signal.signal(signal.SIGTERM, _signal)

    # Machine-parseable lines: CI greps the control address and the
    # state-file path.
    print(
        f"cluster control on {supervisor.control_host}:"
        f"{supervisor.control_port}",
        flush=True,
    )
    print(f"cluster state file {supervisor.state_path}", flush=True)
    for entry in supervisor.status()["nodes"]:
        print(
            f"  node {entry['id']} serving on "
            f"{entry['host']}:{entry['port']} (pid {entry['pid']})",
            flush=True,
        )
    if not args.quiet:
        print(
            f"  replication={supervisor.replication} "
            f"vnodes={supervisor.vnodes} "
            f"restart={'on' if not args.no_restart else 'off'}  "
            "(Ctrl-C stops the cluster)",
            flush=True,
        )
    try:
        while not stop:
            _time.sleep(0.2)
    finally:
        supervisor.stop()
    if not args.quiet:
        restarts = sum(
            entry["restarts"] for entry in supervisor.status()["nodes"]
        )
        print(f"cluster stopped ({restarts} node restart(s) over its life)")
    return 0


def _cluster_control_client(args: argparse.Namespace):
    """Dial the supervisor control endpoint from --host/--port or --state."""
    import json

    from repro.service.client import ServiceClient

    host, port = args.host, args.port
    if port is None:
        state_path = args.state or "cluster.json"
        try:
            with open(state_path) as fh:
                state = json.load(fh)
            host = state["control"]["host"]
            port = int(state["control"]["port"])
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise SystemExit(
                f"error: cannot read cluster state {state_path!r}: {exc} "
                "(pass --port, or --state pointing at the supervisor's "
                "cluster.json)"
            ) from exc
    return ServiceClient(host, port, retry=0, deadline=args.timeout)


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError

    try:
        with _cluster_control_client(args) as client:
            status = client.cluster_control("status")
    except ConnectionRefusedError as exc:
        raise SystemExit(f"error: no cluster supervisor reachable ({exc})") from exc
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from exc
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    control = status["control"]
    print(
        f"supervisor pid {status['supervisor_pid']} on "
        f"{control['host']}:{control['port']}  "
        f"replication={status['replication']} vnodes={status['vnodes']}"
    )
    rows = [
        [
            entry["id"],
            f"{entry['host']}:{entry['port']}",
            entry["state"],
            str(entry["pid"] or "-"),
            str(entry["restarts"]),
        ]
        for entry in status["nodes"]
    ]
    print(format_table(["node", "address", "state", "pid", "restarts"], rows))
    return 0


def _print_span_tree(spans) -> None:
    """Render flat span dicts as indented parent→child trees."""
    import datetime

    from repro.obs import build_trace_tree

    def _walk(node, depth: int) -> None:
        ts = datetime.datetime.fromtimestamp(node["start"]).strftime(
            "%H:%M:%S.%f"
        )[:-3]
        attrs = node.get("attributes") or {}
        extras = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        flag = "  [ERROR]" if node.get("status") == "error" else ""
        print(
            f"{ts}  {node.get('duration_ms') or 0.0:>9.3f}ms  "
            f"{node['trace_id'][:8]}  {'  ' * depth}{node['name']}{flag}"
            + (f"  {extras}" if extras else "")
        )
        for child in node["children"]:
            _walk(child, depth + 1)

    for root in build_trace_tree(spans):
        _walk(root, 0)


def _export_chrome_trace(spans, out_path: str) -> None:
    import json

    from repro.obs import chrome_trace_events

    with open(out_path, "w") as fh:
        json.dump({"traceEvents": chrome_trace_events(spans)}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path} ({len(spans)} span(s); open in chrome://tracing)")


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    try:
        with ServiceClient(
            args.host, args.port, retry=0, deadline=args.timeout
        ) as client:
            doc = client.trace(
                limit=getattr(args, "limit", None),
                trace_id=getattr(args, "trace_id", None),
            )
    except ConnectionRefusedError as exc:
        raise SystemExit(
            f"error: no server at {args.host}:{args.port} ({exc})"
        ) from exc
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from exc

    stats = doc.get("stats") or {}
    if not stats.get("enabled") and args.trace_command != "stats":
        raise SystemExit(
            f"error: tracing is disabled on {doc.get('node', 'the server')} "
            "(start it with 'fcbench serve --trace')"
        )
    if args.trace_command == "stats":
        print(json.dumps(doc.get("stats", {}), indent=2, sort_keys=True))
        return 0
    if args.trace_command == "export":
        _export_chrome_trace(doc.get("spans", []), args.out)
        return 0
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    spans = doc.get("spans", [])
    if not spans:
        print("no spans recorded yet")
        return 0
    _print_span_tree(spans)
    return 0


def _cmd_cluster_trace(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError

    try:
        with _cluster_control_client(args) as client:
            doc = client.trace(limit=args.limit, trace_id=args.trace_id)
    except ConnectionRefusedError as exc:
        raise SystemExit(f"error: no cluster supervisor reachable ({exc})") from exc
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from exc

    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.export:
        _export_chrome_trace(doc.get("spans", []), args.export)
        return 0
    nodes = doc.get("nodes", {})
    for node_id in sorted(nodes):
        entry = nodes[node_id]
        if "error" in entry:
            print(f"node {node_id}: unreachable ({entry['error']})")
        else:
            state = "tracing" if entry.get("enabled") else "tracing disabled"
            print(
                f"node {node_id}: {state}, "
                f"{entry.get('buffered', 0)} span(s) buffered"
            )
    spans = doc.get("spans", [])
    if not spans:
        print("no spans recorded yet (start the cluster with --trace)")
        return 0
    print()
    _print_span_tree(spans)
    return 0


def _cmd_cluster_drain(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    try:
        with _cluster_control_client(args) as client:
            entry = client.cluster_control("drain", args.node)
    except ConnectionRefusedError as exc:
        raise SystemExit(f"error: no cluster supervisor reachable ({exc})") from exc
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from exc
    print(
        f"drained {entry['id']} ({entry['host']}:{entry['port']}): "
        f"state={entry['state']} — traffic now fails over to its replicas"
    )
    return 0


# ----------------------------------------------------------------------
# fcbench chaos
# ----------------------------------------------------------------------
def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.chaos import FaultPlan, run_chaos_soak

    plan = None
    if args.plan:
        try:
            plan = FaultPlan.from_json(Path(args.plan).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot load plan {args.plan!r}: {exc}")
    kill_node = None if args.no_kill else args.kill
    try:
        report = run_chaos_soak(
            nodes=args.nodes,
            replication=args.replication,
            connections=args.connections,
            duration_seconds=args.seconds,
            elements=args.elements,
            chunk_elements=args.chunk_elements,
            codec=args.codec,
            dataset=args.dataset,
            seed=args.seed,
            plan=plan,
            kill_node=kill_node,
            drain_node=args.drain,
            op_deadline=args.op_deadline,
            attempt_timeout=args.attempt_timeout,
            tenants=args.tenants,
            trace=args.trace,
        )
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.output}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    print(
        f"chaos soak: {report['ops']} ops in "
        f"{report['duration_seconds']:.1f}s — availability "
        f"{report['availability'] * 100:.2f}%, "
        f"{report['deadline_misses']} deadline misses, "
        f"{report['byte_identity_failures']} byte-identity failures, "
        f"p99 {report['latency_under_faults']['p99_ms']:.1f}ms under faults",
        flush=True,
    )
    failed = []
    if report["availability"] < args.min_availability:
        failed.append(
            f"availability {report['availability'] * 100:.2f}% below the "
            f"--min-availability gate ({args.min_availability * 100:.2f}%)"
        )
    if report["byte_identity_failures"]:
        failed.append(
            f"{report['byte_identity_failures']} successful round trips "
            "returned bytes differing from the local reference"
        )
    if report["failures"]["untyped"]:
        failed.append(
            f"{report['failures']['untyped']} failures outside the typed "
            f"error taxonomy: {report['untyped_examples']}"
        )
    if args.tenants and not report["tenancy"]["byte_exact"]:
        failed.append(
            "per-tenant quota ledgers drifted from the metrics ledgers: "
            f"{report['tenancy']['mismatches']}"
        )
    if failed:
        for reason in failed:
            print(f"FAIL: {reason}", flush=True)
        return 1
    return 0


# ----------------------------------------------------------------------
# fcbench list
# ----------------------------------------------------------------------
def _list_json() -> str:
    import dataclasses
    import json

    from repro.api import available_codecs

    methods = []
    for name in default_methods():
        info = get_compressor(name).info
        record = dataclasses.asdict(info)
        record["precisions"] = sorted(record["precisions"])
        methods.append(record)
    datasets = [dataclasses.asdict(spec) for spec in CATALOG]
    for record in datasets:
        record["paper_extent"] = list(record["paper_extent"])
    return json.dumps(
        {
            "methods": methods,
            "datasets": datasets,
            "frame_codecs": available_codecs(),
        },
        indent=2,
        sort_keys=True,
    )


def _cmd_list(args: argparse.Namespace) -> int:
    if args.json:
        print(_list_json())
        return 0
    show_methods = args.methods or not args.datasets
    show_datasets = args.datasets or not args.methods
    if show_methods:
        rows = []
        for name in default_methods():
            info = get_compressor(name).info
            rows.append(
                [
                    name,
                    info.display_name,
                    str(info.year),
                    info.platform,
                    info.parallelism,
                    ",".join(sorted(info.precisions)),
                ]
            )
        print(
            format_table(
                ["method", "table label", "year", "platform", "parallelism", "prec"],
                rows,
            )
        )
    if show_datasets:
        if show_methods:
            print()
        rows = [
            [
                spec.name,
                spec.domain,
                spec.dtype,
                f"{spec.paper_bytes / 1e6:.0f}",
                "x".join(str(e) for e in spec.paper_extent),
            ]
            for spec in CATALOG
        ]
        print(
            format_table(
                ["dataset", "domain", "dtype", "paper MB", "paper extent"], rows
            )
        )
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_matrix_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--methods", help="comma-separated method names (default: all 14)"
    )
    parser.add_argument(
        "--datasets", help="comma-separated dataset names (default: all 33)"
    )
    parser.add_argument(
        "--target-elements",
        type=int,
        default=DEFAULT_TARGET_ELEMENTS,
        help="per-dataset element budget (default %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0, help="data generator seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes; 0 auto-detects os.cpu_count() "
        "(default: FCBENCH_JOBS env or 1 = serial)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcbench",
        description="FCBench reproduction: run, report, and cache the "
        "14-method x 33-dataset measurement matrix.",
    )
    from repro import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the measurement matrix")
    _add_matrix_args(p_run)
    p_run.add_argument(
        "--no-cache", action="store_true", help="ignore and do not write the cache"
    )
    p_run.add_argument(
        "--quiet", action="store_true", help="summary line only, no per-cell status"
    )
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="render a paper table from results")
    p_report.add_argument(
        "what",
        nargs="?",
        default="table4",
        choices=_REPORT_PRESETS,
        help="which table to render (default %(default)s)",
    )
    p_report.add_argument(
        "--metric",
        help="render an arbitrary Measurement field as a matrix instead "
        "(with --db: ratio, encode_mbs, or decode_mbs)",
    )
    p_report.add_argument(
        "--db",
        help="report from an experiment database (fcbench sweep) instead "
        "of re-running the suite: per-domain tables plus Friedman / "
        "Nemenyi / CD-diagram statistics",
    )
    p_report.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="with --db: machine-readable report to PATH (default stdout)",
    )
    p_report.add_argument(
        "--artifacts",
        metavar="DIR",
        help="with --db: write summary.json / cd_diagram.txt / report.txt "
        "under DIR",
    )
    p_report.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        help="significance level for the statistics (default %(default)s)",
    )
    _add_matrix_args(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_cache = sub.add_parser("cache", help="inspect or clear the per-cell cache")
    p_cache.add_argument(
        "action",
        nargs="?",
        default="inspect",
        choices=("inspect", "clear"),
    )
    p_cache.add_argument(
        "--stale",
        action="store_true",
        help="with clear: drop only version/fingerprint-stale entries "
        "and legacy suite blobs",
    )
    p_cache.set_defaults(func=_cmd_cache)

    p_bench = sub.add_parser(
        "bench",
        help="measure real encode/decode throughput, write BENCH_<sha>.json",
    )
    p_bench.add_argument(
        "--methods",
        help="comma-separated method names "
        "(default: the vectorized hot-path codecs)",
    )
    p_bench.add_argument(
        "--datasets",
        help="comma-separated dataset names (default: tpcH-order,"
        "num-brain,msg-bt)",
    )
    p_bench.add_argument(
        "--elements",
        type=int,
        default=1_000_000,
        help="elements per cell (default %(default)s)",
    )
    p_bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repetitions, best run wins (default %(default)s)",
    )
    p_bench.add_argument("--seed", type=int, default=0, help="data seed")
    p_bench.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip timing the scalar-oracle baselines",
    )
    p_bench.add_argument(
        "--no-guard",
        action="store_true",
        help="skip the small regression-guard cells",
    )
    p_bench.add_argument(
        "--auto",
        action="store_true",
        help="also measure the auto codec against the best fixed "
        "candidate on one dataset per domain",
    )
    p_bench.add_argument(
        "--service",
        action="store_true",
        help="also run the service load generator (self-hosted server, "
        "4 concurrent connections per codec) and record its latency "
        "percentiles in the snapshot",
    )
    p_bench.add_argument(
        "--resilience",
        action="store_true",
        help="also run the chaos soak (supervised cluster behind "
        "fault-injecting proxies, mid-run node kill) and record "
        "availability / shed / deadline-miss rates in the snapshot",
    )
    p_bench.add_argument(
        "--tenancy",
        action="store_true",
        help="also run the multi-tenant regime-shift workload (online "
        "selection bandit vs best fixed arm vs static heuristic, "
        "per-tenant accounting) and record it in the snapshot",
    )
    p_bench.add_argument(
        "--sweep-db",
        help="fold this experiment database's statistical summary "
        "(counts, Friedman, Nemenyi CD, ranking) into the snapshot",
    )
    p_bench.add_argument(
        "--output", help="write the snapshot to this path instead"
    )
    p_bench.add_argument(
        "--quiet", action="store_true", help="no per-cell status lines"
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_sweep = sub.add_parser(
        "sweep",
        help="resumable experiment sweeps over a shared sqlite database",
    )
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    def _sweep_db_arg(p):
        p.add_argument(
            "--db",
            default="experiments.sqlite",
            help="experiment database path (default %(default)s)",
        )

    s_init = sweep_sub.add_parser(
        "init",
        help="expand the grid into pending cells (idempotent)",
    )
    _sweep_db_arg(s_init)
    s_init.add_argument(
        "--codecs", help="comma-separated codec keyfield values"
    )
    s_init.add_argument(
        "--datasets", help="comma-separated dataset keyfield values"
    )
    s_init.add_argument(
        "--chunk-elements",
        help="comma-separated chunk sizes (0 = legacy whole-array cell)",
    )
    s_init.add_argument("--jobs", help="comma-separated jobs keyfield values")
    s_init.add_argument(
        "--policies",
        help="comma-separated selection policies for codec 'auto'",
    )
    s_init.add_argument("--seeds", help="comma-separated generator seeds")
    s_init.add_argument(
        "--target-elements",
        type=int,
        default=None,
        help="elements per dataset cell",
    )
    s_init.add_argument(
        "--corpus",
        help="external-corpus manifest JSON; datasets whose file is "
        "absent become 'skipped' cells instead of failing",
    )
    s_init.set_defaults(func=_cmd_sweep_init)

    s_run = sweep_sub.add_parser(
        "run", help="execute pending cells until the grid is quiescent"
    )
    _sweep_db_arg(s_run)
    s_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (default %(default)s); >1 spawns real OS "
        "processes so a killed worker cannot take the sweep down",
    )
    s_run.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="seconds between claim heartbeats (default %(default)s)",
    )
    s_run.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=10.0,
        help="seconds of heartbeat silence before a claim is reaped "
        "(default %(default)s)",
    )
    s_run.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="stop each worker after this many cells",
    )
    s_run.add_argument(
        "--quiet", action="store_true", help="summary line only"
    )
    s_run.set_defaults(func=_cmd_sweep_run)

    s_worker = sweep_sub.add_parser(
        "worker",
        help="single worker loop (internal; spawned by `sweep run`)",
    )
    _sweep_db_arg(s_worker)
    s_worker.add_argument("--owner", default=None, help="owner id override")
    s_worker.add_argument("--heartbeat-interval", type=float, default=1.0)
    s_worker.add_argument("--heartbeat-timeout", type=float, default=10.0)
    s_worker.add_argument("--max-cells", type=int, default=None)
    s_worker.add_argument(
        "--json",
        action="store_true",
        help="print the final summary as one JSON line",
    )
    s_worker.set_defaults(func=_cmd_sweep_worker)

    s_status = sweep_sub.add_parser(
        "status", help="cell counts, live claims, and failures"
    )
    _sweep_db_arg(s_status)
    s_status.add_argument("--json", action="store_true")
    s_status.set_defaults(func=_cmd_sweep_status)

    s_import = sweep_sub.add_parser(
        "import-cache",
        help="migrate the per-cell JSON cache into the database",
    )
    _sweep_db_arg(s_import)
    s_import.add_argument(
        "--cache-root",
        help="cache root to import (default: the active FCBENCH_CACHE_DIR)",
    )
    s_import.set_defaults(func=_cmd_sweep_import_cache)

    s_reset = sweep_sub.add_parser(
        "reset", help="flip terminal cells back to pending"
    )
    _sweep_db_arg(s_reset)
    s_reset.add_argument(
        "--statuses",
        default="failed",
        help="comma-separated statuses to reset (default %(default)s)",
    )
    s_reset.set_defaults(func=_cmd_sweep_reset)

    p_comp = sub.add_parser(
        "compress",
        help="compress a .npy array into a seekable .fcf frame stream",
    )
    p_comp.add_argument("input", help="source .npy file (float32/float64)")
    p_comp.add_argument("output", help="destination .fcf stream")
    p_comp.add_argument(
        "--codec",
        default="bitshuffle-zstd",
        help="frame codec: a registered method, 'none', or 'auto' for "
        "adaptive per-chunk selection (default %(default)s)",
    )
    _add_policy_args(p_comp)
    p_comp.add_argument(
        "--chunk-elements",
        type=int,
        default=1 << 16,
        help="elements per independently compressed chunk frame "
        "(default %(default)s)",
    )
    p_comp.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for chunk compression; 0 = all cores "
        "(output is byte-identical to serial)",
    )
    p_comp.add_argument("--quiet", action="store_true", help="no summary line")
    p_comp.set_defaults(func=_cmd_compress)

    p_dec = sub.add_parser(
        "decompress", help="restore a .fcf stream back to a .npy array"
    )
    p_dec.add_argument("input", help="source .fcf stream")
    p_dec.add_argument("output", help="destination .npy file")
    p_dec.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for chunk decoding; 0 = all cores",
    )
    p_dec.add_argument("--quiet", action="store_true", help="no summary line")
    p_dec.set_defaults(func=_cmd_decompress)

    p_ins = sub.add_parser(
        "inspect", help="print an .fcf stream's header and chunk index"
    )
    p_ins.add_argument("file", help=".fcf stream to inspect")
    p_ins.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_ins.set_defaults(func=_cmd_inspect)

    p_select = sub.add_parser(
        "select",
        help="codec selection: explain per-chunk choices, train the "
        "learned policy",
    )
    select_sub = p_select.add_subparsers(dest="select_command", required=True)
    p_explain = select_sub.add_parser(
        "explain",
        help="print per-chunk features and the chosen codec",
    )
    p_explain.add_argument(
        "input", help="a .npy file or a catalog dataset name"
    )
    _add_policy_args(p_explain)
    p_explain.add_argument(
        "--chunk-elements",
        type=int,
        default=1 << 16,
        help="selection granularity (default %(default)s)",
    )
    p_explain.add_argument(
        "--target-elements",
        type=int,
        default=DEFAULT_TARGET_ELEMENTS,
        help="element budget when input names a catalog dataset "
        "(default %(default)s)",
    )
    p_explain.add_argument(
        "--seed", type=int, default=0, help="dataset generator seed"
    )
    p_explain.add_argument(
        "--verbose", action="store_true", help="print per-chunk feature values"
    )
    p_explain.add_argument(
        "--json", action="store_true", help="machine-readable decisions"
    )
    p_explain.set_defaults(func=_cmd_select_explain)
    p_train = select_sub.add_parser(
        "train",
        help="fit the learned policy's feature->winner table from the "
        "suite cache",
    )
    p_train.add_argument(
        "--candidates",
        help="comma-separated methods the table may pick from "
        "(default: every cached method)",
    )
    p_train.add_argument(
        "--output",
        help="table path (default: select_table.json in the suite cache)",
    )
    p_train.set_defaults(func=_cmd_select_train)

    p_serve = sub.add_parser(
        "serve",
        help="run the network compression service (FCS protocol over TCP)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port; 0 picks an ephemeral port (default %(default)s)",
    )
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes per request batch; 0 = all cores "
        "(default: FCBENCH_JOBS env or 1)",
    )
    p_serve.add_argument(
        "--batch-max",
        type=int,
        default=16,
        help="most requests coalesced into one fan-out (default %(default)s)",
    )
    p_serve.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        help="seconds to wait for more pipelined requests before "
        "executing a batch; 0 disables (default %(default)s)",
    )
    p_serve.add_argument(
        "--grace",
        type=float,
        default=5.0,
        help="drain grace period on shutdown (default %(default)ss)",
    )
    p_serve.add_argument(
        "--max-queued-requests",
        type=int,
        default=256,
        help="admission gate: heavy requests admitted but not yet "
        "finished before shedding (default %(default)s)",
    )
    p_serve.add_argument(
        "--max-queued-bytes",
        type=int,
        default=1 << 28,
        help="admission gate: summed payload bytes admitted before "
        "shedding (default %(default)s)",
    )
    p_serve.add_argument(
        "--shed-retry-after-ms",
        type=int,
        default=50,
        help="backoff hint carried by shed responses (default %(default)s)",
    )
    p_serve.add_argument(
        "--metrics-json",
        help="write the final metrics snapshot to this path on shutdown",
    )
    p_serve.add_argument(
        "--node-id",
        default=None,
        help="this server's identity inside a cluster "
        "(default: host:port)",
    )
    p_serve.add_argument(
        "--topology-json",
        default=None,
        help="cluster topology file this node serves for "
        "cluster-topology requests (set by the cluster supervisor)",
    )
    p_serve.add_argument(
        "--tenants",
        default=None,
        help="tenant registry JSON (see 'fcbench tenant create'); "
        "enables token auth and per-tenant quotas",
    )
    p_serve.add_argument(
        "--gateway-port",
        type=int,
        default=None,
        help="also serve an HTTP observability gateway (/metrics, "
        "/healthz, /tenants) on this port; 0 picks an ephemeral port",
    )
    p_serve.add_argument(
        "--online-seed",
        type=int,
        default=0,
        help="seed for the online selection bandit's deterministic "
        "exploration (default %(default)s)",
    )
    p_serve.add_argument(
        "--trace",
        action="store_true",
        help="record distributed-tracing spans into an in-process ring "
        "buffer, served at /trace (gateway) and via 'fcbench trace'",
    )
    p_serve.add_argument(
        "--trace-capacity",
        type=int,
        default=4096,
        help="span ring-buffer capacity; oldest spans are dropped "
        "beyond this (default %(default)s)",
    )
    p_serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="log a structured 'slow request' line for heavy requests "
        "slower than this many milliseconds (default: off)",
    )
    p_serve.add_argument(
        "--quiet", action="store_true", help="address line only"
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser(
        "client", help="talk to a running compression service"
    )
    p_client.add_argument(
        "--host", default="127.0.0.1", help="server address (default %(default)s)"
    )
    p_client.add_argument(
        "--port", type=int, default=8765, help="server port (default %(default)s)"
    )
    p_client.add_argument(
        "--retries",
        type=int,
        default=1,
        help="re-dials after a transient disconnect (default %(default)s)",
    )
    p_client.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="overall per-operation deadline in seconds "
        "(default %(default)ss)",
    )
    p_client.add_argument(
        "--token",
        default=None,
        help="tenant auth token for multi-tenant servers",
    )
    client_sub = p_client.add_subparsers(dest="client_command", required=True)
    c_ping = client_sub.add_parser("ping", help="round-trip liveness probe")
    c_ping.set_defaults(func=_cmd_client)
    c_stats = client_sub.add_parser(
        "stats", help="print the server's metrics snapshot (JSON)"
    )
    c_stats.set_defaults(func=_cmd_client)
    c_comp = client_sub.add_parser(
        "compress",
        help="compress a .npy through the server into a .fcf stream "
        "(byte-identical to local compression)",
    )
    c_comp.add_argument("input", help="source .npy file (float32/float64)")
    c_comp.add_argument("output", help="destination .fcf stream")
    c_comp.add_argument(
        "--codec",
        default="bitshuffle-zstd",
        help="frame codec: a registered method, 'none', or 'auto' "
        "(default %(default)s)",
    )
    c_comp.add_argument(
        "--policy",
        default="heuristic",
        choices=("heuristic", "measured", "learned", "online"),
        help="selection policy for --codec auto; 'online' uses the "
        "server's per-tenant bandit (default %(default)s)",
    )
    c_comp.add_argument(
        "--chunk-elements",
        type=int,
        default=1 << 16,
        help="elements per chunk frame (default %(default)s)",
    )
    c_comp.add_argument("--quiet", action="store_true", help="no summary line")
    c_comp.set_defaults(func=_cmd_client)
    c_dec = client_sub.add_parser(
        "decompress",
        help="restore a .fcf stream to a .npy array through the server",
    )
    c_dec.add_argument("input", help="source .fcf stream")
    c_dec.add_argument("output", help="destination .npy file")
    c_dec.add_argument("--quiet", action="store_true", help="no summary line")
    c_dec.set_defaults(func=_cmd_client)

    p_trace = sub.add_parser(
        "trace",
        help="inspect the distributed-tracing span buffer of a running "
        "server (start it with 'fcbench serve --trace')",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    def _add_trace_args(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--host",
            default="127.0.0.1",
            help="server address (default %(default)s)",
        )
        sub_parser.add_argument(
            "--port",
            type=int,
            default=8765,
            help="server port (default %(default)s)",
        )
        sub_parser.add_argument(
            "--timeout",
            type=float,
            default=10.0,
            help="request timeout (default %(default)ss)",
        )

    tr_tail = trace_sub.add_parser(
        "tail", help="print the most recent span trees"
    )
    _add_trace_args(tr_tail)
    tr_tail.add_argument(
        "--limit",
        type=int,
        default=100,
        help="most recent spans to fetch (default %(default)s)",
    )
    tr_tail.add_argument(
        "--trace-id",
        default=None,
        help="only spans belonging to this trace id",
    )
    tr_tail.add_argument(
        "--json", action="store_true", help="raw span document"
    )
    tr_tail.set_defaults(func=_cmd_trace)
    tr_export = trace_sub.add_parser(
        "export", help="write recent spans as a chrome://tracing JSON file"
    )
    _add_trace_args(tr_export)
    tr_export.add_argument(
        "--limit",
        type=int,
        default=1000,
        help="most recent spans to export (default %(default)s)",
    )
    tr_export.add_argument(
        "--trace-id",
        default=None,
        help="only spans belonging to this trace id",
    )
    tr_export.add_argument(
        "--out",
        default="trace.json",
        help="output path (default %(default)s)",
    )
    tr_export.set_defaults(func=_cmd_trace)
    tr_stats = trace_sub.add_parser(
        "stats", help="print the server's span-recorder counters"
    )
    _add_trace_args(tr_stats)
    tr_stats.set_defaults(func=_cmd_trace)
    p_tenant = sub.add_parser(
        "tenant",
        help="manage the multi-tenant registry (tokens, quotas, stats)",
    )
    tenant_sub = p_tenant.add_subparsers(dest="tenant_command", required=True)
    t_create = tenant_sub.add_parser(
        "create", help="add a tenant to a registry file (prints its token)"
    )
    t_create.add_argument("tenant_id", help="tenant identity (stable id)")
    t_create.add_argument(
        "--file",
        default="tenants.json",
        help="registry file, created if absent (default %(default)s)",
    )
    t_create.add_argument(
        "--token",
        default=None,
        help="explicit auth token (default: generate a random one)",
    )
    t_create.add_argument(
        "--priority",
        type=int,
        default=0,
        help="batch-ordering priority; higher serves first "
        "(default %(default)s)",
    )
    t_create.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="payload-byte budget per window (default: unlimited)",
    )
    t_create.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="request budget per window (default: unlimited)",
    )
    t_create.add_argument(
        "--window",
        type=float,
        default=60.0,
        help="quota window in seconds (default %(default)s)",
    )
    t_create.set_defaults(func=_cmd_tenant)
    t_quota = tenant_sub.add_parser(
        "quota", help="change a tenant's quotas or priority in place"
    )
    t_quota.add_argument("tenant_id", help="tenant to update")
    t_quota.add_argument(
        "--file", default="tenants.json", help="registry file"
    )
    t_quota.add_argument("--priority", type=int, default=None)
    t_quota.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="payload-byte budget per window; -1 = unlimited",
    )
    t_quota.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="request budget per window; -1 = unlimited",
    )
    t_quota.add_argument(
        "--window", type=float, default=None, help="quota window seconds"
    )
    t_quota.set_defaults(func=_cmd_tenant)
    t_list = tenant_sub.add_parser(
        "list", help="print a registry file's tenants (tokens redacted)"
    )
    t_list.add_argument(
        "--file", default="tenants.json", help="registry file"
    )
    t_list.set_defaults(func=_cmd_tenant)
    t_stats = tenant_sub.add_parser(
        "stats",
        help="print a live server's per-tenant accounting "
        "(quota windows, serving counters, bandit arms)",
    )
    t_stats.add_argument(
        "--host", default="127.0.0.1", help="server address (default %(default)s)"
    )
    t_stats.add_argument(
        "--port", type=int, default=8765, help="server port (default %(default)s)"
    )
    t_stats.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="overall deadline in seconds (default %(default)ss)",
    )
    t_stats.set_defaults(func=_cmd_tenant)

    p_cluster = sub.add_parser(
        "cluster",
        help="run and operate a sharded multi-node compression cluster",
    )
    cluster_sub = p_cluster.add_subparsers(dest="cluster_command", required=True)
    cl_serve = cluster_sub.add_parser(
        "serve",
        help="spawn N compression nodes under a health-checking "
        "supervisor (consistent-hash sharding, replica failover)",
    )
    cl_serve.add_argument(
        "--nodes",
        type=int,
        default=3,
        help="node processes to spawn (default %(default)s)",
    )
    cl_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    cl_serve.add_argument(
        "--replication",
        type=int,
        default=2,
        help="replica-set size per stream; ≥2 survives a node loss "
        "(default %(default)s)",
    )
    cl_serve.add_argument(
        "--vnodes",
        type=int,
        default=128,
        help="virtual nodes per physical node on the hash ring "
        "(default %(default)s)",
    )
    cl_serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes per node request batch (default: serial)",
    )
    cl_serve.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        help="per-node pipelining batch window in seconds "
        "(default %(default)s)",
    )
    cl_serve.add_argument(
        "--control-port",
        type=int,
        default=0,
        help="supervisor control port; 0 picks an ephemeral port "
        "(default %(default)s)",
    )
    cl_serve.add_argument(
        "--health-interval",
        type=float,
        default=0.25,
        help="seconds between node health sweeps (default %(default)s)",
    )
    cl_serve.add_argument(
        "--no-restart",
        action="store_true",
        help="do not respawn nodes whose process died",
    )
    cl_serve.add_argument(
        "--grace",
        type=float,
        default=3.0,
        help="drain grace before SIGKILL on node shutdown "
        "(default %(default)ss)",
    )
    cl_serve.add_argument(
        "--state-dir",
        default=None,
        help="directory for the state file, topology file, and node "
        "logs (default: a fresh temp directory)",
    )
    cl_serve.add_argument(
        "--tenants",
        default=None,
        help="tenant registry JSON forwarded to every node "
        "(see 'fcbench tenant create')",
    )
    cl_serve.add_argument(
        "--trace",
        action="store_true",
        help="start every node with distributed tracing enabled; "
        "aggregate with 'fcbench cluster trace'",
    )
    cl_serve.add_argument(
        "--quiet", action="store_true", help="address lines only"
    )
    cl_serve.set_defaults(func=_cmd_cluster_serve)

    def _add_control_args(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--host",
            default="127.0.0.1",
            help="supervisor control address (default %(default)s)",
        )
        sub_parser.add_argument(
            "--port",
            type=int,
            default=None,
            help="supervisor control port (default: read from --state)",
        )
        sub_parser.add_argument(
            "--state",
            default=None,
            help="cluster state file written by `fcbench cluster serve` "
            "(default ./cluster.json when --port is omitted)",
        )
        sub_parser.add_argument(
            "--timeout",
            type=float,
            default=10.0,
            help="control request timeout (default %(default)ss)",
        )

    cl_status = cluster_sub.add_parser(
        "status", help="print node states, pids, and restart counts"
    )
    _add_control_args(cl_status)
    cl_status.add_argument(
        "--json", action="store_true", help="machine-readable status"
    )
    cl_status.set_defaults(func=_cmd_cluster_status)
    cl_drain = cluster_sub.add_parser(
        "drain",
        help="gracefully stop one node and keep it stopped "
        "(replicas absorb its traffic)",
    )
    cl_drain.add_argument("node", help="node id to drain (e.g. node-1)")
    _add_control_args(cl_drain)
    cl_drain.set_defaults(func=_cmd_cluster_drain)
    cl_trace = cluster_sub.add_parser(
        "trace",
        help="merge recent spans from every node into one cluster-wide "
        "trace view (nodes must be started with --trace)",
    )
    _add_control_args(cl_trace)
    cl_trace.add_argument(
        "--limit",
        type=int,
        default=200,
        help="most recent spans fetched per node (default %(default)s)",
    )
    cl_trace.add_argument(
        "--trace-id",
        default=None,
        help="only spans belonging to this trace id",
    )
    cl_trace.add_argument(
        "--json", action="store_true", help="raw merged document"
    )
    cl_trace.add_argument(
        "--export",
        default=None,
        metavar="PATH",
        help="write a chrome://tracing JSON file instead of printing",
    )
    cl_trace.set_defaults(func=_cmd_cluster_trace)

    p_chaos = sub.add_parser(
        "chaos",
        help="soak a supervised cluster behind fault-injecting proxies "
        "and report availability, shed and deadline-miss rates",
    )
    p_chaos.add_argument(
        "--nodes", type=int, default=3,
        help="cluster size (default %(default)s)",
    )
    p_chaos.add_argument(
        "--replication", type=int, default=2,
        help="replicas per shard (default %(default)s)",
    )
    p_chaos.add_argument(
        "--connections", type=int, default=4,
        help="concurrent workers (default %(default)s)",
    )
    p_chaos.add_argument(
        "--seconds", type=float, default=6.0,
        help="soak duration (default %(default)s)",
    )
    p_chaos.add_argument(
        "--elements", type=int, default=2048,
        help="elements per request (default %(default)s)",
    )
    p_chaos.add_argument(
        "--chunk-elements", type=int, default=1024,
        help="chunk size (default %(default)s)",
    )
    p_chaos.add_argument(
        "--codec", default="gorilla",
        help="codec under test (default %(default)s)",
    )
    p_chaos.add_argument(
        "--dataset", default="tpcH-order",
        help="dataset slice (default %(default)s)",
    )
    p_chaos.add_argument("--seed", type=int, default=0, help="plan/data seed")
    p_chaos.add_argument(
        "--plan",
        help="JSON fault-plan file (default: the built-in mild mixed plan)",
    )
    p_chaos.add_argument(
        "--kill", default="auto", metavar="NODE",
        help="SIGKILL this node id mid-run ('auto' picks one; "
        "default %(default)s)",
    )
    p_chaos.add_argument(
        "--no-kill", action="store_true",
        help="skip the mid-run node kill",
    )
    p_chaos.add_argument(
        "--drain", metavar="NODE",
        help="gracefully drain this node id mid-run ('auto' picks one)",
    )
    p_chaos.add_argument(
        "--op-deadline", type=float, default=8.0,
        help="per-operation deadline budget, seconds (default %(default)s)",
    )
    p_chaos.add_argument(
        "--attempt-timeout", type=float, default=2.0,
        help="per-node attempt timeout, seconds (default %(default)s)",
    )
    p_chaos.add_argument(
        "--tenants", action="store_true",
        help="run the soak multi-tenant (token auth on every node) and "
        "audit per-node quota ledgers for byte-exactness afterwards",
    )
    p_chaos.add_argument(
        "--trace", action="store_true",
        help="trace every node and report whether span recording "
        "survived the mid-run kill",
    )
    p_chaos.add_argument(
        "--min-availability", type=float, default=0.99,
        help="exit non-zero below this availability (default %(default)s)",
    )
    p_chaos.add_argument(
        "--output", help="write the JSON report here instead of stdout"
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_list = sub.add_parser("list", help="enumerate methods and datasets")
    p_list.add_argument("--methods", action="store_true", help="methods only")
    p_list.add_argument("--datasets", action="store_true", help="datasets only")
    p_list.add_argument(
        "--json",
        action="store_true",
        help="machine-readable registry dump: methods with MethodInfo "
        "fields, datasets, available frame codecs",
    )
    p_list.set_defaults(func=_cmd_list)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:  # argparse errors or our own messages
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return exc.code if exc.code is not None else 0
    except BrokenPipeError:  # e.g. `fcbench list | head`
        return 0
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
