"""Full-suite orchestration: parallel execution + per-cell caching.

Running all 14 table methods over all 33 datasets is ~462 independent
(method, dataset) cells.  ``run_suite`` fans them out over the
:mod:`~repro.core.executor` process pool and caches each cell
individually through :mod:`~repro.core.cache`, so

* multi-core hardware cuts a cold run roughly by the worker count, and
* editing one compressor re-runs only that method's column — every
  other cell is a cache hit.

Dzip is excluded from the default method list exactly as the paper
excludes it from the headline tables (section 4.5).

Usage — run a 2x2 slice of the matrix, then hit the cache:

    >>> import tempfile, os
    >>> os.environ["FCBENCH_CACHE_DIR"] = tempfile.mkdtemp()
    >>> from repro.core.suite import run_suite, run_suite_detailed
    >>> results = run_suite(methods=["gorilla", "chimp"],
    ...                     datasets=["citytemp", "gas-price"],
    ...                     target_elements=1024)
    >>> len(results)
    4
    >>> rerun = run_suite_detailed(methods=["gorilla", "chimp"],
    ...                            datasets=["citytemp", "gas-price"],
    ...                            target_elements=1024)
    >>> (rerun.cache_stats.hits, rerun.cache_stats.misses)
    (4, 0)
    >>> rerun.results.fingerprint() == results.fingerprint()
    True

Parallelism is opt-in: pass ``jobs=N`` (or set ``FCBENCH_JOBS``) and
the same call returns a result set whose ``fingerprint()`` is identical
to the serial run's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.compressors import paper_table_order
from repro.core.cache import (
    CacheStats,
    CellCache,
    cache_dir,
    write_last_run,
)
from repro.core.executor import CellCallback, CellTask, execute_cells, resolve_jobs
from repro.core.results import Measurement, ResultSet
from repro.core.runner import BenchmarkRunner
from repro.data.catalog import CATALOG
from repro.data.loader import DEFAULT_TARGET_ELEMENTS

__all__ = [
    "SuiteRun",
    "run_suite",
    "run_suite_detailed",
    "default_methods",
    "default_datasets",
    "cache_dir",
]

def default_methods() -> list[str]:
    """The 14 table methods in the paper's column order (no Dzip)."""
    return paper_table_order()


def default_datasets() -> list[str]:
    """All 33 Table 3 datasets in catalog order."""
    return [spec.name for spec in CATALOG]


@dataclass
class SuiteRun:
    """A suite's results plus the execution/caching bookkeeping."""

    results: ResultSet
    cache_stats: CacheStats
    elapsed_seconds: float
    jobs: int


def run_suite(
    methods: list[str] | None = None,
    datasets: list[str] | None = None,
    target_elements: int = DEFAULT_TARGET_ELEMENTS,
    seed: int = 0,
    use_cache: bool = True,
    runner: BenchmarkRunner | None = None,
    progress: bool = False,
    jobs: int | None = None,
    on_cell: CellCallback | None = None,
) -> ResultSet:
    """Evaluate ``methods`` x ``datasets`` and return the result matrix.

    Cells are cached individually on disk; pass ``use_cache=False`` (or
    a custom ``runner``) to force re-execution.  ``jobs`` selects the
    process-pool width (``FCBENCH_JOBS`` overrides, default serial);
    ``on_cell(task, measurement, elapsed_s)`` streams per-cell status.
    """
    return run_suite_detailed(
        methods=methods,
        datasets=datasets,
        target_elements=target_elements,
        seed=seed,
        use_cache=use_cache,
        runner=runner,
        progress=progress,
        jobs=jobs,
        on_cell=on_cell,
    ).results


def run_suite_detailed(
    methods: list[str] | None = None,
    datasets: list[str] | None = None,
    target_elements: int = DEFAULT_TARGET_ELEMENTS,
    seed: int = 0,
    use_cache: bool = True,
    runner: BenchmarkRunner | None = None,
    progress: bool = False,
    jobs: int | None = None,
    on_cell: CellCallback | None = None,
) -> SuiteRun:
    """Like :func:`run_suite` but also returns cache/timing bookkeeping."""
    methods = methods or default_methods()
    datasets = datasets or default_datasets()
    jobs = resolve_jobs(jobs)
    default_runner = runner is None
    runner = runner or BenchmarkRunner()
    # Custom runners measure under non-default policies; never let those
    # results shadow (or be shadowed by) the standard cache entries.
    cache = CellCache(runner=runner) if use_cache and default_runner else None

    def emit(task: CellTask, measurement: Measurement, elapsed: float,
             cached: bool = False) -> None:
        if progress:
            status = (
                f"CR={measurement.compression_ratio:.3f}"
                if measurement.ok
                else f"skip ({measurement.error})"
            )
            suffix = " (cached)" if cached else ""
            print(f"  {task.dataset:16s} {task.method:16s} {status}{suffix}",
                  flush=True)
        if on_cell is not None:
            on_cell(task, measurement, elapsed)

    start = time.perf_counter()
    tasks = [
        CellTask(method, dataset, target_elements, seed)
        for dataset in datasets
        for method in methods
    ]
    slots: list[Measurement | None] = [None] * len(tasks)
    pending: list[tuple[int, CellTask]] = []
    for index, task in enumerate(tasks):
        hit = cache.get(task) if cache is not None else None
        if hit is not None:
            slots[index] = hit
            emit(task, hit, 0.0, cached=True)
        else:
            pending.append((index, task))

    if pending:
        executed = execute_cells(
            [task for _, task in pending],
            runner=runner,
            jobs=jobs,
            on_result=emit,
        )
        for (index, task), measurement in zip(pending, executed):
            slots[index] = measurement
            # Never persist transient (crash-synthesized) failures: a
            # cached MemoryError would replay forever.  Deterministic
            # policy failures (skips, roundtrip mismatches) do cache.
            if cache is not None and not measurement.transient:
                cache.put(task, measurement)

    results = ResultSet([m for m in slots if m is not None])
    elapsed = time.perf_counter() - start
    stats = cache.stats if cache is not None else CacheStats()
    if cache is not None:
        write_last_run(
            stats,
            root=cache.root,
            cells=len(tasks),
            methods=len(methods),
            datasets=len(datasets),
            jobs=jobs,
            elapsed_seconds=round(elapsed, 3),
        )
    return SuiteRun(
        results=results, cache_stats=stats, elapsed_seconds=elapsed, jobs=jobs
    )
