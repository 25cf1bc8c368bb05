"""Per-cell incremental cache for suite runs.

The old suite cache stored one monolithic JSON blob per configuration,
so editing a single compressor invalidated — and re-ran — all ~462
(method, dataset) cells.  This module caches each cell individually,
keyed by everything that can change its measurement:

* the global :data:`CACHE_VERSION` (bumped for harness-wide changes),
* the method name and its *source fingerprint* (a hash of the module
  that defines the compressor, so editing ``chimp.py`` invalidates only
  the Chimp column),
* the dataset name, element budget, and generator seed,
* the runner fingerprint (performance-model hardware specs plus the
  verify/paper-limit switches).

Cell files live under ``<cache root>/cells/<method>/`` and are plain
JSON: a metadata header (the key fields, for inspection and staleness
checks) plus the serialized measurement.  ``fcbench cache`` renders the
same information from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.compressors.base import method_fingerprint, stable_repr
from repro.core.results import Measurement

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "CellCache",
    "CacheScan",
    "cache_dir",
    "clear_cache",
    "iter_cell_payloads",
    "runner_fingerprint",
    "scan_cache",
    "read_last_run",
    "write_last_run",
]

#: Bump to invalidate every cached cell at once (format or harness
#: changes that per-method fingerprints cannot see).
CACHE_VERSION = "v14"

_LAST_RUN_FILE = "last_run.json"


def cache_dir() -> Path:
    """Root directory for benchmark caches (override with FCBENCH_CACHE_DIR)."""
    root = os.environ.get("FCBENCH_CACHE_DIR")
    path = (
        Path(root) if root
        else Path(__file__).resolve().parents[3] / ".fcbench_cache"
    )
    path.mkdir(parents=True, exist_ok=True)
    return path


def runner_fingerprint(runner) -> str:
    """Digest of everything about a runner that can change measurements.

    Covers the runner type, the performance-model hardware specs, and
    the verification / paper-limit policies.  Hardware specs are frozen
    dataclasses, so ``repr`` is a complete, stable description.
    """
    payload = "|".join(
        [
            type(runner).__qualname__,
            stable_repr(runner.perf.cpu),
            stable_repr(runner.perf.gpu),
            str(runner.verify),
            str(runner.paper_limits),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class CacheStats:
    """Hit/miss/store accounting for one suite run."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": round(self.hit_rate, 4),
        }


class CellCache:
    """On-disk cache of individual (method, dataset) measurements."""

    def __init__(self, root: Path | None = None, runner=None) -> None:
        self.root = Path(root) if root is not None else cache_dir()
        self.runner_fp = runner_fingerprint(runner) if runner is not None else ""
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def key(self, task) -> str:
        """Content digest of one cell; any input change yields a new key."""
        digest = hashlib.sha256(
            "|".join(
                [
                    CACHE_VERSION,
                    task.method,
                    task.dataset,
                    str(task.target_elements),
                    str(task.seed),
                    method_fingerprint(task.method),
                    self.runner_fp,
                ]
            ).encode()
        ).hexdigest()[:20]
        return digest

    def path(self, task) -> Path:
        cell = f"{task.dataset}_{self.key(task)}.json"
        return self.root / "cells" / task.method / cell

    # ------------------------------------------------------------------
    # Lookup and store
    # ------------------------------------------------------------------
    def get(self, task) -> Measurement | None:
        """Return the cached measurement for ``task``, or None on a miss."""
        path = self.path(task)
        try:
            payload = json.loads(path.read_text())
            measurement = Measurement(**payload["measurement"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            # Missing, concurrently-deleted, corrupt, or schema-drifted
            # files are all just misses: the cell re-runs.
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return measurement

    def put(self, task, measurement: Measurement) -> None:
        """Persist one cell with its full key metadata."""
        path = self.path(task)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "cache_version": CACHE_VERSION,
            "method": task.method,
            "dataset": task.dataset,
            "target_elements": task.target_elements,
            "seed": task.seed,
            "method_fingerprint": method_fingerprint(task.method),
            "runner_fingerprint": self.runner_fp,
            "measurement": asdict(measurement),
        }
        path.write_text(json.dumps(payload))
        self.stats.stores += 1


# ----------------------------------------------------------------------
# Inspection and clearing (the `fcbench cache` surface)
# ----------------------------------------------------------------------
@dataclass
class CellEntry:
    """One cached cell file as seen by ``scan_cache``."""

    path: Path
    method: str
    dataset: str
    cache_version: str
    stale: bool
    size_bytes: int


@dataclass
class CacheScan:
    """Everything under the cache root, classified."""

    root: Path
    entries: list[CellEntry] = field(default_factory=list)
    legacy_blobs: list[Path] = field(default_factory=list)

    @property
    def stale_entries(self) -> list[CellEntry]:
        return [e for e in self.entries if e.stale]

    @property
    def total_bytes(self) -> int:
        return sum(e.size_bytes for e in self.entries) + sum(
            p.stat().st_size for p in self.legacy_blobs if p.exists()
        )

    def per_method(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.method] = counts.get(entry.method, 0) + 1
        return dict(sorted(counts.items()))


def _entry_is_stale(payload: dict) -> bool:
    """A cell is stale when its version or method fingerprint moved on."""
    if payload.get("cache_version") != CACHE_VERSION:
        return True
    method = payload.get("method", "")
    try:
        current = method_fingerprint(method)
    except KeyError:  # method no longer registered
        return True
    return payload.get("method_fingerprint") != current


def scan_cache(root: Path | None = None) -> CacheScan:
    """Classify every file under the cache root without touching any."""
    root = Path(root) if root is not None else cache_dir()
    scan = CacheScan(root=root)
    # Pre-executor suite blobs are always stale: the format is retired.
    scan.legacy_blobs = sorted(root.glob("suite_*.json"))
    for path in sorted(root.glob("cells/*/*.json")):
        try:
            payload = json.loads(path.read_text())
            stale = _entry_is_stale(payload)
        except (json.JSONDecodeError, OSError):
            payload = {}
            stale = True
        scan.entries.append(
            CellEntry(
                path=path,
                method=payload.get("method", path.parent.name),
                dataset=payload.get("dataset", path.stem.rsplit("_", 1)[0]),
                cache_version=payload.get("cache_version", "?"),
                stale=stale,
                size_bytes=path.stat().st_size,
            )
        )
    return scan


def iter_cell_payloads(root: Path | None = None, fresh_only: bool = True):
    """Yield ``(entry, payload)`` for readable cached cells.

    The experiment-database importer (``fcbench sweep import-cache``)
    consumes this: each payload carries the full cell key (method,
    dataset, target_elements, seed) plus the serialized measurement,
    which is everything a ``cells`` row needs.  Stale entries are
    skipped by default — their fingerprints no longer match the code
    that would re-run them, so importing them would freeze outdated
    numbers into the database.
    """
    scan = scan_cache(root)
    for entry in scan.entries:
        if fresh_only and entry.stale:
            continue
        try:
            payload = json.loads(entry.path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if "measurement" not in payload:
            continue
        yield entry, payload


def clear_cache(root: Path | None = None, stale_only: bool = False) -> dict:
    """Delete cached cells (all, or only stale) plus legacy suite blobs.

    Legacy ``suite_*.json`` blobs from the monolithic-cache era are
    removed in both modes — their format is no longer readable.  Returns
    counts for reporting: ``{"removed_cells", "removed_legacy", "kept"}``.
    """
    scan = scan_cache(root)
    removed_cells = 0
    kept = 0
    for entry in scan.entries:
        if stale_only and not entry.stale:
            kept += 1
            continue
        entry.path.unlink(missing_ok=True)
        removed_cells += 1
    removed_legacy = 0
    for blob in scan.legacy_blobs:
        blob.unlink(missing_ok=True)
        removed_legacy += 1
    if not stale_only:
        (scan.root / _LAST_RUN_FILE).unlink(missing_ok=True)
    return {
        "removed_cells": removed_cells,
        "removed_legacy": removed_legacy,
        "kept": kept,
    }


def write_last_run(stats: CacheStats, root: Path | None = None, **extra) -> None:
    """Persist the hit/miss counters of the most recent suite run."""
    root = Path(root) if root is not None else cache_dir()
    payload = {"timestamp": time.time(), **stats.as_dict(), **extra}
    (root / _LAST_RUN_FILE).write_text(json.dumps(payload, indent=2))


def read_last_run(root: Path | None = None) -> dict | None:
    """Counters written by the most recent suite run, or None."""
    root = Path(root) if root is not None else cache_dir()
    path = root / _LAST_RUN_FILE
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None
