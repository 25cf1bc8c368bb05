"""Benchmark execution: compress, verify, measure, model.

The runner reproduces the paper's measurement protocol (section 5.2):
compression ratio comes from the *actual* compressed stream; timing
figures come from the calibrated performance model evaluated at the
dataset's paper-scale size, with instrumentation placed "before and
after the compression function" — i.e. kernel time for throughput,
kernel + transfers for end-to-end wall time.

Paper-faithful policies implemented here:

* every method is called through the same payload codec the FCF
  sessions use (:func:`repro.api.frames.encode_payload`), with the
  dataset in its logical shape, so CR is the dataset's bytes over the
  codec's own output;
* double-only methods (pFPC, GFC) receive float32 datasets as their raw
  byte stream, pairs of values read as one 64-bit word, so CR is still
  measured against the original bytes;
* GFC skips datasets whose *paper-scale* size exceeds its 512 MB input
  limit — these become the "-" cells of Table 4;
* every stream is verified to round-trip bit-exactly before a
  measurement is recorded.

Usage — run one cell and inspect the measurement:

    >>> from repro.core.runner import BenchmarkRunner
    >>> from repro.data.catalog import get_spec
    >>> from repro.data.loader import load
    >>> runner = BenchmarkRunner()
    >>> cell = runner.run_cell("gorilla", load("citytemp", 512), get_spec("citytemp"))
    >>> cell.ok
    True
    >>> cell.compression_ratio > 0.5
    True

A runner can stream per-cell progress through an ``on_result`` callback
(the CLI uses this to print live status); the callback is dropped when
a runner is pickled to pool workers, so parallel callers should use the
executor's parent-side ``on_result`` hook instead.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.api.frames import decode_payload, encode_payload
from repro.compressors import get_compressor
from repro.compressors.base import Compressor
from repro.core.results import Measurement
from repro.data.catalog import DatasetSpec
from repro.errors import ReproError
from repro.perf.timing import PerformanceModel

__all__ = ["BenchmarkRunner", "verify_roundtrip"]


def verify_roundtrip(original: np.ndarray, restored: np.ndarray) -> bool:
    """Bit-exact comparison, NaN payloads included."""
    if original.shape != restored.shape or original.dtype != restored.dtype:
        return False
    uint = np.uint32 if original.dtype == np.float32 else np.uint64
    return bool(np.array_equal(original.view(uint), restored.view(uint)))


class BenchmarkRunner:
    """Runs (method, dataset) cells and produces :class:`Measurement` rows."""

    def __init__(
        self,
        perf: PerformanceModel | None = None,
        verify: bool = True,
        paper_limits: bool = True,
        on_result: Callable[[Measurement, float], None] | None = None,
    ) -> None:
        self.perf = perf or PerformanceModel()
        self.verify = verify
        self.paper_limits = paper_limits
        #: Fired after every cell as ``on_result(measurement, elapsed_s)``.
        self.on_result = on_result

    def __getstate__(self) -> dict:
        # Callbacks are process-local (often closures over live objects);
        # drop them so runners can ship to ProcessPoolExecutor workers.
        state = self.__dict__.copy()
        state["on_result"] = None
        return state

    def run_cell(
        self,
        method: str,
        array: np.ndarray,
        spec: DatasetSpec,
    ) -> Measurement:
        """Evaluate one method on one dataset (fires ``on_result``)."""
        start = time.perf_counter()
        measurement = self._run_cell(method, array, spec)
        if self.on_result is not None:
            self.on_result(measurement, time.perf_counter() - start)
        return measurement

    def _run_cell(
        self,
        method: str,
        array: np.ndarray,
        spec: DatasetSpec,
    ) -> Measurement:
        compressor = get_compressor(method)
        skip = self._paper_scale_skip(compressor, spec)
        if skip:
            return Measurement(
                method=method,
                dataset=spec.name,
                domain=spec.domain,
                precision="D" if spec.dtype == "f64" else "S",
                ok=False,
                error=skip,
            )

        # Precision of the data as compressed: double-only methods see
        # float32 datasets as 64-bit words.
        supported = compressor.info.supports_dtype(array.dtype)
        precision = "S" if array.dtype == np.float32 and supported else "D"
        try:
            t0 = time.perf_counter()
            payload = encode_payload(compressor, array)
            t1 = time.perf_counter()
            restored = decode_payload(compressor, payload, array.shape, array.dtype)
            t2 = time.perf_counter()
        except ReproError as exc:
            return Measurement(
                method=method,
                dataset=spec.name,
                domain=spec.domain,
                precision=precision,
                ok=False,
                error=f"{type(exc).__name__}: {exc}",
            )
        if self.verify and not verify_roundtrip(array, restored):
            return Measurement(
                method=method,
                dataset=spec.name,
                domain=spec.domain,
                precision=precision,
                ok=False,
                error="roundtrip verification failed",
            )

        ratio = array.nbytes / len(payload)
        # Model timing at the dataset's paper-scale size so wall times are
        # comparable with the published tables.
        scale = spec.paper_bytes / max(array.nbytes, 1)
        paper_input = int(array.nbytes * scale)
        paper_output = int(len(payload) * scale)
        cost = compressor.cost
        ct = self.perf.throughput_gbs(cost, paper_input, "compress")
        dt = self.perf.throughput_gbs(cost, paper_input, "decompress")
        wall_c = self.perf.end_to_end_seconds(
            cost, paper_input, paper_output, "compress"
        )
        wall_d = self.perf.end_to_end_seconds(
            cost, paper_input, paper_output, "decompress"
        )
        return Measurement(
            method=method,
            dataset=spec.name,
            domain=spec.domain,
            precision=precision,
            ok=True,
            input_bytes=array.nbytes,
            compressed_bytes=len(payload),
            compression_ratio=ratio,
            compress_gbs=ct,
            decompress_gbs=dt,
            compress_wall_ms=wall_c * 1e3,
            decompress_wall_ms=wall_d * 1e3,
            measured_compress_s=t1 - t0,
            measured_decompress_s=t2 - t1,
            memory_footprint_bytes=self.perf.memory_footprint_bytes(
                cost, paper_input
            ),
        )

    def _paper_scale_skip(
        self, compressor: Compressor, spec: DatasetSpec
    ) -> str:
        """Reason string when the paper-scale dataset breaks a hard limit."""
        if not self.paper_limits:
            return ""
        limit = compressor.max_input_bytes
        if limit is None:
            return ""
        # Table 4's "-" cells follow the on-disk paper size: every dataset
        # above 512 MB is absent from GFC's column, 512 MB exactly is not.
        if spec.paper_bytes > limit:
            return (
                f"paper-scale input of {spec.paper_bytes} bytes exceeds the "
                f"{limit}-byte limit"
            )
        return ""
