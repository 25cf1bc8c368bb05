"""Shared pieces of the benchmark: inputs, statistics, the correctness
gate, the run context and the server subprocess.

Everything here talks to the program through its public surface
(``repro.compress_array``/``decompress_array``, ``repro.connect``,
``repro.data.load``) or through ``python -m repro.cli serve``.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
#: The CPUs this process could run on when it started.  Spawned servers
#: keep this mask even after the load generator pins itself to one CPU.
INHERITED_CPUS = frozenset(os.sched_getaffinity(0))
#: Scratch space for tenant files and run records; listed in .gitignore.
OUT_DIR = ROOT / ".perfbench_out"

#: The serving chunk: every request and every codec-matrix cell holds
#: one chunk of this many elements.
CHUNK = 4096
MB = 1e6

#: The codecs whose vectorised payloads must equal their scalar oracle.
ORACLE_CODECS = ("gorilla", "chimp", "fpzip", "ndzip-cpu")
#: serve-light's request mix: codecs that take at most ~0.5 ms of a
#: served round trip, on one DB and one TS dataset.
LIGHT_CODECS = ("mpc", "ndzip-cpu", "buff")
LIGHT_DATASETS = ("tpcH-order", "citytemp")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def dataset_seeds(seed: int, tag: str, count: int) -> list[int]:
    """``count`` dataset seeds for the input family ``tag``, from ``seed``."""
    mix = sum(ord(c) * 131 ** i for i, c in enumerate(tag)) % (1 << 31)
    rng = np.random.default_rng([seed, mix])
    return [int(s) for s in rng.integers(1, 1 << 31, size=count)]


def make_arrays(seed: int, datasets, per_dataset: int) -> list[tuple[str, np.ndarray]]:
    """``per_dataset`` distinct 4Ki-element arrays of each dataset."""
    from repro.data import load

    arrays = []
    for name in datasets:
        for s in dataset_seeds(seed, name, per_dataset):
            arrays.append((name, np.ascontiguousarray(load(name, CHUNK, s))))
    return arrays


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (0..1).

    A Beta-weighted average of every order statistic.  Unlike a plain
    percentile it does not jump between neighbours when a small set of
    unlike values (one per codec-matrix cell) reorders.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 64 * n + 1)[1:-1]
    log_pdf = (
        (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    )
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf)), [0.0]])
    cdf /= cdf[-2]
    cdf[-1] = 1.0
    edges = cdf[np.arange(n + 1) * 64]
    return float(np.dot(np.diff(edges), x))


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
# The host's speed changes from second to second with what else runs on
# it, and whole runs take its typical speed with them.  A workload times
# a fixed reference kernel between its calls and scales each call's time
# by REFERENCE_S over the kernel's time around the call, so that the
# scaled times read as the host's speed when the kernel takes REFERENCE_S.

#: The reference kernel's seconds at the reference host speed: about its
#: fastest on the 2-vCPU guest the benchmark was defined on, with
#: Python 3.11 and numpy 2.4.
REFERENCE_S = 1.0e-3
#: codec-matrix reads the kernel before a round trip when its last
#: reading is older than this, and after any encode or decode that took
#: longer; serve-mixed reads it this often on a thread of its own.
REFERENCE_EVERY_S = 0.1
_REFERENCE_WORDS = (np.arange(CHUNK, dtype=np.float64) * 1.000001).view(np.uint64)


def reference_s() -> float:
    """Seconds of one fixed kernel that calls no code of the program.

    It mixes the two kinds of work the codecs do: numpy bit operations
    and a sort over one chunk, and an interpreted loop of dict updates.
    """
    start = time.perf_counter()
    for _ in range(8):
        xor = np.bitwise_xor(_REFERENCE_WORDS[1:], _REFERENCE_WORDS[:-1])
        np.cumsum(np.sort(xor) & 0xFF)
        counts = {}
        for v in range(1024):
            key = v & 127
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


class HostClock:
    """Readings of the reference kernel, each with the time it ended."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []

    def read(self) -> None:
        self.seconds.append(reference_s())
        self.at.append(time.perf_counter())

    def read_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] > REFERENCE_EVERY_S:
            self.read()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median of the readings from the two
        before ``start`` to the two after ``end``: one reading alone is
        as noisy as any short timing."""
        before = bisect.bisect_right(self.at, start)
        after = bisect.bisect_left(self.at, end)
        return REFERENCE_S / median(self.seconds[max(0, before - 2):after + 2])

    @contextlib.contextmanager
    def sampling(self):
        """Read every ``REFERENCE_EVERY_S`` on a thread of its own, for
        load that waits on another process while its time is measured."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.is_set():
                self.read()
                stop.wait(REFERENCE_EVERY_S)

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()


def reference_context(readings) -> dict:
    """The reference kernel's readings in a run, for the run context: a
    program that left work running between calls would slow them."""
    low, mid, high = quartiles(readings)
    return {"reference_ms": {"readings": len(readings), "q1": low * 1e3,
                             "median": mid * 1e3, "q3": high * 1e3}}


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
class Gate:
    """Counts attempted and failed operations, from any thread.

    A failed check is a failed operation; a run with any failure exits
    non-zero and prints no metric.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._lock = threading.Lock()

    def op(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)

    def check(self, ok: bool, what: str) -> bool:
        """A check on an operation already counted as attempted."""
        if not ok:
            self.fail(what)
        return ok


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-identical, shape and dtype included (NaN payloads compare too)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and a.tobytes() == b.tobytes()
    )


def oracle_payload(codec: str, array: np.ndarray) -> bytes:
    """The scalar reference coder's payload for one chunk."""
    from repro.api.frames import resolve_codec

    comp = resolve_codec(codec)
    return comp._compress_scalar(comp._validate(np.ascontiguousarray(array).ravel()))


def stream_payload(blob: bytes) -> bytes:
    """The single frame payload of a one-chunk FCF stream."""
    from repro.api import DecompressSession

    with DecompressSession(blob) as reader:
        frame = reader.frames[0]
    return blob[frame.offset:frame.offset + frame.compressed_bytes]


def check_oracle(gate: Gate, codec: str, array: np.ndarray, blob: bytes) -> None:
    """Gate: a served or local stream's payload equals the scalar oracle."""
    if codec in ORACLE_CODECS:
        gate.check(
            stream_payload(blob) == oracle_payload(codec, array),
            f"{codec}: payload differs from the scalar oracle",
        )


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_context(**extra) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "cpus": sorted(INHERITED_CPUS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **extra,
    }


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------
def child_env() -> dict:
    """Environment for subprocesses: this one's, importing from ``src/``."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


#: The first request every spawned server answers.
FIRST_REQUEST = np.linspace(0.0, 1.0, CHUNK)


class Server:
    """``fcbench serve`` in a subprocess, stopped on exit.

    ``setup_seconds`` is the wall time from spawn to the reply to a first
    compress request, so the server's lazy imports count as set-up.  The
    request is sent before any concurrent load: two first requests at
    once can fail in the server with an ImportError from the lazy
    ``repro.select`` import.
    """

    def __init__(self, *flags: str, token: str | None = None) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *flags],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, INHERITED_CPUS),
        )
        try:
            self.address = self._read_address()
            self.cpus = sorted(os.sched_getaffinity(self.proc.pid))
            import repro

            with repro.connect(self.address, token=token) as client:
                client.compress_array(FIRST_REQUEST, "mpc", chunk_elements=CHUNK)
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - start

    def _read_address(self) -> str:
        for line in self.proc.stdout:
            if line.startswith("serving on "):
                return line.split()[-1]
        raise RuntimeError("server exited before it was ready")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(2)  # SIGINT: graceful drain
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def spawn_median(flags: tuple[str, ...], token: str | None = None,
                 times: int = 3) -> tuple[Server, float]:
    """Spawn the server ``times`` times; keep the last one running.

    Returns it with the median spawn-to-first-reply seconds.
    """
    seconds = []
    for i in range(times):
        server = Server(*flags, token=token)
        seconds.append(server.setup_seconds)
        if i < times - 1:
            server.stop()
    return server, median(seconds)
