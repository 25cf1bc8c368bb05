"""Compressor-to-filter adapters for the container's chunk pipeline.

Mirrors HDF5's dataset-transfer filters (paper Figure 4).  Since the
streaming redesign these are thin wrappers over the frame-payload codec
in :mod:`repro.api.frames` — the container, the paged block store, and
user-facing FCF streams all encode chunks through the exact same
functions; this module only translates names and error types for the
storage layer.
"""

from __future__ import annotations

import numpy as np

from repro.api import frames
from repro.errors import CorruptStreamError, StorageError

__all__ = ["encode_chunk", "decode_chunk", "available_filters"]


def available_filters() -> list[str]:
    """Identity plus every registered compressor."""
    return frames.available_codecs()


def _resolve(filter_name: str):
    try:
        return frames.resolve_codec(filter_name)
    except CorruptStreamError:
        from repro.compressors import compressor_names

        known = ", ".join(["none", *compressor_names()])
        raise StorageError(
            f"unknown filter {filter_name!r}; known: {known}"
        ) from None


def encode_chunk(filter_name: str, chunk: np.ndarray) -> bytes:
    """Compress one chunk, flattened, with the named filter (raw payload)."""
    return frames.encode_payload(_resolve(filter_name), np.ravel(chunk))


def decode_chunk(
    filter_name: str, blob: bytes, n_elements: int, dtype: np.dtype
) -> np.ndarray:
    """Decompress one chunk back to ``n_elements`` of ``dtype``."""
    try:
        return frames.decode_payload(
            _resolve(filter_name), blob, (n_elements,), dtype
        )
    except CorruptStreamError as exc:
        raise StorageError(str(exc)) from exc
