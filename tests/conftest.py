"""Shared fixtures: representative float arrays for codec testing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.frames import decode_payload, encode_payload


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240617)


def _smooth_3d(dtype: np.dtype) -> np.ndarray:
    x, y, z = np.meshgrid(
        np.linspace(0.0, 4.0, 18),
        np.linspace(0.0, 4.0, 18),
        np.linspace(0.0, 4.0, 18),
        indexing="ij",
    )
    return (np.sin(x) * np.cos(y) + 0.1 * z).astype(dtype)


def array_cases(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The canonical set of arrays every compressor must round-trip."""
    return {
        "smooth3d_f32": _smooth_3d(np.float32),
        "smooth3d_f64": _smooth_3d(np.float64),
        "noisy_f64": rng.normal(0.0, 1.0, 3000).astype(np.float64),
        "noisy_f32": rng.normal(0.0, 1.0, 3000).astype(np.float32),
        "decimals_f64": np.round(rng.normal(50.0, 10.0, 2500), 2),
        "repeats_f64": np.repeat(rng.normal(0.0, 1.0, 40), 60),
        "table_f64": np.round(rng.normal(10.0, 3.0, (300, 7)), 2),
        "specials_f64": np.array(
            [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -1e-308] * 8
        ),
        "single_f64": np.array([3.141592653589793]),
        "pair_f32": np.array([1.5, -2.25], dtype=np.float32),
        "empty_f64": np.array([], dtype=np.float64),
        "denormals_f32": (
            rng.normal(0, 1, 500).astype(np.float32) * np.float32(1e-40)
        ),
    }


@pytest.fixture(scope="session")
def cases(rng: np.random.Generator) -> dict[str, np.ndarray]:
    return array_cases(rng)


def assert_bit_exact(original: np.ndarray, restored: np.ndarray) -> None:
    """Bit-level equality including NaN payloads and signed zeros."""
    assert restored.shape == original.shape
    assert restored.dtype == original.dtype
    uint = np.uint32 if original.dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(original.view(uint), restored.view(uint))


def roundtrip(comp, array: np.ndarray) -> np.ndarray:
    """Encode and decode ``array`` through the shared payload codec."""
    array = np.asarray(array)
    payload = encode_payload(comp, array)
    return decode_payload(comp, payload, array.shape, array.dtype)
