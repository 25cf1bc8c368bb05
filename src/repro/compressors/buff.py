"""BUFF: decomposed bounded floats with queryable byte sub-columns.

Paper section 3.3.  BUFF splits values into integer and fractional
parts, keeps only the mantissa bits a target decimal precision requires
(Table 2), subtracts the minimum, and stores the resulting fixed-point
integers as byte-aligned *sub-columns* (all first bytes together, then
all second bytes, ...).  That layout supports predicate evaluation
directly on the encoded bytes — the feature behind BUFF's 35x-50x
selective-filter speedups — via progressive byte-plane elimination.

Losslessness: the paper notes BUFF is lossy without precision
information.  This implementation auto-detects the smallest decimal
precision that round-trips at least ``outlier_threshold`` of the values;
the remainder (and every non-finite value) is stored verbatim in an
outlier list, so the stream is always bit-exact.  On data that needs
full mantissa precision nearly everything becomes an outlier and the
ratio drops below 1 — reproducing the sub-1.0 BUFF cells of Table 4.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError, PrecisionError
from repro.perf.cost import CostModel, KernelSpec, ParallelismSpec

__all__ = ["BuffCompressor", "PRECISION_BITS"]

#: Table 2 of the paper: mantissa bits needed per decimal precision.
PRECISION_BITS = {
    0: 0, 1: 5, 2: 8, 3: 11, 4: 15, 5: 18,
    6: 21, 7: 25, 8: 28, 9: 31, 10: 35,
}


@register
class BuffCompressor(Compressor):
    """BUFF (Liu, Jiang, Paparrizos & Elmore, 2021)."""

    info = MethodInfo(
        name="buff",
        display_name="BUFF",
        year=2021,
        domain="Database",
        precisions=frozenset({"S", "D"}),
        platform="cpu",
        parallelism="serial",
        language="rust",
        trait="delta",
        predictor_family="delta",
    )
    cost = CostModel(
        platform="cpu",
        parallelism=ParallelismSpec(kind="serial"),
        compress_kernels=(
            KernelSpec("bounded_quantize", int_ops=10.0, flops=4.0, bytes_touched=3.0),
            KernelSpec("subcolumn_scatter", int_ops=4.0, bytes_touched=2.5),
        ),
        decompress_kernels=(
            KernelSpec("subcolumn_gather", int_ops=4.0, bytes_touched=2.5),
            KernelSpec("dequantize", int_ops=6.0, flops=4.0, bytes_touched=2.0),
        ),
        anchor_compress_gbs=0.202,
        anchor_decompress_gbs=0.254,
        block_setup_bytes=8_000.0,
        # Figure 10: BUFF's working set is about 7x the input.
        footprint_factor=7.0,
    )

    def __init__(
        self, precision: int | None = None, outlier_threshold: float = 0.99
    ) -> None:
        if precision is not None and precision not in PRECISION_BITS:
            raise PrecisionError(
                f"precision must be in 0..10 (Table 2), got {precision}"
            )
        if not 0.0 < outlier_threshold <= 1.0:
            raise ValueError(
                f"outlier_threshold must be in (0, 1], got {outlier_threshold}"
            )
        self.precision = precision
        self.outlier_threshold = outlier_threshold

    # ------------------------------------------------------------------
    # Precision selection
    # ------------------------------------------------------------------
    def _choose_precision(self, values: np.ndarray) -> tuple[int, np.ndarray]:
        """Pick the smallest precision whose pass rate clears the threshold.

        Returns ``(precision, inlier_mask)``.  Values that fail the
        round-trip test at the chosen precision become outliers.
        """
        finite = np.isfinite(values)
        if self.precision is not None:
            candidates = [self.precision]
        else:
            candidates = sorted(PRECISION_BITS)
        best_precision = candidates[-1]
        best_mask = np.zeros(values.shape, dtype=bool)
        for precision in candidates:
            mask = finite.copy()
            mask[finite] = _roundtrips(values[finite], precision)
            if values.size and mask.mean() >= self.outlier_threshold:
                return precision, mask
            if mask.sum() >= best_mask.sum():
                best_precision, best_mask = precision, mask
        return best_precision, best_mask

    # ------------------------------------------------------------------
    # Compressor interface
    # ------------------------------------------------------------------
    def _compress(self, array: np.ndarray) -> bytes:
        values = array.ravel()
        precision, inliers = self._choose_precision(values)
        scale = 10.0**precision

        if inliers.any():
            base = float(np.floor(values[inliers].min()))
            # Re-verify against the final base; the precision chooser used
            # a provisional one.  Values that fail become outliers, which
            # keeps the stream bit-exact unconditionally.
            subset = values[inliers]
            candidate = _quantize(subset, base, scale)
            exact = (
                (base + candidate / scale == subset.astype(np.float64))
                & (candidate >= 0)
                & (candidate < 2.0**62)
                & ~(np.signbit(subset) & (subset == 0.0))
            )
            if not exact.all():
                keep = inliers.copy()
                keep[inliers] = exact
                inliers = keep
            quantized = _quantize(values[inliers], base, scale).astype(np.int64)
            max_q = int(quantized.max()) if quantized.size else 0
            # Integer-part bits cover the value span above Table 2's
            # fraction bits; together they bound every quantized inlier.
            total_bits = max(int(max_q).bit_length(), 1)
            nbytes = (total_bits + 7) // 8
        else:
            base = 0.0
            quantized = np.zeros(0, dtype=np.int64)
            nbytes = 1

        # Sub-column (byte-plane) layout, most significant plane first.
        count = values.size
        n_inliers = int(inliers.sum())
        planes = np.zeros((nbytes, n_inliers), dtype=np.uint8)
        for plane in range(nbytes):
            shift = 8 * (nbytes - 1 - plane)
            planes[plane] = (quantized >> shift).astype(np.uint8)

        outlier_bits = np.packbits(~inliers) if count else np.zeros(0, np.uint8)
        outliers = array.ravel()[~inliers]

        out = bytearray()
        out += encode_uvarint(count)
        out += encode_uvarint(precision)
        out += encode_uvarint(nbytes)
        out += np.float64(base).tobytes()
        out += encode_uvarint(n_inliers)
        out += planes.tobytes()
        out += outlier_bits.tobytes()
        out += outliers.tobytes()
        return bytes(out)

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        meta = _parse_stream(payload, dtype)
        quantized = _gather_planes(meta)
        restored = _dequantize(quantized, meta.base, 10.0**meta.precision, dtype)
        out = np.empty(meta.count, dtype=dtype)
        out[meta.inlier_mask] = restored
        out[~meta.inlier_mask] = meta.outliers
        return out

    # ------------------------------------------------------------------
    # Query without decoding (the paper's byte-oriented pattern match)
    # ------------------------------------------------------------------
    def scan_less_equal(self, payload, threshold: float, dtype) -> np.ndarray:
        """Evaluate ``x <= threshold`` directly on the encoded sub-columns.

        ``payload`` is this codec's output for ``dtype`` data, as
        :func:`repro.api.frames.encode_payload` returns it.

        Inliers are compared plane by plane against the encoded threshold
        (big-endian fixed point preserves numeric order); a record is
        skipped as soon as a more significant plane disqualifies it,
        mirroring BUFF's progressive filtering.  Only outliers are
        materialized.
        """
        meta = _parse_stream(payload, dtype)
        result = np.zeros(meta.count, dtype=bool)

        # Encode the threshold at the stream's fixed-point parameters:
        # target is the largest quantized value whose reconstruction is
        # <= threshold.  Rounding first and then verifying avoids the
        # floor() boundary error when the threshold equals a stored value
        # whose (threshold - base) * scale image lands just below the
        # integer grid.
        scale = 10.0**meta.precision
        with np.errstate(over="ignore", invalid="ignore"):
            target = int(np.round((threshold - meta.base) * scale))
            if not meta.base + target / scale <= threshold:
                target -= 1
        max_value = (1 << (8 * meta.nbytes)) - 1
        inlier_result = np.zeros(meta.n_inliers, dtype=bool)
        if target >= max_value:
            inlier_result[:] = True
        elif target >= 0:
            # undecided: records equal to the target prefix so far.
            undecided = np.ones(meta.n_inliers, dtype=bool)
            for plane in range(meta.nbytes):
                shift = 8 * (meta.nbytes - 1 - plane)
                target_byte = (target >> shift) & 0xFF
                plane_bytes = meta.planes[plane]
                inlier_result |= undecided & (plane_bytes < target_byte)
                undecided &= plane_bytes == target_byte
            inlier_result |= undecided  # exactly equal
        result[meta.inlier_mask] = inlier_result
        result[~meta.inlier_mask] = meta.outliers <= threshold
        return result

    def scan_equal(self, payload, value: float, dtype) -> np.ndarray:
        """Evaluate ``x == value`` on the encoded sub-columns."""
        meta = _parse_stream(payload, dtype)
        result = np.zeros(meta.count, dtype=bool)

        scale = 10.0**meta.precision
        target = round((value - meta.base) * scale)
        matches = np.ones(meta.n_inliers, dtype=bool)
        if 0 <= target < (1 << (8 * meta.nbytes)) and _roundtrips(
            np.array([value]), meta.precision
        )[0]:
            for plane in range(meta.nbytes):
                shift = 8 * (meta.nbytes - 1 - plane)
                target_byte = (target >> shift) & 0xFF
                matches &= meta.planes[plane] == target_byte
                if not matches.any():
                    break
        else:
            matches[:] = False
        result[meta.inlier_mask] = matches
        result[~meta.inlier_mask] = meta.outliers == value
        return result


class _StreamMeta:
    """Parsed BUFF stream: parameters, planes, and outliers."""

    __slots__ = (
        "count", "precision", "nbytes", "base",
        "n_inliers", "planes", "inlier_mask", "outliers",
    )

    def __init__(self, **fields: object) -> None:
        for name, value in fields.items():
            setattr(self, name, value)


def _quantize(values: np.ndarray, base: float, scale: float) -> np.ndarray:
    """Fixed-point quantization in float64.

    Non-finite values overflow harmlessly here — they are filtered into
    the outlier path by the round-trip masks.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.round((values.astype(np.float64) - base) * scale)


def _dequantize(
    quantized: np.ndarray, base: float, scale: float, dtype: np.dtype
) -> np.ndarray:
    """Invert :func:`_quantize` in float64, then cast to the native dtype.

    The round-trip test compares in float64 (see :func:`_roundtrips`), so
    a float32 value qualifies as an inlier only when its exact float64
    image lies on the decimal grid.  This reproduces the published BUFF
    behaviour: single-precision datasets rarely qualify (their Table 4
    BUFF cells sit at or below 1.0) because float32("12.3") upcasts to
    12.30000019..., which is not a 1-decimal number.
    """
    return (base + quantized.astype(np.float64) / scale).astype(dtype)


def _roundtrips(values: np.ndarray, precision: int) -> np.ndarray:
    """True where quantize/dequantize at ``precision`` is bit-exact.

    Negative zero is rejected: it compares equal to the reconstructed
    +0.0 yet differs bitwise, so it must take the outlier path.
    """
    scale = 10.0**precision
    base = float(np.floor(values.min())) if values.size else 0.0
    quantized = _quantize(values, base, scale)
    restored64 = base + quantized / scale
    in_range = (quantized >= 0) & (quantized < 2.0**62)
    negative_zero = np.signbit(values) & (values == 0.0)
    return (restored64 == values.astype(np.float64)) & in_range & ~negative_zero


def _parse_stream(payload: bytes, dtype: np.dtype) -> _StreamMeta:
    count, pos = decode_uvarint(payload, 0)
    precision, pos = decode_uvarint(payload, pos)
    nbytes, pos = decode_uvarint(payload, pos)
    if pos + 8 > len(payload):
        raise CorruptStreamError("BUFF header truncated")
    base = float(np.frombuffer(payload[pos : pos + 8], dtype=np.float64)[0])
    pos += 8
    n_inliers, pos = decode_uvarint(payload, pos)

    plane_bytes = nbytes * n_inliers
    bitmap_bytes = (count + 7) // 8
    n_outliers = count - n_inliers
    need = plane_bytes + bitmap_bytes + n_outliers * np.dtype(dtype).itemsize
    if pos + need > len(payload):
        raise CorruptStreamError("BUFF stream truncated")

    planes = np.frombuffer(
        payload[pos : pos + plane_bytes], dtype=np.uint8
    ).reshape(nbytes, n_inliers)
    pos += plane_bytes
    outlier_bits = np.frombuffer(
        payload[pos : pos + bitmap_bytes], dtype=np.uint8
    )
    pos += bitmap_bytes
    inlier_mask = ~np.unpackbits(outlier_bits, count=count).astype(bool)
    outliers = np.frombuffer(
        payload[pos : pos + n_outliers * np.dtype(dtype).itemsize], dtype=dtype
    )
    return _StreamMeta(
        count=count,
        precision=precision,
        nbytes=nbytes,
        base=base,
        n_inliers=n_inliers,
        planes=planes,
        inlier_mask=inlier_mask,
        outliers=outliers,
    )


def _gather_planes(meta: _StreamMeta) -> np.ndarray:
    """Rebuild quantized integers from byte planes."""
    quantized = np.zeros(meta.n_inliers, dtype=np.int64)
    for plane in range(meta.nbytes):
        shift = 8 * (meta.nbytes - 1 - plane)
        quantized |= meta.planes[plane].astype(np.int64) << shift
    return quantized
