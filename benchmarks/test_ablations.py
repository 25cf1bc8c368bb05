"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not part of the paper's tables; these isolate the contribution of each
architectural component the survey credits for its winners' ratios:

* bitshuffle: the bit transpose itself vs the LZ back-end alone,
* bitshuffle: zstd's entropy stage vs plain LZ4,
* ndzip: sign handling (zigzag) in the integer Lorenzo transform,
* Chimp: the 128-value window vs Gorilla's previous-value reference,
* BUFF: auto-detected vs explicit precision,
* pFPC: hash-predictor table size.
"""

import numpy as np
import pytest

from repro.api.frames import decode_payload, encode_payload
from repro.compressors import get_compressor
from repro.compressors.buff import BuffCompressor
from repro.compressors.pfpc import PfpcCompressor
from repro.compressors.util import bit_transpose
from repro.data import load
from repro.encodings import lz4_compress, zstd_compress


def _cr(nbytes, blob):
    return nbytes / len(blob)


def test_bit_transpose_is_the_workhorse(benchmark, emit):
    """LZ4 with vs without the bitshuffle transform (section 3.7).

    The transform exposes per-bit-plane structure in scientific data but
    *destroys* the exact 8-byte value repeats that plain LZ4 exploits in
    transactional data — the mechanism behind the paper's domain split
    (bitshuffle wins HPC/OBS, plain nvCOMP::LZ4 wins TS/DB).
    """
    rows = []
    ratios = {}
    for name in ("turbulence", "rsim", "hst-wfc3-ir", "gas-price"):
        arr = load(name, 16384)
        flat = arr.ravel()
        raw = flat.tobytes()
        uint = np.uint32 if flat.dtype.itemsize == 4 else np.uint64
        transposed = bit_transpose(flat.view(uint)).tobytes()
        plain = _cr(len(raw), lz4_compress(raw))
        shuffled = _cr(len(raw), benchmark.pedantic(
            lz4_compress, args=(transposed,), iterations=1, rounds=1,
        ) if name == "turbulence" else lz4_compress(transposed))
        ratios[name] = (plain, shuffled)
        rows.append(f"{name:14s} plain LZ4 {plain:5.3f} -> +transpose {shuffled:5.3f}")
    emit("ablation_bit_transpose", "\n".join(rows))
    # Scientific data: the transform is the workhorse.
    for name in ("turbulence", "rsim", "hst-wfc3-ir"):
        plain, shuffled = ratios[name]
        assert shuffled > plain * 1.1, name
    # Repetitive transactional data: the transform scatters exact repeats.
    plain, shuffled = ratios["gas-price"]
    assert plain > shuffled


def test_entropy_stage_value(benchmark, emit):
    """zstd's Huffman stage vs LZ4 on identical transposed blocks."""
    wins = 0
    total = 0
    for name in ("msg-bt", "hdr-night", "tpcxBB-store"):
        arr = load(name, 16384)
        flat = arr.ravel()
        uint = np.uint32 if flat.dtype.itemsize == 4 else np.uint64
        per = 4096 // flat.dtype.itemsize
        for start in range(0, flat.size, per):
            block = bit_transpose(flat[start:start + per].view(uint)).tobytes()
            total += 1
            if len(zstd_compress(block)) <= len(lz4_compress(block)):
                wins += 1
    benchmark(lambda: None)
    emit("ablation_entropy_stage",
         f"zstd <= lz4 on {wins}/{total} transposed 4K blocks")
    assert wins / total > 0.6


def test_ndzip_zigzag_sign_handling(benchmark, emit):
    """Zigzag folding vs raw two's-complement residuals in ndzip."""
    import repro.compressors.ndzip as nd

    arr = load("turbulence", 16384)
    comp = get_compressor("ndzip-cpu")
    with_zz = _cr(arr.nbytes, benchmark(encode_payload, comp, arr))

    orig_zz, orig_uz = nd._zigzag, nd._unzigzag
    nd._zigzag = lambda v: v
    nd._unzigzag = lambda v: v
    try:
        without_zz = _cr(arr.nbytes, encode_payload(comp, arr))
    finally:
        nd._zigzag, nd._unzigzag = orig_zz, orig_uz
    emit("ablation_ndzip_zigzag",
         f"ndzip CR with zigzag {with_zz:.3f} vs without {without_zz:.3f}")
    assert with_zz > without_zz


def test_chimp_window_vs_previous_value(benchmark, emit):
    """Chimp's 128-value window vs Gorilla on value-recurring data."""
    arr = load("gas-price", 16384).copy().ravel()
    chimp = _cr(arr.nbytes, benchmark(encode_payload, get_compressor("chimp"), arr))
    gorilla = _cr(arr.nbytes, encode_payload(get_compressor("gorilla"), arr))
    emit("ablation_chimp_window",
         f"gas-price: Chimp {chimp:.3f} vs Gorilla {gorilla:.3f}")
    assert chimp > 1.5 * gorilla


@pytest.mark.parametrize("precision", [1, 2, 4])
def test_buff_precision_sweep(benchmark, precision, emit):
    """Explicit precision trades ratio against outlier volume."""
    rng = np.random.default_rng(0)
    arr = np.round(rng.normal(100, 20, 16384), 2)
    comp = BuffCompressor(precision=precision)
    blob = benchmark(encode_payload, comp, arr)
    np.testing.assert_array_equal(
        decode_payload(comp, blob, arr.shape, arr.dtype), arr
    )
    cr = _cr(arr.nbytes, blob)
    emit(f"ablation_buff_p{precision}", f"precision={precision}: CR {cr:.3f}")
    if precision == 1:
        assert cr < 1.1   # most values need 2 decimals -> outliers
    if precision == 2:
        assert cr > 1.4   # exact fit


@pytest.mark.parametrize("table_bits", [8, 16])
def test_pfpc_table_size(benchmark, table_bits, emit):
    """FCM/DFCM table size: larger tables predict longer contexts."""
    arr = load("msg-bt", 8192).copy()
    comp = PfpcCompressor(table_bits=table_bits)
    blob = benchmark.pedantic(encode_payload, args=(comp, arr),
                              iterations=1, rounds=1)
    cr = _cr(arr.nbytes, blob)
    emit(f"ablation_pfpc_t{table_bits}", f"table_bits={table_bits}: CR {cr:.3f}")
    assert cr > 0.9
