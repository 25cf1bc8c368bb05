"""Registry, input validation, and the decoder's format checks."""

import numpy as np
import pytest

from repro.api import compress_array, decompress_array
from repro.api.frames import FOOTER_BYTES, encode_payload
from repro.compressors import (
    PAPER_TABLE_ORDER,
    compressor_names,
    get_compressor,
    paper_table_order,
)
from repro.compressors.base import MethodInfo
from repro.errors import CorruptStreamError, UnsupportedDtypeError
from tests.conftest import roundtrip


def test_all_fifteen_methods_registered():
    assert len(compressor_names()) == 15


def test_paper_order_has_fourteen_table_methods():
    order = paper_table_order()
    assert len(order) == 14
    assert "dzip" not in order
    assert order == list(PAPER_TABLE_ORDER)


def test_unknown_method_lists_alternatives():
    with pytest.raises(KeyError, match="unknown compressor"):
        get_compressor("lzma")


def test_integer_input_rejected():
    comp = get_compressor("gorilla")
    with pytest.raises(UnsupportedDtypeError):
        encode_payload(comp, np.arange(10))


def test_double_only_method_rejects_f32():
    # Direct codec callers get Table 1's precision check; the payload
    # codec feeds such methods float32 data as 64-bit words instead.
    comp = get_compressor("pfpc")
    with pytest.raises(UnsupportedDtypeError, match="precision"):
        comp._validate(np.zeros(8, dtype=np.float32))


def test_header_preserves_shape_and_dtype():
    comp = get_compressor("chimp")
    array = np.random.default_rng(0).normal(0, 1, (5, 7, 3)).astype(np.float32)
    out = roundtrip(comp, array)
    assert out.shape == (5, 7, 3)
    assert out.dtype == np.float32


def test_bad_magic_rejected():
    with pytest.raises(CorruptStreamError, match="magic"):
        decompress_array(b"\x00" * 32)


def test_bad_dtype_code_rejected():
    blob = bytearray(compress_array(np.ones(4), "chimp"))
    blob[5] = 9  # after the 4-byte magic and the version byte
    with pytest.raises(CorruptStreamError, match="dtype"):
        decompress_array(bytes(blob))


def test_implausible_rank_rejected():
    blob = bytearray(compress_array(np.ones(4), "chimp"))
    # The index ends with the shape: ndim varint, then one extent byte.
    blob[-FOOTER_BYTES - 2] = 100
    with pytest.raises(CorruptStreamError, match="rank"):
        decompress_array(bytes(blob))


def test_method_info_is_table1_complete():
    for name in compressor_names():
        info = get_compressor(name).info
        assert isinstance(info, MethodInfo)
        assert info.platform in ("cpu", "gpu")
        assert info.predictor_family in (
            "lorenzo", "delta", "dictionary", "prediction", "nn",
        )
        assert info.precisions <= {"S", "D"}
        assert 2006 <= info.year <= 2022


def test_noncontiguous_input_accepted():
    comp = get_compressor("chimp")
    base = np.random.default_rng(1).normal(0, 1, (50, 4))
    view = base[::2]
    out = roundtrip(comp, view)
    np.testing.assert_array_equal(out, view)


def test_every_method_has_cost_model():
    for name in compressor_names():
        comp = get_compressor(name)
        assert comp.cost.platform == comp.info.platform
        assert comp.cost.anchor_compress_gbs > 0
