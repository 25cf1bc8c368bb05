"""Pinned SHA-256 digests of ``compress_array`` output.

Every registered codec plus ``auto`` compresses one fixed 2-D array, as
float64 and as float32, at the 4 Ki serving chunk.  A digest moves only
when the bytes an FCF stream holds move, so a refactor of the codec
entry point, the session or a codec kernel that should leave streams
alone is checked here byte for byte.

The input uses integer arithmetic and divisions by a power of two only
(no RNG, no libm), so it is the same array on every platform and Python
version.  41 x 127 elements give one full chunk and an odd-sized tail,
which exercises the zero-padded float32 path of the double-only codecs.
"""

import hashlib

import numpy as np
import pytest

from repro.api import compress_array

DIGESTS = {
    ("bitshuffle-lz4", "float64"):
        "0bbcdfa052db97222dbb45736dcd9f7912584d8e178f4c5b058cc55080b3e313",
    ("bitshuffle-zstd", "float64"):
        "c847dc33671008a3195322f109fd15fd1c115ff1a5269f12d5db1cc51263481e",
    ("buff", "float64"):
        "2d53da83e16041cf877a8a0e2bd22224eab86afdb40402bc487a21fee6f8b074",
    ("chimp", "float64"):
        "e7680e2dff4b51977060d76cae3293416be11ebe206fff4f1a263d94e7cb8dee",
    ("dzip", "float64"):
        "8cc65021f4b08a4c53acc32e93dd7d1b63a1a58222797d9eeab112e5706885ee",
    ("fpzip", "float64"):
        "7e17d27bba0270f445e4aa84cbbdff24e5f97492303ef4ef6af700c36129e20d",
    ("gfc", "float64"):
        "33c9a61e8ed5e138d73544351e6c6cc279249d5a6b76446a9c796d179d190069",
    ("gorilla", "float64"):
        "91f47330576f8925f8f375048318d06a41280c08f685efae313ef819b4ac87f4",
    ("mpc", "float64"):
        "8dd0eec276c54f974a3ca6812c3d5378cf0045a799ea75276f93d921b27b6088",
    ("ndzip-cpu", "float64"):
        "53325f8fee30c853225290296595b0048be08128b5adffb716c87159e243b2a1",
    ("ndzip-gpu", "float64"):
        "72d3d5a386ce2d9a7fc29bd1b3c5fa7b8b068eff96ec861e34e25e5116b29839",
    ("nvcomp-bitcomp", "float64"):
        "f0d362bdda9e23a83383e365cb75d64a23b884158ff72708d078d4d49b02e27a",
    ("nvcomp-lz4", "float64"):
        "ec54c62ae0faf585ce1d37679dbb448c224c313fd149c305452b841e57f42eef",
    ("pfpc", "float64"):
        "746729e7e0920106e4f61fc62cdcbb93f151ae47446fe289da47f1c1abdbcd03",
    ("spdp", "float64"):
        "7e1c6fb478c1a9f248e6aa6b60bbcf698a4fee292e61958e1df6a8b74a8d68bc",
    ("auto", "float64"):
        "c0f90c1fa64f94f7e0db1db60ed39793b282d4600462fdef3e20e7f167619b4c",
    ("bitshuffle-lz4", "float32"):
        "88ef54b2b3ce20eb28ca7aaa7956fb1cd4b217b5331e196d85f656c34afac544",
    ("bitshuffle-zstd", "float32"):
        "829cb20b26955cca692b40a4d90e29b2906ad9eebed7e39f326d3f1fe51aec85",
    ("buff", "float32"):
        "0fec27dff8492a877878bd79db485557a5ca9347ca64e1e959b7a1c64cc4866d",
    ("chimp", "float32"):
        "0319f85155236838b14d688d4c9900737919a6f3e1f27e7ad3322c71db2ed8a4",
    ("dzip", "float32"):
        "a92e15c5044394763e421500fa0423f090e2df7d2b13c8c0414c5bcfa65ee6d2",
    ("fpzip", "float32"):
        "e1b769d583450741af73a8e31c15ff0fb80a0a6ddc4667f4b3baf1e4af721af2",
    ("gfc", "float32"):
        "2dbe8bceb3334d143ab56c23371e33ca5c9d076aab3956fddf4fc5ed5d77db45",
    ("gorilla", "float32"):
        "5ed65522c2651563a194d388f1001d193a4233292ee0f11f47f39d81a7a74a0a",
    ("mpc", "float32"):
        "05a7cee2a44d6e276bc01c5708a3919257fcf887ad5e893766427cda5bd416a1",
    ("ndzip-cpu", "float32"):
        "77ec996da13521e178b4f5ac0ef7c8d5b0187d9b69a904379803fb01a12ba6f6",
    ("ndzip-gpu", "float32"):
        "0fce821650d0a86959fff93aec1a3076c4c12b5853ef22aa1cfa9d8b7cc17032",
    ("nvcomp-bitcomp", "float32"):
        "38619da7127711dded1aa0f71420f10997fdfc17ef4d57207b632069f9870f97",
    ("nvcomp-lz4", "float32"):
        "c49e433b01feeddad6df43f2056b0d68d6d571199a0b0e7c1991ee74eaf7eddb",
    ("pfpc", "float32"):
        "5c7ece2f01f401e955e9b95558ec4036498186c701918e361594b99a69dd8739",
    ("spdp", "float32"):
        "4f9b0556561680a7461dbbed179ad6c5b4b0c35326ec94d1f9f5582a37c50e95",
    ("auto", "float32"):
        "e7f148d9f6c91960c03bb8d976c0786b770ca46a5960c65c9a9a1983bf24940d",
}


def pinned_input(dtype) -> np.ndarray:
    i = np.arange(41 * 127, dtype=np.int64).reshape(41, 127)
    row, col = np.divmod(i, 127)
    hashed = (i * 2654435761) % 4093
    values = (row * 1024 + col * 37 * 1024 + hashed).astype(np.float64) / 1024
    values[3, 5] = np.nan
    values[7, 0] = -0.0
    return values.astype(dtype)


def test_every_codec_is_pinned():
    from repro.compressors import compressor_names

    assert {codec for codec, _ in DIGESTS} == {*compressor_names(), "auto"}


@pytest.mark.parametrize(("codec", "dtype"), sorted(DIGESTS))
def test_stream_digest(codec, dtype):
    blob = compress_array(pinned_input(dtype), codec, chunk_elements=4096)
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[codec, dtype]
