"""The unified streaming compression surface.

One designed API for every compression path in the repository: the
seekable FCF frame format (:mod:`repro.api.frames`), streaming
:class:`CompressSession`/:class:`DecompressSession` with chunk-parallel
execution (:mod:`repro.api.session`), and the in-memory/file-object
convenience wrappers.  The paper's measurement runner, the paged
block store, and the HDF5-like container are all thin layers over this
package — see ``docs/streaming.md`` for the format specification.
"""

from repro.api.frames import (
    AUTO_CODEC,
    DEFAULT_CHUNK_ELEMENTS,
    END_MAGIC,
    FOOTER_BYTES,
    FORMAT_V2,
    FORMAT_VERSION,
    FRAME_MAGIC,
    RAW_CODEC,
    FrameInfo,
    StreamHeader,
    StreamIndex,
    available_codecs,
)
from repro.api.session import (
    CompressSession,
    DecompressSession,
    compress_array,
    decompress_array,
    open_stream,
)

__all__ = [
    "AUTO_CODEC",
    "CompressSession",
    "DecompressSession",
    "DEFAULT_CHUNK_ELEMENTS",
    "END_MAGIC",
    "FOOTER_BYTES",
    "FORMAT_V2",
    "FORMAT_VERSION",
    "FRAME_MAGIC",
    "FrameInfo",
    "RAW_CODEC",
    "StreamHeader",
    "StreamIndex",
    "available_codecs",
    "compress_array",
    "decompress_array",
    "open_stream",
]
