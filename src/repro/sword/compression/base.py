"""Codec interface for trace-block compression.

The paper compared LZO, Snappy, and LZ4 on its traces, found "similar
performance and compression ratios", and picked LZO for ease of integration.
We reproduce that comparison (benchmark E9) across four codecs behind one
interface: stdlib zlib (the default, a C-speed LZ77-family stand-in for
LZO), simplified LZ4 and Snappy block formats, and a byte-oriented RLE codec
(the former default, kept so older traces still read).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ...common.errors import CodecError


class Codec(ABC):
    """A block compressor.  Implementations must be pure functions of the
    payload (no inter-block state) so blocks stay independently seekable."""

    #: Stable one-byte id written into block headers.
    codec_id: int = 0
    #: Registry name.
    name: str = "base"

    @abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress one block."""

    @abstractmethod
    def decompress(self, data: bytes, expected_size: int) -> bytes:
        """Decompress one block; must yield exactly ``expected_size`` bytes.

        ``expected_size`` comes from the frame header, which whoever wrote
        the file controls (and CRCs along with it), so implementations
        must refuse to produce more than that *before* allocating it: a
        few crafted bytes must not inflate into gigabytes.
        """

    def roundtrip_check(self, data: bytes) -> None:
        """Sanity helper for tests."""
        out = self.decompress(self.compress(data), len(data))
        if out != data:
            raise CodecError(f"{self.name}: roundtrip mismatch")


def check_room(produced: int, extra: int, expected_size: int) -> None:
    """Refuse an element that would grow a block past its declared size."""
    if produced + extra > expected_size:
        raise CodecError(
            f"block expands past its declared {expected_size} bytes"
        )
