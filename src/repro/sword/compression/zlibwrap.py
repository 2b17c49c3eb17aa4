"""Stdlib zlib: the default trace codec (the C-speed stand-in for LZO)."""

from __future__ import annotations

import zlib

from ...common.errors import CodecError
from .base import Codec


class ZlibCodec(Codec):
    """DEFLATE via the standard library (level tuned for trace blocks)."""

    codec_id = 4
    name = "zlib"

    def __init__(self, level: int = 1) -> None:
        # Level 1: trace blocks are flushed on the hot path; the paper's
        # candidates (LZO/Snappy/LZ4) are all speed-oriented codecs.
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, data: bytes, expected_size: int) -> bytes:
        inflater = zlib.decompressobj()
        try:
            # Bounded: never produce more than the frame declares (a
            # max_length of 0 means "unbounded", so an empty block gets 1).
            out = inflater.decompress(data, expected_size or 1)
        except zlib.error as exc:
            raise CodecError(f"zlib: {exc}") from exc
        if not inflater.eof:
            raise CodecError(
                f"zlib: stream truncated or longer than {expected_size} bytes"
            )
        if inflater.unconsumed_tail or inflater.unused_data:
            raise CodecError("zlib: trailing bytes after the stream")
        if len(out) != expected_size:
            raise CodecError(
                f"decompressed {len(out)} bytes, expected {expected_size}"
            )
        return out
