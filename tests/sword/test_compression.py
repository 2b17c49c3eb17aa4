"""Compression codecs: registry, roundtrips, malformed input handling."""

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CodecError
from repro.common.events import Access, accesses_to_records
from repro.sword.compression import available, by_id, by_name
from repro.sword.compression.lzrle import LzRleCodec
from repro.sword.compression.lz4like import Lz4LikeCodec
from repro.sword.compression.snappylike import SnappyLikeCodec
from repro.sword.compression.zlibwrap import ZlibCodec

ALL_CODECS = [LzRleCodec(), Lz4LikeCodec(), SnappyLikeCodec(), ZlibCodec()]


def test_registry_has_paper_candidates():
    names = available()
    # lzrle stands in for LZO; lz4 and snappy match the paper's candidates.
    assert {"lzrle", "lz4", "snappy", "zlib"} <= set(names)


def test_registry_lookup_by_name_and_id():
    for name in available():
        codec = by_name(name)
        assert by_id(codec.codec_id) is codec
    with pytest.raises(CodecError):
        by_name("nope")
    with pytest.raises(CodecError):
        by_id(250)


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestRoundtrips:
    def test_empty(self, codec):
        assert codec.decompress(codec.compress(b""), 0) == b""

    def test_zeros_compress_well(self, codec):
        data = bytes(8192)
        out = codec.compress(data)
        assert codec.decompress(out, len(data)) == data
        assert len(out) < len(data) / 4

    def test_incompressible_survives(self, codec):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
        assert codec.decompress(codec.compress(data), len(data)) == data

    def test_trace_records_roundtrip(self, codec):
        records = accesses_to_records(
            Access(addr=0x100000 + i * 8, size=8, count=1, stride=0,
                   is_write=i % 3 == 0, is_atomic=False, pc=0x1000 + i % 7)
            for i in range(500)
        )
        raw = records.tobytes()
        out = codec.decompress(codec.compress(raw), len(raw))
        assert out == raw

    def test_wrong_expected_size_rejected(self, codec):
        data = b"hello world" * 50
        compressed = codec.compress(data)
        with pytest.raises(CodecError):
            codec.decompress(compressed, len(data) + 1)


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=2048))
def test_property_roundtrip(codec, data):
    assert codec.decompress(codec.compress(data), len(data)) == data


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
@settings(max_examples=25, deadline=None)
@given(
    pattern=st.binary(min_size=1, max_size=16),
    repeats=st.integers(1, 300),
)
def test_property_repetitive_data(codec, pattern, repeats):
    data = pattern * repeats
    out = codec.compress(data)
    assert codec.decompress(out, len(data)) == data


def test_lzrle_truncated_stream_detected():
    codec = LzRleCodec()
    compressed = codec.compress(b"\x00" * 100)
    with pytest.raises(CodecError):
        codec.decompress(compressed[:-1], 100)


def test_lz4_bad_offset_detected():
    codec = Lz4LikeCodec()
    # token: 0 literals + match; offset 5 with empty output -> invalid.
    bogus = bytes([0x01, 0x05, 0x00])
    with pytest.raises(CodecError):
        codec.decompress(bogus, 10)


def test_snappy_header_mismatch_detected():
    codec = SnappyLikeCodec()
    compressed = codec.compress(b"abcdef")
    with pytest.raises(CodecError):
        codec.decompress(compressed, 7)


# -- decompression is bounded by the frame's declared size -------------------

#: Declared (frame-header) size of every crafted block below.
DECLARED = 64
#: What each crafted block would inflate to if decoded without a bound.
BOMB = 16 * 2**20


def _zlib_bomb() -> bytes:
    deflate = zlib.compressobj(9)
    chunk = bytes(2**20)
    parts = [deflate.compress(chunk) for _ in range(BOMB // len(chunk))]
    return b"".join(parts) + deflate.flush()


def _lsic(value: int) -> bytes:
    return b"\xff" * (value // 255) + bytes([value % 255])


#: Crafted payloads that expand far past DECLARED bytes, keyed by codec.
BOMBS = {
    # One run token: 0x01 <varint BOMB> <byte>.
    "lzrle": bytes([0x01, 0x80, 0x80, 0x80, 0x08, 0x00]),
    # One literal, then a BOMB-byte overlapping match at offset 1.
    "lz4": bytes([0x1F, 0x41, 0x01, 0x00]) + _lsic(BOMB - 4 - 15),
    # Honest header, one literal, then 64-byte copies at offset 1.
    "snappy": bytes([DECLARED, 0x00, 0x41])
    + bytes([(63 << 2) | 2, 0x01, 0x00]) * (BOMB // 64),
    "zlib": _zlib_bomb(),
}


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
def test_oversize_block_rejected_before_allocating(codec):
    payload = BOMBS[codec.name]
    tracemalloc.start()
    try:
        with pytest.raises(CodecError):
            codec.decompress(payload, DECLARED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{codec.name} allocated {peak} bytes"


def test_zlib_truncated_stream_rejected():
    codec = ZlibCodec()
    data = bytes(range(256)) * 64
    compressed = codec.compress(data)
    for cut in (1, len(compressed) // 2, len(compressed) - 1):
        with pytest.raises(CodecError):
            codec.decompress(compressed[:cut], len(data))


def test_zlib_trailing_bytes_rejected():
    codec = ZlibCodec()
    compressed = codec.compress(b"abc" * 100)
    with pytest.raises(CodecError):
        codec.decompress(compressed + b"\x00", 300)
