"""Byte run-length codec (the former default, kept for E9 and old traces).

Trace records are fixed-width with many zero bytes (high address bits,
padding, small counts), so run-length encoding captures some of the
redundancy LZO would.  Run detection is vectorised with NumPy, but token
emission and decoding are per-run Python loops: on one core of a 2-vCPU
Xeon VM a 655 KB buffer of c_arraysweep events takes ~80 ms to compress
(zlib level 1: ~2 ms), and the ratio on diverse records is ~1.3x
(experiment E9).  The default codec is therefore stdlib zlib at
level 1 (:mod:`.zlibwrap`), the C-speed LZ77-family stand-in for the
paper's LZO; this codec stays registered so experiment E9 can compare it
and so traces written with it (codec id 1) still read back.

Format: a sequence of tokens.

* ``0x00 <varint n> <n literal bytes>`` — literal run;
* ``0x01 <varint n> <byte>``           — ``n`` repeats of ``byte``.

Runs shorter than :data:`MIN_RUN` are folded into literals.
"""

from __future__ import annotations

import numpy as np

from ...common.errors import CodecError
from .base import Codec, check_room

#: Minimum repeat length worth a run token (3 header bytes to amortise).
MIN_RUN = 8

_LITERAL = 0x00
_RUN = 0x01


def _write_varint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    value = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


class LzRleCodec(Codec):
    """Run-length codec with vectorised run detection."""

    codec_id = 1
    name = "lzrle"

    def compress(self, data: bytes) -> bytes:
        if not data:
            return b""
        arr = np.frombuffer(data, dtype=np.uint8)
        # Boundaries where the byte value changes.
        change = np.nonzero(np.diff(arr))[0] + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [arr.shape[0]]))
        lengths = ends - starts

        out = bytearray()
        lit_start = 0  # start of the pending literal region
        lit_end = 0
        for i in range(starts.shape[0]):
            s = int(starts[i])
            ln = int(lengths[i])
            if ln >= MIN_RUN:
                if lit_end > lit_start:
                    out.append(_LITERAL)
                    _write_varint(out, lit_end - lit_start)
                    out += data[lit_start:lit_end]
                out.append(_RUN)
                _write_varint(out, ln)
                out.append(int(arr[s]))
                lit_start = lit_end = s + ln
            else:
                lit_end = s + ln
        if lit_end > lit_start:
            out.append(_LITERAL)
            _write_varint(out, lit_end - lit_start)
            out += data[lit_start:lit_end]
        return bytes(out)

    def decompress(self, data: bytes, expected_size: int) -> bytes:
        out = bytearray()
        pos = 0
        n = len(data)
        while pos < n:
            token = data[pos]
            pos += 1
            if token == _LITERAL:
                length, pos = _read_varint(data, pos)
                if pos + length > n:
                    raise CodecError("truncated literal run")
                check_room(len(out), length, expected_size)
                out += data[pos : pos + length]
                pos += length
            elif token == _RUN:
                length, pos = _read_varint(data, pos)
                if pos >= n:
                    raise CodecError("truncated repeat run")
                check_room(len(out), length, expected_size)
                out += bytes([data[pos]]) * length
                pos += 1
            else:
                raise CodecError(f"unknown token {token:#x}")
        if len(out) != expected_size:
            raise CodecError(
                f"decompressed {len(out)} bytes, expected {expected_size}"
            )
        return bytes(out)
