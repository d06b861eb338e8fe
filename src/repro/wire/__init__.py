"""Compact sketch wire format (see ``docs/merging.md``).

- :mod:`repro.wire.frame` — the one envelope of every sketch image (a
  checkpoint file is a frame with meta): :func:`encode_sketch` /
  :func:`decode_sketch` round-trip the mergeable zoo plus
  :class:`~repro.engine.shards.ShardPool` bit-exactly, and never
  decode more than :data:`MAX_RAW_BYTES` of payload or
  :data:`~repro.wire.frame.MAX_META_BYTES` of meta;
- :mod:`repro.wire.huffman` — HBS-style canonical Huffman coding for
  the register families;
- :mod:`repro.wire.rle` — sparse zero-run-length coding for low-fill
  bitmap planes.
"""

from repro.wire.frame import (
    CODEC_HUFFMAN,
    CODEC_RAW,
    CODEC_ZRLE,
    MAX_RAW_BYTES,
    FrameInfo,
    decode_sketch,
    encode_sketch,
    frame_info,
)

__all__ = [
    "CODEC_HUFFMAN",
    "CODEC_RAW",
    "CODEC_ZRLE",
    "FrameInfo",
    "MAX_RAW_BYTES",
    "decode_sketch",
    "encode_sketch",
    "frame_info",
]
