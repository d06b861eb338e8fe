"""Compact sketch wire format (see ``docs/merging.md``).

- :mod:`repro.wire.frame` — the versioned, self-describing frame:
  :func:`encode_sketch` / :func:`decode_sketch` round-trip any
  serializable sketch (the whole mergeable zoo plus
  :class:`~repro.engine.shards.ShardPool`) bit-exactly, and never
  decode more than :data:`MAX_RAW_BYTES`;
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
