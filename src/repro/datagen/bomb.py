"""High-compression-ratio ("gzip bomb") corpora for memory-budget tests.

The paper's workloads compress at most ~4.3:1 (Silesia), so the cache
sizing assumption "an entry is roughly one chunk of output" holds. A
bomb breaks it: long runs of a constant byte reach the Deflate format's
practical ratio ceiling of ~1030:1 (a 258-byte match costs a couple of
bits), which is what the memory governor and chunk splitting exist to
survive. These helpers build such inputs deterministically
and cheaply — generating the decompressed side lazily so a test can
target hundreds of decompressed MiB without ever holding them.
"""

from __future__ import annotations

import gzip
import io
import zlib

__all__ = [
    "BOMB_MIN_RATIO",
    "generate_bomb",
    "generate_bomb_file",
    "bomb_expected_output",
]

#: Minimum decompressed:compressed ratio :func:`generate_bomb` guarantees
#: (zeros at level 9 measure ~1028:1; the format ceiling is ~1032:1).
BOMB_MIN_RATIO = 1000


def bomb_expected_output(size: int, fill: int = 0) -> bytes:
    """The decompressed bytes a bomb of ``size`` expands to."""
    return bytes([fill]) * size


def generate_bomb(size: int, *, fill: int = 0, level: int = 9,
                  member_size: int = None) -> bytes:
    """A gzip blob decompressing to ``size`` bytes of ``fill`` at >=
    :data:`BOMB_MIN_RATIO`.

    ``member_size`` splits the output across several concatenated gzip
    members (rapidgzip handles multi-member files transparently); by
    default everything is one member. The compressed side is produced
    incrementally so even multi-GiB bombs never materialize their
    decompressed form here.
    """
    if size <= 0:
        return gzip.compress(b"", compresslevel=level)
    member_size = member_size or size
    piece = bytes([fill]) * (1024 * 1024)
    out = io.BytesIO()
    remaining = size
    while remaining > 0:
        member = min(member_size, remaining)
        compressor = zlib.compressobj(level, zlib.DEFLATED, 31)  # gzip wrapper
        left = member
        while left > 0:
            step = min(len(piece), left)
            out.write(compressor.compress(piece[:step]))
            left -= step
        out.write(compressor.flush())
        remaining -= member
    blob = out.getvalue()
    # Per-member header/footer/flush overhead (~30 bytes each) drags small
    # members under the floor (1 MiB members measure ~997:1), so the ratio
    # guarantee only applies to members large enough to amortize it.
    if size >= 1024 * 1024 and member_size >= 4 * 1024 * 1024:
        assert size / len(blob) >= BOMB_MIN_RATIO, (
            f"bomb ratio {size / len(blob):.0f}:1 below the "
            f"{BOMB_MIN_RATIO}:1 floor"
        )
    return blob


def generate_bomb_file(path, size: int, *, fill: int = 0, level: int = 9,
                       member_size: int = None) -> int:
    """Write :func:`generate_bomb` output to ``path``; returns the
    compressed byte count (the decompressed count is ``size``)."""
    blob = generate_bomb(
        size, fill=fill, level=level, member_size=member_size
    )
    with open(path, "wb") as handle:
        handle.write(blob)
    return len(blob)
