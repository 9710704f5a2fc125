"""CRC-32 (the gzip/zlib polynomial) from scratch, plus ``crc32_combine``.

The table-driven implementation is the correctness reference — tests pin it
against :func:`zlib.crc32`. Production paths use :data:`fast_crc32` (the
zlib C implementation; paper future work lists checksum verification, which
we implement behind a flag). ``crc32_combine`` composes the CRCs of
concatenated byte ranges in O(log n) — it lets the parallel reader verify a
multi-chunk stream without a serial CRC pass over the whole output.
"""

from __future__ import annotations

import zlib

__all__ = ["crc32", "fast_crc32", "crc32_combine", "CRC32_POLYNOMIAL"]

#: Reflected CRC-32 polynomial used by gzip, zlib, PNG, ...
CRC32_POLYNOMIAL = 0xEDB88320


def _build_table() -> list:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ CRC32_POLYNOMIAL if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _build_table()


def crc32(data: bytes, crc: int = 0) -> int:
    """Pure-Python table-driven CRC-32, compatible with ``zlib.crc32``."""
    crc ^= 0xFFFFFFFF
    table = _TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


#: C-speed CRC used on hot paths; semantically identical to :func:`crc32`.
fast_crc32 = zlib.crc32


# -- crc32_combine ------------------------------------------------------------
#
# zlib 1.2.12's form: a CRC register is a polynomial over GF(2), bit-reversed
# (bit 31 is x^0). Appending n zero bytes multiplies it by x^(8n) modulo the
# CRC polynomial, and x^(8n) is the product of the table entries x^(2^k) for
# the set bits k of 8n: one product of 32 shift-and-add steps per set bit.
# The table wraps at 32 entries because x^(2^32) = x modulo the polynomial.


def _multiply_mod_p(a: int, b: int) -> int:
    """``a * b`` modulo the CRC polynomial; ``a`` must not be zero."""
    mask = 1 << 31
    product = 0
    while True:
        if a & mask:
            product ^= b
            if not a & (mask - 1):
                return product
        mask >>= 1
        b = (b >> 1) ^ CRC32_POLYNOMIAL if b & 1 else b >> 1


def _build_x2n_table() -> list:
    """``x^(2^k)`` modulo the CRC polynomial for k = 0..31."""
    power = 1 << 30  # x^1
    table = [power]
    for _ in range(31):
        power = _multiply_mod_p(power, power)
        table.append(power)
    return table


_X2N_TABLE = _build_x2n_table()


def _x8n_mod_p(length: int) -> int:
    """``x^(8 * length)`` modulo the CRC polynomial."""
    power = 1 << 31  # x^0
    k = 3  # 8 = 2^3: bit j of length weighs x^(2^(j + 3))
    while length:
        if length & 1:
            power = _multiply_mod_p(_X2N_TABLE[k & 31], power)
        length >>= 1
        k += 1
    return power


def crc32_combine(crc1: int, crc2: int, length2: int) -> int:
    """CRC of ``A+B`` given ``crc32(A)``, ``crc32(B)`` and ``len(B)``."""
    if length2 <= 0:
        return crc1 & 0xFFFFFFFF
    shifted = _multiply_mod_p(_x8n_mod_p(length2), crc1 & 0xFFFFFFFF)
    return (shifted ^ crc2) & 0xFFFFFFFF
