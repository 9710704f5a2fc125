"""Huffman coding substrate: canonical decode/encode and precode filters."""

from .canonical import (
    BitwiseDecoder,
    CanonicalDecoder,
    CodeClassification,
    canonical_codes_from_lengths,
    classify_code_lengths,
)
from .encode import build_canonical_code, package_merge_lengths
from .fixed import (
    FIXED_DISTANCE_LENGTHS,
    FIXED_LITERAL_LENGTHS,
    fixed_distance_decoder,
    fixed_literal_decoder,
)
from .precode import (
    MAX_PRECODE_LENGTH,
    MAX_PRECODE_SYMBOLS,
    PRECODE_BITS_PER_SYMBOL,
    PRECODE_SYMBOL_ORDER,
    VALID_HISTOGRAM_COUNT,
    classify_packed_histogram,
    enumerate_valid_histograms,
    histogram_counts,
    is_acceptable_precode_histogram,
    packed_histogram,
    packed_histogram_lut,
    quick_reject,
)

__all__ = [
    "BitwiseDecoder",
    "CanonicalDecoder",
    "CodeClassification",
    "canonical_codes_from_lengths",
    "classify_code_lengths",
    "build_canonical_code",
    "package_merge_lengths",
    "FIXED_DISTANCE_LENGTHS",
    "FIXED_LITERAL_LENGTHS",
    "fixed_distance_decoder",
    "fixed_literal_decoder",
    "MAX_PRECODE_LENGTH",
    "MAX_PRECODE_SYMBOLS",
    "PRECODE_BITS_PER_SYMBOL",
    "PRECODE_SYMBOL_ORDER",
    "VALID_HISTOGRAM_COUNT",
    "classify_packed_histogram",
    "enumerate_valid_histograms",
    "histogram_counts",
    "is_acceptable_precode_histogram",
    "packed_histogram",
    "packed_histogram_lut",
    "quick_reject",
]
