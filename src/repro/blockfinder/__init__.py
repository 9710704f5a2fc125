"""Speculative Deflate block finders (paper §3.4)."""

from .base import BlockFinder
from .combined import CombinedBlockFinder
from .dynamic import (
    DynamicBlockFinder,
    DynamicBlockFinderCustomTrial,
    DynamicBlockFinderSkipLUT,
    DynamicBlockFinderZlibTrial,
    skip_lut,
)
from .pugz import PugzBlockFinder, check_pugz_compatible
from .uncompressed import (
    UncompressedBlockFinder,
    canonical_nc_offset,
    scan_nc_candidates,
)
from .vectorized import VectorizedDynamicBlockFinder, scan_dynamic_candidates

__all__ = [
    "BlockFinder",
    "CombinedBlockFinder",
    "DynamicBlockFinder",
    "DynamicBlockFinderCustomTrial",
    "DynamicBlockFinderSkipLUT",
    "DynamicBlockFinderZlibTrial",
    "skip_lut",
    "PugzBlockFinder",
    "check_pugz_compatible",
    "UncompressedBlockFinder",
    "canonical_nc_offset",
    "scan_nc_candidates",
    "VectorizedDynamicBlockFinder",
    "scan_dynamic_candidates",
]
