"""Corrupted-gzip recovery via block finding."""

from .damage import (
    DEFAULT_PLACEHOLDER,
    DamagePolicy,
    DamagedRegion,
    DamageReport,
    ResyncSegment,
    resync_after_damage,
)
from .recover import RecoveredSegment, RecoveryReport, recover_gzip

__all__ = [
    "DEFAULT_PLACEHOLDER",
    "DamagePolicy",
    "DamageReport",
    "DamagedRegion",
    "RecoveredSegment",
    "RecoveryReport",
    "ResyncSegment",
    "recover_gzip",
    "resync_after_damage",
]
