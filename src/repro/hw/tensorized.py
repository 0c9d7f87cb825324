"""Enumerability of a platform's config space, and the skeleton digest.

A config space small enough to enumerate outright (the paper's
``dac2020`` space is 8640 points, ``embedded-lite`` 288) can be swept
whole by one batched platform query, as ``load_bundle`` does for its
latency table.  :data:`TENSORIZE_MAX_CONFIGS` caps that: ``repro hw
list`` and ``repro hw show`` flag larger spaces (``charm-u50``'s
393,216) as not enumerable.  :func:`skeleton_token` keys per-skeleton
artifacts such as fitted cost surrogates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.hw.platform import HardwarePlatform
from repro.nasbench.skeleton import SkeletonConfig

__all__ = [
    "TENSORIZE_MAX_CONFIGS",
    "enumerable",
    "skeleton_token",
]

#: Spaces beyond this many configurations are not enumerated outright
#: (dense full-space arrays would stop being "a few MB").
TENSORIZE_MAX_CONFIGS = 262_144


def enumerable(platform: HardwarePlatform) -> bool:
    """Whether ``platform``'s config space is small enough to enumerate."""
    return platform.config_space().size <= TENSORIZE_MAX_CONFIGS


def skeleton_token(skeleton: SkeletonConfig) -> str:
    """Short stable digest of a skeleton (latencies depend on it)."""
    blob = json.dumps(asdict(skeleton), sort_keys=True, default=str)
    return hashlib.md5(blob.encode()).hexdigest()[:10]
