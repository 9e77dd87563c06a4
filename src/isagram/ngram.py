"""Sliding-window n-gram extraction over byte strings and text.

The window advances one term at a time and never wraps or crosses document
boundaries, so a document of length L yields max(0, L - n + 1) grams.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Union

import numpy as np

TermSeq = Union[bytes, str]

MAX_N = 3


@dataclass(frozen=True)
class GramCounts:
    """Occurrence counts for a single window length.

    ``counts`` maps each observed gram (a bytes or str slice of the source
    document) to its occurrence count; ``total`` is the number of windows.
    """

    counts: dict
    n: int
    total: int


def extract_grams(doc: TermSeq, n: int) -> GramCounts:
    """Count all length-n windows of ``doc`` (stride 1, overlapping)."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
    total = max(0, len(doc) - n + 1)
    counts = Counter(doc[i : i + n] for i in range(total))
    return GramCounts(counts=dict(counts), n=n, total=total)


def count_subsequence(doc: bytes, pattern: bytes) -> int:
    """Overlapping occurrences of ``pattern`` scanned at every byte offset."""
    if len(pattern) < 1:
        raise ValueError("pattern must be at least one byte")
    if len(doc) < len(pattern):
        return 0
    data = np.frombuffer(doc, dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(data, len(pattern))
    return int((windows == np.frombuffer(pattern, dtype=np.uint8)).all(axis=1).sum())
