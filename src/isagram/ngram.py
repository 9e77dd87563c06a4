"""Overlapping pattern counts over byte strings.

The window advances one byte at a time and never wraps, so a document of
length L holds max(0, L - n + 1) windows of length n.  The feature
pipeline's batch n-gram counts live in ``vectorize.gram_table``.
"""

from __future__ import annotations

import numpy as np


def count_subsequence(doc: bytes, pattern: bytes) -> int:
    """Overlapping occurrences of ``pattern`` scanned at every byte offset."""
    if len(pattern) < 1:
        raise ValueError("pattern must be at least one byte")
    if len(doc) < len(pattern):
        return 0
    data = np.frombuffer(doc, dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(data, len(pattern))
    return int((windows == np.frombuffer(pattern, dtype=np.uint8)).all(axis=1).sum())
