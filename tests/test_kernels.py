"""The n-gram count table, the one counting kernel under every feature."""

import numpy as np

from isagram.vectorize import gram_table


def test_window_codes_edges():
    one = np.array([0, 1], dtype=np.int64)
    doc, code, count = gram_table(np.array([3], dtype=np.int64), one, 2, 16)
    assert doc.shape == code.shape == count.shape == (0,)
    three = np.array([0, 3], dtype=np.int64)
    _, code, count = gram_table(np.array([1, 2, 3], dtype=np.int64), three, 2, 16)
    assert code.tolist() == [1 * 16 + 2, 2 * 16 + 3]
    assert count.tolist() == [1, 1]


def test_gram_stats_small_example():
    # doc [1, 1, 2]: 1-gram counts 1->2 2->1, df all 1; 2-grams (1,1) and (1,2)
    flat = np.array([1, 1, 2], dtype=np.int64)
    offsets = np.array([0, 3], dtype=np.int64)
    doc, code, count = gram_table(flat, offsets, 1, 4)
    counts = np.bincount(code, weights=count, minlength=16)
    df = np.bincount(code, minlength=16)
    assert counts[1] == 2 and counts[2] == 1
    assert df[1] == 1 and df[2] == 1
    _, code2, count2 = gram_table(flat, offsets, 2, 4)
    counts2 = np.bincount(code2, weights=count2, minlength=16)
    assert counts2[1 * 4 + 1] == 1 and counts2[1 * 4 + 2] == 1


def test_windows_never_cross_documents():
    # docs [1, 2] and [3]: the window (2, 3) spans the boundary and is not counted
    flat = np.array([1, 2, 3], dtype=np.int64)
    offsets = np.array([0, 2, 3], dtype=np.int64)
    doc, code, count = gram_table(flat, offsets, 2, 4)
    assert list(zip(doc.tolist(), code.tolist(), count.tolist())) == [(0, 1 * 4 + 2, 1)]
    doc, code, count = gram_table(flat, offsets, 1, 4)
    assert list(zip(doc.tolist(), code.tolist())) == [(0, 1), (0, 2), (1, 3)]
