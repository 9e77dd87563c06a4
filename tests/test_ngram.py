import numpy as np

from isagram import codec
from isagram.corpus import Document
from isagram.rng import SplitMix64
from isagram.vectorize import encode_batch, gram_table


def naive_grams(doc, n):
    """Quadratic-ish reference counter, deliberately naive."""
    out = {}
    for i in range(len(doc)):
        if i + n <= len(doc):
            g = doc[i : i + n]
            out[g] = out.get(g, 0) + 1
    return out


def table_grams(doc: bytes, n: int) -> dict:
    """{gram: count} of one byte document, read off the batch gram table."""
    flat = np.frombuffer(doc, dtype=np.uint8).astype(np.int64)
    _, code, count = gram_table(flat, np.array([0, len(doc)]), n, 256)
    return {c.to_bytes(n, "big"): k for c, k in zip(code.tolist(), count.tolist())}


def test_window_count_law():
    rng = SplitMix64(1)
    for _ in range(200):
        length = rng.randbelow(40)
        doc = bytes(rng.randbyte() for _ in range(length))
        for n in (1, 2, 3):
            assert sum(table_grams(doc, n).values()) == max(0, length - n + 1)


def test_extract_matches_naive_oracle():
    rng = SplitMix64(2)
    for _ in range(1000):
        doc = bytes(rng.randbyte() % 8 for _ in range(rng.randbelow(24)))
        for n in (1, 2, 3):
            assert table_grams(doc, n) == naive_grams(doc, n)


def test_extract_works_on_text():
    # b"\xab\xab" is the Base16 text "ABAB"; char grams count its symbols
    batch = encode_batch([Document(b"\xab\xab", None, "q")], codec.BASE16)
    _, code, count = batch.table(2)
    alphabet = sorted(codec.BASE16.alphabet)
    pairs = zip(code.tolist(), count.tolist())
    grams = {alphabet[c // 16] + alphabet[c % 16]: k for c, k in pairs}
    assert grams == {"AB": 2, "BA": 1}


def test_overlapping_windows():
    assert table_grams(b"\x00\x00\x00", 2) == {b"\x00\x00": 2}


def test_permutation_sensitivity():
    doc = b"\x01\x02\x03"
    assert table_grams(doc, 2) != table_grams(doc[::-1], 2)
    # 1-gram counts are permutation-invariant by contrast
    assert table_grams(doc, 1) == table_grams(doc[::-1], 1)
