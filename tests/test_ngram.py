import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@st.composite
def batches(draw):
    """(documents as term lists, base): 0-6 documents, some shorter than 3 terms."""
    base = draw(st.sampled_from([2, 3, 16, 85, 256]))
    docs = draw(st.lists(st.lists(st.integers(0, base - 1), max_size=9), max_size=6))
    return docs, base


@settings(max_examples=150, deadline=None)
@given(batch=batches(), n=st.integers(1, 3))
@example(batch=([], 16), n=1)
@example(batch=([[1], [], [2, 3], [0, 1, 2]], 4), n=3)
def test_gram_table_equals_a_per_document_counter_in_code_then_doc_order(batch, n):
    docs, base = batch
    want = {}
    for d, terms in enumerate(docs):
        for i in range(len(terms) - n + 1):
            code = 0
            for t in terms[i : i + n]:
                code = code * base + t
            want[code, d] = want.get((code, d), 0) + 1
    flat = np.array([t for terms in docs for t in terms], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum([len(t) for t in docs]))).astype(np.int64)
    doc, code, count = gram_table(flat, offsets, n, base)
    got = list(zip(code.tolist(), doc.tolist(), count.tolist()))
    assert got == [(c, d, k) for (c, d), k in sorted(want.items())]
