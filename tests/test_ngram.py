import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isagram import codec
from isagram.corpus import Document
from isagram.rng import SplitMix64
from isagram.vectorize import _terms, gram_table


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
    flat, offsets = _terms([Document(b"\xab\xab", None, "q")], codec.BASE16)
    _, code, count = gram_table(flat, offsets, 2, 16)
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


def counter_table(docs, n, base, doc_major=False) -> list:
    """(doc, code, count) of the length-n windows of term lists, counted one
    document at a time; sorted by doc, then code if ``doc_major``, else by
    code, then doc."""
    want = {}
    for d, terms in enumerate(docs):
        for i in range(len(terms) - n + 1):
            code = 0
            for t in terms[i : i + n]:
                code = code * base + t
            want[d, code] = want.get((d, code), 0) + 1
    triples = [(d, c, k) for (d, c), k in want.items()]
    return sorted(triples, key=lambda t: t[:2] if doc_major else (t[1], t[0]))


def batch_table(docs, n, base, doc_major=False, dtype=np.int64) -> list:
    flat = np.array([t for terms in docs for t in terms], dtype=dtype)
    offsets = np.concatenate(([0], np.cumsum([len(t) for t in docs]))).astype(np.int64)
    doc, code, count = gram_table(flat, offsets, n, base, doc_major)
    return list(zip(doc.tolist(), code.tolist(), count.tolist()))


@settings(max_examples=150, deadline=None)
@given(batch=batches(), n=st.integers(1, 3))
@example(batch=([], 16), n=1)
@example(batch=([[1], [], [2, 3], [0, 1, 2]], 4), n=3)
def test_gram_table_equals_a_per_document_counter_in_code_then_doc_order(batch, n):
    docs, base = batch
    assert batch_table(docs, n, base) == counter_table(docs, n, base)


@settings(max_examples=150, deadline=None)
@given(batch=batches(), n=st.integers(1, 3))
@example(batch=([], 16), n=1)
@example(batch=([[1], [], [2, 3], [0, 1, 2]], 4), n=3)
def test_doc_major_gram_table_equals_a_per_document_counter_in_doc_then_code_order(batch, n):
    docs, base = batch
    assert batch_table(docs, n, base, True) == counter_table(docs, n, base, True)


@pytest.mark.parametrize("doc_major", [False, True])
def test_gram_table_keys_past_int32_equal_the_counter(doc_major):
    # 2**16 + 1 documents need 17 doc bits and byte 3-grams 24 code bits: 41 in
    # all, so a key packed or shifted in 32 bits (the table's doc width) would wrap
    docs = np.random.default_rng(3).integers(0, 256, size=(2**16 + 1, 3)).tolist()
    assert batch_table(docs, 3, 256, doc_major) == counter_table(docs, 3, 256, doc_major)


@pytest.mark.parametrize("doc_major", [False, True])
@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
@pytest.mark.parametrize("n_docs", [2**15, 2**15 + 1, 2**16])
def test_gram_table_at_the_int32_key_edge_equals_the_counter(n_docs, dtype, doc_major):
    # byte 2-grams take 16 code bits: 2**15 documents take 15 doc bits, so keys
    # fill 31 bits; one more document makes 32 bits, whose top bit an int32 key
    # would read as a sign (both are uint32); at 2**16 documents the largest
    # real key is all ones, the value that cuts off a boundary window
    docs = np.random.default_rng(5).integers(0, 256, size=(n_docs, 3)).tolist()
    docs[-1] = [255, 255, 255]  # the largest code in the last document: the largest key
    assert batch_table(docs, 2, 256, doc_major, dtype) == counter_table(docs, 2, 256, doc_major)
