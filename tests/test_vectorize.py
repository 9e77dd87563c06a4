import csv
import hashlib
import io
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_tfidf as oracle
from isagram import codec, corpus, vectorize
from isagram.corpus import Corpus, Document
from isagram.evaluate import FeatureConfig
from isagram.sparse import CsrRows
from isagram.vectorize import (
    FeatureSchema,
    gram3_terms,
    gram_table,
    terms3_to_codes,
    transform_rows,
)


def rand_corpus(seed, n_docs, max_len, label=None):
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        length = rng.randint(1, max_len)
        docs.append(Document(bytes(rng.randrange(256) for _ in range(length)), label, str(i)))
    return Corpus(docs)


def oracle_codes3(vocab, base, alphabet):
    grams3 = vocab[base + base * base :]
    if alphabet is None:
        return [(g[0] * base + g[1]) * base + g[2] for g in grams3]
    rank = {ch: i for i, ch in enumerate(alphabet)}
    return [(rank[g[0]] * base + rank[g[1]]) * base + rank[g[2]] for g in grams3]


# ---------------------------------------------------------------------------
# the n-gram count table, the one counting kernel under every feature
# ---------------------------------------------------------------------------

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


def test_rank_order_keys_past_int32_keep_each_row_apart():
    # the 3-gram block goes from code to rank order within each row by a sort
    # of doc << rank_bits | rank keys: with 2**18 + 1 rows and a 5000-gram
    # vocabulary (13 bits) they pass 2**31, where keys of int32 doc ids wrap
    c = corpus.generate_synthetic(corpus.default_isa_specs(12), 20, 66, seed=5)
    schema = FeatureConfig("tfidf_byte").fit_transform(c)[0]
    assert schema.vocab.codes3.shape[0] == 5000
    last = c.documents[-1]
    short = np.random.default_rng(4).integers(0, 256, size=3 * 2**18)
    flat = np.concatenate((short, np.frombuffer(last.payload, dtype=np.uint8))).astype(np.int64)
    offsets = np.append(np.arange(0, 3 * 2**18 + 1, 3), flat.shape[0])
    blocks = vectorize._tfidf(flat, offsets, 256, schema.vocab)[1]
    rows = vectorize._csr(2**18 + 1, schema.dimension, blocks).check()
    alone = transform_rows(schema, [last])
    lo, hi = rows.indptr[-2:]
    assert np.array_equal(rows.indices[lo:hi], alone.indices)
    assert np.array_equal(rows.data[lo:hi], alone.data)
    assert (rows.indices[lo:hi] >= 256 + 65536).sum() > 10  # the row holds 3-grams


ONE_COUNT_CONFIGS = [FeatureConfig("tfidf_byte"), FeatureConfig("hist_endian_byte")] + [
    FeatureConfig(method, enc)
    for method in ("tfidf_char", "hist_endian_char")
    for enc in codec.ENCODINGS.values()
]


@pytest.mark.parametrize("config", ONE_COUNT_CONFIGS, ids=FeatureConfig.describe)
def test_fit_transform_matches_fit_then_transform(config):
    train = rand_corpus(5, 9, 70)
    # the rows of the one-pass fit equal the fitted schema applied to the same
    # documents afresh (the vocabulary itself is checked against the oracle)
    schema, rows = config.fit_transform(train)
    want = transform_rows(schema, train.documents)
    assert schema.method == config.method and schema.dimension == want.shape[1]
    assert rows.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(rows, name), getattr(want, name))


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("normalize", [True, False])
def test_tfidf_matches_oracle_byte(normalize):
    train = rand_corpus(11, 8, 20)
    extra = rand_corpus(12, 3, 20)  # unseen docs exercise out-of-vocabulary grams
    schema = FeatureConfig("tfidf_byte", normalize=normalize).fit_transform(train)[0]
    seqs = [oracle.seq_of(d.payload, "byte") for d in train]
    vocab, idf = oracle.oracle_fit(seqs, oracle.alphabet_of("byte"))
    assert schema.vocab.codes3.tolist() == oracle_codes3(vocab, 256, None)
    docs = list(train) + list(extra)
    got = transform_rows(schema, docs).toarray()
    want = np.array(
        [oracle.oracle_transform(oracle.seq_of(d.payload, "byte"), vocab, idf, normalize) for d in docs]
    )
    assert got.shape == (len(docs), schema.dimension)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("name", ["base16", "base32", "base64", "base85"])
def test_tfidf_matches_oracle_char(name):
    enc = codec.get_encoding(name)
    train = rand_corpus(21, 6, 16)
    schema = FeatureConfig("tfidf_char", enc).fit_transform(train)[0]
    seqs = [oracle.seq_of(d.payload, "char", enc) for d in train]
    alphabet = oracle.alphabet_of("char", enc)
    vocab, idf = oracle.oracle_fit(seqs, alphabet)
    assert schema.vocab.codes3.tolist() == oracle_codes3(vocab, len(alphabet), alphabet)
    got = transform_rows(schema, train.documents).toarray()
    want = np.array(
        [oracle.oracle_transform(s, vocab, idf) for s in seqs]
    )
    assert np.max(np.abs(got - want)) < 1e-12


PAYLOADS = st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=5)


def check_against_oracle(mode, enc, train, unseen, normalize):
    # short payloads (1 and 2 bytes) leave the higher-n blocks of a row empty
    corp = Corpus([Document(p, None, str(i)) for i, p in enumerate(train)])
    schema, rows = FeatureConfig(f"tfidf_{mode}", enc, normalize=normalize).fit_transform(corp)
    alphabet = oracle.alphabet_of(mode, enc)
    vocab, idf = oracle.oracle_fit([oracle.seq_of(p, mode, enc) for p in train], alphabet)
    v = schema.vocab
    assert v.codes3.tolist() == oracle_codes3(vocab, len(alphabet), None if enc is None else alphabet)
    got_idf = np.concatenate([v.idf1, v.idf2, v.idf3])
    assert np.max(np.abs(got_idf - [idf[g] for g in vocab])) < 1e-12
    unseen_docs = [Document(p, None, f"u{i}") for i, p in enumerate(unseen)]
    for payloads, got in ((train, rows), (unseen, transform_rows(schema, unseen_docs))):
        want = [
            oracle.oracle_transform(oracle.seq_of(p, mode, enc), vocab, idf, normalize)
            for p in payloads
        ]
        assert np.max(np.abs(got.toarray() - np.array(want))) < 1e-12


# the byte oracle walks all 65 536 2-grams per row, so it gets fewer examples
@settings(max_examples=8, deadline=None)
@given(train=PAYLOADS, unseen=PAYLOADS, normalize=st.booleans())
def test_tfidf_byte_equals_the_oracle_on_random_corpora(train, unseen, normalize):
    check_against_oracle("byte", None, train, unseen, normalize)


@settings(max_examples=40, deadline=None)
@given(
    train=PAYLOADS, unseen=PAYLOADS, normalize=st.booleans(),
    enc=st.sampled_from(sorted(codec.ENCODINGS.values(), key=lambda e: e.name)),
)
def test_tfidf_char_equals_the_oracle_on_random_corpora(train, unseen, normalize, enc):
    check_against_oracle("char", enc, train, unseen, normalize)


# bytes of the four probes, so short random documents hit them often
PROBE_BYTES = st.sampled_from([0x00, 0x01, 0xFE, 0xFF, 0x41])


@settings(max_examples=60, deadline=None)
@given(
    payloads=st.lists(st.lists(PROBE_BYTES, min_size=1, max_size=3).map(bytes), min_size=1, max_size=8),
    enc=st.sampled_from([None] + sorted(codec.ENCODINGS.values(), key=lambda e: e.name)),
)
def test_hist_rows_equal_the_oracle_on_short_documents(payloads, enc):
    # a 2-byte window spanning two documents would add a probe hit the oracle lacks
    mode = "byte" if enc is None else "char"
    docs = [Document(p, None, str(i)) for i, p in enumerate(payloads)]
    got = transform_rows(FeatureSchema(f"hist_endian_{mode}", enc), docs).toarray()
    want = np.array([oracle.oracle_hist_endian(p, mode, enc) for p in payloads])
    assert np.max(np.abs(got - want)) < 1e-12


def test_hist_matches_oracle():
    c = rand_corpus(31, 10, 24)
    for mode, enc in [("byte", None), ("char", codec.BASE32)]:
        got = transform_rows(FeatureSchema(f"hist_endian_{mode}", enc), c.documents).toarray()
        want = np.array([oracle.oracle_hist_endian(d.payload, mode, enc) for d in c])
        assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------------------
# pinned feature bytes
# ---------------------------------------------------------------------------

# sha256 over the dtype and bytes of indptr, indices and data of every
# pinned_feature_rows() array; the oracle tests compare at 1e-12, so they
# cannot see a last-bit change, and this pin can.  A change that moves a
# stored value on purpose records the new value and says in CHANGES why.
FEATURES_SHA256 = "84d0d994e724351de4a3271fa2874a2a1a684eb92ab3db4fe9498ca30be511e6"

PINNED_CONFIGS = (
    [FeatureConfig("tfidf_byte")]
    + [FeatureConfig("tfidf_char", enc) for enc in codec.ENCODINGS.values()]
    + [
        FeatureConfig("hist_endian_byte"),
        FeatureConfig("hist_endian_char", codec.BASE85),
        FeatureConfig("tfidf_char", codec.BASE32, normalize=False),
        FeatureConfig("tfidf_byte", ngram3_cap=0),
    ]
)


def pinned_feature_rows() -> list[CsrRows]:
    """fit_transform and transform_rows rows of every pinned config, in order.

    240 documents of about 66 bytes: the byte 3-grams outnumber the cap, so
    the ranked selection runs, and base16's fixed block does too."""
    c = corpus.generate_synthetic(corpus.default_isa_specs(12), 20, 66, seed=5)
    train = Corpus([d for i, d in enumerate(c) if i % 4])
    held = Corpus([d for i, d in enumerate(c) if not i % 4])
    out = []
    for config in PINNED_CONFIGS:
        schema, rows = config.fit_transform(train)
        out += [rows, transform_rows(schema, held.documents)]
    return out


def features_digest(all_rows) -> str:
    digest = hashlib.sha256()
    for rows in all_rows:
        for a in (rows.indptr, rows.indices, rows.data):
            digest.update(a.dtype.str.encode())
            digest.update(a.tobytes())
    return digest.hexdigest()


def test_feature_bytes_are_pinned():
    all_rows = pinned_feature_rows()
    assert features_digest(all_rows) == FEATURES_SHA256
    assert sum(rows.data.shape[0] for rows in all_rows) > 100_000


def test_one_ulp_in_one_stored_value_moves_the_pinned_digest():
    all_rows = pinned_feature_rows()
    data = all_rows[0].data
    data[7] = np.nextafter(data[7], np.inf)
    assert features_digest(all_rows) != FEATURES_SHA256


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

def test_dimension_table():
    c = rand_corpus(41, 120, 160)
    assert FeatureConfig("tfidf_byte").fit_transform(c)[0].dimension == 70792
    expected = {"base16": 4368, "base32": 6056, "base64": 9160, "base85": 12310}
    for name, dim in expected.items():
        schema = FeatureConfig("tfidf_char", codec.get_encoding(name)).fit_transform(c)[0]
        assert schema.dimension == dim
    assert FeatureSchema("hist_endian_byte").dimension == 260
    hist_dims = {"base16": 20, "base32": 36, "base64": 68, "base85": 89}
    for name, dim in hist_dims.items():
        assert FeatureSchema("hist_endian_char", codec.get_encoding(name)).dimension == dim


def test_base16_grams3_block_is_always_full():
    c = Corpus([Document(b"\x00", None, "a"), Document(b"\x01", None, "b")])
    schema = FeatureConfig("tfidf_char", codec.BASE16).fit_transform(c)[0]
    assert schema.vocab.codes3.shape[0] == 4096  # 16^3 <= cap: unobserved included
    assert schema.dimension == 4368


def test_byte_grams3_block_shrinks_below_cap():
    c = Corpus([Document(b"\x00\x01\x02\x03", None, "a")])
    schema = FeatureConfig("tfidf_byte").fit_transform(c)[0]
    assert schema.vocab.codes3.shape[0] == 2  # only observed 3-grams compete
    assert schema.dimension == 256 + 65536 + 2


def test_grams3_rank_order_and_tiebreak():
    docs = [
        Document(b"\x05\x06\x07" * 3 + b"\x01\x02\x03", None, "a"),
        Document(b"\x01\x02\x03\x09\x08\x07", None, "b"),
    ]
    schema = FeatureConfig("tfidf_byte").fit_transform(Corpus(docs))[0]
    codes = schema.vocab.codes3.tolist()

    def code(g):
        return (g[0] * 256 + g[1]) * 256 + g[2]

    assert codes[0] == code(b"\x05\x06\x07")  # 3 occurrences beat everything
    twice = sorted(code(g) for g in (b"\x01\x02\x03", b"\x06\x07\x05", b"\x07\x05\x06"))
    assert codes[1:4] == twice  # count ties resolve in ascending code order
    assert codes[4:] == sorted(codes[4:])  # the once-seen remainder, code order


def test_ngram3_cap_parameter():
    c = rand_corpus(43, 30, 60)
    schema = FeatureConfig("tfidf_byte", ngram3_cap=500).fit_transform(c)[0]
    assert schema.vocab.codes3.shape[0] == 500
    assert schema.dimension == 256 + 65536 + 500


# ---------------------------------------------------------------------------
# idf values and properties
# ---------------------------------------------------------------------------

def test_idf_example_values():
    c = Corpus(
        [
            Document(b"\xd7\xd7", None, "1"),
            Document(b"\xd7\x01", None, "2"),
            Document(b"\xd7\x02", None, "3"),
        ]
    )
    idf1 = FeatureConfig("tfidf_byte").fit_transform(c)[0].vocab.idf1
    assert idf1[0xD7] == 1.0  # present in all D docs: ln(1) + 1
    assert idf1[0x01] == pytest.approx(math.log(2.0) + 1.0, abs=1e-12)
    assert idf1[0x03] == pytest.approx(math.log(4.0) + 1.0, abs=1e-12)  # unobserved


def test_idf_monotone_in_document_frequency():
    c = rand_corpus(51, 12, 30)
    vocab = FeatureConfig("tfidf_byte").fit_transform(c)[0].vocab
    df = np.zeros(256, dtype=int)
    for d in c:
        for b in set(d.payload):
            df[b] += 1
    for a in range(256):
        for b in range(a + 1, 256):
            if df[a] < df[b]:
                assert vocab.idf1[a] > vocab.idf1[b]
            elif df[a] == df[b]:
                assert vocab.idf1[a] == vocab.idf1[b]


def test_common_gram_attenuation():
    docs = [Document(bytes([0xAA, i]), None, str(i)) for i in range(4)]
    schema = FeatureConfig("tfidf_byte", normalize=False).fit_transform(Corpus(docs))[0]
    assert schema.vocab.idf1[0xAA] == 1.0  # in every doc: the minimum idf
    row = transform_rows(schema, [Document(b"\xaa\xbb", None, "q")]).toarray()[0]
    # equal TF, but the ubiquitous gram must not win the argmax
    assert row[0xAA] > 0.0
    assert np.argmax(row[:256]) == 0xBB


# ---------------------------------------------------------------------------
# transform edge cases
# ---------------------------------------------------------------------------

def test_single_byte_doc_normalizes_to_unit_spike():
    schema = FeatureConfig("tfidf_byte").fit_transform(rand_corpus(61, 5, 10))[0]
    row = transform_rows(schema, [Document(b"\xd7", None, "q")]).toarray()[0]
    assert row[0xD7] == 1.0
    assert np.count_nonzero(row) == 1


def test_short_docs_zero_higher_blocks():
    schema = FeatureConfig("tfidf_byte", normalize=False).fit_transform(rand_corpus(62, 5, 10))[0]
    row2 = transform_rows(schema, [Document(b"\x10\x11", None, "q")]).toarray()[0]
    assert np.count_nonzero(row2[256 + 65536 :]) == 0
    assert np.count_nonzero(row2[256 : 256 + 65536]) == 1
    row1 = transform_rows(schema, [Document(b"\x10", None, "q")]).toarray()[0]
    assert np.count_nonzero(row1[256:]) == 0


def test_unit_norm_unless_disabled():
    c = rand_corpus(64, 8, 40)
    on = transform_rows(FeatureConfig("tfidf_byte").fit_transform(c)[0], c.documents)
    on = on.toarray()
    norms = np.linalg.norm(on, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    raw = FeatureConfig("tfidf_byte", normalize=False).fit_transform(c)[0]
    off = transform_rows(raw, c.documents).toarray()
    off_norms = np.linalg.norm(off, axis=1)
    assert np.max(np.abs(off_norms - 1.0)) > 1e-6  # raw magnitudes survive
    rescaled = off / off_norms[:, None]
    assert np.max(np.abs(rescaled - on)) < 1e-12


def test_length_robustness_constant_payload():
    train = list(rand_corpus(65, 6, 30)) + [Document(b"\x90" * 16, None, "k")]
    schema = FeatureConfig("tfidf_byte").fit_transform(Corpus(train))[0]
    base = transform_rows(schema, [Document(b"\x90" * 37, None, "a")]).toarray()[0]
    for k in (2, 3, 8):
        dup = transform_rows(schema, [Document(b"\x90" * (37 * k), None, "b")]).toarray()[0]
        assert np.max(np.abs(dup - base)) < 1e-12


def test_length_robustness_general_payload():
    payload = bytes([0xAB, 0xCD] * 80)
    train = Corpus([Document(payload, None, "t")])
    schema = FeatureConfig("tfidf_byte", normalize=False).fit_transform(train)[0]
    one = transform_rows(schema, [Document(payload, None, "a")]).toarray()[0]
    two = transform_rows(schema, [Document(payload * 2, None, "b")]).toarray()[0]
    # 1-gram TFs are scale-free: 2c/2L = c/L up to accumulation rounding
    assert np.max(np.abs(two[:256] - one[:256])) < 1e-12
    # junction windows shift higher-n TFs by O(1/L), no further
    assert np.max(np.abs(two - one)) < 4.0 / len(payload)


# ---------------------------------------------------------------------------
# histogram + endianness
# ---------------------------------------------------------------------------

HIST_BYTE = FeatureSchema("hist_endian_byte")


def test_hist_byte_example():
    row = transform_rows(HIST_BYTE, [Document(b"\x00\x01", None, "q")]).toarray()[0]
    assert row[0] == 0.5 and row[1] == 0.5
    assert np.count_nonzero(row[:256]) == 2
    assert row[256:].tolist() == [0.5, 0.0, 0.0, 0.0]


def test_hist_char_base16_example():
    schema = FeatureSchema("hist_endian_char", codec.BASE16)
    row = transform_rows(schema, [Document(b"\xd7\x43", None, "q")]).toarray()[0]
    assert row.shape == (20,)
    alphabet = sorted(codec.BASE16.alphabet)
    for ch in "D743":
        assert row[alphabet.index(ch)] == 0.25
    assert np.count_nonzero(row[:16]) == 4
    assert not row[16:].any()


def test_hist_endian_patterns():
    row = transform_rows(HIST_BYTE, [Document(b"\xff\xfe", None, "q")]).toarray()[0]
    assert row[256:].tolist() == [0.0, 0.0, 0.5, 0.0]
    big = transform_rows(HIST_BYTE, [Document(b"\x00\x01\x00\x01", None, "q")]).toarray()[0]
    assert big[256:].tolist() == [0.5, 0.25, 0.0, 0.0]  # overlap-counted, / 4 bytes


def test_hist_char_endianness_uses_raw_bytes():
    doc = Document(b"\x00\x01\xfe\xff", None, "q")
    row = transform_rows(FeatureSchema("hist_endian_char", codec.BASE64), [doc]).toarray()[0]
    assert row[64:].tolist() == [0.25, 0.0, 0.0, 0.25]


def test_histogram_block_sums_to_one():
    for mode, enc in [("byte", None), ("char", codec.BASE85)]:
        schema = FeatureSchema(f"hist_endian_{mode}", enc)
        rows = transform_rows(schema, rand_corpus(71, 10, 50).documents).toarray()
        sums = rows[:, : schema.base].sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9


# ---------------------------------------------------------------------------
# schema validation and persistence helpers
# ---------------------------------------------------------------------------

def test_schema_validation():
    with pytest.raises(ValueError):
        FeatureSchema(method="tfidf_bits")
    with pytest.raises(ValueError):
        FeatureSchema(method="tfidf_char")  # no encoding
    with pytest.raises(ValueError):
        FeatureSchema(method="hist_endian_byte", encoding=codec.BASE16)
    with pytest.raises(ValueError):
        FeatureSchema(method="tfidf_byte")  # unfitted
    with pytest.raises(ValueError):
        FeatureConfig("tfidf_byte").fit_transform(Corpus([]))
    with pytest.raises(ValueError):
        FeatureConfig("tfidf_hex")
    with pytest.raises(ValueError):
        FeatureConfig("tfidf_byte", codec.BASE16)
    with pytest.raises(ValueError):
        FeatureConfig("tfidf_byte", ngram3_cap=-1)


def test_gram3_terms_roundtrip():
    byte_schema = FeatureConfig("tfidf_byte").fit_transform(rand_corpus(81, 6, 20))[0]
    terms = gram3_terms(byte_schema.vocab.codes3, byte_schema.alphabet)
    assert all(len(t) == 6 for t in terms)
    back = terms3_to_codes(terms, None)
    assert np.array_equal(back, byte_schema.vocab.codes3)

    char_config = FeatureConfig("tfidf_char", codec.BASE32)
    char_schema = char_config.fit_transform(rand_corpus(82, 6, 20))[0]
    terms = gram3_terms(char_schema.vocab.codes3, char_schema.alphabet)
    assert all(len(t) == 3 for t in terms)
    back = terms3_to_codes(terms, char_schema.alphabet)
    assert np.array_equal(back, char_schema.vocab.codes3)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_features_roundtrip(tmp_path):
    c = rand_corpus(91, 6, 24, label="x86")
    schema, fitted = FeatureConfig("tfidf_char", codec.BASE16).fit_transform(c)
    path = tmp_path / "features.csv"
    assert vectorize.export_features(fitted, c, path) == 6
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7
    assert rows[0][:2] == ["id", "label"]
    assert rows[0][2:] == [f"f{i}" for i in range(schema.dimension)]
    want = transform_rows(schema, c.documents).toarray()
    for row, doc, expect in zip(rows[1:], c, want):
        assert row[0] == doc.id and row[1] == "x86"
        assert np.array_equal(np.array([float(v) for v in row[2:]]), expect)


def test_export_features_quotes_a_comma_or_quote_as_csv_writer_does(tmp_path):
    c = Corpus([Document(b"\x01\x02", "x86,64", 'say "hi"'),
                Document(b"\x03\x04", 'say "hi"', "x86,64"),
                Document(b"\x05\x06", None, "plain")])
    _, rows = FeatureConfig("hist_endian_byte").fit_transform(c)
    path = tmp_path / "features.csv"
    vectorize.export_features(rows, c, path)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert [row[:2] for row in got[1:]] == [['say "hi"', "x86,64"], ["x86,64", 'say "hi"'],
                                             ["plain", ""]]
    lines = path.read_text().splitlines()
    for line, row in zip(lines[1:], got[1:]):
        text = io.StringIO()
        csv.writer(text, lineterminator="").writerow(row)
        assert line == text.getvalue()
    assert lines[3].startswith("plain,,")


def test_export_features_empty_corpus(tmp_path):
    path = tmp_path / "empty.csv"
    _, rows = FeatureConfig("hist_endian_byte").fit_transform(Corpus([]))
    assert vectorize.export_features(rows, Corpus([]), path) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("id,label,f0,") and lines[0].endswith(f",f{259}")


def test_export_features_memory_stays_near_one_row(tmp_path):
    # 300 tfidf-byte rows of 70 792 float64 cells are 170 MB when dense; the
    # export may hold about one row at a time, so peak RSS grows a few MB
    script = """
import resource, sys
from isagram import corpus, vectorize
c = corpus.generate_synthetic(corpus.default_isa_specs(12), 25, 66, 3)
_, rows = vectorize.FeatureConfig("tfidf_byte").fit_transform(c)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
vectorize.export_features(rows, c, sys.argv[1])
print(rows.shape[1], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    src = os.path.dirname(os.path.dirname(vectorize.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "f.csv")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    width, growth_kib = int(out[0]), int(out[1])
    one_row_kib = width * 8 / 1024
    assert growth_kib < 40 * one_row_kib  # 300 rows at once would be 300
