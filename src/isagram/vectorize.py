"""Feature schemas and document-to-vector transforms.

Three feature families over object-code payloads:

* byte-level (1,2,3)-gram TF-IDF over the raw bytes,
* character-level (1,2,3)-gram TF-IDF over a binary-to-text encoding,
* symbol histogram + four 2-byte endianness pattern rates (baseline).

TF uses a per-window-length denominator (count / number of length-n
windows); IDF is the smoothed natural-log form ln((D+1)/(df+1)) + 1; the
concatenated vector is scaled to unit Euclidean norm unless the schema
disables it.  1- and 2-gram blocks enumerate the full alphabet; the 3-gram
block holds the top-ranked grams by training occurrence count (ascending
code order breaking ties), capped at 5000.

The alphabet, and with it every column, follows from the schema's encoding
alone (``FeatureSchema.alphabet``): a term is a raw byte, or in char mode a
character's rank in the sorted alphabet, and a vocabulary holds only what
was fitted on top of that.  Each batch is encoded once (``_terms``; in char
mode one vectorised ``codec.encode_digits`` call) and counted once:
Terms are uint8, and ``gram_table`` gives the distinct (doc, code, count)
triples for each n = 1, 2, 3 from one sort of shift-packed unsigned keys
(uint32 up to 32 bits, else uint64), in the order its reader wants;
windows that run past their document's end sort last and are cut off.  The
1- and 2-gram tables are doc-major, so their TF-IDF blocks already lie in
CSR order.  The 3-gram table is code-major, so its distinct codes are its
runs: a fit ranks only those, partitioning to the cap and sorting what it
keeps, and a transform looks each of them up once in the vocabulary; its
entries alone are then put into rank order within each row by one in-place
sort of packed (doc, col, count) keys (``_row_order``).  Every block is doc-major
and carries per-document entry counts, so TF scales, norms and row positions
are ``np.repeat``s of per-document arrays, not gathers through the uint32
tables; ``_csr`` writes each block straight into the rows, with no sort of the
whole batch.  One pass over n reads each table both to fit and to transform.
``FeatureConfig.fit_transform`` fits a schema and returns the training rows
from one such pass, and ``transform_rows`` applies a fitted schema to new
documents; rows leave as CSR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import codec
from .corpus import Corpus, Document
from .sparse import CsrRows

NGRAM3_CAP = 5000

TFIDF_METHODS = ("tfidf_byte", "tfidf_char")
HIST_METHODS = ("hist_endian_byte", "hist_endian_char")
METHODS = TFIDF_METHODS + HIST_METHODS

# 2-byte probe patterns, in feature order: 0x0001, 0x0100, 0xfffe, 0xfeff
ENDIAN_PATTERNS = (b"\x00\x01", b"\x01\x00", b"\xff\xfe", b"\xfe\xff")
# the feature slot of each raw 2-byte window code: its pattern's position, or -1
_PROBE_SLOT = np.full(1 << 16, -1, dtype=np.int8)
_PROBE_SLOT[[p[0] * 256 + p[1] for p in ENDIAN_PATTERNS]] = np.arange(len(ENDIAN_PATTERNS))


@dataclass(frozen=True, eq=False)
class GramVocabulary:
    """Selected 3-gram codes and IDF weights learned from a training corpus.

    1- and 2-gram blocks are implicit full enumerations in code order, so
    only the selected 3-gram codes are stored (in rank order, which is the
    feature-block order).  ``idf3`` aligns with ``codes3``.  The alphabet the
    codes count in is the schema's (``FeatureSchema.alphabet``).  Raises
    ValueError if a code repeats: its second column could never be reached.
    """

    codes3: np.ndarray
    idf1: np.ndarray
    idf2: np.ndarray
    idf3: np.ndarray
    fit_corpus_size: int

    def __post_init__(self):
        order = np.argsort(self.codes3)
        sorted3 = self.codes3[order]
        if (sorted3[1:] == sorted3[:-1]).any():  # np.unique would import numpy.ma: 12 ms
            raise ValueError("3-gram codes repeat")
        object.__setattr__(self, "sorted3", sorted3)
        object.__setattr__(self, "pos3", order)


def term_alphabet(encoding: Optional[codec.Encoding]) -> Optional[str]:
    """The sorted symbols whose ranks are the term codes; None in byte mode."""
    return None if encoding is None else "".join(sorted(encoding.alphabet))


def gram3_terms(codes3: np.ndarray, alphabet: Optional[str]) -> list[str]:
    """3-gram codes as text: hex triples (byte mode, ``alphabet`` None) or 3-char runs."""
    b = 256 if alphabet is None else len(alphabet)
    syms = np.stack((codes3 // (b * b), codes3 // b % b, codes3 % b), axis=1).tolist()
    if alphabet is None:
        return [bytes(s).hex() for s in syms]
    return ["".join(alphabet[i] for i in s) for s in syms]


def terms3_to_codes(terms: Sequence[str], alphabet: Optional[str]) -> np.ndarray:
    """Inverse of ``gram3_terms``, for model deserialization.

    Raises ValueError (TypeError for a term that is not a string) unless each
    term is written as ``gram3_terms`` writes one: six lowercase hex digits, or
    three symbols of ``alphabet``.  ``GramVocabulary`` checks that they are distinct.
    """
    # a byte 3-gram's code is its six hex digits read in base 16
    digits, width = ("0123456789abcdef", 6) if alphabet is None else (alphabet, 3)
    text = "".join(terms)  # TypeError unless every term is a string
    if any(len(t) != width for t in terms):
        raise ValueError(f"3-gram terms must be {width} characters long")
    value = np.full(128, -1, dtype=np.int64)  # every alphabet is ASCII
    value[np.frombuffer(digits.encode("ascii"), dtype=np.uint8)] = np.arange(len(digits))
    symbols = value[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    if (symbols < 0).any():
        raise ValueError("3-gram terms hold a character outside the alphabet")
    return symbols.reshape(-1, width) @ len(digits) ** np.arange(width - 1, -1, -1)


def _check_method(method: str, encoding: Optional[codec.Encoding]) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown feature method {method!r}")
    if method.endswith("_char") and encoding is None:
        raise ValueError(f"{method} requires an encoding")
    if not method.endswith("_char") and encoding is not None:
        raise ValueError(f"{method} does not take an encoding")


@dataclass(frozen=True, eq=False)
class FeatureSchema:
    method: str  # tfidf_byte | tfidf_char | hist_endian_byte | hist_endian_char
    encoding: Optional[codec.Encoding] = None
    vocab: Optional[GramVocabulary] = None
    normalize: bool = True

    def __post_init__(self):  # also guards schemas read back from model files
        _check_method(self.method, self.encoding)
        if self.is_tfidf and self.vocab is None:
            raise ValueError(f"{self.method} schema must be fitted (FeatureConfig.fit_transform)")
        if not self.is_tfidf and self.vocab is not None:
            raise ValueError(f"{self.method} schema takes no vocabulary")
        if self.vocab is not None:
            v, b = self.vocab, self.base
            if (v.idf1.shape, v.idf2.shape, v.idf3.shape) != ((b,), (b * b,), v.codes3.shape):
                raise ValueError("IDF vector lengths do not match the vocabulary")
            d = v.fit_corpus_size
            if type(d) is not int or d < 1:
                raise ValueError(f"fit_corpus_size must be an integer >= 1, got {d!r}")
            top = np.log(d + 1.0) + 1.0  # what _idf gives a gram in none of the d documents
            if not all(((idf >= 1.0) & (idf <= top)).all() for idf in (v.idf1, v.idf2, v.idf3)):
                raise ValueError(f"IDF values must lie in [1, log({d} + 1) + 1]")

    @property
    def is_tfidf(self) -> bool:
        return self.method in TFIDF_METHODS

    @property
    def is_char(self) -> bool:
        return self.method.endswith("_char")

    @property
    def alphabet(self) -> Optional[str]:
        return term_alphabet(self.encoding)

    @property
    def base(self) -> int:
        return len(self.encoding.alphabet) if self.is_char else 256

    @property
    def dimension(self) -> int:
        b = self.base
        if self.is_tfidf:
            return b + b * b + self.vocab.codes3.shape[0]
        return b + len(ENDIAN_PATTERNS)


def _terms(docs: Sequence[Document], encoding) -> tuple[np.ndarray, np.ndarray]:
    """Term codes of a batch (byte values or sorted-alphabet ranks), concatenated.

    Returns the flat uint8 code array and offsets of length len(docs) + 1; in
    char mode the whole batch is encoded in one ``codec.encode_digits`` call.
    """
    payloads = [d.payload for d in docs]
    if encoding is not None:
        digits, offsets = codec.encode_digits(encoding, payloads)
        symbols = np.frombuffer(encoding.alphabet.encode("ascii"), dtype=np.uint8)
        rank = np.argsort(np.argsort(symbols)).astype(np.uint8)  # digit -> rank, < 85
        return rank.take(digits), offsets  # take: a uint8 fancy index is twice as slow
    flat = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    return flat, np.concatenate(([0], np.cumsum([len(p) for p in payloads], dtype=np.int64)))


def gram_table(
    flat: np.ndarray, offsets: np.ndarray, n: int, base: int, doc_major: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc, code, count) of every distinct length-n window of every document.

    Documents are ``flat[offsets[d]:offsets[d+1]]``; windows advance one term
    and never cross document boundaries.  A window's code is its terms read
    as base-``base`` digits.  Each window gets one key, its code and doc
    packed with shifts, and one sort of the keys yields the table: sorted by
    code, then doc (``code << doc_bits | doc``), or with ``doc_major`` by doc,
    then code (``doc << code_bits | code``), which is the order of CSR rows.
    Keys are uint32 when code and doc bits add up to at most 32, else uint64.
    A window that runs past its document's end gets the key type's largest
    value instead, so it sorts last and the sorted keys are cut before it; a
    real key equal to that value is interchangeable with it.
    """
    n_docs = offsets.shape[0] - 1
    m = max(flat.shape[0] - (n - 1), 0)  # windows of the flat array, doc ends ignored
    code_bits, doc_bits = (base**n - 1).bit_length(), (n_docs - 1).bit_length()
    dtype = _key_dtype(code_bits + doc_bits)
    code = flat[:m].astype(dtype)
    for j in range(1, n):
        code *= base
        np.add(code, flat[j : j + m], out=code, casting="unsafe", dtype=dtype)  # terms < base
    doc = np.repeat(np.arange(n_docs, dtype=dtype), np.diff(offsets))[:m]
    high, low = (doc, code) if doc_major else (code, doc)
    low_bits = code_bits if doc_major else doc_bits
    key = np.left_shift(high, low_bits, out=high)
    key |= low
    past = 0
    for j in range(1, n):  # a window starting j terms before a doc's end runs past it
        start = offsets[1:] - j
        start = start[(start >= offsets[:-1]) & (start < m)]
        key[start] = np.iinfo(dtype).max  # sorts last, to be cut off
        past += start.shape[0]
    del doc, code, high, low  # free the window arrays: only the keys are sorted and read
    key.sort()
    bounds = _run_bounds(key[: m - past])
    head = key[bounds[:-1]]
    del key
    high = head >> low_bits
    head &= (1 << low_bits) - 1
    doc, code = (high, head) if doc_major else (head, high)
    # uint32 halves the tables' memory: docs, codes (< 256**3) and counts all fit
    return (doc.astype(np.uint32, copy=False), code.astype(np.uint32, copy=False),
            np.diff(bounds).astype(np.uint32))


def _key_dtype(bits: int):
    """The type of packed keys of ``bits`` value bits: uint32 up to 32, else uint64."""
    return np.uint32 if bits <= 32 else np.uint64


def _run_bounds(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values in sorted ``a`` starts, then ``len(a)``."""
    new = np.empty(a.shape[0] + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:-1])
    return np.flatnonzero(new)


def _row_counts(doc: np.ndarray, n_docs: int) -> np.ndarray:
    """Rows per document of a doc-major table."""
    return np.diff(np.searchsorted(doc, np.arange(n_docs + 1, dtype=doc.dtype)))


def _find(vocab: GramVocabulary, code: np.ndarray) -> np.ndarray:
    """Rank of each 3-gram code in ``vocab``, or -1 where it was not selected."""
    j = np.searchsorted(vocab.sorted3, code)
    found = j < vocab.sorted3.shape[0]
    found[found] = vocab.sorted3[j[found]] == code[found]
    rank = np.full(code.shape[0], -1, dtype=np.int64)
    rank[found] = vocab.pos3[j[found]]
    return rank


def _idf(df: np.ndarray, d_total: int) -> np.ndarray:
    return np.log((d_total + 1.0) / (df + 1.0)) + 1.0


def _select3(code: np.ndarray, count: np.ndarray, bounds: np.ndarray, base: int,
             ngram3_cap: int):
    """The top 3-gram codes of a code-major training table by total count,
    their df, and the rank of each distinct code the table holds (-1 if not
    selected).

    The table's distinct codes are its runs, bounded by ``bounds``: a run's
    length is its code's df.  Only observed grams enter the ranking, by total
    count with ties in ascending code order: the keys are unique, so a
    partition to the cap keeps the same grams, and only those are sorted.
    When all base^3 candidates fit under the cap (fixed block), the never
    observed ones follow in code order with df 0.
    """
    first = bounds[:-1]
    pool, df = code[first], np.diff(bounds)
    totals = np.add.reduceat(count, first, dtype=np.int64)
    idx_bits = pool.shape[0].bit_length()
    key = (totals.max(initial=0) - totals) << idx_bits
    key |= np.arange(pool.shape[0])
    if key.shape[0] > ngram3_cap:  # the keys are unique: the cap smallest, then their order
        key.partition(ngram3_cap)
        key = key[:ngram3_cap]
    key.sort()
    ranked = key & ((1 << idx_bits) - 1)
    rank = np.full(pool.shape[0], -1, dtype=np.int64)
    rank[ranked] = np.arange(ranked.shape[0])
    codes3, df3 = pool[ranked].astype(np.int64), df[ranked]
    if base ** 3 <= ngram3_cap:  # the fixed block
        unseen = np.ones(base ** 3, dtype=bool)
        unseen[pool] = False
        unseen = np.flatnonzero(unseen)
        codes3, df3 = np.append(codes3, unseen), np.append(df3, np.zeros_like(unseen))
    return codes3, df3, rank


def _tfidf(flat: np.ndarray, offsets: np.ndarray, base: int, vocab=None,
           ngram3_cap: int = NGRAM3_CAP, normalize: bool = True):
    """Fit a vocabulary on a batch's terms (when ``vocab`` is None) and its
    TF x IDF blocks, one (rows, col, value) block per n, in one pass over n;
    rows are scaled to unit norm if ``normalize``.

    Only one count table is alive at a time.  The 1- and 2-gram tables are
    doc-major, so their blocks come out in CSR order.  The 3-gram table is
    code-major: a fit ranks its runs (its distinct codes), a transform looks
    each one up, and each entry takes its run's rank as its column.  Its norms
    add in code order; then ``_row_order`` puts its entries in rank order in
    each row, where the same product gives their values the same bits.  Blocks
    carry per-document entry counts (``rows``): TF and norms are ``np.repeat``s."""
    d_total, lengths = offsets.shape[0] - 1, np.diff(offsets)
    fit, idfs, blocks, norm_sq = vocab is None, [], [], np.zeros(d_total)
    for n in (1, 2, 3):
        doc, code, count = gram_table(flat, offsets, n, base, doc_major=n < 3)
        # windows of length n per doc; one shorter than n has no rows of this n
        tf_scale = 1.0 / np.maximum(lengths - (n - 1), 1)
        if n < 3:  # a table row per (doc, distinct gram): bincount over codes is df
            col, rows = code.astype(np.intp), _row_counts(doc, d_total)
            idfs.append(_idf(np.bincount(col, minlength=base ** n), d_total) if fit
                        else (vocab.idf1, vocab.idf2)[n - 1])
            tf_scale = np.repeat(tf_scale, rows)
        else:  # the table's runs: its distinct codes, and each row's run
            bounds = _run_bounds(code)
            if fit:
                codes3, df3, rank = _select3(code, count, bounds, base, ngram3_cap)
                vocab = GramVocabulary(codes3, *idfs, _idf(df3, d_total), d_total)
            else:
                rank = _find(vocab, code[bounds[:-1]])
            idfs.append(vocab.idf3)
            col = np.repeat(rank, np.diff(bounds))  # a vocabulary gram's column is its rank
            keep = col >= 0
            doc, count, col = doc[keep].astype(np.intp), count[keep], col[keep]
        if n < 3 or normalize:  # 3-gram values in code order serve the norms alone
            value = count * (idfs[-1][col] * (tf_scale if n < 3 else tf_scale[doc]))
        if normalize:  # each row's squares add up in (n, code) order, one at a time
            np.add.at(norm_sq, doc, value * value)
        if n == 3:  # code to rank order within each row; the same product keeps its bits
            doc, col, count = _row_order(doc, col, count)
            value, rows = count * (idfs[-1][col] * tf_scale[doc]), _row_counts(doc, d_total)
        col += (0, base, base + base * base)[n - 1]
        blocks.append((rows, col, value))
    if normalize:
        norms = np.sqrt(norm_sq)
        for rows, _, value in blocks:
            value /= np.repeat(norms, rows)
    return vocab, blocks


def _row_order(doc: np.ndarray, col: np.ndarray, count: np.ndarray):
    """(doc, col, count) of unique (doc, col) entries sorted by doc, then col: one
    in-place sort of ``doc << (col_bits + cnt_bits) | col << cnt_bits | count``
    keys of ``_key_dtype`` (past 64 bits a lexsort).  Docs and cols leave as intp."""
    doc_bits, col_bits, cnt_bits = (int(a.max(initial=0)).bit_length() for a in (doc, col, count))
    if doc_bits + col_bits + cnt_bits > 64:
        order = np.lexsort((col, doc))
        return doc[order], col[order], count[order]
    key = doc.astype(_key_dtype(doc_bits + col_bits + cnt_bits))
    for part, bits in ((col, col_bits), (count, cnt_bits)):
        key <<= bits
        np.bitwise_or(key, part, out=key, casting="unsafe", dtype=key.dtype)  # part fits its bits
    key.sort()
    col = (key >> cnt_bits & ((1 << col_bits) - 1)).astype(np.intp)
    return (key >> (col_bits + cnt_bits)).astype(np.intp), col, key & ((1 << cnt_bits) - 1)


def _hist_blocks(schema: FeatureSchema, docs: Sequence[Document]):
    """Doc-major (rows, col, value) blocks of symbol frequencies and endianness probe rates."""
    flat, offsets = _terms(docs, schema.encoding)
    doc, code, count = gram_table(flat, offsets, 1, schema.base, doc_major=True)
    rows = _row_counts(doc, len(docs))
    hist = (rows, code.astype(np.intp), count / np.repeat(np.diff(offsets), rows))
    if schema.is_char:  # the probes always read raw bytes
        flat, offsets = _terms(docs, None)
    slot = _PROBE_SLOT[flat[:-1].astype(np.int64) * 256 + flat[1:]]  # uint8 * 256 overflows
    at = np.flatnonzero(slot >= 0)  # probe windows, some running past their doc's end
    doc = np.searchsorted(offsets, at, side="right") - 1
    inside = at + 1 < offsets[doc + 1]
    k = len(ENDIAN_PATTERNS)
    hits = np.bincount(doc[inside] * k + slot[at[inside]], minlength=len(docs) * k)
    cell = np.flatnonzero(hits)  # row-major
    rows = np.count_nonzero(hits.reshape(-1, k), axis=1)
    rate = hits[cell] * np.repeat(1.0 / np.diff(offsets), rows)
    return [hist, (rows, schema.base + cell % k, rate)]


def _csr(n_docs: int, width: int, blocks) -> CsrRows:
    """CSR rows (n_docs, width) from (rows, col, value) blocks, ``rows`` being
    each document's entry count.

    Each block is sorted by row, then column, and every column of a block lies
    below those of the next, so a row is its blocks' runs laid end to end:
    each value is written straight to its place, with no sort.  Each block is
    taken off the list once written, so its memory is free for the next.
    """
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(sum(rows for rows, _, _ in blocks), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1], dtype=np.float64)
    filled = indptr[:-1].copy()  # where each row's next block starts
    while blocks:
        rows, col, value = blocks.pop(0)
        at = np.repeat(filled - (np.cumsum(rows) - rows), rows)  # block position -> row position
        at += np.arange(at.shape[0])
        indices[at], data[at] = col, value
        filled += rows
    return CsrRows(indptr, indices, data, (n_docs, width))


@dataclass(frozen=True)
class FeatureConfig:
    """One feature method, ready to be fitted on a training corpus."""

    method: str  # tfidf_byte | tfidf_char | hist_endian_byte | hist_endian_char
    encoding: Optional[codec.Encoding] = None
    ngram3_cap: int = NGRAM3_CAP
    normalize: bool = True

    def __post_init__(self):
        _check_method(self.method, self.encoding)
        if self.ngram3_cap < 0:
            raise ValueError("ngram3_cap must be >= 0")

    def describe(self) -> str:
        name = self.method.replace("_", "-")
        return f"{name}:{self.encoding.name}" if self.encoding else name

    def fit_transform(self, train: Corpus) -> tuple[FeatureSchema, CsrRows]:
        """The schema fitted on ``train`` and its rows, from one encode and count of the batch.

        Histogram schemas have nothing to fit; TF-IDF needs a nonempty corpus.
        """
        if self.method in HIST_METHODS:
            schema = FeatureSchema(self.method, self.encoding)
            return schema, transform_rows(schema, train.documents)
        if len(train) == 0:
            raise ValueError("cannot fit TF-IDF features on an empty corpus")
        base = len(self.encoding.alphabet) if self.encoding else 256
        flat, offsets = _terms(train.documents, self.encoding)
        vocab, blocks = _tfidf(flat, offsets, base, None, self.ngram3_cap, self.normalize)
        schema = FeatureSchema(self.method, self.encoding, vocab, self.normalize)
        rows = _csr(len(train), schema.dimension, blocks)
        # The vocabulary outlives the pass but was allocated among its count tables;
        # fresh copies, made once those are freed, do not keep the freed heap from
        # shrinking.  That pays where glibc's default thresholds hold: without them
        # `isagram train` (tfidf-byte, cnb) peaked at 59.4 against 57.1 MiB.
        arrays = (np.copy(a) for a in (vocab.codes3, vocab.idf1, vocab.idf2, vocab.idf3))
        vocab = GramVocabulary(*arrays, vocab.fit_corpus_size)
        return FeatureSchema(self.method, self.encoding, vocab, self.normalize), rows


def transform_rows(schema: FeatureSchema, docs: Sequence[Document]) -> CsrRows:
    """Feature rows for a batch of documents, as CSR rows (len(docs), dimension)."""
    if schema.is_tfidf:
        flat, offsets = _terms(docs, schema.encoding)
        blocks = _tfidf(flat, offsets, schema.base, schema.vocab, normalize=schema.normalize)[1]
    else:
        blocks = _hist_blocks(schema, docs)
    return _csr(len(docs), schema.dimension, blocks)


def csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted where csv.writer's QUOTE_MINIMAL quotes it
    (a Document's label or id holds no line break)."""
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


def export_features(rows: CsrRows, corpus: Corpus, path) -> int:
    """CSV export of ``corpus``'s feature rows: header id,label,f0..f{d-1};
    full-precision decimal values."""
    if rows.shape[0] != len(corpus):
        raise ValueError(f"{rows.shape[0]} feature rows for {len(corpus)} documents")
    with open(path, "w", encoding="utf-8") as fh:
        header = ["id", "label"] + [f"f{i}" for i in range(rows.shape[1])]
        fh.write(",".join(header) + "\n")
        bounds = rows.indptr.tolist()
        for r, d in enumerate(corpus):
            # one row at a time, straight from its stored values
            cells = ["0.0"] * rows.shape[1]
            for j, v in zip(rows.indices[bounds[r] : bounds[r + 1]].tolist(),
                            rows.data[bounds[r] : bounds[r + 1]].tolist()):
                cells[j] = repr(v)
            label = d.label if d.label is not None else ""
            fh.write(",".join([csv_field(d.id), csv_field(label), *cells]) + "\n")
    return len(corpus)
