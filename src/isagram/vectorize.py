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
``gram_table`` gives the distinct (doc, code, count) triples for each
n = 1, 2, 3 from one sort of shift-packed int64 keys, in the order its
reader wants.  The 1- and 2-gram tables are doc-major, so their TF-IDF
blocks already lie in CSR order.  The 3-gram table is code-major, so its
distinct codes are its runs: selection ranks only those, and the vocabulary
lookup searches each of them once; its block alone is then sorted into rank
order within each row.  ``_csr`` writes each block straight into the rows,
with no sort of the whole batch.  One pass over n reads each table both to
fit and to transform.  ``FeatureConfig.fit_transform`` fits a schema and
returns the training rows from one such pass, and ``transform_rows`` applies
a fitted schema to new documents; rows leave as CSR.
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
    codes count in is the schema's (``FeatureSchema.alphabet``).
    """

    codes3: np.ndarray
    idf1: np.ndarray
    idf2: np.ndarray
    idf3: np.ndarray
    fit_corpus_size: int

    def __post_init__(self):
        order = np.argsort(self.codes3)
        object.__setattr__(self, "sorted3", self.codes3[order])
        object.__setattr__(self, "pos3", order.astype(np.int64))


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

    Raises ValueError (TypeError for a term that is not a string) unless the
    terms are distinct and each is written as ``gram3_terms`` writes one: six
    lowercase hex digits, or three symbols of ``alphabet``.
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
    codes = symbols.reshape(-1, width) @ len(digits) ** np.arange(width - 1, -1, -1)
    ordered = np.sort(codes)  # np.unique would import numpy.ma, 12 ms of every predict
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("3-gram terms repeat")
    return codes


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

    Returns the flat code array and offsets of length len(docs) + 1; in char
    mode the whole batch is encoded in one ``codec.encode_digits`` call.
    """
    payloads = [d.payload for d in docs]
    if encoding is not None:
        digits, offsets = codec.encode_digits(encoding, payloads)
        symbols = np.frombuffer(encoding.alphabet.encode("ascii"), dtype=np.uint8)
        return np.argsort(np.argsort(symbols))[digits], offsets  # digit -> rank
    flat = np.frombuffer(b"".join(payloads), dtype=np.uint8).astype(np.int64)
    return flat, np.concatenate(([0], np.cumsum([len(p) for p in payloads], dtype=np.int64)))


def gram_table(
    flat: np.ndarray, offsets: np.ndarray, n: int, base: int, doc_major: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc, code, count) of every distinct length-n window of every document.

    Documents are ``flat[offsets[d]:offsets[d+1]]``; windows advance one term
    and never cross document boundaries.  A window's code is its terms read
    as base-``base`` digits.  Each window gets one int64 key, its code and doc
    packed with shifts, and one sort of the keys yields the table: sorted by
    code, then doc (``code << doc_bits | doc``), or with ``doc_major`` by doc,
    then code (``doc << code_bits | code``), which is the order of CSR rows.
    """
    n_docs = offsets.shape[0] - 1
    m = max(flat.shape[0] - (n - 1), 0)  # windows of the flat array, doc ends ignored
    code = flat[:m].astype(np.int64)
    for j in range(1, n):
        code *= base
        code += flat[j : j + m]
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(offsets))[:m]
    high, low = (doc, code) if doc_major else (code, doc)
    low_bits = (base**n - 1 if doc_major else n_docs - 1).bit_length()
    key = np.left_shift(high, low_bits, out=high)
    key |= low
    keep = np.ones(m, dtype=bool)
    for j in range(1, n):  # a window starting j terms before a doc's end runs past it
        start = offsets[1:] - j
        keep[start[(start >= offsets[:-1]) & (start < m)]] = False
    key = key[keep]
    key.sort()
    first = np.flatnonzero(_run_starts(key))
    count = np.diff(first, append=key.shape[0])
    high, low = key[first] >> low_bits, key[first] & ((1 << low_bits) - 1)
    doc, code = (high, low) if doc_major else (low, high)
    # int32 halves the tables' memory: docs, codes (< 256**3) and counts all fit
    return doc.astype(np.int32), code.astype(np.int32), count.astype(np.int32)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where a sorted array holds a value it did not hold just before."""
    new = np.empty(a.shape[0], dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return new


def _find(sorted_keys: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Index of each code in ``sorted_keys``, or -1 where it is absent."""
    j = np.searchsorted(sorted_keys, code)
    found = j < sorted_keys.shape[0]
    found[found] = sorted_keys[j[found]] == code[found]
    return np.where(found, j, -1)


def _idf(df: np.ndarray, d_total: int) -> np.ndarray:
    return np.log((d_total + 1.0) / (df + 1.0)) + 1.0


def _select3(code: np.ndarray, count: np.ndarray, pool: np.ndarray, slot: np.ndarray,
             base: int, ngram3_cap: int):
    """The top 3-gram codes of a training table by total count, and their df.

    All base^3 candidates compete when they fit under the cap (fixed block);
    otherwise only the grams observed in training (``pool``, with ``slot``
    the index of each table row's code in it) enter the ranking.  Ties keep
    ascending code order.
    """
    if base ** 3 <= ngram3_cap:
        pool, slot = np.arange(base ** 3), code
    totals = np.bincount(slot, weights=count, minlength=pool.shape[0])
    ranked = np.argsort(-totals, kind="stable")[:ngram3_cap]
    return pool[ranked].astype(np.int64), np.bincount(slot, minlength=pool.shape[0])[ranked]


def _tfidf(flat: np.ndarray, offsets: np.ndarray, base: int, vocab=None,
           ngram3_cap: int = NGRAM3_CAP, normalize: bool = True):
    """Fit a vocabulary on a batch's terms (when ``vocab`` is None) and its
    TF x IDF blocks, one (row, col, value) block per n, in one pass over n;
    rows are scaled to unit norm if ``normalize``.

    Each count table is read both to fit and to transform, so only one is
    alive at a time.  The 1- and 2-gram tables are counted doc-major, so their
    blocks come out in CSR order.  The 3-gram table is code-major, which keeps
    the selection and the vocabulary lookup linear; its block alone is then
    sorted from code to rank order within each row.
    """
    d_total, lengths = offsets.shape[0] - 1, np.diff(offsets)
    idfs, blocks, norm_sq = [], [], np.zeros(d_total)
    for n in (1, 2, 3):
        doc, code, count = gram_table(flat, offsets, n, base, doc_major=n < 3)
        if n == 3:  # the table's runs: its distinct codes, and each row's run
            new = _run_starts(code)
            pool, slot = code[new], np.cumsum(new) - 1
        if vocab is not None:
            idfs.append((vocab.idf1, vocab.idf2, vocab.idf3)[n - 1])
        elif n < 3:  # a table row per (doc, distinct gram): bincount over codes is df
            idfs.append(_idf(np.bincount(code, minlength=base ** n), d_total))
        else:
            codes3, df3 = _select3(code, count, pool, slot, base, ngram3_cap)
            idfs.append(_idf(df3, d_total))
            vocab = GramVocabulary(codes3, *idfs, d_total)
        if n == 3:  # vocabulary grams only; a gram's slot is its rank position
            j = _find(vocab.sorted3, pool)[slot]  # one lookup per distinct code
            doc, count, code = doc[j >= 0], count[j >= 0], vocab.pos3[j[j >= 0]]
        tf_scale = 1.0 / (lengths[doc] - (n - 1))  # windows of length n per doc
        value = count * (idfs[-1][code] * tf_scale)
        if normalize:  # each row's squares add up in (n, code) order, one at a time
            np.add.at(norm_sq, doc, value * value)
        if n == 3:  # code to rank order within each row
            key = doc.astype(np.int64) << vocab.codes3.shape[0].bit_length()
            order = np.argsort(key | code)
            doc, code, value = doc[order], code[order], value[order]
        blocks.append((doc, (0, base, base + base * base)[n - 1] + code, value))
    if normalize:
        norms = np.sqrt(norm_sq)
        for doc, _, value in blocks:
            value /= norms[doc]  # only rows that hold an entry
    return vocab, blocks


def _hist_blocks(schema: FeatureSchema, docs: Sequence[Document]):
    """(row, col, value) blocks of symbol frequencies and endianness probe rates."""
    flat, offsets = _terms(docs, schema.encoding)
    doc, code, count = gram_table(flat, offsets, 1, schema.base, doc_major=True)
    hist = (doc, code, count / np.diff(offsets)[doc])
    if schema.is_char:  # the probes always read raw bytes
        flat, offsets = _terms(docs, None)
    slot = _PROBE_SLOT[flat[:-1] * 256 + flat[1:]]
    at = np.flatnonzero(slot >= 0)  # probe windows, some running past their doc's end
    doc = np.searchsorted(offsets, at, side="right") - 1
    inside = at + 1 < offsets[doc + 1]
    k = len(ENDIAN_PATTERNS)
    hits = np.bincount(doc[inside] * k + slot[at[inside]], minlength=len(docs) * k).reshape(-1, k)
    doc, slot = np.nonzero(hits)  # row-major
    rate = hits[doc, slot] * (1.0 / np.diff(offsets)[doc])
    return [hist, (doc, schema.base + slot, rate)]


def _csr(n_docs: int, width: int, blocks) -> CsrRows:
    """CSR rows (n_docs, width) from (row, col, value) blocks.

    Each block is sorted by row, then column, and every column of a block lies
    below those of the next, so a row is its blocks' runs laid end to end:
    each value is written straight to its place, with no sort.  Each block is
    taken off the list once written, so its memory is free for the next.
    """
    counts = [np.bincount(doc, minlength=n_docs) for doc, _, _ in blocks]
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(sum(counts), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1], dtype=np.float64)
    filled = indptr[:-1].copy()  # where each row's next block starts
    for count in counts:
        doc, col, value = blocks.pop(0)
        shift = filled - (np.cumsum(count) - count)  # block position -> row position
        at = shift[doc]
        at += np.arange(doc.shape[0])
        indices[at], data[at] = col, value
        filled += count
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
        # shrinking (without them peak RSS on protocol-byte was ~8 % higher).
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
