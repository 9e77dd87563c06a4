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

Fitting and transforming both read one ``gram_table`` per batch: the
distinct (doc, code, count) triples for n = 1, 2, 3.  Transforms emit CSR
rows (``transform_rows``); ``transform_matrix`` is their dense view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import codec
from .corpus import Corpus, Document
from .ngram import count_subsequence
from .sparse import CsrRows

NGRAM3_CAP = 5000

TFIDF_METHODS = ("tfidf_byte", "tfidf_char")
HIST_METHODS = ("hist_endian_byte", "hist_endian_char")
METHODS = TFIDF_METHODS + HIST_METHODS

# 2-byte probe patterns, in feature order: 0x0001, 0x0100, 0xfffe, 0xfeff
ENDIAN_PATTERNS = (b"\x00\x01", b"\x01\x00", b"\xff\xfe", b"\xfe\xff")
# the patterns as raw-byte 2-gram codes in ascending order, and their feature slots
_PROBE_CODES, _PROBE_COLS = (
    np.array(x, dtype=np.int64)
    for x in zip(*sorted((p[0] * 256 + p[1], j) for j, p in enumerate(ENDIAN_PATTERNS)))
)


@dataclass(frozen=True, eq=False)
class GramVocabulary:
    """Term coordinates and IDF weights learned from a training corpus.

    1- and 2-gram blocks are implicit full enumerations in code order, so
    only the selected 3-gram codes are stored (in rank order, which is the
    feature-block order).  ``idf3`` aligns with ``codes3``.
    """

    base: int
    alphabet: Optional[str]  # sorted symbol string (char mode) or None (byte)
    codes3: np.ndarray
    idf1: np.ndarray
    idf2: np.ndarray
    idf3: np.ndarray
    fit_corpus_size: int

    def __post_init__(self):
        order = np.argsort(self.codes3)
        object.__setattr__(self, "sorted3", self.codes3[order])
        object.__setattr__(self, "pos3", order.astype(np.int64))

    @property
    def dimension(self) -> int:
        return self.base + self.base * self.base + self.codes3.shape[0]

    def gram3_terms(self) -> list[str]:
        """Selected 3-grams as text, block order: hex triples or 3-char runs."""
        b = self.base
        out = []
        for c in self.codes3.tolist():
            syms = (c // (b * b), (c // b) % b, c % b)
            if self.alphabet is None:
                out.append(bytes(syms).hex())
            else:
                out.append("".join(self.alphabet[s] for s in syms))
        return out


def terms3_to_codes(terms: Sequence[str], alphabet: Optional[str]) -> np.ndarray:
    """Inverse of GramVocabulary.gram3_terms for model deserialization."""
    b = 256 if alphabet is None else len(alphabet)
    codes = []
    for t in terms:
        syms = bytes.fromhex(t) if alphabet is None else [alphabet.index(ch) for ch in t]
        codes.append((syms[0] * b + syms[1]) * b + syms[2])
    return np.asarray(codes, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class FeatureSchema:
    method: str  # tfidf_byte | tfidf_char | hist_endian_byte | hist_endian_char
    encoding: Optional[codec.Encoding] = None
    vocab: Optional[GramVocabulary] = None
    normalize: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown feature method {self.method!r}")
        if self.is_char and self.encoding is None:
            raise ValueError(f"{self.method} requires an encoding")
        if not self.is_char and self.encoding is not None:
            raise ValueError(f"{self.method} does not take an encoding")
        if self.is_tfidf and self.vocab is None:
            raise ValueError(f"{self.method} schema must be fitted (fit_tfidf)")

    @property
    def is_tfidf(self) -> bool:
        return self.method in TFIDF_METHODS

    @property
    def is_char(self) -> bool:
        return self.method.endswith("_char")

    @property
    def base(self) -> int:
        return len(self.encoding.alphabet) if self.is_char else 256

    @property
    def dimension(self) -> int:
        if self.is_tfidf:
            return self.vocab.dimension
        return self.base + len(ENDIAN_PATTERNS)


@dataclass(frozen=True, eq=False)
class FeatureVector:
    values: np.ndarray
    schema: FeatureSchema


def hist_schema(mode: str, encoding: Optional[codec.Encoding] = None) -> FeatureSchema:
    """Static histogram+endianness schema; no fitting step exists or is needed."""
    _check_mode(mode, encoding)
    method = "hist_endian_byte" if mode == "byte" else "hist_endian_char"
    return FeatureSchema(method=method, encoding=encoding)


def _check_mode(mode: str, encoding: Optional[codec.Encoding]) -> None:
    if mode not in ("byte", "char"):
        raise ValueError(f"mode must be 'byte' or 'char', got {mode!r}")
    if (mode == "char") != (encoding is not None):
        raise ValueError("encoding must be supplied iff mode is 'char'")


def _char_lut(encoding: codec.Encoding) -> np.ndarray:
    lut = np.full(128, -1, dtype=np.int64)
    for i, ch in enumerate(sorted(encoding.alphabet)):
        lut[ord(ch)] = i
    return lut


_LUT_CACHE: dict[str, np.ndarray] = {}


def _flat_codes(
    payloads: Sequence[bytes], is_char: bool, encoding
) -> tuple[np.ndarray, np.ndarray]:
    """Term codes of a batch (byte values or alphabet ranks), concatenated.

    Returns the flat code array and offsets of length len(payloads) + 1.
    """
    if is_char:
        texts = [codec.strip_padding(encoding, codec.encode(encoding, p)) for p in payloads]
        if encoding.name not in _LUT_CACHE:
            _LUT_CACHE[encoding.name] = _char_lut(encoding)
        raw = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
        flat, lengths = _LUT_CACHE[encoding.name][raw], [len(t) for t in texts]
    else:
        flat = np.frombuffer(b"".join(payloads), dtype=np.uint8).astype(np.int64)
        lengths = [len(p) for p in payloads]
    offsets = np.zeros(len(payloads) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return flat, offsets


def gram_table(
    flat: np.ndarray, offsets: np.ndarray, n: int, base: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc, code, count) of every distinct length-n window of every document.

    Documents are ``flat[offsets[d]:offsets[d+1]]``; windows advance one term
    and never cross document boundaries.  A window's code is its terms read
    as base-``base`` digits.  Triples come sorted by doc, then code.
    """
    n_docs = offsets.shape[0] - 1
    nwin = np.maximum(np.diff(offsets) - (n - 1), 0)
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), nwin)
    first_window = np.cumsum(nwin) - nwin
    starts = offsets[:-1][doc] + np.arange(doc.shape[0]) - first_window[doc]
    code = flat[starts].astype(np.int64)
    for j in range(1, n):
        code = code * base + flat[starts + j]
    span = base ** n
    keys, count = np.unique(doc * span + code, return_counts=True)
    return keys // span, keys % span, count


def _find(sorted_keys: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Index of each code in ``sorted_keys``, or -1 where it is absent."""
    j = np.searchsorted(sorted_keys, code)
    found = j < sorted_keys.shape[0]
    found[found] = sorted_keys[j[found]] == code[found]
    return np.where(found, j, -1)


def fit_tfidf(
    train: Corpus,
    mode: str,
    encoding: Optional[codec.Encoding] = None,
    ngram3_cap: int = NGRAM3_CAP,
    normalize: bool = True,
) -> FeatureSchema:
    """Learn the gram vocabulary and IDF weights from a training corpus."""
    _check_mode(mode, encoding)
    if len(train) == 0:
        raise ValueError("cannot fit TF-IDF features on an empty corpus")
    if ngram3_cap < 0:
        raise ValueError("ngram3_cap must be >= 0")
    is_char = mode == "char"
    base = len(encoding.alphabet) if is_char else 256
    flat, offsets = _flat_codes([d.payload for d in train], is_char, encoding)
    # a table row per (doc, distinct gram), so bincount over codes counts documents
    df1 = np.bincount(gram_table(flat, offsets, 1, base)[1], minlength=base)
    df2 = np.bincount(gram_table(flat, offsets, 2, base)[1], minlength=base * base)
    _, code3, count3 = gram_table(flat, offsets, 3, base)
    # all base^3 candidates compete when they fit under the cap (fixed block);
    # otherwise only grams observed in training enter the ranking
    if base ** 3 <= ngram3_cap:
        pool, slot = np.arange(base ** 3), code3
    else:
        pool, slot = np.unique(code3, return_inverse=True)
    totals = np.bincount(slot, weights=count3, minlength=pool.shape[0])
    ranked = np.argsort(-totals, kind="stable")[:ngram3_cap]
    df3 = np.bincount(slot, minlength=pool.shape[0])[ranked]
    d_total = len(train)

    def idf(df: np.ndarray) -> np.ndarray:
        return np.log((d_total + 1.0) / (df + 1.0)) + 1.0

    vocab = GramVocabulary(
        base=base,
        alphabet="".join(sorted(encoding.alphabet)) if is_char else None,
        codes3=pool[ranked].astype(np.int64),
        idf1=idf(df1),
        idf2=idf(df2),
        idf3=idf(df3),
        fit_corpus_size=d_total,
    )
    method = "tfidf_char" if is_char else "tfidf_byte"
    return FeatureSchema(method=method, encoding=encoding, vocab=vocab, normalize=normalize)


def _tfidf_triples(v: GramVocabulary, flat, offsets):
    """(row, col, value) of the unnormalized TF x IDF entries of a batch."""
    lengths = np.diff(offsets)
    blocks = ((1, 0, v.idf1), (2, v.base, v.idf2), (3, v.base + v.base * v.base, v.idf3))
    parts = []
    for n, first_col, idf in blocks:
        doc, code, count = gram_table(flat, offsets, n, v.base)
        if n == 3:  # vocabulary grams only; a gram's slot is its rank position
            j = _find(v.sorted3, code)
            doc, count, code = doc[j >= 0], count[j >= 0], v.pos3[j[j >= 0]]
        tf_scale = 1.0 / (lengths[doc] - (n - 1))  # windows of length n per doc
        parts.append((doc, first_col + code, count * (idf[code] * tf_scale)))
    return tuple(np.concatenate(x) for x in zip(*parts))


def _hist_triples(schema: FeatureSchema, payloads, flat, offsets):
    """(row, col, value) of symbol frequencies and endianness probe rates."""
    doc, code, count = gram_table(flat, offsets, 1, schema.base)
    hist = (doc, code, count / np.diff(offsets)[doc])
    if schema.is_char:  # the probes always read raw bytes
        flat, offsets = _flat_codes(payloads, False, None)
    doc, code, count = gram_table(flat, offsets, 2, 256)
    j = _find(_PROBE_CODES, code)
    doc, count = doc[j >= 0], count[j >= 0]
    rate = count * (1.0 / np.diff(offsets)[doc])
    probes = (doc, schema.base + _PROBE_COLS[j[j >= 0]], rate)
    return tuple(np.concatenate(x) for x in zip(hist, probes))


def transform_rows(schema: FeatureSchema, docs: Sequence[Document]) -> CsrRows:
    """Feature rows for a batch of documents, as CSR rows (len(docs), dimension)."""
    payloads = [d.payload for d in docs]
    flat, offsets = _flat_codes(payloads, schema.is_char, schema.encoding)
    if schema.is_tfidf:
        rows, cols, values = _tfidf_triples(schema.vocab, flat, offsets)
        if schema.normalize:
            norms = np.sqrt(np.bincount(rows, weights=values * values, minlength=len(payloads)))
            values = values / norms[rows]  # only rows that hold an entry
    else:
        rows, cols, values = _hist_triples(schema, payloads, flat, offsets)
    return CsrRows.from_triples(rows, cols, values, (len(payloads), schema.dimension))


def transform_matrix(schema: FeatureSchema, docs: Sequence[Document]) -> np.ndarray:
    """Dense feature rows for a batch of documents, shape (len(docs), dimension)."""
    return transform_rows(schema, docs).toarray()


def transform_tfidf(schema: FeatureSchema, doc: Document) -> FeatureVector:
    """TF x IDF per vocabulary slot, unit-norm unless disabled or all zero."""
    if not schema.is_tfidf:
        raise ValueError(f"schema method {schema.method} is not a TF-IDF method")
    return FeatureVector(transform_matrix(schema, [doc])[0], schema)


def transform_hist_endian(
    mode: str, encoding: Optional[codec.Encoding], doc: Document
) -> FeatureVector:
    """Symbol histogram plus 0x0001/0x0100/0xfffe/0xfeff rates (raw bytes)."""
    schema = hist_schema(mode, encoding)
    return FeatureVector(transform_matrix(schema, [doc])[0], schema)


def simplified_endianness(doc: Document | bytes) -> tuple[int, int]:
    """(big, little) indicator: which of 0x0001 / 0x0100 occurs more; tie -> (0, 0)."""
    payload = doc.payload if isinstance(doc, Document) else doc
    big = count_subsequence(payload, ENDIAN_PATTERNS[0])
    little = count_subsequence(payload, ENDIAN_PATTERNS[1])
    if big > little:
        return (1, 0)
    if little > big:
        return (0, 1)
    return (0, 0)


def export_features(schema: FeatureSchema, corpus: Corpus, path) -> int:
    """CSV export: header id,label,f0..f{d-1}; full-precision decimal values."""
    rows = transform_matrix(schema, corpus.documents)
    with open(path, "w", encoding="utf-8") as fh:
        header = ["id", "label"] + [f"f{i}" for i in range(schema.dimension)]
        fh.write(",".join(header) + "\n")
        for d, row in zip(corpus, rows):
            cells = [d.id, d.label if d.label is not None else ""]
            cells.extend(repr(v) for v in row.tolist())
            fh.write(",".join(cells) + "\n")
    return len(corpus)
