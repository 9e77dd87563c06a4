"""Corpus ingestion, stratified splitting, and synthetic pseudo-ISA corpora.

Corpora are immutable once constructed.  All randomness (splits, synthetic
generation) flows through the splitmix64 generator in :mod:`isagram.rng`
keyed by explicit seeds, so identical inputs reproduce identical corpora
byte for byte.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from . import codec
from .rng import SplitMix64, derive_seed

log = logging.getLogger("isagram.corpus")


class CorpusError(ValueError):
    """Corpus cannot be built or split as requested."""


# code points a label or id may not hold: ASCII controls, which would split a line
# of predict's output or a CSV row, and surrogates, which UTF-8 cannot encode (a
# JSON escape or a non-UTF-8 file name leaves one)
_UNWRITABLE = re.compile(r"[\x00-\x1f\x7f\ud800-\udfff]")


@dataclass(frozen=True)
class Document:
    """A nonempty payload with its label (None when unknown) and id; raises CorpusError if not."""

    payload: bytes
    label: Optional[str]
    id: str

    def __post_init__(self):
        if not self.payload:
            raise CorpusError("empty payload")
        if self.label is not None and not isinstance(self.label, str):
            raise CorpusError(f"label must be a string or null, got {type(self.label).__name__}")
        if not isinstance(self.id, str):
            raise CorpusError(f"id must be a string, got {type(self.id).__name__}")
        if bad := _UNWRITABLE.search(self.id + (self.label or "")):
            raise CorpusError("label or id is not valid Unicode" if bad[0] > "\x7f"
                              else "label or id holds an ASCII control character")


class Corpus:
    """Ordered, immutable collection of documents with a sorted label set."""

    def __init__(self, documents: Sequence[Document]):
        docs = tuple(documents)
        seen = set()
        for d in docs:
            if d.id in seen:
                raise CorpusError(f"duplicate document id {d.id!r}")
            seen.add(d.id)
        self.documents = docs
        self.label_set = tuple(sorted({d.label for d in docs if d.label is not None}))

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def indices_by_label(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for i, d in enumerate(self.documents):
            if d.label is not None:
                out.setdefault(d.label, []).append(i)
        return out


@dataclass(frozen=True)
class SplitSpec:
    train_per_class: int
    test_per_class: int
    seed: int
    repeats: int = 50

    def __post_init__(self):
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise CorpusError("train/test per-class counts must be >= 1")
        if self.repeats < 1:
            raise CorpusError("repeats must be >= 1")


@dataclass(frozen=True)
class SyntheticIsaSpec:
    """Generation recipe for one pseudo-ISA class.

    ``opcode_distribution`` maps opcode byte prefixes (1..instruction_width
    bytes) to probabilities summing to 1.  Instructions are the prefix plus
    uniform-random operand bytes up to the instruction width; with
    probability ``immediate_small_value_prob`` the instruction carries the
    2-byte value 1 in the spec's byte order (overwriting the last two
    operand bytes, or appended as an extension word on narrow encodings).
    With probability ``noise_zero_prob`` an instruction-width run of 0x00
    is injected after an instruction.
    """

    name: str
    instruction_width: int
    opcode_distribution: dict[bytes, float]
    endianness: str  # "little" | "big"
    noise_zero_prob: float = 0.0
    immediate_small_value_prob: float = 0.0

    def __post_init__(self):
        if self.instruction_width not in (2, 4):
            raise CorpusError("instruction_width must be 2 or 4")
        if self.endianness not in ("little", "big"):
            raise CorpusError("endianness must be 'little' or 'big'")
        if not self.opcode_distribution:
            raise CorpusError("opcode_distribution must be non-empty")
        total = 0.0
        for prefix, p in self.opcode_distribution.items():
            if not 1 <= len(prefix) <= self.instruction_width:
                raise CorpusError(f"opcode prefix {prefix.hex()} longer than instruction")
            if not 0.0 <= p <= 1.0:
                raise CorpusError("opcode probabilities must be in [0, 1]")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise CorpusError(f"opcode probabilities sum to {total}, not 1")
        for p in (self.noise_zero_prob, self.immediate_small_value_prob):
            if not 0.0 <= p <= 1.0:
                raise CorpusError("probabilities must be in [0, 1]")


# ---------------------------------------------------------------------------
# ingestion / export
# ---------------------------------------------------------------------------

def ingest(path: str | Path, fmt: str = "jsonl", allow_empty: bool = False) -> Corpus:
    """Load a corpus from a jsonl file or a <root>/<label>/<file> tree.

    A record that cannot be a ``Document`` (bad JSON, a missing or
    undecodable payload, or a payload, label or id that ``Document``
    refuses) is skipped with a warning; only a corpus with zero valid
    records is an error unless ``allow_empty`` is set, and a file that is
    not UTF-8 text is one too.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus path does not exist: {path}")
    if fmt == "jsonl":
        return Corpus(list(iter_jsonl(path, allow_empty)))
    if fmt == "directory":
        files = ((f, f.read_bytes(), label.name, f"{label.name}/{f.name}")
                 for label in sorted(p for p in path.iterdir() if p.is_dir())
                 for f in sorted(p for p in label.iterdir() if p.is_file()))
        return Corpus(list(_documents(Document, files, str(path), allow_empty)))
    raise CorpusError(f"unknown corpus format {fmt!r}")


def iter_jsonl(path: str | Path, allow_empty: bool = False) -> Iterator[Document]:
    """The documents of a jsonl file, yielded as its lines are read (see ``iter_lines``)."""
    # records end at "\n" only, as on sys.stdin, so a file and stdin agree
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        yield from iter_lines(fh, str(path), allow_empty)


def iter_lines(lines: Iterable[str], source: str, allow_empty: bool = False) -> Iterator[Document]:
    """The documents of jsonl lines, e.g. an open stream, yielded as the lines are read.

    ``source`` names the input in warnings and errors.  Records are skipped
    as in ``ingest``; once the lines run out, the skipped count is logged,
    and zero valid records is a CorpusError unless ``allow_empty`` is set.
    """
    records = ((f"line {n}", n, line)
               for n, line in enumerate(map(str.strip, lines), start=1) if line)
    try:
        yield from _documents(_jsonl_document, records, source, allow_empty)
    except UnicodeDecodeError as exc:  # raised while reading the next line
        raise CorpusError(f"{source} is not UTF-8 text: {exc}") from exc


def _jsonl_document(lineno: int, line: str) -> Document:
    rec = json.loads(line)
    payload = codec.decode(codec.BASE64, rec["data_b64"])
    rid = rec.get("id")  # a missing or null id is the line number
    return Document(payload, rec.get("label"), str(lineno if rid is None else rid))


def _documents(build, records: Iterable, source: str, allow_empty: bool) -> Iterator[Document]:
    """``build(*args)`` for every ``(where, *args)`` record; a record it cannot
    build is skipped with a warning that names ``where``, and counted."""
    valid = skipped = 0
    for where, *args in records:
        try:
            doc = build(*args)
        except (ValueError, KeyError, TypeError) as exc:  # CorpusError, DecodeError, bad JSON
            log.warning("%s: %s", where, exc)
            skipped += 1
            continue
        valid += 1
        yield doc
    if skipped:
        log.warning("skipped %d malformed record(s) while ingesting %s", skipped, source)
    if not valid and not allow_empty:
        raise CorpusError(f"zero valid records in {source}")


def write_jsonl(corpus: Corpus, path: str | Path) -> int:
    """Export in the jsonl corpus format; inverse of jsonl ingest."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in corpus:
            rec: dict = {"id": d.id}
            if d.label is not None:
                rec["label"] = d.label
            rec["data_b64"] = codec.encode(codec.BASE64, d.payload)
            fh.write(json.dumps(rec) + "\n")
    return len(corpus)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def split(corpus: Corpus, spec: SplitSpec, repeat_index: int) -> tuple[Corpus, Corpus]:
    """Stratified seeded train/test split for one repeat.

    When every class holds at least repeats * (train + test) documents,
    repeats slice disjoint windows of one master per-class permutation;
    otherwise each repeat is an independent seeded draw.
    """
    if not 0 <= repeat_index < spec.repeats:
        raise CorpusError(f"repeat_index {repeat_index} outside 0..{spec.repeats - 1}")
    by_label = corpus.indices_by_label()
    if sum(len(v) for v in by_label.values()) != len(corpus):
        raise CorpusError("corpus contains unlabeled documents; cannot split")
    need = spec.train_per_class + spec.test_per_class
    for label in corpus.label_set:
        if len(by_label[label]) < need:
            raise CorpusError(
                f"class {label!r} has {len(by_label[label])} documents, needs {need}"
            )
    disjoint = all(len(v) >= spec.repeats * need for v in by_label.values())
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label_pos, label in enumerate(corpus.label_set):
        idxs = list(by_label[label])
        keys = (1, label_pos) if disjoint else (2, repeat_index, label_pos)
        SplitMix64(derive_seed(spec.seed, *keys)).shuffle(idxs)
        start = repeat_index * need if disjoint else 0
        sel = idxs[start : start + need]
        train_idx.extend(sel[: spec.train_per_class])
        test_idx.extend(sel[spec.train_per_class :])
    docs = corpus.documents
    return Corpus([docs[i] for i in sorted(train_idx)]), Corpus([docs[i] for i in sorted(test_idx)])


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

def generate_synthetic(
    specs: Sequence[SyntheticIsaSpec],
    docs_per_class: int,
    doc_len_bytes: int,
    seed: int,
) -> Corpus:
    """Deterministic pseudo-ISA corpus; lengths land within +/-10% of target."""
    if not specs:
        raise CorpusError("at least one SyntheticIsaSpec required")
    max_width = max(s.instruction_width for s in specs)
    if doc_len_bytes < 2 * max_width:
        raise CorpusError(f"doc_len_bytes must be >= {2 * max_width}")
    if docs_per_class < 1:
        raise CorpusError("docs_per_class must be >= 1")
    docs = []
    for class_idx, spec in enumerate(specs):
        prefixes = sorted(spec.opcode_distribution)
        cum, acc = [], 0.0
        for p in prefixes:
            acc += spec.opcode_distribution[p]
            cum.append(acc)
        imm = b"\x01\x00" if spec.endianness == "little" else b"\x00\x01"
        for doc_idx in range(docs_per_class):
            rng = SplitMix64(derive_seed(seed, class_idx, doc_idx))
            payload = _generate_doc(rng, spec, prefixes, cum, imm, doc_len_bytes)
            docs.append(Document(bytes(payload), spec.name, f"{spec.name}/{doc_idx:05d}"))
    return Corpus(docs)


def _generate_doc(rng, spec, prefixes, cum, imm, target_len) -> bytearray:
    width = spec.instruction_width
    cap = int(target_len * 1.1)
    buf = bytearray()
    while len(buf) < target_len:
        prefix = prefixes[rng.choice_weighted(cum)]
        unit = bytearray(prefix)
        for _ in range(width - len(prefix)):
            unit.append(rng.randbyte())
        if rng.uniform() < spec.immediate_small_value_prob:
            if len(unit) - len(prefix) >= 2:
                unit[-2:] = imm
            else:
                unit += imm
        if len(buf) + len(unit) > cap:
            break
        buf += unit
        if spec.noise_zero_prob > 0 and rng.uniform() < spec.noise_zero_prob:
            if len(buf) + width <= cap:
                buf += bytes(width)
    return buf


def default_isa_specs(n_classes: int = 12) -> list[SyntheticIsaSpec]:
    """Desk-scale pseudo-ISA suite used by the CLI generator and the tests.

    All classes share one opcode byte pool with identical per-byte marginals;
    what separates them is which byte PAIRS form valid opcodes (a latin-square
    shift per class), plus endianness and instruction width.  Single-byte
    histograms therefore carry little class signal while 2/3-gram structure
    carries a lot, mirroring how real ISAs differ in multi-byte opcode layout
    rather than raw byte usage.
    """
    if not 1 <= n_classes <= 16:
        raise CorpusError("n_classes must be in 1..16")
    pool = [0x80 + i for i in range(16)]
    specs = []
    for k in range(n_classes):
        dist = {
            bytes([pool[i], pool[(i + k) % 16]]): 1.0 / 16 for i in range(16)
        }
        specs.append(
            SyntheticIsaSpec(
                name=f"isa{k:02d}",
                instruction_width=2 if k >= 8 else 4,
                opcode_distribution=dist,
                endianness="little" if k % 2 == 0 else "big",
                immediate_small_value_prob=0.3,
            )
        )
    return specs
