import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isagram import corpus
from isagram.corpus import Corpus, CorpusError, Document, SplitSpec, SyntheticIsaSpec


def make_corpus(per_class, labels=("a", "b"), length=8):
    docs = []
    for label in labels:
        for i in range(per_class):
            payload = bytes([hash((label, i, j)) & 0xFF for j in range(length)]) or b"\x01"
            docs.append(Document(payload, label, f"{label}-{i}"))
    return Corpus(docs)


# ---------------------------------------------------------------------------
# corpus construction
# ---------------------------------------------------------------------------

def test_corpus_invariants():
    c = make_corpus(3)
    assert len(c) == 6
    assert c.label_set == ("a", "b")
    with pytest.raises(CorpusError):
        Corpus([Document(b"", "a", "x")])
    with pytest.raises(CorpusError):
        Corpus([Document(b"\x01", "a", "x"), Document(b"\x02", "b", "x")])


@pytest.mark.parametrize("payload, label, doc_id, message", [
    (b"", "a", "x", "empty payload"),
    (b"\x01", 3, "x", "label must be a string or null, got int"),
    (b"\x01", "a", 7, "id must be a string, got int"),
    (b"\x01", "a\ud800", "x", "label or id is not valid Unicode"),
    (b"\x01", None, "raw\udcfe.bin", "label or id is not valid Unicode"),
    (b"\x01", "a\tb", "x", "label or id holds an ASCII control character"),
    (b"\x01", "a", "x\ty\nz", "label or id holds an ASCII control character"),
    (b"\x01", "a", "\x00", "label or id holds an ASCII control character"),
    (b"\x01", "\x7f", "x", "label or id holds an ASCII control character"),
], ids=["empty-payload", "int-label", "int-id", "surrogate-label", "surrogate-id", "tab-label",
        "newline-id", "nul-id", "del-label"])
def test_document_refuses_what_it_cannot_hold(payload, label, doc_id, message):
    with pytest.raises(CorpusError, match=f"^{message}$"):
        Document(payload, label, doc_id)


def test_document_takes_any_other_text():
    # a comma, a quote, a C1 control, a no-break space and non-ASCII letters are text
    for text in ("x86,64", 'say "hi"', "\x80", "\u00a0", "ärm64 中", ""):
        assert Document(b"\x01", text, text).label == text
    assert Document(b"\x01", None, "-").label is None


def test_subset_takes_checked_documents_and_keeps_its_own_labels(monkeypatch):
    c = make_corpus(3)
    with monkeypatch.context() as m:  # a subset is not checked again
        m.setattr(Corpus, "__init__", lambda self, docs: pytest.fail("subset re-validated"))
        sub = c.subset([4, 0, 1])
        only_a = c.subset([0, 2])
        empty = c.subset([])
    assert sub.documents == (c.documents[4], c.documents[0], c.documents[1])
    assert sub.label_set == ("a", "b") and only_a.label_set == ("a",)
    assert len(empty) == 0 and empty.label_set == ()
    # built directly, a corpus still checks its documents
    with pytest.raises(CorpusError, match="duplicate"):
        Corpus(sub.documents + only_a.documents)
    with pytest.raises(CorpusError, match="empty payload"):
        Corpus(only_a.documents + (Document(b"", "a", "new"),))


def test_corpus_is_immutable_enough():
    c = make_corpus(2)
    assert isinstance(c.documents, tuple)
    with pytest.raises(AttributeError):
        c.documents[0].payload = b"zz"


# ---------------------------------------------------------------------------
# ingest / export
# ---------------------------------------------------------------------------

def test_jsonl_roundtrip(tmp_path):
    original = make_corpus(4)
    path = tmp_path / "corpus.jsonl"
    assert corpus.write_jsonl(original, path) == 8
    loaded = corpus.ingest(path, "jsonl")
    assert len(loaded) == len(original)
    for a, b in zip(original, loaded):
        assert (a.payload, a.label, a.id) == (b.payload, b.label, b.id)


def test_ingest_skips_malformed_lines(tmp_path, caplog):
    path = tmp_path / "messy.jsonl"
    lines = [
        json.dumps({"id": "ok", "label": "a", "data_b64": "AAEC"}),
        "not json at all",
        json.dumps({"id": "nopayload", "label": "a"}),
        json.dumps({"id": "badb64", "label": "a", "data_b64": "@@@"}),
        json.dumps({"id": "empty", "label": "a", "data_b64": ""}),
        "",
        json.dumps({"label": "b", "data_b64": "/w=="}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with caplog.at_level(logging.WARNING, logger="isagram.corpus"):
        got = corpus.ingest(path, "jsonl")
    assert [d.id for d in got] == ["ok", "7"]  # default id is the 1-based line number
    assert got.documents[0].payload == b"\x00\x01\x02"
    assert got.documents[1].payload == b"\xff"
    assert "4 malformed" in caplog.text


def test_ingest_skips_noncanonical_base64(tmp_path, caplog):
    # "QR==" decodes to b"A" only by ignoring nonzero padding bits
    path = tmp_path / "loose.jsonl"
    lines = [
        json.dumps({"id": "canonical", "label": "a", "data_b64": "QQ=="}),
        json.dumps({"id": "loose", "label": "a", "data_b64": "QR=="}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with caplog.at_level(logging.WARNING, logger="isagram.corpus"):
        got = corpus.ingest(path, "jsonl")
    assert [d.id for d in got] == ["canonical"]
    assert "1 malformed" in caplog.text


def test_ingest_skips_a_tab_or_newline_in_label_or_id(tmp_path, caplog):
    # predict prints one tab-separated line per document, and the CSVs are line-based
    path = tmp_path / "controls.jsonl"
    records = [("ok", "a"), ("x\ty\nz", "a"), ("tab", "a\tb"), ("nl", 'is\na,0"')]
    path.write_text("".join(json.dumps({"id": i, "label": label, "data_b64": "AAEC"}) + "\n"
                            for i, label in records))
    with caplog.at_level(logging.WARNING, logger="isagram.corpus"):
        assert [d.id for d in corpus.ingest(path, "jsonl")] == ["ok"]
    assert "line 2: label or id holds an ASCII control character" in caplog.text
    assert "skipped 3 malformed" in caplog.text
    root = tmp_path / "tree"
    for label, name in [("a", "ok.bin"), ("a", "x\ty.bin"), ("a", "n\n.bin"), ("b\tc", "z.bin")]:
        (root / label).mkdir(parents=True, exist_ok=True)
        (root / label / name).write_bytes(b"\x01\x02")
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="isagram.corpus"):
        got = corpus.ingest(root, "directory")
    assert [d.id for d in got] == ["a/ok.bin"] and got.label_set == ("a",)
    assert "skipped 3 malformed" in caplog.text


def test_ingest_skips_an_integer_too_long_to_parse(tmp_path, caplog):
    # json.loads raises a plain ValueError past Python's 4300-digit limit
    path = tmp_path / "bigint.jsonl"
    path.write_text('{"id": ' + "1" * 5000 + ', "data_b64": "AAEC"}\n'
                    + json.dumps({"id": "ok", "data_b64": "AAEC"}) + "\n")
    with caplog.at_level(logging.WARNING, logger="isagram.corpus"):
        assert [d.id for d in corpus.ingest(path, "jsonl")] == ["ok"]
    assert "line 1: Exceeds the limit" in caplog.text


def test_ingest_zero_valid_records(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(CorpusError):
        corpus.ingest(path, "jsonl")
    assert len(corpus.ingest(path, "jsonl", allow_empty=True)) == 0


def test_ingest_missing_path(tmp_path):
    with pytest.raises(CorpusError):
        corpus.ingest(tmp_path / "nope.jsonl", "jsonl")
    with pytest.raises(CorpusError):
        corpus.ingest(tmp_path, "parquet")


def test_ingest_directory(tmp_path):
    for label, names in [("arm", ["b.bin", "a.bin"]), ("mips", ["x.bin"])]:
        d = tmp_path / label
        d.mkdir()
        for i, name in enumerate(names):
            (d / name).write_bytes(bytes([i + 1] * 4))
    (tmp_path / "stray.txt").write_text("ignored")
    got = corpus.ingest(tmp_path, "directory")
    assert [d.id for d in got] == ["arm/a.bin", "arm/b.bin", "mips/x.bin"]
    assert got.label_set == ("arm", "mips")


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_split_sizes_and_stratification():
    c = make_corpus(20)
    spec = SplitSpec(train_per_class=12, test_per_class=5, seed=3, repeats=2)
    train, test = corpus.split(c, spec, 0)
    assert len(train) == 24 and len(test) == 10
    for part in (train, test):
        by = part.indices_by_label()
        assert set(by) == {"a", "b"}
    train_ids = {d.id for d in train}
    assert train_ids.isdisjoint({d.id for d in test})


def test_split_is_deterministic():
    c = make_corpus(20)
    spec = SplitSpec(10, 5, seed=9, repeats=3)
    a = corpus.split(c, spec, 1)
    b = corpus.split(c, spec, 1)
    assert [d.id for d in a[0]] == [d.id for d in b[0]]
    assert [d.id for d in a[1]] == [d.id for d in b[1]]


def test_split_disjoint_repeats_when_capacity_allows():
    c = make_corpus(30)  # 30 >= repeats * (train + test) = 3 * 10
    spec = SplitSpec(6, 4, seed=5, repeats=3)
    seen = set()
    for r in range(3):
        train, test = corpus.split(c, spec, r)
        ids = {d.id for d in train} | {d.id for d in test}
        assert seen.isdisjoint(ids)
        seen |= ids


def test_split_independent_repeats_otherwise():
    c = make_corpus(20)  # 20 < 3 * 15: repeats must reuse documents
    spec = SplitSpec(10, 5, seed=5, repeats=3)
    selections = [frozenset(d.id for d in corpus.split(c, spec, r)[0]) for r in range(3)]
    assert len(set(selections)) > 1


@st.composite
def split_cases(draw):
    """A SplitSpec and per-class sizes, in the disjoint or the independent mode."""
    spec = SplitSpec(
        draw(st.integers(1, 4)), draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**64 - 1)), repeats=draw(st.integers(1, 4)),
    )
    need = spec.train_per_class + spec.test_per_class
    full = spec.repeats * need
    disjoint = spec.repeats == 1 or draw(st.booleans())
    n_labels = draw(st.integers(1, 4))
    if disjoint:
        sizes = [draw(st.integers(full, full + 3)) for _ in range(n_labels)]
    else:  # one class short of a window per repeat forces independent draws
        sizes = [draw(st.integers(need, full - 1))]
        sizes += [draw(st.integers(need, full + 3)) for _ in range(n_labels - 1)]
    return spec, sizes, disjoint


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_splits_are_stratified_and_disjoint(case):
    spec, sizes, disjoint = case
    c = Corpus([
        Document(b"\x01", f"c{k}", f"c{k}-{i}") for k, n in enumerate(sizes) for i in range(n)
    ])
    seen = set()
    for r in range(spec.repeats):
        train, test = corpus.split(c, spec, r)
        for part, per_class in ((train, spec.train_per_class), (test, spec.test_per_class)):
            counts = {label: len(idx) for label, idx in part.indices_by_label().items()}
            assert counts == {label: per_class for label in c.label_set}
        ids = {d.id for d in train} | {d.id for d in test}
        assert len(ids) == len(train) + len(test)  # train and test share no document
        if disjoint:
            assert seen.isdisjoint(ids)
            seen |= ids


def test_split_protocol_scale_counts():
    specs = corpus.default_isa_specs(12)
    c = corpus.generate_synthetic(specs, docs_per_class=318, doc_len_bytes=66, seed=7)
    assert len(c) == 3816
    spec = SplitSpec(238, 80, seed=7, repeats=50)
    train, test = corpus.split(c, spec, 0)
    assert len(train) == 2856 and len(test) == 960


def test_split_errors():
    c = make_corpus(5)
    with pytest.raises(CorpusError):
        corpus.split(c, SplitSpec(4, 2, seed=0, repeats=1), 0)  # needs 6 per class
    with pytest.raises(CorpusError):
        corpus.split(c, SplitSpec(2, 1, seed=0, repeats=2), 2)  # repeat out of range
    unlabeled = Corpus([Document(b"\x01", None, "u"), Document(b"\x02", "a", "v")])
    with pytest.raises(CorpusError):
        corpus.split(unlabeled, SplitSpec(1, 1, seed=0, repeats=1), 0)


def test_split_spec_validation():
    with pytest.raises(CorpusError):
        SplitSpec(0, 1, seed=0)
    with pytest.raises(CorpusError):
        SplitSpec(1, 1, seed=0, repeats=0)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def test_synthetic_spec_validation():
    dist = {b"\x90": 0.5, b"\x91": 0.5}
    with pytest.raises(CorpusError):
        SyntheticIsaSpec("x", 3, dist, "little")
    with pytest.raises(CorpusError):
        SyntheticIsaSpec("x", 4, dist, "middle")
    with pytest.raises(CorpusError):
        SyntheticIsaSpec("x", 4, {}, "little")
    with pytest.raises(CorpusError):
        SyntheticIsaSpec("x", 4, {b"\x90": 0.7, b"\x91": 0.7}, "little")
    with pytest.raises(CorpusError):
        SyntheticIsaSpec("x", 2, {b"\x90\x91\x92": 1.0}, "little")
    with pytest.raises(CorpusError):
        SyntheticIsaSpec("x", 4, dist, "little", noise_zero_prob=1.5)


def test_generate_synthetic_shapes_and_determinism():
    specs = corpus.default_isa_specs(4)
    a = corpus.generate_synthetic(specs, docs_per_class=10, doc_len_bytes=64, seed=3)
    b = corpus.generate_synthetic(specs, docs_per_class=10, doc_len_bytes=64, seed=3)
    assert len(a) == 40
    assert a.label_set == tuple(s.name for s in specs)
    assert [d.payload for d in a] == [d.payload for d in b]
    c = corpus.generate_synthetic(specs, docs_per_class=10, doc_len_bytes=64, seed=4)
    assert [d.payload for d in a] != [d.payload for d in c]
    for d in a:
        assert 64 <= len(d.payload) <= 70  # within the 1.1x cap


def test_big_endian_immediate_bytes():
    spec = SyntheticIsaSpec(
        "big1", 4, {b"\x90": 1.0}, "big", immediate_small_value_prob=1.0
    )
    c = corpus.generate_synthetic([spec, spec_little()], 5, 64, seed=1)
    for d in c:
        if d.label != "big1":
            continue
        # every 4-byte instruction ends with the big-endian immediate 1
        for i in range(0, len(d.payload) - 3, 4):
            assert d.payload[i] == 0x90
            assert d.payload[i + 2 : i + 4] == b"\x00\x01"


def spec_little():
    return SyntheticIsaSpec(
        "lit1", 4, {b"\x91": 1.0}, "little", immediate_small_value_prob=1.0
    )


def test_narrow_width_immediate_extension():
    spec = SyntheticIsaSpec(
        "w2", 2, {b"\xa0\xa1": 1.0}, "little", immediate_small_value_prob=1.0
    )
    c = corpus.generate_synthetic([spec, spec_little()], 3, 32, seed=2)
    for d in c:
        if d.label != "w2":
            continue
        # opcode pair then a 2-byte little-endian immediate extension word
        for i in range(0, len(d.payload) - 3, 4):
            assert d.payload[i : i + 2] == b"\xa0\xa1"
            assert d.payload[i + 2 : i + 4] == b"\x01\x00"


def test_noise_zero_runs_increase_zero_windows():
    base = {b"\x90\x91": 1.0}
    quiet = SyntheticIsaSpec("quiet", 4, base, "little")
    noisy = SyntheticIsaSpec("noisy", 4, base, "little", noise_zero_prob=0.5)
    c = corpus.generate_synthetic([quiet, noisy], 20, 128, seed=6)
    runs = {"quiet": 0, "noisy": 0}
    for d in c:
        # overlapping 4-byte windows of zeros
        runs[d.label] += sum(
            d.payload[i : i + 4] == b"\x00" * 4 for i in range(len(d.payload) - 3)
        )
    assert runs["noisy"] > runs["quiet"]


def test_default_isa_specs_structure():
    specs = corpus.default_isa_specs(12)
    assert len(specs) == 12
    assert len({s.name for s in specs}) == 12
    pair_sets = []
    for s in specs:
        assert abs(sum(s.opcode_distribution.values()) - 1.0) < 1e-12
        firsts = sorted(p[0] for p in s.opcode_distribution)
        seconds = sorted(p[1] for p in s.opcode_distribution)
        pair_sets.append(frozenset(s.opcode_distribution))
        # identical per-byte marginals across classes: only the pairing differs
        assert firsts == sorted(0x80 + i for i in range(16))
        assert seconds == sorted(0x80 + i for i in range(16))
    assert len(set(pair_sets)) == 12
    assert {s.endianness for s in specs} == {"little", "big"}
    with pytest.raises(CorpusError):
        corpus.default_isa_specs(0)


def test_generate_errors():
    with pytest.raises(CorpusError):
        corpus.generate_synthetic([], 3, 64, seed=0)
    with pytest.raises(CorpusError):
        corpus.generate_synthetic(corpus.default_isa_specs(2), 3, 4, seed=0)
    for docs_per_class in (0, -1):
        with pytest.raises(CorpusError):
            corpus.generate_synthetic(corpus.default_isa_specs(2), docs_per_class, 64, seed=0)
