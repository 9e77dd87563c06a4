"""Model files: earlier formats still load, saving is canonical, size follows nnz."""

import base64
import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from isagram import classify, corpus
from isagram.classify import ClassifierSpec, load_model, predict_corpus, save_model
from isagram.cli import main
from isagram.evaluate import FeatureConfig, fit_model
from test_classify import rewrite_with_valid_checksum

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("name", ["format1_hist_byte_cnb", "format1_tfidf_char_base16_knn"])
def test_format1_fixture_reproduces_recorded_output(capsys, name):
    # written by the 1.0 writer; see fixtures/README.md
    model_path = FIXTURES / f"{name}.model"
    assert model_path.read_bytes().startswith(b'{"format_version": "1.0"')
    queries = FIXTURES / "queries.jsonl"
    assert main(["predict", "--model", str(model_path), "--input", str(queries)]) == 0
    assert capsys.readouterr().out == (FIXTURES / f"{name}.predict.txt").read_text()
    expected = json.loads((FIXTURES / "format1_scores.json").read_text())[name]
    model = load_model(model_path)
    assert list(model.labels) == expected["labels"]
    scores = predict_corpus(model, corpus.ingest(queries))[1]
    assert [[float(v).hex() for v in row] for row in scores] == expected["scores"]


# train flags of the format-2.0 fixtures, besides --corpus train.jsonl --seed 3
FORMAT2_FLAGS = {
    "format2_hist_byte_cnb": ["--features", "hist-byte", "--model", "cnb"],
    "format2_tfidf_char_base16_knn": ["--features", "tfidf-char", "--encoding", "base16",
                                      "--ngram3-cap", "32", "--model", "knn"],
}


@pytest.mark.parametrize("name", sorted(FORMAT2_FLAGS))
def test_format2_fixture_is_read_resaved_and_retrained_unchanged(capsys, tmp_path, name):
    # written by an earlier 2.0 writer; see fixtures/README.md
    model_path, queries = FIXTURES / f"{name}.model", FIXTURES / "queries.jsonl"
    assert main(["predict", "--model", str(model_path), "--input", str(queries)]) == 0
    assert capsys.readouterr().out == (FIXTURES / f"{name}.predict.txt").read_text()
    save_model(load_model(model_path), tmp_path / "resaved.model")
    assert (tmp_path / "resaved.model").read_bytes() == model_path.read_bytes()
    assert main(["train", "--corpus", str(FIXTURES / "train.jsonl"), *FORMAT2_FLAGS[name],
                 "--seed", "3", "--out", str(tmp_path / "retrained.model")]) == 0
    assert (tmp_path / "retrained.model").read_bytes() == model_path.read_bytes()


@pytest.mark.parametrize("source, schema_edit", [
    ("format2_tfidf_char_base16_knn", {"encoding": "base32"}),
    ("format2_tfidf_char_base16_knn", {"method": "tfidf_byte", "encoding": None}),
    ("tfidf-byte", {"method": "tfidf_char", "encoding": "base16"}),
], ids=["base16-vocabulary-under-base32", "char-vocabulary-under-byte",
        "byte-vocabulary-under-base16"])
def test_vocabulary_whose_alphabet_is_not_the_encodings_is_refused(
    capsys, tmp_path, source, schema_edit
):
    # the alphabet follows from the encoding; the copy in the file must agree with it
    path = vocabulary_model(tmp_path, source)
    rewrite_with_valid_checksum(path, lambda p: p["schema"].update(schema_edit))
    with pytest.raises(classify.ModelFormatError, match="alphabet"):
        load_model(path)
    capsys.readouterr()
    assert main(["predict", "--model", str(path), "--input", str(FIXTURES / "queries.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("data error: malformed model body")


def vocabulary_model(tmp_path, source) -> Path:
    """A TF-IDF model file: a fresh ``tfidf-byte`` cnb fit, or a copy of a fixture."""
    path = tmp_path / "edited.model"
    if source == "tfidf-byte":
        assert main(["train", "--corpus", str(FIXTURES / "train.jsonl"), "--features", source,
                     "--model", "cnb", "--out", str(path)]) == 0
    else:
        path.write_bytes((FIXTURES / f"{source}.model").read_bytes())
    return path


def edit_grams3(edit):
    """An edit that replaces the vocabulary's 3-gram terms ``t`` by ``edit(t)``."""
    return lambda p: p["schema"]["vocab"].update(grams3=edit(p["schema"]["vocab"]["grams3"]))


# checksum-valid edits of the 3-gram terms that fitting cannot write; each keeps their count
GRAMS3_EDITS = {
    # the second copy's column could never be reached
    "repeated": lambda t: [t[0], t[0], *t[2:]],
    # a 4-byte or 4-character gram, which used to be cut to its first three symbols
    "one-symbol-too-many": lambda t: [t[0] + t[0][:len(t[0]) // 3], *t[1:]],
    "not-a-string": lambda t: [7, *t[1:]],
    # upper-case hex for bytes, which fromhex would read; lower case is outside base16
    "case-swapped": lambda t: [term.swapcase() for term in t],
}


@pytest.mark.parametrize("source", ["tfidf-byte", "format2_tfidf_char_base16_knn"],
                         ids=["byte", "char-base16"])
@pytest.mark.parametrize("case", sorted(GRAMS3_EDITS))
def test_3gram_terms_that_fitting_cannot_write_are_refused(capsys, tmp_path, case, source):
    path = vocabulary_model(tmp_path, source)
    rewrite_with_valid_checksum(path, edit_grams3(GRAMS3_EDITS[case]))
    with pytest.raises(classify.ModelFormatError, match="malformed model body"):
        load_model(path)
    capsys.readouterr()
    assert main(["predict", "--model", str(path), "--input", str(FIXTURES / "queries.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("data error: malformed model body")


def set_idf1(value):
    """An edit that sets every entry of the schema's idf1 to ``value``."""
    def edit(p):
        record = p["schema"]["vocab"]["idf1"]
        raw = np.full(record["shape"], value, dtype="<f8").tobytes()
        record["base64"] = base64.b64encode(raw).decode("ascii")
    return edit


# checksum-valid edits of a tfidf-byte cnb vocabulary that _idf cannot have written:
# each IDF entry lies in [1, log(D + 1) + 1] for D = fit_corpus_size, an integer >= 1
OUT_OF_RANGE_VOCABULARIES = {
    "idf-zero": set_idf1(0.0),
    "idf-huge": set_idf1(1e200),
    "idf-negative": set_idf1(-1.0),
    "corpus-size-zero": lambda p: p["schema"]["vocab"].update(fit_corpus_size=0),
    "corpus-size-a-float": lambda p: p["schema"]["vocab"].update(fit_corpus_size=24.5),
    "corpus-size-a-bool": lambda p: p["schema"]["vocab"].update(fit_corpus_size=True),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_VOCABULARIES))
def test_vocabulary_that_idf_cannot_have_written_is_refused(capsys, tmp_path, case):
    path, queries = tmp_path / "cnb.model", FIXTURES / "queries.jsonl"
    assert main(["train", "--corpus", str(FIXTURES / "train.jsonl"), "--features", "tfidf-byte",
                 "--model", "cnb", "--out", str(path)]) == 0
    vocab = load_model(path).schema.vocab
    # a fresh fit reaches the upper bound exactly, with a 2-gram in none of its documents
    assert vocab.idf2.max() == np.log(vocab.fit_corpus_size + 1.0) + 1.0
    rewrite_with_valid_checksum(path, OUT_OF_RANGE_VOCABULARIES[case])
    with pytest.raises(classify.ModelFormatError, match="malformed model body"):
        load_model(path)
    capsys.readouterr()
    assert main(["predict", "--model", str(path), "--input", str(queries)]) == 2
    assert capsys.readouterr().err.startswith("data error: malformed model body")


FEATURES = [FeatureConfig("tfidf_byte"), FeatureConfig("tfidf_char", classify.codec.BASE16),
            FeatureConfig("hist_endian_byte")]


@pytest.mark.parametrize("config", FEATURES, ids=lambda c: c.describe())
@pytest.mark.parametrize("kind", classify.KINDS)
def test_save_load_save_gives_identical_bytes(tmp_path, kind, config):
    train = corpus.generate_synthetic(corpus.default_isa_specs(3), 6, 40, seed=5)
    hp = {"epochs": 2} if "epochs" in classify.DEFAULT_HYPERPARAMETERS[kind] else {}
    save_model(fit_model(config, ClassifierSpec(kind, hp, seed=4), train), tmp_path / "a.model")
    save_model(load_model(tmp_path / "a.model"), tmp_path / "b.model")
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()


@pytest.mark.parametrize("model", [["knn"], ["lr", "--epochs", "3"]], ids=["knn", "lr"])
def test_train_with_the_same_seed_writes_identical_files(capsys, tmp_path, model):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus.write_jsonl(corpus.generate_synthetic(corpus.default_isa_specs(3), 8, 40, seed=2), corpus_path)
    for out in ("a.model", "b.model"):
        assert main(["train", "--corpus", str(corpus_path), "--features", "tfidf-byte",
                     "--model", *model, "--seed", "9", "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()


def test_knn_model_size_follows_stored_values(tmp_path):
    # 240 documents x 70 792 columns: the dense rows of format 1.0 took 86 MB
    train = corpus.generate_synthetic(corpus.default_isa_specs(12), 20, 66, seed=7)
    model = fit_model(FeatureConfig("tfidf_byte"), ClassifierSpec("knn"), train)
    rows = model.parameters["train_matrix"]
    save_model(model, tmp_path / "knn.model")
    size = (tmp_path / "knn.model").stat().st_size
    assert size < 2_000_000
    assert size < rows.shape[0] * rows.shape[1]  # under one byte per cell
    loaded = load_model(tmp_path / "knn.model").parameters["train_matrix"]
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(loaded, field), getattr(rows, field))


def canonical_file(model) -> bytes:
    """The file the format defines, built whole: ``json.dumps`` of the payload with each
    array as its base64 text, then the sha256 trailer."""
    def text(value):
        if isinstance(value, np.ndarray):
            return base64.b64encode(value.tobytes()).decode("ascii")
        return {k: text(v) for k, v in value.items()} if isinstance(value, dict) else value

    body = json.dumps(text(classify._payload(model)), sort_keys=True).encode("utf-8")
    return body + b"\nsha256:" + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"


# labels that JSON must escape: a quote, a backslash, a control character, non-ASCII text
ESCAPED_LABELS = ('a "quoted" label', "back\\slash", "line\nbreak", "\u00e9 \u2211 \u2028 \U0001f600")


# the second has an empty idf3 and no 3-gram terms
STREAMED_FEATURES = [FeatureConfig("tfidf_byte"),
                     FeatureConfig("tfidf_char", classify.codec.BASE85, ngram3_cap=0)]


@pytest.mark.parametrize("config", STREAMED_FEATURES,
                         ids=lambda c: f"{c.describe()}-cap{c.ngram3_cap}")
@pytest.mark.parametrize("kind", classify.KINDS)
def test_streamed_file_equals_the_whole_json_dump(tmp_path, kind, config):
    train = corpus.generate_synthetic(corpus.default_isa_specs(4), 5, 40, seed=8)
    hp = {"epochs": 2} if "epochs" in classify.DEFAULT_HYPERPARAMETERS[kind] else {}
    model = fit_model(config, ClassifierSpec(kind, hp, seed=4), train)
    # floats of long repr and counts beyond 64 bits; save does not refit
    odd = {k: 2 ** 70 if isinstance(v, int) else v / 3
           for k, v in classify.DEFAULT_HYPERPARAMETERS[kind].items()}
    model = dataclasses.replace(model, labels=tuple(sorted(ESCAPED_LABELS)),
                                spec=ClassifierSpec(kind, odd, seed=2 ** 63))
    save_model(model, tmp_path / "m.model")
    assert (tmp_path / "m.model").read_bytes() == canonical_file(model)


@pytest.fixture(scope="module")
def cnb_tfidf_byte():
    """A cnb model whose file is about 9.9 MB: 12 classes x 70 792 float64 log-probabilities."""
    train = corpus.generate_synthetic(corpus.default_isa_specs(12), 20, 66, seed=7)
    return fit_model(FeatureConfig("tfidf_byte"), ClassifierSpec("cnb"), train)


def traced(call):
    """``call()``'s result, and the peak bytes Python and numpy allocated during it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_model_streams_the_file(tmp_path, cnb_tfidf_byte):
    path = tmp_path / "cnb.model"
    _, peak = traced(lambda: save_model(cnb_tfidf_byte, path))  # above the model it holds
    size = path.stat().st_size
    assert size > 9_000_000
    assert peak <= 1.5 * size  # building the line whole took 3.1x
    assert path.read_bytes() == canonical_file(cnb_tfidf_byte)  # arrays span many chunks


def test_load_model_holds_the_file_about_once(tmp_path, cnb_tfidf_byte):
    path = tmp_path / "cnb.model"
    save_model(cnb_tfidf_byte, path)
    size = path.stat().st_size
    loaded, peak = traced(lambda: load_model(path))
    assert peak <= 2.5 * size  # 5.6x with copies of the bytes for rstrip, rpartition and b64decode
    assert np.array_equal(loaded.parameters["feature_log_prob"],
                          cnb_tfidf_byte.parameters["feature_log_prob"])
