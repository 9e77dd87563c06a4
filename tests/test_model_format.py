"""Model files: earlier formats still load, saving is canonical, size follows nnz."""

import json
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
    path = tmp_path / "edited.model"
    if source == "tfidf-byte":
        assert main(["train", "--corpus", str(FIXTURES / "train.jsonl"), "--features", source,
                     "--model", "cnb", "--out", str(path)]) == 0
    else:
        path.write_bytes((FIXTURES / f"{source}.model").read_bytes())
    rewrite_with_valid_checksum(path, lambda p: p["schema"].update(schema_edit))
    with pytest.raises(classify.ModelFormatError, match="alphabet"):
        load_model(path)
    capsys.readouterr()
    assert main(["predict", "--model", str(path), "--input", str(FIXTURES / "queries.jsonl")]) == 2
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
