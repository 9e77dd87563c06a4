"""Model files: format 2.1 loads and earlier formats are refused, saving is canonical,
size follows nnz."""

import base64
import dataclasses
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isagram import classify, corpus
from isagram.classify import ClassifierSpec, load_model, save_model
from isagram.cli import main
from isagram.evaluate import FeatureConfig, fit_model
from isagram.sparse import CsrRows
from test_classify import float64_record, float64_values, rewrite_with_valid_checksum

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("name", ["format1_hist_byte_cnb", "format1_tfidf_char_base16_knn",
                                  "format2_hist_byte_cnb", "format2_tfidf_char_base16_knn"])
def test_legacy_fixture_is_refused(capsys, name):
    # written in format 1.0 or 2.0, which release 1.1.0 reads and this one refuses; see
    # fixtures/README.md
    model_path = FIXTURES / f"{name}.model"
    version = "1.0" if name.startswith("format1_") else "2.0"
    assert model_path.read_bytes().startswith(b'{"format_version": "%s"' % version.encode())
    with pytest.raises(classify.ModelFormatError, match=f"format version '{version}' incompatible"):
        load_model(model_path)
    assert main(["predict", "--model", str(model_path), "--input", str(FIXTURES / "queries.jsonl")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"data error: format version '{version}' incompatible")


# train flags of the format-2.1 fixtures, besides --corpus train.jsonl --seed 3
FIXTURE_FLAGS = {
    "hist_byte_cnb": ["--features", "hist-byte", "--model", "cnb"],
    "tfidf_char_base16_knn": ["--features", "tfidf-char", "--encoding", "base16",
                              "--ngram3-cap", "32", "--model", "knn"],
}


@pytest.mark.parametrize("name", [f"format21_{model}" for model in sorted(FIXTURE_FLAGS)])
def test_format2_fixture_is_read_resaved_and_retrained_unchanged(capsys, tmp_path, name):
    # written by the first 2.1 writer; see fixtures/README.md
    model_path, queries = FIXTURES / f"{name}.model", FIXTURES / "queries.jsonl"
    model = name.split("_", 1)[1]
    current = model_path.read_bytes()
    assert main(["predict", "--model", str(model_path), "--input", str(queries)]) == 0
    assert capsys.readouterr().out == (FIXTURES / f"{name}.predict.txt").read_text()
    save_model(load_model(model_path), tmp_path / "resaved.model")
    assert (tmp_path / "resaved.model").read_bytes() == current
    assert main(["train", "--corpus", str(FIXTURES / "train.jsonl"), *FIXTURE_FLAGS[model],
                 "--seed", "3", "--out", str(tmp_path / "retrained.model")]) == 0
    assert (tmp_path / "retrained.model").read_bytes() == current


@pytest.mark.parametrize("source, schema_edit", [
    ("format21_tfidf_char_base16_knn", {"encoding": "base32"}),
    ("format21_tfidf_char_base16_knn", {"method": "tfidf_byte", "encoding": None}),
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


def test_histogram_schema_with_a_vocabulary_is_refused(capsys, tmp_path):
    # save_model writes no vocabulary for a histogram schema: here a byte vocabulary,
    # whose IDF lengths fit hist-byte's 256 symbols, is added to the hist cnb fixture
    vocab = json.loads(vocabulary_model(tmp_path, "tfidf-byte").read_text().splitlines()[0])
    path = tmp_path / "hist.model"
    path.write_bytes((FIXTURES / "format21_hist_byte_cnb.model").read_bytes())
    rewrite_with_valid_checksum(path, lambda p: p["schema"].update(vocab=vocab["schema"]["vocab"]))
    with pytest.raises(classify.ModelFormatError, match="malformed model body.*no vocabulary"):
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


@pytest.mark.parametrize("source", ["tfidf-byte", "format21_tfidf_char_base16_knn"],
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
        vocab = p["schema"]["vocab"]
        vocab["idf1"] = float64_record(np.full(vocab["idf1"]["shape"], value))
    return edit


def drop_last_idf1_entry(p):
    vocab = p["schema"]["vocab"]
    vocab["idf1"] = float64_record(float64_values(vocab["idf1"])[:-1])


# checksum-valid edits of a tfidf-byte cnb vocabulary that _idf cannot have written:
# each IDF entry lies in [1, log(D + 1) + 1] for D = fit_corpus_size, an integer >= 1,
# and idf1 holds one entry per byte value
OUT_OF_RANGE_VOCABULARIES = {
    "idf-zero": set_idf1(0.0),
    "idf-huge": set_idf1(1e200),
    "idf-negative": set_idf1(-1.0),
    "corpus-size-zero": lambda p: p["schema"]["vocab"].update(fit_corpus_size=0),
    "corpus-size-a-float": lambda p: p["schema"]["vocab"].update(fit_corpus_size=24.5),
    "corpus-size-a-bool": lambda p: p["schema"]["vocab"].update(fit_corpus_size=True),
    "idf1-of-255-entries": drop_last_idf1_entry,
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
    # refused by the vocabulary's checks, not for a record save_model cannot write
    with pytest.raises(classify.ModelFormatError, match="malformed model body.*(IDF|fit_corpus_size)"):
        load_model(path)
    capsys.readouterr()
    assert main(["predict", "--model", str(path), "--input", str(queries)]) == 2
    assert capsys.readouterr().err.startswith("data error: malformed model body")


def edit_fields(edit):
    """A record edit: ``edit(fill, mask, values, shape)`` on the record's decoded arrays
    returns the fill, mask and values to write back."""
    def mutate(record):
        keys = {"fill": "<f8", "mask": np.uint8, "values": "<f8"}
        fields = [np.frombuffer(base64.b64decode(record[k]), t).copy() for k, t in keys.items()]
        new = edit(*fields, record["shape"])
        return {**record, **{k: base64.b64encode(v.tobytes()).decode() for k, v in zip(keys, new)}}
    return mutate


def set_spare_mask_bit(fill, mask, values, shape):
    assert math.prod(shape) % 8  # the last mask byte has spare bits
    mask[-1] |= 1
    return fill, mask, values


def mark_a_fill_cell(fill, mask, values, shape):
    """Mark the first cell that holds its row's fill as differing, its value the fill."""
    bits = np.unpackbits(mask)
    cell = int(np.flatnonzero(bits[:math.prod(shape)] == 0)[0])
    at = int(bits[:cell].sum())
    bits[cell] = 1
    return fill, np.packbits(bits), np.insert(values, at, fill[cell // shape[-1]])


def refill_first_row(record):
    """The record with its first row's fill swapped for a less frequent value of the row."""
    a = float64_values(record)
    fill = np.frombuffer(base64.b64decode(record["fill"]), "<f8").copy()
    fill[0] = a[0][a[0] != fill[0]][0]
    return float64_record(a, fill)


def tie_first_row(larger_wins):
    """An edit that fills the first row with 1.0 and 2.0 half each, and names the smaller
    (the rule's winner) or the larger pattern as its fill."""
    def edit(record):
        a = float64_values(record).copy()
        half = a.shape[1] // 2
        a[0, :half], a[0, half:2 * half] = 1.0, 2.0
        fill = np.frombuffer(base64.b64decode(record["fill"]), "<f8").copy()
        fill[0] = 2.0 if larger_wins else 1.0
        return float64_record(a, fill)
    return edit


# checksum-valid edits of a format-2.1 float record that save_model cannot write, and
# the refusal each must meet; the record is the (3, 260) feature_log_prob of a cnb model,
# 780 cells, so its mask's last byte has 4 spare bits
MALFORMED_RECORDS = {
    "fill-one-short": (edit_fields(lambda f, m, v, s: (f[:-1], m, v)), "fill or mask length"),
    "mask-one-byte-short": (edit_fields(lambda f, m, v, s: (f, m[:-1], v)), "fill or mask length"),
    "values-not-whole-floats": (edit_fields(lambda f, m, v, s: (f, m, v.view(np.uint8)[:-4])),
                                "multiple of element size"),
    "spare-mask-bit-set": (edit_fields(set_spare_mask_bit), "spare mask bits"),
    "one-value-short": (edit_fields(lambda f, m, v, s: (f, m, v[:-1])), "mask marks"),
    "nan-fill": (edit_fields(lambda f, m, v, s: (np.r_[np.nan, f[1:]], m, v)), "NaN or inf"),
    "inf-value": (edit_fields(lambda f, m, v, s: (f, m, np.r_[np.inf, v[1:]])), "NaN or inf"),
    "value-equals-fill": (edit_fields(mark_a_fill_cell), "equals its row's fill"),
    "fill-not-the-mode": (refill_first_row, "most frequent"),
    "fill-loses-the-tie": (tie_first_row(larger_wins=True), "most frequent"),
    "a-key-too-many": (lambda r: {**r, "base64": ""}, "record keys"),
    "whole-as-in-2.0": (lambda r: {"base64": base64.b64encode(float64_values(r).tobytes()).decode(),
                                   "dtype": "<f8", "shape": r["shape"]}, "record keys"),
}


def edited_cnb_file(tmp_path, edit) -> Path:
    """A copy of the format-2.1 cnb fixture whose feature_log_prob record is ``edit(record)``."""
    path = tmp_path / "cnb.model"
    path.write_bytes((FIXTURES / "format21_hist_byte_cnb.model").read_bytes())
    rewrite_with_valid_checksum(path, lambda p: p["parameters"].update(
        feature_log_prob=edit(p["parameters"]["feature_log_prob"])))
    return path


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_float_record_that_save_model_cannot_write_is_refused(capsys, tmp_path, case):
    edit, refusal = MALFORMED_RECORDS[case]
    path = edited_cnb_file(tmp_path, edit)
    with pytest.raises(classify.ModelFormatError, match=f"malformed model body.*{refusal}"):
        load_model(path)
    capsys.readouterr()
    assert main(["predict", "--model", str(path), "--input", str(FIXTURES / "queries.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("data error: malformed model body")


def test_float_record_whose_fill_wins_the_tie_loads(tmp_path):
    # the edit that fill-loses-the-tie refuses, with the smaller pattern as the fill
    path = edited_cnb_file(tmp_path, tie_first_row(larger_wins=False))
    first_row = load_model(path).parameters["feature_log_prob"][0]
    assert (first_row == 1.0).sum() == (first_row == 2.0).sum() == 130
    save_model(load_model(path), tmp_path / "resaved.model")
    assert (tmp_path / "resaved.model").read_bytes() == path.read_bytes()


# few distinct values, so rows hold ties; -0.0 and +0.0 are different bit patterns
CELLS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(1, 6), st.data())
def test_float_record_is_the_reference_encoding_and_decodes_to_the_same_bits(rows, width, data):
    a = np.array(data.draw(st.lists(CELLS, min_size=rows * width, max_size=rows * width)))
    a = a.reshape(rows, width)
    record = {k: base64.b64encode(v.tobytes()).decode() if isinstance(v, np.ndarray) else v
              for k, v in classify._encode_array(a).items()}
    assert record == float64_record(a)
    decoded = classify._decode_array(dict(record), "<f8")
    assert decoded.shape == a.shape and decoded.tobytes() == a.tobytes()


FEATURES = [FeatureConfig("tfidf_byte"), FeatureConfig("tfidf_char", classify.codec.BASE16),
            FeatureConfig("hist_endian_byte")]


@pytest.mark.parametrize("config", FEATURES, ids=lambda c: c.describe())
@pytest.mark.parametrize("kind", classify.KINDS)
def test_save_load_save_gives_identical_bytes(tmp_path, kind, config):
    train = corpus.generate_synthetic(corpus.default_isa_specs(3), 6, 40, seed=5)
    hp = {"epochs": 2} if "epochs" in classify.DEFAULT_HYPERPARAMETERS[kind] else {}
    model = fit_model(config, ClassifierSpec(kind, hp, seed=4), train)
    save_model(model, tmp_path / "a.model")
    loaded = load_model(tmp_path / "a.model")
    assert held_arrays(loaded) == held_arrays(model)
    save_model(loaded, tmp_path / "b.model")
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()
    # a second fit with the same seed writes the same file
    save_model(fit_model(config, ClassifierSpec(kind, hp, seed=4), train), tmp_path / "c.model")
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "c.model").read_bytes()


def held_arrays(model) -> dict:
    """Every array a model holds, by name, as (dtype, shape, bytes): its parameters,
    knn's CSR arrays and the IDF vectors."""
    arrays = {}
    for name, value in model.parameters.items():
        if isinstance(value, CsrRows):
            arrays.update({f"{name}.{f}": getattr(value, f) for f in ("indptr", "indices", "data")})
        else:
            arrays[name] = value
    vocab = model.schema.vocab
    if vocab is not None:
        arrays.update(idf1=vocab.idf1, idf2=vocab.idf2, idf3=vocab.idf3)
    return {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()}


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


# file bytes of each kind fitted on tfidf-byte rows of 12 classes x 20 documents of 66
# bytes at default hyperparameters, about 1.15x what format 2.1 writes.  Format 2.0
# wrote every float array whole: 9.87 MB for each 12 x 70 792 kind, 18.9 MB for gnb
# and 1.45 MB for knn
SIZE_BOUNDS = {"mnb": 500_000, "cnb": 1_700_000, "gnb": 850_000, "knn": 900_000,
               "perceptron": 550_000, "softmax_lr": 1_800_000, "linear_svm": 850_000}


@pytest.fixture(scope="module")
def tfidf_byte_240():
    return corpus.generate_synthetic(corpus.default_isa_specs(12), 20, 66, seed=7)


@pytest.mark.parametrize("kind", classify.KINDS)
def test_model_size_stays_within_its_kinds_bound(tmp_path, tfidf_byte_240, kind):
    model = fit_model(FeatureConfig("tfidf_byte"), ClassifierSpec(kind), tfidf_byte_240)
    save_model(model, tmp_path / "m.model")
    assert (tmp_path / "m.model").stat().st_size <= SIZE_BOUNDS[kind]


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
    """A cnb model of 12 classes x 70 792 float64 log-probabilities, 6.8 MB, fitted on
    the criterion-7 corpus: its file is about 4.7 MB, 54 % of each row being the row's fill."""
    train = corpus.generate_synthetic(corpus.default_isa_specs(12), 318, 66, seed=7)
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
    assert size > 4_000_000  # its 3.1 MB of differing values span four 768 KiB chunks
    assert peak <= 1.5 * size  # building the line whole took 3.1x
    assert path.read_bytes() == canonical_file(cnb_tfidf_byte)


def test_load_model_holds_the_file_about_once(tmp_path, cnb_tfidf_byte):
    path = tmp_path / "cnb.model"
    save_model(cnb_tfidf_byte, path)
    size = path.stat().st_size
    loaded, peak = traced(lambda: load_model(path))
    # the peak above the arrays the model holds counts the copies made on the way,
    # whatever the file's compression: 0.84x the file here (copies of the bytes for
    # rstrip, rpartition and b64decode once took the whole peak to 5.6x).  The
    # arrays are 1.58x this file, so its whole peak may reach 2.48x the file
    vocab = loaded.schema.vocab
    held = (*loaded.parameters.values(), vocab.codes3, vocab.idf1, vocab.idf2, vocab.idf3,
            vocab.sorted3, vocab.pos3)
    assert peak - sum(a.nbytes for a in held) <= 0.9 * size
    assert np.array_equal(loaded.parameters["feature_log_prob"],
                          cnb_tfidf_byte.parameters["feature_log_prob"])
