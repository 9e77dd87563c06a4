import base64
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import types

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from isagram import classify, cli, codec, corpus, vectorize
from isagram.cli import main
from test_classify import (
    MALFORMED_ARRAYS,
    MALFORMED_LABELS,
    MISTYPED_FIELDS,
    fitted_model_file,
    labelled_model_file,
    rewrite_with_valid_checksum,
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def make_corpus_file(tmp_path, classes=4, docs_per_class=30, length=48, seed=11):
    specs = corpus.default_isa_specs(classes)
    c = corpus.generate_synthetic(specs, docs_per_class, length, seed)
    path = tmp_path / "corpus.jsonl"
    corpus.write_jsonl(c, path)
    return path, c


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def test_codec_encode_golden(capsys):
    rc, out, _ = run(capsys, "codec", "encode", "--base", "85", "--hex", "d743d444d644d845")
    assert rc == 0
    assert out == "f0e%UejS.Z\n"


def test_codec_decode_golden(capsys):
    rc, out, _ = run(
        capsys, "codec", "decode", "--base", "64", "--text", "10PURNZE2EU=", "--hex-out"
    )
    assert rc == 0
    assert out == "d743d444d644d845\n"


def test_codec_decode_writes_raw_bytes_without_hex_out(capsysbinary):
    assert main(["codec", "decode", "--base", "64", "--text", "10PURNZE2EU="]) == 0
    assert capsysbinary.readouterr().out == bytes.fromhex("d743d444d644d845")


def test_codec_encode_reads_stdin_bytes(capsys, monkeypatch):
    fake = types.SimpleNamespace(buffer=io.BytesIO(bytes.fromhex("d743d444d644d845")))
    monkeypatch.setattr("sys.stdin", fake)
    rc, out, _ = run(capsys, "codec", "encode", "--base", "16")
    assert rc == 0
    assert out == "D743D444D644D845\n"


def test_codec_decode_reads_stdin_text(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("25B5IRGWITMEK===\n"))
    rc, out, _ = run(capsys, "codec", "decode", "--base", "32", "--hex-out")
    assert rc == 0
    assert out == "d743d444d644d845\n"


def test_codec_rejects_unknown_base(capsys):
    rc, _, err = run(capsys, "codec", "encode", "--base", "7", "--hex", "00")
    assert rc == 1
    assert "usage error" in err


def test_codec_bad_hex_is_usage_error(capsys):
    rc, _, err = run(capsys, "codec", "encode", "--base", "16", "--hex", "zz")
    assert rc == 1


def test_codec_decode_error_is_data_error(capsys):
    rc, _, err = run(capsys, "codec", "decode", "--base", "64", "--text", "A===")
    assert rc == 2
    assert "data error" in err


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_roundtrip_protocol_scale(capsys, tmp_path):
    out_path = tmp_path / "synth.jsonl"
    rc, out, _ = run(
        capsys, "generate", "--classes", "12", "--docs-per-class", "318",
        "--len", "66", "--seed", "7", "--out", str(out_path),
    )
    assert rc == 0
    assert out == "wrote 3816 documents\n"
    c = corpus.ingest(out_path, "jsonl")
    assert len(c) == 3816
    assert len(c.label_set) == 12


def test_generate_rejects_bad_class_count(capsys, tmp_path):
    rc, _, err = run(
        capsys, "generate", "--classes", "0", "--docs-per-class", "5",
        "--len", "40", "--out", str(tmp_path / "x.jsonl"),
    )
    assert rc == 1


@pytest.mark.parametrize("docs, length", [("0", "40"), ("-1", "40"), ("5", "7")])
def test_generate_out_of_range_size_is_usage_error(capsys, tmp_path, docs, length):
    out_path = tmp_path / "x.jsonl"
    rc, out, err = run(
        capsys, "generate", "--docs-per-class", docs, "--len", length, "--out", str(out_path),
    )
    assert rc == 1
    assert out == "" and "usage error" in err
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_reports_dimension_and_classes(capsys, tmp_path):
    corpus_path, c = make_corpus_file(tmp_path)
    model_path = tmp_path / "m.model"
    rc, out, _ = run(
        capsys, "train", "--corpus", str(corpus_path), "--features", "tfidf-char",
        "--encoding", "base16", "--model", "cnb", "--out", str(model_path),
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "dimension 4368"
    assert lines[1] == f"documents {len(c)}"
    class_lines = [l for l in lines if l.startswith("class ")]
    assert len(class_lines) == 4
    assert all(l.endswith(" 30") for l in class_lines)
    loaded = classify.load_model(model_path)
    assert loaded.spec.kind == "cnb"
    assert loaded.schema.dimension == 4368


def test_train_char_requires_encoding(capsys, tmp_path):
    corpus_path, _ = make_corpus_file(tmp_path)
    rc, _, err = run(
        capsys, "train", "--corpus", str(corpus_path), "--features", "tfidf-char",
        "--model", "cnb", "--out", str(tmp_path / "m.model"),
    )
    assert rc == 1
    assert "encoding" in err


def test_train_missing_corpus_is_data_error(capsys, tmp_path):
    rc, _, err = run(
        capsys, "train", "--corpus", str(tmp_path / "absent.jsonl"),
        "--features", "hist-byte", "--model", "gnb", "--out", str(tmp_path / "m.model"),
    )
    assert rc == 2
    assert "data error" in err


def test_train_bad_hyperparameter_is_usage_error(capsys, tmp_path):
    corpus_path, _ = make_corpus_file(tmp_path)
    rc, _, _ = run(
        capsys, "train", "--corpus", str(corpus_path), "--features", "hist-byte",
        "--model", "knn", "--k", "0", "--out", str(tmp_path / "m.model"),
    )
    assert rc == 1


def test_train_flags_reach_the_hyperparameters_they_name(capsys, tmp_path):
    corpus_path, _ = make_corpus_file(tmp_path, docs_per_class=8)
    model_path = tmp_path / "m.model"
    rc, _, _ = run(
        capsys, "train", "--corpus", str(corpus_path), "--features", "hist-byte",
        "--model", "svm", "--svm-lambda", "0.001", "--epochs", "2", "--out", str(model_path),
    )
    assert rc == 0
    hp = classify.load_model(model_path).spec.hyperparameters
    assert (hp["lam"], hp["epochs"]) == (0.001, 2)
    # the first flag the kind does not take, in flag order, is the one named
    rc, _, err = run(
        capsys, "train", "--corpus", str(corpus_path), "--features", "hist-byte",
        "--model", "cnb", "--var-floor", "1", "--epochs", "1", "--k", "1",
        "--out", str(model_path),
    )
    assert rc == 1 and "'k'" in err
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    assert "--svm-lambda SVM_LAMBDA" in capsys.readouterr().out


def write_records(path, records):
    """A jsonl corpus of (label, payload) records; a label of None is left out."""
    with open(path, "w") as fh:
        for i, (label, payload) in enumerate(records):
            rec = {"id": str(i), "data_b64": base64.b64encode(payload).decode()}
            if label is not None:
                rec["label"] = label
            fh.write(json.dumps(rec) + "\n")
    return path


@pytest.mark.parametrize(
    "labels", [["a", "b", None], ["a", "a", "a"]], ids=["unlabeled", "one-label"]
)
def test_train_on_unusable_corpus_is_data_error(capsys, tmp_path, labels):
    records = [(label, bytes([i + 1]) * 8) for i, label in enumerate(labels)]
    corpus_path = write_records(tmp_path / "c.jsonl", records)
    rc, _, err = run(
        capsys, "train", "--corpus", str(corpus_path), "--features", "hist-byte",
        "--model", "cnb", "--out", str(tmp_path / "m.model"),
    )
    assert rc == 2
    assert err.startswith("data error:")


@pytest.mark.parametrize(
    "model, flag, value, code",
    [
        ("mnb", "--alpha", "inf", 1),
        ("mnb", "--alpha", "nan", 1),
        ("lr", "--learning-rate", "inf", 1),
        ("mnb", "--alpha", "1e308", 2),  # finite, but the fitted weights are not
        ("lr", "--learning-rate", "1e308", 2),
    ],
)
def test_train_nonfinite_hyperparameter_or_fit_is_refused(capsys, tmp_path, model, flag, value, code):
    corpus_path, _ = make_corpus_file(tmp_path, docs_per_class=4)
    out = tmp_path / "m.model"
    rc, stdout, err = run(
        capsys, "train", "--corpus", str(corpus_path), "--features", "hist-byte",
        "--model", model, flag, value, "--out", str(out),
    )
    assert rc == code
    assert err.startswith("usage error:" if code == 1 else "data error:")
    assert stdout == "" and not out.exists()


def test_train_and_predict_with_a_huge_integer_k(capsys, tmp_path):
    """A k beyond float range is finite; it is clamped to the training size."""
    corpus_path, _ = make_corpus_file(tmp_path, docs_per_class=4)
    out = tmp_path / "m.model"
    rc, _, err = run(
        capsys, "train", "--corpus", str(corpus_path), "--features", "hist-byte",
        "--model", "knn", "--k", "1" + "0" * 400, "--out", str(out),
    )
    assert (rc, err) == (0, "")
    rc, stdout, err = run(capsys, "predict", "--model", str(out), "--input", str(corpus_path))
    assert (rc, err) == (0, "")
    assert len(stdout.splitlines()) == 16


BAD_LABELS = [3, ["a"], {"x": "a"}, True, 1.5, "\ud800"]


def test_train_skips_records_whose_label_is_not_a_string(capsys, tmp_path, caplog):
    good = [(label, bytes([i + 1]) * 8) for i, label in enumerate("abab")]
    bad = [(label, b"\x09" * 8) for label in BAD_LABELS]
    corpus_path = write_records(tmp_path / "c.jsonl", good + bad)
    rc, out, _ = run(
        capsys, "train", "--corpus", str(corpus_path), "--features", "hist-byte",
        "--model", "cnb", "--out", str(tmp_path / "m.model"),
    )
    assert rc == 0
    assert out.splitlines()[1:] == ["documents 4", "class a 2", "class b 2"]
    assert f"skipped {len(BAD_LABELS)} malformed record(s)" in caplog.text
    assert "label must be a string or null, got list" in caplog.text


def test_predict_stdin_skips_records_whose_label_is_not_a_string(
    capsys, monkeypatch, caplog, knn_model
):
    _, model_path, c = knn_model
    lines = [
        json.dumps({"id": f"q{i}", "label": label, "data_b64": base64.b64encode(c.documents[i].payload).decode()})
        for i, label in enumerate([None, "x", *BAD_LABELS])
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    rc, out, _ = run(capsys, "predict", "--model", str(model_path), "--input", "-")
    assert rc == 0
    assert [line.split("\t")[0] for line in out.splitlines()] == ["q0", "q1"]
    assert f"skipped {len(BAD_LABELS)} malformed record(s) while ingesting <stdin>" in caplog.text


NOT_UTF8 = b'{"id": "a", "label": "a", "data_b64": "AQI="}\n\xff\xfe{}\n'


def test_train_on_non_utf8_corpus_is_data_error(capsys, tmp_path):
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_bytes(NOT_UTF8)
    rc, _, err = run(
        capsys, "train", "--corpus", str(corpus_path), "--features", "hist-byte",
        "--model", "cnb", "--out", str(tmp_path / "m.model"),
    )
    assert rc == 2
    assert err.startswith("data error:") and "not UTF-8" in err


def test_predict_non_utf8_stdin_is_data_error(capsys, monkeypatch, knn_model):
    _, model_path, _ = knn_model
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
    rc, _, err = run(capsys, "predict", "--model", str(model_path), "--input", "-")
    assert rc == 2
    assert err.startswith("data error: <stdin> is not UTF-8")


@pytest.mark.parametrize("command", ["train", "featurize"])
def test_negative_ngram3_cap_is_usage_error(capsys, tmp_path, command):
    corpus_path, _ = make_corpus_file(tmp_path, docs_per_class=4)
    model = ["--model", "cnb"] if command == "train" else []
    rc, _, err = run(
        capsys, command, "--corpus", str(corpus_path), "--features", "tfidf-byte",
        "--ngram3-cap", "-1", *model, "--out", str(tmp_path / "out"),
    )
    assert rc == 1
    assert "ngram3_cap" in err


def test_train_takes_an_inline_char_encoding(capsys, tmp_path):
    corpus_path, _ = make_corpus_file(tmp_path, docs_per_class=4)
    inline, flag = tmp_path / "inline.model", tmp_path / "flag.model"
    common = ("train", "--corpus", str(corpus_path), "--model", "cnb", "--out")
    rc, out, err = run(capsys, *common, str(inline), "--features", "tfidf-char:base16")
    assert (rc, err) == (0, "")
    assert run(capsys, *common, str(flag), "--features", "tfidf-char",
               "--encoding", "base16") == (0, out, "")
    assert inline.read_bytes() == flag.read_bytes()


# (command, --features, --models) that one parse of the feature and model
# tokens refuses, whichever command reads them
BAD_TOKENS = {
    "unknown-feature-in-a-list": ("evaluate", "tfidf-byte,nope", "cnb"),
    "train-byte-method-with-encoding": ("train", "tfidf-byte:base16", "cnb"),
    "featurize-byte-method-with-encoding": ("featurize", "tfidf-byte:base16", None),
    "evaluate-byte-method-with-encoding": ("evaluate", "hist-byte,tfidf-byte:base16", "cnb"),
    "train-unknown-encoding": ("train", "tfidf-char:base99", "cnb"),
    "featurize-unknown-encoding": ("featurize", "tfidf-char:base99", None),
    "evaluate-unknown-encoding": ("evaluate", "tfidf-char:base99", "cnb"),
    "no-feature-in-the-list": ("evaluate", ",", "cnb"),
    "no-model-in-the-list": ("evaluate", "hist-byte", ","),
}


@pytest.mark.parametrize("case", sorted(BAD_TOKENS))
def test_bad_feature_or_model_token_is_usage_error(capsys, tmp_path, case):
    command, features, models = BAD_TOKENS[case]
    corpus_path, _ = make_corpus_file(tmp_path, docs_per_class=4)
    model = [] if models is None else ["--model" if command == "train" else "--models", models]
    out_flag = "--out-dir" if command == "evaluate" else "--out"
    rc, out, err = run(
        capsys, command, "--corpus", str(corpus_path), "--features", features, *model,
        out_flag, str(tmp_path / "out"),
    )
    assert (rc, out) == (1, "")
    assert err.startswith("usage error:")
    if "unknown-encoding" in case:  # the message itself, not its repr
        assert err.startswith("usage error: unknown encoding 'base99'")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

@pytest.fixture()
def knn_model(tmp_path, capsys):
    corpus_path, c = make_corpus_file(tmp_path)
    model_path = tmp_path / "knn.model"
    rc, _, _ = run(
        capsys, "train", "--corpus", str(corpus_path), "--features", "hist-byte",
        "--model", "knn", "--k", "1", "--out", str(model_path),
    )
    assert rc == 0
    return corpus_path, model_path, c


def test_predict_memorizes_training_set(capsys, knn_model):
    corpus_path, model_path, c = knn_model
    rc, out, _ = run(
        capsys, "predict", "--model", str(model_path), "--input", str(corpus_path)
    )
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == len(c)
    for doc, line in zip(c, lines):
        doc_id, label, score = line.split("\t")
        assert doc_id == doc.id
        assert label == doc.label
        float(score)  # machine-parsable top score


def test_predict_raw_single_file(capsys, monkeypatch, tmp_path, knn_model):
    _, model_path, c = knn_model
    raw = tmp_path / "sample.bin"
    raw.write_bytes(c.documents[0].payload)
    rc, out, _ = run(
        capsys, "predict", "--model", str(model_path), "--input", str(raw),
        "--format", "raw",
    )
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].split("\t")[0] == "sample.bin"
    assert lines[0].split("\t")[1] == c.documents[0].label
    # the same bytes on stdin, named "-"
    monkeypatch.setattr("sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(raw.read_bytes())))
    rc, from_stdin, _ = run(
        capsys, "predict", "--model", str(model_path), "--input", "-", "--format", "raw"
    )
    assert (rc, from_stdin) == (0, out.replace("sample.bin", "-", 1))


def test_predict_raw_empty_file_is_data_error(capsys, tmp_path, knn_model):
    _, model_path, _ = knn_model
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    rc, out, err = run(
        capsys, "predict", "--model", str(model_path), "--input", str(empty), "--format", "raw"
    )
    assert (rc, out) == (2, "")
    assert err == "data error: empty payload\n"


def run_strict(*argv):
    """``python -m isagram`` whose stdout is strict UTF-8, as in a UTF-8 desktop locale."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8:strict"}
    return subprocess.run([sys.executable, "-m", "isagram", *argv], capture_output=True,
                          env=env, timeout=300)


def test_predict_raw_on_a_non_utf8_file_name_is_data_error(tmp_path, knn_model):
    _, model_path, c = knn_model
    raw = tmp_path / os.fsdecode(b"raw\xfe.bin")
    raw.write_bytes(c.documents[0].payload)
    done = run_strict("predict", "--model", str(model_path), "--input", str(raw), "--format", "raw")
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"data error: label or id is not valid Unicode\n"


def test_predict_raw_file_name_with_a_control_character(capsys, monkeypatch, tmp_path, knn_model):
    _, model_path, c = knn_model
    raw = tmp_path / "x\ty.bin"
    raw.write_bytes(c.documents[0].payload)
    rc, out, err = run(
        capsys, "predict", "--model", str(model_path), "--input", str(raw), "--format", "raw"
    )
    assert (rc, out, err) == (2, "", "data error: label or id holds an ASCII control character\n")
    # the same bytes on stdin are named "-" and scored
    monkeypatch.setattr("sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(raw.read_bytes())))
    rc, out, _ = run(capsys, "predict", "--model", str(model_path), "--input", "-", "--format", "raw")
    assert rc == 0 and out.startswith(f"-\t{c.documents[0].label}\t") and out.count("\n") == 1


def test_predict_skips_a_jsonl_id_with_a_tab_or_newline(capsys, monkeypatch, knn_model):
    _, model_path, c = knn_model
    b64 = base64.b64encode(c.documents[5].payload).decode()
    lines = [json.dumps({"id": doc_id, "data_b64": b64}) for doc_id in ("x\ty\nz", "q1")]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    rc, out, _ = run(capsys, "predict", "--model", str(model_path), "--input", "-")
    assert rc == 0 and out.count("\n") == 1 and out.startswith("q1\t")


def test_predict_jsonl_from_stdin(capsys, monkeypatch, knn_model):
    _, model_path, c = knn_model
    doc = c.documents[5]
    line = json.dumps({"id": "q1", "label": None, "data_b64": __import__("base64").b64encode(doc.payload).decode()})
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    rc, out, _ = run(capsys, "predict", "--model", str(model_path), "--input", "-")
    assert rc == 0
    assert out.splitlines()[0].split("\t")[:2] == ["q1", doc.label]


def test_predict_stdin_needs_no_temporary_file(capsys, monkeypatch, knn_model):
    corpus_path, model_path, c = knn_model

    def no_temp_files(*args, **kwargs):
        raise OSError("no temporary files here")

    monkeypatch.setattr(tempfile, "NamedTemporaryFile", no_temp_files)
    monkeypatch.setattr("sys.stdin", io.StringIO(corpus_path.read_text()))
    rc, out, _ = run(capsys, "predict", "--model", str(model_path), "--input", "-")
    assert rc == 0
    assert [line.split("\t")[1] for line in out.splitlines()] == [d.label for d in c]


def test_raw_predict_on_a_tfidf_model_does_not_import_numpy_ma(capsys, tmp_path):
    # numpy.ma, which np.unique imports, costs 12 ms of every predict process
    model_path, doc = tmp_path / "cnb.model", tmp_path / "doc.bin"
    corpus_path, c = make_corpus_file(tmp_path, classes=3, docs_per_class=8)
    assert main(["train", "--corpus", str(corpus_path), "--features", "tfidf-byte",
                 "--model", "cnb", "--out", str(model_path)]) == 0
    doc.write_bytes(c.documents[0].payload)
    probe = ("import sys\nfrom isagram.cli import main\nrc = main(sys.argv[1:])\n"
             "print(rc, 'numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(classify.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe, "predict", "--model", str(model_path), "--format", "raw",
         "--input", str(doc)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout.splitlines()
    assert out[0].startswith("doc.bin\t") and out[-1] == "0 False"


def test_predict_reads_the_same_records_from_file_and_stdin(tmp_path, knn_model):
    # A real process, so stdin splits lines as the interpreter sets it up.
    _, model_path, c = knn_model
    records = [
        json.dumps({"id": f"q{i}", "data_b64": base64.b64encode(c.documents[i].payload).decode()})
        for i in range(4)
    ]
    # "\r\n" ends a record; a lone "\r" does not, so q1 and q2 form one malformed line.
    data = (records[0] + "\r\n" + records[1] + "\r" + records[2] + "\n" + records[3] + "\n").encode()
    path = tmp_path / "mixed.jsonl"
    path.write_bytes(data)
    argv = [sys.executable, "-m", "isagram", "predict", "--model", str(model_path), "--input"]
    from_file = subprocess.run(argv + [str(path)], capture_output=True)
    from_stdin = subprocess.run(argv + ["-"], input=data, capture_output=True)
    assert from_file.returncode == from_stdin.returncode == 0
    assert from_file.stdout == from_stdin.stdout
    assert [line.split(b"\t")[0] for line in from_file.stdout.splitlines()] == [b"q0", b"q3"]
    assert b"skipped 1 malformed record(s) while ingesting <stdin>" in from_stdin.stderr


def test_predict_empty_stdin_names_stdin(capsys, monkeypatch, knn_model):
    _, model_path, _ = knn_model
    monkeypatch.setattr("sys.stdin", io.StringIO("not json\n"))
    rc, _, err = run(capsys, "predict", "--model", str(model_path), "--input", "-")
    assert rc == 2
    assert "zero valid records in <stdin>" in err


def test_predict_corrupt_model_is_data_error(capsys, tmp_path, knn_model):
    _, model_path, _ = knn_model
    raw = model_path.read_text()
    i = raw.index('"kind"')
    (tmp_path / "bad.model").write_text(raw[:i] + '"kinq"' + raw[i + 6 :])
    rc, _, err = run(
        capsys, "predict", "--model", str(tmp_path / "bad.model"),
        "--input", str(tmp_path / "corpus.jsonl"),
    )
    assert rc == 2
    assert "checksum" in err


@pytest.mark.parametrize("case", sorted(MALFORMED_ARRAYS))
def test_predict_malformed_model_arrays_is_data_error(capsys, tmp_path, case):
    model_path = fitted_model_file(tmp_path, "knn")
    rewrite_with_valid_checksum(model_path, MALFORMED_ARRAYS[case])
    corpus_path, _ = make_corpus_file(tmp_path, classes=2, docs_per_class=1)
    rc, out, err = run(capsys, "predict", "--model", str(model_path), "--input", str(corpus_path))
    assert rc == 2
    assert out == "" and err.startswith("data error: malformed model body")


@pytest.mark.parametrize("case", sorted(MALFORMED_LABELS))
def test_predict_malformed_model_labels_is_data_error(capsys, tmp_path, case):
    model_path = labelled_model_file(tmp_path)
    rewrite_with_valid_checksum(model_path, MALFORMED_LABELS[case])
    corpus_path, _ = make_corpus_file(tmp_path, classes=2, docs_per_class=1)
    rc, out, err = run(capsys, "predict", "--model", str(model_path), "--input", str(corpus_path))
    assert rc == 2
    assert out == "" and err.startswith("data error: malformed model body")


@pytest.mark.parametrize("case", sorted(MISTYPED_FIELDS))
def test_predict_with_mistyped_model_fields_is_data_error(capsys, tmp_path, case):
    model_path = labelled_model_file(tmp_path, "mnb", ("A", "B"))
    rewrite_with_valid_checksum(model_path, MISTYPED_FIELDS[case])
    corpus_path, _ = make_corpus_file(tmp_path, classes=2, docs_per_class=1)
    rc, out, err = run(capsys, "predict", "--model", str(model_path), "--input", str(corpus_path))
    assert rc == 2
    assert out == "" and err.startswith("data error: malformed model body")


@pytest.mark.parametrize("body", [b"not json", b"[1]"], ids=["not-json", "not-an-object"])
def test_predict_with_a_model_body_that_is_not_a_json_object_is_data_error(capsys, tmp_path, body):
    model_path = tmp_path / "m.model"
    model_path.write_bytes(body + b"\nsha256:" + hashlib.sha256(body).hexdigest().encode() + b"\n")
    with pytest.raises(classify.ModelFormatError, match="unparsable model body"):
        classify.load_model(model_path)
    corpus_path, _ = make_corpus_file(tmp_path, classes=2, docs_per_class=1)
    rc, out, err = run(capsys, "predict", "--model", str(model_path), "--input", str(corpus_path))
    assert (rc, out) == (2, "")
    assert err.startswith("data error: unparsable model body")


def test_predict_with_a_model_without_schema_is_data_error(capsys, tmp_path):
    model_path = fitted_model_file(tmp_path)  # fit_vectors on bare rows
    corpus_path, _ = make_corpus_file(tmp_path, classes=2, docs_per_class=1)
    rc, _, err = run(capsys, "predict", "--model", str(model_path), "--input", str(corpus_path))
    assert rc == 2
    assert "no feature schema" in err


def test_predict_in_batches_prints_the_unbatched_output(capsys, monkeypatch, tmp_path):
    corpus_path, _ = make_corpus_file(tmp_path, classes=2, docs_per_class=5)
    model_path = tmp_path / "cnb.model"
    rc, _, _ = run(capsys, "train", "--corpus", str(corpus_path), "--features", "tfidf-byte",
                   "--model", "cnb", "--out", str(model_path))
    assert rc == 0
    argv = ("predict", "--model", str(model_path), "--input", str(corpus_path))
    rc, whole, _ = run(capsys, *argv)
    assert rc == 0 and len(whole.splitlines()) == 10
    sizes = []
    transform_rows = vectorize.transform_rows

    def counted(schema, docs):
        sizes.append(len(docs))
        return transform_rows(schema, docs)

    monkeypatch.setattr(cli, "PREDICT_BATCH", 3)
    monkeypatch.setattr(vectorize, "transform_rows", counted)
    rc, batched, _ = run(capsys, *argv)
    assert rc == 0
    assert sizes == [3, 3, 3, 1]
    assert batched == whole


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_writes_reports_and_ranks_stdout(capsys, tmp_path):
    corpus_path, _ = make_corpus_file(tmp_path)
    out_dir = tmp_path / "reports"
    rc, out, _ = run(
        capsys, "evaluate", "--corpus", str(corpus_path),
        "--features", "tfidf-byte,hist-byte", "--models", "cnb,knn",
        "--repeats", "2", "--train-per-class", "20", "--test-per-class", "9",
        "--ngram3-cap", "200", "--seed", "3", "--out-dir", str(out_dir),
    )
    assert rc == 0
    reports = sorted(p.name for p in out_dir.glob("report_*.csv"))
    assert reports == [
        "report_hist-endian-byte_cnb.csv",
        "report_hist-endian-byte_knn.csv",
        "report_tfidf-byte_cnb.csv",
        "report_tfidf-byte_knn.csv",
    ]
    assert len(list(out_dir.glob("confusion_*.csv"))) == 4
    body = (out_dir / "report_tfidf-byte_cnb.csv").read_text().splitlines()
    assert body[0] == "method,encoding,classifier,repeat,accuracy"
    assert len(body) == 3
    lines = out.splitlines()
    assert lines[0].startswith("features")
    means = [float(l.split()[2]) for l in lines[1:]]
    assert means == sorted(means, reverse=True)
    assert len(means) == 4


def test_evaluate_unknown_model_is_usage_error(capsys, tmp_path):
    corpus_path, _ = make_corpus_file(tmp_path)
    rc, _, err = run(
        capsys, "evaluate", "--corpus", str(corpus_path), "--models", "xgboost",
        "--out-dir", str(tmp_path / "r"),
    )
    assert rc == 1
    assert "xgboost" in err


def test_evaluate_flag_goes_only_to_kinds_that_take_it(capsys, tmp_path):
    corpus_path, _ = make_corpus_file(tmp_path)
    out_dir = tmp_path / "r"
    rc, out, err = run(
        capsys, "evaluate", "--corpus", str(corpus_path), "--features", "hist-byte",
        "--models", "mnb,cnb,gnb,knn,ptn,lr,svm", "--epochs", "1", "--repeats", "1",
        "--train-per-class", "20", "--test-per-class", "9", "--out-dir", str(out_dir),
    )
    assert rc == 0, err
    assert len(out.splitlines()) == 1 + 7
    assert len(list(out_dir.glob("report_*.csv"))) == 7


def test_evaluate_flag_no_listed_kind_takes_is_usage_error(capsys, tmp_path):
    corpus_path, _ = make_corpus_file(tmp_path)
    rc, out, err = run(
        capsys, "evaluate", "--corpus", str(corpus_path), "--features", "hist-byte",
        "--models", "mnb,cnb", "--epochs", "1", "--out-dir", str(tmp_path / "r"),
    )
    assert rc == 1
    assert out == ""
    assert "epochs" in err


def test_evaluate_infeasible_split_is_data_error(capsys, tmp_path):
    corpus_path, _ = make_corpus_file(tmp_path)
    rc, _, err = run(
        capsys, "evaluate", "--corpus", str(corpus_path), "--repeats", "2",
        "--train-per-class", "1000", "--test-per-class", "10",
        "--out-dir", str(tmp_path / "r"),
    )
    assert rc == 2


def test_evaluate_on_one_label_is_data_error(capsys, tmp_path):
    records = [("a", bytes([i + 1]) * 8) for i in range(6)]
    corpus_path = write_records(tmp_path / "c.jsonl", records)
    rc, _, err = run(
        capsys, "evaluate", "--corpus", str(corpus_path), "--repeats", "1",
        "--train-per-class", "3", "--test-per-class", "2", "--out-dir", str(tmp_path / "r"),
    )
    assert rc == 2
    assert err.startswith("data error:")


@pytest.mark.parametrize("flag", ["--repeats", "--train-per-class"])
def test_evaluate_zero_count_flag_is_usage_error(capsys, tmp_path, flag):
    corpus_path, _ = make_corpus_file(tmp_path, docs_per_class=4)
    counts = {"--repeats": "1", "--train-per-class": "2", "--test-per-class": "1", flag: "0"}
    rc, _, err = run(
        capsys, "evaluate", "--corpus", str(corpus_path),
        *[x for pair in counts.items() for x in pair], "--out-dir", str(tmp_path / "r"),
    )
    assert rc == 1
    assert err.startswith("usage error:")


def test_evaluate_inline_char_encoding(capsys, tmp_path):
    corpus_path, _ = make_corpus_file(tmp_path, docs_per_class=16)
    out_dir = tmp_path / "r"
    rc, _, _ = run(
        capsys, "evaluate", "--corpus", str(corpus_path),
        "--features", "tfidf-char:base16", "--models", "gnb",
        "--repeats", "1", "--train-per-class", "10", "--test-per-class", "4",
        "--out-dir", str(out_dir),
    )
    assert rc == 0
    assert (out_dir / "report_tfidf-char-base16_gnb.csv").exists()


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------

def test_featurize_hist_byte_width(capsys, tmp_path):
    corpus_path, c = make_corpus_file(tmp_path, docs_per_class=5)
    out_csv = tmp_path / "features.csv"
    rc, out, _ = run(
        capsys, "featurize", "--corpus", str(corpus_path),
        "--features", "hist-byte", "--out", str(out_csv),
    )
    assert rc == 0
    assert out == f"wrote {len(c)} rows\n"
    lines = out_csv.read_text().splitlines()
    assert len(lines) == len(c) + 1
    assert all(len(l.split(",")) == 2 + 260 for l in lines)


def test_featurize_dir_corpus_skips_an_empty_file(capsys, tmp_path, caplog):
    root = tmp_path / "corpus"
    for label, payloads in {"a": [b"\x01\x02\x03", b""], "b": [b"\x04\x05"]}.items():
        (root / label).mkdir(parents=True)
        for i, payload in enumerate(payloads):
            (root / label / f"{i}.bin").write_bytes(payload)
    out_csv = tmp_path / "features.csv"
    rc, out, _ = run(
        capsys, "featurize", "--corpus", str(root), "--format", "dir",
        "--features", "hist-byte", "--out", str(out_csv),
    )
    assert (rc, out) == (0, "wrote 2 rows\n")
    assert [line.split(",")[0] for line in out_csv.read_text().splitlines()[1:]] == ["a/0.bin", "b/0.bin"]
    assert "1.bin: empty payload" in caplog.text
    assert "skipped 1 malformed record(s)" in caplog.text


def test_dir_corpus_skips_a_class_whose_name_is_not_utf8(tmp_path):
    # under a strict UTF-8 stdout the class name could be neither printed nor written
    root = tmp_path / "corpus"
    names = {"isa00": "isa00", "isa01": "isa01", "isa02": os.fsdecode(b"a\xff")}
    for d in corpus.generate_synthetic(corpus.default_isa_specs(3), 12, 48, 5):
        (root / names[d.label]).mkdir(parents=True, exist_ok=True)
        (root / names[d.label] / f"{d.id.split('/')[1]}.bin").write_bytes(d.payload)
    common = ["--corpus", str(root), "--format", "dir", "--features", "hist-byte"]
    outs = {}
    for argv in (
        ["train", "--model", "cnb", "--out", str(tmp_path / "m.model")],
        ["evaluate", "--models", "cnb", "--repeats", "2", "--train-per-class", "8",
         "--test-per-class", "4", "--out-dir", str(tmp_path / "eval")],
        ["featurize", "--out", str(tmp_path / "f.csv")],
    ):
        done = run_strict(*argv, *common)
        assert done.returncode == 0, done.stderr
        assert b"a\\udcff/00000.bin: label or id is not valid Unicode" in done.stderr
        assert b"skipped 12 malformed record(s)" in done.stderr
        outs[argv[0]] = done.stdout.decode()
    assert outs["train"].endswith("documents 24\nclass isa00 12\nclass isa01 12\n")
    assert outs["featurize"] == "wrote 24 rows\n"
    confusion = (tmp_path / "eval" / "confusion_hist-endian-byte_cnb.csv").read_text()
    assert confusion.startswith("label,isa00,isa01,precision,recall\n")


def test_featurize_empty_corpus_header_only(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out_csv = tmp_path / "features.csv"
    rc, out, _ = run(
        capsys, "featurize", "--corpus", str(empty),
        "--features", "hist-byte", "--out", str(out_csv),
    )
    assert rc == 0
    assert out == "wrote 0 rows\n"
    assert len(out_csv.read_text().splitlines()) == 1


def test_featurize_tfidf_on_empty_corpus_is_data_error(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc, _, err = run(
        capsys, "featurize", "--corpus", str(empty),
        "--features", "tfidf-byte", "--out", str(tmp_path / "f.csv"),
    )
    assert rc == 2


def test_featurize_encodes_and_counts_the_corpus_once(capsys, tmp_path, monkeypatch):
    corpus_path, c = make_corpus_file(tmp_path, docs_per_class=5)
    calls = {"encode_digits": 0, "gram_table": 0}

    def counting(module, name):
        original = getattr(module, name)

        def shim(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, shim)

    counting(codec, "encode_digits")
    counting(vectorize, "gram_table")
    rc, out, _ = run(
        capsys, "featurize", "--corpus", str(corpus_path),
        "--features", "tfidf-char:base85", "--out", str(tmp_path / "f.csv"),
    )
    assert rc == 0 and out == f"wrote {len(c)} rows\n"
    assert calls == {"encode_digits": 1, "gram_table": 3}


def test_featurize_inline_encoding(capsys, tmp_path):
    corpus_path, c = make_corpus_file(tmp_path, docs_per_class=5)
    out_csv = tmp_path / "features.csv"
    rc, _, _ = run(
        capsys, "featurize", "--corpus", str(corpus_path),
        "--features", "hist-char:base32", "--out", str(out_csv),
    )
    assert rc == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.split(",")[-1] == "f35"  # 32 + 4 features


# ---------------------------------------------------------------------------
# arbitrary input ends in a documented exit code
# ---------------------------------------------------------------------------

JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["a", "b", "\ud800", ""])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
B64 = st.binary(max_size=10).map(lambda b: base64.b64encode(b).decode())
RECORDS = st.fixed_dictionaries(
    {}, optional={"id": JSON_VALUES, "label": JSON_VALUES, "data_b64": B64 | JSON_VALUES}
)
PAYLOAD_RECORDS = st.fixed_dictionaries({  # lone surrogates are valid JSON, not printable
    "id": st.text(max_size=4) | st.just("\udc80"),
    "label": st.sampled_from(["a", "b", "\ud800"]),
    "data_b64": st.binary(min_size=1, max_size=10).map(lambda b: base64.b64encode(b).decode()),
})
TWO_CLASSES = [  # prepended to some corpora, so that training often succeeds
    json.dumps({"id": f"g{i}", "label": "ab"[i], "data_b64": "AAEC"}).encode() for i in range(2)
]
LINES = st.one_of(
    *(s.map(json.dumps).map(str.encode) for s in (PAYLOAD_RECORDS, RECORDS, JSON_VALUES)),
    st.binary(max_size=16),
)
FLAGS = st.one_of(
    st.tuples(st.just("mnb"), st.just("--alpha"), st.floats(1e-3, 10.0) | st.floats()),
    st.tuples(st.just("lr"), st.just("--learning-rate"), st.floats(1e-3, 10.0) | st.floats()),
    st.tuples(st.just("gnb"), st.just("--var-floor"), st.floats(1e-12, 1.0) | st.floats()),
    st.tuples(  # a Python int may lie beyond float range
        st.just("knn"), st.just("--k"), st.integers(1, 5) | st.integers() | st.just(10**400)
    ),
)


def run_quietly(argv, stdin=b""):
    # UTF-8 streams as in a process: stdout strict, stderr backslashreplace
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace",
                           write_through=True)
    old_stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", newline="\n")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        sys.stdin = old_stdin
    return rc, err.buffer.getvalue().decode("utf-8")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(LINES, max_size=8), two_classes=st.booleans(), flags=FLAGS)
@example(lines=[], two_classes=True, flags=("gnb", "--var-floor", 1e308))  # log(2 pi var) overflows
@example(lines=[], two_classes=True, flags=("gnb", "--var-floor", 5e-324))  # 1/var overflows
def test_arbitrary_jsonl_and_flag_values_exit_0_1_or_2(lines, two_classes, flags):
    data = b"\n".join(TWO_CLASSES * two_classes + lines) + b"\n"
    model, flag, value = flags
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = os.path.join(tmp, "c.jsonl")
        model_path = os.path.join(tmp, "m.model")
        with open(corpus_path, "wb") as fh:
            fh.write(data)
        rc, err = run_quietly([
            "train", "--corpus", corpus_path, "--features", "hist-byte",
            "--model", model, flag, repr(value), "--out", model_path,
        ])
        assert rc in (0, 1, 2) and "Traceback" not in err, err
        event(f"train exits {rc}")
        if rc == 0:
            rc, err = run_quietly(["predict", "--model", model_path, "--input", "-"], data)
            assert rc in (0, 2) and "Traceback" not in err, err
            event(f"predict exits {rc}")


# ---------------------------------------------------------------------------
# top-level argument handling
# ---------------------------------------------------------------------------

def test_fault_inside_a_subcommand_is_internal_error(capsys, monkeypatch, knn_model):
    corpus_path, model_path, _ = knn_model

    def broken(schema, docs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(vectorize, "transform_rows", broken)
    rc, out, err = run(capsys, "predict", "--model", str(model_path), "--input", str(corpus_path))
    assert rc == 3
    assert err.startswith("internal error: injected fault") and "Traceback" not in err
    assert out == ""


def test_unknown_subcommand(capsys):
    rc, _, err = run(capsys, "discombobulate")
    assert rc == 1
    assert "usage error" in err


def test_unknown_flag(capsys):
    rc, _, _ = run(capsys, "codec", "encode", "--base", "16", "--frobnicate")
    assert rc == 1


def test_no_arguments(capsys):
    rc, _, _ = run(capsys)
    assert rc == 1


def test_broken_stdout_pipe_is_not_an_error():
    # `isagram ... | head` style: consumer hangs up while we are still
    # writing.  Must exit 0 with a quiet stderr, not report a data error.
    payload = bytes(range(256)) * 1024  # encoded output far exceeds the pipe buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "isagram", "codec", "encode", "--base", "16"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdin.write(payload)
    proc.stdin.close()
    proc.stdout.read(1)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert err == ""
