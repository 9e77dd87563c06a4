import csv
import hashlib
import io
import platform
import resource
import types
import weakref

import numpy as np
import pytest

from isagram import classify, codec, corpus, evaluate, vectorize
from isagram.classify import DEFAULT_HYPERPARAMETERS, KINDS, ClassifierSpec
from isagram.corpus import Corpus, Document, SplitSpec
from isagram.evaluate import (
    FeatureConfig,
    accuracy,
    confusion_csv,
    render_report,
    run_comparison,
)


def constant_byte_corpus(n_classes=3, per_class=12, length=24):
    """Label is fully determined by the (disjoint) byte each class repeats."""
    docs = []
    for k in range(n_classes):
        for i in range(per_class):
            b = 0x10 * (k + 1)
            docs.append(Document(bytes([b]) * length, f"isa{k}", f"{k}-{i}"))
    return Corpus(docs)


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def test_accuracy_examples():
    assert accuracy([("a", "a"), ("b", "b"), ("a", "b")]) == pytest.approx(2 / 3)
    assert accuracy([("a", "a")] * 5) == 1.0
    assert accuracy([("a", "b")] * 5) == 0.0
    with pytest.raises(ValueError):
        accuracy([])


# ---------------------------------------------------------------------------
# run_comparison
# ---------------------------------------------------------------------------

def test_run_comparison_shapes():
    c = constant_byte_corpus()
    methods = [FeatureConfig("tfidf_byte"), FeatureConfig("hist_endian_byte")]
    specs = [ClassifierSpec("cnb"), ClassifierSpec("knn", {"k": 1})]
    reports = run_comparison(c, methods, specs, SplitSpec(6, 4, seed=1, repeats=3))
    assert len(reports) == 4
    # method-major, classifier-minor ordering
    assert reports[0].feature_config.method == "tfidf_byte"
    assert reports[1].classifier_spec.kind == "knn"
    assert reports[2].feature_config.method == "hist_endian_byte"
    for r in reports:
        assert len(r.per_repeat_accuracy) == 3
        assert r.labels == ("isa0", "isa1", "isa2")
        assert r.confusion.shape == (3, 3)


def test_first_byte_oracle_is_perfectly_learnable():
    c = constant_byte_corpus()
    reports = run_comparison(
        c,
        [FeatureConfig("tfidf_byte")],
        [ClassifierSpec("knn", {"k": 1})],
        SplitSpec(6, 4, seed=2, repeats=3),
    )
    assert reports[0].mean_accuracy == 1.0
    assert reports[0].per_repeat_accuracy == (1.0, 1.0, 1.0)
    assert np.array_equal(reports[0].confusion, np.eye(3, dtype=np.int64) * 12)


def test_confusion_row_sums_and_consistency():
    c = constant_byte_corpus(per_class=14)
    spec = SplitSpec(5, 4, seed=3, repeats=4)
    report = run_comparison(
        c, [FeatureConfig("hist_endian_byte")], [ClassifierSpec("gnb")], spec
    )[0]
    assert report.confusion.sum() == 4 * 4 * 3  # repeats x test_per_class x classes
    assert (report.confusion.sum(axis=1) == 4 * 4).all()
    trace_acc = report.confusion.trace() / report.confusion.sum()
    assert trace_acc == pytest.approx(report.mean_accuracy, abs=1e-12)
    assert report.mean_accuracy == pytest.approx(
        float(np.mean(report.per_repeat_accuracy)), abs=1e-12
    )
    assert report.stddev_accuracy == pytest.approx(
        float(np.std(report.per_repeat_accuracy)), abs=1e-12
    )


def test_repeats_match_manual_reruns():
    # short documents, so the accuracies and confusion counts are not all trivial
    c = corpus.generate_synthetic(corpus.default_isa_specs(4), 12, 16, seed=9)
    config = FeatureConfig("tfidf_byte", ngram3_cap=100)
    cspec = ClassifierSpec("cnb")
    split_spec = SplitSpec(8, 4, seed=9, repeats=3)
    report = run_comparison(c, [config], [cspec], split_spec)[0]
    index = {label: i for i, label in enumerate(c.label_set)}
    hits = np.zeros_like(report.confusion)
    for repeat in range(3):
        train, test = corpus.split(c, split_spec, repeat)
        predicted, _ = classify.predict_corpus(evaluate.fit_model(config, cspec, train), test)
        pairs = [(d.label, p) for d, p in zip(test, predicted)]
        assert report.per_repeat_accuracy[repeat] == accuracy(pairs)
        for true, pred in pairs:
            hits[index[true], index[pred]] += 1
    assert np.array_equal(report.confusion, hits)
    assert min(report.per_repeat_accuracy) < 1.0


def count_calls(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def shim(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, shim)


def test_each_batch_is_encoded_and_counted_once(monkeypatch):
    c = corpus.generate_synthetic(corpus.default_isa_specs(3), 12, 40, seed=3)
    calls = {"gram_table": 0, "encode": 0, "split": 0}
    count_calls(monkeypatch, calls, vectorize, "gram_table")
    count_calls(monkeypatch, calls, codec, "encode")
    count_calls(monkeypatch, calls, evaluate, "split")
    specs = [ClassifierSpec("cnb"), ClassifierSpec("knn"), ClassifierSpec("gnb")]
    run_comparison(c, [FeatureConfig("tfidf_char", codec.BASE85)], specs, SplitSpec(8, 4, seed=2, repeats=1))
    # one split per repeat; n = 1, 2, 3 tables for the train batch and for the test
    # batch, shared by every spec; every payload reaches the codec through one batch
    # call per batch
    assert calls == {"gram_table": 6, "encode": 0, "split": 1}


def test_several_pairs_equal_one_pair_per_call():
    c = corpus.generate_synthetic(corpus.default_isa_specs(4), 12, 16, seed=5)
    methods = [FeatureConfig("tfidf_byte", ngram3_cap=100), FeatureConfig("hist_endian_byte")]
    specs = [ClassifierSpec("cnb"), ClassifierSpec("knn"), ClassifierSpec("perceptron", seed=3)]
    split_spec = SplitSpec(8, 4, seed=5, repeats=3)
    reports = run_comparison(c, methods, specs, split_spec)
    alone = [run_comparison(c, [m], [s], split_spec)[0] for m in methods for s in specs]
    assert len(reports) == len(alone) == 6
    for got, want in zip(reports, alone):
        assert (got.feature_config, got.classifier_spec) == (want.feature_config, want.classifier_spec)
        assert render_report(got) == render_report(want)
        assert np.array_equal(got.confusion, want.confusion)
        assert (got.mean_accuracy, got.stddev_accuracy) == (want.mean_accuracy, want.stddev_accuracy)


def test_one_model_is_held_at_a_time(monkeypatch):
    live, original = weakref.WeakSet(), classify.fit_vectors

    def fit_alone(*args, **kwargs):
        assert not live, "a model outlived its scoring into the next fit"
        model = original(*args, **kwargs)
        live.add(model)
        return model

    monkeypatch.setattr(classify, "fit_vectors", fit_alone)
    specs = [ClassifierSpec(kind) for kind in ("cnb", "knn", "gnb")]
    c = constant_byte_corpus()
    run_comparison(c, [FeatureConfig("tfidf_byte"), FeatureConfig("hist_endian_byte")], specs,
                   SplitSpec(6, 4, seed=1, repeats=2))


def test_run_comparison_is_deterministic():
    c = constant_byte_corpus()
    args = ([FeatureConfig("tfidf_byte")], [ClassifierSpec("perceptron", seed=5)])
    spec = SplitSpec(6, 4, seed=4, repeats=3)
    a = run_comparison(c, *args, spec)[0]
    b = run_comparison(c, *args, spec)[0]
    assert a.per_repeat_accuracy == b.per_repeat_accuracy
    assert np.array_equal(a.confusion, b.confusion)


def test_no_test_leakage_into_fitting():
    c = constant_byte_corpus(per_class=8)
    spec = SplitSpec(4, 2, seed=6, repeats=1)
    train1, test1 = corpus.split(c, spec, 0)
    # replace one held-out payload; train documents are untouched
    victim = test1.documents[0].id
    docs = [
        Document(bytes(255 - b for b in d.payload), d.label, d.id)
        if d.id == victim
        else d
        for d in c
    ]
    c2 = Corpus(docs)
    train2, test2 = corpus.split(c2, spec, 0)
    assert [d.id for d in train2] == [d.id for d in train1]
    config = FeatureConfig("tfidf_byte")
    m1 = evaluate.fit_model(config, ClassifierSpec("cnb"), train1)
    m2 = evaluate.fit_model(config, ClassifierSpec("cnb"), train2)
    s1, s2 = m1.schema, m2.schema
    assert np.array_equal(s1.vocab.codes3, s2.vocab.codes3)
    for name in ("idf1", "idf2", "idf3"):
        assert np.array_equal(getattr(s1.vocab, name), getattr(s2.vocab, name))
    assert np.array_equal(
        m1.parameters["feature_log_prob"], m2.parameters["feature_log_prob"]
    )


# ---------------------------------------------------------------------------
# heap-return policy
# ---------------------------------------------------------------------------

def small_comparison() -> list[str]:
    c = corpus.generate_synthetic(corpus.default_isa_specs(3), 16, 40, seed=5)
    methods = [FeatureConfig("tfidf_byte"), FeatureConfig("hist_endian_byte")]
    reports = run_comparison(c, methods, [ClassifierSpec("cnb")], SplitSpec(10, 6, 5, 2))
    return [render_report(r) + confusion_csv(r) for r in reports]


def test_run_comparison_pins_glibc_malloc_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(evaluate.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    pinned = small_comparison()
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
    # a C library without mallopt (macOS), or none at all: the same reports
    monkeypatch.setattr(evaluate.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert small_comparison() == pinned

    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(evaluate.ctypes, "CDLL", no_library)
    assert small_comparison() == pinned
    assert len(calls) == 2


# measured alone (glibc 2.36, Linux 6.18, 4 KiB pages), the three calls take
# 8 622, 3 387 and 3 506 minor faults under glibc's defaults and 5 520, 9 and 3
# with the thresholds pinned; the bound, 14 % of the former third call, leaves
# room for another glibc's layout
THIRD_CALL_FAULT_BOUND = 500


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_a_repeated_evaluation_faults_in_no_freed_heap_again():
    # run alone in a fresh interpreter: an earlier run_comparison in the same
    # process has already pinned the thresholds, and this would then pass anyway
    c = corpus.generate_synthetic(corpus.default_isa_specs(12), 318, 66, seed=7)
    args = [FeatureConfig("tfidf_byte")], [ClassifierSpec("cnb")], SplitSpec(238, 80, 7, 1)
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_comparison(c, *args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[2] < THIRD_CALL_FAULT_BOUND, faults


# ---------------------------------------------------------------------------
# pinned decisions
# ---------------------------------------------------------------------------

# sha256 over every report's render_report and confusion_csv text of
# short_document_reports(); a change that moves a decision on purpose records
# the new value and says in CHANGES which labels moved and why
DECISIONS_SHA256 = "6e1a6afe35f8405c35393cf65cec993458479b8f3f6bb4047eff3541deba9591"


def short_document_reports():
    """Every kind x tfidf-byte, tfidf-char:base16 and hist-byte on 16-byte documents,
    where the kinds disagree (at 66 bytes nearly every pair scores 1.000)."""
    c = corpus.generate_synthetic(corpus.default_isa_specs(12), 40, 16, seed=7)
    configs = [FeatureConfig("tfidf_byte"), FeatureConfig("tfidf_char", codec.BASE16),
               FeatureConfig("hist_endian_byte")]
    specs = [ClassifierSpec(kind, {"epochs": 3} if "epochs" in DEFAULT_HYPERPARAMETERS[kind] else {})
             for kind in KINDS]
    return run_comparison(c, configs, specs, SplitSpec(30, 10, seed=7, repeats=2))


def decisions_digest(reports) -> str:
    digest = hashlib.sha256()
    for report in reports:
        digest.update(render_report(report).encode())
        digest.update(confusion_csv(report).encode())
    return digest.hexdigest()


def test_decisions_on_short_documents_are_pinned():
    reports = short_document_reports()
    assert decisions_digest(reports) == DECISIONS_SHA256
    # the pin can only catch a moved decision where decisions are not all right
    accs = [acc for report in reports for acc in report.per_repeat_accuracy]
    assert min(accs) < 0.5 and sum(acc < 1.0 for acc in accs) > len(accs) // 2


def test_one_flipped_prediction_moves_the_pinned_digest(monkeypatch):
    original, flipped = classify.predict_matrix, []

    def flip_first(model, X):
        labels, scores = original(model, X)
        if not flipped:
            flipped.append(labels[0])
            labels[0] = next(label for label in model.labels if label != labels[0])
        return labels, scores

    monkeypatch.setattr(classify, "predict_matrix", flip_first)
    assert decisions_digest(short_document_reports()) != DECISIONS_SHA256
    assert len(flipped) == 1


# ---------------------------------------------------------------------------
# feature configs
# ---------------------------------------------------------------------------

def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig("tfidf_words")
    with pytest.raises(ValueError):
        FeatureConfig("tfidf_char")
    with pytest.raises(ValueError):
        FeatureConfig("tfidf_byte", codec.BASE16)
    with pytest.raises(ValueError):
        FeatureConfig("tfidf_byte", ngram3_cap=-1)
    assert FeatureConfig("tfidf_byte").describe() == "tfidf-byte"
    assert FeatureConfig("tfidf_char", codec.BASE16).describe() == "tfidf-char:base16"
    one_doc = Corpus([Document(b"\x01", None, "q")])
    assert FeatureConfig("hist_endian_char", codec.BASE85).fit_transform(one_doc)[0].is_char


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def sample_report():
    c = constant_byte_corpus()
    return run_comparison(
        c,
        [FeatureConfig("tfidf_char", codec.BASE16)],
        [ClassifierSpec("cnb")],
        SplitSpec(6, 4, seed=7, repeats=3),
    )[0]


def test_render_csv_parses_back():
    report = sample_report()
    lines = render_report(report, "csv").splitlines()
    assert lines[0] == "method,encoding,classifier,repeat,accuracy"
    assert len(lines) == 1 + 3
    parsed = []
    for i, line in enumerate(lines[1:]):
        method, enc, kind, repeat, acc = line.split(",")
        assert (method, enc, kind, int(repeat)) == ("tfidf_char", "base16", "cnb", i)
        parsed.append(float(acc))
    assert tuple(parsed) == report.per_repeat_accuracy
    assert float(np.mean(parsed)) == report.mean_accuracy
    for fmt in ("yaml", "text_table"):
        with pytest.raises(ValueError):
            render_report(report, fmt)


def test_confusion_csv_quotes_a_comma_or_quote_as_csv_writer_does():
    labels = ("plain", 'say "hi"', "x86,64")
    report = evaluate.EvaluationReport(
        (0.5,), 0.5, 0.0, np.array([[1, 0, 0], [1, 1, 0], [0, 2, 1]]), labels,
        FeatureConfig("hist_endian_byte"), ClassifierSpec("cnb"), SplitSpec(1, 1, 0, 1))
    text = confusion_csv(report)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["label", *labels, "precision", "recall"]
    assert [row[0] for row in rows[1:]] == list(labels)
    assert rows[3][1:4] == ["0", "2", "1"]
    assert text.splitlines()[0] == 'label,plain,"say ""hi""","x86,64",precision,recall'
    assert text.splitlines()[1] == "plain,1,0,0,0.5,1.0"


def test_confusion_csv_precision_recall():
    report = sample_report()
    lines = confusion_csv(report).splitlines()
    assert lines[0] == "label," + ",".join(report.labels) + ",precision,recall"
    conf = report.confusion
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == report.labels[i]
        assert [int(x) for x in cells[1:4]] == conf[i].tolist()
        expect_p = conf[i, i] / conf[:, i].sum() if conf[:, i].sum() else 0.0
        expect_r = conf[i, i] / conf[i].sum() if conf[i].sum() else 0.0
        assert float(cells[4]) == expect_p
        assert float(cells[5]) == expect_r
