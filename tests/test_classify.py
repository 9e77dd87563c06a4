import json
import math

import numpy as np
import pytest

from isagram import classify, corpus, vectorize
from isagram.classify import (
    ClassifierSpec,
    ModelFormatError,
    TrainedModel,
    fit_vectors,
    load_model,
    predict_corpus,
    predict_matrix,
    predict_vector,
    save_model,
)
from isagram.corpus import Corpus, Document
from isagram.evaluate import FeatureConfig, fit_model


def cloud_3class(n_per_class=60, seed=0):
    """Nonnegative, linearly separable 3-class blobs (usable by every kind)."""
    rng = np.random.default_rng(seed)
    centers = np.array([[2.0, 0.2, 0.2], [0.2, 2.0, 0.2], [0.2, 0.2, 2.0]])
    X = np.vstack(
        [c + rng.uniform(-0.1, 0.1, size=(n_per_class, 3)) for c in centers]
    )
    labels = [f"c{i}" for i in range(3) for _ in range(n_per_class)]
    return X, labels


# ---------------------------------------------------------------------------
# closed-form naive Bayes checks
# ---------------------------------------------------------------------------

def test_mnb_hand_computation():
    X = np.array([[2.0, 0.0], [0.0, 2.0]])
    model = fit_vectors(ClassifierSpec("mnb"), X, ["A", "B"])
    log_lik = model.parameters["log_likelihood"]
    assert math.exp(log_lik[0, 0]) == pytest.approx(0.75, abs=1e-12)
    assert math.exp(log_lik[1, 0]) == pytest.approx(0.25, abs=1e-12)
    label, scores = predict_vector(model, np.array([1.0, 0.0]))
    assert label == "A"
    assert scores[0] == pytest.approx(math.log(0.5) + math.log(0.75), abs=1e-12)
    assert scores[1] == pytest.approx(math.log(0.5) + math.log(0.25), abs=1e-12)


def test_cnb_hand_computation():
    X = np.array([[2.0, 0.0], [0.0, 2.0]])
    model = fit_vectors(ClassifierSpec("cnb"), X, ["A", "B"])
    flp = model.parameters["feature_log_prob"]
    # complement of A has masses (0,2); +1 smoothing -> (1,3), total 4
    assert flp[0, 0] == pytest.approx(math.log(4.0), abs=1e-12)
    assert flp[0, 1] == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
    assert flp[1, 0] == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
    label, scores = predict_vector(model, np.array([1.0, 0.0]))
    assert label == "A"
    assert scores[0] == pytest.approx(math.log(4.0), abs=1e-12)


def test_gnb_hand_computation():
    X = np.array([[0.0, 0.0], [2.0, 1.0], [10.0, 0.0], [12.0, 1.0]])
    y = ["A", "A", "B", "B"]
    model = fit_vectors(ClassifierSpec("gnb"), X, y)
    p = model.parameters
    assert np.allclose(p["mean"], [[1.0, 0.5], [11.0, 0.5]], atol=1e-12)
    assert np.allclose(p["var"], [[1.0, 0.25], [1.0, 0.25]], atol=1e-12)

    def manual(x, c):
        out = math.log(0.5)
        for j in range(2):
            v = p["var"][c, j]
            out += -0.5 * math.log(2.0 * math.pi * v)
            out += -((x[j] - p["mean"][c, j]) ** 2) / (2.0 * v)
        return out

    q = np.array([2.0, 0.0])
    label, scores = predict_vector(model, q)
    assert label == "A"
    for c in range(2):
        assert scores[c] == pytest.approx(manual(q, c), rel=1e-12)


def test_gnb_variance_floor():
    X = np.array([[1.0, 5.0], [1.0, 6.0], [2.0, 5.0], [2.0, 6.0]])
    model = fit_vectors(ClassifierSpec("gnb"), X, ["A", "A", "B", "B"])
    assert model.parameters["var"][0, 0] == 1e-9  # zero-variance feature floored
    _, scores = predict_vector(model, X[0])
    assert np.isfinite(scores).all()


# ---------------------------------------------------------------------------
# knn behavior
# ---------------------------------------------------------------------------

def test_knn_memorizes_with_k1():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = fit_vectors(ClassifierSpec("knn", {"k": 1}), X, ["A", "B"])
    assert predict_matrix(model, X)[0] == ["A", "B"]
    _, scores = predict_vector(model, np.array([1.0, 0.0]))
    assert scores[0] == 1.0  # one vote at distance 0
    assert scores[1] == -1.0  # no votes inside the neighborhood


def test_knn_vote_tie_breaks_by_mean_distance():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    model = fit_vectors(ClassifierSpec("knn", {"k": 2}), X, ["A", "B"])
    label, scores = predict_vector(model, np.array([0.5, 0.0]))
    assert label == "A"
    assert scores[0] == pytest.approx(1.0 - 0.5 / 1.5, abs=1e-12)
    assert scores[1] == pytest.approx(1.0 - 1.5 / 2.5, abs=1e-12)


def test_knn_k_clamped_to_train_size():
    X = np.array([[0.0], [0.1], [5.0]])
    model = fit_vectors(ClassifierSpec("knn", {"k": 50}), X, ["A", "A", "B"])
    assert predict_vector(model, np.array([0.05]))[0] == "A"


# ---------------------------------------------------------------------------
# convergence and determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", classify.KINDS)
def test_all_kinds_separate_clean_clouds(kind):
    X, labels = cloud_3class()
    model = fit_vectors(ClassifierSpec(kind, seed=1), X, labels)
    got, _ = predict_matrix(model, X)
    acc = float(np.mean([g == t for g, t in zip(got, labels)]))
    assert acc >= 0.99


def test_margin_separated_two_class_convergence():
    rng = np.random.default_rng(7)
    a = np.column_stack([1.5 + rng.uniform(-0.5, 0.5, 100), rng.uniform(-0.5, 0.5, 100)])
    b = np.column_stack([-1.5 + rng.uniform(-0.5, 0.5, 100), rng.uniform(-0.5, 0.5, 100)])
    # exhaustive margin check along the separating axis: gap >= 0.5
    assert a[:, 0].min() - b[:, 0].max() >= 0.5
    X = np.vstack([a, b])
    labels = ["pos"] * 100 + ["neg"] * 100
    for kind in ("perceptron", "linear_svm"):
        model = fit_vectors(ClassifierSpec(kind, seed=2), X, labels)
        got, _ = predict_matrix(model, X)
        assert float(np.mean([g == t for g, t in zip(got, labels)])) >= 0.99


@pytest.mark.parametrize("kind", classify.KINDS)
def test_fit_is_deterministic(kind):
    rng = np.random.default_rng(3)
    X = np.abs(rng.normal(size=(40, 6)))
    labels = [f"c{i % 3}" for i in range(40)]
    m1 = fit_vectors(ClassifierSpec(kind, seed=9), X, labels)
    m2 = fit_vectors(ClassifierSpec(kind, seed=9), X, labels)
    assert set(m1.parameters) == set(m2.parameters)
    for key, value in m1.parameters.items():
        assert np.array_equal(value, m2.parameters[key])


def test_seed_changes_sgd_trajectories():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 5))
    labels = [f"c{i % 3}" for i in range(60)]
    for kind in ("perceptron", "softmax_lr", "linear_svm"):
        m1 = fit_vectors(ClassifierSpec(kind, seed=0), X, labels)
        m2 = fit_vectors(ClassifierSpec(kind, seed=1), X, labels)
        assert not all(
            np.array_equal(m1.parameters[k], m2.parameters[k]) for k in m1.parameters
        )


def test_scale_consistency_is_exact_at_c2():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 8))
    labels = [f"c{i % 3}" for i in range(60)]
    Q = rng.normal(size=(20, 8))
    lr = fit_vectors(
        ClassifierSpec("softmax_lr", {"learning_rate": 0.1, "l2": 1e-4}, seed=6), X, labels
    )
    lr_scaled = fit_vectors(
        ClassifierSpec("softmax_lr", {"learning_rate": 0.1 / 4, "l2": 1e-4 * 4}, seed=6),
        2.0 * X,
        labels,
    )
    assert np.array_equal(predict_matrix(lr, Q)[1], predict_matrix(lr_scaled, 2.0 * Q)[1])

    svm = fit_vectors(ClassifierSpec("linear_svm", {"lam": 1e-4}, seed=6), X, labels)
    svm_scaled = fit_vectors(
        ClassifierSpec("linear_svm", {"lam": 1e-4 * 4}, seed=6), 2.0 * X, labels
    )
    assert np.array_equal(predict_matrix(svm, Q)[1], predict_matrix(svm_scaled, 2.0 * Q)[1])


def test_exact_tie_predicts_smaller_label():
    model = TrainedModel(
        schema=None,
        spec=ClassifierSpec("linear_svm"),
        labels=("arm", "mips"),
        parameters={"weights": np.zeros((2, 3))},
    )
    label, scores = predict_vector(model, np.array([1.0, 2.0, 3.0]))
    assert label == "arm"
    assert scores[0] == scores[1] == 0.0


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        ClassifierSpec("random_forest")
    with pytest.raises(ValueError):
        ClassifierSpec("knn", {"alpha": 1.0})  # not a knn hyperparameter
    with pytest.raises(ValueError):
        ClassifierSpec("knn", {"k": 0})
    with pytest.raises(ValueError):
        ClassifierSpec("mnb", {"alpha": 0.0})
    with pytest.raises(ValueError):
        ClassifierSpec("softmax_lr", {"learning_rate": -0.1})
    spec = ClassifierSpec("cnb", {"alpha": 2.0})
    assert spec.hyperparameters["alpha"] == 2.0


def test_fit_input_validation():
    X = np.eye(3)
    with pytest.raises(ValueError):
        fit_vectors(ClassifierSpec("mnb"), X, ["A", "A", "A"])  # single label
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        fit_vectors(ClassifierSpec("mnb"), bad, ["A", "B", "C"])
    with pytest.raises(ValueError):
        fit_vectors(ClassifierSpec("mnb"), -X, ["A", "B", "C"])  # negative mass
    with pytest.raises(ValueError):
        fit_vectors(ClassifierSpec("cnb"), -X, ["A", "B", "C"])
    with pytest.raises(ValueError):
        fit_vectors(ClassifierSpec("mnb"), X, ["A", "B"])  # shape mismatch
    model = fit_vectors(ClassifierSpec("gnb"), X, ["A", "B", "C"])
    with pytest.raises(ValueError):
        predict_matrix(model, np.array([[np.nan, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        classify.predict(model, Document(b"\x01", None, "q"))  # no schema stored


def test_fit_rejects_unlabeled_corpus():
    docs = Corpus([Document(b"\x01\x02", "a", "1"), Document(b"\x03\x04", None, "2")])
    with pytest.raises(ValueError):
        fit_model(FeatureConfig("hist_endian_byte"), ClassifierSpec("mnb"), docs)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def synth_corpora():
    specs = corpus.default_isa_specs(3)
    train = corpus.generate_synthetic(specs, docs_per_class=10, doc_len_bytes=40, seed=5)
    held = corpus.generate_synthetic(specs, docs_per_class=34, doc_len_bytes=40, seed=6)
    return train, held


@pytest.mark.parametrize("kind", classify.KINDS)
def test_save_load_roundtrip_every_kind(tmp_path, kind):
    train, held = synth_corpora()
    model = fit_model(FeatureConfig("hist_endian_byte"), ClassifierSpec(kind, seed=4), train)
    path = tmp_path / f"{kind}.model"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.labels == model.labels
    assert loaded.spec == model.spec
    want_labels, want_scores = predict_corpus(model, held)
    got_labels, got_scores = predict_corpus(loaded, held)
    assert got_labels == want_labels
    assert np.array_equal(got_scores, want_scores)


@pytest.mark.parametrize("kind", classify.KINDS)
def test_corpus_and_dense_matrix_paths_bit_identical(kind):
    # fit_model/predict_corpus take CSR rows, fit_vectors/predict_matrix a dense
    # matrix; both must give the very same parameters and scores
    train, held = synth_corpora()
    hp = {"epochs": 3} if "epochs" in classify.DEFAULT_HYPERPARAMETERS[kind] else {}
    spec = ClassifierSpec(kind, hp, seed=4)
    via_corpus = fit_model(FeatureConfig("tfidf_byte", ngram3_cap=200), spec, train)
    schema = via_corpus.schema
    dense = vectorize.transform_rows(schema, train.documents).toarray()
    via_matrix = fit_vectors(spec, dense, [d.label for d in train], schema=schema)
    assert via_corpus.labels == via_matrix.labels
    assert sorted(via_corpus.parameters) == sorted(via_matrix.parameters)
    for name, value in via_corpus.parameters.items():
        assert np.array_equal(value, via_matrix.parameters[name]), name
    corpus_labels, corpus_scores = predict_corpus(via_corpus, held)
    matrix_labels, matrix_scores = predict_matrix(
        via_corpus, vectorize.transform_rows(schema, held.documents).toarray()
    )
    assert corpus_labels == matrix_labels
    assert np.array_equal(corpus_scores, matrix_scores)


def test_save_load_preserves_tfidf_vocabulary(tmp_path):
    train, held = synth_corpora()
    model = fit_model(FeatureConfig("tfidf_byte", ngram3_cap=50), ClassifierSpec("cnb"), train)
    path = tmp_path / "cnb.model"
    save_model(model, path)
    loaded = load_model(path)
    v, w = model.schema.vocab, loaded.schema.vocab
    assert np.array_equal(v.codes3, w.codes3)
    for name in ("idf1", "idf2", "idf3"):
        assert np.array_equal(getattr(v, name), getattr(w, name))
    assert loaded.schema.dimension == model.schema.dimension
    assert predict_corpus(loaded, held)[0] == predict_corpus(model, held)[0]


def test_save_load_char_mode_schema(tmp_path):
    train, held = synth_corpora()
    config = FeatureConfig("tfidf_char", classify.codec.BASE16)
    model = fit_model(config, ClassifierSpec("mnb"), train)
    save_model(model, tmp_path / "m.model")
    loaded = load_model(tmp_path / "m.model")
    assert loaded.schema.encoding.name == "base16"
    assert np.array_equal(
        predict_corpus(loaded, held)[1], predict_corpus(model, held)[1]
    )


def fitted_model_file(tmp_path):
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = fit_vectors(ClassifierSpec("mnb"), X, ["A", "B"])
    path = tmp_path / "m.model"
    save_model(model, path)
    return path


def test_load_rejects_flipped_byte(tmp_path):
    path = fitted_model_file(tmp_path)
    raw = path.read_text()
    i = raw.index('"labels"')
    path.write_text(raw[:i] + '"labelz"' + raw[i + 8 :])
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)


def test_load_rejects_truncation(tmp_path):
    path = fitted_model_file(tmp_path)
    body = path.read_text().splitlines()[0]
    path.write_text(body + "\n")  # checksum line gone
    with pytest.raises(ModelFormatError):
        load_model(path)
    path.write_text(body[: len(body) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


def rewrite_with_valid_checksum(path, mutate):
    import hashlib

    body = path.read_text().splitlines()[0]
    payload = json.loads(body)
    mutate(payload)
    new_body = json.dumps(payload, sort_keys=True)
    digest = hashlib.sha256(new_body.encode()).hexdigest()
    path.write_text(new_body + "\nsha256:" + digest + "\n")


def test_load_rejects_bumped_major_version(tmp_path):
    path = fitted_model_file(tmp_path)
    rewrite_with_valid_checksum(path, lambda p: p.update(format_version="2.0"))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_load_accepts_same_major_minor_bump(tmp_path):
    path = fitted_model_file(tmp_path)
    rewrite_with_valid_checksum(path, lambda p: p.update(format_version="1.7"))
    assert load_model(path).labels == ("A", "B")


def test_checksum_is_verified_before_version(tmp_path):
    # integrity first: a corrupt file with a bad version still fails on checksum
    path = fitted_model_file(tmp_path)
    body = path.read_text().splitlines()[0]
    payload = json.loads(body)
    payload["format_version"] = "9.0"
    path.write_text(json.dumps(payload, sort_keys=True) + "\nsha256:" + "0" * 64 + "\n")
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)
