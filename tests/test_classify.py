import base64
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import oracle_classify as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isagram import classify, corpus, vectorize
from isagram.classify import (
    ClassifierSpec,
    ModelFormatError,
    TrainedModel,
    fit_vectors,
    load_model,
    predict_corpus,
    predict_matrix,
    save_model,
)
from isagram.cli import main
from isagram.corpus import Corpus, Document
from isagram.evaluate import FeatureConfig, fit_model
from isagram.sparse import CsrRows


def cloud_3class(n_per_class=60, seed=0):
    """Nonnegative, linearly separable 3-class blobs (usable by every kind)."""
    rng = np.random.default_rng(seed)
    centers = np.array([[2.0, 0.2, 0.2], [0.2, 2.0, 0.2], [0.2, 0.2, 2.0]])
    X = np.vstack(
        [c + rng.uniform(-0.1, 0.1, size=(n_per_class, 3)) for c in centers]
    )
    labels = [f"c{i}" for i in range(3) for _ in range(n_per_class)]
    return CsrRows.from_dense(X), labels


def same_parameter(a, b) -> bool:
    """Equal parameter arrays; knn's CSR training rows compare by their arrays."""
    if isinstance(a, CsrRows) or isinstance(b, CsrRows):
        return (
            isinstance(a, CsrRows) and isinstance(b, CsrRows) and a.shape == b.shape
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("indptr", "indices", "data"))
        )
    return np.array_equal(a, b)


# ---------------------------------------------------------------------------
# closed-form naive Bayes checks
# ---------------------------------------------------------------------------

def test_mnb_hand_computation():
    X = CsrRows.from_dense([[2.0, 0.0], [0.0, 2.0]])
    model = fit_vectors(ClassifierSpec("mnb"), X, ["A", "B"])
    log_lik = model.parameters["log_likelihood"]
    assert math.exp(log_lik[0, 0]) == pytest.approx(0.75, abs=1e-12)
    assert math.exp(log_lik[1, 0]) == pytest.approx(0.25, abs=1e-12)
    [label], [scores] = predict_matrix(model, CsrRows.from_dense([[1.0, 0.0]]))
    assert label == "A"
    assert scores[0] == pytest.approx(math.log(0.5) + math.log(0.75), abs=1e-12)
    assert scores[1] == pytest.approx(math.log(0.5) + math.log(0.25), abs=1e-12)


def test_cnb_hand_computation():
    X = CsrRows.from_dense([[2.0, 0.0], [0.0, 2.0]])
    model = fit_vectors(ClassifierSpec("cnb"), X, ["A", "B"])
    flp = model.parameters["feature_log_prob"]
    # complement of A has masses (0,2); +1 smoothing -> (1,3), total 4
    assert flp[0, 0] == pytest.approx(math.log(4.0), abs=1e-12)
    assert flp[0, 1] == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
    assert flp[1, 0] == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
    [label], [scores] = predict_matrix(model, CsrRows.from_dense([[1.0, 0.0]]))
    assert label == "A"
    assert scores[0] == pytest.approx(math.log(4.0), abs=1e-12)


def test_cnb_fit_writes_the_complement_in_place():
    # 12 classes x 70 792 columns: a 6.8 MB weight array, next to 30 k stored values
    train = corpus.generate_synthetic(corpus.default_isa_specs(12), 20, 66, seed=7)
    _, X = FeatureConfig("tfidf_byte").fit_transform(train)
    labels = [d.label for d in train]
    tracemalloc.start()
    try:
        model = fit_vectors(ClassifierSpec("cnb"), X, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.08x while the class sums and their complement were held side by side; 1.13x now
    assert peak < 1.5 * model.parameters["feature_log_prob"].nbytes


def test_gnb_hand_computation():
    X = CsrRows.from_dense([[0.0, 0.0], [2.0, 1.0], [10.0, 0.0], [12.0, 1.0]])
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
    [label], [scores] = predict_matrix(model, CsrRows.from_dense([q]))
    assert label == "A"
    for c in range(2):
        assert scores[c] == pytest.approx(manual(q, c), rel=1e-12)


def test_gnb_variance_floor():
    X = np.array([[1.0, 5.0], [1.0, 6.0], [2.0, 5.0], [2.0, 6.0]])
    model = fit_vectors(ClassifierSpec("gnb"), CsrRows.from_dense(X), ["A", "A", "B", "B"])
    assert model.parameters["var"][0, 0] == 1e-9  # zero-variance feature floored
    _, [scores] = predict_matrix(model, CsrRows.from_dense(X[:1]))
    assert np.isfinite(scores).all()


# ---------------------------------------------------------------------------
# knn behavior
# ---------------------------------------------------------------------------

def test_knn_memorizes_with_k1():
    X = CsrRows.from_dense([[1.0, 0.0], [0.0, 1.0]])
    model = fit_vectors(ClassifierSpec("knn", {"k": 1}), X, ["A", "B"])
    assert predict_matrix(model, X)[0] == ["A", "B"]
    _, [scores] = predict_matrix(model, CsrRows.from_dense([[1.0, 0.0]]))
    assert scores[0] == 1.0  # one vote at distance 0
    assert scores[1] == -1.0  # no votes inside the neighborhood


def test_knn_vote_tie_breaks_by_mean_distance():
    X = CsrRows.from_dense([[0.0, 0.0], [2.0, 0.0]])
    model = fit_vectors(ClassifierSpec("knn", {"k": 2}), X, ["A", "B"])
    [label], [scores] = predict_matrix(model, CsrRows.from_dense([[0.5, 0.0]]))
    assert label == "A"
    assert scores[0] == pytest.approx(1.0 - 0.5 / 1.5, abs=1e-12)
    assert scores[1] == pytest.approx(1.0 - 1.5 / 2.5, abs=1e-12)


def test_knn_empty_training_row_is_at_the_query_norm():
    X = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 4.0, 1.0]])
    rows = CsrRows.from_dense(X)
    model = fit_vectors(ClassifierSpec("knn", {"k": 4}), rows, ["A", "B", "A", "C"])
    Q = np.array([[0.5, 0.0, 0.0], [0.0, 3.0, 1.0], [0.0, 0.0, 0.0]])
    want = oracle.score_knn(oracle.fit_knn({}, X, model.parameters["train_label_idx"], 3), Q, 4, 3)
    assert np.allclose(predict_matrix(model, CsrRows.from_dense(Q))[1], want, rtol=0, atol=1e-12)


def test_knn_k_clamped_to_train_size():
    X = CsrRows.from_dense([[0.0], [0.1], [5.0]])
    model = fit_vectors(ClassifierSpec("knn", {"k": 50}), X, ["A", "A", "B"])
    assert predict_matrix(model, CsrRows.from_dense([[0.05]]))[0] == ["A"]


def knn_scores_label_by_label(model, X):
    """knn scores from one pass of masks per label: the reference for ``_score_knn``."""
    T, ty = model.parameters["train_matrix"], model.parameters["train_label_idx"]
    k = min(int(model.spec.hyperparameters["k"]), T.shape[0])
    dist = np.sqrt(np.maximum(classify._squared_distances(X, T), 0.0))
    near = np.argsort(dist, axis=1, kind="stable")[:, :k]
    near_dist, near_label = np.take_along_axis(dist, near, axis=1), ty[near]
    scores = np.full((X.shape[0], len(model.labels)), -1.0)
    for c in range(len(model.labels)):
        mask = near_label == c
        votes = mask.sum(axis=1)
        voted = votes > 0
        mean_d = np.where(mask, near_dist, 0.0).sum(axis=1)[voted] / votes[voted]
        scores[voted, c] = votes[voted] - mean_d / (1.0 + mean_d)
    return scores


# few distinct coordinates: equal distances, zero distances and tied votes are common
KNN_COORDINATES = st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_knn_votes_equal_a_loop_over_labels(data):
    # k reaches past 8, where numpy sums a row of k pairwise, not one value at a time
    n_train, width = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 3))
    point = st.lists(KNN_COORDINATES, min_size=width, max_size=width)
    train = data.draw(st.lists(point, min_size=n_train, max_size=n_train))
    labels = ["a", "b", *data.draw(st.lists(st.sampled_from("abcde"), min_size=n_train - 2,
                                            max_size=n_train - 2))]
    spec = ClassifierSpec("knn", {"k": data.draw(st.integers(1, 40))})
    model = fit_vectors(spec, CsrRows.from_dense(train), labels)
    queries = CsrRows.from_dense(data.draw(st.lists(point, min_size=1, max_size=8)))
    assert same_bits(classify._score_knn(model, queries), knn_scores_label_by_label(model, queries))


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
    X = CsrRows.from_dense(np.vstack([a, b]))
    labels = ["pos"] * 100 + ["neg"] * 100
    for kind in ("perceptron", "linear_svm"):
        model = fit_vectors(ClassifierSpec(kind, seed=2), X, labels)
        got, _ = predict_matrix(model, X)
        assert float(np.mean([g == t for g, t in zip(got, labels)])) >= 0.99


@pytest.mark.parametrize("kind", classify.KINDS)
def test_fit_is_deterministic(kind):
    rng = np.random.default_rng(3)
    X = CsrRows.from_dense(np.abs(rng.normal(size=(40, 6))))
    labels = [f"c{i % 3}" for i in range(40)]
    m1 = fit_vectors(ClassifierSpec(kind, seed=9), X, labels)
    m2 = fit_vectors(ClassifierSpec(kind, seed=9), X, labels)
    assert set(m1.parameters) == set(m2.parameters)
    for key, value in m1.parameters.items():
        assert same_parameter(value, m2.parameters[key])


def test_seed_changes_sgd_trajectories():
    rng = np.random.default_rng(4)
    X = CsrRows.from_dense(rng.normal(size=(60, 5)))
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
    rows, rows2 = CsrRows.from_dense(X), CsrRows.from_dense(2.0 * X)
    queries, queries2 = CsrRows.from_dense(Q), CsrRows.from_dense(2.0 * Q)
    lr = fit_vectors(
        ClassifierSpec("softmax_lr", {"learning_rate": 0.1, "l2": 1e-4}, seed=6), rows, labels
    )
    lr_scaled = fit_vectors(
        ClassifierSpec("softmax_lr", {"learning_rate": 0.1 / 4, "l2": 1e-4 * 4}, seed=6),
        rows2,
        labels,
    )
    assert np.array_equal(predict_matrix(lr, queries)[1], predict_matrix(lr_scaled, queries2)[1])

    svm = fit_vectors(ClassifierSpec("linear_svm", {"lam": 1e-4}, seed=6), rows, labels)
    svm_scaled = fit_vectors(
        ClassifierSpec("linear_svm", {"lam": 1e-4 * 4}, seed=6), rows2, labels
    )
    assert np.array_equal(predict_matrix(svm, queries)[1], predict_matrix(svm_scaled, queries2)[1])


def test_exact_tie_predicts_smaller_label():
    model = TrainedModel(
        schema=None,
        spec=ClassifierSpec("linear_svm"),
        labels=("arm", "mips"),
        parameters={"weights": np.zeros((2, 3))},
    )
    [label], [scores] = predict_matrix(model, CsrRows.from_dense([[1.0, 2.0, 3.0]]))
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


@pytest.mark.parametrize("kind, name", [
    (kind, name) for kind in classify.KINDS for name in classify.DEFAULT_HYPERPARAMETERS[kind]
])
def test_hyperparameter_rule_follows_the_type_of_its_default(kind, name):
    # an integer default is a count (>= 1), a float default a rate or scale (> 0)
    if isinstance(classify.DEFAULT_HYPERPARAMETERS[kind][name], int):
        refused, smallest, rule = [0], 1, ">= 1"
    else:
        refused, smallest, rule = [0.0, -1.0], 5e-324, "> 0"
    for value in refused:
        with pytest.raises(ValueError, match=f"{name} must be {rule}"):
            ClassifierSpec(kind, {name: value})
    assert ClassifierSpec(kind, {name: smallest}).hyperparameters[name] == smallest


def test_fit_input_validation():
    X = CsrRows.from_dense(np.eye(3))
    with pytest.raises(ValueError):
        fit_vectors(ClassifierSpec("mnb"), X, ["A", "A", "A"])  # single label
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        fit_vectors(ClassifierSpec("mnb"), CsrRows.from_dense(bad), ["A", "B", "C"])
    negative = CsrRows.from_dense(-np.eye(3))
    with pytest.raises(ValueError):
        fit_vectors(ClassifierSpec("mnb"), negative, ["A", "B", "C"])  # negative mass
    with pytest.raises(ValueError):
        fit_vectors(ClassifierSpec("cnb"), negative, ["A", "B", "C"])
    with pytest.raises(ValueError):
        fit_vectors(ClassifierSpec("mnb"), X, ["A", "B"])  # shape mismatch
    model = fit_vectors(ClassifierSpec("gnb"), X, ["A", "B", "C"])
    with pytest.raises(ValueError):
        predict_matrix(model, CsrRows.from_dense([[np.nan, 0.0, 0.0]]))
    with pytest.raises(ModelFormatError, match="no feature schema"):
        predict_corpus(model, [Document(b"\x01", None, "q")])  # no schema stored


@pytest.mark.parametrize("kind", classify.KINDS)
def test_predict_rejects_rows_of_another_width(kind):
    X, labels = cloud_3class(n_per_class=5)
    model = fit_vectors(ClassifierSpec(kind), X, labels)
    for width in (2, 4):
        with pytest.raises(ValueError, match="columns"):
            predict_matrix(model, CsrRows.from_dense(np.ones((1, width))))


@pytest.mark.parametrize("kind", classify.KINDS)
def test_predict_rejects_a_stored_column_outside_the_width(kind):
    # hand-built rows: transform_rows and load_model never give such a column,
    # and a gather in "wrap" mode would score a wrapped column instead of raising
    X, labels = cloud_3class(n_per_class=5)
    model = fit_vectors(ClassifierSpec(kind), X, labels)
    for column in (3, 7, -1):
        rows = CsrRows(np.array([0, 1, 2]), np.array([0, column]), np.ones(2), (2, 3))
        with pytest.raises(ValueError, match="outside"):
            predict_matrix(model, rows)


# (indptr, indices, data) of 2 rows x 3 columns, each breaking one rule of CsrRows.check
MALFORMED_ROWS = {
    "column-at-width": ([0, 1, 2], [3, 0], [1.0, 1.0]),
    "column-minus-one": ([0, 1, 2], [0, -1], [1.0, 1.0]),
    "repeated-column": ([0, 1, 3], [0, 1, 1], [1.0, 1.0, 1.0]),
    "descending-row": ([0, 1, 3], [0, 2, 1], [1.0, 1.0, 1.0]),
    "indptr-past-values": ([0, 1, 3], [0, 1], [1.0, 1.0]),
    "indptr-short-of-values": ([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0]),
    "nan": ([0, 1, 2], [0, 1], [np.nan, 1.0]),
    "inf": ([0, 1, 2], [0, 1], [1.0, np.inf]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
@pytest.mark.parametrize("kind", classify.KINDS)
def test_fit_and_predict_refuse_rows_the_csr_check_refuses(kind, case):
    # hand-built rows reach both entry points through the library API; neither
    # may fold them into a weight, gather past them or raise a bare IndexError
    X, labels = cloud_3class(n_per_class=5)
    model = fit_vectors(ClassifierSpec(kind), X, labels)
    rows = CsrRows(*(np.array(a) for a in MALFORMED_ROWS[case]), (2, 3))
    rule = "CSR|outside|NaN or inf"
    with pytest.raises(ValueError, match=rule):
        fit_vectors(ClassifierSpec(kind), rows, ["a", "b"])
    with pytest.raises(ValueError, match=rule):
        predict_matrix(model, rows)


def test_fit_rejects_unlabeled_corpus():
    docs = Corpus([Document(b"\x01\x02", "a", "1"), Document(b"\x03\x04", None, "2")])
    with pytest.raises(ValueError):
        fit_model(FeatureConfig("hist_endian_byte"), ClassifierSpec("mnb"), docs)


# ---------------------------------------------------------------------------
# CSR kinds against the dense oracle
# ---------------------------------------------------------------------------

def assert_close(got, want, what):
    """Equal to 1e-12 of the largest magnitude in ``want``."""
    assert got.shape == want.shape, what
    scale = float(np.abs(want).max()) if want.size else 0.0
    assert float(np.abs(got - want).max(initial=0.0)) <= 1e-12 * scale, what


@pytest.fixture(scope="module")
def oracle_cases():
    """(name, seed, train rows, their labels, held-out rows) on 12-byte
    documents, where decisions vary from document to document."""
    specs = corpus.default_isa_specs(12)
    cases = []
    for seed in (1, 2):
        train = corpus.generate_synthetic(specs, 10, 12, seed)
        held = corpus.generate_synthetic(specs, 5, 12, seed + 100)
        for config in (FeatureConfig("tfidf_byte"), FeatureConfig("tfidf_char", classify.codec.BASE16)):
            schema, rows = config.fit_transform(train)
            queries = vectorize.transform_rows(schema, held.documents)
            cases.append((f"seed {seed} {config.describe()}", seed, rows, [d.label for d in train], queries))
    return cases


@pytest.mark.parametrize("kind", ("gnb", "knn", "perceptron", "softmax_lr", "linear_svm"))
def test_csr_kinds_match_dense_oracle(kind, oracle_cases):
    hp = {"epochs": 3} if "epochs" in classify.DEFAULT_HYPERPARAMETERS[kind] else {}
    for name, seed, rows, labels, queries in oracle_cases:
        what = f"{kind} {name}"
        spec = ClassifierSpec(kind, hp, seed=seed)
        model = fit_vectors(spec, rows, labels)
        y = np.asarray([model.labels.index(label) for label in labels])
        n_classes = len(model.labels)
        want = oracle.fit(kind, spec.hyperparameters, rows.toarray(), y, n_classes, seed)
        assert sorted(model.parameters) == sorted(want), what
        for param, value in want.items():
            got = model.parameters[param]
            got = got.toarray() if isinstance(got, CsrRows) else got
            assert_close(got, value, f"{what} {param}")
        got_labels, got_scores = predict_matrix(model, queries)
        want_scores = oracle.score(kind, spec.hyperparameters, want, queries.toarray(), n_classes)
        want_labels = [model.labels[i] for i in np.argmax(want_scores, axis=1)]
        assert got_labels == want_labels, what
        assert len(set(want_labels)) > 1, what
        assert_close(got_scores, want_scores, f"{what} scores")


@pytest.fixture(scope="module")
def long_hist_case():
    """hist_endian_byte rows of 2 KB documents: nearly every column stored."""
    specs = corpus.default_isa_specs(12)
    train = corpus.generate_synthetic(specs, 8, 2048, 3)
    held = corpus.generate_synthetic(specs, 3, 2048, 103)
    schema, rows = FeatureConfig("hist_endian_byte").fit_transform(train)
    return rows, [d.label for d in train], vectorize.transform_rows(schema, held.documents)


def dense_column_count(monkeypatch, queries, rows):
    """Columns that knn's distances take through the dense product."""
    seen = []
    real = classify._dense_columns

    def spy(X, at, lo, hi):
        seen.append(hi - lo)
        return real(X, at, lo, hi)

    monkeypatch.setattr(classify, "_dense_columns", spy)
    classify._squared_distances(queries, rows)
    monkeypatch.undo()
    return sum(seen) // 2  # one call for the query rows, one for the training rows


@pytest.mark.parametrize("pair_cost", (0, classify._KNN_PAIR_COST, 10**9))
def test_knn_dense_and_scattered_columns_match_oracle(monkeypatch, pair_cost, oracle_cases, long_hist_case):
    """Pair cost 0 scatters every column, 10**9 multiplies every stored column densely."""
    monkeypatch.setattr(classify, "_KNN_PAIR_COST", pair_cost)
    cases = [(name, rows, labels, queries) for name, _, rows, labels, queries in oracle_cases]
    cases.append(("2 KB hist_endian_byte",) + long_hist_case)
    for name, rows, labels, queries in cases:
        model = fit_vectors(ClassifierSpec("knn"), rows, labels)
        want = oracle.score_knn(
            oracle.fit_knn({}, rows.toarray(), model.parameters["train_label_idx"], 12),
            queries.toarray(), 3, len(model.labels),
        )
        got_labels, got_scores = predict_matrix(model, queries)
        assert got_labels == [model.labels[i] for i in np.argmax(want, axis=1)], name
        assert_close(got_scores, want, name)


def test_knn_multiplies_only_common_columns_densely(monkeypatch, oracle_cases, long_hist_case):
    rows, _, queries = long_hist_case
    stored = np.intersect1d(rows.indices, queries.indices).size
    assert dense_column_count(monkeypatch, queries, rows) >= 0.9 * stored
    for name, _, rows, _, queries in oracle_cases:
        if "tfidf-byte" in name:  # of 70 792 columns, about 400 are shared and 20 common
            shared = np.intersect1d(rows.indices, queries.indices).size
            assert dense_column_count(monkeypatch, queries, rows) <= 0.1 * shared, name


# ---------------------------------------------------------------------------
# the scoring product X @ W.T
# ---------------------------------------------------------------------------

# negatives, zeros of both signs and subnormals; bounded, so no product overflows
WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308]),
                    st.floats(-1e100, 1e100))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def csr_rows(cells: list[dict], width: int) -> CsrRows:
    """CSR rows from one {column: value} dict per row."""
    indptr = np.cumsum([0] + [len(r) for r in cells], dtype=np.int64)
    indices = np.array([j for r in cells for j in sorted(r)], dtype=np.int64)
    data = np.array([r[j] for r in cells for j in sorted(r)], dtype=np.float64)
    return CsrRows(indptr, indices, data, (len(cells), width))


@st.composite
def csr_and_weights(draw):
    """CSR rows (empty rows, rows of one value, stored zeros), a class x column W,
    and a second term: other values on the same rows and a W of other classes."""
    width, classes, others = (draw(st.integers(1, n)) for n in (9, 4, 4))
    cells = [draw(st.dictionaries(st.integers(0, width - 1), WEIGHTS, max_size=width))
             for _ in range(draw(st.integers(0, 8)))]
    X = csr_rows(cells, width)

    def floats(n):
        return np.array(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))

    W, W2 = (floats(k * width).reshape(k, width) for k in (classes, others))
    return X, W, floats(X.data.size), W2


# blocks of 1, 2 and 3 values cut rows apart from their neighbours and hold
# rows longer than a block alone; the default holds every drawn case whole
BLOCK_VALUES = st.sampled_from([1, 2, 3, classify._DOT_BLOCK_VALUES])


@settings(max_examples=300, deadline=None)
@given(csr_and_weights(), BLOCK_VALUES)
def test_dot_t_is_bit_identical_to_a_bincount_per_class(case, block):
    X, W, values2, W2 = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "_DOT_BLOCK_VALUES", block)
        out, = classify._dot_t(X, (X.data, W))
        terms = [(X.data, W), (values2, W2)]
        both = classify._dot_t(X, *terms)  # one cut and permutation serve both terms
    rows = X.row_ids()
    for (values, weights), got in zip(terms, both):
        for c in range(weights.shape[0]):
            want = np.bincount(rows, values * weights[c, X.indices], minlength=X.shape[0])
            assert same_bits(got[:, c], want)
    assert same_bits(both[0], out)


@pytest.fixture(scope="module")
def scoring_models():
    """Every kind whose scores are row by row, fitted on random rows of width 7."""
    rng = np.random.default_rng(11)
    X = CsrRows.from_dense(rng.random((30, 7)) * (rng.random((30, 7)) < 0.6))
    labels = [f"c{i % 3}" for i in range(30)]
    # knn's distances can take a dense product whose choice depends on the batch
    return {kind: fit_vectors(ClassifierSpec(kind), X, labels)
            for kind in classify.KINDS if kind != "knn"}


FEATURE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(-1e3, 1e3))


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.dictionaries(st.integers(0, 6), FEATURE_VALUES), min_size=1, max_size=8),
       block=BLOCK_VALUES, data=st.data())
def test_a_score_row_is_the_same_alone_in_its_batch_and_shuffled(scoring_models, cells, block, data):
    order = data.draw(st.permutations(range(len(cells))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "_DOT_BLOCK_VALUES", block)
        for kind, model in scoring_models.items():
            scores = predict_matrix(model, csr_rows(cells, 7))[1]
            shuffled = predict_matrix(model, csr_rows([cells[i] for i in order], 7))[1]
            assert same_bits(shuffled, scores[order]), kind
            for i, row in enumerate(cells):
                assert same_bits(predict_matrix(model, csr_rows([row], 7))[1][0], scores[i]), kind


def test_dot_t_holds_one_product_buffer():
    rng = np.random.default_rng(3)
    m, width, nnz = 500, 4000, 200_000
    indptr = np.linspace(0, nnz, m + 1).astype(np.int64)
    indices = np.concatenate([np.sort(rng.choice(width, b - a, replace=False))
                              for a, b in zip(indptr[:-1], indptr[1:])])
    X = CsrRows(indptr, indices, rng.random(nnz), (m, width))
    W = rng.standard_normal((12, width))
    tracemalloc.start()
    try:
        out, = classify._dot_t(X, (X.data, W))
        peak = tracemalloc.get_traced_memory()[1] - out.nbytes
    finally:
        tracemalloc.stop()
    # the row ids, one product buffer and slack; a gather of all 12 classes at once
    # holds 13 such arrays, and take's "raise" mode adds a hidden buffer of its own
    assert peak < 3 * nnz * 8


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
    # fit_model/predict_corpus build their own CSR rows; fit_vectors/predict_matrix
    # on rows rebuilt from a dense matrix must give the very same parameters and scores
    train, held = synth_corpora()
    hp = {"epochs": 3} if "epochs" in classify.DEFAULT_HYPERPARAMETERS[kind] else {}
    spec = ClassifierSpec(kind, hp, seed=4)
    via_corpus = fit_model(FeatureConfig("tfidf_byte", ngram3_cap=200), spec, train)
    schema = via_corpus.schema
    rows = CsrRows.from_dense(vectorize.transform_rows(schema, train.documents).toarray())
    via_matrix = fit_vectors(spec, rows, [d.label for d in train], schema=schema)
    assert via_corpus.labels == via_matrix.labels
    assert sorted(via_corpus.parameters) == sorted(via_matrix.parameters)
    for name, value in via_corpus.parameters.items():
        assert same_parameter(value, via_matrix.parameters[name]), name
    corpus_labels, corpus_scores = predict_corpus(via_corpus, held)
    matrix_labels, matrix_scores = predict_matrix(
        via_corpus, CsrRows.from_dense(vectorize.transform_rows(schema, held.documents).toarray())
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


def test_predict_corpus_takes_a_corpus_or_a_list_of_documents():
    train, held = synth_corpora()
    model = fit_model(FeatureConfig("tfidf_byte", ngram3_cap=200), ClassifierSpec("cnb"), train)
    corpus_labels, corpus_scores = predict_corpus(model, held)
    list_labels, list_scores = predict_corpus(model, list(held.documents))
    assert list_labels == corpus_labels
    assert np.array_equal(list_scores, corpus_scores)
    rows = vectorize.transform_rows(model.schema, train.documents)
    bare = fit_vectors(ClassifierSpec("cnb"), rows, [d.label for d in train])
    with pytest.raises(ModelFormatError, match="no feature schema"):
        predict_corpus(bare, held)


def fitted_model_file(tmp_path, kind="mnb"):
    X = CsrRows.from_dense([[1.0, 0.0], [0.0, 1.0]])
    model = fit_vectors(ClassifierSpec(kind), X, ["A", "B"])
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


def test_load_accepts_crlf_line_ends(tmp_path):
    # as the text-mode reader of earlier releases did, e.g. after a CRLF checkout
    path = fitted_model_file(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert load_model(path).labels == ("A", "B")


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
    next_major = f"{int(classify.FORMAT_VERSION.split('.')[0]) + 1}.0"
    rewrite_with_valid_checksum(path, lambda p: p.update(format_version=next_major))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


# format_version values the writer never writes: 1.x and 2.0 load in release 1.1.0 only,
# and a minor is ASCII digits ("²" is a digit to str.isdigit, "٣" to int and to \d)
@pytest.mark.parametrize("version", ["1.0", "2.0", "2", "2.", "2.x", "2.²", "2.٣", "2.1.5",
                                     "2.1\n", " 2.1", 2.1, 2, None], ids=repr)
def test_load_refuses_a_version_the_writer_never_writes(capsys, tmp_path, version):
    path = fitted_model_file(tmp_path)
    rewrite_with_valid_checksum(path, lambda p: p.update(format_version=version))
    with pytest.raises(ModelFormatError, match=f"format version {re.escape(repr(version))} incompatible"):
        load_model(path)
    queries = Path(__file__).parent / "fixtures" / "queries.jsonl"
    assert main(["predict", "--model", str(path), "--input", str(queries)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("data error: format version") and "incompatible" in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(["2.1", "2.7", "2.10", "2.01", "2.0", "1.0", "3.1"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5,
)


@settings(max_examples=150, deadline=None)
@given(version=JSON_VALUES)
def test_any_json_version_loads_or_is_refused(tmp_path_factory, version):
    path = fitted_model_file(tmp_path_factory.mktemp("version"))
    rewrite_with_valid_checksum(path, lambda p: p.update(format_version=version))
    try:
        assert load_model(path).labels == ("A", "B")
    except ModelFormatError:
        pass


def test_load_accepts_same_major_minor_bump(tmp_path):
    path = fitted_model_file(tmp_path)
    rewrite_with_valid_checksum(path, lambda p: p.update(format_version="2.7"))
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


def test_load_rejects_nonfinite_hyperparameter(tmp_path):
    # such files were written by `train --alpha inf` before hyperparameters
    # had to be finite
    path = fitted_model_file(tmp_path)
    rewrite_with_valid_checksum(path, lambda p: p["hyperparameters"].update(alpha=math.inf))
    assert "Infinity" in path.read_text()
    with pytest.raises(ModelFormatError, match="finite"):
        load_model(path)


def int64_record(values) -> dict:
    raw = np.asarray(values, dtype="<i8").tobytes()
    return {"base64": base64.b64encode(raw).decode(), "dtype": "<i8", "shape": [len(values)]}


def float64_record(values, fill=None) -> dict:
    """``values`` as a format-2.1 float64 record: per row (every axis but the last) the
    ``fill`` given, else the row's most frequent bit pattern (the smallest of equals), a
    bit per cell set where the cell's bits differ from it, and those cells' values."""
    a = np.asarray(values, dtype="<f8")
    rows = a.reshape(-1, a.shape[-1])
    if fill is None:
        fill = [u[np.argmax(c)] for u, c in (np.unique(r.view("<u8"), return_counts=True) for r in rows)]
        fill = np.array(fill, dtype="<u8").view("<f8")
    fill = np.asarray(fill, dtype="<f8")
    differ = rows.view("<u8") != fill.view("<u8")[:, None]
    text = {"fill": fill, "mask": np.packbits(differ), "values": rows[differ]}
    return {"dtype": "<f8", "shape": list(a.shape),
            **{k: base64.b64encode(v.tobytes()).decode() for k, v in text.items()}}


def float64_values(record) -> np.ndarray:
    """The array that a format-2.1 float64 record holds."""
    shape, (fill, mask, values) = record["shape"], (
        base64.b64decode(record[k]) for k in ("fill", "mask", "values"))
    differ = np.unpackbits(np.frombuffer(mask, np.uint8), count=math.prod(shape)).astype(bool)
    out = np.repeat(np.frombuffer(fill, "<f8"), shape[-1])
    out[differ] = np.frombuffer(values, "<f8")
    return out.reshape(shape)


def set_csr(p, **arrays):
    # knn's training rows of fitted_model_file(kind="knn") are [[1, 0], [0, 1]]
    p["parameters"]["train_matrix"].update({k: int64_record(v) for k, v in arrays.items()})


# checksum-valid format-2.1 bodies whose arrays are malformed or do not fit together
MALFORMED_ARRAYS = {
    "not-base64": lambda p: p["parameters"]["train_label_idx"].update(base64="AAAA!AAA"),
    "length-not-shape": lambda p: p["parameters"]["train_label_idx"].update(shape=[3]),
    "length-not-whole-values": lambda p: p["parameters"]["train_label_idx"].update(base64="AAAA"),
    "int-under-float-key": lambda p: p["parameters"]["train_matrix"]["data"].update(dtype="<i8"),
    "list-under-float-key": lambda p: p["parameters"]["train_matrix"].update(data=[1.0, 1.0]),
    "csr-indptr-decreasing": lambda p: set_csr(p, indptr=[0, 3, 2]),
    "csr-index-out-of-range": lambda p: set_csr(p, indices=[0, 2]),
    "csr-columns-not-ascending": lambda p: set_csr(p, indptr=[0, 2, 2], indices=[1, 0]),
    "label-count-not-row-count": lambda p: p["parameters"].update(train_label_idx=int64_record([0, 1, 1])),
    "label-index-out-of-range": lambda p: p["parameters"].update(train_label_idx=int64_record([0, 2])),
    "nan-in-float-array": lambda p: p["parameters"]["train_matrix"].update(
        data=float64_record([math.nan, 1.0])),
    # a float row count would pass every length check, and re-save as 2.0
    "shape-not-nonnegative-ints": lambda p: p["parameters"]["train_matrix"].update(shape=[2.0, 2]),
    "undeclared-parameter": lambda p: p["parameters"].update(bias=float64_record([0.0, 0.0])),
    "csr-indices-length-not-data": lambda p: set_csr(p, indices=[0]),
}


@pytest.mark.parametrize(
    "mutate",
    [lambda p: p.pop("kind"), lambda p: p.update(parameters=[1]), lambda p: p.update(labels=None),
     *MALFORMED_ARRAYS.values()],
    ids=["no-kind", "parameters-not-a-map", "labels-null", *MALFORMED_ARRAYS],
)
def test_load_rejects_malformed_body(tmp_path, mutate):
    path = fitted_model_file(tmp_path, "knn")
    rewrite_with_valid_checksum(path, mutate)
    with pytest.raises(ModelFormatError, match="malformed"):
        load_model(path)


def labelled_model_file(tmp_path, kind="cnb", names=("isa00", "isa01")):
    """A model on hist_endian_byte rows of two classes called ``names``, which predict can run."""
    train = corpus.generate_synthetic(corpus.default_isa_specs(2), 4, 40, seed=5)
    rename = dict(zip(train.label_set, names))
    train = Corpus([Document(d.payload, rename[d.label], d.id) for d in train])
    path = tmp_path / f"{kind}.model"
    save_model(fit_model(FeatureConfig("hist_endian_byte"), ClassifierSpec(kind), train), path)
    return path


def no_labels(p):
    p["labels"] = []
    p["parameters"]["feature_log_prob"] = float64_record(np.zeros((0, 260)))  # fits 0 labels


# checksum-valid edits of labelled_model_file's labels, which fit_vectors
# always writes as 2 or more distinct strings in sorted order
MALFORMED_LABELS = {
    "empty": no_labels,
    "unsorted": lambda p: p.update(labels=["isa01", "isa00"]),
    "duplicated": lambda p: p.update(labels=["isa00", "isa00"]),
    "not-strings": lambda p: p.update(labels=[1, 2]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LABELS))
def test_load_rejects_labels_fit_vectors_does_not_write(tmp_path, case):
    path = labelled_model_file(tmp_path)
    assert load_model(path).labels == ("isa00", "isa01")
    rewrite_with_valid_checksum(path, MALFORMED_LABELS[case])
    with pytest.raises(ModelFormatError, match="malformed model body.*labels"):
        load_model(path)


# checksum-valid edits of an mnb model of classes A and B to JSON types that
# save_model never writes: such a model would not re-save to the file's bytes
MISTYPED_FIELDS = {
    "labels-a-string": lambda p: p.update(labels="AB"),
    "seed-a-float": lambda p: p.update(seed=3.7),
    "seed-a-bool": lambda p: p.update(seed=True),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_FIELDS))
def test_load_rejects_fields_of_a_type_save_model_does_not_write(tmp_path, case):
    path = labelled_model_file(tmp_path, "mnb", ("A", "B"))
    assert load_model(path).labels == ("A", "B")
    rewrite_with_valid_checksum(path, MISTYPED_FIELDS[case])
    with pytest.raises(ModelFormatError, match="malformed model body.*JSON"):
        load_model(path)


@pytest.mark.parametrize("var", [1e308, 5e-324], ids=["log-overflows", "inverse-overflows"])
def test_gnb_whose_scores_can_leave_float_range_is_refused(tmp_path, var):
    # log(2 pi var) overflows at 1e308, 1/var at a subnormal variance
    X = CsrRows.from_dense([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(corpus.CorpusError, match="float range"):
        fit_vectors(ClassifierSpec("gnb", {"var_floor": var}), X, ["A", "B"])
    path = fitted_model_file(tmp_path, "gnb")
    record = float64_record(np.full((2, 2), var))
    rewrite_with_valid_checksum(path, lambda p: p["parameters"].update(var=record))
    with pytest.raises(ModelFormatError, match="float range"):
        load_model(path)


def test_load_rejects_non_utf8_file(tmp_path):
    path = fitted_model_file(tmp_path)
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    with pytest.raises(ModelFormatError, match="UTF-8"):
        load_model(path)
