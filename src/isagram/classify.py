"""From-scratch multiclass classifiers over feature vectors, plus persistence.

Seven kinds share one fit/predict interface: multinomial and complement
naive Bayes (smoothed, treating feature values as nonnegative masses),
Gaussian naive Bayes (variance floor), k-nearest-neighbors, averaged
multiclass perceptron, softmax regression by mini-batch gradient descent,
and one-vs-rest linear SVM by stochastic subgradient descent.

The two gradient-trained linear kinds carry no intercept term: decision
values are then exactly equivariant under a common rescaling of the inputs
(with the learning rate adjusted), which keeps them well-behaved on
unit-normalized features and makes that property testable bit-for-bit.

Predicted label is the argmax of the per-label scores; exact ties resolve
to the lexicographically smaller label.  Scores are log-posteriors for the
NB kinds, vote counts blended with mean neighbor distance for KNN, and raw
decision values for the linear kinds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import codec, vectorize
from .corpus import Corpus, CorpusError, Document
from .rng import SplitMix64, derive_seed
from .sparse import CsrRows, as_rows

FORMAT_VERSION = "1.0"

KINDS = ("mnb", "cnb", "gnb", "knn", "perceptron", "softmax_lr", "linear_svm")

DEFAULT_HYPERPARAMETERS: dict[str, dict[str, float | int]] = {
    "mnb": {"alpha": 1.0},
    "cnb": {"alpha": 1.0},
    "gnb": {"var_floor": 1e-9},
    "knn": {"k": 3},
    "perceptron": {"epochs": 20},
    "softmax_lr": {"learning_rate": 0.1, "epochs": 50, "batch_size": 32, "l2": 1e-4},
    "linear_svm": {"lam": 1e-4, "epochs": 50},
}


class ModelFormatError(ValueError):
    """Model file is corrupt, checksum-invalid, or version-incompatible."""


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        merged = dict(DEFAULT_HYPERPARAMETERS[self.kind])
        for key, value in self.hyperparameters.items():
            if key not in merged:
                raise ValueError(f"{self.kind} has no hyperparameter {key!r}")
            merged[key] = value
        _validate_hyperparameters(self.kind, merged)
        object.__setattr__(self, "hyperparameters", merged)


def _validate_hyperparameters(kind: str, hp: dict) -> None:
    positive = {
        "alpha", "var_floor", "learning_rate", "l2", "lam",
    }
    for key, value in hp.items():
        if key in positive and not value > 0:
            raise ValueError(f"{kind}: {key} must be > 0, got {value}")
        if key in ("epochs", "batch_size", "k") and int(value) < 1:
            raise ValueError(f"{kind}: {key} must be >= 1, got {value}")


@dataclass(frozen=True, eq=False)
class TrainedModel:
    schema: Optional[vectorize.FeatureSchema]
    spec: ClassifierSpec
    labels: tuple[str, ...]
    parameters: dict[str, np.ndarray]


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def fit_vectors(
    spec: ClassifierSpec,
    X: np.ndarray | CsrRows,
    labels: Sequence[str],
    schema: Optional[vectorize.FeatureSchema] = None,
) -> TrainedModel:
    """Fit on precomputed feature rows, dense or CSR (rows align with ``labels``)."""
    if any(label is None for label in labels):
        raise CorpusError("training corpus contains unlabeled documents")
    X = as_rows(X)
    if X.shape[0] != len(labels):
        raise ValueError("X must be 2-D with one row per label")
    if not np.isfinite(X.data).all():
        raise ValueError("feature matrix contains NaN or inf")
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise CorpusError("training data must contain at least 2 labels")
    index = {label: i for i, label in enumerate(classes)}
    y = np.asarray([index[label] for label in labels], dtype=np.int64)
    if spec.kind not in _SPARSE_KINDS:
        X = X.toarray()
    params = _FITTERS[spec.kind](spec, X, y, len(classes))
    return TrainedModel(schema=schema, spec=spec, labels=classes, parameters=params)


# kinds whose arithmetic runs on CSR rows; the others get dense matrices
_SPARSE_KINDS = ("mnb", "cnb")


def _class_masses(X: CsrRows, y, n_classes):
    """Per-class column sums: one bincount over (class, column) cells."""
    dim = X.shape[1]
    cells = y[X.row_ids()] * dim + X.indices
    return np.bincount(cells, weights=X.data, minlength=n_classes * dim).reshape(n_classes, dim)


def _dot_t(X: CsrRows, W: np.ndarray) -> np.ndarray:
    """X @ W.T, one bincount over the stored values per row of W."""
    rows = X.row_ids()
    out = np.empty((X.shape[0], W.shape[0]))
    for c in range(W.shape[0]):
        out[:, c] = np.bincount(rows, weights=X.data * W[c, X.indices], minlength=X.shape[0])
    return out


def _require_nonnegative(X: CsrRows, kind):
    if X.data.size and X.data.min() < 0:
        raise ValueError(f"{kind} requires nonnegative feature values")


def _fit_mnb(spec, X, y, n_classes):
    _require_nonnegative(X, "mnb")
    alpha = float(spec.hyperparameters["alpha"])
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    F = _class_masses(X, y, n_classes) + alpha
    log_lik = np.log(F) - np.log(F.sum(axis=1, keepdims=True))
    return {"log_prior": np.log(counts / y.shape[0]), "log_likelihood": log_lik}


def _fit_cnb(spec, X, y, n_classes):
    _require_nonnegative(X, "cnb")
    alpha = float(spec.hyperparameters["alpha"])
    F = _class_masses(X, y, n_classes)
    comp = F.sum(axis=0, keepdims=True) - F + alpha
    # weight is the negated complement log-probability: a feature common in
    # the complement of a class argues against that class
    feature_log_prob = np.log(comp.sum(axis=1, keepdims=True)) - np.log(comp)
    return {"feature_log_prob": feature_log_prob}


def _fit_gnb(spec, X, y, n_classes):
    floor = float(spec.hyperparameters["var_floor"])
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    mean = np.zeros((n_classes, X.shape[1]))
    var = np.zeros_like(mean)
    for c in range(n_classes):
        Xc = X[y == c]
        mean[c] = Xc.mean(axis=0)
        var[c] = Xc.var(axis=0)
    var = np.maximum(var, floor)
    return {"log_prior": np.log(counts / y.shape[0]), "mean": mean, "var": var}


def _fit_knn(spec, X, y, n_classes):
    return {"train_matrix": X, "train_label_idx": y.copy()}


def _fit_perceptron(spec, X, y, n_classes):
    epochs = int(spec.hyperparameters["epochs"])
    n, d = X.shape
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    Wa = np.zeros_like(W)
    ba = np.zeros_like(b)
    step = 1
    for epoch in range(epochs):
        perm = list(range(n))
        SplitMix64(derive_seed(spec.seed, 10, epoch)).shuffle(perm)
        for i in perm:
            x = X[i]
            pred = int(np.argmax(W @ x + b))
            yi = int(y[i])
            if pred != yi:
                W[yi] += x
                W[pred] -= x
                b[yi] += 1.0
                b[pred] -= 1.0
                Wa[yi] += step * x
                Wa[pred] -= step * x
                ba[yi] += step
                ba[pred] -= step
            step += 1
    # lazily-accumulated average of the weight trajectory
    return {"weights": W - Wa / step, "bias": b - ba / step}


def _fit_softmax_lr(spec, X, y, n_classes):
    hp = spec.hyperparameters
    lr = float(hp["learning_rate"])
    l2 = float(hp["l2"])
    epochs, batch = int(hp["epochs"]), int(hp["batch_size"])
    n, d = X.shape
    W = np.zeros((n_classes, d))
    for epoch in range(epochs):
        perm = list(range(n))
        SplitMix64(derive_seed(spec.seed, 11, epoch)).shuffle(perm)
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            Xb = X[idx]
            logits = Xb @ W.T
            logits -= logits.max(axis=1, keepdims=True)
            P = np.exp(logits)
            P /= P.sum(axis=1, keepdims=True)
            P[np.arange(len(idx)), y[idx]] -= 1.0
            grad = P.T @ Xb * (1.0 / len(idx))
            W -= lr * (grad + l2 * W)
    return {"weights": W}


def _fit_linear_svm(spec, X, y, n_classes):
    hp = spec.hyperparameters
    lam = float(hp["lam"])
    epochs = int(hp["epochs"])
    n, d = X.shape
    W = np.zeros((n_classes, d))
    for c in range(n_classes):
        w = np.zeros(d)
        ybin = np.where(y == c, 1.0, -1.0)
        t = 0
        for epoch in range(epochs):
            perm = list(range(n))
            SplitMix64(derive_seed(spec.seed, 12, c, epoch)).shuffle(perm)
            for i in perm:
                t += 1
                eta = 1.0 / (lam * t)
                margin = ybin[i] * (w @ X[i])
                w *= 1.0 - eta * lam
                if margin < 1.0:
                    w += (eta * ybin[i]) * X[i]
        W[c] = w
    return {"weights": W}


_FITTERS = {
    "mnb": _fit_mnb,
    "cnb": _fit_cnb,
    "gnb": _fit_gnb,
    "knn": _fit_knn,
    "perceptron": _fit_perceptron,
    "softmax_lr": _fit_softmax_lr,
    "linear_svm": _fit_linear_svm,
}


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict(model: TrainedModel, doc: Document) -> tuple[str, np.ndarray]:
    """(label, per-label scores aligned with model.labels) for one document."""
    if model.schema is None:
        raise ValueError("model carries no feature schema; use predict_vector")
    labels, scores = predict_matrix(model, vectorize.transform_rows(model.schema, [doc]))
    return labels[0], scores[0]


def predict_vector(model: TrainedModel, x: np.ndarray) -> tuple[str, np.ndarray]:
    scores = predict_matrix(model, np.asarray(x, dtype=np.float64)[None, :])[1][0]
    return model.labels[int(np.argmax(scores))], scores


def predict_matrix(
    model: TrainedModel, X: np.ndarray | CsrRows
) -> tuple[list[str], np.ndarray]:
    """Batch prediction on dense or CSR rows; (labels, scores of shape (n, |labels|))."""
    X = as_rows(X)
    if not np.isfinite(X.data).all():
        raise ValueError("feature matrix contains NaN or inf")
    if model.spec.kind not in _SPARSE_KINDS:
        X = X.toarray()
    scores = _SCORERS[model.spec.kind](model, X)
    winners = [model.labels[i] for i in np.argmax(scores, axis=1)]
    return winners, scores


def predict_corpus(model: TrainedModel, corpus: Corpus) -> tuple[list[str], np.ndarray]:
    if model.schema is None:
        raise ValueError("model carries no feature schema; use predict_matrix")
    return predict_matrix(model, vectorize.transform_rows(model.schema, corpus.documents))


def _score_mnb(model, X):
    p = model.parameters
    return p["log_prior"][None, :] + _dot_t(X, p["log_likelihood"])


def _score_cnb(model, X):
    return _dot_t(X, model.parameters["feature_log_prob"])


def _score_gnb(model, X):
    p = model.parameters
    mean, var = p["mean"], p["var"]
    const = -0.5 * np.log(2.0 * np.pi * var).sum(axis=1)
    out = np.empty((X.shape[0], mean.shape[0]))
    for c in range(mean.shape[0]):
        diff = X - mean[c]
        out[:, c] = p["log_prior"][c] + const[c] - 0.5 * (diff * diff / var[c]).sum(axis=1)
    return out


def _score_knn(model, X):
    p = model.parameters
    T, ty = p["train_matrix"], p["train_label_idx"]
    k = min(int(model.spec.hyperparameters["k"]), T.shape[0])
    n_classes = len(model.labels)
    d2 = (
        np.einsum("ij,ij->i", X, X)[:, None]
        - 2.0 * (X @ T.T)
        + np.einsum("ij,ij->i", T, T)[None, :]
    )
    dist = np.sqrt(np.maximum(d2, 0.0))
    scores = np.empty((X.shape[0], n_classes))
    for r in range(X.shape[0]):
        near = np.argsort(dist[r], kind="stable")[:k]
        for c in range(n_classes):
            mask = ty[near] == c
            votes = int(mask.sum())
            if votes == 0:
                scores[r, c] = -1.0
            else:
                mean_d = float(dist[r][near[mask]].mean())
                # votes dominate; closer neighborhoods break vote ties
                scores[r, c] = votes - mean_d / (1.0 + mean_d)
    return scores


def _score_linear(model, X):
    return X @ model.parameters["weights"].T


def _score_perceptron(model, X):
    p = model.parameters
    return X @ p["weights"].T + p["bias"][None, :]


_SCORERS = {
    "mnb": _score_mnb,
    "cnb": _score_cnb,
    "gnb": _score_gnb,
    "knn": _score_knn,
    "perceptron": _score_perceptron,
    "softmax_lr": _score_linear,
    "linear_svm": _score_linear,
}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_INT_PARAMS = {"train_label_idx"}


def _schema_to_dict(schema: Optional[vectorize.FeatureSchema]):
    if schema is None:
        return None
    out = {
        "method": schema.method,
        "encoding": schema.encoding.name if schema.encoding else None,
        "normalize": schema.normalize,
        "vocab": None,
    }
    if schema.vocab is not None:
        v = schema.vocab
        out["vocab"] = {
            "alphabet": v.alphabet,
            "fit_corpus_size": v.fit_corpus_size,
            "grams3": v.gram3_terms(),
            "idf1": v.idf1.tolist(),
            "idf2": v.idf2.tolist(),
            "idf3": v.idf3.tolist(),
        }
    return out


def _schema_from_dict(data) -> Optional[vectorize.FeatureSchema]:
    if data is None:
        return None
    encoding = codec.get_encoding(data["encoding"]) if data["encoding"] else None
    vocab = None
    if data["vocab"] is not None:
        vd = data["vocab"]
        alphabet = vd["alphabet"]
        base = 256 if alphabet is None else len(alphabet)
        vocab = vectorize.GramVocabulary(
            base=base,
            alphabet=alphabet,
            codes3=vectorize.terms3_to_codes(vd["grams3"], alphabet),
            idf1=np.asarray(vd["idf1"], dtype=np.float64),
            idf2=np.asarray(vd["idf2"], dtype=np.float64),
            idf3=np.asarray(vd["idf3"], dtype=np.float64),
            fit_corpus_size=int(vd["fit_corpus_size"]),
        )
    return vectorize.FeatureSchema(
        method=data["method"], encoding=encoding, vocab=vocab,
        normalize=data["normalize"],
    )


def save_model(model: TrainedModel, path) -> None:
    """Write a self-describing JSON document plus a trailing sha256 line."""
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": model.spec.kind,
        "hyperparameters": model.spec.hyperparameters,
        "seed": model.spec.seed,
        "labels": list(model.labels),
        "schema": _schema_to_dict(model.schema),
        "parameters": {k: v.tolist() for k, v in model.parameters.items()},
    }
    body = json.dumps(payload, sort_keys=True)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body + "\nsha256:" + digest + "\n")


def load_model(path) -> TrainedModel:
    """Verify the checksum, then the format version, then rebuild the model."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    body, _, tail = text.rstrip("\n").rpartition("\n")
    if not tail.startswith("sha256:"):
        raise ModelFormatError("missing checksum line; file truncated or corrupt")
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != tail[len("sha256:"):]:
        raise ModelFormatError("checksum mismatch; file corrupt")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"unparsable model body: {exc}") from exc
    version = str(payload.get("format_version", ""))
    if version.split(".")[0] != FORMAT_VERSION.split(".")[0]:
        raise ModelFormatError(
            f"format version {version!r} incompatible with {FORMAT_VERSION}"
        )
    spec = ClassifierSpec(
        kind=payload["kind"],
        hyperparameters=payload["hyperparameters"],
        seed=int(payload["seed"]),
    )
    parameters = {
        k: np.asarray(v, dtype=np.int64 if k in _INT_PARAMS else np.float64)
        for k, v in payload["parameters"].items()
    }
    return TrainedModel(
        schema=_schema_from_dict(payload["schema"]),
        spec=spec,
        labels=tuple(payload["labels"]),
        parameters=parameters,
    )
