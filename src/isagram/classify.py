"""From-scratch multiclass classifiers over CSR feature rows, plus persistence.

Seven kinds share one fit/predict interface: multinomial and complement
naive Bayes (smoothed, treating feature values as nonnegative masses),
Gaussian naive Bayes (variance floor), k-nearest-neighbors, averaged
multiclass perceptron, softmax regression by mini-batch gradient descent,
and one-vs-rest linear SVM by stochastic subgradient descent.  A kind is
one row of ``_KINDS``: its hyperparameter defaults, its fit and score
functions, and the axes of each parameter it stores.

Every kind fits and scores on CSR rows, its one input type, at a cost that
follows the stored values, never densifying a feature matrix: Gaussian NB
treats each class's implicit zeros in closed form, the SGD kinds touch only
the columns a row or batch stores and carry weight decay as a scalar scale
(Pegasos for the SVM, Shalev-Shwartz et al. 2007; lazy L2 for softmax,
Bottou 2010), and KNN multiplies only values that share a column, taking the
columns that many rows store through one dense product.  ``predict_corpus``
is the one function that scores documents.

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

import binascii
import hashlib
import json
import math
import numbers
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import codec, vectorize
from .corpus import CorpusError, Document
from .rng import SplitMix64, derive_seed
from .sparse import CsrRows

FORMAT_VERSION = "2.1"


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
    for key, value in hp.items():
        # Python ints are unbounded and always finite; isfinite would overflow on a huge one
        if not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral) or math.isfinite(value)
        ):
            raise ValueError(f"{kind}: {key} must be a finite number, got {value!r}")
        if isinstance(DEFAULT_HYPERPARAMETERS[kind][key], int):  # a count
            if int(value) < 1:
                raise ValueError(f"{kind}: {key} must be >= 1, got {value}")
        elif not value > 0:  # a rate or a scale
            raise ValueError(f"{kind}: {key} must be > 0, got {value}")


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
    X: CsrRows,
    labels: Sequence[str],
    schema: Optional[vectorize.FeatureSchema] = None,
) -> TrainedModel:
    """Fit on precomputed CSR feature rows (rows align with ``labels``)."""
    if any(label is None for label in labels):
        raise CorpusError("training corpus contains unlabeled documents")
    if X.shape[0] != len(labels):
        raise ValueError("X must be 2-D with one row per label")
    if not np.isfinite(X.data).all():
        raise ValueError("feature matrix contains NaN or inf")
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise CorpusError("training data must contain at least 2 labels")
    index = {label: i for i, label in enumerate(classes)}
    y = np.asarray([index[label] for label in labels], dtype=np.int64)
    with np.errstate(all="ignore"):  # a diverged fit is reported just below
        params = _KINDS[spec.kind].fit(spec, X, y, len(classes))
    for name, value in params.items():
        if isinstance(value, np.ndarray) and not np.isfinite(value).all():
            raise CorpusError(f"{spec.kind} fit diverged: {name} is not finite")
    if spec.kind == "gnb" and _gnb_overflows(params["mean"], params["var"]):
        raise CorpusError("gnb fit diverged: its scores can leave float range (var_floor)")
    return TrainedModel(schema=schema, spec=spec, labels=classes, parameters=params)


def _class_sums(X: CsrRows, y, n_classes, values):
    """Per-class column sums of ``values``, one per stored value of ``X``:
    one bincount over (class, column) cells."""
    dim = X.shape[1]
    cells = y[X.row_ids()] * dim + X.indices
    return np.bincount(cells, weights=values, minlength=n_classes * dim).reshape(n_classes, dim)


_DOT_BLOCK_VALUES = 1 << 15  # stored values that ``_dot_t`` scores at once


def _row_blocks(cumulative: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Blocks [lo, hi) of whole rows holding at most ``budget`` items, or one row
    holding more; ``cumulative`` counts the items before each row, then all."""
    blocks, m = [(0, 0)], cumulative.shape[0] - 1
    while (lo := blocks[-1][1]) < m:
        hi = int(np.searchsorted(cumulative, cumulative[lo] + budget, side="right")) - 1
        blocks.append((lo, min(max(hi, lo + 1), m)))
    return blocks[1:]


def _dot_t(X: CsrRows, *terms: tuple[np.ndarray, np.ndarray]) -> list[np.ndarray]:
    """values @ W.T for each (values, W) of ``terms``, ``values`` holding one value
    per stored value of X: one bincount per row of W over the values times that
    row, in blocks of whole rows read position-major (a radix argsort of positions
    in the row): consecutive adds go to different rows, and each row still adds
    its products in stored order from 0.0.  One cut, one permutation and one
    scratch set serve all terms and blocks; "wrap" never wraps an index in range,
    and unlike "raise" keeps no buffer of its own."""
    ptr, outs = X.indptr, [np.empty((X.shape[0], W.shape[0])) for _, W in terms]
    longest = np.diff(ptr).max(initial=0)
    size = max(min(ptr[-1], _DOT_BLOCK_VALUES), longest)  # the largest block's values
    cols, rows = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
    buf, *vals = (np.empty(size) for _ in range(len(terms) + 1))
    pos_type = np.min_scalar_type(longest - 1)  # uint8 sorts in one pass
    for lo, hi in _row_blocks(ptr, _DOT_BLOCK_VALUES):
        a, k = ptr[lo], ptr[hi] - ptr[lo]
        row = np.repeat(np.arange(hi - lo), np.diff(ptr[lo : hi + 1]))
        order = np.argsort((np.arange(a, a + k) - ptr[lo:hi][row]).astype(pos_type), kind="stable")
        gathers = [(X.indices[a:], cols), (row, rows)] + [(v[a:], d) for (v, _), d in zip(terms, vals)]
        for src, dst in gathers:
            np.take(src, order, out=dst[:k], mode="wrap")
        for (_, W), v, out in zip(terms, vals, outs):
            for c in range(W.shape[0]):
                np.take(W[c], cols[:k], out=buf[:k], mode="wrap")
                buf[:k] *= v[:k]
                out[lo:hi, c] = np.bincount(rows[:k], weights=buf[:k], minlength=hi - lo)
    return outs


def _row_slices(X: CsrRows) -> list[tuple[np.ndarray, np.ndarray]]:
    """(columns, values) of each row, for the per-example SGD loops."""
    bounds = X.indptr.tolist()
    return [(X.indices[a:b], X.data[a:b]) for a, b in zip(bounds, bounds[1:])]


def _require_nonnegative(X: CsrRows, kind):
    if X.data.size and X.data.min() < 0:
        raise ValueError(f"{kind} requires nonnegative feature values")


def _fit_mnb(spec, X, y, n_classes):
    _require_nonnegative(X, "mnb")
    alpha = float(spec.hyperparameters["alpha"])
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    # in place: a class x feature array is 0.57 MB per class on tfidf-byte
    F = _class_sums(X, y, n_classes, X.data)
    F += alpha
    log_total = np.log(F.sum(axis=1, keepdims=True))
    np.log(F, out=F)
    F -= log_total
    return {"log_prior": np.log(counts / y.shape[0]), "log_likelihood": F}


def _fit_cnb(spec, X, y, n_classes):
    _require_nonnegative(X, "cnb")
    alpha = float(spec.hyperparameters["alpha"])
    # each class's complement counts, in place from here on, as in mnb
    comp = _class_sums(X, y, n_classes, X.data)
    np.subtract(comp.sum(axis=0, keepdims=True), comp, out=comp)
    comp += alpha
    # weight is the negated complement log-probability: a feature common in
    # the complement of a class argues against that class
    log_total = np.log(comp.sum(axis=1, keepdims=True))
    np.log(comp, out=comp)
    return {"feature_log_prob": np.subtract(log_total, comp, out=comp)}


def _fit_gnb(spec, X, y, n_classes):
    floor = float(spec.hyperparameters["var_floor"])
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)[:, None]
    mean = _class_sums(X, y, n_classes, X.data) / counts
    dev = X.data - mean[y[X.row_ids()], X.indices]
    stored = _class_sums(X, y, n_classes, np.ones_like(X.data))
    # each implicit zero of class c in column j deviates from the mean by -mean[c, j]
    var = (_class_sums(X, y, n_classes, dev * dev) + (counts - stored) * mean * mean) / counts
    var = np.maximum(var, floor)
    return {"log_prior": np.log(counts[:, 0] / y.shape[0]), "mean": mean, "var": var}


def _gnb_overflows(mean: np.ndarray, var: np.ndarray) -> bool:
    """Whether a gnb score can leave float range.  At feature values of at most 1
    in size, |log(2 pi var)| + (1 + |mean|)^2 / var, summed per class, bounds every
    score and partial sum of ``_score_gnb``; the log is finite (and under 745)
    wherever 2 pi var is positive and finite, so only the extremes of var need it."""
    with np.errstate(all="ignore"):
        ends = np.log(2.0 * np.pi * np.array([var.min(initial=1.0), var.max(initial=1.0)]))
        bound = (np.abs(mean) + 1.0) ** 2 / var
        return not (np.isfinite(ends).all() and np.isfinite(bound.sum(axis=1)).all())


def _fit_knn(spec, X, y, n_classes):
    return {"train_matrix": X, "train_label_idx": y.copy()}


def _fit_perceptron(spec, X, y, n_classes):
    epochs = int(spec.hyperparameters["epochs"])
    n, d = X.shape
    rows = _row_slices(X)
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    Wa = np.zeros_like(W)
    ba = np.zeros_like(b)
    step = 1
    for epoch in range(epochs):
        perm = list(range(n))
        SplitMix64(derive_seed(spec.seed, 10, epoch)).shuffle(perm)
        for i in perm:
            cols, vals = rows[i]
            pred = int(np.argmax(W[:, cols] @ vals + b))
            yi = int(y[i])
            if pred != yi:
                W[yi, cols] += vals
                W[pred, cols] -= vals
                b[yi] += 1.0
                b[pred] -= 1.0
                Wa[yi, cols] += step * vals
                Wa[pred, cols] -= step * vals
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
    lengths = np.diff(X.indptr)
    # W = s * V: the L2 decay of every weight is one multiply of s, and a
    # batch's gradient touches only the columns its rows store
    V = np.zeros((n_classes, d))
    s = 1.0
    for epoch in range(epochs):
        perm = list(range(n))
        SplitMix64(derive_seed(spec.seed, 11, epoch)).shuffle(perm)
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            size = lengths[idx]
            ends = np.cumsum(size)
            at = np.arange(ends[-1]) + np.repeat(X.indptr[idx] - (ends - size), size)
            cols, inv = np.unique(X.indices[at], return_inverse=True)
            Xb = np.zeros((len(idx), cols.size))
            Xb[np.repeat(np.arange(len(idx)), size), inv] = X.data[at]
            logits = s * (Xb @ V[:, cols].T)
            logits -= logits.max(axis=1, keepdims=True)
            P = np.exp(logits)
            P /= P.sum(axis=1, keepdims=True)
            P[np.arange(len(idx)), y[idx]] -= 1.0
            grad = P.T @ Xb * (1.0 / len(idx))
            s *= 1.0 - lr * l2
            if not 1e-9 < abs(s) < 1e9:  # fold s into V before it under- or overflows
                V *= s
                s = 1.0
            V[:, cols] -= (lr / s) * grad
    return {"weights": s * V}


def _fit_linear_svm(spec, X, y, n_classes):
    hp = spec.hyperparameters
    lam = float(hp["lam"])
    epochs = int(hp["epochs"])
    n, d = X.shape
    rows = _row_slices(X)
    W = np.zeros((n_classes, d))
    for c in range(n_classes):
        # Pegasos with w = s * v, so the decay of every weight is one multiply of s
        v = np.zeros(d)
        s = 1.0
        ybin = np.where(y == c, 1.0, -1.0)
        t = 0
        for epoch in range(epochs):
            perm = list(range(n))
            SplitMix64(derive_seed(spec.seed, 12, c, epoch)).shuffle(perm)
            for i in perm:
                t += 1
                eta = 1.0 / (lam * t)
                cols, vals = rows[i]
                margin = ybin[i] * s * (v[cols] @ vals)
                # step 1 decays w = 0 by 1 - eta * lam = 0, which would zero s
                if t > 1:
                    s *= 1.0 - eta * lam
                if margin < 1.0:
                    v[cols] += (eta * ybin[i] / s) * vals
        W[c] = s * v
    return {"weights": W}


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict_matrix(model: TrainedModel, X: CsrRows) -> tuple[list[str], np.ndarray]:
    """Batch prediction on CSR rows; (labels, scores of shape (n, |labels|))."""
    if not np.isfinite(X.data).all():
        raise ValueError("feature matrix contains NaN or inf")
    row = _KINDS[model.spec.kind]
    width = next(model.parameters[n].shape[a.index("D")] for n, a in row.axes.items() if "D" in a)
    if X.shape[1] != width:
        raise ValueError(f"feature rows have {X.shape[1]} columns, the model takes {width}")
    if X.indices.size and not 0 <= X.indices.min() <= X.indices.max() < width:
        raise ValueError(f"feature rows store a column outside [0, {width})")
    scores = row.score(model, X)
    winners = [model.labels[i] for i in np.argmax(scores, axis=1)]
    return winners, scores


def predict_corpus(model: TrainedModel, docs: Sequence[Document]) -> tuple[list[str], np.ndarray]:
    """``predict_matrix`` on the feature rows of ``docs``, a Corpus or a list."""
    if model.schema is None:
        raise ModelFormatError("model carries no feature schema; it cannot read documents")
    return predict_matrix(model, vectorize.transform_rows(model.schema, docs))


def _linear(weights: str, bias: Optional[str] = None) -> Callable:
    """The scorer of a linear kind: X @ W.T from the stored ``weights``, plus the
    stored per-label ``bias`` if the kind has one."""
    def score(model, X):
        p = model.parameters
        out, = _dot_t(X, (X.data, p[weights]))
        if bias is not None:
            out += p[bias]
        return out
    return score


def _score_gnb(model, X):
    p = model.parameters
    mean, var = p["mean"], p["var"]
    # sum_j (x_j - mean_j)^2 / var_j is sum_j mean_j^2 / var_j, one constant
    # per class, plus x_j * (x_j - 2 mean_j) / var_j over the stored x_j
    const = p["log_prior"] - 0.5 * (np.log(2.0 * np.pi * var) + mean * mean / var).sum(axis=1)
    squares, values = _dot_t(X, (X.data * X.data, 1.0 / var), (X.data, mean / var))
    return const[None, :] - 0.5 * squares + values


# (query value, training value) products that knn holds at once
_KNN_BLOCK_PAIRS = 1 << 18
# a column costs m * n multiply-adds in a dense product, and one scattered
# product per (query value, training value) pair it holds otherwise; the
# scattered product costs about this many BLAS multiply-adds
_KNN_PAIR_COST = 256
# dense columns multiplied at once
_KNN_DENSE_COLS = 256


def _dense_columns(X: CsrRows, at: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Dense rows of X over the columns that ``at`` places in [lo, hi)."""
    keep = (at >= lo) & (at < hi)
    out = np.zeros((X.shape[0], hi - lo))
    out[X.row_ids()[keep], at[keep] - lo] = X.data[keep]
    return out


def _squared_distances(X: CsrRows, T: CsrRows) -> np.ndarray:
    """|x - t|^2 for every query row x and training row t."""
    m, n = X.shape[0], T.shape[0]
    xx = np.bincount(X.row_ids(), weights=X.data * X.data, minlength=m)
    tt = np.bincount(T.row_ids(), weights=T.data * T.data, minlength=n)
    # x . t sums over shared columns only.  Columns that many query and
    # training rows store go through one dense product; for the rest, group
    # the training values by column, so that each stored query value meets
    # just its column's values.
    t_count = np.bincount(T.indices, minlength=T.shape[1])
    pairs = np.bincount(X.indices, minlength=X.shape[1]) * t_count
    dense = np.flatnonzero(pairs * _KNN_PAIR_COST > m * n)
    place = np.full(X.shape[1], -1)
    place[dense] = np.arange(dense.size)
    x_at, t_at = place[X.indices], place[T.indices]
    dots = np.zeros((m, n))
    for lo in range(0, dense.size, _KNN_DENSE_COLS):
        hi = min(lo + _KNN_DENSE_COLS, dense.size)
        dots += _dense_columns(X, x_at, lo, hi) @ _dense_columns(T, t_at, lo, hi).T
    by_col = np.argsort(T.indices, kind="stable")
    t_rows, t_vals = T.row_ids()[by_col], T.data[by_col]
    col_start = np.zeros(T.shape[1] + 1, dtype=np.int64)
    np.cumsum(t_count, out=col_start[1:])
    meets = np.where(x_at < 0, t_count[X.indices], 0)
    before_row = np.concatenate(([0], np.cumsum(meets)))[X.indptr]
    x_rows = X.row_ids()
    for lo, hi in _row_blocks(before_row, _KNN_BLOCK_PAIRS):
        a, b = X.indptr[lo], X.indptr[hi]
        k = meets[a:b]
        src = np.repeat(np.arange(a, b), k)
        pos = np.arange(src.size) + np.repeat(col_start[X.indices[a:b]] - (np.cumsum(k) - k), k)
        cells = (x_rows[src] - lo) * n + t_rows[pos]
        products = X.data[src] * t_vals[pos]
        dots[lo:hi] += np.bincount(cells, products, minlength=(hi - lo) * n).reshape(hi - lo, n)
    return xx[:, None] - 2.0 * dots + tt[None, :]


def _score_knn(model, X):
    p = model.parameters
    T, ty = p["train_matrix"], p["train_label_idx"]
    k = min(int(model.spec.hyperparameters["k"]), T.shape[0])
    dist = np.sqrt(np.maximum(_squared_distances(X, T), 0.0))
    # a stable sort puts the lower training index first among equal distances
    near = np.argsort(dist, axis=1, kind="stable")[:, :k]
    near_dist = np.take_along_axis(dist, near, axis=1)
    # mask[i, c, j]: query i's j-th neighbour has label c.  Each (i, c) sums one row of k
    # masked distances in numpy's pairwise order (a bincount's running sum differs from k = 8)
    mask = ty[near][:, None, :] == np.arange(len(model.labels))[:, None]
    votes = mask.sum(axis=2)
    mean_d = np.where(mask, near_dist[:, None, :], 0.0).sum(axis=2) / np.maximum(votes, 1)
    # votes dominate; closer neighborhoods break vote ties; a label with no votes scores -1
    return np.where(votes > 0, votes - mean_d / (1.0 + mean_d), -1.0)


class _Kind(NamedTuple):
    """What one classifier kind is; ``_KINDS`` holds one row per kind."""
    defaults: dict[str, float | int]  # hyperparameters: an int one counts, a float one scales
    fit: Callable
    score: Callable
    axes: dict[str, str]  # each stored parameter's axes: L labels, D features, N training rows


_KINDS = {
    "mnb": _Kind({"alpha": 1.0}, _fit_mnb, _linear("log_likelihood", "log_prior"),
                 {"log_prior": "L", "log_likelihood": "LD"}),
    "cnb": _Kind({"alpha": 1.0}, _fit_cnb, _linear("feature_log_prob"),
                 {"feature_log_prob": "LD"}),
    "gnb": _Kind({"var_floor": 1e-9}, _fit_gnb, _score_gnb,
                 {"log_prior": "L", "mean": "LD", "var": "LD"}),
    "knn": _Kind({"k": 3}, _fit_knn, _score_knn, {"train_matrix": "ND", "train_label_idx": "N"}),
    "perceptron": _Kind({"epochs": 20}, _fit_perceptron, _linear("weights", "bias"),
                        {"weights": "LD", "bias": "L"}),
    "softmax_lr": _Kind({"learning_rate": 0.1, "epochs": 50, "batch_size": 32, "l2": 1e-4},
                        _fit_softmax_lr, _linear("weights"), {"weights": "LD"}),
    "linear_svm": _Kind({"lam": 1e-4, "epochs": 50}, _fit_linear_svm, _linear("weights"),
                        {"weights": "LD"}),
}
KINDS = tuple(_KINDS)
DEFAULT_HYPERPARAMETERS = {name: kind.defaults for name, kind in _KINDS.items()}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _row_mode(bits: np.ndarray) -> np.uint64:
    """A row's most frequent float64 bit pattern, the smallest of equally frequent ones
    (+0.0 for an empty row)."""
    s = np.sort(bits)
    edges = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1], [True])))  # of runs
    return s[edges[np.argmax(np.diff(edges))]] if s.size else np.uint64(0)


def _row_shape(shape) -> tuple[int, int]:
    """A shape as (rows, cells per row), its rows running along the last axis."""
    return math.prod(shape[:-1]), shape[-1] if shape else 1


def _encode_array(a: np.ndarray) -> dict:
    """An array as the little-endian arrays that ``_json_chunks`` writes as base64, with
    its shape: an int64 array whole; a float64 one as each row's most frequent value
    (``fill``), a bit per cell set where the cell differs from it (``mask``) and the
    differing cells (``values``), all in row-major order."""
    if a.dtype.kind in "iu":
        return {"base64": np.ascontiguousarray(a, dtype="<i8"), "dtype": "<i8", "shape": list(a.shape)}
    rows = np.ascontiguousarray(a, dtype="<f8").reshape(_row_shape(a.shape))
    fill = np.array([_row_mode(row) for row in rows.view("<u8")], dtype="<u8")
    differ = rows.view("<u8") != fill[:, None]
    return {"dtype": "<f8", "shape": list(a.shape), "fill": fill.view("<f8"),
            "mask": np.packbits(differ), "values": rows[differ]}


def _encode_parameter(value) -> dict:
    if isinstance(value, CsrRows):  # knn's training rows, stored as they are held
        arrays = {f: _encode_array(getattr(value, f)) for f in ("indptr", "indices", "data")}
        return {"shape": list(value.shape), **arrays}
    return _encode_array(value)


def _decode_shape(value) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(n) is int and n >= 0 for n in value):
        raise ValueError(f"shape must be a list of nonnegative integers, got {value!r}")
    return tuple(value)


def _check_record(record, keys: set[str], dtype: str) -> None:
    if set(record) != keys:
        raise ValueError(f"array record keys must be {sorted(keys)}, got {sorted(record)}")
    if record["dtype"] != dtype:
        raise ValueError(f"expected a {dtype} array, got {record['dtype']!r}")


def _take_base64(record, key: str, dtype) -> np.ndarray:
    """The array whose base64 is ``record[key]``, dropping the text from the record
    (a decoded float array can outgrow its text)."""
    # strict mode is b64decode(validate=True) without its ASCII-encoded copy of the text
    raw = binascii.a2b_base64(record.pop(key), strict_mode=True)
    return np.frombuffer(raw, dtype=dtype)  # ValueError unless the bytes are whole values


def _decode_array(record, dtype: str) -> np.ndarray:
    """Inverse of ``_encode_array``: an int64 record as a read-only view of its bytes,
    a float64 record refused unless ``_encode_array`` writes it."""
    if dtype != "<f8":
        _check_record(record, {"base64", "dtype", "shape"}, dtype)
        # reshape raises ValueError unless the values fill the shape exactly
        return _take_base64(record, "base64", dtype).reshape(_decode_shape(record["shape"]))
    _check_record(record, {"dtype", "fill", "mask", "shape", "values"}, dtype)
    shape = _decode_shape(record["shape"])
    (n_rows, width), cells = _row_shape(shape), math.prod(shape)
    fill = _take_base64(record, "fill", "<f8")
    differ = np.unpackbits(_take_base64(record, "mask", np.uint8))
    if fill.size != n_rows or differ.size != -(-cells // 8) * 8:
        raise ValueError(f"fill or mask length does not fit shape {list(shape)}")
    if differ[cells:].any():
        raise ValueError("spare mask bits are set")
    differ = differ[:cells].view(bool).reshape(n_rows, width)
    per_row = np.count_nonzero(differ, axis=1)
    # held with the decoded array, these are its peak; each check's scratch comes first
    values = _take_base64(record, "values", "<f8")
    if per_row.sum() != values.size:
        raise ValueError(f"mask marks {per_row.sum()} cells for {values.size} values")
    if not (np.isfinite(fill).all() and np.isfinite(values).all()):
        raise ValueError("array holds NaN or inf")
    out = np.empty(shape, dtype="<f8")
    rows = out.reshape(n_rows, width)
    rows[...] = fill[:, None]
    rows[differ] = values
    del differ, values
    bits, fill_bits = rows.view("<u8"), fill.view("<u8")
    if (np.count_nonzero(bits == fill_bits[:, None], axis=1) != width - per_row).any():
        raise ValueError("a differing value equals its row's fill")
    # a fill held by more than half its row is its mode; only other rows need counting
    for r in np.flatnonzero(2 * per_row >= width):
        if _row_mode(bits[r]) != fill_bits[r]:
            raise ValueError("a fill is not its row's most frequent value")
    return out


def _decode_csr(record) -> CsrRows:
    indptr, indices = (_decode_array(record[f], "<i8") for f in ("indptr", "indices"))
    rows, cols = _decode_shape(record["shape"])
    return CsrRows(indptr, indices, _decode_array(record["data"], "<f8"), (rows, cols)).check()


def _check_parameters(kind: str, labels: tuple, schema, parameters: dict) -> None:
    """ValueError unless ``parameters`` are the arrays ``kind`` scores with."""
    # as fit_vectors writes them; ties go to the smaller label by this order
    if not (all(isinstance(label, str) for label in labels) and len(set(labels)) >= 2
            and list(labels) == sorted(set(labels))):
        raise ValueError(f"labels must be 2 or more sorted distinct strings, got {list(labels)!r}")
    axes = _KINDS[kind].axes
    if set(parameters) != set(axes):
        raise ValueError(f"{kind} parameters must be {sorted(axes)}, got {sorted(parameters)}")
    sizes = {"L": len(labels)}
    if schema is not None:
        sizes["D"] = schema.dimension
    for name, letters in axes.items():
        shape = parameters[name].shape
        if len(shape) != len(letters) or any(sizes.setdefault(a, n) != n for a, n in zip(letters, shape)):
            raise ValueError(f"{name} of shape {shape} does not fit the other arrays")
    idx = parameters.get("train_label_idx")
    if idx is not None and idx.size and not (idx.min() >= 0 and idx.max() < len(labels)):
        raise ValueError("train_label_idx out of range")
    if kind == "gnb" and _gnb_overflows(parameters["mean"], parameters["var"]):
        raise ValueError("gnb scores can leave float range")


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
            "alphabet": schema.alphabet,
            "fit_corpus_size": v.fit_corpus_size,
            "grams3": vectorize.gram3_terms(v.codes3, schema.alphabet),
            "idf1": _encode_array(v.idf1),
            "idf2": _encode_array(v.idf2),
            "idf3": _encode_array(v.idf3),
        }
    return out


def _schema_from_dict(data) -> Optional[vectorize.FeatureSchema]:
    if data is None:
        return None
    encoding = codec.get_encoding(data["encoding"]) if data["encoding"] else None
    vocab = None
    if data["vocab"] is not None:
        vd = data["vocab"]
        alphabet = vectorize.term_alphabet(encoding)
        if vd["alphabet"] != alphabet:  # a copy, which must agree with the encoding
            raise ValueError(f"vocabulary alphabet {vd['alphabet']!r} is not the encoding's")
        vocab = vectorize.GramVocabulary(
            codes3=vectorize.terms3_to_codes(vd["grams3"], alphabet),
            idf1=_decode_array(vd["idf1"], "<f8"),
            idf2=_decode_array(vd["idf2"], "<f8"),
            idf3=_decode_array(vd["idf3"], "<f8"),
            fit_corpus_size=vd["fit_corpus_size"],
        )
    return vectorize.FeatureSchema(
        method=data["method"], encoding=encoding, vocab=vocab,
        normalize=data["normalize"],
    )


_BASE64_CHUNK = 3 << 18  # bytes of an array encoded at a time: 768 KiB in, 1 MiB out


def _json_chunks(value):
    """``json.dumps(value, sort_keys=True)`` as UTF-8 chunks, an array as its base64 string.

    Base64 needs no JSON escaping, so an array's text goes out as encoded and
    the line is never built whole.
    """
    if isinstance(value, np.ndarray):
        yield b'"'
        raw = value.reshape(-1).view(np.uint8)
        # whole 3-byte groups per chunk, so the chunks' base64 joins without padding;
        # b2a_base64 allocates twice its input before trimming, so it never sees a whole array
        for start in range(0, len(raw), _BASE64_CHUNK):
            yield binascii.b2a_base64(raw[start:start + _BASE64_CHUNK], newline=False)
        yield b'"'
    elif isinstance(value, dict):
        sep = b"{"
        for key in sorted(value):
            yield sep + json.dumps(key).encode("utf-8") + b": "
            yield from _json_chunks(value[key])
            sep = b", "
        yield b"}" if value else b"{}"
    else:
        yield json.dumps(value, sort_keys=True).encode("utf-8")


def _payload(model: TrainedModel) -> dict:
    """The model file's JSON object, each array left as the array ``_json_chunks`` encodes."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": model.spec.kind,
        "hyperparameters": model.spec.hyperparameters,
        "seed": model.spec.seed,
        "labels": list(model.labels),
        "schema": _schema_to_dict(model.schema),
        "parameters": {k: _encode_parameter(v) for k, v in model.parameters.items()},
    }


def save_model(model: TrainedModel, path) -> None:
    """Write one canonical JSON line, arrays as base64 binary, plus a trailing sha256 line.

    The line is written and hashed chunk by chunk, so no copy of it is held.
    """
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in _json_chunks(_payload(model)):
            digest.update(chunk)
            fh.write(chunk)
        fh.write(b"\nsha256:" + digest.hexdigest().encode("ascii") + b"\n")


def load_model(path) -> TrainedModel:
    """Verify the checksum, then the format version, then rebuild the model.

    Format 2.1 and its later minors load: arrays as base64 binary, each float array
    as a fill per row, a mask and the differing values, and knn's training rows as
    CSR.  Release 1.1.0 reads formats 1.x and 2.0, and re-saves such a file as 2.1.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    end = len(raw)
    while end and raw[end - 1] in b"\r\n":  # rstrip, without copying the body
        end -= 1
    cut = raw.rfind(b"\n", 0, end)
    tail, stop = raw[cut + 1:end], max(cut, 0)
    if stop and raw[stop - 1] == ord("\r"):  # as a text-mode reader would, accept CRLF
        stop -= 1
    with memoryview(raw)[:stop] as body:
        try:
            text = str(body, "utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"model file is not UTF-8 text: {exc}") from exc
        if not tail.startswith(b"sha256:"):
            raise ModelFormatError("missing checksum line; file truncated or corrupt")
        if hashlib.sha256(body).hexdigest().encode("ascii") != tail[len(b"sha256:"):]:
            raise ModelFormatError("checksum mismatch; file corrupt")
    del raw  # from here the text, then the parsed strings, hold the body
    try:
        payload = json.loads(text)
        del text
        version = payload.get("format_version")
    except (json.JSONDecodeError, AttributeError) as exc:
        raise ModelFormatError(f"unparsable model body: {exc}") from exc
    # a JSON string "2.<minor>", minor >= 1 in ASCII digits (read without int(), which
    # takes other digits and refuses very long ones)
    if not (isinstance(version, str) and re.fullmatch(r"2\.0*[1-9][0-9]*", version)):
        raise ModelFormatError(f"format version {version!r} incompatible with {FORMAT_VERSION}")
    try:  # a checksum-valid body may still lack a field or hold a bad value
        # only the JSON types save_model writes, so a loaded model re-saves to its own bytes
        if type(payload["seed"]) is not int or not isinstance(payload["labels"], list):
            raise ValueError("seed must be a JSON integer and labels a JSON list")
        spec = ClassifierSpec(payload["kind"], payload["hyperparameters"], payload["seed"])
        axes = _KINDS[spec.kind].axes
        parameters = {  # an undeclared name reads as float64, for _check_parameters to refuse
            k: _decode_csr(v) if axes.get(k) == "ND"
            else _decode_array(v, "<i8" if axes.get(k) == "N" else "<f8")
            for k, v in payload["parameters"].items()
        }
        model = TrainedModel(
            schema=_schema_from_dict(payload["schema"]),
            spec=spec,
            labels=tuple(payload["labels"]),
            parameters=parameters,
        )
        _check_parameters(spec.kind, model.labels, model.schema, parameters)
        return model
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model body: {exc!r}") from exc
