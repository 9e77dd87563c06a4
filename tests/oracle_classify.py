"""Dense reference classifiers used as a test oracle.

The fit and score arithmetic of gnb, knn, perceptron, softmax_lr and
linear_svm as it was before those kinds learned to read CSR rows: every
function takes a dense float64 matrix and loops over full 70 792-wide rows.
The production code must give the same predictions and agree on parameters
and scores to a tight relative tolerance; the two share no code beyond the
seeded shuffles.
"""

import numpy as np

from isagram.rng import SplitMix64, derive_seed


def fit_gnb(hp, X, y, n_classes):
    floor = float(hp["var_floor"])
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    mean = np.zeros((n_classes, X.shape[1]))
    var = np.zeros_like(mean)
    for c in range(n_classes):
        Xc = X[y == c]
        mean[c] = Xc.mean(axis=0)
        var[c] = Xc.var(axis=0)
    var = np.maximum(var, floor)
    return {"log_prior": np.log(counts / y.shape[0]), "mean": mean, "var": var}


def fit_knn(hp, X, y, n_classes):
    return {"train_matrix": X, "train_label_idx": y.copy()}


def fit_perceptron(hp, X, y, n_classes, seed):
    epochs = int(hp["epochs"])
    n, d = X.shape
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    Wa = np.zeros_like(W)
    ba = np.zeros_like(b)
    step = 1
    for epoch in range(epochs):
        perm = list(range(n))
        SplitMix64(derive_seed(seed, 10, epoch)).shuffle(perm)
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
    return {"weights": W - Wa / step, "bias": b - ba / step}


def fit_softmax_lr(hp, X, y, n_classes, seed):
    lr = float(hp["learning_rate"])
    l2 = float(hp["l2"])
    epochs, batch = int(hp["epochs"]), int(hp["batch_size"])
    n, d = X.shape
    W = np.zeros((n_classes, d))
    for epoch in range(epochs):
        perm = list(range(n))
        SplitMix64(derive_seed(seed, 11, epoch)).shuffle(perm)
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


def fit_linear_svm(hp, X, y, n_classes, seed):
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
            SplitMix64(derive_seed(seed, 12, c, epoch)).shuffle(perm)
            for i in perm:
                t += 1
                eta = 1.0 / (lam * t)
                margin = ybin[i] * (w @ X[i])
                w *= 1.0 - eta * lam
                if margin < 1.0:
                    w += (eta * ybin[i]) * X[i]
        W[c] = w
    return {"weights": W}


def score_gnb(p, X):
    mean, var = p["mean"], p["var"]
    const = -0.5 * np.log(2.0 * np.pi * var).sum(axis=1)
    out = np.empty((X.shape[0], mean.shape[0]))
    for c in range(mean.shape[0]):
        diff = X - mean[c]
        out[:, c] = p["log_prior"][c] + const[c] - 0.5 * (diff * diff / var[c]).sum(axis=1)
    return out


def score_knn(p, X, k, n_classes):
    T, ty = p["train_matrix"], p["train_label_idx"]
    k = min(k, T.shape[0])
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
                scores[r, c] = votes - mean_d / (1.0 + mean_d)
    return scores


def score_linear(p, X):
    return X @ p["weights"].T


def score_perceptron(p, X):
    return X @ p["weights"].T + p["bias"][None, :]


def fit(kind, hp, X, y, n_classes, seed):
    """Dense parameters of ``kind`` fitted on the dense matrix ``X``."""
    if kind == "gnb":
        return fit_gnb(hp, X, y, n_classes)
    if kind == "knn":
        return fit_knn(hp, X, y, n_classes)
    return {
        "perceptron": fit_perceptron,
        "softmax_lr": fit_softmax_lr,
        "linear_svm": fit_linear_svm,
    }[kind](hp, X, y, n_classes, seed)


def score(kind, hp, params, X, n_classes):
    """Per-label scores of the dense rows ``X`` under dense ``params``."""
    if kind == "gnb":
        return score_gnb(params, X)
    if kind == "knn":
        return score_knn(params, X, int(hp["k"]), n_classes)
    if kind == "perceptron":
        return score_perceptron(params, X)
    return score_linear(params, X)
