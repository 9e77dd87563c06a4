"""Repeated-split evaluation, feature-method comparison, learning curves.

Every repeat draws its own stratified train/test split; the featurizer is
fitted inside the repeat on that repeat's train documents only, so IDF
weights and 3-gram selection never see test data.  Reports aggregate
per-repeat accuracies and a confusion matrix summed over repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import classify
from .corpus import Corpus, CorpusError, SplitSpec, split
from .rng import SplitMix64, derive_seed
from .vectorize import FeatureConfig


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    per_repeat_accuracy: tuple[float, ...]
    mean_accuracy: float
    stddev_accuracy: float
    confusion: np.ndarray  # |labels| x |labels| counts summed over repeats
    labels: tuple[str, ...]
    feature_config: FeatureConfig
    classifier_spec: classify.ClassifierSpec
    split_spec: SplitSpec


@dataclass(frozen=True)
class LearningCurve:
    points: tuple[tuple[int, int, float], ...]  # (train_size, classes, mean acc)
    feature_config: FeatureConfig
    classifier_spec: classify.ClassifierSpec
    seed: int


def accuracy(predictions: Sequence[tuple[str, str]]) -> float:
    """Fraction of (true, predicted) pairs that agree."""
    if not predictions:
        raise ValueError("accuracy of an empty prediction list is undefined")
    return sum(1 for t, p in predictions if t == p) / len(predictions)


def fit_model(
    config: FeatureConfig, spec: classify.ClassifierSpec, train: Corpus
) -> classify.TrainedModel:
    """Fit features and classifier on ``train``; its rows are freed on return."""
    schema, rows = config.fit_transform(train)
    return classify.fit_vectors(spec, rows, [d.label for d in train], schema=schema)


def _evaluate_one(config, cspec, train, test, labels):
    model = fit_model(config, cspec, train)
    predicted, _ = classify.predict_corpus(model, test)
    index = {label: i for i, label in enumerate(labels)}
    pairs = [(d.label, p) for d, p in zip(test, predicted)]
    hits = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for true, pred in pairs:
        hits[index[true], index[pred]] += 1
    return accuracy(pairs), hits


def run_comparison(
    corpus: Corpus,
    methods: Sequence[FeatureConfig],
    specs: Sequence[classify.ClassifierSpec],
    split_spec: SplitSpec,
) -> list[EvaluationReport]:
    """Evaluate every (feature config, classifier spec) pair over all repeats."""
    labels = corpus.label_set
    reports = []
    for config in methods:
        for cspec in specs:
            accs: list[float] = []
            confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
            for repeat in range(split_spec.repeats):
                train, test = split(corpus, split_spec, repeat)
                acc, hits = _evaluate_one(config, cspec, train, test, labels)
                accs.append(acc)
                confusion += hits
            reports.append(
                EvaluationReport(
                    per_repeat_accuracy=tuple(accs),
                    mean_accuracy=float(np.mean(accs)),
                    stddev_accuracy=float(np.std(accs)),
                    confusion=confusion,
                    labels=labels,
                    feature_config=config,
                    classifier_spec=cspec,
                    split_spec=split_spec,
                )
            )
    return reports


def learning_curve(
    corpus: Corpus,
    method: FeatureConfig,
    spec: classify.ClassifierSpec,
    train_sizes: Sequence[int],
    class_counts: Sequence[int],
    repeats: int,
    seed: int,
) -> LearningCurve:
    """Mean accuracy at each (class count, total train size) grid point.

    Class subsets take labels in ascending order.  Train documents are
    allocated equally per class (size // classes each).  Per (classes,
    repeat, label) one seeded permutation reserves its first fifth (at
    least one document) as a fixed held-out test set shared by all sizes;
    train subsets come from the remainder.
    """
    if repeats < 1:
        raise CorpusError("repeats must be >= 1")
    points = []
    for n_classes in sorted(set(class_counts)):
        if not 2 <= n_classes <= len(corpus.label_set):
            raise CorpusError(
                f"class count {n_classes} infeasible for {len(corpus.label_set)} labels"
            )
        labels = corpus.label_set[:n_classes]
        sub = corpus.restrict_labels(labels)
        by_label = sub.indices_by_label()
        for size in sorted(set(train_sizes)):
            per_class = size // n_classes
            if per_class < 1:
                raise CorpusError(f"train size {size} < 1 document per class")
            accs = []
            for repeat in range(repeats):
                train_idx: list[int] = []
                test_idx: list[int] = []
                for label_pos, label in enumerate(labels):
                    idxs = list(by_label[label])
                    rng = SplitMix64(derive_seed(seed, 3, n_classes, repeat, label_pos))
                    rng.shuffle(idxs)
                    test_n = max(1, len(idxs) // 5)
                    pool = idxs[test_n:]
                    if per_class > len(pool):
                        raise CorpusError(
                            f"train size {size} infeasible: class {label!r} has "
                            f"{len(pool)} documents after holding out {test_n}"
                        )
                    test_idx.extend(idxs[:test_n])
                    train_idx.extend(pool[:per_class])
                train = sub.subset(sorted(train_idx))
                test = sub.subset(sorted(test_idx))
                acc, _ = _evaluate_one(method, spec, train, test, labels)
                accs.append(acc)
            points.append((size, n_classes, float(np.mean(accs))))
    points.sort(key=lambda p: (p[1], p[0]))
    return LearningCurve(
        points=tuple(points), feature_config=method, classifier_spec=spec, seed=seed
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_report(report: EvaluationReport, format: str = "text_table") -> str:
    """Human table or machine CSV (header method,encoding,classifier,repeat,accuracy)."""
    cfg = report.feature_config
    enc = cfg.encoding.name if cfg.encoding else ""
    if format == "csv":
        lines = ["method,encoding,classifier,repeat,accuracy"]
        for i, acc in enumerate(report.per_repeat_accuracy):
            lines.append(
                f"{cfg.method},{enc},{report.classifier_spec.kind},{i},{acc!r}"
            )
        return "\n".join(lines) + "\n"
    if format != "text_table":
        raise ValueError(f"unknown report format {format!r}")
    lines = [
        f"features   : {cfg.describe()}",
        f"classifier : {report.classifier_spec.kind}",
        f"repeats    : {len(report.per_repeat_accuracy)}",
        f"accuracy   : {report.mean_accuracy:.6f} +/- {report.stddev_accuracy:.6f}",
        "",
        "confusion (rows = true, columns = predicted):",
    ]
    width = max(8, max(len(l) for l in report.labels) + 1)
    header = " " * width + "".join(f"{l:>{width}}" for l in report.labels)
    lines.append(header)
    for i, label in enumerate(report.labels):
        row = "".join(f"{int(c):>{width}}" for c in report.confusion[i])
        lines.append(f"{label:>{width}}" + row)
    return "\n".join(lines) + "\n"


def confusion_csv(report: EvaluationReport) -> str:
    """Confusion matrix with labeled axes plus per-class precision/recall."""
    lines = ["label," + ",".join(report.labels) + ",precision,recall"]
    conf = report.confusion
    col_sums = conf.sum(axis=0)
    row_sums = conf.sum(axis=1)
    for i, label in enumerate(report.labels):
        diag = conf[i, i]
        precision = float(diag / col_sums[i]) if col_sums[i] else 0.0
        recall = float(diag / row_sums[i]) if row_sums[i] else 0.0
        cells = ",".join(str(int(c)) for c in conf[i])
        lines.append(f"{label},{cells},{precision!r},{recall!r}")
    return "\n".join(lines) + "\n"
