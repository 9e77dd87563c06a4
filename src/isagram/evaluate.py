"""Repeated-split evaluation and feature-method comparison.

Every repeat draws one stratified train/test split.  Each feature config is
fitted on that repeat's train documents only, so IDF weights and 3-gram
selection never see test data, and every classifier spec fits and scores on
the rows it gives, one model at a time.  Reports aggregate per-repeat
accuracies and a confusion matrix summed over repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import classify, vectorize
from .corpus import Corpus, SplitSpec, split
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


def run_comparison(
    corpus: Corpus,
    methods: Sequence[FeatureConfig],
    specs: Sequence[classify.ClassifierSpec],
    split_spec: SplitSpec,
) -> list[EvaluationReport]:
    """Evaluate every (feature config, classifier spec) pair over all repeats, config-major."""
    labels = corpus.label_set
    index = {label: i for i, label in enumerate(labels)}
    pairs = [(config, cspec) for config in methods for cspec in specs]
    accs: list[list[float]] = [[] for _ in pairs]
    confusion = [np.zeros((len(labels), len(labels)), dtype=np.int64) for _ in pairs]
    for repeat in range(split_spec.repeats):
        train, test = split(corpus, split_spec, repeat)
        train_labels, truth = [d.label for d in train], [index[d.label] for d in test]
        for c, config in enumerate(methods):
            schema, rows = config.fit_transform(train)
            test_rows = vectorize.transform_rows(schema, test.documents)
            for p, cspec in enumerate(specs, start=c * len(specs)):  # p indexes pairs
                # the model lives for this call only, so one model is held at a time
                winners, _ = classify.predict_matrix(
                    classify.fit_vectors(cspec, rows, train_labels, schema=schema), test_rows)
                predicted = [index[label] for label in winners]
                accs[p].append(accuracy(list(zip(truth, predicted))))
                np.add.at(confusion[p], (truth, predicted), 1)
            del rows, test_rows  # freed before the next fit
    return [EvaluationReport(tuple(acc), float(np.mean(acc)), float(np.std(acc)), hits, labels,
                             config, cspec, split_spec)
            for (config, cspec), acc, hits in zip(pairs, accs, confusion)]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_report(report: EvaluationReport, format: str = "csv") -> str:
    """Per-repeat CSV (header method,encoding,classifier,repeat,accuracy)."""
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")
    cfg = report.feature_config
    enc = cfg.encoding.name if cfg.encoding else ""
    lines = ["method,encoding,classifier,repeat,accuracy"]
    for i, acc in enumerate(report.per_repeat_accuracy):
        lines.append(f"{cfg.method},{enc},{report.classifier_spec.kind},{i},{acc!r}")
    return "\n".join(lines) + "\n"


def confusion_csv(report: EvaluationReport) -> str:
    """Confusion matrix with labeled axes plus per-class precision/recall."""
    lines = ["label," + ",".join(map(vectorize.csv_field, report.labels)) + ",precision,recall"]
    conf = report.confusion
    col_sums = conf.sum(axis=0)
    row_sums = conf.sum(axis=1)
    for i, label in enumerate(report.labels):
        diag = conf[i, i]
        precision = float(diag / col_sums[i]) if col_sums[i] else 0.0
        recall = float(diag / row_sums[i]) if row_sums[i] else 0.0
        cells = ",".join(str(int(c)) for c in conf[i])
        lines.append(f"{vectorize.csv_field(label)},{cells},{precision!r},{recall!r}")
    return "\n".join(lines) + "\n"
