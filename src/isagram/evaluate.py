"""Repeated-split evaluation and feature-method comparison.

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
