"""Instruction-set identification for headerless object code.

Feature extraction (byte- and character-level n-gram TF-IDF, histogram +
endianness baselines), from-scratch classifiers, an evaluation harness, and
binary-to-text codecs, behind both a library API and the ``isagram`` CLI.
"""

from .codec import DecodeError, decode, encode, get_encoding
from .corpus import (
    Corpus,
    CorpusError,
    Document,
    SplitSpec,
    SyntheticIsaSpec,
    default_isa_specs,
    generate_synthetic,
    ingest,
    split,
    write_jsonl,
)
from .classify import ClassifierSpec, TrainedModel, load_model, save_model
from .evaluate import FeatureConfig, accuracy, fit_model, run_comparison
from .vectorize import FeatureSchema, transform_rows

__version__ = "1.1.0"

__all__ = [
    "ClassifierSpec",
    "Corpus",
    "CorpusError",
    "DecodeError",
    "Document",
    "FeatureConfig",
    "FeatureSchema",
    "SplitSpec",
    "SyntheticIsaSpec",
    "TrainedModel",
    "accuracy",
    "decode",
    "default_isa_specs",
    "encode",
    "fit_model",
    "generate_synthetic",
    "get_encoding",
    "ingest",
    "load_model",
    "run_comparison",
    "save_model",
    "split",
    "transform_rows",
    "write_jsonl",
]
