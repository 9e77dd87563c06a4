import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isagram
import isagram.cli


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == isagram.__version__


def test_public_names_resolve_and_deleted_ones_are_gone():
    for name in isagram.__all__:
        assert getattr(isagram, name) is not None, name
    for name in ("learning_curve", "simplified_endianness", "count_subsequence", "predict"):
        assert name not in isagram.__all__ and not hasattr(isagram, name)
    for name in ("GramBatch", "encode_batch"):
        assert not hasattr(isagram.vectorize, name)
    # classifiers take CSR rows only, and predict_corpus alone scores documents
    for name in ("predict", "predict_vector"):
        assert not hasattr(isagram.classify, name)
    assert not hasattr(isagram.sparse, "as_rows")
    # feature rows are laid out from row-sorted blocks, with no general sort
    assert not hasattr(isagram.sparse.CsrRows, "from_triples")
    assert not hasattr(isagram.vectorize, "_hist_triples")
    # run_comparison is one repeat -> config -> kind loop, with no per-pair helper
    assert not hasattr(isagram.evaluate, "_evaluate_one")
    # each classifier kind is one row of classify._KINDS
    for name in ("_FITTERS", "_SCORERS", "_PARAMETER_AXES", "_INT_PARAMS"):
        assert not hasattr(isagram.classify, name)
    # the CLI parses feature and model tokens once, and the linear kinds share one scorer
    for name in ("_parse_feature", "_flag_hyperparameters", "_classifier_spec"):
        assert not hasattr(isagram.cli, name)
    for name in ("_score_mnb", "_score_cnb", "_score_perceptron", "_score_linear"):
        assert not hasattr(isagram.classify, name)
    # load_model reads format 2.1 and later minors alone, through one array decoder
    for name in ("_finite", "_decode_masked"):
        assert not hasattr(isagram.classify, name)
    # a Document checks its own payload, label and id; encode is the encoder itself
    for name in ("_record_problem", "_report", "_ingest_directory"):
        assert not hasattr(isagram.corpus, name)
    assert not hasattr(isagram.codec, "_encode")
    # only the TF-IDF oracle strips padding: the batch encoder never writes it
    assert not hasattr(isagram.codec, "strip_padding")
    # the batch encoder reads whole groups and masks off padding digits, with no index array
    assert not hasattr(isagram.codec, "_runs")
    # Base85 text decodes through base64.a85decode and the canonical re-encode check
    assert not hasattr(isagram.codec, "_b85_decode")
    # a Corpus is built one way, and split builds its parts that way too
    for name in ("subset", "_hold"):
        assert not hasattr(isagram.corpus.Corpus, name)
    # packed count and order keys are unsigned, so no key's top bit reads as a sign
    key_types = {isagram.vectorize._key_dtype(bits).__name__ for bits in range(1, 65)}
    assert key_types == {"uint32", "uint64"}
    # the alphabet and its size come from the schema's encoding alone
    vocab = isagram.vectorize.GramVocabulary
    fields = [f.name for f in dataclasses.fields(vocab)]
    assert fields == ["codes3", "idf1", "idf2", "idf3", "fit_corpus_size"]
    assert not hasattr(vocab, "dimension") and not hasattr(vocab, "gram3_terms")


def modules_after_fresh_import():
    """The names in sys.modules after `import isagram` in a new interpreter."""
    probe = "import sys, isagram\nprint('\\n'.join(sorted(sys.modules)))"
    src = Path(isagram.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=src,
    ).stdout
    return set(out.split())


def test_import_loads_neither_scipy_nor_numba():
    # importing scipy costs more than a whole `isagram predict` spends on features
    tops = {m.split(".")[0] for m in modules_after_fresh_import()}
    assert not tops & {"scipy", "numba"}


def test_import_loads_no_ngram_module():
    assert "isagram.ngram" not in modules_after_fresh_import()


def test_kinds_and_their_defaults_keep_their_values_and_order():
    assert isagram.classify.KINDS == (
        "mnb", "cnb", "gnb", "knn", "perceptron", "softmax_lr", "linear_svm")
    defaults = {
        "mnb": {"alpha": 1.0},
        "cnb": {"alpha": 1.0},
        "gnb": {"var_floor": 1e-9},
        "knn": {"k": 3},
        "perceptron": {"epochs": 20},
        "softmax_lr": {"learning_rate": 0.1, "epochs": 50, "batch_size": 32, "l2": 1e-4},
        "linear_svm": {"lam": 1e-4, "epochs": 50},
    }
    got = isagram.classify.DEFAULT_HYPERPARAMETERS
    assert list(got.items()) == list(defaults.items())
    for kind, hp in defaults.items():  # types and order of each kind's names too
        assert [(n, type(v)) for n, v in got[kind].items()] == [(n, type(v)) for n, v in hp.items()]
