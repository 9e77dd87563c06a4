"""Command-line entry point: codec, train, predict, evaluate, featurize, generate.

Exit codes: 0 success, 1 usage error, 2 data error (bad corpus/model/input),
3 internal error.  All randomness flows from explicit --seed flags; stdout
carries the documented machine-parsable output, diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path
from typing import Iterator

from . import classify, codec, evaluate, vectorize
from . import corpus as corpus_mod
from .corpus import CorpusError, Document

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# documents that predict transforms and scores at once
PREDICT_BATCH = 256

FEATURE_ALIASES = {
    "tfidf-byte": "tfidf_byte",
    "tfidf-char": "tfidf_char",
    "hist-byte": "hist_endian_byte",
    "hist-char": "hist_endian_char",
}

MODEL_ALIASES = {
    "mnb": "mnb",
    "cnb": "cnb",
    "gnb": "gnb",
    "knn": "knn",
    "ptn": "perceptron",
    "lr": "softmax_lr",
    "svm": "linear_svm",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); the policy wants 1
        raise UsageError(message)


def _parse_feature(token: str, default_encoding, ngram3_cap, normalize):
    name, _, inline_enc = token.partition(":")
    if name not in FEATURE_ALIASES:
        raise UsageError(
            f"unknown feature method {name!r}; expected one of {sorted(FEATURE_ALIASES)}"
        )
    method = FEATURE_ALIASES[name]
    encoding = None
    if method.endswith("_char"):
        enc_name = inline_enc or default_encoding
        if not enc_name:
            raise UsageError(f"feature {name!r} requires --encoding (or '{name}:<encoding>')")
        try:
            encoding = codec.get_encoding(enc_name)
        except KeyError as exc:
            raise UsageError(str(exc)) from exc
    elif inline_enc:
        raise UsageError(f"feature {name!r} does not take an encoding")
    try:
        return evaluate.FeatureConfig(method, encoding, ngram3_cap, normalize)
    except ValueError as exc:  # --ngram3-cap out of range
        raise UsageError(str(exc)) from exc


def _flag_hyperparameters(args) -> dict:
    """The hyperparameter flags given, in flag order, under classify's names."""
    names = {n for hp in classify.DEFAULT_HYPERPARAMETERS.values() for n in hp}
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def _classifier_spec(args, model_alias: str, hp: dict):
    try:
        return classify.ClassifierSpec(
            kind=MODEL_ALIASES[model_alias], hyperparameters=hp, seed=args.seed
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _ingest(args, allow_empty: bool = False):
    fmt = "directory" if args.format == "dir" else args.format
    return corpus_mod.ingest(args.corpus, fmt, allow_empty=allow_empty)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_codec(args) -> int:
    enc = codec.get_encoding(args.base)
    if args.action == "encode":
        if args.hex is not None:
            try:
                payload = bytes.fromhex(args.hex)
            except ValueError as exc:
                raise UsageError(f"--hex: {exc}") from exc
        else:
            payload = sys.stdin.buffer.read()
        print(codec.encode(enc, payload))
        return EXIT_OK
    text = args.text if args.text is not None else sys.stdin.read()
    data = codec.decode(enc, text.strip())
    if args.hex_out:
        print(data.hex())
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return EXIT_OK


def cmd_train(args) -> int:
    config = _parse_feature(
        args.features, args.encoding, args.ngram3_cap, not args.no_normalize
    )
    spec = _classifier_spec(args, args.model, _flag_hyperparameters(args))
    corp = _ingest(args)
    model = evaluate.fit_model(config, spec, corp)
    classify.save_model(model, args.out)
    print(f"dimension {model.schema.dimension}")
    print(f"documents {len(corp)}")
    by_label = corp.indices_by_label()
    for label in corp.label_set:
        print(f"class {label} {len(by_label[label])}")
    return EXIT_OK


def _input_docs(args) -> Iterator[Document]:
    """The documents to label, read as they are consumed (jsonl) or whole (raw)."""
    if args.input_format == "raw":
        if args.input == "-":
            data, doc_id = sys.stdin.buffer.read(), "-"
        else:
            data, doc_id = Path(args.input).read_bytes(), Path(args.input).name
        if not data:
            raise CorpusError("raw input is empty")
        return iter([Document(data, None, doc_id)])
    if args.input == "-":
        return corpus_mod.iter_lines(sys.stdin, "<stdin>")
    return corpus_mod.iter_jsonl(args.input)


def cmd_predict(args) -> int:
    model = classify.load_model(args.model)
    docs = _input_docs(args)
    # fixed batches keep memory flat however long the input is
    while batch := list(itertools.islice(docs, PREDICT_BATCH)):
        labels, scores = classify.predict_corpus(model, batch)
        for doc, label, row in zip(batch, labels, scores):
            print(f"{doc.id}\t{label}\t{float(row.max())!r}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    methods = [
        _parse_feature(tok.strip(), args.encoding, args.ngram3_cap, not args.no_normalize)
        for tok in args.features.split(",")
        if tok.strip()
    ]
    model_names = [tok.strip() for tok in args.models.split(",") if tok.strip()]
    for name in model_names:
        if name not in MODEL_ALIASES:
            raise UsageError(f"unknown model {name!r}; expected one of {sorted(MODEL_ALIASES)}")
    if not methods or not model_names:
        raise UsageError("need at least one feature method and one model")
    # each flag goes to the listed kinds that take it; a flag none takes is an error
    hp = _flag_hyperparameters(args)
    takes = {name: classify.DEFAULT_HYPERPARAMETERS[MODEL_ALIASES[name]] for name in model_names}
    for key in hp:
        if not any(key in names for names in takes.values()):
            raise UsageError(f"none of the models {model_names} has hyperparameter {key!r}")
    specs = [
        _classifier_spec(args, name, {k: v for k, v in hp.items() if k in takes[name]})
        for name in model_names
    ]
    try:
        split_spec = corpus_mod.SplitSpec(
            train_per_class=args.train_per_class,
            test_per_class=args.test_per_class,
            seed=args.seed,
            repeats=args.repeats,
        )
    except CorpusError as exc:  # --repeats or a per-class count below 1
        raise UsageError(str(exc)) from exc
    corp = _ingest(args)
    reports = evaluate.run_comparison(corp, methods, specs, split_spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for report in reports:
        slug = report.feature_config.describe().replace(":", "-")
        slug = f"{slug}_{report.classifier_spec.kind}"
        (out_dir / f"report_{slug}.csv").write_text(
            evaluate.render_report(report, "csv"), encoding="utf-8"
        )
        (out_dir / f"confusion_{slug}.csv").write_text(
            evaluate.confusion_csv(report), encoding="utf-8"
        )
    ranked = sorted(
        reports,
        key=lambda r: (-r.mean_accuracy, r.feature_config.describe(), r.classifier_spec.kind),
    )
    print(f"{'features':<24}{'classifier':<12}{'mean':<10}stddev")
    for report in ranked:
        print(
            f"{report.feature_config.describe():<24}"
            f"{report.classifier_spec.kind:<12}"
            f"{report.mean_accuracy:<10.6f}"
            f"{report.stddev_accuracy:.6f}"
        )
    return EXIT_OK


def cmd_featurize(args) -> int:
    config = _parse_feature(
        args.features, args.encoding, args.ngram3_cap, not args.no_normalize
    )
    corp = _ingest(args, allow_empty=True)
    try:
        _, rows = config.fit_transform(corp)
    except ValueError as exc:  # TF-IDF cannot be fitted on an empty corpus
        raise CorpusError(str(exc)) from exc
    print(f"wrote {vectorize.export_features(rows, corp, args.out)} rows")
    return EXIT_OK


def cmd_generate(args) -> int:
    try:  # --classes, --docs-per-class or --len out of range
        specs = corpus_mod.default_isa_specs(args.classes)
        corp = corpus_mod.generate_synthetic(specs, args.docs_per_class, args.len, args.seed)
    except CorpusError as exc:
        raise UsageError(str(exc)) from exc
    count = corpus_mod.write_jsonl(corp, args.out)
    print(f"wrote {count} documents")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="isagram", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codec", help="encode/decode payloads")
    p.add_argument("action", choices=["encode", "decode"])
    p.add_argument("--base", required=True, choices=["16", "32", "64", "85"])
    p.add_argument("--hex", help="payload as hex (encode); default reads stdin")
    p.add_argument("--text", help="encoded text (decode); default reads stdin")
    p.add_argument("--hex-out", action="store_true", help="decode: print hex instead of raw bytes")
    p.set_defaults(func=cmd_codec)

    def corpus_flags(p):
        p.add_argument("--corpus", required=True)
        p.add_argument("--format", choices=["jsonl", "dir"], default="jsonl")

    def feature_flags(p):
        p.add_argument("--encoding", choices=sorted(codec.ENCODINGS), default=None)
        p.add_argument("--ngram3-cap", type=int, default=vectorize.NGRAM3_CAP)
        p.add_argument("--no-normalize", action="store_true",
                       help="skip unit-norm scaling of TF-IDF vectors")

    def model_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--alpha", type=float, help="NB smoothing")
        p.add_argument("--k", type=int, help="KNN neighbor count")
        p.add_argument("--epochs", type=int)
        p.add_argument("--learning-rate", type=float)
        p.add_argument("--batch-size", type=int)
        p.add_argument("--l2", type=float)
        p.add_argument("--svm-lambda", type=float, dest="lam", metavar="SVM_LAMBDA")
        p.add_argument("--var-floor", type=float)

    p = sub.add_parser("train", help="fit a classifier and save the model")
    corpus_flags(p)
    p.add_argument("--features", required=True, choices=sorted(FEATURE_ALIASES))
    feature_flags(p)
    p.add_argument("--model", required=True, choices=sorted(MODEL_ALIASES))
    model_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label documents with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="file path or - for stdin")
    p.add_argument("--format", choices=["jsonl", "raw"], default="jsonl",
                   dest="input_format")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="repeated-split feature/model comparison")
    corpus_flags(p)
    p.add_argument("--features", default="tfidf-byte,hist-byte",
                   help="comma list; char methods may inline an encoding like tfidf-char:base16")
    p.add_argument("--models", default="cnb", help="comma list of model names")
    p.add_argument("--repeats", type=int, default=50)
    p.add_argument("--train-per-class", type=int, default=238)
    p.add_argument("--test-per-class", type=int, default=80)
    feature_flags(p)
    model_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("featurize", help="export feature vectors to CSV")
    corpus_flags(p)
    p.add_argument("--features", required=True,
                   help="one method; char methods may inline an encoding")
    feature_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("generate", help="write a synthetic pseudo-ISA corpus")
    p.add_argument("--classes", type=int, default=12)
    p.add_argument("--docs-per-class", type=int, required=True)
    p.add_argument("--len", type=int, required=True, help="target document length in bytes")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # Consumer hung up (e.g. `isagram predict ... | head`); not our error.
        # Point stdout at devnull so interpreter shutdown does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except (CorpusError, codec.DecodeError, classify.ModelFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit:
        raise
    except Exception as exc:  # safety net
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
