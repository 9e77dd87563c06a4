"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Each test prints `ACCEPTANCE <n>: PASS|FAIL - <detail> (<elapsed>s)` on the
real stdout before asserting, so the verdict survives pytest's capture. The
final criterion exercises an optional external dataset and reports SKIP when
that dataset is absent.
"""

import math
import os
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracle_tfidf as oracle
from isagram import classify, cli, codec, corpus, evaluate, vectorize
from isagram.classify import ClassifierSpec
from isagram.corpus import Corpus, Document, SplitSpec, SyntheticIsaSpec
from isagram.evaluate import FeatureConfig
from isagram.sparse import CsrRows


def report(capsys, n, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - t0
    with capsys.disabled():  # keep the verdict visible under pytest capture
        print(f"ACCEPTANCE {n}: {status} - {detail} ({elapsed:.1f}s)", flush=True)
    assert ok, f"criterion {n}: {detail}"


GOLDEN_PAYLOAD = bytes.fromhex("d743d444d644d845")
GOLDENS = {
    "base16": "D743D444D644D845",
    "base32": "25B5IRGWITMEK===",
    "base64": "10PURNZE2EU=",
    "base85": "f0e%UejS.Z",
}


def test_criterion_1_codec_goldens_and_roundtrip(capsys):
    t0 = time.perf_counter()
    problems = []
    for name, expected in GOLDENS.items():
        enc = codec.get_encoding(name)
        got = codec.encode(enc, GOLDEN_PAYLOAD)
        if got != expected:
            problems.append(f"{name} golden {got!r} != {expected!r}")
    rng = random.Random(20260814)
    for name in GOLDENS:
        enc = codec.get_encoding(name)
        for _ in range(10_000):
            payload = rng.randbytes(rng.randint(0, 256))
            if codec.decode(enc, codec.encode(enc, payload)) != payload:
                problems.append(f"{name} round-trip broke on {payload.hex()}")
                break
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 5s budget")
    detail = "; ".join(problems) if problems else (
        "4 golden vectors byte-exact; 10,000 seeded round-trips per codec"
    )
    report(capsys, 1, not problems, detail, t0)


def test_criterion_2_dimension_table(capsys):
    t0 = time.perf_counter()
    rng = random.Random(7)
    rich = Corpus(
        [Document(rng.randbytes(200), None, str(i)) for i in range(200)]
    )
    got = {"byte": FeatureConfig("tfidf_byte").fit_transform(rich)[0].dimension}
    for name in ("base16", "base32", "base64", "base85"):
        enc = codec.get_encoding(name)
        got[name] = FeatureConfig("tfidf_char", enc).fit_transform(rich)[0].dimension
    got["hist_byte"] = vectorize.FeatureSchema("hist_endian_byte").dimension
    for name in ("base16", "base32", "base64", "base85"):
        got[f"hist_{name}"] = vectorize.FeatureSchema(
            "hist_endian_char", codec.get_encoding(name)
        ).dimension
    want = {
        "byte": 70792, "base16": 4368, "base32": 6056, "base64": 9160,
        "base85": 12310, "hist_byte": 260, "hist_base16": 20,
        "hist_base32": 36, "hist_base64": 68, "hist_base85": 89,
    }
    bad = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    detail = (
        f"all 10 dimensions exact: {sorted(want.values())}"
        if not bad
        else f"mismatches {bad}"
    )
    if elapsed >= 60.0:
        detail += f"; runtime {elapsed:.1f}s exceeds 60s budget"
    report(capsys, 2, ok, detail, t0)


def _sparse_oracle_check(docs_corpus, mode, encoding, tolerance=1e-9):
    """Compare fit+transform against the brute-force oracle, sparsely."""
    schema = FeatureConfig(f"tfidf_{mode}", encoding).fit_transform(docs_corpus)[0]
    alphabet = oracle.alphabet_of(mode, encoding)
    base = len(alphabet)
    seqs = [oracle.seq_of(d.payload, mode, encoding) for d in docs_corpus]
    vocab, idf = oracle.oracle_fit(seqs, alphabet)
    grams3 = vocab[base + base * base :]
    rank = {s: i for i, s in enumerate(alphabet)}

    def code(g):
        return (rank[g[0]] * base + rank[g[1]]) * base + rank[g[2]]

    if schema.vocab.codes3.tolist() != [code(g) for g in grams3]:
        return "3-gram vocabulary order diverges from oracle"
    col3 = {g: i for i, g in enumerate(grams3)}
    # idf agreement on the full stored arrays
    for n, arr in ((1, schema.vocab.idf1), (2, schema.vocab.idf2)):
        for g, v in idf.items():
            if len(g) != n:
                continue
            c = rank[g[0]] if n == 1 else rank[g[0]] * base + rank[g[1]]
            if abs(arr[c] - v) > tolerance:
                return f"idf({g}) {arr[c]} != {v}"
    for g, pos in col3.items():
        if abs(schema.vocab.idf3[pos] - idf[g]) > tolerance:
            return f"idf3({g}) diverges"
    rows = vectorize.transform_rows(schema, docs_corpus.documents).toarray()
    for seq, row in zip(seqs, rows):
        counts = {}
        for n in (1, 2, 3):
            for g in oracle.grams_in(seq, n):
                counts[g] = counts.get(g, 0) + 1
        vals = {}
        for g, c in counts.items():
            total = len(seq) - len(g) + 1
            if len(g) == 1:
                col = rank[g[0]]
            elif len(g) == 2:
                col = base + rank[g[0]] * base + rank[g[1]]
            elif g in col3:
                col = base + base * base + col3[g]
            else:
                continue
            vals[col] = (c / total) * idf[g]
        norm = math.sqrt(sum(v * v for v in vals.values()))
        for col, v in vals.items():
            if abs(row[col] - v / norm) > tolerance:
                return f"coordinate {col}: {row[col]} != {v / norm}"
        rest = row.copy()
        rest[list(vals)] = 0.0
        if rest.any():
            return "unexpected nonzero coordinates outside the document's grams"
    return None


def test_criterion_3_tfidf_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    problem = None
    corpora = 0
    for seed in range(100):
        rng = random.Random(1000 + seed)
        docs = [
            Document(rng.randbytes(rng.randint(1, 32)), None, str(i))
            for i in range(rng.randint(2, 10))
        ]
        enc = codec.BASE16 if seed % 10 == 0 else None
        mode = "char" if enc else "byte"
        problem = _sparse_oracle_check(Corpus(docs), mode, enc)
        if problem:
            problem = f"seed {seed} ({mode}): {problem}"
            break
        corpora += 1
    elapsed = time.perf_counter() - t0
    ok = problem is None and elapsed < 30.0
    detail = problem or f"{corpora} seeded corpora match the brute-force oracle at 1e-9"
    if elapsed >= 30.0:
        detail += f"; runtime {elapsed:.1f}s exceeds 30s budget"
    report(capsys, 3, ok, detail, t0)


def test_criterion_4_noise_attenuation(capsys):
    t0 = time.perf_counter()
    specs = corpus.default_isa_specs(12)
    clean = corpus.generate_synthetic(specs, docs_per_class=60, doc_len_bytes=66, seed=4)
    padded = Corpus(
        [
            Document(d.payload + b"\x00" * round(0.3 * len(d.payload) / 0.7), d.label, d.id)
            for d in clean
        ]
    )
    reports = evaluate.run_comparison(
        padded,
        [FeatureConfig("tfidf_byte"), FeatureConfig("hist_endian_byte")],
        [ClassifierSpec("cnb")],
        SplitSpec(train_per_class=40, test_per_class=20, seed=4, repeats=10),
    )
    tfidf_mean = reports[0].mean_accuracy
    hist_mean = reports[1].mean_accuracy
    margin = tfidf_mean - hist_mean
    ok = margin >= 0.005
    detail = (
        f"tfidf_byte={tfidf_mean:.4f} hist_endian_byte={hist_mean:.4f} "
        f"margin={margin:.4f} (target 0.03 {'met' if margin >= 0.03 else 'NOT met'}, "
        f"fail threshold 0.005)"
    )
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        ok = False
        detail += f"; runtime {elapsed:.1f}s exceeds 10min budget"
    report(capsys, 4, ok, detail, t0)


def test_criterion_5_endianness_signal(capsys):
    t0 = time.perf_counter()
    dist = {bytes([0x90 + i]): 1.0 / 8.0 for i in range(8)}
    pair = [
        SyntheticIsaSpec("little", 4, dist, "little", immediate_small_value_prob=0.5),
        SyntheticIsaSpec("big", 4, dist, "big", immediate_small_value_prob=0.5),
    ]
    c = corpus.generate_synthetic(pair, docs_per_class=60, doc_len_bytes=66, seed=5)
    spec = SplitSpec(train_per_class=40, test_per_class=20, seed=5, repeats=10)
    knn = ClassifierSpec("knn", {"k": 3})
    gram2_accs, hist_accs = [], []
    for repeat in range(spec.repeats):
        train, test = corpus.split(c, spec, repeat)
        schema = FeatureConfig("tfidf_byte").fit_transform(train)[0]
        lo, hi = 256, 256 + 65536  # the 2-gram block
        Xtr, Xte = (
            CsrRows.from_dense(vectorize.transform_rows(schema, part.documents).toarray()[:, lo:hi])
            for part in (train, test)
        )
        model = classify.fit_vectors(knn, Xtr, [d.label for d in train])
        got, _ = classify.predict_matrix(model, Xte)
        gram2_accs.append(evaluate.accuracy(list(zip([d.label for d in test], got))))

        hist = vectorize.FeatureSchema("hist_endian_byte")
        Htr, Hte = (
            CsrRows.from_dense(vectorize.transform_rows(hist, part.documents).toarray()[:, :256])
            for part in (train, test)
        )
        model = classify.fit_vectors(knn, Htr, [d.label for d in train])
        got, _ = classify.predict_matrix(model, Hte)
        hist_accs.append(evaluate.accuracy(list(zip([d.label for d in test], got))))
    gram2 = float(np.mean(gram2_accs))
    hist = float(np.mean(hist_accs))
    ok = gram2 >= 0.95 and hist <= 0.60
    detail = f"2-gram tfidf knn={gram2:.4f} (>=0.95) vs histogram-only knn={hist:.4f} (<=0.60)"
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        ok = False
        detail += f"; runtime {elapsed:.1f}s exceeds 2min budget"
    report(capsys, 5, ok, detail, t0)


def test_criterion_6_classifier_sanity(capsys):
    t0 = time.perf_counter()
    problems = []

    rng = np.random.default_rng(6)
    centers = np.array([[2.0, 0.2, 0.2], [0.2, 2.0, 0.2], [0.2, 0.2, 2.0]])
    X = CsrRows.from_dense(np.vstack([c + rng.uniform(-0.1, 0.1, size=(60, 3)) for c in centers]))
    labels = [f"c{i}" for i in range(3) for _ in range(60)]
    for kind in classify.KINDS:
        model = classify.fit_vectors(ClassifierSpec(kind, seed=1), X, labels)
        got, _ = classify.predict_matrix(model, X)
        acc = float(np.mean([g == t for g, t in zip(got, labels)]))
        if acc < 0.99:
            problems.append(f"{kind} training accuracy {acc:.3f} < 0.99")

    # hand-derived closed forms on micro-corpora
    mnb = classify.fit_vectors(
        ClassifierSpec("mnb"), CsrRows.from_dense([[2.0, 0.0], [0.0, 2.0]]), ["A", "B"]
    )
    _, [scores] = classify.predict_matrix(mnb, CsrRows.from_dense([[1.0, 0.0]]))
    want = (math.log(0.5) + math.log(0.75), math.log(0.5) + math.log(0.25))
    if max(abs(scores[0] - want[0]), abs(scores[1] - want[1])) > 1e-9:
        problems.append("mnb posterior diverges from hand computation")
    cnb = classify.fit_vectors(
        ClassifierSpec("cnb"), CsrRows.from_dense([[2.0, 0.0], [0.0, 2.0]]), ["A", "B"]
    )
    flp = cnb.parameters["feature_log_prob"]
    if abs(flp[0, 0] - math.log(4.0)) > 1e-9 or abs(flp[0, 1] - math.log(4.0 / 3.0)) > 1e-9:
        problems.append("cnb complement weights diverge from hand computation")
    gnb = classify.fit_vectors(
        ClassifierSpec("gnb"),
        CsrRows.from_dense([[0.0, 0.0], [2.0, 1.0], [10.0, 0.0], [12.0, 1.0]]),
        ["A", "A", "B", "B"],
    )
    q = np.array([2.0, 0.0])
    _, [gs] = classify.predict_matrix(gnb, CsrRows.from_dense([q]))
    for c_idx in range(2):
        manual = math.log(0.5)
        for j in range(2):
            v = gnb.parameters["var"][c_idx, j]
            m = gnb.parameters["mean"][c_idx, j]
            manual += -0.5 * math.log(2.0 * math.pi * v) - (q[j] - m) ** 2 / (2.0 * v)
        if abs(gs[c_idx] - manual) > 1e-9:
            problems.append("gnb posterior diverges from hand computation")

    # persistence round-trips preserve predictions exactly
    specs3 = corpus.default_isa_specs(3)
    train = corpus.generate_synthetic(specs3, 10, 40, seed=61)
    held = corpus.generate_synthetic(specs3, 34, 40, seed=62)
    config = FeatureConfig("hist_endian_byte")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for kind in classify.KINDS:
            model = evaluate.fit_model(config, ClassifierSpec(kind, seed=2), train)
            path = Path(tmp) / f"{kind}.model"
            classify.save_model(model, path)
            loaded = classify.load_model(path)
            a_labels, a_scores = classify.predict_corpus(model, held)
            b_labels, b_scores = classify.predict_corpus(loaded, held)
            if a_labels != b_labels or not np.array_equal(a_scores, b_scores):
                problems.append(f"{kind} save/load changed predictions")

    detail = "; ".join(problems) if problems else (
        "7/7 kinds >=0.99 training accuracy; NB closed forms at 1e-9; "
        "7/7 save/load round-trips exact"
    )
    report(capsys, 6, not problems, detail, t0)


def _run_cli_evaluate(corpus_path, out_dir, cap=None, seed=7):
    argv = [
        "evaluate", "--corpus", str(corpus_path), "--repeats", "50",
        "--train-per-class", "238", "--test-per-class", "80",
        "--seed", str(seed), "--out-dir", str(out_dir),
    ]
    if cap is not None:
        argv += ["--ngram3-cap", str(cap)]
    rc = cli.main(argv)
    assert rc == 0
    names = ["report_tfidf-byte_cnb.csv", "report_hist-endian-byte_cnb.csv",
             "confusion_tfidf-byte_cnb.csv", "confusion_hist-endian-byte_cnb.csv"]
    return {n: (Path(out_dir) / n).read_text() for n in names}


def test_criterion_7_protocol_replication(tmp_path, capsys):
    t0 = time.perf_counter()
    problems = []
    corpus_path = tmp_path / "synth12.jsonl"
    rc = cli.main([
        "generate", "--classes", "12", "--docs-per-class", "318",
        "--len", "66", "--seed", "7", "--out", str(corpus_path),
    ])
    assert rc == 0

    first = _run_cli_evaluate(corpus_path, tmp_path / "run1")
    for name in ("report_tfidf-byte_cnb.csv", "report_hist-endian-byte_cnb.csv"):
        lines = first[name].strip().splitlines()
        if len(lines) != 51:
            problems.append(f"{name}: {len(lines) - 1} accuracy rows, wanted 50")
    for name in ("confusion_tfidf-byte_cnb.csv", "confusion_hist-endian-byte_cnb.csv"):
        rows = first[name].strip().splitlines()[1:]
        sums = [sum(int(x) for x in r.split(",")[1:13]) for r in rows]
        if sums != [50 * 80] * 12:
            problems.append(f"{name}: confusion row sums {set(sums)} != 4000")

    second = _run_cli_evaluate(corpus_path, tmp_path / "run2")
    if first != second:
        diff = [n for n in first if first[n] != second[n]]
        problems.append(f"second run differs: {diff}")
    full_elapsed = time.perf_counter() - t0
    if full_elapsed >= 1800.0:
        problems.append(f"full runs took {full_elapsed:.0f}s, budget 30min")

    t_reduced = time.perf_counter()
    reduced = _run_cli_evaluate(corpus_path, tmp_path / "reduced", cap=500)
    reduced_elapsed = time.perf_counter() - t_reduced
    if len(reduced["report_tfidf-byte_cnb.csv"].strip().splitlines()) != 51:
        problems.append("reduced-cap run lost accuracy rows")
    if reduced_elapsed >= 300.0:
        problems.append(f"reduced-cap run took {reduced_elapsed:.0f}s, budget 5min")

    capsys.readouterr()  # drop the CLI tables from the captured log
    tfidf_mean = float(np.mean(
        [float(l.split(",")[4]) for l in first["report_tfidf-byte_cnb.csv"].strip().splitlines()[1:]]
    ))
    detail = "; ".join(problems) if problems else (
        f"50 repeats x 2 configs, row sums 4000, bit-identical reruns, "
        f"tfidf mean={tfidf_mean:.4f}, reduced-cap {reduced_elapsed:.0f}s"
    )
    report(capsys, 7, not problems, detail, t0)


def test_criterion_8_external_dataset_ordering(capsys):
    t0 = time.perf_counter()
    root = os.environ.get("ISAGRAM_PRAETORIAN_DIR", "data/praetorian")
    if not Path(root).is_dir():
        with capsys.disabled():
            print(
                "ACCEPTANCE 8: SKIP - optional external-dataset criterion; no corpus"
                f" at {root!r} (set ISAGRAM_PRAETORIAN_DIR to run) (0.0s)",
                flush=True,
            )
        pytest.skip("external dataset not present; criterion documented as optional")
    c = corpus.ingest(root, "directory")
    split_spec = SplitSpec(train_per_class=238, test_per_class=80, seed=7, repeats=50)
    problems = []
    byte_cfg = FeatureConfig("tfidf_byte")
    hist_cfg = FeatureConfig("hist_endian_byte")
    char_cfg = FeatureConfig("tfidf_char", codec.BASE16)
    # one call: each repeat's split and features are shared by every kind
    kinds = classify.KINDS
    r = evaluate.run_comparison(
        c, [byte_cfg, hist_cfg, char_cfg], [ClassifierSpec(kind) for kind in kinds], split_spec)
    byte_r, hist_r, char_r = (r[i : i + len(kinds)] for i in range(0, len(r), len(kinds)))
    for kind, tfidf, hist in zip(kinds, byte_r, hist_r):
        if not tfidf.mean_accuracy > hist.mean_accuracy:
            problems.append(
                f"{kind}: tfidf {tfidf.mean_accuracy:.4f} <= hist {hist.mean_accuracy:.4f}"
            )
    r = [byte_r[kinds.index("cnb")], char_r[kinds.index("cnb")]]
    train0, _ = corpus.split(c, split_spec, 0)
    dim_byte = byte_cfg.fit_transform(train0)[0].dimension
    dim_char = char_cfg.fit_transform(train0)[0].dimension
    if dim_byte < 16 * dim_char:
        problems.append(f"feature reduction {dim_byte}/{dim_char} < 16x")
    if r[0].mean_accuracy - r[1].mean_accuracy > 0.02:
        problems.append(
            f"char accuracy {r[1].mean_accuracy:.4f} not within 0.02 of byte "
            f"{r[0].mean_accuracy:.4f}"
        )
    detail = "; ".join(problems) if problems else "paper ordering reproduced on external data"
    report(capsys, 8, not problems, detail, t0)


def test_paper_headline_claims_hold_on_short_generated_documents():
    # criterion 8's claims, which it checks only where its external corpus is
    # present: at 16 bytes a document the kinds score 0.16-1.00, not all 1.000
    c = corpus.generate_synthetic(corpus.default_isa_specs(12), 318, 16, 7)
    split_spec = SplitSpec(train_per_class=238, test_per_class=80, seed=7, repeats=2)
    byte_cfg, hist_cfg = FeatureConfig("tfidf_byte"), FeatureConfig("hist_endian_byte")
    char_cfg = FeatureConfig("tfidf_char", codec.BASE16)
    kinds = ("mnb", "cnb", "gnb", "knn")
    reports = evaluate.run_comparison(
        c, [byte_cfg, hist_cfg, char_cfg], [ClassifierSpec(kind) for kind in kinds], split_spec)
    acc = {(r.feature_config, r.classifier_spec.kind): r.mean_accuracy for r in reports}
    for kind in kinds:  # byte-level TF-IDF beats the histogram and endianness baseline
        assert acc[byte_cfg, kind] > acc[hist_cfg, kind], kind
    # base16 features are at least 16x fewer and keep cnb above 97 %
    train0, _ = corpus.split(c, split_spec, 0)
    dims = [cfg.fit_transform(train0)[0].dimension for cfg in (byte_cfg, char_cfg)]
    assert dims[0] >= 16 * dims[1]
    assert acc[char_cfg, "cnb"] >= 0.97
    assert acc[byte_cfg, "cnb"] - acc[char_cfg, "cnb"] <= 0.02
