"""isagram benchmark: four workloads, end-to-end metrics and a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

    protocol-byte  run_comparison: tfidf_byte + hist_endian_byte x cnb, 238/80 split
    protocol-char  run_comparison: tfidf_char over base16/32/64/85 + hist_endian_char:base85
    classifiers    run_comparison: tfidf_byte x all seven classifier kinds, small split
    predict-cli    isagram train once, then raw and batch isagram predict processes

Every workload generates the criterion-7 corpus (12 classes x 318 docs x
66 bytes) from ``--seed``; the program only sees the generated files.  With
``--trace 0`` the run measures end-to-end metrics; with ``--trace 1`` it
wraps the package's public functions and reports per-layer metrics plus the
tracing overhead.  End-to-end times are gauged: each timed piece of work is
scaled by a fixed piece of benchmark code timed around it (``SpeedGauge``),
so a slow phase of the shared host cancels out; wall-clock figures are
printed beside them.  Human-readable lines come first; the last line of
stdout is the JSON result.  The exit status is 0 only when every operation
succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread.  After each BLAS call OpenBLAS's extra workers busy-wait for
# about 0.1 s; on a 2-vCPU guest they share a physical core with the measured
# thread and halve its speed (an interpreter loop run right after a
# tfidf_byte evaluation takes 120 ms with two threads and 60 ms with one),
# so timings would measure the spinning, not isagram.
BLAS_THREADS = "1"

CHILD_TIMEOUT_S = 120.0
SGD_KINDS = ("perceptron", "softmax_lr", "linear_svm")
ALL_KINDS = ("mnb", "cnb", "gnb", "knn", "perceptron", "softmax_lr", "linear_svm")
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Sizes:
    docs_per_class: int
    protocol_split: tuple[int, int]
    classifier_split: tuple[int, int]
    sgd_epochs: int
    heldout_per_class: int
    setup_probes: int
    traced_ingests: int


FULL = Sizes(318, (238, 80), (40, 8), 1, 4, 7, 3)
TINY = Sizes(24, (12, 4), (8, 4), 1, 1, 2, 1)


@dataclass(frozen=True)
class EvalWorkload:
    features: tuple[tuple[str, str | None], ...]
    kinds: tuple[str, ...]
    small_split: bool
    gauge: tuple[str, ...]  # SpeedGauge parts that resemble the workload's work


EVAL_WORKLOADS = {
    "protocol-byte": EvalWorkload(
        (("tfidf_byte", None), ("hist_endian_byte", None)), ("cnb",), False,
        ("interpreter", "memory")),
    "protocol-char": EvalWorkload(
        tuple(("tfidf_char", f"base{b}") for b in (16, 32, 64, 85))
        + (("hist_endian_char", "base85"),),
        ("cnb",), False, ("interpreter",)),
    "classifiers": EvalWorkload(
        (("tfidf_byte", None),), ALL_KINDS, True, ("interpreter", "memory")),
}
WORKLOADS = tuple(EVAL_WORKLOADS) + ("predict-cli",)
CLI_GAUGE = SETUP_GAUGE = ("interpreter",)


class Ledger:
    """Attempted and failed operations; a failure is reported, never hidden."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: {what}: {problem}", file=sys.stderr)

    def attempt(self, what: str, operation) -> None:
        """Run ``operation()``, which returns its problems; raising is one too."""
        try:
            problems = operation()
        except Exception:
            problems = [traceback.format_exc()]
        self.record(problems, what)


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float


class Context:
    """Everything one run shares: arguments, sizes, scratch directory, ledger."""

    def __init__(self, args, work: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.tiny = args.tiny
        self.sizes = TINY if args.tiny else FULL
        self.work = work
        self.ledger = Ledger()
        self.human: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env["TMPDIR"] = str(work)  # `predict --input -` spools stdin to a temp file
        self.env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

    def say(self, name: str, value, unit: str, note: str = "") -> None:
        self.human.append(f"metric {name} {value} {unit}" + (f"  ({note})" if note else ""))

    def expected_fingerprint(self) -> str | None:
        """The recorded output fingerprint, at the full sizes and the recorded seed."""
        recorded = json.loads((HERE / "fingerprints.json").read_text(encoding="utf-8"))
        if self.tiny or self.seed != recorded["seed"]:
            return None
        return recorded["sha256"][self.workload]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def run_child(ctx: Context, argv: list[str], stdin_path: Path | None = None) -> Child:
    """Run one process to completion; its own wall time and peak RSS."""
    out_path, err_path = ctx.work / "child.out", ctx.work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err, \
            open(stdin_path or os.devnull, "rb") as inp:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=inp, stdout=out, stderr=err,
                                env=ctx.env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_text(encoding="utf-8"),
                 err_path.read_text(encoding="utf-8"), wall, usage.ru_maxrss * 1024 / 1e6)


def run_for(seconds: float, min_ops: int, op) -> int:
    """Call ``op(i)`` until the next call would overrun ``seconds``."""
    start = time.perf_counter()
    done, last = 0, 0.0
    while done < min_ops or time.perf_counter() - start + last <= seconds:
        before = time.perf_counter()
        op(done)
        last = time.perf_counter() - before
        done += 1
    return done


def median(values) -> float:
    """Median, or NaN when every operation of that kind failed."""
    return statistics.median(values) if values else math.nan


class SpeedGauge:
    """Fixed benchmark-side work, timed before every timed piece of isagram work.

    The benchmark runs on a few cores of a shared host whose speed changes
    under it, for seconds to minutes at a time, by 20-40 %; no run length
    averages that away.  Each piece of work's wall time is scaled by
    ``nominal / gauge``, where ``gauge`` is the mean time this fixed work
    took just before and just after it: the result is the piece's time at the
    gauge's nominal speed, and a slow or fast phase of the host cancels out.
    The gauge is benchmark code, so a change to isagram cannot move it.
    ``interpreter`` mixes integer arithmetic and dict updates; ``memory``
    streams a 16 MB array through numpy.  A workload uses the parts that
    resemble its own work.
    """

    NOMINAL_S = {"interpreter": 0.05, "memory": 0.025}

    def __init__(self, parts: tuple[str, ...]):
        self.parts = parts
        self.nominal = sum(self.NOMINAL_S[p] for p in parts)
        self.samples: list[float] = []

    def tick(self) -> int:
        """Time the fixed work once; the sample's index."""
        start = time.perf_counter()
        if "interpreter" in self.parts:
            total, counts = 0, {}
            for i in range(525_000):
                total += i * i
            for i in range(88_000):
                counts[i & 1023] = counts.get(i & 1023, 0) + 1
        if "memory" in self.parts:
            import numpy as np
            array = np.linspace(0.0, 1.0, 2_000_000)  # freed again: no RSS held between ticks
            for _ in range(7):
                float((array * 1.5 + 2.0).sum())
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def scale(self, tick: int, seconds: float) -> float:
        """``seconds``, measured right after sample ``tick``, at nominal speed.

        Needs the next sample too: tick once more after the last operation.
        """
        return seconds * self.nominal / statistics.fmean(self.samples[tick : tick + 2])


def fingerprint(parts: dict[str, str]) -> str:
    digest = hashlib.sha256()
    for name in sorted(parts):
        digest.update(name.encode() + b"\0" + parts[name].encode() + b"\0")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan, math.nan
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def generate_corpus(seed: int, docs_per_class: int):
    from isagram import corpus
    return corpus.generate_synthetic(corpus.default_isa_specs(12), docs_per_class, 66, seed)


def measure_setup(ctx: Context, corpus_path: Path, documents: int) -> tuple[float, float]:
    """(wall, gauged) median over fresh interpreters of import isagram + corpus.ingest."""
    gauge = SpeedGauge(SETUP_GAUGE)
    timed: list[tuple[int, float]] = []

    def probe():
        tick = gauge.tick()
        child = run_child(ctx, [sys.executable, str(HERE / "setup_probe.py"), str(corpus_path)])
        if child.code != 0:
            return [f"exit {child.code}: {child.stderr.strip()}"]
        result = json.loads(child.stdout.strip().splitlines()[-1])
        timed.append((tick, result["setup_s"]))
        if result["documents"] != documents:
            return [f"ingested {result['documents']} of {documents} documents"]
        return []

    for _ in range(ctx.sizes.setup_probes):
        ctx.ledger.attempt("setup", probe)
    gauge.tick()
    return (median([seconds for _, seconds in timed]),
            median([gauge.scale(tick, seconds) for tick, seconds in timed]))


def say_setup(ctx: Context, wall: float, gauged: float) -> None:
    ctx.say("setup_s", wall, "s",
            f"wall clock, median of {ctx.sizes.setup_probes} fresh imports + ingest")
    ctx.say("setup_s.gauged", gauged, "s", "at the speed gauge's nominal speed")


def traced_ingests(ctx: Context, tracer, corpus_path: Path) -> int:
    from isagram import corpus
    tracer.phase("setup")
    for _ in range(ctx.sizes.traced_ingests):
        corpus.ingest(corpus_path, "jsonl")
    return ctx.sizes.traced_ingests


def write_trace(ctx: Context, tracer) -> Path:
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{ctx.workload}-seed{ctx.seed}.jsonl"
    tracer.dump(path)
    return path


# ---------------------------------------------------------------------------
# evaluation workloads
# ---------------------------------------------------------------------------

class EvalRunner:
    """One ``run_comparison`` call of fixed size per operation."""

    def __init__(self, ctx: Context, corpus_obj):
        from isagram import classify, codec, corpus, evaluate

        self.ctx = ctx
        self.corpus = corpus_obj
        wl = EVAL_WORKLOADS[ctx.workload]
        train, test = ctx.sizes.classifier_split if wl.small_split else ctx.sizes.protocol_split
        self.repeats = 1
        self.test_per_class = test
        self.split = corpus.SplitSpec(train, test, ctx.seed, self.repeats)
        self.methods = [
            evaluate.FeatureConfig(method, codec.get_encoding(enc) if enc else None)
            for method, enc in wl.features
        ]
        self.specs = [
            classify.ClassifierSpec(
                kind, {"epochs": ctx.sizes.sgd_epochs} if kind in SGD_KINDS else {}, ctx.seed)
            for kind in wl.kinds
        ]
        self.config_repeats = len(self.methods) * len(self.specs) * self.repeats
        self.expected = ctx.expected_fingerprint()
        self.first_fingerprint: str | None = None
        self.gauge = SpeedGauge(wl.gauge)
        self.compare_s: list[float] = []  # wall time of run_comparison alone
        self.op_s: list[float] = []  # run_comparison plus writing the CSVs
        # per call: (gauge sample taken before it, seconds) of each timed part
        self.parts: list[list[tuple[int, float]]] = []

    def op(self, index: int) -> None:
        self.ctx.ledger.attempt(f"run_comparison call {index}", lambda: self._op(index))

    def warm_up(self) -> None:
        """One checked but untimed call, which pays the first-touch page faults
        of the large feature matrices and grows the allocator's arenas."""
        self.ctx.ledger.attempt("warm-up run_comparison call", lambda: self._op(-1))
        del self.compare_s[:], self.op_s[:], self.parts[:]

    def _op(self, index: int) -> list[str]:
        from isagram import corpus, evaluate

        fresh = corpus.Corpus(self.corpus.documents)  # no state survives between calls
        out_dir = self.ctx.work / f"eval{index}"
        out_dir.mkdir()
        # run_comparison loops over configs x specs; calling it per pair gives
        # the same reports and lets the gauge tick every second or so, close
        # enough to follow the host's changes of speed.
        reports, parts = [], []
        for method in self.methods:
            for spec in self.specs:
                tick = self.gauge.tick()
                start = time.perf_counter()
                reports += evaluate.run_comparison(fresh, [method], [spec], self.split)
                parts.append((tick, time.perf_counter() - start))
        start = time.perf_counter()
        files = {}
        for report in reports:
            slug = report.feature_config.describe().replace(":", "-")
            slug = f"{slug}_{report.classifier_spec.kind}"
            files[f"report_{slug}.csv"] = evaluate.render_report(report, "csv")
            files[f"confusion_{slug}.csv"] = evaluate.confusion_csv(report)
            for name in (f"report_{slug}.csv", f"confusion_{slug}.csv"):
                (out_dir / name).write_text(files[name], encoding="utf-8")
        written = time.perf_counter() - start
        shutil.rmtree(out_dir)
        compared = sum(seconds for _, seconds in parts)
        self.compare_s.append(compared)
        self.op_s.append(compared + written)
        self.parts.append(parts + [(parts[-1][0], written)])
        return self.check(files, fresh.label_set)

    def gauged(self) -> tuple[list[float], list[float]]:
        """(run_comparison, whole operation) seconds of each call at nominal speed."""
        self.gauge.tick()  # the sample after the last part
        compare, op = [], []
        for parts in self.parts:
            scaled = [self.gauge.scale(tick, seconds) for tick, seconds in parts]
            compare.append(sum(scaled[:-1]))
            op.append(sum(scaled))
        return compare, op

    def check(self, files: dict[str, str], labels) -> list[str]:
        problems = check_eval_files(files, labels, self.repeats, self.test_per_class,
                                    2 * self.config_repeats // self.repeats)
        digest = fingerprint(files)
        if self.first_fingerprint is None:
            self.first_fingerprint = digest
            self.ctx.human.append(f"fingerprint {self.ctx.workload} sha256:{digest}")
        elif digest != self.first_fingerprint:
            problems.append("outputs differ from the first call of this run")
        if self.expected is not None and digest != self.expected:
            problems.append(f"fingerprint {digest} != recorded {self.expected}")
        return problems


def check_eval_files(files, labels, repeats, test_per_class, n_files) -> list[str]:
    """Structure of report and confusion CSVs, for any seed."""
    problems = []
    if len(files) != n_files:
        problems.append(f"{len(files)} CSV files, expected {n_files}")
    labels = list(labels)
    for name, text in sorted(files.items()):
        lines = text.splitlines()
        if name.startswith("report_"):
            if lines[0] != "method,encoding,classifier,repeat,accuracy":
                problems.append(f"{name}: bad header {lines[0]!r}")
            if len(lines) - 1 != repeats:
                problems.append(f"{name}: {len(lines) - 1} rows, expected {repeats}")
            for row in lines[1:]:
                if not 0.0 <= float(row.rsplit(",", 1)[1]) <= 1.0:
                    problems.append(f"{name}: accuracy out of range in {row!r}")
        else:
            if lines[0].split(",") != ["label", *labels, "precision", "recall"]:
                problems.append(f"{name}: bad header {lines[0]!r}")
            if len(lines) - 1 != len(labels):
                problems.append(f"{name}: {len(lines) - 1} rows for {len(labels)} labels")
            for row in lines[1:]:
                cells = row.split(",")
                total = sum(int(c) for c in cells[1 : 1 + len(labels)])
                if total != repeats * test_per_class:
                    problems.append(
                        f"{name}: row {cells[0]} sums to {total}, "
                        f"expected {repeats * test_per_class}")
    return problems


def eval_workload(ctx: Context) -> dict:
    from isagram import corpus as corpus_mod

    corpus_obj = generate_corpus(ctx.seed, ctx.sizes.docs_per_class)
    corpus_path = ctx.work / "corpus.jsonl"
    corpus_mod.write_jsonl(corpus_obj, corpus_path)
    runner = EvalRunner(ctx, corpus_obj)

    if not ctx.trace:
        setup_wall, setup_s = measure_setup(ctx, corpus_path, len(corpus_obj))
        runner.warm_up()
        run_for(ctx.seconds, 2, runner.op)
        gauged_compare, gauged_op = runner.gauged()
        rate = runner.config_repeats / median(runner.compare_s)
        metrics = {
            "setup_s": setup_s,
            "throughput_per_s": runner.config_repeats / median(gauged_compare),
            "latency_p50_ms": 1000.0 * median(gauged_op),
            "peak_rss_mb": peak_rss_mb(),
        }
        say_setup(ctx, setup_wall, setup_s)
        ctx.say("eval_repeats_per_s", rate, "config-repeats/s",
                f"wall clock, {runner.config_repeats} config-repeats per call, "
                f"median of {len(runner.compare_s)} calls")
        ctx.say("eval_repeats_per_s.gauged", metrics["throughput_per_s"], "config-repeats/s",
                f"at the speed gauge's nominal speed (gauge {'+'.join(runner.gauge.parts)})")
        ctx.say("peak_rss_mb", metrics["peak_rss_mb"], "MB")
        ctx.human.append("samples run_comparison_ms " + " ".join(f"{1000 * s:.0f}" for s in runner.compare_s))
        ctx.human.append("samples gauge_ms " + " ".join(f"{1000 * s:.0f}" for s in runner.gauge.samples))
        return metrics

    import tracer as tracer_mod

    runner.warm_up()
    run_for(ctx.seconds / 2, 1, runner.op)
    untraced = len(runner.compare_s)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        ingests = traced_ingests(ctx, tracer, corpus_path)
        tracer.phase("op")
        calls = run_for(ctx.seconds / 2, 1, runner.op)
    finally:
        tracer.uninstall()
    metrics = tracer_mod.per_layer_metrics(tracer.spans, {"setup": ingests, "op": calls})
    op_spans = [s for s in tracer.spans if s["phase"] == "op"]
    gauged, _ = runner.gauged()
    metrics["trace.slowdown"] = median(gauged[untraced:]) / median(gauged[:untraced])
    traced_s = runner.compare_s[untraced:]
    metrics["trace.layer_share"] = (
        tracer_mod.layer_self_seconds(op_spans) / sum(traced_s) if traced_s else math.nan)
    metrics["trace.ops"] = calls
    ctx.say("eval_repeats_per_s", runner.config_repeats / median(runner.compare_s[:untraced]),
            "config-repeats/s", f"untraced, wall clock, median of {untraced} calls")
    ctx.say("eval_repeats_per_s.traced", runner.config_repeats / median(traced_s),
            "config-repeats/s", f"traced, wall clock, median of {calls} calls")
    ctx.human.append(f"spans {write_trace(ctx, tracer)}")
    return metrics


# ---------------------------------------------------------------------------
# predict-cli workload
# ---------------------------------------------------------------------------

class CliRunner:
    """The user path: one ``isagram train``, then predict processes in a closed loop."""

    def __init__(self, ctx: Context, corpus_obj, corpus_path: Path):
        from isagram import corpus as corpus_mod

        self.ctx = ctx
        self.corpus = corpus_obj
        self.corpus_path = corpus_path
        self.model_path = ctx.work / "model.json"
        heldout = generate_corpus(ctx.seed + 1_000_000, ctx.sizes.heldout_per_class)
        doc_dir = ctx.work / "heldout"
        doc_dir.mkdir()
        self.doc_paths, self.true_labels = [], {}
        records = []
        for i, doc in enumerate(heldout):
            path = doc_dir / f"doc_{i:04d}.bin"
            path.write_bytes(doc.payload)
            self.doc_paths.append(path)
            self.true_labels[path.name] = doc.label
            records.append(corpus_mod.Document(doc.payload, None, path.name))
        self.batch_path = ctx.work / "heldout.jsonl"
        corpus_mod.write_jsonl(corpus_mod.Corpus(records), self.batch_path)
        self.labels: set[str] = set()
        self.batch_lines: dict[str, str] | None = None
        self.gauge = SpeedGauge(CLI_GAUGE)
        self.raw_s: list[float] = []
        self.batch_s: list[float] = []  # wall time of each stdin batch predict
        self.raw_ticks: list[int] = []  # the gauge sample taken before each process
        self.batch_ticks: list[int] = []
        self.predict_rss: list[float] = []
        self.train_s: list[float] = []
        self.model_mb = 0.0
        self.raw_index = 0
        self.parts: dict[str, str] = {}
        self.span_files: list[Path] = []

    def command(self, phase: str | None, argv: list[str]) -> list[str]:
        """Plain ``python -m isagram``, or the traced wrapper writing spans."""
        if phase is None:
            return [sys.executable, "-m", "isagram", *argv]
        self.span_files.append(self.ctx.work / f"spans-{len(self.span_files)}.jsonl")
        return [sys.executable, str(HERE / "traced_cli.py"),
                str(self.span_files[-1]), phase, "--", *argv]

    def train(self, phase: str | None = None) -> None:
        self.ctx.ledger.attempt("train", lambda: self._train(phase))

    def predict(self, index: int, phase: str | None = None) -> None:
        if index % 6 == 0 or self.batch_lines is None:
            self.predict_batch(phase)
        else:
            self.predict_raw(phase)

    def predict_batch(self, phase: str | None = None) -> None:
        self.ctx.ledger.attempt("batch predict", lambda: self._predict_batch(phase))

    def predict_raw(self, phase: str | None = None) -> None:
        path = self.doc_paths[self.raw_index % len(self.doc_paths)]
        self.raw_index += 1
        self.ctx.ledger.attempt(f"raw predict {path.name}", lambda: self._predict_raw(path, phase))

    def _train(self, phase: str | None) -> list[str]:
        child = run_child(self.ctx, self.command(phase, [
            "train", "--corpus", str(self.corpus_path), "--features", "tfidf-byte",
            "--model", "cnb", "--seed", str(self.ctx.seed), "--out", str(self.model_path)]))
        if child.code != 0:
            return [f"exit {child.code}: {child.stderr.strip()}"]
        self.train_s.append(child.wall_s)
        self.model_mb = self.model_path.stat().st_size / 1e6
        lines = child.stdout.splitlines()
        classes = {l.split()[1]: int(l.split()[2]) for l in lines if l.startswith("class ")}
        self.labels = set(classes)
        self.parts["train.stdout"] = child.stdout
        # the 3-gram vocabulary is fixed by integer counts, unlike BLAS-summed weights
        body = self.model_path.read_text(encoding="utf-8").rstrip("\n").rpartition("\n")[0]
        self.parts["model.grams3"] = " ".join(json.loads(body)["schema"]["vocab"]["grams3"])
        problems = []
        if classes != {k: len(v) for k, v in self.corpus.indices_by_label().items()}:
            problems.append(f"train reported classes {classes}")
        if f"documents {len(self.corpus)}" not in lines:
            problems.append("train did not report the corpus size")
        return problems

    def _predict_batch(self, phase: str | None) -> list[str]:
        tick = self.gauge.tick()
        child = run_child(self.ctx, self.command(phase, [
            "predict", "--model", str(self.model_path), "--input", "-"]),
            stdin_path=self.batch_path)
        if child.code != 0:
            return [f"exit {child.code}: {child.stderr.strip()}"]
        self.predict_rss.append(child.rss_mb)
        rows = self.parse_predictions(child.stdout)
        self.batch_s.append(child.wall_s)
        self.batch_ticks.append(tick)
        problems = rows.pop(None, [])
        names = [p.name for p in self.doc_paths]
        if list(rows) != names:
            problems.append(f"{len(rows)} output lines for {len(names)} documents")
        if self.batch_lines is None:
            self.batch_lines = rows
            self.parts["predict.labels"] = "".join(f"{k}\t{v}\n" for k, v in rows.items())
        elif rows != self.batch_lines:
            problems.append("batch labels differ from the first batch of this run")
        return problems

    def _predict_raw(self, path: Path, phase: str | None) -> list[str]:
        tick = self.gauge.tick()
        child = run_child(self.ctx, self.command(phase, [
            "predict", "--model", str(self.model_path), "--input", str(path),
            "--format", "raw"]))
        if child.code != 0:
            return [f"exit {child.code}: {child.stderr.strip()}"]
        self.raw_s.append(child.wall_s)
        self.raw_ticks.append(tick)
        self.predict_rss.append(child.rss_mb)
        rows = self.parse_predictions(child.stdout)
        problems = rows.pop(None, [])
        if list(rows) != [path.name]:
            problems.append(f"raw predict printed {child.stdout!r} for {path.name}")
        elif rows[path.name] != self.batch_lines[path.name]:
            problems.append(f"raw label for {path.name} differs from the batch label")
        return problems

    def parse_predictions(self, stdout: str) -> dict:
        """Document id -> label; key None holds the problems found."""
        rows: dict = {}
        problems = []
        for line in stdout.splitlines():
            fields = line.split("\t")
            if len(fields) != 3 or fields[1] not in self.labels:
                problems.append(f"bad prediction line {line!r}")
            else:
                rows[fields[0]] = fields[1]
        if problems:
            rows[None] = problems
        return rows

    def check_fingerprint(self) -> None:
        digest = fingerprint(self.parts)
        self.ctx.human.append(f"fingerprint {self.ctx.workload} sha256:{digest}")
        expected = self.ctx.expected_fingerprint()
        problems = []
        if expected is not None and digest != expected:
            problems.append(f"fingerprint {digest} != recorded {expected}")
        self.ctx.ledger.record(problems, "fingerprint")

    def heldout_accuracy(self) -> float:
        if not self.batch_lines:
            return math.nan
        hits = sum(self.true_labels.get(k) == v for k, v in self.batch_lines.items())
        return hits / len(self.batch_lines)


def cli_workload(ctx: Context) -> dict:
    from isagram import corpus as corpus_mod

    corpus_obj = generate_corpus(ctx.seed, ctx.sizes.docs_per_class)
    corpus_path = ctx.work / "corpus.jsonl"
    corpus_mod.write_jsonl(corpus_obj, corpus_path)
    runner = CliRunner(ctx, corpus_obj, corpus_path)

    if not ctx.trace:
        setup_wall, setup_s = measure_setup(ctx, corpus_path, len(corpus_obj))
        runner.train()
        run_for(ctx.seconds, 4, runner.predict)
        runner.check_fingerprint()
        gauge = runner.gauge
        gauge.tick()
        raw = [gauge.scale(i, s) for i, s in zip(runner.raw_ticks, runner.raw_s)]
        batches = [gauge.scale(i, s) for i, s in zip(runner.batch_ticks, runner.batch_s)]
        p50 = 1000.0 * median(runner.raw_s)
        docs = len(runner.doc_paths)
        batch = docs / median(runner.batch_s)
        metrics = {
            "setup_s": setup_s,
            # closed loop, one client: predict processes (raw and batch) per second
            "throughput_per_s": ((len(raw) + len(batches)) / (sum(raw) + sum(batches))
                                 if raw or batches else math.nan),
            "latency_p50_ms": 1000.0 * median(raw),
            "peak_rss_mb": peak_rss_mb(),
        }
        tail_ms, pct = tail([1000.0 * s for s in runner.raw_s])
        say_setup(ctx, setup_wall, setup_s)
        ctx.say("train_s", median(runner.train_s), "s")
        ctx.say("model_mb", runner.model_mb, "MB")
        ctx.say("predict_p50_ms", p50, "ms", f"wall clock, {len(runner.raw_s)} raw predict processes")
        ctx.say("predict_p50_ms.gauged", metrics["latency_p50_ms"], "ms",
                "at the speed gauge's nominal speed (gauge interpreter)")
        ctx.say("predict_tail_ms", tail_ms, "ms",
                f"p{pct:.0f} of {len(runner.raw_s)} samples, {min(10, len(runner.raw_s) - 1)} above it")
        ctx.say("predict_batch_docs_per_s", batch, "docs/s",
                f"wall clock, {docs} docs per batch, "
                f"median of {len(runner.batch_s)} batches")
        ctx.say("predict_batch_docs_per_s.gauged", docs / median(batches), "docs/s",
                "at the speed gauge's nominal speed")
        ctx.say("predict_processes_per_s.gauged", metrics["throughput_per_s"], "1/s",
                f"closed loop of {len(raw) + len(batches)} raw and batch predicts, "
                "at the speed gauge's nominal speed")
        ctx.say("peak_rss_mb", metrics["peak_rss_mb"], "MB")
        ctx.say("predict_rss_mb", max(runner.predict_rss, default=math.nan), "MB")
        ctx.say("heldout_accuracy", runner.heldout_accuracy(), "share",
                "batch labels against the generator's labels")
        ctx.human.append("samples raw_predict_ms " + " ".join(f"{1000 * s:.0f}" for s in runner.raw_s))
        ctx.human.append("samples gauge_ms " + " ".join(f"{1000 * s:.0f}" for s in runner.gauge.samples))
        return metrics

    import tracer as tracer_mod

    runner.train()
    run_for(0.4 * ctx.seconds, 2, runner.predict)
    untraced = len(runner.raw_s)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        ingests = traced_ingests(ctx, tracer, corpus_path)
    finally:
        tracer.uninstall()
    untraced_walls = len(runner.train_s), len(runner.batch_s)
    start = time.perf_counter()
    runner.train("train")
    runner.predict_batch("batch")
    raws = run_for(0.6 * ctx.seconds - (time.perf_counter() - start), 2,
                   lambda i: runner.predict_raw("raw"))
    runner.check_fingerprint()
    child_spans = [s for f in runner.span_files if f.exists() for s in tracer_mod.load_spans(f)]
    tracer.spans.extend(child_spans)
    metrics = tracer_mod.per_layer_metrics(
        tracer.spans, {"setup": ingests, "train": 1, "batch": 1, "raw": raws})
    runner.gauge.tick()
    gauged = [runner.gauge.scale(i, s) for i, s in zip(runner.raw_ticks, runner.raw_s)]
    metrics["trace.slowdown"] = median(gauged[untraced:]) / median(gauged[:untraced])
    traced_wall = (sum(runner.train_s[untraced_walls[0]:]) + sum(runner.raw_s[untraced:])
                   + sum(runner.batch_s[untraced_walls[1]:]))
    metrics["trace.layer_share"] = (
        tracer_mod.layer_self_seconds(child_spans) / traced_wall if traced_wall else math.nan)
    metrics["trace.ops"] = raws + 2
    ctx.say("predict_p50_ms", 1000.0 * median(runner.raw_s[:untraced]), "ms",
            f"untraced, wall clock, {untraced} raw predicts")
    ctx.say("predict_p50_ms.traced", 1000.0 * median(runner.raw_s[untraced:]), "ms",
            f"traced, wall clock, {raws} raw predicts")
    ctx.human.append(f"spans {write_trace(ctx, tracer)}")
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, so results name the code they measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "isagram").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny corpus and splits, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isagram" / "__init__.py").is_file():
        print(f"perfbench: no isagram package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # must precede the numpy import
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import isagram

    if Path(isagram.__file__).resolve().parent != (SRC / "isagram").resolve():
        print(f"perfbench: imported isagram from {isagram.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    ctx = Context(args, work)
    try:
        metrics = (cli_workload if args.workload == "predict-cli" else eval_workload)(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = ctx.ledger
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          + (" tiny" if args.tiny else ""))
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    for line in ctx.human:
        print(line)
    print(f"metric fail_ratio {ledger.failed / ledger.attempted} failed/attempted"
          f"  ({ledger.failed} of {ledger.attempted} operations)")
    if args.trace:
        import tracer as tracer_mod
        units = tracer_mod.PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
    correct = ledger.failed == 0
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        # NaN (no successful operation of a kind) is not JSON; it prints as null
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name]) else None,
                           "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
