"""Quick self-test of the benchmark at tiny sizes.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs every workload with ``--tiny`` for one second, untraced and traced,
and checks that

* the result line carries exactly the metrics BENCHMARK.json declares for
  that mode, with their units, and that no end-to-end metric reads zero;
* the output check passed (``correct``, no failed operation, exit 0);
* the human-readable lines name every end-to-end metric of the workload
  with a unit;
* the output checks reject broken CSVs, and the speed gauge scales a time
  by the samples taken just before and after it;
* in a directory holding only BENCHMARK.json and the benchmark, the run
  exits non-zero without printing a result.

Exits 0 when all checks pass.  Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark itself, for its check functions)

HUMAN_METRICS = {
    "eval": ("setup_s", "eval_repeats_per_s", "peak_rss_mb", "fail_ratio"),
    "predict-cli": ("setup_s", "train_s", "model_mb", "predict_p50_ms", "predict_tail_ms",
                    "predict_batch_docs_per_s", "peak_rss_mb", "predict_rss_mb",
                    "fail_ratio"),
}


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run_benchmark(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        problems.append(f"{where}: metrics {emitted} != declared {declared}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
        elif not trace and not metric["value"] > 0:
            problems.append(f"{where}: {name} reads {metric['value']}")
    if not trace:
        group = "predict-cli" if workload == "predict-cli" else "eval"
        named = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
        for name in HUMAN_METRICS[group]:
            if not named.get(name):
                problems.append(f"{where}: no human-readable line for {name}")
    return problems


def check_output_checks() -> list[str]:
    labels = ["a", "b"]
    good = {
        "report_x_cnb.csv": "method,encoding,classifier,repeat,accuracy\ntfidf_byte,,cnb,0,0.5\n",
        "confusion_x_cnb.csv": "label,a,b,precision,recall\na,1,1,0.5,0.5\nb,1,1,0.5,0.5\n",
    }
    problems = []
    if run.check_eval_files(good, labels, 1, 2, 2):
        problems.append("check_eval_files rejects well-formed CSVs")
    bad = dict(good, **{"confusion_x_cnb.csv": good["confusion_x_cnb.csv"].replace("b,1,1", "b,1,2")})
    if not run.check_eval_files(bad, labels, 1, 2, 2):
        problems.append("check_eval_files accepts a confusion row with the wrong sum")
    if run.tail([float(i) for i in range(40)]) != (29.0, 75.0):
        problems.append("tail() does not leave exactly 10 samples above the percentile")
    gauge = run.SpeedGauge(("interpreter",))
    gauge.samples = [0.04, 0.06, 0.1]
    if abs(gauge.scale(0, 1.0) - 1.0) > 1e-12 or abs(gauge.scale(1, 1.0) - 0.625) > 1e-12:
        problems.append("SpeedGauge.scale does not use the samples before and after")
    return problems


def check_bare_directory() -> list[str]:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, "protocol-byte", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_output_checks() + check_bare_directory()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            problems += check_result(workload, trace, spec)
            print(f"selftest: {workload} --trace {trace} done", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
