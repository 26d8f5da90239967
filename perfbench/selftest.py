"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs small versions of the four workloads in this process, then the real
command line once per mode on ``server_open_loop``, and checks that

* after a traced run every wrapped attribute is the original again, and an
  untraced run that follows gives the same history digest;
* the layers' self times sum to the traced run's wall time within
  ``SELF_TIME_TOLERANCE``;
* the zero calls ``predictions.json`` predicts hold;
* every printed metric name matches ``[A-Za-z0-9_.-]+`` and is declared in
  ``BENCHMARK.json`` for its mode, and every declared metric is printed;
* ``predictions.json`` maps every per-layer metric;
* the traced command line writes its spans, rooted at ``run_stress``;
* without the program's sources the command fails without a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

import layers
import run

ROOT = run.ROOT
HERE = pathlib.Path(__file__).resolve().parent
#: |sum of layer self times - traced wall| / traced wall may not exceed this.
SELF_TIME_TOLERANCE = 0.02
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_workloads(workloads):
    return [
        workloads.CheckerIngest(txns=3_000),
        workloads.ClusterReplicated(txns_per_client=15),
        workloads.ClusterObserved(txns_per_client=15),
        workloads.ServerOpenLoop(horizon=600),
    ]


def check_tracing(workload, failures):
    inputs = workload.setup(1)
    tracing = layers.Tracing()
    originals = {
        (owner, name): vars(owner)[name]
        for owner, names, _ in tracing.points
        for name in names
        if name in vars(owner)
    }
    bare = workload.run(inputs)
    spans = tracing.install()
    try:
        traced = workload.run(inputs)
    finally:
        tracing.uninstall()
    after = workload.run(inputs)
    left = [
        f"{owner.__name__}.{name}"
        for (owner, name), original in originals.items()
        if vars(owner)[name] is not original
    ]
    if left:
        failures.append(f"{workload.name}: wrappers left on {left}")
    if not (bare.digest == traced.digest == after.digest):
        failures.append(f"{workload.name}: digests differ around tracing")
    self_sum = sum(layers.summarize(spans, traced.wall_s)["self_s"].values())
    gap = abs(self_sum - traced.wall_s) / traced.wall_s
    if gap > SELF_TIME_TOLERANCE:
        failures.append(
            f"{workload.name}: self times sum to {self_sum:.4f}s of "
            f"{traced.wall_s:.4f}s wall ({gap:.1%} apart)"
        )
    return gap


def check_names(result, declared, mode, workload, failures):
    printed = set(result["metrics"])
    bad = sorted(n for n in printed if not NAME.fullmatch(n))
    if bad:
        failures.append(f"{workload}: malformed metric names {bad}")
    if printed != declared:
        failures.append(
            f"{workload} --trace {mode}: printed {sorted(printed ^ declared)}"
            " differ from BENCHMARK.json"
        )
    for metric in result["metrics"].values():
        if set(metric) != {"value", "unit"}:
            failures.append(f"{workload}: metric keys {sorted(metric)}")


def check_zeros(result, workload, predictions, failures):
    for metric, entry in predictions["per_layer"].items():
        if metric.endswith(".calls") and workload in entry["zero_on"]:
            value = result["metrics"][metric]["value"]
            if value != 0:
                failures.append(f"{workload}: {metric} = {value}, not 0")


def check_cli(declared, failures):
    for mode in (0, 1):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "server_open_loop", "--seed", "1", "--seconds", "0",
             "--trace", str(mode)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        try:
            result = json.loads(out.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            failures.append(f"cli --trace {mode}: no result ({out.stderr})")
            continue
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"cli --trace {mode}: keys {sorted(result)}")
        if out.returncode != 0 or result["correct"] is not True:
            failures.append(f"cli --trace {mode}: {out.stderr.strip()}")
        check_names(result, declared[mode], mode, "server_open_loop", failures)
    spans = (run.SPANS_DIR / "spans-server_open_loop.csv").read_text()
    header, *rows = spans.splitlines()
    if header != "id,parent,layer,name,start_s,end_s" or not rows:
        failures.append("cli --trace 1 wrote no spans")
    elif not rows[0].startswith("0,-1,service,stress.run_stress,"):
        failures.append(f"cli --trace 1: first span is {rows[0]!r}")


def check_without_sources(failures):
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-",
                                     dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, pathlib.Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "server_open_loop", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
            check=False,
        )
    if out.returncode == 0 or out.stdout.strip():
        failures.append("without sources the command did not fail cleanly")


def main() -> int:
    workloads = run._import_workloads()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    declared = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    failures: list = []
    if set(predictions["per_layer"]) != declared[1]:
        failures.append("predictions.json does not map every per-layer metric")
    if set(predictions["workloads"]) != {w["name"] for w in bench["workloads"]}:
        failures.append("predictions.json does not describe every workload")
    for workload in small_workloads(workloads):
        gap = check_tracing(workload, failures)
        for mode in (0, 1):
            result = run.measure(workload, 1, 0.0, bool(mode))
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload.name} --trace {mode}: check failed")
            check_names(result, declared[mode], mode, workload.name, failures)
            if mode:
                check_zeros(result, workload.name, predictions, failures)
        print(f"{workload.name}: self-time gap {gap:.2%}")
    check_cli(declared, failures)
    check_without_sources(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
