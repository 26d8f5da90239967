"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing added to the
program.  ``--trace 1`` alternates untraced runs with runs under the
span-recording wrappers of ``layers.py``, reports the per-layer metrics
and writes the last traced run's spans to ``.perfbench/spans-NAME.csv``.
Times are wall-clock seconds on ``checker_ingest`` and reference seconds
on the stress workloads (see ``REFERENCE_CAL_S``).
Metric names, units and directions are in ``BENCHMARK.json``; what each
metric means on each workload, the seeds, and which end-to-end metric
each per-layer metric should move are in ``predictions.json``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``failed`` counts the operations of runs whose output check failed;
aborts the workload causes by design are reported in ``failed_fraction``.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

import layers  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Where a traced pass writes its last traced run's spans, one CSV per
#: workload.
SPANS_DIR = ROOT / ".perfbench"
#: Set-up repetitions whose median is ``setup_s`` (untraced mode).
SETUP_REPEATS = 3
#: Untraced mode runs every input of the workload at least this many
#: times, so repeats can be compared; traced mode pairs each traced run
#: with an untraced one.
MIN_RUNS = 2
#: A workload with ``calibrated`` set reports reference seconds: wall
#: seconds times this over the median time of ``_calibrate``, timed after
#: set-up and after every run.  A shared host changes speed by half again
#: or more for minutes at a time; the stress workloads slow with the loop,
#: so their figures from different minutes agree once divided by it.
REFERENCE_CAL_S = 0.01
#: ``_calibrate`` timings taken at each calibration point.
CAL_TIMINGS = 3


def _import_workloads():
    """Import the workloads, and with them the program, from ``src/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")
    import workloads

    return workloads


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[min(int(rank), len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def worst_1pct_mean(values: Sequence[float]) -> float:
    """Mean of the slowest 1% of ``values`` (at least one of them)."""
    if not values:
        return 0.0
    worst = sorted(values, reverse=True)[: max(1, len(values) // 100)]
    return sum(worst) / len(worst)


class _Node:
    __slots__ = ("key", "nxt", "val")

    def __init__(self, key, nxt, val) -> None:
        self.key, self.nxt, self.val = key, nxt, val

    def bump(self, d: int) -> int:
        self.val += d
        return self.val


def _calibrate() -> float:
    """Seconds for a fixed loop of the small-object work the stress
    workloads spend their time on: tuple-keyed dict lookups, object
    creation, method calls and short list sorts."""
    start = perf_counter()
    table: Dict[tuple, _Node] = {}
    head = None
    out: List[int] = []
    for i in range(20_000):
        key = (i % 4099, i % 13)
        node = table.get(key)
        if node is None:
            node = table[key] = head = _Node(key, head, 0)
        out.append(node.bump(i))
        if len(out) > 64:
            out.sort()
            out.clear()
    return perf_counter() - start


def _rescale(run, factor: float):
    """Multiply ``run``'s timings by ``factor``, in place."""
    run.wall_s *= factor
    run.latencies_ms = {
        key: ms * factor for key, ms in run.latencies_ms.items()
    }
    return run


def _set_up(workload, seed: int, repeats: int):
    """Build the inputs ``repeats`` times (generation plus warm-up each
    time); return the last inputs and the median repetition's seconds."""
    times: List[float] = []
    inputs = None
    for _ in range(repeats):
        inputs = None  # release the previous repetition's inputs first
        start = perf_counter()
        inputs = workload.setup(seed)
        workload.warm_up(inputs)
        times.append(perf_counter() - start)
    # Collections during the runs scan the program's objects, not the
    # pre-generated inputs.
    gc.freeze()
    return inputs, median(times)


def _timed_runs(seconds: float, run_one, min_runs: int, cycle: int = 1,
                after_each=lambda: None) -> list:
    """Results of ``run_one(i)`` for ``i = 0, 1, ...``, until ``seconds``
    have passed, at least ``min_runs`` ran and the count is a multiple of
    ``cycle``; ``after_each`` is called after every run."""
    out = []
    start = perf_counter()
    while (len(out) < min_runs or len(out) % cycle
           or perf_counter() - start < seconds):
        # Each run starts from the same heap: the previous run's cyclic
        # garbage is collected here, outside the run's own timing.
        gc.collect()
        out.append(run_one(len(out)))
        after_each()
    return out


def _failed_ops(runs) -> int:
    return sum(r.attempted for r in runs if r.problems)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(runs, setup_s: float, peak_rss_mib: float) -> dict:
    latencies = [ms for r in runs for ms in r.latencies_ms.values()]
    by_input: Dict[int, List[float]] = {}
    for r in runs:
        for key, ms in r.latencies_ms.items():
            by_input.setdefault(key, []).append(ms)
    return {
        "setup_s": _metric(setup_s, "s"),
        "events_per_s": _metric(
            median([r.events / r.wall_s for r in runs]), "1/s"
        ),
        "txns_per_s": _metric(
            median([r.committed / r.wall_s for r in runs]), "1/s"
        ),
        "verdict_ms_p50": _metric(percentile(latencies, 50), "ms"),
        # The nearest-rank p99 of checker_ingest's chunks falls on the
        # steep tail of garbage-collection pauses and swings by a fifth
        # between seeds; the mean of the slowest 1% holds the same pauses
        # and is steady.  It is taken over each input's median across
        # runs (the pauses fall on the same chunks in every pass), so a
        # moment the host stalls one run does not count as the tail.
        "verdict_ms_worst1pct": _metric(
            worst_1pct_mean([median(v) for v in by_input.values()]), "ms"
        ),
        "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
    }


def per_layer(traced, bare, core_bytes) -> dict:
    """``traced`` holds ``(run, summary)`` per traced run (see
    ``layers.summarize``); ``bare`` the untraced runs between them."""
    runs = [run for run, _ in traced]

    def over_runs(value) -> float:
        """Median over traced runs of ``value(run, summary)``."""
        return median([value(run, summary) for run, summary in traced])

    def per_txn(count) -> float:
        return over_runs(
            lambda r, s: count(r, s) / r.committed if r.committed else 0.0
        )

    def ratio(num: str, den: str) -> float:
        return over_runs(
            lambda r, s: r.facts.get(num, 0) / r.facts[den]
            if r.facts.get(den) else 0.0
        )

    out: Dict[str, Dict[str, object]] = {}
    for layer in layers.LAYERS:
        out[f"{layer}.self_s"] = _metric(
            over_runs(lambda r, s: s["self_s"][layer]), "s"
        )
        out[f"{layer}.share"] = _metric(
            over_runs(lambda r, s: s["share"][layer]), "ratio"
        )
        out[f"{layer}.calls"] = _metric(
            over_runs(lambda r, s: s["calls"][layer]), "count"
        )
    queries_ms = [d * 1000.0 for _, s in traced for d in s["query_s"]]
    held, ingested = core_bytes
    out.update({
        "core.query_ms_p99": _metric(percentile(queries_ms, 99), "ms"),
        "core.edges_per_event": _metric(
            ratio("monitor_edges", "monitor_events"), "ratio"
        ),
        "core.bytes_per_event": _metric(
            held / ingested if ingested else 0.0, "B"
        ),
        "engine.calls_per_txn": _metric(
            per_txn(lambda r, s: s["calls"]["engine"]), "count"
        ),
        "engine.commit_ratio": _metric(
            ratio("engine_commits", "engine_txns"), "ratio"
        ),
        "service.poll_calls_per_txn": _metric(
            per_txn(lambda r, s: s["counted"]["PendingCall.poll"]), "count"
        ),
        "service.msgs_per_txn": _metric(
            per_txn(lambda r, s: r.facts.get("msgs", 0)), "count"
        ),
        "service.retries_per_txn": _metric(
            per_txn(lambda r, s: r.facts.get("retries", 0)), "count"
        ),
        "cluster.coordinator_calls_per_txn": _metric(
            per_txn(lambda r, s: s["counted"]["Coordinator.handle"]), "count"
        ),
        "cluster.replica_applies_per_txn": _metric(
            per_txn(lambda r, s: s["counted"]["ReplicaServer.apply"]), "count"
        ),
        "cluster.replica_read_ratio": _metric(
            ratio("replica_reads", "reads"), "ratio"
        ),
        "observability.records_per_txn": _metric(
            per_txn(lambda r, s: r.facts.get("records", 0)), "count"
        ),
        "trace.overhead_x": _metric(
            median([r.wall_s for r in runs])
            / median([r.wall_s for r in bare]),
            "ratio",
        ),
        "commit_ticks_p99": _metric(
            over_runs(lambda r, s: r.facts.get("commit_ticks_p99", 0)),
            "ticks",
        ),
    })
    every = runs + bare
    not_committed = sum(r.aborted for r in every if not r.problems)
    out["failed_fraction"] = _metric(
        (not_committed + _failed_ops(every))
        / sum(r.attempted for r in every),
        "ratio",
    )
    return out


def measure(workload, seed: int, seconds: float, trace: bool,
            import_s: float = 0.0) -> dict:
    """Set up, run and check one workload; return the result object."""
    inputs, setup_s = _set_up(
        workload, seed, 1 if trace else SETUP_REPEATS
    )
    timings: List[float] = []

    def calibrate() -> None:
        if workload.calibrated:
            timings.extend(_calibrate() for _ in range(CAL_TIMINGS))

    def factor() -> float:
        return REFERENCE_CAL_S / median(timings) if timings else 1.0

    calibrate()
    if not trace:
        runs = _timed_runs(
            seconds,
            lambda i: workload.run(inputs, i),
            min_runs=MIN_RUNS * workload.sub_seeds,
            cycle=workload.sub_seeds,
            after_each=calibrate,
        )
        peak_rss_mib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        scale = factor()
        runs = [_rescale(run, scale) for run in runs]
        workload.check(inputs, runs)
        metrics = end_to_end(
            runs, (import_s + setup_s) * scale, peak_rss_mib
        )
    else:
        tracing = layers.Tracing()
        last_spans: list = []

        def pair(i):
            untraced = workload.run(inputs, i)
            spans = tracing.install()
            try:
                run = workload.run(inputs, i)
            finally:
                tracing.uninstall()
            last_spans[:] = [spans]
            return untraced, run, layers.summarize(spans, run.wall_s)

        pairs = _timed_runs(seconds, pair, min_runs=1, after_each=calibrate)
        scale = factor()
        bare, traced = [], []
        for untraced, run, summary in pairs:
            bare.append(_rescale(untraced, scale))
            summary["self_s"] = {
                layer: s * scale for layer, s in summary["self_s"].items()
            }
            summary["query_s"] = [d * scale for d in summary["query_s"]]
            traced.append((_rescale(run, scale), summary))
        SPANS_DIR.mkdir(exist_ok=True)
        last_spans.pop().write_csv(SPANS_DIR / f"spans-{workload.name}.csv")
        core_bytes = workload.core_bytes(inputs)
        # Untraced runs alternate with traced ones, so every untraced run
        # after the first also shows the wrappers left the program as it
        # was: the digest checks compare them all.
        runs = [run for run, _ in traced] + bare
        workload.check(inputs, runs)
        metrics = per_layer(traced, bare, core_bytes)
    problems = sorted({p for r in runs for p in r.problems})
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": _failed_ops(runs),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads = _import_workloads()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - _STARTED
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}"
        )
    result = measure(
        workloads.WORKLOADS[args.workload](),
        args.seed,
        args.seconds,
        bool(args.trace),
        import_s=import_s,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
