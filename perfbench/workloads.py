"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup` (the program
only ever receives these generated inputs), runs one measured unit of work
in :meth:`run`, and knows how to check its own outputs.  A stress
workload's inputs are ``sub_seeds`` configs derived from the seed, and its
runs cycle through them, so one process times several seeds' worth of
work.  A :class:`Run` keeps only numbers and a digest, never the program's
result objects, so one run's memory is released before the next starts.
"""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from dataclasses import dataclass, field, replace
from itertools import chain
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import History, check
from repro.core.events import Abort, Begin, Commit
from repro.core.events import Read as ReadEvent
from repro.core.events import Write as WriteEvent
from repro.core.incremental import IncrementalAnalysis
from repro.core.objects import Version
from repro.observability import FlightRecorder, MetricsRegistry, Tracer
from repro.service import (
    AdmissionConfig,
    ClusterConfig,
    NetworkConfig,
    StressConfig,
)
from repro.service import stress as stress_module
from repro.workloads.arrivals import PoissonArrivals, ZipfianKeys

#: Allocations from these files are the ``core`` layer's memory.
CORE_FILES = "*/repro/core/*"
#: Configs a stress workload derives from its seed: seed * 1000 + 0..7.
SUB_SEEDS = 8


@dataclass
class Run:
    """What one measured unit of work left behind."""

    wall_s: float
    #: Operations attempted: events for the checker, transaction attempts
    #: (closed loop) or arrivals (open loop) for the stress workloads.
    attempted: int
    #: Attempts that did not commit: aborts, timeouts, uncommitted arrivals.
    aborted: int
    committed: int
    #: History events ingested (checker) or recorded (stress).
    events: int
    #: Verdict latencies in ms contributed by this run, by input: chunk
    #: index (checker) or sub-seed index (stress).  The same input timed
    #: in several runs gives the tail metric its per-input medians.
    latencies_ms: Dict[int, float]
    #: Determinism fingerprint: equal inputs must give equal digests.
    digest: str
    #: Public counters the per-layer metrics divide (see ``run.py``).
    facts: Dict[str, float] = field(default_factory=dict)
    #: Output-check failures found in this run.
    problems: List[str] = field(default_factory=list)
    #: Which of the workload's inputs ran: the sub-seed index (stress).
    input_id: int = 0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# checker_ingest
# ----------------------------------------------------------------------


def gate_events(
    seed: int,
    n_txns: int,
    n_objects: int = 800,
    ops_per_txn: int = 4,
    write_fraction: float = 0.4,
    abort_fraction: float = 0.05,
) -> List[List[object]]:
    """The 10^6-event ingestion gate's stream shape (800 objects, 4 ops per
    transaction, 40% writes, 5% aborts, about one conflict edge per event),
    seeded, returned as one event list per transaction.  Transaction 1
    installs a committed initial version of every object."""
    rng = random.Random(seed)
    objs = [f"o{i}" for i in range(n_objects)]
    latest = {obj: Version(obj, 1, 1) for obj in objs}
    txns = [
        [Begin(1), *(WriteEvent(1, v, 0) for v in latest.values()), Commit(1)]
    ]
    random_, choice = rng.random, rng.choice
    for tid in range(2, n_txns + 2):
        events: List[object] = [Begin(tid)]
        aborts = random_() < abort_fraction
        written: Dict[str, Version] = {}
        seqs: Dict[str, int] = {}
        for _ in range(ops_per_txn):
            obj = choice(objs)
            if random_() < write_fraction:
                seq = seqs[obj] = seqs.get(obj, 0) + 1
                v = written[obj] = Version(obj, tid, seq)
                events.append(WriteEvent(tid, v, tid))
            else:
                events.append(ReadEvent(tid, written.get(obj) or latest[obj], 0))
        if aborts:
            events.append(Abort(tid))
        else:
            events.append(Commit(tid))
            latest.update(written)
        txns.append(events)
    return txns


@dataclass
class CheckerInputs:
    chunks: List[List[object]]
    events: int
    committed: int


class CheckerIngest:
    """One ``IncrementalAnalysis(order_mode="commit")`` fed the stream
    through ``add_all`` in 100-transaction chunks, with
    ``strongest_level()`` after each chunk.  A run is one whole stream."""

    name = "checker_ingest"
    #: One stream; its chunks are the inputs the tail metric keys on.
    sub_seeds = 1
    #: Wall-clock times: a pass's speed does not follow the calibration
    #: loop (``run.REFERENCE_CAL_S``), and dividing by it adds noise.
    calibrated = False
    chunk_txns = 100
    #: Chunks the warm-up and the memory probe ingest.
    warm_chunks = 20
    probe_chunks = 400

    def __init__(self, txns: int = 167_000) -> None:
        self.txns = txns

    def setup(self, seed: int) -> CheckerInputs:
        txns = gate_events(seed, self.txns)
        step = self.chunk_txns
        chunks = [
            list(chain.from_iterable(txns[i:i + step]))
            for i in range(0, len(txns), step)
        ]
        committed = sum(1 for t in txns if type(t[-1]) is Commit)
        return CheckerInputs(chunks, sum(map(len, chunks)), committed)

    def warm_up(self, inputs: CheckerInputs) -> None:
        inc = IncrementalAnalysis(order_mode="commit")
        for chunk in inputs.chunks[: self.warm_chunks]:
            inc.add_all(chunk)
            inc.strongest_level()

    def run(self, inputs: CheckerInputs, index: int = 0) -> Run:
        latencies: Dict[int, float] = {}
        start = perf_counter()
        inc = IncrementalAnalysis(order_mode="commit")
        level = None
        for i, chunk in enumerate(inputs.chunks):
            t0 = perf_counter()
            inc.add_all(chunk)
            level = inc.strongest_level()
            latencies[i] = (perf_counter() - t0) * 1000.0
        wall = perf_counter() - start
        return Run(
            wall_s=wall,
            attempted=inputs.events,
            aborted=0,
            committed=inputs.committed,
            events=inputs.events,
            latencies_ms=latencies,
            digest=f"{level}/{inc.edges_inserted}",
            facts={
                "monitor_edges": inc.edges_inserted,
                "monitor_events": inc.events_consumed,
            },
        )

    def check(self, inputs: CheckerInputs, runs: List[Run]) -> None:
        """Every pass must end where the batch checker does on the same
        stream.  The stream is valid by construction, so the batch
        history skips validation."""
        report = check(
            History(chain.from_iterable(inputs.chunks), validate=False)
        )
        expected = f"{report.strongest_level}/{len(report.analysis.edges)}"
        for run in runs:
            if run.digest != expected:
                run.problems.append(
                    f"incremental level/edges {run.digest} != batch "
                    f"check {expected}"
                )

    def core_bytes(self, inputs: CheckerInputs) -> Tuple[int, int]:
        """(bytes held by ``repro.core`` allocations, events ingested)
        after a prefix of the stream."""
        tracemalloc.start()
        try:
            inc = IncrementalAnalysis(order_mode="commit")
            for chunk in inputs.chunks[: self.probe_chunks]:
                inc.add_all(chunk)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        return _held(snapshot), inc.events_consumed


def _held(snapshot) -> int:
    core = snapshot.filter_traces([tracemalloc.Filter(True, CORE_FILES)])
    return sum(stat.size for stat in core.statistics("filename"))


# ----------------------------------------------------------------------
# the stress workloads
# ----------------------------------------------------------------------


@dataclass
class StressInputs:
    #: One config per sub-seed.
    configs: List[StressConfig]
    #: Open loop only: the arrival schedule ``run_stress`` will derive
    #: from each config.
    schedules: Optional[List[List[int]]] = None


class _StressWorkload:
    """Shared driver for the three ``run_stress`` workloads.  Run ``i`` is
    one ``run_stress`` call on sub-seed ``i % sub_seeds``'s config, cluster
    construction included (users pay for it on every run)."""

    name = ""
    observed = False
    sub_seeds = SUB_SEEDS
    calibrated = True

    def config(self, seed: int) -> StressConfig:
        raise NotImplementedError

    def warm_config(self, config: StressConfig) -> StressConfig:
        return replace(config, txns_per_client=10)

    def setup(self, seed: int) -> StressInputs:
        return StressInputs([
            self.config(seed * 1000 + j) for j in range(self.sub_seeds)
        ])

    def warm_up(self, inputs: StressInputs) -> None:
        self._run_stress(self.warm_config(inputs.configs[0]))

    def _run_stress(self, config: StressConfig):
        # Looked up on the module at call time, so the traced pass's
        # wrapper around ``run_stress`` is the one that runs.
        if not self.observed:
            return stress_module.run_stress(config)
        return stress_module.run_stress(
            config,
            metrics=MetricsRegistry(),
            tracer=Tracer(),
            flight=FlightRecorder(),
        )

    def run(self, inputs: StressInputs, index: int = 0) -> Run:
        j = index % len(inputs.configs)
        start = perf_counter()
        result = self._run_stress(inputs.configs[j])
        wall = perf_counter() - start
        history = result.history
        setup_tids = history.setup_tids
        attempted = self.attempted(result)
        run = Run(
            wall_s=wall,
            attempted=attempted,
            aborted=attempted - result.committed,
            committed=result.committed,
            events=len(history.events),
            latencies_ms={j: wall * 1000.0},
            digest=_digest(result.history_text),
            facts={
                "monitor_edges": result.monitor.edges_inserted,
                "monitor_events": result.monitor.events_consumed,
                "engine_txns": len(set(history.tids) - setup_tids),
                "engine_commits": len(history.committed - setup_tids),
                "msgs": result.network_counters["sent"],
                "retries": result.client_stats["retries"],
                "reads": len(history.reads),
                "replica_reads": result.server_counters.get(
                    "replica_serves", 0
                ),
                "records": (
                    len(result.tracer.records) if result.tracer else 0
                ),
                "commit_ticks_p99": result.latency_percentile(99) or 0,
            },
            input_id=j,
        )
        if not result.all_certified:
            run.problems.append("a committed transaction failed certification")
        self.check_result(inputs, result, run)
        return run

    def attempted(self, result) -> int:
        # Closed loop: every attempt either committed or aborted and was
        # retried by the client.
        return result.committed + result.client_aborts

    def check_result(self, inputs: StressInputs, result, run: Run) -> None:
        if result.committed != result.offered:
            run.problems.append(
                f"committed {result.committed} of {result.offered} offered"
            )

    def check(self, inputs: StressInputs, runs: List[Run]) -> None:
        first: Dict[int, str] = {}
        for run in runs:
            if first.setdefault(run.input_id, run.digest) != run.digest:
                run.problems.append("history digest differs across repeats")

    def core_bytes(self, inputs: StressInputs) -> Tuple[int, int]:
        """(bytes held by ``repro.core`` allocations, events the monitor
        ingested) at the end of one run, result still alive."""
        tracemalloc.start()
        try:
            result = self._run_stress(inputs.configs[0])
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        return _held(snapshot), result.monitor.events_consumed


class ClusterReplicated(_StressWorkload):
    """Closed-loop run on a 2-shard, 2-replica cluster, all sinks off."""

    name = "cluster_replicated"

    def __init__(self, txns_per_client: int = 50) -> None:
        self.txns_per_client = txns_per_client

    def config(self, seed: int) -> StressConfig:
        return StressConfig(
            scheduler="locking",
            level="PL-2",
            clients=4,
            txns_per_client=self.txns_per_client,
            keys=64,
            ops_per_txn=4,
            seed=seed,
            network=NetworkConfig(
                drop=0.05, duplicate=0.05, min_delay=1, max_delay=3
            ),
            cluster=ClusterConfig(
                shards=2,
                replicas=2,
                replication_every=12,
                replication_lag=(4, 10),
            ),
            read_preference="replica",
            read_only_fraction=0.5,
        )


class ClusterObserved(ClusterReplicated):
    """``cluster_replicated`` with metrics, tracer and flight recorder."""

    name = "cluster_observed"
    observed = True

    def check(self, inputs: StressInputs, runs: List[Run]) -> None:
        super().check(inputs, runs)
        bare = {
            j: _digest(stress_module.run_stress(inputs.configs[j]).history_text)
            for j in sorted({run.input_id for run in runs})
        }
        for run in runs:
            if run.digest != bare[run.input_id]:
                run.problems.append(
                    "observed history differs from the sinks-off history"
                )


class ServerOpenLoop(_StressWorkload):
    """Open-loop Poisson arrivals against one snapshot-isolation server."""

    name = "server_open_loop"
    #: Just below where the backlog starts to grow for this shape.
    rate = 0.2

    def __init__(self, horizon: int = 3_000) -> None:
        self.horizon = horizon

    def config(self, seed: int) -> StressConfig:
        return StressConfig(
            scheduler="snapshot-isolation",
            clients=8,
            keys=256,
            ops_per_txn=2,
            seed=seed,
            network=NetworkConfig(min_delay=1, max_delay=2),
            arrivals=PoissonArrivals(rate=self.rate),
            horizon=self.horizon,
            hot_keys=ZipfianKeys(256, theta=0.99),
            admission=AdmissionConfig(max_active=4),
            read_only_fraction=0.5,
        )

    def warm_config(self, config: StressConfig) -> StressConfig:
        return replace(config, horizon=500)

    def setup(self, seed: int) -> StressInputs:
        inputs = super().setup(seed)
        # run_stress draws the schedule from this derived seed.
        inputs.schedules = [
            config.arrivals.schedule(
                horizon=config.horizon, seed=config.seed * 8191 + 3
            )
            for config in inputs.configs
        ]
        return inputs

    def attempted(self, result) -> int:
        # Open loop: each arrival is served at most once, never retried.
        return result.offered

    def check_result(self, inputs: StressInputs, result, run: Run) -> None:
        scheduled = len(inputs.schedules[run.input_id])
        if result.offered != scheduled:
            run.problems.append(
                f"offered {result.offered} != {scheduled} scheduled arrivals"
            )


WORKLOADS = {
    w.name: w
    for w in (CheckerIngest, ClusterReplicated, ClusterObserved, ServerOpenLoop)
}
