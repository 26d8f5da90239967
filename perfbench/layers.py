"""Layer attribution for the benchmark's traced pass.

The traced pass wraps the public entry points of the five layers (see
:func:`entry_points`) from outside the program: each wrapper records one span
(name, layer, start, end, parent) in memory around the original call.  A
layer's self time is its spans' durations minus the time their child spans
cover.  ``Tracing.uninstall`` puts every original attribute back, so an
untraced run after a traced one executes exactly the program's own code.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from types import FunctionType
from typing import Dict, List, Tuple

LAYERS = ("core", "engine", "service", "cluster", "observability")

#: Span names whose durations make ``core.query_ms_p99``.
QUERY_SPANS = (
    "IncrementalAnalysis.strongest_level",
    "IncrementalAnalysis.exhibits",
)
#: Span names whose calls are counted per traced run.
COUNTED_SPANS = (
    "PendingCall.poll",
    "Coordinator.handle",
    "ReplicaServer.apply",
)


def _subclasses(cls) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _public_methods(cls) -> Tuple[str, ...]:
    return tuple(
        name for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, FunctionType)
    )


def entry_points() -> List[Tuple[object, Tuple[str, ...], str]]:
    """``(owner, attribute names, layer)`` for every wrapped entry point.

    Owners are the concrete classes that run, subclass overrides included:
    only names an owner defines itself are wrapped, so ``ShardServer.handle``
    counts as ``cluster`` and the ``Server.handle`` it delegates to counts
    as ``service``.
    """
    import repro.engine  # noqa: F401  (registers every scheduler subclass)
    from repro.core.incremental import IncrementalAnalysis
    from repro.engine.recorder import HistoryRecorder
    from repro.engine.scheduler import Scheduler
    from repro.observability import flight, metrics, trace, windows
    from repro.service import (
        client, cluster, coordinator, network, replication, server, stress,
    )

    points: List[Tuple[object, Tuple[str, ...], str]] = [
        (
            IncrementalAnalysis,
            ("add", "add_all", "strongest_level", "exhibits"),
            "core",
        ),
    ]
    for cls in [Scheduler, *_subclasses(Scheduler)]:
        points.append(
            (cls, ("on_begin", "read", "write", "commit", "abort"), "engine")
        )
    points += [
        (HistoryRecorder, _public_methods(HistoryRecorder), "engine"),
        (stress, ("run_stress",), "service"),
        (
            network.SimulatedNetwork,
            ("send", "drain_due", "step", "timer"),
            "service",
        ),
        (client.PendingCall, ("poll",), "service"),
        (client.Client, ("submit",), "service"),
        (server.Server, ("handle",), "service"),
        (cluster.ShardServer, ("handle",), "cluster"),
        (coordinator.Coordinator, ("handle",), "cluster"),
        (replication.ReplicaServer, ("handle", "apply"), "cluster"),
        (cluster.Cluster, ("tick", "certify", "settle"), "cluster"),
        (cluster.GlobalCertifier, ("feed",), "cluster"),
        (trace.Tracer, ("span", "event"), "observability"),
        (trace.Span, ("end",), "observability"),
        (metrics.Counter, ("inc",), "observability"),
        (metrics._BoundCounter, ("inc",), "observability"),
        (metrics.Gauge, ("set", "inc"), "observability"),
        (metrics.Histogram, ("observe",), "observability"),
        (
            flight.FlightRecorder,
            ("on_phenomenon", "check_slos"),
            "observability",
        ),
        (
            windows.WindowedTelemetry,
            tuple(n for n in vars(windows.WindowedTelemetry)
                  if n.startswith("observe_")),
            "observability",
        ),
    ]
    return points


class Spans:
    """Spans of one traced run, as parallel lists (index = span id)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[int] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.open: List[int] = []

    def self_times(self) -> List[float]:
        """Seconds of self time per layer (indexed like ``LAYERS``)."""
        out = [0.0] * len(LAYERS)
        layers, parents = self.layers, self.parents
        for i, (start, end) in enumerate(zip(self.starts, self.ends)):
            duration = end - start
            out[layers[i]] += duration
            parent = parents[i]
            if parent >= 0:
                out[layers[parent]] -= duration
        return out

    def entries(self) -> List[int]:
        """Calls into each layer from outside it (nested same-layer
        calls, such as a ``super()`` chain, count once)."""
        out = [0] * len(LAYERS)
        layers, parents = self.layers, self.parents
        for i, layer in enumerate(layers):
            parent = parents[i]
            if parent < 0 or layers[parent] != layer:
                out[layer] += 1
        return out

    def write_csv(self, path: str) -> None:
        """One line per span: id, parent, layer, name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,layer,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{i},{self.parents[i]},{LAYERS[self.layers[i]]},{name},"
                    f"{self.starts[i]:.9f},{self.ends[i]:.9f}\n"
                )


def _wrap(fn, name: str, layer: int, spans: Spans):
    names, layers, parents = spans.names, spans.layers, spans.parents
    starts, ends, stack = spans.starts, spans.ends, spans.open

    def traced(*args, **kwargs):
        i = len(names)
        names.append(name)
        layers.append(layer)
        parents.append(stack[-1] if stack else -1)
        ends.append(0.0)
        stack.append(i)
        starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[i] = perf_counter()
            stack.pop()

    traced.__wrapped__ = fn
    return traced


class Tracing:
    """Installs span-recording wrappers on every entry point, recording
    into a fresh :class:`Spans` each time, and removes them again."""

    def __init__(self) -> None:
        self.points = entry_points()
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> Spans:
        if self._saved:
            raise RuntimeError("tracing wrappers are already installed")
        spans = Spans()
        for owner, names, layer in self.points:
            own = vars(owner)
            for name in names:
                if name not in own:
                    continue
                original = own[name]
                if not isinstance(original, FunctionType):
                    continue
                label = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
                setattr(
                    owner, name,
                    _wrap(original, label, LAYERS.index(layer), spans),
                )
                self._saved.append((owner, name, original))
        return spans

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        saved, self._saved = self._saved, []
        leftover = [
            f"{owner}.{name}" for owner, name, original in saved
            if vars(owner)[name] is not original
        ]
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")


def summarize(spans: Spans, wall_s: float) -> Dict[str, object]:
    """Per-layer self seconds, their shares of ``wall_s``, calls into each
    layer, counts of ``COUNTED_SPANS`` and durations of ``QUERY_SPANS``."""
    self_s = spans.self_times()
    return {
        "self_s": dict(zip(LAYERS, self_s)),
        "share": {
            layer: (s / wall_s if wall_s > 0 else 0.0)
            for layer, s in zip(LAYERS, self_s)
        },
        "calls": dict(zip(LAYERS, spans.entries())),
        "counted": Counter(n for n in spans.names if n in COUNTED_SPANS),
        "query_s": [
            end - start
            for name, start, end in zip(spans.names, spans.starts, spans.ends)
            if name in QUERY_SPANS
        ],
    }
