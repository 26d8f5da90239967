"""The array-backed hot path against definitional oracles.

The array core (interned ids, flat event logs, batched incremental
ingestion) is a pure performance design: no verdict, witness, index or
ordering may differ from what the paper's definitions give.  These
properties pin that down three ways:

* ``History`` builds exactly the indexes and version orders of
  :class:`ObjectPathHistory`, a reference kept in this module that derives
  each one by plain ``isinstance`` scans over the event objects;
* full ``check`` reports agree whether the version order is inferred by
  ``History`` or supplied from that reference: every phenomenon,
  per-level verdict and the strongest level;
* the incremental analysis's batch path (``add_all``) replays exactly like
  the one-event-at-a-time path, and the incremental core agrees with the
  batch checker: same edges, same phenomena, same witness cycles —
  including histories with predicate reads and aborted transactions.
"""

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.checker import check
from repro.core.canonical import ALL_CANONICAL
from repro.core.events import Abort, Begin, Commit, PredicateRead, Read, Write
from repro.core.history import History
from repro.core.incremental import IncrementalAnalysis
from repro.core.levels import ANSI_CHAIN
from repro.core.objects import Version, relation_of
from repro.core.phenomena import Phenomenon
from repro.exceptions import VersionOrderError
from repro.observability.provenance import witness_cycle
from repro.workloads.generator import synthetic_history

#: Richer than test_properties' strategy on purpose: predicate reads and
#: aborts on by default, since those paths carry the trickiest state
#: (version sets, setup versions, G1a/G1b bookkeeping).
history_params = st.fixed_dictionaries(
    {
        "n_txns": st.integers(min_value=1, max_value=25),
        "n_objects": st.integers(min_value=1, max_value=8),
        "ops_per_txn": st.integers(min_value=1, max_value=6),
        "write_fraction": st.floats(min_value=0.0, max_value=1.0),
        "abort_fraction": st.floats(min_value=0.0, max_value=0.5),
        "stale_read_fraction": st.floats(min_value=0.0, max_value=1.0),
        "predicate_fraction": st.floats(min_value=0.0, max_value=0.5),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)


class ObjectPathHistory:
    """Reference indexes of a history, computed straight from the event
    objects with ``isinstance`` scans (no interning, no kind codes).
    ``_build_order`` is the object-path version-order builder ``History``
    used before its indexes moved onto the flat event log."""

    def __init__(self, events, supplied=None):
        self.events = tuple(events)
        self.tids = tuple(dict.fromkeys(ev.tid for ev in self.events))
        self.committed = frozenset(
            ev.tid for ev in self.events if isinstance(ev, Commit)
        )
        self.aborted = frozenset(
            ev.tid for ev in self.events if isinstance(ev, Abort)
        )
        self.writes = {
            ev.version: ev for ev in self.events if isinstance(ev, Write)
        }
        self.reads = tuple(
            (i, ev) for i, ev in enumerate(self.events) if isinstance(ev, Read)
        )
        self.predicate_reads = tuple(
            (i, ev)
            for i, ev in enumerate(self.events)
            if isinstance(ev, PredicateRead)
        )
        self._all_objects = tuple(dict.fromkeys(
            obj
            for ev in self.events
            for obj in (
                (ev.version.obj,) if isinstance(ev, (Read, Write))
                else ev.vset.objects() if isinstance(ev, PredicateRead)
                else ()
            )
        ))
        self._event_positions = {}
        for i, ev in enumerate(self.events):
            slot = self._event_positions.setdefault(ev.tid, {})
            slot.setdefault("first", i)
            slot["last"] = i
            if isinstance(ev, Begin):
                slot["begin"] = i
            elif isinstance(ev, Commit):
                slot["commit"] = i
            elif isinstance(ev, Abort):
                slot["abort"] = i
        self.version_order = self._build_order(supplied)
        by_relation = {}
        for obj in self._all_objects:
            by_relation.setdefault(relation_of(obj), []).append(obj)
        self.objects_by_relation = {
            rel: tuple(objs) for rel, objs in by_relation.items()
        }
        self.setup_versions = frozenset(
            v
            for chain in self.version_order.values()
            for v in chain
            if not v.is_unborn and v not in self.writes
        )
        self.committed_all = (
            self.committed
            | frozenset(
                v.tid
                for chain in self.version_order.values()
                for v in chain
                if not v.is_unborn
            )
        ) - self.aborted

    def final_version(self, obj: str, tid: int) -> Optional[Version]:
        seqs = [v.seq for v in self.writes if v.obj == obj and v.tid == tid]
        return Version(obj, tid, max(seqs)) if seqs else None

    def _build_order(self, supplied):
        order: Dict[str, List[Version]] = {}
        if supplied is not None:
            for obj, versions in supplied.items():
                chain: List[Version] = []
                for v in versions:
                    if v.is_unborn:
                        continue  # the unborn version is implicit
                    if v.obj != obj:
                        raise VersionOrderError(
                            f"version order for {obj!r} contains version of {v.obj!r}"
                        )
                    chain.append(v)
                order[obj] = chain
        # Objects not covered by an explicit order default to the order of
        # the committed transactions' final write events.
        for ev in self.events:
            if isinstance(ev, Write) and ev.tid in self.committed:
                obj = ev.version.obj
                if supplied is not None and obj in supplied:
                    continue
                v = self.final_version(obj, ev.tid)
                if v == ev.version:
                    order.setdefault(obj, []).append(v)
        # Every object mentioned anywhere gets an order entry so lookups are
        # uniform, and *setup versions* — versions that are read (directly or
        # in a version set) but never written by any event, representing the
        # paper's implicit initial database state (e.g. ``x0`` in
        # ``H_phantom``, or ``y0`` in ``H_pred-read`` where T0 has events but
        # no write of ``y``) — are installed right after the unborn version.
        setup: Dict[str, List[Version]] = {}
        written = {ev.version for ev in self.events if isinstance(ev, Write)}

        def note(version: Version) -> None:
            obj = version.obj
            chain = order.setdefault(obj, [])
            if (
                not version.is_unborn
                and version not in written
                and version not in chain
                and version not in setup.get(obj, ())
            ):
                setup.setdefault(obj, []).append(version)

        for ev in self.events:
            if isinstance(ev, (Read, Write)):
                order.setdefault(ev.version.obj, [])
                if isinstance(ev, Read):
                    note(ev.version)
            elif isinstance(ev, PredicateRead):
                for v in ev.vset.versions():
                    note(v)
        return {
            obj: (Version.unborn(obj),) + tuple(setup.get(obj, ())) + tuple(chain)
            for obj, chain in order.items()
        }


def history_and_oracle(params) -> Tuple[History, ObjectPathHistory]:
    h = synthetic_history(**params)
    history = History(h.events, default_level=h.default_level, validate=False)
    return history, ObjectPathHistory(h.events)


# ----------------------------------------------------------------------
# History index equivalence
# ----------------------------------------------------------------------


def assert_indexes_match(history: History, oracle: ObjectPathHistory) -> None:
    assert history.version_order == oracle.version_order
    assert history.tids == oracle.tids
    assert history.committed == oracle.committed
    assert history.aborted == oracle.aborted
    assert history.writes == oracle.writes
    assert history.reads == oracle.reads
    assert history.predicate_reads == oracle.predicate_reads
    assert history._all_objects == oracle._all_objects
    assert history.objects_by_relation == oracle.objects_by_relation
    assert history._event_positions == oracle._event_positions
    assert history.setup_versions == oracle.setup_versions
    assert history.committed_all == oracle.committed_all
    for (obj, tid) in {(v.obj, v.tid) for v in oracle.writes}:
        assert history.final_version(obj, tid) == oracle.final_version(obj, tid)


@given(history_params)
@settings(max_examples=60, deadline=None)
def test_history_indexes_identical(params):
    assert_indexes_match(*history_and_oracle(params))


@pytest.mark.parametrize("canonical", ALL_CANONICAL, ids=lambda c: c.name)
def test_paper_history_indexes_identical(canonical):
    """The paper's histories cover what the generator never emits: setup
    versions (``x0`` read but never written, as in ``H_phantom``) and
    explicit version orders (``H_write-order``)."""
    parsed = canonical.history
    events = parsed.events
    assert_indexes_match(
        History(events, validate=False), ObjectPathHistory(events)
    )
    assert_indexes_match(
        History(events, parsed.version_order, validate=False),
        ObjectPathHistory(events, parsed.version_order),
    )


@given(history_params)
@settings(max_examples=30, deadline=None)
def test_check_reports_identical(params):
    history, oracle = history_and_oracle(params)
    supplied = History(
        history.events,
        oracle.version_order,
        default_level=history.default_level,
        validate=False,
    )
    assert supplied.version_order == oracle.version_order
    r1 = check(history, extensions=True)
    r2 = check(supplied, extensions=True)
    assert {
        (str(item.phenomenon), item.present) for item in r1.phenomena()
    } == {(str(item.phenomenon), item.present) for item in r2.phenomena()}
    assert {
        level: verdict.ok for level, verdict in r1.verdicts.items()
    } == {level: verdict.ok for level, verdict in r2.verdicts.items()}
    assert r1.strongest_level == r2.strongest_level


# ----------------------------------------------------------------------
# Incremental batch-path equivalence
# ----------------------------------------------------------------------

_CYCLE_PHENOMENA = (
    Phenomenon.G0,
    Phenomenon.G1C,
    Phenomenon.G2_ITEM,
    Phenomenon.G2,
)

#: The phenomena the incremental core maintains online (extension
#: phenomena like G-single require materialising the full history).
_INCREMENTAL_PHENOMENA = _CYCLE_PHENOMENA + (
    Phenomenon.G1A,
    Phenomenon.G1B,
    Phenomenon.G1,
)


@given(history_params)
@settings(max_examples=40, deadline=None)
def test_batch_add_all_matches_per_event_add(params):
    h = synthetic_history(**params)
    one = IncrementalAnalysis(order_mode="commit")
    for ev in h.events:
        one.add(ev)
    batch = IncrementalAnalysis(order_mode="commit").add_all(h.events)
    assert set(batch.edges) == set(one.edges)
    for ph in _INCREMENTAL_PHENOMENA:
        assert batch.exhibits(ph) == one.exhibits(ph), str(ph)
    assert batch.strongest_level() == one.strongest_level()
    for level in ANSI_CHAIN:
        assert batch.provides(level) == one.provides(level)


@given(history_params)
@settings(max_examples=30, deadline=None)
def test_incremental_matches_batch_checker(params):
    """The interned incremental core against the batch checker: identical
    phenomena and level verdicts."""
    h = synthetic_history(**params)
    history = History(h.events, default_level=h.default_level, validate=False)
    # order_mode="event" keys installs like the batch path's inferred
    # version order; "commit" is a different (also valid) order and may
    # legitimately disagree on cycle phenomena.
    report = check(history)
    inc = IncrementalAnalysis(order_mode="event").add_all(h.events)
    for item in report.phenomena():
        assert inc.exhibits(item.phenomenon) == item.present, str(item.phenomenon)
    for level in ANSI_CHAIN:
        assert inc.provides(level) == report.ok(level)


@given(history_params)
@settings(max_examples=25, deadline=None)
def test_batch_witness_cycles_are_valid(params):
    """Whenever the batch path latches a cycle phenomenon, its witness is a
    real chained cycle drawn from the analysis's own edges."""
    h = synthetic_history(**params)
    inc = IncrementalAnalysis(order_mode="commit").add_all(h.events)
    for ph in _CYCLE_PHENOMENA:
        if not inc.exhibits(ph):
            assert witness_cycle(inc, ph) is None
            continue
        cycle = witness_cycle(inc, ph)
        assert cycle, f"{ph} latched but no witness cycle"
        for edge, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            assert edge.dst == nxt.src
        edge_set = set(inc.edges)
        for edge in cycle:
            assert edge in edge_set
