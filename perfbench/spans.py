"""Span recording for the traced benchmark run.

The traced run wraps the public functions of each layer from the
benchmark's own files; no program file changes.  Each wrapped call
records one span: name, start, end, parent span and an optional tag
(ticket seqs for service work).  Spans live in memory on a per-thread
stack, because the service consumer applies batches on its own thread,
and are written out only when the run ends.

A wrapper is installed where the caller looks the name up:
``repro.pipeline.session`` imports ``crepair`` by name, so the wrapper
replaces ``repro.pipeline.session.crepair``; methods are wrapped on
their class.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    """One wrapped call: name, start, end, the span that caused it (on the
    same thread) and an optional tag."""

    __slots__ = ("name", "start", "end", "parent", "tag")

    def __init__(self, name: str, start: float, end: float = 0.0,
                 parent: Optional["Span"] = None, tag: Any = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with one parent stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """*fn* recording a span per call.

        A call nested in a span of the same name records no span of its
        own: its time already counts to the outer one.
        ``before(*args, **kwargs)`` runs inside the span and its return
        value becomes the span's tag; ``after(span, result, *args,
        **kwargs)`` runs once the call returned.
        """
        clock = self.clock
        spans = self.spans
        stack_of = self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            ancestor = parent
            while ancestor is not None:
                if ancestor.name == name:
                    return fn(*args, **kwargs)
                ancestor = ancestor.parent
            record = Span(name, clock(), parent=parent)
            spans.append(record)  # list.append is atomic: threads may share it
            stack.append(record)
            try:
                if before is not None:
                    record.tag = before(*args, **kwargs)
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record.end = clock()
            if after is not None:
                after(record, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> List[Tuple[str, float, float, int, Any]]:
        """The spans as plain tuples (name, start, end, parent index, tag);
        the parent index is -1 for a root span."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            (s.name, s.start, s.end,
             -1 if s.parent is None else index[id(s.parent)], s.tag)
            for s in self.spans
        ]


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the arithmetic holds for any nesting.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out: List[float] = []
    for span in spans:
        covered = 0.0
        cursor = span.start
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(id(span), ())
        )
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


@dataclass
class LayerCounts:
    """Counts taken at the layer boundaries while tracing."""

    lookups: int = 0
    md_indexes: Dict[int, Any] = field(default_factory=dict)
    cache_sizes: Dict[int, int] = field(default_factory=dict)
    fixes: Dict[str, int] = field(
        default_factory=lambda: {"deterministic": 0, "reliable": 0, "possible": 0}
    )
    clean_checks: int = 0
    clone_calls: int = 0
    applies: List[Tuple[float, bool, int]] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    checkpoint_bytes: int = 0


@contextlib.contextmanager
def traced(
    recorder: SpanRecorder, counts: Optional[LayerCounts] = None
) -> Iterator[LayerCounts]:
    """Install the layer wrappers for the duration of the block; counts
    accumulate into *counts* (a fresh one when omitted)."""
    from repro.indexing.blocking import MDBlockingIndex
    from repro.indexing.group_store import GroupStoreRegistry
    from repro.indexing.violation_index import ViolationIndex
    from repro.pipeline import service as service_mod
    from repro.pipeline import session as session_mod
    from repro.pipeline import sharding as sharding_mod
    from repro.pipeline import snapshot as snapshot_mod
    from repro.relational.relation import Relation

    counts = counts if counts is not None else LayerCounts()

    def on_clone(span, result, *args, **kwargs):
        counts.clone_calls += 1

    def on_lookup(index, *args, **kwargs):
        counts.lookups += 1
        if id(index) not in counts.md_indexes:
            # The match cache is keyed by premise projection: its growth
            # counts the distinct probes.
            counts.md_indexes[id(index)] = index
            counts.cache_sizes[id(index)] = len(index._match_cache)

    def on_phase(kind):
        attr = f"{kind}_fixes"

        def after(span, result, *args, **kwargs):
            counts.fixes[kind] += getattr(result, attr)

        return after

    def on_verify(span, result, *args, **kwargs):
        counts.clean_checks += 1

    def on_apply(span, result, *args, **kwargs):
        # A sharded session running shards in-process nests their applies
        # in its own, which records the user-visible one.
        if result is not None:
            counts.applies.append(
                (span.duration, bool(result.full_reclean), result.affected_cells)
            )

    def on_batch_start(service, tenant, tickets, *args, **kwargs):
        now = time.monotonic()
        counts.queue_waits.extend(now - t.submitted_at for t in tickets)
        return [t.seq for t in tickets]

    def on_checkpoint(span, result, *args, **kwargs):
        counts.checkpoint_bytes += sum(
            p.stat().st_size for p in result.rglob("*") if p.is_file()
        )

    def submit_seq(span, result, *args, **kwargs):
        span.tag = result.seq

    targets = [
        (Relation, "clone", "relational.clone", None, on_clone),
        (GroupStoreRegistry, "ensure_rules", "indexing.group_store", None, None),
        (ViolationIndex, "__init__", "indexing.violation_index", None, None),
        (session_mod, "build_md_indexes", "indexing.md_index", None, None),
        (session_mod, "crepair", "core.crepair", None, on_phase("deterministic")),
        (session_mod, "erepair", "core.erepair", None, on_phase("reliable")),
        (session_mod, "hrepair", "core.hrepair", None, on_phase("possible")),
        (session_mod, "relation_is_clean", "analysis.verify", None, on_verify),
        (session_mod.CleaningSession, "apply", "session.apply", None, on_apply),
        (sharding_mod.ShardedCleaningSession, "apply_many", "session.apply",
         None, on_apply),
        (service_mod.CleaningService, "submit", "service.submit", None, submit_seq),
        (service_mod.CleaningService, "_apply_batch", "service.batch",
         on_batch_start, None),
        (snapshot_mod, "save_checkpoint", "snapshot.checkpoint", None, on_checkpoint),
    ]
    for method in ("find_match", "matches", "cached_matches", "cached_find_match"):
        targets.append((MDBlockingIndex, method, "matching.lookup", on_lookup, None))

    originals = []
    try:
        for owner, attr, name, before, after in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, before, after))
        yield counts
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
