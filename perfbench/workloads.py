"""The four benchmark workloads.

Every workload generates its inputs from the seed, hands them to the
program, times the operations untraced, and checks the outputs outside
the timed region.  ``run(name, seed, seconds, trace)`` returns an
:class:`Outcome`; with ``trace`` set it instead runs a fixed amount of
the same work under the layer wrappers of :mod:`spans` and fills in the
per-layer metrics.

* ``clean_part`` — one-shot ``CleaningSession.clean()`` of PART: ingest,
  group-store/index build and the repair kernels; MD matching is cheap
  equality lookups.
* ``clean_dblp`` — one-shot clean of DBLP: eRepair's similarity MDs
  dominate, so this is the matching layer's workload.
* ``serve_part`` — an open loop from one generator thread against
  ``CleaningService`` over a 2-worker ``ShardedCleaningSession``:
  catalog writes and snapshot reads at fixed rates, then a burst.
* ``churn_part`` — a closed loop of ``CleaningSession.apply`` over a
  fixed op cycle that drives the full-replay fallback.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import measure
import spans

from repro.datasets.dblp import generate_dblp
from repro.datasets.generator import derive_rng, derive_seed
from repro.datasets.partitioned import generate_partitioned
from repro.evaluation.metrics import repair_metrics
from repro.pipeline import (
    Changeset,
    CleaningService,
    CleaningSession,
    ShardedCleaningSession,
)

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Rounds of timed cleans per run, at least (more while ``--seconds``
#: lasts).
MIN_ROUNDS = 3

_CATS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
_PREMISE_ATTRS = ("site", "name", "city", "zip")


@dataclass(frozen=True)
class Params:
    """Input sizes and traffic shape; ``DEFAULTS`` holds the benchmark's
    own, tests shrink them."""

    rows: int
    blocks: int = 1
    master_rows: int = 0
    noise: float = 0.04
    n_workers: int = 2
    n_shards: int = 8
    write_rate: float = 20.0
    read_rate: float = 1.0
    burst: int = 256
    trace_applies: int = 15
    inputs: int = 1
    setups: int = SETUP_REPEATS


DEFAULTS: Dict[str, Params] = {
    "clean_part": Params(rows=20_000, blocks=64),
    "clean_dblp": Params(rows=1_000, master_rows=500, noise=0.06, inputs=4),
    "serve_part": Params(rows=20_000, blocks=64),
    "churn_part": Params(rows=5_000, blocks=16, setups=5),
}


@dataclass
class Outcome:
    """What one run reports."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    info: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: The traced run's spans, as written out when the run ends.
    spans: List[Tuple] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.correct = False
            self.problems.append(problem)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = measure.metric(value, unit)


# ----------------------------------------------------------------------
# Inputs and output checks
# ----------------------------------------------------------------------
def make_dataset(name: str, params: Params, seed: int):
    if name == "clean_dblp":
        return generate_dblp(
            size=params.rows, master_size=params.master_rows,
            noise_rate=params.noise, seed=seed,
        )
    return generate_partitioned(
        size=params.rows, n_blocks=params.blocks,
        noise_rate=params.noise, seed=seed,
    )


def new_session(ds) -> CleaningSession:
    return CleaningSession(cfds=ds.cfds, mds=ds.mds, master=ds.master)


def fingerprint(relation) -> Tuple:
    """Tids, typed values and confidences in tid order — equal
    fingerprints mean byte-identical relations."""
    names = relation.schema.names
    return tuple(
        (
            tid,
            tuple((type(t[a]).__name__, t[a], t.conf(a)) for a in names),
        )
        for tid in sorted(relation.tids())
        for t in (relation.by_tid(tid),)
    )


def fix_fingerprint(log) -> Tuple:
    return tuple(
        (f.kind.value, f.rule_name, f.tid, f.attr, f.old_value, f.new_value,
         f.source)
        for f in log
    )


def quality(ds, repaired) -> Tuple[float, float]:
    m = repair_metrics(ds.dirty, repaired, ds.clean)
    return m.precision, m.recall


def timed_reference_clean(ds, base):
    """A fresh one-shot clean of *base* — the exactness oracle for the
    session workloads — and its wall time."""
    session = new_session(ds)
    started = time.perf_counter()
    result = session.clean(base)
    elapsed = time.perf_counter() - started
    session.close()
    return result, elapsed


def check_exact(out: Outcome, session, ref_result, verdict: bool) -> None:
    """The session's working state must equal a fresh clean of its final
    base: relation, verdict and the fixes made.  The fix log's order is
    not compared: a scoped apply splices its fixes into the old log."""
    out.check(
        fingerprint(session.working) == fingerprint(ref_result.repaired),
        "working relation differs from a fresh clean of the final base",
    )
    out.check(
        sorted(fix_fingerprint(session.fix_log), key=repr)
        == sorted(fix_fingerprint(ref_result.fix_log), key=repr),
        "fixes differ from those of a fresh clean of the final base",
    )
    out.check(
        verdict == ref_result.clean,
        "clean verdict differs from a fresh clean of the final base",
    )


# ----------------------------------------------------------------------
# clean_part / clean_dblp
# ----------------------------------------------------------------------
def clean_inputs(name: str, params: Params, seed: int) -> list:
    """The run's inputs: one, or ``params.inputs`` drawn from sub-seeds so
    one run averages over several inputs."""
    if params.inputs == 1:
        return [make_dataset(name, params, seed)]
    return [
        make_dataset(name, params, derive_seed(seed, name, i))
        for i in range(params.inputs)
    ]


def _clean_once(ds, setups: List[float]):
    """Construct the session (timed ``SETUP_REPEATS`` times, keeping the
    last) and clean; returns the session, result and clean seconds."""
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        session = new_session(ds)
        setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    result = session.clean(ds.dirty)
    return session, result, time.perf_counter() - t0


def run_clean(name: str, params: Params, seed: int, seconds: float,
              trace: bool) -> Outcome:
    inputs = clean_inputs(name, params, seed)
    out = Outcome()
    if trace:
        return _trace_clean(inputs, out)
    setups: List[float] = []
    cleans: List[List[float]] = [[] for _ in inputs]
    expected: List[Any] = [None] * len(inputs)
    scores: List[Tuple[float, float]] = []
    started = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        rounds += 1
        for i, ds in enumerate(inputs):
            out.attempted += 1
            session, result, elapsed = _clean_once(ds, setups)
            cleans[i].append(elapsed)
            got = (fingerprint(result.repaired), fix_fingerprint(result.fix_log))
            if expected[i] is None:
                expected[i] = got
                scores.append(quality(ds, result.repaired))
            out.check(result.clean, "clean() did not end with result.clean")
            out.check(got == expected[i], "repeated clean() of one input differs")
            session.close()
    # Per input: the median clean and its tail; across inputs: their mean.
    clean_s = statistics.fmean(measure.median(c) for c in cleans)
    tails = [measure.tail(c) for c in cleans]
    tail_s = statistics.fmean(t[1] for t in tails)
    precision = statistics.fmean(p for p, _ in scores)
    recall = statistics.fmean(r for _, r in scores)
    total = sum(len(c) for c in cleans)
    out.put("setup_s", measure.median(setups), "s")
    out.put("clean_s", clean_s, "s")
    out.put("op_p50_ms", clean_s * 1e3, "ms")
    out.put("op_tail_ms", tail_s * 1e3, "ms")
    # Cleans per second at the median clean: the median keeps a burst of
    # host noise in one clean from moving the rate.
    out.put("ops_per_s", 1.0 / clean_s, "1/s")
    out.put("repair_precision", precision, "ratio")
    out.put("repair_recall", recall, "ratio")
    out.info.append(
        f"{name}: inputs={len(inputs)} rows={len(inputs[0].dirty)} "
        f"master={len(inputs[0].master)} clean_s={clean_s:.4f} "
        f"(n={total}, tail p{tails[0][0]:.0f}={tail_s:.4f}) "
        f"setup_s={measure.median(setups):.6f} (n={len(setups)}) "
        f"repair_precision={precision:.4f} repair_recall={recall:.4f}"
    )
    return out


def _trace_clean(inputs, out: Outcome) -> Outcome:
    """One untraced and one traced clean per input; the per-layer metrics
    cover the traced ones, the overhead compares the two."""
    plain_s = traced_s = 0.0
    recorder = spans.SpanRecorder()
    counts = spans.LayerCounts()
    for ds in inputs:
        session = new_session(ds)
        t0 = time.perf_counter()
        plain = session.clean(ds.dirty)
        plain_s += time.perf_counter() - t0
        expected = (fingerprint(plain.repaired), fix_fingerprint(plain.fix_log))
        session.close()
        with spans.traced(recorder, counts):
            session = new_session(ds)
            t0 = time.perf_counter()
            result = session.clean(ds.dirty)
            traced_s += time.perf_counter() - t0
        out.attempted += 2
        out.check(result.clean, "clean() did not end with result.clean")
        out.check(
            (fingerprint(result.repaired), fix_fingerprint(result.fix_log))
            == expected,
            "traced clean() differs from the untraced one",
        )
        session.close()
    out.metrics = layer_metrics(recorder, counts)
    out.spans = recorder.dump()
    out.put("bench.trace_overhead", traced_s / plain_s - 1.0, "ratio")
    return out


# ----------------------------------------------------------------------
# serve_part
# ----------------------------------------------------------------------
def catalog_edit(rng: random.Random, tid: int) -> Changeset:
    if rng.random() < 0.5:
        return Changeset().edit(tid, "cat", _CATS[rng.randrange(len(_CATS))])
    return Changeset().edit(tid, "score", str(rng.randrange(5, 100)))


def serve_schedule(params: Params, seconds: float, tids, seed: int):
    """The open-loop plan, a pure function of the seed: due offsets of
    writes and reads merged in due order, then the burst's writes."""
    rng = derive_rng(seed, "serve")
    events: List[Tuple[float, str, Any]] = []
    n_writes = int(seconds * params.write_rate)
    n_reads = int(seconds * params.read_rate)
    for i in range(n_writes):
        tid = tids[rng.randrange(len(tids))]
        events.append((i / params.write_rate, "write", catalog_edit(rng, tid)))
    for j in range(n_reads):
        tid = tids[rng.randrange(len(tids))]
        events.append(((j + 0.5) / params.read_rate, "read", tid))
    events.sort(key=lambda e: (e[0], e[1]))
    burst = [
        catalog_edit(rng, tids[rng.randrange(len(tids))])
        for _ in range(params.burst)
    ]
    return events, burst


def _serve_setup(ds, params: Params, checkpoint_dir: Path):
    sharded = ShardedCleaningSession(
        cfds=ds.cfds, mds=ds.mds, master=ds.master,
        n_workers=params.n_workers, n_shards=params.n_shards,
    )
    result = sharded.clean(ds.dirty)
    service = CleaningService()
    service.register("part", sharded, checkpoint_dir=checkpoint_dir)
    return sharded, service, result


def run_serve(name: str, params: Params, seed: int, seconds: float,
              trace: bool) -> Outcome:
    ds = make_dataset(name, params, seed)
    out = Outcome()
    tids = list(ds.dirty.tids())
    events, burst = serve_schedule(params, seconds, tids, seed)
    scratch = _scratch_dir()
    try:
        recorder = spans.SpanRecorder()
        setups: List[float] = []
        repeats = 1 if trace else params.setups
        with (spans.traced(recorder) if trace else contextlib.nullcontext()) as counts:
            for i in range(repeats):
                ckpt = scratch / f"checkpoints-{i}"
                t0 = time.perf_counter()
                sharded, service, first = _serve_setup(ds, params, ckpt)
                setups.append(time.perf_counter() - t0)
                if i < repeats - 1:
                    service.close()
                    shutil.rmtree(ckpt, ignore_errors=True)
            precision, recall = quality(ds, first.repaired)
            stats_before = dict(sharded.stats)
            try:
                loop = _open_loop(service, events, burst)
            finally:
                service.close()
        stats_after = dict(sharded.stats)
        service_stats = service.stats("part")
        out.attempted = loop.writes + loop.reads
        out.failed = loop.write_errors + loop.read_errors
        out.check(out.failed == 0, f"{out.failed} requests failed")
        out.check(
            service_stats["acked"] == loop.writes,
            "not every write was acknowledged",
        )
        # The final base must be the initial input with every write
        # applied in submission order (one tenant: ack order == FIFO).
        expected_base = ds.dirty.clone()
        for _due, kind, payload in events:
            if kind == "write":
                payload.apply_to(expected_base)
        for changeset in burst:
            changeset.apply_to(expected_base)
        out.check(
            fingerprint(sharded.base) == fingerprint(expected_base),
            "final base is not the input with every write applied in order",
        )
        ref_result, clean_s = timed_reference_clean(ds, sharded.base)
        check_exact(out, sharded, ref_result, loop.last_clean)
        if trace:
            out.metrics = serve_layer_metrics(
                recorder, counts, _delta(stats_before, stats_after),
                service_stats, loop.lags,
            )
            out.spans = recorder.dump()
            traced_ref, traced_s = _traced_clean_of(ds, sharded.base)
            out.check(
                fingerprint(traced_ref.repaired) == fingerprint(ref_result.repaired),
                "traced clean() differs from the untraced one",
            )
            out.put("bench.trace_overhead", traced_s / clean_s - 1.0, "ratio")
        else:
            _serve_metrics(out, loop, setups, clean_s, precision, recall,
                           service_stats, ds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()  # only when no other run uses it
    if not out.correct:
        out.failed = out.attempted
    return out


@dataclass
class _Loop:
    writes: int = 0
    reads: int = 0
    write_errors: int = 0
    read_errors: int = 0
    write_lat: List[float] = field(default_factory=list)
    read_lat: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    burst_wps: float = 0.0
    last_clean: Optional[bool] = None


def _open_loop(service: CleaningService, events, burst) -> _Loop:
    """Send every request at its due time from this one thread; time each
    from its due time, so a stall delays (and is charged to) later ones."""
    loop = _Loop()
    pending: List[Tuple[float, Any]] = []
    t0 = time.monotonic() + 0.05
    for offset, kind, payload in events:
        due = t0 + offset
        now = time.monotonic()
        if now < due:
            time.sleep(due - now)
        loop.lags.append(time.monotonic() - due)
        if kind == "write":
            loop.writes += 1
            pending.append((due, service.submit("part", payload)))
        else:
            loop.reads += 1
            try:
                service.query("part", lambda r, tid=payload: r.by_tid(tid)["cat"])
            except Exception:  # a failed read is counted, not fatal
                loop.read_errors += 1
                continue
            loop.read_lat.append(time.monotonic() - due)
    for due, ticket in pending:
        try:
            ticket.result(timeout=120)
        except Exception:
            loop.write_errors += 1
            continue
        loop.write_lat.append(ticket.acked_at - due)
    start = time.monotonic()
    tickets = [service.submit("part", changeset) for changeset in burst]
    loop.writes += len(tickets)
    last = start
    for ticket in tickets:
        try:
            ticket.result(timeout=120)
        except Exception:
            loop.write_errors += 1
            continue
        last = max(last, ticket.acked_at)
        loop.last_clean = ticket.result().clean
    loop.burst_wps = len(tickets) / (last - start) if last > start else 0.0
    return loop


def _serve_metrics(out, loop, setups, clean_s, precision, recall,
                   service_stats, ds) -> None:
    write_p50 = measure.median(loop.write_lat)
    wpct, write_tail, wn = measure.tail(loop.write_lat)
    read_p50 = measure.median(loop.read_lat)
    rpct, read_tail, rn = measure.tail(loop.read_lat)
    lpct, lag_tail, _ = measure.tail(loop.lags)
    cut_share = measure.ratio(service_stats["snapshots_cut"], service_stats["reads"])
    out.put("setup_s", measure.median(setups), "s")
    out.put("clean_s", clean_s, "s")
    out.put("op_p50_ms", write_p50 * 1e3, "ms")
    out.put("op_tail_ms", write_tail * 1e3, "ms")
    out.put("ops_per_s", loop.burst_wps, "1/s")
    out.put("repair_precision", precision, "ratio")
    out.put("repair_recall", recall, "ratio")
    out.info.append(
        f"serve_part: rows={len(ds.dirty)} write_p50_ms={write_p50 * 1e3:.3f} "
        f"write_p{wpct:.1f}_ms={write_tail * 1e3:.3f} (n={wn}) "
        f"read_p50_ms={read_p50 * 1e3:.3f} read_p{rpct:.1f}_ms="
        f"{read_tail * 1e3:.3f} (n={rn}) burst_wps={loop.burst_wps:.2f} "
        f"snapshot_cut_share={cut_share:.3f} batches={service_stats['batches']} "
        f"generator_lag_p{lpct:.1f}_ms={lag_tail * 1e3:.3f} "
        f"worker_peak_rss_mb={measure.children_peak_rss_mb():.1f}"
    )


# ----------------------------------------------------------------------
# churn_part
# ----------------------------------------------------------------------
#: The fixed op cycle: catalog, catalog, premise edit, insert, delete.
CHURN_CYCLE = ("catalog", "catalog", "premise", "insert", "delete")


def churn_op(kind: str, rng: random.Random, base) -> Changeset:
    """One changeset of *kind*, drawn from the live base (the base after
    the previous ops is itself a function of the seed)."""
    tids = base.tids()
    tid = tids[rng.randrange(len(tids))]
    if kind == "catalog":
        return catalog_edit(rng, tid)
    if kind == "delete":
        return Changeset().delete(tid)
    target = base.by_tid(tid)
    if kind == "insert":
        row = target.as_dict()
        row["score"] = str(rng.randrange(5, 100))
        return Changeset().insert(row)
    # premise: copy the value of another tuple of the same block
    attr = _PREMISE_ATTRS[rng.randrange(len(_PREMISE_ATTRS))]
    for _ in range(64):
        donor = base.by_tid(tids[rng.randrange(len(tids))])
        if donor["block"] == target["block"] and donor.tid != tid:
            break
    return Changeset().edit(tid, attr, donor[attr])


def run_churn(name: str, params: Params, seed: int, seconds: float,
              trace: bool) -> Outcome:
    ds = make_dataset(name, params, seed)
    out = Outcome()
    recorder = spans.SpanRecorder()
    setups: List[float] = []
    cleans: List[float] = []
    lat: List[float] = []
    modes: List[bool] = []
    rng = derive_rng(seed, "churn")
    cycle = len(CHURN_CYCLE)
    with (spans.traced(recorder) if trace else contextlib.nullcontext()) as counts:
        session = None
        for _ in range(1 if trace else params.setups):
            if session is not None:
                session.close()
            t0 = time.perf_counter()
            session = new_session(ds)
            t1 = time.perf_counter()
            first = session.clean(ds.dirty)
            t2 = time.perf_counter()
            setups.append(t2 - t0)
            cleans.append(t2 - t1)
        precision, recall = quality(ds, first.repaired)
        started = time.perf_counter()
        # Runs end on a cycle boundary, so every run has the same op mix.
        while len(lat) % cycle or (
            len(lat) < params.trace_applies if trace
            else time.perf_counter() - started < seconds
        ):
            changeset = churn_op(CHURN_CYCLE[len(lat) % cycle], rng, session.base)
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = session.apply(changeset)
            except Exception as exc:  # counted, then the run is failed
                out.failed += 1
                out.check(False, f"apply() raised {exc!r}")
                break
            lat.append(time.perf_counter() - t0)
            modes.append(result.full_reclean)
        elapsed = time.perf_counter() - started
    ref_result, ref_s = timed_reference_clean(ds, session.base)
    cleans.append(ref_s)
    check_exact(out, session, ref_result, session.is_clean())
    if trace:
        out.metrics = layer_metrics(recorder, counts)
        out.spans = recorder.dump()
        traced_ref, traced_s = _traced_clean_of(ds, session.base)
        out.check(
            fingerprint(traced_ref.repaired) == fingerprint(ref_result.repaired),
            "traced clean() differs from the untraced one",
        )
        out.put("bench.trace_overhead", traced_s / ref_s - 1.0, "ratio")
    elif lat:
        # The apply latencies are bimodal (scoped ~ms, full replay ~0.5s),
        # so their median sits near a mode boundary; one pass of the fixed
        # cycle is unimodal and is the workload's operation.
        cycles = [sum(lat[i:i + cycle]) for i in range(0, len(lat), cycle)]
        cpct, cycle_tail, cn = measure.tail(cycles)
        apct, apply_tail, an = measure.tail(lat)
        out.put("setup_s", measure.median(setups), "s")
        out.put("clean_s", measure.median(cleans), "s")
        out.put("op_p50_ms", measure.median(cycles) * 1e3, "ms")
        out.put("op_tail_ms", cycle_tail * 1e3, "ms")
        out.put("ops_per_s", len(lat) / elapsed, "1/s")
        out.put("repair_precision", precision, "ratio")
        out.put("repair_recall", recall, "ratio")
        out.info.append(
            f"churn_part: rows={len(ds.dirty)} applies={len(lat)} "
            f"applies_per_s={len(lat) / elapsed:.3f} "
            f"apply_p50_ms={measure.median(lat) * 1e3:.3f} "
            f"apply_p{apct:.1f}_ms={apply_tail * 1e3:.3f} (n={an}) "
            f"cycle_p50_ms={measure.median(cycles) * 1e3:.3f} "
            f"cycle_p{cpct:.1f}_ms={cycle_tail * 1e3:.3f} (n={cn}) "
            f"full_replays={sum(modes)}/{len(modes)}"
        )
    if not out.correct:
        out.failed = out.attempted
    return out


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _traced_clean_of(ds, base):
    recorder = spans.SpanRecorder()
    with spans.traced(recorder):
        return timed_reference_clean(ds, base)


def _delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


def layer_metrics(
    recorder: spans.SpanRecorder, counts: spans.LayerCounts
) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics every workload reports, zero where the
    workload never reaches the layer."""
    own = spans.self_time_by_name(recorder.spans)
    m: Dict[str, Dict[str, Any]] = {}

    def put(name, value, unit):
        m[name] = measure.metric(value, unit)

    put("relational.clone_s", own.get("relational.clone", 0.0), "s")
    put("relational.clone_calls", counts.clone_calls, "count")
    put("indexing.group_store_s", own.get("indexing.group_store", 0.0), "s")
    put("indexing.violation_index_s", own.get("indexing.violation_index", 0.0), "s")
    put("indexing.md_index_s", own.get("indexing.md_index", 0.0), "s")

    indexes = counts.md_indexes.values()
    candidates = sum(i.stats["candidates"] for i in indexes)
    verifies = sum(i.verify_calls for i in indexes)
    put("matching.lookup_s", own.get("matching.lookup", 0.0), "s")
    put("matching.lookups", counts.lookups, "count")
    put("matching.candidates", candidates, "count")
    put("matching.verify_calls", verifies, "count")
    put("matching.verify_per_lookup", measure.ratio(verifies, counts.lookups), "ratio")
    probes = sum(
        len(i._match_cache) - counts.cache_sizes[key]
        for key, i in counts.md_indexes.items()
    )
    put("matching.distinct_probe_share",
        measure.ratio(probes, counts.lookups), "ratio")

    for phase in ("crepair", "erepair", "hrepair"):
        put(f"core.{phase}_s", own.get(f"core.{phase}", 0.0), "s")
    for kind in ("deterministic", "reliable", "possible"):
        put(f"core.fixes_{kind}", counts.fixes[kind], "count")

    put("analysis.verify_s", own.get("analysis.verify", 0.0), "s")
    put("analysis.verify_calls", counts.clean_checks, "count")

    scoped = [d for d, full, _ in counts.applies if not full]
    full = [d for d, is_full, _ in counts.applies if is_full]
    put("session.scoped_apply_p50_ms", measure.p50_or_zero(scoped) * 1e3, "ms")
    put("session.full_apply_p50_ms", measure.p50_or_zero(full) * 1e3, "ms")
    put("session.full_replay_share",
        measure.ratio(len(full), len(counts.applies)), "ratio")
    put("session.affected_cells_per_apply",
        measure.ratio(sum(c for _, _, c in counts.applies), len(counts.applies)),
        "count")
    return m


def serve_layer_metrics(
    recorder: spans.SpanRecorder,
    counts: spans.LayerCounts,
    sharding: Dict[str, int],
    service: Dict[str, int],
    lags: List[float],
) -> Dict[str, Dict[str, Any]]:
    """:func:`layer_metrics` plus the sharding, service and snapshot
    layers only ``serve_part`` reaches."""
    m = layer_metrics(recorder, counts)

    def put(name, value, unit):
        m[name] = measure.metric(value, unit)

    for key in ("shards_recleaned", "shards_reused", "bytes_to_workers",
                "bytes_from_workers", "dispatch_retries"):
        put(f"sharding.{key}", sharding.get(key, 0),
            "bytes" if key.startswith("bytes") else "count")
    put("service.batches", service["batches"], "count")
    put("service.coalesce_ratio",
        measure.ratio(service["acked"], service["batches"]), "ratio")
    put("service.queue_wait_p95_ms",
        measure.tail_or_zero(counts.queue_waits) * 1e3, "ms")
    put("service.snapshot_cut_share",
        measure.ratio(service["snapshots_cut"], service["reads"]), "ratio")
    put("service.max_queue_depth", _max_queue_depth(recorder), "count")
    put("snapshot.checkpoint_s",
        spans.self_time_by_name(recorder.spans).get("snapshot.checkpoint", 0.0), "s")
    put("snapshot.checkpoint_bytes", counts.checkpoint_bytes, "bytes")
    put("bench.generator_lag_p95_ms", measure.tail_or_zero(lags) * 1e3, "ms")
    return m


def _max_queue_depth(recorder: spans.SpanRecorder) -> int:
    """Most tickets submitted but not yet taken into a batch at once,
    from the submit spans' ends and the batch spans' starts."""
    events: List[Tuple[float, int]] = []
    for span in recorder.spans:
        if span.name == "service.submit":
            events.append((span.end, 1))
        elif span.name == "service.batch":
            events.append((span.start, -len(span.tag)))
    depth = best = 0
    for _at, step in sorted(events):
        depth += step
        best = max(best, depth)
    return best


# ----------------------------------------------------------------------
# Plumbing
# ----------------------------------------------------------------------
def _scratch_dir() -> Path:
    """A per-run directory for checkpoints, inside the checkout."""
    path = Path(__file__).resolve().parent.parent / ".perfbench_tmp" / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


RUNNERS: Dict[str, Callable[..., Outcome]] = {
    "clean_part": run_clean,
    "clean_dblp": run_clean,
    "serve_part": run_serve,
    "churn_part": run_churn,
}


def run(name: str, seed: int, seconds: float, trace: bool,
        params: Optional[Params] = None) -> Outcome:
    if name not in RUNNERS:
        raise ValueError(f"unknown workload {name!r}")
    params = params or DEFAULTS[name]
    out = RUNNERS[name](name, params, seed, seconds, trace)
    if not trace:
        out.put("peak_rss_mb", measure.peak_rss_mb(), "MB")
    return out
