"""Repair-pipeline performance report: the perf trajectory across PRs.

Two workloads, both written to ``BENCH_repair.json``:

1. **Batch** (Exp-5 scalability, HOSP): the full pipeline at three sizes
   with the indexed rule engine and with the legacy full-rescan baseline
   (``use_violation_index=False``) — rows ``{size, phase, seconds,
   fixes, engine}`` plus per-size speedups.  The script asserts that
   both engines produce identical fix logs (the determinism guarantee of
   the violation index).
2. **Incremental** (the ``CleaningSession`` delta path): one initial
   ``clean()`` at the largest size, then N micro-batches of k cell
   edits applied via ``session.apply()``, each compared against a cold
   from-scratch ``UniClean.clean()`` of the edited base — rows
   ``{batch, scenario, apply_s, full_s, speedup, mode, affected,
   state_identical}``.  Two edit scenarios run: ``catalog`` (corrections
   to pure target attributes — the provably-local scoped replay) and
   ``mixed`` (uniformly random attributes — mostly the warm full-replay
   fallback).  The script asserts **state equivalence** for every batch;
   timing numbers are informational only, so CI stays robust to noisy
   runners.
3. **Sharded** (the ``ShardedCleaningSession`` partition-parallel path,
   PART testbed): one unsharded ``clean()`` and one process-pool
   sharded ``clean()`` over the same block-partitioned dataset,
   followed by catalog-style micro-batches applied to both.  The script
   asserts that the repaired relation, the per-cell cost total, the
   satisfaction verdict **and the full ordered fix log** are identical;
   timings (and the parallel speedup) are informational only.  The
   speedup column is only meaningful when the machine actually has
   ``n_workers`` cores — the summary records ``cpu_count`` so a 0.x
   "speedup" on a 1-core CI runner reads as what it is (process
   overhead), not a regression.
4. **Replan** (ISSUE 4 incremental re-planning): re-plan-heavy
   micro-batches (each leads with inserts that grow one block's
   coupling component) applied through ``apply_many`` to a sharded
   session with component-stable shard ids, against an unsharded
   reference applying the concatenated batch.  Rows record
   ``shards_recleaned``/``shards_reused`` per batch and the
   coordinator↔worker payload bytes (columnar vs the PR 3 pickled
   form).  The script asserts byte-identical state, that re-plans
   reuse unaffected shards (``shards_recleaned`` tracks touched
   components, not total shards), and that columnar payloads are
   ≤ 50% of the PR 3 bytes — all structural checks; wall-clock is
   never asserted.
5. **Snapshot** (ISSUE 5 durable session snapshots): a sharded session
   over the PART re-plan workload is saved mid-stream (after
   ``--snapshot-cut`` batches), restored into a fresh engine, and both
   the restored and a never-stopped control session run the remaining
   batches.  Rows record per-batch state equivalence and shard-reuse
   counters (restored vs control); the summary adds the snapshot size in
   bytes and structural acceptance flags — the restored trajectory must
   be byte-identical, the restored session's reuse counters must match
   the control's, and the first post-restore re-plan must *reuse*
   restored shards rather than re-clean them.  Wall-clock for
   save/restore is recorded but, as everywhere in this script, never
   asserted.
6. **Columnar** (ISSUE 7 columnar resident core): a 1M-row PART-style
   blocking-scan/check workload — build the relation, bulk-build its
   group stores + violation index, and run the full CFD check — once
   with the production kernels and once with the per-tuple oracles of
   :mod:`repro.oracle` (``reference``) over the same column store, plus
   a build of the oracle's dict-of-``CTuple`` layout
   (:class:`repro.oracle.DictRelation`) from the same rows as the memory
   comparator.  Rows record relation build, partition bulk build
   (``index_s``) and check-scan (``check_s``) seconds plus the
   tracemalloc ``peak_mem_bytes`` of each resident layout; the summary
   records the check-scan speedup (the hot loop every repair round
   repeats over the maintained partitions), the one-off index-build and
   end-to-end speedups, and the memory ratio.  The script asserts that
   the kernels and the oracle report the **identical violation list**
   and that the columnar layout peaks lower than the dict one (both
   structural); the speedup is recorded, never asserted.  The
   ``replan`` scenario additionally records the wire-payload byte delta
   between the ref-bridge encode and the oracle per-tuple encode of the
   same relation and asserts the two blobs are byte-identical (delta 0).
7. **Repair-engine** (ISSUE 8 columnar repair kernels): one full traced
   ``CleaningSession.clean()`` of the PART testbed with the production
   kernels and one under the per-tuple oracles
   (:func:`repro.oracle.reference_kernels`).  Rows record the per-phase
   seconds (``setup`` / ``crepair`` / ``erepair`` / ``hrepair``) and the
   tracemalloc peak of each run; the summary records per-phase and
   total speedups.  The script asserts that the ordered fix log,
   repaired state, cost, verdict and phase traces are
   **byte-identical** between the two; timings and memory are
   informational only.
8. **Match-engine** (ISSUE 9 set-based similarity join): a scaled
   DBLP-style master (``--match-size`` rows, default 500K) probed with
   typo'd/exact/foreign titles under a pure-similarity MD, once with
   the filtered inverted-index join (``engine="join"``) and
   once with the exhaustive full scan the reference engine falls back
   to on ``use_suffix_tree=False`` (the exact comparator — top-``l``
   retrieval is lossy, so it cannot anchor a match-identity check).
   Rows record index build / lookup seconds, candidates examined,
   similarity verify calls and the tracemalloc peak per engine.  The
   script asserts that the per-probe match lists are **identical** and
   that the join engine verified **fewer** pairs than the scan — both
   structural; wall-clock is recorded, never asserted.
9. **Faults** (ISSUE 6 fault-tolerant execution): the same sharded
   clean + micro-batch workload run under a battery of named fault
   schedules (worker crash, torn response frame, hang + timeout,
   transient error, persistent crash forcing escalation to the serial
   fallback) via the deterministic injector in
   :mod:`repro.pipeline.faults`, plus one auto-checkpointed run that is
   restored from its newest checkpoint.  Every schedule must finish
   **byte-identical** to the fault-free reference; rows record the
   recovery counters (``dispatch_retries``, ``dispatch_timeouts``,
   ``worker_respawns``, ``serial_fallbacks``) and the recovery overhead
   in seconds — the equivalence flags are asserted on, wall-clock never
   is.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf_report.py
    PYTHONPATH=src python benchmarks/perf_report.py --sizes 240 480 960
    PYTHONPATH=src python benchmarks/perf_report.py --sharded-size 100000 \
        --sharded-workers 8 --sharded-blocks 64
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.core import UniClean, UniCleanConfig
from repro.evaluation import generate, run_uniclean
from repro.pipeline import Changeset, CleaningSession, ShardedCleaningSession

DEFAULT_SIZES = (240, 480, 960)
PHASES = ("crepair", "erepair", "hrepair")
#: HOSP attributes that are pure rule targets with stable group keys —
#: catalog-style corrections that the scoped replay covers.
CATALOG_ATTRS = ("measure_name", "condition")


def _fingerprint(log) -> List[tuple]:
    return [
        (f.kind.value, f.rule_name, f.tid, f.attr, repr(f.old_value),
         repr(f.new_value), repr(f.source))
        for f in log
    ]


def _state(relation) -> Dict[int, tuple]:
    names = relation.schema.names
    return {t.tid: tuple(repr(t[a]) for a in names) for t in relation}


def run_report(
    sizes=DEFAULT_SIZES,
    dataset: str = "hosp",
    noise_rate: float = 0.06,
    seed: int = 7,
) -> Dict[str, Any]:
    """Run the workload at each size with both engines; return the report."""
    rows: List[Dict[str, Any]] = []
    summary: List[Dict[str, Any]] = []
    for size in sizes:
        ds = generate(
            dataset, size=size, master_size=max(size // 2, 1),
            noise_rate=noise_rate, seed=seed,
        )
        results = {}
        for engine, flag in (("indexed", True), ("legacy", False)):
            result = run_uniclean(
                ds, UniCleanConfig(eta=1.0, use_violation_index=flag)
            )
            results[engine] = result
            phase_fixes = {
                "crepair": result.crepair_result.deterministic_fixes,
                "erepair": result.erepair_result.reliable_fixes,
                "hrepair": result.hrepair_result.possible_fixes,
            }
            for phase in PHASES:
                rows.append(
                    {
                        "size": size,
                        "phase": phase,
                        "seconds": round(result.timings.get(phase, 0.0), 6),
                        "fixes": phase_fixes[phase],
                        "engine": engine,
                    }
                )
        identical = _fingerprint(results["indexed"].fix_log) == _fingerprint(
            results["legacy"].fix_log
        )
        t_indexed = results["indexed"].total_time
        t_legacy = results["legacy"].total_time
        summary.append(
            {
                "size": size,
                "indexed_s": round(t_indexed, 6),
                "legacy_s": round(t_legacy, 6),
                "speedup": round(t_legacy / t_indexed, 2) if t_indexed > 0 else None,
                "fix_logs_identical": identical,
                "clean": results["indexed"].clean,
            }
        )
    return {
        "workload": {"dataset": dataset, "noise_rate": noise_rate, "seed": seed},
        "rows": rows,
        "summary": summary,
    }


def run_incremental_report(
    size: int,
    batches: int = 5,
    edits_per_batch: int = 10,
    dataset: str = "hosp",
    noise_rate: float = 0.06,
    seed: int = 7,
) -> Dict[str, Any]:
    """Clean once, then apply N micro-batches of k edits incrementally.

    Each batch is verified for state equivalence against a cold
    from-scratch clean of the edited base.
    """
    ds = generate(
        dataset, size=size, master_size=max(size // 2, 1),
        noise_rate=noise_rate, seed=seed,
    )
    config = UniCleanConfig(eta=1.0)
    rng = random.Random(seed)
    rows: List[Dict[str, Any]] = []
    scenarios = {
        "catalog": [a for a in CATALOG_ATTRS if a in ds.schema],
        "mixed": list(ds.schema.names),
    }
    summary: List[Dict[str, Any]] = []
    for scenario, attr_pool in scenarios.items():
        if not attr_pool:
            continue
        session = CleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config
        )
        started = time.perf_counter()
        initial = session.clean(ds.dirty)
        clean_s = time.perf_counter() - started
        tids = list(session.base.tids())
        apply_total = full_total = 0.0
        all_identical = True
        scoped_batches = 0
        for batch in range(batches):
            changeset = Changeset()
            for _ in range(edits_per_batch):
                attr = rng.choice(attr_pool)
                donor = session.base.by_tid(rng.choice(tids))
                changeset.edit(rng.choice(tids), attr, donor[attr])
            started = time.perf_counter()
            out = session.apply(changeset)
            apply_s = time.perf_counter() - started
            started = time.perf_counter()
            reference = UniClean(
                cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config
            ).clean(session.base)
            full_s = time.perf_counter() - started
            identical = _state(out.repaired) == _state(reference.repaired)
            all_identical &= identical
            scoped_batches += 0 if out.full_reclean else 1
            apply_total += apply_s
            full_total += full_s
            rows.append(
                {
                    "scenario": scenario,
                    "batch": batch,
                    "apply_s": round(apply_s, 6),
                    "full_s": round(full_s, 6),
                    "speedup": round(full_s / apply_s, 2) if apply_s > 0 else None,
                    "mode": "full_reclean" if out.full_reclean else "scoped",
                    "affected": out.affected,
                    "affected_cells": out.affected_cells,
                    "state_identical": identical,
                    "clean": out.clean,
                }
            )
        summary.append(
            {
                "scenario": scenario,
                "size": size,
                "batches": batches,
                "edits_per_batch": edits_per_batch,
                "initial_clean_s": round(clean_s, 6),
                "initial_clean": initial.clean,
                "apply_total_s": round(apply_total, 6),
                "full_total_s": round(full_total, 6),
                "speedup": round(full_total / apply_total, 2) if apply_total else None,
                "scoped_batches": scoped_batches,
                "all_state_identical": all_identical,
            }
        )
    return {
        "workload": {
            "dataset": dataset,
            "size": size,
            "noise_rate": noise_rate,
            "seed": seed,
        },
        "rows": rows,
        "summary": summary,
    }


def _full_state(relation) -> Dict[int, tuple]:
    names = relation.schema.names
    return {
        t.tid: tuple((repr(t[a]), t.conf(a)) for a in names) for t in relation
    }


def run_sharded_report(
    size: int = 4000,
    n_blocks: int = 16,
    n_workers: int = 2,
    batches: int = 3,
    edits_per_batch: int = 8,
    noise_rate: float = 0.04,
    seed: int = 11,
) -> Dict[str, Any]:
    """Partition-parallel vs unsharded cleaning on the PART testbed.

    Asserts byte-identical observable state (relation, costs, verdict,
    ordered fix log) for the initial clean and every micro-batch; the
    recorded speedups are informational only.
    """
    ds = generate(
        "partitioned", size=size, n_blocks=n_blocks,
        noise_rate=noise_rate, seed=seed,
    )
    config = UniCleanConfig(eta=1.0)
    rng = random.Random(seed)
    rows: List[Dict[str, Any]] = []

    reference = CleaningSession(
        cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config
    )
    started = time.perf_counter()
    reference_clean = reference.clean(ds.dirty)
    unsharded_s = time.perf_counter() - started

    sharded = ShardedCleaningSession(
        cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config,
        n_workers=n_workers, n_shards=n_workers,
    )
    try:
        started = time.perf_counter()
        sharded_clean = sharded.clean(ds.dirty)
        sharded_s = time.perf_counter() - started

        identical = (
            _full_state(reference_clean.repaired)
            == _full_state(sharded_clean.repaired)
            and _fingerprint(reference_clean.fix_log)
            == _fingerprint(sharded_clean.fix_log)
            and abs(reference_clean.cost - sharded_clean.cost) < 1e-9
            and reference_clean.clean == sharded_clean.clean
        )
        all_identical = identical
        rows.append(
            {
                "stage": "clean",
                "unsharded_s": round(unsharded_s, 6),
                "sharded_s": round(sharded_s, 6),
                "speedup": round(unsharded_s / sharded_s, 2) if sharded_s else None,
                "state_identical": identical,
            }
        )

        catalog_attrs = [a for a in ("cat", "score") if a in ds.schema]
        tids = list(reference.base.tids())
        for batch in range(batches):
            changeset = Changeset()
            for _ in range(edits_per_batch):
                attr = rng.choice(catalog_attrs)
                donor = reference.base.by_tid(rng.choice(tids))
                changeset.edit(rng.choice(tids), attr, donor[attr])
            started = time.perf_counter()
            reference_out = reference.apply(Changeset(list(changeset.ops)))
            unsharded_apply_s = time.perf_counter() - started
            started = time.perf_counter()
            sharded_out = sharded.apply(Changeset(list(changeset.ops)))
            sharded_apply_s = time.perf_counter() - started
            identical = (
                _full_state(reference_out.repaired)
                == _full_state(sharded_out.repaired)
                and _fingerprint(reference_out.fix_log)
                == _fingerprint(sharded_out.fix_log)
                and abs(reference_out.cost - sharded_out.cost) < 1e-9
                and reference_out.clean == sharded_out.clean
            )
            all_identical &= identical
            rows.append(
                {
                    "stage": f"apply[{batch}]",
                    "unsharded_s": round(unsharded_apply_s, 6),
                    "sharded_s": round(sharded_apply_s, 6),
                    "speedup": round(unsharded_apply_s / sharded_apply_s, 2)
                    if sharded_apply_s
                    else None,
                    "mode": "full_reclean" if sharded_out.full_reclean else "scoped",
                    "state_identical": identical,
                }
            )
        summary = {
            "size": size,
            "n_blocks": n_blocks,
            "n_workers": n_workers,
            "cpu_count": os.cpu_count(),
            "n_shards": sharded.plan.n_shards,
            "degenerate_plan": sharded.plan.degenerate,
            "collision_retries": sharded.stats["collision_retries"],
            "scoped_applies": sharded.stats["scoped_applies"],
            "unsharded_clean_s": round(unsharded_s, 6),
            "sharded_clean_s": round(sharded_s, 6),
            "clean_speedup": round(unsharded_s / sharded_s, 2) if sharded_s else None,
            "all_state_identical": all_identical,
        }
    finally:
        sharded.close()
    return {
        "workload": {
            "dataset": "partitioned",
            "size": size,
            "n_blocks": n_blocks,
            "noise_rate": noise_rate,
            "seed": seed,
        },
        "rows": rows,
        "summary": summary,
    }


def run_replan_report(
    size: int = 4000,
    n_blocks: int = 16,
    n_workers: int = 2,
    n_shards: int = 8,
    batches: int = 5,
    inserts_per_batch: int = 1,
    edits_per_batch: int = 4,
    noise_rate: float = 0.04,
    seed: int = 11,
) -> Dict[str, Any]:
    """Incremental re-planning on the PART testbed (ISSUE 4).

    Asserts byte-identical observable state per batch, shard-session
    reuse across re-plans, and the columnar-payload size bound; records
    per-batch ``shards_recleaned`` and coordinator byte counters.
    """
    from repro.datasets import replan_batch

    ds = generate(
        "partitioned", size=size, n_blocks=n_blocks,
        noise_rate=noise_rate, seed=seed,
    )
    config = UniCleanConfig(eta=1.0)
    rng = random.Random(seed)
    rows: List[Dict[str, Any]] = []

    reference = CleaningSession(
        cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config
    )
    started = time.perf_counter()
    reference_clean = reference.clean(ds.dirty)
    unsharded_s = time.perf_counter() - started

    sharded = ShardedCleaningSession(
        cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config,
        n_workers=n_workers, n_shards=n_shards,
        track_legacy_bytes=n_workers > 1,
    )
    try:
        started = time.perf_counter()
        sharded_clean = sharded.clean(ds.dirty)
        sharded_s = time.perf_counter() - started
        all_identical = (
            _full_state(reference_clean.repaired)
            == _full_state(sharded_clean.repaired)
            and _fingerprint(reference_clean.fix_log)
            == _fingerprint(sharded_clean.fix_log)
        )
        clean_stats = dict(sharded.stats)
        n_shards_planned = sharded.plan.n_shards

        total_recleaned = total_reused = 0
        for batch in range(batches):
            changesets = replan_batch(
                reference.base, rng,
                inserts=inserts_per_batch, edits=edits_per_batch,
            )
            before = dict(sharded.stats)
            started = time.perf_counter()
            reference_out = reference.apply_many(
                [Changeset(list(cs.ops)) for cs in changesets]
            )
            unsharded_apply_s = time.perf_counter() - started
            started = time.perf_counter()
            sharded_out = sharded.apply_many(
                [Changeset(list(cs.ops)) for cs in changesets]
            )
            sharded_apply_s = time.perf_counter() - started
            identical = (
                _full_state(reference_out.repaired)
                == _full_state(sharded_out.repaired)
                and _fingerprint(reference_out.fix_log)
                == _fingerprint(sharded_out.fix_log)
                and abs(reference_out.cost - sharded_out.cost) < 1e-9
                and reference_out.clean == sharded_out.clean
            )
            all_identical &= identical
            recleaned = (
                sharded.stats["shards_recleaned"] - before["shards_recleaned"]
            )
            reused = sharded.stats["shards_reused"] - before["shards_reused"]
            total_recleaned += recleaned
            total_reused += reused
            rows.append(
                {
                    "batch": batch,
                    "unsharded_s": round(unsharded_apply_s, 6),
                    "sharded_s": round(sharded_apply_s, 6),
                    "shards_recleaned": recleaned,
                    "shards_reused": reused,
                    "coordinator_bytes": (
                        sharded.stats["bytes_to_workers"]
                        + sharded.stats["bytes_from_workers"]
                        - before["bytes_to_workers"]
                        - before["bytes_from_workers"]
                    ),
                    "legacy_bytes": (
                        sharded.stats["legacy_bytes_to_workers"]
                        + sharded.stats["legacy_bytes_from_workers"]
                        - before["legacy_bytes_to_workers"]
                        - before["legacy_bytes_from_workers"]
                    ),
                    "state_identical": identical,
                }
            )

        # Wire-bridge check: the ref-bridge encode of the
        # session base must emit the byte-identical blob the oracle's
        # per-tuple encode produces — the recorded delta must be 0.
        import pickle

        from repro import oracle
        from repro.pipeline import payload as _payload

        def encoded(base):
            table = _payload.ValueTable()
            return pickle.dumps(
                (_payload.encode_relation(base, table), table.values),
                protocol=pickle.HIGHEST_PROTOCOL,
            )

        columnar_blob = encoded(reference.base)
        with oracle.reference_kernels():
            tuple_blob = encoded(reference.base)
        encode_bytes_delta = len(columnar_blob) - len(tuple_blob)
        encode_identical = columnar_blob == tuple_blob

        stats = sharded.stats
        coordinator_bytes = (
            stats["bytes_to_workers"] + stats["bytes_from_workers"]
        )
        legacy_bytes = (
            stats["legacy_bytes_to_workers"]
            + stats["legacy_bytes_from_workers"]
        )
        payload_ratio = (
            round(coordinator_bytes / legacy_bytes, 4) if legacy_bytes else None
        )
        summary = {
            "size": size,
            "n_blocks": n_blocks,
            "n_workers": n_workers,
            "n_shards": n_shards_planned,
            "cpu_count": os.cpu_count(),
            "batches": batches,
            "inserts_per_batch": inserts_per_batch,
            "edits_per_batch": edits_per_batch,
            "unsharded_clean_s": round(unsharded_s, 6),
            "sharded_clean_s": round(sharded_s, 6),
            "clean_bytes": clean_stats["bytes_to_workers"]
            + clean_stats["bytes_from_workers"],
            "shards_recleaned_total": total_recleaned,
            "shards_reused_total": total_reused,
            "collision_retries": stats["collision_retries"],
            "coordinator_bytes": coordinator_bytes,
            "legacy_bytes": legacy_bytes,
            "payload_ratio": payload_ratio,
            "columnar_encode_bytes": len(columnar_blob),
            "tuple_encode_bytes": len(tuple_blob),
            "encode_bytes_delta": encode_bytes_delta,
            "all_state_identical": all_identical,
            # Structural acceptance flags (never wall-clock):
            "reuse_effective": total_reused > 0
            and total_recleaned < batches * n_shards_planned,
            "payload_bound_met": payload_ratio is None
            or payload_ratio <= 0.5,
            "encode_identical": encode_identical,
        }
    finally:
        sharded.close()
    return {
        "workload": {
            "dataset": "partitioned",
            "size": size,
            "n_blocks": n_blocks,
            "noise_rate": noise_rate,
            "seed": seed,
        },
        "rows": rows,
        "summary": summary,
    }


def run_snapshot_report(
    size: int = 4000,
    n_blocks: int = 16,
    n_workers: int = 2,
    n_shards: int = 8,
    batches: int = 4,
    cut: int = 2,
    inserts_per_batch: int = 1,
    edits_per_batch: int = 4,
    noise_rate: float = 0.04,
    seed: int = 11,
) -> Dict[str, Any]:
    """Mid-stream save/restore on the PART re-plan workload (ISSUE 5).

    A control session runs the whole workload uninterrupted; the subject
    session is saved to disk after *cut* batches, restored into a fresh
    engine, and must finish the workload byte-identically — with its
    first post-restore re-plan reusing restored shards, not re-cleaning
    them.  All asserted conditions are structural; timings and the
    snapshot size are informational.
    """
    import shutil
    import tempfile

    from repro.datasets import replan_batch

    ds = generate(
        "partitioned", size=size, n_blocks=n_blocks,
        noise_rate=noise_rate, seed=seed,
    )
    config = UniCleanConfig(eta=1.0)
    rng = random.Random(seed)
    rows: List[Dict[str, Any]] = []

    control = ShardedCleaningSession(
        cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config,
        n_workers=n_workers, n_shards=n_shards,
    )
    subject = ShardedCleaningSession(
        cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config,
        n_workers=n_workers, n_shards=n_shards,
    )
    snap_dir = tempfile.mkdtemp(prefix="ucsnap-bench-")
    snapshot_bytes = 0
    save_s = restore_s = 0.0
    all_identical = True
    counters_match = True
    restored_reused = restored_recleaned = -1
    control_reused = control_recleaned = -1
    try:
        control.clean(ds.dirty)
        subject.clean(ds.dirty)
        # The save point must precede a batch, or no restore ever runs
        # and the acceptance flags would blame a divergence that never
        # happened.
        cut = max(0, min(cut, batches - 1))
        for batch in range(batches):
            if batch == cut:
                started = time.perf_counter()
                snapshot_bytes = subject.save(snap_dir)
                save_s = time.perf_counter() - started
                subject.close()
                started = time.perf_counter()
                subject = ShardedCleaningSession.restore(snap_dir)
                restore_s = time.perf_counter() - started
            changesets = replan_batch(
                control.base, rng,
                inserts=inserts_per_batch, edits=edits_per_batch,
            )
            before_c = dict(control.stats)
            before_s = dict(subject.stats)
            started = time.perf_counter()
            control_out = control.apply_many(
                [Changeset(list(cs.ops)) for cs in changesets]
            )
            control_s = time.perf_counter() - started
            started = time.perf_counter()
            subject_out = subject.apply_many(
                [Changeset(list(cs.ops)) for cs in changesets]
            )
            subject_s = time.perf_counter() - started
            identical = (
                _full_state(control_out.repaired)
                == _full_state(subject_out.repaired)
                and _fingerprint(control_out.fix_log)
                == _fingerprint(subject_out.fix_log)
                and abs(control_out.cost - subject_out.cost) < 1e-9
                and control_out.clean == subject_out.clean
            )
            all_identical &= identical
            reused_c = control.stats["shards_reused"] - before_c["shards_reused"]
            recleaned_c = (
                control.stats["shards_recleaned"]
                - before_c["shards_recleaned"]
            )
            reused_s = subject.stats["shards_reused"] - before_s["shards_reused"]
            recleaned_s = (
                subject.stats["shards_recleaned"]
                - before_s["shards_recleaned"]
            )
            if batch == cut:
                restored_reused, restored_recleaned = reused_s, recleaned_s
                control_reused, control_recleaned = reused_c, recleaned_c
            counters_match &= (reused_c, recleaned_c) == (
                reused_s, recleaned_s,
            )
            rows.append(
                {
                    "batch": batch,
                    "restored": batch >= cut,
                    "control_s": round(control_s, 6),
                    "subject_s": round(subject_s, 6),
                    "shards_reused": reused_s,
                    "shards_recleaned": recleaned_s,
                    "state_identical": identical,
                }
            )
        summary = {
            "size": size,
            "n_blocks": n_blocks,
            "n_workers": n_workers,
            "n_shards": n_shards,
            "cpu_count": os.cpu_count(),
            "batches": batches,
            "cut": cut,
            "inserts_per_batch": inserts_per_batch,
            "edits_per_batch": edits_per_batch,
            "snapshot_bytes": snapshot_bytes,
            "save_s": round(save_s, 6),
            "restore_s": round(restore_s, 6),
            "all_state_identical": all_identical,
            # Structural acceptance flags (never wall-clock):
            "reuse_counters_match": counters_match,
            "restored_reuse_effective": restored_reused > 0
            and restored_reused == control_reused
            and restored_recleaned == control_recleaned,
        }
    finally:
        control.close()
        subject.close()
        shutil.rmtree(snap_dir, ignore_errors=True)
    return {
        "workload": {
            "dataset": "partitioned",
            "size": size,
            "n_blocks": n_blocks,
            "noise_rate": noise_rate,
            "seed": seed,
        },
        "rows": rows,
        "summary": summary,
    }


def run_columnar_report(
    size: int = 1_000_000,
    n_blocks: int = 1024,
    noise_rate: float = 0.04,
    seed: int = 11,
) -> Dict[str, Any]:
    """Columnar resident core vs the per-tuple oracles.

    One blocking-scan/check workload — build the relation, bulk-build
    the group stores and violation index behind it, then run the full
    CFD check over the maintained partitions — measured with the
    production kernels and with the per-tuple oracles
    (:func:`repro.oracle.reference_kernels`) over the same column
    store.  Index build (``index_s``) and the check scan
    (``check_s``) are timed separately: the repair pipeline builds its
    partitions once per session and re-checks every resolution round,
    so the check scan is the repeated blocking-scan/check hot loop and
    ``scan_speedup`` compares exactly that.  The cyclic GC is parked
    during the timed regions (collector pauses over a multi-million
    object heap would otherwise dominate both engines equally).
    ``peak_mem_bytes`` is the tracemalloc peak while building and
    holding each resident layout of the same rows: the column store, and
    the oracle's dict-of-``CTuple`` layout
    (:class:`repro.oracle.DictRelation`).  Asserted: identical violation
    lists and the columnar layout peaking below the dict one.  Recorded,
    never asserted: seconds and speedups.
    """
    import gc
    import tracemalloc

    from repro import oracle
    from repro.analysis.consistency import relation_violations
    from repro.constraints.rules import derive_rules
    from repro.indexing.group_store import GroupStoreRegistry
    from repro.indexing.violation_index import ViolationIndex
    from repro.relational import Relation

    ds = generate(
        "partitioned", size=size, n_blocks=n_blocks,
        noise_rate=noise_rate, seed=seed,
    )
    schema = ds.dirty.schema
    names = schema.names
    raw_rows = [
        ([t[a] for a in names], [t.conf(a) for a in names])
        for t in ds.dirty
    ]
    cfds = ds.cfds
    rules = derive_rules(cfds, ds.mds)
    del ds
    gc.collect()

    def build(layout):
        tracemalloc.start()
        relation = layout(schema)
        append = relation.append_row_values
        started = time.perf_counter()
        for values, confs in raw_rows:
            append(values, confs)
        build_s = time.perf_counter() - started
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return relation, build_s, peak

    def scan(relation, use_oracle: bool):
        gc.collect()
        gc.disable()
        kernels = (
            oracle.reference_kernels() if use_oracle else contextlib.nullcontext()
        )
        try:
            with kernels:
                started = time.perf_counter()
                registry = GroupStoreRegistry(relation, attach=False)
                registry.ensure_rules(rules)
                index = ViolationIndex(
                    relation, derive_rules(cfds), attach=False, registry=registry
                )
                index_s = time.perf_counter() - started
                started = time.perf_counter()
                violations = relation_violations(
                    relation, cfds, violation_index=index
                )
                check_s = time.perf_counter() - started
        finally:
            gc.enable()
        fingerprint = [
            (v.constraint.name, v.tids, v.attr) for v in violations
        ]
        return fingerprint, index_s, check_s

    rows: List[Dict[str, Any]] = []

    model, dict_build_s, dict_peak = build(oracle.DictRelation)
    rows.append(
        {
            "backend": "dict",
            "build_s": round(dict_build_s, 6),
            "peak_mem_bytes": dict_peak,
        }
    )
    del model
    gc.collect()

    relation, build_s, columnar_peak = build(Relation)
    reference_violations, ref_index_s, ref_check_s = scan(relation, True)
    vectorized_violations, vec_index_s, vec_check_s = scan(relation, False)
    for engine, index_s, check_s, found in (
        ("reference", ref_index_s, ref_check_s, reference_violations),
        ("vectorized", vec_index_s, vec_check_s, vectorized_violations),
    ):
        rows.append(
            {
                "backend": "columnar",
                "engine": engine,
                "build_s": round(build_s, 6),
                "peak_mem_bytes": columnar_peak,
                "index_s": round(index_s, 6),
                "check_s": round(check_s, 6),
                "violations": len(found),
                "resident_column_bytes": relation.column_store.nbytes(),
            }
        )
    del relation
    gc.collect()

    summary = {
        "size": size,
        "n_blocks": n_blocks,
        "noise_rate": noise_rate,
        "seed": seed,
        "dict_peak_mem_bytes": dict_peak,
        "columnar_peak_mem_bytes": columnar_peak,
        "mem_ratio": round(columnar_peak / dict_peak, 4) if dict_peak else None,
        "reference_check_s": round(ref_check_s, 6),
        "vectorized_check_s": round(vec_check_s, 6),
        # The blocking-scan/check hot loop (re-run every repair round):
        "scan_speedup": round(ref_check_s / vec_check_s, 2)
        if vec_check_s
        else None,
        # One-off partition bulk build, for transparency:
        "reference_index_s": round(ref_index_s, 6),
        "vectorized_index_s": round(vec_index_s, 6),
        "index_speedup": round(ref_index_s / vec_index_s, 2)
        if vec_index_s
        else None,
        "end_to_end_speedup": round(
            (ref_index_s + ref_check_s) / (vec_index_s + vec_check_s), 2
        )
        if vec_index_s + vec_check_s
        else None,
        "violations": len(reference_violations),
        # Structural acceptance flags (never wall-clock):
        "violations_identical": reference_violations == vectorized_violations,
        "mem_improved": columnar_peak < dict_peak,
    }
    return {
        "workload": {
            "dataset": "partitioned",
            "size": size,
            "n_blocks": n_blocks,
            "noise_rate": noise_rate,
            "seed": seed,
        },
        "rows": rows,
        "summary": summary,
    }


def run_repair_engine_report(
    size: int = 20_000,
    n_blocks: int = 64,
    noise_rate: float = 0.04,
    seed: int = 11,
) -> Dict[str, Any]:
    """Repair kernels vs their per-tuple oracles.

    One full traced ``CleaningSession.clean()`` of the PART testbed with
    the production kernels (``vectorized``) and one under
    :func:`repro.oracle.reference_kernels` (``reference``).
    Rows record the per-phase seconds straight from the session timings
    (``setup`` / ``crepair`` / ``erepair`` / ``hrepair``), the
    tracemalloc peak across the clean, and the fix count.  Asserted:
    the ordered fix log (every field), repaired state, per-cell cost
    total, clean verdict and phase scheduling traces are identical
    between the two — the standing byte-identity invariant.
    Recorded, never asserted: seconds, speedups and memory.
    """
    import gc
    import tracemalloc

    from repro import oracle

    def run(engine: str):
        gc.collect()
        kernels = (
            oracle.reference_kernels()
            if engine == "reference"
            else contextlib.nullcontext()
        )
        with kernels:
            ds = generate(
                "partitioned", size=size, n_blocks=n_blocks,
                noise_rate=noise_rate, seed=seed,
            )
            session = CleaningSession(
                cfds=ds.cfds, mds=ds.mds, master=ds.master,
                collect_traces=True,
            )
            tracemalloc.start()
            result = session.clean(ds.dirty)
            _current, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        return {
            "fingerprint": _fingerprint(result.fix_log),
            "state": _state(result.repaired),
            "cost": result.cost,
            "clean": result.clean,
            "traces": dict(session.last_traces),
            "timings": dict(result.timings),
            "peak": peak,
        }

    rows: List[Dict[str, Any]] = []
    runs: Dict[str, Dict[str, Any]] = {}
    for engine in ("reference", "vectorized"):
        outcome = runs[engine] = run(engine)
        timings = outcome["timings"]
        rows.append(
            {
                "engine": engine,
                "setup_s": round(timings.get("setup", 0.0), 6),
                "crepair_s": round(timings.get("crepair", 0.0), 6),
                "erepair_s": round(timings.get("erepair", 0.0), 6),
                "hrepair_s": round(timings.get("hrepair", 0.0), 6),
                "total_s": round(sum(timings.values()), 6),
                "peak_mem_bytes": outcome["peak"],
                "fixes": len(outcome["fingerprint"]),
                "clean": outcome["clean"],
            }
        )

    reference, vectorized = runs["reference"], runs["vectorized"]
    identical = (
        reference["fingerprint"] == vectorized["fingerprint"]
        and reference["state"] == vectorized["state"]
        and reference["cost"] == vectorized["cost"]
        and reference["clean"] == vectorized["clean"]
        and reference["traces"] == vectorized["traces"]
    )

    def speedup(phase: str):
        ref = reference["timings"].get(phase, 0.0)
        vec = vectorized["timings"].get(phase, 0.0)
        return round(ref / vec, 2) if vec else None

    summary = {
        "size": size,
        "n_blocks": n_blocks,
        "noise_rate": noise_rate,
        "seed": seed,
        "fixes": len(reference["fingerprint"]),
        "reference_total_s": round(sum(reference["timings"].values()), 6),
        "vectorized_total_s": round(sum(vectorized["timings"].values()), 6),
        # Per-phase speedups (recorded, never asserted):
        "crepair_speedup": speedup("crepair"),
        "erepair_speedup": speedup("erepair"),
        "hrepair_speedup": speedup("hrepair"),
        "total_speedup": round(
            sum(reference["timings"].values())
            / sum(vectorized["timings"].values()),
            2,
        )
        if sum(vectorized["timings"].values())
        else None,
        "reference_peak_mem_bytes": reference["peak"],
        "vectorized_peak_mem_bytes": vectorized["peak"],
        # The structural acceptance flag (never wall-clock):
        "repair_identical": identical,
    }
    return {
        "workload": {
            "dataset": "partitioned",
            "size": size,
            "n_blocks": n_blocks,
            "noise_rate": noise_rate,
            "seed": seed,
        },
        "rows": rows,
        "summary": summary,
    }


def run_match_engine_report(
    size: int = 500_000,
    queries: int = 24,
    seed: int = 7,
) -> Dict[str, Any]:
    """Similarity-join vs exhaustive-scan MD matching (ISSUE 9).

    A DBLP-style master of *size* ``(title, year, ee)`` rows, spread over
    20 year values, is probed with *queries* lookups — typo'd master
    titles (a true match exists), exact master titles, and foreign
    strings (no match) — under two premise shapes with the same
    ``ee ⇌ ee`` consequence:

    * ``similarity`` — ``title ≈₂ title``: the join probes one q-gram
      index over the whole master;
    * ``similarity+equality`` — ``year = year ∧ title ≈₂ title``: the
      join filters inside the probe's year bucket.

    The comparator is the reference engine's exhaustive scan
    (``use_suffix_tree=False``: all of ``Dm``, or the year bucket), the
    only *exact* reference — top-``l`` suffix-tree retrieval is lossy and
    cannot anchor an identity check.  Asserted, per premise shape:
    per-probe match lists identical, and strictly fewer similarity
    verifications on the join side (the point of the filter chain).
    Recorded, never asserted: seconds, speedups and memory.  The
    top-level summary numbers are the ``similarity`` shape's; the two
    flags hold for both shapes.
    """
    import gc
    import tracemalloc

    from repro.constraints import MD
    from repro.datasets.generator import NamePool, derive_rng, typo
    from repro.indexing import MDBlockingIndex
    from repro.relational import Relation, Schema
    from repro.similarity import edit_within

    schema = Schema("PUB", ["title", "year", "ee"])
    pool = NamePool(derive_rng(seed, "match-engine", "master"))
    master = Relation(schema)
    append = master.append_row_values
    started = time.perf_counter()
    titles: List[str] = []
    years = 20
    year_of = [str(1990 + i % years) for i in range(size)]
    for i in range(size):
        title = f"{pool.word(2)} {pool.word(2)} {pool.word(3)}"
        titles.append(title)
        append([title, year_of[i], f"db/journals/x/{i}"], [1.0, 1.0, 1.0])
    master_build_s = time.perf_counter() - started

    probe_rng = derive_rng(seed, "match-engine", "probes")
    probes_rel = Relation(schema)
    for i in range(queries):
        kind = i % 3
        year = year_of[0]
        if kind == 0:  # one random edit of a master title: a true match
            j = probe_rng.randrange(size)
            value, year = typo(titles[j], probe_rng), year_of[j]
        elif kind == 1:  # verbatim master title
            j = probe_rng.randrange(size)
            value, year = titles[j], year_of[j]
        else:  # foreign string, far from every master title
            value = f"zz{probe_rng.randrange(10**9):09d}qx{pool.word(4)}"
        probes_rel.append_row_values([value, year, "probe"], [1.0, 1.0, 1.0])
    probes = [probes_rel.by_tid(tid) for tid in probes_rel.tids()]

    similar = ("title", "title", edit_within(2))
    premises = {
        "similarity": [similar],
        "similarity+equality": [("year", "year"), similar],
    }

    def run(md, engine: str):
        gc.collect()
        tracemalloc.start()
        started = time.perf_counter()
        if engine == "join":
            index = MDBlockingIndex(md, master, engine="join")
        else:
            index = MDBlockingIndex(
                md, master, use_suffix_tree=False, engine="reference"
            )
        build_s = time.perf_counter() - started
        started = time.perf_counter()
        match_tids = [[s.tid for s in index.matches(p)] for p in probes]
        lookup_s = time.perf_counter() - started
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        stats: Dict[str, Any] = {
            "candidates": index.stats["candidates"],
            "verify_calls": index.verify_calls,
        }
        if index.join_index is not None:
            stats["join_stats"] = dict(index.join_index.stats)
            stats["profile_cache_hits"] = index.join_index.profiles.hits
        return match_tids, build_s, lookup_s, peak, stats

    rows: List[Dict[str, Any]] = []
    by_premise: Dict[str, Dict[str, Any]] = {}
    for premise, clauses in premises.items():
        md = MD(schema, schema, clauses, [("ee", "ee")])
        runs: Dict[str, Any] = {}
        for engine in ("reference_scan", "join"):
            match_tids, build_s, lookup_s, peak, stats = run(md, engine)
            runs[engine] = (match_tids, lookup_s, stats)
            rows.append(
                {
                    "premise": premise,
                    "engine": engine,
                    "build_s": round(build_s, 6),
                    "lookup_s": round(lookup_s, 6),
                    "peak_mem_bytes": peak,
                    "candidates": stats["candidates"],
                    "verify_calls": stats["verify_calls"],
                    "matched_probes": sum(1 for m in match_tids if m),
                    **(
                        {"join_stats": stats["join_stats"],
                         "profile_cache_hits": stats["profile_cache_hits"]}
                        if "join_stats" in stats
                        else {}
                    ),
                }
            )
        scan_tids, scan_lookup_s, scan_stats = runs["reference_scan"]
        join_tids, join_lookup_s, join_stats = runs["join"]
        by_premise[premise] = {
            "reference_lookup_s": round(scan_lookup_s, 6),
            "join_lookup_s": round(join_lookup_s, 6),
            "lookup_speedup": round(scan_lookup_s / join_lookup_s, 2)
            if join_lookup_s
            else None,
            "reference_verify_calls": scan_stats["verify_calls"],
            "join_verify_calls": join_stats["verify_calls"],
            "verify_reduction": round(
                scan_stats["verify_calls"] / join_stats["verify_calls"], 1
            )
            if join_stats["verify_calls"]
            else None,
            "matched_probes": sum(1 for m in scan_tids if m),
            # Structural acceptance flags (never wall-clock):
            "matches_identical": join_tids == scan_tids,
            "fewer_verify_calls": join_stats["verify_calls"]
            < scan_stats["verify_calls"],
        }

    summary = {
        "size": size,
        "queries": queries,
        "seed": seed,
        "master_build_s": round(master_build_s, 6),
        **by_premise["similarity"],
        "premises": by_premise,
        "matches_identical": all(
            v["matches_identical"] for v in by_premise.values()
        ),
        "fewer_verify_calls": all(
            v["fewer_verify_calls"] for v in by_premise.values()
        ),
    }
    return {
        "workload": {
            "dataset": "dblp-style",
            "size": size,
            "queries": queries,
            "seed": seed,
            "years": years,
        },
        "rows": rows,
        "summary": summary,
    }


def run_faults_report(
    size: int = 2000,
    n_blocks: int = 16,
    n_workers: int = 2,
    n_shards: int = 8,
    batches: int = 3,
    edits_per_batch: int = 6,
    noise_rate: float = 0.04,
    seed: int = 11,
) -> Dict[str, Any]:
    """Fault-injected sharded runs vs a fault-free reference (ISSUE 6).

    Each named schedule drives the same clean + micro-batch workload
    through the supervision layer; the assertion is equivalence only —
    recovered observables must be byte-identical to the reference —
    while retries/respawns/fallbacks and the recovery overhead are
    recorded, never asserted.
    """
    import shutil
    import tempfile

    from repro.pipeline import FaultSpec, SupervisionPolicy
    from repro.pipeline.faults import FaultInjector, injected

    ds = generate(
        "partitioned", size=size, n_blocks=n_blocks,
        noise_rate=noise_rate, seed=seed,
    )
    config = UniCleanConfig(eta=1.0)
    rows: List[Dict[str, Any]] = []

    catalog_attrs = [a for a in ("cat", "score") if a in ds.schema]

    def batch_plan(base, rng):
        tids = list(base.tids())
        out = []
        for _ in range(batches):
            changeset = Changeset()
            for _ in range(edits_per_batch):
                attr = rng.choice(catalog_attrs)
                donor = base.by_tid(rng.choice(tids))
                changeset.edit(rng.choice(tids), attr, donor[attr])
            out.append(changeset)
        return out

    def run(session, injector=None, checkpoint_root=None):
        started = time.perf_counter()
        try:
            if injector is None:
                session.clean(ds.dirty)
                plan = batch_plan(session.base, random.Random(seed))
                for changeset in plan:
                    session.apply(Changeset(list(changeset.ops)))
            else:
                with injected(injector):
                    session.clean(ds.dirty)
                    plan = batch_plan(session.base, random.Random(seed))
                    for changeset in plan:
                        session.apply(Changeset(list(changeset.ops)))
            if checkpoint_root is not None:
                # Drop the live session and come back from its newest
                # checkpoint — the recovered twin must answer the same.
                session.close()
                session = ShardedCleaningSession.restore_latest(
                    checkpoint_root, n_workers=n_workers
                )
            elapsed = time.perf_counter() - started
            state = (
                _full_state(session.working),
                _fingerprint(session.fix_log.fixes()),
                session._last_clean,
            )
            session._sync_io_stats()
            stats = {
                key: session.stats[key]
                for key in (
                    "dispatch_retries", "dispatch_timeouts",
                    "worker_respawns", "serial_fallbacks",
                    "checkpoints_written",
                )
            }
            return state, stats, elapsed
        finally:
            session.close()

    def make(**kwargs):
        kwargs.setdefault("n_workers", n_workers)
        kwargs.setdefault("n_shards", n_shards)
        return ShardedCleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config,
            **kwargs
        )

    policy = SupervisionPolicy(
        timeout=120.0, max_retries=2, backoff_base=0.01, backoff_max=0.1
    )
    reference_state, _stats, reference_s = run(make(supervision=policy))

    schedules = [
        ("worker_crash",
         [FaultSpec(point="dispatch", kind="crash", method="clean_shard")],
         policy, None),
        ("torn_response",
         [FaultSpec(point="dispatch", kind="torn_response",
                    method="apply_shard")],
         policy, None),
        ("hang_timeout",
         [FaultSpec(point="dispatch", kind="hang", method="apply_shard",
                    seconds=30.0)],
         SupervisionPolicy(timeout=1.0, max_retries=2,
                           backoff_base=0.01, backoff_max=0.1), None),
        ("transient_error",
         [FaultSpec(point="dispatch", kind="error", method="apply_shard",
                    times=2)],
         policy, None),
        ("persistent_crash_escalation",
         [FaultSpec(point="dispatch", kind="crash", times=10**6)],
         SupervisionPolicy(timeout=120.0, max_retries=1,
                           backoff_base=0.01, backoff_max=0.1), None),
    ]

    all_identical = True
    for name, specs, schedule_policy, _unused in schedules:
        injector = FaultInjector(specs)
        state, stats, elapsed = run(
            make(supervision=schedule_policy), injector
        )
        identical = state == reference_state
        all_identical &= identical
        rows.append(
            {
                "schedule": name,
                "seconds": round(elapsed, 6),
                "overhead": round(elapsed / reference_s, 2)
                if reference_s else None,
                "faults_fired": len(injector.log),
                "state_identical": identical,
                **stats,
            }
        )

    checkpoint_root = tempfile.mkdtemp(prefix="ucfaults-bench-")
    try:
        state, stats, elapsed = run(
            make(
                supervision=policy,
                checkpoint_dir=checkpoint_root,
                checkpoint_every=1,
                checkpoint_retain=2,
            ),
            checkpoint_root=checkpoint_root,
        )
        identical = state == reference_state
        all_identical &= identical
        rows.append(
            {
                "schedule": "checkpoint_restore",
                "seconds": round(elapsed, 6),
                "overhead": round(elapsed / reference_s, 2)
                if reference_s else None,
                "faults_fired": 0,
                "state_identical": identical,
                **stats,
            }
        )
    finally:
        shutil.rmtree(checkpoint_root, ignore_errors=True)

    summary = {
        "size": size,
        "n_blocks": n_blocks,
        "n_workers": n_workers,
        "n_shards": n_shards,
        "cpu_count": os.cpu_count(),
        "batches": batches,
        "edits_per_batch": edits_per_batch,
        "reference_s": round(reference_s, 6),
        "schedules": len(rows),
        # The only acceptance flag — equivalence, never wall-clock:
        "all_state_identical": all_identical,
    }
    return {
        "workload": {
            "dataset": "partitioned",
            "size": size,
            "n_blocks": n_blocks,
            "noise_rate": noise_rate,
            "seed": seed,
        },
        "rows": rows,
        "summary": summary,
    }


def run_service_report(
    size: int = 2000,
    n_blocks: int = 16,
    n_workers: int = 2,
    n_shards: int = 8,
    writers: int = 4,
    writes_per_writer: int = 12,
    max_batch: int = 8,
    max_linger: float = 0.02,
    noise_rate: float = 0.04,
    seed: int = 23,
) -> Dict[str, Any]:
    """The online cleaning service under concurrent writers (ISSUE 10).

    Closed-loop: *writers* threads each submit ``writes_per_writer``
    changesets through :class:`CleaningService`, waiting for every
    acknowledgment before the next write.  Latency (p50/p99 of
    submit→ack) and throughput are **recorded, never asserted** — the
    only acceptance flags are equivalence: the served final state must
    be byte-identical to a serial replay of the acknowledged changesets
    in acknowledgment order on a fresh session, both for the plain
    closed-loop run and for a run poisoned mid-stream by an injected
    worker fault (recovered via ``restore_latest`` + ledger replay).
    """
    import shutil
    import tempfile
    import threading

    from repro.pipeline import FaultSpec, SupervisionPolicy
    from repro.pipeline.faults import FaultInjector, injected
    from repro.pipeline.service import CleaningService, FlushPolicy

    ds = generate(
        "partitioned", size=size, n_blocks=n_blocks,
        noise_rate=noise_rate, seed=seed,
    )
    config = UniCleanConfig(eta=1.0)
    catalog_attrs = [a for a in ("cat", "score") if a in ds.schema]
    tids = sorted(ds.dirty.tids())

    def writer_plan(writer: int):
        rng = random.Random(seed * 1000 + writer)
        out = []
        for _ in range(writes_per_writer):
            changeset = Changeset()
            attr = rng.choice(catalog_attrs)
            donor = ds.dirty.by_tid(rng.choice(tids))
            changeset.edit(rng.choice(tids), attr, donor[attr])
            out.append(changeset)
        return out

    def make(supervision, **kwargs):
        session = ShardedCleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config,
            n_workers=n_workers, n_shards=n_shards,
            supervision=supervision, **kwargs
        )
        session.clean(ds.dirty)
        return session

    def session_state(session):
        """(full working state, order-free fix multiset).

        The state is the asserted linearization witness.  The fix
        *multiset* rides along as a recorded column only: the merged
        log's entry *order* is a per-trajectory artifact (48 serial
        applies, 12 coalesced batches and one from-scratch clean of the
        edited base all converge to the same state and fix multiset but
        interleave the tail of the log differently), so order is not
        comparable across trajectories and is never asserted.
        """
        return (
            _full_state(session.working),
            sorted(_fingerprint(session.fix_log.fixes())),
        )

    def replay_state(changesets):
        """Serial replay of *changesets* on a fresh session — the
        linearization witness the service must match byte-for-byte."""
        session = ShardedCleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config,
            n_workers=1, n_shards=n_shards,
        )
        try:
            session.clean(ds.dirty)
            for changeset in changesets:
                session.apply(Changeset(list(changeset.ops)))
            return session_state(session)
        finally:
            session.close()

    def drive(service, tenant):
        """Closed-loop writers; returns (tickets, elapsed seconds)."""
        all_tickets: List[Any] = []
        lock = threading.Lock()

        def writer(index: int):
            for changeset in writer_plan(index):
                ticket = service.submit(
                    tenant, Changeset(list(changeset.ops))
                )
                ticket.result(timeout=600.0)  # closed loop: wait the ack
                with lock:
                    all_tickets.append(ticket)

        threads = [
            threading.Thread(target=writer, args=(w,))
            for w in range(writers)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return all_tickets, time.perf_counter() - started

    def percentile(values, q):
        if not values:
            return None
        ordered = sorted(values)
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[index]

    def run(service, tenant, injector=None):
        if injector is None:
            tickets, elapsed = drive(service, tenant)
        else:
            with injected(injector):
                tickets, elapsed = drive(service, tenant)
        ordered = sorted(tickets, key=lambda t: t.ack_seq)
        latencies = [t.latency for t in tickets]
        state = session_state(service.registry.get(tenant).session)
        stats = service.stats(tenant)
        service.close()
        replayed_state = replay_state([t.changeset for t in ordered])
        identical = state[0] == replayed_state[0]
        fix_multiset = state[1] == replayed_state[1]
        return {
            "writers": writers,
            "writes": len(tickets),
            "seconds": round(elapsed, 6),
            "throughput_wps": round(len(tickets) / elapsed, 2)
            if elapsed else None,
            "latency_p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
            "latency_p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
            "batches": stats["batches"],
            "coalesce_ratio": round(stats["acked"] / stats["batches"], 2)
            if stats["batches"] else None,
            "recoveries": stats["recoveries"],
            "replayed": stats["replayed"],
            "checkpoints_written": stats["checkpoints_written"],
            "state_identical": identical,
            "fix_multiset_identical": fix_multiset,
        }

    policy = SupervisionPolicy(
        timeout=120.0, max_retries=2, backoff_base=0.01, backoff_max=0.1
    )
    flush = FlushPolicy(max_batch=max_batch, max_linger=max_linger)
    rows: List[Dict[str, Any]] = []

    service = CleaningService(flush_policy=flush)
    service.register("bench", make(policy))
    rows.append({"scenario": "closed_loop", **run(service, "bench")})

    # Mid-stream poison drill: retries disabled so the injected fault
    # escapes supervision and poisons the session; the service must come
    # back from its newest checkpoint, replay the acknowledged ledger
    # tail, and converge to the same serial-replay state.
    checkpoint_root = tempfile.mkdtemp(prefix="ucservice-bench-")
    try:
        poison = SupervisionPolicy(
            timeout=120.0, max_retries=0, serial_fallback=False
        )
        service = CleaningService(flush_policy=flush)
        service.register(
            "bench", make(poison),
            checkpoint_dir=checkpoint_root, checkpoint_every=2,
            max_recoveries=2,
        )
        injector = FaultInjector(
            [FaultSpec(point="dispatch", kind="error",
                       method="apply_shard", after=2, times=1)]
        )
        row = run(service, "bench", injector)
        rows.append({
            "scenario": "poison_recovery",
            "faults_fired": len(injector.log),
            **row,
        })
    finally:
        shutil.rmtree(checkpoint_root, ignore_errors=True)

    all_identical = all(row["state_identical"] for row in rows)
    recovery_row = rows[-1]
    summary = {
        "size": size,
        "n_blocks": n_blocks,
        "n_workers": n_workers,
        "n_shards": n_shards,
        "cpu_count": os.cpu_count(),
        "writers": writers,
        "writes_per_writer": writes_per_writer,
        "max_batch": max_batch,
        "max_linger_s": max_linger,
        "throughput_wps": rows[0]["throughput_wps"],
        "latency_p50_ms": rows[0]["latency_p50_ms"],
        "latency_p99_ms": rows[0]["latency_p99_ms"],
        # The acceptance flags — equivalence, never wall-clock:
        "all_state_identical": all_identical,
        "recovery_converged": bool(
            recovery_row["recoveries"] >= 1
            and recovery_row["state_identical"]
        ),
    }
    return {
        "workload": {
            "dataset": "partitioned",
            "size": size,
            "n_blocks": n_blocks,
            "noise_rate": noise_rate,
            "seed": seed,
        },
        "rows": rows,
        "summary": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES))
    parser.add_argument("--dataset", default="hosp")
    parser.add_argument("--noise-rate", type=float, default=0.06)
    parser.add_argument("--batches", type=int, default=5,
                        help="micro-batches for the incremental scenario")
    parser.add_argument("--edits-per-batch", type=int, default=10)
    parser.add_argument("--skip-incremental", action="store_true")
    parser.add_argument("--sharded-size", type=int, default=4000,
                        help="PART testbed rows for the sharded scenario")
    parser.add_argument("--sharded-blocks", type=int, default=16)
    parser.add_argument("--sharded-workers", type=int, default=2)
    parser.add_argument("--skip-sharded", action="store_true")
    parser.add_argument("--replan-size", type=int, default=4000,
                        help="PART testbed rows for the replan scenario")
    parser.add_argument("--replan-blocks", type=int, default=16)
    parser.add_argument("--replan-workers", type=int, default=2)
    parser.add_argument("--replan-shards", type=int, default=8)
    parser.add_argument("--replan-batches", type=int, default=5)
    parser.add_argument("--replan-inserts", type=int, default=1,
                        help="inserts per replan batch (each forces a re-plan)")
    parser.add_argument("--replan-edits", type=int, default=4)
    parser.add_argument("--skip-replan", action="store_true")
    parser.add_argument("--snapshot-size", type=int, default=4000,
                        help="PART testbed rows for the snapshot scenario")
    parser.add_argument("--snapshot-blocks", type=int, default=16)
    parser.add_argument("--snapshot-workers", type=int, default=2)
    parser.add_argument("--snapshot-shards", type=int, default=8)
    parser.add_argument("--snapshot-batches", type=int, default=4)
    parser.add_argument("--snapshot-cut", type=int, default=2,
                        help="save/restore after this many batches")
    parser.add_argument("--skip-snapshot", action="store_true")
    parser.add_argument("--columnar-size", type=int, default=1_000_000,
                        help="rows for the columnar blocking-scan scenario")
    parser.add_argument("--columnar-blocks", type=int, default=1024)
    parser.add_argument("--skip-columnar", action="store_true")
    parser.add_argument("--repair-size", type=int, default=20_000,
                        help="PART testbed rows for the repair-engine scenario")
    parser.add_argument("--repair-blocks", type=int, default=64)
    parser.add_argument("--skip-repair-engine", action="store_true")
    parser.add_argument("--match-size", type=int, default=500_000,
                        help="DBLP-style master rows for the match-engine "
                             "scenario")
    parser.add_argument("--match-queries", type=int, default=24)
    parser.add_argument("--skip-match-engine", action="store_true")
    parser.add_argument("--faults-size", type=int, default=2000,
                        help="PART testbed rows for the faults scenario")
    parser.add_argument("--faults-blocks", type=int, default=16)
    parser.add_argument("--faults-workers", type=int, default=2)
    parser.add_argument("--faults-shards", type=int, default=8)
    parser.add_argument("--faults-batches", type=int, default=3)
    parser.add_argument("--skip-faults", action="store_true")
    parser.add_argument("--service-size", type=int, default=2000,
                        help="PART testbed rows for the service scenario")
    parser.add_argument("--service-blocks", type=int, default=16)
    parser.add_argument("--service-workers", type=int, default=2,
                        help="worker processes of the served session")
    parser.add_argument("--service-shards", type=int, default=8)
    parser.add_argument("--service-writers", type=int, default=4,
                        help="concurrent closed-loop writer threads")
    parser.add_argument("--service-writes", type=int, default=12,
                        help="writes per writer thread")
    parser.add_argument("--service-batch", type=int, default=8,
                        help="flush policy: max coalesced batch size")
    parser.add_argument("--service-linger", type=float, default=0.02,
                        help="flush policy: max linger seconds")
    parser.add_argument("--skip-service", action="store_true")
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_repair.json",
    )
    args = parser.parse_args(argv)

    report = run_report(args.sizes, dataset=args.dataset, noise_rate=args.noise_rate)
    ok = True
    for entry in report["summary"]:
        print(
            f"  size={entry['size']}: indexed={entry['indexed_s']:.2f}s "
            f"legacy={entry['legacy_s']:.2f}s speedup={entry['speedup']}x "
            f"identical_logs={entry['fix_logs_identical']}"
        )
        ok &= entry["fix_logs_identical"]

    if not args.skip_incremental:
        incremental = run_incremental_report(
            max(args.sizes),
            batches=args.batches,
            edits_per_batch=args.edits_per_batch,
            dataset=args.dataset,
            noise_rate=args.noise_rate,
        )
        report["incremental"] = incremental
        for entry in incremental["summary"]:
            print(
                f"  incremental[{entry['scenario']}] size={entry['size']}: "
                f"apply={entry['apply_total_s']:.2f}s "
                f"full={entry['full_total_s']:.2f}s "
                f"speedup={entry['speedup']}x "
                f"scoped={entry['scoped_batches']}/{entry['batches']} "
                f"state_identical={entry['all_state_identical']}"
            )
            ok &= entry["all_state_identical"]

    if not args.skip_sharded:
        sharded = run_sharded_report(
            size=args.sharded_size,
            n_blocks=args.sharded_blocks,
            n_workers=args.sharded_workers,
        )
        report["sharded"] = sharded
        entry = sharded["summary"]
        print(
            f"  sharded size={entry['size']} shards={entry['n_shards']} "
            f"workers={entry['n_workers']}: "
            f"unsharded={entry['unsharded_clean_s']:.2f}s "
            f"sharded={entry['sharded_clean_s']:.2f}s "
            f"speedup={entry['clean_speedup']}x (cpus={entry['cpu_count']}) "
            f"scoped_applies={entry['scoped_applies']} "
            f"state_identical={entry['all_state_identical']}"
        )
        ok &= entry["all_state_identical"]

    if not args.skip_replan:
        replan = run_replan_report(
            size=args.replan_size,
            n_blocks=args.replan_blocks,
            n_workers=args.replan_workers,
            n_shards=args.replan_shards,
            batches=args.replan_batches,
            inserts_per_batch=args.replan_inserts,
            edits_per_batch=args.replan_edits,
        )
        report["replan"] = replan
        entry = replan["summary"]
        print(
            f"  replan size={entry['size']} shards={entry['n_shards']} "
            f"batches={entry['batches']}: "
            f"recleaned={entry['shards_recleaned_total']} "
            f"reused={entry['shards_reused_total']} "
            f"payload_ratio={entry['payload_ratio']} "
            f"state_identical={entry['all_state_identical']}"
        )
        ok &= entry["all_state_identical"]
        ok &= entry["reuse_effective"]
        ok &= entry["payload_bound_met"]
        ok &= entry["encode_identical"]

    if not args.skip_snapshot:
        snap = run_snapshot_report(
            size=args.snapshot_size,
            n_blocks=args.snapshot_blocks,
            n_workers=args.snapshot_workers,
            n_shards=args.snapshot_shards,
            batches=args.snapshot_batches,
            cut=args.snapshot_cut,
        )
        report["snapshot"] = snap
        entry = snap["summary"]
        print(
            f"  snapshot size={entry['size']} shards={entry['n_shards']} "
            f"cut={entry['cut']}/{entry['batches']}: "
            f"bytes={entry['snapshot_bytes']} "
            f"save={entry['save_s']:.2f}s restore={entry['restore_s']:.2f}s "
            f"restored_reuse={entry['restored_reuse_effective']} "
            f"state_identical={entry['all_state_identical']}"
        )
        ok &= entry["all_state_identical"]
        ok &= entry["reuse_counters_match"]
        ok &= entry["restored_reuse_effective"]

    if not args.skip_columnar:
        columnar = run_columnar_report(
            size=args.columnar_size,
            n_blocks=args.columnar_blocks,
        )
        report["columnar"] = columnar
        entry = columnar["summary"]
        print(
            f"  columnar size={entry['size']}: "
            f"check oracle={entry['reference_check_s']:.2f}s "
            f"kernels={entry['vectorized_check_s']:.2f}s "
            f"speedup={entry['scan_speedup']}x "
            f"(index build {entry['reference_index_s']:.2f}s/"
            f"{entry['vectorized_index_s']:.2f}s, "
            f"e2e x{entry['end_to_end_speedup']}) "
            f"mem={entry['columnar_peak_mem_bytes']}/"
            f"{entry['dict_peak_mem_bytes']}B "
            f"(x{entry['mem_ratio']}) "
            f"violations_identical={entry['violations_identical']}"
        )
        ok &= entry["violations_identical"]
        ok &= entry["mem_improved"]

    if not args.skip_repair_engine:
        repair = run_repair_engine_report(
            size=args.repair_size,
            n_blocks=args.repair_blocks,
        )
        report["repair_engine"] = repair
        entry = repair["summary"]
        print(
            f"  repair-engine size={entry['size']} fixes={entry['fixes']}: "
            f"oracle={entry['reference_total_s']:.2f}s "
            f"kernels={entry['vectorized_total_s']:.2f}s "
            f"speedup={entry['total_speedup']}x "
            f"(c x{entry['crepair_speedup']} e x{entry['erepair_speedup']} "
            f"h x{entry['hrepair_speedup']}) "
            f"mem={entry['vectorized_peak_mem_bytes']}/"
            f"{entry['reference_peak_mem_bytes']}B "
            f"repair_identical={entry['repair_identical']}"
        )
        ok &= entry["repair_identical"]

    if not args.skip_match_engine:
        match = run_match_engine_report(
            size=args.match_size,
            queries=args.match_queries,
        )
        report["match_engine"] = match
        entry = match["summary"]
        for premise, variant in entry["premises"].items():
            print(
                f"  match-engine[{premise}] size={entry['size']} "
                f"queries={entry['queries']}: "
                f"scan={variant['reference_lookup_s']:.2f}s "
                f"join={variant['join_lookup_s']:.2f}s "
                f"speedup={variant['lookup_speedup']}x "
                f"verify_calls={variant['join_verify_calls']}/"
                f"{variant['reference_verify_calls']} "
                f"(x{variant['verify_reduction']} fewer) "
                f"matches_identical={variant['matches_identical']}"
            )
        ok &= entry["matches_identical"]
        ok &= entry["fewer_verify_calls"]

    if not args.skip_faults:
        faults = run_faults_report(
            size=args.faults_size,
            n_blocks=args.faults_blocks,
            n_workers=args.faults_workers,
            n_shards=args.faults_shards,
            batches=args.faults_batches,
        )
        report["faults"] = faults
        entry = faults["summary"]
        for row in faults["rows"]:
            print(
                f"  faults[{row['schedule']}]: {row['seconds']:.2f}s "
                f"(x{row['overhead']}) retries={row['dispatch_retries']} "
                f"respawns={row['worker_respawns']} "
                f"fallbacks={row['serial_fallbacks']} "
                f"state_identical={row['state_identical']}"
            )
        ok &= entry["all_state_identical"]

    if not args.skip_service:
        service = run_service_report(
            size=args.service_size,
            n_blocks=args.service_blocks,
            n_workers=args.service_workers,
            n_shards=args.service_shards,
            writers=args.service_writers,
            writes_per_writer=args.service_writes,
            max_batch=args.service_batch,
            max_linger=args.service_linger,
        )
        report["service"] = service
        for row in service["rows"]:
            print(
                f"  service[{row['scenario']}]: "
                f"{row['writes']} writes x{row['writers']} writers "
                f"in {row['seconds']:.2f}s "
                f"({row['throughput_wps']} w/s, "
                f"p50={row['latency_p50_ms']}ms "
                f"p99={row['latency_p99_ms']}ms, "
                f"{row['batches']} batches, "
                f"recoveries={row['recoveries']}) "
                f"state_identical={row['state_identical']}"
            )
        entry = service["summary"]
        ok &= entry["all_state_identical"]
        ok &= entry["recovery_converged"]

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not ok:
        print(
            "ERROR: a structural assertion failed (engine/state divergence, "
            "no shard reuse across re-plans, columnar payloads above "
            "50% of the PR 3 bytes, a non-identical columnar encode or "
            "violation list, a columnar layout that did not peak below "
            "the dict one, a repair-kernel run that was not "
            "byte-identical to the oracle, a match-engine run whose "
            "match lists diverged from the exhaustive scan or that verified "
            "no fewer pairs, a snapshot restore that diverged "
            "or re-cleaned restored shards, a fault-injected run that "
            "did not recover byte-identically, or a service run whose "
            "final state diverged from the serial replay of its "
            "acknowledged changesets in acknowledgment order); timings "
            "are never asserted on",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
