"""Tests of the benchmark harness: the percentile rule, span self time,
due-time latency, and a tiny run of every workload with its output
checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}
GATED = {w["name"] for w in BENCH["workloads"]}

TINY = {
    "clean_part": workloads.Params(rows=120, blocks=4),
    "clean_dblp": workloads.Params(rows=60, master_rows=30, noise=0.06),
    "serve_part": workloads.Params(
        rows=160, blocks=4, n_shards=4, write_rate=40.0, read_rate=10.0,
        burst=8,
    ),
    "churn_part": workloads.Params(rows=160, blocks=4, trace_applies=5),
}


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
class TestTail:
    def test_highest_percentile_with_ten_beyond(self):
        pct, value, n = measure.tail(list(range(1, 101)))
        assert (pct, value, n) == (90.0, 90, 100)

    def test_rank_counts_exactly_ten_beyond(self):
        samples = [float(x) for x in range(1, 31)]
        pct, value, n = measure.tail(samples)
        assert n == 30
        assert sum(1 for s in samples if s > value) == 10
        assert pct == pytest.approx(200 / 3)

    def test_order_does_not_matter(self):
        assert measure.tail([5, 1, 4, 2, 3] * 10) == measure.tail(
            sorted([5, 1, 4, 2, 3] * 10)
        )

    def test_too_few_samples_report_the_median(self):
        assert measure.tail([3.0, 1.0, 2.0]) == (50.0, 2.0, 3)
        # 18 samples: rank 8 has ten beyond it but sits below the median
        pct, value, _ = measure.tail(list(range(18)))
        assert (pct, value) == (50.0, 8.5)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            measure.tail([])

    def test_spread_is_iqr_over_median(self):
        assert measure.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
            (8.25 - 2.75) / 5.5
        )


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        root = spans.Span("root", 0.0, 10.0)
        a = spans.Span("a", 1.0, 3.0, root)
        s = [
            root,
            a,
            spans.Span("b", 2.0, 5.0, root),     # overlaps a: union is 1..5
            spans.Span("a.x", 1.5, 2.0, a),
            spans.Span("c", 9.0, 12.0, root),    # clipped to the parent: 9..10
        ]
        own = spans.self_times(s)
        assert own == pytest.approx([10 - 4 - 1, 1.5, 3.0, 0.5, 3.0])
        assert spans.self_time_by_name(s)["root"] == pytest.approx(5.0)

    def test_recorder_nests_calls(self):
        ticks = iter(range(100))
        recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
        inner = recorder.wrap(lambda: None, "inner")
        outer = recorder.wrap(lambda: inner(), "outer")
        outer()                               # outer 0..3, inner 1..2
        assert recorder.dump() == [
            ("outer", 0.0, 3.0, -1, None), ("inner", 1.0, 2.0, 0, None),
        ]
        assert spans.self_time_by_name(recorder.spans) == {
            "outer": 2.0, "inner": 1.0,
        }

    def test_threads_keep_their_own_parents(self):
        recorder = spans.SpanRecorder()
        inner = recorder.wrap(lambda: None, "inner")
        outer = recorder.wrap(
            lambda: threading.Thread(target=inner).start() or inner(), "outer"
        )
        outer()
        deadline = time.monotonic() + 10
        while len(recorder.spans) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        parents = sorted(
            (s.name, s.parent.name if s.parent else "") for s in recorder.spans
        )
        assert parents == [("inner", ""), ("inner", "outer"), ("outer", "")]

    def test_same_name_nesting_records_one_span(self):
        recorder = spans.SpanRecorder()
        inner = recorder.wrap(lambda: 1, "x")
        middle = recorder.wrap(lambda: inner(), "y")
        outer = recorder.wrap(lambda: middle(), "x")
        assert outer() == 1
        assert [s.name for s in recorder.spans] == ["x", "y"]

    def test_traced_restores_every_target(self):
        from repro.pipeline import session as session_mod
        from repro.relational.relation import Relation

        clone, crepair = Relation.clone, session_mod.crepair
        with spans.traced(spans.SpanRecorder()):
            assert Relation.clone is not clone
            assert session_mod.crepair is not crepair
        assert Relation.clone is clone
        assert session_mod.crepair is crepair


# ----------------------------------------------------------------------
# Due-time latency
# ----------------------------------------------------------------------
class _Ticket:
    def __init__(self, seq):
        self.seq = seq
        self.acked_at = time.monotonic()

    def result(self, timeout=None):
        return type("R", (), {"clean": True})()


class _StallingService:
    """Acknowledges writes at once; every read stalls the caller."""

    def __init__(self, stall):
        self.stall = stall
        self.seq = 0

    def submit(self, tenant, changeset):
        self.seq += 1
        return _Ticket(self.seq)

    def query(self, tenant, fn):
        time.sleep(self.stall)


def test_due_time_latency_charges_a_stall_to_later_requests():
    events = [(0.0, "read", 1), (0.01, "write", None), (0.02, "write", None)]
    loop = workloads._open_loop(_StallingService(0.2), events, burst=[])
    # both writes were due during the stalled read: each waited for it
    assert loop.writes == 2 and loop.write_errors == 0
    assert min(loop.write_lat) >= 0.17
    assert max(loop.lags) >= 0.17
    assert loop.read_lat[0] >= 0.2


# ----------------------------------------------------------------------
# Tiny runs of every workload, with their output checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(TINY))
def test_plain_run_reports_every_end_to_end_metric(name):
    out = workloads.run(name, seed=3, seconds=0.2, trace=False, params=TINY[name])
    assert out.correct, out.problems
    assert out.failed == 0 and out.attempted >= 1
    assert set(out.metrics) == E2E
    assert all(m["value"] > 0 for m in out.metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name):
    out = workloads.run(name, seed=3, seconds=0.2, trace=True, params=TINY[name])
    assert out.correct, out.problems
    if name in GATED:
        assert set(out.metrics) == PER_LAYER
    else:
        assert set(out.metrics) > PER_LAYER
    assert out.spans and all(end >= start for _, start, end, _, _ in out.spans)


def test_same_seed_same_inputs():
    a = workloads.make_dataset("clean_part", TINY["clean_part"], 5)
    b = workloads.make_dataset("clean_part", TINY["clean_part"], 5)
    assert workloads.fingerprint(a.dirty) == workloads.fingerprint(b.dirty)


def test_a_wrong_state_fails_the_run(monkeypatch):
    real = workloads.timed_reference_clean

    def off_by_one_edit(ds, base):
        skewed = base.clone()
        t = skewed.by_tid(skewed.tids()[0])
        skewed.set_value(t, "score", "999")
        return real(ds, skewed)

    monkeypatch.setattr(workloads, "timed_reference_clean", off_by_one_edit)
    out = workloads.run("churn_part", seed=3, seconds=0.2, trace=False,
                        params=TINY["churn_part"])
    assert not out.correct
    assert out.failed == out.attempted


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clean_part",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
