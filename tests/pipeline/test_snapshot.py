"""Durable session snapshots: round trips, crash consistency, versioning.

Covers the ISSUE 5 snapshot subsystem (``repro/pipeline/snapshot.py``):

* save/restore round trips for :class:`CleaningSession` and
  :class:`ShardedCleaningSession`, with byte-identical post-restore
  apply observables (the fuzzed trajectory version lives in
  ``tests/properties/test_property_snapshot.py``);
* crash consistency — any bit flip or truncation raises
  :class:`SnapshotCorrupt` before state is decoded, and a failed write
  never clobbers the previous snapshot (temp-file + rename atomicity);
* the version-compatibility scaffold — a committed golden fixture that
  current code must keep restoring, and an explicit unsupported-version
  refusal, so format changes must bump the version byte consciously.
"""

import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.constraints import CFD, MD
from repro.core import UniCleanConfig
from repro.exceptions import DataError, SnapshotCorrupt, SnapshotError
from repro.pipeline import Changeset, CleaningSession, ShardedCleaningSession
from repro.pipeline import snapshot
from repro.relational import Relation, Schema
from repro.similarity.predicates import edit_within

SCHEMA = Schema("R", ["blk", "K", "A", "B", "nm"])
MASTER_SCHEMA = Schema("Rm", ["blk", "nm", "A"])

CFDS = [
    CFD(SCHEMA, ["blk", "K"], ["A"], name="fd_ka"),
    CFD(SCHEMA, ["K"], ["B"], name="fd_kb"),
    CFD(SCHEMA, ["K"], ["B"], {"K": "k1", "B": "b1"}, name="const_kb"),
]
MDS = [
    MD(SCHEMA, MASTER_SCHEMA,
       [("blk", "blk"), ("nm", "nm", edit_within(1))],
       [("A", "A")], name="md_a"),
]
MASTER = Relation.from_dicts(
    MASTER_SCHEMA,
    [
        {"blk": "x", "nm": "nm1", "A": "aX"},
        {"blk": "y", "nm": "nm2", "A": "aY"},
    ],
)
CONFIG = UniCleanConfig(eta=1.0)

ROWS = [
    ("x", "k1", "a1", "b2", "nm1"),
    ("x", "k1", "a2", "b1", "nm1"),
    ("y", "k2", "a1", "b2", "nm2"),
    ("y", "k2", "a2", "b2", "nm2"),
    ("x", "k3", "a1", "b1", "nm8"),
    # k4, not k3: fd_kb couples rows sharing K across blocks, and the
    # reuse tests need the x/y components to stay shard-local.
    ("y", "k4", "a2", "b1", "nm8"),
]


def build_relation() -> Relation:
    relation = Relation(SCHEMA)
    for blk, k, a, b, nm in ROWS:
        relation.add_row(
            {"blk": blk, "K": k, "A": a, "B": b, "nm": nm},
            {"K": 1.0, "A": 0.0, "B": 0.0, "blk": 1.0, "nm": 0.0},
        )
    return relation


def make_session(**kwargs) -> CleaningSession:
    return CleaningSession(
        cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG, **kwargs
    )


def make_sharded(**kwargs) -> ShardedCleaningSession:
    kwargs.setdefault("n_workers", 1)
    kwargs.setdefault("n_shards", 2)
    return ShardedCleaningSession(
        cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG, **kwargs
    )


def full_state(relation):
    return {
        t.tid: tuple((repr(t[a]), t.conf(a)) for a in relation.schema.names)
        for t in relation
    }


def fingerprint(log):
    return [
        (f.kind.value, f.rule_name, f.tid, f.attr, repr(f.old_value),
         repr(f.new_value), repr(f.source))
        for f in log
    ]


def assert_same(one, two):
    assert full_state(one.repaired) == full_state(two.repaired)
    assert fingerprint(one.fix_log) == fingerprint(two.fix_log)
    assert abs(one.cost - two.cost) < 1e-12
    assert one.clean == two.clean


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_pack_unpack_round_trip(self):
        sections = {"alpha": b"abc", "beta": b"", "gamma": b"\x00" * 100}
        blob = snapshot.pack_snapshot("demo", sections)
        kind, out = snapshot.unpack_snapshot(blob)
        assert kind == "demo"
        assert out == sections

    def test_kind_mismatch_is_corruption(self):
        blob = snapshot.pack_snapshot("demo", {"s": b"x"})
        with pytest.raises(SnapshotCorrupt, match="kind"):
            snapshot.unpack_snapshot(blob, expect_kind="other")

    def test_unsupported_version_is_refused(self):
        blob = bytearray(snapshot.pack_snapshot("demo", {"s": b"x"}))
        blob[len(snapshot.SNAPSHOT_MAGIC)] = snapshot.SNAPSHOT_VERSION + 1
        # Re-sign so the version byte (not the checksum) is what trips.
        body = bytes(blob[:-32])
        resigned = body + hashlib.sha256(body).digest()
        with pytest.raises(SnapshotCorrupt, match="version"):
            snapshot.unpack_snapshot(resigned)

    def test_bad_magic(self):
        with pytest.raises(SnapshotCorrupt, match="magic"):
            snapshot.unpack_snapshot(b"NOPE" + b"\x00" * 64)

    def test_too_short(self):
        with pytest.raises(SnapshotCorrupt):
            snapshot.unpack_snapshot(b"UC")


# ----------------------------------------------------------------------
# Unsharded sessions
# ----------------------------------------------------------------------
class TestSessionSnapshot:
    def test_round_trip_preserves_session_state(self, tmp_path):
        live = make_session()
        live.clean(build_relation())
        live.apply(Changeset().edit(0, "A", "a2").edit(4, "B", "b2"))
        path = tmp_path / "session.snap"
        size = live.save(path)
        assert size == path.stat().st_size > 0

        twin = CleaningSession.restore(path)
        assert full_state(twin.base) == full_state(live.base)
        assert full_state(twin.working) == full_state(live.working)
        assert fingerprint(twin.fix_log) == fingerprint(live.fix_log)
        assert twin._cell_costs == live._cell_costs
        assert list(twin._cell_costs) == list(live._cell_costs)  # order too
        assert twin._last_clean == live._last_clean
        assert twin.base._next_tid == live.base._next_tid
        assert twin.base._retired == live.base._retired

    def test_match_cache_is_rewarmed(self, tmp_path):
        live = make_session()
        live.clean(build_relation())
        cached = {
            name: dict(index._match_cache)
            for name, index in live.md_indexes.items()
        }
        assert any(cached.values()), "workload should exercise the MD cache"
        path = tmp_path / "session.snap"
        live.save(path)
        twin = CleaningSession.restore(path)
        for name, entries in cached.items():
            twin_cache = twin.md_indexes[name]._match_cache
            assert list(twin_cache) == list(entries)
            for key, matched in entries.items():
                assert [s.tid for s in twin_cache[key]] == [
                    s.tid for s in matched
                ]

    def test_post_restore_applies_are_byte_identical(self, tmp_path):
        live = make_session()
        twin_source = make_session()
        relation = build_relation()
        live.clean(relation)
        twin_source.clean(relation)
        first = Changeset().edit(1, "B", "b2")
        live.apply(Changeset(list(first.ops)))
        twin_source.apply(Changeset(list(first.ops)))
        path = tmp_path / "session.snap"
        twin_source.save(path)
        twin = CleaningSession.restore(path)

        batches = [
            Changeset().edit(2, "B", "b1").edit(0, "nm", "nm2"),
            Changeset().insert(
                {"blk": "x", "K": "k1", "A": "a1", "B": "b2", "nm": "nm1"}
            ),
            Changeset().delete(3).edit(5, "A", "a1"),
        ]
        for changeset in batches:
            one = live.apply(Changeset(list(changeset.ops)))
            two = twin.apply(Changeset(list(changeset.ops)))
            assert_same(one, two)
        assert live.is_clean() == twin.is_clean()

    def test_ever_group_keys_survive(self, tmp_path):
        live = make_session(collect_traces=True)
        live.clean(build_relation())
        # Force a transient group key that no longer exists on the data.
        live.apply(Changeset().edit(0, "K", "k9"))
        live.apply(Changeset().edit(0, "K", "k1"))
        assert any(live.ever_group_keys.values())
        path = tmp_path / "session.snap"
        live.save(path)
        twin = CleaningSession.restore(path)
        assert twin.collect_traces
        assert twin.ever_group_keys == live.ever_group_keys

    @pytest.mark.parametrize(
        "config",
        [
            UniCleanConfig(eta=1.0),  # cfd-only, no master data
            UniCleanConfig(eta=1.0, use_violation_index=False),  # legacy
        ],
        ids=["no-master", "legacy-engine"],
    )
    def test_round_trip_without_mds_and_on_legacy_engine(
        self, tmp_path, config
    ):
        cfd_schema = Schema("S", ["K", "A", "B"])
        cfds = [
            CFD(cfd_schema, ["K"], ["A"], name="fd_ka"),
            CFD(cfd_schema, ["A"], ["B"], name="fd_ab"),
        ]
        relation = Relation(cfd_schema)
        for k, a, b, conf in [
            ("k1", "a1", "b1", 1.0),
            ("k1", "a2", "b2", 0.0),
            ("k2", "a1", "b2", 0.0),
        ]:
            relation.add_row(
                {"K": k, "A": a, "B": b}, {"K": conf, "A": conf, "B": 0.0}
            )
        live = CleaningSession(cfds=cfds, config=config)
        twin_source = CleaningSession(cfds=cfds, config=config)
        live.clean(relation)
        twin_source.clean(relation)
        path = tmp_path / "session.snap"
        twin_source.save(path)
        twin = CleaningSession.restore(path)
        changeset = Changeset().edit(2, "A", "a2").insert(
            {"K": "k2", "A": "a1", "B": "b2"}
        )
        assert_same(
            live.apply(Changeset(list(changeset.ops))),
            twin.apply(Changeset(list(changeset.ops))),
        )

    def test_save_requires_clean(self, tmp_path):
        with pytest.raises(DataError, match="clean"):
            make_session().save(tmp_path / "nope.snap")

    def test_restore_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot"):
            CleaningSession.restore(tmp_path / "absent.snap")


# ----------------------------------------------------------------------
# Crash consistency
# ----------------------------------------------------------------------
class TestCrashConsistency:
    @pytest.fixture()
    def saved(self, tmp_path):
        session = make_session()
        session.clean(build_relation())
        path = tmp_path / "session.snap"
        session.save(path)
        return path

    def test_bit_flips_raise_snapshot_corrupt(self, saved):
        blob = saved.read_bytes()
        rng = random.Random(0xC0FFEE)
        for _ in range(64):
            corrupted = bytearray(blob)
            offset = rng.randrange(len(corrupted))
            corrupted[offset] ^= rng.randrange(1, 256)
            saved.write_bytes(bytes(corrupted))
            with pytest.raises(SnapshotCorrupt):
                CleaningSession.restore(saved)

    def test_truncations_raise_snapshot_corrupt(self, saved):
        blob = saved.read_bytes()
        rng = random.Random(0xBEEF)
        cuts = {0, 1, len(blob) - 1} | {
            rng.randrange(len(blob)) for _ in range(32)
        }
        for cut in sorted(cuts):
            saved.write_bytes(blob[:cut])
            with pytest.raises(SnapshotCorrupt):
                CleaningSession.restore(saved)

    def test_failed_write_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        session = make_session()
        session.clean(build_relation())
        path = tmp_path / "session.snap"
        session.save(path)
        original = path.read_bytes()

        session.apply(Changeset().edit(0, "A", "a2"))

        def boom(_src, _dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(snapshot.os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            session.save(path)
        monkeypatch.undo()

        # Target untouched, temp file cleaned up, old snapshot restores.
        assert path.read_bytes() == original
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        CleaningSession.restore(path)

        # And a retry after the "crash" succeeds with the new state.
        session.save(path)
        twin = CleaningSession.restore(path)
        assert full_state(twin.working) == full_state(session.working)


# ----------------------------------------------------------------------
# Sharded sessions
# ----------------------------------------------------------------------
class TestShardedSnapshot:
    def test_round_trip_and_byte_identical_applies(self, tmp_path):
        relation = build_relation()
        live = make_sharded()
        twin_source = make_sharded()
        live.clean(relation)
        twin_source.clean(relation)
        first = Changeset().edit(1, "B", "b2")
        live.apply(Changeset(list(first.ops)))
        twin_source.apply(Changeset(list(first.ops)))

        path = tmp_path / "sharded"
        twin_source.save(path)
        twin_source.close()
        twin = ShardedCleaningSession.restore(path)
        assert full_state(twin.working) == full_state(live.working)
        assert fingerprint(twin.fix_log) == fingerprint(live.fix_log)
        assert twin.plan.ids == live.plan.ids
        assert twin.plan.shards == live.plan.shards

        batches = [
            Changeset().edit(2, "B", "b1"),
            Changeset().insert(
                {"blk": "y", "K": "k2", "A": "a9", "B": "b2", "nm": "nm2"}
            ),
            Changeset().edit(0, "K", "k3"),  # premise edit: re-plan path
        ]
        for changeset in batches:
            one = live.apply(Changeset(list(changeset.ops)))
            two = twin.apply(Changeset(list(changeset.ops)))
            assert_same(one, two)
        assert live.is_clean() == twin.is_clean()
        live.close()
        twin.close()

    def test_restored_shards_are_reused_by_sticky_replan(self, tmp_path):
        live = make_sharded()
        live.clean(build_relation())
        path = tmp_path / "sharded"
        live.save(path)
        live.close()
        twin = ShardedCleaningSession.restore(path)
        before = dict(twin.stats)
        # An insert into block y re-plans; the x-shard is untouched and
        # must be reused straight from its restored worker session.
        twin.apply(
            Changeset().insert(
                {"blk": "y", "K": "k2", "A": "a9", "B": "b2", "nm": "nm2"}
            )
        )
        reused = twin.stats["shards_reused"] - before["shards_reused"]
        recleaned = twin.stats["shards_recleaned"] - before["shards_recleaned"]
        assert reused >= 1, "restored shard must be reused, not re-cleaned"
        assert recleaned < twin.plan.n_shards + reused
        twin.close()

    def test_logical_stats_continue_across_restore(self, tmp_path):
        live = make_sharded()
        live.clean(build_relation())
        live.apply(Changeset().edit(2, "B", "b1"))
        path = tmp_path / "sharded"
        live.save(path)
        stats = dict(live.stats)
        live.close()
        twin = ShardedCleaningSession.restore(path)
        for counter in ("plans", "collision_retries", "scoped_applies",
                        "full_applies", "shards_recleaned", "shards_reused"):
            assert twin.stats[counter] == stats[counter]
        twin.close()

    def test_save_with_buffered_changesets_raises(self, tmp_path):
        live = make_sharded()
        live.clean(build_relation())
        live.buffer(Changeset().edit(0, "A", "a2"))
        with pytest.raises(DataError, match="flush"):
            live.save(tmp_path / "sharded")
        live.flush()
        live.save(tmp_path / "sharded")
        live.close()

    def test_shard_file_tamper_is_detected(self, tmp_path):
        live = make_sharded()
        live.clean(build_relation())
        path = tmp_path / "sharded"
        live.save(path)
        live.close()
        shard_file = sorted(path.glob("shard-*.snap"))[0]
        blob = bytearray(shard_file.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        shard_file.write_bytes(bytes(blob))
        with pytest.raises(SnapshotCorrupt, match="manifest digest"):
            ShardedCleaningSession.restore(path)

    def test_missing_shard_file_is_detected(self, tmp_path):
        live = make_sharded()
        live.clean(build_relation())
        path = tmp_path / "sharded"
        live.save(path)
        live.close()
        sorted(path.glob("shard-*.snap"))[0].unlink()
        with pytest.raises(SnapshotCorrupt, match="missing shard file"):
            ShardedCleaningSession.restore(path)

    def test_crashed_resave_leaves_previous_snapshot_restorable(
        self, tmp_path, monkeypatch
    ):
        """Shard files are content-addressed, so a re-save that dies
        after writing shard files but before the manifest rename never
        overwrites anything the installed manifest references."""
        live = make_sharded()
        live.clean(build_relation())
        path = tmp_path / "sharded"
        live.save(path)
        saved_state = full_state(live.working)
        saved_log = fingerprint(live.fix_log)

        # Evolve the session state without changing any tid set (the
        # shard content ids — and hence the old naming scheme's file
        # names — stay identical).
        live.apply(Changeset().edit(2, "B", "b1"))

        real_write = snapshot.write_snapshot_file

        def crash_on_manifest(target, blob):
            if Path(target).name == snapshot.MANIFEST_NAME:
                raise OSError("simulated crash before the manifest rename")
            return real_write(target, blob)

        monkeypatch.setattr(snapshot, "write_snapshot_file", crash_on_manifest)
        with pytest.raises(OSError, match="simulated crash"):
            live.save(path)
        monkeypatch.undo()
        live.close()

        twin = ShardedCleaningSession.restore(path)
        assert full_state(twin.working) == saved_state
        assert fingerprint(twin.fix_log) == saved_log
        twin.close()

    def test_resave_prunes_stale_shard_files(self, tmp_path):
        live = make_sharded()
        live.clean(build_relation())
        path = tmp_path / "sharded"
        live.save(path)
        # A premise edit re-shards: new content ids, new shard files.
        live.apply(Changeset().edit(0, "K", "k2"))
        live.save(path)
        manifest_kind, sections = snapshot.read_snapshot_file(
            path / snapshot.MANIFEST_NAME, expect_kind="sharded"
        )
        meta = pickle.loads(sections["meta"])
        named = {file_name for _sid, file_name, _d in meta["shard_files"]}
        on_disk = {p.name for p in path.glob("shard-*.snap")}
        assert on_disk == named
        ShardedCleaningSession.restore(path).close()
        live.close()

    def test_worker_count_override(self, tmp_path):
        live = make_sharded(n_workers=1, n_shards=2)
        live.clean(build_relation())
        reference = live.apply(Changeset().edit(2, "B", "b1"))
        path = tmp_path / "sharded"
        live.close()  # closed sessions cannot save
        with pytest.raises(DataError):
            live.save(path)

        live = make_sharded(n_workers=1, n_shards=2)
        live.clean(build_relation())
        live.save(path)
        live.close()
        twin = ShardedCleaningSession.restore(path, n_workers=2)
        assert twin.n_workers == 2
        out = twin.apply(Changeset().edit(2, "B", "b1"))
        assert_same(reference, out)
        twin.close()


# ----------------------------------------------------------------------
# Fresh-process restore
# ----------------------------------------------------------------------
class TestFreshProcessRestore:
    def test_sharded_restore_in_fresh_process(self, tmp_path):
        relation = build_relation()
        live = make_sharded()
        live.clean(relation)
        path = tmp_path / "sharded"
        live.save(path)

        changeset_ops = [(2, "B", "b1"), (0, "A", "a2")]
        changeset = Changeset()
        for tid, attr, value in changeset_ops:
            changeset.edit(tid, attr, value)
        expected = live.apply(changeset)
        expected_blob = {
            "state": {
                str(tid): list(cells)
                for tid, cells in full_state(expected.repaired).items()
            },
            "log": fingerprint(expected.fix_log),
            "cost": expected.cost,
            "clean": expected.clean,
        }
        live.close()

        script = (
            "import json, sys\n"
            "from repro.pipeline import Changeset, ShardedCleaningSession\n"
            "session = ShardedCleaningSession.restore(sys.argv[1])\n"
            "changeset = Changeset()\n"
            "for tid, attr, value in json.loads(sys.argv[2]):\n"
            "    changeset.edit(tid, attr, value)\n"
            "out = session.apply(changeset)\n"
            "names = out.repaired.schema.names\n"
            "state = {str(t.tid): [[repr(t[a]), t.conf(a)] for a in names]\n"
            "         for t in out.repaired}\n"
            "log = [[f.kind.value, f.rule_name, f.tid, f.attr,\n"
            "        repr(f.old_value), repr(f.new_value), repr(f.source)]\n"
            "       for f in out.fix_log]\n"
            "print(json.dumps({'state': state, 'log': log,\n"
            "                  'cost': out.cost, 'clean': out.clean}))\n"
            "session.close()\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path), json.dumps(changeset_ops)],
            capture_output=True, text=True, env=env, timeout=240,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["state"] == {
            tid: [list(cell) for cell in cells]
            for tid, cells in expected_blob["state"].items()
        }
        assert [tuple(row) for row in got["log"]] == expected_blob["log"]
        assert abs(got["cost"] - expected_blob["cost"]) < 1e-12
        assert got["clean"] == expected_blob["clean"]


# ----------------------------------------------------------------------
# Version compatibility (golden fixture)
# ----------------------------------------------------------------------
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_SNAP = FIXTURES / "golden_session_v1.snap"
GOLDEN_JSON = FIXTURES / "golden_session_v1.json"


def build_golden_session() -> CleaningSession:
    """The deterministic session behind the committed golden fixture.

    Regenerate the fixture (only together with a conscious
    SNAPSHOT_VERSION bump) via::

        PYTHONPATH=src:tests python -c \
          "from pipeline.test_snapshot import write_golden; write_golden()"
    """
    session = make_session(collect_traces=True)
    session.clean(build_relation())
    session.apply(Changeset().edit(0, "A", "a2").edit(2, "B", "b1"))
    return session


def golden_expectation(session: CleaningSession) -> dict:
    return {
        "snapshot_version": snapshot.SNAPSHOT_VERSION,
        "working": {
            str(tid): [list(cell) for cell in cells]
            for tid, cells in full_state(session.working).items()
        },
        "base": {
            str(tid): [list(cell) for cell in cells]
            for tid, cells in full_state(session.base).items()
        },
        "log": [list(row) for row in fingerprint(session.fix_log)],
        "cost": sum(session._cell_costs.values()),
        "last_clean": session._last_clean,
    }


def write_golden() -> None:  # pragma: no cover - fixture regeneration tool
    FIXTURES.mkdir(exist_ok=True)
    session = build_golden_session()
    session.save(GOLDEN_SNAP)
    GOLDEN_JSON.write_text(
        json.dumps(golden_expectation(session), indent=2) + "\n"
    )


class TestGoldenFixture:
    def test_current_code_restores_v1_fixture(self):
        """The committed version-1 snapshot must keep restoring: a format
        change that breaks this test must bump SNAPSHOT_VERSION (and add
        a new fixture) instead of silently reinterpreting old bytes."""
        expected = json.loads(GOLDEN_JSON.read_text())
        assert expected["snapshot_version"] == snapshot.SNAPSHOT_VERSION, (
            "SNAPSHOT_VERSION changed: commit a new golden fixture for the "
            "new version (write_golden) and keep a restore path or a "
            "documented migration for version-1 snapshots"
        )
        session = CleaningSession.restore(GOLDEN_SNAP)
        got = golden_expectation(session)
        assert got == expected
        # Written before the config had a match engine: loads as the default.
        assert session.config.match_engine == "join"

    def test_restored_fixture_session_still_cleans(self):
        session = CleaningSession.restore(GOLDEN_SNAP)
        out = session.apply(Changeset().edit(1, "B", "b2"))
        assert out.fix_log is session.fix_log
        assert session.is_clean() == out.clean


# ----------------------------------------------------------------------
# Retained checkpoints
# ----------------------------------------------------------------------
class TestCheckpointRetention:
    """The checkpoint store under a directory: monotone sequence numbers,
    bounded retention, and newest-restorable fallback."""

    def _checkpointed(self, root, n=5):
        session = make_sharded()
        session.clean(build_relation())
        snapshot.save_checkpoint(session, root, retain=n)
        trail = [
            (full_state(session.working), fingerprint(session.fix_log.fixes()))
        ]
        for i in range(1, n):
            session.apply(Changeset().edit(1, "B", f"b-ck-{i}"))
            snapshot.save_checkpoint(session, root, retain=n)
            trail.append(
                (full_state(session.working),
                 fingerprint(session.fix_log.fixes()))
            )
        session.close()
        return trail

    def test_keeps_only_the_newest_k(self, tmp_path):
        root = tmp_path / "ck"
        session = make_sharded()
        session.clean(build_relation())
        for i in range(5):
            snapshot.save_checkpoint(session, root, retain=2)
            session.apply(Changeset().edit(1, "B", f"b-{i}"))
        session.close()
        kept = snapshot.list_checkpoints(root)
        # Sequence numbers keep counting up even as old ones are pruned.
        assert [p.name for p in kept] == [
            "checkpoint-000004", "checkpoint-000005"
        ]

    def test_restores_the_newest(self, tmp_path):
        root = tmp_path / "ck"
        trail = self._checkpointed(root)
        restored = snapshot.restore_latest_checkpoint(root)
        got = (full_state(restored.working),
               fingerprint(restored.fix_log.fixes()))
        assert got == trail[-1]
        restored.close()

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        root = tmp_path / "ck"
        trail = self._checkpointed(root)
        newest = snapshot.list_checkpoints(root)[-1]
        manifest = newest / "manifest.snap"
        blob = bytearray(manifest.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        manifest.write_bytes(bytes(blob))
        restored = snapshot.restore_latest_checkpoint(root)
        got = (full_state(restored.working),
               fingerprint(restored.fix_log.fixes()))
        assert got == trail[-2]
        restored.close()

    def test_half_written_newest_falls_back(self, tmp_path):
        """A crash mid-save leaves shard files without a valid manifest
        (the manifest is written last): that checkpoint is skipped."""
        root = tmp_path / "ck"
        trail = self._checkpointed(root)
        torn = root / "checkpoint-000009"
        torn.mkdir()
        (torn / "shard-0.snap").write_bytes(b"half-written")
        restored = snapshot.restore_latest_checkpoint(root)
        got = (full_state(restored.working),
               fingerprint(restored.fix_log.fixes()))
        assert got == trail[-1]
        restored.close()

    def test_raises_when_nothing_restorable(self, tmp_path):
        with pytest.raises(SnapshotError, match="no checkpoints"):
            snapshot.restore_latest_checkpoint(tmp_path)
        bad = tmp_path / "checkpoint-000001"
        bad.mkdir()
        (bad / "manifest.snap").write_bytes(b"garbage")
        with pytest.raises(SnapshotError, match="no restorable"):
            snapshot.restore_latest_checkpoint(tmp_path)

    def test_non_checkpoint_entries_are_ignored(self, tmp_path):
        root = tmp_path / "ck"
        self._checkpointed(root, n=2)
        (root / "checkpoint-notanumber").mkdir()
        (root / "unrelated.txt").write_text("x")
        names = [p.name for p in snapshot.list_checkpoints(root)]
        assert names == ["checkpoint-000001", "checkpoint-000002"]
