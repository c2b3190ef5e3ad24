"""Property tests: delta-driven re-cleaning ≡ from-scratch cleaning.

The contract of :meth:`CleaningSession.apply` (ISSUE 2 acceptance
semantics): after ``clean()`` and any sequence of changesets, the working
relation must be in the state a full pipeline run over the edited base
relation would produce, with the same satisfaction verdict — across all
three phases and for partial pipelines.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constraints import CFD, MD
from repro.core import UniClean, UniCleanConfig
from repro.pipeline import Changeset, CleaningSession
from repro.relational import NULL, Relation, Schema

SCHEMA = Schema("R", ["K", "A", "B"])
MASTER_SCHEMA = Schema("Rm", ["K", "B"])

CFDS = [
    CFD(SCHEMA, ["K"], ["A"], name="fd_ka"),
    CFD(SCHEMA, ["A"], ["B"], name="fd_ab"),
    CFD(SCHEMA, ["K"], ["B"], {"K": "k1", "B": "b1"}, name="const_kb"),
]
MDS = [MD(SCHEMA, MASTER_SCHEMA, [("K", "K")], [("B", "B")], name="md_kb")]

keys = st.sampled_from(["k1", "k2", "k3"])
values = st.sampled_from(["a1", "a2", "b1", "b2"])
confs = st.sampled_from([0.0, 0.5, 1.0])
rows = st.lists(
    st.tuples(keys, values, values, confs, confs, confs), min_size=2, max_size=10
)

#: One changeset op in compact form; tids are taken modulo the live count.
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("edit"),
            st.integers(min_value=0, max_value=9),
            st.sampled_from(["K", "A", "B"]),
            st.sampled_from(["k1", "k2", "a1", "b1", "b2", NULL]),
            st.sampled_from([None, 0.0, 1.0]),  # None = keep confidence
        ),
        st.tuples(st.just("insert"), keys, values, values, confs),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=9)),
    ),
    min_size=1,
    max_size=6,
)

CONFIGS = [
    UniCleanConfig(eta=0.8),
    UniCleanConfig(eta=0.8, run_erepair=False, run_hrepair=False),  # cRepair only
    UniCleanConfig(eta=0.8, run_hrepair=False),  # cRepair + eRepair
]


def build_relation(data) -> Relation:
    relation = Relation(SCHEMA)
    for k, a, b, ck, ca, cb in data:
        relation.add_row({"K": k, "A": a, "B": b}, {"K": ck, "A": ca, "B": cb})
    return relation


def build_master() -> Relation:
    return Relation.from_dicts(
        MASTER_SCHEMA, [{"K": "k1", "B": "b1"}, {"K": "k2", "B": "b2"}]
    )


def build_changeset(relation: Relation, compact) -> Changeset:
    changeset = Changeset()
    live = list(relation.tids())
    deleted = set()
    for op in compact:
        if op[0] == "edit":
            _tag, raw, attr, value, conf = op
            candidates = [t for t in live if t not in deleted]
            if not candidates:
                continue
            tid = candidates[raw % len(candidates)]
            if conf is None:
                changeset.edit(tid, attr, value)
            else:
                changeset.edit(tid, attr, value, conf=conf)
        elif op[0] == "insert":
            _tag, k, a, b = op[0], op[1], op[2], op[3]
            changeset.insert({"K": k, "A": a, "B": b}, {"K": op[4]})
        else:
            candidates = [t for t in live if t not in deleted]
            if not candidates:
                continue
            tid = candidates[op[1] % len(candidates)]
            deleted.add(tid)
            changeset.delete(tid)
    return changeset


def state(relation: Relation):
    return {t.tid: {a: t[a] for a in relation.schema.names} for t in relation}


def check_apply_equivalence(data, compact_batches, config, with_mds: bool):
    master = build_master() if with_mds else None
    mds = MDS if with_mds else ()
    session = CleaningSession(cfds=CFDS, mds=mds, master=master, config=config)
    session.clean(build_relation(data))
    for compact in compact_batches:
        changeset = build_changeset(session.base, compact)
        out = session.apply(changeset)
        # An op-less changeset (every tuple already deleted) is a no-op.
        assert (out is None) == (not changeset.ops)
        if out is None:
            continue
        reference = UniClean(cfds=CFDS, mds=mds, master=master, config=config).clean(
            session.base
        )
        assert state(out.repaired) == state(reference.repaired)
        assert out.clean == reference.clean
        # The merged log reproduces the same final cell marks.
        assert {
            cell: fix.kind for cell, fix in out.fix_log._latest.items()
        } == {cell: fix.kind for cell, fix in reference.fix_log._latest.items()}


class TestApplyEquivalence:
    @given(rows, ops)
    @settings(max_examples=60, deadline=None)
    def test_single_batch_full_pipeline(self, data, compact):
        check_apply_equivalence(data, [compact], CONFIGS[0], with_mds=True)

    @given(rows, ops)
    @settings(max_examples=40, deadline=None)
    def test_single_batch_crepair_only(self, data, compact):
        check_apply_equivalence(data, [compact], CONFIGS[1], with_mds=True)

    @given(rows, ops)
    @settings(max_examples=40, deadline=None)
    def test_single_batch_crepair_erepair(self, data, compact):
        check_apply_equivalence(data, [compact], CONFIGS[2], with_mds=True)

    @given(rows, ops)
    @settings(max_examples=40, deadline=None)
    # The superseded run nulled t0's K (a const_kb premise); the edit
    # re-runs const_kb on t0, which must read K's base value again.
    @example(
        [("k1", "a2", "a1", 0.0, 1.0, 0.0), ("k1", "a2", "a2", 0.0, 1.0, 1.0)],
        [("edit", 0, "B", "k1", 1.0)],
    )
    def test_single_batch_cfds_only(self, data, compact):
        check_apply_equivalence(data, [compact], CONFIGS[0], with_mds=False)

    @given(rows, ops, ops)
    @settings(max_examples=40, deadline=None)
    # Batch 1 deletes every tuple, so batch 2 is op-less.
    @example(
        [("k1", "a1", "b1", 0.0, 0.0, 0.0), ("k2", "a2", "b2", 0.0, 0.0, 0.0)],
        [("delete", 0), ("delete", 0)],
        [("delete", 0)],
    )
    def test_two_batches_compound(self, data, first, second):
        check_apply_equivalence(data, [first, second], CONFIGS[0], with_mds=True)

    @given(rows, ops)
    @settings(max_examples=30, deadline=None)
    def test_working_relation_stays_satisfying(self, data, compact):
        session = CleaningSession(
            cfds=CFDS, mds=MDS, master=build_master(), config=CONFIGS[0]
        )
        session.clean(build_relation(data))
        session.apply(build_changeset(session.base, compact))
        assert session.is_clean() == UniClean(
            cfds=CFDS, mds=MDS, master=build_master(), config=CONFIGS[0]
        ).clean(session.base).clean


#: Rules whose premise attribute (K) is never a repair target: edits to
#: the A/B columns have a *safe* closure, so they exercise the scoped
#: replay rather than the warm full-replay fallback.
SAFE_CFDS = [
    CFD(SCHEMA, ["K"], ["A"], name="s_fd_ka"),
    CFD(SCHEMA, ["K"], ["B"], name="s_fd_kb"),
    CFD(SCHEMA, ["K"], ["B"], {"K": "k1", "B": "b1"}, name="s_const_kb"),
]

safe_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.sampled_from(["A", "B"]),  # never the group key
        st.sampled_from(["a1", "a2", "b1", "b2", NULL]),
        st.sampled_from([None, 0.0, 1.0]),
    ),
    min_size=1,
    max_size=6,
)


class TestScopedReplay:
    """The scoped (delta-proportional) path, hammered in isolation."""

    @given(rows, safe_ops)
    @settings(max_examples=60, deadline=None)
    def test_scoped_path_matches_scratch(self, data, compact):
        session = CleaningSession(
            cfds=SAFE_CFDS, mds=MDS, master=build_master(), config=CONFIGS[0]
        )
        session.clean(build_relation(data))
        live = list(session.base.tids())
        changeset = Changeset()
        for raw, attr, value, conf in compact:
            tid = live[raw % len(live)]
            if conf is None:
                changeset.edit(tid, attr, value)
            else:
                changeset.edit(tid, attr, value, conf=conf)
        out = session.apply(changeset)
        reference = UniClean(
            cfds=SAFE_CFDS, mds=MDS, master=build_master(), config=CONFIGS[0]
        ).clean(session.base)
        assert state(out.repaired) == state(reference.repaired)
        assert out.clean == reference.clean
        assert {
            cell: fix.kind for cell, fix in out.fix_log._latest.items()
        } == {cell: fix.kind for cell, fix in reference.fix_log._latest.items()}

    @given(rows, safe_ops, safe_ops)
    @settings(max_examples=40, deadline=None)
    def test_scoped_batches_compose(self, data, first, second):
        session = CleaningSession(
            cfds=SAFE_CFDS, mds=MDS, master=build_master(), config=CONFIGS[0]
        )
        session.clean(build_relation(data))
        for compact in (first, second):
            live = list(session.base.tids())
            changeset = Changeset()
            for raw, attr, value, conf in compact:
                tid = live[raw % len(live)]
                if conf is None:
                    changeset.edit(tid, attr, value)
                else:
                    changeset.edit(tid, attr, value, conf=conf)
            out = session.apply(changeset)
            reference = UniClean(
                cfds=SAFE_CFDS, mds=MDS, master=build_master(), config=CONFIGS[0]
            ).clean(session.base)
            assert state(out.repaired) == state(reference.repaired)
            assert out.clean == reference.clean


# ----------------------------------------------------------------------
# Base-side stores: built on the first scoped apply, kept across replays
# ----------------------------------------------------------------------
#: One step of a mixed stream: scoped edits (A/B under SAFE_CFDS),
#: premise edits (K: a full replay), inserts, deletes, and a mid-stream
#: save + restore into a fresh session.
mixed_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("edit"),
            st.integers(min_value=0, max_value=9),
            st.sampled_from(["A", "B", "A", "B", "K"]),
            st.sampled_from(["k1", "k2", "a1", "a2", "b1", "b2", NULL]),
        ),
        st.tuples(st.just("insert"), keys, values, values),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("save")),
    ),
    min_size=1,
    max_size=8,
)


def _fix_fingerprint(log):
    return [
        (f.kind.value, f.rule_name, f.tid, f.attr, repr(f.old_value),
         repr(f.new_value), repr(f.source))
        for f in log
    ]


def _mixed_changeset(relation: Relation, step) -> Changeset:
    live = list(relation.tids())
    if step[0] == "insert":
        _tag, k, a, b = step
        return Changeset().insert({"K": k, "A": a, "B": b}, {"K": 0.5})
    if not live:
        return Changeset()
    if step[0] == "delete":
        return Changeset().delete(live[step[1] % len(live)])
    _tag, raw, attr, value = step
    return Changeset().edit(live[raw % len(live)], attr, value)


def check_base_store_stream(data, script, cfds):
    import tempfile

    master = build_master()
    session = CleaningSession(cfds=cfds, mds=MDS, master=master, config=CONFIGS[0])
    session.clean(build_relation(data))
    assert session.base_registry is None  # nothing has read them yet
    with tempfile.TemporaryDirectory() as scratch:
        for number, step in enumerate(script):
            if step[0] == "save":
                path = f"{scratch}/s{number}.snap"
                session.save(path)
                session.close()
                session = CleaningSession.restore(path)
                assert session.base_registry is None
                continue
            changeset = _mixed_changeset(session.base, step)
            if not changeset.ops:
                continue
            kept = session.base_registry
            out = session.apply(changeset)
            assert out.full_reclean == (out.decision != "scoped")
            if kept is not None:
                # Built once, then maintained — across full replays too.
                assert session.base_registry is kept
            if session.base_registry is not None:
                session.base_registry.check_consistency(session.base)
                # Each pair binds a live working store to its base twin.
                for wstore, bstore in session._var_store_pairs:
                    assert wstore is session.registry.cfd_store(wstore.cfd)
                    assert bstore is session.base_registry.cfd_store(wstore.cfd)
            reference = UniClean(
                cfds=cfds, mds=MDS, master=master, config=CONFIGS[0]
            ).clean(session.base)
            assert state(out.repaired) == state(reference.repaired)
            assert out.clean == reference.clean
            assert {
                cell: fix.kind for cell, fix in out.fix_log._latest.items()
            } == {
                cell: fix.kind for cell, fix in reference.fix_log._latest.items()
            }
            if out.full_reclean:
                # A full replay is a from-scratch clean: same ordered log
                # and the same cost, bit for bit.
                assert _fix_fingerprint(out.fix_log) == _fix_fingerprint(
                    reference.fix_log
                )
                assert out.cost == reference.cost


class TestBaseSideStores:
    @given(rows, mixed_steps)
    @settings(max_examples=60, deadline=None)
    # Scoped edit (builds the base stores), then an insert and a premise
    # edit (full replays that must keep and maintain them), then a
    # restore (which drops them until the next scoped apply).
    @example(
        [("k1", "a1", "b1", 0.0, 0.0, 0.0), ("k1", "a2", "b2", 0.0, 0.5, 0.0),
         ("k2", "a1", "b2", 1.0, 0.0, 0.0)],
        [("edit", 0, "B", "b2"), ("insert", "k1", "a1", "b1"),
         ("edit", 1, "K", "k2"), ("save",), ("edit", 2, "A", "a2"),
         ("delete", 0)],
    )
    def test_safe_rules_stream(self, data, script):
        check_base_store_stream(data, script, SAFE_CFDS)

    @given(rows, mixed_steps)
    @settings(max_examples=40, deadline=None)
    def test_chained_rules_stream(self, data, script):
        check_base_store_stream(data, script, CFDS)
