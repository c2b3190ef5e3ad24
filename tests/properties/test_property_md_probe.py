"""Property tests: MD probes run once per distinct premise key, unobservably.

eRepair's MD pass, hRepair's MD resolve and the MD half of
``relation_is_clean`` read premise refs straight from the ref columns and
probe the index once per distinct premise key per pass.  The per-tuple
paths they replaced are the oracles
(:func:`repro.oracle.md_resolve`, :func:`repro.oracle.md_satisfied`,
:func:`repro.oracle.premise_probe`).  The batched passes must leave
every trace the per-tuple ones leave: the match lists and witnesses, the
index ``stats``, the value-keyed match cache (keys in insertion order —
snapshots persist that order) and the repair itself.

Premise shapes covered: equality-only (PART ``p_md_site#0``/``#1``, which
share the premise ``(block, site)``), equality mixed with similarity
(PART ``p_md_name``; DBLP ``d_md_title`` and ``d_md_authors#*``), and
premises with null cells.
"""

import contextlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import oracle
from repro.analysis.consistency import _md_satisfied
from repro.core import UniCleanConfig
from repro.datasets import generate_partitioned
from repro.evaluation import generate
from repro.indexing.blocking import MDBlockingIndex
from repro.pipeline import CleaningSession, snapshot
from repro.relational import NULL


def _kernels(use_oracle):
    return oracle.reference_kernels() if use_oracle else contextlib.nullcontext()


def _dataset(name, seed):
    if name == "part":
        return generate_partitioned(size=150, n_blocks=4, noise_rate=0.08, seed=seed)
    return generate("dblp", size=60, master_size=30, noise_rate=0.1, seed=seed)


def _with_nulls(relation, mds, picks):
    """*relation* with the premise cells named by *picks* nulled."""
    attrs = sorted({a for md in mds for n in md.normalize() for a in n.lhs_attrs()})
    tids = relation.tids()
    for raw_tid, raw_attr in picks:
        t = relation.by_tid(tids[raw_tid % len(tids)])
        relation.set_value(t, attrs[raw_attr % len(attrs)], NULL)
    return relation


def _index_trace(index):
    return (
        dict(index.stats),
        index.verify_calls,
        repr(list(index._match_cache)),
        repr(index.cache_entries()),
    )


def _clean(ds, dirty, use_oracle):
    with _kernels(use_oracle):
        session = CleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master,
            config=UniCleanConfig(eta=1.0), collect_traces=True,
        )
        result = session.clean(dirty)
        observed = {
            "fix_log": [
                (f.kind.value, f.rule_name, f.tid, f.attr, repr(f.old_value),
                 repr(f.new_value), repr(f.source))
                for f in result.fix_log
            ],
            "state": {
                t.tid: tuple(repr(t[a]) for a in dirty.schema.names)
                for t in result.repaired
            },
            "cost": result.cost,
            "clean": result.clean,
            "traces": dict(session.last_traces),
            "indexes": {
                name: _index_trace(index)
                for name, index in sorted(session.md_indexes.items())
            },
            "snapshot": snapshot.encode_session(session),
        }
    return session, observed


nulls = st.lists(
    st.tuples(st.integers(min_value=0, max_value=400),
              st.integers(min_value=0, max_value=20)),
    max_size=12,
)


@given(st.sampled_from(["part", "dblp"]), st.integers(min_value=1, max_value=40), nulls)
@settings(max_examples=25, deadline=None)
@example("part", 3, [(0, 0), (1, 1), (2, 2), (3, 3)])
@example("dblp", 5, [(0, 0), (7, 3), (9, 5)])
def test_batched_clean_equals_per_tuple_probes(name, seed, picks):
    ds = _dataset(name, seed)
    dirty = _with_nulls(ds.dirty.clone(), ds.mds, picks)
    session, batched = _clean(ds, dirty, use_oracle=False)
    _, per_tuple = _clean(ds, dirty, use_oracle=True)
    assert batched["fix_log"]
    for key in per_tuple:
        assert batched[key] == per_tuple[key], key
    # The snapshot of the batched clean restores byte-identically: every
    # data section re-encodes to the same bytes.  The ever-group-key sets
    # and the pickled rule environment re-pickle in set order, so those
    # two are compared as objects.
    restored = snapshot.decode_session(batched["snapshot"])
    _kind, saved = snapshot.unpack_snapshot(batched["snapshot"], expect_kind="session")
    _kind, again = snapshot.unpack_snapshot(
        snapshot.encode_session(restored), expect_kind="session"
    )
    assert saved.keys() == again.keys()
    for section in saved:
        if section not in ("ever", "environment"):
            assert saved[section] == again[section], section
    assert restored.ever_group_keys == session.ever_group_keys
    assert [md.name for md in restored.mds] == [md.name for md in session.mds]
    assert [
        (name, index.cache_entries())
        for name, index in sorted(restored.md_indexes.items())
    ] == [
        (name, index.cache_entries())
        for name, index in sorted(session.md_indexes.items())
    ]


def _probe_observables(ds, relation, use_oracle, only):
    """Every index's per-tuple match lists and witnesses through
    ``premise_probe`` and ``_md_satisfied``, plus the index traces."""
    out = []
    with _kernels(use_oracle):
        for md in ds.mds:
            for normalized in md.normalize():
                index = MDBlockingIndex(normalized, ds.master)
                rhs, master_attr = normalized.rhs_pair
                matches = index.premise_probe(relation, lambda matched: matched)
                witness = index.premise_probe(relation, MDBlockingIndex._witness)
                for t in relation:
                    out.append((
                        normalized.name, t.tid,
                        [s.tid for s in matches(t)],
                        getattr(witness(t), "tid", None),
                    ))
                out.append(_md_satisfied(relation, index, rhs, master_attr, only))
                out.append(_index_trace(index))
    return out


@given(
    st.sampled_from(["part", "dblp"]),
    st.integers(min_value=1, max_value=40),
    nulls,
    st.one_of(st.none(), st.sets(st.integers(min_value=0, max_value=400), max_size=20)),
)
@settings(max_examples=25, deadline=None)
def test_probes_equal_per_tuple_probes(name, seed, picks, only):
    ds = _dataset(name, seed)
    relation = _with_nulls(ds.dirty.clone(), ds.mds, picks)
    if only is not None:
        tids = relation.tids()
        only = {tids[raw % len(tids)] for raw in only} | {10**6}  # and a dead tid
    assert _probe_observables(ds, relation, False, only) == _probe_observables(
        ds, relation, True, only
    )


def test_shared_premise_probes_once_per_key():
    """``p_md_site#0`` and ``#1`` share the premise ``(block, site)``: a
    clean's match caches gain exactly one entry per distinct premise
    projection each, and the per-tuple path adds the same ones."""
    ds = _dataset("part", 7)
    session, batched = _clean(ds, ds.dirty.clone(), use_oracle=False)
    index0 = session.md_indexes["p_md_site#0"]
    index1 = session.md_indexes["p_md_site#1"]
    assert index0.premise_attrs == index1.premise_attrs == ("block", "site")
    for index in (index0, index1):
        keys = list(index._match_cache)
        assert len(keys) == len(set(keys)) == index.stats["lookups"]


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=400))
@settings(max_examples=15, deadline=None)
def test_verify_sees_every_rhs_of_a_premise_key(seed, raw):
    """Two tuples share a premise key; only the later one disagrees with
    the master on the RHS — both checks must report the violation."""
    ds = _dataset("part", seed)
    session, _ = _clean(ds, ds.dirty.clone(), use_oracle=False)
    relation = session.working
    index = session.md_indexes["p_md_site#0"]
    rhs, master_attr = index.md.rhs_pair
    by_key = {}
    for t in relation:
        if index.cached_matches(t):
            by_key.setdefault(t.project(index.premise_attrs), []).append(t)
    pairs = [tuples for tuples in by_key.values() if len(tuples) > 1]
    if not pairs:
        return
    later = pairs[raw % len(pairs)][-1]
    relation.set_value(later, rhs, "no such value")
    for use_oracle in (False, True):
        with _kernels(use_oracle):
            assert not _md_satisfied(relation, index, rhs, master_attr, None)
            assert not _md_satisfied(
                relation, index, rhs, master_attr, set(relation.tids())
            )
