"""Property tests: the column-gather copy equals the row-by-row oracle.

``Relation.clone`` and ``Relation.restrict(copy=True)`` copy through one
column gather (:meth:`repro.relational.columns.ColumnStore.gather`); the
seed-era loop of one ``adopt_row`` per tuple survives as the oracle
:func:`repro.oracle.copy_rows`.  After arbitrary interleavings of adds,
removes, re-adds with explicit tids, auto-compactions, shared
``restrict(copy=False)`` views and null writes, both copies must agree
on tid order, typed values, confidences, null flags and tid bookkeeping,
and a write to the copy must never reach its source.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import oracle
from repro.relational import NULL, Relation, Schema
from repro.relational.columns import COMPACT_LIVE_RATIO, COMPACT_MIN_ROWS
from repro.relational.tuples import CTuple

SCHEMA = Schema("R", ["K", "A", "B"])

values = st.sampled_from(["a1", "a2", "b1", 0, 0.0, 7, NULL])
confs = st.sampled_from([None, 0.0, 0.5, 1.0])

#: One step in compact form; tids are taken modulo the live count.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), values, values, confs),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=199)),
        # Re-add under an explicit tid: a retired one (the relation must
        # hand out a fresh tid) or a gap above every tid used so far.
        st.tuples(st.just("readd"), st.integers(min_value=0, max_value=199),
                  st.booleans(), values),
        st.tuples(st.just("set"), st.integers(min_value=0, max_value=199),
                  st.sampled_from(SCHEMA.names), values),
        st.tuples(st.just("conf"), st.integers(min_value=0, max_value=199),
                  st.sampled_from(SCHEMA.names), confs),
        # Drop most live tuples at once: past COMPACT_LIVE_RATIO the
        # store compacts itself.
        st.tuples(st.just("purge")),
        st.tuples(st.just("view"), st.integers(min_value=1, max_value=5)),
    ),
    min_size=1,
    max_size=25,
)


def _build(n: int) -> Relation:
    relation = Relation(SCHEMA)
    for i in range(n):
        relation.add_row(
            {"K": f"k{i % 5}", "A": f"a{i % 3}", "B": NULL if i % 7 == 0 else i},
            {"K": 0.5},
        )
    return relation


def _run(relation: Relation, script) -> Relation:
    """Apply *script*; a ``view`` step swaps in a zero-copy restriction,
    whose store is then shared (never tombstoned or compacted)."""
    for step in script:
        live = list(relation.tids())
        kind = step[0]
        if kind == "add":
            _tag, k, a, conf = step
            relation.add_row({"K": k, "A": a, "B": NULL}, {"A": conf})
        elif kind == "readd":
            _tag, raw, retired, value = step
            dead = sorted(relation._retired)
            if retired and dead:
                tid = dead[raw % len(dead)]
            else:
                tid = relation._next_tid + raw % 3
            t = CTuple(SCHEMA, {"K": value, "A": "re", "B": value}, tid=tid)
            relation.add(t)
        elif not live:
            continue
        elif kind == "remove":
            relation.remove(live[step[1] % len(live)])
        elif kind == "set":
            _tag, raw, attr, value = step
            relation.set_value(relation.by_tid(live[raw % len(live)]), attr, value)
        elif kind == "conf":
            _tag, raw, attr, conf = step
            relation.by_tid(live[raw % len(live)]).set_conf(attr, conf)
        elif kind == "purge":
            for tid in live[: int(len(live) * (1 - COMPACT_LIVE_RATIO)) + 1]:
                relation.remove(tid)
        else:
            relation = relation.restrict(live[:: step[1]], copy=False)
    return relation


def _observables(relation: Relation):
    store = relation.column_store
    names = SCHEMA.names
    cells = []
    for t in relation:
        row = t._row
        cells.append((
            t.tid,
            tuple((type(t[a]).__name__, repr(t[a]), repr(t.conf(a))) for a in names),
            tuple(store.nulls[store.index_of[a]].get(row) for a in names),
        ))
    return relation.tids(), cells, relation._next_tid, sorted(relation._retired)


def _assert_copy_ok(source: Relation, copy: Relation, reference: Relation) -> None:
    assert _observables(copy) == _observables(reference)
    store = copy.column_store
    assert not store.shared and store.n_dead == 0
    assert store.row_tids == list(copy.tids())
    assert store.row_of == {tid: row for row, tid in enumerate(copy.tids())}
    # A write to the copy never reaches its source.
    before = _observables(source)
    for t in copy:
        copy.set_value(t, "A", "written")
        t.set_conf("B", 1.0)
    assert _observables(source) == before


@given(st.integers(min_value=0, max_value=COMPACT_MIN_ROWS + 40), steps)
@settings(max_examples=120, deadline=None)
@example(COMPACT_MIN_ROWS + 10, [("purge",), ("view", 2), ("remove", 0)])
@example(3, [("remove", 1), ("readd", 0, True, NULL), ("readd", 1, False, 0.0)])
def test_clone_matches_row_by_row_oracle(n, script):
    source = _run(_build(n), script)
    _assert_copy_ok(source, source.clone(), oracle.copy_rows(source, None))


@given(
    st.integers(min_value=0, max_value=COMPACT_MIN_ROWS + 40),
    steps,
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=120, deadline=None)
@example(COMPACT_MIN_ROWS + 10, [("purge",), ("set", 3, "B", NULL)], 2)
def test_restrict_copy_matches_row_by_row_oracle(n, script, stride):
    source = _run(_build(n), script)
    wanted = list(source.tids())[::stride]
    copy = source.restrict(wanted, copy=True)
    _assert_copy_ok(source, copy, oracle.copy_rows(source, set(wanted)))


def test_reference_kernels_swap_the_copy_in():
    """Inside ``reference_kernels()`` both copy paths run the oracle."""
    source = _run(_build(COMPACT_MIN_ROWS + 8), [("purge",)])
    with oracle.reference_kernels():
        cloned = source.clone()
        restricted = source.restrict(source.tids()[::2])
    assert _observables(cloned) == _observables(oracle.copy_rows(source, None))
    assert _observables(restricted) == _observables(
        oracle.copy_rows(source, set(source.tids()[::2]))
    )
