"""Property tests: the column store and its check, group-store and
encode kernels are byte-identical to the per-tuple oracles of
:mod:`repro.oracle`.

Three families:

1. **Engine equivalence** — full cleans of the HOSP and PART testbeds on
   the production kernels and under :func:`repro.oracle.reference_kernels`
   must produce identical fix logs (every field), per-cell cost totals,
   satisfaction verdicts, repaired states and phase scheduling traces.
2. **Fuzzed mutation interleavings** — arbitrary sequences of
   ``set_value`` / insert / delete / ``remove`` applied to a relation and
   to the dict-of-``CTuple`` model (:class:`repro.oracle.DictRelation`)
   keep the two byte-identical, keep the columns coherent with the tuple
   views (group stores attached to the relation pass
   ``check_consistency``), and keep retired tids dead; afterwards the
   check scan, the group-store bulk builds, ``cfd_member_tids`` and the
   wire encode all match their oracles.
3. **Zero-materialization regression** — the bulk builds and the
   blocking-scan check loop never materialize a per-tuple ``_values`` /
   ``_conf`` dict (the counter in :mod:`repro.relational.columns`).
"""

import contextlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.consistency import relation_is_clean, relation_violations
from repro.constraints import CFD, MD
from repro.core import UniCleanConfig
from repro.evaluation import generate
from repro import oracle
from repro.constraints.rules import derive_rules
from repro.indexing.group_store import GroupStoreRegistry, cfd_member_tids
from repro.indexing.violation_index import ViolationIndex
from repro.pipeline import CleaningSession, payload
from repro.relational import NULL, Relation, Schema
from repro.relational import columns


def _kernels(use_oracle: bool):
    return oracle.reference_kernels() if use_oracle else contextlib.nullcontext()


def _violation_keys(violations):
    return [(v.constraint.name, v.tids, v.attr) for v in violations]


def _fingerprint(log):
    return [
        (f.kind.value, f.rule_name, f.tid, f.attr, repr(f.old_value),
         repr(f.new_value), repr(f.source))
        for f in log
    ]


def _full_state(relation):
    names = relation.schema.names
    return {
        t.tid: tuple((repr(t[a]), t.conf(a)) for a in names) for t in relation
    }


# ----------------------------------------------------------------------
# 1. Engine equivalence on the generated testbeds
# ----------------------------------------------------------------------
def _clean_observables(dataset: str, use_oracle: bool, **params):
    """One full traced clean on the production kernels or the oracles;
    everything observable, with no wall-clock anywhere."""
    with _kernels(use_oracle):
        ds = generate(dataset, **params)
        session = CleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master,
            config=UniCleanConfig(eta=1.0), collect_traces=True,
        )
        result = session.clean(ds.dirty)
        return {
            "fix_log": _fingerprint(result.fix_log),
            "cost": result.cost,
            "clean": result.clean,
            "state": _full_state(result.repaired),
            "traces": dict(session.last_traces),
        }


@pytest.mark.parametrize("seed", [3, 7])
def test_hosp_clean_identical_across_engines(seed):
    params = dict(size=150, master_size=75, noise_rate=0.08, seed=seed)
    reference = _clean_observables("hosp", True, **params)
    assert reference["fix_log"]  # the workload must actually repair
    assert _clean_observables("hosp", False, **params) == reference


@pytest.mark.parametrize("seed", [11, 23])
def test_part_clean_identical_across_engines(seed):
    params = dict(size=600, n_blocks=8, noise_rate=0.05, seed=seed)
    reference = _clean_observables("partitioned", True, **params)
    assert reference["fix_log"]
    assert _clean_observables("partitioned", False, **params) == reference


def test_violation_scan_identical_across_engines():
    """`relation_violations` itself (both null semantics) byte-matches."""
    ds = generate("hosp", size=200, master_size=100, noise_rate=0.1, seed=5)
    for semantics in ("tolerant", "strict"):
        fast = relation_violations(ds.dirty, ds.cfds, null_semantics=semantics)
        with oracle.reference_kernels():
            slow = relation_violations(ds.dirty, ds.cfds, null_semantics=semantics)
        assert slow  # the scan must actually find violations
        assert _violation_keys(fast) == _violation_keys(slow)
    fast_clean = relation_is_clean(ds.dirty, ds.cfds, ds.mds, ds.master)
    with oracle.reference_kernels():
        slow_clean = relation_is_clean(ds.dirty, ds.cfds, ds.mds, ds.master)
    assert fast_clean == slow_clean


# ----------------------------------------------------------------------
# 2. Fuzzed mutation interleavings
# ----------------------------------------------------------------------
SCHEMA = Schema("R", ["K", "A", "B"])
MASTER_SCHEMA = Schema("Rm", ["K", "B"])
CFDS = [
    CFD(SCHEMA, ["K"], ["A"], name="fd_ka"),
    CFD(SCHEMA, ["K"], ["B"], {"K": "k1", "B": "b1"}, name="const_kb"),
]
MDS = [MD(SCHEMA, MASTER_SCHEMA, [("K", "K")], [("B", "B")], name="md_kb")]

keys = st.sampled_from(["k1", "k2", "k3"])
values = st.sampled_from(["a1", "a2", "b1", "b2", 0, 0.0, False, NULL])
rows = st.lists(st.tuples(keys, values, values), min_size=1, max_size=8)
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("set"),
            st.integers(min_value=0, max_value=99),
            st.sampled_from(["K", "A", "B"]),
            values,
        ),
        st.tuples(
            st.just("conf"),
            st.integers(min_value=0, max_value=99),
            st.sampled_from(["K", "A", "B"]),
            st.sampled_from([None, 0.0, 0.5, 1.0]),
        ),
        st.tuples(st.just("insert"), keys, values, values),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=99)),
    ),
    min_size=1,
    max_size=12,
)


def _build(data, model: bool = False):
    relation = oracle.DictRelation(SCHEMA) if model else Relation(SCHEMA)
    for k, a, b in data:
        relation.add_row({"K": k, "A": a, "B": b}, {"K": 0.5})
    return relation


def _apply_ops(relation, compact) -> None:
    for op in compact:
        live = list(relation.tids())
        if op[0] == "set":
            if not live:
                continue
            _tag, raw, attr, value = op
            t = relation.by_tid(live[raw % len(live)])
            relation.set_value(t, attr, value)
        elif op[0] == "conf":
            if not live:
                continue
            _tag, raw, attr, conf = op
            relation.by_tid(live[raw % len(live)]).set_conf(attr, conf)
        elif op[0] == "insert":
            _tag, k, a, b = op
            relation.add_row({"K": k, "A": a, "B": b})
        else:
            if not live:
                continue
            relation.remove(live[op[1] % len(live)])


class TestFuzzedInterleavings:
    @given(rows, ops)
    @settings(max_examples=80, deadline=None)
    def test_columnar_tracks_dict_twin(self, data, compact):
        columnar = _build(data)
        flat = _build(data, model=True)
        registry = GroupStoreRegistry(columnar)
        for cfd in CFDS:
            registry.cfd_store(cfd)
        for md in MDS:
            registry.md_store(md)
        _apply_ops(columnar, compact)
        _apply_ops(flat, compact)

        assert columnar.tids() == flat.tids()
        assert _full_state(columnar) == _full_state(flat)
        assert columnar._retired == flat._retired
        assert columnar._next_tid == flat._next_tid

        # Attached group stores stayed coherent with the column mutations.
        registry.check_consistency()

        # Retired tids stay dead — in the tuple map and in the store.
        store = columnar.column_store
        for tid in columnar._retired:
            assert not columnar.has_tid(tid)
            assert columnar.tid_retired(tid)
            assert store.dead.get(store.row_of[tid])
            assert store.row_tids[store.row_of[tid]] == -1 - tid
        assert store.live_rows() >= len(columnar)

        # Bulk accessors agree with the per-tuple view after mutation.
        table = store.table
        for attr in SCHEMA.names:
            assert [
                table.values[r] for r in columnar.column(attr)
            ] == [t[attr] for t in flat]
        assert columnar.project(SCHEMA.names) == flat.project(SCHEMA.names)
        grouped = {
            key: [t.tid for t in members]
            for key, members in columnar.group_by(["K"]).items()
        }
        flat_grouped = {
            key: [t.tid for t in members]
            for key, members in flat.group_by(["K"]).items()
        }
        assert grouped == flat_grouped

        assert columnar.active_domain("A") == flat.active_domain("A")

    @given(rows, ops)
    @settings(max_examples=40, deadline=None)
    def test_violations_identical_after_interleaving(self, data, compact):
        relation = _build(data)
        _apply_ops(relation, compact)
        for semantics in ("tolerant", "strict"):
            fast = relation_violations(relation, CFDS, null_semantics=semantics)
            with oracle.reference_kernels():
                slow = relation_violations(relation, CFDS, null_semantics=semantics)
            assert _violation_keys(fast) == _violation_keys(slow)
        for cfd in CFDS:
            assert cfd_member_tids(relation, cfd) == oracle.cfd_member_tids(
                relation, cfd
            )
        rules = derive_rules(CFDS, MDS)
        assert _bulk_built(relation, rules, False) == _bulk_built(
            relation, rules, True
        )
        assert _encoded(relation, False) == _encoded(relation, True)


def _bulk_built(relation, rules, use_oracle):
    """The repr of every fresh store's groups (member tids, RHS value
    counts) and key map, in insertion order — the order the repair
    phases iterate in; ``repr`` tells ``0``/``0.0``/``False`` apart."""
    with _kernels(use_oracle):
        registry = GroupStoreRegistry(relation, attach=False)
        registry.ensure_rules(rules)
    out = []
    for store in registry.stores():
        for key, group in store.groups.items():
            if isinstance(group, set):  # MD store: the member tids
                out.append((key, sorted(group)))
            else:
                out.append((key, sorted(group.tids), list(group.value_counts.items())))
        out.append(list(store.key_of.items()))
    return repr(out)


def _encoded(relation, use_oracle):
    table = payload.ValueTable()
    with _kernels(use_oracle):
        blob = payload.encode_relation(relation, table)
    return pickle.dumps((blob, table.values))


# ----------------------------------------------------------------------
# 3. Zero per-tuple dict materializations on the hot loop
# ----------------------------------------------------------------------
def test_blocking_scan_hot_loop_materializes_no_dicts():
    """Bulk group-store builds, the violation-index build and the
    vectorized check scan must never touch ``_values``/``_conf`` — the
    regression guard for the blocking-scan hot loop (CI job
    ``oracle-equivalence-smoke``)."""
    ds = generate("hosp", size=120, master_size=60, noise_rate=0.1, seed=9)
    relation = ds.dirty
    rules = derive_rules(ds.cfds, ds.mds)
    before = columns.materializations()
    registry = GroupStoreRegistry(relation, attach=False)
    registry.ensure_rules(rules)
    index = ViolationIndex(relation, derive_rules(ds.cfds), attach=False)
    relation_violations(relation, ds.cfds, violation_index=index)
    relation_violations(relation, ds.cfds, null_semantics="strict")
    assert columns.materializations() == before, (
        "the hot loop materialized per-tuple dicts"
    )
