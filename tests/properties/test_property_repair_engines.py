"""Property tests: the repair kernels are byte-identical to the
per-tuple repair oracles of :mod:`repro.oracle`.

cRepair seeds its worklist and resolves constant-CFD targets, eRepair
scores and applies majority candidates, and hRepair builds its
equivalence classes with ref-column kernels; the seed-era per-tuple
loops survive as oracles that :func:`repro.oracle.reference_kernels`
swaps in.  The standing invariant is that the kernels are
*unobservable*: ordered fix logs (every field), per-cell cost maps,
phase scheduling traces, repaired states and clean verdicts match the
oracle byte for byte — on the violation-index path and on the
legacy-scan path (``use_violation_index=False``, no traces), whose
hRepair groups come from a premise scan instead of dirty partitions.

Two families:

1. **Testbed equivalence** — full cleans of the HOSP and PART testbeds.
2. **Fuzzed mutation interleavings** — arbitrary edit / insert / remove
   sequences applied before cleaning; the whole repair trajectory must
   stay identical to the oracle's.
"""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracle
from repro.constraints import CFD, MD
from repro.core import UniCleanConfig
from repro.evaluation import generate
from repro.pipeline import CleaningSession
from repro.relational import NULL, Relation, Schema

#: (kernels, use_violation_index); each production run must reproduce
#: the oracle run with the same index setting byte for byte.
CONFIGS = [
    ("production", False, True),
    ("oracle", True, True),
    ("production+legacy", False, False),
    ("oracle+legacy", True, False),
]


def _fingerprint(log):
    return [
        (f.kind.value, f.rule_name, f.tid, f.attr, repr(f.old_value),
         repr(f.new_value), repr(f.old_conf), repr(f.new_conf),
         repr(f.source))
        for f in log
    ]


def _full_state(relation):
    names = relation.schema.names
    return {
        t.tid: tuple((repr(t[a]), t.conf(a)) for a in names) for t in relation
    }


def _observables(session, result):
    return {
        "fix_log": _fingerprint(result.fix_log),
        "cost": result.cost,
        "cell_costs": dict(session._cell_costs),
        "clean": result.clean,
        "state": _full_state(result.repaired),
        "traces": dict(session.last_traces),
    }


def _assert_all_match(results):
    for name, observed in results.items():
        if not name.startswith("production"):
            continue
        reference_name = name.replace("production", "oracle")
        reference = results[reference_name]
        for key in reference:
            assert observed[key] == reference[key], (
                f"{name} diverged from {reference_name} on {key}"
            )


def _session(cfds, mds, master, use_violation_index):
    return CleaningSession(
        cfds=cfds, mds=mds, master=master,
        config=UniCleanConfig(eta=1.0, use_violation_index=use_violation_index),
        collect_traces=use_violation_index,
    )


def _kernels(use_oracle):
    return oracle.reference_kernels() if use_oracle else contextlib.nullcontext()


# ----------------------------------------------------------------------
# 1. Testbed equivalence
# ----------------------------------------------------------------------
def _clean_observables(dataset, use_oracle, use_violation_index, **params):
    with _kernels(use_oracle):
        ds = generate(dataset, **params)
        session = _session(ds.cfds, ds.mds, ds.master, use_violation_index)
        result = session.clean(ds.dirty)
        return _observables(session, result)


@pytest.mark.parametrize("seed", [3, 7])
def test_hosp_repair_identical_across_engines(seed):
    results = {
        name: _clean_observables(
            "hosp", use_oracle, use_index,
            size=150, master_size=75, noise_rate=0.08, seed=seed,
        )
        for name, use_oracle, use_index in CONFIGS
    }
    assert results["oracle"]["fix_log"]  # workload must repair
    _assert_all_match(results)


@pytest.mark.parametrize("seed", [11, 23])
def test_part_repair_identical_across_engines(seed):
    results = {
        name: _clean_observables(
            "partitioned", use_oracle, use_index,
            size=600, n_blocks=8, noise_rate=0.05, seed=seed,
        )
        for name, use_oracle, use_index in CONFIGS
    }
    assert results["oracle"]["fix_log"]
    _assert_all_match(results)


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
MASTER_ROWS = [{"K": "k1", "B": "b1"}, {"K": "k2", "B": "b2"}]

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
        st.tuples(st.just("insert"), keys, values, values),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=99)),
    ),
    min_size=0,
    max_size=10,
)


def _build_and_mutate(data, mutations):
    relation = Relation(SCHEMA)
    for k, a, b in data:
        relation.add_row({"K": k, "A": a, "B": b}, {"K": 0.5})
    for op in mutations:
        live = list(relation.tids())
        if op[0] == "set":
            if not live:
                continue
            _tag, raw, attr, value = op
            t = relation.by_tid(live[raw % len(live)])
            relation.set_value(t, attr, value)
        elif op[0] == "insert":
            _tag, k, a, b = op
            relation.add_row({"K": k, "A": a, "B": b})
        else:
            if not live:
                continue
            relation.remove(live[op[1] % len(live)])
    return relation


def _trajectory(data, mutations, use_oracle, use_violation_index):
    with _kernels(use_oracle):
        relation = _build_and_mutate(data, mutations)
        if not len(relation):
            return None
        master = Relation.from_dicts(MASTER_SCHEMA, MASTER_ROWS)
        session = _session(CFDS, MDS, master, use_violation_index)
        result = session.clean(relation)
        return _observables(session, result)


class TestFuzzedRepairTrajectories:
    @given(rows, ops)
    @settings(max_examples=25, deadline=None)
    def test_trajectory_identical_across_engines(self, data, mutations):
        results = {
            name: _trajectory(data, mutations, use_oracle, use_index)
            for name, use_oracle, use_index in CONFIGS
        }
        if results["oracle"] is None:
            assert all(observed is None for observed in results.values())
            return
        _assert_all_match(results)
