"""Property tests: the similarity-join match engine is lossless and
byte-identical to exhaustive reference matching.

``UniCleanConfig.match_engine`` selects how ``MDBlockingIndex`` retrieves
similarity candidates: the filtered similarity join of
``matching/simjoin.py`` (``join``, the default — over the whole master
for pure-similarity premises, inside the probe's equality bucket when
the premise also has equality clauses) versus the per-lookup top-``l``
suffix-tree retrieval for pure-similarity premises and the exhaustive
bucket scan for the others (``reference``).
The join engine's filters are *necessary* conditions, so two properties
must hold everywhere:

1. **Filter losslessness** — its candidate set is a superset of the true
   match set of an exhaustive full scan;
2. **Byte-identity** — ``matches()``/``find_match()`` (and, through
   them, whole-pipeline fix logs, costs, states and verdicts) are
   identical to the exhaustive reference, on the production kernels and
   under the per-tuple oracles (:func:`repro.oracle.reference_kernels`),
   with the oracle run of the reference engine as the comparator.

Three families:

1. **Testbed equivalence** — full cleans of the DBLP and HOSP testbeds
   (whose similarity MDs carry equality clauses: the bucketed join)
   under all four kernels×match-engine configurations, plus a
   pure-similarity-premise workload that exercises the whole-master
   join inside a cleaning session.
2. **Fuzzed lookup equivalence** — hypothesis-generated master values,
   probes, and master edit/insert mutations between lookups (the index
   assumes an immutable master, so mutation means rebuild); candidates
   ⊇ scan matches and matches/find_match/cached_matches byte-identical
   to the ``use_suffix_tree=False`` scan, for both the edit-k and
   Jaccard-t filter families and both premise shapes the join serves:
   similarity-only, and similarity plus an equality clause on a
   low-cardinality group attribute (the join then runs inside the
   probe's equality bucket — one-value buckets, duplicate master values
   and nulls on either attribute included).
3. **Config mechanics** — the config validates the engine at
   construction, reaches the session's indexes, and upgrades pickles
   written before the field or with its former ``None`` default.
"""

import contextlib
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import oracle
from repro.constraints import MD
from repro.core import UniCleanConfig
from repro.evaluation import generate
from repro.indexing import MDBlockingIndex
from repro.pipeline import CleaningSession
from repro.relational import NULL, Relation, Schema
from repro.similarity import edit_within, qgram_jaccard_at_least

#: kernels (oracle?) × match engine; the oracle+reference entry is the
#: seed-era configuration every other one must reproduce byte for byte.
CONFIGS = [
    ("production+join", False, "join"),
    ("production+reference", False, "reference"),
    ("oracle+join", True, "join"),
    ("oracle+reference", True, "reference"),
]
REFERENCE = "oracle+reference"


def _kernels(use_oracle):
    return oracle.reference_kernels() if use_oracle else contextlib.nullcontext()


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
        "clean": result.clean,
        "state": _full_state(result.repaired),
        "traces": dict(session.last_traces),
    }


def _assert_all_match(results, reference_name):
    reference = results[reference_name]
    for name, observed in results.items():
        for key in reference:
            assert observed[key] == reference[key], (
                f"{name} diverged from {reference_name} on {key}"
            )


# ----------------------------------------------------------------------
# 1. Testbed equivalence
# ----------------------------------------------------------------------
def _clean_observables(dataset, use_oracle, engine, **params):
    with _kernels(use_oracle):
        ds = generate(dataset, **params)
        session = CleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master,
            config=UniCleanConfig(eta=1.0, match_engine=engine),
            collect_traces=True,
        )
        result = session.clean(ds.dirty)
        return _observables(session, result)


@pytest.mark.parametrize("seed", [3, 7])
def test_dblp_clean_identical_across_match_engines(seed):
    results = {
        name: _clean_observables(
            "dblp", use_oracle, engine,
            size=120, master_size=60, noise_rate=0.08, seed=seed,
        )
        for name, use_oracle, engine in CONFIGS
    }
    assert results[REFERENCE]["fix_log"]  # workload must repair
    _assert_all_match(results, REFERENCE)


@pytest.mark.parametrize("seed", [11, 23])
def test_hosp_clean_identical_across_match_engines(seed):
    results = {
        name: _clean_observables(
            "hosp", use_oracle, engine,
            size=150, master_size=75, noise_rate=0.08, seed=seed,
        )
        for name, use_oracle, engine in CONFIGS
    }
    assert results[REFERENCE]["fix_log"]
    _assert_all_match(results, REFERENCE)


# A workload whose MD premise is *pure similarity* — no equality clause —
# so cleaning sessions route through the whole-master q-gram index (the
# testbeds above all carry equality clauses and join inside equality
# buckets).  The master stays below top_l so the reference suffix tree is
# exhaustive here and byte-identity is well-defined.
SIM_SCHEMA = Schema("S", ["name", "grade"])
SIM_MASTER_ROWS = [
    {"name": "alpha omega", "grade": "A"},
    {"name": "beta gamma", "grade": "B"},
    {"name": "delta epsilon", "grade": "C"},
]
SIM_DIRTY_ROWS = [
    {"name": "alpha omeg", "grade": "Z"},   # 1 deletion from master
    {"name": "beta gamma", "grade": "B"},   # exact
    {"name": "unrelated", "grade": "Q"},    # no match
]


def _sim_md():
    return MD(
        SIM_SCHEMA, SIM_SCHEMA,
        [("name", "name", edit_within(2))], [("grade", "grade")],
        name="md_sim",
    )


def test_pure_similarity_premise_clean_identical_across_configs():
    results = {}
    for name, use_oracle, engine in CONFIGS:
        with _kernels(use_oracle):
            master = Relation.from_dicts(SIM_SCHEMA, SIM_MASTER_ROWS)
            dirty = Relation.from_dicts(SIM_SCHEMA, SIM_DIRTY_ROWS)
            session = CleaningSession(
                cfds=[], mds=[_sim_md()], master=master,
                config=UniCleanConfig(eta=1.0, match_engine=engine),
                collect_traces=True,
            )
            result = session.clean(dirty)
            results[name] = _observables(session, result)
            if engine == "join":
                (index,) = session.md_indexes.values()
                assert index.join_index is not None  # join path exercised
    assert results[REFERENCE]["fix_log"]
    _assert_all_match(results, REFERENCE)


# ----------------------------------------------------------------------
# 2. Fuzzed lookup equivalence
# ----------------------------------------------------------------------
FUZZ_SCHEMA = Schema("F", ["grp", "name", "grade"])
WORDS = ["alpha", "beta", "gamma", "delta", "omega", "zeta"]
names = st.lists(
    st.sampled_from(WORDS), min_size=1, max_size=3
).map(" ".join)
maybe_names = st.one_of(names, names, names, st.just(NULL))
groups = st.sampled_from(["g1", "g1", "g2", NULL])
typo_ops = st.sampled_from(["drop", "dup", "swap", "none"])
master_rows = st.lists(st.tuples(groups, maybe_names), min_size=1, max_size=10)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), groups, maybe_names),
        st.tuples(
            st.just("edit"),
            st.integers(min_value=0, max_value=99),
            st.sampled_from(["grp", "name"]),
            st.one_of(groups, maybe_names),
        ),
    ),
    min_size=0,
    max_size=4,
)
PREDICATES = [edit_within(2), qgram_jaccard_at_least(0.6)]
#: Premise shapes the join engine serves: similarity-only, and
#: similarity plus equality on the low-cardinality ``grp``.
SHAPES = ["similarity", "similarity+equality"]


def _typo(value, op):
    if value is NULL:
        return value
    if op == "drop" and len(value) > 1:
        return value[1:]
    if op == "dup":
        return value + value[-1]
    if op == "swap" and len(value) > 1:
        return value[1] + value[0] + value[2:]
    return value


def _fuzz_md(predicate, shape):
    premise = [("name", "name", predicate)]
    if shape == "similarity+equality":
        premise.append(("grp", "grp"))
    return MD(FUZZ_SCHEMA, FUZZ_SCHEMA, premise, [("grade", "grade")])


def _assert_lookup_equivalence(master, probes, predicate, shape):
    md = _fuzz_md(predicate, shape)
    join = MDBlockingIndex(md, master, engine="join")
    scan = MDBlockingIndex(md, master, use_suffix_tree=False, engine="reference")
    assert join.join_index is not None and join.is_exact
    for probe in probes:
        true_matches = [s.tid for s in scan.matches(probe)]
        # losslessness: filters never drop a true match
        assert {s.tid for s in join.candidates(probe)} >= set(true_matches)
        # byte-identity: same matches, same order, same witness — also
        # through the memo, whose second read is a cache hit
        assert [s.tid for s in join.matches(probe)] == true_matches
        for _ in range(2):
            assert [s.tid for s in join.cached_matches(probe)] == true_matches
        got = join.find_match(probe)
        want = scan.find_match(probe)
        assert (got.tid if got else None) == (want.tid if want else None)


class TestFuzzedLookupEquivalence:
    @given(
        master_rows, groups, maybe_names, typo_ops, mutations,
        st.sampled_from([0, 1]), st.sampled_from(SHAPES),
    )
    @settings(max_examples=60, deadline=None)
    # One-value bucket (scanned) beside a bucket with duplicate values
    # (filtered), nulls on both premise attributes.
    @example(
        [("g1", "alpha beta"), ("g1", "alpha beta"), ("g2", "alpha beta"),
         ("g2", "alpha bet"), ("g2", "alpha beta"), (NULL, "alpha beta"),
         ("g2", NULL)],
        "g2", "alpha beta", "drop", [], 0, "similarity+equality",
    )
    # Distinct same-length values in one bucket, both within budget.
    @example(
        [("g1", "alpha beta"), ("g1", "alpha zeta"), ("g1", "alpha beta"),
         ("g2", "alpha zeta")],
        "g1", "alpha zeta", "none", [], 0, "similarity+equality",
    )
    @example(
        [("g1", "gamma delta"), ("g1", "gamma"), ("g1", "gamma delta")],
        "g1", "gamma delta", "dup", [("edit", 1, "grp", "g2")], 1,
        "similarity+equality",
    )
    def test_join_lossless_and_identical(
        self, rows, probe_group, probe_name, op, master_ops,
        predicate_index, shape,
    ):
        predicate = PREDICATES[predicate_index]
        master = Relation.from_dicts(
            FUZZ_SCHEMA,
            [{"grp": g, "name": n, "grade": "A"} for g, n in rows],
        )
        probe_rows = [
            {"grp": probe_group, "name": _typo(probe_name, op), "grade": "Z"},
            {"grp": probe_group, "name": probe_name, "grade": "Z"},
        ]
        probe_rel = Relation.from_dicts(FUZZ_SCHEMA, probe_rows)
        probes = [probe_rel.by_tid(tid) for tid in probe_rel.tids()]
        _assert_lookup_equivalence(master, probes, predicate, shape)
        # master edits/inserts between lookups: the index contract assumes
        # an immutable master, so mutation means rebuild — equivalence
        # must survive arbitrary interleavings of edits and rebuilds.
        for mutation in master_ops:
            if mutation[0] == "insert":
                _tag, group, name = mutation
                master.add_row({"grp": group, "name": name, "grade": "B"})
            else:
                _tag, raw, attr, value = mutation
                tids = list(master.tids())
                t = master.by_tid(tids[raw % len(tids)])
                master.set_value(t, attr, value)
            _assert_lookup_equivalence(master, probes, predicate, shape)


# ----------------------------------------------------------------------
# 3. Config mechanics
# ----------------------------------------------------------------------
class TestMatchEngineFlagMechanics:
    def test_set_match_engine_rejects_unknown(self):
        # Rejected when the config is built, not at the first index
        # build inside clean() (a shard worker, for sharded sessions).
        with pytest.raises(ValueError, match="unknown match engine 'hypersonic'"):
            UniCleanConfig(match_engine="hypersonic")

    def test_config_override_reaches_session_indexes(self):
        master = Relation.from_dicts(SIM_SCHEMA, SIM_MASTER_ROWS)
        session = CleaningSession(
            cfds=[], mds=[_sim_md()], master=master,
            config=UniCleanConfig(eta=1.0, match_engine="reference"),
        )
        session._ensure_md_indexes()
        assert all(
            ix.engine == "reference" for ix in session.md_indexes.values()
        )

    def test_old_configs_without_the_field_default_to_join(self):
        master = Relation.from_dicts(SIM_SCHEMA, SIM_MASTER_ROWS)
        for forged in ("absent", None):
            config = UniCleanConfig(eta=1.0, match_engine="reference")
            if forged == "absent":
                del config.__dict__["match_engine"]  # a pre-field pickle
            else:
                config.__dict__["match_engine"] = None  # the former default
            restored = pickle.loads(pickle.dumps(config))
            assert restored.match_engine == "join"
            session = CleaningSession(
                cfds=[], mds=[_sim_md()], master=master, config=restored
            )
            session._ensure_md_indexes()
            assert all(ix.engine == "join" for ix in session.md_indexes.values())
