"""Unit tests for the set-based similarity-join engine."""

import contextlib

import pytest

from repro import oracle
from repro.constraints import MD
from repro.core import UniCleanConfig
from repro.indexing import MDBlockingIndex, build_md_indexes
from repro.matching.simjoin import ProfileCache, QGramIndex
from repro.relational import NULL, Relation, Schema
from repro.relational.columns import GLOBAL_TABLE
from repro.similarity import (
    EQ,
    edit_within,
    jaro_winkler_at_least,
    join_filter_for,
    qgram_jaccard_at_least,
)
from repro.similarity.predicates import JoinFilterSpec


@pytest.fixture()
def schema() -> Schema:
    return Schema("R", ["name", "city", "phone"])


@pytest.fixture()
def master(schema) -> Relation:
    return Relation.from_dicts(
        schema,
        [
            {"name": "edinburgh royal", "city": "edinburgh", "phone": "101"},
            {"name": "london general", "city": "london", "phone": "202"},
            {"name": "glasgow central", "city": "glasgow", "phone": "303"},
            {"name": "edinburgh royal", "city": "leith", "phone": "404"},
            {"name": NULL, "city": "dundee", "phone": "505"},
        ],
    )


def _probe(schema, name):
    return Relation.from_dicts(
        schema, [{"name": name, "city": "x", "phone": "y"}]
    ).by_tid(0)


class TestJoinFilterSpec:
    def test_edit_predicate_maps_to_edit_spec(self):
        spec = join_filter_for(edit_within(2))
        assert spec == JoinFilterSpec(kind="edit", q=2, edit_budget=2)

    def test_qgram_predicate_maps_to_jaccard_spec(self):
        spec = join_filter_for(qgram_jaccard_at_least(0.7, q=3))
        assert spec == JoinFilterSpec(kind="jaccard", q=3, threshold=0.7)

    def test_equality_and_unboundable_predicates_map_to_none(self):
        assert join_filter_for(EQ) is None
        assert join_filter_for(jaro_winkler_at_least(0.9)) is None
        # J >= 0 admits every pair: no filter is possible (or needed).
        assert join_filter_for(qgram_jaccard_at_least(0.0)) is None

    def test_clause_join_filter_delegates(self, schema):
        md = MD(
            schema, schema, [("name", "name", edit_within(1))], [("phone", "phone")]
        )
        assert md.premise[0].join_filter().kind == "edit"


class TestQGramIndex:
    def _index(self, master, predicate):
        clause_spec = join_filter_for(predicate)
        return QGramIndex(master, "name", clause_spec, predicate)

    def test_duplicate_master_values_share_a_group(self, master):
        index = self._index(master, edit_within(2))
        strings = [g.string for g in index.groups]
        assert strings.count("edinburgh royal") == 1
        (group,) = [g for g in index.groups if g.string == "edinburgh royal"]
        assert sorted(s.tid for s in group.tuples) == [0, 3]

    def test_null_master_values_are_not_indexed(self, master):
        index = self._index(master, edit_within(2))
        assert all(s.tid != 4 for g in index.groups for s in g.tuples)

    def test_probe_is_superset_of_verified(self, master):
        index = self._index(master, edit_within(2))
        probed = {g.string for g in index.probe_groups("edinburh royal")}
        verified = {g.string for g in index.verified_groups("edinburh royal")}
        assert verified <= probed
        assert verified == {"edinburgh royal"}

    def test_foreign_probe_finds_nothing(self, master):
        index = self._index(master, edit_within(1))
        assert index.verified_groups("zzzzzzzzzzzzzzz") == []

    def test_jaccard_verification_matches_predicate(self, master):
        predicate = qgram_jaccard_at_least(0.5)
        index = self._index(master, predicate)
        for value in ("edinburgh royal", "edinburh royal", "london", "zzz"):
            expected = {
                g.string
                for g in index.groups
                if predicate(value, g.value)
            }
            observed = {g.string for g in index.verified_groups(value)}
            assert observed == expected

    def test_stats_counters_advance(self, master):
        index = self._index(master, edit_within(2))
        index.verified_groups("edinburh royal")
        assert index.stats["probes"] == 1
        assert index.stats["verify_calls"] >= index.stats["verify_matches"] >= 1
        assert index.stats["count_checks"] >= index.stats["filter_survivors"]


class TestProfileCache:
    def test_build_tokenizes_once_per_distinct_value(self, master):
        index = QGramIndex(
            master, "name", join_filter_for(edit_within(2)), edit_within(2)
        )
        # Four non-null rows, three distinct values — the duplicate
        # "edinburgh royal" must not re-tokenize.
        assert index.profiles.misses == 3
        assert len(index.groups) == 3

    def test_probe_of_known_value_is_a_cache_hit(self, master):
        index = QGramIndex(
            master, "name", join_filter_for(edit_within(2)), edit_within(2)
        )
        misses = index.profiles.misses
        index.probe_groups("edinburgh royal")  # master value: interned
        assert index.profiles.hits >= 1
        assert index.profiles.misses == misses

    def test_repeated_foreign_probe_hits_after_first_miss(self, master):
        index = QGramIndex(
            master, "name", join_filter_for(edit_within(2)), edit_within(2)
        )
        index.probe_groups("brand new value")
        misses = index.profiles.misses
        hits = index.profiles.hits
        index.probe_groups("brand new value")
        assert index.profiles.misses == misses
        assert index.profiles.hits == hits + 1

    def test_uninterned_strings_fall_back_to_str_keying(self):
        cache = ProfileCache(lambda s: (s,))
        probe = "simjoin-test-never-interned-☃"
        assert GLOBAL_TABLE.find_canon(probe) is None
        assert cache.profile(probe) == (probe,)
        assert cache.profile(probe) == (probe,)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_non_string_values_key_by_str_form(self):
        cache = ProfileCache(lambda s: (s,))
        assert cache.profile(0) == ("0",)
        assert cache.profile(0.0) == ("0.0",)  # distinct str forms
        assert cache.misses == 2


class TestMatchEngineFlag:
    def test_set_match_engine_rejects_unknown(self, master, schema):
        # Both places an engine is chosen reject unknown names up front.
        md = MD(
            schema, schema, [("name", "name", edit_within(1))], [("phone", "phone")]
        )
        with pytest.raises(ValueError, match="unknown match engine"):
            MDBlockingIndex(md, master, engine="turbo")
        with pytest.raises(ValueError, match="unknown match engine"):
            UniCleanConfig(match_engine="turbo")

    def test_default_is_join(self, master, schema):
        # The exact engine is the default; reference is the ablation.
        md = MD(
            schema, schema, [("name", "name", edit_within(1))], [("phone", "phone")]
        )
        assert MDBlockingIndex(md, master).engine == "join"
        assert UniCleanConfig().match_engine == "join"

    def test_constructor_override_beats_flag(self, master, schema):
        md = MD(
            schema, schema, [("name", "name", edit_within(1))], [("phone", "phone")]
        )
        index = MDBlockingIndex(md, master, engine="reference")
        assert index.engine == "reference"
        assert index.join_index is None
        index = MDBlockingIndex(md, master, engine="join")
        assert index.engine == "join"
        assert index.join_index is not None

    def test_build_md_indexes_threads_engine(self, master, schema):
        md = MD(
            schema, schema, [("name", "name", edit_within(1))], [("phone", "phone")]
        )
        indexes = build_md_indexes([md], master, engine="reference")
        assert all(ix.engine == "reference" for ix in indexes.values())


class TestEngineEquivalence:
    # "columnar": the production ref grouping of master values; "dict":
    # the oracle's per-tuple ``(type, value)``-keyed grouping
    # (:func:`repro.oracle.value_groups`), swapped in for the whole test.
    @pytest.fixture(params=[False, True], ids=["columnar", "dict"])
    def backed_master(self, request, schema):
        kernels = (
            oracle.reference_kernels() if request.param else contextlib.nullcontext()
        )
        with kernels:
            yield Relation.from_dicts(
                schema,
                [
                    {"name": "edinburgh royal", "city": "edinburgh", "phone": "101"},
                    {"name": "london general", "city": "london", "phone": "202"},
                    {"name": "edinburgh royal", "city": "leith", "phone": "404"},
                    {"name": "edinburh royal", "city": "glasgow", "phone": "303"},
                ],
            )

    def test_matches_identical_to_full_scan(self, schema, backed_master):
        md = MD(
            schema, schema, [("name", "name", edit_within(2))], [("phone", "phone")]
        )
        join = MDBlockingIndex(md, backed_master, engine="join")
        scan = MDBlockingIndex(
            md, backed_master, use_suffix_tree=False, engine="reference"
        )
        for name in ("edinburgh royal", "edinburh royal", "nowhere at all"):
            probe = _probe(schema, name)
            expected = [s.tid for s in scan.matches(probe)]
            assert [s.tid for s in join.matches(probe)] == expected
            got = join.find_match(probe)
            want = scan.find_match(probe)
            assert (got.tid if got else None) == (want.tid if want else None)

    def test_candidates_superset_of_scan_matches(self, schema, backed_master):
        md = MD(
            schema, schema, [("name", "name", edit_within(2))], [("phone", "phone")]
        )
        join = MDBlockingIndex(md, backed_master, engine="join")
        scan = MDBlockingIndex(
            md, backed_master, use_suffix_tree=False, engine="reference"
        )
        probe = _probe(schema, "edinburgh royal")
        candidates = {s.tid for s in join.candidates(probe)}
        assert candidates >= {s.tid for s in scan.matches(probe)}
