"""Tests for MD blocking indexes."""

import pytest

from repro.constraints import MD
from repro.indexing import ExactIndex, MDBlockingIndex, build_md_indexes
from repro.relational import NULL, Relation, Schema
from repro.similarity import edit_within


@pytest.fixture()
def schema() -> Schema:
    return Schema("R", ["name", "zip", "phone"])


@pytest.fixture()
def master(schema) -> Relation:
    return Relation.from_dicts(
        schema,
        [
            {"name": "edinburgh royal", "zip": "11111", "phone": "101"},
            {"name": "london general", "zip": "22222", "phone": "202"},
            {"name": "glasgow central", "zip": "11111", "phone": "303"},
            {"name": "aberdeen north", "zip": NULL, "phone": "404"},
        ],
    )


class TestExactIndex:
    def test_lookup(self, schema, master):
        index = ExactIndex(master, ["zip"])
        assert {t.tid for t in index.lookup(("11111",))} == {0, 2}
        assert index.lookup(("99999",)) == []

    def test_nulls_skipped(self, schema, master):
        index = ExactIndex(master, ["zip"])
        assert all(t.tid != 3 for bucket in [index.lookup(("11111",))] for t in bucket)
        assert index.bucket_count() == 2

    def test_lookup_tuple(self, schema, master):
        index = ExactIndex(master, ["zip"])
        probe = master.by_tid(0)
        assert probe in index.lookup_tuple(probe, ["zip"])

    def test_multi_attribute_key(self, schema, master):
        index = ExactIndex(master, ["zip", "phone"])
        assert [t.tid for t in index.lookup(("11111", "101"))] == [0]


class TestMDBlockingIndex:
    @pytest.fixture()
    def eq_md(self, schema) -> MD:
        return MD(schema, schema, [("zip", "zip")], [("phone", "phone")])

    @pytest.fixture()
    def sim_md(self, schema) -> MD:
        return MD(schema, schema, [("name", "name", edit_within(2))], [("phone", "phone")])

    def test_equality_candidates_are_bucket(self, schema, master, eq_md):
        index = MDBlockingIndex(eq_md, master)
        probe = Relation.from_dicts(schema, [{"zip": "11111", "name": "x", "phone": "y"}])
        candidates = index.candidates(probe.by_tid(0))
        assert {t.tid for t in candidates} == {0, 2}

    def test_null_key_no_candidates(self, schema, master, eq_md):
        index = MDBlockingIndex(eq_md, master)
        probe = Relation.from_dicts(schema, [{"zip": NULL, "name": "x", "phone": "y"}])
        assert index.candidates(probe.by_tid(0)) == []

    def test_similarity_blocking_finds_typo(self, schema, master, sim_md):
        index = MDBlockingIndex(sim_md, master, top_l=4)
        probe = Relation.from_dicts(
            schema, [{"name": "edinburh royal", "zip": "z", "phone": "p"}]  # 1 deletion
        )
        matches = index.matches(probe.by_tid(0))
        assert [s.tid for s in matches] == [0]

    def test_full_scan_fallback(self, schema, master, sim_md):
        index = MDBlockingIndex(sim_md, master, use_suffix_tree=False)
        probe = Relation.from_dicts(
            schema, [{"name": "edinburh royal", "zip": "z", "phone": "p"}]
        )
        assert len(index.candidates(probe.by_tid(0))) == len(master)
        assert [s.tid for s in index.matches(probe.by_tid(0))] == [0]

    def test_find_match_deterministic(self, schema, master, eq_md):
        index = MDBlockingIndex(eq_md, master)
        probe = Relation.from_dicts(schema, [{"zip": "11111", "name": "x", "phone": "y"}])
        match = index.find_match(probe.by_tid(0))
        assert match.tid == 0  # smallest master tid

    def test_find_match_none(self, schema, master, eq_md):
        index = MDBlockingIndex(eq_md, master)
        probe = Relation.from_dicts(schema, [{"zip": "00000", "name": "x", "phone": "y"}])
        assert index.find_match(probe.by_tid(0)) is None

    def test_build_md_indexes_normalizes(self, schema, master):
        md = MD(schema, schema, [("zip", "zip")], [("phone", "phone"), ("name", "name")])
        indexes = build_md_indexes([md], master)
        assert len(indexes) == 2
        assert all(index.md.is_normalized for index in indexes.values())


class TestTopLDroppedMatchRegression:
    """The lossy-default regression: top-``l`` LCS retrieval can silently
    drop a true match when ``l`` decoys out-rank it on LCS length.  The
    join engine — now the default — is exhaustive on the same workload.
    """

    @pytest.fixture()
    def schema(self) -> Schema:
        return Schema("R", ["name", "phone"])

    @pytest.fixture()
    def master(self, schema) -> Relation:
        # Six decoys contain the probe "abcdefgh" verbatim (LCS 8, edit
        # distance huge); the single true edit<=1 match "abcdefgx" only
        # reaches LCS 7, so top-l=4 retrieval keeps decoys exclusively.
        rows = [
            {"name": f"abcdefgh suffix {i:02d}", "phone": str(i)} for i in range(6)
        ]
        rows.append({"name": "abcdefgx", "phone": "99"})
        return Relation.from_dicts(schema, rows)

    @pytest.fixture()
    def md(self, schema) -> MD:
        return MD(schema, schema, [("name", "name", edit_within(1))], [("phone", "phone")])

    @pytest.fixture()
    def probe(self, schema):
        return Relation.from_dicts(
            schema, [{"name": "abcdefgh", "phone": "p"}]
        ).by_tid(0)

    def test_reference_engine_drops_the_true_match(self, md, master, probe):
        index = MDBlockingIndex(md, master, top_l=4, engine="reference")
        assert not index.is_exact
        assert index.matches(probe) == []  # silently lossy

    def test_join_engine_finds_it_and_is_exact(self, md, master, probe):
        index = MDBlockingIndex(md, master, top_l=4, engine="join")
        assert index.is_exact
        assert [s.tid for s in index.matches(probe)] == [6]

    def test_exhaustive_scan_agrees_with_join(self, md, master, probe):
        scan = MDBlockingIndex(md, master, use_suffix_tree=False, engine="reference")
        join = MDBlockingIndex(md, master, engine="join")
        assert [s.tid for s in join.matches(probe)] == [
            s.tid for s in scan.matches(probe)
        ]

    def test_join_is_the_default_engine(self, md, master, probe):
        index = MDBlockingIndex(md, master, top_l=4)
        assert index.engine == "join"
        assert index.is_exact
        assert [s.tid for s in index.matches(probe)] == [6]

    def test_warm_cache_round_trip_under_join(self, md, master, probe):
        index = MDBlockingIndex(md, master, engine="join")
        first = index.cached_matches(probe)
        entries = index.cache_entries()
        fresh = MDBlockingIndex(md, master, engine="join")
        fresh.warm_cache(entries)
        assert [s.tid for s in fresh.cached_matches(probe)] == [
            s.tid for s in first
        ]
        # the warmed cache answered without a new probe
        assert fresh.join_index.stats["probes"] == 0


class TestMixedPremiseJoin:
    """Premises with equality clauses plus a join-filterable similarity
    clause: the join runs inside the probe's equality bucket, and a
    bucket with fewer than two distinct compared values is scanned."""

    @pytest.fixture()
    def schema(self) -> Schema:
        return Schema("P", ["year", "title", "ee"])

    @pytest.fixture()
    def master(self, schema) -> Relation:
        return Relation.from_dicts(
            schema,
            [
                {"year": "2001", "title": "record matching", "ee": "a"},
                {"year": "2001", "title": "data repairing", "ee": "b"},
                {"year": "2001", "title": "record matchings", "ee": "c"},
                {"year": "2002", "title": "master data", "ee": "d"},
                {"year": "2002", "title": "master data", "ee": "e"},
                {"year": "2001", "title": NULL, "ee": "f"},
            ],
        )

    @pytest.fixture()
    def md(self, schema) -> MD:
        return MD(
            schema, schema,
            [("title", "title", edit_within(2)), ("year", "year")],
            [("ee", "ee")],
        )

    def _probe(self, schema, year, title):
        return Relation.from_dicts(
            schema, [{"year": year, "title": title, "ee": "?"}]
        ).by_tid(0)

    def test_multi_value_bucket_is_filtered(self, schema, master, md):
        index = MDBlockingIndex(md, master, engine="join")
        assert index.is_exact and index.join_index is not None
        probe = self._probe(schema, "2001", "record matchin")
        assert [s.tid for s in index.matches(probe)] == [0, 2]
        (groups,) = index._join_buckets.values()
        # three distinct non-null titles, the null row left out
        assert sorted(g.string for g in groups.groups) == [
            "data repairing", "record matching", "record matchings",
        ]
        assert groups.postings is None
        # filters dropped "data repairing" before verification
        assert index.join_index.stats["verify_calls"] == 2

    def test_one_value_bucket_is_scanned(self, schema, master, md):
        index = MDBlockingIndex(md, master, engine="join")
        probe = self._probe(schema, "2002", "master dat")
        assert [s.tid for s in index.matches(probe)] == [3, 4]
        assert list(index._join_buckets.values()) == [None]
        assert index.join_index.stats["probes"] == 0
        assert index.verify_calls == 2  # one premise check per row

    def test_counters_include_bucket_verifications(self, schema, master, md):
        index = MDBlockingIndex(md, master, engine="join")
        probe = self._probe(schema, "2001", "record matchin")
        index.find_match(probe)  # one dispatch: counted like matches()
        assert index.stats["lookups"] == 1
        assert index.stats["candidates"] == 2
        # two join verifications, then the residual year check per row
        assert index.verify_calls == 2 + 2

    def test_find_match_is_min_tid_of_matches(self, schema, master, md):
        scan = MDBlockingIndex(md, master, use_suffix_tree=False, engine="reference")
        join = MDBlockingIndex(md, master, engine="join")
        for year, title in [("2001", "record matchings"), ("2002", "master"),
                            ("2003", "record matching"), (NULL, "data repairing")]:
            probe = self._probe(schema, year, title)
            want = scan.find_match(probe)
            got = join.find_match(probe)
            assert (got.tid if got else None) == (want.tid if want else None)
            matched = join.matches(probe)
            assert got is (min(matched, key=lambda s: s.tid) if matched else None)

    def test_reference_engine_keeps_the_bucket_scan(self, schema, master, md):
        index = MDBlockingIndex(md, master, engine="reference")
        assert index.join_index is None
        probe = self._probe(schema, "2001", "record matchin")
        assert [s.tid for s in index.matches(probe)] == [0, 2]
        assert index.verify_calls == 4  # every row of the 2001 bucket
