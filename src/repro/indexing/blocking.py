"""Blocking indexes for MD similarity search against master data.

Checking an MD premise naively costs ``O(|D|·|Dm|)`` similarity tests.
Section 5.2 cuts the master-side factor to a constant ``l`` ("we find that
l ≤ 20 typically suffices") using two complementary indexes:

* :class:`ExactIndex` — a hash index on the master projection of the
  *equality* premise attributes (traditional exact-match indexing);
* a :class:`~repro.indexing.suffix_tree.GeneralizedSuffixTree` per
  similarity-compared master attribute, used to retrieve the top-``l``
  master values by LCS, which upper-bounds candidates for bounded
  edit/Hamming distance (the ``max(|u|,|v|)/(K+1)`` LCS bound).

:class:`MDBlockingIndex` combines both.  The similarity side has two
engines, chosen per index (``UniCleanConfig.match_engine``, which
pickles to shard workers with the rest of the config):

* ``join`` (default) — the filtered similarity join of
  :mod:`repro.matching.simjoin` for every premise with a join-filterable
  similarity clause (edit-k or q-gram Jaccard-t).  A pure-similarity
  premise probes one q-gram index over the whole master (length, prefix
  and count filters, then exact verification).  A premise that also has
  equality clauses first takes the probe's :class:`ExactIndex` bucket —
  the master factorised by the equality key — and runs the length
  window, count filter and verification over that bucket's distinct
  values, grouped lazily on its first probe.  A bucket with fewer than
  two distinct values has nothing to filter and is scanned.  Lossless
  either way, so :attr:`is_exact` holds and ``matches()`` is exhaustive
  by construction;
* ``reference`` — the paper's per-lookup top-``l`` LCS retrieval from a
  generalized suffix tree for pure-similarity premises; equality
  premises scan their exact bucket and verify every clause.  The tree is
  fast but *lossy*: the cap can drop true matches (``is_exact`` is
  False), which downstream code compensates for with rare-path
  exhaustive re-verification.

Premises with no join-filterable clause (pure equality, Jaro–Winkler)
scan the exact bucket under either engine.  A ``use_suffix_tree=False``
escape hatch forces full scans (of the bucket, or of ``Dm``) under
either engine — that is the oracle of the match-engine property tests
and the baseline of the blocking ablation benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.constraints.md import MD
from repro.relational.attribute import is_null
from repro.relational.relation import Relation
from repro.relational.tuples import CTuple
from repro.indexing.suffix_tree import GeneralizedSuffixTree


#: The MD match engines an index can run.
MATCH_ENGINES = ("join", "reference")


class ExactIndex:
    """Hash index from a projection of *attrs* to the matching tuples.

    Tuples with a null in any indexed attribute are skipped (they can never
    satisfy an equality premise, Section 7).
    """

    def __init__(self, relation: Relation, attrs: Sequence[str]):
        relation.schema.check_attrs(attrs)
        self.attrs: Tuple[str, ...] = tuple(attrs)
        self._buckets: Dict[Tuple[Any, ...], List[CTuple]] = {}
        for t in relation:
            if t.has_null(self.attrs):
                continue
            self._buckets.setdefault(t.project(self.attrs), []).append(t)

    def lookup(self, key: Tuple[Any, ...]) -> List[CTuple]:
        """Tuples whose projection equals *key* (possibly empty)."""
        return self._buckets.get(key, [])

    def lookup_tuple(self, t: CTuple, attrs: Sequence[str]) -> List[CTuple]:
        """Tuples matching the projection of *t* on *attrs* (data-side names)."""
        return self.lookup(t.project(attrs))

    def bucket_count(self) -> int:
        """Number of distinct keys."""
        return len(self._buckets)


class MDBlockingIndex:
    """Candidate retrieval for one normalized MD against fixed master data.

    Parameters
    ----------
    md:
        The (normalized) MD whose premise drives candidate search.
    master:
        The master relation ``Dm`` (assumed immutable during cleaning —
        master data is clean and never updated).
    top_l:
        The ``l`` of the top-``l`` LCS retrieval (paper default ≤ 20).
    use_suffix_tree:
        When false, matching scans the probe's equality bucket, or all of
        ``Dm`` for a pure-similarity premise, under either engine (the
        ablation baseline and the property tests' oracle).
    engine:
        ``"join"`` (default) or ``"reference"``.
    """

    def __init__(
        self,
        md: MD,
        master: Relation,
        top_l: int = 20,
        use_suffix_tree: bool = True,
        engine: str = "join",
    ):
        self.md = md
        self.master = master
        self.top_l = top_l
        self.use_suffix_tree = use_suffix_tree
        if engine not in MATCH_ENGINES:
            raise ValueError(f"unknown match engine {engine!r}")
        self.engine = engine
        self._eq_clauses = [c for c in md.premise if c.is_equality]
        self._eq_attrs = [c.attr for c in self._eq_clauses]
        self._sim_clauses = [c for c in md.premise if not c.is_equality]
        self._premise_attrs = tuple(dict.fromkeys(c.attr for c in md.premise))
        self._match_cache: Dict[Tuple[Any, ...], List[CTuple]] = {}
        #: Retrieval-effort counters (the match-engine benchmark reads
        #: these): premise lookups, master tuples examined post-filter,
        #: and residual per-tuple predicate evaluations.
        self.stats: Dict[str, int] = {"lookups": 0, "candidates": 0, "verify_calls": 0}
        self._exact: Optional[ExactIndex] = None
        if self._eq_clauses:
            self._exact = ExactIndex(master, [c.master_attr for c in self._eq_clauses])
        # One suffix tree per similarity-compared master attribute that has
        # a usable edit budget; built lazily only when needed.
        self._trees: Dict[str, GeneralizedSuffixTree] = {}
        self._tree_values: Dict[str, Dict[int, List[CTuple]]] = {}
        #: The similarity-join index (join engine): over the whole master
        #: for a pure-similarity premise, filled bucket by bucket when the
        #: premise also has equality clauses.
        self.join_index = None
        self._join_clause = None
        #: The premise clauses left to check per tuple after the join.
        self._residual: Tuple = ()
        #: Equality key -> its bucket's value groups (``None``: scan it);
        #: one-row buckets are scanned without an entry.
        self._join_buckets: Dict[Tuple[Any, ...], Any] = {}
        self._positions: Optional[Dict[Optional[int], int]] = None
        if use_suffix_tree and self.engine == "join":
            # Imported lazily: ``matching`` imports the matcher, which
            # imports this module — a module-level import would cycle.
            from repro.matching.simjoin import QGramIndex

            for clause in self._sim_clauses:
                spec = clause.join_filter()
                if spec is not None:
                    self.join_index = QGramIndex(
                        None if self._exact is not None else master,
                        clause.master_attr,
                        spec,
                        clause.predicate,
                    )
                    self._join_clause = clause
                    residual = list(md._eval_order)
                    residual.remove(clause)
                    self._residual = tuple(residual)
                    break
        elif use_suffix_tree and not self._eq_clauses:
            for clause in self._sim_clauses:
                if clause.predicate.edit_budget is not None:
                    self._build_tree(clause.master_attr)
                    break

    @property
    def is_exact(self) -> bool:
        """Whether candidate retrieval is lossless — i.e. :meth:`matches`
        finds *every* premise match.  True for equality blocking, full
        scans, and the join engine (whose filters are upper-bound-sound,
        making retrieval exhaustive by construction).  Only the reference
        engine's suffix-tree retrieval caps candidates at top-``l`` and
        may drop true matches; verdict-style callers must not rely on it."""
        return (
            self._exact is not None
            or not self.use_suffix_tree
            or self.engine == "join"
        )

    @property
    def verify_calls(self) -> int:
        """Total similarity verifications so far: full premise checks plus
        (join engine) per-distinct-value driving-predicate checks, over
        the whole master or inside equality buckets."""
        total = self.stats["verify_calls"]
        if self.join_index is not None:
            total += self.join_index.stats["verify_calls"]
        return total

    def _tid_positions(self) -> Dict[Optional[int], int]:
        positions = self._positions
        if positions is None:
            positions = self._positions = {
                tid: i for i, tid in enumerate(self.master.tids())
            }
        return positions

    def _build_tree(self, master_attr: str) -> None:
        if master_attr in self._trees:
            return
        tree = GeneralizedSuffixTree()
        by_value: Dict[str, List[CTuple]] = {}
        for s in self.master:
            value = s[master_attr]
            if is_null(value):
                continue
            by_value.setdefault(str(value), []).append(s)
        sid_tuples: Dict[int, List[CTuple]] = {}
        for sid, (value, tuples) in enumerate(sorted(by_value.items())):
            tree.add_string(sid, value)
            sid_tuples[sid] = tuples
        self._trees[master_attr] = tree
        self._tree_values[master_attr] = sid_tuples

    # ------------------------------------------------------------------
    # Candidate retrieval
    # ------------------------------------------------------------------
    def candidates(self, t: CTuple) -> List[CTuple]:
        """Master tuples worth verifying against *t* (superset of matches
        under the index's pruning guarantees)."""
        if self._exact is not None:
            key = t.project(self._eq_attrs)
            if any(is_null(v) for v in key):
                return []
            return self._exact.lookup(key)
        if self.join_index is not None:
            value = t[self._join_clause.attr]
            if is_null(value):
                return []
            out: List[CTuple] = []
            for group in self.join_index.probe_groups(value):
                out.extend(group.tuples)
            positions = self._tid_positions()
            out.sort(key=lambda s: positions[s.tid])
            return out
        if self.use_suffix_tree:
            for clause in self._sim_clauses:
                budget = clause.predicate.edit_budget
                if budget is None or clause.master_attr not in self._trees:
                    continue
                value = t[clause.attr]
                if is_null(value):
                    return []
                tree = self._trees[clause.master_attr]
                sids = tree.lcs_candidates(str(value), budget, self.top_l)
                out = []
                for sid in sids:
                    out.extend(self._tree_values[clause.master_attr][sid])
                return out
        return self.master.tuples()

    def _scan(self, t: CTuple, candidates: Iterable[CTuple]) -> List[CTuple]:
        """The candidates whose full premise holds against *t*, one
        verification per candidate, in candidate order."""
        out: List[CTuple] = []
        for s in candidates:
            self.stats["candidates"] += 1
            self.stats["verify_calls"] += 1
            if self.md.premise_holds(t, s):
                out.append(s)
        return out

    def _join_matches(self, t: CTuple) -> List[CTuple]:
        """Join-engine ``matches()``: the driving predicate is verified
        once per distinct master value (exactly, inside the join index) —
        of the whole master, or of the probe's equality bucket when the
        premise has equality clauses; only the residual premise clauses
        run per tuple.  The result is sorted into master insertion order
        — byte-identical to filtering a full scan."""
        within = None
        if self._exact is not None:
            key = t.project(self._eq_attrs)
            if any(is_null(v) for v in key):
                return []
            rows = self._exact.lookup(key)
            if len(rows) > 1:  # grouped on the bucket's first probe
                try:
                    within = self._join_buckets[key]
                except KeyError:
                    within = self._join_buckets[key] = (
                        self.join_index.group_rows(rows)
                    )
            if within is None:
                return self._scan(t, rows)
        value = t[self._join_clause.attr]
        if is_null(value):
            return []
        residual = self._residual
        out: List[CTuple] = []
        for group in self.join_index.verified_groups(value, within):
            self.stats["candidates"] += len(group.tuples)
            if not residual:
                out.extend(group.tuples)
                continue
            for s in group.tuples:
                held = True
                for clause in residual:
                    self.stats["verify_calls"] += 1
                    if not clause.holds(t, s):
                        held = False
                        break
                if held:
                    out.append(s)
        positions = self._tid_positions()
        out.sort(key=lambda s: positions[s.tid])
        return out

    def matches(self, t: CTuple) -> List[CTuple]:
        """All master tuples whose full premise holds against *t*."""
        self.stats["lookups"] += 1
        if self.join_index is not None:
            return self._join_matches(t)
        return self._scan(t, self.candidates(t))

    @staticmethod
    def _witness(matched: List[CTuple]) -> Optional[CTuple]:
        if not matched:
            return None
        return min(matched, key=lambda s: s.tid or 0)

    def find_match(self, t: CTuple) -> Optional[CTuple]:
        """The first (smallest master tid) premise-satisfying master
        tuple: the deterministic witness among :meth:`matches`."""
        return self._witness(self.matches(t))

    # ------------------------------------------------------------------
    # Memoized retrieval (the indexed rule engine's MD match cache)
    # ------------------------------------------------------------------
    def cached_matches(self, t: CTuple) -> List[CTuple]:
        """Like :meth:`matches`, memoized by the premise projection.

        The premise verdict depends only on ``t``'s premise-attribute
        values, and master data is immutable during cleaning — so the
        (expensive, similarity-heavy) verification runs once per distinct
        projection instead of once per tuple per resolution round.
        Callers must not mutate the returned list.
        """
        key = t.project(self._premise_attrs)
        hit = self._match_cache.get(key)
        if hit is None:
            hit = self._match_cache[key] = self.matches(t)
        return hit

    def cached_find_match(self, t: CTuple) -> Optional[CTuple]:
        """Memoized :meth:`find_match` (same deterministic witness)."""
        return self._witness(self.cached_matches(t))

    # ------------------------------------------------------------------
    # Snapshot support (session persistence re-warms the cache)
    # ------------------------------------------------------------------
    def cache_entries(self) -> List[Tuple[Tuple[Any, ...], List[int]]]:
        """The memoized match cache as ``(premise projection, master
        tids)`` pairs, in insertion order.

        Master tuples are referenced by tid — the master relation is
        immutable and travels separately in a snapshot, so this is the
        compact, relation-independent form :mod:`repro.pipeline.snapshot`
        persists.
        """
        return [
            (key, [s.tid for s in matched])
            for key, matched in self._match_cache.items()
        ]

    def warm_cache(
        self, entries: Iterable[Tuple[Tuple[Any, ...], Sequence[int]]]
    ) -> None:
        """Re-populate the match cache from :meth:`cache_entries` output.

        Tids resolve against this index's own master relation, preserving
        the original match lists (and their order) exactly — restoring a
        session starts with the cache as warm as it was at save time.
        """
        for key, tids in entries:
            self._match_cache[tuple(key)] = [
                self.master.by_tid(tid) for tid in tids
            ]


def build_md_indexes(
    mds: Iterable[MD],
    master: Relation,
    top_l: int = 20,
    use_suffix_tree: bool = True,
    engine: str = "join",
) -> Dict[str, MDBlockingIndex]:
    """Build one :class:`MDBlockingIndex` per normalized MD, keyed by name."""
    out: Dict[str, MDBlockingIndex] = {}
    for md in mds:
        for normalized in md.normalize():
            out[normalized.name] = MDBlockingIndex(
                normalized,
                master,
                top_l=top_l,
                use_suffix_tree=use_suffix_tree,
                engine=engine,
            )
    return out
