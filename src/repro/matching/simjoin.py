"""Set-based similarity-join engine for MD premise matching.

MD premise verification is a thresholded similarity join: every dirty
tuple must find the master tuples whose compared attribute is within an
edit budget (or above a Jaccard threshold).  The reference path walks a
generalized suffix tree per lookup and keeps only the top-l LCS
candidates — fast, but *lossy*: the cap can drop true matches, forcing
rare-path exhaustive re-verification downstream.

This module replaces that with the classic filtered inverted-index join
(Gravano et al. 2001; Xiao et al. 2011, both cited by the paper):

1. **length filter** — group master rows by attribute value (one group
   per distinct value; duplicates index once) and bucket the groups by
   size key (string length for edit-k, gram-set size for Jaccard-t); a
   probe only visits buckets inside the admissible window;
2. **prefix filter** — tokens are globally ordered by ascending master
   frequency; each bucket holds inverted lists over only the first
   ``|G| - T_min + 1`` tokens of each profile, and a probe scans only
   its own prefix, so frequent grams never explode the candidate set;
3. **count filter** — surviving ``(probe, group)`` pairs must share
   at least the required number of tokens; token ids are distinct
   within a profile, so the overlap is one set intersection;
4. **verify** — survivors are confirmed with the exact predicate (banded
   edit distance), or, for Jaccard, with exact set arithmetic over the
   already-tokenized profiles — no re-tokenization, no approximation.

Every filter is an upper bound a true match cannot violate, so the
pipeline is *lossless*: ``matches()`` through this engine is exhaustive
by construction, and byte-identical to a full scan.  It is the default
match engine (``UniCleanConfig.match_engine="join"``);
``indexing/blocking.py`` dispatches to it for every premise with a
join-filterable similarity clause.  A pure-similarity premise probes one
index over the whole master.  A premise that also has equality clauses
probes inside the master's equality bucket instead: the index starts
empty, grows its token vocabulary as buckets are grouped
(:meth:`QGramIndex.group_rows`), and runs the length window, count
filter and verification over the bucket's value groups — no inverted
lists, since a bucket holds only a handful of distinct values.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.relational.attribute import is_null
from repro.relational.columns import GLOBAL_TABLE
from repro.relational.relation import Relation
from repro.relational.tuples import CTuple
from repro.similarity.predicates import JoinFilterSpec, SimilarityPredicate, _as_str
from repro.similarity.qgrams import (
    edit_overlap_bound,
    edit_prefix_length,
    jaccard_overlap_bound,
    jaccard_prefix_length,
    jaccard_size_window,
    qgram_multiset_tokens,
    qgram_set,
)

__all__ = ["GroupSet", "ProfileCache", "QGramIndex", "ValueGroup"]


class ProfileCache:
    """Memoized q-gram token profiles, :class:`~repro.core.cost.RefCostCache`-style.

    Keys prefer the *canon ref* from the process-wide interning table:
    for strings, canon equality is ``==`` equality and ``==`` strings
    tokenize identically, so one profile serves every occurrence of a
    master value *and* every dirty-side probe that shares it — the
    predicate-call path never re-runs :func:`~repro.similarity.qgrams.qgrams`
    for a string the index has seen.  Values outside the table
    (uninterned probes) fall back to keying by their ``str()`` form.  ``hits``/``misses`` back the cache tests and
    the benchmark counters.
    """

    __slots__ = ("hits", "misses", "_tokenize", "_by_ref", "_by_str")

    def __init__(self, tokenize):
        self.hits = 0
        self.misses = 0
        self._tokenize = tokenize
        self._by_ref: Dict[int, Tuple[Any, ...]] = {}
        self._by_str: Dict[str, Tuple[Any, ...]] = {}

    def profile(self, value: Any) -> Tuple[Any, ...]:
        """The token profile of *value* (tokenized at most once per
        distinct string)."""
        if isinstance(value, str):
            ref = GLOBAL_TABLE.find_canon(value)
            if ref is not None:
                prof = self._by_ref.get(ref)
                if prof is None:
                    self.misses += 1
                    prof = self._by_ref[ref] = self._tokenize(value)
                else:
                    self.hits += 1
                return prof
            s = value
        else:
            s = str(value)
        prof = self._by_str.get(s)
        if prof is None:
            self.misses += 1
            prof = self._by_str[s] = self._tokenize(s)
        else:
            self.hits += 1
        return prof


class ValueGroup:
    """All master tuples sharing one (exact) compared-attribute value."""

    __slots__ = ("value", "string", "tuples", "tokens")

    def __init__(self, value: Any, string: str, tuples: List[CTuple]):
        self.value = value
        self.string = string
        self.tuples = tuples
        #: Sorted global token ids of the value's q-gram profile.
        self.tokens: array = array("l")


class GroupSet:
    """Distinct-value groups of some master rows, bucketed by size key.

    ``members`` maps a size key (string length for edit-k, gram-set size
    for Jaccard-t) to group ids — the length filter's unit.  ``postings``
    holds the prefix filter's inverted lists (size key -> token id ->
    gids); it is ``None`` for an equality bucket, whose few groups all go
    straight to the count filter.
    """

    __slots__ = ("groups", "members", "postings")

    def __init__(
        self,
        groups: List[ValueGroup],
        members: Dict[int, List[int]],
        postings: Optional[Dict[int, Dict[int, array]]] = None,
    ):
        self.groups = groups
        self.members = members
        self.postings = postings


def _group_by_value(rows: Iterable[CTuple], attr: str) -> List[ValueGroup]:
    """*rows* grouped by exact ``(type, value)`` of *attr*, first-encounter
    order; nulls skipped, unhashable values get a group each."""
    by_key: Dict[Tuple[type, Any], List[CTuple]] = {}
    keyed: List[Tuple[Any, List[CTuple]]] = []
    for t in rows:
        value = t[attr]
        if is_null(value):
            continue
        try:
            grouped = by_key.get((value.__class__, value))
            if grouped is None:
                grouped = by_key[(value.__class__, value)] = []
                keyed.append((value, grouped))
        except TypeError:  # unhashable: own group, no dedup
            grouped = []
            keyed.append((value, grouped))
        grouped.append(t)
    return [ValueGroup(value, _as_str(value), grouped) for value, grouped in keyed]


class QGramIndex:
    """A length-bucketed q-gram inverted index over one master attribute.

    Built once per (MD, similarity clause); ``probe_groups`` runs the
    lossless length → prefix → count filter pipeline and
    ``verified_groups`` additionally confirms the driving predicate, so
    its result is exactly the set of distinct master values matching the
    probe.  ``stats`` records probe/candidate/verify counters for the
    benchmark's filter-effectiveness columns.

    With ``master=None`` the index starts empty: it serves premises that
    also have equality clauses, whose probes run inside one equality
    bucket's :meth:`group_rows` (length window, count filter and
    verification, no prefix filter).  Token ids are then handed out as
    buckets are grouped — the count filter and Jaccard verification need
    one consistent token order, not a frequency-sorted one.
    """

    def __init__(
        self,
        master: Optional[Relation],
        attr: str,
        spec: JoinFilterSpec,
        predicate: SimilarityPredicate,
    ):
        self.attr = attr
        self.spec = spec
        self.predicate = predicate
        if spec.kind == "edit":
            tokenize = lambda s: qgram_multiset_tokens(s, spec.q)  # noqa: E731
        elif spec.kind == "jaccard":
            tokenize = lambda s: tuple(sorted(qgram_set(s, spec.q)))  # noqa: E731
        else:
            raise ValueError(f"unknown join filter kind {spec.kind!r}")
        self._tokenize = tokenize
        self.profiles = ProfileCache(tokenize)
        self.stats: Dict[str, int] = {
            "probes": 0,
            "prefix_candidates": 0,
            "count_checks": 0,
            "filter_survivors": 0,
            "verify_calls": 0,
            "verify_matches": 0,
        }
        self.groups: List[ValueGroup] = []
        self._all = GroupSet(self.groups, {}, {})
        self._token_ids: Dict[Any, int] = {}
        #: Probe-side tokens absent from the master vocabulary get stable
        #: negative ids: globally rarest (they sort first), never present
        #: in any inverted list, but still occupying prefix slots — both
        #: required for the prefix filter's total-order argument.  Only
        #: whole-master probes use it; bucket probes number theirs afresh.
        self._unknown: Dict[Any, int] = {}
        if master is not None:
            self._build(master)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _value_groups(self, master: Relation) -> List[ValueGroup]:
        """Master tuples grouped by exact attribute value, first-encounter
        order: by interned ref, so duplicate strings index once and no
        per-tuple dict is read.  Identical to the per-tuple
        ``(type, value)`` grouping of :func:`repro.oracle.value_groups`."""
        store = master.column_store
        groups: List[ValueGroup] = []
        refs = master.column(self.attr)
        by_ref: Dict[int, List[CTuple]] = {}
        for t, ref in zip(master, refs):
            rows = by_ref.get(ref)
            if rows is None:
                rows = by_ref[ref] = []
            rows.append(t)
        values = store.table.values
        strings = store.table.strings(list(by_ref))
        for (ref, rows), string in zip(by_ref.items(), strings):
            value = values[ref]
            if is_null(value):
                continue
            groups.append(ValueGroup(value, string, rows))
        return groups

    def _index_prefix_length(self, size: int) -> int:
        spec = self.spec
        if spec.kind == "edit":
            return min(size, edit_prefix_length(spec.edit_budget, spec.q))
        return min(size, max(jaccard_prefix_length(size, spec.threshold), 0))

    def _size_key(self, group: ValueGroup) -> int:
        return len(group.string) if self.spec.kind == "edit" else len(group.tokens)

    def _build(self, master: Relation) -> None:
        self.groups[:] = self._value_groups(master)
        raw: List[Tuple[Any, ...]] = []
        frequency: Dict[Any, int] = {}
        for group in self.groups:
            prof = self.profiles.profile(group.value)
            raw.append(prof)
            for token in prof:
                frequency[token] = frequency.get(token, 0) + 1
        order = sorted(frequency, key=lambda token: (frequency[token], token))
        self._token_ids = {token: i for i, token in enumerate(order)}
        token_ids = self._token_ids
        members, postings = self._all.members, self._all.postings
        for gid, (group, prof) in enumerate(zip(self.groups, raw)):
            ids = sorted(token_ids[token] for token in prof)
            group.tokens = array("l", ids)
            size_key = self._size_key(group)
            bucket = postings.get(size_key)
            if bucket is None:
                bucket = postings[size_key] = {}
                members[size_key] = []
            members[size_key].append(gid)
            for token_id in ids[: self._index_prefix_length(len(ids))]:
                lists = bucket.get(token_id)
                if lists is None:
                    lists = bucket[token_id] = array("l")
                lists.append(gid)

    def group_rows(self, rows: Sequence[CTuple]) -> Optional[GroupSet]:
        """One equality bucket's master *rows* as a :class:`GroupSet`
        without postings, or ``None`` when the rows hold fewer than two
        distinct non-null values — then there is nothing to filter and
        the caller scans the bucket.

        Each group keeps only its encoded token array; tokens new to the
        vocabulary get the next free id, and no token profile is cached.
        """
        attr = self.attr
        first = None
        for t in rows:  # most buckets hold one value: allocate nothing
            value = t[attr]
            if is_null(value):
                continue
            if first is None:
                first = value
            elif value.__class__ is not first.__class__ or value != first:
                break
        else:
            return None
        groups = _group_by_value(rows, attr)
        token_ids = self._token_ids
        members: Dict[int, List[int]] = {}
        for gid, group in enumerate(groups):
            group.tokens = array(
                "l",
                sorted(
                    token_ids.setdefault(token, len(token_ids))
                    for token in self._tokenize(group.string)
                ),
            )
            members.setdefault(self._size_key(group), []).append(gid)
        return GroupSet(groups, members)

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------
    def _encode(self, profile: Tuple[Any, ...], unknown: Dict[Any, int]) -> array:
        """*profile* as sorted token ids; tokens outside the vocabulary get
        negative ids from *unknown*."""
        token_ids = self._token_ids
        out = []
        for token in profile:
            token_id = token_ids.get(token)
            if token_id is None:
                token_id = unknown.get(token)
                if token_id is None:
                    token_id = unknown[token] = -1 - len(unknown)
            out.append(token_id)
        out.sort()
        return array("l", out)

    def _admissible(
        self, string: str, probe_size: int, members: Dict[int, List[int]]
    ) -> Iterator[Tuple[int, int]]:
        """Yield ``(size_key, required_overlap)`` for every bucket a true
        match of this probe could inhabit."""
        spec = self.spec
        if spec.kind == "edit":
            k, q = spec.edit_budget, spec.q
            length = len(string)
            for size_key in range(max(length - k, 0), length + k + 1):
                yield size_key, edit_overlap_bound(length, size_key, k, q)
            return
        lo, hi = jaccard_size_window(probe_size, spec.threshold)
        if hi - lo + 1 > len(members):
            keys: Iterable[int] = [b for b in members if lo <= b <= hi]
        else:
            keys = range(lo, hi + 1)
        for size_key in keys:
            yield size_key, jaccard_overlap_bound(probe_size, size_key, spec.threshold)

    def _probe(
        self, value: Any, within: Optional[GroupSet]
    ) -> Tuple[set, List[ValueGroup]]:
        """The probe's token-id set and the groups of *within* (default:
        the whole-master index) surviving the filters, in group-build
        order."""
        self.stats["probes"] += 1
        string = _as_str(value)
        if within is None:
            within = self._all
            probe = self._encode(self.profiles.profile(value), self._unknown)
        else:
            # Every token of *within* is already in the vocabulary, and no
            # prefix filter runs here, so tokens new to the vocabulary only
            # need ids distinct within this probe: nothing is retained.
            probe = self._encode(self._tokenize(string), {})
        probe_size = len(probe)
        # Token ids are distinct within a profile (multiset grams carry
        # their occurrence number), so a set intersection counts the
        # overlap exactly — the count filter, run in C.
        probe_set = set(probe)
        groups, postings = within.groups, within.postings
        out: List[int] = []
        for size_key, need in self._admissible(string, probe_size, within.members):
            members = within.members.get(size_key)
            if not members:
                continue
            if need <= 0:
                out.extend(members)  # bound cannot prune this size pair
                continue
            sample = groups[members[0]]
            if need > min(probe_size, len(sample.tokens)):
                continue  # overlap bound exceeds either set: impossible
            if postings is None:
                candidates: Iterable[int] = members
            else:
                bucket = postings[size_key]
                seen = set()
                for token_id in probe[: probe_size - need + 1]:
                    if token_id < 0:
                        continue  # unknown token: counts toward the prefix,
                        # can never hit an inverted list
                    lists = bucket.get(token_id)
                    if lists is not None:
                        seen.update(lists)
                self.stats["prefix_candidates"] += len(seen)
                candidates = seen
            for gid in candidates:
                self.stats["count_checks"] += 1
                if len(probe_set.intersection(groups[gid].tokens)) >= need:
                    out.append(gid)
        out.sort()
        self.stats["filter_survivors"] += len(out)
        return probe_set, [groups[gid] for gid in out]

    def probe_groups(self, value: Any) -> List[ValueGroup]:
        """Value groups surviving the length/prefix/count filters — a
        guaranteed superset of the true matches, in group-build order."""
        return self._probe(value, None)[1]

    def verified_groups(
        self, value: Any, within: Optional[GroupSet] = None
    ) -> List[ValueGroup]:
        """Exactly the value groups (of *within*, default the whole
        master) whose value satisfies the driving predicate against
        *value* (filter pipeline + exact verification)."""
        probe, survivors = self._probe(value, within)
        out: List[ValueGroup] = []
        if self.spec.kind == "jaccard":
            # Verify from the encoded gram sets: same integer
            # |intersection| / |union| the predicate computes, without
            # re-tokenizing either side.
            probe_size = len(probe)
            threshold = self.spec.threshold
            for group in survivors:
                self.stats["verify_calls"] += 1
                shared = len(probe.intersection(group.tokens))
                union = probe_size + len(group.tokens) - shared
                similarity = 1.0 if union == 0 else shared / union
                if similarity >= threshold:
                    self.stats["verify_matches"] += 1
                    out.append(group)
            return out
        for group in survivors:
            self.stats["verify_calls"] += 1
            if self.predicate(value, group.value):
                self.stats["verify_matches"] += 1
                out.append(group)
        return out
