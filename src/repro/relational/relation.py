"""Relation instances: ordered collections of :class:`CTuple` rows.

A :class:`Relation` owns its tuples and assigns tuple identifiers (tids).
Cleaning algorithms operate on a *clone* of the dirty relation, mutate
tuples in place and record the edits in a fix log; the original relation is
never modified.

Cell mutations that go through :meth:`Relation.set_value` are broadcast to
registered observers, which is how incremental indexes (the violation
index, the entropy index) stay coherent with in-place :class:`CTuple`
mutation.  Tuple inserts (:meth:`Relation.add`) and deletes
(:meth:`Relation.remove`) are broadcast the same way, so a
:class:`~repro.pipeline.changeset.Changeset` applied to an observed
relation keeps every derived structure coherent without rebuilds.
Observers are *not* carried over by :meth:`clone` — each clone starts
with a clean observer list.

Relations are **column-backed** (see :mod:`repro.relational.columns`):
cells live in per-attribute interned ref columns and resident tuples are
:class:`~repro.relational.columns.ColumnTuple` row-views, which keeps the
whole tuple API intact while exposing bulk ref-level accessors
(:meth:`Relation.column`, :meth:`Relation.rows_where`,
:meth:`Relation.group_rows_by`, :meth:`Relation.project_refs`) to the
vectorized kernels.  The column store is the only backing; the original
dict-of-CTuple layout survives only as a test oracle
(:class:`repro.oracle.DictRelation`).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import DataError, SchemaError
from repro.relational.attribute import NULL
from repro.relational.columns import ColumnStore, ColumnTuple, ValueTable
from repro.relational.schema import Schema
from repro.relational.tuples import CTuple


class Relation:
    """An instance of a :class:`~repro.relational.schema.Schema`.

    Parameters
    ----------
    schema:
        Relation schema.
    tuples:
        Optional initial tuples; tids are (re-)assigned on insertion when
        absent or conflicting.

    Notes
    -----
    Tuples are stored in insertion order, addressable by tid in O(1).
    """

    __slots__ = (
        "schema",
        "_tuples",
        "_next_tid",
        "_retired",
        "_observers",
        "_insert_observers",
        "_delete_observers",
        "_columns",
    )

    def __init__(self, schema: Schema, tuples: Iterable[CTuple] = ()):
        self.schema = schema
        self._tuples: Dict[int, CTuple] = {}
        self._next_tid = 0
        self._retired: Set[int] = set()
        self._observers: List[Callable[[CTuple, str, Any, Any], None]] = []
        self._insert_observers: List[Callable[[CTuple], None]] = []
        self._delete_observers: List[Callable[[CTuple], None]] = []
        self._columns = ColumnStore(schema)
        for t in tuples:
            self.add(t)

    @property
    def column_store(self) -> ColumnStore:
        """The columnar backing store."""
        return self._columns

    @property
    def value_table(self) -> ValueTable:
        """The interning table cells reference."""
        return self._columns.table

    # ------------------------------------------------------------------
    # Pickling (process-pool sharding ships relations across workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Pickle tuples and tid bookkeeping; observers are process-local
        callables (often closures over index state) and are dropped, the
        same way :meth:`clone` starts with a clean observer list.

        Rows pickle as detached plain tuples (refs are process-local),
        which keeps the state shape — and the wire/snapshot formats built
        on it — independent of the resident layout.
        """
        return {
            "schema": self.schema,
            "tuples": [t.clone() for t in self._tuples.values()],
            "next_tid": self._next_tid,
            "retired": sorted(self._retired),
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.schema = state["schema"]
        self._observers = []
        self._insert_observers = []
        self._delete_observers = []
        self._tuples = {}
        self._columns = store = ColumnStore(self.schema)
        names = self.schema.names
        for t in state["tuples"]:
            values = t._values
            conf = t._conf
            row = store.append_values(
                t.tid, [values[n] for n in names], [conf[n] for n in names]
            )
            self._tuples[t.tid] = ColumnTuple.make(store, row, t.tid)
        self._next_tid = state["next_tid"]
        self._retired = set(state["retired"])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(
        cls,
        schema: Schema,
        rows: Iterable[Mapping[str, Any]],
        confidences: Optional[Iterable[Mapping[str, Optional[float]]]] = None,
    ) -> "Relation":
        """Build a relation from dict rows (and optional confidence dicts)."""
        relation = cls(schema)
        if confidences is None:
            for row in rows:
                relation.add_row(row)
        else:
            conf_list = list(confidences)
            row_list = list(rows)
            if len(conf_list) != len(row_list):
                raise DataError("rows and confidences must have equal length")
            for row, conf in zip(row_list, conf_list):
                relation.add_row(row, conf)
        return relation

    def _absorb(self, t: CTuple) -> CTuple:
        """Make *t* resident: copy its cells into the column store (by ref
        when *t* is already a row-view over the same value table) and
        return a fresh row-view carrying ``t.tid``."""
        store = self._columns
        if isinstance(t, ColumnTuple):
            row = store.adopt_row(t.tid, t._store, t._row)
        else:
            names = self.schema.names
            values = t._values
            conf = t._conf
            row = store.append_values(
                t.tid, [values[n] for n in names], [conf[n] for n in names]
            )
        return ColumnTuple.make(store, row, t.tid)

    def _install(self, t: CTuple) -> CTuple:
        """Install *t* as the resident tuple for its (already-assigned)
        tid without firing observers or touching tid bookkeeping — the
        shard-merge primitive (:mod:`repro.pipeline.sharding` swaps
        repaired tuples into ``working`` wholesale).  Any current
        resident for the tid is replaced; the replacement gets a fresh
        row, so shared-store views of the old row are unaffected.
        """
        resident = self._absorb(t)
        self._tuples[resident.tid] = resident
        return resident

    def add(self, t: CTuple) -> CTuple:
        """Insert tuple *t*, assigning a fresh tid when needed.

        A fresh tid is assigned when ``t.tid`` is ``None``, collides with
        a live tuple, or names a tid that was previously :meth:`remove`\\ d
        — removed tids are *never* reused, so session state keyed by a
        dead tid (per-cell cost maps, fix-log entries) can never alias a
        later insert.  Explicit tids that were never assigned (gaps below
        ``_next_tid``) are honoured.

        Returns the resident tuple, a row-view over the column store (the
        input handle's ``tid`` is updated, but only the returned tuple
        addresses the resident row).
        """
        if t.schema != self.schema:
            raise DataError(
                f"tuple of schema {t.schema.name!r} cannot join relation "
                f"of schema {self.schema.name!r}"
            )
        if t.tid is None or t.tid in self._tuples or t.tid in self._retired:
            t.tid = self._next_tid
        resident = self._absorb(t)
        self._tuples[resident.tid] = resident
        self._next_tid = max(self._next_tid, resident.tid) + 1
        for observer in self._insert_observers:
            observer(resident)
        return resident

    def add_row(
        self,
        values: Mapping[str, Any],
        confidences: Optional[Mapping[str, Optional[float]]] = None,
    ) -> CTuple:
        """Convenience: build and insert a tuple from dicts, written
        straight into the columns (same validation and errors as
        :class:`CTuple`)."""
        schema = self.schema
        for extra in values:
            if extra not in schema:
                raise SchemaError(
                    f"value for unknown attribute {extra!r} of schema {schema.name!r}"
                )
        row_values = [values.get(name, NULL) for name in schema.names]
        if confidences:
            for name, conf in confidences.items():
                if name not in schema:
                    raise SchemaError(
                        f"confidence for unknown attribute {name!r} "
                        f"of schema {schema.name!r}"
                    )
                CTuple._check_conf(conf)
            row_confs = [confidences.get(name) for name in schema.names]
        else:
            row_confs = [None] * len(schema.names)
        return self.append_row_values(row_values, row_confs)

    def append_row_values(
        self,
        values: Sequence[Any],
        confs: Optional[Sequence[Optional[float]]] = None,
    ) -> CTuple:
        """Fast-path insert of one row given schema-order value (and
        confidence) sequences — the bulk-load primitive behind CSV reads
        and the benchmarks.  Values are trusted (no per-attribute
        validation beyond the length check); the fresh tid is assigned
        as usual and insert observers fire.
        """
        names = self.schema.names
        if len(values) != len(names):
            raise DataError(
                f"expected {len(names)} values for schema "
                f"{self.schema.name!r}, got {len(values)}"
            )
        if confs is None:
            confs = [None] * len(names)
        elif len(confs) != len(names):
            raise DataError(
                f"expected {len(names)} confidences for schema "
                f"{self.schema.name!r}, got {len(confs)}"
            )
        tid = self._next_tid
        store = self._columns
        row = store.append_values(tid, values, confs)
        resident = ColumnTuple.make(store, row, tid)
        self._tuples[tid] = resident
        self._next_tid = tid + 1
        for observer in self._insert_observers:
            observer(resident)
        return resident

    def remove(self, tid: int) -> CTuple:
        """Delete the tuple with identifier *tid*, notifying observers.

        Tids are never reused: ``_next_tid`` stays monotonic *and* the
        removed tid is retired, so a later :meth:`add` — even one passing
        the same tid explicitly — cannot alias the dead tuple (it gets a
        fresh tid instead).  Returns the removed tuple (its values stay
        intact, which delete observers rely on to locate the tuple in
        their structures).
        """
        try:
            t = self._tuples.pop(tid)
        except KeyError:
            raise DataError(f"relation {self.schema.name!r} has no tuple #{tid}") from None
        self._retired.add(tid)
        store = self._columns
        if not store.shared:
            # Tombstone the row, then re-home the popped view onto a
            # private single-row store: a later compaction rewrites this
            # relation's columns in place, so a handle still reading the
            # parent store would silently pick up another tuple's cells.
            # Shared stores (zero-copy restrict views) are left alone:
            # killing the row would tombstone it for the other owner too,
            # which only *reads* the restriction — removing from a view
            # must never mutate the parent's columns.
            store.kill(tid)
            t = self._detach_view(t)
            if store.should_compact():
                self._compact_columns()
        for observer in self._delete_observers:
            observer(t)
        return t

    def _detach_view(self, t: CTuple) -> CTuple:
        """Re-home a popped row-view onto a private single-row store so
        its cells survive compaction of this relation's columns."""
        solo = ColumnStore(self.schema, t._store.table)
        t._row = solo.adopt_row(t.tid, t._store, t._row)
        t._store = solo
        return t

    def _compact_columns(self) -> None:
        """Compact the backing store and re-point resident row-views."""
        remap = self._columns.compact()
        for t in self._tuples.values():
            t._row = remap[t._row]

    def compact(self, force: bool = False) -> bool:
        """Reclaim tombstoned rows in the backing columns.

        Returns whether a compaction ran.  No-op for shared stores
        (zero-copy views — neither owner may move the other's rows), and
        — unless *force* — below the auto-trigger thresholds
        (:data:`repro.relational.columns.COMPACT_MIN_ROWS` rows, live
        ratio under :data:`repro.relational.columns.COMPACT_LIVE_RATIO`).
        Tids, values, confidences and iteration order are all unchanged;
        only physical row indexes move, invisibly behind the tuple API.
        """
        store = self._columns
        if store.shared or not (force or store.should_compact()):
            return False
        self._compact_columns()
        return True

    def tid_retired(self, tid: int) -> bool:
        """Whether *tid* belonged to a tuple that was removed (such tids
        are never assigned again)."""
        return tid in self._retired

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def by_tid(self, tid: int) -> CTuple:
        """Return the tuple with identifier *tid*."""
        try:
            return self._tuples[tid]
        except KeyError:
            raise DataError(f"relation {self.schema.name!r} has no tuple #{tid}") from None

    def has_tid(self, tid: int) -> bool:
        """Whether a tuple with identifier *tid* is currently present."""
        return tid in self._tuples

    def tids(self) -> Tuple[int, ...]:
        """All tuple identifiers, in insertion order."""
        return tuple(self._tuples.keys())

    def tuples(self) -> List[CTuple]:
        """All tuples, in insertion order (a fresh list)."""
        return list(self._tuples.values())

    def __iter__(self) -> Iterator[CTuple]:
        return iter(self._tuples.values())

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, t: object) -> bool:
        if isinstance(t, CTuple):
            return t.tid in self._tuples and self._tuples[t.tid] is t
        return False

    # ------------------------------------------------------------------
    # Mutation with change notification
    # ------------------------------------------------------------------
    def add_observer(self, observer: Callable[[CTuple, str, Any, Any], None]) -> None:
        """Register *observer* for cell-change notifications.

        Observers are callables ``(t, attr, old_value, new_value)`` invoked
        *after* the tuple has been mutated by :meth:`set_value`.  They must
        not mutate the relation re-entrantly.
        """
        if observer not in self._observers:
            self._observers.append(observer)

    def remove_observer(self, observer: Callable[[CTuple, str, Any, Any], None]) -> None:
        """Unregister *observer* (a no-op when it was never registered)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def add_insert_observer(self, observer: Callable[[CTuple], None]) -> None:
        """Register *observer* for tuple inserts (called after :meth:`add`)."""
        if observer not in self._insert_observers:
            self._insert_observers.append(observer)

    def remove_insert_observer(self, observer: Callable[[CTuple], None]) -> None:
        """Unregister an insert observer (no-op when never registered)."""
        try:
            self._insert_observers.remove(observer)
        except ValueError:
            pass

    def add_delete_observer(self, observer: Callable[[CTuple], None]) -> None:
        """Register *observer* for tuple deletes (called after :meth:`remove`
        with the removed tuple, whose cell values are still intact)."""
        if observer not in self._delete_observers:
            self._delete_observers.append(observer)

    def remove_delete_observer(self, observer: Callable[[CTuple], None]) -> None:
        """Unregister a delete observer (no-op when never registered)."""
        try:
            self._delete_observers.remove(observer)
        except ValueError:
            pass

    def set_value(self, t: CTuple, attr: str, value: Any) -> bool:
        """Assign ``t[attr] := value`` in place, notifying observers.

        All cell updates made by the cleaning algorithms go through this
        method so that incrementally maintained indexes see every change.
        Returns whether the value actually changed; observers only fire
        on a real change.  Confidence is metadata — set it separately via
        ``t.set_conf`` (indexes never depend on it).
        """
        old = t[attr]
        if old == value:
            return False
        t[attr] = value
        for observer in self._observers:
            observer(t, attr, old, value)
        return True

    # ------------------------------------------------------------------
    # Algebra-flavoured helpers (Fig. 3 of the paper)
    # ------------------------------------------------------------------
    def select(self, predicate: Callable[[CTuple], bool]) -> List[CTuple]:
        """ρ: the tuples satisfying *predicate* (no copy)."""
        return [t for t in self if predicate(t)]

    def _live_rows(self) -> Tuple[List[int], Optional[List[int]]]:
        """``(tids, rows)`` for column scans.

        ``rows is None`` signals the contiguous fast path: the store is
        fully live (no tombstones) and this relation owns every row, so
        column ``.data`` arrays align 1:1 with ``tids`` and can be zipped
        at C speed.  Otherwise ``rows[i]`` is the store row of
        ``tids[i]`` (shared stores, tombstoned rows).  Correctness never
        depends on the dead bitmap — scans are always driven by this
        relation's resident tuples.
        """
        store = self._columns
        tids = list(self._tuples.keys())
        if store.n_dead == 0 and len(store.row_tids) == len(tids):
            return tids, None
        return tids, [t._row for t in self._tuples.values()]

    def _value_columns(self, attrs: Sequence[str]) -> List[Sequence[int]]:
        """The raw ref arrays of *attrs*."""
        store = self._columns
        index_of = store.index_of
        return [store.values[index_of[a]].data for a in attrs]

    def project(self, attrs: Sequence[str]) -> Set[Tuple[Any, ...]]:
        """π: the set of distinct value tuples over *attrs*."""
        self.schema.check_attrs(attrs)
        store = self._columns
        # Dedup on ref tuples (int compares), materialize values once per
        # distinct ref combination.
        values = store.table.values
        cols = self._value_columns(attrs)
        tids, rows = self._live_rows()
        out: Set[Tuple[Any, ...]] = set()
        seen: Set[Tuple[int, ...]] = set()
        if rows is None:
            for refs in zip(*cols):
                if refs not in seen:
                    seen.add(refs)
                    out.add(tuple(values[r] for r in refs))
        else:
            for row in rows:
                refs = tuple(col[row] for col in cols)
                if refs not in seen:
                    seen.add(refs)
                    out.add(tuple(values[r] for r in refs))
        return out

    def group_by(self, attrs: Sequence[str]) -> Dict[Tuple[Any, ...], List[CTuple]]:
        """Partition tuples by their values on *attrs*.

        This materializes the paper's ``Δ(ȳ) = {t | t ∈ D, t[Y] = ȳ}``
        for every ``ȳ`` at once.
        """
        self.schema.check_attrs(attrs)
        store = self._columns
        groups: Dict[Tuple[Any, ...], List[CTuple]] = {}
        values = store.table.values
        cols = self._value_columns(attrs)
        residents = list(self._tuples.values())
        tids, rows = self._live_rows()
        # Ref-tuple -> member list of its (==)-keyed group, so the value
        # tuple is materialized once per distinct ref combination while
        # group identity keeps dict (==) semantics.
        by_refs: Dict[Tuple[int, ...], List[CTuple]] = {}
        if rows is None:
            packed = zip(residents, *cols)
        else:
            packed = (
                (t, *(col[row] for col in cols))
                for t, row in zip(residents, rows)
            )
        for item in packed:
            t = item[0]
            refs = item[1:]
            members = by_refs.get(refs)
            if members is None:
                key = tuple(values[r] for r in refs)
                members = by_refs[refs] = groups.setdefault(key, [])
            members.append(t)
        return groups

    def active_domain(self, attr: str) -> Set[Any]:
        """``adom(attr)``: the set of values of *attr* occurring in the data."""
        self.schema.check_attrs([attr])
        store = self._columns
        values = store.table.values
        data = store.values[store.index_of[attr]].data
        tids, rows = self._live_rows()
        out: Set[Any] = set()
        seen: Set[int] = set()
        if rows is None:
            for ref in data:
                if ref not in seen:
                    seen.add(ref)
                    out.add(values[ref])
        else:
            for row in rows:
                ref = data[row]
                if ref not in seen:
                    seen.add(ref)
                    out.add(values[ref])
        return out

    # ------------------------------------------------------------------
    # Bulk ref-level accessors
    # ------------------------------------------------------------------
    def column(self, attr: str) -> List[int]:
        """The interned value refs of *attr*, aligned with :meth:`tids`."""
        self.schema.check_attrs([attr])
        store = self._columns
        data = store.values[store.index_of[attr]].data
        tids, rows = self._live_rows()
        if rows is None:
            return list(data)
        return [data[row] for row in rows]

    def project_refs(self, attrs: Sequence[str]) -> List[Tuple[int, ...]]:
        """Ref tuples over *attrs*, aligned with :meth:`tids`."""
        self.schema.check_attrs(attrs)
        cols = self._value_columns(attrs)
        tids, rows = self._live_rows()
        if rows is None:
            return list(zip(*cols)) if cols else [() for _ in tids]
        return [tuple(col[row] for col in cols) for row in rows]

    def rows_where(self, attr: str, value: Any) -> List[CTuple]:
        """The resident tuples with ``t[attr] == value`` (insertion order).

        *value* resolves to its canonical ref (without interning it) and
        one int column is scanned; equality semantics are identical to
        the per-tuple ``==`` scan.
        """
        self.schema.check_attrs([attr])
        store = self._columns
        table = store.table
        try:
            wanted = table.find_canon(value)
        except TypeError:  # unhashable probe: no ref shortcut possible
            return [t for t in self if t[attr] == value]
        if wanted is None:
            return []
        canon = table.canon
        data = store.values[store.index_of[attr]].data
        residents = list(self._tuples.values())
        tids, rows = self._live_rows()
        if rows is None:
            return [
                t for t, ref in zip(residents, data) if canon[ref] == wanted
            ]
        return [
            t for t, row in zip(residents, rows) if canon[data[row]] == wanted
        ]

    def group_rows_by(self, attrs: Sequence[str]) -> Dict[Tuple[Any, ...], List[int]]:
        """Member tids per distinct value tuple over *attrs* (both in
        first-encounter order) — :meth:`group_by` at the tid level."""
        self.schema.check_attrs(attrs)
        store = self._columns
        groups: Dict[Tuple[Any, ...], List[int]] = {}
        values = store.table.values
        cols = self._value_columns(attrs)
        tids, rows = self._live_rows()
        by_refs: Dict[Tuple[int, ...], List[int]] = {}
        if rows is None:
            packed = zip(tids, *cols)
        else:
            packed = (
                (tid, *(col[row] for col in cols))
                for tid, row in zip(tids, rows)
            )
        for item in packed:
            tid = item[0]
            refs = item[1:]
            members = by_refs.get(refs)
            if members is None:
                key = tuple(values[r] for r in refs)
                members = by_refs[refs] = groups.setdefault(key, [])
            members.append(tid)
        return groups

    def value_refs(
        self, attr: str, tids: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Interned value refs of *attr* — aligned with :meth:`tids` when
        *tids* is ``None``, else with the given tid sequence.

        Explicit tids resolve rows through the resident tuples (not the
        store's ``row_of`` map), so shared-store views and post-install
        duplicates can never leak a stale row.
        """
        self.schema.check_attrs([attr])
        store = self._columns
        data = store.values[store.index_of[attr]].data
        if tids is None:
            _, rows = self._live_rows()
            if rows is None:
                return list(data)
            return [data[row] for row in rows]
        tuples = self._tuples
        return [data[tuples[tid]._row] for tid in tids]

    def conf_refs(
        self, attr: str, tids: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Interned confidence refs of *attr* (same alignment contract
        as :meth:`value_refs`)."""
        self.schema.check_attrs([attr])
        store = self._columns
        data = store.confs[store.index_of[attr]].data
        if tids is None:
            _, rows = self._live_rows()
            if rows is None:
                return list(data)
            return [data[row] for row in rows]
        tuples = self._tuples
        return [data[tuples[tid]._row] for tid in tids]

    def canon_refs(
        self, attr: str, tids: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Canonical value refs of *attr* — canon equality *is* ``==``
        value equality (invariant 19), so two cells compare equal exactly
        when their canon refs are the same int."""
        store = self._columns
        canon = store.table.canon
        return [canon[r] for r in self.value_refs(attr, tids)]

    # ------------------------------------------------------------------
    # Copying / comparison
    # ------------------------------------------------------------------
    def clone(self) -> "Relation":
        """A deep copy sharing the schema but owning fresh tuples.

        Tids are preserved so fixes can be traced back to original tuples.
        """
        twin = Relation(self.schema)
        # Compact rebuild: copy refs row by row (values are shared through
        # the process-wide table, never re-interned) and hand each tid a
        # fresh row-view.
        source = self._columns
        store = twin._columns
        make = ColumnTuple.make
        for tid, t in self._tuples.items():
            row = store.adopt_row(tid, source, t._row)
            twin._tuples[tid] = make(store, row, tid)
        twin._next_tid = self._next_tid
        twin._retired = set(self._retired)
        return twin

    def restrict(self, tids: Iterable[int], copy: bool = True) -> "Relation":
        """A clone containing only the tuples named by *tids*.

        Tids, tid bookkeeping (``_next_tid``, retired tids) and relative
        insertion order are preserved, so cleaning a restriction produces
        fixes addressed exactly like a clean of the full relation — the
        shard construction primitive of
        :mod:`repro.pipeline.sharding`.  Unknown tids raise
        :class:`~repro.exceptions.DataError`.

        ``copy=False`` shares the tuple objects instead of cloning them —
        a zero-copy *view* for consumers that only read the restriction
        (or clone it themselves, as ``CleaningSession.clean`` does):
        mutating a shared tuple mutates both relations.  The backing
        columns are shared too — the twin holds the same store and the
        same row-views, no refs are copied.
        """
        wanted = set(tids)
        missing = wanted - self._tuples.keys()
        if missing:
            raise DataError(
                f"relation {self.schema.name!r} has no tuple "
                f"#{min(missing)} to restrict to"
            )
        twin = Relation(self.schema)
        if copy:
            source = self._columns
            store = twin._columns = ColumnStore(self.schema, source.table)
            make = ColumnTuple.make
            for tid, t in self._tuples.items():
                if tid in wanted:
                    row = store.adopt_row(tid, source, t._row)
                    twin._tuples[tid] = make(store, row, tid)
        else:
            twin._columns = self._columns  # shared columns, shared views
            # Mark the store shared: from now on neither owner may
            # tombstone or compact rows the other might still hold.
            self._columns.shared = True
            for tid, t in self._tuples.items():
                if tid in wanted:
                    twin._tuples[tid] = t
        twin._next_tid = self._next_tid
        twin._retired = set(self._retired)
        return twin

    def diff(self, other: "Relation") -> List[Tuple[int, str, Any, Any]]:
        """Cell-level difference against *other* (matched by tid).

        Returns a list of ``(tid, attr, self_value, other_value)`` entries
        for cells where the two relations disagree.  Tuples present in only
        one relation are ignored (cleaning never inserts or deletes rows).
        """
        if self.schema != other.schema:
            raise DataError("cannot diff relations with different schemas")
        out: List[Tuple[int, str, Any, Any]] = []
        for tid, mine in self._tuples.items():
            if tid not in other._tuples:
                continue
            theirs = other._tuples[tid]
            for attr in self.schema.names:
                if mine[attr] != theirs[attr]:
                    out.append((tid, attr, mine[attr], theirs[attr]))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.schema.name!r}, {len(self)} tuples)"

    # ------------------------------------------------------------------
    # Pretty-printing (used by examples)
    # ------------------------------------------------------------------
    def to_text(self, attrs: Optional[Sequence[str]] = None, limit: int = 20) -> str:
        """Render the relation as an aligned text table (first *limit* rows)."""
        names = list(attrs) if attrs is not None else list(self.schema.names)
        rows = [[str(t[a]) for a in names] for t in list(self)[:limit]]
        header = list(names)
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(names))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        if len(self) > limit:
            lines.append(f"... ({len(self) - limit} more rows)")
        return "\n".join(lines)
