"""Columnar resident backing store for :class:`~repro.relational.relation.Relation`.

PR 4 proved a value-dictionary + typed-column encoding of relational
state on the *wire* (:mod:`repro.pipeline.payload`); this module promotes
it to the **resident** format, in the spirit of FDB-style factorised /
dictionary-encoded representations: every scalar a relation holds lives
once in a process-wide interning :class:`ValueTable`, and each attribute
is a typed column of small integer references (the narrowest
:class:`array.array` width that fits, widened on demand).  Cell reads,
premise matching and partition maintenance then work on integers instead
of hashing strings through per-tuple ``dict.__getitem__`` — the single
biggest per-row constant of every repair phase.

Layout of one :class:`ColumnStore` (one per columnar relation)::

    table        process-wide ValueTable: ref -> value, with a parallel
                 ``canon`` array mapping every ref to the first ref whose
                 value compares ``==`` (so canon-ref equality IS value
                 equality, across types: ``0 == 0.0`` share a canon ref)
    values[i]    IntColumn of value refs for attribute i (schema order)
    confs[i]     IntColumn of confidence refs for attribute i
    nulls[i]     Bitmap: row has NULL in attribute i
    dead         Bitmap: row was tombstoned by ``Relation.remove``
    row_tids     row -> tid (dead rows hold ``-1 - tid``)
    row_of       tid -> row; **survives** ``remove()`` — retired tids keep
                 resolving to their tombstoned row so delete observers can
                 still read the removed tuple's values

Rows are append-only; ``remove()`` tombstones (no compaction), which is
what keeps the delete-observer contract — values stay readable after
removal — and the tid→row map stable.  ``clone()``/``restrict(copy=True)``
rebuild compactly by copying refs, never re-interning values.

:class:`ColumnTuple` is a thin row-view subclassing
:class:`~repro.relational.tuples.CTuple`, so the entire existing API —
observer hooks, ``project``, confidence access, pickling — stays
source-compatible.  Its ``_values``/``_conf`` dict attributes become
properties that materialize on demand *and* bump a module counter, which
the CI regression test uses to assert the vectorized check paths perform
zero per-tuple dict materializations.

The store is the only resident format: every :class:`Relation` is
column-backed, and the vectorized check, group-store and repair kernels
are the only production engines.  Their per-tuple predecessors live on
as test oracles in :mod:`repro.oracle`, which the property tests swap in
to check that every kernel is byte-identical to its reference loop.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

try:  # numpy accelerates the repair kernels; every caller falls back to
    # pure python when it is absent, so the import is best-effort.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the image
    _np = None

from repro.exceptions import SchemaError
from repro.relational.attribute import NULL
from repro.relational.schema import Schema
from repro.relational.tuples import CTuple

__all__ = [
    "Bitmap",
    "ColumnStore",
    "ColumnTuple",
    "IntColumn",
    "ValueTable",
    "GLOBAL_TABLE",
    "materializations",
    "numpy_or_none",
]


#: Counter of on-demand ``_values``/``_conf`` dict materializations by
#: row-views — the hot paths must never trigger one (CI regression test).
_MATERIALIZATIONS: int = 0


def numpy_or_none() -> Any:
    """The ``numpy`` module when importable, else ``None`` — repair
    kernels branch on this and keep a pure-python fallback.  Note that
    numpy views over :class:`IntColumn` buffers (``np.frombuffer``) go
    stale when the column widens, so callers must build views fresh at
    each use site, never cache them across mutations."""
    return _np


def materializations() -> int:
    """How many row-view dict materializations happened so far."""
    return _MATERIALIZATIONS


def _count_materialization() -> None:
    global _MATERIALIZATIONS
    _MATERIALIZATIONS += 1


# ----------------------------------------------------------------------
# Value interning
# ----------------------------------------------------------------------
class ValueTable:
    """A process-wide scalar dictionary: value → small integer reference.

    Generalizes :class:`repro.pipeline.payload.ValueTable` (same
    ``(type, value)`` dedup keeping ``0``/``0.0``/``False`` distinct)
    with a **canonical-reference** map: ``canon[ref]`` is the first ref
    whose value compares ``==`` to ``values[ref]`` under plain Python
    equality (dict/set semantics).  Canon-ref equality is therefore
    exactly value equality — the property every vectorized check relies
    on to replace ``t[A] == t2[A]`` with one int comparison.

    ``NULL`` is interned at construction, so ``null_canon`` is a stable
    constant (ref 0) for null tests on refs.
    """

    __slots__ = ("values", "_index", "canon", "_canon_index", "null_ref", "null_canon")

    def __init__(self) -> None:
        self.values: List[Any] = []
        self._index: Dict[Tuple[type, Any], int] = {}
        #: ref -> canonical ref of its ``==`` equality class.
        self.canon: List[int] = []
        self._canon_index: Dict[Any, int] = {}
        self.null_ref = self.ref(NULL)
        self.null_canon = self.canon[self.null_ref]

    def __len__(self) -> int:
        return len(self.values)

    def ref(self, value: Any) -> int:
        """Intern *value*, returning its table reference."""
        try:
            key = (value.__class__, value)
            index = self._index.get(key)
            if index is None:
                index = self._index[key] = len(self.values)
                self.values.append(value)
                self.canon.append(self._canon_index.setdefault(value, index))
            return index
        except TypeError:  # unhashable: store without dedup, own canon class
            index = len(self.values)
            self.values.append(value)
            self.canon.append(index)
            return index

    def canon_ref(self, value: Any) -> int:
        """The canonical reference of *value*'s ``==`` equality class."""
        return self.canon[self.ref(value)]

    def find_canon(self, value: Any) -> Optional[int]:
        """The canonical reference of *value* **without interning it**, or
        ``None`` when no interned value compares ``==`` to it — the probe
        predicates use so lookups never grow the table.  Unhashable probes
        raise ``TypeError`` (callers fall back to a ``==`` scan)."""
        return self._canon_index.get(value)

    def intern_tuple(self, values: Sequence[Any]) -> Tuple[Any, ...]:
        """Intern every scalar of *values* and return them as a tuple of
        the canonical *value objects* (table-resident instances) — the
        shared tuple-key interning group stores use so equal keys across
        stores are identity hits."""
        table_values = self.values
        return tuple(table_values[self.ref(v)] for v in values)

    def strings(self, refs: Sequence[int]) -> List[str]:
        """The ``str()`` forms of *refs*, aligned with the input.

        Bulk string-column access for similarity-index builds: the
        conversion runs once per *distinct* ref (string values pass
        through untouched), so a million-row column with a few thousand
        distinct values costs a few thousand ``str()`` calls."""
        values = self.values
        memo: Dict[int, str] = {}
        out: List[str] = []
        for ref in refs:
            s = memo.get(ref)
            if s is None:
                value = values[ref]
                s = memo[ref] = value if isinstance(value, str) else str(value)
            out.append(s)
        return out


#: The process-wide resident dictionary every columnar relation shares.
GLOBAL_TABLE = ValueTable()


# ----------------------------------------------------------------------
# Typed columns and bitmaps
# ----------------------------------------------------------------------
_WIDER = {"B": "H", "H": "I", "I": "Q"}
_LIMIT = {"B": 1 << 8, "H": 1 << 16, "I": 1 << 32, "Q": None}


class IntColumn:
    """An :class:`array.array` of non-negative ints at the narrowest
    width that fits, widened transparently when a larger ref arrives
    (the resident counterpart of :func:`repro.pipeline.payload.pack_ints`,
    which packs a *finished* sequence)."""

    __slots__ = ("data", "_limit")

    def __init__(self, data: Optional[array] = None):
        self.data = array("B") if data is None else data
        self._limit = _LIMIT[self.data.typecode]

    def _widen(self, value: int) -> None:
        code = self.data.typecode
        while _LIMIT[code] is not None and value >= _LIMIT[code]:
            code = _WIDER[code]
        self.data = array(code, self.data)
        self._limit = _LIMIT[code]

    def append(self, value: int) -> None:
        if self._limit is not None and value >= self._limit:
            self._widen(value)
        self.data.append(value)

    def __getitem__(self, row: int) -> int:
        return self.data[row]

    def __setitem__(self, row: int, value: int) -> None:
        if self._limit is not None and value >= self._limit:
            self._widen(value)
        self.data[row] = value

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[int]:
        return iter(self.data)

    def copy(self) -> "IntColumn":
        return IntColumn(array(self.data.typecode, self.data))

    @property
    def typecode(self) -> str:
        return self.data.typecode

    def nbytes(self) -> int:
        return len(self.data) * self.data.itemsize


class Bitmap:
    """A growable bit vector (null flags per attribute, tombstoned rows)."""

    __slots__ = ("bits", "n")

    def __init__(self, bits: Optional[bytearray] = None, n: int = 0):
        self.bits = bytearray() if bits is None else bits
        self.n = n

    def append(self, flag: bool) -> None:
        byte, bit = divmod(self.n, 8)
        if byte >= len(self.bits):
            self.bits.append(0)
        if flag:
            self.bits[byte] |= 1 << bit
        self.n += 1

    def get(self, index: int) -> bool:
        byte, bit = divmod(index, 8)
        return bool((self.bits[byte] >> bit) & 1)

    def set(self, index: int, flag: bool) -> None:
        byte, bit = divmod(index, 8)
        if flag:
            self.bits[byte] |= 1 << bit
        else:
            self.bits[byte] &= ~(1 << bit)

    def __len__(self) -> int:
        return self.n

    def count(self) -> int:
        return sum(bin(byte).count("1") for byte in self.bits)

    def copy(self) -> "Bitmap":
        return Bitmap(bytearray(self.bits), self.n)


# ----------------------------------------------------------------------
# The per-relation store
# ----------------------------------------------------------------------
#: Compaction auto-trigger thresholds: stores smaller than the row floor
#: never compact (tiny scans gain nothing and tests rely on tombstones
#: staying inspectable), larger ones compact once live rows drop below
#: the ratio of total rows.
COMPACT_MIN_ROWS = 64
COMPACT_LIVE_RATIO = 0.5


class ColumnStore:
    """Typed ref columns + bookkeeping for one columnar relation."""

    __slots__ = (
        "schema", "table", "index_of", "values", "confs", "nulls",
        "dead", "row_tids", "row_of", "n_dead", "shared",
    )

    def __init__(self, schema: Schema, table: Optional[ValueTable] = None):
        self.schema = schema
        self.table = GLOBAL_TABLE if table is None else table
        self.index_of: Dict[str, int] = {
            name: i for i, name in enumerate(schema.names)
        }
        self.values: List[IntColumn] = [IntColumn() for _ in schema.names]
        self.confs: List[IntColumn] = [IntColumn() for _ in schema.names]
        self.nulls: List[Bitmap] = [Bitmap() for _ in schema.names]
        self.dead = Bitmap()
        #: row -> tid; tombstoned rows hold ``-1 - tid`` so C-speed zips
        #: over live data can skip them with one sign test.
        self.row_tids: List[int] = []
        #: tid -> row; retired tids keep their entry (rows are never
        #: reused, so a dead tid can never alias a later insert's row).
        self.row_of: Dict[int, int] = {}
        self.n_dead = 0
        #: ``True`` once a zero-copy view shares these columns
        #: (``Relation.restrict(copy=False)``).  Shared stores are never
        #: tombstoned or compacted by any one owner: neither owner can
        #: know which rows the other still considers live.
        self.shared = False

    # -- rows ----------------------------------------------------------
    def append_refs(
        self, tid: int, vrefs: Sequence[int], crefs: Sequence[int]
    ) -> int:
        """Append a row of already-interned refs; returns the row index."""
        row = len(self.row_tids)
        canon = self.table.canon
        null_c = self.table.null_canon
        for col, bitmap, ref in zip(self.values, self.nulls, vrefs):
            col.append(ref)
            bitmap.append(canon[ref] == null_c)
        for col, ref in zip(self.confs, crefs):
            col.append(ref)
        self.dead.append(False)
        self.row_tids.append(tid)
        self.row_of[tid] = row
        return row

    def append_values(
        self, tid: int, values: Sequence[Any], confs: Sequence[Any]
    ) -> int:
        """Intern and append one row (schema attribute order)."""
        ref = self.table.ref
        return self.append_refs(
            tid, [ref(v) for v in values], [ref(c) for c in confs]
        )

    def adopt_row(self, tid: int, source: "ColumnStore", row: int) -> int:
        """Append a copy of *source*'s row — by ref when the tables are
        shared (the normal case: one process-wide table), re-interned
        otherwise."""
        vrefs = [col.data[row] for col in source.values]
        crefs = [col.data[row] for col in source.confs]
        if source.table is not self.table:
            values = source.table.values
            ref = self.table.ref
            vrefs = [ref(values[r]) for r in vrefs]
            crefs = [ref(values[r]) for r in crefs]
        return self.append_refs(tid, vrefs, crefs)

    def kill(self, tid: int) -> None:
        """Tombstone *tid*'s row: values stay readable (delete observers
        re-read them), but bulk scans skip the row from now on."""
        row = self.row_of[tid]
        if self.row_tids[row] >= 0:
            self.row_tids[row] = -1 - tid
            self.dead.set(row, True)
            self.n_dead += 1

    # -- compaction ----------------------------------------------------
    def should_compact(self) -> bool:
        """Whether a delete-heavy store is worth compacting: not shared,
        at least :data:`COMPACT_MIN_ROWS` physical rows, and live rows
        below :data:`COMPACT_LIVE_RATIO` of the total."""
        n = len(self.row_tids)
        return (
            not self.shared
            and n >= COMPACT_MIN_ROWS
            and (n - self.n_dead) < n * COMPACT_LIVE_RATIO
        )

    def compact(self) -> Dict[int, int]:
        """Drop tombstoned rows and rebuild the columns densely.

        Keeps exactly the rows that are both live (``tid >= 0``) and
        *current* (``row_of[tid] == row`` — a re-install of the same tid
        leaves an earlier live-looking duplicate row behind; compaction
        is where those finally get reclaimed).  Tids are stable: every
        surviving tid maps to the same value/conf cells afterwards, only
        its physical row index changes.  Returns the old-row → new-row
        remap so the owning relation can re-point resident row-views.
        Retired tids lose their ``row_of`` entry — their cells are gone.
        """
        if self.shared:
            raise ValueError("cannot compact a shared column store")
        keep = [
            row
            for row, tid in enumerate(self.row_tids)
            if tid >= 0 and self.row_of.get(tid) == row
        ]
        remap = {row: new for new, row in enumerate(keep)}
        for cols in (self.values, self.confs):
            for i, col in enumerate(cols):
                data = col.data
                cols[i] = IntColumn(
                    array(data.typecode, (data[row] for row in keep))
                )
        new_nulls = []
        for bitmap in self.nulls:
            fresh = Bitmap()
            for row in keep:
                fresh.append(bitmap.get(row))
            new_nulls.append(fresh)
        self.nulls = new_nulls
        dead = Bitmap()
        for _ in keep:
            dead.append(False)
        self.dead = dead
        self.row_tids = [self.row_tids[row] for row in keep]
        self.row_of = {tid: row for row, tid in enumerate(self.row_tids)}
        self.n_dead = 0
        return remap

    # -- cells ---------------------------------------------------------
    def value_at(self, row: int, index: int) -> Any:
        return self.table.values[self.values[index].data[row]]

    def set_value_at(self, row: int, index: int, value: Any) -> None:
        ref = self.table.ref(value)
        self.values[index][row] = ref
        self.nulls[index].set(row, self.table.canon[ref] == self.table.null_canon)

    def conf_at(self, row: int, index: int) -> Optional[float]:
        return self.table.values[self.confs[index].data[row]]

    def set_conf_at(self, row: int, index: int, conf: Optional[float]) -> None:
        self.confs[index][row] = self.table.ref(conf)

    # -- introspection -------------------------------------------------
    def live_rows(self) -> int:
        return len(self.row_tids) - self.n_dead

    def nbytes(self) -> int:
        """Resident column bytes (refs + bitmaps; the shared dictionary
        is process-wide and excluded)."""
        total = sum(c.nbytes() for c in self.values)
        total += sum(c.nbytes() for c in self.confs)
        total += sum(len(b.bits) for b in self.nulls)
        total += len(self.dead.bits)
        return total


# ----------------------------------------------------------------------
# The row-view tuple
# ----------------------------------------------------------------------
def _rebuild_detached(
    schema: Schema,
    values: Dict[str, Any],
    confs: Dict[str, Optional[float]],
    tid: Optional[int],
) -> CTuple:
    """Pickle helper: a row-view unpickles as a detached plain CTuple."""
    t = CTuple.__new__(CTuple)
    t.schema = schema
    t.tid = tid
    t._values = values
    t._conf = confs
    return t


class ColumnTuple(CTuple):
    """A :class:`CTuple` whose cells live in a :class:`ColumnStore` row.

    Source-compatible with the dict-backed parent: every accessor reads
    or writes the backing columns, and the legacy ``_values``/``_conf``
    attributes are materialize-on-demand properties (counted, so the
    vectorized hot paths can be asserted dict-free).  Standalone clones
    and pickles detach into plain dict-backed tuples.
    """

    __slots__ = ("_store", "_row")

    def __init__(self, *args: Any, **kwargs: Any):  # pragma: no cover - guard
        raise TypeError(
            "ColumnTuple rows are created by their Relation; "
            "use Relation.add / add_row"
        )

    @staticmethod
    def make(store: ColumnStore, row: int, tid: int) -> "ColumnTuple":
        view = object.__new__(ColumnTuple)
        view.schema = store.schema
        view.tid = tid
        view._store = store
        view._row = row
        return view

    # -- legacy dict attributes (materialize + count) ------------------
    @property
    def _values(self) -> Dict[str, Any]:  # type: ignore[override]
        _count_materialization()
        store = self._store
        row = self._row
        values = store.table.values
        return {
            name: values[col.data[row]]
            for name, col in zip(store.schema.names, store.values)
        }

    @property
    def _conf(self) -> Dict[str, Optional[float]]:  # type: ignore[override]
        _count_materialization()
        store = self._store
        row = self._row
        values = store.table.values
        return {
            name: values[col.data[row]]
            for name, col in zip(store.schema.names, store.confs)
        }

    # -- value access --------------------------------------------------
    def __getitem__(self, attr: str) -> Any:
        store = self._store
        try:
            index = store.index_of[attr]
        except KeyError:
            raise SchemaError(
                f"schema {self.schema.name!r} has no attribute {attr!r}"
            ) from None
        return store.table.values[store.values[index].data[self._row]]

    def __setitem__(self, attr: str, value: Any) -> None:
        store = self._store
        try:
            index = store.index_of[attr]
        except KeyError:
            raise SchemaError(
                f"schema {self.schema.name!r} has no attribute {attr!r}"
            ) from None
        store.set_value_at(self._row, index, value)

    def get(self, attr: str, default: Any = None) -> Any:
        store = self._store
        index = store.index_of.get(attr)
        if index is None:
            return default
        return store.table.values[store.values[index].data[self._row]]

    def conf(self, attr: str) -> Optional[float]:
        store = self._store
        try:
            index = store.index_of[attr]
        except KeyError:
            raise SchemaError(
                f"schema {self.schema.name!r} has no attribute {attr!r}"
            ) from None
        return store.table.values[store.confs[index].data[self._row]]

    def set_conf(self, attr: str, conf: Optional[float]) -> None:
        store = self._store
        try:
            index = store.index_of[attr]
        except KeyError:
            raise SchemaError(
                f"schema {self.schema.name!r} has no attribute {attr!r}"
            ) from None
        self._check_conf(conf)
        store.set_conf_at(self._row, index, conf)

    def has_conf_at_least(self, attr: str, threshold: float) -> bool:
        conf = self.conf(attr)
        return conf is not None and conf >= threshold

    # -- projections ---------------------------------------------------
    def project(self, attrs: Sequence[str]) -> Tuple[Any, ...]:
        store = self._store
        row = self._row
        values = store.table.values
        cols = store.values
        try:
            index_of = store.index_of
            return tuple(values[cols[index_of[a]].data[row]] for a in attrs)
        except KeyError as exc:
            raise SchemaError(
                f"schema {self.schema.name!r} has no attribute {exc.args[0]!r}"
            ) from None

    def project_refs(self, attrs: Sequence[str]) -> Tuple[int, ...]:
        """The interned refs of *attrs* for this row (ref-level slice)."""
        store = self._store
        row = self._row
        index_of = store.index_of
        cols = store.values
        return tuple(cols[index_of[a]].data[row] for a in attrs)

    def project_conf(self, attrs: Sequence[str]) -> Tuple[Optional[float], ...]:
        return tuple(self.conf(a) for a in attrs)

    def has_null(self, attrs: Sequence[str]) -> bool:
        store = self._store
        row = self._row
        nulls = store.nulls
        index_of = store.index_of
        return any(nulls[index_of[a]].get(row) for a in attrs)

    # -- conversions / copying ----------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        store = self._store
        row = self._row
        values = store.table.values
        return {
            name: values[col.data[row]]
            for name, col in zip(store.schema.names, store.values)
        }

    def conf_dict(self) -> Dict[str, Optional[float]]:
        store = self._store
        row = self._row
        values = store.table.values
        return {
            name: values[col.data[row]]
            for name, col in zip(store.schema.names, store.confs)
        }

    def clone(self) -> CTuple:
        """A detached, dict-backed deep copy (standalone clones do not
        belong to any column store)."""
        return _rebuild_detached(
            self.schema, self.as_dict(), self.conf_dict(), self.tid
        )

    def __reduce__(self):
        return (
            _rebuild_detached,
            (self.schema, self.as_dict(), self.conf_dict(), self.tid),
        )

    # -- protocols -----------------------------------------------------
    def __iter__(self) -> Iterator[Any]:
        store = self._store
        row = self._row
        values = store.table.values
        return (values[col.data[row]] for col in store.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CTuple):
            return NotImplemented
        if self.schema != other.schema:
            return False
        if isinstance(other, ColumnTuple) and other._store.table is self._store.table:
            canon = self._store.table.canon
            mine = self._store
            theirs = other._store
            my_row = self._row
            their_row = other._row
            for my_col, their_col in zip(mine.values, theirs.values):
                if (
                    canon[my_col.data[my_row]]
                    != canon[their_col.data[their_row]]
                ):
                    return False
            return True
        return all(self[name] == other[name] for name in self.schema.names)

    def __hash__(self) -> int:
        return hash((self.schema.name, tuple(self)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{n}={v!r}" for n, v in zip(self.schema.names, self)
        )
        return f"CTuple(#{self.tid}: {inner})"
