"""Columnar coordinator↔worker payloads for partition-parallel cleaning.

PR 3 shipped whole pickled object graphs across the process boundary:
each ``clean_shard`` pickled a :class:`~repro.relational.relation.Relation`
tuple-by-tuple (one dict of values + one dict of confidences per
``CTuple``), and each outcome pickled lists of :class:`~repro.core.fixes.Fix`
dataclasses, ``{(tid, attr): cost}`` dicts and per-spec group-key sets.
Pickle memoizes by object *identity*, not equality, so the highly
repetitive relational payloads (a handful of distinct city names across
thousands of rows; the same attribute names on every fix) are re-encoded
over and over.

This module replaces those graphs with **typed column arrays over one
per-payload value dictionary**:

* every scalar (cell value, confidence, attribute name, rule name, fix
  source) is interned into a single ``values`` table, deduplicated by
  ``(type, value)`` — the type guard keeps ``0``, ``0.0`` and ``False``
  from aliasing one slot;
* fixed-width data — tids, table references, costs — travels as
  :class:`array.array` columns (the narrowest int width that fits, see
  :func:`pack_ints`; ``d`` for costs), which pickle as raw machine bytes
  instead of per-element opcodes;
* irregular data (scheduling-trace ranks, ever-group-key sets) keeps its
  tuple shape but with scalars replaced by table references.

Encoders take the shared :class:`ValueTable` of the enclosing payload so
every section of one message deduplicates against every other; the
message-level framing (and the choice to skip encoding entirely on the
``n_workers=1`` in-process path) lives in
:mod:`repro.pipeline.sharding`.  Round-trips are exact — property- and
unit-tested in ``tests/pipeline/test_payload.py`` — and the size win
(≥2× vs the PR 3 pickled forms on the PART testbed) is asserted
structurally there and by the ``replan`` scenario of
``benchmarks/perf_report.py``; wall-clock is never asserted.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.fixes import Fix, FixKind
from repro.exceptions import TornFrame
from repro.core.trace import RoundTrace, WorklistTrace
from repro.pipeline.changeset import KEEP, CellEdit, Delete, Insert, Op
from repro.relational.columns import ColumnTuple
from repro.relational.relation import Relation
from repro.relational.schema import Schema

Cell = Tuple[int, str]
Key = Tuple[Any, ...]

_FIX_KINDS: Tuple[FixKind, ...] = tuple(FixKind)
_FIX_KIND_INDEX: Dict[FixKind, int] = {k: i for i, k in enumerate(_FIX_KINDS)}


class ValueTable:
    """A per-payload scalar dictionary: value → small integer reference.

    Values are deduplicated by ``(type, value)`` so numerically equal
    scalars of different types (``0`` / ``0.0`` / ``False``) keep their
    identity through a round-trip.  Unhashable values are appended
    without deduplication (they cannot recur by equality anyway).
    """

    __slots__ = ("values", "_index")

    def __init__(self) -> None:
        self.values: List[Any] = []
        self._index: Dict[Tuple[type, Any], int] = {}

    def ref(self, value: Any) -> int:
        """Intern *value*, returning its table reference."""
        try:
            key = (value.__class__, value)
            index = self._index.get(key)
            if index is None:
                index = self._index[key] = len(self.values)
                self.values.append(value)
            return index
        except TypeError:  # unhashable: store without dedup
            self.values.append(value)
            return len(self.values) - 1

    def refs(self, items: Sequence[Any]) -> array:
        """Intern a sequence, returning the narrowest int array of
        references that fits."""
        ref = self.ref
        return pack_ints([ref(v) for v in items])


def pack_ints(items: Sequence[int]) -> array:
    """The narrowest :class:`array.array` that holds *items* exactly.

    Table references, tids and trace counters are overwhelmingly small
    non-negative ints; a fixed 4/8-byte column wastes most of its width
    (and can even lose to pickle's variable-length ints).  Unsigned
    widths ``B``/``H``/``I``/``Q`` cover the non-negative case, signed
    ``i``/``q`` the rest.  Decoders never care: every width iterates
    back to plain ints.
    """
    items = items if isinstance(items, list) else list(items)
    if not items:
        return array("B")
    lo = min(items)
    hi = max(items)
    if lo >= 0:
        if hi < 1 << 8:
            return array("B", items)
        if hi < 1 << 16:
            return array("H", items)
        if hi < 1 << 32:
            return array("I", items)
        return array("Q", items)
    if -(1 << 31) <= lo and hi < 1 << 31:
        return array("i", items)
    return array("q", items)


def _encode_node(node: Any, table: ValueTable) -> Any:
    """Encode a scalar-or-tuple tree (trace ranks, group keys) by
    replacing scalars with table references, preserving tuple shape.

    Non-negative ``int`` scalars (tids, rule indices, rounds — the bulk
    of trace ranks) already pickle as compactly as a reference would, so
    they stay inline; everything else becomes a reference, sign-tagged
    as ``-(index + 1)`` so the decoder can tell the two apart.
    """
    if isinstance(node, tuple):
        return tuple(_encode_node(item, table) for item in node)
    if type(node) is int and node >= 0:
        return node
    return -(table.ref(node) + 1)


def _decode_node(node: Any, values: List[Any]) -> Any:
    if isinstance(node, tuple):
        return tuple(_decode_node(item, values) for item in node)
    if node >= 0:
        return node
    return values[-node - 1]


# ----------------------------------------------------------------------
# Relations
# ----------------------------------------------------------------------
SchemaLookup = Callable[[str, Tuple[str, ...]], Optional[Schema]]


def encode_relation(relation: Relation, table: ValueTable) -> Dict[str, Any]:
    """One column of value references and one of confidence references
    per attribute, plus tid/bookkeeping arrays — no per-tuple dicts."""
    cols, confs = _encode_cells(relation, table)
    return {
        "schema": (relation.schema.name, tuple(relation.schema.names)),
        "tids": pack_ints(list(relation.tids())),
        "next_tid": relation._next_tid,
        "retired": pack_ints(sorted(relation._retired)),
        "cols": [pack_ints(col) for col in cols],
        "confs": [pack_ints(col) for col in confs],
    }


def _encode_cells(
    relation: Relation, table: ValueTable
) -> Tuple[List[List[int]], List[List[int]]]:
    """The message refs of every value and confidence cell, one list per
    attribute — the ref bridge.

    Resident cells are already interned integers, so encoding is a
    resident-ref → message-ref remap over the column arrays (one
    dictionary hit per *distinct* resident value instead of one per
    cell), never touching a tuple object.  The interning walk follows
    the row-major, value-then-confidence order of the per-tuple encode
    (:func:`repro.oracle.encode_cells`), so the emitted blob — message
    reference numbering included — is byte-identical to it.
    """
    names = relation.schema.names
    store = relation.column_store
    cols: List[List[int]] = [[] for _ in names]
    confs: List[List[int]] = [[] for _ in names]
    ref = table.ref
    resident_values = store.table.values
    vcols = [store.values[store.index_of[a]].data for a in names]
    ccols = [store.confs[store.index_of[a]].data for a in names]
    span = range(len(names))
    remap: Dict[int, int] = {}
    tids, rows = relation._live_rows()
    row_iter = range(len(tids)) if rows is None else rows
    for row in row_iter:
        for index in span:
            r = vcols[index][row]
            m = remap.get(r)
            if m is None:
                m = remap[r] = ref(resident_values[r])
            cols[index].append(m)
            r = ccols[index][row]
            m = remap.get(r)
            if m is None:
                m = remap[r] = ref(resident_values[r])
            confs[index].append(m)
    return cols, confs


def decode_relation(
    blob: Dict[str, Any],
    values: List[Any],
    schema_lookup: Optional[SchemaLookup] = None,
) -> Relation:
    """Rebuild the relation; *schema_lookup* lets the worker reuse the
    schema object its rules/master already carry (same structural
    equality either way — this only avoids duplicate Schema instances).

    Ref bridge: message refs remap straight into the resident table and
    append column rows — no per-tuple dicts are built."""
    name, names = blob["schema"]
    schema = schema_lookup(name, names) if schema_lookup is not None else None
    if schema is None:
        schema = Schema(name, names)
    relation = Relation(schema)
    tuples = relation._tuples
    cols = blob["cols"]
    confs = blob["confs"]
    store = relation.column_store
    resident_ref = store.table.ref
    remap: Dict[int, int] = {}
    make = ColumnTuple.make
    append = store.append_refs
    for row, tid in enumerate(blob["tids"]):
        vrefs: List[int] = []
        for col in cols:
            r = col[row]
            m = remap.get(r)
            if m is None:
                m = remap[r] = resident_ref(values[r])
            vrefs.append(m)
        crefs: List[int] = []
        for col in confs:
            r = col[row]
            m = remap.get(r)
            if m is None:
                m = remap[r] = resident_ref(values[r])
            crefs.append(m)
        tuples[tid] = make(store, append(tid, vrefs, crefs), tid)
    relation._next_tid = blob["next_tid"]
    relation._retired = set(blob["retired"])
    return relation


# ----------------------------------------------------------------------
# Fix segments
# ----------------------------------------------------------------------
def encode_fixes(fixes: Sequence[Fix], table: ValueTable) -> Dict[str, Any]:
    """Nine parallel columns instead of one dataclass per fix."""
    return {
        "kind": array("b", [_FIX_KIND_INDEX[f.kind] for f in fixes]),
        "rule": table.refs([f.rule_name for f in fixes]),
        "tid": pack_ints([f.tid for f in fixes]),
        "attr": table.refs([f.attr for f in fixes]),
        "old": table.refs([f.old_value for f in fixes]),
        "new": table.refs([f.new_value for f in fixes]),
        "old_conf": table.refs([f.old_conf for f in fixes]),
        "new_conf": table.refs([f.new_conf for f in fixes]),
        "source": table.refs([f.source for f in fixes]),
    }


def decode_fixes(blob: Dict[str, Any], values: List[Any]) -> List[Fix]:
    return [
        Fix(
            kind=_FIX_KINDS[kind],
            rule_name=values[rule],
            tid=tid,
            attr=values[attr],
            old_value=values[old],
            new_value=values[new],
            old_conf=values[old_conf],
            new_conf=values[new_conf],
            source=values[source],
        )
        for kind, rule, tid, attr, old, new, old_conf, new_conf, source in zip(
            blob["kind"], blob["rule"], blob["tid"], blob["attr"],
            blob["old"], blob["new"], blob["old_conf"], blob["new_conf"],
            blob["source"],
        )
    ]


# ----------------------------------------------------------------------
# Per-cell costs and cell sets
# ----------------------------------------------------------------------
def encode_costs(costs: Dict[Cell, float], table: ValueTable) -> Dict[str, Any]:
    cells = list(costs)
    return {
        "tid": pack_ints([tid for tid, _attr in cells]),
        "attr": table.refs([attr for _tid, attr in cells]),
        "cost": array("d", [costs[cell] for cell in cells]),
    }


def decode_costs(blob: Dict[str, Any], values: List[Any]) -> Dict[Cell, float]:
    return {
        (tid, values[attr]): cost
        for tid, attr, cost in zip(blob["tid"], blob["attr"], blob["cost"])
    }


def encode_cells(cells: Sequence[Cell], table: ValueTable) -> Dict[str, Any]:
    return {
        "tid": pack_ints([tid for tid, _attr in cells]),
        "attr": table.refs([attr for _tid, attr in cells]),
    }


def decode_cells(blob: Dict[str, Any], values: List[Any]) -> List[Cell]:
    return [(tid, values[attr]) for tid, attr in zip(blob["tid"], blob["attr"])]


# ----------------------------------------------------------------------
# Touched rows (scoped-apply state shipping)
# ----------------------------------------------------------------------
def encode_rows(
    rows: Dict[int, Tuple[List[Any], List[Optional[float]]]],
    table: ValueTable,
) -> Dict[str, Any]:
    """``tid → (values, confs)`` rows as one flat reference column each;
    every row spans the full schema, so the width is implied."""
    tids = list(rows)
    flat_values: List[Any] = []
    flat_confs: List[Any] = []
    for tid in tids:
        values, confs = rows[tid]
        flat_values.extend(values)
        flat_confs.extend(confs)
    return {
        "tid": pack_ints(tids),
        "values": table.refs(flat_values),
        "confs": table.refs(flat_confs),
    }


def decode_rows(
    blob: Dict[str, Any], values: List[Any]
) -> Dict[int, Tuple[List[Any], List[Optional[float]]]]:
    tids = blob["tid"]
    out: Dict[int, Tuple[List[Any], List[Optional[float]]]] = {}
    if not len(tids):
        return out
    width = len(blob["values"]) // len(tids)
    for index, tid in enumerate(tids):
        start = index * width
        out[tid] = (
            [values[ref] for ref in blob["values"][start : start + width]],
            [values[ref] for ref in blob["confs"][start : start + width]],
        )
    return out


# ----------------------------------------------------------------------
# Ever-group-key sets (collision-detection state)
# ----------------------------------------------------------------------
def encode_ever_keys(
    ever_keys: Dict[Tuple, Set[Key]], table: ValueTable
) -> List[Tuple[Any, int, array]]:
    """Per rule spec: the spec (small, shipped by shape with interned
    scalars), the key width, and one flat reference column of all keys."""
    out: List[Tuple[Any, int, array]] = []
    for spec, keys in ever_keys.items():
        width = len(next(iter(keys))) if keys else 0
        flat: List[Any] = []
        for key in keys:
            flat.extend(key)
        out.append((_encode_node(spec, table), width, table.refs(flat)))
    return out


def decode_ever_keys(
    blobs: List[Tuple[Any, int, array]], values: List[Any]
) -> Dict[Tuple, Set[Key]]:
    out: Dict[Tuple, Set[Key]] = {}
    for spec_node, width, flat in blobs:
        spec = _decode_node(spec_node, values)
        keys: Set[Key] = set()
        if width:
            for start in range(0, len(flat), width):
                keys.add(
                    tuple(values[ref] for ref in flat[start : start + width])
                )
        out[spec] = keys
    return out


# ----------------------------------------------------------------------
# MD match caches (session snapshots re-warm them on restore)
# ----------------------------------------------------------------------
def encode_match_caches(
    caches: Dict[str, Sequence[Tuple[Key, Sequence[int]]]], table: ValueTable
) -> List[Dict[str, Any]]:
    """Per MD name: the cached premise projections as one flat reference
    column (fixed width per MD) and the matched master tids as a
    length-prefixed flat column.  Entry order is preserved, so a restored
    cache dict iterates exactly like the saved one."""
    out: List[Dict[str, Any]] = []
    for name, entries in caches.items():
        width = len(entries[0][0]) if entries else 0
        flat_keys: List[Any] = []
        lens: List[int] = []
        flat_tids: List[int] = []
        for key, tids in entries:
            flat_keys.extend(key)
            lens.append(len(tids))
            flat_tids.extend(tids)
        out.append(
            {
                "name": name,
                "width": width,
                "keys": table.refs(flat_keys),
                "lens": pack_ints(lens),
                "tids": pack_ints(flat_tids),
            }
        )
    return out


def decode_match_caches(
    blobs: List[Dict[str, Any]], values: List[Any]
) -> Dict[str, List[Tuple[Key, List[int]]]]:
    out: Dict[str, List[Tuple[Key, List[int]]]] = {}
    for blob in blobs:
        width = blob["width"]
        keys_flat = blob["keys"]
        tids_flat = blob["tids"]
        entries: List[Tuple[Key, List[int]]] = []
        tid_at = 0
        for index, n_tids in enumerate(blob["lens"]):
            start = index * width
            key = tuple(
                values[ref] for ref in keys_flat[start : start + width]
            )
            entries.append((key, list(tids_flat[tid_at : tid_at + n_tids])))
            tid_at += n_tids
        out[blob["name"]] = entries
    return out


# ----------------------------------------------------------------------
# Scheduling traces
# ----------------------------------------------------------------------
def encode_trace(trace: Any, table: ValueTable) -> Any:
    """Pack a :class:`WorklistTrace` / :class:`RoundTrace` (or ``None``):
    pops become two int columns, ranks keep their shape with interned
    scalars."""
    if trace is None:
        return None
    if isinstance(trace, WorklistTrace):
        children, fixes = trace.pack_pops()
        roots = trace.root_ranks
        if roots and all(
            type(rank) is tuple
            and len(rank) == len(roots[0])
            and all(type(item) is int and item >= 0 for item in rank)
            for rank in roots
        ):
            # The common case (cRepair ranks are fixed-width int
            # tuples): one narrow column per rank position.
            width = len(roots[0])
            root_blob: Any = (
                "cols",
                width,
                [
                    pack_ints([rank[position] for rank in roots])
                    for position in range(width)
                ],
            )
        else:
            root_blob = ("nodes", [_encode_node(r, table) for r in roots])
        return ("w", root_blob, pack_ints(children), pack_ints(fixes))
    return ("r", [_encode_node(token, table) for token in trace.tokens])


def decode_trace(blob: Any, values: List[Any]) -> Any:
    if blob is None:
        return None
    if blob[0] == "w":
        _tag, root_blob, children, fixes = blob
        if root_blob[0] == "cols":
            _rtag, _width, columns = root_blob
            root_ranks: List[Tuple] = (
                [tuple(rank) for rank in zip(*columns)] if columns else []
            )
        else:
            root_ranks = [_decode_node(rank, values) for rank in root_blob[1]]
        return WorklistTrace(
            root_ranks=root_ranks,
            pops=WorklistTrace.unpack_pops(children, fixes),
        )
    _tag, tokens = blob
    return RoundTrace(tokens=[_decode_node(token, values) for token in tokens])


# ----------------------------------------------------------------------
# Changeset ops (coordinator → worker apply payload)
# ----------------------------------------------------------------------
_NO_REF = -1  # column sentinel: KEEP / not applicable


def encode_ops(ops: Sequence[Op], table: ValueTable) -> Dict[str, Any]:
    """One kind column driving three per-kind streams: edit columns,
    delete tids, and a (rare) insert list."""
    kinds = array("b")
    edit_tid = array("q")
    edit_attr = array("i")
    edit_value = array("i")
    edit_conf = array("i")
    delete_tid = array("q")
    inserts: List[Tuple[Any, Any]] = []
    for op in ops:
        if isinstance(op, CellEdit):
            kinds.append(0)
            edit_tid.append(op.tid)
            edit_attr.append(table.ref(op.attr))
            edit_value.append(
                _NO_REF if op.value is KEEP else table.ref(op.value)
            )
            edit_conf.append(_NO_REF if op.conf is KEEP else table.ref(op.conf))
        elif isinstance(op, Insert):
            kinds.append(1)
            values = tuple(
                (table.ref(attr), table.ref(value))
                for attr, value in op.values.items()
            )
            confs = (
                None
                if op.confidences is None
                else tuple(
                    (table.ref(attr), table.ref(conf))
                    for attr, conf in op.confidences.items()
                )
            )
            inserts.append((values, confs))
        else:
            kinds.append(2)
            delete_tid.append(op.tid)
    return {
        "kind": kinds,
        "edit_tid": edit_tid,
        "edit_attr": edit_attr,
        "edit_value": edit_value,
        "edit_conf": edit_conf,
        "delete_tid": delete_tid,
        "inserts": inserts,
    }


def decode_ops(blob: Dict[str, Any], values: List[Any]) -> List[Op]:
    out: List[Op] = []
    edit_at = delete_at = insert_at = 0
    for kind in blob["kind"]:
        if kind == 0:
            value_ref = blob["edit_value"][edit_at]
            conf_ref = blob["edit_conf"][edit_at]
            out.append(
                CellEdit(
                    tid=blob["edit_tid"][edit_at],
                    attr=values[blob["edit_attr"][edit_at]],
                    value=KEEP if value_ref == _NO_REF else values[value_ref],
                    conf=KEEP if conf_ref == _NO_REF else values[conf_ref],
                )
            )
            edit_at += 1
        elif kind == 1:
            value_pairs, conf_pairs = blob["inserts"][insert_at]
            out.append(
                Insert(
                    values={values[a]: values[v] for a, v in value_pairs},
                    confidences=(
                        None
                        if conf_pairs is None
                        else {values[a]: values[c] for a, c in conf_pairs}
                    ),
                )
            )
            insert_at += 1
        else:
            out.append(Delete(tid=blob["delete_tid"][delete_at]))
            delete_at += 1
    return out


# ----------------------------------------------------------------------
# CRC frame envelope (coordinator<->worker transport integrity)
# ----------------------------------------------------------------------
#: Frame layout: 4-byte magic + big-endian u32 CRC32 + u64 length + body.
FRAME_MAGIC = b"UCF1"
_FRAME_HEADER = struct.Struct(">IQ")
_FRAME_OVERHEAD = len(FRAME_MAGIC) + _FRAME_HEADER.size


def frame(body: bytes) -> bytes:
    """Wrap *body* in the CRC envelope every coordinator<->worker message
    travels in.  A frame that arrives torn (truncated, bit-flipped, or
    mis-split) fails :func:`unframe` instead of being decoded into wrong
    state -- the supervised runner then retries the dispatch."""
    return (
        FRAME_MAGIC
        + _FRAME_HEADER.pack(zlib.crc32(body) & 0xFFFFFFFF, len(body))
        + body
    )


def unframe(data: bytes, label: str = "") -> bytes:
    """Validate and strip the CRC envelope of :func:`frame`.

    Raises :class:`~repro.exceptions.TornFrame` on any mismatch (magic,
    length or CRC32) -- always *before* any payload bytes are decoded.
    ``"payload.unframe"`` is a named fault point: an installed
    :mod:`~repro.pipeline.faults` injector may corrupt the bytes here to
    simulate a torn frame deterministically.
    """
    from repro.pipeline import faults as _faults

    injector = _faults.active()
    if injector is not None:
        data = injector.mangle_at("payload.unframe", data, target=label)
    if len(data) < _FRAME_OVERHEAD or data[: len(FRAME_MAGIC)] != FRAME_MAGIC:
        raise TornFrame(f"torn frame{label and f' ({label})'}: bad envelope")
    crc, length = _FRAME_HEADER.unpack(
        data[len(FRAME_MAGIC): _FRAME_OVERHEAD]
    )
    body = data[_FRAME_OVERHEAD:]
    if len(body) != length:
        raise TornFrame(
            f"torn frame{label and f' ({label})'}: length mismatch "
            f"({len(body)} != {length})"
        )
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise TornFrame(f"torn frame{label and f' ({label})'}: CRC mismatch")
    return body
