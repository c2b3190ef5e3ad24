"""CSV import/export for relations.

Confidences are serialized as a parallel ``<attr>.cf`` column when
requested, mirroring the ``cf`` rows under each tuple in Fig. 1 of the
paper.  The empty string round-trips to :data:`NULL`, and a missing or empty
confidence cell round-trips to ``None`` (confidence unavailable).
"""

from __future__ import annotations

import csv
import io as _io
from pathlib import Path
from typing import Optional, Sequence, TextIO, Union

from repro.exceptions import DataError
from repro.relational.attribute import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuples import CTuple

_CF_SUFFIX = ".cf"


def write_csv(
    relation: Relation,
    target: Union[str, Path, TextIO],
    include_confidence: bool = True,
) -> None:
    """Write *relation* to CSV.

    Parameters
    ----------
    relation:
        The relation to serialize.
    target:
        File path or open text handle.
    include_confidence:
        When true, every attribute column ``A`` is followed by ``A.cf``.
    """
    close = False
    if isinstance(target, (str, Path)):
        handle: TextIO = open(target, "w", newline="", encoding="utf-8")
        close = True
    else:
        handle = target
    try:
        writer = csv.writer(handle)
        header = []
        for name in relation.schema.names:
            header.append(name)
            if include_confidence:
                header.append(name + _CF_SUFFIX)
        writer.writerow(header)
        for t in relation:
            row = []
            for name in relation.schema.names:
                value = t[name]
                row.append("" if is_null(value) else str(value))
                if include_confidence:
                    conf = t.conf(name)
                    row.append("" if conf is None else repr(conf))
            writer.writerow(row)
    finally:
        if close:
            handle.close()


def read_csv(
    schema: Schema,
    source: Union[str, Path, TextIO],
) -> Relation:
    """Read a relation previously produced by :func:`write_csv`.

    Columns named ``A.cf`` are interpreted as confidences for attribute
    ``A``; other columns must match schema attributes exactly.
    """
    close = False
    if isinstance(source, (str, Path)):
        handle: TextIO = open(source, "r", newline="", encoding="utf-8")
        close = True
    else:
        handle = source
    try:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("CSV source is empty (no header row)") from None
        value_cols = {}
        conf_cols = {}
        for i, col in enumerate(header):
            if col.endswith(_CF_SUFFIX):
                attr = col[: -len(_CF_SUFFIX)]
                if attr not in schema:
                    raise DataError(f"CSV confidence column for unknown attribute {attr!r}")
                conf_cols[attr] = i
            else:
                if col not in schema:
                    raise DataError(f"CSV column {col!r} not in schema {schema.name!r}")
                value_cols[col] = i
        missing = [n for n in schema.names if n not in value_cols]
        if missing:
            raise DataError(f"CSV is missing columns for attributes {missing}")
        relation = Relation(schema)
        # Schema-order column positions once, then one list per row into
        # the bulk-load fast path (values intern straight into the ref
        # columns; no intermediate dicts or CTuples).
        positions = [value_cols[name] for name in schema.names]
        conf_positions = [conf_cols.get(name) for name in schema.names]
        check_conf = CTuple._check_conf
        for row in reader:
            width = len(row)
            values = [
                NULL if i >= width or row[i] == "" else row[i]
                for i in positions
            ]
            confs = [
                None if i is None or i >= width or row[i] == "" else float(row[i])
                for i in conf_positions
            ]
            if conf_cols:
                for conf in confs:
                    check_conf(conf)
            relation.append_row_values(values, confs)
        return relation
    finally:
        if close:
            handle.close()


def to_csv_string(relation: Relation, include_confidence: bool = True) -> str:
    """Serialize *relation* to a CSV string (round-trips via :func:`from_csv_string`)."""
    buffer = _io.StringIO()
    write_csv(relation, buffer, include_confidence=include_confidence)
    return buffer.getvalue()


def from_csv_string(schema: Schema, text: str) -> Relation:
    """Parse a relation from a CSV string produced by :func:`to_csv_string`."""
    return read_csv(schema, _io.StringIO(text))
