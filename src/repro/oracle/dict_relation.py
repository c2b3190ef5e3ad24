"""The dict-of-``CTuple`` relation layout: the seed-era resident format.

It is the memory comparator of the column store and the model the
column-store fuzz tests track.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.relational.schema import Schema
from repro.relational.tuples import CTuple


class DictRelation:
    """A relation held as a tid → dict-backed :class:`CTuple` map.

    Supports the subset of the :class:`~repro.relational.relation.Relation`
    API the fuzz models and the memory comparison use, with the same tid
    discipline: fresh tids are monotonic and removed tids are retired.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._tuples: Dict[int, CTuple] = {}
        self._next_tid = 0
        self._retired: Set[int] = set()

    def add_row(
        self,
        values: Mapping[str, Any],
        confidences: Optional[Mapping[str, Optional[float]]] = None,
    ) -> CTuple:
        t = CTuple(self.schema, values, confidences)
        t.tid = self._next_tid
        self._tuples[t.tid] = t
        self._next_tid += 1
        return t

    def append_row_values(
        self, values: Sequence[Any], confs: Optional[Sequence[Optional[float]]] = None
    ) -> CTuple:
        names = self.schema.names
        return self.add_row(dict(zip(names, values)), dict(zip(names, confs or ())))

    def remove(self, tid: int) -> CTuple:
        self._retired.add(tid)
        return self._tuples.pop(tid)

    def set_value(self, t: CTuple, attr: str, value: Any) -> bool:
        if t[attr] == value:
            return False
        t[attr] = value
        return True

    def by_tid(self, tid: int) -> CTuple:
        return self._tuples[tid]

    def tids(self) -> Tuple[int, ...]:
        return tuple(self._tuples)

    def __iter__(self) -> Iterator[CTuple]:
        return iter(self._tuples.values())

    def project(self, attrs: Sequence[str]) -> Set[Tuple[Any, ...]]:
        return {t.project(attrs) for t in self}

    def group_by(self, attrs: Sequence[str]) -> Dict[Tuple[Any, ...], List[CTuple]]:
        groups: Dict[Tuple[Any, ...], List[CTuple]] = {}
        for t in self:
            groups.setdefault(t.project(attrs), []).append(t)
        return groups

    def active_domain(self, attr: str) -> Set[Any]:
        return {t[attr] for t in self}
