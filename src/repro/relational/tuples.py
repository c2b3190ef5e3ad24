"""Tuples carrying per-attribute confidence values.

The paper attaches a confidence ``t[A].cf`` to every attribute of every
tuple (the ``cf`` rows of Fig. 1): "the confidence placed by the user in the
accuracy of the attribute".  :class:`CTuple` stores values and confidences
side by side.  A confidence of ``None`` means *unavailable*, which the
cleaning algorithms treat as below any threshold (Section 6: "low or
unavailable").

:class:`CTuple` here is the *standalone*, dict-backed form; tuples
resident in a :class:`~repro.relational.relation.Relation` are
:class:`~repro.relational.columns.ColumnTuple` row-views — a subclass
whose cells live in interned ref columns but which honours every method
below (clones and pickles of a row-view detach back into this class).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.exceptions import DataError, SchemaError
from repro.relational.attribute import NULL, is_null
from repro.relational.schema import Schema


class CTuple:
    """A mutable tuple of a given :class:`~repro.relational.schema.Schema`.

    Parameters
    ----------
    schema:
        The schema this tuple conforms to.
    values:
        Mapping from attribute name to value.  Missing attributes default to
        :data:`~repro.relational.attribute.NULL`.
    confidences:
        Optional mapping from attribute name to a confidence in ``[0, 1]``
        (or ``None`` for "unavailable").  Missing entries default to
        ``None``.
    tid:
        Tuple identifier, unique within a relation.  Assigned by
        :class:`~repro.relational.relation.Relation` when ``None``.
    """

    __slots__ = ("schema", "tid", "_values", "_conf")

    def __init__(
        self,
        schema: Schema,
        values: Mapping[str, Any],
        confidences: Optional[Mapping[str, Optional[float]]] = None,
        tid: Optional[int] = None,
    ):
        self.schema = schema
        self.tid = tid
        self._values: Dict[str, Any] = {}
        self._conf: Dict[str, Optional[float]] = {}
        for name in schema.names:
            self._values[name] = values.get(name, NULL)
        for extra in values:
            if extra not in schema:
                raise SchemaError(
                    f"value for unknown attribute {extra!r} of schema {schema.name!r}"
                )
        if confidences:
            for name, conf in confidences.items():
                if name not in schema:
                    raise SchemaError(
                        f"confidence for unknown attribute {name!r} of schema {schema.name!r}"
                    )
                self._check_conf(conf)
                self._conf[name] = conf
        for name in schema.names:
            self._conf.setdefault(name, None)

    @staticmethod
    def _check_conf(conf: Optional[float]) -> None:
        if conf is not None and not 0.0 <= conf <= 1.0:
            raise DataError(f"confidence must be in [0, 1] or None, got {conf!r}")

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    def __getitem__(self, attr: str) -> Any:
        try:
            return self._values[attr]
        except KeyError:
            raise SchemaError(
                f"schema {self.schema.name!r} has no attribute {attr!r}"
            ) from None

    def __setitem__(self, attr: str, value: Any) -> None:
        if attr not in self._values:
            raise SchemaError(f"schema {self.schema.name!r} has no attribute {attr!r}")
        self._values[attr] = value

    def get(self, attr: str, default: Any = None) -> Any:
        """Dictionary-style access with a default."""
        return self._values.get(attr, default)

    def conf(self, attr: str) -> Optional[float]:
        """The confidence ``t[A].cf`` of attribute *attr* (``None`` = unavailable)."""
        try:
            return self._conf[attr]
        except KeyError:
            raise SchemaError(
                f"schema {self.schema.name!r} has no attribute {attr!r}"
            ) from None

    def set_conf(self, attr: str, conf: Optional[float]) -> None:
        """Set the confidence of attribute *attr*."""
        if attr not in self._conf:
            raise SchemaError(f"schema {self.schema.name!r} has no attribute {attr!r}")
        self._check_conf(conf)
        self._conf[attr] = conf

    def set(self, attr: str, value: Any, conf: Optional[float] = None) -> None:
        """Set value and confidence of *attr* in one call."""
        self[attr] = value
        self.set_conf(attr, conf)

    def has_conf_at_least(self, attr: str, threshold: float) -> bool:
        """Whether ``t[attr].cf ≥ threshold``, treating ``None`` as -∞.

        This is the *asserted attribute* test of Section 5.1.
        """
        conf = self._conf[attr]
        return conf is not None and conf >= threshold

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------
    def project(self, attrs: Sequence[str]) -> Tuple[Any, ...]:
        """Return the values of *attrs* as a tuple, e.g. ``t[Y]``.

        This is the hottest call in the partition/entropy indexes, so it
        reads the value store directly instead of going through
        :meth:`__getitem__` per attribute.
        """
        values = self._values
        try:
            return tuple(values[a] for a in attrs)
        except KeyError as exc:
            raise SchemaError(
                f"schema {self.schema.name!r} has no attribute {exc.args[0]!r}"
            ) from None

    def project_conf(self, attrs: Sequence[str]) -> Tuple[Optional[float], ...]:
        """Return the confidences of *attrs* as a tuple."""
        return tuple(self.conf(a) for a in attrs)

    def min_conf(self, attrs: Sequence[str]) -> Optional[float]:
        """The fuzzy-logic minimum confidence over *attrs*.

        Section 3.1: the new confidence of a repaired attribute is the
        *minimum* of the confidences in the rule premise ("we update the
        confidence by taking the minimum rather than the product").  If any
        premise confidence is unavailable the result is ``None``.
        """
        confs = [self.conf(a) for a in attrs]
        if not confs:
            return None
        if any(c is None for c in confs):
            return None
        return min(confs)  # type: ignore[type-var]

    def has_null(self, attrs: Sequence[str]) -> bool:
        """Whether any of *attrs* is :data:`NULL` in this tuple."""
        values = self._values
        return any(is_null(values[a]) for a in attrs)

    # ------------------------------------------------------------------
    # Conversions / copying
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """A fresh dict of attribute name → value."""
        return dict(self._values)

    def conf_dict(self) -> Dict[str, Optional[float]]:
        """A fresh dict of attribute name → confidence."""
        return dict(self._conf)

    def clone(self) -> "CTuple":
        """A deep-enough copy (values are assumed immutable scalars)."""
        twin = CTuple.__new__(CTuple)
        twin.schema = self.schema
        twin.tid = self.tid
        twin._values = dict(self._values)
        twin._conf = dict(self._conf)
        return twin

    # ------------------------------------------------------------------
    # Protocols
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Any]:
        return (self._values[name] for name in self.schema.names)

    def __len__(self) -> int:
        return len(self.schema)

    def __eq__(self, other: object) -> bool:
        """Value equality over all attributes (confidence is metadata)."""
        if not isinstance(other, CTuple):
            return NotImplemented
        return self.schema == other.schema and self._values == other._values

    def __hash__(self) -> int:
        return hash((self.schema.name, tuple(self._values[n] for n in self.schema.names)))

    def values_equal(self, other: "CTuple", attrs: Optional[Iterable[str]] = None) -> bool:
        """Strict equality of values on *attrs* (all attributes if ``None``)."""
        names = list(attrs) if attrs is not None else list(self.schema.names)
        return all(self[a] == other[a] for a in names)

    def diff(self, other: "CTuple") -> Tuple[str, ...]:
        """Attribute names on which this tuple and *other* differ."""
        if self.schema != other.schema:
            raise DataError("cannot diff tuples with different schemas")
        return tuple(n for n in self.schema.names if self[n] != other[n])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{n}={self._values[n]!r}" for n in self.schema.names)
        return f"CTuple(#{self.tid}: {inner})"
