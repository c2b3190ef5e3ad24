"""The per-tuple oracle kernels, one per production seam.

Each function is the seed-era loop a ref-column kernel replaced, with
the kernel's signature; methods take the owning object as ``self``.
:func:`repro.oracle.reference_kernels` installs them (the seam table is
in :mod:`repro.oracle`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.constraints.cfd import Violation
from repro.constraints.rules import ConstantCFDRule, VariableCFDRule
from repro.core.cost import cell_cost
from repro.core.hrepair import _NULL, _const
from repro.indexing.group_store import Key
from repro.matching.simjoin import ValueGroup, _group_by_value
from repro.relational.attribute import is_null
from repro.relational.relation import Relation
from repro.relational.tuples import CTuple


# ----------------------------------------------------------------------
# Check scan
# ----------------------------------------------------------------------
def scan_violations(
    relation: Relation,
    rules: Sequence[Any],
    positions: Sequence[int],
    index: Any,
    strict: bool,
    only: Optional[Set[int]],
) -> List[Violation]:
    """The per-tuple check scan (same signature as the production one)."""
    out: List[Violation] = []
    for rule, idx in zip(rules, positions):
        rhs = rule.rhs_attr()
        is_constant = isinstance(rule, ConstantCFDRule)

        def rule_member_tids(idx=idx):
            if only is None:
                return index.member_tids(idx)
            return sorted(tid for tid in only if index.is_member(idx, tid))

        def rule_groups(idx=idx):
            if only is None:
                yield from index.iter_groups(idx)
            else:
                yield from index.groups_of_tids(idx, only)

        if strict:
            # Single-tuple check ``t[Y] ≍ tp[Y]``: fails on a mismatched
            # constant and on null (nulls never match, wildcard included).
            constant = rule.cfd.rhs_constant if is_constant else None
            for tid in rule_member_tids():
                value = relation.by_tid(tid)[rhs]
                if is_null(value) or (is_constant and value != constant):
                    out.append(Violation(rule.cfd, (tid,), rhs))
            # Pair check among tuples agreeing on X — constant CFDs
            # included, exactly as the brute-force scan does.
            for _key, tids in rule_groups():
                seen: Dict[Any, int] = {}
                for tid in tids:
                    value = relation.by_tid(tid)[rhs]
                    for other_value, witness in seen.items():
                        if other_value != value:
                            out.append(Violation(rule.cfd, (witness, tid), rhs))
                    seen.setdefault(value, tid)
        elif is_constant:
            constant = rule.cfd.rhs_constant
            for tid in rule_member_tids():
                value = relation.by_tid(tid)[rhs]
                if not is_null(value) and value != constant:
                    out.append(Violation(rule.cfd, (tid,), rhs))
        else:
            for _key, tids in rule_groups():
                seen: Dict[Any, int] = {}
                for tid in tids:
                    value = relation.by_tid(tid)[rhs]
                    if is_null(value):
                        continue
                    for other_value, witness in seen.items():
                        if other_value != value:
                            out.append(Violation(rule.cfd, (witness, tid), rhs))
                    seen.setdefault(value, tid)
    return out


# ----------------------------------------------------------------------
# Indexing: group-store bulk builds, hRepair grouping, join grouping
# ----------------------------------------------------------------------
def bulk_index(self: Any, relation: Relation) -> None:
    """Index every tuple of *relation* into the store *self*, one
    :meth:`index_tuple` per tuple."""
    for t in relation:
        self.index_tuple(t)


def cfd_member_tids(relation: Relation, cfd: Any) -> Dict[Key, List[int]]:
    """Member tids per LHS key of *cfd*, in first-encounter order."""
    lhs = cfd.key_attrs()
    groups: Dict[Key, List[int]] = {}
    for t in relation:
        if cfd.lhs_matches(t):
            groups.setdefault(t.project(lhs), []).append(t.tid)
    return groups


def value_groups(self: Any, master: Relation) -> List[ValueGroup]:
    """Master tuples grouped by exact ``(type, value)`` of the index's
    attribute, first-encounter order."""
    return _group_by_value(master, self.attr)


# ----------------------------------------------------------------------
# Repair phases
# ----------------------------------------------------------------------
def init_asserted(
    self: Any, scope: Sequence[int], relevant_attrs: Tuple[str, ...]
) -> None:
    """cRepair initialization lines 2–6: propagate already-asserted
    attributes of every scoped tuple."""
    for tid in scope:
        t = self.relation.by_tid(tid)
        self._root_rank = (1, tid, 0, 0)
        for attr in relevant_attrs:
            if self._asserted(t, attr):
                self.update(t, attr)


def apply_majority(
    self: Any, rule: VariableCFDRule, rhs: str, group: Any, majority_value: Any
) -> bool:
    """eRepair: move every changeable member of *group* to the majority."""
    changed = False
    for tid in sorted(group.tids):
        t = self.relation.by_tid(tid)
        if t[rhs] == majority_value:
            continue
        if not self._may_change(t, rhs):
            continue
        changed |= self._set_value(t, rhs, majority_value, rule.name, "entropy")
    return changed


def resolve_variable(self: Any, rule_idx: int) -> bool:
    """``_HRepair.resolve_variable``: groups of ``CTuple`` lists, from
    the violation index's dirty partitions or a per-tuple premise scan."""
    rule = self.rules[rule_idx]
    assert isinstance(rule, VariableCFDRule)
    rhs = rule.rhs_attr()
    changed = False
    if self.vindex is not None:
        by_tid = self.relation.by_tid
        for key in self.vindex.pop_dirty_keys(rule_idx):
            members = self.vindex.members(rule_idx, key)
            if not members:
                continue
            if self.trace is not None:
                # Pop order is ascending smallest member tid — the
                # content rank that interleaves shards' partitions.
                self._token = (self.rounds, rule_idx, (members[0],))
            group = [by_tid(tid) for tid in members]
            changed |= resolve_variable_group(self, rule, rhs, key, group)
    else:
        groups: Dict[Tuple[Any, ...], List[CTuple]] = {}
        for t in self.relation:
            if rule.cfd.lhs_matches(t):
                groups.setdefault(t.project(rule.cfd.lhs), []).append(t)
        for key, group in groups.items():
            if self.trace is not None:
                self._token = (
                    self.rounds,
                    rule_idx,
                    (min(t.tid for t in group),),
                )
            changed |= resolve_variable_group(self, rule, rhs, key, group)
    return changed


def resolve_variable_group(
    self: Any,
    rule: VariableCFDRule,
    rhs: str,
    key: Tuple[Any, ...],
    group: Sequence[CTuple],
) -> bool:
    """Resolve one conflict group ``Δ(x̄)`` of a variable CFD."""
    # Tombstoned cells (target null) stay null: re-filling them
    # would undo an earlier conflict resolution.
    members = [
        t for t in group if self._target((t.tid, rhs))[0] != "null"
    ]
    values = {t[rhs] for t in members if not is_null(t[rhs])}
    has_free_nulls = any(is_null(t[rhs]) for t in members)
    if len(values) < 2 and not (values and has_free_nulls):
        return False  # consistent (nulls alone never violate)
    signature = ("v", rule.name, key)
    if signature in self.unresolved:
        return False
    cells = [(t.tid, rhs) for t in members]
    frozen_values = {
        self._target(cell)[1] for cell in cells if self._is_frozen(cell)
    }
    if len(frozen_values) > 1:
        # Two deterministic fixes disagree: break the premise of a frozen
        # participant (see ``_HRepair._resolve_variable_group``).
        broken = False
        for t in sorted(members, key=lambda x: x.tid or 0):
            if self._is_frozen((t.tid, rhs)):
                if self._break_premise(t, rule.cfd.lhs, rule.name):
                    broken = True
                    break
        if not broken:
            self.unresolved.add(signature)
            return False
        return True
    if frozen_values:
        # One deterministic value dictates the group; non-frozen members
        # take it as a const target (see ``_HRepair._resolve_variable_group``).
        value = next(iter(frozen_values))
        frozen_cells = [cell for cell in cells if self._is_frozen(cell)]
        if len(frozen_cells) > 1:
            self._merge(frozen_cells, ("frozen", value), rule.name)
        for cell in cells:
            if self._is_frozen(cell):
                continue
            tgt = self._target(cell)
            if tgt[0] == "const" and tgt[1] != value:
                self._set_target(cell, _NULL, rule.name)
            else:
                self._set_target(cell, _const(value), rule.name)
        return True
    const_targets = {
        self._target(cell)[1]
        for cell in cells
        if self._target(cell)[0] == "const"
    }
    if len(const_targets) > 1:
        target = _NULL
    elif const_targets:
        target = _const(next(iter(const_targets)))
    else:
        target = _const(cheapest_value(self, members, rhs, values))
    self._merge(cells, target, rule.name)
    return True

def cheapest_value(
    self: Any, group: Sequence[CTuple], rhs: str, values: Set[Any]
) -> Any:
    """The group value minimizing total repair cost (Section 3.1).

    Cost ties (common when confidences are zero) break towards the
    *most frequent* value — the majority heuristic — then towards the
    lexicographically smallest for determinism.
    """
    counts: Dict[Any, int] = {}
    for t in group:
        counts[t[rhs]] = counts.get(t[rhs], 0) + 1
    best_value = None
    best_key = None
    for value in sorted(values, key=repr):
        total = 0.0
        for t in group:
            if t[rhs] != value:
                total += cell_cost(t[rhs], value, t.conf(rhs))
        key = (total, -counts.get(value, 0), repr(value))
        if best_key is None or key < best_key:
            best_key = key
            best_value = value
    return best_value


# ----------------------------------------------------------------------
# Wire encode
# ----------------------------------------------------------------------
def encode_cells(
    relation: Relation, table: Any
) -> Tuple[List[List[int]], List[List[int]]]:
    """Message refs of every value and confidence cell, interned tuple by
    tuple in row-major, value-then-confidence order."""
    names = relation.schema.names
    cols: List[List[int]] = [[] for _ in names]
    confs: List[List[int]] = [[] for _ in names]
    ref = table.ref
    for t in relation:
        values = t._values
        conf = t._conf
        for index, attr in enumerate(names):
            cols[index].append(ref(values[attr]))
            confs[index].append(ref(conf[attr]))
    return cols, confs
