"""Algorithm ``eRepair``: reliable fixes from entropy (Section 6).

For attributes whose confidence is low or unavailable, UniClean infers
evidence from the data itself: a variable CFD's conflict group ``Δ(ȳ)`` is
resolved to its majority value when the entropy ``H(φ|Y=ȳ)`` falls below
the threshold δ2 — the lower the entropy, the more certain the resolution.
Constant-CFD and MD rules are applied unconditionally (their target value
is dictated by the pattern constant / master data), subject to the update
threshold δ1 that stops oscillating cells ("if t[B] has been changed less
than δ1 times ... by rules that may not converge on its value").

The algorithm (Fig. 6):

1. sort the cleaning rules by the dependency graph (SCC condensation +
   out/in-degree ratio, Section 6.2);
2. repeatedly apply the rules in that order via ``vCFDResolve`` /
   ``cCFDResolve`` / ``MDResolve`` until a full pass changes nothing.

Deterministic fixes from cRepair are protected and never overwritten.
Complexity: O(δ1·|D|²·|Σ| + δ1·k·|D|²·size(Γ)) in the paper's analysis;
the 2-in-1 entropy structure (Section 6.3) keeps per-fix maintenance at
O(log |D|) per index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.dependency_graph import order_rules
from repro.constraints.cfd import CFD
from repro.constraints.md import MD
from repro.constraints.rules import (
    AnyRule,
    ConstantCFDRule,
    MDRule,
    VariableCFDRule,
    derive_rules,
)
from repro.core.fixes import Fix, FixKind, FixLog
from repro.core.trace import RoundTrace
from repro.indexing.blocking import MDBlockingIndex
from repro.indexing.entropy_index import EntropyIndex
from repro.indexing.group_store import GroupStoreRegistry, sort_key
from repro.indexing.violation_index import ViolationIndex
from repro.relational import columns as _columns
from repro.relational.relation import Relation
from repro.relational.tuples import CTuple


@dataclass
class ERepairResult:
    """Outcome of an ``eRepair`` run."""

    relation: Relation
    fix_log: FixLog
    reliable_fixes: int = 0
    rounds: int = 0


class _ERepair:
    def __init__(
        self,
        relation: Relation,
        rules: Sequence[AnyRule],
        master: Optional[Relation],
        delta1: int,
        delta2: float,
        protected: Set[Tuple[int, str]],
        fix_log: FixLog,
        top_l: int,
        use_suffix_tree: bool,
        use_violation_index: bool = True,
        shared_md_indexes: Optional[Mapping[str, MDBlockingIndex]] = None,
        registry: Optional[GroupStoreRegistry] = None,
        scope_tids: Optional[Sequence[int]] = None,
        scope_cells: Optional[Sequence[Tuple[int, str]]] = None,
        trace: Optional[RoundTrace] = None,
    ):
        self.relation = relation
        self.master = master
        self.delta1 = delta1
        self.delta2 = delta2
        self.protected = protected
        self.fix_log = fix_log
        self.scope_tids = scope_tids
        self.scope_cells = scope_cells
        #: Optional per-fix scheduling tokens for sharded log merging.
        self.trace = trace
        self._token: Optional[Tuple] = None
        self.change_count: Dict[Tuple[int, str], int] = {}
        self.fixes_made = 0
        self.rounds = 0
        self._top_l = top_l
        self._use_suffix_tree = use_suffix_tree
        self._use_violation_index = use_violation_index
        self._registry = registry
        self._shared_md_indexes = dict(shared_md_indexes or {})
        if scope_tids is not None and not use_violation_index:
            raise ValueError("scoped (delta-driven) runs require the violation index")
        self.rules: List[AnyRule] = []
        self.entropy_indexes: List[EntropyIndex] = []
        self.md_indexes: Dict[int, MDBlockingIndex] = {}
        self.index_by_rule: Dict[int, EntropyIndex] = {}
        self.vindex: Optional[ViolationIndex] = None
        self.rebind_rules(order_rules(rules))

    def rebind_rules(self, rules: Sequence[AnyRule]) -> None:
        """(Re)build all per-rule indexes for *rules* in the given order.

        Used at construction and by the ordering ablation, which re-runs
        the engine with a different rule order: dirty state and index
        maps are keyed by rule position, so they must be rebuilt
        together.
        """
        self.close()
        self.rules = list(rules)
        self.entropy_indexes = []
        self.md_indexes = {}
        for idx, rule in enumerate(self.rules):
            if isinstance(rule, VariableCFDRule):
                if self._registry is not None:
                    # Shared store: the entropy stats ride the grouping the
                    # registry already maintains — the view only carries
                    # the AVL, and no extra relation observer is needed.
                    self.entropy_indexes.append(
                        EntropyIndex(rule.cfd, store=self._registry.cfd_store(rule.cfd))
                    )
                else:
                    self.entropy_indexes.append(EntropyIndex(rule.cfd, self.relation))
            elif isinstance(rule, MDRule):
                if self.master is None:
                    raise ValueError(
                        f"rule {rule.name} requires master data, but none was given"
                    )
                self.md_indexes[idx] = self._shared_md_indexes.get(
                    rule.name
                ) or MDBlockingIndex(
                    rule.md,
                    self.master,
                    top_l=self._top_l,
                    use_suffix_tree=self._use_suffix_tree,
                )
        self.index_by_rule = {}
        position = 0
        for idx, rule in enumerate(self.rules):
            if isinstance(rule, VariableCFDRule):
                self.index_by_rule[idx] = self.entropy_indexes[position]
                position += 1

        # The indexed rule engine: dirty-partition work queues so each
        # round only revisits tuples touched since the rule last ran.
        self.vindex = (
            ViolationIndex(self.relation, self.rules, registry=self._registry)
            if self._use_violation_index
            else None
        )
        if self._registry is None:
            for entropy_index in self.entropy_indexes:
                self.relation.add_observer(entropy_index.on_cell_changed)

    def close(self) -> None:
        """Detach all observers from the relation (idempotent)."""
        if self.vindex is not None:
            self.vindex.detach()
        for entropy_index in self.entropy_indexes:
            if self._registry is None:
                self.relation.remove_observer(entropy_index.on_cell_changed)
            entropy_index.detach()

    # ------------------------------------------------------------------
    # Cell mutation with index maintenance and bookkeeping
    # ------------------------------------------------------------------
    def _may_change(self, t: CTuple, attr: str) -> bool:
        return self._may_change_cell(t.tid, attr)

    def _may_change_cell(self, tid: Optional[int], attr: str) -> bool:
        cell = (tid, attr)
        if cell in self.protected:
            return False
        return self.change_count.get(cell, 0) < self.delta1

    def _set_value(self, t: CTuple, attr: str, value: Any, rule_name: str, source) -> bool:
        """Apply one reliable fix; returns whether a change was made."""
        if t[attr] == value:
            return False
        cell = (t.tid, attr)
        self.fix_log.record(
            Fix(
                kind=FixKind.RELIABLE,
                rule_name=rule_name,
                tid=t.tid if t.tid is not None else -1,
                attr=attr,
                old_value=t[attr],
                new_value=value,
                old_conf=t.conf(attr),
                new_conf=t.conf(attr),
                source=source,
            )
        )
        if self.trace is not None:
            assert self._token is not None
            self.trace.tokens.append(self._token)
        # set_value notifies the entropy indexes and the violation index,
        # which queues the touched partitions for the next round.
        self.relation.set_value(t, attr, value)
        self.change_count[cell] = self.change_count.get(cell, 0) + 1
        self.fixes_made += 1
        return True

    # ------------------------------------------------------------------
    # Procedures vCFDResolve / cCFDResolve / MDResolve (Section 6.2)
    # ------------------------------------------------------------------
    def vcfd_resolve(self, rule_idx: int) -> bool:
        """Resolve low-entropy conflict groups to their majority value."""
        rule = self.rules[rule_idx]
        assert isinstance(rule, VariableCFDRule)
        index = self.index_by_rule[rule_idx]
        rhs = rule.rhs_attr()
        changed = False
        # Snapshot keys first: resolving mutates the index.  With the
        # violation index, only partitions dirtied since this rule last
        # ran are candidates — an unchanged group resolves (or fails to)
        # exactly as it did before, so skipping it loses nothing.  The
        # AVL (entropy, key) iteration order is preserved either way.
        if self.vindex is not None:
            dirty = set(self.vindex.pop_dirty_keys(rule_idx))
            candidates = [
                (group.key, group.entropy)
                for group in index.conflicting_groups()
                if group.entropy < self.delta2 and group.key in dirty
            ]
        else:
            candidates = [
                (group.key, group.entropy)
                for group in index.conflicting_groups()
                if group.entropy < self.delta2
            ]
        for key, snapshot_entropy in candidates:
            if self.trace is not None:
                # The AVL ordering key at snapshot time — the content rank
                # that positions this group among all shards' candidates.
                self._token = (
                    self.rounds,
                    rule_idx,
                    (snapshot_entropy, tuple(sort_key(v) for v in key)),
                )
            group = index.group(key)
            if group is None or group.entropy == 0.0:
                continue  # already resolved as a side effect
            if not (group.entropy < self.delta2):
                continue
            majority_value, _count = group.majority()
            changed |= self._apply_majority(rule, rhs, group, majority_value)
        return changed

    def _apply_majority(
        self, rule: VariableCFDRule, rhs: str, group: Any, majority_value: Any
    ) -> bool:
        """The member scan of one low-entropy group at the ref level.

        Mismatching members are found by comparing canon refs against the
        majority value's canon (canon equality is ``==`` equality), with
        a numpy compare for large groups; tuples materialize only at
        mismatch positions.  Byte-identical to the per-tuple loop
        (:func:`repro.oracle.apply_majority`): the snapshot of RHS refs
        taken here equals that loop's live reads because each fix
        rewrites only its own tuple's RHS cell, and mismatches are
        visited in the same sorted-tid order with the same
        ``_may_change`` gate.
        """
        relation = self.relation
        store = relation.column_store
        table = store.table
        tids = sorted(group.tids)
        data = store.values[store.index_of[rhs]].data
        tuples = relation._tuples
        refs = [data[tuples[tid]._row] for tid in tids]
        try:
            want = table.find_canon(majority_value)
        except TypeError:  # pragma: no cover - counter keys are hashable
            want = None
        canon = table.canon
        if want is None:
            # No table-resident value compares equal: every member is a
            # mismatch.
            positions: Sequence[int] = range(len(tids))
        else:
            np = _columns.numpy_or_none()
            if np is not None and len(refs) >= 32:
                canons = np.fromiter(
                    (canon[r] for r in refs), dtype=np.int64, count=len(refs)
                )
                positions = np.nonzero(canons != want)[0].tolist()
            else:
                positions = [i for i, r in enumerate(refs) if canon[r] != want]
        changed = False
        by_tid = relation.by_tid
        for pos in positions:
            tid = tids[pos]
            if not self._may_change_cell(tid, rhs):
                continue
            t = by_tid(tid)
            changed |= self._set_value(t, rhs, majority_value, rule.name, "entropy")
        return changed

    def _candidates(self, rule_idx: int):
        """Tuples a per-tuple rule must (re)examine this round: the full
        relation on the legacy path, the drained dirty queue otherwise."""
        if self.vindex is None:
            return iter(self.relation)
        return self.vindex.dirty_tuples(rule_idx)

    def ccfd_resolve(self, rule_idx: int) -> bool:
        """Apply a constant-CFD rule to every pattern-matching tuple."""
        rule = self.rules[rule_idx]
        assert isinstance(rule, ConstantCFDRule)
        rhs = rule.rhs_attr()
        constant = rule.cfd.rhs_constant
        changed = False
        for t in self._candidates(rule_idx):
            if self.trace is not None:
                self._token = (self.rounds, rule_idx, (t.tid,))
            if not rule.cfd.lhs_matches(t):
                continue
            if t[rhs] == constant:
                continue
            if not self._may_change(t, rhs):
                continue
            changed |= self._set_value(t, rhs, constant, rule.name, "pattern")
        return changed

    def md_resolve(self, rule_idx: int) -> bool:
        """Apply an MD rule: copy master values into matching tuples."""
        rule = self.rules[rule_idx]
        assert isinstance(rule, MDRule)
        rhs, master_attr = rule.md.rhs_pair
        index = self.md_indexes[rule_idx]
        find_match = index.cached_find_match if self.vindex is not None else index.find_match
        changed = False
        for t in self._candidates(rule_idx):
            if self.trace is not None:
                self._token = (self.rounds, rule_idx, (t.tid,))
            match = find_match(t)
            if match is None:
                continue
            value = match[master_attr]
            if t[rhs] == value:
                continue
            if not self._may_change(t, rhs):
                continue
            changed |= self._set_value(t, rhs, value, rule.name, "master")
        return changed

    # ------------------------------------------------------------------
    # Main loop (Fig. 6)
    # ------------------------------------------------------------------
    def run(self) -> None:
        if self.vindex is not None:
            # Round 1: the delta scope when given, everything otherwise.
            self.vindex.seed_dirty(self.scope_cells, self.scope_tids)
        while True:
            self.rounds += 1
            changed = False
            for idx, rule in enumerate(self.rules):
                if isinstance(rule, VariableCFDRule):
                    changed |= self.vcfd_resolve(idx)
                elif isinstance(rule, ConstantCFDRule):
                    changed |= self.ccfd_resolve(idx)
                else:
                    changed |= self.md_resolve(idx)
            if not changed:
                break


def erepair(
    relation: Relation,
    cfds: Sequence[CFD] = (),
    mds: Sequence[MD] = (),
    master: Optional[Relation] = None,
    delta1: int = 3,
    delta2: float = 0.8,
    protected: Optional[Set[Tuple[int, str]]] = None,
    fix_log: Optional[FixLog] = None,
    top_l: int = 20,
    use_suffix_tree: bool = True,
    in_place: bool = False,
    use_violation_index: bool = True,
    md_indexes: Optional[Mapping[str, MDBlockingIndex]] = None,
    registry: Optional[GroupStoreRegistry] = None,
    scope_tids: Optional[Sequence[int]] = None,
    scope_cells: Optional[Sequence[Tuple[int, str]]] = None,
    trace: Optional[RoundTrace] = None,
) -> ERepairResult:
    """Find reliable (entropy-based) fixes in *relation* (Section 6).

    Parameters
    ----------
    relation:
        The (partially repaired) relation; cloned unless ``in_place``.
    delta1:
        Update threshold δ1: the maximum number of times a cell may be
        rewritten before eRepair stops touching it.
    delta2:
        Entropy threshold δ2: only groups with ``H(φ|Y=ȳ) < δ2`` are
        resolved; smaller values mean stricter (more reliable) fixes.
    protected:
        Cells that must not change (the deterministic fixes of cRepair).
    use_violation_index:
        Drive resolution rounds from the incremental
        :class:`~repro.indexing.violation_index.ViolationIndex` instead
        of full-relation rescans.  ``False`` is the legacy-scan baseline;
        both paths produce byte-identical fix logs.
    md_indexes:
        Optional pre-built blocking indexes (rule name →
        :class:`MDBlockingIndex`), shared across phases by the pipeline
        so master-side structures are built once.
    registry:
        Optional session-owned
        :class:`~repro.indexing.group_store.GroupStoreRegistry`; shared
        group stores back both the violation index and the entropy
        indexes (one observer traversal per cell change for both).
    scope_tids:
        When given, seed round 1 with only these tuples instead of the
        whole relation — the delta-driven mode of
        :class:`~repro.pipeline.session.CleaningSession`.  The scope must
        be influence-closed; requires the violation index.
    """
    working = relation if in_place else relation.clone()
    log = fix_log if fix_log is not None else FixLog()
    rules = derive_rules(cfds, mds)
    state = _ERepair(
        working,
        rules,
        master,
        delta1=delta1,
        delta2=delta2,
        protected=protected or set(),
        fix_log=log,
        top_l=top_l,
        use_suffix_tree=use_suffix_tree,
        use_violation_index=use_violation_index,
        shared_md_indexes=md_indexes,
        registry=registry,
        scope_tids=scope_tids,
        scope_cells=scope_cells,
        trace=trace,
    )
    try:
        state.run()
    finally:
        state.close()
    return ERepairResult(
        relation=working,
        fix_log=log,
        reliable_fixes=state.fixes_made,
        rounds=state.rounds,
    )
