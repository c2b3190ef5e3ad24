"""Consistency analysis of ``Σ ∪ Γ`` (Theorem 4.1).

The consistency problem — given master data ``Dm`` and ``Θ = Σ ∪ Γ``, is
there a *nonempty* instance ``D`` of ``R`` with ``D ⊨ Σ`` and
``(D, Dm) ⊨ Γ``? — is NP-complete.  The proof establishes a small-model
property: it suffices to look for a **single-tuple** instance ``D = {t}``
whose attribute values are drawn from the active domains

    ``adom(A)`` = constants of ``A`` in Σ  ∪  values of ``Dm`` attributes
    identified with ``A`` by Γ  ∪  at most one extra fresh value of
    ``dom(A)`` (if one exists).

This module implements that NP search exactly, by backtracking over
attribute assignments with incremental pruning on constant CFDs.  It is
exponential in the worst case — as any correct algorithm must be unless
P = NP — but fast on realistic rule sets, whose constants are sparse.

Single-tuple semantics (what the checker enforces on ``{t}``):

* every CFD with ``t[X] ≍ tp[X]`` requires ``t[Y] ≍ tp[Y]`` (only the
  constant pattern entries constrain a single tuple);
* every MD with a premise that holds against some master tuple ``s``
  requires ``t[E] = s[F]``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.constraints.cfd import CFD, Violation
from repro.constraints.md import MD
from repro.constraints.rules import ConstantCFDRule, derive_rules
from repro.indexing.group_store import hot_groups
from repro.relational.attribute import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuples import CTuple
from repro.exceptions import InconsistentRulesError


# ----------------------------------------------------------------------
# Data-level violation checks, routed through the violation index
# ----------------------------------------------------------------------
def relation_violations(
    relation: Relation,
    cfds: Sequence[CFD],
    violation_index: Optional[Any] = None,
    null_semantics: str = "tolerant",
    only_tids: Optional[Any] = None,
) -> List[Violation]:
    """CFD violations of *relation*, computed from LHS partitions.

    A single pass builds (or reuses) the per-rule partitions of a
    :class:`~repro.indexing.violation_index.ViolationIndex`; each
    constant-CFD member is checked against the pattern constant and each
    variable-CFD partition for conflicting RHS values.  With a
    maintained index this avoids any relation rescan; built fresh it
    still replaces the per-CFD scans of the legacy checks with one scan
    for all rules.  Violations are reported in rule order, then ascending
    tid / first-encounter partition order (deterministic).

    ``null_semantics`` selects how nulls count:

    * ``"tolerant"`` (default) — Section 7 repair semantics: a null
      never witnesses a violation (used by the satisfaction checks);
    * ``"strict"`` — the classic ``D ⊨ φ`` semantics of
      :meth:`repro.constraints.cfd.CFD.violations`: a null RHS fails the
      pattern match (single-tuple violation) and nulls participate in
      pair comparisons.  Output order and content match the brute-force
      scan exactly.

    ``only_tids`` restricts the check to the given tuples and the
    partitions containing them — the delta-verification mode of
    :class:`~repro.pipeline.session.CleaningSession`, sound when every
    tuple outside the set is known to satisfy the rules already.
    """
    from repro.indexing.violation_index import ViolationIndex

    if null_semantics not in ("tolerant", "strict"):
        raise ValueError(f"unknown null_semantics {null_semantics!r}")
    strict = null_semantics == "strict"
    rules = [r for cfd in cfds for r in derive_rules([cfd])]
    index = violation_index
    if index is None:
        index = ViolationIndex(relation, rules, attach=False)
        positions = list(range(len(rules)))
    else:
        # Partition state is keyed by rule position, so map each expected
        # rule onto the supplied index's position by rule kind and the
        # underlying CFD itself (CFD equality is pattern-aware — names
        # are not unique: two distinct pattern rows of one tableau share
        # the default name).  A superset index (e.g. a session's check
        # index over the full rule set) is fine; a missing rule is an
        # error.  Equal CFDs map to one position, which is correct: they
        # share the same partitions.
        by_key = {}
        for i, r in enumerate(index.rules):
            indexed_cfd = getattr(r, "cfd", None)
            if indexed_cfd is not None:
                by_key[(type(r).__name__, indexed_cfd)] = i
        positions = []
        for rule in rules:
            key = (type(rule).__name__, rule.cfd)
            if key not in by_key:
                raise ValueError(
                    f"violation_index does not cover rule {rule.name!r}; "
                    "it was built over a different rule list"
                )
            positions.append(by_key[key])
    only = set(only_tids) if only_tids is not None else None
    return _scan_violations(relation, rules, positions, index, strict, only)


def _scan_violations(
    relation: Relation,
    rules: Sequence[Any],
    positions: Sequence[int],
    index: Any,
    strict: bool,
    only: Optional[Set[int]],
) -> List[Violation]:
    """The check scan behind :func:`relation_violations`.

    Same partition semantics as the per-tuple reference loop
    (:func:`repro.oracle.scan_violations`), but every RHS read
    is a ref-column index (``rhs_data[row]``) and every value test a
    canonical reference comparison — no ``by_tid`` →
    ``dict.__getitem__`` chain, no per-tuple object touched beyond its
    stored row index.  The pair check also prunes on the maintained RHS
    value counts: partitions whose counts hold a single ``==``-class
    cannot pair-violate and are skipped before any member is read, so
    the per-group sorting work scales with the *dirty* partitions, not
    with all of them.  The ``seen`` lists key canonical refs, whose
    equality (and therefore first-encounter order) is exactly the value
    equality the reference loop's value-keyed maps use, so the emitted
    violation list is identical element for element.

    The ``only_tids`` delta mode keeps the index-query path (its scopes
    are small; the full-scan restructuring would not pay for itself).
    """
    store = relation.column_store
    table = store.table
    canon = table.canon
    null_c = table.null_canon
    row_of = store.row_of
    out: List[Violation] = []
    for rule, idx in zip(rules, positions):
        rhs = rule.rhs_attr()
        is_constant = isinstance(rule, ConstantCFDRule)
        rhs_data = store.values[store.index_of[rhs]].data
        part = index.partition(idx)

        def rule_member_tids(idx=idx, part=part):
            if only is not None:
                return sorted(t for t in only if index.is_member(idx, t))
            if part is not None:
                return sorted(part.key_of)
            return index.member_tids(idx)  # pragma: no cover - MD rules

        if strict:
            const_c = (
                table.canon_ref(rule.cfd.rhs_constant) if is_constant else -1
            )
            for tid in rule_member_tids():
                c = canon[rhs_data[row_of[tid]]]
                if c == null_c or (is_constant and c != const_c):
                    out.append(Violation(rule.cfd, (tid,), rhs))
        elif is_constant:
            const_c = table.canon_ref(rule.cfd.rhs_constant)
            for tid in rule_member_tids():
                c = canon[rhs_data[row_of[tid]]]
                if c != null_c and c != const_c:
                    out.append(Violation(rule.cfd, (tid,), rhs))
            continue  # tolerant constant rules have no pair check

        # Pair check among tuples agreeing on X.  Tolerant mode skips
        # null RHS values; strict compares them like any other value.
        cfd = rule.cfd
        if only is not None:
            group_iter = index.groups_of_tids(idx, only)
        else:
            # A partition can only emit pair violations when its RHS
            # counts hold ≥ 2 distinct ``==``-classes (canon equality is
            # value equality, and so is ``value_counts``'s dict keying) —
            # skip the clean majority outright, and order the survivors
            # by smallest member tid exactly as ``iter_groups`` does over
            # all of them (omitted partitions emit nothing either way).
            # The pruning (GroupStats.is_hot + ordering) is shared with
            # the vectorized repair phases.
            group_iter = (
                (g.key, sorted(g.tids))
                for g in hot_groups(part.groups.values())
            )
        for _key, tids in group_iter:
            seen: List[Tuple[int, int]] = []
            seen_refs: Set[int] = set()
            for tid in tids:
                c = canon[rhs_data[row_of[tid]]]
                if c == null_c and not strict:
                    continue
                for other_c, witness in seen:
                    if other_c != c:
                        out.append(Violation(cfd, (witness, tid), rhs))
                if c not in seen_refs:
                    seen_refs.add(c)
                    seen.append((c, tid))
    return out


def relation_is_clean(
    relation: Relation,
    cfds: Sequence[CFD],
    mds: Sequence[MD] = (),
    master: Optional[Relation] = None,
    violation_index: Optional[Any] = None,
    md_indexes: Optional[Mapping[str, Any]] = None,
    only_tids: Optional[Any] = None,
) -> bool:
    """Whether ``D ⊨ Σ`` and ``(D, Dm) ⊨ Γ`` (null-tolerant, Section 7).

    The index-routed counterpart of :func:`repro.core.hrepair.is_clean`:
    CFD checks run over LHS partitions (one scan for all rules, or none
    when a maintained *violation_index* is supplied) and MD checks reuse
    *md_indexes* (rule name → blocking index) instead of rebuilding
    master-side structures.
    """
    from repro.indexing.blocking import MDBlockingIndex

    if cfds and relation_violations(
        relation, cfds, violation_index, only_tids=only_tids
    ):
        return False
    if master is not None:
        shared = md_indexes or {}
        for md in mds:
            for normalized in md.normalize():
                rhs, master_attr = normalized.rhs_pair
                bindex = shared.get(normalized.name)
                if bindex is None or not bindex.is_exact:
                    # A satisfaction verdict must stay exhaustive.
                    # Equality blocking and the join engine are lossless
                    # (is_exact), so their shared repair-time indexes are
                    # reused as-is; only the reference engine's top-l
                    # suffix-tree retrieval forces a fresh full-candidate
                    # index here.
                    bindex = MDBlockingIndex(
                        normalized, master, use_suffix_tree=False
                    )
                data_side = (
                    relation
                    if only_tids is None
                    else [
                        relation.by_tid(tid)
                        for tid in only_tids
                        if relation.has_tid(tid)
                    ]
                )
                for t in data_side:
                    if is_null(t[rhs]):
                        continue  # null counts as identified (Section 7)
                    for s in bindex.cached_matches(t):
                        if t[rhs] != s[master_attr]:
                            return False
    return True


def active_domains(
    schema: Schema,
    cfds: Sequence[CFD],
    mds: Sequence[MD],
    master: Optional[Relation],
    extra_fresh: int = 1,
) -> Dict[str, List[Any]]:
    """The per-attribute candidate value sets of the small-model search.

    For each attribute ``A`` of *schema*: all constants that Σ mentions
    for ``A``, all master values of attributes that Γ compares with or
    writes into ``A``, plus up to *extra_fresh* values outside that set
    when the domain permits.  The consistency search (single tuple) needs
    one fresh value per attribute ("at most an extra distinct value drawn
    from dom(Ai)", proof of Theorem 4.1); the implication search uses two
    — its two-tuple counterexample may need the tuples to *differ* on an
    attribute no constant mentions.
    """
    domains: Dict[str, Set[Any]] = {name: set() for name in schema.names}
    for cfd in cfds:
        for attr, values in cfd.constants().items():
            domains[attr].update(values)
    if master is not None:
        for md in mds:
            pairs = [(c.attr, c.master_attr) for c in md.premise]
            pairs.extend(md.rhs)
            for attr, master_attr in pairs:
                for s in master:
                    domains[attr].add(s[master_attr])
    out: Dict[str, List[Any]] = {}
    for name in schema.names:
        values = set(domains[name])
        ordered = sorted(values, key=repr)
        for _ in range(extra_fresh):
            fresh = schema.domain(name).fresh_value(values)
            if fresh is None:
                break
            values.add(fresh)
            ordered.append(fresh)
        if not ordered:
            ordered = [NULL]  # degenerate: no constraint ever mentions it
        out[name] = ordered
    return out


def _single_tuple_ok(
    t: CTuple,
    cfds: Sequence[CFD],
    mds: Sequence[MD],
    master: Optional[Relation],
    assigned: Set[str],
) -> bool:
    """Check the constraints decidable from the *assigned* attributes.

    Partial assignments are pruned with constant CFDs whose scope is fully
    assigned; MDs are checked once every premise and RHS attribute is
    assigned.
    """
    for cfd in cfds:
        scope = set(cfd.lhs) | set(cfd.rhs)
        if not scope <= assigned:
            continue
        if cfd.lhs_matches(t) and not cfd.rhs_matches(t):
            return False
    if master is not None:
        for md in mds:
            needed = set(md.lhs_attrs()) | set(md.rhs_attrs())
            if not needed <= assigned:
                continue
            for s in master:
                if md.premise_holds(t, s) and not md.identified(t, s):
                    return False
    return True


def find_witness(
    schema: Schema,
    cfds: Sequence[CFD],
    mds: Sequence[MD] = (),
    master: Optional[Relation] = None,
    max_assignments: int = 2_000_000,
) -> Optional[CTuple]:
    """Search for a single-tuple witness of consistency.

    Returns a tuple ``t`` with ``{t} ⊨ Σ`` and ``({t}, Dm) ⊨ Γ``, or
    ``None`` when no witness exists (Σ ∪ Γ inconsistent).

    Parameters
    ----------
    max_assignments:
        Budget on explored (partial) assignments; exceeded budgets raise
        ``RecursionError``-free ``InconsistentRulesError`` is *not* raised
        — instead a ``RuntimeError`` signals the search was inconclusive.
    """
    normalized_cfds: List[CFD] = []
    for cfd in cfds:
        normalized_cfds.extend(cfd.normalize())
    normalized_mds: List[MD] = []
    for md in mds:
        normalized_mds.extend(md.normalize())
    domains = active_domains(schema, normalized_cfds, normalized_mds, master)
    # Assign most-constrained attributes first: attributes mentioned by
    # many constant patterns come early so pruning bites.
    mention_count: Dict[str, int] = {name: 0 for name in schema.names}
    for cfd in normalized_cfds:
        for attr in cfd.attributes():
            mention_count[attr] += 1
    for md in normalized_mds:
        for attr in md.lhs_attrs() + md.rhs_attrs():
            mention_count[attr] += 1
    order = sorted(schema.names, key=lambda a: (-mention_count[a], a))

    t = CTuple(schema, {})
    t.tid = 0
    budget = max_assignments

    def backtrack(position: int, assigned: Set[str]) -> bool:
        nonlocal budget
        if budget <= 0:
            raise RuntimeError("consistency search exceeded its assignment budget")
        if position == len(order):
            return True
        attr = order[position]
        for value in domains[attr]:
            budget -= 1
            t[attr] = value
            assigned.add(attr)
            if _single_tuple_ok(t, normalized_cfds, normalized_mds, master, assigned):
                if backtrack(position + 1, assigned):
                    return True
            assigned.discard(attr)
            t[attr] = NULL
        return False

    if backtrack(0, set()):
        return t
    return None


def is_consistent(
    schema: Schema,
    cfds: Sequence[CFD],
    mds: Sequence[MD] = (),
    master: Optional[Relation] = None,
) -> bool:
    """Whether ``Σ ∪ Γ`` admits a nonempty satisfying instance.

    Note that any set of MDs alone is consistent (Fan et al. 2011, recalled
    in Section 4.1): with Γ only, this always returns ``True``.
    """
    return find_witness(schema, cfds, mds, master) is not None


def assert_consistent(
    schema: Schema,
    cfds: Sequence[CFD],
    mds: Sequence[MD] = (),
    master: Optional[Relation] = None,
) -> None:
    """Raise :class:`InconsistentRulesError` when ``Σ ∪ Γ`` is inconsistent.

    Cleaning only makes sense for consistent rule sets ("it does not make
    sense to derive cleaning rules from Θ before Θ is assured consistent",
    Section 4.1); UniClean calls this before deriving rules.
    """
    if find_witness(schema, cfds, mds, master) is None:
        raise InconsistentRulesError(
            "the rule set Σ ∪ Γ admits no nonempty satisfying instance"
        )
