"""MD-based record matching against master data.

Record matching in this paper identifies tuples of the dirty relation
``D`` with master tuples of ``Dm`` via MD premises (Section 2.2).  The
evaluation of Exp-2 measures match quality as the set of ``(tid,
master_tid)`` pairs an approach discovers; UniClean's matches are read off
the repaired relation (whose attributes have been corrected, letting MD
premises fire), while the baseline matches on the dirty data directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.constraints.md import MD
from repro.indexing.blocking import MDBlockingIndex
from repro.relational.relation import Relation


@dataclass
class MatchResult:
    """Discovered matches: pairs of ``(data tid, master tid)``."""

    pairs: Set[Tuple[int, int]] = field(default_factory=set)
    comparisons: int = 0

    def matched_tids(self) -> Set[int]:
        """Data-side tids participating in at least one match."""
        return {tid for tid, _ in self.pairs}


class MDMatcher:
    """Match data tuples to master tuples with MD premises.

    Parameters
    ----------
    mds:
        The MDs Γ; each (normalized) MD contributes matches through its
        premise.  A pair matches when the premise of *any* MD holds.
    master:
        Master data ``Dm``.
    top_l, use_suffix_tree:
        Blocking parameters (Section 5.2).
    engine:
        MD match engine: ``"join"`` (default) or ``"reference"``.
    """

    def __init__(
        self,
        mds: Sequence[MD],
        master: Relation,
        top_l: int = 20,
        use_suffix_tree: bool = True,
        engine: str = "join",
    ):
        self.master = master
        self.mds: List[MD] = []
        for md in mds:
            self.mds.extend(md.normalize())
        self.indexes = [
            MDBlockingIndex(
                md, master, top_l=top_l, use_suffix_tree=use_suffix_tree, engine=engine
            )
            for md in self.mds
        ]

    def match(self, relation: Relation) -> MatchResult:
        """All ``(tid, master_tid)`` pairs matched by some MD premise."""
        result = MatchResult()
        for index in self.indexes:
            for t in relation:
                candidates = index.candidates(t)
                result.comparisons += len(candidates)
                for s in candidates:
                    if index.md.premise_holds(t, s):
                        result.pairs.add((t.tid, s.tid))  # type: ignore[arg-type]
        return result


def match_after_cleaning(
    repaired: Relation,
    mds: Sequence[MD],
    master: Relation,
    top_l: int = 20,
    use_suffix_tree: bool = True,
    engine: str = "join",
) -> MatchResult:
    """Matches read off a (repaired) relation — UniClean's Exp-2 output.

    "Repairing helps matching": running the same MD premises on the
    repaired relation discovers matches the dirty data hides.
    """
    matcher = MDMatcher(
        mds, master, top_l=top_l, use_suffix_tree=use_suffix_tree, engine=engine
    )
    return matcher.match(repaired)
