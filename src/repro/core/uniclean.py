"""The UniClean pipeline (Section 3.2, Fig. 2).

UniClean takes a dirty relation ``D``, master data ``Dm``, cleaning rules
derived from ``Θ = Σ ∪ Γ`` and thresholds η (confidence) and δ1/δ2
(update/entropy), and produces a repair ``Dr`` with a small
``cost(Dr, D)`` such that ``Dr ⊨ Σ`` and ``(Dr, Dm) ⊨ Γ``, by running
three algorithms consecutively:

1. :func:`~repro.core.crepair.crepair` — deterministic fixes (confidence);
2. :func:`~repro.core.erepair.erepair` — reliable fixes (entropy);
3. :func:`~repro.core.hrepair.hrepair` — possible fixes (heuristic),
   preserving the deterministic fixes.

"There is no need to iterate the processes for the three types of fixes"
(Section 3.2, Remark) — each phase runs once, feeding the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Sequence

from repro.analysis.consistency import assert_consistent
from repro.constraints.cfd import CFD
from repro.constraints.md import MD, NegativeMD, embed_negative
from repro.core.crepair import CRepairResult
from repro.core.erepair import ERepairResult
from repro.core.fixes import FixKind, FixLog
from repro.core.hrepair import HRepairResult
from repro.indexing.blocking import MATCH_ENGINES
from repro.relational.relation import Relation


@dataclass
class UniCleanConfig:
    """Tunable parameters of the pipeline.

    Attributes
    ----------
    eta:
        Confidence threshold η for deterministic fixes (paper experiments
        use 1.0: only cells explicitly asserted by the user count).
    delta1:
        Update threshold δ1: max rewrites per cell in eRepair.
    delta2:
        Entropy threshold δ2 (paper experiments use 0.8).
    top_l:
        Top-``l`` LCS blocking fan-out for MD search (paper: l ≤ 20).
    use_suffix_tree:
        Disable to fall back to full master scans (ablation baseline).
    match_engine:
        MD match engine for blocking indexes: ``"join"`` (default;
        filtered inverted-index similarity join, exact) or
        ``"reference"`` (top-``l`` suffix-tree retrieval).  Validated at
        construction.  Configs pickled before this field existed, or
        with the former ``None`` default, load as ``"join"``.
    use_violation_index:
        Drive all three phases from the incremental
        :class:`~repro.indexing.violation_index.ViolationIndex` (dirty
        partitions instead of full-relation rescans).  ``False`` selects
        the legacy-scan baseline; fix logs are byte-identical either way.
    check_consistency:
        Run the (NP-complete) consistency analysis of Σ ∪ Γ before
        cleaning; enable for small hand-written rule sets.
    run_crepair / run_erepair / run_hrepair:
        Phase switches; disabling phases yields the partial pipelines
        compared in Exp-3 (``cRepair`` alone, ``cRepair+eRepair``, full).
    """

    eta: float = 0.8
    delta1: int = 3
    delta2: float = 0.8
    top_l: int = 20
    use_suffix_tree: bool = True
    match_engine: str = "join"
    use_violation_index: bool = True
    check_consistency: bool = False
    run_crepair: bool = True
    run_erepair: bool = True
    run_hrepair: bool = True

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Upgrade configs pickled before a field existed.

        Snapshots and checkpoints persist the config by pickling; every
        new engine flag added since (``match_engine`` today, any future
        field tomorrow) would otherwise be missing from old payloads and
        every reader would need a per-field ``getattr`` shim.  Centralize
        the forward-compat here instead: absent fields take their
        dataclass defaults, unknown (newer-writer) fields are kept as-is.
        A ``match_engine`` of ``None`` — the default before the field
        was validated, when it deferred to a process-wide flag whose
        default was ``"join"`` — loads as ``"join"``.
        """
        for f in fields(self):
            if f.name not in state:
                state[f.name] = f.default
        if state["match_engine"] is None:
            state["match_engine"] = "join"
        self.__dict__.update(state)

    def __post_init__(self) -> None:
        if self.match_engine not in MATCH_ENGINES:
            raise ValueError(
                f"unknown match engine {self.match_engine!r}; "
                f"expected one of {MATCH_ENGINES}"
            )


@dataclass
class CleaningResult:
    """The outcome of a full pipeline run."""

    repaired: Relation
    fix_log: FixLog
    crepair_result: Optional[CRepairResult]
    erepair_result: Optional[ERepairResult]
    hrepair_result: Optional[HRepairResult]
    cost: float
    clean: bool
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        """Total wall-clock seconds across phases."""
        return sum(self.timings.values())

    def fix_counts(self) -> Dict[FixKind, int]:
        """Cells per latest fix mark."""
        return self.fix_log.cell_counts()

    def summary(self) -> str:
        """Human-readable run summary."""
        counts = self.fix_counts()
        return (
            f"UniClean: {self.fix_log.summary()}; cost={self.cost:.3f}; "
            f"clean={self.clean}; time={self.total_time:.3f}s "
            f"(c={self.timings.get('crepair', 0.0):.3f}, "
            f"e={self.timings.get('erepair', 0.0):.3f}, "
            f"h={self.timings.get('hrepair', 0.0):.3f})"
        )


class UniClean:
    """The tri-level data cleaning system of the paper.

    Parameters
    ----------
    cfds:
        The CFD set Σ.
    mds:
        The positive-MD set Γ⁺.
    negative_mds:
        The negative-MD set Γ⁻, compiled into the positives via
        Proposition 2.6 at construction time.
    master:
        Master data ``Dm`` (required when MDs are present).
    config:
        Pipeline parameters; defaults follow the paper's experiments.

    Examples
    --------
    >>> cleaner = UniClean(cfds=sigma, mds=gamma, master=dm)  # doctest: +SKIP
    >>> result = cleaner.clean(dirty)                         # doctest: +SKIP
    >>> result.clean                                          # doctest: +SKIP
    True
    """

    def __init__(
        self,
        cfds: Sequence[CFD] = (),
        mds: Sequence[MD] = (),
        negative_mds: Sequence[NegativeMD] = (),
        master: Optional[Relation] = None,
        config: Optional[UniCleanConfig] = None,
    ):
        self.config = config or UniCleanConfig()
        self.cfds: list = []
        for cfd in cfds:
            self.cfds.extend(cfd.normalize())
        if negative_mds:
            self.mds = embed_negative(list(mds), list(negative_mds))
        else:
            self.mds = []
            for md in mds:
                self.mds.extend(md.normalize())
        if self.mds and master is None:
            raise ValueError("MDs require master data")
        self.master = master
        if self.config.check_consistency and self.cfds:
            schema = self.cfds[0].schema
            assert_consistent(schema, self.cfds, self.mds, master)
        # Master data is immutable, so the (expensive) master-side blocking
        # indexes — match cache included — persist across clean() calls for
        # repeated cleaning of evolving data against the same master.
        self._md_indexes: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def clean(self, relation: Relation) -> CleaningResult:
        """Run the configured phases on *relation* and return the repair.

        The input relation is never modified.  Each call runs a throwaway
        :class:`~repro.pipeline.session.CleaningSession` — the one-shot
        batch pipeline is the degenerate case of the persistent engine —
        sharing this instance's master-side blocking indexes.  Callers
        that clean *evolving* data should hold a session directly and use
        its delta-driven ``apply``.
        """
        from repro.pipeline.session import CleaningSession

        session = CleaningSession.from_normalized(
            cfds=self.cfds,
            mds=self.mds,
            master=self.master,
            config=self.config,
            md_indexes=self._md_indexes,
        )
        try:
            return session.clean(relation)
        finally:
            session.close()
