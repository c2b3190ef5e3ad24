"""Experiment harness regenerating the paper's evaluation (Section 8).

One function per experiment family:

* :func:`exp1_matching_helps_repairing` — Fig. 10: repairing F-measure of
  Uni vs Uni(CFD) vs quaid across noise rates;
* :func:`exp2_repairing_helps_matching` — Fig. 11: matching quality of
  Uni vs SortN(MD) across noise rates;
* :func:`exp3_fix_accuracy` — Fig. 12: precision/recall of cRepair,
  cRepair+eRepair and the full pipeline;
* :func:`exp4_deterministic_fixes` — Fig. 13: % deterministic fixes vs
  dup% and asr%;
* :func:`exp5_scalability` — Fig. 14: phase runtimes vs |D|, |Dm|, |Σ|,
  |Γ|.

Each returns a list of plain-dict rows (JSON-friendly) so benchmarks and
EXPERIMENTS.md tables can render them directly via :func:`format_table`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.quaid import quaid
from repro.core.fixes import FixKind
from repro.core.uniclean import CleaningResult, UniClean, UniCleanConfig
from repro.datasets.dblp import generate_dblp
from repro.datasets.generator import DirtyDataset
from repro.datasets.hosp import generate_hosp
from repro.datasets.partitioned import generate_partitioned
from repro.datasets.tpch import generate_tpch
from repro.evaluation.metrics import Metrics, matching_metrics, repair_metrics
from repro.matching.matcher import MDMatcher
from repro.matching.sortn import SortedNeighborhood

GENERATORS: Dict[str, Callable[..., DirtyDataset]] = {
    "hosp": generate_hosp,
    "dblp": generate_dblp,
    "tpch": generate_tpch,
    "partitioned": generate_partitioned,
}


def generate(dataset: str, **params: Any) -> DirtyDataset:
    """Dispatch to the named dataset generator."""
    if dataset not in GENERATORS:
        raise ValueError(f"unknown dataset {dataset!r}; choose from {sorted(GENERATORS)}")
    return GENERATORS[dataset](**params)


def run_uniclean(
    ds: DirtyDataset,
    config: Optional[UniCleanConfig] = None,
    with_mds: bool = True,
) -> CleaningResult:
    """Run UniClean (optionally CFD-only) on a generated dataset."""
    cleaner = UniClean(
        cfds=ds.cfds,
        mds=ds.mds if with_mds else (),
        master=ds.master if with_mds else None,
        config=config,
    )
    return cleaner.clean(ds.dirty)


def _default_config() -> UniCleanConfig:
    """The paper's experimental settings: η = 1.0, δ2 = 0.8 (Section 8)."""
    return UniCleanConfig(eta=1.0, delta2=0.8)


# ----------------------------------------------------------------------
# Exp-1: matching helps repairing (Fig. 10)
# ----------------------------------------------------------------------
def exp1_matching_helps_repairing(
    dataset: str = "hosp",
    noise_rates: Sequence[float] = (0.02, 0.04, 0.06, 0.08, 0.10),
    size: int = 300,
    master_size: int = 150,
    duplicate_rate: float = 0.4,
    asserted_rate: float = 0.4,
    seed: int = 7,
) -> List[Dict[str, Any]]:
    """Repairing F-measure of Uni, Uni(CFD) and quaid per noise rate."""
    rows: List[Dict[str, Any]] = []
    for noise in noise_rates:
        ds = generate(
            dataset,
            size=size,
            master_size=master_size,
            noise_rate=noise,
            duplicate_rate=duplicate_rate,
            asserted_rate=asserted_rate,
            seed=seed,
        )
        uni = run_uniclean(ds, _default_config())
        uni_metrics = repair_metrics(ds.dirty, uni.repaired, ds.clean)
        unicfd = run_uniclean(ds, _default_config(), with_mds=False)
        unicfd_metrics = repair_metrics(ds.dirty, unicfd.repaired, ds.clean)
        q = quaid(ds.dirty, ds.cfds)
        quaid_metrics = repair_metrics(ds.dirty, q.repaired, ds.clean)
        rows.append(
            {
                "dataset": dataset,
                "noise_rate": noise,
                "uni_f1": uni_metrics.f1,
                "uni_cfd_f1": unicfd_metrics.f1,
                "quaid_f1": quaid_metrics.f1,
                "uni_precision": uni_metrics.precision,
                "uni_recall": uni_metrics.recall,
                "errors": len(ds.errors),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Exp-2: repairing helps matching (Fig. 11)
# ----------------------------------------------------------------------
def exp2_repairing_helps_matching(
    dataset: str = "hosp",
    noise_rates: Sequence[float] = (0.02, 0.04, 0.06, 0.08, 0.10),
    size: int = 300,
    master_size: int = 150,
    duplicate_rate: float = 0.4,
    asserted_rate: float = 0.4,
    window: int = 10,
    seed: int = 7,
) -> List[Dict[str, Any]]:
    """Matching F-measure of Uni (match after repair) vs SortN(MD)."""
    rows: List[Dict[str, Any]] = []
    for noise in noise_rates:
        ds = generate(
            dataset,
            size=size,
            master_size=master_size,
            noise_rate=noise,
            duplicate_rate=duplicate_rate,
            asserted_rate=asserted_rate,
            seed=seed,
        )
        uni = run_uniclean(ds, _default_config())
        matcher = MDMatcher(ds.mds, ds.master)
        uni_match = matcher.match(uni.repaired)
        uni_metrics = matching_metrics(uni_match.pairs, ds.true_matches)
        sortn = SortedNeighborhood(ds.mds, ds.master, window=window)
        sortn_match = sortn.match(ds.dirty)
        sortn_metrics = matching_metrics(sortn_match.pairs, ds.true_matches)
        rows.append(
            {
                "dataset": dataset,
                "noise_rate": noise,
                "uni_f1": uni_metrics.f1,
                "sortn_f1": sortn_metrics.f1,
                "uni_recall": uni_metrics.recall,
                "sortn_recall": sortn_metrics.recall,
                "true_matches": len(ds.true_matches),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Exp-3: accuracy of deterministic and reliable fixes (Fig. 12)
# ----------------------------------------------------------------------
def exp3_fix_accuracy(
    dataset: str = "hosp",
    noise_rates: Sequence[float] = (0.02, 0.04, 0.06, 0.08, 0.10),
    size: int = 300,
    master_size: int = 150,
    duplicate_rate: float = 0.4,
    asserted_rate: float = 0.4,
    seed: int = 7,
) -> List[Dict[str, Any]]:
    """Precision/recall of cRepair, cRepair+eRepair and full Uni."""
    rows: List[Dict[str, Any]] = []
    for noise in noise_rates:
        ds = generate(
            dataset,
            size=size,
            master_size=master_size,
            noise_rate=noise,
            duplicate_rate=duplicate_rate,
            asserted_rate=asserted_rate,
            seed=seed,
        )
        base = _default_config()
        c_only = UniCleanConfig(**{**base.__dict__, "run_erepair": False, "run_hrepair": False})
        ce = UniCleanConfig(**{**base.__dict__, "run_hrepair": False})
        result_c = run_uniclean(ds, c_only)
        result_ce = run_uniclean(ds, ce)
        result_full = run_uniclean(ds, base)
        m_c = repair_metrics(ds.dirty, result_c.repaired, ds.clean)
        m_ce = repair_metrics(ds.dirty, result_ce.repaired, ds.clean)
        m_full = repair_metrics(ds.dirty, result_full.repaired, ds.clean)
        rows.append(
            {
                "dataset": dataset,
                "noise_rate": noise,
                "crepair_precision": m_c.precision,
                "crepair_recall": m_c.recall,
                "ce_precision": m_ce.precision,
                "ce_recall": m_ce.recall,
                "uni_precision": m_full.precision,
                "uni_recall": m_full.recall,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Exp-4: impact of dup% and asr% on deterministic fixes (Fig. 13)
# ----------------------------------------------------------------------
def exp4_deterministic_fixes(
    dataset: str = "hosp",
    duplicate_rates: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    asserted_rates: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8),
    size: int = 300,
    master_size: int = 150,
    noise_rate: float = 0.06,
    seed: int = 7,
) -> Dict[str, List[Dict[str, Any]]]:
    """Percentage of errors receiving a deterministic fix.

    Returns two sweeps: ``"by_dup"`` (asr fixed at 40%) and ``"by_asr"``
    (dup fixed at 40%), as in Figs. 13(a) and 13(b).
    """

    def det_percentage(ds: DirtyDataset) -> float:
        result = run_uniclean(
            ds,
            UniCleanConfig(eta=1.0, run_erepair=False, run_hrepair=False),
        )
        det_cells = result.fix_log.marked_cells(FixKind.DETERMINISTIC)
        if not ds.errors:
            return 0.0
        return 100.0 * len(det_cells & ds.errors) / len(ds.errors)

    by_dup: List[Dict[str, Any]] = []
    for dup in duplicate_rates:
        ds = generate(
            dataset,
            size=size,
            master_size=master_size,
            noise_rate=noise_rate,
            duplicate_rate=dup,
            asserted_rate=0.4,
            seed=seed,
        )
        by_dup.append(
            {"dataset": dataset, "duplicate_rate": dup, "det_pct": det_percentage(ds)}
        )
    by_asr: List[Dict[str, Any]] = []
    for asr in asserted_rates:
        ds = generate(
            dataset,
            size=size,
            master_size=master_size,
            noise_rate=noise_rate,
            duplicate_rate=0.4,
            asserted_rate=asr,
            seed=seed,
        )
        by_asr.append(
            {"dataset": dataset, "asserted_rate": asr, "det_pct": det_percentage(ds)}
        )
    return {"by_dup": by_dup, "by_asr": by_asr}


# ----------------------------------------------------------------------
# Exp-5: scalability (Fig. 14)
# ----------------------------------------------------------------------
def exp5_scalability(
    dataset: str = "hosp",
    vary: str = "D",
    values: Sequence[int] = (100, 200, 300, 400, 500),
    size: int = 300,
    master_size: int = 150,
    noise_rate: float = 0.06,
    duplicate_rate: float = 0.4,
    asserted_rate: float = 0.4,
    seed: int = 7,
    use_suffix_tree: bool = True,
    match_engine: str = "join",
) -> List[Dict[str, Any]]:
    """Phase runtimes while varying |D|, |Dm|, |Σ| or |Γ|.

    ``vary`` is one of ``"D"``, ``"Dm"``, ``"Sigma"``, ``"Gamma"``
    (Figs. 14a–h); |Σ|/|Γ| sweeps use the TPC-H generator's rule subsets.
    """
    rows: List[Dict[str, Any]] = []
    for value in values:
        params: Dict[str, Any] = dict(
            size=size,
            master_size=master_size,
            noise_rate=noise_rate,
            duplicate_rate=duplicate_rate,
            asserted_rate=asserted_rate,
            seed=seed,
        )
        if vary == "D":
            params["size"] = value
        elif vary == "Dm":
            params["master_size"] = value
        elif vary == "Sigma":
            if dataset != "tpch":
                raise ValueError("|Sigma| sweeps use the tpch dataset")
            params["n_cfds"] = value
        elif vary == "Gamma":
            if dataset != "tpch":
                raise ValueError("|Gamma| sweeps use the tpch dataset")
            params["n_mds"] = value
        else:
            raise ValueError(f"vary must be D, Dm, Sigma or Gamma, got {vary!r}")
        ds = generate(dataset, **params)
        config = UniCleanConfig(
            eta=1.0, use_suffix_tree=use_suffix_tree, match_engine=match_engine
        )
        result = run_uniclean(ds, config)
        rows.append(
            {
                "dataset": dataset,
                "vary": vary,
                "value": value,
                "crepair_s": result.timings.get("crepair", 0.0),
                "ce_s": result.timings.get("crepair", 0.0)
                + result.timings.get("erepair", 0.0),
                "total_s": result.total_time,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def format_table(rows: Sequence[Dict[str, Any]], title: str = "") -> str:
    """Render experiment rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)"
    columns = list(rows[0].keys())

    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    table = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in table)) for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
