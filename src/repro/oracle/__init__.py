"""Per-tuple reference kernels: the test oracles of the production engine.

Production runs one engine: the interned column store, the ref-column
check, group-store and repair kernels, and the similarity join chosen by
``UniCleanConfig.match_engine``.  Every kernel replaced a per-tuple loop
that is easier to read and to trust; those loops live here, one seam per
layer, so property tests can check the kernels against them.

:func:`reference_kernels` swaps every oracle kernel in at its production
seam for the duration of a ``with`` block (the seam table is in
``docs/architecture.md``, "One production path, per-layer oracles").
:func:`cfd_member_tids` is only reached from the hRepair kernel path the
oracle replaces, so tests compare it directly; :class:`DictRelation` is
the dict-of-``CTuple`` layout, the memory comparator and fuzz model.

No production module imports this package (a tier-1 guard test checks
it); it is for tests and benchmarks only.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator
from unittest import mock

from repro.oracle.dict_relation import DictRelation
from repro.oracle.kernels import (
    apply_majority,
    bulk_index,
    cfd_member_tids,
    encode_cells,
    init_asserted,
    resolve_variable,
    scan_violations,
    value_groups,
)

__all__ = [
    "DictRelation",
    "apply_majority",
    "bulk_index",
    "cfd_member_tids",
    "encode_cells",
    "init_asserted",
    "reference_kernels",
    "resolve_variable",
    "scan_violations",
    "value_groups",
]


def _seams():
    from repro.analysis import consistency
    from repro.core.crepair import _CRepair
    from repro.core.erepair import _ERepair
    from repro.core.hrepair import _HRepair
    from repro.indexing.group_store import CFDGroupStore, MDGroupStore
    from repro.matching.simjoin import QGramIndex
    from repro.pipeline import payload

    return [
        (consistency, "_scan_violations", scan_violations),
        (CFDGroupStore, "bulk_index", bulk_index),
        (MDGroupStore, "bulk_index", bulk_index),
        (_CRepair, "_init_asserted", init_asserted),
        (_ERepair, "_apply_majority", apply_majority),
        (_HRepair, "resolve_variable", resolve_variable),
        (QGramIndex, "_value_groups", value_groups),
        (payload, "_encode_cells", encode_cells),
    ]


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Run the block on the per-tuple oracles instead of the kernels.

    The patches are process-local: shard workers in other processes keep
    the production kernels, so compare oracle runs in-process
    (``n_workers=1``).
    """
    with ExitStack() as stack:
        for owner, name, oracle in _seams():
            stack.enter_context(mock.patch.object(owner, name, oracle))
        yield
