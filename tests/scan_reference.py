"""The scalar reference solver of the ``no-hash`` variant: scan stores that find sets by comparing masks.

It grows the rows ``solve`` grows, in the same rounds and chunks, from the
scalar kernel's nodes (``_children``: (value, schedule) tuples whose cuts
are summed in the cut table's order).  Each row is a scan store: its sets
in the order they first come, each found by comparing masks from the
front.  Each chunk, a contiguous range of the row above's sets in store
order, fills a store of its own, and the chunks' stores merge into one,
in order.  Pairing scans the suffix store for each prefix's complement.
Every comparison of two masks is counted, so tests check ``solve``'s
sequence, objective and every counter against it, ``no-hash``'s
comparisons included.
"""

from __future__ import annotations

from dsmseq import Dsm, SolveReport, total_feedback_length
from dsmseq.solver import (
    _ROOT,
    BACKWARD,
    FORWARD,
    VARIANT_NO_HASH,
    Node,
    RowStats,
    _children,
    _part_bounds,
    _round_order,
    meeting_row,
)


class ScanStore:
    """A row as a list of (activity mask, node) pairs, in the order the sets first come, with the masks compared."""

    def __init__(self) -> None:
        self.masks: list[int] = []
        self.nodes: list[Node] = []
        self.comparisons = 0

    def install(self, mask: int, node: Node) -> None:
        """Keep the lower of ``node`` and the node held for ``mask``, found by comparing masks from the front."""
        try:
            index = self.masks.index(mask)
        except ValueError:
            self.comparisons += len(self.masks)
            self.masks.append(mask)
            self.nodes.append(node)
            return
        self.comparisons += index + 1
        if node < self.nodes[index]:
            self.nodes[index] = node

    def items(self) -> list[tuple[int, Node]]:
        return list(zip(self.masks, self.nodes))


def _store(d, parents: list[tuple[int, Node]], direction: str) -> tuple[ScanStore, int]:
    """The scan store of the children of ``parents``, parent by parent, and the children made."""
    store = ScanStore()
    expanded = 0
    for mask, node in _children(d, parents, direction, None):
        store.install(mask, node)
        expanded += 1
    return store, expanded


def scan_solve(dsm: Dsm, cn: int, na: int) -> SolveReport:
    """What ``solve`` reports for ``dsm`` with ``cn`` chunks meeting at row ``na`` under ``no-hash``, but the times.

    For n >= 4.
    """
    n = dsm.n
    na = meeting_row(na, n)
    stores = {direction: _store(dsm.d, [_ROOT], direction)[0] for direction in (FORWARD, BACKWARD)}
    sizes = {FORWARD: 1, BACKWARD: 1}
    rows = []
    for direction, workers in _round_order(VARIANT_NO_HASH, cn, na, n - na):
        sizes[direction] += 1
        parents = stores[direction].items()
        chunks = min(workers, len(parents))  # a row of k sets fills at most k chunks
        merged = ScanStore()
        expanded = transferred = comparisons = 0
        for start, stop in _part_bounds(len(parents), chunks):
            store, count = _store(dsm.d, parents[start:stop], direction)
            for mask, node in store.items():
                merged.install(mask, node)
            expanded += count
            transferred += len(store.masks)
            comparisons += store.comparisons
        stores[direction] = merged
        survivors = len(merged.masks)
        rows.append(RowStats(
            direction=direction, size=sizes[direction], workers=workers, chunks=chunks, expanded=expanded,
            pruned=expanded - survivors, survivors=survivors, transferred_records=transferred,
            comparisons=comparisons + merged.comparisons, seconds=0.0,
        ))
    suffixes = stores[BACKWARD]
    best: Node | None = None
    comparisons = 0
    for mask, (prefix_value, prefix) in stores[FORWARD].items():
        index = suffixes.masks.index(mask ^ (1 << n) - 1)
        comparisons += index + 1
        suffix_value, suffix = suffixes.nodes[index]
        candidate = (prefix_value + suffix_value, prefix + suffix)  # nodes order by value, then schedule
        if best is None or candidate < best:
            best = candidate
    return SolveReport(
        n=n, cn=cn, na=na, variant=VARIANT_NO_HASH, sequence=best[1], objective=total_feedback_length(dsm, best[1]),
        rows=rows, combination_comparisons=comparisons,
    )
