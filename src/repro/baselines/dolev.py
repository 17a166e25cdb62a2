"""Prior-work baselines: Dolev, Lenzen & Peled [24] ("Tri, tri again").

The combinatorial algorithms the paper's Table 1 compares against:

* **Triangle counting in ``O(n^{1/3})`` rounds** -- partition ``V`` into
  ``q ~ n^{1/3}`` groups; each of the ``q^3`` ordered group triples is
  assigned to a node, which learns the three bipartite edge sets between its
  groups (``O(n^{4/3})`` words per node, routed in ``O(n^{1/3})`` rounds)
  and counts the triangles ``a < b < c`` falling in its triple.  Because the
  groups are contiguous ranges, each triangle is counted by exactly one
  triple.

* **k-node subgraph detection in ``O(n^{1-2/k})`` rounds**, instantiated at
  ``k = 4`` for 4-cycle detection (the ``O(n^{1/2})`` Table 1 entry):
  partition into ``r ~ n^{1/4}`` groups, assign the ``r^4`` group 4-tuples
  to nodes, ship the four cyclically-adjacent bipartite edge sets
  (``O(n^{3/2})`` words per node -> ``O(n^{1/2})`` rounds), and test each
  tuple locally with two rectangular co-degree products.

These baselines give the benchmark harness its "prior work" round counts,
so the crossovers in Table 1 are measured rather than asserted.
"""

from __future__ import annotations

import numpy as np

from repro.clique.messages import block_widths
from repro.clique.model import CongestedClique, ScheduleMode
from repro.graphs.graphs import Graph
from repro.runtime import RunResult, or_broadcast, sum_broadcast


def _contiguous_groups(n: int, count: int) -> list[np.ndarray]:
    """Split ``0..n-1`` into ``count`` contiguous, nearly equal groups."""
    return [np.asarray(g, dtype=np.int64) for g in np.array_split(np.arange(n), count)]


def _distribute_slices(
    clique: CongestedClique,
    a: np.ndarray,
    groups: list[np.ndarray],
    pairs: list[tuple[tuple[int, int], ...]],
    phase: str,
):
    """Route every row slice a group tuple needs to the tuple's owner.

    Tuple ``t`` is owned by node ``t mod n`` (round-robin) and needs, for
    each of its group pairs ``pairs[t][k] = (ga, gb)``, the slice
    ``A[u, V_gb]`` from every row owner ``u`` in ``V_ga``.  Slices are
    zero-padded to the largest group so all pieces share one shape, tagged
    ``t * len(pairs[t]) + k``, and charged the width of the unpadded slice
    (at least one word).

    Returns ``received(v, t, k)``: the ``(|V_ga|, |V_gb|)`` block owner
    ``v`` of tuple ``t`` assembled from its inbox.
    """
    slots = len(pairs[0])
    side = max(g.size for g in groups)
    src, dst, tags, pieces, widths = [], [], [], [], []
    for t_idx, tuple_pairs in enumerate(pairs):
        for k, (ga, gb) in enumerate(tuple_pairs):
            rows = groups[ga]
            block = a[np.ix_(rows, groups[gb])]
            padded = np.zeros((rows.size, side), dtype=np.int64)
            padded[:, : block.shape[1]] = block
            src.append(rows)
            dst.append(np.full(rows.size, t_idx % clique.n, dtype=np.int64))
            tags.append(np.full(rows.size, t_idx * slots + k, dtype=np.int64))
            pieces.append(padded)
            widths.append(np.maximum(1, block_widths(block, clique.word_bits)))
    # Group the pieces by sender; each keeps its (tuple, slot) order.
    senders = np.concatenate(src)
    order = np.argsort(senders, kind="stable")
    bounds = np.searchsorted(senders[order], np.arange(clique.n + 1))

    def per_node(chunks: list[np.ndarray]) -> list[np.ndarray]:
        flat = np.concatenate(chunks)[order]
        return [flat[bounds[v] : bounds[v + 1]] for v in range(clique.n)]

    inboxes = clique.route_array(
        per_node(dst),
        per_node(pieces),
        widths=per_node(widths),
        tags=per_node(tags),
        phase=phase,
    )

    def received(v: int, t_idx: int, k: int) -> np.ndarray:
        # One piece per row owner, in ascending sender (= row) order.
        inbox = inboxes[v]
        gb = pairs[t_idx][k][1]
        return inbox.blocks[inbox.tags == t_idx * slots + k][:, : groups[gb].size]

    return received


def dolev_triangle_count(
    graph: Graph,
    *,
    clique: CongestedClique | None = None,
    mode: ScheduleMode = ScheduleMode.FAST,
) -> RunResult:
    """Dolev et al. deterministic triangle counting, ``O(n^{1/3})`` rounds."""
    if graph.directed:
        raise ValueError("the Dolev baseline is implemented for undirected graphs")
    n = graph.n
    clique = clique or CongestedClique(max(2, n), mode=mode)
    q = max(1, round(n ** (1.0 / 3.0)))
    groups = _contiguous_groups(n, q)
    triples = [(i, j, k) for i in range(q) for j in range(q) for k in range(q)]
    received = _distribute_slices(
        clique,
        graph.adjacency,
        groups,
        [((i, j), (j, k), (i, k)) for i, j, k in triples],
        phase="dolev-tri/distribute",
    )

    local_counts = [0] * clique.n
    for v in range(clique.n):
        # Node v owns triples v, v + n, v + 2n, ...
        for t_idx in range(v, len(triples), clique.n):
            i, j, k = triples[t_idx]
            ab, bc, ac = (received(v, t_idx, slot) for slot in range(3))
            local_counts[v] += _count_ordered_triangles(
                groups[i], groups[j], groups[k], ab, bc, ac
            )
    total = sum_broadcast(clique, local_counts, phase="dolev-tri/sum", words=3)
    return RunResult(
        value=total,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"groups": q},
    )


def _count_ordered_triangles(
    ga: np.ndarray,
    gb: np.ndarray,
    gc: np.ndarray,
    ab: np.ndarray,
    bc: np.ndarray,
    ac: np.ndarray,
) -> int:
    """Triangles ``a < b < c`` with ``a in ga, b in gb, c in gc``.

    ``ab[x, y] = A[ga[x], gb[y]]`` etc.  Vectorised over the group blocks
    with explicit ordering masks, so overlapping groups never double count.
    """
    lt_ab = ga[:, None] < gb[None, :]
    lt_bc = gb[:, None] < gc[None, :]
    total = 0
    for x in range(len(ga)):
        row_ab = ab[x] * lt_ab[x]
        if not row_ab.any():
            continue
        row_ac = ac[x]
        # For each b adjacent to a (with a < b), count c > b adjacent to both.
        valid_b = np.nonzero(row_ab)[0]
        for y in valid_b:
            total += int(np.sum(bc[y] * lt_bc[y] * row_ac))
    return total


def dolev_four_cycle_detect(
    graph: Graph,
    *,
    clique: CongestedClique | None = None,
    mode: ScheduleMode = ScheduleMode.FAST,
) -> RunResult:
    """Dolev et al. 4-node subgraph detection at C4: ``O(n^{1/2})`` rounds."""
    if graph.directed:
        raise ValueError("the Dolev baseline is implemented for undirected graphs")
    n = graph.n
    clique = clique or CongestedClique(max(2, n), mode=mode)
    r = max(1, round(n ** 0.25))
    groups = _contiguous_groups(n, r)
    tuples = [
        (i, j, k, l)
        for i in range(r)
        for j in range(r)
        for k in range(r)
        for l in range(r)
    ]
    # The cycle's four bipartite edge sets: (i,j), (j,k), (k,l), (l,i).
    received = _distribute_slices(
        clique,
        graph.adjacency,
        groups,
        [((i, j), (j, k), (k, l), (l, i)) for i, j, k, l in tuples],
        phase="dolev-c4/distribute",
    )

    found = [False] * clique.n
    for v in range(clique.n):
        for t_idx in range(v, len(tuples), clique.n):
            i, j, k, l = tuples[t_idx]
            ab, bc, cd, da = (received(v, t_idx, slot) for slot in range(4))
            if _tuple_has_c4(groups[i], groups[k], j == l, ab, bc, cd, da):
                found[v] = True
                break
    verdict = or_broadcast(clique, found, phase="dolev-c4/verdict")
    return RunResult(
        value=verdict,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"groups": r},
    )


def _tuple_has_c4(
    gi: np.ndarray,
    gk: np.ndarray,
    same_bd_group: bool,
    ab: np.ndarray,
    bc: np.ndarray,
    cd: np.ndarray,
    da: np.ndarray,
) -> bool:
    """C4 test within one group tuple via two co-degree products.

    ``w1[a, c]`` counts ``b in Vj`` adjacent to both; ``w2[a, c]`` counts
    ``d in Vl`` adjacent to both.  A 4-cycle needs ``a != c`` and two
    *distinct* middle nodes; when ``Vj == Vl`` the two counts range over the
    same candidate set, so at least two candidates are required.
    """
    w1 = ab @ bc  # (a, c) via b
    w2 = (cd @ da).T  # (a, c) via d
    distinct = gi[:, None] != gk[None, :]
    if same_bd_group:
        return bool(np.any((w1 >= 2) & distinct))
    return bool(np.any((w1 >= 1) & (w2 >= 1) & distinct))


__all__ = ["dolev_triangle_count", "dolev_four_cycle_detect"]
