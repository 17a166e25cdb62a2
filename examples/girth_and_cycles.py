#!/usr/bin/env python
"""Girth computation and k-cycle detection (§3.2, Theorem 3).

Workloads exercising both branches of Theorem 15: a sparse graph whose
structure every node simply learns (O(m/n) rounds), and a dense graph where
colour-coding detection takes over.  Also shows directed girth
(Corollary 16) and explicit k-cycle detection with its certificate
semantics (positives are certified; completeness is probabilistic).

Run: ``python examples/girth_and_cycles.py [n]`` (default 36).
"""

from __future__ import annotations

import sys

import numpy as np

from repro import detect_k_cycle, girth_directed, girth_undirected
from repro.graphs import (
    cycle_graph,
    cycle_with_trees,
    dense_small_girth_graph,
    girth_reference,
    planted_cycle_graph,
)


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 36
    rng = np.random.default_rng(1)

    sparse = cycle_with_trees(n, girth=7, seed=3)
    res = girth_undirected(sparse)
    print(f"sparse graph  (m={sparse.edge_count:4d}): girth={res.value} "
          f"[{res.rounds} rounds, branch={res.extras['branch']}, "
          f"reference={girth_reference(sparse)}]")

    dense = dense_small_girth_graph(min(n, 25), seed=4)
    res = girth_undirected(dense, trials_per_k=10, rng=rng)
    print(f"dense graph   (m={dense.edge_count:4d}): girth={res.value} "
          f"[{res.rounds} rounds, branch={res.extras['branch']}, "
          f"reference={girth_reference(dense)}]")

    ring = cycle_graph(n - 1, directed=True)
    res = girth_directed(ring)
    print(f"directed C_{n-1}          : girth={res.value} "
          f"[{res.rounds} rounds, {res.extras['boolean_products']} Boolean "
          f"products]")

    planted = planted_cycle_graph(n, 5, seed=9, extra_edge_prob=0.5)
    res = detect_k_cycle(planted, 5, trials=30, rng=rng)
    print(f"planted C5 detection      : found={res.value} "
          f"[{res.extras['trials_used']} colourings, {res.rounds} rounds]")

    tree_like = cycle_with_trees(n, girth=9, seed=5)
    res = detect_k_cycle(tree_like, 5, trials=5, rng=rng)
    print(f"C5 detection on girth-9   : found={res.value} "
          f"(soundness: no false positives, ever)")
    assert not res.value

    # Girth's Boolean products ride the §2.2 engine; its product must equal
    # the centralised one.
    from repro.clique import CongestedClique
    from repro.matmul.bilinear_clique import bilinear_matmul
    from repro.matmul.layout import next_square
    from repro.runtime import pad_matrix

    nsq = next_square(planted.n)
    adj = pad_matrix(planted.adjacency, nsq)
    clique = CongestedClique(nsq)
    assert (bilinear_matmul(clique, adj, adj) == adj @ adj).all()
    print(f"engine check: bilinear product == centralised A @ A"
          f" ({clique.rounds} rounds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
