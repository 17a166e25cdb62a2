"""Seeded case grid behind the golden bill fixtures in ``tests/golden/``.

Each fixture file holds, per case, the frozen :meth:`CostMeter.to_dict`
bill of one exchange or algorithm run on the per-payload tuple messaging
path that the simulator once carried beside the array path.  The inputs
are not stored: they are rebuilt here from each case's JSON ``params``
(seeded generators only), and the fixture keeps a digest of them so a
drifting generator fails loudly instead of as a bill mismatch.

Families (one JSON file each):

* ``primitives`` -- random routed/direct exchanges and the one-round
  transpose;
* ``allgather`` -- the Dolev et al. learn-everything replication;
* ``bilinear`` -- the §2.2 engine's four exchanges (Strassen and classical
  algorithms, integer and polynomial rings);
* ``witnesses`` -- the Lemma 21 candidate-validation hops;
* ``four_cycle`` -- the Theorem 4 walk exchanges;
* ``dolev`` -- the prior-work triangle and 4-cycle baselines;
* ``counting`` -- the transpose steps of directed cycle counting and
  colour coding.

Every family is recorded in both schedule modes (``fast`` and ``exact``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.algebra.bilinear import classical, strassen_power
from repro.algebra.polynomial import encode_minplus
from repro.algebra.semirings import MIN_PLUS
from repro.clique.model import ScheduleMode
from repro.constants import INF
from repro.graphs import (
    bipartite_random_graph,
    cycle_graph,
    gnp_random_graph,
    windmill_graph,
)
from repro.graphs.graphs import Graph

GOLDEN_DIR = Path(__file__).parent / "golden"

FAMILIES = (
    "primitives",
    "allgather",
    "bilinear",
    "witnesses",
    "four_cycle",
    "dolev",
    "counting",
)

MODES = {"fast": ScheduleMode.FAST, "exact": ScheduleMode.EXACT}

#: Word size of the primitive-level cases (matches the width helpers' tests).
PRIMITIVE_WORD_BITS = 16


def digest(*arrays: np.ndarray) -> str:
    """sha256 over the dtype, shape and bytes of each array, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def load_fixture(family: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{family}.json").read_text())


# --------------------------------------------------------------------- #
# The grid
# --------------------------------------------------------------------- #


def _both_modes(params_list: list[dict]) -> list[dict]:
    return [dict(p, mode=mode) for mode in MODES for p in params_list]


def cases(family: str) -> list[dict]:
    """The seeded parameter grid of one fixture family."""
    if family == "primitives":
        grid = [{"kind": "route", "seed": s} for s in range(12)]
        grid += [{"kind": "send", "seed": s} for s in range(6)]
        grid += [{"kind": "transpose", "seed": 0, "words": w} for w in (1, 3)]
        return _both_modes(grid)
    if family == "allgather":
        grid = [{"seed": s, "words_per_record": 2} for s in range(8)]
        grid += [{"seed": s, "words_per_record": 1} for s in range(8, 11)]
        return _both_modes(grid)
    if family == "bilinear":
        fast = [
            {"n": 16, "algorithm": "strassen", "entries": "small", "seed": 0},
            {"n": 16, "algorithm": "strassen", "entries": "small", "seed": 1},
            {"n": 25, "algorithm": "strassen", "entries": "small", "seed": 0},
            {"n": 49, "algorithm": "strassen", "entries": "small", "seed": 0},
            {"n": 4, "algorithm": "strassen0", "entries": "small", "seed": 0},
            {"n": 16, "algorithm": "classical2", "entries": "small", "seed": 0},
            {"n": 25, "algorithm": "classical2", "entries": "small", "seed": 0},
            {"n": 64, "algorithm": "classical4", "entries": "small", "seed": 0},
            {"n": 16, "algorithm": "strassen", "entries": "wide", "seed": 0},
            {"n": 16, "algorithm": "classical2", "entries": "fifty", "seed": 0},
            {"n": 16, "algorithm": "strassen", "entries": "poly", "seed": 0},
            {"n": 16, "algorithm": "classical2", "entries": "poly", "seed": 1},
        ]
        exact = [
            {"n": 16, "algorithm": "strassen", "entries": "ternary", "seed": 0},
            {"n": 25, "algorithm": "strassen", "entries": "small", "seed": 0},
            {"n": 16, "algorithm": "classical2", "entries": "small", "seed": 0},
            {"n": 16, "algorithm": "strassen", "entries": "wide", "seed": 0},
            {"n": 16, "algorithm": "strassen", "entries": "poly", "seed": 0},
        ]
        return [dict(p, mode="fast") for p in fast] + [
            dict(p, mode="exact") for p in exact
        ]
    if family == "witnesses":
        return _both_modes([{"seed": s} for s in range(6)])
    if family == "four_cycle":
        graphs = [
            {"graph": ["gnp", 20, 0.1, 0]},
            {"graph": ["gnp", 20, 0.2, 1]},
            {"graph": ["gnp", 20, 0.35, 2]},
            {"graph": ["gnp", 64, 0.04, 3]},
            {"graph": ["windmill", 33]},
            {"graph": ["cycle", 7]},
            {"graph": ["cycle", 4]},
            {"graph": ["bipartite", 48, 0.0625, 7]},
        ]
        return _both_modes(graphs)
    if family == "dolev":
        grid = [
            {"problem": "triangles", "graph": ["gnp", n, 0.35, n]}
            for n in (6, 20, 27, 40)
        ]
        grid += [
            {"problem": "four_cycles", "graph": spec}
            for spec in (
                ["gnp", 18, 0.05, 1],
                ["gnp", 18, 0.3, 2],
                ["gnp", 40, 0.05, 3],
                ["cycle", 4],
                ["windmill", 25],
            )
        ]
        return _both_modes(grid)
    if family == "counting":
        grid = [
            {"problem": "triangles", "graph": ["gnp_directed", 12, 0.3, 0]},
            {"problem": "four_cycles", "graph": ["gnp_directed", 12, 0.3, 1]},
            {"problem": "five_cycles", "graph": ["gnp", 12, 0.4, 2]},
            {
                "problem": "k_cycle",
                "k": 3,
                "trials": 4,
                "graph": ["gnp_directed", 9, 0.5, 3],
            },
            {
                "problem": "k_cycle",
                "k": 4,
                "trials": 4,
                "graph": ["cycle_directed", 8],
            },
        ]
        return _both_modes(grid)
    raise KeyError(family)


def case_id(params: dict) -> str:
    """A stable, readable id for one case (the pytest parameter id)."""
    parts = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, list):
            value = "-".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    return ",".join(parts)


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


def build_graph(spec: list) -> Graph:
    kind, *args = spec
    if kind == "gnp":
        n, p, seed = args
        return gnp_random_graph(n, p, seed=seed)
    if kind == "gnp_directed":
        n, p, seed = args
        return gnp_random_graph(n, p, seed=seed, directed=True)
    if kind == "windmill":
        return windmill_graph(args[0])
    if kind == "cycle":
        return cycle_graph(args[0])
    if kind == "cycle_directed":
        return cycle_graph(args[0], directed=True)
    if kind == "bipartite":
        n, p, seed = args
        return bipartite_random_graph(n, p, seed=seed)
    raise KeyError(kind)


def exchange_inputs(params: dict) -> tuple[int, list[np.ndarray], list[np.ndarray]]:
    """A random exchange: ``(n, dests, blocks)`` with per-node piece stacks."""
    rng = np.random.default_rng(params["seed"])
    exact = params["mode"] == "exact"
    n = int(rng.integers(2, 7 if exact else 12))
    piece_len = 2 if exact else 3
    dests, blocks = [], []
    for _ in range(n):
        p_v = int(rng.integers(0, 7))
        dests.append(rng.integers(0, n, p_v).astype(np.int64))
        blocks.append(rng.integers(-100, 100, (p_v, piece_len)).astype(np.int64))
    return n, dests, blocks


def transpose_input(params: dict) -> np.ndarray:
    rng = np.random.default_rng(params["seed"])
    return rng.integers(-50, 50, (6, 6)).astype(np.int64)


def allgather_inputs(params: dict) -> list[np.ndarray]:
    """Per-node ``(r_v, 2)`` record arrays."""
    rng = np.random.default_rng(params["seed"])
    n = int(rng.integers(2, 10))
    return [
        rng.integers(0, 50, (int(rng.integers(0, 6)), 2)).astype(np.int64)
        for _ in range(n)
    ]


def bilinear_algorithm(name: str):
    return {
        "strassen": None,
        "strassen0": strassen_power(0),
        "classical2": classical(2),
        "classical4": classical(4),
    }[name]


def bilinear_inputs(params: dict) -> tuple[np.ndarray, np.ndarray]:
    """The operand pair; ``poly`` entries are min-plus polynomial encodings."""
    rng = np.random.default_rng(params["seed"])
    n = params["n"]
    entries = params["entries"]
    if entries == "small":
        s = rng.integers(-9, 10, (n, n), dtype=np.int64)
        t = rng.integers(-9, 10, (n, n), dtype=np.int64)
    elif entries == "ternary":
        s = rng.integers(0, 3, (n, n), dtype=np.int64)
        t = rng.integers(0, 3, (n, n), dtype=np.int64)
    elif entries == "wide":
        s = rng.integers(-(2**40), 2**40, (n, n), dtype=np.int64)
        t = rng.integers(-3, 4, (n, n), dtype=np.int64)
    elif entries == "fifty":
        s = np.full((n, n), 50, dtype=np.int64)
        t = np.full((n, n), 50, dtype=np.int64)
    elif entries == "poly":
        s = encode_minplus(rng.integers(0, 4, (n, n), dtype=np.int64), 3, 4)
        t = encode_minplus(rng.integers(0, 4, (n, n), dtype=np.int64), 3, 4)
    else:
        raise KeyError(entries)
    return s, t


def witness_inputs(params: dict):
    """``(s, t, p, candidates, needed)`` for one validation instance."""
    rng = np.random.default_rng(params["seed"])
    n = int(rng.integers(4, 16))
    s = rng.integers(0, 6, (n, n), dtype=np.int64)
    t = rng.integers(0, 6, (n, n), dtype=np.int64)
    s[rng.random((n, n)) < 0.2] = INF
    t[rng.random((n, n)) < 0.2] = INF
    p = MIN_PLUS.matmul(s, t)
    candidates = rng.integers(-1, n, (n, n), dtype=np.int64)
    needed = rng.random((n, n)) < 0.5
    return s, t, p, candidates, needed


def validation_reference(s, t, p, candidates, needed) -> np.ndarray:
    """Centralised verdict: the candidate is in range and attains ``p``."""
    n = s.shape[0]
    u, v = np.indices((n, n))
    w = candidates
    in_range = (w >= 0) & (w < n)
    wc = np.clip(w, 0, n - 1)
    s_uw = s[u, wc]
    t_wv = t[wc, v]
    attains = (s_uw < INF) & (t_wv < INF) & (s_uw + t_wv == p)
    return needed & in_range & attains


def input_digest(family: str, params: dict) -> str:
    """Digest of the rebuilt inputs of one case."""
    if family == "primitives":
        if params["kind"] == "transpose":
            return digest(transpose_input(params))
        _n, dests, blocks = exchange_inputs(params)
        return digest(*dests, *blocks)
    if family == "allgather":
        return digest(*allgather_inputs(params))
    if family == "bilinear":
        return digest(*bilinear_inputs(params))
    if family == "witnesses":
        return digest(*witness_inputs(params))
    return digest(build_graph(params["graph"]).adjacency)
