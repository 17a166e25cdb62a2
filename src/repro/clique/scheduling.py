"""Communication schedules for the congested clique.

The model constraint is: in one round, each ordered pair of nodes exchanges at
most one word.  Three kinds of schedules are built here.

* **Direct schedules** ship every message straight from source to destination;
  the round count is the maximum, over ordered pairs, of the number of words
  that pair must carry.

* **Relay schedules** implement the routing theorem of Lenzen [46] (and the
  oblivious variant of Dolev et al. [24]) used throughout the paper: if every
  node sends at most ``L`` words and receives at most ``L`` words, all
  messages can be delivered in ``O(L / n)`` rounds.  The construction:

  1. View the messages as a bipartite multigraph (senders vs. receivers, one
     edge per word) with maximum degree ``L``.
  2. Edge-colour it into matchings (Koenig's theorem, via iterated Euler
     splits).
  3. Group the matchings into batches of ``n``.  Within a batch, the matching
     with batch-local index ``i`` is relayed through intermediate node ``i``:
     in the first round of the batch every source forwards its word to the
     intermediate, in the second round the intermediate forwards it to the
     destination.  Because each matching touches every node at most once on
     each side, both rounds respect the one-word-per-pair constraint.

  The batch count is ``ceil(#matchings / n)``, so the schedule length is
  ``2 * ceil(#matchings / n)`` rounds.  The Euler-split colouring pads the
  degree to the next power of two, so the number of matchings is at most
  ``2 L`` -- within a factor two of Koenig's optimum, which only affects the
  constant in front of the paper's ``O(.)`` bounds.  The analytic FAST mode
  charges the un-padded ``2 * ceil(L / n)``.

* **Broadcast schedules** let every node send the same word to all others in
  one round; ``w`` words per node take ``max(w)`` rounds.

Schedules are only *materialised* in ``ScheduleMode.EXACT`` (used by the test
suite to validate the analytic charges); the FAST path uses the closed forms.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.errors import ScheduleValidationError

# A demand maps an ordered node pair (src, dst) to a word count.
Demand = dict[tuple[int, int], int]


def direct_rounds(demand: Demand) -> int:
    """Rounds to ship a demand with no relaying: the max per-pair word count."""
    if not demand:
        return 0
    return max(demand.values())


def relay_rounds_fast(max_load: int, n: int) -> int:
    """Closed-form relay schedule length: ``2 * ceil(L / n)`` rounds.

    ``max_load`` is the maximum over nodes of that node's total sent or
    received words.  This is the round count charged by ``ScheduleMode.FAST``
    and proven achievable by the construction in :func:`relay_schedule`
    (up to the power-of-two padding factor discussed in the module docstring).
    """
    if max_load <= 0:
        return 0
    if n <= 1:
        raise ValueError("relay routing needs at least 2 nodes")
    return 2 * math.ceil(max_load / n)


def _pad_to_regular(demand: Demand, n: int, degree: int) -> Demand:
    """Add dummy edges so every node has in- and out-degree exactly ``degree``.

    Returns the dummy demand only.  Total left deficiency equals total right
    deficiency, so a greedy two-pointer pairing always succeeds.  Dummy edges
    may connect a node to itself (the bipartite sides are distinct copies),
    which is harmless because dummies are stripped before the schedule is
    emitted.
    """
    out_deg = [0] * n
    in_deg = [0] * n
    for (u, v), c in demand.items():
        out_deg[u] += c
        in_deg[v] += c
    left_def = [(degree - d, u) for u, d in enumerate(out_deg) if degree - d > 0]
    right_def = [(degree - d, v) for v, d in enumerate(in_deg) if degree - d > 0]
    dummies: Demand = defaultdict(int)
    li = ri = 0
    while li < len(left_def) and ri < len(right_def):
        lc, u = left_def[li]
        rc, v = right_def[ri]
        take = min(lc, rc)
        dummies[(u, v)] += take
        left_def[li] = (lc - take, u)
        right_def[ri] = (rc - take, v)
        if left_def[li][0] == 0:
            li += 1
        if right_def[ri][0] == 0:
            ri += 1
    if li < len(left_def) or ri < len(right_def):
        raise AssertionError("deficiency totals must match on both sides")
    return dict(dummies)


def _euler_split(
    n: int, edges: list[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    """Split a bipartite multigraph with all-even degrees into two halves.

    ``edges`` are (left, right) pairs.  Returns two lists of edge indices such
    that every vertex has exactly half its degree in each part.  Works by
    walking Euler circuits (per connected component) and assigning alternate
    edges to alternate halves; circuits in a bipartite graph have even length,
    so the alternation is consistent.
    """
    # Unified vertex ids: left u -> u, right v -> n + v.
    adj: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((n + v, eid))
        adj[n + v].append((u, eid))
    used = [False] * len(edges)
    ptr = [0] * (2 * n)
    half_a: list[int] = []
    half_b: list[int] = []
    for start in range(2 * n):
        while True:
            # Find an unused edge at `start`, else move to the next start.
            while ptr[start] < len(adj[start]) and used[adj[start][ptr[start]][1]]:
                ptr[start] += 1
            if ptr[start] >= len(adj[start]):
                break
            # Iterative Hierholzer: collect one Euler circuit through `start`.
            stack: list[tuple[int, int | None]] = [(start, None)]
            circuit: list[int] = []
            while stack:
                vertex, in_edge = stack[-1]
                nxt: tuple[int, int] | None = None
                while ptr[vertex] < len(adj[vertex]):
                    to, eid = adj[vertex][ptr[vertex]]
                    if not used[eid]:
                        nxt = (to, eid)
                        break
                    ptr[vertex] += 1
                if nxt is None:
                    stack.pop()
                    if in_edge is not None:
                        circuit.append(in_edge)
                else:
                    used[nxt[1]] = True
                    stack.append(nxt)
            # `circuit` holds the circuit's edges (reversed order -- alternation
            # is direction-agnostic so no need to reverse).
            for i, eid in enumerate(circuit):
                (half_a if i % 2 == 0 else half_b).append(eid)
    return half_a, half_b


def colour_into_matchings(demand: Demand, n: int) -> list[list[tuple[int, int]]]:
    """Edge-colour a demand into matchings (Koenig via iterated Euler splits).

    Returns a list of matchings; each matching is a list of ``(src, dst)``
    word-messages in which every node appears at most once as a source and at
    most once as a destination.  Every unit of demand appears in exactly one
    matching.  The number of matchings is the maximum degree padded up to a
    power of two.
    """
    demand = {pair: c for pair, c in demand.items() if c > 0}
    if not demand:
        return []
    out_deg = defaultdict(int)
    in_deg = defaultdict(int)
    for (u, v), c in demand.items():
        out_deg[u] += c
        in_deg[v] += c
    max_deg = max(max(out_deg.values()), max(in_deg.values()))
    target = 1 << max(0, (max_deg - 1).bit_length())
    dummies = _pad_to_regular(demand, n, target)

    # Expand to unit edges; remember which are real.
    edges: list[tuple[int, int]] = []
    is_real: list[bool] = []
    for (u, v), c in demand.items():
        edges.extend([(u, v)] * c)
        is_real.extend([True] * c)
    for (u, v), c in dummies.items():
        edges.extend([(u, v)] * c)
        is_real.extend([False] * c)

    groups: list[list[int]] = [list(range(len(edges)))]
    degree = target
    while degree > 1:
        next_groups: list[list[int]] = []
        for group in groups:
            sub = [edges[i] for i in group]
            a, b = _euler_split(n, sub)
            next_groups.append([group[i] for i in a])
            next_groups.append([group[i] for i in b])
        groups = next_groups
        degree //= 2

    matchings: list[list[tuple[int, int]]] = []
    for group in groups:
        matching = [edges[i] for i in group if is_real[i]]
        if matching:
            matchings.append(matching)
    return matchings


def validate_matchings(
    matchings: list[list[tuple[int, int]]], demand: Demand
) -> None:
    """Assert the colouring is a proper, complete decomposition of the demand."""
    seen: Demand = defaultdict(int)
    for matching in matchings:
        srcs: set[int] = set()
        dsts: set[int] = set()
        for u, v in matching:
            if u in srcs:
                raise ScheduleValidationError(f"source {u} repeated in a matching")
            if v in dsts:
                raise ScheduleValidationError(f"destination {v} repeated in a matching")
            srcs.add(u)
            dsts.add(v)
            seen[(u, v)] += 1
    want = {pair: c for pair, c in demand.items() if c > 0}
    if dict(seen) != want:
        raise ScheduleValidationError("colouring does not cover the demand exactly")


@dataclass(frozen=True)
class RelaySchedule:
    """A materialised relay schedule.

    Attributes:
        rounds: total number of rounds.
        hops: per-round list of ``(sender, receiver)`` word transmissions
            (relay hops; a logical message appears as up to two hops).
    """

    rounds: int
    hops: list[list[tuple[int, int]]]


#: Memoised relay schedules, keyed on ``(n, topology key, sorted demand
#: items)``.  The oblivious exchanges of the matmul engines re-emit the
#: same demand every squaring (APSP runs ``O(log n)`` of them), and Koenig
#: colouring is by far the most expensive part of EXACT mode -- so
#: identical demands share one immutable schedule.  Bounded so
#: pathological workloads cannot hoard memory; entries are evicted FIFO.
_SCHEDULE_CACHE: dict[
    tuple[int, str | None, tuple[tuple[tuple[int, int], int], ...]],
    "RelaySchedule",
] = {}
_SCHEDULE_CACHE_MAX = 128


def relay_schedule(demand: Demand, n: int, topology=None) -> RelaySchedule:
    """Build and validate the full relay schedule for a demand (memoised).

    Implements the batch construction from the module docstring and checks
    every round against the one-word-per-ordered-pair model constraint.
    Schedules are cached per ``(n, topology, demand)``: callers must treat
    the returned schedule as immutable.

    When a :class:`repro.netsim.topology.Topology` is given, the
    batch-slot -> intermediate assignment (a pure round-equivalent degree
    of freedom -- rounds are ``2 * ceil(matchings / n)`` for *any*
    injective per-batch assignment) is chosen to minimise modelled hop
    distance instead of using the identity assignment, which shortens the
    transport-model makespan without changing a single charged round.
    """
    topo_key = getattr(topology, "cache_key", None) if topology is not None else None
    pairs = tuple(sorted(demand.items()))
    key = (n, topo_key, pairs)
    cached = _SCHEDULE_CACHE.get(key)
    if cached is not None:
        return cached
    # Build from the key's (sorted) pair order: the colouring's matching
    # count depends on the order pairs are presented, so building from the
    # caller's order would make the cached rounds depend on which caller
    # happened to build first.
    schedule = _build_relay_schedule(dict(pairs), n, topology)
    if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_MAX:
        _SCHEDULE_CACHE.pop(next(iter(_SCHEDULE_CACHE)))
    _SCHEDULE_CACHE[key] = schedule
    return schedule


def _assign_intermediates(
    batch: list[list[tuple[int, int]]], n: int, distance: np.ndarray
) -> list[int]:
    """Cost-aware injective batch-slot -> intermediate assignment.

    Greedy: place the largest matchings first, each on the free
    intermediate minimising the summed hop distance of its relay legs
    ``sum(D[u, m] + D[m, v])``.  Any injective assignment is
    round-equivalent (the model constraint only needs the batch's
    matchings on pairwise-distinct relays), so this is free makespan.
    """
    order = sorted(range(len(batch)), key=lambda i: -len(batch[i]))
    free = set(range(n))
    chosen = [0] * len(batch)
    for i in order:
        matching = batch[i]
        if not matching:
            best = min(free)
        else:
            us = np.fromiter((u for u, _ in matching), dtype=np.int64)
            vs = np.fromiter((v for _, v in matching), dtype=np.int64)
            candidates = np.fromiter(free, dtype=np.int64)
            leg_cost = (
                distance[us[:, None], candidates[None, :]].sum(axis=0)
                + distance[candidates[None, :], vs[:, None]].sum(axis=0)
            )
            best = int(candidates[int(np.argmin(leg_cost))])
        chosen[i] = best
        free.remove(best)
    return chosen


def _build_relay_schedule(demand: Demand, n: int, topology=None) -> RelaySchedule:
    matchings = colour_into_matchings(demand, n)
    validate_matchings(matchings, demand)
    distance = topology.distance_matrix() if topology is not None else None
    hops: list[list[tuple[int, int]]] = []
    for batch_start in range(0, len(matchings), n):
        batch = matchings[batch_start : batch_start + n]
        if distance is None:
            intermediates = list(range(len(batch)))
        else:
            intermediates = _assign_intermediates(batch, n, distance)
        phase_a: list[tuple[int, int]] = []
        phase_b: list[tuple[int, int]] = []
        for matching, intermediate in zip(batch, intermediates):
            for u, v in matching:
                if u != intermediate:
                    phase_a.append((u, intermediate))
                if intermediate != v:
                    phase_b.append((intermediate, v))
        hops.append(phase_a)
        hops.append(phase_b)
    schedule = RelaySchedule(rounds=len(hops), hops=hops)
    validate_relay_schedule(schedule)
    return schedule


def validate_relay_schedule(schedule: RelaySchedule) -> None:
    """Check that no round ships two words across the same ordered pair."""
    for rnd, hop_list in enumerate(schedule.hops):
        seen: set[tuple[int, int]] = set()
        for pair in hop_list:
            if pair[0] == pair[1]:
                raise ScheduleValidationError(
                    f"round {rnd}: self hop {pair} should have been elided"
                )
            if pair in seen:
                raise ScheduleValidationError(
                    f"round {rnd}: ordered pair {pair} used twice"
                )
            seen.add(pair)


def broadcast_rounds(words_per_node: list[int]) -> int:
    """Rounds for every node to broadcast its words to all others."""
    if not words_per_node:
        return 0
    return max(words_per_node)


#: Knuth's multiplicative-hash constant; spreads consecutive piece indices
#: over the relay ring so one corrupt node does not hit a contiguous run of
#: pieces.
_RELAY_STRIDE = 2654435761


def disjoint_relays(pieces: int, copies: int, n: int, salt: int = 0) -> np.ndarray:
    """Relay assignment for replicated oblivious routing.

    Returns a ``(pieces, copies)`` int64 array: copy ``j`` of piece ``i``
    traverses intermediate node ``(base_i + j) mod n``.  This mirrors the
    batch construction of :func:`relay_schedule` -- within a batch, the
    matching with batch-local slot ``i`` is relayed through node ``i``, so
    consecutive slots mean distinct intermediates.  Assigning the ``copies``
    replicas of a piece to consecutive slots therefore puts them on
    pairwise-*distinct* relay nodes (requires ``copies <= n``), which is the
    disjointness the majority decode's support threshold counts on: an
    adversary corrupting ``t`` nodes in an exchange touches at most ``t`` of
    a piece's copies.

    The assignment is a pure function of ``(pieces, copies, n, salt)`` --
    oblivious routing is input-independent and public, so fault plans and
    decoders agree on it without communication.  ``salt`` varies the base
    permutation per exchange (retries re-route through fresh relays).
    """
    if n < 1:
        raise ValueError(f"relay assignment needs n >= 1, got {n}")
    if not 1 <= copies <= n:
        raise ValueError(
            f"need 1 <= copies <= n = {n} pairwise-distinct relays per "
            f"piece, got copies = {copies}"
        )
    if pieces < 0:
        raise ValueError(f"piece count must be non-negative, got {pieces}")
    base = (
        np.arange(pieces, dtype=np.int64) * _RELAY_STRIDE
        + np.int64(salt % n) * 40503
    ) % n
    return (base[:, None] + np.arange(copies, dtype=np.int64)[None, :]) % n


__all__ = [
    "Demand",
    "direct_rounds",
    "relay_rounds_fast",
    "colour_into_matchings",
    "validate_matchings",
    "RelaySchedule",
    "relay_schedule",
    "validate_relay_schedule",
    "broadcast_rounds",
    "disjoint_relays",
]
