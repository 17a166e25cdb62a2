"""Deep property-based tests across the whole stack.

These are the heavyweight invariants: random demands through the EXACT
scheduler at word granularity, random matrices through every engine x
semiring combination, and cross-checks that schedule mode never changes
any *answer* (only the round accounting discipline).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.semirings import BOOLEAN, MAX_MIN, MIN_PLUS, PLUS_TIMES
from repro.clique import CongestedClique, ScheduleMode
from repro.constants import INF
from repro.matmul.naive import broadcast_matmul
from repro.matmul.semiring3d import semiring_matmul


def _random_for(semiring, rng, n):
    if semiring is BOOLEAN:
        return (rng.random((n, n)) < 0.4).astype(np.int64)
    if semiring is MIN_PLUS:
        mat = rng.integers(0, 25, (n, n), dtype=np.int64)
        mat[rng.random((n, n)) < 0.15] = INF
        return mat
    if semiring is MAX_MIN:
        return rng.integers(-15, 15, (n, n), dtype=np.int64)
    return rng.integers(-8, 9, (n, n), dtype=np.int64)


class TestEngineSemiringMatrix:
    """The 3D engine equals the naive engine equals the local product,
    for every semiring, on random inputs."""

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([PLUS_TIMES, BOOLEAN, MIN_PLUS, MAX_MIN]),
    )
    def test_three_way_agreement(self, seed, semiring):
        rng = np.random.default_rng(seed)
        n = 8
        s = _random_for(semiring, rng, n)
        t = _random_for(semiring, rng, n)
        local = semiring.matmul(s, t)
        dist3d = semiring_matmul(CongestedClique(n), s, t, semiring)
        naive = broadcast_matmul(CongestedClique(n), s, t, semiring)
        assert np.array_equal(dist3d, local)
        assert np.array_equal(naive, local)

    @settings(max_examples=6, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([MIN_PLUS, MAX_MIN]),
    )
    def test_witnesses_from_both_engines_are_valid(self, seed, semiring):
        rng = np.random.default_rng(seed)
        n = 8
        s = _random_for(semiring, rng, n)
        t = _random_for(semiring, rng, n)
        for engine_out in (
            semiring_matmul(
                CongestedClique(n), s, t, semiring, with_witnesses=True
            ),
            broadcast_matmul(
                CongestedClique(n), s, t, semiring, with_witnesses=True
            ),
        ):
            product, witness = engine_out
            for u in range(n):
                for v in range(n):
                    k = int(witness[u, v])
                    if k < 0:
                        continue
                    if semiring is MIN_PLUS:
                        if product[u, v] < INF:
                            assert s[u, k] + t[k, v] == product[u, v]
                    else:
                        assert min(s[u, k], t[k, v]) == product[u, v]


class TestScheduleModeNeverChangesAnswers:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_semiring3d(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        s = rng.integers(0, 4, (n, n), dtype=np.int64)
        t = rng.integers(0, 4, (n, n), dtype=np.int64)
        fast = semiring_matmul(CongestedClique(n, mode=ScheduleMode.FAST), s, t)
        exact = semiring_matmul(CongestedClique(n, mode=ScheduleMode.EXACT), s, t)
        assert np.array_equal(fast, exact)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_applications(self, seed):
        from repro.graphs import gnp_random_graph
        from repro.runtime import make_clique
        from repro.subgraphs import count_triangles

        g = gnp_random_graph(9, 0.4, seed=seed)
        fast = count_triangles(
            g, clique=make_clique(g.n, "bilinear", mode=ScheduleMode.FAST)
        )
        exact = count_triangles(
            g, clique=make_clique(g.n, "bilinear", mode=ScheduleMode.EXACT)
        )
        assert fast.value == exact.value


def _single_piece(n: int, src: int, dst: int, width: int):
    """One ``width``-word piece from ``src`` to ``dst``, as array batches."""
    dests = [np.array([dst] if v == src else [], dtype=np.int64) for v in range(n)]
    blocks = [np.ones((len(d), 1), dtype=np.int64) for d in dests]
    widths = [np.full(len(d), width, dtype=np.int64) for d in dests]
    return dests, blocks, widths


class TestWordGranularExactRouting:
    """Fuzz the EXACT router with adversarial width distributions."""

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=1, max_value=12),
    )
    def test_delivery_and_bounds(self, seed, n, max_width):
        rng = np.random.default_rng(seed)
        dests, blocks, widths, sent = [], [], [], []
        for v in range(n):
            count = int(rng.integers(0, 10))
            d = rng.integers(0, n, count).astype(np.int64)
            payload = rng.integers(10**6, size=count).astype(np.int64)
            dests.append(d)
            blocks.append(np.stack([np.full(count, v), payload], axis=1))
            widths.append(rng.integers(1, max_width + 1, count).astype(np.int64))
            sent += [(int(d[i]), (v, int(payload[i]))) for i in range(count)]
        clique = CongestedClique(n, mode=ScheduleMode.EXACT)
        inboxes = clique.route_array(dests, blocks, widths=widths)
        received = [
            (dst, (int(piece[0]), int(piece[1])))
            for dst in range(n)
            for piece in inboxes[dst].blocks
        ]
        assert sorted(received) == sorted(sent)

    def test_single_hot_receiver(self):
        # Every node floods node 0: the classic skew case.
        n = 6
        dests = [np.zeros(0 if v == 0 else 7, dtype=np.int64) for v in range(n)]
        blocks = [np.ones((len(d), 1), dtype=np.int64) for d in dests]
        widths = [np.full(len(d), 3, dtype=np.int64) for d in dests]
        exact = CongestedClique(n, mode=ScheduleMode.EXACT)
        exact.route_array(dests, blocks, widths=widths)
        fast = CongestedClique(n, mode=ScheduleMode.FAST)
        fast.route_array(dests, blocks, widths=widths)
        assert exact.rounds <= 2 * fast.rounds + 2

    def test_widths_matter_for_rounds(self):
        n = 6
        thin = CongestedClique(n)
        dests, blocks, widths = _single_piece(n, 0, 1, 1)
        thin.route_array(dests, blocks, widths=widths)
        wide = CongestedClique(n)
        dests, blocks, widths = _single_piece(n, 0, 1, 100)
        wide.route_array(dests, blocks, widths=widths)
        assert wide.rounds > thin.rounds
