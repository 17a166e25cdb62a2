"""Array exchanges against the per-message oracle.

The array primitives must charge the bill the per-message load oracle
(:func:`repro.clique.routing.analyze` plus the model's round rules) gives
for the same logical exchange -- the full
:class:`~repro.clique.accounting.PhaseCost` -- and deliver the pieces in
:func:`repro.clique.routing.deliver`'s deterministic order.  Also covers the
vectorised width helpers against their scalar counterparts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clique.messages import (
    bit_lengths,
    block_widths,
    words_for_array,
    words_for_value,
    words_for_values,
)
from repro.clique.model import CongestedClique, ScheduleMode
from repro.clique.routing import deliver
from repro.errors import CliqueModelError, LoadBoundExceededError
from tests.conftest import oracle_phase, outboxes_of, phase_rows


def _random_batch(rng, n: int, piece_len: int):
    """A random exchange as arrays plus its per-message outboxes."""
    dests, blocks = [], []
    for _v in range(n):
        p_v = int(rng.integers(0, 7))
        dests.append(rng.integers(0, n, p_v).astype(np.int64))
        blocks.append(rng.integers(-100, 100, (p_v, piece_len)).astype(np.int64))
    widths = [[words_for_array(piece, 16) for piece in b] for b in blocks]
    return dests, blocks, outboxes_of(dests, blocks, widths)


class TestRouteArrayEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_fast_mode_costs_and_delivery_match(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        dests, blocks, outboxes = _random_batch(rng, n, piece_len=3)
        clique = CongestedClique(n, word_bits=16)
        array_in = clique.route_array(dests, blocks, phase="x")
        assert phase_rows(clique.meter) == [
            oracle_phase(outboxes, n, phase="x", primitive="route")
        ]
        for u, box in enumerate(deliver(outboxes, n)):
            assert [src for src, _payload in box] == array_in[u].sources.tolist()
            assert len(box) == array_in[u].blocks.shape[0]
            for (_src, piece), got in zip(box, array_in[u].blocks):
                assert np.array_equal(piece, got)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_exact_mode_rounds_match(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        dests, blocks, outboxes = _random_batch(rng, n, piece_len=2)
        clique = CongestedClique(n, word_bits=16, mode=ScheduleMode.EXACT)
        clique.route_array(dests, blocks, phase="x")
        assert phase_rows(clique.meter) == [
            oracle_phase(outboxes, n, phase="x", primitive="route", exact=True)
        ]

    def test_tags_ride_along(self):
        n = 3
        clique = CongestedClique(n)
        dests = [np.array([1, 2]), np.array([2]), np.array([], dtype=np.int64)]
        blocks = [
            np.array([[1, 2], [3, 4]]),
            np.array([[5, 6]]),
            np.zeros((0, 2), dtype=np.int64),
        ]
        tags = [np.array([7, 8]), np.array([9]), np.array([], dtype=np.int64)]
        inboxes = clique.route_array(dests, blocks, tags=tags, phase="t")
        assert inboxes[2].sources.tolist() == [0, 1]
        assert inboxes[2].tags.tolist() == [8, 9]
        assert inboxes[1].tags.tolist() == [7]
        assert inboxes[0].tags.tolist() == []

    def test_load_bound_enforced(self):
        n = 4
        clique = CongestedClique(n)
        dests = [np.full(10, 1, dtype=np.int64)] + [
            np.array([], dtype=np.int64) for _ in range(n - 1)
        ]
        blocks = [np.ones((10, 5), dtype=np.int64)] + [
            np.zeros((0, 5), dtype=np.int64) for _ in range(n - 1)
        ]
        with pytest.raises(LoadBoundExceededError):
            clique.route_array(dests, blocks, expect_max_load=3)

    def test_malformed_batch_rejected(self):
        clique = CongestedClique(3)
        good_blocks = [np.zeros((1, 2), dtype=np.int64)] * 3
        with pytest.raises(CliqueModelError):
            clique.route_array([np.array([5])] * 3, good_blocks)  # dst range
        with pytest.raises(CliqueModelError):
            clique.route_array([np.array([1, 2])] * 3, good_blocks)  # count

    def test_wrong_length_tags_rejected(self):
        # Regression: a wrong-length tag vector used to be silently
        # concatenated, shifting tags onto the wrong senders' pieces.
        clique = CongestedClique(2)
        dests = [np.array([0, 1]), np.array([0, 1])]
        blocks = [np.ones((2, 2), dtype=np.int64)] * 2
        with pytest.raises(CliqueModelError):
            clique.route_array(
                dests, blocks, tags=[np.array([7, 8, 9]), np.array([5])]
            )


class TestBroadcastRowsEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_costs_match_object_broadcast(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        rows = rng.integers(-1000, 1000, (n, 5)).astype(np.int64)
        widths = [words_for_array(rows[v], 16) for v in range(n)]
        object_clique = CongestedClique(n, word_bits=16)
        array_clique = CongestedClique(n, word_bits=16)
        received = object_clique.broadcast(list(rows), words=widths, phase="b")
        replica = array_clique.broadcast_rows(rows, phase="b")
        assert phase_rows(object_clique.meter) == phase_rows(array_clique.meter)
        assert np.array_equal(replica, np.stack(received[0]))

    def test_explicit_widths_respected(self):
        n = 4
        rows = np.ones((n, 3), dtype=np.int64)
        clique = CongestedClique(n)
        clique.broadcast_rows(rows, widths=[9, 1, 1, 1], phase="b")
        assert clique.rounds == 9


class TestTransposeArrayEquivalence:
    @pytest.mark.parametrize("words_per_entry", [1, 3])
    def test_costs_and_values_match(self, words_per_entry):
        rng = np.random.default_rng(0)
        n = 6
        matrix = rng.integers(-50, 50, (n, n)).astype(np.int64)
        clique = CongestedClique(n)
        transposed = clique.transpose_array(
            matrix, words_per_entry=words_per_entry
        )
        # Node v sends entry u of its row to node u (its own entry stays).
        outboxes = [
            [(u, matrix[v, u], words_per_entry) for u in range(n)]
            for v in range(n)
        ]
        assert phase_rows(clique.meter) == [
            oracle_phase(outboxes, n, phase="transpose", primitive="send")
        ]
        assert np.array_equal(transposed, matrix.T)


class TestVectorisedWidths:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**62), min_size=1, max_size=20
        ),
        st.sampled_from([8, 16, 24, 64]),
    )
    def test_words_for_values_matches_scalar(self, values, word_bits):
        vec = words_for_values(np.array(values, dtype=np.int64), word_bits)
        assert vec.tolist() == [words_for_value(v, word_bits) for v in values]

    def test_bit_lengths_matches_python(self):
        probes = [0, 1, 2, 3, 255, 256, 2**52, 2**62 - 1, 2**62, 2**63 - 1]
        out = bit_lengths(np.array(probes, dtype=np.uint64).astype(np.int64))
        assert out.tolist() == [int(v).bit_length() for v in probes]

    def test_block_widths_matches_words_for_array(self):
        rng = np.random.default_rng(1)
        blocks = rng.integers(-10**6, 10**6, (7, 4)).astype(np.int64)
        widths = block_widths(blocks, 16)
        assert widths.tolist() == [words_for_array(b, 16) for b in blocks]
