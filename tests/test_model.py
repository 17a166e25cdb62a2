"""Tests for the CongestedClique simulator primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clique import CongestedClique, ScheduleMode
from repro.errors import CliqueModelError, LoadBoundExceededError


class TestConstruction:
    def test_needs_two_nodes(self):
        with pytest.raises(CliqueModelError):
            CongestedClique(1)

    def test_default_word_bits(self):
        assert CongestedClique(64).word_bits == 16

    def test_custom_word_bits(self):
        assert CongestedClique(8, word_bits=32).word_bits == 32

    def test_bad_word_bits(self):
        with pytest.raises(CliqueModelError):
            CongestedClique(8, word_bits=0)


class TestBroadcast:
    def test_one_round_for_unit_payloads(self):
        clique = CongestedClique(5)
        received = clique.broadcast(list(range(5)))
        assert clique.rounds == 1
        assert received[2] == [0, 1, 2, 3, 4]

    def test_rounds_follow_max_width(self):
        clique = CongestedClique(4)
        clique.broadcast(["a", "b", "c", "d"], words=[1, 7, 2, 1])
        assert clique.rounds == 7

    def test_wrong_payload_count(self):
        clique = CongestedClique(4)
        with pytest.raises(CliqueModelError):
            clique.broadcast([1, 2])

    def test_wrong_width_count(self):
        clique = CongestedClique(4)
        with pytest.raises(CliqueModelError):
            clique.broadcast([1, 2, 3, 4], words=[1, 2])

    def test_negative_width(self):
        clique = CongestedClique(3)
        with pytest.raises(CliqueModelError):
            clique.broadcast([1, 2, 3], words=[-1, 1, 1])

    def test_every_node_sees_same_order(self):
        clique = CongestedClique(6)
        received = clique.broadcast([f"p{v}" for v in range(6)])
        for u in range(6):
            assert received[u] == [f"p{v}" for v in range(6)]


def _pieces(*rows):
    """A per-node piece stack of one-entry pieces."""
    return np.array(rows, dtype=np.int64).reshape(-1, 1)


_NONE = np.zeros(0, dtype=np.int64)
_NO_PIECES = np.zeros((0, 1), dtype=np.int64)


class TestSend:
    def test_transposes_in_one_round(self):
        clique = CongestedClique(4)
        cols = clique.transpose_array(
            np.array([[10 * v + u for u in range(4)] for v in range(4)])
        )
        assert clique.rounds == 1
        assert cols[1][3] == 31

    def test_rounds_equal_max_pair_traffic(self):
        clique = CongestedClique(4)
        clique.send_array(
            [np.array([1, 1]), _NONE, _NONE, _NONE],
            [_pieces(1, 2), _NO_PIECES, _NO_PIECES, _NO_PIECES],
            widths=[np.array([3, 2]), _NONE, _NONE, _NONE],
        )
        assert clique.rounds == 5  # 5 words over the (0, 1) link

    def test_self_messages_free(self):
        clique = CongestedClique(3)
        inboxes = clique.send_array(
            [np.array([0]), _NONE, _NONE],
            [_pieces(7), _NO_PIECES, _NO_PIECES],
            widths=[np.array([100]), _NONE, _NONE],
        )
        assert clique.rounds == 0
        assert inboxes[0].sources.tolist() == [0]
        assert inboxes[0].blocks.tolist() == [[7]]

    def test_expect_max_pair_enforced(self):
        clique = CongestedClique(3)
        with pytest.raises(LoadBoundExceededError):
            clique.send_array(
                [np.array([1]), _NONE, _NONE],
                [_pieces(1), _NO_PIECES, _NO_PIECES],
                widths=[np.array([9]), _NONE, _NONE],
                expect_max_pair=8,
            )

    def test_bad_destination(self):
        clique = CongestedClique(3)
        with pytest.raises(CliqueModelError):
            clique.send_array(
                [np.array([7]), _NONE, _NONE], [_pieces(1), _NO_PIECES, _NO_PIECES]
            )

    def test_inboxes_sorted_by_source(self):
        clique = CongestedClique(4)
        inboxes = clique.send_array(
            [np.array([3]), np.array([3]), np.array([3]), _NONE],
            [_pieces(0), _pieces(1), _pieces(2), _NO_PIECES],
        )
        assert inboxes[3].sources.tolist() == [0, 1, 2]


class TestRoute:
    def test_balanced_load_costs_two_rounds(self):
        n = 8
        clique = CongestedClique(n)
        clique.route_array(
            [np.array([(v + 1) % n]) for v in range(n)], [_pieces(1)] * n
        )
        assert clique.rounds == 2

    def test_rounds_scale_with_load(self):
        n = 8
        clique = CongestedClique(n)
        # Nodes 1..7 each send node 0 a 5-word piece: receive load 35,
        # so 2 * ceil(35 / 8) = 10 rounds.
        width = 32 // (n - 1) + 1
        clique.route_array(
            [_NONE] + [np.array([0])] * (n - 1),
            [_NO_PIECES] + [_pieces(1)] * (n - 1),
            widths=[_NONE] + [np.array([width])] * (n - 1),
        )
        assert clique.rounds == 2 * -(-(width * (n - 1)) // n)

    def test_expect_max_load_enforced(self):
        clique = CongestedClique(4)
        with pytest.raises(LoadBoundExceededError):
            clique.route_array(
                [np.array([1]), _NONE, _NONE, _NONE],
                [_pieces(1), _NO_PIECES, _NO_PIECES, _NO_PIECES],
                widths=[np.array([100]), _NONE, _NONE, _NONE],
                expect_max_load=50,
            )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_exact_mode_delivers_identically(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        dests, blocks = [], []
        for v in range(n):
            count = int(rng.integers(0, 12))
            dests.append(rng.integers(0, n, count).astype(np.int64))
            blocks.append(
                np.stack(
                    [np.full(count, v), rng.integers(0, 100, count)], axis=1
                ).astype(np.int64)
            )
        widths = [np.ones(d.shape[0], dtype=np.int64) for d in dests]
        fast = CongestedClique(n, mode=ScheduleMode.FAST)
        exact = CongestedClique(n, mode=ScheduleMode.EXACT)
        got_fast = fast.route_array(dests, blocks, widths=widths)
        got_exact = exact.route_array(dests, blocks, widths=widths)
        for a, b in zip(got_fast, got_exact):
            assert np.array_equal(a.sources, b.sources)
            assert np.array_equal(a.blocks, b.blocks)
        assert exact.rounds <= 2 * fast.rounds + 2

    def test_empty_route_is_free(self):
        clique = CongestedClique(4)
        clique.route_array([_NONE] * 4, [_NO_PIECES] * 4)
        assert clique.rounds == 0


class TestAllgather:
    def test_replicates_all_records(self):
        clique = CongestedClique(5)
        records = [
            np.array([(v, i) for i in range(v + 1)], dtype=np.int64)
            for v in range(5)
        ]
        combined = clique.allgather_rows(records)
        assert sorted(map(tuple, combined.tolist())) == sorted(
            (v, i) for v in range(5) for i in range(v + 1)
        )

    def test_rounds_scale_with_volume(self):
        n = 8
        small = CongestedClique(n)
        small.allgather_rows([np.ones((1, 1), dtype=np.int64)] * n)
        big = CongestedClique(n)
        big.allgather_rows([np.ones((10, 1), dtype=np.int64)] * n)
        assert big.rounds > small.rounds

    def test_empty(self):
        clique = CongestedClique(4)
        assert clique.allgather_rows([np.zeros((0, 1), dtype=np.int64)] * 4).size == 0

    def test_wrong_shape(self):
        clique = CongestedClique(4)
        with pytest.raises(CliqueModelError):
            clique.allgather_rows([np.zeros((0, 1), dtype=np.int64)] * 2)


class TestTranspose:
    def test_shape_validation(self):
        clique = CongestedClique(3)
        with pytest.raises(CliqueModelError):
            clique.transpose_array(np.array([[1, 2], [3, 4]]))

    def test_wide_entries_cost_more(self):
        clique = CongestedClique(3)
        clique.transpose_array(np.ones((3, 3), dtype=np.int64), words_per_entry=4)
        assert clique.rounds == 4


class TestOneMessagingPath:
    def test_public_surface(self):
        # Routed and direct exchanges exist only as array primitives, so
        # every one of them passes the _tamper_batch delivery seam; the
        # object broadcast is the one primitive carrying Python payloads.
        public = {name for name in dir(CongestedClique) if not name.startswith("_")}
        assert public == {
            "attach_cost_model",
            "broadcast",
            "broadcast_rows",
            "route_array",
            "route_array_take",
            "send_array",
            "scatter_blocks",
            "gather_blocks",
            "allgather_rows",
            "transpose_array",
            "rounds",
        }
