"""Unit tests for word-size arithmetic and exchange-batch validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clique.messages import (
    default_word_bits,
    int_bits,
    words_for_array,
    words_for_value,
)
from repro.clique.model import CongestedClique
from repro.errors import CliqueModelError


class TestWordBits:
    def test_minimum_is_16(self):
        assert default_word_bits(2) == 16
        assert default_word_bits(100) == 16

    def test_grows_with_log_n(self):
        assert default_word_bits(2**10) == 20
        assert default_word_bits(2**20) == 40

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_word_bits(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_word_always_fits_two_node_ids(self, n):
        import math

        bits = default_word_bits(n)
        id_bits = max(1, math.ceil(math.log2(max(2, n))))
        assert bits >= 2 * id_bits


class TestIntBits:
    def test_small_values(self):
        assert int_bits(0) == 2  # sign + 1 magnitude bit
        assert int_bits(1) == 2
        assert int_bits(255) == 9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            int_bits(-1)

    @given(st.integers(min_value=0, max_value=2**60))
    def test_monotone(self, x):
        assert int_bits(x + 1) >= int_bits(x)


class TestWordsForValue:
    def test_unit_width_small_values(self):
        assert words_for_value(100, 16) == 1

    def test_wide_values_need_more_words(self):
        assert words_for_value(2**40, 16) == 3  # 42 bits / 16

    @given(
        st.integers(min_value=0, max_value=2**62 - 1),
        st.integers(min_value=8, max_value=64),
    )
    def test_width_covers_encoding(self, value, word_bits):
        words = words_for_value(value, word_bits)
        assert words * word_bits >= int_bits(value)


class TestWordsForArray:
    def test_empty_array_is_free(self):
        assert words_for_array(np.array([], dtype=np.int64), 16) == 0

    def test_unit_entries(self):
        arr = np.ones(10, dtype=np.int64)
        assert words_for_array(arr, 16) == 10

    def test_wide_entries_charged_per_entry(self):
        arr = np.full(4, 2**40, dtype=np.int64)
        assert words_for_array(arr, 16) == 12

    def test_bool_arrays(self):
        arr = np.ones(6, dtype=bool)
        assert words_for_array(arr, 16) == 6

    def test_width_uses_max_abs(self):
        arr = np.array([1, -(2**40)], dtype=np.int64)
        assert words_for_array(arr, 16) == 2 * 3


def _one_piece(src: int, dst: int, piece, n: int = 2):
    """Array batches in which only node ``src`` ships ``piece`` to ``dst``."""
    piece = np.asarray(piece)
    dests = [np.array([dst] if v == src else [], dtype=np.int64) for v in range(n)]
    blocks = [
        piece[None] if v == src else np.zeros((0,) + piece.shape, dtype=np.int64)
        for v in range(n)
    ]
    return dests, blocks


class TestBatchValidation:
    def test_valid(self):
        clique = CongestedClique(2)
        inboxes = clique.route_array(*_one_piece(0, 1, [7]))
        assert inboxes[1].blocks.tolist() == [[7]]

    def test_wrong_length(self):
        with pytest.raises(CliqueModelError):
            CongestedClique(2).route_array([np.array([1])], [np.ones((1, 1))])

    def test_destination_out_of_range(self):
        with pytest.raises(CliqueModelError):
            CongestedClique(2).route_array(*_one_piece(0, 5, [1]))

    def test_self_message_is_a_free_local_move(self):
        clique = CongestedClique(2)
        inboxes = clique.send_array(*_one_piece(0, 0, [3]))
        assert clique.rounds == 0
        assert inboxes[0].blocks.tolist() == [[3]]

    def test_nonpositive_width(self):
        dests, blocks = _one_piece(0, 1, [1])
        widths = [np.array([0]), np.zeros(0, dtype=np.int64)]
        with pytest.raises(CliqueModelError):
            CongestedClique(2).route_array(dests, blocks, widths=widths)

    def test_malformed_batch(self):
        # One destination but two pieces.
        dests = [np.array([1]), np.zeros(0, dtype=np.int64)]
        blocks = [np.ones((2, 1), dtype=np.int64), np.zeros((0, 1), dtype=np.int64)]
        with pytest.raises(CliqueModelError):
            CongestedClique(2).route_array(dests, blocks)


class TestPayloadHygiene:
    """Malformed pieces die loudly on every exchange, naming the node."""

    @pytest.mark.parametrize("exchange", ["route_array", "send_array"])
    def test_nan_block_names_node(self, exchange):
        # Cast to int64 this would arrive as [2, -2**63].
        dests, blocks = _one_piece(1, 0, [2.7, float("nan")])
        with pytest.raises(CliqueModelError, match="node 1: float64 blocks"):
            getattr(CongestedClique(2), exchange)(dests, blocks)

    def test_inf_block_rejected(self):
        dests, blocks = _one_piece(0, 1, [float("inf")])
        with pytest.raises(CliqueModelError, match="node 0"):
            CongestedClique(2).route_array(dests, blocks)

    def test_finite_float_block_rejected(self):
        # No silent truncation of 1.5 to 1 either.
        dests, blocks = _one_piece(0, 1, [1.5, -2.0])
        with pytest.raises(CliqueModelError, match="node 0: float64 blocks"):
            CongestedClique(2).send_array(dests, blocks)

    def test_float_block_rejected_with_explicit_widths(self):
        dests, blocks = _one_piece(0, 1, [1.5])
        widths = [np.array([1]), np.zeros(0, dtype=np.int64)]
        with pytest.raises(CliqueModelError, match="node 0"):
            CongestedClique(2).route_array(dests, blocks, widths=widths)

    def test_uniform_float_batch_rejected(self):
        dests = np.array([[1], [0]])
        blocks = np.ones((2, 1, 2))
        widths = np.ones((2, 1), dtype=np.int64)
        with pytest.raises(CliqueModelError, match="float64 blocks"):
            CongestedClique(2).route_array(dests, blocks, widths=widths)

    def test_complex_block_rejected(self):
        dests, blocks = _one_piece(0, 1, np.array([1 + 2j]))
        with pytest.raises(CliqueModelError, match="node 0: complex128"):
            CongestedClique(2).route_array(dests, blocks)

    def test_object_block_names_node(self):
        bad = np.array([object(), object()], dtype=object)
        dests, blocks = _one_piece(1, 0, bad)
        with pytest.raises(CliqueModelError, match="node 1: object blocks"):
            CongestedClique(2).route_array(dests, blocks)

    @pytest.mark.parametrize(
        "piece",
        [
            np.array([True, False]),
            np.array([3, -4], dtype=np.int32),
            np.array([2**63 + 5, 1], dtype=np.uint64),
        ],
        ids=["bool", "int32", "packed-uint64"],
    )
    def test_word_dtypes_pass(self, piece):
        clique = CongestedClique(2)
        inboxes = clique.route_array(*_one_piece(0, 1, piece))
        # Shipped as int64 words; uint64 bitsets travel bit for bit.
        assert np.array_equal(inboxes[1].blocks[0], piece.astype(np.int64))

    def test_negative_width_names_node(self):
        dests, blocks = _one_piece(1, 0, [1])
        widths = [np.zeros(0, dtype=np.int64), np.array([-3])]
        with pytest.raises(CliqueModelError, match="node 1: non-positive word count"):
            CongestedClique(2).route_array(dests, blocks, widths=widths)


class TestBlockWidths:
    """PR 6 satellite: batch width helpers reject unchargeable batches."""

    def test_object_dtype_batch_rejected(self):
        from repro.clique.messages import block_widths

        bad = np.empty((2, 2), dtype=object)
        bad.fill("x")
        with pytest.raises(ValueError, match="object-dtype batch"):
            block_widths(bad, 16)

    def test_nan_batch_names_offending_piece(self):
        from repro.clique.messages import block_widths

        blocks = np.ones((3, 2))
        blocks[2, 1] = float("nan")
        with pytest.raises(ValueError, match="piece 2"):
            block_widths(blocks, 16)

    def test_flat_batch_rejected(self):
        from repro.clique.messages import block_widths

        with pytest.raises(ValueError, match="batch"):
            block_widths(np.arange(4), 16)

    def test_empty_trailing_shape_is_free(self):
        from repro.clique.messages import block_widths

        widths = block_widths(np.zeros((3, 0), dtype=np.int64), 16)
        assert np.array_equal(widths, np.zeros(3, dtype=np.int64))
