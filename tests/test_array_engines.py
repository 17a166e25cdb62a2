"""Array engines and block collectives against centralised oracles.

The per-phase bills of the §2.2 bilinear engine's four exchanges, the
Lemma 21 witness validation hops, the Theorem 4 walk exchanges and the
girth's learn-everything replication are pinned by the golden fixtures
(``tests/test_golden_bills.py``).  This suite checks their answers against
centralised references on random instances, and the block collectives
(`scatter_blocks` / `gather_blocks` / `send_array` / `allgather_rows`)
against the per-message load/delivery oracle in
:mod:`repro.clique.routing`.  Also covers the blocked Boolean kernel
against its cube oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.bilinear import classical
from repro.algebra.semirings import BOOLEAN
from repro.clique.messages import words_for_array
from repro.clique.model import CongestedClique
from repro.clique.routing import deliver
from repro.errors import CliqueModelError, LoadBoundExceededError
from repro.graphs import (
    bipartite_random_graph,
    cycle_graph,
    four_cycle_count_reference,
    gnp_random_graph,
    windmill_graph,
)
from repro.matmul.bilinear_clique import bilinear_matmul
from repro.matmul.witnesses import _validate_candidates
from repro.runtime import boolean_product
from repro.subgraphs.four_cycle import detect_four_cycles
from tests.conftest import oracle_phase, outboxes_of, phase_rows
from tests.golden_cases import validation_reference, witness_inputs


class TestBilinearProducts:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([16, 25, 36]))
        s = rng.integers(-50, 51, (n, n), dtype=np.int64)
        t = rng.integers(-50, 51, (n, n), dtype=np.int64)
        assert np.array_equal(bilinear_matmul(CongestedClique(n), s, t), s @ t)

    def test_decode_widening_stays_within_load_bound(self):
        # Regression: the step-7 load bound must use the *decoded* entry
        # width.  Entries of 50 give products of one word (20000 < 2^15)
        # whose equation-(2) sums cross the word boundary (40000 needs 2
        # words at 16-bit words); the old pre-decode bound raised
        # LoadBoundExceededError on this valid multiplication.
        n = 16
        s = np.full((n, n), 50, dtype=np.int64)
        t = np.full((n, n), 50, dtype=np.int64)
        p = bilinear_matmul(CongestedClique(n), s, t, classical(2))
        assert np.array_equal(p, s @ t)


class TestWitnessValidation:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_verdicts_match_centralised_check(self, seed):
        s, t, p, candidates, needed = witness_inputs({"seed": seed})
        ok = _validate_candidates(
            CongestedClique(s.shape[0]), s, t, p, candidates, needed, "v"
        )
        assert np.array_equal(
            ok, validation_reference(s, t, p, candidates, needed)
        )


class TestFourCycleDetection:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.05, max_value=0.4),
    )
    def test_random_graphs(self, seed, p):
        g = gnp_random_graph(20, p, seed=seed)
        assert detect_four_cycles(g).value == (four_cycle_count_reference(g) > 0)

    def test_structured_families(self):
        for g in (
            windmill_graph(33),
            cycle_graph(7),
            cycle_graph(4),
            bipartite_random_graph(48, 3.0 / 48, seed=7),
        ):
            want = four_cycle_count_reference(g) > 0
            assert detect_four_cycles(g).value == want


class TestAllgatherRows:
    def test_empty_input(self):
        clique = CongestedClique(3)
        out = clique.allgather_rows(
            [np.zeros((0, 2), dtype=np.int64)] * 3, phase="ag"
        )
        assert out.shape == (0, 2)
        assert clique.rounds == 1  # the counts broadcast still happens

    def test_ragged_record_width_rejected(self):
        clique = CongestedClique(2)
        with pytest.raises(CliqueModelError):
            clique.allgather_rows(
                [
                    np.zeros((1, 2), dtype=np.int64),
                    np.zeros((1, 3), dtype=np.int64),
                ]
            )


class TestBlockCollectives:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_scatter_gather_roundtrip_and_charges(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n + 1))
        blocks = rng.integers(-100, 100, (n, k, 3)).astype(np.int64)
        array_clique = CongestedClique(n, word_bits=16)
        out = array_clique.scatter_blocks(blocks, phase="x")
        assert np.array_equal(out, blocks.swapaxes(0, 1))
        # Per-message oracle for the same exchange.
        outboxes = [
            [(j, blocks[v, j], words_for_array(blocks[v, j], 16)) for j in range(k)]
            for v in range(n)
        ]
        assert phase_rows(array_clique.meter) == [
            oracle_phase(outboxes, n, phase="x", primitive="route")
        ]
        # gather is the inverse exchange.
        back_clique = CongestedClique(n, word_bits=16)
        back = back_clique.gather_blocks(out, phase="x")
        assert np.array_equal(back, blocks[:, :k])
        outboxes = [
            [(u, out[v, u], words_for_array(out[v, u], 16)) for u in range(n)]
            for v in range(k)
        ] + [[] for _ in range(n - k)]
        assert phase_rows(back_clique.meter) == [
            oracle_phase(outboxes, n, phase="x", primitive="route")
        ]

    def test_send_array_matches_oracle(self, rng):
        n = 6
        dests = [rng.integers(0, n, 4).astype(np.int64) for _ in range(n)]
        blocks = [rng.integers(-9, 9, (4, 2)).astype(np.int64) for _ in range(n)]
        clique = CongestedClique(n, word_bits=16)
        inboxes = clique.send_array(dests, blocks, phase="s")
        widths = [[words_for_array(b, 16) for b in node] for node in blocks]
        outboxes = outboxes_of(dests, blocks, widths)
        assert phase_rows(clique.meter) == [
            oracle_phase(outboxes, n, phase="s", primitive="send")
        ]
        for u, box in enumerate(deliver(outboxes, n)):
            assert [src for src, _ in box] == inboxes[u].sources.tolist()
            for (_src, piece), got in zip(box, inboxes[u].blocks):
                assert np.array_equal(piece, got)

    def test_send_array_pair_bound_enforced(self):
        n = 4
        clique = CongestedClique(n)
        dests = [np.full(5, 1, dtype=np.int64)] + [
            np.zeros(0, dtype=np.int64) for _ in range(n - 1)
        ]
        blocks = [np.ones((5, 2), dtype=np.int64)] + [
            np.zeros((0, 2), dtype=np.int64) for _ in range(n - 1)
        ]
        with pytest.raises(LoadBoundExceededError):
            clique.send_array(dests, blocks, expect_max_pair=3)

    def test_malformed_block_stacks_rejected(self):
        clique = CongestedClique(3)
        with pytest.raises(CliqueModelError):
            clique.scatter_blocks(np.zeros((2, 2, 2), dtype=np.int64))  # n rows
        with pytest.raises(CliqueModelError):
            clique.scatter_blocks(np.zeros((3, 4, 2), dtype=np.int64))  # k > n
        with pytest.raises(CliqueModelError):
            clique.gather_blocks(np.zeros((4, 3, 2), dtype=np.int64))  # k > n
        with pytest.raises(CliqueModelError):
            clique.gather_blocks(np.zeros((2, 2, 2), dtype=np.int64))  # n cols


class TestBooleanKernel:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_blocked_matches_cube_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = (int(v) for v in rng.integers(1, 40, 3))
        x = (rng.random((m, k)) < rng.random()).astype(np.int64)
        y = (rng.random((k, n)) < rng.random()).astype(np.int64)
        want = BOOLEAN.cube_matmul(x, y)
        assert np.array_equal(BOOLEAN.matmul(x, y), want)
        # Tiling must not change the result.
        assert np.array_equal(BOOLEAN.matmul(x, y, tile=3), want)
        assert np.array_equal(BOOLEAN.matmul(x, y, tile=1), want)

    def test_empty_inner_dimension(self):
        x = np.zeros((3, 0), dtype=np.int64)
        y = np.zeros((0, 4), dtype=np.int64)
        assert np.array_equal(BOOLEAN.matmul(x, y), np.zeros((3, 4), np.int64))

    def test_bad_tile_rejected(self):
        x = np.ones((2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            BOOLEAN.matmul(x, x, tile=0)

    @pytest.mark.parametrize("method", ["semiring", "naive"])
    def test_boolean_product_runs_on_boolean_semiring(self, method, rng):
        # The semiring engines now multiply directly over the Boolean
        # semiring: 0/1 partials, blocked kernel locally, same product.
        n = 27 if method == "semiring" else 16
        x = rng.integers(0, 2, (n, n), dtype=np.int64) * 5
        y = rng.integers(0, 2, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        got = boolean_product(clique, x, y, method, phase="t")
        want = (((x > 0).astype(np.int64) @ y) > 0).astype(np.int64)
        assert np.array_equal(got, want)
        assert clique.rounds > 0
