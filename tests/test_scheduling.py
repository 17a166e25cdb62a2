"""Tests for the schedule machinery: Koenig colouring and relay schedules.

These certify the routing theorem the whole paper leans on: any demand with
per-node load ``L`` is deliverable in ``O(L / n)`` rounds, via an explicit
schedule that never ships two words across one ordered pair in a round.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clique.scheduling import (
    _SCHEDULE_CACHE,
    broadcast_rounds,
    colour_into_matchings,
    direct_rounds,
    relay_rounds_fast,
    relay_schedule,
    validate_matchings,
    validate_relay_schedule,
)
from repro.errors import ScheduleValidationError
from tests.conftest import random_demand


def _max_load(demand: dict[tuple[int, int], int], n: int) -> int:
    send = [0] * n
    recv = [0] * n
    for (u, v), c in demand.items():
        send[u] += c
        recv[v] += c
    return max(max(send, default=0), max(recv, default=0))


class TestDirectRounds:
    def test_empty(self):
        assert direct_rounds({}) == 0

    def test_max_pair(self):
        assert direct_rounds({(0, 1): 3, (2, 3): 7}) == 7


class TestRelayRoundsFast:
    def test_zero_load(self):
        assert relay_rounds_fast(0, 8) == 0

    def test_formula(self):
        assert relay_rounds_fast(8, 8) == 2
        assert relay_rounds_fast(9, 8) == 4
        assert relay_rounds_fast(17, 8) == 6

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            relay_rounds_fast(5, 1)


class TestColouring:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=10))
    def test_random_demands_colour_properly(self, seed, n):
        rng = np.random.default_rng(seed)
        demand = random_demand(rng, n)
        matchings = colour_into_matchings(demand, n)
        validate_matchings(matchings, demand)

    def test_matching_count_within_2x_of_degree(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = 8
            demand = random_demand(rng, n)
            if not demand:
                continue
            matchings = colour_into_matchings(demand, n)
            max_deg = _max_load(demand, n)
            assert len(matchings) <= 2 * max_deg

    def test_single_heavy_pair(self):
        demand = {(0, 1): 40}
        matchings = colour_into_matchings(demand, 4)
        validate_matchings(matchings, demand)
        assert len(matchings) >= 40  # a pair's words must use distinct classes

    def test_permutation_demand_is_one_matching(self):
        n = 6
        demand = {(u, (u + 1) % n): 1 for u in range(n)}
        matchings = colour_into_matchings(demand, n)
        validate_matchings(matchings, demand)
        assert len(matchings) == 1

    def test_empty_demand(self):
        assert colour_into_matchings({}, 5) == []

    def test_validation_rejects_bad_matchings(self):
        with pytest.raises(ScheduleValidationError):
            validate_matchings([[(0, 1), (0, 2)]], {(0, 1): 1, (0, 2): 1})

    def test_validation_rejects_incomplete_cover(self):
        with pytest.raises(ScheduleValidationError):
            validate_matchings([[(0, 1)]], {(0, 1): 2})


class TestRelaySchedule:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=9))
    def test_schedule_is_legal_and_bounded(self, seed, n):
        rng = np.random.default_rng(seed)
        demand = random_demand(rng, n)
        if not demand:
            return
        schedule = relay_schedule(demand, n)
        validate_relay_schedule(schedule)
        fast = relay_rounds_fast(_max_load(demand, n), n)
        # Power-of-two padding costs at most a factor 2 plus one batch.
        assert schedule.rounds <= 2 * fast + 2
        assert schedule.rounds >= 2  # at least one two-round batch

    def test_schedule_depends_on_the_demand_not_its_pair_order(self):
        # Regression: the colouring's count of non-empty matchings depends
        # on the order the pairs are presented in (13 vs 12 here, i.e. 6 vs
        # 4 rounds), while the memo is keyed on the sorted pairs -- so a
        # cold build from the caller's order made the cached rounds depend
        # on which caller happened to build first.
        n = 6
        emitted = {
            (2, 3): 4, (2, 0): 4, (2, 1): 2, (3, 1): 2,
            (4, 3): 2, (4, 5): 2, (4, 1): 2,
        }
        ordered = dict(sorted(emitted.items()))
        assert len(colour_into_matchings(emitted, n)) != len(
            colour_into_matchings(ordered, n)
        )
        rounds = []
        for demand in (emitted, ordered):
            _SCHEDULE_CACHE.clear()
            rounds.append(relay_schedule(demand, n).rounds)
        assert rounds[0] == rounds[1]

    def test_all_to_one_demand(self):
        n = 8
        demand = {(u, 0): 4 for u in range(1, n)}
        schedule = relay_schedule(demand, n)
        validate_relay_schedule(schedule)
        # Receive load 28 -> fast bound 2*ceil(28/8)=8; schedule within 2x+2.
        assert schedule.rounds <= 18

    def test_self_hops_are_elided(self):
        demand = {(0, 1): 1, (1, 0): 1}
        schedule = relay_schedule(demand, 4)
        for hop_list in schedule.hops:
            for u, v in hop_list:
                assert u != v


class TestBroadcastRounds:
    def test_empty(self):
        assert broadcast_rounds([]) == 0

    def test_max_width(self):
        assert broadcast_rounds([1, 5, 2]) == 5

    def test_relay_vs_lower_bound(self):
        # The relay schedule can never beat the bandwidth floor ceil(L/n).
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = 7
            demand = random_demand(rng, n)
            if not demand:
                continue
            schedule = relay_schedule(demand, n)
            assert schedule.rounds >= math.ceil(_max_load(demand, n) / n)


class TestDisjointRelays:
    """PR 6 satellite: relay assignment for replication-coded exchanges."""

    @settings(max_examples=40, deadline=None)
    @given(
        pieces=st.integers(min_value=0, max_value=200),
        n=st.integers(min_value=3, max_value=40),
        salt=st.integers(min_value=0, max_value=1000),
        data=st.data(),
    )
    def test_rows_are_pairwise_distinct_relays(self, pieces, n, salt, data):
        from repro.clique.scheduling import disjoint_relays

        copies = data.draw(st.integers(min_value=1, max_value=n))
        relays = disjoint_relays(pieces, copies, n, salt=salt)
        assert relays.shape == (pieces, copies)
        assert relays.dtype == np.int64
        if pieces:
            assert int(relays.min()) >= 0 and int(relays.max()) < n
            # Each piece's copy set must be c *distinct* relays, else a
            # single corrupt node could own two votes on the same piece.
            sorted_rows = np.sort(relays, axis=1)
            assert np.all(sorted_rows[:, 1:] != sorted_rows[:, :-1])

    def test_deterministic_in_inputs(self):
        from repro.clique.scheduling import disjoint_relays

        assert np.array_equal(
            disjoint_relays(17, 3, 11, salt=5), disjoint_relays(17, 3, 11, salt=5)
        )

    def test_load_is_balanced(self):
        from repro.clique.scheduling import disjoint_relays

        # n pieces, 1 copy: the stride walk must not pile onto few relays.
        n = 16
        relays = disjoint_relays(n, 1, n).reshape(-1)
        counts = np.bincount(relays, minlength=n)
        assert counts.max() <= 2
