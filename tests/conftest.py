"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


def random_demand(
    rng: np.random.Generator, n: int, max_messages: int = 30, max_width: int = 4
) -> dict[tuple[int, int], int]:
    """A random routed-exchange demand for scheduling tests."""
    demand: dict[tuple[int, int], int] = {}
    for u in range(n):
        for _ in range(int(rng.integers(0, max_messages))):
            v = int(rng.integers(0, n))
            if u == v:
                continue
            demand[(u, v)] = demand.get((u, v), 0) + int(rng.integers(1, max_width + 1))
    return demand


def oracle_phase(
    outboxes, n: int, *, phase: str, primitive: str, exact: bool = False
) -> tuple:
    """The bill of one exchange, computed message by message.

    ``outboxes[v]`` lists node ``v``'s ``(dst, payload, words)`` messages;
    the per-message :func:`repro.clique.routing.analyze` oracle gives the
    loads, and the round count follows the model: the maximum per-pair
    words for a direct ``"send"``, ``2 ceil(L / n)`` (FAST) or the relay
    schedule's length (EXACT) for a ``"route"``.  Returned in the field
    order of :func:`phase_rows`.
    """
    from repro.clique.routing import analyze
    from repro.clique.scheduling import (
        direct_rounds,
        relay_rounds_fast,
        relay_schedule,
    )

    profile = analyze(outboxes, n)
    if primitive == "send":
        rounds = direct_rounds(profile.demand)
    elif exact and profile.demand:
        rounds = relay_schedule(profile.demand, n).rounds
    else:
        rounds = relay_rounds_fast(profile.max_load, n)
    return (
        phase,
        primitive,
        rounds,
        profile.total_words,
        profile.payloads,
        profile.max_send,
        profile.max_recv,
    )


def phase_rows(meter) -> list[tuple]:
    """A meter's phases as comparable tuples (every PhaseCost field)."""
    return [
        (
            p.phase,
            p.primitive,
            p.rounds,
            p.words,
            p.payloads,
            p.max_send_words,
            p.max_recv_words,
        )
        for p in meter.phases
    ]


def outboxes_of(dests, blocks, widths) -> list[list[tuple]]:
    """Per-message outboxes ``(dst, piece, words)`` of an array batch."""
    return [
        [(int(d[i]), b[i], int(w[i])) for i in range(len(d))]
        for d, b, w in zip(dests, blocks, widths)
    ]
