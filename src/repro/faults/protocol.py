"""Encoded robust collectives: detect, retry, degrade.

:class:`EncodedClique` re-implements the array collectives of
:class:`~repro.clique.model.CongestedClique` over an erasure/error code
whose pieces travel through pairwise-distinct relays
(:func:`repro.clique.scheduling.disjoint_relays`).  Two schemes plug in:

* :class:`RobustClique` (scheme ``"replicate"``, PR 6) -- ``c = 2T + 1``-way
  replication decoded by supported majority
  (:func:`repro.faults.encoding.majority_decode`); round overhead ``2T+1``.
* :class:`CodedClique` (scheme ``"coded"``, PR 9) -- systematic
  Reed-Solomon striping over GF(2^16) (:mod:`repro.faults.coding`): each
  piece is cut into ``k`` data stripes plus ``2T`` parity stripes, so the
  overhead drops from ``2T + 1`` toward ``n / (n - 2T)``.

The protocol per exchange is scheme-independent:

1. **encode/ship**: every piece is expanded into ``c`` encoded pieces that
   travel through ``c`` distinct relay nodes; the redundancy is charged
   *honestly* -- the actual meter bills the encoded exchange (and, for
   broadcasts, the relay fan-out leg), not the abstract one.
2. **detect**: the decoder either certifies the exact original words
   (majority support ``T + 1``; Reed-Solomon syndrome recheck) or flags
   the piece -- no wrong value can ever be certified (see
   :mod:`repro.faults.encoding` and :mod:`repro.faults.coding`).
3. **retry**: a flagged piece re-ships the exchange through a fresh relay
   assignment (the exchange counter salts ``disjoint_relays``), up to
   ``max_retries`` times, each retry billed.
4. **degrade**: past the budget the exchange raises
   :class:`~repro.errors.FaultToleranceExceeded`.  The invariant is *no
   silent wrong answers, ever*: an encoded closure either equals the
   fault-free oracle edge-for-edge or raises.

Meter separation rides the meter stack
(:class:`~repro.clique.accounting.MeterStack`): ``clique.meter`` (observer
#0) bills what the encoded run actually spends, and
``clique.abstract_meter`` is a plain second observer billing what the same
workload costs on a fault-free clique.  Primitives that are not encoded
fan out to both automatically; an encoded exchange *mutes* the abstract
observer, charges it the fault-free cost by hand, and ships the redundant
exchange through the stack -- so the abstract bill stays phase-for-phase
identical to the oracle's meter (the overhead factor is the ratio of the
two round totals) while transport cost models observe the encoded
exchanges that actually hit the wire.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from repro.clique.accounting import CostMeter, PhaseCost, PhaseTraffic
from repro.clique.routing import ArrayBatch, deliver_array, deliver_array_flat
from repro.clique.scheduling import disjoint_relays
from repro.errors import CliqueModelError, FaultToleranceExceeded
from repro.faults.coding import decode_stripes, encode_stripes, stripe_plan
from repro.faults.encoding import majority_decode
from repro.faults.injection import FaultyClique, corrupt_pieces
from repro.faults.plan import FaultPlan

#: Decode callback: ``(tampered (P*c, ...), dropped (P*c,)) -> (decoded
#: (P, ...), ok (P,))``.  Pieces with ``ok`` False carry no guarantee.
DecodeFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


class EncodedClique(FaultyClique):
    """Shared machinery of the encoded (fault-tolerant) collective schemes.

    Subclasses choose the code by implementing :meth:`_encode` (and a
    construction-time relay-budget check via :meth:`_check_relay_budget`);
    everything else -- the retry loop, the meter split, the collective
    overrides, the degrade semantics -- is scheme-independent.

    Args:
        n: clique size.
        plan: the adversary (:class:`~repro.faults.plan.FaultPlan`), or None
            to run the encoded protocol fault-free (redundancy still billed).
        tolerance: ``T`` -- the per-exchange corruption budget the code must
            survive.
        max_retries: re-ship attempts after a detected inconsistency before
            degrading to :class:`~repro.errors.FaultToleranceExceeded`.

    Attributes:
        scheme: the ``fault_scheme`` name this class implements.
        abstract_meter: the fault-free bill (equals the oracle's meter).
        meter: the actual bill, redundancy and retries included.
        retries: re-shipped exchanges so far.
        decode_failures: exchanges that degraded (raised) so far.
    """

    scheme = "encoded"

    def __init__(
        self,
        n: int,
        *,
        plan: FaultPlan | None = None,
        tolerance: int = 1,
        max_retries: int = 2,
        **kwargs,
    ) -> None:
        super().__init__(n, plan=plan, **kwargs)
        if tolerance < 1:
            raise ValueError(
                f"robust collectives need tolerance >= 1, got {tolerance}"
            )
        if max_retries < 0:
            raise ValueError(f"retry budget must be non-negative, got {max_retries}")
        self.tolerance = tolerance
        self.max_retries = max_retries
        self._check_relay_budget()
        # Second observer on the meter stack: primitives that are not
        # encoded (tuple broadcasts, transposes, ...) cost the same with
        # or without faults and fan out to both meters automatically; the
        # encoded exchanges mute this observer and bill it the fault-free
        # cost by hand (see _run_encoded).
        self.abstract_meter = CostMeter()
        self.meters.add_observer(self.abstract_meter)
        self.retries = 0
        self.decode_failures = 0

    # ------------------------------------------------------------------ #
    # Scheme hooks
    # ------------------------------------------------------------------ #

    def _check_relay_budget(self) -> None:
        """Refuse construction when ``n`` cannot host the code's relays."""
        raise NotImplementedError

    def _encode(
        self, blocks: np.ndarray, widths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, DecodeFn]:
        """Encode one exchange's ``(P, ...)`` pieces for shipping.

        Returns ``(encoded, encoded_widths, copies, decode)``: the
        ``(P * copies, ...)`` encoded piece stack (encoded piece ``j`` of
        piece ``i`` at row ``i * copies + j`` -- the layout
        :func:`~repro.faults.injection.corrupt_pieces` attributes relays
        by), its per-encoded-piece semantic widths for billing, the
        expansion factor, and the matching decode callback.
        """
        raise NotImplementedError

    def redundancy_note(self) -> str:
        """One-line human description of the redundancy (CLI summaries)."""
        raise NotImplementedError

    def _degrade_detail(self) -> str:
        """Scheme-specific clause of the degrade message."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Core encode -> corrupt -> decode -> retry loop
    # ------------------------------------------------------------------ #

    def _run_encoded(
        self,
        pieces: np.ndarray,
        encoded: np.ndarray,
        copies: int,
        skip_enc: np.ndarray | None,
        abstract_cost: PhaseCost,
        ship_costs: Callable[[int], list[tuple[PhaseCost, "PhaseTraffic | None"]]],
        decode: DecodeFn,
        phase: str,
    ) -> np.ndarray:
        """Run one encoded exchange end to end; return the decoded pieces.

        ``pieces`` is the ``(P, ...)`` fault-free truth, ``encoded`` its
        ``(P * copies, ...)`` encoding.  ``ship_costs(exchange_id)`` yields
        ``(cost, traffic)`` charges of one shipping attempt (relay
        assignment, and hence broadcast balance, depends on the exchange
        id); they go through the meter stack with the abstract observer
        muted, so the actual meter *and* any transport cost model see the
        encoded exchange while the abstract meter is billed the fault-free
        cost by hand.
        """
        p = pieces.shape[0]
        with self.meters.muted(self.abstract_meter):
            self.abstract_meter.charge(abstract_cost)
            for attempt in range(self.max_retries + 1):
                exchange_id = self._next_exchange()
                for cost, traffic in ship_costs(exchange_id):
                    self.meters.charge(cost, traffic)
                if self.plan is None or self.plan.t == 0:
                    return pieces
                tampered, hit, dropped = corrupt_pieces(
                    self.plan,
                    exchange_id,
                    self.n,
                    encoded,
                    copies=copies,
                    skip=skip_enc,
                )
                self.faults_injected += int(hit.sum())
                decoded, ok = decode(tampered, dropped)
                if bool(ok.all()):
                    return decoded
                if attempt < self.max_retries:
                    self.retries += 1
            self.decode_failures += 1
            raise FaultToleranceExceeded(
                f"phase {phase!r}: {int((~ok).sum())} of {p} pieces failed to "
                f"{self._degrade_detail()} after "
                f"{self.max_retries + 1} attempts (tolerance {self.tolerance}, "
                f"fault kind {self.plan.kind.value!r}, budget t={self.plan.t})"
            )

    def _encoded_routed(
        self, batch: ArrayBatch, abstract_cost: PhaseCost, phase: str
    ) -> np.ndarray:
        """Encoded variant of one routed/direct batch; returns decoded blocks.

        The encoded exchange is charged as a *routed* exchange even when
        the abstract one is direct: relaying through distinct intermediates
        is what buys the disjointness the decode needs, so an encoded
        direct send is physically a Lenzen-routed exchange.
        """
        encoded, enc_widths, copies, decode = self._encode(
            batch.blocks, batch.widths
        )
        enc_batch = ArrayBatch(
            n=batch.n,
            src=np.repeat(batch.src, copies),
            dst=np.repeat(batch.dst, copies),
            widths=enc_widths,
            blocks=encoded,
            tags=None,
        )
        enc_cost = self._routed_batch_cost(enc_batch, f"{phase}/encoded", None)
        enc_traffic = self._batch_traffic(enc_batch, "route", relayed=True)
        skip_enc = np.repeat(batch.dst == batch.src, copies)
        return self._run_encoded(
            batch.blocks,
            encoded,
            copies,
            skip_enc,
            abstract_cost,
            lambda _exchange_id: [(enc_cost, enc_traffic)],
            decode,
            phase,
        )

    def _encoded_broadcast(
        self,
        pieces: np.ndarray,
        owners: np.ndarray,
        piece_widths: np.ndarray,
        abstract_cost: PhaseCost,
        phase: str,
    ) -> np.ndarray:
        """Encoded variant of one row broadcast; returns the decoded rows.

        A plain broadcast has no relays, so a corrupt *sender-side* hit
        would defeat naive repetition (all copies share the fault).  The
        encoded broadcast therefore relays: each piece's encoding is routed
        to its distinct relay nodes (fan-out leg, billed as a routed
        exchange), and each relay broadcasts the encoded pieces it holds
        (billed by the per-relay balance of the assignment).
        """
        n = self.n
        p = pieces.shape[0]
        encoded, enc_widths, copies, decode = self._encode(pieces, piece_widths)
        enc_owners = np.repeat(owners, copies)

        def ship_costs(
            exchange_id: int,
        ) -> list[tuple[PhaseCost, "PhaseTraffic | None"]]:
            relays = disjoint_relays(p, copies, n, salt=exchange_id).reshape(-1)
            fan_batch = ArrayBatch(
                n=n,
                src=enc_owners,
                dst=relays,
                widths=enc_widths,
                blocks=np.zeros((relays.shape[0], 0), dtype=np.int64),
                tags=None,
            )
            fan_cost = self._routed_batch_cost(fan_batch, f"{phase}/fanout", None)
            fan_traffic = self._batch_traffic(fan_batch, "route", relayed=True)
            per_relay = np.zeros(n, dtype=np.int64)
            np.add.at(per_relay, relays, enc_widths)
            relay_widths = [int(w) for w in per_relay]
            bcast_cost = self._broadcast_cost(relay_widths, f"{phase}/encoded")
            bcast_traffic = self._broadcast_traffic(relay_widths)
            return [(fan_cost, fan_traffic), (bcast_cost, bcast_traffic)]

        return self._run_encoded(
            pieces,
            encoded,
            copies,
            None,
            abstract_cost,
            ship_costs,
            decode,
            phase,
        )

    # ------------------------------------------------------------------ #
    # Encoded overrides of the array collectives
    # ------------------------------------------------------------------ #

    def route_array(
        self,
        dests,
        blocks,
        *,
        widths=None,
        tags=None,
        phase: str = "route",
        expect_max_load: int | None = None,
        flat: bool = False,
    ):
        batch = self._flatten_checked(dests, blocks, widths, tags)
        abstract_cost = self._routed_batch_cost(batch, phase, expect_max_load)
        decoded = self._encoded_routed(batch, abstract_cost, phase)
        out_batch = replace(batch, blocks=decoded)
        return deliver_array_flat(out_batch) if flat else deliver_array(out_batch)

    def route_array_take(
        self,
        dests,
        blocks,
        *,
        take: np.ndarray,
        widths=None,
        out: np.ndarray | None = None,
        owners: np.ndarray | None = None,
        phase: str = "route",
        expect_max_load: int | None = None,
    ) -> np.ndarray:
        batch = self._flatten_checked(dests, blocks, widths, None)
        # Same discipline as the base model: reject a bad gather *before*
        # anything is charged, on either meter.
        take = np.asarray(take, dtype=np.intp)
        if take.size and (
            int(take.min()) < 0 or int(take.max()) >= batch.blocks.shape[0]
        ):
            raise CliqueModelError("route_array_take: take index out of range")
        if owners is not None and not np.array_equal(batch.dst[take], owners):
            raise CliqueModelError(
                "route_array_take: gather reads pieces addressed to another "
                "node (take/owners disagree with the batch destinations)"
            )
        abstract_cost = self._routed_batch_cost(batch, phase, expect_max_load)
        decoded = self._encoded_routed(batch, abstract_cost, phase)
        return np.take(decoded, take, axis=0, out=out)

    def send_array(
        self,
        dests,
        blocks,
        *,
        widths=None,
        tags=None,
        phase: str = "send",
        expect_max_pair: int | None = None,
    ):
        batch = self._flatten_checked(dests, blocks, widths, tags)
        abstract_cost = self._direct_batch_cost(batch, phase, expect_max_pair)
        decoded = self._encoded_routed(batch, abstract_cost, phase)
        return deliver_array(replace(batch, blocks=decoded))

    def _deliver_broadcast_rows(
        self, rows: np.ndarray, width_list: list[int], phase: str
    ) -> np.ndarray:
        abstract_cost = self._broadcast_cost(width_list, phase)
        return self._encoded_broadcast(
            rows,
            np.arange(self.n, dtype=np.int64),
            np.asarray(width_list, dtype=np.int64),
            abstract_cost,
            phase,
        )

    def _broadcast_held(
        self,
        held: list[np.ndarray],
        bcast_widths: list[int],
        phase: str,
    ) -> np.ndarray:
        abstract_cost = self._broadcast_cost(bcast_widths, phase)
        counts = [int(h.shape[0]) for h in held]
        owners = np.repeat(np.arange(self.n, dtype=np.int64), counts)
        # allgather_rows charges a uniform per-record width per holder, so
        # the per-piece width is the holder total split evenly.
        per_piece = [
            np.full(cnt, bcast_widths[v] // cnt, dtype=np.int64)
            for v, cnt in enumerate(counts)
            if cnt
        ]
        piece_widths = (
            np.concatenate(per_piece) if per_piece else np.zeros(0, dtype=np.int64)
        )
        return self._encoded_broadcast(
            np.concatenate(held, axis=0), owners, piece_widths, abstract_cost, phase
        )

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    @property
    def overhead_factor(self) -> float:
        """Actual rounds divided by the abstract (fault-free) rounds.

        A fresh session has charged nothing on either meter; the honest
        report for "no redundancy spent yet" is 1.0, not a zero division.
        """
        base = self.abstract_meter.rounds
        if not base:
            return 1.0
        return float(self.meter.rounds) / base

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.n}, tolerance={self.tolerance}, "
            f"scheme={self.scheme!r}, rounds={self.meter.rounds}, "
            f"abstract_rounds={self.abstract_meter.rounds})"
        )


class RobustClique(EncodedClique):
    """Replication scheme: ``c = 2T + 1`` copies, supported-majority decode.

    Survives ``T`` corrupt relays per exchange because flip masks are
    pairwise distinct across relays and drops are known erasures, so no
    wrong value can ever gather the ``T + 1`` support threshold (see
    :mod:`repro.faults.encoding`).  Costs a ``2T + 1`` round overhead --
    the baseline :class:`CodedClique` improves on.

    Attributes:
        copies: the replication degree ``c = 2T + 1``.
    """

    scheme = "replicate"

    def _check_relay_budget(self) -> None:
        copies = 2 * self.tolerance + 1
        if copies > self.n:
            raise CliqueModelError(
                f"replication degree 2*{self.tolerance}+1 = {copies} needs "
                f"{copies} pairwise-distinct relays but the clique has only "
                f"{self.n} nodes"
            )
        self.copies = copies

    def _encode(
        self, blocks: np.ndarray, widths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, DecodeFn]:
        c = self.copies
        p = blocks.shape[0]
        piece_shape = blocks.shape[1:]
        threshold = self.tolerance + 1

        def decode(
            tampered: np.ndarray, dropped: np.ndarray
        ) -> tuple[np.ndarray, np.ndarray]:
            return majority_decode(
                tampered.reshape((p, c) + piece_shape),
                ~dropped.reshape(p, c),
                threshold,
            )

        return (
            np.repeat(blocks, c, axis=0),
            np.repeat(np.asarray(widths, dtype=np.int64), c),
            c,
            decode,
        )

    def redundancy_note(self) -> str:
        return f"{self.copies}-way replication"

    def _degrade_detail(self) -> str:
        return f"reach the support threshold {self.tolerance + 1}"


class CodedClique(EncodedClique):
    """Reed-Solomon scheme: ``k`` data + ``2T`` parity stripes per piece.

    Every piece is striped column-wise over GF(2^16)
    (:func:`repro.faults.coding.encode_stripes`) across ``m = k + 2T <= n``
    distinct relays, so ``T`` corrupt relays touch at most ``T`` stripes:
    flips are located and corrected (with a full syndrome recheck as the
    certification step), drops/crashes are known erasures recovered
    directly, and anything the decoder cannot certify flags the piece for
    the shared retry/degrade loop.  Overhead ``m * ceil(w/k) / w``, which
    approaches ``n / (n - 2T)`` for pieces of at least ``n - 2T`` words --
    the rate the LDC-compiler line of work (arXiv:2508.08740) argues is
    the right price for robustness.
    """

    scheme = "coded"

    def _check_relay_budget(self) -> None:
        needed = 2 * self.tolerance + 1
        if needed > self.n:
            raise CliqueModelError(
                f"RS striping with tolerance {self.tolerance} needs at least "
                f"2*{self.tolerance}+1 = {needed} pairwise-distinct relays "
                f"(one data stripe + 2t parity stripes) but the clique has "
                f"only {self.n} nodes"
            )

    def _encode(
        self, blocks: np.ndarray, widths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, DecodeFn]:
        p = blocks.shape[0]
        piece_shape = blocks.shape[1:]
        width = int(np.prod(piece_shape, dtype=np.int64))
        plan = stripe_plan(width, self.n, self.tolerance)
        encoded = encode_stripes(blocks.reshape(p, width), plan)
        # Semantic billing: each of the m stripes of piece i carries a
        # k-th of the piece's declared width (rounded up).
        enc_widths = np.repeat(
            -(-np.asarray(widths, dtype=np.int64) // plan.k), plan.m
        )

        def decode(
            tampered: np.ndarray, dropped: np.ndarray
        ) -> tuple[np.ndarray, np.ndarray]:
            data, ok = decode_stripes(tampered, dropped, plan)
            return data[:, :width].reshape((p,) + piece_shape), ok

        return encoded, enc_widths, plan.m, decode

    def redundancy_note(self) -> str:
        return (
            f"RS-coded striping (GF(2^16), {2 * self.tolerance} parity "
            f"stripes per piece)"
        )

    def _degrade_detail(self) -> str:
        return (
            f"pass Reed-Solomon certification "
            f"({2 * self.tolerance} parity stripes)"
        )


#: ``fault_scheme`` knob -> encoded-clique class.
FAULT_SCHEMES: dict[str, type[EncodedClique]] = {
    RobustClique.scheme: RobustClique,
    CodedClique.scheme: CodedClique,
}

__all__ = [
    "CodedClique",
    "EncodedClique",
    "FAULT_SCHEMES",
    "RobustClique",
]
