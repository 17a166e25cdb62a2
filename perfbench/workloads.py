"""The five benchmark workloads: inputs, one pass, and the oracle check.

Every input is derived from ``(seed, stream, index)``, so a seed fixes the
whole run.  The timed phase gives each repetition its own input of the same
shape; the set-up's warm-up passes use inputs of their own.  Outcomes are
checked against the centralised oracles of :mod:`repro.graphs.reference`
after the timed phase, so checking costs no timed seconds.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.algebra.semirings import MIN_PLUS
from repro.clique.messages import default_word_bits
from repro.clique.model import ScheduleMode
from repro.constants import INF
from repro.distances.apsp import apsp_exact
from repro.engine.session import EngineSession, make_clique
from repro.faults import FaultPlan
from repro.graphs import generators
from repro.graphs.reference import (
    apsp_reference,
    triangle_count_reference,
    validate_routing_table,
)
from repro.netsim import CostModelSpec
from repro.runtime import pad_matrix
from repro.serve import BatchingServer, ClosureArtifact, QueryEngine
from repro.serve import delta as serve_delta
from repro.serve.app import request_line
from repro.subgraphs.counting import count_triangles

#: Warm-up inputs come from a fixed seed and an index range of their own,
#: so set-up does the same work whatever ``--seed`` is, and never on an
#: input the timed phase uses.
WARMUP_SEED = 0
WARMUP_INDEX = 1_000_000


def derive_seed(seed: int, stream: str, index: int) -> int:
    """A 32-bit generator seed for input ``index`` of ``stream``."""
    raw = hashlib.sha256(f"{seed}/{stream}/{index}".encode()).digest()
    return int.from_bytes(raw[:4], "little")


def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def price_full_bisection(phases, clique_n: int) -> float:
    """Simulated makespan (us) of a recorded bill on a full-bisection net."""
    meter = CostModelSpec("full").build(clique_n, default_word_bits(clique_n))
    for cost in phases:
        meter.observe(cost, None)
    return meter.makespan_us


@dataclass
class Outcome:
    """One pass: its bill, plus deferred digest, pricing and oracle check.

    ``value``, ``price`` and ``check`` are resolved by :meth:`finish` after
    the timed phase, so hashing, post-hoc pricing and oracles cost no timed
    (or traced) seconds.
    """

    rounds: int
    words: int
    value: tuple = ()
    price: object = None
    check: object = None
    retries: int = 0
    abstract_rounds: int = 0
    makespan_us: float = 0.0
    digest: str = ""

    def finish(self) -> "Outcome":
        self.digest = "".join(digest(v) for v in self.value)
        self.makespan_us = float(self.price())
        return self

    def key(self) -> tuple:
        return (self.rounds, self.words, self.makespan_us, self.digest)


# ---------------------------------------------------------------------- #
# Batch workloads: one pass = one call on one fresh input
# ---------------------------------------------------------------------- #


class BatchWorkload:
    name = ""
    why = ""
    #: Report host times in reference seconds (compute-bound passes slow
    #: down with the host probe; see ``probe.py``).
    host_scaled = True
    #: Nominal seconds per pass; fixes the repetition count from
    #: ``--seconds`` so the bill of a run is a function of the seed alone.
    nominal_pass_s = 1.0
    min_reps = 5

    def reps(self, seconds: float) -> int:
        return max(self.min_reps, round(seconds / self.nominal_pass_s))

    def make_input(self, seed: int, index: int):
        raise NotImplementedError

    def run(self, graph) -> Outcome:
        raise NotImplementedError


class ApspMinplus(BatchWorkload):
    name = "apsp_minplus"
    why = (
        "exact APSP on the semiring engine: kernel-bound (packed min-plus "
        "witness fold), re-squares its converged closure"
    )
    n = 216
    mode = ScheduleMode.FAST
    nominal_pass_s = 0.55

    def make_input(self, seed, index):
        return generators.random_weighted_graph(
            self.n, 0.1, max_weight=50, seed=derive_seed(seed, self.name, index)
        )

    def run(self, graph):
        result = apsp_exact(graph, mode=self.mode)
        dist, hops = result.value, result.extras["next_hop"]

        def check():
            oracle = apsp_reference(graph)
            return bool(np.array_equal(dist, oracle)) and validate_routing_table(
                graph, oracle, hops
            )

        return Outcome(
            rounds=result.rounds,
            words=result.meter.words,
            value=(dist, hops),
            price=lambda: price_full_bisection(
                result.meter.phases, result.clique_size
            ),
            check=check,
        )


class ClosureExact(ApspMinplus):
    name = "closure_exact"
    why = (
        "exact APSP with materialised relay schedules (EXACT mode): the only "
        "workload that colours demands into matchings"
    )
    n = 27
    mode = ScheduleMode.EXACT
    nominal_pass_s = 0.5
    min_reps = 12

    def make_input(self, seed, index):
        # Denser, lighter-weight inputs than apsp_minplus: their schedule
        # build cost varies least from one input to the next.
        return generators.random_weighted_graph(
            self.n, 0.3, max_weight=9, seed=derive_seed(seed, self.name, index)
        )


class TrianglesBilinear(BatchWorkload):
    name = "triangles_bilinear"
    why = (
        "triangle count on the bilinear Strassen engine: bypasses the "
        "min-plus fold, the control for kernel work on apsp_minplus"
    )
    n = 512
    nominal_pass_s = 1.5

    def make_input(self, seed, index):
        return generators.gnp_random_graph(
            self.n, 0.1, seed=derive_seed(seed, self.name, index)
        )

    def run(self, graph):
        result = count_triangles(graph)
        value = int(result.value)
        return Outcome(
            rounds=result.rounds,
            words=result.meter.words,
            value=(np.int64(value),),
            price=lambda: price_full_bisection(
                result.meter.phases, result.clique_size
            ),
            check=lambda: value == triangle_count_reference(graph),
        )


class ClosureCoded(BatchWorkload):
    name = "closure_coded"
    why = (
        "min-plus closure under a Byzantine relay on Reed-Solomon coded "
        "collectives priced on a ring: the one workload for faults and netsim"
    )
    n = 125
    nominal_pass_s = 0.9

    def make_input(self, seed, index):
        return generators.random_weighted_digraph(
            self.n, 0.1, 50, seed=derive_seed(seed, self.name, index)
        )

    def run(self, graph):
        clique = make_clique(
            self.n,
            "semiring",
            fault_plan=FaultPlan(t=1, kind="byzantine"),
            fault_tolerance=1,
            fault_scheme="coded",
            cost_model=CostModelSpec("ring"),
        )
        with EngineSession(clique, "semiring", MIN_PLUS) as session:
            closed = session.closure(
                pad_matrix(graph.weight_matrix(), clique.n, fill=INF)
            )
        dist = closed[: self.n, : self.n]
        return Outcome(
            rounds=clique.meter.rounds,
            words=clique.meter.words,
            value=(dist,),
            price=lambda: clique.transport.makespan_us,
            check=lambda: bool(np.array_equal(dist, apsp_reference(graph))),
            retries=clique.retries,
            abstract_rounds=clique.abstract_meter.rounds,
        )


# ---------------------------------------------------------------------- #
# serve_mixed: a closed loop of clients against one artifact, with writes
# ---------------------------------------------------------------------- #


@dataclass
class ServeInputs:
    graph: object
    requests: list
    #: ``writes[j]`` is applied just before request ``(j + 1) * write_every``.
    writes: list


@dataclass
class ServeRecord:
    """Everything one serving phase observed, for metrics and checking."""

    seconds: float = 0.0
    latencies: list = field(default_factory=list)
    replies: list = field(default_factory=list)
    #: Generation current when request ``i`` was sent and when it returned.
    spans: list = field(default_factory=list)
    write_seconds: list = field(default_factory=list)
    write_bills: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    final_dist: object = None
    batches: int = 0
    requests_served: int = 0


class ServeMixed:
    name = "serve_mixed"
    why = (
        "closed loop of 2 clients on a served closure artifact with seeded "
        "delta writes on the event loop: serving I/O, batching, gathers, deltas"
    )
    n = 256
    #: Raw timed-phase seconds: latency here is set by the 1 ms batching
    #: window and loopback round trips, which do not follow the compute
    #: probe (scaling tripled the run-to-run spread on the reference host).
    host_scaled = False
    #: Closed-loop clients: 2, or fewer on a host with fewer cpus.
    clients = min(2, os.cpu_count() or 1)
    window = 0.001
    write_every = 50
    edges_per_write = 4
    nominal_qps = 800.0
    warmup_requests = 400
    #: Generations a reply may have been answered from and still be checked.
    GENERATION_WINDOW = 16

    def requests_for(self, seconds: float) -> int:
        return max(2 * self.write_every, round(seconds * self.nominal_qps))

    def make_inputs(
        self, seed: int, index: int, requests: int, graph=None
    ) -> ServeInputs:
        """Graph, request stream and write batches of input ``index``.

        Passing ``graph`` draws a fresh stream against an existing graph
        (the warm-up serves the timed artifact with traffic of its own).
        """
        rng = np.random.default_rng(derive_seed(seed, self.name, index))
        if graph is None:
            graph = generators.random_weighted_graph(
                self.n, 0.1, max_weight=50, seed=derive_seed(seed, "serve-graph", index)
            )
        # An equal mix, chosen rather than measured (the project has no
        # traffic trace): the single gather of dist, the per-level gathers
        # of path and the row reduction of ecc carry the same weight.
        ops = rng.choice(["dist", "path", "ecc"], size=requests)
        us = rng.integers(0, self.n, size=requests)
        vs = rng.integers(0, self.n, size=requests)
        reqs = []
        for i, (op, u, v) in enumerate(zip(ops, us, vs)):
            payload = {"op": str(op), "u": int(u), "id": i}
            if op != "ecc":
                payload["v"] = int(v)
            reqs.append(payload)
        # Decrease/insert batches keep every write on the delta arm; each
        # batch is drawn against the weights the previous ones left.
        weights = graph.weight_matrix().copy()
        writes = []
        for _ in range((requests - 1) // self.write_every):
            batch = []
            while len(batch) < self.edges_per_write:
                u, v = (int(x) for x in rng.integers(0, self.n, size=2))
                if u == v or weights[u, v] <= 1:
                    continue
                w = int(rng.integers(1, min(int(weights[u, v]), 51)))
                weights[u, v] = weights[v, u] = w
                batch.append((u, v, w))
            writes.append(batch)
        return ServeInputs(graph=graph, requests=reqs, writes=writes)

    def build(self, graph, path: Path) -> None:
        clique = make_clique(self.n, "semiring")
        with EngineSession(clique, "semiring", MIN_PLUS) as session:
            ClosureArtifact.build(session, graph, path)

    def open(self, pristine: Path, work: Path):
        """A writable copy of the pristine artifact plus a seeded session."""
        if work.exists():
            shutil.rmtree(work)
        shutil.copytree(pristine, work)
        artifact = ClosureArtifact.open(work, writable=True)
        session = EngineSession(make_clique(self.n, "semiring"), "semiring", MIN_PLUS)
        dist, hops = artifact.resident_arrays(session.n)
        session.seed_resident(dist, next_hop=hops)
        return artifact, session, artifact.padded_weights(session.n)

    def serve(self, artifact, session, weights, inputs, on_server=None) -> ServeRecord:
        return asyncio.run(
            self._serve(artifact, session, weights, inputs, on_server)
        )

    async def _serve(self, artifact, session, weights, inputs, on_server):
        engine = QueryEngine(artifact)
        server = BatchingServer(engine, window=self.window)
        if on_server is not None:
            on_server(server)
        host, port = await server.start()
        total = len(inputs.requests)
        rec = ServeRecord(
            latencies=[0.0] * total, replies=[None] * total, spans=[None] * total
        )
        state = {"next": 0, "generation": 0}
        mark = session.meter.snapshot()

        async def client():
            reader, writer = await asyncio.open_connection(host, port)
            try:
                while state["next"] < total:
                    i = state["next"]
                    state["next"] = i + 1
                    if i and i % self.write_every == 0:
                        start = time.perf_counter()
                        # Looked up at call time so a traced phase sees
                        # the wrapped entry point.
                        report = serve_delta.apply_edge_updates(
                            session,
                            weights,
                            inputs.writes[i // self.write_every - 1],
                            artifact=artifact,
                        )
                        rec.write_seconds.append(time.perf_counter() - start)
                        rec.write_bills.append((report.mode, report.rounds))
                        state["generation"] += 1
                    sent = state["generation"]
                    start = time.perf_counter()
                    reply = await request_line(reader, writer, inputs.requests[i])
                    rec.latencies[i] = time.perf_counter() - start
                    rec.replies[i] = reply
                    rec.spans[i] = (sent, state["generation"])
            finally:
                writer.close()
                await writer.wait_closed()

        start = time.perf_counter()
        try:
            await asyncio.gather(*(client() for _ in range(self.clients)))
            rec.seconds = time.perf_counter() - start
        finally:
            await server.close()
        rec.phases = list(session.meter.phases[mark:])
        rec.final_dist = np.array(artifact.dist)
        rec.batches = server.stats.batches
        rec.requests_served = server.stats.requests
        return rec

    def check(self, inputs: ServeInputs, rec: ServeRecord) -> int:
        """Failed writes and replies (not ok, or matching no generation).

        Generation 0 and the last generation come from ``apsp_reference``;
        the ones between follow from exact single-edge relaxation of the
        previous one (every write only lowers or inserts edges), and the
        chain must land on the last reference.  Replies are checked as
        their newest possible generation goes by, so only a short window
        of generations is held at once.
        """
        by_newest: dict[int, list[int]] = {}
        failed = 0
        for i, (reply, span) in enumerate(zip(rec.replies, rec.spans)):
            if reply is None or not reply.get("ok"):
                failed += 1
            else:
                by_newest.setdefault(span[1], []).append(i)
        failed += sum(mode != "delta" for mode, _ in rec.write_bills)

        w = inputs.graph.weight_matrix().copy()
        dist = apsp_reference(inputs.graph)
        window = {0: (w, dist)}
        for g in range(len(rec.write_seconds) + 1):
            if g:
                w, dist = w.copy(), dist.copy()
                for u, v, x in inputs.writes[g - 1]:
                    w[u, v] = w[v, u] = x
                    dist = _relax(_relax(dist, u, v, x), v, u, x)
                window[g] = (w, dist)
                window.pop(g - self.GENERATION_WINDOW, None)
            for i in by_newest.get(g, ()):
                lo = rec.spans[i][0]
                if not any(
                    g_ in window
                    and _reply_matches(inputs.requests[i], rec.replies[i], *window[g_])
                    for g_ in range(lo, g + 1)
                ):
                    failed += 1
        if not np.array_equal(dist, apsp_reference(_graph_of(inputs.graph, w))):
            raise RuntimeError("benchmark oracle chain disagrees with apsp_reference")
        return failed + (not np.array_equal(rec.final_dist, dist))


def _relax(dist, u, v, w):
    """Closure ``dist`` after lowering the directed edge ``u -> v`` to ``w``."""
    finite = (dist[:, u] < INF)[:, None] & (dist[v, :] < INF)[None, :]
    via = np.where(finite, dist[:, u, None] + w + dist[None, v, :], INF)
    return np.minimum(dist, via)


def _graph_of(graph, weights):
    from repro.graphs.graphs import Graph

    adjacency = ((weights < INF) & (weights > 0)).astype(np.int64)
    return Graph(
        n=graph.n,
        adjacency=adjacency,
        directed=graph.directed,
        weights=np.where(adjacency > 0, weights, 0),
    )


def _json_dist(value) -> int | None:
    return None if value >= INF else int(value)


def _reply_matches(request, reply, weights, dist) -> bool:
    u = request["u"]
    if request["op"] == "ecc":
        return reply.get("ecc") == _json_dist(dist[u].max())
    v = request["v"]
    if reply.get("dist") != _json_dist(dist[u, v]):
        return False
    if request["op"] == "dist":
        return True
    path = reply.get("path")
    if dist[u, v] >= INF:
        return path == []
    if not path or path[0] != u or path[-1] != v:
        return False
    steps = [int(weights[a, b]) for a, b in zip(path, path[1:])]
    return all(s < INF for s in steps) and sum(steps) == dist[u, v]


WORKLOADS = {
    w.name: w
    for w in (
        ApspMinplus(),
        TrianglesBilinear(),
        ClosureCoded(),
        ClosureExact(),
        ServeMixed(),
    )
}
