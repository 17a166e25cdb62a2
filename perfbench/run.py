#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload apsp_minplus --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
One process, the default serial executor, kernel and BLAS pools pinned to
one thread.  A run has two phases:

* set-up (``setup_s``): from process start to the end of one untimed
  warm-up pass, less the host probes that bracket it: imports, generating
  every input of the run, building artifacts and the warm-up pass on an
  input of its own.  The same cold set-up is repeated in
  ``SETUP_PROCESSES - 1`` fresh processes (this script with
  ``--setup-only``, which prints the set-up's figures and exits) and
  ``setup_s`` is the median, so one-time first-use work is in every
  figure;
* the timed phase: a fixed number of repetitions, derived from
  ``--seconds``, each on its own seed-derived input of the same shape.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the
timed phase with layer spans installed (see ``layertrace.py``), asserts that its
values and bills equal the untraced phase's, and prints the per-layer
metrics.  Every repetition is checked against the oracles of
``repro.graphs.reference``.  The last line of standard output is a JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import time

START = time.perf_counter()

# Pin native thread pools before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"
os.environ["REPRO_KERNEL_BACKEND"] = "serial"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
#: Cold set-ups per run: the run's own and one per extra fresh process.
SETUP_PROCESSES = 3
#: Probe samples taken right before and right after each set-up.
SETUP_PROBES = 5
WORKLOAD_NAMES = (
    "apsp_minplus",
    "triangles_bilinear",
    "closure_coded",
    "closure_exact",
    "serve_mixed",
)

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rounds": "count",
    "words": "count",
    "makespan_us": "sim_us",
    "qps": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "update_s": "s",
}


#: Timed-phase host-time metrics, reported in reference seconds on the
#: workloads whose ``host_scaled`` is set (see ``probe.py``).  ``setup_s``
#: is in reference seconds on every workload, each cold set-up scaled by
#: the probes that bracket it.
HOST_TIMES = ("wall_s", "qps", "p50_ms", "p99_ms", "update_s")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values) -> float:
    """The 99th percentile, or the highest one that still has ten samples
    beyond it (never below the median): a run of 20 passes has no p99."""
    q = min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / len(values))))
    return percentile(values, q)


def peak_rss_mb() -> float:
    """High-water resident memory so far (taken before any oracle runs)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_record() -> dict:
    import numpy

    from repro.algebra.backends import get_backend

    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": get_backend().spec,
        "semiring_tile": os.environ.get("REPRO_SEMIRING_TILE", "default"),
    }


def content_caches() -> list[dict]:
    """Content-keyed program caches a repeated phase must find as it was."""
    from repro.clique import scheduling

    return [scheduling._SCHEDULE_CACHE]


# ---------------------------------------------------------------------- #
# Batch workloads
# ---------------------------------------------------------------------- #


def batch_phase(workload, inputs, tracer=None, speed=None):
    """Run every input once; returns (per-pass seconds, outcomes, errors).

    ``speed`` samples the host probe after each pass, outside the pass's
    own seconds.
    """
    from workloads import Outcome

    times, outcomes, errors = [], [], []
    for graph in inputs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.run(graph)
            else:
                outcome = tracer.span("engine", workload.run, graph)
        except Exception as exc:  # a failed repetition is data, not a crash
            errors.append(f"{type(exc).__name__}: {exc}")
            outcome = Outcome(rounds=0, words=0, price=lambda: 0.0)
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        if speed is not None:
            speed.sample("timed")
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return times, outcomes, len(errors)


def setup_batch(workload, args, work):
    """Every input of the timed phase, then one warm-up pass."""
    from workloads import WARMUP_INDEX, WARMUP_SEED

    t0 = time.perf_counter()
    reps = workload.reps(args.seconds)
    inputs = [workload.make_input(args.seed, i) for i in range(reps)]
    t1 = time.perf_counter()
    workload.run(workload.make_input(WARMUP_SEED, WARMUP_INDEX))
    warmup_s = time.perf_counter() - t1
    split = {"inputs_s": t1 - t0, "build_s": 0.0, "warmup_s": warmup_s}
    return inputs, split


def run_batch(workload, inputs, args, speed, work):
    reps = len(inputs)
    caches = [dict(c) for c in content_caches()]
    speed.sample("timed", 8)
    gc.collect()
    times, outcomes, errors = batch_phase(workload, inputs, speed=speed)
    seconds = sum(times)
    rss = peak_rss_mb()
    speed.sample("timed", 8)
    outcomes = [o.finish() for o in outcomes]
    failed = errors + sum(not o.check() for o in outcomes if o.check is not None)
    attempted = reps

    metrics = {
        "wall_s": seconds / reps,
        "peak_rss_mb": rss,
        "rounds": sum(o.rounds for o in outcomes),
        "words": sum(o.words for o in outcomes),
        "makespan_us": sum(o.makespan_us for o in outcomes),
        "qps": reps / seconds,
        "p50_ms": percentile(times, 50) * 1000.0,
        "p99_ms": tail_percentile(times) * 1000.0,
        "update_s": statistics.median(times),
    }
    notes = {"repetitions": reps, "latency_samples": reps}
    layers = None
    if args.trace:
        from layertrace import Tracer

        for cache, saved in zip(content_caches(), caches):
            cache.clear()
            cache.update(saved)
        gc.collect()
        with Tracer() as tracer:
            t_times, t_outcomes, t_errors = batch_phase(workload, inputs, tracer)
        t_seconds = sum(t_times)
        t_outcomes = [o.finish() for o in t_outcomes]
        mismatched = sum(
            a.key() != b.key() for a, b in zip(outcomes, t_outcomes)
        )
        if mismatched:
            print(
                f"error: {mismatched} traced repetition(s) differ from the "
                "untraced ones in value, rounds, words or makespan",
                file=sys.stderr,
            )
        failed += t_errors + mismatched
        attempted += reps
        abstract = sum(o.abstract_rounds for o in t_outcomes)
        layers = layer_metrics(tracer, t_seconds)
        layers.update(
            {
                "faults.protocol.retries": sum(o.retries for o in t_outcomes),
                "faults.protocol.overhead_factor": (
                    sum(o.rounds for o in t_outcomes) / abstract if abstract else 0.0
                ),
                "trace.overhead_s": t_seconds / reps - metrics["wall_s"],
            }
        )
    return metrics, layers, attempted, failed, notes


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #


@contextmanager
def work_dir():
    """A directory of this process's own under the checkout, removed after."""
    work = Path.cwd() / ".perfbench_work" / f"{os.getpid()}"
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def setup_serve(workload, args, work):
    """Request stream and writes, the artifact, then one warm-up stream."""
    from workloads import WARMUP_INDEX, WARMUP_SEED

    pristine, copy = work / "pristine", work / "serving"
    t0 = time.perf_counter()
    inputs = workload.make_inputs(args.seed, 0, workload.requests_for(args.seconds))
    warm = workload.make_inputs(
        WARMUP_SEED, WARMUP_INDEX, workload.warmup_requests, inputs.graph
    )
    t1 = time.perf_counter()
    workload.build(inputs.graph, pristine)
    t2 = time.perf_counter()
    workload.serve(*workload.open(pristine, copy), warm)
    warmup_s = time.perf_counter() - t2
    split = {"inputs_s": t1 - t0, "build_s": t2 - t1, "warmup_s": warmup_s}
    return inputs, split


def run_serve(workload, inputs, args, speed, work):
    import numpy as np
    from workloads import price_full_bisection

    total = len(inputs.requests)
    pristine, copy = work / "pristine", work / "serving"
    served = workload.open(pristine, copy)
    speed.sample("timed", 8)
    gc.collect()
    rec = workload.serve(*served, inputs)
    rss = peak_rss_mb()
    speed.sample("timed", 8)
    session_n = served[1].n
    failed = workload.check(inputs, rec)
    attempted = total + len(rec.write_seconds)
    makespan = price_full_bisection(rec.phases, session_n)
    blocks = math.ceil(total / workload.write_every)
    metrics = {
        "wall_s": rec.seconds / blocks,
        "peak_rss_mb": rss,
        "rounds": sum(p.rounds for p in rec.phases),
        "words": sum(p.words for p in rec.phases),
        "makespan_us": makespan,
        "qps": total / rec.seconds,
        "p50_ms": percentile(rec.latencies, 50) * 1000.0,
        "p99_ms": tail_percentile(rec.latencies) * 1000.0,
        "update_s": statistics.median(rec.write_seconds),
    }
    notes = {
        "requests": total,
        "latency_samples": total,
        "writes": len(rec.write_seconds),
        "clients": workload.clients,
    }
    layers = None
    if args.trace:
        from layertrace import Tracer

        served = workload.open(pristine, copy)
        gc.collect()
        covered = [0.0]
        tracer = Tracer()

        def on_server(server):
            flush = server._flush

            def timed_flush(batch):
                before = tracer.self_s["serve.query"]
                flush(batch)
                covered[0] += len(batch) * (tracer.self_s["serve.query"] - before)

            server._flush = timed_flush

        with tracer:
            t_rec = workload.serve(*served, inputs, on_server)
        failed += workload.check(inputs, t_rec)
        attempted += total + len(t_rec.write_seconds)
        same = (
            t_rec.write_bills == rec.write_bills
            and [p.to_dict() for p in t_rec.phases]
            == [p.to_dict() for p in rec.phases]
            and price_full_bisection(t_rec.phases, session_n) == makespan
            and np.array_equal(t_rec.final_dist, rec.final_dist)
        )
        if not same:
            print(
                "error: the traced serving phase differs from the "
                "untraced one in its writes, bill or final closure",
                file=sys.stderr,
            )
            failed += 1
        layers = layer_metrics(tracer, t_rec.seconds, root=None)
        mean_latency = statistics.fmean(t_rec.latencies)
        layers.update(
            {
                "serve.app.batches": t_rec.batches,
                "serve.app.mean_batch": t_rec.requests_served / t_rec.batches,
                "serve.app.wait_ms": (mean_latency - covered[0] / total) * 1000.0,
                "trace.overhead_s": t_rec.seconds / blocks - metrics["wall_s"],
            }
        )
    return metrics, layers, attempted, failed, notes


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #


def layer_metrics(tracer, phase_seconds: float, root: str | None = "engine") -> dict:
    s, calls = tracer.self_s, tracer.calls
    sched_calls = calls["clique.scheduling"]
    builds = calls["clique.scheduling.build"]
    attributed = sum(v for layer, v in s.items() if layer != root)
    return {
        "clique.executor.self_s": s["clique.executor"],
        "clique.executor.calls": calls["clique.executor"],
        "matmul.self_s": s["matmul"],
        "clique.model.self_s": s["clique.model"],
        "clique.model.calls": calls["clique.model"],
        "clique.routing.self_s": s["clique.routing"],
        "clique.messages.self_s": s["clique.messages"],
        "clique.accounting.self_s": s["clique.accounting"],
        "clique.accounting.charges": calls["clique.accounting"],
        "clique.scheduling.self_s": s["clique.scheduling"]
        + s["clique.scheduling.build"],
        "clique.scheduling.calls": sched_calls,
        "clique.scheduling.builds": builds,
        "clique.scheduling.hit_ratio": (
            1.0 - builds / sched_calls if sched_calls else 0.0
        ),
        "faults.coding.encode_s": s["faults.coding.encode"],
        "faults.coding.decode_s": s["faults.coding.decode"],
        "faults.protocol.retries": 0,
        "faults.protocol.overhead_factor": 0.0,
        "netsim.transport.self_s": s["netsim.transport"],
        "netsim.transport.observes": calls["netsim.transport"],
        "serve.query.self_s": s["serve.query"],
        "serve.app.batches": 0,
        "serve.app.mean_batch": 0.0,
        "serve.app.wait_ms": 0.0,
        "serve.delta.self_s": s["serve.delta"],
        "serve.artifact.commit_s": s["serve.artifact"],
        "engine.self_s": s["engine"],
        "trace.coverage": attributed / phase_seconds,
    }


LAYER_UNITS = {
    ".mean_batch": "req/batch",
    "_s": "s",
    ".calls": "count",
    ".charges": "count",
    ".builds": "count",
    ".retries": "count",
    ".observes": "count",
    ".batches": "count",
    "_ms": "ms",
}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ratio"


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="run the set-up only and print its figures as JSON (the run "
        "starts fresh processes this way to repeat its cold set-up)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def cold_setup(args) -> dict:
    """The set-up figures of one fresh process with the same arguments."""
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--setup-only",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"no program to benchmark: {src / 'repro'} is missing; run from "
            "the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import workloads
    from probe import REFERENCE_S, HostSpeed

    import_s = time.perf_counter() - START
    workload = workloads.WORKLOADS[args.workload]
    serving = args.workload == "serve_mixed"
    speed = HostSpeed()
    # Probes just before and just after the set-up give its scale; their
    # own seconds are taken out of setup_s.
    t0 = time.perf_counter()
    speed.sample("setup", SETUP_PROBES)
    probing = time.perf_counter() - t0
    with work_dir() as work:
        inputs, split = (setup_serve if serving else setup_batch)(workload, args, work)
        split["setup_s"] = time.perf_counter() - START - probing
        split["import_s"] = import_s
        speed.sample("setup", SETUP_PROBES)
        split["probe_s"] = speed.median("setup")
        if args.setup_only:
            print(json.dumps(split))
            return 0
        splits = [split] + [cold_setup(args) for _ in range(SETUP_PROCESSES - 1)]
        runner = run_serve if serving else run_batch
        metrics, layers, attempted, failed, notes = runner(
            workload, inputs, args, speed, work
        )
    raw = {name: metrics[name] for name in HOST_TIMES}
    raw["setup_s"] = statistics.median(x["setup_s"] for x in splits)
    raw["probe_setup_s"] = statistics.median(x["probe_s"] for x in splits)
    raw["probe_timed_s"] = speed.median("timed")
    metrics["setup_s"] = statistics.median(
        x["setup_s"] * REFERENCE_S / x["probe_s"] for x in splits
    )
    if workload.host_scaled:
        scale = speed.scale("timed")
        for name in HOST_TIMES:
            metrics[name] *= 1.0 / scale if name == "qps" else scale
    notes["setup_processes"] = len(splits)

    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds}")
    print("host " + json.dumps(host_record(), sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    print("raw " + json.dumps(raw, sort_keys=True))
    if layers is None:
        report = {name: (metrics[name], unit) for name, unit in UNITS.items()}
    else:
        for part in ("import_s", "inputs_s", "build_s", "warmup_s"):
            layers[f"setup.{part}"] = statistics.median(x[part] for x in splits)
        report = {name: (value, layer_unit(name)) for name, value in layers.items()}
    print(f"error_rate {failed / attempted} ratio ({failed}/{attempted})")
    for name, (value, unit) in report.items():
        print(f"{name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
