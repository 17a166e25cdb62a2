#!/usr/bin/env python3
"""Measure the benchmark's own run-to-run spread on one host.

    python3 perfbench/steadiness.py --sets 2 --seeds 10 --out perfbench/STEADINESS.md
    python3 perfbench/steadiness.py --sets 1 --seeds 5 --workloads closure_coded

Runs ``perfbench/run.py`` (from the root of a checkout) once per workload
and seed, for ``--sets`` consecutive sets of the same seeds, one process at
a time (``--workloads`` narrows the run to some workloads, for a quick
check while tuning).  For every end-to-end metric of ``BENCHMARK.json`` it reports each
set's median and quartiles, the spread ``(q3 - q1) / median`` and the shift
of the later medians against the first, next to the metric's bound.  It
also checks that every run was correct and that ``rounds``, ``words`` and
``makespan_us`` repeat exactly for a seed.  Results from hosts whose
records differ (cpus, Python, numpy, kernel backend) are never compared:
the script stops instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

EXACT = ("rounds", "words", "makespan_us")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for tag in ("host", "raw"):
        line = next(x for x in lines if x.startswith(tag + " "))
        result[tag] = json.loads(line[len(tag) + 1 :])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", help="default: all of them")
    parser.add_argument("--out", type=Path, help="write the report here too")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.seeds + 1)

    results: dict = {}
    host = None
    started = time.time()
    for s in range(args.sets):
        for workload in workloads:
            for seed in seeds:
                t0 = time.time()
                result = run_once(workload, seed, spec["run_seconds"])
                seconds = time.time() - t0
                if host is None:
                    host = result["host"]
                elif result["host"] != host:
                    print(
                        f"host record changed ({result['host']} != {host}); "
                        "refusing to compare",
                        file=sys.stderr,
                    )
                    return 2
                results.setdefault(workload, []).append((s, seed, result))
                print(
                    f"set {s} {workload} seed {seed}: correct={result['correct']} "
                    f"({seconds:.1f} s)",
                    flush=True,
                )
    elapsed = time.time() - started

    ok = True
    lines = [
        f"Host: `{json.dumps(host, sort_keys=True)}`; {args.sets} sets x "
        f"{args.seeds} seeds x {len(workloads)} workloads, "
        f"run_seconds={spec['run_seconds']}, {elapsed / 60:.1f} min in total.",
        "",
        "| workload | metric | bound | "
        + " | ".join(f"set {s + 1} median [q1, q3] (spread)" for s in range(args.sets))
        + " | worst median shift | raw spread per set |",
        "|---|---|---|" + "---|" * args.sets + "---|---|",
    ]
    for workload, runs in results.items():
        if not all(r["correct"] and r["failed"] == 0 for _, _, r in runs):
            print(f"{workload}: a run was incorrect", file=sys.stderr)
            ok = False
        for name in EXACT:
            per_seed: dict = {}
            for _, seed, r in runs:
                per_seed.setdefault(seed, set()).add(r["metrics"][name]["value"])
            if any(len(v) > 1 for v in per_seed.values()):
                print(f"{workload}: {name} does not repeat for a seed", file=sys.stderr)
                ok = False
        for name, metric in bounds.items():
            cells, medians, raw_spreads = [], [], []
            for s in range(args.sets):
                values = [
                    r["metrics"][name]["value"] for t, _, r in runs if t == s
                ]
                if name in runs[0][2]["raw"]:
                    q1, med, q3 = quartiles(
                        [r["raw"][name] for t, _, r in runs if t == s]
                    )
                    raw_spreads.append(f"{(q3 - q1) / med:.1%}")
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] ({spread:.1%})")
                if spread > metric["bound"]:
                    ok = False
            sign = 1.0 if metric["better"] == "lower" else -1.0
            shift = max(sign * (m - medians[0]) / medians[0] for m in medians)
            if shift > metric["bound"]:
                ok = False
            lines.append(
                f"| {workload} | {name} | {metric['bound']:.0%} | "
                + " | ".join(cells)
                + f" | {shift:+.1%} | {', '.join(raw_spreads) or 'n/a'} |"
            )
    report = "\n".join(lines) + "\n"
    print(report)
    if args.out:
        args.out.write_text(report)
    print("steady" if ok else "NOT steady", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
