"""Benchmark of the k-path RPQ engine through its public surfaces.

Run from the root of a checkout (nothing to install; the program is
imported from ``src/``)::

    python3 perfbench/run.py --workload star --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 38 --trace 1
    python3 perfbench/run.py --steady 10 --seconds 38   # spreads per metric

Workloads (see README.md): ``star`` (all-pairs and anchored star reads,
in process, bench scale), ``serve`` (``repro-rpq serve`` with two shard
workers over HTTP, medium scale) and ``write-mix`` (``apply()`` batches
beside bounded reads, write-ahead log on, two shards, medium scale).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  A wrong answer
ends the run with exit code 1 and no JSON line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Secondary operation kind of each workload: ``op2_*`` metrics time it.
SECONDARY = {"star": "anchored", "serve": "hit", "write-mix": "apply"}
#: Operation kinds that are reads (they count in ``queries_s``).
READS = ("query", "anchored", "hit")


def end_to_end(workload: str, loop, outcome, scaled: bool = True) -> dict:
    """The end-to-end metrics of one untraced run, ``name -> (value, unit)``.

    Times are scaled to the reference computation's nominal speed (see
    ``bench.Loop``); with ``scaled=False`` they are plain wall-clock
    times and ``rss_mb`` is left out.
    """
    from bench import class_median, p90

    queries = loop.samples("query", scaled)
    secondary = loop.samples(SECONDARY[workload], scaled)
    reads = [t for kind in READS for _cls, t in loop.samples(kind, scaled)]
    metrics = {
        "setup_s": (statistics.median(loop.setup_times(scaled)), "s"),
        "query_p50_ms": (class_median(queries) * 1e3, "ms"),
        "query_p90_ms": (p90(queries) * 1e3, "ms"),
        "queries_s": (len(reads) / sum(reads), "1/s"),
        "op2_p50_ms": (class_median(secondary) * 1e3, "ms"),
        "op2_p90_ms": (p90(secondary) * 1e3, "ms"),
    }
    if scaled:
        metrics["rss_mb"] = (outcome.rss_mb, "MiB")
    return metrics


def run_once(workload: str, seed: int, seconds: float, trace: bool, scale=None):
    """Run one workload; returns ``(loop, outcome, tracer)``."""
    from bench import Loop, fresh_work_dir
    from workloads import WORKLOADS

    work = fresh_work_dir(f"{workload}-{seed}")
    loop = Loop(seconds=seconds, work=work)
    tracer = None
    kwargs = {} if scale is None else {"scale": scale}
    try:
        if trace:
            from tracing import Tracer

            tracer = Tracer(workload)
            loop.tracer = tracer
            if workload == "serve":
                kwargs["trace_path"] = work / "server-trace.json"
            with tracer.installed():
                outcome = WORKLOADS[workload](loop, seed, **kwargs)
            tracer.finish(work)
        else:
            outcome = WORKLOADS[workload](loop, seed, **kwargs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return loop, outcome, tracer


def report(workload: str, loop, outcome, tracer) -> dict:
    """Print the human-readable lines; return the JSON result object."""
    print(f"workload {workload}: {loop.rounds} rounds")
    for kind in sorted(loop.attempted):
        print(
            f"  {kind}: attempted {loop.attempted[kind]} "
            f"failed {loop.failed[kind]} samples {len(loop.records[kind])}"
        )
    for name, value in sorted(outcome.notes.items()):
        print(f"  {name}: {value}")
    if tracer is None:
        metrics = end_to_end(workload, loop, outcome)
        for name, (value, unit) in end_to_end(workload, loop, outcome, False).items():
            print(f"  raw {name}: {value:.4f} {unit}")
    else:
        metrics = tracer.metrics(loop, outcome)
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.4f} {unit}")
    return {
        "correct": True,
        "attempted": sum(loop.attempted.values()),
        "failed": sum(loop.failed.values()),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def steady(repeats: int, seconds: float, workloads: list[str]) -> int:
    """Run every workload ``repeats`` times, alternating; print spreads."""
    results: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for repeat in range(repeats):
        for workload in workloads:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
            command += ["--seed", str(1000 + repeat), "--seconds", str(seconds)]
            command += ["--trace", "0"]
            started = time.perf_counter()
            done = subprocess.run(
                command, capture_output=True, text=True, cwd=ROOT, check=False
            )
            wall = time.perf_counter() - started
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            line = json.loads(lines[-1])
            for name, metric in line["metrics"].items():
                results[workload].setdefault(name, []).append(metric["value"])
            for text in lines:
                if text.startswith("  raw "):
                    name, value = text[len("  raw ") :].split(": ")
                    raw = results[workload].setdefault(f"raw {name}", [])
                    raw.append(float(value.split()[0]))
            print(f"run {repeat} {workload} ({wall:.1f} s): {json.dumps(line)}")
    for workload, metrics in results.items():
        for name, values in metrics.items():
            if len(values) < 2:
                continue
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            print(
                f"{workload} {name}: median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                f"spread {(q3 - q1) / median:.3f}"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SECONDARY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", help="graph scale override (smoke: a seconds-long check)"
    )
    parser.add_argument(
        "--steady",
        type=int,
        metavar="N",
        help="run every workload (or just --workload) N times, alternating",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.steady:
        chosen = [args.workload] if args.workload else sorted(SECONDARY)
        return steady(args.steady, args.seconds, chosen)
    if args.workload is None:
        parser.error("--workload is required")
    from bench import WrongAnswer

    try:
        loop, outcome, tracer = run_once(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
    except WrongAnswer as error:
        print(f"wrong answer: {error}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, loop, outcome, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
