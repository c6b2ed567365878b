"""Shared pieces of the benchmark: inputs, the timed loop, checks, statistics.

Every timing goes through :class:`Loop`.  One caller runs a closed loop
(the next operation starts when the previous one returned) in whole
rounds, so each run makes the same mix of operations and only the
number of rounds depends on the machine's speed.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space of a run (graph files, write-ahead logs, traces).
WORK = ROOT / ".perfbench-work"

#: The graph is the same in every run, so that runs compare; ``--seed``
#: picks the order of operations, the anchors and the mutations.
GRAPH_SEED = 7

#: (nodes, edges) of the graph the benchmark's own smoke tests use; the
#: workloads use the program's ``bench`` and ``medium`` scales.
SMOKE_SCALE = (60, 300)

#: Nominal duration of ``reference_work`` (its median on a 2-core
#: x86-64 virtual machine); scaled times are wall times at that speed.
REFERENCE_S = 0.002
#: Idle time before each reference run, so that work the last operation
#: left running in other processes (a server closing its connection)
#: does not compete with it.
REFERENCE_SETTLE_S = 0.002


class WrongAnswer(Exception):
    """An answer that disagrees with the oracle or a property check."""


def reference_work() -> int:
    """A fixed amount of pure-Python work that shares no code with the program.

    Its duration, measured next to every operation, tracks the speed
    the machine gives this process at that moment; see ``Loop``.
    """
    total = 0
    for number in range(20_000):
        total += (number * number) % 7
    return total


@dataclass
class Loop:
    """The closed loop: times operations, counts attempts and failures.

    Between two operations it runs :func:`reference_work` once.  Each
    sample is kept raw and also scaled to a fixed nominal speed: its
    wall time times ``REFERENCE_S`` divided by the mean of the reference
    times just before and just after it.  On a shared 2-core virtual
    machine the CPU speed swings by up to half, in phases that last from
    under a second to several seconds; the scaled times cancel most of
    that, the raw ones keep it.
    """

    seconds: float
    #: kind -> ``[class, raw seconds, index of the reference before]``
    records: dict[str, list[list]] = field(default_factory=lambda: defaultdict(list))
    attempted: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    failed: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    references: list[float] = field(default_factory=list)
    #: ``[raw seconds, index of the reference before]`` per set-up.
    setups: list[list] = field(default_factory=list)
    work: Path | None = None
    tracer: object | None = None
    rounds: int = 0

    def reference(self) -> int:
        """Time one reference run; returns its index."""
        time.sleep(REFERENCE_SETTLE_S)
        started = time.perf_counter()
        reference_work()
        self.references.append(time.perf_counter() - started)
        return len(self.references) - 1

    def _scale(self, raw: float, before: int) -> float:
        if before + 1 >= len(self.references):
            self.reference()
        around = (self.references[before] + self.references[before + 1]) / 2
        return raw * REFERENCE_S / around

    def setup(self, call, *args, **kwargs):
        """Time one set-up of the program (``setup_s`` is their median)."""
        before = self.reference()
        started = time.perf_counter()
        result = call(*args, **kwargs)
        self.setups.append([time.perf_counter() - started, before])
        self.reference()
        return result

    def op(self, kind: str, cls: str, call, *args, **kwargs):
        """Run one operation of ``kind`` and class ``cls`` (e.g. its query).

        Returns ``None`` if it failed with a typed ``ReproError``; the
        failure is counted and the run goes on.
        """
        from repro.errors import ReproError

        before = self.reference()
        self.attempted[kind] += 1
        if self.tracer is not None:
            self.tracer.begin_op(kind, f"{kind} {cls}")
        result = None
        started = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        except ReproError as error:
            self.failed[kind] += 1
            print(f"failed {kind}: {type(error).__name__}: {error}", file=sys.stderr)
            return None
        finally:
            elapsed = time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.end_op(elapsed, result)
        self.records[kind].append([cls, elapsed, before])
        return result

    def rounds_left(self, started: float) -> bool:
        """Whether another whole round fits in the run's time."""
        used = time.perf_counter() - started
        more = self.rounds == 0 or used + used / self.rounds <= self.seconds
        if more and self.tracer is not None:
            self.tracer.next_round(self.rounds)
        return more

    def samples(self, kind: str, scaled: bool = True) -> list[tuple[str, float]]:
        """``(class, seconds)`` of every completed operation of ``kind``."""
        return [
            (cls, self._scale(raw, before) if scaled else raw)
            for cls, raw, before in self.records[kind]
        ]

    def setup_times(self, scaled: bool = True) -> list[float]:
        return [
            self._scale(raw, before) if scaled else raw for raw, before in self.setups
        ]


def class_median(samples: list[tuple[str, float]]) -> float:
    """Geometric mean over classes of each class's median time.

    The operations of a run fall into classes of very different cost
    (one per query shape).  A median over all samples sits wherever two
    classes meet and jumps between them from run to run; the mean of
    the class medians moves only when the classes do, and averages the
    noise of each class's median over all classes.
    """
    by_class: dict[str, list[float]] = defaultdict(list)
    for cls, seconds in samples:
        by_class[cls].append(seconds)
    medians = [statistics.median(values) for values in by_class.values()]
    return statistics.geometric_mean(medians)


def p90(samples: list[tuple[str, float]]) -> float:
    """90th percentile over all samples, whatever their class."""
    times = [seconds for _cls, seconds in samples]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    """Peak resident memory of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of process ``pid`` plus its children."""
    total = 0.0
    pids = [pid]
    children = Path(f"/proc/{pid}/task/{pid}/children")
    if children.exists():
        pids += [int(child) for child in children.read_text().split()]
    for each in pids:
        for line in Path(f"/proc/{each}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1]) / 1024.0
    return total


def expected_answers(job: dict) -> list[list]:
    """Ask the oracle, in its own process, for ``[count, digest]`` per check."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "oracle.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"oracle failed: {completed.stderr.strip()}")
    return json.loads(completed.stdout)


def edge_list(scale: str) -> list[tuple[str, str, str]]:
    """The seeded Advogato-like graph of ``scale`` as name triples."""
    from repro.bench.workloads import SCALES
    from repro.graph.generators import advogato_like

    nodes, edges = SMOKE_SCALE if scale == "smoke" else SCALES[scale]
    return list(advogato_like(nodes=nodes, edges=edges, seed=GRAPH_SEED).edges())


def node_names(edges) -> list[str]:
    """Node names in order of first appearance."""
    seen: dict[str, None] = {}
    for source, _label, target in edges:
        seen.setdefault(source)
        seen.setdefault(target)
    return list(seen)


def fresh_work_dir(name: str) -> Path:
    """An empty scratch directory for one run, inside the checkout."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
