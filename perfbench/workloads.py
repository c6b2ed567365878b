"""The three workloads: ``star``, ``serve`` and ``write-mix``.

Each one builds its inputs from the seed, sets the program up several
times (the median is ``setup_s``), runs whole rounds of a closed loop
through the program's public surface, and checks every answer, either
against the oracle (``oracle.py``, run in its own process before or
after the timed loop) or against a property that must hold.  Each
returns a :class:`Outcome` that ``run.py`` turns into metrics.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import re
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from bench import (
    HERE,
    ROOT,
    Loop,
    WrongAnswer,
    edge_list,
    expected_answers,
    node_names,
    peak_rss_mb,
    process_rss_mb,
)
from oracle import digest

#: Star and plus shapes of the ``star`` workload.
STAR_QUERIES = (
    "apprentice*",
    "(master|journeyer)*",
    "master/apprentice*",
    "journeyer+",
    "master/journeyer*/apprentice",
)
#: Anchored reads interleaved with the all-pairs ones.
ANCHORED_KINDS = ("query_from", "prepared", "query_pair")
#: Times the program is set up per run; ``setup_s`` is their median.
SETUPS = 5
SERVE_SETUPS = 3
#: Write-ahead-log batches written before set-up, so that every
#: ``write-mix`` set-up replays a log like a restarted service does.
PRELOG_BATCHES = 8
#: A batch undoes the add and the remove made this many batches before
#: it, so every batch of the timed loop holds 4 mutations.
UNDO_AFTER = 8
#: Seconds a server may take to answer ``/health`` after it is spawned.
SERVE_START_TIMEOUT = 120.0


@dataclass
class Outcome:
    """What one workload run measured, beyond the loop's own samples."""

    rss_mb: float = 0.0
    notes: dict[str, object] = field(default_factory=dict)


class AnswerBook:
    """Answers checked against the oracle, and the cheap re-check of repeats.

    The first answer to a query is compared with the oracle by count and
    digest; later answers to the same query on the same graph version
    must have the same size and the same set hash as that one.
    """

    def __init__(self, expected: dict[str, list]):
        self.expected = expected
        self.known: dict[str, tuple[int, int]] = {}

    def check(self, query: str, pairs, where: str) -> None:
        seen = (len(pairs), hash(pairs))
        if query in self.known:
            if seen != self.known[query]:
                raise WrongAnswer(f"{where}: {query!r} changed between rounds")
            return
        count, want = self.expected[query]
        if len(pairs) != count or digest(pairs) != want:
            raise WrongAnswer(
                f"{where}: {query!r} gave {len(pairs)} pairs, the oracle {count}"
            )
        self.known[query] = seen


def _closed(pairs, step: set[tuple[str, str]], nodes, reflexive: bool) -> bool:
    """Whether ``pairs`` holds every ``(v, v)`` (if reflexive) and is closed
    under one more ``step`` on the right."""
    if reflexive and any((node, node) not in pairs for node in nodes):
        return False
    after: dict[str, list[str]] = {}
    for source, target in step:
        after.setdefault(source, []).append(target)
    return all(
        (source, further) in pairs
        for source, middle in pairs
        for further in after.get(middle, ())
    )


def _star_properties(query: str, pairs, edges, nodes) -> None:
    """The closure properties an ``X*`` / ``X+`` answer must have."""
    shapes = {
        "apprentice*": ({"apprentice"}, True),
        "(master|journeyer)*": ({"master", "journeyer"}, True),
        "journeyer+": ({"journeyer"}, False),
        "master/apprentice*": ({"apprentice"}, False),
    }
    if query not in shapes:
        return
    labels, reflexive = shapes[query]
    step = {(s, t) for s, label, t in edges if label in labels}
    if not _closed(pairs, step, nodes, reflexive):
        raise WrongAnswer(f"star: {query!r} is not closed under one more step")


def star(loop: Loop, seed: int, scale: str = "bench") -> Outcome:
    """All-pairs star/plus reads interleaved with anchored reads, in process."""
    from repro import Graph, GraphDatabase, ServiceConfig

    edges = edge_list(scale)
    nodes = node_names(edges)
    outcome = Outcome()
    config = ServiceConfig(k=2, shards=1)

    def open_database():
        database = GraphDatabase(Graph.from_edges(edges), config=config)
        database.query(STAR_QUERIES[0], use_cache=False)
        return database

    for _ in range(SETUPS):
        database = None
        gc.collect()
        database = loop.setup(open_database)
    expected = expected_answers(
        {"nodes": nodes, "edges": edges, "checks": [[0, q] for q in STAR_QUERIES]}
    )
    book = AnswerBook(dict(zip(STAR_QUERIES, expected)))
    statements = {q: database.prepare(f"from($v): {q}") for q in STAR_QUERIES}
    rng = random.Random(seed)
    started = time.perf_counter()
    while loop.rounds_left(started):
        for kind in ANCHORED_KINDS:
            for query in rng.sample(STAR_QUERIES, len(STAR_QUERIES)):
                result = loop.op(
                    "query", query, database.query, query, use_cache=False
                )
                if result is None:
                    continue
                where = f"star version {result.version}"
                known = query in book.known
                book.check(query, result.pairs, where)
                if not known:
                    _star_properties(query, result.pairs, edges, nodes)
                source = rng.choice(nodes)
                row = {t for s, t in result.pairs if s == source}
                where = f"{where} source {source!r}"
                if kind == "query_from":
                    targets = loop.op(
                        "anchored",
                        f"{kind} {query}",
                        database.query_from,
                        source,
                        query,
                    )
                    if targets is not None and set(targets) != row:
                        raise WrongAnswer(f"{where}: query_from {query!r} != row")
                elif kind == "prepared":
                    bound = statements[query].bind(v=source)
                    anchored = loop.op("anchored", f"{kind} {query}", bound.run)
                    if anchored is not None and set(anchored.pairs) != {
                        (source, t) for t in row
                    }:
                        raise WrongAnswer(f"{where}: from($v): {query!r} != row")
                else:
                    target = rng.choice(nodes)
                    member = loop.op(
                        "anchored",
                        f"{kind} {query}",
                        database.query_pair,
                        source,
                        target,
                        query,
                    )
                    if member is not None and member != (target in row):
                        raise WrongAnswer(
                            f"{where}: query_pair {query!r} to {target!r} is {member}"
                        )
        loop.rounds += 1
    outcome.rss_mb = peak_rss_mb()
    outcome.notes["engine_stats"] = dataclasses.asdict(database.stats())
    return outcome


def _write_edges(path, edges) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for source, label, target in edges:
            handle.write(f"{source}\t{label}\t{target}\n")


class Server:
    """``repro-rpq serve`` as its own process, stopped with Ctrl-C (SIGINT)."""

    def __init__(self, graph_path, log_path, trace_path=None):
        command = ["-m", "repro", "serve", "--graph", str(graph_path)]
        command += ["-k", "2", "--workers", "2", "--port", "0"]
        if trace_path is not None:
            launcher = str(HERE / "serve_launcher.py")
            command = [launcher, "--trace-out", str(trace_path), "--", *command[2:]]
        self.command = [sys.executable, *command]
        self.log_path = log_path
        self.log = None
        self.process = None
        self.port = None

    def start(self):
        """Spawn the server and block until ``/health`` answers; returns a client."""
        from repro.client import Client
        from repro.errors import TransientWireError

        self.log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            self.command,
            stdout=subprocess.DEVNULL,
            stderr=self.log,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            cwd=ROOT,
        )
        deadline = time.perf_counter() + SERVE_START_TIMEOUT
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_path.read_text()}")
            if self.port is None:
                found = re.search(r"http://[^:\s]+:(\d+)", self.log_path.read_text())
                if found:
                    self.port = int(found.group(1))
            if self.port is not None:
                client = Client(port=self.port)
                try:
                    if client.health().get("ok"):
                        return client
                except TransientWireError:
                    pass
            time.sleep(0.002)
        raise RuntimeError("server did not answer /health in time")

    def stop(self) -> None:
        """Ctrl-C the server and wait for it and its shard workers to end."""
        if self.process is None:
            return
        children = Path(f"/proc/{self.process.pid}/task/{self.process.pid}/children")
        workers = children.read_text().split() if children.exists() else []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        deadline = time.perf_counter() + 30
        for worker in workers:
            while Path(f"/proc/{worker}").exists():
                if time.perf_counter() > deadline:
                    os.kill(int(worker), signal.SIGKILL)
                    deadline = time.perf_counter() + 30
                time.sleep(0.01)


def serve(loop: Loop, seed: int, scale: str = "medium", trace_path=None) -> Outcome:
    """Uncached Q1-Q8 and result-cache hits over HTTP, one request at a time."""
    from repro.bench.queries import workload

    edges = edge_list(scale)
    nodes = node_names(edges)
    queries = [query.text for query in workload()]
    outcome = Outcome()
    graph_path = loop.work / "graph.tsv"
    _write_edges(graph_path, edges)
    expected = expected_answers(
        {"nodes": nodes, "edges": edges, "checks": [[0, q] for q in queries]}
    )
    book = AnswerBook(dict(zip(queries, expected)))
    server = None
    try:
        for attempt in range(SERVE_SETUPS):
            last = attempt == SERVE_SETUPS - 1
            log = loop.work / f"server-{attempt}.log"
            server = Server(graph_path, log, trace_path if last else None)
            client = loop.setup(server.start)
            if not last:
                server.stop()
        for query in queries:
            book.check(query, client.query(query).pairs, "serve warm-up")
        if loop.tracer is not None:
            loop.tracer.attach_server(client, server.process.pid, trace_path)
        rng = random.Random(seed)
        started = time.perf_counter()
        while loop.rounds_left(started):
            for query in rng.sample(queries, len(queries)):
                result = loop.op("query", query, client.query, query, use_cache=False)
                if result is not None:
                    book.check(query, result.pairs, f"serve version {result.version}")
                hit = loop.op("hit", query, client.query, query)
                if hit is not None:
                    if not hit.cached:
                        raise WrongAnswer(f"serve: {query!r} missed the result cache")
                    book.check(query, hit.pairs, f"serve hit version {hit.version}")
            loop.rounds += 1
        outcome.rss_mb = process_rss_mb(server.process.pid)
        outcome.notes["engine_stats"] = client.stats()
    finally:
        if server is not None:
            server.stop()
    return outcome


class Mutations:
    """Seeded add/remove batches over the existing nodes and labels.

    Each batch adds one new edge (a seeded node, label, node triple not
    in the base graph) and removes one base edge, and undoes the pair
    made ``UNDO_AFTER`` batches earlier.  The graph therefore stays
    within a few edges of the base graph however many batches a run
    makes, so read costs do not drift with the run's speed.

    Keeps the benchmark's own copy of the edge set, so it knows how many
    mutations of each batch must change the graph and what the graph
    must hold after any prefix of the acknowledged stream.
    """

    def __init__(self, edges, seed: int):
        self.rng = random.Random(seed)
        self.nodes = node_names(edges)
        self.labels = sorted({label for _s, label, _t in edges})
        self.base = frozenset(edges)
        self.edges = set(edges)
        #: Base edges that are present, as a list to draw from in order.
        self.removable = sorted(edges)
        self.pending: deque = deque()
        self.stream: list[list[list[str]]] = []

    def batch(self):
        """The next batch, as ``[op, source, label, target]`` rows."""
        while True:
            fresh = (
                self.rng.choice(self.nodes),
                self.rng.choice(self.labels),
                self.rng.choice(self.nodes),
            )
            if fresh not in self.base and fresh not in self.edges:
                break
        gone = self.removable.pop(self.rng.randrange(len(self.removable)))
        rows = [["add", *fresh], ["remove", *gone]]
        self.pending.append((fresh, gone))
        if len(self.pending) > UNDO_AFTER:
            fresh, gone = self.pending.popleft()
            rows += [["remove", *fresh], ["add", *gone]]
            self.removable.append(gone)
        return rows

    def acknowledge(self, rows, result, where: str) -> None:
        """Check an ``ApplyResult`` against the batch and track the edge set."""
        changed = 0
        for op, *edge in rows:
            edge = tuple(edge)
            if op == "add" and edge not in self.edges:
                self.edges.add(edge)
                changed += 1
            elif op == "remove" and edge in self.edges:
                self.edges.remove(edge)
                changed += 1
        self.stream.append(rows)
        if result.applied + result.noops != len(rows) or result.applied != changed:
            raise WrongAnswer(
                f"{where}: batch {len(self.stream)} applied {result.applied} "
                f"+ {result.noops} no-ops, expected {changed} of {len(rows)}"
            )


def _as_batch(rows):
    from repro import Mutation

    return [
        Mutation.add(*edge) if op == "add" else Mutation.remove(*edge)
        for op, *edge in rows
    ]


def write_mix(loop: Loop, seed: int, scale: str = "medium") -> Outcome:
    """``apply()`` batches alternating with bounded reads, WAL on, 2 shards."""
    from repro import Graph, GraphDatabase, ServiceConfig
    from repro.bench.queries import workload

    edges = edge_list(scale)
    nodes = node_names(edges)
    queries = [query.text for query in workload()]
    config = ServiceConfig(k=2, shards=2, mutation_log_path=str(loop.work / "wal"))
    outcome = Outcome()
    mutations = Mutations(edges, seed)
    first = GraphDatabase(Graph.from_edges(edges), config=config)
    for _ in range(PRELOG_BATCHES):
        rows = mutations.batch()
        mutations.acknowledge(rows, first.apply(_as_batch(rows)), "pre-log")
    first.close()

    def open_database():
        database = GraphDatabase(Graph.from_edges(edges), config=config)
        database.query(queries[0])
        return database

    database = None
    for _ in range(SETUPS):
        if database is not None:
            database.close()
            database = None
        gc.collect()
        database = loop.setup(open_database)
        if set(database.graph.edges()) != set(mutations.edges):
            raise WrongAnswer("write-mix: replayed log differs from the stream")
    rng = random.Random(seed + 1)
    # The oracle checks one read of each query, in the first rounds and
    # in a seeded order, plus the last read of the run.
    sampled = rng.sample(queries, len(queries))
    checks: list[tuple[int, str, int, str]] = []
    last = None
    modes: dict[str, int] = {}
    started = time.perf_counter()
    while loop.rounds_left(started):
        sample = sampled[loop.rounds] if loop.rounds < len(sampled) else None
        for query in rng.sample(queries, len(queries)):
            rows = mutations.batch()
            applied = loop.op("apply", "apply", database.apply, _as_batch(rows))
            if applied is None:
                continue
            where = f"write-mix version {applied.version}"
            mutations.acknowledge(rows, applied, where)
            modes[applied.mode] = modes.get(applied.mode, 0) + 1
            result = loop.op("query", query, database.query, query)
            if result is None:
                continue
            if result.cached or result.version != applied.version:
                raise WrongAnswer(f"{where}: read {query!r} saw {result.version}")
            step = len(mutations.stream)
            last = (step, query, result.version, result.pairs)
            if query == sample:
                checks.append((step, query, result.version, digest(result.pairs)))
        loop.rounds += 1
    outcome.rss_mb = peak_rss_mb()
    if last is not None:
        checks.append((*last[:3], digest(last[3])))
    started = time.perf_counter()
    recovered = GraphDatabase(Graph.from_edges(edges), config=config)
    probe = recovered.query(queries[0])
    outcome.notes["recover_s"] = time.perf_counter() - started
    outcome.notes["apply_modes"] = modes
    outcome.notes["engine_stats"] = dataclasses.asdict(database.stats())
    if set(recovered.graph.edges()) != set(mutations.edges):
        raise WrongAnswer("write-mix: recovered graph differs from the stream")
    step = len(mutations.stream)
    checks.append((step, queries[0], probe.version, digest(probe.pairs)))
    recovered.close()
    database.close()
    job = {
        "nodes": nodes,
        "edges": edges,
        "stream": mutations.stream,
        "checks": [[step, query] for step, query, _v, _d in checks],
    }
    for (step, query, version, got), (_count, want) in zip(
        checks, expected_answers(job)
    ):
        if got != want:
            raise WrongAnswer(
                f"write-mix: {query!r} at version {version} (batch {step}) "
                "differs from the oracle"
            )
    outcome.notes["oracle_checks"] = len(checks)
    return outcome


WORKLOADS = {"star": star, "serve": serve, "write-mix": write_mix}
