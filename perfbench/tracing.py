"""The traced run: spans around each layer's public functions.

Wrappers are installed from outside the program, at the names the
program's own callers look each function up by (``repro.api.normalize``
as well as ``repro.engine.executor.normalize``), and removed when the
run ends; ``src/`` is never edited.  A span is ``(layer, start, end,
parent, rows, failed)``; spans are kept in memory, written out when the
run ends, and reduced to per-layer self time (a span's duration minus
its children's).

The benchmark caller sends one request at a time, so the spans of one
operation nest in time even where they cross threads (the server runs
handlers in a thread pool) or processes (the server's spans carry the
same monotonic clock and are matched to the client operation whose
window holds them).  Even rounds run traced and odd rounds untraced;
the difference of their median read times is the tracing overhead.
"""

from __future__ import annotations

import bisect
import contextlib
import importlib
import json
import os
import signal
import threading
import time
from collections import defaultdict

from bench import class_median

#: ``(module, attribute path, layer, rows)``.  ``rows`` names how a
#: span counts its work: ``len`` of the result, the ``bool`` of it, or
#: a special rule below.
_SPANS = (
    ("repro.api", "parse", "parse", None),
    ("repro.api", "parse_template", "parse", None),
    ("repro.api", "normalize", "rewrite", None),
    ("repro.engine.executor", "normalize", "rewrite", None),
    ("repro.engine.navigation", "normalize", "rewrite", None),
    ("repro.engine.planner", "Planner.plan", "plan", None),
    ("repro.engine.planner", "Planner.disjunct_plans", "plan", None),
    ("repro.engine.executor", "execute", "execute", None),
    ("repro.engine.executor", "execute_scattered", "execute", None),
    ("repro.api", "execute_prepared", "execute", None),
    ("repro.indexes.pathindex", "PathIndex.scan", "scan", "len"),
    ("repro.indexes.pathindex", "PathIndex.scan_from", "scan", "len"),
    ("repro.indexes.pathindex", "PathIndex.contains", "scan", "one"),
    ("repro.csr", "transitive_fixpoint", "closure", None),
    ("repro.csr", "bounded_powers", "closure", None),
    ("repro.csr", "partitioned_closure", "closure", None),
    ("repro.relation", "merge_join", "join", None),
    ("repro.relation", "hash_join", "join", None),
    ("repro.relation", "union", "join", None),
    ("repro.relation", "union_into", "join", None),
    ("repro.sharding", "ShardedGraph.scan", "gather", None),
    ("repro.sharding", "ShardedGraph.scan_swapped", "gather", None),
    ("repro.serve.coordinator", "WorkerStub._call", "rpc", "body"),
    ("repro.graph.graph", "Graph.pairs_to_names", "name", "len"),
    ("repro.write.log", "MutationLog.append", "wal.append", None),
    ("repro.write.log", "MutationLog.flush", "wal.flush", "grown"),
    ("repro.write.log", "MutationLog.replay", "replay", "drain"),
    ("repro.api", "stage_group", "delta.stage", "dirty"),
    ("repro.api", "resolve_patch", "delta.resolve", None),
    ("repro.sharding", "ShardedGraph.patch_shards", "patch", "shards"),
    ("repro.sharding", "ShardedGraph.total_paths_k", "stats.paths_k", None),
    ("repro.sharding", "ShardedGraph.counts_by_path", "stats", None),
    ("repro.sharding", "ShardedGraph.shard_statistics", "stats", None),
    ("repro.indexes.histogram", "EquiDepthHistogram.from_counts", "stats", None),
    ("repro.indexes.pathindex", "PathIndex.build", "build", None),
    ("repro.sharding", "ShardedGraph.build", "build", None),
    ("repro.indexes.statistics", "ExactStatistics.from_index", "build", None),
    ("repro.client", "Client._request", "http", None),
    ("repro.client", "decode_payload", "decode", None),
    ("repro.client", "decode_result", "decode", None),
)
#: Extra spans inside the server process (``serve_launcher.py``).
SERVER_SPANS = (
    ("repro.serve.server", "QueryServer._dispatch", "server", "async"),
    ("repro.serve.server", "_result_payload", "server", None),
    ("repro.serve.server", "_write_response", "encode", "async"),
)


def _rows(rule, result, args) -> int:
    if rule == "len":
        return len(result)
    if rule == "one":
        return 1
    if rule == "body":
        return len(result[1])
    if rule == "dirty":
        return sum(len(pairs) for pairs in result.dirty.values())
    if rule == "shards":
        return len(args[1])
    return 0


class Tracer:
    """Records spans of every wrapped call while ``enabled``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = True
        #: ``[layer, start, end, parent, rows, failed, process]``
        self.spans: list[list] = []
        #: ``[kind, start, end, rows, traced, class]`` per loop operation.
        self.ops: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Open spans that have no parent in their own thread.  A span
        #: opened on a thread with an empty stack (the server's handler
        #: thread) is a child of the newest of these (the request).
        self._roots: list[int] = []
        self._restore: list = []
        #: Bytes the server wrote to its clients (``serve_launcher.py``).
        self.sent_bytes = 0
        self.server_path = None
        self.server_pid = None

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._roots[-1] if self._roots else None
            self.spans.append([layer, time.perf_counter(), 0.0, parent, 0, False, 0])
            index = len(self.spans) - 1
            if parent is None:
                self._roots.append(index)
        stack.append(index)
        return index

    def _close(self, index: int, rows: int, failed: bool) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = rows
        span[5] = failed
        self._stack().pop()
        if span[3] is None:
            with self._lock:
                self._roots.remove(index)

    def wrap(self, function, layer: str, rule):
        """``function`` with a span of ``layer`` around every call."""
        tracer = self
        if rule == "async":

            async def traced_async(*args, **kwargs):
                if not tracer.enabled:
                    return await function(*args, **kwargs)
                sent = tracer.sent_bytes
                index = tracer._open(layer)
                failed = True
                try:
                    result = await function(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    tracer._close(index, tracer.sent_bytes - sent, failed)

            return traced_async

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            before = args[0].path.stat().st_size if rule == "grown" else 0
            index = tracer._open(layer)
            failed = True
            rows = 0
            try:
                result = function(*args, **kwargs)
                if rule == "drain":
                    result = iter(list(result))
                failed = False
                if rule == "grown":
                    rows = args[0].path.stat().st_size - before
                else:
                    rows = _rows(rule, result, args)
                return result
            finally:
                tracer._close(index, rows, failed)

        return traced

    @contextlib.contextmanager
    def installed(self, extra=()):
        """Install every wrapper for the duration of the block."""
        for module_name, path, layer, rule in (*_SPANS, *extra):
            owner = importlib.import_module(module_name)
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[name] if outer else getattr(owner, name)
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, layer, rule))
            else:
                wrapped = self.wrap(original, layer, rule)
            setattr(owner, name, wrapped)
            self._restore.append((owner, name, original))
        try:
            yield self
        finally:
            while self._restore:
                owner, name, original = self._restore.pop()
                setattr(owner, name, original)

    # -- operations ----------------------------------------------------------

    def begin_op(self, kind: str, cls: str) -> None:
        self.ops.append([kind, time.perf_counter(), 0.0, 0, self.enabled, cls])

    def end_op(self, elapsed: float, result) -> None:
        op = self.ops[-1]
        op[2] = op[1] + elapsed
        op[3] = len(result) if hasattr(result, "__len__") else 1

    def next_round(self, number: int) -> None:
        """Even rounds traced, odd rounds not (here and in the server)."""
        self.enabled = number % 2 == 0
        if self.server_pid is not None:
            os.kill(self.server_pid, signal.SIGUSR1 if self.enabled else signal.SIGUSR2)
            # The server handles the signal before it reads this request.
            self._server_client.health()

    def attach_server(self, client, pid: int, path) -> None:
        """Toggle the server's tracing with the rounds; read its spans at the end."""
        self._server_client = client
        self.server_pid = pid
        self.server_path = path

    # -- reduction -----------------------------------------------------------

    def finish(self, work) -> None:
        """Write spans out and fold the server's spans in."""
        if self.server_path is not None and self.server_path.exists():
            offset = len(self.spans)
            for span in json.loads(self.server_path.read_text()):
                if span[3] is not None:
                    span[3] += offset
                span[6] = 1
                self.spans.append(span)
        with open(work.parent / f"trace-{self.workload}.json", "w") as handle:
            json.dump({"ops": self.ops, "spans": self.spans}, handle)

    def metrics(self, loop, outcome) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per operation of the kind each layer serves."""
        starts = [op[1] for op in self.ops]
        child_time = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        self_ms: dict[tuple[str, str], float] = defaultdict(float)
        calls: dict[tuple[str, str], int] = defaultdict(int)
        rows: dict[tuple[str, str], int] = defaultdict(int)
        wasted = 0.0
        top = defaultdict(float)
        server_top = 0.0
        for index, span in enumerate(self.spans):
            layer, start, end, parent = span[0], span[1], span[2], span[3]
            at = bisect.bisect_right(starts, start) - 1
            if at < 0 or not self.ops[at][4] or end > self.ops[at][2] + 1e-3:
                kind = "setup"
            else:
                kind = self.ops[at][0]
            key = (layer, "read" if kind in ("query", "anchored", "hit") else kind)
            own = (end - start - child_time[index]) * 1e3
            self_ms[key] += own
            if parent is None or self.spans[parent][0] != layer:
                calls[key] += 1
            rows[key] += span[4]
            if layer == "rewrite" and span[5] and key[1] == "read":
                wasted += own
            if parent is None and key[1] != "setup":
                if span[6]:
                    server_top += (end - start) * 1e3
                else:
                    top[key[1]] += end - start
        traced = [op for op in self.ops if op[4]]
        traced_times = [(op[5], op[2] - op[1]) for op in traced]
        reads = sum(1 for op in traced if op[0] in ("query", "anchored", "hit"))
        applies = sum(1 for op in traced if op[0] == "apply")
        answers = sum(op[3] for op in traced if op[0] in ("query", "anchored", "hit"))
        engine = outcome.notes.get("engine_stats", {})
        all_reads = sum(loop.attempted[k] for k in ("query", "anchored", "hit"))

        def per(value, count):
            return value / count if count else 0.0

        def layer(name, kind="read"):
            return per(self_ms[(name, kind)], reads if kind == "read" else applies)

        builds = calls[("build", "setup")]
        replays = calls[("replay", "setup")]
        op_time = sum(op[2] - op[1] for op in traced)
        covered = sum(top.values())
        untraced = [(op[5], op[2] - op[1]) for op in self.ops if not op[4]]
        overhead = (
            (class_median(traced_times) / class_median(untraced) - 1) * 100
            if untraced
            else 0.0
        )
        http = self_ms[("http", "read")]
        values = {
            "parse.ms": (layer("parse"), "ms"),
            "rewrite.ms": (layer("rewrite"), "ms"),
            "rewrite.calls": (per(calls[("rewrite", "read")], reads), "count"),
            "rewrite.wasted_ms": (per(wasted, reads), "ms"),
            "plan.ms": (layer("plan"), "ms"),
            "plan.calls": (per(calls[("plan", "read")], reads), "count"),
            "execute.ms": (layer("execute"), "ms"),
            "scan.ms": (layer("scan"), "ms"),
            "scan.calls": (per(calls[("scan", "read")], reads), "count"),
            "scan.rows": (per(rows[("scan", "read")], reads), "count"),
            "scan.rows_per_answer": (per(rows[("scan", "read")], answers), "ratio"),
            "closure.ms": (layer("closure"), "ms"),
            "closure.calls": (per(calls[("closure", "read")], reads), "count"),
            "join.ms": (layer("join"), "ms"),
            "gather.ms": (layer("gather"), "ms"),
            "shards.scanned": (
                per(engine.get("scatter", {}).get("shards_scanned", 0), all_reads),
                "count",
            ),
            "shards.pruned": (
                per(engine.get("scatter", {}).get("shards_pruned", 0), all_reads),
                "count",
            ),
            "rpc.ms": (layer("rpc"), "ms"),
            "rpc.calls": (per(calls[("rpc", "read")], reads), "count"),
            "rpc.bytes": (per(rows[("rpc", "read")], reads), "bytes"),
            "name.ms": (layer("name"), "ms"),
            "name.pairs": (per(rows[("name", "read")], reads), "count"),
            "server.ms": (layer("server"), "ms"),
            "encode.ms": (layer("encode"), "ms"),
            "encode.bytes": (per(rows[("encode", "read")], reads), "bytes"),
            "transport.ms": (per(max(http - server_top, 0.0), reads), "ms"),
            "decode.ms": (layer("decode"), "ms"),
            "cache.hits": (
                per(engine.get("cache", {}).get("hits", 0), all_reads),
                "count",
            ),
            "cache.misses": (
                per(engine.get("cache", {}).get("misses", 0), all_reads),
                "count",
            ),
            "wal.append_ms": (layer("wal.append", "apply"), "ms"),
            "wal.flush_ms": (layer("wal.flush", "apply"), "ms"),
            "wal.bytes": (per(rows[("wal.flush", "apply")], applies), "bytes"),
            "replay.ms": (per(self_ms[("replay", "setup")], replays), "ms"),
            "delta.stage_ms": (layer("delta.stage", "apply"), "ms"),
            "delta.resolve_ms": (layer("delta.resolve", "apply"), "ms"),
            "delta.dirty_pairs": (
                per(rows[("delta.stage", "apply")], applies),
                "count",
            ),
            "patch.ms": (layer("patch", "apply"), "ms"),
            "patch.shards": (per(rows[("patch", "apply")], applies), "count"),
            "stats.refresh_ms": (
                layer("stats", "apply") + layer("stats.paths_k", "apply"),
                "ms",
            ),
            "stats.paths_k_ms": (layer("stats.paths_k", "apply"), "ms"),
            "build.ms": (per(self_ms[("build", "setup")], builds), "ms"),
            "trace.coverage": (per(covered, op_time) * 100, "%"),
            "trace.overhead": (overhead, "%"),
        }
        return values
