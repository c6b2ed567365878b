"""Reference answers for the benchmark, computed apart from the program.

This module shares no code with ``repro``: it has its own parser for
the query text and evaluates a query as Kleene algebra over boolean
adjacency matrices (concatenation is a matrix product, union an OR,
inverse a transpose, ``R*`` a closure by repeated squaring).  The
program under test answers the same queries with its k-path index,
cost-based planner and CSR closure kernels, so an answer both agree on
is checked by two unrelated methods.

It runs as its own process so that its time and memory count in no
benchmark metric::

    python3 perfbench/oracle.py < job.json > answers.json

The job is ``{"nodes": [...], "edges": [[s, l, t], ...],
"stream": [[[op, s, l, t], ...], ...], "checks": [[step, query], ...]}``.
Each check asks for the answer of ``query`` after the first ``step``
batches of ``stream`` (``op`` is ``"add"`` or ``"remove"``).  The reply
lists ``[count, digest]`` per check, in order.
"""

from __future__ import annotations

import json
import re
import sys
import zlib

import numpy as np

_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|\{(?P<lo>\d+)(?P<comma>,)?(?P<hi>\d*)\}"
    r"|(?P<sym>[\^/|*+?()]))"
)


def tokens(text: str) -> list[tuple[str, object]]:
    """Split query text into ``(kind, value)`` tokens."""
    out: list[tuple[str, object]] = []
    position = 0
    text = text.rstrip()
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            raise ValueError(f"cannot read {text!r} at {position}")
        position = match.end()
        if match.group("name"):
            out.append(("name", match.group("name")))
        elif match.group("lo") is not None:
            lo = int(match.group("lo"))
            if match.group("comma") is None:
                hi: int | None = lo
            else:
                hi = int(match.group("hi")) if match.group("hi") else None
            out.append(("rep", (lo, hi)))
        else:
            out.append(("sym", match.group("sym")))
    return out


class _Reader:
    """Recursive descent over alternation, concatenation and postfix."""

    def __init__(self, text: str):
        self.items = tokens(text)
        self.at = 0

    def peek(self) -> tuple[str, object] | None:
        return self.items[self.at] if self.at < len(self.items) else None

    def take(self) -> tuple[str, object]:
        item = self.items[self.at]
        self.at += 1
        return item

    def union(self) -> tuple:
        node = self.concat()
        while self.peek() == ("sym", "|"):
            self.take()
            node = ("alt", node, self.concat())
        return node

    def concat(self) -> tuple:
        node = self.postfix()
        while self.peek() == ("sym", "/"):
            self.take()
            node = ("cat", node, self.postfix())
        return node

    def postfix(self) -> tuple:
        node = self.prefix()
        while True:
            item = self.peek()
            if item == ("sym", "*"):
                node = ("rep", node, 0, None)
            elif item == ("sym", "+"):
                node = ("rep", node, 1, None)
            elif item == ("sym", "?"):
                node = ("rep", node, 0, 1)
            elif item is not None and item[0] == "rep":
                lo, hi = item[1]
                node = ("rep", node, lo, hi)
            else:
                return node
            self.take()

    def prefix(self) -> tuple:
        if self.peek() == ("sym", "^"):
            self.take()
            return ("inv", self.prefix())
        kind, value = self.take()
        if kind == "name":
            return ("label", value)
        if (kind, value) == ("sym", "("):
            node = self.union()
            if self.take() != ("sym", ")"):
                raise ValueError("unbalanced parenthesis")
            return node
        raise ValueError(f"unexpected {value!r}")


def parse(text: str) -> tuple:
    """Query text -> nested tuples (``label``, ``inv``, ``cat``, ``alt``, ``rep``)."""
    reader = _Reader(text)
    node = reader.union()
    if reader.peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return node


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return (left.astype(np.float32) @ right.astype(np.float32)) > 0


def _closure(matrix: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by squaring until nothing changes."""
    closed = matrix | np.eye(len(matrix), dtype=bool)
    while True:
        wider = _product(closed, closed)
        if np.array_equal(wider, closed):
            return closed
        closed = wider


def evaluate(node: tuple, adjacency: dict[str, np.ndarray], size: int) -> np.ndarray:
    """The answer of ``node`` as a boolean ``size x size`` matrix."""
    kind = node[0]
    if kind == "label":
        return adjacency.get(node[1], np.zeros((size, size), dtype=bool))
    if kind == "inv":
        return evaluate(node[1], adjacency, size).T.copy()
    if kind == "alt":
        return evaluate(node[1], adjacency, size) | evaluate(
            node[2], adjacency, size
        )
    if kind == "cat":
        return _product(
            evaluate(node[1], adjacency, size), evaluate(node[2], adjacency, size)
        )
    _, inner, lo, hi = node
    step = evaluate(inner, adjacency, size)
    power = np.eye(size, dtype=bool)
    for _ in range(lo):
        power = _product(power, step)
    if hi is None:
        return _product(power, _closure(step))
    answer = power.copy()
    for _ in range(hi - lo):
        power = _product(power, step)
        answer |= power
    return answer


def digest(pairs) -> str:
    """Order-free fingerprint of a set of ``(source, target)`` name pairs.

    The count and the sum (mod 2**64) of a 64-bit checksum (CRC-32 and
    Adler-32) of every pair: one pass, no sorted copy, so checking a
    large answer adds no memory to the process that checks it.
    """
    total = 0
    count = 0
    for source, target in pairs:
        line = f"{source}\t{target}".encode("utf-8")
        total += zlib.crc32(line) << 32 | zlib.adler32(line)
        count += 1
    return f"{count}:{total % 2**64:016x}"


def answer_checks(job: dict) -> list[list]:
    """``[count, digest]`` for every ``[step, query]`` check of ``job``."""
    names = list(job["nodes"])
    position = {name: index for index, name in enumerate(names)}
    size = len(names)
    edges = {tuple(edge) for edge in job["edges"]}
    stream = job.get("stream", [])
    wanted: dict[int, list[int]] = {}
    for index, (step, _query) in enumerate(job["checks"]):
        wanted.setdefault(step, []).append(index)
    replies: list[list] = [[] for _ in job["checks"]]
    for step in range(max(wanted, default=0) + 1):
        if step > 0:
            for op, source, label, target in stream[step - 1]:
                if op == "add":
                    edges.add((source, label, target))
                else:
                    edges.discard((source, label, target))
        if step not in wanted:
            continue
        cells: dict[str, tuple[list[int], list[int]]] = {}
        for source, label, target in edges:
            rows, cols = cells.setdefault(label, ([], []))
            rows.append(position[source])
            cols.append(position[target])
        adjacency: dict[str, np.ndarray] = {}
        for label, (rows, cols) in cells.items():
            adjacency[label] = np.zeros((size, size), dtype=bool)
            adjacency[label][rows, cols] = True
        for index in wanted[step]:
            answer = evaluate(parse(job["checks"][index][1]), adjacency, size)
            rows, cols = np.nonzero(answer)
            pairs = [(names[r], names[c]) for r, c in zip(rows.tolist(), cols.tolist())]
            replies[index] = [len(pairs), digest(pairs)]
    return replies


if __name__ == "__main__":
    json.dump(answer_checks(json.load(sys.stdin)), sys.stdout)
