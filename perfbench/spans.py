"""Spans and counters recorded from outside flowseq, around its public entry points.

A traced run replaces each entry point at the place its consumer binds the
name (a module attribute, or a method on ``Policy``) with a wrapper that
records one span: layer name, parent span, start and end. Spans live in
memory as flat arrays and are written once, when the run ends. A layer that
re-enters itself records only the outermost call, so busy time never counts
an interval twice. Self time is a span's duration minus the durations of its
direct children; children never overlap because everything runs on one
thread.
"""

from __future__ import annotations

import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Span arrays indexed by span id (parent id, name id, start, end), counters, and live patches."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def _enter(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(sid)
        self._open[nid] += 1
        self.start.append(perf_counter())
        return sid

    def _leave(self, sid: int, nid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()
        self._open[nid] -= 1

    @contextmanager
    def span(self, name: str):
        nid = self._name_id(name)
        sid = self._enter(nid)
        try:
            yield
        finally:
            self._leave(sid, nid)

    def wrap(self, fn, name: str, count=None):
        """`fn` recording a `name` span per outermost call; `count(args, result)` yields (key, n)."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if self._open[nid]:
                return fn(*args, **kwargs)
            sid = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(sid, nid)
            if count is not None:
                for key, n in count(args, result):
                    self.counts[key] += n
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # analysis

    def busy(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for nid, t0, t1 in zip(self.name, self.start, self.end):
            out[self.names[nid]] += t1 - t0
        return out

    def self_time(self) -> dict[str, float]:
        out = self.busy()
        for pid, t0, t1 in zip(self.parent, self.start, self.end):
            if pid >= 0:
                out[self.names[self.name[pid]]] -= t1 - t0
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for nid in self.name:
            out[self.names[nid]] += 1
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` with a span called `ancestor` somewhere above them."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        total = 0
        for sid, n in enumerate(self.name):
            if n != nid:
                continue
            pid = self.parent[sid]
            while pid >= 0 and self.name[pid] != aid:
                pid = self.parent[pid]
            total += pid >= 0
        return total

    def write(self, path: str) -> None:
        """Spans as a tab-separated table: id, parent, name, start, end (seconds)."""
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, (pid, nid, t0, t1) in enumerate(zip(self.parent, self.name, self.start, self.end)):
                fh.write(f"{sid}\t{pid}\t{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\n")
        os.replace(tmp, path)
