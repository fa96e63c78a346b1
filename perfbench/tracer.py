"""In-memory span tracer that wraps functions from outside their package.

A span is (name, parent, start, end), recorded per thread in call order, so
every child span comes after its parent in the same thread's buffer.  Spans
stay in memory while the traced code runs; ``write`` saves them afterwards.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from array import array
from typing import Any, Callable, Optional

Note = Callable[[tuple, Any], Any]


class _Buffer:
    """The spans of one thread, in the order they started."""

    __slots__ = ("name", "parent", "start", "end", "top")

    def __init__(self) -> None:
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.top = -1  # index of the innermost open span, -1 at top level


class Tracer:
    """Records a span around every call of each wrapped function.

    ``note(args, result)`` of a wrapped function runs after its span has
    closed and its value is appended to ``notes[name]``; a call that raises
    leaves no note.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.notes: dict[str, list] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn: Callable, note: Optional[Note] = None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        notes = self.notes.setdefault(name, [])
        clock = time.perf_counter
        buffer = self._buffer

        def traced(*args, **kwargs):
            buf = buffer()
            i = len(buf.end)
            buf.name.append(nid)
            buf.parent.append(buf.top)
            buf.end.append(0.0)
            outer, buf.top = buf.top, i
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                buf.top = outer
            if note is not None:
                notes.append(note(args, result))
            return result

        return traced

    def patch(self, package: str, module: str, attr: str, name: str, note: Optional[Note] = None) -> int:
        """Wrap ``module.attr`` and rebind it in every loaded module of ``package``.

        Modules import these functions by name, so each binding is replaced.
        Returns the number of bindings replaced (0 if ``attr`` is gone).
        """
        original = getattr(sys.modules[module], attr, None)
        if original is None:
            return 0
        traced = self.wrap(name, original, note)
        replaced = 0
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    replaced += 1
        return replaced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive seconds ``s`` and ``self_s``."""
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        for buf in self._buffers:
            child = [0.0] * len(buf.end)
            for i in range(len(buf.end) - 1, -1, -1):
                d = buf.end[i] - buf.start[i]
                agg = out[self.names[buf.name[i]]]
                agg["calls"] += 1
                agg["s"] += d
                agg["self_s"] += d - child[i]
                if buf.parent[i] >= 0:
                    child[buf.parent[i]] += d
        return out

    def children(self, parent: str, child: str) -> tuple[int, int]:
        """(spans named ``parent`` with a ``child`` span, ``child`` spans under a ``parent``)."""
        if parent not in self.names or child not in self.names:
            return 0, 0
        pid, cid = self.names.index(parent), self.names.index(child)
        parents: set[tuple[int, int]] = set()
        count = 0
        for b, buf in enumerate(self._buffers):
            for i in range(len(buf.end)):
                p = buf.parent[i]
                if buf.name[i] == cid and p >= 0 and buf.name[p] == pid:
                    parents.add((b, p))
                    count += 1
        return len(parents), count

    def write(self, path: str) -> None:
        """Save all spans: a JSON header line, then each thread's raw arrays."""
        header = {
            "names": self.names,
            "clock": "time.perf_counter",
            "threads": [len(b.end) for b in self._buffers],
            "arrays": ["name:uint16", "parent:int64", "start:float64", "end:float64"],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for buf in self._buffers:
                for arr in (buf.name, buf.parent, buf.start, buf.end):
                    arr.tofile(f)
