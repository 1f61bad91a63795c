"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, case).  Spans stay in memory and are
written out once, when the run ends.  A layer's self time is its spans'
durations minus the time their child spans cover.
"""
from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple


class Tracer:
    def __init__(self):
        self.spans: List[list] = []   # [name, start, end, parent index, case id]
        self._open: List[int] = []
        self.case: Optional[int] = None

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span; `name` is layer.function."""
        span = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.case]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def self_times(self, first: int = 0, last: Optional[int] = None
                   ) -> Dict[Tuple[Optional[int], str], Tuple[float, int]]:
        """{(case, name): (self seconds, calls)} over spans[first:last]."""
        last = len(self.spans) if last is None else last
        child: Dict[int, float] = {}
        for name, start, end, parent, _ in self.spans[first:last]:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + end - start
        out: Dict[Tuple[Optional[int], str], Tuple[float, int]] = {}
        for i in range(first, last):
            name, start, end, _, case = self.spans[i]
            s, n = out.get((case, name), (0.0, 0))
            out[(case, name)] = (s + (end - start) - child.get(i, 0.0), n + 1)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "case": case}) + "\n")
