"""In-memory spans around the benchmark's own calls into fracvar.

A span has an id, a parent id, a name, a layer, a start and an end
(perf_counter seconds).  Spans stay in memory during the run and are
written out once, when the run ends.  NoTrace has the same interface and
records nothing; untraced passes use it.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, layer, start, end]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, layer, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec[5] = time.perf_counter()

    def self_seconds(self, root_ids: set[int] | None = None) -> dict[str, float]:
        """Self time per layer: a span's duration minus its children's.

        With root_ids, only spans below (and including) those roots count.
        """
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        keep = None
        if root_ids is not None:
            keep = set(root_ids)
            for sid, parent, *_ in self.spans:  # parents precede children
                if parent in keep:
                    keep.add(sid)
        out: dict[str, float] = defaultdict(float)
        for sid, _, _, layer, start, end in self.spans:
            if keep is None or sid in keep:
                out[layer] += (end - start) - child_time[sid]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "layer", "start", "end"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


class NoTrace:
    _null = contextlib.nullcontext()

    def span(self, name: str, layer: str):
        return self._null
