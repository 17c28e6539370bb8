"""Outside-in tracer: spans around the package's layer boundaries.

The solver resolves its collaborators (``verify_kempe``, ``line_graph``,
``disjoint_paths_or_separator``, ...) as module globals at call time, so
replacing those module attributes with timing wrappers traces every call
without touching the package.  Spans are timed with the wall clock and stay
in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable

Hook = Callable[[Counter, tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        # one span per call: [name, start, end, parent span index, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, Callable]] = []

    def wrap(self, module: ModuleType, attr: str, hooks: dict[str, Hook]) -> None:
        """Trace calls made through ``module.attr``.

        The span is named ``<defining module>.<function>``, e.g.
        ``graph.edge_components`` wherever it is looked up.  A name the
        package no longer has is recorded in ``absent`` instead.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
            return
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hook = hooks.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        self._saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def close(self) -> None:
        """Put every wrapped attribute back."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time (span minus child spans) and calls."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            seconds[name] += end - start - child[i]
            calls[name] += 1
        return seconds, calls

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            for name, start, end, parent, op in self.spans:
                row = [name, round(start - origin, 9), round(end - origin, 9), parent, op]
                out.write(json.dumps(row) + "\n")
