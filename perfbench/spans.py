"""Spans and counters recorded around calls into the program's modules.

Nothing here changes the program: functions are replaced in the namespace
where their callers look them up, for the length of a `with` block, and
the original objects are put back on exit.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

_MISSING = object()


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Set owner.attr to make(current value); remember what to restore."""
        own = vars(owner).get(attr, _MISSING)
        self._saved.append((owner, attr, own))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer(Patches):
    """Records one span (name, start, end, parent, root) per call of a wrapped function.

    A span's parent is the span that was open when it started; its root is
    the outermost open span, so the spans of one episode share a root.
    `counts` holds integer counters that wrappers derive from arguments
    and results; `records` keeps (name, args, result) of calls whose counts
    are computed after the run, while `keep_records` is set.
    """

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.root: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.records: list[tuple[str, tuple, Any]] = []
        self.keep_records = False
        self._stack: list[int] = []

    def span(self, owner: Any, attr: str, name: str, count: Callable | None = None,
             record: bool = False) -> None:
        """Wrap owner.attr so that each call records a span called `name`."""

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                idx = len(self.names)
                stack = self._stack
                self.names.append(name)
                self.parent.append(stack[-1] if stack else -1)
                self.root.append(stack[0] if stack else idx)
                self.start.append(0.0)
                self.end.append(0.0)
                stack.append(idx)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    self.start[idx] = start
                    self.end[idx] = end
                if count is not None:
                    count(self.counts, args, result)
                if record and self.keep_records:
                    self.records.append((name, args, result))
                return result

            return traced

        self.replace(owner, attr, make)

    def counter(self, owner: Any, attr: str, name: str) -> None:
        """Wrap owner.attr so that each call adds one to counts[name], with no span."""

        def make(original):
            @functools.wraps(original)
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return original(*args, **kwargs)

            return counted

        self.replace(owner, attr, make)

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays indexed like parent and root."""
        return {
            "name": np.array(self.names, dtype=object),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=int),
            "root": np.array(self.root, dtype=int),
        }


def self_times(name: np.ndarray, start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> dict[str, float]:
    """Total self time per span name, in the unit of start/end.

    A span's self time is its duration minus the durations of its direct
    children; calls are synchronous, so children never overlap each other
    or outlive their parent.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=int)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    own = dur - covered
    totals: dict[str, float] = defaultdict(float)
    for n, s in zip(name.tolist(), own.tolist()):
        totals[n] += s
    return dict(totals)
