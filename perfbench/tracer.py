"""In-memory span tracer that wraps module attributes from outside the package.

A span has a name, a start, an end and a parent (the span open when it
began). Spans live in flat arrays so that a traced calibration, which makes
about two million ``safety.step`` calls, stays within tens of megabytes.
Self time is a span's duration minus the time its children cover; in one
thread children never overlap, so that is the duration minus the sum of the
children's durations.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def self_times(starts, ends, parents) -> np.ndarray:
    """Per-span self time: duration minus the summed durations of its children."""
    starts = np.asarray(starts, dtype=float)
    dur = np.asarray(ends, dtype=float) - starts
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


class Tracer:
    """Records spans for wrapped callables and explicit ``span`` blocks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.raises: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, owner: object, attr: str, name: str,
             on_return: Callable | None = None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a traced
        wrapper until ``unwrap_all``.

        ``on_return(args, kwargs, result)`` runs after the span closes, so
        its cost falls to the caller's self time, not the wrapped layer's.
        """
        fn = _get(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                self.raises[name] += 1
                raise
            self._close(idx)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        self._restore.append((owner, attr, fn))
        _set(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._restore:
            _set(*self._restore.pop())

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (a view would stop the arrays growing)."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int64),
        }

    def summary(self, sel: slice = slice(None)) -> dict[str, dict[str, float]]:
        """Per span name over ``sel``: calls, total duration, self time, raises."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])[sel]
        dur = (a["end"] - a["start"])[sel]
        ids = a["name_id"][sel]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        self_s = np.bincount(ids, weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i]), "raises": self.raises[name]}
                for i, name in enumerate(self.names)}

    def subtree(self, root: int) -> slice:
        """Index range of ``root`` and every span below it.

        Spans are appended as they open in one thread, so the spans inside
        ``root`` are exactly those that open after it and before it ends.
        """
        stop = int(np.searchsorted(self.arrays()["start"], self.end[root], side="right"))
        return slice(root, stop)

    def dump(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
