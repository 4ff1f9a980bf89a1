"""In-memory spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's own code around calls into the
library; nothing inside ``src/repro`` is instrumented.  A disabled
tracer records nothing, so untraced runs pay no cost beyond a ``with``.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = self.add_span(name, time.time(), None, **attrs)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.time()

    def add_span(self, name: str, start: float, end: float | None,
                 parent: int | None = None, **attrs) -> dict:
        """Record a span; ``parent`` defaults to the innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "start": start, "end": end, "attrs": dict(attrs)}
        self.spans.append(rec)
        return rec

    def add(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counters[name] += value

    def finish(self) -> list[dict]:
        """Spans with ``dur_s`` and ``self_s`` (duration minus the part of
        the interval that child spans cover)."""
        children: dict[int, list[dict]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        out = []
        for s in self.spans:
            dur = s["end"] - s["start"]
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                                 for c in children[s["id"]]):
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append({**s, "dur_s": dur, "self_s": dur - covered})
        return out


@contextmanager
def patched(obj, attr: str, wrap):
    """Temporarily replace ``obj.attr`` with ``wrap(original)``."""
    orig = getattr(obj, attr)
    setattr(obj, attr, wrap(orig))
    try:
        yield
    finally:
        setattr(obj, attr, orig)


def counting(tracer: Tracer, counter: str):
    """Wrapper factory: count calls of a function under ``counter``."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*a, **k):
            tracer.counters[counter] += 1
            return fn(*a, **k)
        return inner
    return wrap
