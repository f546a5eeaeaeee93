"""Span capture for the traced run.

A :class:`Tracer` replaces public functions of ``repro.soc`` modules with
timing wrappers, from the benchmark's own code: nothing under ``src/``
is changed.  Each span records its name, start, end, parent span and a
request id (the worker handoff seq, or the BATCH id on the frontend)
that every nested span inherits.  Spans stay in memory in flat arrays
and are written once, at exit, with :meth:`Tracer.dump`.

Self time (:func:`self_times`) is a span's duration minus the union of
its direct children's intervals, clipped to the span.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every span and sample (a forked child starts clean)."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("q")
        self._stack: List[int] = []
        #: Named scalar observations (waits, sizes).
        self.samples: Dict[str, List[float]] = {}
        #: Named event counts.
        self.counts: Dict[str, int] = {}

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(float(value))

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name_id: int, req: Optional[int]) -> int:
        stack = self._stack
        parent = stack[-1] if stack else -1
        if req is None:
            req = self.req[parent] if parent >= 0 else -1
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(parent)
        self.req.append(req)
        self.end.append(float("nan"))
        stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with :meth:`wrapper` of it."""
        setattr(owner, attr, self.wrapper(getattr(owner, attr), name,
                                          **options))

    def wrapper(self, original: Callable, name: str, *,
                req_of: Optional[Callable] = None,
                on_call: Optional[Callable] = None,
                on_result: Optional[Callable] = None,
                materialize: bool = False) -> Callable:
        """A span-recording wrapper around ``original``.

        ``req_of(*args, **kw)`` names the request id, ``on_call`` runs
        before the call (outside the span), ``on_result(result, *args,
        **kw)`` after it.  ``materialize`` is for generator functions:
        the span then covers consuming the generator, and the caller
        iterates over the materialized list."""
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            index = tracer.open(
                name_id, req_of(*args, **kwargs) if req_of else None)
            try:
                result = original(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return iter(result) if materialize else result

        return wrapper

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "req": np.frombuffer(self.req, dtype=np.int64).copy(),
        }

    def dump(self, path) -> None:
        """Write spans, the name table and samples to one ``.npz``."""
        arrays = self.arrays()
        arrays["names"] = np.array(self.names, dtype=object)
        for key, values in self.samples.items():
            arrays["sample:" + key] = np.array(values, dtype=np.float64)
        for key, value in self.counts.items():
            arrays["count:" + key] = np.array(value, dtype=np.int64)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)


class Spans:
    """Loaded spans of one process, with per-name aggregation."""

    def __init__(self, arrays: Dict[str, np.ndarray], names: List[str],
                 samples: Dict[str, np.ndarray],
                 counts: Dict[str, int]) -> None:
        self.name = arrays["name"]
        self.start = arrays["start"]
        self.end = arrays["end"]
        self.parent = arrays["parent"]
        self.req = arrays["req"]
        self.names = list(names)
        self.samples = samples
        self.counts = counts
        self.self_time = self_times(self.start, self.end, self.parent)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "Spans":
        return cls(tracer.arrays(), tracer.names,
                   {k: np.array(v) for k, v in tracer.samples.items()},
                   dict(tracer.counts))

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path, allow_pickle=True) as data:
            arrays = {k: data[k] for k in
                      ("name", "start", "end", "parent", "req")}
            names = [str(n) for n in data["names"]]
            samples = {k[len("sample:"):]: data[k] for k in data.files
                       if k.startswith("sample:")}
            counts = {k[len("count:"):]: int(data[k]) for k in data.files
                      if k.startswith("count:")}
        return cls(arrays, names, samples, counts)

    def mask(self, name: str, t0: float = -np.inf,
             t1: float = np.inf) -> np.ndarray:
        """Spans called ``name`` that started inside ``[t0, t1]``."""
        if name not in self.names:
            return np.zeros(len(self.start), dtype=bool)
        nid = self.names.index(name)
        return ((self.name == nid) & (self.start >= t0)
                & (self.start <= t1))

    def durations(self, name: str, t0: float = -np.inf,
                  t1: float = np.inf) -> np.ndarray:
        m = self.mask(name, t0, t1)
        return self.end[m] - self.start[m]

    def total(self, name: str, t0: float = -np.inf,
              t1: float = np.inf) -> float:
        return float(self.durations(name, t0, t1).sum())

    def self_total(self, name: str, t0: float = -np.inf,
                   t1: float = np.inf) -> float:
        return float(self.self_time[self.mask(name, t0, t1)].sum())

    def count(self, name: str, t0: float = -np.inf,
              t1: float = np.inf) -> int:
        return int(self.mask(name, t0, t1).sum())


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Per span: duration minus the union of its direct children's
    intervals clipped to the span.  Children may nest (only direct
    children are subtracted, so a grandchild is not counted twice) and
    may overlap each other (their union is subtracted once)."""
    n = len(start)
    out = (np.asarray(end, dtype=np.float64)
           - np.asarray(start, dtype=np.float64)).copy()
    if n == 0:
        return out
    kids = np.nonzero(np.asarray(parent) >= 0)[0]
    if len(kids) == 0:
        return out
    order = kids[np.lexsort((start[kids], parent[kids]))]
    current = -1
    lo = hi = 0.0
    covered = 0.0
    p_start = p_end = 0.0
    for child in order:
        p = int(parent[child])
        if p != current:
            if current >= 0:
                out[current] -= covered + (hi - lo)
            current = p
            p_start, p_end = start[p], end[p]
            covered = 0.0
            lo = hi = p_start
        s = max(start[child], p_start)
        e = min(end[child], p_end)
        if e <= s:
            continue
        if s > hi:
            covered += hi - lo
            lo, hi = s, e
        elif e > hi:
            hi = e
    out[current] -= covered + (hi - lo)
    return out
