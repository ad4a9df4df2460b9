"""In-memory span recorder and the wrappers that feed it.

A span is one call of a wrapped function: its name, start, end and the
span that was open when it began (its parent). Spans are appended to flat
arrays while the run goes and turned into per-name totals afterwards, so
recording one costs two clock reads and a few appends.

``Recorder.install`` wraps functions at every module that holds a
reference to them: ``from .x import f`` binds a second name for ``f`` in
the importing module, and wrapping only the defining module would miss the
calls made through that name.
"""

from __future__ import annotations

import math
import time
from array import array

import numpy as np


class Recorder:
    """Spans of one process, kept in parallel arrays.

    ``values`` holds one number per span that the wrapper's ``note``
    callback derived from the call's arguments and result (NaN when the
    call raised or has no note).

    With ``calibrate`` (a callable returning the time of a fixed loop, see
    ``speed.py``), every span that has no parent is bracketed by two
    calibrations outside its start and end; ``cal`` holds their mean (NaN
    for other spans) and ``calibration_s`` the time they took.
    """

    def __init__(self, calibrate=None):
        self.names = []                  # name id -> name
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values = array("d")
        self.cal = array("d")
        self.calibration_s = 0.0
        self._calibrate = calibrate
        self._stack = []
        self._patched = []               # (owner, attribute, original)

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name: str, note=None):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter
        name_ids, parents, starts, ends, values, cals = (
            self.name_id, self.parent, self.start, self.end, self.values, self.cal)
        calibrate = self._calibrate

        def wrapper(*args, **kwargs):
            top = not stack
            if top and calibrate is not None:
                t0 = clock()
                before = calibrate()
                self.calibration_s += clock() - t0
            i = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            values.append(math.nan)
            cals.append(math.nan)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if top and calibrate is not None:
                    t0 = clock()
                    cals[i] = 0.5 * (before + calibrate())
                    self.calibration_s += clock() - t0
            if note is not None:
                values[i] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, modules, targets):
        """Wrap every ``(owner, attribute, name, note)`` target.

        A module-level function is replaced in every module of ``modules``
        that binds the same object; a method is replaced on its class.
        """
        for owner, attr, name, note in targets:
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, note)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __len__(self):
        return len(self.name_id)

    def table(self, lo: int = 0) -> "SpanTable":
        """Spans from ``lo`` on; parents recorded before ``lo`` read as none."""
        parent = np.asarray(self.parent[lo:], dtype=np.int64) - lo
        parent[parent < 0] = -1
        return SpanTable(self.names, self.name_id[lo:], parent, self.start[lo:],
                         self.end[lo:], self.values[lo:], self.cal[lo:])


class SpanTable:
    """Spans as numpy columns plus the derived self times."""

    def __init__(self, names, name_id, parent, start, end, values, cal=None):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.cal = (np.full(len(self.name_id), math.nan) if cal is None
                    else np.asarray(cal, dtype=float))
        self.duration = self.end - self.start
        self.self_time = self_times(self.parent, self.duration)

    def __len__(self):
        return len(self.name_id)

    def rescaled(self, factor: float) -> "SpanTable":
        """The same spans with every duration multiplied by ``factor``."""
        return SpanTable(self.names, self.name_id, self.parent, self.start,
                         self.start + factor * self.duration, self.values, self.cal)

    def ids(self, name: str) -> np.ndarray:
        """Indices of the spans called ``name``."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name_id == self.names.index(name))

    def with_parent(self, name: str, parent_name: str) -> np.ndarray:
        """Indices of ``name`` spans whose direct parent is a ``parent_name`` span."""
        idx = self.ids(name)
        par = self.parent[idx]
        ok = par >= 0
        keep = np.zeros(len(idx), dtype=bool)
        keep[ok] = np.isin(par[ok], self.ids(parent_name))
        return idx[keep]

    def outermost(self, names) -> np.ndarray:
        """Indices of spans named in ``names`` with no ancestor named in ``names``."""
        wanted = np.isin(self.name_id, [self.names.index(n) for n in names
                                        if n in self.names])
        flags = wanted.tolist()
        inside = [False] * len(flags)              # some strict ancestor is wanted
        for i, p in enumerate(self.parent.tolist()):   # parents precede children
            if p >= 0:
                inside[i] = inside[p] or flags[p]
        return np.flatnonzero(wanted & ~np.array(inside, dtype=bool))

    def total(self, name: str) -> float:
        return float(self.duration[self.ids(name)].sum())

    def calibrated_total(self, name: str, reference: float) -> float:
        """Total duration of ``name`` spans, each rescaled by ``reference``
        over its calibration loop time; uncalibrated spans count as raw."""
        idx = self.ids(name)
        scale = np.where(np.isnan(self.cal[idx]), 1.0, reference / self.cal[idx])
        return float(np.sum(self.duration[idx] * scale))

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.ids(name)].sum())

    def count(self, name: str) -> int:
        return int(len(self.ids(name)))

    def save(self, path):
        """Write the spans as an ``.npz`` archive."""
        np.savez_compressed(path, names=np.array(self.names), name_id=self.name_id,
                            parent=self.parent, start=self.start, end=self.end,
                            values=self.values, cal=self.cal)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so a span's children never overlap each
    other and the time they cover is the sum of their durations.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(duration, dtype=float)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=duration[has], minlength=len(duration))
    return duration - covered[:len(duration)]
