"""Outside-in tracer for the airmeta package.

``Tracer.install`` replaces every public function of every ``airmeta``
module with a wrapper that records one span per call: name, start, end and
the span that was open when it was called.  Every binding of a function is
patched, so names imported with ``from .x import f`` (``sweeps`` and ``cli``
import ``run_experiment`` that way) are traced too.  Spans stay in memory
until the pass ends.

Worker processes of a fork-started pool inherit the patched modules.  In a
worker, each top-level span (a ``sweeps.run_point`` task) is written to the
spool directory when it closes; ``collect`` merges those files with the
parent's spans and tags every span with the process that ran it.
"""
from __future__ import annotations

import functools
import importlib
import os
import pickle
import pkgutil
import time
import types
from collections import Counter

import numpy as np

CLOCK = time.perf_counter  # CLOCK_MONOTONIC on Linux, comparable across processes


def _first_path(args):
    for a in args:
        if isinstance(a, (str, os.PathLike)):
            return a
    return None


# Counts taken where the work happens: (tracer, args, result) after each call.
def _probe_estimate(tr, args, result):
    tr.counts["channel.estimate.pinv_fallbacks"] += bool(result.pinv_fallback)


def _probe_run_experiment(tr, args, result):
    tr.counts["protocol.rounds"] += len(result.records)
    tr.counts["protocol.aborted"] += result.aborted_at is not None


def _probe_batch_pools(tr, args, result):
    tr.distinct("meta.batch_pools", args[0])


def _probe_meta_curvature(tr, args, result):
    tr.distinct_value("tasks.meta_curvature", float(args[1]))


def _probe_write(tr, args, result):
    path = _first_path(args)
    if path is not None:
        tr.counts["storage.bytes_written"] += os.path.getsize(path)


PROBES = {
    "channel.estimate": _probe_estimate,
    "protocol.run_experiment": _probe_run_experiment,
    "meta.batch_pools": _probe_batch_pools,
    "tasks.meta_curvature": _probe_meta_curvature,
    # manifest.json is left out: it carries the run's wall-clock time, so its
    # size is not a deterministic count
    "storage.write_trajectory_csv": _probe_write,
    "storage.write_replay_csv": _probe_write,
    "storage.write_json": _probe_write,
    "storage.write_config": _probe_write,
    "storage.write_datasets_csv": _probe_write,
}


def airmeta_modules() -> list:
    pkg = importlib.import_module("airmeta")
    return [pkg] + [importlib.import_module(f"airmeta.{info.name}")
                    for info in pkgutil.iter_modules(pkg.__path__)]


class Tracer:
    """Span recorder for one traced pass.

    A span is recorded when its call returns, as (name id, start, end,
    depth); ``collect`` recovers each span's parent from that order.
    """

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sets: dict[str, set] = {}
        self._keepalive: list = []
        self._patched: list = []
        self._active = False
        self._in_worker = False
        self._flushes = 0
        os.register_at_fork(after_in_child=self._after_fork)

    # -- counting helpers used by the probes -------------------------------
    def distinct(self, key: str, obj) -> None:
        """Count distinct live objects; keep them alive so ids stay unique."""
        self._keepalive.append(obj)
        self.sets.setdefault(key, set()).add((os.getpid(), self._flushes, id(obj)))

    def distinct_value(self, key: str, value) -> None:
        self.sets.setdefault(key, set()).add(value)

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        mods = airmeta_modules()
        wrappers: dict[int, types.FunctionType] = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("airmeta")
                        or obj.__name__.startswith("_")):
                    continue
                if id(obj) not in wrappers:
                    short = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{obj.__name__}")
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        self._active = True

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        self._active = False
        self._keepalive.clear()

    def close(self) -> None:
        """Drop the recorded spans once they have been collected."""
        self.uninstall()
        self._reset()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        probe = PROBES.get(name)
        record, stack = self.spans.append, self.stack
        push, pop = stack.append, stack.pop

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            push(nid)
            t0 = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                record((nid, t0, CLOCK(), len(stack)))
                pop()
            if probe is not None:
                probe(self, args, result)
            if not stack and self._in_worker:
                self._flush()
            return result

        return traced

    # -- worker processes ----------------------------------------------------
    def _reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.sets.clear()
        self._keepalive.clear()

    def _after_fork(self) -> None:
        if self._active:
            self._reset()
            self._in_worker = True

    def _flush(self) -> None:
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}-{self._flushes}.pkl")
        payload = {"pid": os.getpid(), "spans": self.spans, "counts": dict(self.counts),
                   "sets": self.sets}
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._flushes += 1
        self._reset()

    # -- results -------------------------------------------------------------
    def collect(self) -> "SpanTable":
        """Merge the parent's spans with every spooled worker file."""
        parts = [(os.getpid(), self.spans)]
        counts = Counter(self.counts)
        sets = {k: set(v) for k, v in self.sets.items()}
        for fname in sorted(os.listdir(self.spool_dir)):
            if not fname.startswith("spans-"):
                continue
            with open(os.path.join(self.spool_dir, fname), "rb") as fh:
                part = pickle.load(fh)  # written by this tracer's own workers
            parts.append((part["pid"], part["spans"]))
            counts.update(part["counts"])
            for k, v in part["sets"].items():
                sets.setdefault(k, set()).update(v)
        return SpanTable(self.names, parts, counts, sets)


def parents_of(depth: np.ndarray) -> np.ndarray:
    """Parent index of each span, given spans in the order their calls returned.

    A span's parent is the first span after it one level shallower: the
    caller returns after all of its callees.
    """
    parent = np.full(depth.size, -1, dtype=np.int64)
    nearest: dict[int, int] = {}
    for i in range(depth.size - 1, -1, -1):
        d = int(depth[i])
        parent[i] = nearest.get(d - 1, -1)
        nearest[d] = i
    return parent


class SpanTable:
    """Spans of one traced pass, from the parent and every worker."""

    def __init__(self, names, parts, counts, sets):
        self.names = list(names)
        pid, name, parent, start, end = [], [], [], [], []
        offset = 0
        for p_pid, p_spans in parts:
            rec = np.array(p_spans, dtype=float).reshape(-1, 4)
            pid.append(np.full(len(rec), p_pid))
            name.append(rec[:, 0].astype(np.int64))
            p_parent = parents_of(rec[:, 3].astype(np.int64))
            parent.append(np.where(p_parent >= 0, p_parent + offset, -1))
            start.append(rec[:, 1])
            end.append(rec[:, 2])
            offset += len(rec)
        self.pid = np.concatenate(pid)
        self.name = np.concatenate(name)
        self.parent = np.concatenate(parent)
        self.start = np.concatenate(start)
        self.end = np.concatenate(end)
        self.counts = counts
        self.sets = sets

    def per_function(self) -> dict:
        """{name: (calls, total_s, self_s)}; self time = duration - children."""
        dur = self.end - self.start
        child = np.zeros_like(dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(self.name, minlength=k)
        total = np.bincount(self.name, weights=dur, minlength=k)
        self_s = np.bincount(self.name, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, n in enumerate(self.names)}

    def spans_of(self, name: str):
        """(pid, start, end) arrays of every span with this name."""
        if name not in self.names:
            empty = np.zeros(0)
            return empty.astype(int), empty, empty
        mask = self.name == self.names.index(name)
        return self.pid[mask], self.start[mask], self.end[mask]
