"""Span tracing of the apiary package from outside it.

`Tracer.install()` wraps every public function and public method of each
apiary module, and rebinds the wrapper wherever the original object is
reachable by name: in its own module, in every module that imported it
with `from ... import`, and on its class. Nothing under `src/` changes.
`uninstall()` puts the originals back.

A span is (name, start, end, parent). Spans stay in memory in flat arrays
and are written out once, at the end of a run. A function's busy time is
the sum of its spans' durations (no apiary function calls itself), and a
span's self time is its duration minus the durations of its child spans:
the program is single-threaded and synchronous, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "math3d",
    "actuation",
    "dynamics",
    "env",
    "baseline",
    "mission",
    "config",
    "learn.nets",
    "learn.ppo",
    "learn.checkpoint",
    "learn.train",
    "cli",
)

# extra namespaces that re-export functions callers may look up
PACKAGES = ("apiary", "apiary.learn")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # env.BatchEnv.step: rows stepped and rows that were not frozen
        self.rows_stepped = 0
        self.rows_live = 0

    def _wrap(self, name: str, fn):
        nid = self.ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end,
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def _wrap_batch_step(self, fn):
        traced = self._wrap("env.BatchEnv.step", fn)

        def step(benv, actions):
            self.rows_stepped += benv.n
            self.rows_live += benv.n - int(np.count_nonzero(benv.frozen))
            return traced(benv, actions)

        return step

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"apiary.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{short}.{attr}.{meth}"
                        if name == "env.BatchEnv.step":
                            w = self._wrap_batch_step(fn)
                        else:
                            w = self._wrap(name, fn)
                        self._restore.append((obj, meth, fn))
                        setattr(obj, meth, w)
        namespaces = list(mods.values()) + [importlib.import_module(p) for p in PACKAGES]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, w)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        """Write every recorded span (arrays plus the name table) to one .npz."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, busy_s, self_s, call durations and start times (s),
        and the name id of each call's parent span (-1 at top level)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_t = dur - child
        parent_name = np.where(has_parent, a["name_id"][np.maximum(a["parent"], 0)], -1)
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            if not sel.any():
                continue
            out[name] = {
                "calls": int(sel.sum()),
                "busy_s": float(dur[sel].sum()),
                "self_s": float(self_t[sel].sum()),
                "durations": dur[sel],
                "starts": a["start"][sel],
                "parent_ids": parent_name[sel],
            }
        return out
