"""In-memory span recorder that wraps the package's public functions from
outside the package.

A span is (name, start, end, parent) for one call; the repetition id is the
worker process's.  Spans live in flat arrays while the workload runs and
are written out once it ends.  Wrappers are installed wherever a module
looks a function up: a function imported with ``from .sampling import
draw`` is replaced in ``stochvi.solvers`` as well as in
``stochvi.sampling``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("numerics", "operators", "sampling", "constants", "solvers", "verify",
          "experiments")

# QuadraticGame methods the per-step paths call.
GAME_METHODS = ("component_value", "component_jacobian", "component_values",
                "full_value", "mean_value", "mean_jacobian", "mean_offset",
                "equilibrium")

SCHEME_SHORT = {"single_element_uniform": "single", "minibatch": "minibatch",
                "full_batch": "full", "independent": "independent"}


class Tracer:
    """Span store plus the counters that need a call's arguments or result."""

    def __init__(self, rep: int):
        self.rep = rep
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters = {"runs_diverged": 0, "steps_done": 0, "steps_requested": 0,
                         "support_size": 0, "unbiased_pair_terms": 0}
        self._originals: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def timed(self, name: str):
        """Record one span around the enclosed block."""
        sid = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, label=None, on_return=None):
        clock = time.perf_counter
        stack = self._stack
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        fixed = self._id(name)
        ident = self._id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(fixed if label is None else ident(f"{name}[{label(args)}]"))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer module, at every module
        attribute bound to it, plus the QuadraticGame methods."""
        import stochvi.operators

        hooks = {
            "solvers.run": (lambda a: a[0].method, self._after_run),
            "solvers.solver_step": (lambda a: a[0], None),
            "sampling.draw": (lambda a: SCHEME_SHORT[a[0].kind], None),
            "sampling.enumerate_support": (None, self._after_support),
            "verify.check_unbiasedness": (None, self._after_unbiased),
        }
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"stochvi.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                label, after = hooks.get(name, (None, None))
                wrappers[fn] = self._wrap(fn, name, label, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stochvi" or mod_name.startswith("stochvi.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        cls = stochvi.operators.QuadraticGame
        for attr in GAME_METHODS:
            fn = cls.__dict__[attr]
            self._originals.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, f"operators.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    # -- return hooks ----------------------------------------------------

    def _after_run(self, args, kwargs, trace) -> None:
        c = self.counters
        c["runs_diverged"] += int(trace.diverged)
        c["steps_done"] += len(trace.alphas)
        c["steps_requested"] += args[0].iterations

    def _after_support(self, args, kwargs, support) -> None:
        c = self.counters
        c["support_size"] = max(c["support_size"], len(support))

    def _after_unbiased(self, args, kwargs, report) -> None:
        scheme = args[1]
        size = math.comb(scheme.n, scheme.batch_size)
        self.counters["unbiased_pair_terms"] += size * size * report.points

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """(name ids, start, end, parent) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32))

    def summary(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.  The ``in_step`` count is the number of spans of that name
        that ran inside a ``solvers.solver_step`` span.
        """
        nid, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        is_step = np.array([n.startswith("solvers.solver_step") for n in self.names],
                           dtype=bool)[nid] if nid.size else np.zeros(0, dtype=bool)
        under = is_step.copy()
        up = parent.copy()
        while np.any(up >= 0):
            live = up >= 0
            under[live] |= is_step[up[live]]
            up[live] = parent[up[live]]
        out = {}
        k = len(self.names)
        counts = np.bincount(nid, minlength=k)
        inc = np.bincount(nid, weights=dur, minlength=k)
        slf = np.bincount(nid, weights=own, minlength=k)
        in_step = np.bincount(nid, weights=(under & ~is_step).astype(float), minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(counts[i]), "s": float(inc[i]),
                         "self_s": float(slf[i]), "in_step": int(in_step[i])}
        return out

    def save(self, path) -> None:
        """Write every span of this repetition as a compressed numpy archive."""
        nid, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            start=start, end=end, parent=parent,
                            rep=np.full(nid.size, self.rep, dtype=np.int32))
