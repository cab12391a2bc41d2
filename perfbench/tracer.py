"""Span tracer that wraps errw's public functions from outside the package.

A traced pass replaces every public errw function at every module attribute
a caller can look it up through (``errw.cli.sample_beta_population`` and
``errw.conductance.sample_beta_population`` share one wrapper), plus
``EnvTree.transition``. Each call records a span: name, parent span, start
and end. Spans live in flat arrays until the pass ends; ``summary`` then turns
them into per-function layer-self times, call counts and work counts.

Layer-self time of a span is its duration minus the time its descendants
spend in other modules, so ``speed.evaluate_speed`` excludes the F evaluation
in ``specfun`` while ``criteria.classify_speed`` keeps ``compute_r``.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = (
    "errw",
    "errw.branching",
    "errw.cli",
    "errw.conductance",
    "errw.criteria",
    "errw.dirichlet",
    "errw.reversal",
    "errw.specfun",
    "errw.speed",
    "errw.walk",
)

# Called thousands of times per check at well under a microsecond each: a span
# would cost more than the call, so these are counted without a span and
# their time stays with the caller.
COUNT_ONLY = {"specfun.phi", "specfun.log_gamma", "specfun.digamma", "dirichlet.EnvTree.transition"}
# The benchmark opens its own ``cli.<subcommand>`` span around this one.
NOT_WRAPPED = {"cli.main"}


# Work hooks: span name -> f(bound arguments, result) -> {counter: amount}.
# "work" is the unit the layer's ns-per-unit metric divides by.
WORK_HOOKS = {
    "specfun.hyper_F_array": lambda a, r: {"work": np.asarray(a["x"]).size},
    "conductance.sample_beta_population": lambda a, r: {
        "work": a["pool_size"] * a["iterations"],
        "pool_slots": r.size,
        "pool_zeros": int(np.count_nonzero(r.pool == 0.0)),
    },
    "conductance.estimate_C": lambda a, r: {"work": a["n_samples"] * (a["series_cap"] + 1)},
    "speed.evaluate_speed": lambda a, r: {"work": a["n_mc"]},
    "walk.simulate_rwde_lazy": lambda a, r: {
        "work": r.n_steps,
        "new_vertices": len(r.parent_map),
        "extinct": int(r.known_extinct),
    },
    "walk.simulate_errw_lazy": lambda a, r: {
        "work": r.n_steps,
        "new_vertices": len(r.parent_map),
        "extinct": int(r.known_extinct),
    },
    "walk.detect_epochs": lambda a, r: {"work": a["traj"].n_steps},
}


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict[str, int] = {}
        self.counters: dict[tuple[str, str], float] = {}
        self.stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    @contextmanager
    def span(self, name: str):
        sid = self.open(self.intern(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1

    def add(self, name: str, counts: dict):
        for key, val in counts.items():
            self.counters[(name, key)] = self.counters.get((name, key), 0) + val

    def summary(self) -> dict:
        """Per span name: calls, layer-self seconds, work counters, and the
        list of per-call layer-self seconds (for percentiles); under
        ``__modules__``, each module's own seconds."""
        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.int32) if n else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) if n else np.zeros(0)
        module = [nm.split(".", 1)[0] for nm in self.names]
        # Children always have larger ids than their parents, so one reverse
        # sweep accumulates "time below this span in other modules".
        foreign = np.zeros(n)
        for sid in range(n - 1, -1, -1):
            par = parent[sid]
            if par < 0:
                continue
            same = module[names[sid]] == module[names[par]]
            foreign[par] += foreign[sid] if same else dur[sid]
        self_s = dur - foreign
        # a module's own time: layer-self time of its outermost spans
        modules: dict = {}
        for sid in range(n):
            mod = module[names[sid]]
            par = parent[sid]
            if par < 0 or module[names[par]] != mod:
                modules[mod] = modules.get(mod, 0.0) + self_s[sid]
        out: dict = {"__modules__": modules}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_s[mask].sum()),
                "per_call_s": self_s[mask].tolist(),
            }
        for name, calls in self.calls.items():
            out.setdefault(name, {"self_s": 0.0, "per_call_s": []})["calls"] = calls
        for (name, key), val in self.counters.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "per_call_s": []})[key] = val
        return out


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('errw.')}.{fn.__qualname__}"


def _make_wrapper(fn, name: str, tracer: Tracer):
    if name in COUNT_ONLY:
        calls = tracer.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    nid = tracer.intern(name)
    hook = WORK_HOOKS.get(name)
    sig = inspect.signature(fn) if hook else None
    perf = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(nid)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf()
            tracer.stack.pop()
            tracer.start[sid] = t0
            tracer.end[sid] = t1
        if hook is not None:
            tracer.add(name, hook(sig.bind(*args, **kwargs).arguments, result))
        return result

    return traced


@contextmanager
def installed(tracer: Tracer, modules):
    """Swap wrappers in at every attribute that holds a public errw function
    (and ``EnvTree.transition``); restore the originals on exit."""
    wrappers: dict = {}
    patched = []

    def wrapper_for(fn):
        if fn not in wrappers:
            wrappers[fn] = _make_wrapper(fn, _span_name(fn), tracer)
        return wrappers[fn]

    try:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if (
                    isinstance(val, types.FunctionType)
                    and not attr.startswith("_")
                    and val.__module__.startswith("errw.")
                    and _span_name(val) not in NOT_WRAPPED
                ):
                    patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper_for(val))
        env_tree = modules[0].dirichlet.EnvTree
        patched.append((env_tree, "transition", env_tree.transition))
        env_tree.transition = wrapper_for(env_tree.transition)
        yield tracer
    finally:
        for obj, attr, val in reversed(patched):
            setattr(obj, attr, val)
