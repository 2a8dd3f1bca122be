"""Layer attribution measured from outside the program.

:class:`Tracer` installs timing wrappers around the public entry points of
each layer of the stack and removes them again; nothing under ``src/``
changes.  A wrapper is installed at **every binding site** of its entry
point: each ``repro.*`` module attribute that holds the function (names
brought in with ``from … import`` included), each class attribute, the
engine's registered rule callables and the multi-output fusion rules.

Spans nest per thread.  A span's *self time* is its duration minus the
durations of the spans it directly encloses, so the self times of one
thread's spans add up to the duration of its outermost spans; the time a
wrapper itself costs lands in the enclosing span.  ``trace.overhead_frac``
in the benchmark reports the total cost.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from types import FunctionType
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names, in report order.  ``bench`` is the benchmark's own code
#: (and the baselines) around the program's entry points.
LAYERS = ("bench", "lagraph", "grb.api", "grb.expr", "grb.engine",
          "grb.kernels", "grb.write", "grb.storage", "obs")


def _module_functions(modname: str) -> List[str]:
    """The public functions defined in module ``modname`` itself."""
    mod = importlib.import_module(modname)
    return [k for k, v in vars(mod).items()
            if isinstance(v, FunctionType) and not k.startswith("_")
            and v.__module__ == modname]


def _public_methods(cls) -> List[str]:
    out = []
    for k, v in vars(cls).items():
        if isinstance(v, (property,)):
            continue
        public = not k.startswith("_") or k in ("__getitem__", "__setitem__")
        if public and (callable(v) or isinstance(v, (staticmethod,
                                                       classmethod))):
            out.append(k)
    return out


def entry_points() -> Dict[str, List[Tuple[str, str]]]:
    """``{layer: [(owner dotted name, attribute), ...]}``.

    The owner is a module or a class.  A missing attribute raises, so an
    upstream rename fails loudly instead of dropping attribution.
    """
    alg = "repro.lagraph.algorithms."
    eps: Dict[str, List[Tuple[str, str]]] = defaultdict(list)
    for mod in ("bfs", "sssp", "bc", "cc", "pagerank", "tc", "msbfs"):
        eps["lagraph"] += [(alg + mod, k)
                           for k in _module_functions(alg + mod)]
    eps["lagraph"] += [("repro.lagraph.graph.Graph", k) for k in (
        "cache_at", "cache_row_degree", "cache_col_degree",
        "cache_symmetric_pattern", "cache_ndiag", "invalidate_properties")]

    ops = importlib.import_module("repro.grb.operations")
    eps["grb.api"] += [("repro.grb.operations", k) for k in ops.__all__]
    for cls in ("repro.grb.matrix.Matrix", "repro.grb.vector.Vector"):
        eps["grb.api"] += [(cls, k) for k in _public_methods(_resolve(cls))]

    eps["grb.expr"] += [("repro.grb.expr", k)
                        for k in ("submit", "evaluate")]
    eps["grb.expr"] += [("repro.grb.expr.ExprGraph", k)
                        for k in ("record", "force", "flush")]
    eps["grb.expr"] += [("repro.grb.expr.deferred", k)
                        for k in ("__enter__", "__exit__")]

    eng = "repro.grb.engine"
    eps["grb.engine"] += [(eng, k) for k in ("execute", "choose_direction",
                                             "preplan")]
    eps["grb.engine"] += [(eng + ".rules", k) for k in ("dispatch",
                                                        "analyze")]
    eps["grb.engine"] += [(eng + ".plan", k)
                          for k in _module_functions(eng + ".plan")
                          if k.startswith("plan_")]
    eps["grb.engine"] += [(eng + ".plan.Plan", k) for k in (
        "then_apply", "then_select", "then_reduce_rowwise",
        "then_reduce_scalar")]
    eps["grb.engine"] += [(eng + ".plancache", k) for k in (
        "shape_key", "lookup", "store", "update_feeds")]
    eps["grb.engine"] += [(eng + ".multiplan.MultiPlan", "execute")]

    for mod in ("apply_select", "ewise", "gather", "masked_matmul",
                "maskwrite", "matmul"):
        name = "repro.grb._kernels." + mod
        eps["grb.kernels"] += [(name, k) for k in _module_functions(name)]
    eps["grb.kernels"] += [(eng + ".executors", k)
                           for k in ("scipy_mxm", "scipy_mxv")]

    eps["grb.write"] += [(eng + ".executors", k) for k in (
        "finish", "write_vector", "write_matrix")]

    st = "repro.grb.storage"
    eps["grb.storage"] += [(st + ".base", k) for k in (
        "csr_to_csc_arrays", "csc_to_csr_arrays")]
    eps["grb.storage"] += [(st + ".policy", k) for k in (
        "matrix_store_from_csr", "matrix_store_from_keys",
        "vector_store_from_sparse")]
    for cls, names in (
            ("csr.CSRStore", ("from_csr", "transpose_csr")),
            ("csc.CSCStore", ("from_csr", "csr", "transpose_csr")),
            ("bitmap.BitmapStore", ("from_csr", "from_keys", "csr",
                                    "transpose_csr")),
            ("bitmap.BitmapVec", ("from_sparse", "sparse")),
            ("hypersparse.HypersparseStore", ("from_csr", "from_counts",
                                              "csr", "transpose_csr")),
            ("vector.SparseVec", ("bitmap",))):
        eps["grb.storage"] += [(f"{st}.{cls}", k) for k in names]

    eps["obs"] += [("repro.obs.memory", "account")]
    eps["obs"] += [("repro.obs.metrics.Metric", "labels")]
    for cls, names in (("_CounterChild", ("inc",)),
                       ("_GaugeChild", ("set", "inc", "dec")),
                       ("_HistogramChild", ("observe",)),
                       ("Counter", ("inc",))):
        eps["obs"] += [(f"repro.obs.metrics.{cls}", k) for k in names]
    return dict(eps)


#: Entry points each workload must hit at least once in its traced run
#: (``*`` = every workload).
REQUIRED_HITS = {
    "repro.lagraph.algorithms.bfs.bfs": ("gap-road", "gap-kron"),
    "repro.lagraph.algorithms.sssp.sssp": ("gap-road", "gap-kron"),
    "repro.lagraph.algorithms.bc.betweenness_centrality": ("*",),
    "repro.lagraph.algorithms.pagerank.pagerank": ("*",),
    "repro.lagraph.algorithms.cc.connected_components": ("*",),
    "repro.lagraph.algorithms.tc.triangle_count_basic": ("*",),
    "repro.lagraph.algorithms.msbfs.msbfs_parents": ("*",),
    "repro.lagraph.algorithms.sssp.sssp_batch": ("serve-mixed",),
    "repro.grb.operations.ewise_add": ("*",),
    "repro.grb.operations.vxm": ("*",),
    "repro.grb.vector.Vector.to_dense": ("*",),
    "repro.grb.expr.submit": ("*",),
    "repro.grb.engine.rules.dispatch": ("*",),
    "repro.grb.engine.plancache.lookup": ("*",),
    "repro.grb.engine.multiplan.MultiPlan.execute": ("gap-road",),
    "rule-run": ("*",),
    "rule-applies": ("*",),
    "fusion": ("gap-road",),
    "repro.grb._kernels.maskwrite.masked_write": ("*",),
    "repro.grb.engine.executors.finish": ("*",),
    "repro.grb.engine.executors.write_vector": ("*",),
    "repro.grb.storage.policy.matrix_store_from_keys": ("*",),
    "repro.obs.memory.account": ("*",),
    "repro.obs.metrics.Metric.labels": ("*",),
}


def _resolve(dotted: str):
    """Import ``a.b.c`` as a module, or as attribute ``c`` of module
    ``a.b`` (recursively for nested class names)."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        owner, _, attr = dotted.rpartition(".")
        return getattr(_resolve(owner), attr)


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls", "hits", "top", "ident")

    def __init__(self, n_layers: int):
        self.stack: List[list] = []
        self.self_s = [0.0] * n_layers
        self.calls = [0] * n_layers
        self.hits: Dict[str, int] = {}
        self.top: List[tuple] = []     # outermost spans: (layer, t0, t1)
        self.ident = threading.get_ident()


class Tracer:
    """Installs, accounts for and removes the layer wrappers.

    ``delay`` maps a layer to seconds of busy-wait added inside each of
    its wrappers — the bound self-check's fault injection.
    """

    def __init__(self, delay: Optional[Dict[str, float]] = None):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._fused = [0]
        self.delay = dict(delay or {})
        self.installed = False

    # -- accounting ----------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(len(LAYERS))
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    @staticmethod
    def _close(st: _ThreadState, li: int, entry: str, frame: list,
               t0: float, t1: float) -> None:
        dur = t1 - t0
        stack = st.stack
        stack.pop()
        if stack:
            stack[-1][0] += dur
        else:
            st.top.append((li, t0, t1))
        st.self_s[li] += dur - frame[0]
        st.calls[li] += 1
        st.hits[entry] = st.hits.get(entry, 0) + 1

    def _wrap(self, fn: Callable, layer: str, entry: str) -> Callable:
        li = LAYERS.index(layer)
        perf = time.perf_counter
        state = self._state
        close = self._close
        delay = self.delay.get(layer, 0.0)

        def wrapper(*args, **kwargs):
            st = state()
            frame = [0.0]
            st.stack.append(frame)
            t0 = perf()
            try:
                if delay:
                    end = t0 + delay
                    while perf() < end:
                        pass
                return fn(*args, **kwargs)
            finally:
                close(st, li, entry, frame, t0, perf())

        functools.update_wrapper(wrapper, fn)
        wrapper._perfbench_original = fn
        return wrapper

    @contextmanager
    def span(self, layer: str = "bench"):
        """One span of ``layer`` around a block (the benchmark's root)."""
        st = self._state()
        frame = [0.0]
        st.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(st, LAYERS.index(layer), layer, frame, t0,
                        time.perf_counter())

    def reset(self) -> None:
        with self._lock:
            for st in self._states:
                st.self_s = [0.0] * len(LAYERS)
                st.calls = [0] * len(LAYERS)
                st.hits = {}
                st.top = []
        self._fused[0] = 0

    def snapshot(self, thread: Optional[int] = None) -> dict:
        """Totals over all threads (or one thread ident)."""
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        hits: Dict[str, int] = defaultdict(int)
        top = []
        with self._lock:
            states = [s for s in self._states
                      if thread is None or s.ident == thread]
            for st in states:
                for i in range(len(LAYERS)):
                    self_s[i] += st.self_s[i]
                    calls[i] += st.calls[i]
                for k, v in st.hits.items():
                    hits[k] += v
                top += [(st.ident, LAYERS[li], t0, t1)
                        for li, t0, t1 in st.top]
        return {"self_s": dict(zip(LAYERS, self_s)),
                "calls": dict(zip(LAYERS, calls)),
                "hits": dict(hits), "top": top,
                "fused": self._fused[0]}

    # -- installation --------------------------------------------------------
    def install(self, only: Optional[set] = None) -> None:
        """Wrap every entry point at every binding site (or just the
        entry points named in ``only``, leaving rules and fusions alone)."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        eps = entry_points()
        sites = _binding_sites()
        for layer, pairs in eps.items():
            for owner_name, attr in pairs:
                if only is None or f"{owner_name}.{attr}" in only:
                    self._install_one(layer, owner_name, attr, sites)
        if only is None:
            self._install_rules()
        self.installed = True

    def _install_one(self, layer, owner_name, attr, sites) -> None:
        owner = _resolve(owner_name)
        raw = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        fn = getattr(raw, "__func__", raw)
        if hasattr(fn, "_perfbench_original"):
            return                      # listed twice: wrapped already
        new = self._wrap(fn, layer, f"{owner_name}.{attr}")
        if isinstance(owner, type):
            self._set(owner, attr, type(raw)(new)
                      if isinstance(raw, (staticmethod, classmethod))
                      else new)
        for mod, name in sites.get(id(fn), ()):
            self._set(mod, name, new)

    def _install_rules(self) -> None:
        from repro.grb.engine import multiplan, rules
        for op, lst in rules._REGISTRY.items():
            for i, rule in enumerate(lst):
                new = replace(
                    rule,
                    applies=self._wrap(rule.applies, "grb.engine",
                                       "rule-applies"),
                    run=self._wrap(rule.run, "grb.kernels", "rule-run"))
                self._patched.append((lst, i, rule))
                lst[i] = new
        fused = self._fused
        for i, (name, fn) in enumerate(multiplan._FUSIONS):
            def counting(nodes, k, _fn=fn):
                consumed = _fn(nodes, k)
                if consumed:
                    fused[0] += 1
                return consumed
            self._patched.append((multiplan._FUSIONS, i, (name, fn)))
            multiplan._FUSIONS[i] = (
                name, self._wrap(counting, "grb.engine", "fusion"))

    def _set(self, owner, name, value) -> None:
        if isinstance(owner, type):
            self._patched.append((owner, name, vars(owner)[name]))
        else:
            self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every original, newest patch first; then check that no
        wrapper is left behind anywhere it was installed."""
        for owner, key, orig in reversed(self._patched):
            if isinstance(owner, list):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patched = []
        self.installed = False
        left = _leftover_wrappers()
        if left:
            raise RuntimeError(f"wrappers left installed: {left[:5]}")


def _repro_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None
            and (name == "repro" or name.startswith("repro."))]


def _binding_sites() -> Dict[int, List[Tuple[object, str]]]:
    """``id(object) -> [(module, attribute)]`` over every repro module."""
    sites: Dict[int, List[Tuple[object, str]]] = defaultdict(list)
    for mod in _repro_modules():
        for k, v in list(vars(mod).items()):
            if callable(v):
                sites[id(v)].append((mod, k))
    return sites


def _leftover_wrappers() -> List[str]:
    from repro.grb.engine import multiplan, rules
    left = []
    for mod in _repro_modules():
        for k, v in list(vars(mod).items()):
            if hasattr(v, "_perfbench_original"):
                left.append(f"{mod.__name__}.{k}")
            if isinstance(v, type) and v.__module__.startswith("repro"):
                for ck, cv in list(vars(v).items()):
                    fn = getattr(cv, "__func__", cv)
                    if hasattr(fn, "_perfbench_original"):
                        left.append(f"{v.__module__}.{v.__name__}.{ck}")
    for lst in rules._REGISTRY.values():
        for r in lst:
            if hasattr(r.run, "_perfbench_original"):
                left.append(f"rule {r.name}")
    for name, fn in multiplan._FUSIONS:
        if hasattr(fn, "_perfbench_original"):
            left.append(f"fusion {name}")
    return left
