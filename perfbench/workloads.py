"""Workload inputs, the timed GAP-kernel and serve phases, and their checks.

Every workload runs the same two phases, in different proportions:

* the **kernel phase** times the six Basic-mode GAP kernels of
  :mod:`repro.lagraph` against the :mod:`repro.gap.baselines` in
  interleaved rounds, each round on fresh GAP-style random sources, and
  checks every output with :mod:`repro.gap.verify`;
* the **serve phase** replays a fixed, seeded request script against one
  :class:`repro.serve.GraphService` from two closed-loop client threads,
  one of which also applies a few-edge write through
  ``registry.update`` on a fixed schedule, and checks a seeded sample of
  the answers against the direct :mod:`repro.lagraph` call on the graph
  version that answered them.

All randomness comes from the workload seed; the program only ever sees
the generated graphs, sources and requests.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import lagraph as lg
from repro import serve
from repro.gap import baselines, generators, verify
from repro.lagraph import Graph

KERNELS = ("bfs", "sssp", "bc", "pr", "cc", "tc")
#: Sources per BC batch, and per traced kernel pass.
SOURCES_PER_ROUND = 4
#: BC batches timed together in one trial.
BC_BATCHES = 2
#: Trials of each kernel per round: sources for BFS and SSSP, calls for
#: the others (each BC call on its own sources).  The cheap kernels get
#: more, so that every median rests on many samples.
TRIALS_PER_ROUND = {"bfs": 16, "sssp": 6, "bc": 3, "pr": 3, "cc": 3, "tc": 3}
#: Baseline trials per round where fewer than the LAGraph trials, to keep
#: a run's wall time down: the TC baseline takes 0.5 s on kron, and the
#: BC baseline 0.2 s per trial (its outputs' checks still rerun it).
BASELINE_TRIALS = {"bc": 1, "tc": 1}
#: Distinct sources drawn per round.
ROUND_SOURCES = max(TRIALS_PER_ROUND["bfs"], TRIALS_PER_ROUND["sssp"],
                    SOURCES_PER_ROUND * BC_BATCHES * TRIALS_PER_ROUND["bc"])
# The serve script's shape.  The three values below were tuned so that
# serve-mixed reproduces a reference duration-bounded serve run on the
# same graphs in sources per coalesced call (4.4) and p99 (0.45 s), with
# the memo hit rate kept low enough that p50 falls among kernel answers;
# NOTES.md ("Serve traffic") lists the sweep and the figures it got.
#: Zipf exponent of the serve sources over a seeded node ranking.
ZIPF_A = 1.2
#: Sources per single-source burst (inclusive range).
BURST = (4, 10)
#: One write step after every this many script steps.
WRITE_EVERY = 20
#: Seconds a client waits for the done-callbacks of a resolved burst.
CALLBACK_WAIT_S = 10.0
#: Queries in the serve script of a traced run (about 75 steps, so three
#: writes).
TRACE_QUERIES = 1000
#: Client threads of the serve phase, at most ``nproc`` (2 on the machine
#: the bounds were set on).
CLIENTS = 2
SERVE_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and NOTES.md say why each was chosen."""

    name: str
    #: generator name and size keywords of the kernel-phase graph
    kernel_graph: Tuple[str, dict]
    #: serve graph name -> (generator, size keywords, weighted)
    serve_graphs: Dict[str, Tuple[str, dict, bool]]
    #: share of --seconds spent in the kernel phase
    kernel_share: float
    #: script queries per second of serve phase
    script_rate: int
    #: (step kind, probability) of the serve script
    mix: Tuple[Tuple[str, float], ...]


WORKLOADS = {
    "gap-road": Workload(
        "gap-road",
        ("road", {"side": 72}),
        {"A": ("road", {"side": 72}, False)},
        kernel_share=0.7, script_rate=460,
        mix=(("bfs", 0.8), ("pr", 0.1), ("cc", 0.1))),
    "gap-kron": Workload(
        "gap-kron",
        ("kron", {"scale": 14}),
        {"A": ("kron", {"scale": 12}, False)},
        kernel_share=0.7, script_rate=425,
        mix=(("bfs", 0.8), ("pr", 0.1), ("cc", 0.1))),
    "serve-mixed": Workload(
        "serve-mixed",
        ("road", {"side": 72}),
        {"A": ("kron", {"scale": 12}, False),
         "W": ("road", {"side": 72}, True)},
        kernel_share=0.35, script_rate=82,
        mix=(("bfs", 0.45), ("sssp", 0.45), ("pr", 0.05), ("cc", 0.05))),
}


class PeakRss:
    """Peak resident set size over the program's own calls.

    ``reset()`` before a LAGraph or serve call sets the kernel's
    high-water mark (``VmHWM``) back to the current RSS, and ``read()``
    after it takes the mark into ``peak_mb``.  The baselines and checks
    that run in the same process between those calls are left out.
    Where ``/proc/self/clear_refs`` cannot be written, the process's
    ``ru_maxrss`` is used instead and ``source`` says so.
    """

    def __init__(self):
        self.peak_mb = 0.0
        self.source = "VmHWM"
        try:
            self.reset()
        except OSError:
            self.source = "ru_maxrss"

    def reset(self) -> None:
        if self.source == "VmHWM":
            with open("/proc/self/clear_refs", "w") as f:
                f.write("5")

    def read(self) -> None:
        if self.source == "VmHWM":
            with open("/proc/self/status") as f:
                kb = next(int(line.split()[1]) for line in f
                          if line.startswith("VmHWM:"))
        else:
            import resource
            kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.peak_mb = max(self.peak_mb, kb / 1024)


def make_graph(gen: str, kw: dict, weighted: bool, seed: int) -> Graph:
    return getattr(generators, gen)(**kw, weighted=weighted, seed=seed)


def non_isolated(g: Graph) -> np.ndarray:
    return np.flatnonzero(np.diff(g.A.indptr) > 0)


def gap_sources(rng, candidates: np.ndarray, k: int) -> np.ndarray:
    """GAP-style random non-isolated sources, distinct within a round."""
    return rng.choice(candidates, size=min(k, candidates.size), replace=False)


# ---------------------------------------------------------------------------
# the kernel phase
# ---------------------------------------------------------------------------

class KernelPhase:
    """Times the six kernels and their baselines; verifies every output.

    ``samples[kernel]["lagraph" | "baseline"]`` collect seconds per trial:
    per source for BFS and SSSP, per call for PR, CC and TC, and per
    4-source batch for BC, timed as one Basic-mode call over
    ``BC_BATCHES`` batches (a single batch's time is bimodal on kron,
    depending on how deep its sources reach).  Within a round, the
    LAGraph trials of one kernel run back to back and so do its baseline
    trials, so no LAGraph call directly follows a baseline that left the
    caches and the allocator in another state (except the first of each
    block).
    """

    def __init__(self, g: Graph, gw: Graph, seed: int):
        self.g = g
        self.gw = gw
        self.candidates = non_isolated(g)
        self.rng = np.random.default_rng([seed, 1])
        self.attempted = 0
        self.rounds = 0
        self.failures: List[str] = []
        self.rss = PeakRss()
        self.speed = None                 # a speed.SpeedProbe, for run_for
        self._tc_ref: Optional[int] = None
        self.clear_samples()

    def clear_samples(self) -> None:
        self.samples = {k: {"lagraph": [], "baseline": []} for k in KERNELS}
        # the speed probe's seconds just before each LAGraph sample
        self.trial_probe = {k: [] for k in KERNELS}

    # one LAGraph call, checked outside the timed region
    def _lagraph(self, kernel: str, fn, check, per: int, probe: float):
        self.attempted += 1
        self.rss.reset()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:        # a raised call is a failed trial
            self.failures.append(f"{kernel}: {type(exc).__name__}: {exc}")
            return None
        self.samples[kernel]["lagraph"].append(
            (time.perf_counter() - t0) / per)
        self.trial_probe[kernel].append(probe)
        self.rss.read()
        try:
            check(out)
        except AssertionError as exc:
            self.failures.append(f"{kernel}: verification: {exc}")
        except Exception as exc:        # a malformed output fails the check
            self.failures.append(f"{kernel}: verification raised "
                                 f"{type(exc).__name__}: {exc}")
        return out

    def _baseline(self, kernel: str, fn, per: int):
        t0 = time.perf_counter()
        out = fn()
        self.samples[kernel]["baseline"].append(
            (time.perf_counter() - t0) / per)
        return out

    def _block(self, kernel, trials, lag_first, per=1):
        """The round's trials of one kernel: ``(lagraph call, baseline
        call, check)`` each, the LAGraph block first if ``lag_first``."""
        def lagraph():
            for lag_fn, _, check in trials:
                self._lagraph(kernel, lag_fn, check, per,
                              self.speed.sample())

        def baseline():
            for _, base_fn, _ in trials[:BASELINE_TRIALS.get(kernel)]:
                self._baseline(kernel, base_fn, per)
        for block in ((lagraph, baseline) if lag_first
                      else (baseline, lagraph)):
            block()

    def run_round(self, sources: np.ndarray, lag_first: bool = True) -> None:
        """One round of trials of each kernel on ``sources``: BFS and SSSP
        take their first ``TRIALS_PER_ROUND`` sources, and each BC trial
        the next ``SOURCES_PER_ROUND * BC_BATCHES``."""
        g, gw = self.g, self.gw
        n = TRIALS_PER_ROUND
        self._block("bfs", [
            (lambda s=s: lg.bfs(g, s)[0],
             lambda s=s: baselines.bfs_parent(g, s),
             lambda p, s=s: verify.verify_bfs_parent(g, s, p))
            for s in (int(x) for x in sources[:n["bfs"]])], lag_first)
        self._block("sssp", [
            (lambda s=s: lg.sssp(gw, s),
             lambda s=s: baselines.sssp_dijkstra(gw, s),
             lambda d, s=s: verify.verify_sssp(gw, s, d))
            for s in (int(x) for x in sources[:n["sssp"]])], lag_first)
        k = SOURCES_PER_ROUND * BC_BATCHES
        self._block("bc", [
            (lambda bc=bc: lg.betweenness_centrality(g, bc),
             lambda bc=bc: baselines.betweenness_centrality(g, bc),
             lambda c, bc=bc: verify.verify_bc(g, bc, c))
            for bc in (sources[i * k:(i + 1) * k] for i in range(n["bc"]))],
            lag_first, per=BC_BATCHES)
        self._block("pr", [
            (lambda: lg.pagerank(g)[0], lambda: baselines.pagerank(g),
             lambda r: verify.verify_pr(g, r, tol=1e-4))] * n["pr"],
            lag_first)
        self._block("cc", [
            (lambda: lg.connected_components(g),
             lambda: baselines.connected_components(g),
             lambda c: verify.verify_cc(g, c))] * n["cc"], lag_first)
        self._block("tc", [
            (lambda: lg.triangle_count_basic(g),
             lambda: baselines.triangle_count(g),
             self._check_tc)] * n["tc"], lag_first)

    def _check_tc(self, count) -> None:
        if self._tc_ref is None:        # the graph never changes here
            self._tc_ref = baselines.triangle_count(self.g)
        assert count == self._tc_ref, \
            f"TC mismatch: {count} vs {self._tc_ref}"

    def run_for(self, seconds: float) -> None:
        """Interleaved rounds until ``seconds`` pass (at least one)."""
        t_end = time.perf_counter() + seconds
        start = self.rounds
        while self.rounds == start or time.perf_counter() < t_end:
            self.run_round(gap_sources(self.rng, self.candidates,
                                       ROUND_SOURCES),
                           lag_first=self.rounds % 2 == 0)
            self.rounds += 1

    def traced_pass(self, sources: np.ndarray) -> dict:
        """One fixed pass of the six LAGraph kernels (no baselines);
        returns the outputs so traced and untraced passes can be compared."""
        g, gw = self.g, self.gw
        out = {}
        for s in (int(x) for x in sources):
            out[("bfs", s)] = lg.bfs(g, s)[0]
            out[("sssp", s)] = lg.sssp(gw, s)
        out["bc"] = lg.betweenness_centrality(g, sources)
        out["pr"] = lg.pagerank(g)
        out["cc"] = lg.connected_components(g)
        out["tc"] = lg.triangle_count_basic(g)
        return out


def warm_kernels(g: Graph, gw: Graph, sources: np.ndarray) -> None:
    """One untimed pass of every LAGraph kernel (part of set-up)."""
    s = int(sources[0])
    lg.bfs(g, s)
    lg.sssp(gw, s)
    lg.betweenness_centrality(g, sources)
    lg.pagerank(g)
    lg.connected_components(g)
    lg.triangle_count_basic(g)


def warm_baselines(g: Graph, gw: Graph, sources: np.ndarray) -> None:
    """One untimed pass of every baseline, after the set-up time is taken:
    the baselines are not the program, so their set-up is not counted."""
    s = int(sources[0])
    baselines.bfs_parent(g, s)
    baselines.sssp_dijkstra(gw, s)
    baselines.betweenness_centrality(g, sources)
    baselines.pagerank(g)
    baselines.connected_components(g)
    baselines.triangle_count(g)


def outputs_differ(a: dict, b: dict) -> List[str]:
    """Keys whose outputs are not bit-identical between two passes."""
    return [str(k) for k, x in a.items() if not same_output(x, b[k])]


# ---------------------------------------------------------------------------
# the serve phase
# ---------------------------------------------------------------------------

QUERY = {"bfs": serve.BFSParents, "sssp": serve.SSSP}
GRAPH_OF = {"bfs": "A", "sssp": "W", "pr": "A", "cc": "W"}


@dataclass
class Step:
    kind: str                      # bfs | sssp | pr | cc | write
    graph: str
    first: int = 0                 # script index of the step's first query
    sources: Tuple[int, ...] = ()
    edges: Tuple[Tuple[int, int, float], ...] = ()


def make_script(seed: int, n_queries: int, wl: Workload,
                graphs: Dict[str, Graph]) -> List[Step]:
    """The seeded request script: Zipf-skewed BFS/SSSP bursts, occasional
    PageRank/CC, and one few-edge write every ``WRITE_EVERY`` steps."""
    rng = np.random.default_rng([seed, 2])
    kinds = [k for k, _ in wl.mix]
    probs = np.array([p for _, p in wl.mix])
    probs /= probs.sum()
    pools = {}
    for name, g in graphs.items():
        # Zipf over a seeded ranking of the non-isolated nodes, so a few
        # sources recur often and the memo cache gets hits
        pools[name] = rng.permutation(non_isolated(g))
    steps: List[Step] = []
    queries = 0
    writes = 0
    while queries < n_queries:
        if steps and len(steps) % WRITE_EVERY == 0:
            target = sorted(graphs)[writes % len(graphs)]
            steps.append(Step("write", target,
                              edges=_write_edges(rng, graphs[target],
                                                 pools[target])))
            writes += 1
        kind = str(rng.choice(kinds, p=probs))
        name = graph_for(kind, graphs)
        if kind in QUERY:
            k = int(rng.integers(BURST[0], BURST[1] + 1))
            ranks = (rng.zipf(ZIPF_A, size=k) - 1) % pools[name].size
            srcs = tuple(int(pools[name][r]) for r in ranks)
            steps.append(Step(kind, name, queries, sources=srcs))
            queries += k
        else:
            steps.append(Step(kind, name, queries))
            queries += 1
    return steps


def check_sample(seed: int, script: List[Step], k: int) -> frozenset:
    """Seeded script indices of the queries whose answers are checked."""
    n = sum(len(s.sources) or 1 for s in script if s.kind != "write")
    rng = np.random.default_rng([seed, 3])
    return frozenset(int(i) for i in rng.choice(n, size=min(k, n),
                                                replace=False))


def graph_for(kind: str, graphs) -> str:
    """SSSP and CC go to the weighted graph "W" where there is one."""
    name = GRAPH_OF[kind]
    return name if name in graphs else "A"


def _write_edges(rng, g: Graph, pool: np.ndarray):
    """Up to two local edits (mirrored on undirected graphs): a weighted
    graph re-weights an existing edge, an unweighted one adds a two-hop
    shortcut, so a road stays road-like and kron gains a triangle."""
    indptr, indices = g.A.indptr, g.A.indices
    weighted = not g.A.type.is_boolean
    edges = []
    for i in (int(x) for x in pool[rng.integers(0, min(256, pool.size),
                                                 size=2)]):
        j = int(rng.choice(indices[indptr[i]:indptr[i + 1]]))
        if weighted:
            edges.append((i, j, float(rng.integers(1, 256))))
            continue
        k = int(rng.choice(indices[indptr[j]:indptr[j + 1]]))
        if k != i:
            edges.append((i, k, 1.0))
    return tuple(edges)


class ServePhase:
    """One GraphService, two closed-loop clients, a fixed script."""

    def __init__(self, wl: Workload, seed: int):
        self.graphs = {name: make_graph(gen, kw, w, seed)
                       for name, (gen, kw, w) in wl.serve_graphs.items()}
        self.svc = serve.GraphService(max_workers=SERVE_WORKERS)
        for name, g in sorted(self.graphs.items()):
            self.svc.register(name, g)
        # the initial graphs and the writes applied since, from which
        # check() rebuilds every version an answer may have come from
        self.initial = {name: (_copy(g), g.version)
                        for name, g in self.graphs.items()}
        self.write_log: Dict[str, list] = {name: [] for name in self.graphs}
        self.kinds = [k for k, _ in wl.mix]

    def warm(self) -> None:
        """One untimed query of every kind in the mix (part of set-up)."""
        for kind in self.kinds:
            name = graph_for(kind, self.graphs)
            if kind in QUERY:
                src = int(non_isolated(self.graphs[name])[0])
                self.svc.query(name, QUERY[kind](src))
            else:
                self.svc.query(name, serve.PageRank() if kind == "pr"
                               else serve.ConnectedComponents())

    def close(self) -> None:
        self.svc.shutdown(wait=True)

    def run(self, script: List[Step], res: "ServeResult") -> None:
        """Replay ``script`` from the client threads, adding to ``res``."""
        parts = [[] for _ in range(CLIENTS)]
        for i, step in enumerate(script):
            # the writer is client 0; query steps alternate between clients
            parts[0 if step.kind == "write" else i % CLIENTS].append(step)
        errors: List[BaseException] = []

        def client(steps):
            try:
                for step in steps:
                    self._step(step, res)
            except BaseException as exc:     # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(p,),
                                    name=f"perfbench-client-{i}")
                   for i, p in enumerate(parts)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        res.wall += time.perf_counter() - t0
        if errors:
            raise errors[0]

    def _step(self, step: Step, res: "ServeResult") -> None:
        reg = self.svc.registry
        if step.kind == "write":
            res.writes += 1
            log = self.write_log[step.graph]

            def mutate(g: Graph):
                apply_edges(g, step.edges)
                log.append(step.edges)
            reg.update(step.graph, mutate)
            return
        if step.kind in QUERY:
            queries = [QUERY[step.kind](s) for s in step.sources]
        elif step.kind == "pr":
            queries = [serve.PageRank()]
        else:
            queries = [serve.ConnectedComponents()]
        v0 = reg.snapshot(step.graph)[2]
        # (resolution time, resolving thread) per query, set by a
        # done-callback; f.result() can return before the callbacks ran,
        # so the client waits for all of them before it reads ``ends``
        ends: List[Optional[tuple]] = [None] * len(queries)
        pending = [len(queries)]
        ended = threading.Event()
        ends_lock = threading.Lock()

        def on_done(k):
            ends[k] = (time.perf_counter(), threading.get_ident())
            with ends_lock:
                pending[0] -= 1
                if not pending[0]:
                    ended.set()
        t0 = time.perf_counter()
        futs = self.svc.submit_many(step.graph, queries)
        for k, f in enumerate(futs):
            f.add_done_callback(lambda _f, k=k: on_done(k))
        outcomes = []
        for k, f in enumerate(futs):
            try:
                out = f.result()
            except Exception as exc:     # raised / shed / expired request
                outcomes.append((type(exc).__name__, None))
                continue
            if isinstance(out, serve.DegradedResult):
                outcomes.append(("degraded", None))
            else:
                # only the sampled answers are kept, for check()
                outcomes.append(("ok", out if step.first + k in res.keep
                                 else None))
        v1 = reg.snapshot(step.graph)[2]
        ended.wait(CALLBACK_WAIT_S)
        with res.lock:
            for q, (status, out), end in zip(queries, outcomes, ends):
                if end is None:          # no resolution time: a failure
                    status, out, end = "no done-callback", None, (None, 0)
                res.records.append(
                    (step.graph, q, status, out, v0, v1, t0, *end))


    def check(self, res: "ServeResult") -> List[str]:
        """Failures: raised, shed or expired requests, degraded answers,
        and kept answers that differ from the direct lagraph call on every
        graph version current between their submit and their answer."""
        failures = [f"serve {name} {q}: {status}"
                    for name, q, status, *_ in res.records if status != "ok"]
        todo = {name: [] for name in self.graphs}
        for name, q, _, out, v0, v1, *_ in res.records:
            if out is not None:
                todo[name].append((q, out, v0, v1))
        for name, items in todo.items():
            # replay the writes in order on a copy of the initial graph,
            # checking each sampled answer on the versions it may come from
            g0, version = self.initial[name]
            g = _copy(g0)
            log = iter(self.write_log[name])
            matched = set()
            for v in sorted({v for *_, v0, v1 in items
                             for v in range(v0, v1 + 1)}):
                while version < v:
                    apply_edges(g, next(log))
                    g.invalidate_properties()
                    version += 1
                for k, (q, out, v0, v1) in enumerate(items):
                    if k not in matched and v0 <= v <= v1 \
                            and same_output(out, direct_answer(q, g)):
                        matched.add(k)
            failures += [f"serve {name} {q}: answer differs from the direct "
                         f"call on versions {v0}..{v1}"
                         for k, (q, out, v0, v1) in enumerate(items)
                         if k not in matched]
        return failures


def apply_edges(g: Graph, edges) -> None:
    """Set the given entries (mirrored on undirected graphs) and apply the
    staged writes, so no concurrent reader has to."""
    undirected = g.kind is lg.ADJACENCY_UNDIRECTED
    for i, j, w in edges:
        g.A[i, j] = w
        if undirected:
            g.A[j, i] = w
    g.A.nvals


def _copy(g: Graph) -> Graph:
    return Graph(g.A.dup(), g.kind)


class ServeResult:
    """Per-query outcomes of serve passes; ``keep`` holds the script
    indices whose answers are kept for checking."""

    def __init__(self, keep: frozenset = frozenset()):
        self.lock = threading.Lock()
        self.keep = keep
        # (graph, query, status, kept answer or None, version at submit,
        #  version after, submit time, resolution time, resolving thread)
        self.records: List[tuple] = []
        self.writes = 0
        self.wall = 0.0

    @property
    def latencies(self) -> List[float]:
        return [t_end - t0 for *_, t0, t_end, _tid in self.records
                if t_end is not None]


def direct_answer(q, g: Graph):
    """The direct repro.lagraph call each query class documents."""
    if isinstance(q, serve.BFSParents):
        return lg.bfs_parent_push(g, int(q.source))
    if isinstance(q, serve.SSSP):
        return lg.sssp_bellman_ford(g, int(q.source))
    if isinstance(q, serve.PageRank):
        return lg.pagerank(g)
    if isinstance(q, serve.ConnectedComponents):
        return lg.connected_components(g)
    raise TypeError(f"no direct call for {q!r}")


def same_output(a, b) -> bool:
    """Bit identity of two outputs: vectors, (vector, iterations) pairs
    or counts."""
    if isinstance(a, tuple):
        return a[1] == b[1] and a[0].isequal(b[0])
    if hasattr(a, "isequal"):
        return a.isequal(b)
    return a == b


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> Optional[int]:
    """The highest of p50/p90/p99/p99.9 that has >= 10 samples beyond it."""
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    return best


def percentile(values: List[float], p: float) -> float:
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def summary(values: List[float], scale: float = 1.0) -> dict:
    """Median, sample count and the highest well-supported percentile."""
    p = tail_percentile(len(values))
    out = {"median": statistics.median(values) * scale, "n": len(values)}
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p) * scale
    return out
