"""The traced run: per-layer metrics and the trace's integrity checks.

Sequence, after the same set-up as an untraced run:

1. an untraced pass of a short fixed serve script, then two untraced
   passes of the six kernels on fixed sources;
2. with the layer wrappers installed (:class:`layers.Tracer`): two traced
   kernel passes and one traced serve pass on a fresh service;
3. the wrappers are removed, and the checks run:

   * traced kernel outputs are bit-identical to the untraced ones;
   * the counts that must repeat exactly (dispatches, plan-cache hits and
     misses, recorded expressions, fused groups, kernel calls) are equal
     in the two traced kernel passes;
   * every entry point in :data:`layers.REQUIRED_HITS` for this workload
     was hit;
   * the self times of the program's layers (all but the ``bench`` root
     span) in the first traced kernel pass add up to its wall time within
     ``SELF_TIME_TOLERANCE``, so time spent in code that no wrapper
     covers fails the run;
   * serve answers check out as in the untraced run.

The layer metrics cover the first traced kernel pass plus the traced
serve pass.
"""

from __future__ import annotations

import threading
import time

from layers import LAYERS, REQUIRED_HITS, Tracer
from workloads import (SOURCES_PER_ROUND, TRACE_QUERIES, ServePhase,
                       ServeResult, check_sample, gap_sources, make_script,
                       outputs_differ)

from repro.grb.engine import plancache

#: Counts that must repeat exactly across traced passes of one workload.
EXACT = ("grb.engine.dispatches", "grb.engine.plancache_hits",
         "grb.engine.plancache_misses", "grb.expr.recorded",
         "grb.engine.multiplan_fused", "grb.kernels.calls")

#: Serve answers checked against the direct lagraph call, per serve pass.
SERVE_CHECK_SAMPLE = 16
#: Relative tolerance between the traced wall time of a kernel pass and
#: the sum of its program layers' self times: the ``bench`` root span,
#: which takes all time no wrapper covers, may hold at most this share.
SELF_TIME_TOLERANCE = 0.02

DISPATCH = "repro.grb.engine.rules.dispatch"
RECORD = "repro.grb.expr.ExprGraph.record"


def _counts(snap: dict, pc_before, pc_after) -> dict:
    return {
        "grb.engine.dispatches": snap["hits"].get(DISPATCH, 0),
        "grb.engine.plancache_hits": pc_after.hits - pc_before.hits,
        "grb.engine.plancache_misses": pc_after.misses - pc_before.misses,
        "grb.expr.recorded": snap["hits"].get(RECORD, 0),
        "grb.engine.multiplan_fused": snap["fused"],
        "grb.kernels.calls": snap["calls"]["grb.kernels"],
    }


def _traced_kernel_pass(tracer, kp, srcs):
    pc0 = plancache.stats()
    tracer.reset()
    t0 = time.perf_counter()
    with tracer.span("bench"):
        out = kp.traced_pass(srcs)
    wall = time.perf_counter() - t0
    snap = tracer.snapshot(thread=threading.get_ident())
    return out, wall, snap, _counts(snap, pc0, plancache.stats())


def queue_wait(records, top_spans) -> float:
    """Total over queries of latency minus the lagraph call that answered
    it: the last outermost lagraph span that ran on the resolving thread
    between submit and resolution.  A query with no such span (a memo
    hit) waited its whole latency."""
    by_thread = {}
    for tid, layer, t0, t1 in top_spans:
        if layer == "lagraph":
            by_thread.setdefault(tid, []).append((t0, t1))
    total = 0.0
    for *_, t_sub, t_end, tid in records:
        if t_end is None:               # failed, see ServePhase.check
            continue
        spans = [(a, b) for a, b in by_thread.get(tid, ())
                 if a >= t_sub and b <= t_end]
        kernel = max(spans, key=lambda s: s[1]) if spans else None
        total += (t_end - t_sub) - (kernel[1] - kernel[0] if kernel else 0.0)
    return total


def traced(args, wl, st):
    kp = st.kernels
    failures = []
    srcs = gap_sources(kp.rng, kp.candidates, SOURCES_PER_ROUND)

    # serve first, so each kernel pass follows a kernel pass and the plan
    # cache is in the same state at the start of all three
    script = make_script(args.seed, TRACE_QUERIES, wl, st.serve.graphs)
    keep = check_sample(args.seed, script, SERVE_CHECK_SAMPLE)
    res_u = ServeResult(keep)
    st.serve.run(script, res_u)
    st.serve.close()
    failures += st.serve.check(res_u)
    walls = []
    for _ in range(2):
        t0 = time.perf_counter()
        out0 = kp.traced_pass(srcs)
        walls.append(time.perf_counter() - t0)
    wall_k = min(walls)

    sp = ServePhase(wl, args.seed)
    sp.warm()
    stats0 = sp.svc.stats()
    tracer = Tracer()
    tracer.install()
    try:
        out1, wall_t, s1, c1 = _traced_kernel_pass(tracer, kp, srcs)
        out2, wall_t2, s2, c2 = _traced_kernel_pass(tracer, kp, srcs)
        pc0 = plancache.stats()
        tracer.reset()
        res_t = ServeResult(keep)
        sp.run(script, res_t)
        s3 = tracer.snapshot()
        pc1 = plancache.stats()
    finally:
        tracer.uninstall()
    stats1 = sp.svc.stats()
    sp.close()
    failures += sp.check(res_t)

    for name, out in (("first", out1), ("second", out2)):
        bad = outputs_differ(out0, out)
        if bad:
            failures.append(f"{name} traced pass differs from the "
                            f"untraced pass on {bad}")
    for key in EXACT:
        if c1[key] != c2[key]:
            failures.append(f"{key} did not repeat exactly: "
                            f"{c1[key]} vs {c2[key]}")
    hits = {}
    for snap in (s1, s2, s3):
        for k, v in snap["hits"].items():
            hits[k] = hits.get(k, 0) + v
    for entry, where in REQUIRED_HITS.items():
        if ("*" in where or wl.name in where) and not hits.get(entry):
            failures.append(f"entry point {entry} was never hit")
    self_sum = sum(v for k, v in s1["self_s"].items() if k != "bench")
    if abs(self_sum - wall_t) > SELF_TIME_TOLERANCE * wall_t:
        failures.append(f"program layer self times sum to {self_sum:.4f}s, "
                        f"traced wall is {wall_t:.4f}s")

    def both(kind, layer):
        return s1[kind][layer] + s3[kind][layer]

    serve_counts = {k: getattr(stats1, k) - getattr(stats0, k) for k in (
        "submitted", "cache_hits", "batches", "kernel_calls",
        "coalesced_calls", "coalesced_sources", "retries", "shed")}
    pc_hits = c1["grb.engine.plancache_hits"] + pc1.hits - pc0.hits
    pc_miss = c1["grb.engine.plancache_misses"] + pc1.misses - pc0.misses
    values = {
        "lagraph.self_s": both("self_s", "lagraph"),
        "lagraph.calls": both("calls", "lagraph"),
        "grb.api.self_s": both("self_s", "grb.api"),
        "grb.api.calls": both("calls", "grb.api"),
        "grb.expr.self_s": both("self_s", "grb.expr"),
        "grb.expr.recorded": (s1["hits"].get(RECORD, 0)
                              + s3["hits"].get(RECORD, 0)),
        "grb.engine.self_s": both("self_s", "grb.engine"),
        "grb.engine.dispatches": (s1["hits"].get(DISPATCH, 0)
                                  + s3["hits"].get(DISPATCH, 0)),
        "grb.engine.plancache_hit_rate":
            pc_hits / (pc_hits + pc_miss) if pc_hits + pc_miss else 0.0,
        "grb.engine.plancache_hits": pc_hits,
        "grb.engine.plancache_misses": pc_miss,
        "grb.engine.multiplan_fused": s1["fused"] + s3["fused"],
        "grb.kernels.self_s": both("self_s", "grb.kernels"),
        "grb.kernels.calls": both("calls", "grb.kernels"),
        "grb.write.self_s": both("self_s", "grb.write"),
        "grb.storage.self_s": both("self_s", "grb.storage"),
        "grb.storage.conversions": both("calls", "grb.storage"),
        "obs.self_s": both("self_s", "obs"),
        "obs.calls": both("calls", "obs"),
        "serve.queue_wait_s": queue_wait(res_t.records, s3["top"]),
        "serve.memo_hit_rate": (serve_counts["cache_hits"]
                                / max(serve_counts["submitted"], 1)),
        "serve.coalescing_ratio": (serve_counts["coalesced_sources"]
                                   / max(serve_counts["coalesced_calls"], 1)),
        "serve.batches": serve_counts["batches"],
        "serve.kernel_calls": serve_counts["kernel_calls"],
        "serve.queue_depth_peak": stats1.queue_depth_peak,
        "serve.retries": serve_counts["retries"],
        "serve.shed": serve_counts["shed"],
        "trace.overhead_frac":
            (min(wall_t, wall_t2) + res_t.wall) / (wall_k + res_u.wall)
            - 1.0,
    }
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    record = {
        "exact_counts": c1,
        "self_s_kernel_pass": s1["self_s"],
        "calls_kernel_pass": s1["calls"],
        "wall_s": {"kernel_untraced": walls,
                   "kernel_traced": [wall_t, wall_t2],
                   "serve_untraced": res_u.wall, "serve_traced": res_t.wall},
        "self_time_tolerance": SELF_TIME_TOLERANCE,
        "layers": LAYERS,
    }
    attempted = 3 * len(out0) + len(res_u.records) + len(res_t.records) \
        + res_u.writes + res_t.writes
    return metrics, record, attempted, failures


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_rate", "_ratio", "_frac")):
        return "ratio"
    return "count"
