"""Observability overhead: the no-subscriber cost of always-on hooks.

The :mod:`repro.obs` cost contract is that with no trace sink, no
telemetry hook, and no deep profiling, the instrumentation riding in the
engine and serve hot paths costs at most a flag read per site — the
always-on metrics bumps plus one ``ContextVar`` read per span point.

The acceptance guard here measures that directly: the same workload with
the instrumentation in its default state (metrics on, nothing else
subscribed) versus with the :data:`repro.obs.metrics.ENABLED` kill switch
thrown, which turns every site into its bare guard.  The delta must stay
within 2% (plus a small absolute slack — these workloads run milliseconds
at the tiny tier, where a scheduler blip outweighs any real cost).

Both sides run in alternating ABBA rounds, so a drift in the machine's
speed state lands on both sides instead of reading as overhead; the
kill-switch legs compare best-of per side.  The road-SSSP leg isolates
the store-footprint registration (``obs.memory.account``, hit on every
loop temporary) by stubbing it to a no-op; its absolute slack is 1% of
its own time, and it compares the median ratio of back-to-back pairs.

``REPRO_SKIP_PERF`` opts out, as for every wall-clock guard.
"""

import contextlib
import gc
import os
import time

import numpy as np
import pytest

from repro import obs, serve
from repro.lagraph import algorithms as alg
from repro.obs import metrics

NSOURCES = 64

#: Relative overhead budget for the disabled path (the ISSUE acceptance
#: bar) plus an absolute slack floor for millisecond-scale runs.
OVERHEAD_REL = 0.02
OVERHEAD_ABS_S = 0.005


def _sources(g, k=NSOURCES):
    rng = np.random.default_rng(0)
    deg = np.diff(g.A.indptr)
    cand = np.flatnonzero(deg > 0)
    return rng.choice(cand, size=min(k, cand.size), replace=False)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@contextlib.contextmanager
def _metrics_killed():
    metrics.ENABLED = False
    try:
        yield
    finally:
        metrics.ENABLED = True


@contextlib.contextmanager
def _account_stubbed():
    shipped = obs.memory.account
    obs.memory.account = lambda *_: None
    try:
        yield
    finally:
        obs.memory.account = shipped


def _paired_rounds(fns, disabled, rounds):
    """``[(t_instrumented, t_disabled), ...]``, one pair per round.

    Round ``r`` times ``fns[r % len(fns)]`` on both sides back to back.
    Which side goes first alternates from round to round and, across
    passes, for each ``fn`` too (ABBA order) — the first of a pair runs
    colder, and with an even ``len(fns)`` a plain round parity would hand
    every ``fn`` the same order.  ``disabled`` is the context that strips
    the instrumentation under test.
    """
    assert metrics.ENABLED
    for fn in fns:                         # warm caches on both sides
        fn()
        with disabled():
            fn()
    pairs = []
    for r in range(rounds):
        visit, i = divmod(r, len(fns))
        fn = fns[i]
        t = {}
        first_on = (visit + i) % 2 == 0
        for on in (first_on, not first_on):
            if on:
                t[on] = _timed(fn)
            else:
                with disabled():
                    t[on] = _timed(fn)
        pairs.append((t[True], t[False]))
    return pairs


def _overhead(fn, disabled=_metrics_killed, rounds=6):
    """(t_instrumented, t_disabled) best-of times for ``fn``."""
    pairs = _paired_rounds([fn], disabled, rounds)
    return min(p[0] for p in pairs), min(p[1] for p in pairs)


def _assert_within_budget(t_on, t_off, label, abs_s=OVERHEAD_ABS_S):
    budget = t_off * (1.0 + OVERHEAD_REL) + abs_s
    assert t_on <= budget, (
        f"{label}: instrumented {t_on:.4f}s vs disabled {t_off:.4f}s "
        f"(> {OVERHEAD_REL:.0%} + {abs_s * 1e3:.2f}ms budget)")


@pytest.mark.skipif("REPRO_SKIP_PERF" in os.environ,
                    reason="perf assertion disabled (noisy shared runner)")
def test_obs_disabled_overhead_tc(suite, capsys):
    """Kron triangle count: engine dispatch/plan-cache/kernel hooks."""
    g = suite["kron"]
    t_on, t_off = _overhead(lambda: alg.triangle_count(g, presort=None))
    with capsys.disabled():
        print(f"\n[obs-overhead] kron TC: on={t_on:.4f}s off={t_off:.4f}s "
              f"delta={(t_on / t_off - 1) if t_off else 0:+.2%}")
    _assert_within_budget(t_on, t_off, "kron TC")


@pytest.mark.skipif("REPRO_SKIP_PERF" in os.environ,
                    reason="perf assertion disabled (noisy shared runner)")
def test_obs_disabled_overhead_serve_msbfs(suite, capsys):
    """Serve burst (memo off): queue/coalesce/latency instrumentation."""
    g = suite["kron"]
    srcs = [int(s) for s in _sources(g)]
    svc = serve.GraphService(max_workers=2, cache_capacity=0)
    svc.register("kron", g)
    try:
        t_on, t_off = _overhead(lambda: svc.query_many(
            "kron", [serve.BFSLevels(s) for s in srcs]))
    finally:
        svc.shutdown()
    with capsys.disabled():
        print(f"\n[obs-overhead] serve msbfs: on={t_on:.4f}s "
              f"off={t_off:.4f}s "
              f"delta={(t_on / t_off - 1) if t_off else 0:+.2%}")
    _assert_within_budget(t_on, t_off, "serve msbfs")


@pytest.mark.skipif("REPRO_SKIP_PERF" in os.environ,
                    reason="perf assertion disabled (noisy shared runner)")
def test_obs_disabled_overhead_store_churn(suite, capsys):
    """Store-footprint accounting: the gauges ride every mutation
    boundary (``_set_from_keys`` / ``set_format`` / ``dup``), so the
    budget is checked on a build-heavy workload rather than the
    kernel-heavy ones above — pattern extraction, dup, and a format
    round-trip per repetition, each of which re-accounts its store."""
    from repro import grb

    g = suite["kron"]
    a = g.A

    def churn():
        for _ in range(8):
            p = a.pattern(grb.FP64)
            d = p.dup()
            d.set_format("bitmap")
            d.set_format("csr")

    t_on, t_off = _overhead(churn)
    with capsys.disabled():
        print(f"\n[obs-overhead] store churn: on={t_on:.4f}s "
              f"off={t_off:.4f}s "
              f"delta={(t_on / t_off - 1) if t_off else 0:+.2%}")
    _assert_within_budget(t_on, t_off, "store churn")


def _road_sssp_runs(suite_weighted):
    """One zero-argument SSSP run per source (8 sources, road graph)."""
    g = suite_weighted["road"]
    delta = max(float(g.A.values.mean()), 1e-12)
    return [lambda s=int(s): alg.sssp_delta_stepping(g, s, delta)
            for s in _sources(g, k=8)]


@pytest.mark.skipif("REPRO_SKIP_PERF" in os.environ,
                    reason="perf assertion disabled (noisy shared runner)")
def test_footprint_registration_overhead_road_sssp(suite_weighted, capsys):
    """Road SSSP: hundreds of near-empty bucket iterations, each minting
    loop temporaries that register with the footprint gauges — the
    call-bound worst case for ``obs.memory.account``.

    The guard's slack is 1% of the leg's own time, so best-of per side
    would read the machine's speed windows (±10% between the two sides'
    best runs) as overhead.  Each round instead pairs the two sides on
    one source back to back, and the median paired ratio is compared.
    """
    runs = _road_sssp_runs(suite_weighted)
    passes = 16
    pairs = _paired_rounds(runs, _account_stubbed, rounds=passes * len(runs))
    ratio = float(np.median([on / off for on, off in pairs]))
    t_off = sum(off for _, off in pairs) / passes   # one pass, 8 sources
    t_on = ratio * t_off
    with capsys.disabled():
        print(f"\n[obs-overhead] road SSSP account: on={t_on:.4f}s "
              f"stub={t_off:.4f}s delta={ratio - 1:+.2%}")
    _assert_within_budget(t_on, t_off, "road SSSP account",
                          abs_s=0.01 * t_off)


def test_footprint_tracks_sssp_temporaries(suite_weighted):
    """Sanity leg runnable on any runner: the road-SSSP result vectors
    show in the footprint totals while alive, and the totals return to
    their baseline once they (and the loop temporaries) are collected."""
    runs = _road_sssp_runs(suite_weighted)
    for run in runs:                       # warm the plan cache
        run()
    gc.collect()
    before = obs.memory.live_count()
    before_bytes = sum(v["bytes"] for v in obs.memory.snapshot().values())
    keep = [run() for run in runs]
    assert obs.memory.live_count() >= before + len(keep)
    total = sum(v["bytes"] for v in obs.memory.snapshot().values())
    assert total >= before_bytes + sum(k._st.nbytes() for k in keep)
    del keep
    gc.collect()
    assert obs.memory.live_count() == before
    assert sum(v["bytes"] for v in obs.memory.snapshot().values()) == \
        before_bytes


def test_footprint_accounting_follows_churn(suite):
    """Sanity leg runnable on any runner: the churn workload's stores
    appear in the footprint gauges while alive and vanish when dropped
    (tracemalloc stays disarmed — the deep tier is opt-in)."""
    import tracemalloc

    from repro import grb, obs

    g = suite["kron"]
    before = obs.memory.live_count()
    keep = [g.A.pattern(grb.FP64).dup() for _ in range(4)]
    assert obs.memory.live_count() >= before + 4
    total = sum(v["bytes"] for v in obs.memory.snapshot().values())
    assert total >= sum(k._store.nbytes() for k in keep)
    assert not tracemalloc.is_tracing()
    del keep
    import gc
    gc.collect()
    assert obs.memory.live_count() <= before + 1


def test_tracing_records_without_changing_results(suite):
    """Sanity leg runnable on any runner: a traced TC returns the same
    count and actually produces the engine spans (the expensive side is
    opt-in, so this is cost-free to assert)."""
    from repro import obs

    g = suite["kron"]
    base = alg.triangle_count(g, presort=None)
    with obs.tracing() as tr:
        traced = alg.triangle_count(g, presort=None)
    assert traced == base
    assert tr.find("plan:") and tr.find("kernel:")
