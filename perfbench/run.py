"""The repository benchmark: GAP kernels, a serve loop, and a layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gap-road --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload gap-road --seed 1 --seconds 10 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
the result object; the line before it is the run record (seed, source
revision, machine facts, graph sizes, sample counts and tail
percentiles).  The exit code is 0 only when every output checked out.
See ``perfbench/NOTES.md`` for the workloads, metrics and layer table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Serve answers checked against the direct lagraph call, per run.
SERVE_CHECK_SAMPLE = 32
#: Set-up measurements per run: this process plus this many probes.
SETUP_PROBES = 2
#: Kernel and serve phases alternate in this many chunks per run.
CHUNKS = 6
#: Median seconds of ``speed.python_probe()`` at the reference speed
#: (the 2-core machine the bounds were set on, when it was not contended).
PROBE_REF_S = 1.1e-3
#: Kernel, serve and set-up timings are divided by their speed index to
#: this fixed power, because they mix interpreter-bound and numpy-bound
#: work (NOTES.md, "Stability").
SPEED_EXP = 0.5
#: Probe calls before and after each serve chunk, for its speed index.
SERVE_PROBE_CALLS = 5
#: Probe calls right after each set-up, for its speed index.
SETUP_PROBE_CALLS = 25


def since_process_start() -> float:
    """Seconds since this process started (``/proc`` start time)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def git_sha() -> str:
    """The checked-out revision, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Setup:
    """Everything before the first timed call: graphs, cached properties,
    service registration, and one untimed pass of every kernel and query
    kind."""

    def __init__(self, wl, seed: int):
        import numpy as np
        from workloads import (KernelPhase, ServePhase, gap_sources,
                               make_graph, warm_kernels)
        gen, kw = wl.kernel_graph
        self.g = make_graph(gen, kw, False, seed)
        self.gw = make_graph(gen, kw, True, seed)
        for g in (self.g, self.gw):
            g.cache_at()
            g.cache_row_degree()
        self.kernels = KernelPhase(self.g, self.gw, seed)
        self.serve = ServePhase(wl, seed)
        self.sizes = {"kernel": [self.g.n, self.g.nvals],
                      **{name: [g.n, g.nvals]
                         for name, g in self.serve.graphs.items()}}
        self.warm_src = gap_sources(np.random.default_rng([seed, 0]),
                                    self.kernels.candidates, 4)
        warm_kernels(self.g, self.gw, self.warm_src)
        self.serve.warm()

    def warm_baselines(self) -> None:
        """The baselines' untimed pass, outside the set-up time."""
        from workloads import warm_baselines
        warm_baselines(self.g, self.gw, self.warm_src)


def probe_setup(args) -> dict:
    """Set-up time and probe time of a fresh process on this workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=150, cwd=str(ROOT))
    return json.loads(out.stdout.strip().splitlines()[-1])


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def metric(value, unit):
    return {"value": value, "unit": unit}


def factor(probe_s: float) -> float:
    """How much slower than the reference speed a timing taken beside a
    probe of ``probe_s`` seconds is taken to run."""
    return (probe_s / PROBE_REF_S) ** SPEED_EXP


def kernel_times(kp) -> Tuple[dict, dict]:
    """The kernel phase's raw medians and its medians at the reference
    speed (ms): a shared machine swings between speed states within a
    run, so each trial is scaled by the probe taken just before it (see
    NOTES.md, "Stability")."""
    from workloads import KERNELS
    raw, ref = {}, {}
    for k in KERNELS:
        times = kp.samples[k]["lagraph"]
        raw[f"{k}_ms"] = statistics.median(times) * 1e3
        ref[f"{k}_ms"] = statistics.median(
            t / factor(p) for t, p in zip(times, kp.trial_probe[k])) * 1e3
    return raw, ref


def serve_times(res, chunks) -> Tuple[dict, dict]:
    """Raw serve throughput and latencies, and the same at the reference
    speed; ``chunks`` holds (first record, end record, wall seconds, probe
    seconds) per serve chunk."""
    from workloads import percentile
    lat, ref_lat, ref_wall = [], [], 0.0
    for a, b, wall, probe in chunks:
        f = factor(probe)
        xs = [t1 - t0 for *_, t0, t1, _tid in res.records[a:b]
              if t1 is not None]
        lat += xs
        ref_lat += [x / f for x in xs]
        ref_wall += wall / f
    out = []
    for xs, wall in ((lat, res.wall), (ref_lat, ref_wall)):
        out.append({"serve_qps": len(xs) / wall,
                    "serve_p50_ms": percentile(xs, 50) * 1e3,
                    "serve_p99_ms": percentile(xs, 99) * 1e3})
    return out[0], out[1]


def untraced(args, wl, st: Setup, setup_main: dict, speed_probe):
    from workloads import (KERNELS, ServeResult, check_sample, make_script,
                           summary)
    setups = [setup_main] + [probe_setup(args) for _ in range(SETUP_PROBES)]

    kp = st.kernels
    kp.speed = speed_probe
    n_queries = round(args.seconds * (1 - wl.kernel_share) * wl.script_rate)
    script = make_script(args.seed, n_queries, wl, st.serve.graphs)
    res = ServeResult(check_sample(args.seed, script, SERVE_CHECK_SAMPLE))
    # the phases alternate in chunks, so both sample the whole run
    chunks = []
    for c in range(CHUNKS):
        kp.run_for(args.seconds * wl.kernel_share / CHUNKS)
        before = speed_probe.sample(SERVE_PROBE_CALLS)
        first, wall = len(res.records), res.wall
        kp.rss.reset()
        st.serve.run(script[c * len(script) // CHUNKS:
                            (c + 1) * len(script) // CHUNKS], res)
        kp.rss.read()
        after = speed_probe.sample(SERVE_PROBE_CALLS)
        chunks.append((first, len(res.records), res.wall - wall,
                       (before + after) / 2))
    stats = st.serve.svc.stats()
    st.serve.close()
    failures = kp.failures + st.serve.check(res)

    raw, ref = kernel_times(kp)
    serve_raw, serve_ref = serve_times(res, chunks)
    raw.update(serve_raw)
    ref.update(serve_ref)
    metrics = {k: metric(v, "1/s" if k == "serve_qps" else "ms")
               for k, v in ref.items()}
    lat = res.latencies
    metrics["lagraph_over_baseline"] = metric(geomean(
        [statistics.median(kp.samples[k]["lagraph"])
         / statistics.median(kp.samples[k]["baseline"]) for k in KERNELS]),
        "ratio")
    metrics["peak_rss_mb"] = metric(kp.rss.peak_mb, "MB")
    metrics["setup_s"] = metric(statistics.median(
        x["setup_s"] / factor(x["probe_s"]) for x in setups), "s")

    record = {
        "speed_index": statistics.median(
            p for k in KERNELS for p in kp.trial_probe[k]) / PROBE_REF_S,
        "raw": raw,
        "rss_source": kp.rss.source,
        "rounds": kp.rounds,
        "setup_s": setups,
        "kernels": {k: {side: summary(v, 1e3)
                        for side, v in kp.samples[k].items()}
                    for k in KERNELS},
        "serve": {"latency_ms": summary(lat, 1e3), "queries": len(lat),
                  "writes": res.writes, "wall_s": res.wall,
                  "stats": _serve_stats(stats)},
    }
    attempted = kp.attempted + len(lat) + res.writes
    return metrics, record, attempted, failures


def _serve_stats(stats) -> dict:
    return {k: v for k, v in stats.to_dict().items()
            if k not in ("batch_size_hist", "breaker_states")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the set-up time and exit")
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    from speed import SpeedProbe
    st = Setup(wl, args.seed)
    setup_s = since_process_start()
    with SpeedProbe() as speed_probe:
        setup_main = {"setup_s": setup_s,
                      "probe_s": speed_probe.sample(SETUP_PROBE_CALLS)}
        if args.setup_probe:
            st.serve.close()
            print(json.dumps(setup_main))
            return 0
        st.warm_baselines()
        if args.trace:
            from traced import traced
            metrics, record, attempted, failures = traced(args, wl, st)
        else:
            metrics, record, attempted, failures = untraced(
                args, wl, st, setup_main, speed_probe)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "graphs": st.sizes,
        "failures": failures[:20],
        **record,
    }
    print(json.dumps({"record": record}, default=float))
    failed = len(failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
