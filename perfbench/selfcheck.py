"""Bound self-check: a slower engine layer must show where, and only where,
the layer table predicts.

Adds a fixed busy-wait to every ``repro.grb.engine`` dispatch through a
single wrapper (:class:`layers.Tracer` restricted to one entry point).
Kernel-phase trials with and without it alternate, and each trial's
metric goes through the same speed scaling as in ``run.py``
(:func:`run.kernel_times`), so the reported metric is
the one shown to move:

* ``sssp_ms`` on gap-road (hundreds of dispatches per source) must worsen
  by more than its bound in ``BENCHMARK.json``, so the bound can fail;
* ``tc_ms`` on gap-kron (a handful of dispatches around heavy kernels)
  must stay within its bound, so the layer -> end-to-end map holds.

Run from the root of a checkout; exits non-zero when either check fails::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import Tracer  # noqa: E402
from run import Setup, kernel_times  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DISPATCH = "repro.grb.engine.rules.dispatch"
#: Busy-wait added to each engine dispatch.
DELAY_S = 100e-6
#: Kernel-phase rounds per side; each trial is one round of all six
#: kernels and their baselines.
TRIALS = 7
SEED = 1


def _trial(kp, name: str, delay: bool) -> float:
    """``name`` as run.py reports it, over one kernel-phase round."""
    kp.clear_samples()
    tracer = Tracer(delay={"grb.engine": DELAY_S}) if delay else None
    if tracer:
        tracer.install(only={DISPATCH})
    try:
        kp.run_for(0)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer and not tracer.snapshot()["hits"].get(DISPATCH):
        raise RuntimeError(f"{DISPATCH} was never hit")
    if kp.failures:
        raise RuntimeError(f"kernel checks failed: {kp.failures[:3]}")
    return kernel_times(kp)[1][name]


def compare(workload: str, name: str) -> float:
    """Median over adjacent trial pairs of the relative change of ``name``
    with the delay on (pairs cancel the machine's slower swings)."""
    st = Setup(WORKLOADS[workload], SEED)
    st.serve.close()
    st.warm_baselines()
    ratios = []
    with SpeedProbe() as probe:
        st.kernels.speed = probe
        for _ in range(TRIALS):
            base = _trial(st.kernels, name, delay=False)
            ratios.append(_trial(st.kernels, name, delay=True) / base)
    return statistics.median(ratios) - 1.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    road = compare("gap-road", "sssp_ms")
    kron = compare("gap-kron", "tc_ms")
    ok_road = road > bound["sssp_ms"]
    ok_kron = abs(kron) < bound["tc_ms"]
    print(f"delay {DELAY_S * 1e6:.0f} us per engine dispatch")
    print(f"gap-road sssp_ms {road:+.1%} (bound {bound['sssp_ms']:.0%}, "
          f"must leave it): {'ok' if ok_road else 'FAIL'}")
    print(f"gap-kron tc_ms   {kron:+.1%} (bound {bound['tc_ms']:.0%}, "
          f"must stay within): {'ok' if ok_kron else 'FAIL'}")
    return 0 if ok_road and ok_kron else 1


if __name__ == "__main__":
    sys.exit(main())
