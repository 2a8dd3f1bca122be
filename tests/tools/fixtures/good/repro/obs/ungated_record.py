"""obs-gating good fixture: the ``repro/obs/`` package implements the
guards, so the ungated call its bad twin is flagged for passes here."""


def record_dispatch(plan, telemetry):
    telemetry.record({"op": plan.op, "rule": plan.rule})
