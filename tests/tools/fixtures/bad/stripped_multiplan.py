"""obs-gating bad fixture: MultiPlan's fused-group bookkeeping, copied
from ``grb/engine/multiplan.py`` with its ``_metrics.ENABLED`` guard
stripped — the rule must see the shipped call-site idiom, not only
synthetic snippets."""


def note_fused(nodes, i, name, consumed, _trace, telemetry):
    if _trace.active():
        _trace.instant("fusion:" + name, cat="kernel", consumed=consumed)
    if _unguarded:
        _FUSED.labels(name).inc()
    if telemetry.active():
        telemetry.record({
            "op": "multiplan", "rule": name,
            "fused_ops": tuple(n.plan.op for n in nodes[i:i + consumed]),
        })
