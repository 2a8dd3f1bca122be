"""obs-gating good fixture: the guard is one clause of a compound test."""


def record_event(x, _telemetry):
    if x is not None and _telemetry.active():
        _telemetry.record(x)
