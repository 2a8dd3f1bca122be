"""obs-gating good fixture: a metric bump behind the ``ENABLED`` flag."""


def count_dispatch(op, rule, _metrics):
    if _metrics.ENABLED:
        _DISPATCHES.labels(op, rule).inc()
