"""obs-gating bad fixture: span instant named before any guard check."""


def mark(name, _trace):
    _trace.instant("fusion:" + name)
