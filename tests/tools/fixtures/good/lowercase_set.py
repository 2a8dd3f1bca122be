"""obs-gating good fixture: ``.set`` on a lowercase name is no metric."""


def report(msg, e):
    msg.set(str(e))
