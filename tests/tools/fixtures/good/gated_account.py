"""obs-gating good fixture: footprint registration behind ``ENABLED``."""


def set_store(self, store, _obsmem, _metrics):
    self._store = store
    if _metrics.ENABLED:
        _obsmem.account(self)
