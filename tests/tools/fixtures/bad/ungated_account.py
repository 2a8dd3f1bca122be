"""obs-gating bad fixture: footprint registration outside the guard."""


def set_store(self, store, _obsmem):
    self._store = store
    _obsmem.account(self)
