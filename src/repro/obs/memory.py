"""Store-footprint accounting: always-on byte gauges per storage format.

Every :class:`~repro.grb.matrix.Matrix` / :class:`~repro.grb.vector.Vector`
registers itself here at the same mutation boundaries the auto-format
policy hooks (``_set_from_keys`` / ``_set_sparse`` / ``set_format`` /
``clear`` / ``dup`` and the CSR array setters).  Registration only adds
the owner to a weak set; the footprint is aggregated at read time by
walking the live owners and reading each raw store's authoritative
``nbytes()``.  Two labelled gauges publish it:

* ``grb_store_bytes{format}`` — authoritative bytes of live stores, and
* ``grb_store_count{format}`` — number of live stores,

written by :func:`_refresh` just before the exporters
(:mod:`repro.obs.export`, :mod:`repro.obs.report`) read the registry.
The gauges therefore cannot drift: a dead owner drops out of the set, a
format flip is seen at the next read, and ``metrics.reset()`` is undone
by the next export.

Cost model: one weakref and one set insert per mutation boundary; the
walk is paid by readers only.  Call sites gate on ``metrics.ENABLED``
like every other always-on bump, so an owner created while the kill
switch is off stays uncounted until its next mutation boundary with the
switch on.  Nothing of this module runs in garbage collection: a dead
owner's weakref callback is the set's own ``discard``.

The opt-in deep tier lives in :mod:`repro.obs.profile`
(``profiling(memory=True)`` arms ``tracemalloc``); this module also feeds
the ``obs.report()`` memory section via :func:`top_stores` (per-object
byte attribution, graph labels from :mod:`repro.obs.identity`) and
:func:`format_audit` (estimated footprint of every candidate format — the
first audit the auto-format policy has ever had).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

import numpy as np

from . import identity as _identity
from . import metrics as _metrics

__all__ = ["account", "snapshot", "top_stores", "format_audit",
           "live_count", "STORE_BYTES", "STORE_COUNT"]

STORE_BYTES = _metrics.gauge(
    "grb_store_bytes",
    "Authoritative bytes held by live Matrix/Vector stores",
    labels=("format",))
STORE_COUNT = _metrics.gauge(
    "grb_store_count",
    "Number of live Matrix/Vector stores",
    labels=("format",))

#: Weak set of the live owners registered by :func:`account`: one weakref
#: per owner (refs to one live object compare equal, so re-registering
#: is a no-op), whose callback is the set's own C-level ``discard`` — a
#: dead owner leaves without running any Python code during garbage
#: collection.  ``add``, ``discard`` and ``copy`` are each one C call
#: under the GIL, so neither side takes a lock; readers walk a copy,
#: never the live set, which concurrent adds would resize mid-iteration.
_owners: set = set()
_drop = _owners.discard


def account(owner) -> None:
    """Register ``owner`` so reads include its store's footprint.

    Called by Matrix/Vector at every mutation boundary; the call site
    guards on ``metrics.ENABLED``.
    """
    _owners.add(weakref.ref(owner, _drop))


def _live_stores() -> list:
    """``[(owner, raw_store), ...]`` for every live registered owner."""
    out = []
    for ref in _owners.copy():
        owner = ref()
        st = None if owner is None else _raw_store(owner)
        if st is not None:
            out.append((owner, st))
    return out


def live_count() -> int:
    """Number of live registered owners (test/report hook)."""
    return len(_owners)


def snapshot() -> Dict[str, dict]:
    """``{format: {"bytes": int, "count": int}}`` over the live stores."""
    out: Dict[str, dict] = {}
    for _, st in _live_stores():
        tally = out.setdefault(st.fmt, {"bytes": 0, "count": 0})
        tally["bytes"] += int(st.nbytes())
        tally["count"] += 1
    return out


def _refresh() -> None:
    """Write :func:`snapshot` into the gauges, zeroing vacated formats.

    Writes the children directly: the gauges report a fact about the
    heap, so the kill switch does not freeze them at a stale value.
    """
    snap = snapshot()
    for metric, key in ((STORE_BYTES, "bytes"), (STORE_COUNT, "count")):
        fmts = {lv[0] for lv, _ in metric.samples()} | set(snap)
        for fmt in fmts:
            child = metric.labels(fmt)
            with child._lock:
                child.value = snap.get(fmt, {key: 0})[key]


# ---------------------------------------------------------------------------
# report tier: per-object attribution and the format-policy footprint audit
# ---------------------------------------------------------------------------

def _raw_store(owner):
    """The owner's raw store, never forcing lazy state.

    Vector keeps its store in the ``_st`` slot (its ``_store`` *property*
    forces pending lazy producers — off limits here); Matrix's ``_store``
    is a plain slot.
    """
    st = getattr(owner, "_st", None)
    if st is None:
        st = getattr(owner, "_store", None)
    return st


def _label_of(owner) -> Optional[str]:
    lin = getattr(owner, "_lineage", None)
    if lin is not None:
        hit = _identity.find(lin[1])
        if hit is not None:
            return hit
    kind = "M" if hasattr(owner, "ncols") else "V"
    return _identity.find((kind, owner._uid))


def _value_itemsize(st) -> int:
    for attr in ("values", "cvalues", "dense", "vals"):
        a = getattr(st, attr, None)
        if a is not None:
            return int(a.dtype.itemsize)
    return 8


def top_stores(n: int = 10) -> List[dict]:
    """The ``n`` largest live stores by authoritative bytes.

    Reads the raw stores (lazy state never forced) and
    labels each owner with its registered graph where
    :mod:`repro.obs.identity` knows one.
    """
    rows = []
    for owner, st in _live_stores():
        is_matrix = hasattr(owner, "ncols")
        rows.append({
            "kind": "Matrix" if is_matrix else "Vector",
            "shape": ((owner.nrows, owner.ncols) if is_matrix
                      else (owner.size,)),
            "format": st.fmt,
            "nvals": int(st.nvals),
            "nbytes": int(st.nbytes()),
            "cache_nbytes": int(st.cache_nbytes()),
            "graph": _label_of(owner),
        })
    rows.sort(key=lambda r: r["nbytes"], reverse=True)
    return rows[:n]


def _live_rows_of(st) -> int:
    """Live-row count without materialising a canonical CSR cache."""
    if st.fmt == "bitmap":
        if st.ncols == 0 or st.nrows == 0:
            return 0
        grid = st.present.reshape(st.nrows, st.ncols)
        return int(grid.any(axis=1).sum())
    if st.fmt == "csc":
        return int(np.unique(st.rindices).size)
    return int(st.live_row_count())   # O(live) for csr/hypersparse


def _matrix_estimates(st) -> Dict[str, int]:
    itemsize = _value_itemsize(st)
    nvals = int(st.nvals)
    live = _live_rows_of(st)
    return {
        "csr": (st.nrows + 1) * 8 + nvals * (8 + itemsize),
        "csc": (st.ncols + 1) * 8 + nvals * (8 + itemsize),
        "bitmap": st.nrows * st.ncols * (1 + itemsize),
        "hypersparse": live * 8 + (live + 1) * 8 + nvals * (8 + itemsize),
    }


def _vector_estimates(st) -> Dict[str, int]:
    itemsize = _value_itemsize(st)
    nvals = int(st.nvals)
    return {
        "sparse": nvals * (8 + itemsize),
        "bitmap": st.size * (1 + itemsize),
    }


def format_audit() -> List[dict]:
    """Estimated footprint of every candidate format, per live store.

    ``best`` names the smallest estimate; ``savings_bytes`` is what
    switching would reclaim (0 when the policy's choice is already the
    smallest).  Estimates use the array-shape arithmetic of each format,
    not materialised conversions, so the audit is read-only and cheap.
    """
    rows = []
    for owner, st in _live_stores():
        is_matrix = hasattr(owner, "ncols")
        est = _matrix_estimates(st) if is_matrix else _vector_estimates(st)
        best = min(est, key=est.get)
        actual = int(st.nbytes())
        rows.append({
            "kind": "Matrix" if is_matrix else "Vector",
            "shape": ((owner.nrows, owner.ncols) if is_matrix
                      else (owner.size,)),
            "format": st.fmt,
            "actual_bytes": actual,
            "estimates": est,
            "best": best,
            "savings_bytes": max(0, actual - est[best]),
            "graph": _label_of(owner),
        })
    rows.sort(key=lambda r: r["savings_bytes"], reverse=True)
    return rows
