"""Zero-copy graph placement: store buffers in named shared-memory segments.

One placement = one segment.  The parent exports a store's authoritative
arrays (:meth:`export_buffers`), packs them into a single named segment
with a 64-byte-aligned offset table, and ships workers a tiny picklable
:class:`Placement` descriptor.  A worker maps the segment once and
rebuilds the store as numpy views over the mapping
(:func:`repro.grb.storage.attach_store`) — the graph's arrays cross the
process boundary exactly once, at placement time, never per task.

Lifecycle is owned parent-side by :class:`ShmArena`:

* placements are keyed (typically ``(uid, version, view)``) so repeated
  dispatches against an unchanged operand reuse the segment;
* each placement holds a weak finalizer on its owning object — when the
  owner is collected the key lands on a lock-free dead-list that the
  next arena touchpoint drains, closing and unlinking the segment (the
  finalizer runs mid-GC on any thread, so it must not take a lock);
* ``grb_shm_bytes`` / ``grb_shm_segments`` gauges account live placements
  with delta accounting: additions are recorded only while metrics are
  enabled, and every removal subtracts exactly what its addition added,
  so flipping the kill switch mid-run can never strand phantom bytes.

Attach side: :func:`attach_placement` opens untracked (``track=False``,
Python 3.13+) so an attaching process never claims cleanup ownership of a
segment it does not own (bpo-39959).  On older Pythons the duplicate
registration is benign — spawn children share the parent's resource
tracker, where registration is set-shaped.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from ...obs import metrics as _metrics

__all__ = ["Placement", "ShmArena", "attach_placement"]

SHM_BYTES = _metrics.gauge(
    "grb_shm_bytes", "Bytes held in live shared-memory placements")
SHM_SEGMENTS = _metrics.gauge(
    "grb_shm_segments", "Live shared-memory segments owned by the arena")

_ALIGN = 64


def _bump(metric, amount) -> None:
    # Deliberately bypasses metrics.ENABLED (obs: gated-by-caller): each
    # placement records how much it added, and its removal must subtract
    # exactly that even if the kill switch flipped in between — otherwise
    # the gauges drift away from the true segment census.
    child = metric.labels()
    with child._lock:
        child.value += amount


class Placement:
    """Picklable descriptor of one store placed in a shared segment.

    ``layout`` maps the store's ``export_buffers()`` components onto the
    segment: ``(name, dtype_str, shape, offset)`` per array.
    """

    __slots__ = ("key", "segment", "meta", "layout", "nbytes")

    def __init__(self, key, segment: str, meta: dict, layout: tuple,
                 nbytes: int):
        self.key = key
        self.segment = segment
        self.meta = meta
        self.layout = layout
        self.nbytes = nbytes

    def __getstate__(self):
        return (self.key, self.segment, self.meta, self.layout, self.nbytes)

    def __setstate__(self, state):
        self.key, self.segment, self.meta, self.layout, self.nbytes = state

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"Placement({self.key!r}, segment={self.segment!r}, "
                f"nbytes={self.nbytes})")


class _Seg:
    __slots__ = ("shm", "placement", "accounted", "finalizer")

    def __init__(self, shm, placement, accounted, finalizer):
        self.shm = shm
        self.placement = placement
        self.accounted = accounted
        self.finalizer = finalizer


class ShmArena:
    """Parent-side owner of every placement segment this process created."""

    def __init__(self):
        self._lock = threading.Lock()
        self._segs = {}            # key -> _Seg
        self._dead: deque = deque()  # keys whose owner was collected

    # -- internal ----------------------------------------------------------

    def _on_owner_dead(self, key) -> None:
        # may run on any thread, mid-GC: just enqueue (lock-free)
        self._dead.append(key)

    def _drop_locked(self, key) -> None:
        seg = self._segs.pop(key, None)
        if seg is None:
            return
        if seg.finalizer is not None:
            seg.finalizer.detach()
        try:
            seg.shm.close()
            seg.shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - racy unlink
            pass
        if seg.accounted:
            # obs: gated-by-caller (subtracts exactly what place() added,
            # even if metrics.ENABLED flipped since — gauges must net to 0)
            _bump(SHM_BYTES, -seg.accounted)
        _bump(SHM_SEGMENTS, -1)  # obs: gated-by-caller (exact segment census)

    def _flush_dead_locked(self) -> None:
        while True:
            try:
                key = self._dead.popleft()
            except IndexError:
                return
            self._drop_locked(key)

    # -- API ---------------------------------------------------------------

    def place(self, key, store, owner=None) -> Placement:
        """Publish ``store`` under ``key`` (reuses an existing placement)."""
        with self._lock:
            self._flush_dead_locked()
            seg = self._segs.get(key)
            if seg is not None:
                return seg.placement
            meta, comps = store.export_buffers()
            layout, arrays, off = [], [], 0
            for name, arr in comps.items():
                arr = np.ascontiguousarray(arr)
                off = (off + _ALIGN - 1) & ~(_ALIGN - 1)
                layout.append((name, arr.dtype.str, arr.shape, off))
                arrays.append(arr)
                off += arr.nbytes
            shm = shared_memory.SharedMemory(create=True, size=max(off, 1))
            for (name, dstr, shape, o), arr in zip(layout, arrays):
                dst = np.ndarray(shape, dtype=np.dtype(dstr),
                                 buffer=shm.buf, offset=o)
                dst[...] = arr
            placement = Placement(key, shm.name, dict(meta), tuple(layout),
                                  max(off, 1))
            accounted = placement.nbytes if _metrics.ENABLED else 0
            if accounted:
                # obs: gated-by-caller (``accounted`` is the ENABLED gate;
                # kept outside the bump so _drop_locked mirrors it exactly)
                _bump(SHM_BYTES, accounted)
            _bump(SHM_SEGMENTS, 1)  # obs: gated-by-caller (exact census)
            finalizer = None
            if owner is not None:
                finalizer = weakref.finalize(owner, self._on_owner_dead, key)
                finalizer.atexit = False
            self._segs[key] = _Seg(shm, placement, accounted, finalizer)
            return placement

    def get(self, key) -> Optional[Placement]:
        with self._lock:
            seg = self._segs.get(key)
            return None if seg is None else seg.placement

    def drop(self, key) -> None:
        with self._lock:
            self._drop_locked(key)

    def drop_stale(self, uid, view, keep_version) -> None:
        """Unlink placements of older versions of one operand view."""
        with self._lock:
            stale = [k for k in self._segs
                     if isinstance(k, tuple) and len(k) == 3
                     and k[0] == uid and k[2] == view
                     and k[1] != keep_version]
            for k in stale:
                self._drop_locked(k)

    def segment_count(self) -> int:
        with self._lock:
            self._flush_dead_locked()
            return len(self._segs)

    def total_bytes(self) -> int:
        with self._lock:
            self._flush_dead_locked()
            return sum(seg.placement.nbytes for seg in self._segs.values())

    def close(self) -> None:
        with self._lock:
            for key in list(self._segs):
                self._drop_locked(key)
            self._dead.clear()


def attach_placement(placement: Placement):
    """Map a placement and rebuild its store over the mapping (worker side).

    Returns ``(store, shm)`` — the caller must keep ``shm`` alive for as
    long as the store's arrays are in use, and ``close()`` it (never
    ``unlink()``, the parent owns the segment) when done.
    """
    try:
        shm = shared_memory.SharedMemory(name=placement.segment, track=False)
    except TypeError:
        # Python < 3.13 has no track=False (bpo-39959): the attach also
        # registers the name with the resource tracker.  Pool workers are
        # spawn children sharing the *parent's* tracker process, where
        # registrations are a set — the duplicate is a no-op and the
        # parent's unlink-time unregister still removes the single entry,
        # so no compensating unregister is needed (issuing one here would
        # make the parent's later unregister a tracker KeyError).
        shm = shared_memory.SharedMemory(name=placement.segment)
    comps = {name: np.ndarray(shape, dtype=np.dtype(dstr),
                              buffer=shm.buf, offset=off)
             for name, dstr, shape, off in placement.layout}
    from ..storage import attach_store
    return attach_store(placement.meta, comps), shm
