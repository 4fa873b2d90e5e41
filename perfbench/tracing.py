"""Launcher-side instrumentation for the program's process.

Nothing here edits the program: the hooks wrap its functions and
methods from outside (or on an instance) and read what the program
already reports.  ``runner.py`` and ``launch.py`` install them in
traced runs only.
"""

from __future__ import annotations

import functools
import gc
import threading
import time


class GCWatch:
    """Pause times of the cyclic garbage collector via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pauses_ms: list[float] = []
        self.full_collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pauses_ms.append((time.perf_counter() - self._started) * 1e3)
        if info.get("generation") == 2:
            self.full_collections += 1

    def install(self) -> None:
        gc.callbacks.append(self._callback)

    def report(self) -> dict:
        return {"gc.pause_ms": sum(self.pauses_ms),
                "gc.max_pause_ms": max(self.pauses_ms, default=0.0),
                "gc.full_collections": self.full_collections}


class Timer:
    """Durations of the outermost calls of a wrapped callable.

    Nested calls on the same thread (a loader calling another loader)
    count once, through the outermost call.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []
        self._local = threading.local()

    def wrap(self, function):
        local = self._local
        durations = self.durations

        @functools.wraps(function)
        def timed(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                local.depth = depth
                if depth == 0:
                    durations.append(time.perf_counter() - started)
        return timed

    @property
    def total_ms(self) -> float:
        return sum(self.durations) * 1e3

    @property
    def calls(self) -> int:
        return len(self.durations)


#: the store's loader entry points (``StoreBackend``)
LOADERS = ("load_so", "load_os", "load_ps_row", "load_po_row",
           "load_ps", "load_po")


def wrap_loaders(store, timer: Timer) -> None:
    """Time every loader call on one store instance."""
    for name in LOADERS:
        method = getattr(store, name, None)
        if method is not None:
            setattr(store, name, timer.wrap(method))


def ratio(stats: dict | None) -> float:
    """hits / (hits + misses) of one cache's counters."""
    if not stats:
        return 0.0
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    return stats.get("hits", 0) / lookups if lookups else 0.0


def merge_counts(total: dict, stats: dict | None) -> None:
    for key in ("hits", "misses", "evictions"):
        total[key] = total.get(key, 0) + (stats or {}).get(key, 0)


def pooled_caches(stores) -> dict:
    """Hit ratios of the store caches, pooled over *stores*: matrices
    (S-O + O-S), rows and term decoding; their evictions too, which are
    reported outside the declared per-layer metrics."""
    matrix: dict = {}
    rows: dict = {}
    decode: dict = {}
    for store in stores:
        caches = store.cache_stats()
        merge_counts(matrix, caches.get("so"))
        merge_counts(matrix, caches.get("os"))
        merge_counts(rows, caches.get("rows"))
        merge_counts(decode, store.dictionary.decode_cache_stats())
    return {"bitmat.matrix_cache_hit_ratio": ratio(matrix),
            "bitmat.row_cache_hit_ratio": ratio(rows),
            "rdf.decode_cache_hit_ratio": ratio(decode),
            "bitmat.matrix_cache_evictions": matrix.get("evictions", 0),
            "bitmat.row_cache_evictions": rows.get("evictions", 0),
            "rdf.decode_cache_evictions": decode.get("evictions", 0)}
