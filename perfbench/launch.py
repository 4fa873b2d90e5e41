"""Start ``lbr serve`` in this process, with the benchmark's hooks.

Usage::

    python3 perfbench/launch.py --report OUT.json --trace 0|1 -- serve ...

Everything after ``--`` goes to the program's own command line
(``repro.cli.main``), so the server runs exactly as ``lbr serve`` does.
When the server stops, the launcher writes the process's peak RSS and,
in traced runs, the per-layer figures gathered by wrappers around the
program's public functions and by ``gc.callbacks``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import resource
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SRC, median, write_json  # noqa: E402
from tracing import (GCWatch, Timer, merge_counts,  # noqa: E402
                     pooled_caches, ratio, wrap_loaders)

sys.path.insert(0, SRC)

from repro import cli  # noqa: E402


def patch(target: str, make) -> None:
    """Replace ``module:Owner.attr`` by ``make(original)``.

    A name the program no longer has leaves its metrics at 0 with a
    warning instead of failing the traced run.
    """
    module_name, _, path = target.partition(":")
    *parents, name = path.split(".")
    try:
        owner = importlib.import_module(module_name)
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, name)
    except (ImportError, AttributeError):
        print(f"perfbench: cannot trace {target}", file=sys.stderr)
        return
    setattr(owner, name, make(original))


class Hooks:
    """Wrappers around the program's layers; gathered into a report."""

    def __init__(self) -> None:
        self.gc = GCWatch()
        self.open_timer = Timer()
        self.load_timer = Timer()
        self.compile_timer = Timer()
        self.publish_timer = Timer()
        self.apply_timer = Timer()
        self.compact_timer = Timer()
        self.wal_bytes = 0
        self.wal_triples = 0
        self.plan_counts: dict = {}
        self.tracked_objects = 0
        self.final: dict = {}
        self._local = threading.local()

    def install(self) -> None:
        self.gc.install()
        hooks = self

        def load(original):
            def opened(cls, path):
                store = hooks.open_timer.wrap(original)(path)
                wrap_loaders(store, hooks.load_timer)
                return store
            return classmethod(opened)
        patch("repro.bitmat.store:BitMatStore.load", load)

        patch("repro.core.engine:LBREngine._compile_plan",
              self.compile_timer.wrap)

        def publish_store(original):
            def published(manager, store):
                # the retiring engine's plan-cache counters, before the
                # swap replaces it
                if manager.version:
                    merge_counts(
                        hooks.plan_counts,
                        manager.current().engine.plan_cache_stats())
                begin = time.perf_counter()
                try:
                    return original(manager, store)
                finally:
                    elapsed = time.perf_counter() - begin
                    hooks.publish_timer.durations.append(elapsed)
                    hooks._local.published = (
                        getattr(hooks._local, "published", 0.0) + elapsed)
            return published
        patch("repro.server.snapshot:SnapshotManager.publish_store",
              publish_store)

        def apply_batch(original):
            def applied(store, adds, deletes):
                hooks._local.published = 0.0
                begin = time.perf_counter()
                try:
                    return original(store, adds, deletes)
                finally:
                    hooks.apply_timer.durations.append(
                        time.perf_counter() - begin
                        - hooks._local.published)
            return applied
        patch("repro.update.live:LiveGraphStore.apply_batch", apply_batch)

        patch("repro.update.live:LiveGraphStore.compact",
              self.compact_timer.wrap)

        def encode_record(original):
            def encoded(record):
                data = original(record)
                hooks.wal_bytes += len(data)
                hooks.wal_triples += len(record.adds) + len(record.deletes)
                return data
            return encoded
        patch("repro.update.wal:encode_record", encode_record)

        def serve_forever(original):
            def serving(server, *args, **kwargs):
                hooks.tracked_objects = len(gc.get_objects())
                return original(server, *args, **kwargs)
            return serving
        patch("repro.server.net:LBRServer.serve_forever", serve_forever)

        def close(original):
            def closing(svc):
                if not hooks.final and svc.snapshots.version:
                    current = svc.snapshots.current()
                    merge_counts(hooks.plan_counts,
                                 current.engine.plan_cache_stats())
                    hooks.final = {
                        "store_caches": current.store.cache_stats(),
                        "caches": pooled_caches([current.store]),
                        "live": svc.live.stats() if svc.live else {}}
                return original(svc)
            return closing
        patch("repro.server.service:QueryService.close", close)

    def report(self) -> dict:
        caches = self.final.get("store_caches", {})
        layers = {
            "plan.compile_ms": median(d * 1e3
                                      for d in self.compile_timer.durations),
            "plan.cache_hit_ratio": ratio(self.plan_counts),
            "plan.cache_evictions": self.plan_counts.get("evictions", 0),
            "plan.cache_lookups": (self.plan_counts.get("hits", 0)
                                   + self.plan_counts.get("misses", 0)),
            "bitmat.open_ms": self.open_timer.total_ms,
            "bitmat.load_ms": self.load_timer.total_ms,
            "bitmat.load_calls": self.load_timer.calls,
            "bitmat.extent_materializations":
                caches.get("extents", {}).get("materializations", 0),
            **self.final.get("caches", {}),
            "update.apply_ms": median(d * 1e3
                                      for d in self.apply_timer.durations),
            "update.publish_ms": median(
                d * 1e3 for d in self.publish_timer.durations),
            "update.compactions":
                self.final.get("live", {}).get("compactions", 0),
            "update.compaction_ms": self.compact_timer.total_ms,
            "update.wal_bytes_per_triple": (
                self.wal_bytes / self.wal_triples
                if self.wal_triples else 0.0),
            "gc.tracked_objects": self.tracked_objects,
        }
        layers.update(self.gc.report())
        return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    hooks = Hooks() if args.trace else None
    if hooks is not None:
        hooks.install()
    code = cli.main(argv)
    report = {"rss_peak_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if hooks is not None:
        report["layers"] = hooks.report()
    write_json(args.report, report)
    return code


if __name__ == "__main__":
    sys.exit(main())
