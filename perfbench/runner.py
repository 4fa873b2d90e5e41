"""The ``adhoc`` workload's program process.

Usage::

    python3 perfbench/runner.py JOB.json

Opens the ``.lbrm`` images named in the job, prints ``ready``, then
waits for one line on stdin: ``quit`` ends the process, ``go`` runs
the seeded query stream — whole rounds, each running every template
once on a fresh ``LBREngine`` over the long-lived stores — until the
job's seconds are used, and writes the timings, answer digests and
program statistics to the job's ``out`` file.  The process holds only
the opened images and the query list; answers are checked by the
benchmark process against references it never shares with this one.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (SRC, cycling_rounds, digest_rows, median,  # noqa: E402
                    probe_ms, read_json, write_json)
from tracing import (GCWatch, Timer, pooled_caches,  # noqa: E402
                     wrap_loaders)

sys.path.insert(0, SRC)

from repro import LBREngine, parse_query  # noqa: E402
from repro.bitmat.backend import open_store  # noqa: E402
from repro.rdf.terms import NULL  # noqa: E402


def cell(value) -> str | None:
    return None if value is NULL else value.n3


def main(job_path: str) -> int:
    job = read_json(job_path)
    trace = bool(job["trace"])
    gc_watch = GCWatch()
    if trace:
        gc_watch.install()
    pool = read_json(job["pool"])
    templates = [{"id": t["id"], "dataset": t["dataset"],
                  "instances": [i["text"] for i in t["instances"]]}
                 for t in pool["templates"]]
    del pool

    started = time.perf_counter()
    stores = {name: open_store(path)
              for name, path in job["images"].items()}
    open_ms = (time.perf_counter() - started) * 1e3
    load_timer = Timer()
    if trace:
        for store in stores.values():
            wrap_loaders(store, load_timer)
    tracked = len(gc.get_objects()) if trace else 0
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        for store in stores.values():
            store.close()
        return 0

    rounds = cycling_rounds(templates, job["seed"], "adhoc")
    # one untimed round: lazy extent materialization and the store's
    # caches settle before timing (users pay it once per process)
    for t, i in next(rounds):
        LBREngine(stores[templates[t]["dataset"]]).execute(
            templates[t]["instances"][i])

    records = []
    probes = []
    deadline = time.perf_counter() + job["seconds"]
    # probes[r] runs before round r and probes[r + 1] after it
    probes.append(probe_ms())
    while time.perf_counter() < deadline:
        for t, i in next(rounds):
            template = templates[t]
            engine = LBREngine(stores[template["dataset"]])
            begin = time.perf_counter()
            result = engine.execute(template["instances"][i])
            latency = time.perf_counter() - begin
            s = engine.last_stats
            digest = digest_rows([str(v) for v in result.variables],
                                 [[cell(v) for v in row]
                                  for row in result])
            records.append([len(probes) - 1, t, i, latency, digest,
                            s.t_plan, s.t_init, s.t_prune, s.t_join,
                            s.t_total, s.initial_triples,
                            s.triples_after_pruning])
        probes.append(probe_ms())

    report = {"records": records, "probes_ms": probes,
              "open_ms": open_ms,
              "rss_peak_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        report["layers"] = layer_report(templates, stores, load_timer,
                                        gc_watch, tracked)
    for store in stores.values():
        store.close()
    write_json(job["out"], report)
    return 0


def layer_report(templates, stores, load_timer: Timer, gc_watch: GCWatch,
                 tracked: int) -> dict:
    parse_ms = []
    for template in templates:
        for text in template["instances"]:
            samples = []
            for _ in range(3):
                begin = time.perf_counter()
                parse_query(text)
                samples.append((time.perf_counter() - begin) * 1e3)
            parse_ms.append(median(samples))
    extents = sum(store.cache_stats().get("extents", {}).get(
        "materializations", 0) for store in stores.values())
    report = {"sparql.parse_ms": median(parse_ms),
              "bitmat.load_ms": load_timer.total_ms,
              "bitmat.load_calls": load_timer.calls,
              "bitmat.extent_materializations": extents,
              "gc.tracked_objects": tracked,
              **pooled_caches(stores.values())}
    report.update(gc_watch.report())
    return report


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
