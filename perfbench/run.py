"""The benchmark: one run of one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload adhoc|serve|live --seed N \\
        --seconds S --trace 0|1

Workloads (closed loops; at most two clients, the box's core count):

* ``adhoc`` — one client; a runner process (``runner.py``) plans and
  runs every query on a fresh ``LBREngine`` over long-lived ``.lbrm``
  images of LUBM, UniProt and DBPedia.
* ``serve`` — ``lbr serve --store merged.lbrm --mmap`` at its shipped
  defaults in its own process; two connections send a Zipf-skewed
  stream over more template instances than the plan cache holds.
* ``live`` — ``lbr serve --live-dir`` seeded from the LUBM image; one
  connection commits update batches while another runs the LUBM
  templates; afterwards the server is restarted on the same directory
  and its recovered state is checked.

Every answer is checked against a ``NaiveEngine`` reference built by
``prepare.py`` in a process of its own.  Times are calibrated round by
round: a fixed pure-Python probe runs between rounds (with the program
idle in ``adhoc`` and ``serve``) and each round's times are scaled by
``REF_PROBE_MS`` over the mean of the probes around it.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``).  The line before it records the
noise controls and the raw (uncalibrated) values.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (HASH_SEED, HERE, REF_PROBE_MS, ROOT,  # noqa: E402
                    build_dir, cycling_rounds, digest_rows, dir_bytes, fail,
                    geomean, median, percentile, probe_ms, read_json,
                    reap_children, require_program, source_key, spawn,
                    stop, zipf_rounds)

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 9
#: queries per client per round in ``serve``
SERVE_ROUND = 40
#: untimed warm-up requests before the ``serve`` timed phase
SERVE_WARMUP = 300
#: client connections in ``serve`` (≤ the box's two cores)
SERVE_CLIENTS = 2
#: ``live`` writer pace: seconds between batch starts (a batch that
#: takes longer delays the next one; the writer never pipelines)
WRITE_INTERVAL = 2.0
#: seconds to wait for a child process to become ready or to end
CHILD_TIMEOUT = 120.0
GROW_PREDICATE = "<http://perfbench.example/grow>"
#: the live store's default delta size that requests a compaction
COMPACT_THRESHOLD = 10_000


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def ensure_inputs() -> str:
    """Directory of images and references, built on first use.

    Keyed by a hash of the program and of the input generator, so a
    changed program never reads inputs another version wrote.
    """
    root = build_dir()
    target = os.path.join(root, f"inputs-{source_key()}")
    if os.path.isfile(os.path.join(target, "pool.json")):
        return target
    os.makedirs(root, exist_ok=True)
    staging = tempfile.mkdtemp(prefix="inputs-tmp-", dir=root)
    process = spawn([os.path.join(HERE, "prepare.py"), "--out", staging],
                    stdout=subprocess.DEVNULL)
    stop(process, timeout=850.0)
    if process.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        fail(f"prepare.py failed with code {process.returncode}")
    try:
        os.rename(staging, target)
    except OSError:
        shutil.rmtree(staging, ignore_errors=True)
        if not os.path.isfile(os.path.join(target, "pool.json")):
            raise
    for name in os.listdir(root):
        if name.startswith("inputs-") and name != os.path.basename(target):
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    return target


def declared(kind: str) -> dict[str, str]:
    """Metric name → unit, as ``BENCHMARK.json`` declares them."""
    spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------

def scale_of(before_ms: float, after_ms: float) -> float:
    """Factor that scales a time measured between two probes to the
    reference machine speed."""
    return 2.0 * REF_PROBE_MS / (before_ms + after_ms)


class Timings:
    """Query latencies in rounds, each round scaled by its probes."""

    def __init__(self) -> None:
        self.walls: list[tuple[float, float]] = []   # (raw s, scale)
        self.samples: list[float] = []               # calibrated ms
        self.raw: list[float] = []                   # raw ms
        self.by_template: dict = {}

    def add_round(self, wall: float, before_ms: float, after_ms: float,
                  latencies) -> None:
        """*latencies*: (template, seconds) of the round's queries."""
        scale = scale_of(before_ms, after_ms)
        self.walls.append((wall, scale))
        for template, seconds in latencies:
            self.raw.append(seconds * 1e3)
            self.samples.append(seconds * 1e3 * scale)
            self.by_template.setdefault(template, []).append(
                seconds * 1e3 * scale)

    @property
    def scale(self) -> float:
        return median(scale for _, scale in self.walls)

    def metrics(self) -> dict:
        n = len(self.samples)
        return {"queries_per_s": n / sum(w * s for w, s in self.walls),
                "latency_geomean_ms": geomean(
                    median(v) for v in self.by_template.values()),
                "latency_p50_ms": percentile(self.samples, 0.50),
                "latency_p99_ms": percentile(self.samples, 0.99)}

    def raw_metrics(self) -> dict:
        return {"queries_per_s": len(self.raw) / sum(w for w, _ in self.walls),
                "latency_p50_ms": percentile(self.raw, 0.50),
                "latency_p99_ms": percentile(self.raw, 0.99),
                "queries": len(self.raw), "rounds": len(self.walls),
                "median_calibration_factor": self.scale}


def calibrated_setup(start) -> tuple[float, float, object]:
    """Run *start* between two probes: (calibrated s, raw s, result)."""
    before = probe_ms()
    began = time.perf_counter()
    result = start()
    raw = time.perf_counter() - began
    return raw * scale_of(before, probe_ms()), raw, result


class Outcome:
    """Counts and wrong answers, shared by all workloads."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def check(self, what: str, got, expected) -> None:
        if got != expected:
            self.wrong.append(f"{what}: got {got!r}, expected {expected!r}")


# ----------------------------------------------------------------------
# a minimal NDJSON client (the wire protocol of ``lbr serve``)
# ----------------------------------------------------------------------

class Client:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=CHILD_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, payload: dict) -> bytes:
        """One request; the raw response line."""
        self.sock.sendall((json.dumps(payload) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def request(self, payload: dict) -> dict:
        return json.loads(self.send(payload))

    def query(self, text: str) -> tuple[bytes, float]:
        """One query: (raw response line, seconds until its last byte).

        The line is decoded later, outside the timed region, so the
        load generator's own JSON work stays out of the latency.
        """
        began = time.perf_counter()
        line = self.send({"op": "query", "query": text})
        return line, time.perf_counter() - began

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def wire_record(key, line: bytes, latency: float) -> dict:
    """What the benchmark keeps of one query response."""
    response = json.loads(line)
    stats = response.get("stats") or {}
    ok = bool(response.get("ok"))
    return {"key": key, "ok": ok, "latency": latency,
            "wait": response.get("wait_s", 0.0),
            "exec": response.get("exec_s", 0.0),
            "version": response.get("snapshot_version", 0),
            "t": [stats.get(k, 0.0) for k in
                  ("t_plan", "t_init", "t_prune", "t_join", "t_total")],
            "digest": (digest_rows(response["variables"], response["rows"])
                       if ok else str(response.get("error")))}


class Server:
    """One ``lbr serve`` process started through ``launch.py``."""

    def __init__(self, work: str, name: str, serve_args: list[str],
                 trace: int) -> None:
        self.report_path = os.path.join(work, f"{name}.report.json")
        port_file = os.path.join(work, f"{name}.port")
        self.log = open(os.path.join(work, f"{name}.log"), "wb")
        self.process = spawn(
            [os.path.join(HERE, "launch.py"), "--report", self.report_path,
             "--trace", str(trace), "--", "serve", *serve_args,
             "--port", "0", "--port-file", port_file],
            stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.perf_counter() + CHILD_TIMEOUT
        self.port = 0
        while not self.port:
            if self.process.poll() is not None:
                fail(f"server {name} exited with code "
                     f"{self.process.returncode} before listening")
            if time.perf_counter() > deadline:
                fail(f"server {name} did not start")
            try:
                with open(port_file, encoding="utf-8") as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    self.port = int(text)
            except FileNotFoundError:
                pass
            if not self.port:
                time.sleep(0.002)
        self.client = Client(self.port)
        if not self.client.request({"op": "ping"}).get("ok"):
            fail(f"server {name} did not answer ping")

    def stop(self) -> dict:
        """Graceful stop through the protocol; the launcher's report."""
        self.client.request({"op": "shutdown"})
        self.client.close()
        stop(self.process, timeout=CHILD_TIMEOUT)
        self.log.close()
        if self.process.returncode != 0:
            fail(f"server exited with code {self.process.returncode}")
        return read_json(self.report_path)


def repeated_setup(work: str, serve_args: list[str], trace: int,
                   fresh_dir: str | None = None):
    """Start the server SETUP_REPEATS times; keep the last one running.

    Returns the running server, the calibrated set-up times and the raw
    ones.
    """
    setups, raws = [], []
    for attempt in range(SETUP_REPEATS):
        if fresh_dir is not None:
            shutil.rmtree(fresh_dir, ignore_errors=True)
        last = attempt == SETUP_REPEATS - 1
        setup, raw, server = calibrated_setup(
            lambda: Server(work, f"server{attempt}", serve_args,
                           trace if last else 0))
        setups.append(setup)
        raws.append(raw)
        if not last:
            server.stop()
    return server, setups, raws


def server_layers(records: list[dict]) -> dict:
    """Per-layer figures read from the wire (``wait_s``, ``exec_s``,
    ``stats``) of the answered queries."""
    ok = [r for r in records if r["ok"]]
    n = max(1, len(ok))
    wait = [r["wait"] * 1e3 for r in ok]
    execute = [r["exec"] * 1e3 for r in ok]
    transport = [(r["latency"] - r["wait"] - r["exec"]) * 1e3 for r in ok]
    t_plan, t_init, t_prune, t_join, t_total = (
        sum(r["t"][k] for r in ok) / n * 1e3 for k in range(5))
    return {"server.wait_ms_p50": percentile(wait, 0.5),
            "server.wait_ms_p99": percentile(wait, 0.99),
            "server.exec_ms_p50": percentile(execute, 0.5),
            "server.exec_ms_p99": percentile(execute, 0.99),
            "server.transport_ms_p50": percentile(transport, 0.5),
            "core.init_ms": t_init, "core.prune_ms": t_prune,
            "core.join_ms": t_join,
            "core.unattributed_ms": (t_total - t_plan - t_init - t_prune
                                     - t_join)}


# ----------------------------------------------------------------------
# adhoc
# ----------------------------------------------------------------------

def run_adhoc(args, inputs: str, pool: dict, work: str, outcome: Outcome):
    templates = pool["templates"]
    out = os.path.join(work, "adhoc.out.json")
    job = os.path.join(work, "adhoc.job.json")
    with open(job, "w", encoding="utf-8") as handle:
        json.dump({"pool": os.path.join(inputs, "pool.json"),
                   "images": {name: os.path.join(inputs, entry["image"])
                              for name, entry in pool["datasets"].items()},
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "out": out}, handle)

    def start_runner() -> subprocess.Popen:
        process = spawn([os.path.join(HERE, "runner.py"), job],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                        text=True)
        if process.stdout.readline().strip() != "ready":
            fail("runner did not start")
        return process

    setups, raws = [], []
    for attempt in range(SETUP_REPEATS):
        setup, raw, process = calibrated_setup(start_runner)
        setups.append(setup)
        raws.append(raw)
        last = attempt == SETUP_REPEATS - 1
        process.stdin.write("go\n" if last else "quit\n")
        process.stdin.flush()
        if not last:
            stop(process, timeout=CHILD_TIMEOUT)
    stop(process, timeout=args.seconds + CHILD_TIMEOUT)
    if process.returncode != 0:
        fail(f"runner exited with code {process.returncode}")
    report = read_json(out)

    timings = Timings()
    probes = report["probes_ms"]
    rounds: dict[int, list] = {}
    seen: dict = {}
    sums = [0.0] * 5
    for record in report["records"]:
        (r, t, i, latency, digest, t_plan, t_init, t_prune, t_join,
         t_total, initial, pruned) = record
        outcome.attempted += 1
        outcome.check(f"{templates[t]['id']}#{i}", digest,
                      templates[t]["instances"][i]["ref"])
        rounds.setdefault(r, []).append((t, latency))
        seen.setdefault((t, i), (initial, pruned))
        for k, value in enumerate((t_plan, t_init, t_prune, t_join,
                                   t_total)):
            sums[k] += value
    for r, latencies in sorted(rounds.items()):
        timings.add_round(sum(s for _, s in latencies), probes[r],
                          probes[r + 1], latencies)

    datasets = pool["datasets"].values()
    triples = sum(e["triples"] for e in datasets)
    image_bytes = sum(e["image_bytes"] for e in datasets)
    metrics = {"setup_s": median(setups), **timings.metrics(),
               "rss_peak_mb": report["rss_peak_mb"],
               "store_bytes_per_triple": image_bytes / triples}
    raw = {"setup_s": median(raws), **timings.raw_metrics()}
    layers: dict = {}
    if args.trace:
        n = max(1, len(report["records"]))
        t_plan, t_init, t_prune, t_join, t_total = (v / n * 1e3
                                                    for v in sums)
        layers.update(report["layers"])
        layers.update({
            "plan.compile_ms": median(r[5] * 1e3
                                      for r in report["records"]),
            "plan.cache_hit_ratio": 0.0, "plan.cache_evictions": 0,
            "core.init_ms": t_init, "core.prune_ms": t_prune,
            "core.join_ms": t_join,
            "core.unattributed_ms": (t_total - t_plan - t_init - t_prune
                                     - t_join),
            "core.initial_triples": sum(v[0] for v in seen.values()),
            "core.pruned_triples": sum(v[1] for v in seen.values()),
            "bitmat.open_ms": report["open_ms"],
            "bitmat.image_bytes": image_bytes,
            "machine.calibration_ms": median(probes)})
    return metrics, raw, layers


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def popularity_order(templates: list[dict]) -> list[tuple[int, int]]:
    """Every (template, instance), most popular first.

    No traffic trace of the program exists, so the order is a rule
    fixed in advance rather than measured: popularity falls with the
    size of the answer (its reference row count), the way an endpoint's
    traffic is mostly small lookups; ties keep the pool's order.  The
    run seed draws the sequence, never the order.
    """
    flat = [(t, i) for t, template in enumerate(templates)
            for i in range(len(template["instances"]))]
    return sorted(flat, key=lambda key: int(
        templates[key[0]]["instances"][key[1]]["ref_merged"].split(":")[0]))


def run_serve(args, inputs: str, pool: dict, work: str, outcome: Outcome):
    templates = pool["templates"]
    flat = popularity_order(templates)
    server, setups, raws = repeated_setup(
        work, ["--store", os.path.join(inputs, pool["merged"]["image"]),
               "--mmap"], args.trace)

    for index in next(zipf_rounds(len(flat), args.seed, "serve-warmup",
                                  SERVE_WARMUP)):
        t, i = flat[index]
        server.client.query(templates[t]["instances"][i]["text"])

    # rounds: every client sends SERVE_ROUND queries, then all wait at
    # the barrier while the probe runs with the server idle
    barrier = threading.Barrier(SERVE_CLIENTS + 1, timeout=CHILD_TIMEOUT)
    done = threading.Event()
    current: list = [None] * SERVE_CLIENTS   # this round's responses
    errors: list[str] = []

    def client_loop(index: int) -> None:
        client = Client(server.port)
        rounds = zipf_rounds(len(flat), args.seed, f"serve{index}",
                             SERVE_ROUND)
        try:
            while True:
                barrier.wait()
                if done.is_set():
                    return
                sent = []
                for drawn in next(rounds):
                    t, i = flat[drawn]
                    line, latency = client.query(
                        templates[t]["instances"][i]["text"])
                    sent.append(((t, i), line, latency))
                current[index] = sent
                barrier.wait()
        except Exception as exc:  # surfaced below as a failed run
            errors.append(repr(exc))
            barrier.abort()
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, args=(k,))
               for k in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    timings = Timings()
    records: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    before = probe_ms()
    try:
        while time.perf_counter() < deadline:
            barrier.wait()
            began = time.perf_counter()
            barrier.wait()
            wall = time.perf_counter() - began
            after = probe_ms()
            sent = [item for part in current for item in part]
            timings.add_round(wall, before, after,
                              [(key[0], latency)
                               for key, _, latency in sent])
            before = after
            # digests outside the round's wall time
            records.extend(wire_record(key, line, latency)
                           for key, line, latency in sent)
        done.set()
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    if errors:
        fail(f"client failed: {errors[0]}")
    report = server.stop()

    for record in records:
        t, i = record["key"]
        outcome.attempted += 1
        if not record["ok"]:
            outcome.failed += 1
            continue
        outcome.check(f"{templates[t]['id']}#{i}", record["digest"],
                      templates[t]["instances"][i]["ref_merged"])
    merged = pool["merged"]
    metrics = {"setup_s": median(setups), **timings.metrics(),
               "rss_peak_mb": report["rss_peak_mb"],
               "store_bytes_per_triple": (merged["image_bytes"]
                                          / merged["triples"])}
    raw = {"setup_s": median(raws), **timings.raw_metrics()}
    layers: dict = {}
    if args.trace:
        layers.update(report["layers"])
        layers.update(server_layers(records))
        layers.update({"bitmat.image_bytes": merged["image_bytes"],
                       "machine.calibration_ms":
                           REF_PROBE_MS / timings.scale})
    return metrics, raw, layers


# ----------------------------------------------------------------------
# live
# ----------------------------------------------------------------------

def grow_lines(start: int, count: int) -> list[str]:
    return [f"<http://perfbench.example/s{k}> {GROW_PREDICATE} "
            f"\"{k}\" ." for k in range(start, start + count)]


def run_live(args, inputs: str, pool: dict, work: str, outcome: Outcome):
    live_dir = os.path.join(work, "live")
    lubm = [t for t in pool["templates"] if t["dataset"] == "LUBM"]
    slice_lines = pool["live"]["slice"]
    grow = pool["live"]["grow_per_batch"]
    full = pool["live"]["full_triples"]
    image = os.path.join(inputs, pool["datasets"]["LUBM"]["image"])
    server, setups, raws = repeated_setup(
        work, ["--live-dir", live_dir, "--store", image], args.trace,
        fresh_dir=live_dir)

    commits: list[dict] = []
    writer_span: list[float] = []
    reads: list[dict] = []
    timings = Timings()
    errors: list[str] = []
    deadline = time.perf_counter() + args.seconds

    def writer() -> None:
        """Paced batches: even ones delete the slice, odd ones put it
        back; every batch adds ``grow`` new triples.  The number of
        batches is fixed by the run's length, not by the clock, so a
        slow commit delays the last batches instead of dropping them
        and every run compacts at the same batches."""
        client = Client(server.port)
        grown = 0
        due = started = time.perf_counter()
        try:
            for _ in range(int(args.seconds // (2 * WRITE_INTERVAL)) + 1):
                for minus in (True, False):
                    time.sleep(max(0.0, due - time.perf_counter()))
                    due += WRITE_INTERVAL
                    adds = grow_lines(grown, grow)
                    payload = {"op": "update",
                               "add": adds if minus else adds + slice_lines,
                               "delete": slice_lines if minus else []}
                    began = time.perf_counter()
                    response = client.request(payload)
                    latency = time.perf_counter() - began
                    grown += grow
                    if response.get("delta_size", 0) >= COMPACT_THRESHOLD:
                        await_compaction(client)
                    commits.append({
                        "latency": latency, "ok": bool(response.get("ok")),
                        "minus": minus,
                        "version": response.get("snapshot_version", 0),
                        "visible": response.get("visible_triples"),
                        "expected": (full + grown
                                     - (len(slice_lines) if minus else 0))})
            writer_span.append(time.perf_counter() - started)
        except Exception as exc:  # surfaced below as a failed run
            errors.append(repr(exc))
        finally:
            client.close()

    def reader() -> None:
        """Rounds over the LUBM templates, a probe between rounds."""
        client = Client(server.port)
        rounds = cycling_rounds(lubm, args.seed, "live")
        before = probe_ms()
        try:
            while time.perf_counter() < deadline:
                sent = []
                began = time.perf_counter()
                for t, i in next(rounds):
                    line, latency = client.query(
                        lubm[t]["instances"][i]["text"])
                    sent.append(((t, i), line, latency))
                wall = time.perf_counter() - began
                after = probe_ms()
                timings.add_round(wall, before, after,
                                  [(key[0], latency)
                                   for key, _, latency in sent])
                before = after
                reads.extend(wire_record(key, line, latency)
                             for key, line, latency in sent)
        except Exception as exc:  # surfaced below as a failed run
            errors.append(repr(exc))
        finally:
            client.close()

    threads = [threading.Thread(target=writer),
               threading.Thread(target=reader)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        fail(f"client failed: {errors[0]}")
    settled = await_compaction(server.client)
    report = server.stop()
    visible = commits[-1]["expected"] if commits else full
    store_bytes = dir_bytes(live_dir)

    # every commit acknowledged, with the visible count the model says
    for k, commit in enumerate(commits):
        outcome.attempted += 1
        if not commit["ok"]:
            outcome.failed += 1
            continue
        outcome.check(f"commit {k} visible_triples", commit["visible"],
                      commit["expected"])
    # every read shows a state its snapshot version allows
    versions = [c["version"] for c in commits if c["ok"]]
    states = [c["minus"] for c in commits if c["ok"]]
    for record in reads:
        t, i = record["key"]
        outcome.attempted += 1
        if not record["ok"]:
            outcome.failed += 1
            continue
        instance = lubm[t]["instances"][i]
        allowed = sorted({instance["ref_minus"] if minus else
                          instance["ref"] for minus in
                          possible_states(record["version"], versions,
                                          states)})
        if record["digest"] not in allowed:
            outcome.check(f"{lubm[t]['id']}#{i} at v{record['version']}",
                          record["digest"], allowed)
    restart_s = recovery_check(work, live_dir, lubm, visible, outcome)

    scale = timings.scale
    commit_ms = [c["latency"] * 1e3 * scale for c in commits if c["ok"]]
    metrics = {"setup_s": median(setups), **timings.metrics(),
               "rss_peak_mb": report["rss_peak_mb"],
               "store_bytes_per_triple": store_bytes / visible}
    raw = {"setup_s": median(raws), **timings.raw_metrics(),
           "commits": len(commit_ms), "restart_s": restart_s,
           "compactions": settled["compactions"]}
    layers: dict = {}
    if args.trace:
        layers.update(report["layers"])
        layers.update(server_layers(reads))
        layers.update({
            "update.commits_per_s": len(commit_ms) / writer_span[0],
            "update.commit_p50_ms": percentile(commit_ms, 0.5),
            "update.commit_p99_ms": percentile(commit_ms, 0.99),
            "machine.calibration_ms": REF_PROBE_MS / scale})
    return metrics, raw, layers


def await_compaction(client: Client) -> dict:
    """Wait until no compaction is due or running; the live ``stats``.

    A commit that lands while a compaction runs sees the old delta,
    still above the threshold, and requests a second compaction, which
    then runs at once and leaves the delta short of the threshold for
    the rest of the run; whether that happens depends on how long the
    first one takes.  The writer therefore waits, after a batch that
    requests a compaction, until it has finished, and the run waits for
    the last one, so that every run compacts at the same batches and
    ends with the same directory (``store_bytes_per_triple``).
    """
    deadline = time.perf_counter() + 60.0
    while time.perf_counter() < deadline:
        live = client.request({"op": "stats"})["stats"]["live"]
        if (not live["compacting"]
                and live["delta_size"] < COMPACT_THRESHOLD):
            return live
        time.sleep(0.005)
    raise RuntimeError("live compaction did not finish")


def possible_states(version: int, versions: list[int],
                    states: list[bool]) -> list[bool]:
    """States ("minus slice" True/False) a reply at *version* may show.

    ``versions[k]`` is the snapshot version the writer read back after
    commit *k*.  A background compaction may publish between a commit's
    own publication and that read, so a version strictly between two
    acknowledged ones may show either neighbour.
    """
    k = bisect.bisect_right(versions, version) - 1
    if k < 0:
        # the seeded full state, or the first commit if its read-back
        # version ran ahead of its publication
        return [False] + states[:1]
    if version == versions[k]:
        return [states[k]]
    return [states[k]] + states[k + 1:k + 2]


def recovery_check(work: str, live_dir: str, lubm: list[dict],
                   visible: int, outcome: Outcome) -> float:
    """Restart on the same directory; check triple count and answers.

    Every run ends after whole rounds of the writer, so the recovered
    state is "full" plus the grown triples.
    """
    began = time.perf_counter()
    server = Server(work, "recovered", ["--live-dir", live_dir], 0)
    restart_s = time.perf_counter() - began
    stats = server.client.request({"op": "stats"}).get("stats", {})
    outcome.attempted += 1
    outcome.check("recovered visible_triples",
                  stats.get("live", {}).get("visible_triples"), visible)
    for template in lubm:
        for i, instance in enumerate(template["instances"]):
            line, _ = server.client.query(instance["text"])
            record = wire_record(None, line, 0.0)
            outcome.attempted += 1
            if not record["ok"]:
                outcome.failed += 1
                continue
            outcome.check(f"recovered {template['id']}#{i}",
                          record["digest"], instance["ref"])
    server.stop()
    return restart_s


# ----------------------------------------------------------------------

WORKLOADS = {"adhoc": run_adhoc, "serve": run_serve, "live": run_live}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    inputs = ensure_inputs()
    pool = read_json(os.path.join(inputs, "pool.json"))
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    outcome = Outcome()
    try:
        metrics, raw, layers = WORKLOADS[args.workload](
            args, inputs, pool, work, outcome)
    finally:
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
    for line in outcome.wrong[:20]:
        print(f"WRONG ANSWER {line}", file=sys.stderr)

    if args.trace:
        # per-layer view: zero where the workload does no such work
        units = declared("per_layer")
        values = dict.fromkeys(units, 0.0)
        values.update(layers)
        values["trace.queries_per_s"] = metrics["queries_per_s"]
    else:
        units = declared("end_to_end")
        values = metrics
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "noise_controls": {"PYTHONHASHSEED": HASH_SEED,
                           "program_process": "own process (runner or "
                                              "lbr serve), no references",
                           "clients": 1 if args.workload == "adhoc" else 2,
                           "cores": os.cpu_count(),
                           "calibration": "probe between rounds, "
                                          f"reference {REF_PROBE_MS} ms"},
        "raw": raw, "calibrated": metrics,
        "other_layers": {k: v for k, v in layers.items()
                         if k not in units}}))
    print(json.dumps({"correct": not outcome.wrong,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {name: {"value": values[name],
                                         "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
