"""Shared pieces of the benchmark: paths, environment, digests, streams,
statistics and the calibration probe.

This module imports nothing from the program (``repro``), so the
load-generating process can use it without holding the program's data
structures.  The processes that do run the program (``runner.py``,
``launch.py``) and the input generator (``prepare.py``) import the
program themselves.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: every process that runs the program gets this hash seed: the striped
#: caches pick a stripe by ``hash(key)``, so an unpinned seed changes
#: which plans the plan cache evicts from run to run
HASH_SEED = "0"

#: calibration probe: a fixed pure-Python loop, timed between rounds.
#: Times are scaled by ``REF_PROBE_MS / measured`` and rates by its
#: inverse; the reference is the probe's median on a 2-vCPU x86-64
#: container (Python 3.11) when the benchmark was written.
PROBE_LOOPS = 60_000
REF_PROBE_MS = 12.0

#: Zipf exponent of the ``serve`` stream.  No traffic trace of the
#: program exists; 1.0 is an assumption, the classic exponent of web
#: request popularity.
ZIPF_S = 1.0
#: step of the low-discrepancy sequence behind :func:`zipf_rounds`
GOLDEN = (5 ** 0.5 - 1) / 2


def fail(message: str, code: int = 2) -> NoReturn:
    """Print *message* to stderr and exit without a result line."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def require_program() -> None:
    """Exit non-zero unless the program's sources are present."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail(f"program sources not found under {SRC}")


def build_dir() -> str:
    """Where generated inputs and per-run scratch files live."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_key() -> str:
    """Hash of the program and benchmark sources the inputs depend on."""
    digest = hashlib.sha256()
    for name in ("prepare.py", "common.py"):
        with open(os.path.join(HERE, name), "rb") as handle:
            digest.update(handle.read())
    for top in (os.path.join(SRC, "repro"),):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def child_env() -> dict[str, str]:
    """Environment of every process that runs the program."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = SRC
    env.pop("LBR_NUMPY", None)
    return env


#: every process :func:`spawn` started, for :func:`reap_children`
_children: list[subprocess.Popen] = []


def spawn(args: list[str], **kwargs) -> subprocess.Popen:
    """Start ``python3 <args>`` from the checkout root."""
    process = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                               env=child_env(), **kwargs)
    _children.append(process)
    return process


def reap_children() -> None:
    """Kill and wait for every spawned process still running."""
    for process in _children:
        if process.poll() is None:
            process.kill()
        process.wait()


def stop(process: subprocess.Popen, timeout: float = 30.0) -> None:
    """Wait for *process*; kill it if it does not end in time."""
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------

def digest_rows(variables: list[str], rows) -> str:
    """Order-independent digest of a row multiset.

    Cells are N3 strings or None (NULL).  Columns are put in variable
    name order first, so engines that order columns differently agree.
    """
    order = sorted(range(len(variables)), key=lambda i: variables[i])
    lines = sorted("\t".join("\x00" if row[i] is None else row[i]
                             for i in order) for row in rows)
    digest = hashlib.sha256()
    digest.update("\t".join(variables[i] for i in order).encode())
    for line in lines:
        digest.update(b"\n")
        digest.update(line.encode())
    return f"{len(lines)}:{digest.hexdigest()[:20]}"


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------

def cycling_rounds(templates: list[dict], seed: int, salt: str):
    """Endless rounds; each runs every template once, in seeded order.

    A template's instance cycles from a seeded offset, so over a run
    every instance is used about equally whatever the seed.
    """
    rng = random.Random(f"{salt}:{seed}")
    offsets = [rng.randrange(len(t["instances"])) for t in templates]
    round_index = 0
    while True:
        order = list(range(len(templates)))
        rng.shuffle(order)
        yield [(t, (offsets[t] + round_index)
                % len(templates[t]["instances"])) for t in order]
        round_index += 1


def zipf_rounds(count: int, seed: int, salt: str, size: int):
    """Endless rounds of *size* instance indexes, P(index r) ∝ 1/r**ZIPF_S.

    Popularity follows the instance pool's own order (templates as
    Appendix E lists them, LUBM, UniProt, then DBPedia; each template's
    instances in constant order): index 0 is the most popular.

    The draws are a golden-ratio (Weyl) sequence from a seeded start
    pushed through the distribution's CDF, so any run of N draws holds
    every instance N·P ± 1 times: the mix of cheap and expensive
    instances is the same in every run whatever its seed or length.
    Each round is then shuffled with the seeded generator, so that two
    clients' sequences do not stay locked in one phase for a whole run.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(count)]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    rng = random.Random(f"{salt}:{seed}")
    point = rng.random()
    while True:
        batch = []
        for _ in range(size):
            point = (point + GOLDEN) % 1.0
            rank = min(bisect.bisect_left(cumulative, point), count - 1)
            batch.append(rank)
        rng.shuffle(batch)
        yield batch


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[min(index, len(ordered) - 1)]


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartile_spread(values) -> tuple[float, float, float]:
    """(median, IQR, IQR / median) as ``statistics.quantiles`` gives."""
    values = list(values)
    mid = statistics.median(values)
    if len(values) < 2:
        return mid, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, q3 - q1, (q3 - q1) / mid if mid else 0.0


# ----------------------------------------------------------------------
# calibration probe
# ----------------------------------------------------------------------

def probe_ms() -> float:
    """Time of one fixed pure-Python loop, in milliseconds."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc] = table.get(acc, 0) + 1
    return (time.perf_counter() - started) * 1000.0


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total
