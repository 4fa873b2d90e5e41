"""Build the benchmark's inputs and reference answers.

Usage::

    python3 perfbench/prepare.py --out DIR

Writes into DIR the three datasets as ``.lbrm`` images (LUBM, UniProt,
DBPedia), their union as ``merged.lbrm`` (served by ``serve``), and
``pool.json``: every query instance of the 19 Appendix E templates with
the digest of its answer, computed by ``NaiveEngine`` over the generated
graphs, plus the ``live`` slice and the answers of the "full minus
slice" state.  The datasets and the instance pool are fixed; the run
seed (``run.py --seed``) draws the query streams over them.

This runs in a process of its own so that the measured processes never
hold the generated graphs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SRC, digest_rows, write_json  # noqa: E402

sys.path.insert(0, SRC)

from repro import BitMatStore, Graph, NaiveEngine  # noqa: E402
from repro.bitmat.mmapstore import save_mmap_store  # noqa: E402
from repro.datasets import (DBPEDIA_QUERIES, LUBM_QUERIES,  # noqa: E402
                            UNIPROT_QUERIES, DBPediaConfig, LUBMConfig,
                            UniProtConfig, generate_dbpedia,
                            generate_lubm, generate_uniprot)
from repro.rdf.terms import NULL  # noqa: E402

#: dataset scales: two LUBM universities and forty UniProt organisms
#: give the constant-bearing templates enough distinct instances that
#: the ``serve`` pool outgrows the 128-entry plan cache
LUBM = LUBMConfig(universities=2)
UNIPROT = UniProtConfig(organisms=40)
DBPEDIA = DBPediaConfig()

DEPT1 = "<http://www.Department1.University0.edu>"
DEPT0 = "<http://www.Department0.University0.edu>"
HUMAN = "<http://purl.uniprot.org/taxonomy/9606>"
DATE = '"2008-01-15"'
MODIFIED_DATES = ["2005-07-19", "2006-03-07", "2008-01-15", "2010-10-05",
                  "2012-11-28"]

#: ``live`` writer: triples toggled per batch (drawn from these
#: predicates) and growth triples added per batch
SLICE_PREDICATES = ("advisor", "emailAddress", "takesCourse")
SLICE_PER_PREDICATE = 20
GROW_PER_BATCH = 1300


def cell(value) -> str | None:
    return None if value is NULL else value.n3


def answer_digest(engine: NaiveEngine, text: str) -> str:
    result = engine.execute(text)
    return digest_rows([str(v) for v in result.variables],
                       [[cell(v) for v in row] for row in result])


def instances(dataset: str, name: str, text: str, graph: Graph) -> list[str]:
    """Texts of one template's instances (one for constant-free ones)."""
    if dataset == "LUBM" and name in ("Q4", "Q5", "Q6"):
        departments = sorted(
            {str(t.s) for t in graph
             if re.fullmatch(r"http://www\.Department\d+\.University\d+"
                             r"\.edu", str(t.s))}, key=_natural)
        constant = DEPT1 if name == "Q4" else DEPT0
        if name != "Q6":
            # Q4 and Q5 are one template: split the departments
            parity = 1 if name == "Q4" else 0
            departments = departments[parity::2]
        return [text.replace(constant, f"<{d}>") for d in departments]
    if dataset == "UniProt" and name in ("Q3", "Q6"):
        organisms = [HUMAN] + [f"<http://purl.uniprot.org/taxonomy/"
                               f"{10000 + i}>"
                               for i in range(UNIPROT.organisms - 1)]
        return [text.replace(HUMAN, organism) for organism in organisms]
    if dataset == "UniProt" and name == "Q5":
        return [text.replace(DATE, f'"{date}"') for date in MODIFIED_DATES]
    return [text]


def _natural(text: str) -> list:
    return [int(part) if part.isdigit() else part
            for part in re.split(r"(\d+)", text)]


def live_slice(graph: Graph) -> list:
    """The fixed triples the ``live`` writer deletes and re-adds."""
    chosen = []
    for local in SLICE_PREDICATES:
        predicate = f"http://swat.cse.lehigh.edu/onto/univ-bench.owl#{local}"
        matching = sorted((t for t in graph if str(t.p) == predicate),
                          key=lambda t: t.n3)
        stride = max(1, len(matching) // SLICE_PER_PREDICATE)
        chosen.extend(matching[::stride][:SLICE_PER_PREDICATE])
    return chosen


def save_image(graph: Graph, path: str) -> dict:
    store = BitMatStore.build(graph)
    store.freeze()
    save_mmap_store(store, path)
    return {"image": os.path.basename(path), "triples": len(graph),
            "image_bytes": os.path.getsize(path)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()

    graphs = {"LUBM": generate_lubm(LUBM),
              "UniProt": generate_uniprot(UNIPROT),
              "DBPedia": generate_dbpedia(DBPEDIA)}
    suites = {"LUBM": LUBM_QUERIES, "UniProt": UNIPROT_QUERIES,
              "DBPedia": DBPEDIA_QUERIES}
    merged = Graph()
    for graph in graphs.values():
        merged.add_all(graph)

    pool: dict = {"datasets": {}, "templates": []}
    for name, graph in graphs.items():
        pool["datasets"][name] = save_image(
            graph, os.path.join(args.out, f"{name.lower()}.lbrm"))
    pool["merged"] = save_image(merged,
                                os.path.join(args.out, "merged.lbrm"))

    slice_triples = live_slice(graphs["LUBM"])
    sliced = set(slice_triples)
    minus = Graph(t for t in graphs["LUBM"] if t not in sliced)

    merged_engine = NaiveEngine(merged)
    minus_engine = NaiveEngine(minus)
    for dataset, suite in suites.items():
        engine = NaiveEngine(graphs[dataset])
        for name, text in suite.items():
            entries = []
            for instance in instances(dataset, name, text,
                                      graphs[dataset]):
                entry = {"text": instance,
                         "ref": answer_digest(engine, instance),
                         "ref_merged": answer_digest(merged_engine,
                                                     instance)}
                if dataset == "LUBM":
                    entry["ref_minus"] = answer_digest(minus_engine,
                                                       instance)
                entries.append(entry)
            pool["templates"].append({"id": f"{dataset}.{name}",
                                      "dataset": dataset,
                                      "instances": entries})
            print(f"prepare: {dataset}.{name}: {len(entries)} instances "
                  f"({time.perf_counter() - started:.1f}s)",
                  file=sys.stderr, flush=True)

    pool["live"] = {"slice": [t.n3 for t in slice_triples],
                    "grow_per_batch": GROW_PER_BATCH,
                    "full_triples": len(graphs["LUBM"]),
                    "minus_triples": len(minus)}
    pool["scales"] = {"LUBM": {"universities": LUBM.universities,
                               "seed": LUBM.seed},
                      "UniProt": {"proteins": UNIPROT.proteins,
                                  "organisms": UNIPROT.organisms,
                                  "seed": UNIPROT.seed},
                      "DBPedia": {"seed": DBPEDIA.seed}}
    write_json(os.path.join(args.out, "pool.json"), pool)
    print(f"prepare: done in {time.perf_counter() - started:.1f}s",
          file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
