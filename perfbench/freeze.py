"""Compute the exactness references in references.json.

    python3 perfbench/freeze.py [WORKLOAD ...]

For every workload variant it builds the tables in-process twice, with
build_tables(engine="auto") and with engine="exact", and stops with an
error unless both give the same treelet total, star total and
per-skeleton totals.  The agreed values are written to
references.json next to this file.  Run it only when a workload's
graph or build flags change; the benchmark then checks every timed
build against these values.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from checks import REFERENCES, totals_of  # noqa: E402
from workloads import VARIANTS, WORKLOADS, edges_for  # noqa: E402


def totals(w, v: int, engine: str) -> dict:
    from motifkit.graph import color_uniform, from_edges
    from motifkit.rng import stream
    from motifkit.tables import build_tables

    g = color_uniform(from_edges(edges_for(w, v)), w.k, stream(v))
    skip = "--skip-round" in w.build_flags
    t = build_tables(g, skip_round=skip, zero_root=not skip, engine=engine)
    return {"n": g.n, "m": g.m, "max_degree": g.max_degree, **totals_of(t)}


def main(names) -> int:
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, "rt", encoding="utf-8") as fh:
            refs = json.load(fh)
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        per_variant = {}
        for v in range(VARIANTS):
            t0 = time.perf_counter()
            auto = totals(w, v, "auto")
            t1 = time.perf_counter()
            exact = totals(w, v, "exact")
            t2 = time.perf_counter()
            if auto != exact:
                print(f"{name} variant {v}: engines disagree", file=sys.stderr)
                return 1
            per_variant[str(v)] = auto
            print(f"{name} variant {v}: auto {t1 - t0:.1f} s, exact {t2 - t1:.1f} s, "
                  f"treelet_total {auto['treelet_total']}", flush=True)
        refs[name] = per_variant
    with open(REFERENCES, "wt", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
