"""One traced in-process pass over a workload, layer by layer.

    python3 perfbench/layers.py --workload er-k6 --seed 1 --sampling-seed 1000 \
        --graph graph.txt --work DIR --out result.json

Runs the same work as one untraced cycle of run.py (build, save, load,
uniform sampling, adaptive sampling) through motifkit's public API and
times each call at the boundary of the module it belongs to.  Counters
on a few hot inner names (TableSet.count, TreeletSampler.sample,
randint_below, select_next_shape and friends) are installed by
rebinding the name; when a later version of the program no longer has
one of them, the metrics that depend on it are left out instead of
failing the pass.  Writes {"metrics", "attempted", "failed",
"problems"} as JSON to --out.
"""

import argparse
import functools
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from types import ModuleType

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

from checks import (  # noqa: E402
    SpanningTrees,
    ags_threshold,
    check_ags,
    check_totals,
    check_uniform,
    load_reference,
    read_report,
)
from workloads import WORKLOADS, variant  # noqa: E402

ROUNDS = range(2, 9)
CLI_REPEATS = 3

PER_LAYER_UNITS = {
    "graph.load_s": "s",
    "graph.color_s": "s",
    "treelets.index_s": "s",
    "tables.dp_s": "s",
    **{f"tables.round{h}_s": "s" for h in ROUNDS},
    **{f"tables.round{h}_entries": "count" for h in ROUNDS},
    "tables.save_s": "s",
    "tables.bytes": "B",
    "tables.load_s": "s",
    "sampling.setup_s": "s",
    "sampling.draws_per_s": "1/s",
    "sampling.lookups_per_draw": "count",
    "sampling.star_share": "ratio",
    "sampling.thin_accept": "ratio",
    "sampling.view_setup_s": "s",
    "rng.calls_per_draw": "count",
    "graphlets.census_s": "s",
    "graphlets.classify_per_s": "1/s",
    "graphlets.profile_s": "s",
    "adaptive.run_s": "s",
    "adaptive.select_s": "s",
    "adaptive.epochs": "count",
    "adaptive.covered": "count",
    "estimates.estimate_s": "s",
    "estimates.write_s": "s",
    "cli.startup_s": "s",
    "trace.wall_s": "s",
}


class Probe:
    """Calls into one hooked name, and the seconds spent inside them."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0

    def counting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def timing(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        return wrapper

    def first_call_timing(self, fn):
        """Times only the first call per (instance, first argument): the
        call that builds a per-skeleton view."""
        seen = set()

        @functools.wraps(fn)
        def wrapper(obj, key, *args, **kwargs):
            first = (id(obj), key) not in seen
            if not first:
                return fn(obj, key, *args, **kwargs)
            seen.add((id(obj), key))
            self.calls += 1
            t0 = time.perf_counter()
            try:
                return fn(obj, key, *args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        return wrapper


def install(spec: str, wrap) -> Probe | None:
    """Rebind "module:Owner.name" (or "module:name") to a probed wrapper.

    A module-level function is rebound in every loaded motifkit module
    that imported it by name.  Returns None when the name is gone.
    """
    mod_name, _, qual = spec.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *path, name = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    if fn is None:
        return None
    probe = Probe()
    wrapped = getattr(probe, wrap)(fn)
    targets = [owner]
    if isinstance(owner, ModuleType):
        targets += [
            m for n, m in list(sys.modules.items())
            if n.startswith("motifkit.") and m is not owner and getattr(m, name, None) is fn
        ]
    for target in targets:
        setattr(target, name, wrapped)
    return probe


def dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _sub, files in os.walk(path) for f in files
    )


def cli_startup() -> float:
    """Median wall time of `motifkit census -k 3`, which imports every
    module and does almost no work."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(CLI_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "motifkit.cli", "census", "-k", "3"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(time.perf_counter() - t0)
        if "graphlet classes: 2" not in out.stdout:
            raise RuntimeError("census -k 3 printed an unexpected result")
    return statistics.median(times)


def traced_pass(w, seed: int, sample_seed: int, graph_path, work) -> dict:
    from motifkit import adaptive, estimates, graph, graphlets, rng, sampling, tables, treelets

    ref = load_reference(w.name, variant(seed))
    skip = "--skip-round" in w.build_flags
    problems: list = []
    tally = {"attempted": 0, "failed": 0}
    m: dict = {}

    def check(what, found):
        tally["attempted"] += 1
        tally["failed"] += bool(found)
        problems.extend(f"{what}: {p}" for p in found)

    probes = {
        "lookups": install("motifkit.tables:TableSet.count", "counting"),
        "treelet_draws": install("motifkit.sampling:TreeletSampler.sample", "counting"),
        "randint": install("motifkit.rng:randint_below", "counting"),
        "views": install("motifkit.sampling:TreeletSampler.sample_skeleton", "first_call_timing"),
        "classify": install("motifkit.graphlets:classify", "timing"),
        "profile": install("motifkit.graphlets:spanning_profile", "timing"),
        "select": install("motifkit.adaptive:select_next_shape", "timing"),
    }

    t_pass = time.perf_counter()
    t0 = time.perf_counter()
    g0 = graph.load_graph(graph_path)
    m["graph.load_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    g = graph.color_uniform(g0, w.k, rng.stream(variant(seed)))
    m["graph.color_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    treelets.tables_for(w.k)
    m["treelets.index_s"] = time.perf_counter() - t0

    rounds = {}
    mark = [0.0]

    def on_round(event):
        if event.get("event") == "round_done":
            now = time.perf_counter()
            rounds[event["h"]] = (now - mark[0], event["entries"])
            mark[0] = now

    t0 = mark[0] = time.perf_counter()
    built = tables.build_tables(g, skip_round=skip, zero_root=not skip, progress=on_round)
    m["tables.dp_s"] = time.perf_counter() - t0
    check("in-memory build exactness", check_totals(built, ref))
    for h in ROUNDS:
        m[f"tables.round{h}_s"], m[f"tables.round{h}_entries"] = rounds.get(h, (0.0, 0))

    tab_dir = os.path.join(work, "tables")
    t0 = time.perf_counter()
    built.save(tab_dir)
    m["tables.save_s"] = time.perf_counter() - t0
    m["tables.bytes"] = dir_bytes(tab_dir)
    del built

    t0 = time.perf_counter()
    tabs = tables.load_tables(tab_dir, graph=g0)
    m["tables.load_s"] = time.perf_counter() - t0
    check("loaded tables exactness", check_totals(tabs, ref))

    # uniform sampling, as `motifkit sample --mode uniform` does it
    t0 = time.perf_counter()
    sampler = sampling.GraphletSampler(tabs, g0, rng.stream(sample_seed))
    first, _tag = sampler.sample()
    m["sampling.setup_s"] = time.perf_counter() - t0
    tallies = {}
    sig = graphlets.classify(g0, first)
    tallies[sig] = 1
    for p in probes.values():
        if p is not None:
            p.calls, p.seconds = 0, 0.0
    draws = w.uniform_samples - 1
    stars = 0
    draw_s = 0.0
    for _ in range(draws):
        t0 = time.perf_counter()
        nodes, tag = sampler.sample()
        draw_s += time.perf_counter() - t0
        stars += tag == "star"
        sig = graphlets.classify(g0, nodes)
        tallies[sig] = tallies.get(sig, 0) + 1
    m["sampling.draws_per_s"] = draws / draw_s
    m["sampling.star_share"] = stars / draws
    if probes["lookups"] is not None:
        m["sampling.lookups_per_draw"] = probes["lookups"].calls / draws
    if probes["randint"] is not None:
        m["rng.calls_per_draw"] = probes["randint"].calls / draws
    if probes["treelet_draws"] is not None and probes["treelet_draws"].calls:
        m["sampling.thin_accept"] = (draws - stars) / probes["treelet_draws"].calls

    t0 = time.perf_counter()
    classes = graphlets.census(w.k)
    m["graphlets.census_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    t_eff, p = estimates.effective_total(tabs)
    sigma = {s: graphlets.spanning_tree_count(s, w.k) for s in tallies}
    report = estimates.uniform_estimate(
        tallies, t_eff, sigma, w.uniform_samples, p, classes=classes
    )
    m["estimates.estimate_s"] = time.perf_counter() - t0
    out = os.path.join(work, "uniform.csv")
    t0 = time.perf_counter()
    estimates.write_report_csv(report, out)
    m["estimates.write_s"] = time.perf_counter() - t0
    check("uniform report", check_uniform(
        read_report(out), w.k, w.uniform_samples, ref, skip, SpanningTrees()
    ))

    # adaptive sampling, as `motifkit sample --mode ags` does it
    cbar = ags_threshold(w)
    epochs = []
    stream = rng.stream(sample_seed)
    t0 = time.perf_counter()
    report = adaptive.run_adaptive(
        tabs, g0, stream, cbar=cbar, max_samples=w.ags_samples,
        progress=epochs.append, sampler=sampling.GraphletSampler(tabs, g0, stream),
    )
    m["adaptive.run_s"] = time.perf_counter() - t0
    m["adaptive.epochs"] = len(epochs)
    m["adaptive.covered"] = sum(1 for row in report.rows if row.covered)
    if probes["select"] is not None:
        m["adaptive.select_s"] = probes["select"].seconds
    if probes["profile"] is not None:
        m["graphlets.profile_s"] = probes["profile"].seconds
    if probes["views"] is not None:
        m["sampling.view_setup_s"] = probes["views"].seconds
    if probes["classify"] is not None:
        m["graphlets.classify_per_s"] = probes["classify"].calls / probes["classify"].seconds
    out = os.path.join(work, "ags.csv")
    estimates.write_report_csv(report, out)
    check("ags report", check_ags(read_report(out), w.k, report.samples, cbar))
    m["trace.wall_s"] = time.perf_counter() - t_pass

    m["cli.startup_s"] = cli_startup()
    return {"metrics": m, **tally, "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="workload seed")
    ap.add_argument("--sampling-seed", type=int, required=True)
    ap.add_argument("--graph", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    result = traced_pass(
        WORKLOADS[args.workload], args.seed, args.sampling_seed, args.graph, args.work
    )
    with open(args.out, "wt", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
