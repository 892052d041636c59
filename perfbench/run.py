"""Layered benchmark for motifkit.

    python3 perfbench/run.py --workload er-k6 --seed 1 --seconds 20 --trace 0

With --trace 0 it runs `motifkit build`, `sample --mode uniform` and
`sample --mode ags` as subprocesses in a closed loop (one client, each
command starts after the previous one exits) and checks every output.
Each command is repeated for a third of --seconds (at least once), so a
short build is timed several times even when sampling is slow;
end-to-end metrics are medians over the repetitions.  With --trace 1 it
instead runs layers.py, an in-process pass over the same work that
times calls into each module, in a fresh process per pass until
--seconds have passed; per-layer metrics are medians over passes.

The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  The exit code is 0 only when every
check passed.  Without the motifkit sources next to this directory it
exits with 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RUN_LIMIT_S = 170  # a child still running this long after the start is killed
SETUP_REPEATS = 9

sys.path.insert(0, HERE)

from workloads import WORKLOADS, edges_for, sampling_seed, variant, write_edge_list  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "uniform_s": "s",
    "ags_samples_per_s": "1/s",
    "build_rss_mb": "MB",
    "uniform_rss_mb": "MB",
    "ags_rss_mb": "MB",
    "table_mb": "MB",
}


def run_child(argv, stderr_path, deadline: float) -> dict:
    """Run one command to completion through spawn.py: wall time, exit
    code and the peak RSS of that command alone.  The command is killed
    at the run's deadline (time.monotonic())."""
    timeout = max(1.0, deadline - time.monotonic())
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "spawn.py"), str(timeout), stderr_path, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        check=True,
        timeout=timeout + 10,
    )
    return json.loads(out.stdout)


def read_events(path) -> list:
    events = []
    with open(path, "rt", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict):
                events.append(obj)
    return events


class Tally:
    """Checks attempted and failed in one run, and the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def setup_graph(w, seed: int, work) -> tuple:
    """Generate the workload graph and write it as an edge list, several
    times; the median is the set-up time.  Each repetition writes a new
    file, and creating and closing it are left out of the timing: those
    are file-system metadata operations whose latency on a shared disk
    swamps the millisecond it takes to write a small graph."""
    times = []
    for i in range(SETUP_REPEATS):
        path = os.path.join(work, f"graph-{i}.txt")
        with open(path, "wt", encoding="ascii") as fh:
            t0 = time.perf_counter()
            write_edge_list(edges_for(w, seed), fh)
            fh.flush()
            times.append(time.perf_counter() - t0)
    return path, statistics.median(times)


def repeat(budget: float, step) -> dict:
    """Call step(i) for i = 0, 1, ... until budget seconds have passed (at
    least once); the median of each metric over the calls."""
    samples: dict = {}
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < budget:
        for name, value in step(i).items():
            samples.setdefault(name, []).append(value)
        i += 1
    return {name: statistics.median(v) for name, v in samples.items()}


def exit_problems(result) -> list:
    return [] if result["rc"] == 0 else [f"exit {result['rc']}"]


def measure(w, seed: int, seconds: float, graph_path, work, tally) -> dict:
    """Closed loop in three phases of seconds/3 each: builds, then uniform
    samples, then ags samples.  Each command starts after the previous
    one has exited and its output has been checked."""
    from checks import (
        SpanningTrees,
        ags_threshold,
        check_ags,
        check_table_dir,
        check_uniform,
        load_reference,
        read_report,
    )
    from layers import dir_bytes
    from motifkit.graph import load_graph

    ref = load_reference(w.name, variant(seed))
    graph = load_graph(graph_path)
    sigma = SpanningTrees()
    cli = [sys.executable, "-m", "motifkit.cli"]
    kept = []  # the first build that passed its checks; sampling reads it

    def build(i):
        tab = os.path.join(work, f"tables-{i}")
        b = run_child(
            cli + ["build", "--graph", graph_path, "-k", str(w.k), "--seed", str(variant(seed)),
                   "--tables", tab, *w.build_flags],
            os.path.join(work, f"build-{i}.err"), tally.deadline,
        )
        out = {"build_s": b["wall_s"], "build_rss_mb": b["rss_mb"]}
        ok = tally.record("build", exit_problems(b)) and tally.record(
            "build exactness", check_table_dir(tab, graph, ref)
        )
        if ok:
            out["table_mb"] = dir_bytes(tab) / 1e6
        if ok and not kept:
            kept.append(tab)
        else:
            shutil.rmtree(tab, ignore_errors=True)
        return out

    def uniform(i):
        rep = os.path.join(work, f"uniform-{i}.csv")
        u = run_child(
            cli + ["sample", "--graph", graph_path, "--tables", kept[0], "--mode", "uniform",
                   "--samples", str(w.uniform_samples), "--seed", str(sampling_seed(seed, i)),
                   "--out", rep],
            os.path.join(work, f"uniform-{i}.err"), tally.deadline,
        )
        if tally.record("uniform", exit_problems(u)):
            tally.record(
                "uniform report",
                check_uniform(read_report(rep), w.k, w.uniform_samples, ref,
                              "--skip-round" in w.build_flags, sigma),
            )
        return {"uniform_s": u["wall_s"], "uniform_rss_mb": u["rss_mb"]}

    def ags(i):
        rep = os.path.join(work, f"ags-{i}.csv")
        err = os.path.join(work, f"ags-{i}.err")
        a = run_child(
            cli + ["sample", "--graph", graph_path, "--tables", kept[0], "--mode", "ags",
                   "--samples", str(w.ags_samples), "--seed", str(sampling_seed(seed, i)),
                   *w.ags_flags, "--out", rep],
            err, tally.deadline,
        )
        out = {"ags_rss_mb": a["rss_mb"]}
        if not tally.record("ags", exit_problems(a)):
            return out
        events = read_events(err)
        done = [e for e in events if e.get("event") == "done"]
        cbar = [e.get("cbar") for e in events if e.get("event") == "threshold"]
        want = ags_threshold(w)
        problems = [] if cbar == [want] else [f"threshold events {cbar}, expected {want}"]
        if len(done) == 1:
            samples = int(done[0]["samples"])
            problems += check_ags(read_report(rep), w.k, samples, want)
            out["ags_samples_per_s"] = samples / a["wall_s"]
        else:
            problems.append("no single done event")
        tally.record("ags report", problems)
        return out

    metrics = repeat(seconds / 3, build)
    if kept:
        metrics.update(repeat(seconds / 3, uniform))
        metrics.update(repeat(seconds / 3, ags))
    return metrics


def traced(w, seed: int, seconds: float, graph_path, work, tally) -> dict:
    """Fresh-process traced passes until the time is up; medians."""

    def one_pass(i):
        result_path = os.path.join(work, f"trace-{i}.json")
        err = os.path.join(work, f"trace-{i}.err")
        argv = [sys.executable, os.path.join(HERE, "layers.py"), "--workload", w.name,
                "--seed", str(seed), "--sampling-seed", str(sampling_seed(seed, i)),
                "--graph", graph_path, "--work", os.path.join(work, f"trace-{i}"),
                "--out", result_path]
        r = run_child(argv, err, tally.deadline)
        if not tally.record("traced pass", exit_problems(r)):
            with open(err, "rt", encoding="utf-8", errors="replace") as fh:
                tally.problems.append(fh.read()[-2000:])
            return {}
        with open(result_path, "rt", encoding="utf-8") as fh:
            result = json.load(fh)
        tally.attempted += result["attempted"]
        tally.failed += result["failed"]
        tally.problems.extend(result["problems"])
        return result["metrics"]

    return repeat(seconds, one_pass)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "motifkit", "cli.py")):
        print(f"error: motifkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    w = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{w.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tally = Tally(time.monotonic() + RUN_LIMIT_S)
    try:
        graph_path, setup_s = setup_graph(w, args.seed, work)
        if args.trace:
            metrics = traced(w, args.seed, args.seconds, graph_path, work, tally)
            from layers import PER_LAYER_UNITS as units
        else:
            metrics = measure(w, args.seed, args.seconds, graph_path, work, tally)
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it

    for p in tally.problems:
        print(f"check failed: {p}", file=sys.stderr)
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"metrics absent: {' '.join(missing)}", file=sys.stderr)
    for name in units:
        if name in metrics:
            print(f"{w.name} {name} = {metrics[name]:.6g} {units[name]}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
