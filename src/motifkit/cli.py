"""Command line front end: build tables, sample graphlets, print counts.

Long-running commands write one JSON object per line to stderr so
scripts can follow progress; results go to the paths given by flags.
Exit codes: 0 success, 2 usage or parameter range, 3 input/output,
4 capacity or overflow, 5 tables do not match the graph, 1 any other
failure raised on purpose.
"""

import argparse
import json
import os
import sys
import time

from .adaptive import covering_threshold, run_adaptive
from .errors import CapacityError, MismatchError, MotifkitError, ParseError
from .estimates import (
    effective_total,
    load_truth_csv,
    uniform_estimate,
    write_error_csv,
    write_report_csv,
)
from .graph import color_biased, color_uniform, load_graph
from .graphlets import census, classify, count_connected_graphs, spanning_tree_count
from .rng import stream
from .sampling import GraphletSampler
from .tables import build_tables, load_tables
from .treelets import enumerate_shapes, tables_for


def _emit(obj) -> None:
    print(json.dumps(obj), file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# build


def cmd_build(args) -> int:
    if not 2 <= args.k <= 16:
        raise ValueError("k must lie in 2..16")
    g0 = load_graph(args.graph)
    rng = stream(args.seed)
    if args.lam is not None:
        g = color_biased(g0, args.k, args.lam, rng)
    else:
        g = color_uniform(g0, args.k, rng)
    os.makedirs(args.tables, exist_ok=True)  # a bad path fails before the DP
    t0 = time.monotonic()
    table = build_tables(
        g,
        skip_round=args.skip_round,
        zero_root=not (args.skip_round or args.all_rootings),
        vlc=args.vlc,
        progress=_emit,
    )
    table.save(
        args.tables,
        {
            "command": "build",
            "seed": args.seed,
            "elapsed_s": round(time.monotonic() - t0, 3),
        },
    )
    _emit(
        {
            "event": "done",
            "tables": args.tables,
            "treelet_total": str(table.treelet_total),
            "star_total": str(table.star_total),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# sample


def _run_uniform(tables, g, args, deadline):
    sampler = GraphletSampler(tables, g, stream(args.seed))
    tallies: dict[int, int] = {}
    done = 0
    while args.samples is None or done < args.samples:
        if deadline is not None and time.monotonic() >= deadline:
            break
        nodes, _tag = sampler.sample()
        sig = classify(g, nodes)
        tallies[sig] = tallies.get(sig, 0) + 1
        done += 1
    _emit({"event": "sampled", "samples": done})
    t_eff, p = effective_total(tables)
    sigma = {sig: spanning_tree_count(sig, tables.k) for sig in tallies}
    classes = census(tables.k) if tables.k <= 8 else ()
    return uniform_estimate(tallies, t_eff, sigma, done, p, classes=classes)


def cmd_sample(args) -> int:
    if args.time is None and not args.samples:
        raise ValueError("a sample count or a time budget is required")
    g = load_graph(args.graph)
    tables = load_tables(args.tables, graph=g)
    deadline = time.monotonic() + args.time if args.time is not None else None
    if args.mode == "uniform":
        report = _run_uniform(tables, g, args, deadline)
    else:
        cbar = args.threshold
        if cbar is None:
            if args.eps is None or args.delta is None:
                raise ValueError("ags needs --threshold or both --eps and --delta")
            cbar = covering_threshold(args.eps, args.delta, count_connected_graphs(tables.k))
        _emit({"event": "threshold", "cbar": cbar})
        report = run_adaptive(
            tables,
            g,
            stream(args.seed),
            cbar=cbar,
            max_samples=args.samples,
            time_budget=args.time,
            progress=_emit,
        )
    write_report_csv(report, args.out)
    if args.truth is not None:
        root, ext = os.path.splitext(args.out)
        write_error_csv(report, load_truth_csv(args.truth), root + ".err" + (ext or ".csv"))
    _emit({"event": "done", "samples": report.samples, "out": args.out})
    return 0


# ---------------------------------------------------------------------------
# census


def cmd_census(args) -> int:
    if not 2 <= args.k <= 8:
        raise ValueError("census covers k in 2..8")
    k = args.k
    shapes = enumerate_shapes(k)
    per_size = " ".join(str(len(group)) for group in shapes)
    ite = tables_for(k)
    print(f"k={k}")
    print(f"rooted shapes by size: {per_size}")
    print(f"rooted colored treelets: {ite.n}")
    print(f"treelet skeletons: {len(ite.skeleton_list)}")
    print(f"graphlet classes: {len(census(k))}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="motifkit",
        description="Estimate induced k-node subgraph counts from colorful treelet tables.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="color a graph and build its count tables")
    b.add_argument("--graph", required=True, help="edge list or binary graph file")
    b.add_argument("-k", type=int, required=True, help="structure size, 2..16")
    b.add_argument("--seed", type=int, default=0, help="coloring seed")
    b.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="biased coloring rate; color 0 gets 1-(k-1)*lambda")
    b.add_argument("--tables", required=True, help="output directory")
    b.add_argument("--skip-round", action="store_true",
                   help="skip the size k-1 round; stars stay out of the tables")
    b.add_argument("--all-rootings", action="store_true",
                   help="store full-size entries at every root, not only color 0")
    b.add_argument("--vlc", action="store_true", help="variable-length count encoding")
    b.set_defaults(func=cmd_build)

    s = sub.add_parser("sample", help="draw samples and write a report CSV")
    s.add_argument("--graph", required=True)
    s.add_argument("--tables", required=True, help="directory written by build")
    s.add_argument("--mode", choices=("uniform", "ags"), default="uniform")
    s.add_argument("--samples", type=int, default=None, help="sample budget")
    s.add_argument("--time", type=float, default=None, help="time budget in seconds")
    s.add_argument("--eps", type=float, default=None, help="covering accuracy (ags)")
    s.add_argument("--delta", type=float, default=None, help="covering failure odds (ags)")
    s.add_argument("--threshold", type=int, default=None,
                   help="covering threshold override (ags)")
    s.add_argument("--seed", type=int, default=0, help="sampling seed")
    s.add_argument("--out", required=True, help="report CSV path")
    s.add_argument("--truth", default=None,
                   help="ground-truth CSV; also writes a relative-error CSV")
    s.set_defaults(func=cmd_sample)

    c = sub.add_parser("census", help="print treelet and graphlet class counts")
    c.add_argument("-k", type=int, required=True)
    c.set_defaults(func=cmd_census)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except MismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MotifkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
