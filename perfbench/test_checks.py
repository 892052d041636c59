"""Self-test of the benchmark's checkers: correct outputs pass, a table
directory with a wrong total and reports with one mutated field fail.

    python3 -m pytest perfbench/test_checks.py
"""

import csv
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from checks import (  # noqa: E402
    SpanningTrees,
    ags_threshold,
    check_ags,
    check_table_dir,
    check_uniform,
    read_report,
    totals_of,
)
from workloads import WORKLOADS, erdos_renyi, write_edge_list  # noqa: E402

import numpy as np  # noqa: E402
from motifkit.cli import main as cli  # noqa: E402
from motifkit.graph import load_graph  # noqa: E402
from motifkit.tables import load_tables  # noqa: E402

K = 4
SAMPLES = 400


def small_case(tmp_path, skip_round=False):
    graph = str(tmp_path / "g.txt")
    with open(graph, "wt", encoding="ascii") as fh:
        write_edge_list(erdos_renyi(np.random.default_rng(5), 60, 150), fh)
    tab = str(tmp_path / "tab")
    flags = ["--skip-round"] if skip_round else []
    argv = ["build", "--graph", graph, "-k", str(K), "--seed", "1", "--tables", tab, *flags]
    assert cli(argv) == 0
    return graph, tab, load_graph(graph)


def rewrite(path, rows):
    with open(path, "wt", encoding="utf-8", newline="") as fh:
        out = csv.DictWriter(fh, fieldnames=list(rows[0]))
        out.writeheader()
        out.writerows(rows)


def test_table_with_wrong_total_is_rejected(tmp_path):
    _graph, tab, g = small_case(tmp_path)
    ref = totals_of(load_tables(tab))
    assert check_table_dir(tab, g, ref) == []

    tables = load_tables(tab)
    tables.treelet_total += 1
    bad = str(tmp_path / "bad")
    tables.save(bad)
    assert check_table_dir(bad, g, ref)

    wrong_skeleton = dict(ref, skeleton_totals=dict(ref["skeleton_totals"]))
    first = next(iter(wrong_skeleton["skeleton_totals"]))
    wrong_skeleton["skeleton_totals"][first] = "0"
    assert check_table_dir(tab, g, wrong_skeleton)


def test_uniform_report_with_one_mutated_count_is_rejected(tmp_path):
    for skip_round in (False, True):
        case = tmp_path / ("skip" if skip_round else "full")
        case.mkdir()
        graph, tab, _g = small_case(case, skip_round)
        ref = totals_of(load_tables(tab))
        rep = str(tmp_path / f"u{skip_round}.csv")
        assert cli(["sample", "--graph", graph, "--tables", tab, "--mode", "uniform",
                    "--samples", str(SAMPLES), "--seed", "3", "--out", rep]) == 0
        rows = read_report(rep)
        assert check_uniform(rows, K, SAMPLES, ref, skip_round, SpanningTrees()) == []

        hit = next(i for i, r in enumerate(rows) if int(r["samples"]))
        mutated = [dict(r) for r in rows]
        mutated[hit]["count_estimate"] = str(float(rows[hit]["count_estimate"]) * 1.001)
        rewrite(rep, mutated)
        assert check_uniform(read_report(rep), K, SAMPLES, ref, skip_round, SpanningTrees())

        short = [dict(r) for r in rows]
        short[hit]["samples"] = str(int(rows[hit]["samples"]) - 1)
        assert check_uniform(short, K, SAMPLES, ref, skip_round, SpanningTrees())
        assert check_uniform(rows[1:], K, SAMPLES, ref, skip_round, SpanningTrees())


def test_ags_report_with_one_mutated_row_is_rejected(tmp_path):
    graph, tab, _g = small_case(tmp_path)
    w = replace(WORKLOADS["er-k6"], k=K, ags_flags=("--threshold", "20"))
    cbar = ags_threshold(w)
    rep = str(tmp_path / "a.csv")
    assert cli(["sample", "--graph", graph, "--tables", tab, "--mode", "ags",
                "--samples", str(SAMPLES), "--seed", "3", "--threshold", str(cbar),
                "--out", rep]) == 0
    rows = read_report(rep)
    done = sum(int(r["samples"]) for r in rows)
    assert check_ags(rows, K, done, cbar) == []
    assert check_ags(rows, K, done + 1, cbar)

    covered = next(i for i, r in enumerate(rows) if r["covered"] == "true")
    mutated = [dict(r) for r in rows]
    mutated[covered]["samples"] = str(cbar - 1)
    assert check_ags(mutated, K, done - int(rows[covered]["samples"]) + cbar - 1, cbar)
