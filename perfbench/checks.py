"""Output checks that do not trust the code under test.

Table totals are compared with values frozen in references.json, which
were computed once with both DP engines and found equal.  Report
checks use the independent spanning-tree oracle in motifkit.bruteforce
and the known number of connected graphs on k nodes (OEIS A001349).
Every check returns a list of problems; an empty list means it passed.
"""

import csv
import itertools
import json
import math
import os
from fractions import Fraction

# connected graphs on k nodes, k = 1..8 (OEIS A001349)
CONNECTED_CLASSES = (1, 1, 2, 6, 21, 112, 853, 11117)

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_reference(workload: str, variant: int) -> dict:
    with open(REFERENCES, "rt", encoding="utf-8") as fh:
        refs = json.load(fh)
    return refs[workload][str(variant)]


def totals_of(tables) -> dict:
    """The totals of a TableSet in the form references.json stores them."""
    return {
        "treelet_total": str(tables.treelet_total),
        "star_total": str(tables.star_total),
        "skeleton_totals": {
            "%d:%d" % s: str(c) for s, c in sorted(tables.skeleton_totals.items()) if c
        },
    }


def check_totals(tables, ref: dict) -> list:
    """Totals of a TableSet against the frozen reference."""
    got = totals_of(tables)
    problems = [
        f"{name} {got[name]} != reference {ref[name]}"
        for name in ("treelet_total", "star_total")
        if got[name] != ref[name]
    ]
    if got["skeleton_totals"] != ref["skeleton_totals"]:
        problems.append("per-skeleton totals differ from the reference")
    return problems


def check_table_dir(table_dir, graph, ref: dict) -> list:
    """Load a table directory with the program's own loader and compare
    its totals with the reference."""
    from motifkit.errors import MotifkitError
    from motifkit.tables import load_tables

    try:
        tables = load_tables(table_dir, graph=graph)
    except (MotifkitError, OSError, ValueError, KeyError) as e:
        return [f"tables do not load: {e}"]
    return check_totals(tables, ref)


# ---------------------------------------------------------------------------
# reports


def read_report(path) -> list:
    with open(path, "rt", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _masks(sig: int, k: int) -> list:
    """Local adjacency bitmasks of a packed signature: bit p holds pair p
    in row-major upper-triangle order."""
    masks = [0] * k
    pairs = itertools.combinations(range(k), 2)
    for p, (i, j) in enumerate(pairs):
        if sig >> p & 1:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


class SpanningTrees:
    """Spanning-tree counts by exhaustive enumeration, memoized per class."""

    def __init__(self):
        self._memo = {}

    def __call__(self, sig: int, k: int) -> int:
        got = self._memo.get((sig, k))
        if got is None:
            from motifkit.bruteforce import spanning_trees

            got = len(spanning_trees(_masks(sig, k)))
            self._memo[(sig, k)] = got
        return got


def _class_rows(rows, k: int) -> list:
    problems = []
    sigs = [r["signature_hex"] for r in rows]
    if len(sigs) != len(set(sigs)):
        problems.append("duplicate class rows")
    if len(rows) != CONNECTED_CLASSES[k - 1]:
        problems.append(f"{len(rows)} rows, expected {CONNECTED_CLASSES[k - 1]} classes")
    return problems


def check_uniform(rows, k: int, budget: int, ref: dict, skip_round: bool, sigma) -> list:
    """One row per class, samples summing to the budget, and
    sum_i sigma_i * count_i equal to the copy total over p: each hit
    contributes t_eff / (budget * p) after multiplying back by sigma."""
    problems = _class_rows(rows, k)
    total = sum(int(r["samples"]) for r in rows)
    if total != budget:
        problems.append(f"samples sum to {total}, budget {budget}")
    p = Fraction(math.factorial(k), k**k)
    target = Fraction(int(ref["treelet_total"])) / p
    if skip_round:
        target += int(ref["star_total"])
    got = Fraction(0)
    for r in rows:
        count = Fraction(r["count_estimate"])
        if count:
            got += sigma(int(r["signature_hex"], 16), k) * count
    if abs(got - target) > target * Fraction(1, 10**9):
        problems.append(f"sum sigma*count {float(got):.6e} != t_eff/p {float(target):.6e}")
    return problems


def check_ags(rows, k: int, done: int, threshold: int) -> list:
    """One row per class, samples summing to the reported draws, and every
    covered class holding at least the threshold."""
    problems = _class_rows(rows, k)
    total = sum(int(r["samples"]) for r in rows)
    if total != done:
        problems.append(f"samples sum to {total}, done event says {done}")
    short = [r["signature_hex"] for r in rows
             if r["covered"] == "true" and int(r["samples"]) < threshold]
    if short:
        problems.append(f"{len(short)} covered classes below the threshold {threshold}")
    return problems


def ags_threshold(w) -> int:
    """The workload's explicit --threshold, or ceil(4/eps^2 * ln(2 s / delta))
    with s the number of connected classes on k nodes."""
    flags = dict(zip(w.ags_flags[::2], w.ags_flags[1::2]))
    if "--threshold" in flags:
        return int(flags["--threshold"])
    eps, delta = float(flags["--eps"]), float(flags["--delta"])
    return math.ceil(4 / eps**2 * math.log(2 * CONNECTED_CLASSES[w.k - 1] / delta))
