"""Acceptance battery: one verdict line per criterion.

Each test prints (and registers for the terminal summary) a single
"criterion NN name: PASS/FAIL" line, then asserts it.  The battery is
heavier than the unit suite; expect several minutes end to end.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from scipy.stats import chisquare

import conftest
from conftest import (
    colorful_tree_copies,
    complete_graph,
    copy_identity,
    lollipop,
    oracle_rounds,
    rainbow,
    random_graph,
    table_entries,
)
from motifkit.adaptive import run_adaptive
from motifkit.bruteforce import copy_totals, induced_counts
from motifkit.estimates import (
    biased_correction,
    colorful_probability,
    effective_total,
    relative_error,
    uniform_estimate,
)
from motifkit.graph import color_biased, color_uniform, from_edges
from motifkit.graphlets import (
    census,
    classify,
    spanning_profile,
    spanning_tree_count,
)
from motifkit.rng import stream
from motifkit.sampling import GraphletSampler, StarSampler, TreeletSampler
from motifkit.tables import build_tables, round_sizes, vlc_decode, vlc_encode
from motifkit.treelets import (
    enumerate_colored,
    enumerate_shapes,
    is_star,
    skeleton_of,
)


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _big_graph(n: int, m: int, seed: int):
    """Sparse random graph with ~m edges; pair sampling, then a
    spanning path so no node is isolated."""
    rng = np.random.default_rng(seed)
    want = max(0, m - (n - 1))
    a = rng.integers(0, n, int(want * 1.25) + 8, dtype=np.int64)
    b = rng.integers(0, n, int(want * 1.25) + 8, dtype=np.int64)
    keep = a != b
    a, b = a[keep], b[keep]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    pairs = np.unique(lo * n + hi)[:want]
    lo, hi = pairs // n, pairs % n
    path = np.arange(n - 1, dtype=np.int64)
    u = np.concatenate([lo, path])
    v = np.concatenate([hi, path + 1])
    return from_edges(np.stack([u, v], axis=1))


def _path4_signature() -> int:
    p4 = from_edges([(0, 1), (1, 2), (2, 3)])
    return classify(p4, (0, 1, 2, 3))


def test_criterion_01_dp_exactness():
    t0 = time.perf_counter()
    builds = 0
    copies_seen = 0
    for i in range(50):
        n = 8 + (i * 32) // 49
        p = 0.35 if n <= 20 else 200.0 / (n * (n - 1))
        g = random_graph(n, p, 300 + i)
        assert g.m <= 150, f"fixture {i} too dense: {g.m}"
        for k in (3, 4, 5):
            for cseed in (1, 2, 3):
                colored = color_uniform(g, k, stream(400 + i, 10 * k + cseed))
                tab = build_tables(colored, zero_root=True)
                want = oracle_rounds(colored, k, zero_root=True)
                for h in round_sizes(k, False):
                    assert table_entries(tab, h) == want[h]
                exact = {s: c for s, c in copy_totals(colored, k).items() if c}
                got = {s: c for s, c in tab.skeleton_totals.items() if c}
                assert got == exact
                copies_seen += sum(exact.values())
                builds += 1
    dt = time.perf_counter() - t0
    _verdict(
        1,
        "dp-exactness",
        dt < 300.0,
        f"{builds} builds exact, {copies_seen} copies, {dt:.0f}s",
    )


def test_criterion_02_census():
    t0 = time.perf_counter()
    ok = len(enumerate_colored(8)) == 1991
    shape_counts = tuple(len(group) for group in enumerate_shapes(8))
    ok = ok and shape_counts == (1, 1, 2, 4, 9, 20, 48, 115)
    class_counts = tuple(len(census(k)) for k in (5, 6, 7, 8))
    ok = ok and class_counts == (21, 112, 853, 11117)
    dt = time.perf_counter() - t0
    ok = ok and dt < 1800.0
    _verdict(
        2,
        "census",
        ok,
        f"classes {class_counts}, shapes {shape_counts}, {dt:.0f}s",
    )


def test_criterion_03_decomposition_invariance():
    seen = {}
    for k in range(4, 9):
        group = enumerate_shapes(k)[k - 1]
        skels = {skeleton_of(s.size, s.bits) for s in group}
        seen[k] = {s: 0 for s in skels if not is_star(*s)}
    for j in range(10):
        g = random_graph(13 + j % 5, 0.5, 520 + j)
        for k in range(4, 9):
            colored = None
            for attempt in range(1, 31):
                cand = color_uniform(g, k, stream(530 + j, 10 * k + attempt))
                tab = build_tables(cand, zero_root=True)
                if any(tab.skeleton_totals.get(s, 0) for s in seen[k]):
                    colored = cand
                    break
            assert colored is not None, f"no busy coloring for graph {j}, k={k}"
            skip = build_tables(colored, skip_round=True, zero_root=False)
            for s in seen[k]:
                a = tab.skeleton_totals.get(s, 0)
                b = skip.skeleton_totals.get(s, 0)
                assert a == b, f"shape {s} differs at k={k}: {a} vs {b}"
                if a:
                    seen[k][s] += 1
    uncovered = {k: [s for s, c in per.items() if c == 0] for k, per in seen.items()}
    missing = sum(len(v) for v in uncovered.values())
    total = sum(len(per) for per in seen.values())
    _verdict(
        3,
        "decomposition-invariance",
        missing == 0,
        f"{total} non-star shapes, all totals equal, {total - missing} seen with mass",
    )


def test_criterion_04_vlc():
    checked = 0
    for t in range(1, 32):
        for count in ((1 << (8 * t)) - 1, 1 << (8 * t), (1 << (8 * t)) + 1):
            for key in (0, 1023, 2047):
                buf = vlc_encode(key, count)
                k2, c2, used = vlc_decode(buf, 0)
                assert (k2, c2, used) == (key, count, len(buf))
                checked += 1
    top = (1 << 256) - 1
    assert vlc_decode(vlc_encode(5, top), 0)[:2] == (5, top)

    rnd = random.Random(44)
    bulk = 10**6 - checked - 1
    stream_pairs = []
    for i in range(bulk):
        key = rnd.randrange(2048)
        count = 1 << (rnd.randrange(256))
        count |= rnd.getrandbits(count.bit_length() - 1)
        buf = vlc_encode(key, count)
        k2, c2, used = vlc_decode(buf, 0)
        assert (k2, c2, used) == (key, count, len(buf))
        if i < 5000:
            stream_pairs.append((key, count, buf))
    blob = b"".join(b for _, _, b in stream_pairs)
    pos = 0
    for key, count, _ in stream_pairs:
        k2, c2, used = vlc_decode(blob, pos)
        assert (k2, c2) == (key, count)
        pos += used
    assert pos == len(blob)

    g = color_uniform(random_graph(16, 0.4, 33), 5, stream(34, 1))
    plain = build_tables(g, zero_root=True, vlc=False)
    packed = build_tables(g, zero_root=True, vlc=True)
    for h in round_sizes(5, False):
        assert table_entries(plain, h) == table_entries(packed, h)
    assert plain.skeleton_totals == packed.skeleton_totals
    _verdict(4, "vlc-round-trip", True, f"{bulk + checked + 1} pairs bit-exact")


def test_criterion_05_sampler_uniformity():
    draws = 10**5
    fixtures = [
        ("triangle", rainbow(from_edges([(0, 1), (1, 2), (2, 0)]), 3), 3),
        ("k4", rainbow(complete_graph(4), 4), 4),
        ("c5", rainbow(from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), 5), 5),
        ("sparse10", color_uniform(random_graph(10, 0.35, 4), 4, stream(2, 61)), 4),
        ("dense9", color_uniform(random_graph(9, 0.5, 6), 5, stream(3, 61)), 5),
    ]
    worst = 1.0
    for idx, (name, g, k) in enumerate(fixtures):
        oracle = colorful_tree_copies(g, k)
        assert 0 < len(oracle) <= 200, f"{name}: {len(oracle)} copies"
        tab = build_tables(g, zero_root=True)
        sampler = TreeletSampler(tab, g, stream(70, idx))
        counts = {}
        for _ in range(draws):
            nodes, t = sampler.sample()
            ident = copy_identity(t.shape.size, t.shape.bits, nodes)
            counts[ident] = counts.get(ident, 0) + 1
        assert set(counts) <= set(oracle)
        obs = [counts.get(c, 0) for c in oracle]
        p = chisquare(obs).pvalue
        worst = min(worst, p)
        assert p > 0.001, f"{name}: p={p:.2e}"

    star = from_edges([(0, i) for i in range(1, 6)])
    sampler = StarSampler(star, 3, stream(71))
    counts = {}
    for _ in range(draws):
        nodes = sampler.sample()
        assert nodes[0] == 0
        pair = frozenset(nodes[1:])
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 10
    p = chisquare(list(counts.values())).pvalue
    worst = min(worst, p)
    assert p > 0.001
    _verdict(5, "sampler-uniformity", True, f"6 fixtures, min p={worst:.3f}")


def _uniform_run(g, colored, k, n_draws, run_seed, sigma, classes):
    tab = build_tables(colored, zero_root=True)
    t_eff, p = effective_total(tab)
    if t_eff == 0:
        return {sig: 0.0 for sig in classes}
    sampler = GraphletSampler(tab, colored, stream(run_seed))
    tallies = {}
    for _ in range(n_draws):
        nodes, _kind = sampler.sample()
        sig = classify(colored, nodes)
        tallies[sig] = tallies.get(sig, 0) + 1
    report = uniform_estimate(tallies, t_eff, sigma, n_draws, p, classes=classes)
    return {row.signature: float(row.count) for row in report.rows}


def _ags_run(g, colored, k, cbar, budget, run_seed, classes):
    tab = build_tables(colored, zero_root=True)
    report = run_adaptive(tab, colored, stream(run_seed), cbar=cbar, max_samples=budget)
    by_sig = report.by_signature()
    return {
        sig: float(by_sig[sig].count) if sig in by_sig else 0.0 for sig in classes
    }


def test_criterion_06_estimator_unbiasedness():
    k = 4
    g = random_graph(30, 0.22, 12)
    truth = induced_counts(g, k)
    classes = sorted(census(k))
    sigma = {sig: spanning_tree_count(sig, k) for sig in classes}
    big = [sig for sig in classes if truth.get(sig, 0) >= 20]
    assert len(big) == len(classes), "fixture keeps every class above threshold"

    runs = 100
    worst = {}
    for mode in ("uniform", "ags"):
        per_run = {sig: [] for sig in classes}
        for r in range(runs):
            colored = color_uniform(g, k, stream(600 + r, 1 if mode == "uniform" else 2))
            if mode == "uniform":
                est = _uniform_run(g, colored, k, 10**4, 700 + r, sigma, classes)
            else:
                est = _ags_run(g, colored, k, 500, 10**4, 800 + r, classes)
            for sig in classes:
                per_run[sig].append(est[sig])
        worst_z = 0.0
        for sig in big:
            vals = np.array(per_run[sig])
            se = vals.std(ddof=1) / runs**0.5
            z = abs(vals.mean() - truth[sig]) / se if se else float(
                vals.mean() != truth[sig]
            ) * np.inf
            worst_z = max(worst_z, z)
        worst[mode] = worst_z
        assert worst_z <= 3.0, f"{mode}: worst z={worst_z:.2f}"
    _verdict(
        6,
        "estimator-unbiasedness",
        True,
        f"worst z uniform {worst['uniform']:.2f}, ags {worst['ags']:.2f}",
    )


def test_criterion_07_ags_rare_class_recovery():
    k = 4
    g = lollipop(12, 3)
    truth = induced_counts(g, k)
    path_sig = _path4_signature()
    assert truth[path_sig] == 12
    classes = sorted(census(k))
    sigma = {sig: spanning_tree_count(sig, k) for sig in classes}
    budget = 10**5

    ags_ok = 0
    uni_ok = 0
    for seed in range(10):
        colored = color_uniform(g, k, stream(1000 + seed, 1))
        tab = build_tables(colored, zero_root=True)
        report = run_adaptive(
            tab, colored, stream(1100 + seed), cbar=1000, max_samples=budget
        )
        err = relative_error(report, truth).get(path_sig, float("inf"))
        if abs(err) <= 0.25:
            ags_ok += 1

        t_eff, p = effective_total(tab)
        if t_eff == 0:
            continue
        sampler = GraphletSampler(tab, colored, stream(1200 + seed))
        tallies = {}
        for _ in range(budget):
            nodes, _kind = sampler.sample()
            sig = classify(colored, nodes)
            tallies[sig] = tallies.get(sig, 0) + 1
        rep2 = uniform_estimate(tallies, t_eff, sigma, budget, p, classes=classes)
        err2 = relative_error(rep2, truth).get(path_sig, float("inf"))
        if abs(err2) <= 0.25:
            uni_ok += 1

    ok = ags_ok >= 9 and uni_ok <= 5
    _verdict(
        7,
        "ags-rare-class-recovery",
        ok,
        f"adaptive {ags_ok}/10 within 0.25, uniform {uni_ok}/10",
    )


def test_criterion_08_kirchhoff_cross_check():
    for k in range(2, 9):
        full = (1 << comb(k, 2)) - 1
        assert spanning_tree_count(full, k) == k ** (k - 2)
    for sig in census(5):
        total = spanning_tree_count(sig, 5)
        profile = spanning_profile(sig, 5, "canonical")
        assert sum(profile.values()) == total
    _verdict(8, "kirchhoff-cross-check", True, "k=2..8 complete graphs, 21 profiles")


def test_criterion_09_biased_coloring():
    for k in (3, 4, 5):
        lam = Fraction(1, k)
        full = (1 << k) - 1
        want = Fraction(factorial(k), k**k)
        assert biased_correction(k, lam, full) == want
        assert colorful_probability(k, lam) == want

    k = 4
    lam = 0.05
    # dense enough that triangle-bearing classes keep real colorful
    # mass per biased coloring; sparser graphs leave them too noisy
    # for a 50-run mean comparison
    g = random_graph(2000, 0.01, 42)
    classes = sorted(census(k))
    sigma = {sig: spanning_tree_count(sig, k) for sig in classes}
    runs = 50
    n_draws = 2000
    means = {}
    for mode in ("uniform", "biased"):
        acc = {sig: 0.0 for sig in classes}
        for r in range(runs):
            if mode == "uniform":
                colored = color_uniform(g, k, stream(1300 + r, 1))
            else:
                colored = color_biased(g, k, lam, stream(1400 + r, 1))
            est = _uniform_run(g, colored, k, n_draws, 1500 + r, sigma, classes)
            for sig in classes:
                acc[sig] += est[sig]
        means[mode] = {sig: acc[sig] / runs for sig in classes}

    big = [sig for sig in classes if means["uniform"][sig] >= 1e3]
    assert big, "fixture has classes above the comparison floor"
    worst = 0.0
    for sig in big:
        gap = abs(means["biased"][sig] / means["uniform"][sig] - 1)
        worst = max(worst, gap)
        assert gap <= 0.10, f"class {sig:#x}: gap {gap:.3f}"
    _verdict(
        9,
        "biased-coloring",
        True,
        f"{len(big)} classes compared, worst gap {worst * 100:.1f}%",
    )


def test_criterion_10_determinism_and_scaling(tmp_path):
    k = 5
    g = color_uniform(random_graph(800, 0.02, 21), k, stream(22, 1))
    blobs = []
    for run in range(3):
        out = tmp_path / f"t{run}"
        build_tables(g, zero_root=True, out_dir=str(out))
        rounds = sorted(out.glob("round_*.mct"))
        assert rounds
        blobs.append(b"".join(f.read_bytes() for f in rounds))
    assert blobs[0] == blobs[1] == blobs[2]

    per_edge = []
    dt_big = None
    for n, seed in ((200000, 11), (300000, 13)):
        big = _big_graph(n, 10**6, seed)
        colored = color_uniform(big, k, stream(23, seed))
        t0 = time.perf_counter()
        build_tables(colored, zero_root=True)
        dt = time.perf_counter() - t0
        per_edge.append(dt / big.m)
        if dt_big is None:
            dt_big = dt
            assert dt < 600.0, f"1e6-edge build took {dt:.0f}s"
        del big, colored
    ratio = max(per_edge) / min(per_edge)
    ok = ratio <= 2.0
    _verdict(
        10,
        "determinism-and-scaling",
        ok,
        f"repeat builds byte-identical, 1e6-edge build {dt_big:.0f}s, per-edge ratio {ratio:.2f}",
    )
