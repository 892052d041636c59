import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy import stats

from conftest import copy_identity, random_graph
from motifkit.bruteforce import tree_copies
from motifkit.errors import MismatchError, NoCopiesError
from motifkit.estimates import colorful_probability
from motifkit.graph import color_uniform, from_edges
from motifkit.rng import stream
from motifkit.sampling import (
    AliasTable,
    GraphletSampler,
    StarSampler,
    TreeletSampler,
    _floyd_subset,
)
from motifkit.tables import build_tables
from motifkit.treelets import balanced_split_map, skeleton_of, star_skeleton


def _colored(g, k, seed):
    return color_uniform(g, k, stream(seed, 23))


from conftest import colorful_tree_copies as _colorful_copies


def _uniform_pvalue(counts: Counter, support) -> float:
    obs = np.array([counts.get(s, 0) for s in support])
    return stats.chisquare(obs).pvalue


# ---------------------------------------------------------------------------
# alias table


def test_alias_table_frequencies():
    rng = stream(1)
    table = AliasTable([3, 1, 0, 2])
    draws = Counter(table.draw(rng) for _ in range(60000))
    assert draws[2] == 0
    exp = np.array([3, 1, 2]) / 6 * 60000
    obs = np.array([draws[0], draws[1], draws[3]])
    assert stats.chisquare(obs, exp).pvalue > 1e-3


def test_alias_table_huge_weights():
    rng = stream(2)
    table = AliasTable([10**40, 2 * 10**40])
    draws = Counter(table.draw(rng) for _ in range(3000))
    assert set(draws) == {0, 1}
    assert abs(draws[1] / 3000 - 2 / 3) < 0.05


def test_alias_table_rejects_empty_mass():
    with pytest.raises(ValueError):
        AliasTable([0, 0])
    with pytest.raises(ValueError):
        AliasTable([])


# ---------------------------------------------------------------------------
# neighbor machinery


def test_floyd_subset_law():
    rng = stream(3)
    nbrs = np.arange(10, 15)
    seen = Counter()
    for _ in range(30000):
        pick = _floyd_subset(rng, nbrs, 3)
        assert len(set(pick)) == 3
        assert set(pick) <= set(nbrs.tolist())
        seen[frozenset(pick)] += 1
    assert len(seen) == comb(5, 3)
    assert _uniform_pvalue(seen, list(seen)) > 1e-3


def test_star_sampler_weights_roots_by_degree():
    # centers of degree 4 and 3 compete 6:3 for three-node stars
    g = from_edges(
        [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (5, 7), (5, 4)]
    )
    sampler = StarSampler(g, 3, stream(8))
    roots = Counter()
    for _ in range(30000):
        nodes = sampler.sample()
        assert len(nodes) == 3 and len(set(nodes)) == 3
        root, leaves = nodes[0], nodes[1:]
        assert all(g.has_edge(root, u) for u in leaves)
        roots[root] += 1
    weights = {v: comb(g.degree(v), 2) for v in range(g.n)}
    assert set(roots) == {v for v, w in weights.items() if w}
    obs = np.array([roots[0], roots[5]])
    exp = np.array([6, 3]) / 9 * sum(obs)
    assert stats.chisquare(obs, exp).pvalue > 1e-3


def test_star_sampler_empty_pool():
    g = from_edges([(0, 1)])
    with pytest.raises(NoCopiesError):
        StarSampler(g, 3, stream(9)).sample()


# ---------------------------------------------------------------------------
# treelet-table sampling


def test_treelet_sampler_uniform_over_triangle_copies(triangle):
    g = triangle.with_colors(3, np.array([0, 1, 2], dtype=np.int8))
    tab = build_tables(g, zero_root=True)
    sampler = TreeletSampler(tab, g, stream(10))
    seen = Counter()
    for _ in range(30000):
        nodes, t = sampler.sample()
        seen[copy_identity(t.shape.size, t.shape.bits, nodes)] += 1
    oracle = set(_colorful_copies(g, 3))
    assert set(seen) == oracle and len(oracle) == 3
    assert _uniform_pvalue(seen, list(oracle)) > 1e-3


@pytest.mark.parametrize("zero_root", [True, False])
def test_treelet_sampler_uniform_on_random_graph(zero_root):
    k = 4
    g = _colored(random_graph(10, 0.45, 21), k, 21)
    tab = build_tables(g, zero_root=zero_root)
    oracle = set(_colorful_copies(g, k))
    assert oracle
    sampler = TreeletSampler(tab, g, stream(11))
    seen = Counter()
    for _ in range(40000):
        nodes, t = sampler.sample()
        ident = copy_identity(t.shape.size, t.shape.bits, nodes)
        assert ident in oracle
        seen[ident] += 1
    assert set(seen) == oracle
    assert _uniform_pvalue(seen, list(oracle)) > 1e-3


def test_treelet_draw_edges_exist_in_graph():
    k = 4
    g = _colored(random_graph(10, 0.45, 22), k, 22)
    tab = build_tables(g, zero_root=True)
    sampler = TreeletSampler(tab, g, stream(12))
    colors = g.colors
    for _ in range(200):
        nodes, t = sampler.sample()
        _nodes_set, edges = copy_identity(t.shape.size, t.shape.bits, nodes)
        assert len({int(colors[u]) for u in nodes}) == k
        for e in edges:
            u, v = tuple(e)
            assert g.has_edge(u, v)


def test_skip_tables_overweight_by_rooting_count():
    # raw table draws hit each copy in proportion to its rooting
    # multiplicity; the facade's thinning removes exactly that factor
    k = 4
    g = _colored(random_graph(10, 0.5, 23), k, 23)
    tab = build_tables(g, skip_round=True, zero_root=False)
    assert tab.treelet_total > 0
    mu_of = {sk: info[3] for sk, info in balanced_split_map(k).items()}
    sampler = TreeletSampler(tab, g, stream(13))
    seen = Counter()
    shapes = {}
    for _ in range(40000):
        nodes, t = sampler.sample()
        ident = copy_identity(t.shape.size, t.shape.bits, nodes)
        seen[ident] += 1
        shapes[ident] = skeleton_of(t.shape.size, t.shape.bits)
    weights = np.array(
        [mu_of[shapes[ident]] for ident in seen], dtype=float
    )
    obs = np.array(list(seen.values()))
    exp = weights / weights.sum() * obs.sum()
    assert stats.chisquare(obs, exp).pvalue > 1e-3


def test_treelet_sampler_empty_tables(path3):
    g = path3.with_colors(3, np.array([0, 0, 1], dtype=np.int8))
    tab = build_tables(g, zero_root=True)
    with pytest.raises(NoCopiesError):
        TreeletSampler(tab, g, stream(14)).sample()


def test_packed_engine_single_copy():
    # nine nodes force the packed key path; a rainbow path has exactly
    # one colorful spanning tree, itself
    k = 9
    edges = [(i, i + 1) for i in range(8)]
    g = from_edges(edges).with_colors(9, np.arange(9, dtype=np.int8))
    tab = build_tables(g, zero_root=True)
    assert tab.treelet_total == 1
    sampler = TreeletSampler(tab, g, stream(15))
    for _ in range(50):
        nodes, t = sampler.sample()
        _s, edges_out = copy_identity(t.shape.size, t.shape.bits, nodes)
        assert _s == frozenset(range(9))
        assert edges_out == {frozenset((i, i + 1)) for i in range(8)}


# ---------------------------------------------------------------------------
# per-skeleton draws


def test_skeleton_view_uniform_canonical():
    k = 4
    g = _colored(random_graph(10, 0.5, 24), k, 24)
    tab = build_tables(g, zero_root=True)
    copies = _colorful_copies(g, k)
    sampler = TreeletSampler(tab, g, stream(16))
    # group oracle copies by skeleton via their edge structure
    by_skel: dict = {}
    for subset, edges in copies:
        deg = Counter()
        for e in edges:
            for u in e:
                deg[u] += 1
        skel = (
            star_skeleton(k)
            if max(deg.values()) == k - 1
            else next(iter(balanced_split_map(k)))
        )
        by_skel.setdefault(skel, set()).add((subset, edges))
    for skel, members in by_skel.items():
        seen = Counter()
        for _ in range(20000):
            nodes, t = sampler.sample_skeleton(skel)
            ident = copy_identity(t.shape.size, t.shape.bits, nodes)
            assert ident in members
            seen[ident] += 1
        assert set(seen) == members
        assert _uniform_pvalue(seen, list(members)) > 1e-3


def test_skeleton_view_unknown_skeleton():
    k = 4
    g = _colored(random_graph(10, 0.5, 25), k, 25)
    tab = build_tables(g, zero_root=True)
    sampler = TreeletSampler(tab, g, stream(17))
    bogus = skeleton_of(3, 0b1010)
    with pytest.raises(NoCopiesError):
        sampler.sample_skeleton(bogus)


# ---------------------------------------------------------------------------
# facade


def test_graphlet_sampler_rejects_other_graph():
    k = 4
    g = _colored(random_graph(10, 0.4, 26), k, 26)
    other = random_graph(10, 0.4, 27)
    tab = build_tables(g, zero_root=True)
    with pytest.raises(MismatchError):
        GraphletSampler(tab, other, stream(18))


def test_graphlet_sampler_canonical_draws_tables_only():
    k = 4
    g = _colored(random_graph(10, 0.45, 28), k, 28)
    tab = build_tables(g, zero_root=True)
    sampler = GraphletSampler(tab, g, stream(19))
    tags = {sampler.sample()[1] for _ in range(500)}
    assert tags == {"treelet"}


def test_graphlet_sampler_skip_mixture_law():
    k = 4
    g = _colored(random_graph(9, 0.55, 30), k, 30)
    tab = build_tables(g, skip_round=True, zero_root=False)
    assert tab.treelet_total > 0 and tab.star_total > 0
    p = colorful_probability(k)
    a = p * tab.star_total
    b = Fraction(tab.treelet_total)
    want_star = float(a / (a + b))
    sampler = GraphletSampler(tab, g, stream(20))
    n = 40000
    stars = sum(1 for _ in range(n) if sampler.sample()[1] == "star")
    se = (want_star * (1 - want_star) / n) ** 0.5
    assert abs(stars / n - want_star) < 5 * se + 1e-9


def test_graphlet_sampler_skip_node_set_law():
    k = 4
    g = _colored(random_graph(9, 0.55, 30), k, 30)
    tab = build_tables(g, skip_round=True, zero_root=False)
    assert tab.treelet_total > 0 and tab.star_total > 0
    p = colorful_probability(k)
    # exact node-set law: mixture of uncolored stars and uniform
    # distinct-colored non-star tree copies
    star_sets = Counter()
    for v in range(g.n):
        for leaves in itertools.combinations(g.neighbors(v).tolist(), k - 1):
            star_sets[frozenset((v, *leaves))] += 1
    mu_of = {sk: info[3] for sk, info in balanced_split_map(k).items()}
    copy_sets = Counter()
    colors = g.colors
    for subset, tree in tree_copies(g, k):
        if len({int(colors[u]) for u in subset}) != k:
            continue
        deg = Counter()
        for a_, b_ in tree:
            deg[a_] += 1
            deg[b_] += 1
        if max(deg.values()) == k - 1:
            continue  # stars live in the other pool
        copy_sets[frozenset(subset)] += 1
    a = p * tab.star_total
    b = Fraction(tab.treelet_total)
    law = {}
    support = set(star_sets) | set(copy_sets)
    for s in support:
        law[s] = float(
            (a / (a + b)) * Fraction(star_sets.get(s, 0), tab.star_total)
            + (b / (a + b)) * Fraction(copy_sets.get(s, 0), tab.treelet_total)
        )
    sampler = GraphletSampler(tab, g, stream(31))
    n = 40000
    seen = Counter(frozenset(sampler.sample()[0]) for _ in range(n))
    assert set(seen) <= support
    support = sorted(support, key=sorted)
    obs = np.array([seen.get(s, 0) for s in support])
    exp = np.array([law[s] * n for s in support])
    keep = exp > 8  # merge thin cells away for the test statistic
    if (~keep).any():
        obs = np.append(obs[keep], obs[~keep].sum())
        exp = np.append(exp[keep], exp[~keep].sum())
    assert stats.chisquare(obs, exp).pvalue > 1e-3


def test_graphlet_sampler_skip_star_skeleton_draws():
    k = 4
    g = _colored(random_graph(9, 0.5, 32), k, 32)
    tab = build_tables(g, skip_round=True, zero_root=False)
    sampler = GraphletSampler(tab, g, stream(33))
    nodes = sampler.sample_skeleton(star_skeleton(k))
    root, leaves = nodes[0], nodes[1:]
    assert all(g.has_edge(root, u) for u in leaves)
    assert len(set(nodes)) == k


def test_graphlet_sampler_empty_everything():
    g = from_edges([(0, 1)]).with_colors(3, np.array([0, 0], dtype=np.int8))
    tab = build_tables(g, skip_round=True, zero_root=False)
    sampler = GraphletSampler(tab, g, stream(34))
    with pytest.raises(NoCopiesError):
        sampler.sample()
