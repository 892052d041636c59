"""Uniform draws of colorful treelet copies, stars, and graphlet sets.

Root nodes come from an alias table over per-node record totals, the
entry at the root from a binary search on the record's running sums,
and the concrete copy by walking the entry's own accumulation
backwards: at every split the (neighbor, colorset) products that summed
to the stored count are re-enumerated and one is picked with
probability proportional to its weight.  The enumeration reaches every
concrete copy once per root child tied with the first child, which is
exactly the divisor the build applied, so the pick is uniform over
copies.

Every choice is made with exact integer weights from the tables; no
floating point touches the selection, so a seeded run reproduces bit
for bit.
"""

import itertools
import math

import numpy as np

from . import treelets
from .errors import MismatchError, MotifkitError, NoCopiesError
from .estimates import colorful_probability
from .rng import randint_below
from .tables import _unpack_key
from .treelets import (
    ColoredTreelet,
    Shape,
    balanced_split_map,
    canonical_decompose,
    iter_colors,
    skeleton_of,
    star_skeleton,
)


class AliasTable:
    """O(1) draws proportional to integer weights (two-choice method).

    Slot masses are kept as exact integers out of n * total, so the
    sampling law is exactly proportional to the input weights.
    """

    def __init__(self, weights):
        weights = [int(w) for w in weights]
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        total = sum(weights)
        if total <= 0:
            raise ValueError("all weights are zero")
        n = len(weights)
        self.n = n
        self.total = total
        scaled = [w * n for w in weights]
        self.alias = list(range(n))
        small = [i for i, x in enumerate(scaled) if x < total]
        large = [i for i, x in enumerate(scaled) if x > total]
        while small and large:
            s = small.pop()
            big = large[-1]
            self.alias[s] = big
            scaled[big] -= total - scaled[s]
            if scaled[big] < total:
                large.pop()
                small.append(big)
            elif scaled[big] == total:
                large.pop()
        # integer mass is conserved, so small and large empty together
        self.share = scaled

    def draw(self, rng) -> int:
        slot = randint_below(rng, self.n)
        if randint_below(rng, self.total) < self.share[slot]:
            return slot
        return self.alias[slot]


def _floyd_subset(rng, nbrs, m: int) -> list:
    """Uniform m-subset of an array, in O(m) draws."""
    d = len(nbrs)
    chosen = set()
    out = []
    for j in range(d - m, d):
        t = randint_below(rng, j + 1)
        pick = int(nbrs[t])
        if pick in chosen:
            pick = int(nbrs[j])
        chosen.add(pick)
        out.append(pick)
    return out


class StarSampler:
    """Uniform uncolored k-stars: root first, then k-1 of its neighbors.

    Roots are drawn proportionally to (degree choose k-1), which is the
    number of star copies centered there.
    """

    def __init__(self, g, k: int, rng):
        self.g = g
        self.k = k
        self.rng = rng
        deg = np.diff(g.indptr)
        self.weights = [math.comb(int(d), k - 1) for d in deg]
        self.total = sum(self.weights)
        self._alias = None

    def sample(self) -> list:
        if self.total == 0:
            raise NoCopiesError("no node has enough neighbors for a star")
        if self._alias is None:
            self._alias = AliasTable(self.weights)
        v = self._alias.draw(self.rng)
        return [v, *_floyd_subset(self.rng, self.g.neighbors(v), self.k - 1)]


# ---------------------------------------------------------------------------
# treelet copies out of count tables


def _locate(rnd, v: int, x: int) -> int:
    """Record index at node v holding running-sum position x."""
    lo, hi = int(rnd.offsets[v]), int(rnd.offsets[v + 1])
    return lo + int(np.searchsorted(rnd.cum[lo:hi], x, side="right"))


class TreeletSampler:
    """Uniform draws of stored full-size entries, unrolled to copies.

    Every stored rooted entry is equally likely.  Each concrete copy
    owns a constant number of stored rootings within its skeleton (one
    when zero-rooted, k in the all-rootings regime, the representative
    rooting count under round skipping), so draws restricted to one
    skeleton are always uniform over copies; global draws from skipped
    tables need the caller to level the per-skeleton multiplicity.
    """

    def __init__(self, tables, g, rng):
        self.tables = tables
        self.g = g
        self.rng = rng
        self.k = tables.k
        self._root_alias = None
        self._views: dict[tuple[int, int], _SkeletonView] = {}

    def sample(self):
        """One stored entry drawn by weight: (node list, colored treelet)."""
        rnd = self.tables.rounds[self.k]
        if self._root_alias is None:
            etas = [rnd.eta(v) for v in range(self.tables.n)]
            if not any(etas):
                raise NoCopiesError("the table holds no full-size treelets")
            self._root_alias = AliasTable(etas)
        v = self._root_alias.draw(self.rng)
        idx = _locate(rnd, v, randint_below(self.rng, rnd.eta(v)))
        t, cnt = self._entry(rnd, idx)
        return self._unroll(v, t, cnt), t

    def sample_skeleton(self, skeleton: tuple):
        """Like sample(), restricted to entries of one unrooted shape."""
        view = self._views.get(skeleton)
        if view is None:
            view = _SkeletonView(self, skeleton)
            self._views[skeleton] = view
        return view.sample()

    # -- internals

    def _entry(self, rnd, idx: int):
        cnt = int(rnd.cnt[idx])
        key = int(rnd.keys[idx])
        if rnd.dense_keys:
            return self.tables.ite.from_code(key), cnt
        size, bits, colors = _unpack_key(key)
        return ColoredTreelet(Shape(size, bits), colors), cnt

    def _unroll(self, v: int, t: ColoredTreelet, cnt: int) -> list:
        """Rebuild the concrete copy behind one counted entry.

        The accumulated products over (neighbor, child colorset) total
        the entry count times the divisor of its shape; a weighted pick
        over them, recursed into both parts, is a uniform copy.
        """
        if t.shape.size == 1:
            return [v]
        part1, part2 = canonical_decompose(t)
        s1, s2 = part1.shape, part2.shape
        x = randint_below(self.rng, treelets.beta(t.shape) * cnt)
        nbrs = self.g.neighbors(v)
        count = self.tables.count
        for sub in itertools.combinations(iter_colors(t.colors), s2.size):
            mask = 0
            for c in sub:
                mask |= 1 << c
            c1 = ColoredTreelet(s1, t.colors & ~mask)
            w1 = count(s1.size, v, c1)
            if w1 == 0:
                continue
            c2 = ColoredTreelet(s2, mask)
            for u in nbrs:
                w2 = count(s2.size, int(u), c2)
                if w2 == 0:
                    continue
                step = w1 * w2
                if x < step:
                    return self._unroll(v, c1, w1) + self._unroll(int(u), c2, w2)
                x -= step
        raise MotifkitError("stored count does not match its expansion")


def _skeleton_flags(tables, rnd, skeleton: tuple):
    """Per-record membership of the final round in one skeleton."""
    if rnd.dense_keys:
        ite = tables.ite
        want = ite.skeleton_index.get(skeleton)
        if want is None:
            return np.zeros(rnd.entries(), dtype=bool)
        return ite.skeleton_table[rnd.keys] == want
    flags = np.empty(rnd.entries(), dtype=bool)
    for i, key in enumerate(rnd.keys.tolist()):
        size, bits, _colors = _unpack_key(int(key))
        flags[i] = skeleton_of(size, bits) == skeleton
    return flags


class _SkeletonView:
    """Final-round records filtered to one skeleton, with node weights."""

    def __init__(self, sampler: TreeletSampler, skeleton: tuple):
        tables = sampler.tables
        rnd = tables.rounds[tables.k]
        flags = _skeleton_flags(tables, rnd, skeleton)
        self.rec: list[int] = []
        self.starts = [0]
        weights = []
        offs = rnd.offsets
        for v in range(tables.n):
            w = 0
            for i in range(int(offs[v]), int(offs[v + 1])):
                if flags[i]:
                    self.rec.append(i)
                    w += int(rnd.cnt[i])
            self.starts.append(len(self.rec))
            weights.append(w)
        self.weights = weights
        self.total = sum(weights)
        self._alias = AliasTable(weights) if self.total else None
        self.rnd = rnd
        self.sampler = sampler

    def sample(self):
        if self._alias is None:
            raise NoCopiesError("no copies span this skeleton")
        s = self.sampler
        v = self._alias.draw(s.rng)
        x = randint_below(s.rng, self.weights[v])
        for i in self.rec[self.starts[v] : self.starts[v + 1]]:
            c = int(self.rnd.cnt[i])
            if x < c:
                t, cnt = s._entry(self.rnd, i)
                return s._unroll(v, t, cnt), t
            x -= c
        raise MotifkitError("skeleton weights out of sync")


# ---------------------------------------------------------------------------
# graphlet-level facade


class GraphletSampler:
    """Uniform k-node samples from a table set plus, for round-skipped
    tables, natively drawn uncolored stars in commensurable proportion.

    The star pool is weighted by the colorful probability so one
    uncolored star counts like its expected number of colorful
    appearances; the treelet pool is levelled across skeletons by
    thinning with the representative rooting count.
    """

    def __init__(self, tables, g, rng):
        if tables.n != g.n or tables.graph_hash != g.content_hash():
            raise MismatchError("tables were built from a different graph")
        self.tables = tables
        self.g = g
        self.rng = rng
        self.k = tables.k
        self.treelets = TreeletSampler(tables, g, rng)
        if tables.skip_round:
            self.stars = StarSampler(g, tables.k, rng)
            p = colorful_probability(tables.k, tables.lam)
            self._star_weight = p.numerator * tables.star_total
            self._table_weight = p.denominator * tables.treelet_total
            self._mu = {sk: info[3] for sk, info in balanced_split_map(tables.k).items()}
        else:
            self.stars = None
            self._star_weight = 0
            self._table_weight = tables.treelet_total
            self._mu = None

    def sample(self):
        """One k-node copy and its source tag, "star" or "treelet"."""
        total = self._star_weight + self._table_weight
        if total == 0:
            raise NoCopiesError("no k-node copies exist to sample")
        if self._star_weight and randint_below(self.rng, total) < self._star_weight:
            return self.stars.sample(), "star"
        return self._table_copy(), "treelet"

    def sample_skeleton(self, skeleton: tuple) -> list:
        """Uniform copy among those spanned by one treelet skeleton; on
        skipped tables the star skeleton draws uncolored stars."""
        if self.stars is not None and skeleton == star_skeleton(self.k):
            return self.stars.sample()
        return self.treelets.sample_skeleton(skeleton)[0]

    def _table_copy(self) -> list:
        while True:
            nodes, t = self.treelets.sample()
            if self._mu is None:
                return nodes
            mu = self._mu[skeleton_of(t.shape.size, t.shape.bits)]
            if mu == 1 or randint_below(self.rng, mu) == 0:
                return nodes
