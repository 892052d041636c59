"""Rooted-tree shape encodings and the colored-treelet algebra.

A rooted tree on h nodes is encoded by the 2(h-1) bits of its DFS Euler
tour: the i-th bit is 1 when the i-th edge traversal moves away from the
root and 0 when it moves back towards it.  Children of every node are
kept in non-increasing encoding order, which makes the bitstring a
canonical form: two rooted trees are isomorphic iff their encodings are
equal.  For h <= 16 the encoding fits in 30 bits.

A colored treelet is a shape plus the set of colors spanned by its
nodes, stored as a bitmask.  The set alone suffices: counts aggregate
over all assignments of those colors to nodes.  Treelets are totally
ordered by (size, bits, colorset), compared as integers.

Two treelets combine by attaching the second as the new first child of
the first one's root.  The attachment is legal when the colorsets are
disjoint and the new child's shape is not smaller than the shape of the
current first child, so children stay sorted and every tree is built
along exactly one chain of attachments up to color placement.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

# Sentinel for "no legal merge" in the dense tables.  Indices are padded
# to 16 bits; the all-ones pattern can never be a real index.
FAIL = 0xFFFF

MAX_SIZE = 16


@dataclass(frozen=True, slots=True)
class Shape:
    """Uncolored rooted tree, canonical Euler-tour bits."""

    size: int
    bits: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.size, self.bits)

    def bitstring(self) -> str:
        if self.size == 1:
            return ""
        return format(self.bits, "0%db" % (2 * (self.size - 1)))

    def __repr__(self):
        return "Shape(%d, %s)" % (self.size, self.bitstring() or "-")


@dataclass(frozen=True, slots=True)
class ColoredTreelet:
    shape: Shape
    colors: int

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.shape.size, self.shape.bits, self.colors)

    def __repr__(self):
        return "ColoredTreelet(%d, %s, {%s})" % (
            self.shape.size,
            self.shape.bitstring() or "-",
            ",".join(str(c) for c in iter_colors(self.colors)),
        )


def iter_colors(mask: int):
    c = 0
    while mask:
        if mask & 1:
            yield c
        mask >>= 1
        c += 1


def singleton(color: int) -> ColoredTreelet:
    if color < 0:
        raise ValueError("color must be nonnegative")
    return ColoredTreelet(Shape(1, 0), 1 << color)


@functools.lru_cache(maxsize=None)
def children_of(size: int, bits: int) -> tuple[tuple[int, int], ...]:
    """Subtrees hanging off the root, in encoding order (non-increasing)."""
    if size == 1:
        return ()
    length = 2 * (size - 1)
    out = []
    depth = 0
    start = 0
    for i in range(length):
        if (bits >> (length - 1 - i)) & 1:
            if depth == 0:
                start = i
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                # child substring occupies positions start+1 .. i-1
                clen = i - 1 - start
                cbits = (bits >> (length - i)) & ((1 << clen) - 1)
                out.append((clen // 2 + 1, cbits))
    return tuple(out)


def first_child(size: int, bits: int) -> tuple[int, int]:
    """Largest child subtree of the root (the most recently attached one)."""
    ch = children_of(size, bits)
    if not ch:
        raise ValueError("singleton has no children")
    return ch[0]


def merge_shapes(s1: tuple[int, int], s2: tuple[int, int]):
    """Attach s2 as the new first child of s1's root.

    Returns the merged (size, bits) or None when s2 is smaller than
    s1's current first child; the caller checks size bounds.
    """
    n1, b1 = s1
    n2, b2 = s2
    if n1 > 1 and (n2, b2) < first_child(n1, b1):
        return None
    l1 = 2 * (n1 - 1)
    l2 = 2 * (n2 - 1)
    merged = (1 << (l2 + 1 + l1)) | (b2 << (1 + l1)) | b1
    return (n1 + n2, merged)


def beta(shape: Shape) -> int:
    """Number of root children tied with the first child in shape.

    This is the overcount factor of the pairwise accumulation: a copy of
    the merged tree arises once per root child whose subtree matches the
    attached part, so the dynamic program divides by it.
    """
    if shape.size == 1:
        return 1
    ch = children_of(shape.size, shape.bits)
    b = 1
    while b < len(ch) and ch[b] == ch[0]:
        b += 1
    return b


def merge(t1: ColoredTreelet, t2: ColoredTreelet, max_size: int = MAX_SIZE):
    """Combine two colored treelets; None means no legal combination.

    Colorset overlap and child-order violations are legal negative
    answers.  A combined size beyond max_size is a caller error.
    """
    if t1.shape.size + t2.shape.size > max_size:
        raise ValueError(
            "merged size %d exceeds limit %d" % (t1.shape.size + t2.shape.size, max_size)
        )
    if t1.colors & t2.colors:
        return None
    m = merge_shapes(t1.shape.key, t2.shape.key)
    if m is None:
        return None
    return ColoredTreelet(Shape(*m), t1.colors | t2.colors)


def canonical_decompose(t: ColoredTreelet) -> tuple[ColoredTreelet, ColoredTreelet]:
    """Undo one attachment: split off the first child subtree of the root.

    The colorset is a set, not an assignment, so the split hands the
    lowest colors to the detached child; any split re-merges to t.
    """
    if t.shape.size == 1:
        raise ValueError("cannot decompose a singleton")
    n, b = t.shape.key
    c2 = children_of(n, b)[0]
    l1 = 2 * (n - c2[0] - 1)
    b1 = t.shape.bits & ((1 << l1) - 1)
    s1 = (n - c2[0], b1)
    mask2 = 0
    need = c2[0]
    for c in iter_colors(t.colors):
        mask2 |= 1 << c
        need -= 1
        if need == 0:
            break
    t1 = ColoredTreelet(Shape(*s1), t.colors & ~mask2)
    t2 = ColoredTreelet(Shape(*c2), mask2)
    return t1, t2


@functools.lru_cache(maxsize=None)
def enumerate_shapes(max_size: int) -> tuple[tuple[Shape, ...], ...]:
    """All rooted shapes on 1..max_size nodes, closure under merging.

    Index s of the result holds the sorted shapes of size s+1.
    """
    if max_size < 1 or max_size > MAX_SIZE:
        raise ValueError("size out of range")
    by_size: list[set[tuple[int, int]]] = [set() for _ in range(max_size + 1)]
    by_size[1].add((1, 0))
    for h in range(2, max_size + 1):
        for h1 in range(1, h):
            h2 = h - h1
            for s1 in by_size[h1]:
                for s2 in by_size[h2]:
                    m = merge_shapes(s1, s2)
                    if m is not None:
                        by_size[h].add(m)
    return tuple(
        tuple(Shape(*k) for k in sorted(by_size[h])) for h in range(1, max_size + 1)
    )


def enumerate_colored(k: int) -> list[ColoredTreelet]:
    """All colored treelets on at most k nodes over colors 0..k-1.

    Generated by closing the singleton set under legal merges, then
    sorted by the total order.  For k = 8 there are 1991 of them.
    """
    if k < 1 or k > MAX_SIZE:
        raise ValueError("k out of range")
    by_size: list[set[tuple[int, int, int]]] = [set() for _ in range(k + 1)]
    for c in range(k):
        by_size[1].add((1, 0, 1 << c))
    for h in range(2, k + 1):
        seen = by_size[h]
        for h1 in range(1, h):
            h2 = h - h1
            for n1, b1, c1 in by_size[h1]:
                fc = first_child(n1, b1) if n1 > 1 else None
                for n2, b2, c2 in by_size[h2]:
                    if c1 & c2:
                        continue
                    if fc is not None and (n2, b2) < fc:
                        continue
                    l1 = 2 * (n1 - 1)
                    l2 = 2 * (n2 - 1)
                    merged = (1 << (l2 + 1 + l1)) | (b2 << (1 + l1)) | b1
                    seen.add((h, merged, c1 | c2))
    out = [
        ColoredTreelet(Shape(n, b), c)
        for h in range(1, k + 1)
        for (n, b, c) in sorted(by_size[h])
    ]
    return out


# ---------------------------------------------------------------------------
# structure decoding, re-rooting, skeletons


def decode_adjacency(size: int, bits: int) -> list[list[int]]:
    """Rebuild an adjacency list from the Euler bits; node 0 is the root."""
    adj: list[list[int]] = [[] for _ in range(size)]
    length = 2 * (size - 1)
    cur = 0
    nxt = 1
    stack = [0]
    for i in range(length):
        if (bits >> (length - 1 - i)) & 1:
            adj[cur].append(nxt)
            adj[nxt].append(cur)
            stack.append(nxt)
            cur = nxt
            nxt += 1
        else:
            stack.pop()
            cur = stack[-1]
    return adj


def encode_rooted(adj: list[list[int]], root: int, colors=None) -> tuple[int, int]:
    """Canonical (size, bits) of the tree in adj rooted at root.

    colors, when given, breaks ties between equal-shape siblings; the
    bits themselves never depend on it.
    """

    def walk(v: int, parent: int):
        subs = [walk(u, v) for u in adj[v] if u != parent]
        subs.sort(reverse=True)
        size = 1
        bits = 0
        length = 0
        for key in subs:
            ssize, sbits = key[0], key[1]
            slen = 2 * (ssize - 1)
            bits = (bits << (slen + 2)) | (1 << (slen + 1)) | (sbits << 1)
            length += slen + 2
            size += ssize
        if colors is None:
            return (size, bits)
        cmask = 1 << colors[v]
        for key in subs:
            cmask |= key[2]
        return (size, bits, cmask)

    res = walk(root, -1)
    return (res[0], res[1])


@functools.lru_cache(maxsize=None)
def skeleton_of(size: int, bits: int) -> tuple[int, int]:
    """Canonical form of the underlying unrooted tree: min over rootings."""
    if size == 1:
        return (1, 0)
    adj = decode_adjacency(size, bits)
    return min(encode_rooted(adj, r) for r in range(size))


@functools.lru_cache(maxsize=None)
def rooting_multiplicity(size: int, bits: int, rep_bits: int) -> int:
    """How many rootings of the skeleton reproduce the given rooted form."""
    adj = decode_adjacency(size, bits)
    return sum(1 for r in range(size) if encode_rooted(adj, r) == (size, rep_bits))


def star_skeleton(k: int) -> tuple[int, int]:
    """Skeleton of the k-node star (every tree on <= 3 nodes is one)."""
    if k == 1:
        return (1, 0)
    bits = 0
    for _ in range(k - 1):
        bits = (bits << 2) | 0b10
    return skeleton_of(k, bits)


def is_star(size: int, bits: int) -> bool:
    if size <= 3:
        return True
    adj = decode_adjacency(size, bits)
    return max(len(a) for a in adj) == size - 1


# ---------------------------------------------------------------------------
# balanced decomposition (for skipping the size k-1 round)


@functools.lru_cache(maxsize=None)
def balanced_decompose(shape: Shape) -> tuple[Shape, Shape, Shape]:
    """Split a k-node non-star tree into parts of size 2..k-2.

    Every non-star tree has an edge whose removal leaves both sides
    with at most k-2 nodes.  Among rootings where cutting the first
    child achieves that, the one with the smallest encoding is the
    deterministic representative.  Returns (representative, remainder,
    first child); re-merging the last two yields the representative.
    """
    k = shape.size
    if is_star(k, shape.bits):
        raise ValueError("a star admits no balanced split")
    adj = decode_adjacency(k, shape.bits)
    best = None
    for r in range(k):
        enc = encode_rooted(adj, r)
        fc = first_child(*enc)
        if 2 <= fc[0] <= k - 2 and (best is None or enc < best):
            best = enc
    if best is None:  # unreachable for non-stars; guard stays anyway
        raise ValueError("no balanced split found")
    c2 = first_child(*best)
    l1 = 2 * (k - c2[0] - 1)
    s1 = (k - c2[0], best[1] & ((1 << l1) - 1))
    return Shape(*best), Shape(*s1), Shape(*c2)


@functools.lru_cache(maxsize=None)
def balanced_split_map(k: int):
    """Per non-star k-skeleton: representative, parts, and the number of
    rootings of the skeleton that look like the representative."""
    out = {}
    for shape in enumerate_shapes(k)[k - 1]:
        skel = skeleton_of(shape.size, shape.bits)
        if skel in out or is_star(*skel):
            continue
        rep, s1, s2 = balanced_decompose(Shape(*skel))
        mu = rooting_multiplicity(rep.size, rep.bits, rep.bits)
        out[skel] = (rep, s1, s2, mu)
    return out


# ---------------------------------------------------------------------------
# dense tables for k <= 8


class TreeletTables:
    """Dense index tables over all colored treelets on <= k <= 8 nodes.

    Treelets get consecutive indices in the total order; merge, divisor
    and skeleton lookups become array reads.  The arrays rebuild
    deterministically in a few seconds.
    """

    def __init__(self, k: int):
        if not 1 <= k <= 8:
            raise ValueError("dense tables support k <= 8 only")
        self.k = k
        treelets = enumerate_colored(k)
        self.treelets = treelets
        self.n = len(treelets)
        self.index = {t.key: i for i, t in enumerate(treelets)}

        self.size = np.array([t.shape.size for t in treelets], dtype=np.int8)
        self.bits = np.array([t.shape.bits for t in treelets], dtype=np.int32)
        self.colors = np.array([t.colors for t in treelets], dtype=np.int32)

        shapes = [s for group in enumerate_shapes(k) for s in group]
        self.shape_list = shapes
        shape_index = {s.key: i for i, s in enumerate(shapes)}
        self.shape_id = np.array(
            [shape_index[t.shape.key] for t in treelets], dtype=np.int16
        )
        self.beta_by_shape = np.array([beta(s) for s in shapes], dtype=np.int8)
        self.beta_table = self.beta_by_shape[self.shape_id]

        skels = {}
        self.skeleton_by_shape = np.empty(len(shapes), dtype=np.int16)
        self.skeleton_list: list[tuple[int, int]] = []
        for i, s in enumerate(shapes):
            sk = skeleton_of(s.size, s.bits)
            if sk not in skels:
                skels[sk] = len(self.skeleton_list)
                self.skeleton_list.append(sk)
            self.skeleton_by_shape[i] = skels[sk]
        self.skeleton_index = skels
        self.skeleton_table = self.skeleton_by_shape[self.shape_id]

        self._build_merge_tables(shape_index)

    # -- construction ------------------------------------------------------

    def _row_ids(self):
        """Vectorized helper arrays for pairwise merging."""
        size = self.size.astype(np.int64)
        bits = self.bits.astype(np.int64)
        fc_size = np.zeros(self.n, dtype=np.int64)
        fc_bits = np.zeros(self.n, dtype=np.int64)
        for i in range(self.n):
            if size[i] > 1:
                fs, fb = first_child(int(size[i]), int(bits[i]))
                fc_size[i] = fs
                fc_bits[i] = fb
        return size, bits, fc_size, fc_bits

    def _key_of(self, size, bits, colors):
        # 46-bit packed key, plus size on top to keep the total order
        return (size.astype(np.int64) << 46) | (bits.astype(np.int64) << 16) | colors

    def _build_merge_tables(self, shape_index):
        size, bits, fc_size, fc_bits = self._row_ids()
        colors = self.colors.astype(np.int64)
        sorted_keys = self._key_of(self.size, self.bits, colors)
        order = np.argsort(sorted_keys, kind="stable")
        skey = sorted_keys[order]

        s1 = size[:, None]
        b1 = bits[:, None]
        s2 = size[None, :]
        b2 = bits[None, :]
        l1 = 2 * (s1 - 1)
        l2 = 2 * (s2 - 1)
        ok = (s1 + s2 <= self.k) & ((colors[:, None] & colors[None, :]) == 0)
        # shape guard: new child >= current first child, vacuous for singletons
        guard = (s1 == 1) | (s2 > fc_size[:, None]) | (
            (s2 == fc_size[:, None]) & (b2 >= fc_bits[:, None])
        )
        ok &= guard
        mbits = (1 << (l2 + 1 + l1)) | (b2 << (1 + l1)) | b1
        mkey = ((s1 + s2) << 46) | (mbits << 16) | (colors[:, None] | colors[None, :])
        pos = np.searchsorted(skey, np.where(ok, mkey, 0))
        pos = np.clip(pos, 0, self.n - 1)
        hit = ok & (skey[pos] == mkey)
        table = np.full((self.n, self.n), FAIL, dtype=np.uint16)
        table[hit] = order[pos[hit]].astype(np.uint16)
        self.merge_table = table

        # final-round variant: only pairs that realize the balanced
        # representative of some non-star k-skeleton
        bmap = balanced_split_map(self.k)
        self.balanced_info = {}  # skeleton id -> (rep treelet shape id, mu)
        allowed = {}
        for skel, (rep, p1, p2, mu) in bmap.items():
            sid = self.skeleton_index[skel]
            self.balanced_info[sid] = (shape_index[rep.key], mu)
            allowed[(shape_index[p1.key], shape_index[p2.key])] = shape_index[rep.key]
        bal = np.full((self.n, self.n), FAIL, dtype=np.uint16)
        if allowed:
            pair_ok = np.zeros((self.n, self.n), dtype=bool)
            ids1 = self.shape_id[:, None]
            ids2 = self.shape_id[None, :]
            for (a, b) in allowed:
                pair_ok |= (ids1 == a) & (ids2 == b)
            keep = hit & pair_ok
            bal[keep] = table[keep]
        self.merge_table_balanced = bal

    # -- lookups -----------------------------------------------------------

    def to_code(self, t: ColoredTreelet) -> int:
        return self.index[t.key]

    def from_code(self, i: int) -> ColoredTreelet:
        return self.treelets[i]

    def codes_of_size(self, h: int) -> np.ndarray:
        return np.nonzero(self.size == h)[0]


@functools.lru_cache(maxsize=8)
def tables_for(k: int) -> TreeletTables:
    return TreeletTables(k)
