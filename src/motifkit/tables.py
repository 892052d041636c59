"""Per-node treelet count tables: dynamic program, queries, files.

Counting proceeds in rounds by treelet size.  Round 1 holds one
singleton per node; round h combines, for every node v and neighbor u,
entry pairs from earlier rounds whose sizes sum to h.  Each legal
combination accumulates the product of the two counts into the combined
treelet at v, and the total is divided by the combined shape's leading
child multiplicity, which is exactly how many times each concrete copy
was produced.  Counts are exact integers throughout.

Two final-round regimes exist:

* canonical: size-k rooted treelets are produced the same way as the
  intermediate rounds.  With zero_root, size-k entries are stored only
  at color-0 nodes; a size-k treelet spans all k colors, so each
  colorful copy is stored exactly once.
* skip_round: round k-1 is never built.  Only non-star k-shapes are
  counted, each at its balanced representative rooting assembled from
  two parts of size 2..k-2; stars are summarized by the closed form
  S = sum_v C(deg v, k-1) and sampled directly.  A copy may admit
  several representative rootings (mu per shape); stored records keep
  that multiplicity and the per-shape totals divide it back out.

Records are sorted by key; cumulative sums give O(log) membership and
rank-based sampling.  On disk each round is one position-indexable
file; payload entries are either fixed width (48-bit key plus 128-bit
cumulative count) or variable length (16-bit header plus 1..32 raw
count bytes, dense-index keys).  Integers are little-endian.
"""

import functools
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import treelets
from .errors import CapacityError, MismatchError, MotifkitError
from .graph import ColoredGraph
from .treelets import FAIL, Shape, balanced_split_map, tables_for

_TABLE_MAGIC = b"MCT1"
_COUNT_LIMIT = 1 << 256  # ceiling for any single stored count
_CUM_LIMIT = 1 << 128  # fixed-width cumulative field
_INT64_SAFE = 1 << 62
_MAX_CELLS = 1 << 22  # pairwise product matrix slab size

_FLAG_VLC = 1
_FLAG_ZERO_ROOT = 2
_FLAG_SKIP_ROUND = 4
_FLAG_BIASED = 8

_HEADER = struct.Struct("<4sBBBxqd")  # magic, k, h, flags, pad, n, lambda


def _pack_key(size: int, bits: int, colors: int) -> int:
    return (size << 46) | (bits << 16) | colors


def _unpack_key(key: int) -> tuple[int, int, int]:
    return key >> 46, (key >> 16) & ((1 << 30) - 1), key & 0xFFFF


def round_sizes(k: int, skip_round: bool) -> list[int]:
    if skip_round:
        return sorted({1, *range(2, k - 1), k})
    return list(range(1, k + 1))


def _split_sizes(h: int, k: int, skip_round: bool) -> list[tuple[int, int]]:
    if h == k and skip_round:
        return [(a, h - a) for a in range(2, h - 1) if h - a <= k - 2]
    return [(a, h - a) for a in range(1, h)]


class Round:
    """One size class of records: per node, sorted keys plus counts."""

    def __init__(self, h, offsets, keys, cnt, dense_keys):
        self.h = h
        self.offsets = offsets  # int64, length n+1
        self.keys = keys  # int32 dense indices (k <= 8) or int64 packed keys
        self.cnt = cnt  # int64, or object (Python ints) once a count reaches _INT64_SAFE
        self.dense_keys = dense_keys
        self._cum = None

    @property
    def cum(self):
        """Running count sums, restarting at every node."""
        if self._cum is None:
            sizes = np.diff(self.offsets)
            # int64 holds every per-node sum only while the largest
            # count times the longest record stays below 2^63
            wide = self.cnt.dtype == object or (
                self.entries() > 0
                and int(self.cnt.max()) * int(sizes.max()) >= 1 << 63
            )
            # the global running sum may pass 2^63, so narrow counts
            # subtract in wrapping uint64 space
            total = np.cumsum(self.cnt.astype(object if wide else np.uint64))
            prefix = np.concatenate((np.zeros(1, dtype=total.dtype), total))
            cum = total - np.repeat(prefix[self.offsets[:-1]], sizes)
            self._cum = cum if wide else cum.astype(np.int64)
        return self._cum

    def record(self, v):
        lo, hi = int(self.offsets[v]), int(self.offsets[v + 1])
        return self.keys[lo:hi], self.cnt[lo:hi]

    def eta(self, v) -> int:
        lo, hi = int(self.offsets[v]), int(self.offsets[v + 1])
        if lo == hi:
            return 0
        return int(self.cum[hi - 1])

    def count_at(self, v, key) -> int:
        lo, hi = int(self.offsets[v]), int(self.offsets[v + 1])
        i = lo + int(np.searchsorted(self.keys[lo:hi], key))
        if i < hi and int(self.keys[i]) == int(key):
            return int(self.cnt[i])
        return 0

    def entries(self) -> int:
        return len(self.keys)


def _count_array(counts: list) -> np.ndarray:
    """int64 while every count stays below _INT64_SAFE, else Python ints."""
    if all(c < _INT64_SAFE for c in counts):
        return np.array(counts, dtype=np.int64)
    return np.array(counts, dtype=object)


def _round_eta_max(rnd: Round) -> int:
    if rnd.entries() == 0:
        return 0
    ends = rnd.offsets[1:]
    nz = ends > rnd.offsets[:-1]
    return int(rnd.cum[ends[nz] - 1].max())


@dataclass
class TableSet:
    k: int
    n: int
    graph_hash: str
    skip_round: bool
    zero_root: bool
    vlc: bool
    lam: float | None
    rounds: dict[int, Round]
    star_total: int = 0
    treelet_total: int = 0
    skeleton_totals: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def ite(self):
        return tables_for(self.k) if self.k <= 8 else None

    def eta(self, h: int, v: int) -> int:
        return self.rounds[h].eta(v)

    def count(self, h: int, v: int, t: treelets.ColoredTreelet) -> int:
        rnd = self.rounds[h]
        if rnd.dense_keys:
            code = self.ite.index.get(t.key)
            if code is None:
                return 0
            return rnd.count_at(v, code)
        return rnd.count_at(v, _pack_key(*t.key))

    def flags(self) -> int:
        f = 0
        if self.vlc:
            f |= _FLAG_VLC
        if self.zero_root:
            f |= _FLAG_ZERO_ROOT
        if self.skip_round:
            f |= _FLAG_SKIP_ROUND
        if self.lam is not None:
            f |= _FLAG_BIASED
        return f

    def save(self, out_dir, extra_meta=None):
        """Write one file per round, then meta.json."""
        os.makedirs(out_dir, exist_ok=True)
        for h, rnd in sorted(self.rounds.items()):
            _write_round(os.path.join(out_dir, f"round_{h:02d}.mct"), self, rnd)
        meta = {
            "format": "mct-dir-1",
            "k": self.k,
            "n": self.n,
            "graph_hash": self.graph_hash,
            "skip_round": self.skip_round,
            "zero_root": self.zero_root,
            "vlc": self.vlc,
            "lambda": self.lam,
            "star_total": str(self.star_total),
            "treelet_total": str(self.treelet_total),
            "rounds": sorted(self.rounds),
        }
        if extra_meta:
            meta.update(extra_meta)
        tmp = os.path.join(out_dir, "meta.json.tmp")
        with open(tmp, "wt", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, os.path.join(out_dir, "meta.json"))


# ---------------------------------------------------------------------------
# variable-length count encoding


def vlc_encode(key: int, count: int) -> bytes:
    """Header packs an 11-bit key with a 5-bit (length - 1); the count
    follows as that many raw little-endian bytes, minimal width."""
    if not 0 <= key < 2048:
        raise ValueError("key must fit in 11 bits")
    if count < 1:
        raise ValueError("count must be positive")
    if count >= _COUNT_LIMIT:
        raise CapacityError("count needs more than 256 bits")
    ell = (count.bit_length() + 7) // 8
    header = ((ell - 1) << 11) | key
    return header.to_bytes(2, "little") + count.to_bytes(ell, "little")


def vlc_decode(buf, pos: int = 0) -> tuple[int, int, int]:
    """Returns (key, count, bytes consumed)."""
    header = int.from_bytes(buf[pos : pos + 2], "little")
    ell = (header >> 11) + 1
    key = header & 0x7FF
    count = int.from_bytes(buf[pos + 2 : pos + 2 + ell], "little")
    return key, count, 2 + ell


# ---------------------------------------------------------------------------
# round files


def _encode_record(vlc: bool, packed, keys: list, cnt: list) -> bytes:
    """One node's payload; packed maps dense keys to their 46-bit form
    and is None for packed keys."""
    if vlc:
        return b"".join(vlc_encode(key, c) for key, c in zip(keys, cnt))
    out = bytearray()
    run = 0
    for key, c in zip(keys, cnt):
        run += c
        if run >= _CUM_LIMIT:
            raise CapacityError("cumulative count needs more than 128 bits")
        key = packed[key] if packed is not None else key & ((1 << 46) - 1)
        out += key.to_bytes(6, "little")
        out += run.to_bytes(16, "little")
    return bytes(out)


def _write_round(path, t: TableSet, rnd: Round):
    """One round file, records in node order.  The payload checksum and
    the node offsets are known only after the payload, so their slots
    are filled in last."""
    packed = None
    if rnd.dense_keys:
        ite = t.ite
        packed = ((ite.bits.astype(np.int64) << 16) | ite.colors).tolist()
    elif t.vlc:
        raise MotifkitError("variable-length payload requires dense keys")
    is_final = rnd.h == t.k
    skels = sorted(t.skeleton_totals) if is_final else []
    offs = rnd.offsets.tolist()
    keys = rnd.keys.tolist()
    cnt = rnd.cnt.tolist()
    offsets = np.zeros(t.n + 1, dtype="<u8")
    crc = 0
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                _TABLE_MAGIC, t.k, rnd.h, t.flags(), t.n,
                t.lam if t.lam is not None else 0.0,
            )
        )
        fh.write((t.star_total if is_final else 0).to_bytes(16, "little"))
        fh.write((t.treelet_total if is_final else 0).to_bytes(16, "little"))
        fh.write(struct.pack("<I", len(skels)))
        for sk in skels:
            fh.write(struct.pack("<BI", sk[0], sk[1]))
            fh.write(t.skeleton_totals[sk].to_bytes(16, "little"))
        crc_at = fh.tell()
        fh.write(bytes(4 + offsets.nbytes))
        pos = 0
        for v in range(t.n):
            lo, hi = offs[v], offs[v + 1]
            if lo < hi:
                blob = _encode_record(t.vlc, packed, keys[lo:hi], cnt[lo:hi])
                fh.write(blob)
                crc = zlib.crc32(blob, crc)
                pos += len(blob)
            offsets[v + 1] = pos
        fh.seek(crc_at)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))
        fh.write(offsets.tobytes())


def _read_round_file(path, k: int, h: int, n: int):
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise MismatchError(f"missing round file: {e}") from e
    with fh:
        size = os.fstat(fh.fileno()).st_size

        def take(count: int) -> bytes:
            buf = fh.read(count)
            if len(buf) < count:
                raise MismatchError(f"{path}: truncated round file")
            return buf

        magic, fk, file_h, flags, file_n, _lam = _HEADER.unpack(take(_HEADER.size))
        if magic != _TABLE_MAGIC:
            raise MismatchError(f"{path}: not a count table")
        if fk != k:
            raise MismatchError(f"{path}: table built for k={fk}, expected {k}")
        if file_h != h or file_n != n:
            raise MismatchError(f"{path}: header disagrees with the manifest")
        star_total = int.from_bytes(take(16), "little")
        treelet_total = int.from_bytes(take(16), "little")
        (nskel,) = struct.unpack("<I", take(4))
        skeleton_totals = {}
        for _ in range(nskel):
            skel = struct.unpack("<BI", take(5))
            skeleton_totals[skel] = int.from_bytes(take(16), "little")
        (crc_expect,) = struct.unpack("<I", take(4))
        if 8 * (n + 1) > size - fh.tell():
            raise MismatchError(f"{path}: truncated round file")
        offsets = np.frombuffer(take(8 * (n + 1)), dtype="<u8").astype(np.int64)
        payload = fh.read()
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_expect:
        raise MismatchError(f"{path}: payload checksum mismatch")
    if offsets[0] != 0 or offsets[-1] != len(payload) or np.any(np.diff(offsets) < 0):
        raise MismatchError(f"{path}: record offsets out of range")

    vlc = bool(flags & _FLAG_VLC)
    dense = k <= 8
    ite = tables_for(k) if dense else None
    keys_out: list[int] = []
    cnt_out: list[int] = []
    out_off = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        pos, end = int(offsets[v]), int(offsets[v + 1])
        prev = 0
        while pos < end:
            if vlc:
                key, count, used = vlc_decode(payload, pos)
                keys_out.append(key)
                cnt_out.append(count)
                pos += used
            else:
                packed = int.from_bytes(payload[pos : pos + 6], "little")
                cum = int.from_bytes(payload[pos + 6 : pos + 22], "little")
                if dense:
                    keys_out.append(ite.index[(h, packed >> 16, packed & 0xFFFF)])
                else:
                    keys_out.append((h << 46) | packed)
                cnt_out.append(cum - prev)
                prev = cum
                pos += 22
        out_off[v + 1] = len(keys_out)
    keys_arr = np.array(keys_out, dtype=np.int32 if dense else np.int64)
    rnd = Round(h, out_off, keys_arr, _count_array(cnt_out), dense)
    info = {
        "flags": flags,
        "star_total": star_total,
        "treelet_total": treelet_total,
        "skeleton_totals": skeleton_totals,
    }
    return rnd, info


def load_tables(table_dir, graph: ColoredGraph | None = None) -> TableSet:
    """Read a table directory; verify the graph hash when one is given."""
    meta_path = os.path.join(table_dir, "meta.json")
    try:
        with open(meta_path, "rt", encoding="utf-8") as fh:
            meta = json.load(fh)
    except OSError as e:
        raise MismatchError(f"missing table manifest: {e}") from e
    except ValueError as e:  # not JSON, or not UTF-8
        raise MismatchError(f"malformed table manifest: {e}") from e
    try:
        k = int(meta["k"])
        n = int(meta["n"])
        sizes = [int(h) for h in meta["rounds"]]
        modes = {name: bool(meta[name]) for name in ("skip_round", "zero_root", "vlc")}
    except (KeyError, TypeError, ValueError) as e:
        raise MismatchError(f"malformed table manifest: {e!r}") from e
    if not 2 <= k <= 16 or n < 0 or sizes != round_sizes(k, modes["skip_round"]):
        raise MismatchError("malformed table manifest: k, n or rounds out of range")
    if graph is not None and meta.get("graph_hash") != graph.content_hash():
        raise MismatchError("tables were built from a different graph")
    rounds = {}
    star_total = 0
    treelet_total = 0
    skeleton_totals: dict[tuple[int, int], int] = {}
    for h in sizes:
        rnd, info = _read_round_file(
            os.path.join(table_dir, f"round_{h:02d}.mct"), k, h, n
        )
        rounds[h] = rnd
        if h == k:
            star_total = info["star_total"]
            treelet_total = info["treelet_total"]
            skeleton_totals = info["skeleton_totals"]
    return TableSet(
        k=k,
        n=n,
        graph_hash=meta.get("graph_hash", ""),
        lam=meta.get("lambda"),
        rounds=rounds,
        star_total=star_total,
        treelet_total=treelet_total,
        skeleton_totals=skeleton_totals,
        **modes,
    )


# ---------------------------------------------------------------------------
# merge helpers on packed keys (engine for k > 8)


@functools.lru_cache(maxsize=None)
def _beta_packed(size: int, bits: int) -> int:
    return treelets.beta(Shape(size, bits))


@functools.lru_cache(maxsize=None)
def _merge_canonical(p1: int, p2: int, k: int):
    s1, b1, c1 = _unpack_key(p1)
    s2, b2, c2 = _unpack_key(p2)
    if s1 + s2 > k or (c1 & c2):
        return None
    m = treelets.merge_shapes((s1, b1), (s2, b2))
    if m is None:
        return None
    return _pack_key(m[0], m[1], c1 | c2), _beta_packed(*m)


@functools.lru_cache(maxsize=None)
def _balanced_pairs(k: int) -> dict:
    out = {}
    for _skel, (rep, p1, p2, _mu) in balanced_split_map(k).items():
        out[(p1.key, p2.key)] = rep.key
    return out


@functools.lru_cache(maxsize=None)
def _merge_balanced(p1: int, p2: int, k: int):
    s1, b1, c1 = _unpack_key(p1)
    s2, b2, c2 = _unpack_key(p2)
    if c1 & c2:
        return None
    rep = _balanced_pairs(k).get(((s1, b1), (s2, b2)))
    if rep is None:
        return None
    return _pack_key(rep[0], rep[1], c1 | c2), _beta_packed(*rep)


# ---------------------------------------------------------------------------
# build


def build_tables(
    g: ColoredGraph,
    *,
    skip_round: bool = False,
    zero_root: bool = True,
    vlc: bool = False,
    out_dir=None,
    progress=None,
    engine: str = "auto",
) -> TableSet:
    """Run the count DP; with out_dir, also save the tables there."""
    if g.colors is None or g.k is None:
        raise ValueError("graph must be colored first")
    if engine not in ("auto", "exact"):
        raise ValueError("engine must be 'auto' or 'exact'")
    k = g.k
    if skip_round and zero_root:
        raise ValueError(
            "skip_round stores copies at representative roots; zero_root would drop them"
        )
    if vlc and k > 8:
        raise ValueError("variable-length payload requires the dense index (k <= 8)")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)  # a bad path fails before the DP

    table = TableSet(
        k=k,
        n=g.n,
        graph_hash=g.content_hash(),
        skip_round=skip_round,
        zero_root=zero_root,
        vlc=vlc,
        lam=g.lam,
        rounds={},
    )
    dense = k <= 8
    ite = tables_for(k) if dense else None

    # round 1: one singleton per node.  Dense index i < k is the
    # singleton of color i, so codes coincide with the colors.
    if dense:
        r1_keys = g.colors.astype(np.int32)
    else:
        r1_keys = np.array(
            [_pack_key(1, 0, 1 << int(c)) for c in g.colors], dtype=np.int64
        )
    table.rounds[1] = Round(
        1,
        np.arange(g.n + 1, dtype=np.int64),
        r1_keys,
        np.ones(g.n, dtype=np.int64),
        dense,
    )

    eta_max = {1: 1}
    for h in round_sizes(k, skip_round)[1:]:
        splits = [
            s
            for s in _split_sizes(h, k, skip_round)
            if s[0] in table.rounds and s[1] in table.rounds
        ]
        final = h == k
        only_zero = final and zero_root

        bound = sum(
            eta_max[h1] * eta_max[h2] * max(1, g.max_degree) for h1, h2 in splits
        )
        use_fast = (
            engine == "auto"
            and dense
            and bound < _INT64_SAFE
            and all(
                table.rounds[s].cnt.dtype == np.int64 for pair in splits for s in pair
            )
        )
        round_engine = _round_fast if use_fast else _round_exact
        rnd = round_engine(g, table, h, splits, final, only_zero, ite)
        table.rounds[h] = rnd
        if final:
            _compute_totals(g, table)
        eta_max[h] = _round_eta_max(rnd)
        if progress:
            progress({"event": "round_done", "h": h, "entries": rnd.entries()})

    if out_dir is not None:
        table.save(out_dir)
    return table


def _ramp(sizes, total):
    """Concatenated ranges 0..size-1 for each size, as one array."""
    out = np.arange(total, dtype=np.int64)
    starts = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return out - np.repeat(starts, sizes)


def _round_fast(g, table, h, splits, final, only_zero, ite):
    """Vectorized accumulation over the dense index, int64 counts."""
    merge_tbl = (
        ite.merge_table_balanced if (final and table.skip_round) else ite.merge_table
    )
    beta_tbl = ite.beta_table.astype(np.int64)
    colors = g.colors
    prev = {s: table.rounds[s] for pair in splits for s in pair}
    sizes = np.zeros(g.n, dtype=np.int64)
    # empty heads fix the dtypes when no node has records
    key_parts = [np.zeros(0, dtype=np.int32)]
    cnt_parts = [np.zeros(0, dtype=np.int64)]
    for v in range(g.n):
        if only_zero and colors[v] != 0:
            continue
        nbrs = g.neighbors(v).astype(np.int64)
        if len(nbrs) == 0:
            continue
        acc = None
        for h1, h2 in splits:
            k1, c1 = prev[h1].record(v)
            if len(k1) == 0:
                continue
            r2 = prev[h2]
            starts = r2.offsets[nbrs]
            counts = r2.offsets[nbrs + 1] - starts
            total = int(counts.sum())
            if total == 0:
                continue
            idx = np.repeat(starts, counts) + _ramp(counts, total)
            k2 = r2.keys[idx].astype(np.int64)
            c2 = r2.cnt[idx]
            k1l = k1.astype(np.int64)
            cols = max(1, _MAX_CELLS // max(1, len(k1l)))
            for c0 in range(0, total, cols):
                k2c = k2[c0 : c0 + cols]
                res = merge_tbl[k1l[:, None], k2c[None, :]]
                sel = res != FAIL
                if not sel.any():
                    continue
                if acc is None:
                    acc = np.zeros(ite.n, dtype=np.int64)
                prod = c1[:, None] * c2[c0 : c0 + cols][None, :]
                np.add.at(acc, res[sel].astype(np.int64), prod[sel])
        if acc is None:
            continue
        nz = np.nonzero(acc)[0]
        if len(nz) == 0:
            continue
        vals = acc[nz]
        div = beta_tbl[nz]
        if np.any(vals % div):
            raise MotifkitError("accumulated counts not divisible by multiplicity")
        sizes[v] = len(nz)
        key_parts.append(nz.astype(np.int32))
        cnt_parts.append(vals // div)
    return _freeze_round(
        h, sizes, np.concatenate(key_parts), np.concatenate(cnt_parts), dense=True
    )


def _round_exact(g, table, h, splits, final, only_zero, ite):
    """Reference engine: dict accumulation, arbitrary precision."""
    colors = g.colors
    k = table.k
    dense = ite is not None
    if dense:
        merge_tbl = (
            ite.merge_table_balanced
            if (final and table.skip_round)
            else ite.merge_table
        )
        beta_arr = ite.beta_table
    balanced = final and table.skip_round
    sizes = np.zeros(g.n, dtype=np.int64)
    all_keys: list[int] = []
    all_cnt: list[int] = []
    for v in range(g.n):
        if only_zero and colors[v] != 0:
            continue
        acc: dict[int, int] = {}
        for h1, h2 in splits:
            k1, c1 = table.rounds[h1].record(v)
            if len(k1) == 0:
                continue
            pairs1 = [(int(a), int(b)) for a, b in zip(k1, c1)]
            r2 = table.rounds[h2]
            for u in g.neighbors(v):
                k2, c2 = r2.record(int(u))
                for key2, cnt2 in zip(k2, c2):
                    key2 = int(key2)
                    cnt2 = int(cnt2)
                    for key1, cnt1 in pairs1:
                        if dense:
                            res = int(merge_tbl[key1, key2])
                            if res == FAIL:
                                continue
                            acc[res] = acc.get(res, 0) + cnt1 * cnt2
                        else:
                            mb = (
                                _merge_balanced(key1, key2, k)
                                if balanced
                                else _merge_canonical(key1, key2, k)
                            )
                            if mb is None:
                                continue
                            acc[mb[0]] = acc.get(mb[0], 0) + cnt1 * cnt2
        if not acc:
            continue
        keys = sorted(acc)
        for key in keys:
            if dense:
                div = int(beta_arr[key])
            else:
                size, bits, _ = _unpack_key(key)
                div = _beta_packed(size, bits)
            q, r = divmod(acc[key], div)
            if r:
                raise MotifkitError("accumulated counts not divisible by multiplicity")
            if q >= _COUNT_LIMIT:
                raise CapacityError("count needs more than 256 bits")
            all_cnt.append(q)
        sizes[v] = len(keys)
        all_keys.extend(keys)
    keys_arr = np.array(all_keys, dtype=np.int32 if dense else np.int64)
    return _freeze_round(h, sizes, keys_arr, _count_array(all_cnt), dense=dense)


def _freeze_round(h, sizes, keys, cnt, dense):
    """A Round from records concatenated in node order."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return Round(h, offsets, keys, cnt, dense)


def _compute_totals(g, table: TableSet):
    """Per-skeleton once-per-copy totals, the star closed form, and the
    grand total, all from the final round's records."""
    k = table.k
    rnd = table.rounds[k]
    raw: dict[tuple[int, int], int] = {}
    if rnd.dense_keys:
        ite = table.ite
        skel_keys = [ite.skeleton_list[int(s)] for s in ite.skeleton_table]
        for key, c in zip(rnd.keys.tolist(), rnd.cnt.tolist()):
            sk = skel_keys[key]
            raw[sk] = raw.get(sk, 0) + c
    else:
        for key, c in zip(rnd.keys.tolist(), rnd.cnt.tolist()):
            size, bits, _ = _unpack_key(key)
            sk = treelets.skeleton_of(size, bits)
            raw[sk] = raw.get(sk, 0) + c

    if table.skip_round:
        mu_of = {sk: mu for sk, (_r, _p1, _p2, mu) in balanced_split_map(k).items()}
    totals = {}
    for sk, value in raw.items():
        if table.skip_round:
            mu = mu_of[sk]
        elif table.zero_root:
            mu = 1
        else:
            mu = k
        q, r = divmod(value, mu)
        if r:
            raise MotifkitError("per-shape total not divisible by rooting multiplicity")
        totals[sk] = q
    table.skeleton_totals = totals
    table.treelet_total = sum(totals.values())
    if table.skip_round:
        deg = np.diff(g.indptr)
        table.star_total = sum(math.comb(int(d), k - 1) for d in deg)
    else:
        table.star_total = 0
