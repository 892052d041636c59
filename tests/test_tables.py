from fractions import Fraction
from math import comb

import numpy as np
import pytest

from conftest import complete_graph, rainbow, random_graph
from motifkit.bruteforce import copy_totals, rooted_counts
from motifkit.errors import MismatchError
from motifkit.graph import color_uniform
from motifkit.rng import stream
from motifkit.tables import (
    Round,
    build_tables,
    load_tables,
    round_sizes,
    vlc_decode,
    vlc_encode,
)
from motifkit.sampling import _locate
from motifkit.treelets import ColoredTreelet, Shape, is_star, tables_for


def _colored(g, k, seed):
    return color_uniform(g, k, stream(seed, 17))


from conftest import oracle_rounds as _oracle_rounds
from conftest import table_entries as _table_entries


def test_round_sizes():
    assert round_sizes(5, False) == [1, 2, 3, 4, 5]
    assert round_sizes(5, True) == [1, 2, 3, 5]
    assert round_sizes(4, True) == [1, 2, 4]
    assert round_sizes(3, True) == [1, 3]
    assert round_sizes(3, False) == [1, 2, 3]


@pytest.mark.parametrize("k,seed", [(3, 1), (4, 2), (5, 3)])
def test_tables_match_rooted_oracle(k, seed):
    g = _colored(random_graph(12, 0.35, seed), k, seed)
    tab = build_tables(g, zero_root=True)
    want = _oracle_rounds(g, k, zero_root=True)
    for h in round_sizes(k, False):
        got = {(v, key): c for (v, key), c in want[h].items()}
        assert _table_entries(tab, h) == got


def test_eta_matches_row_sums():
    g = _colored(random_graph(10, 0.4, 9), 4, 9)
    tab = build_tables(g, zero_root=True)
    oracle = rooted_counts(g, 4, zero_root=True)
    per_node = {}
    for (v, _key), c in oracle.items():
        per_node[v] = per_node.get(v, 0) + c
    for v in range(g.n):
        assert tab.eta(4, v) == per_node.get(v, 0)


def test_all_rootings_scale():
    k = 4
    g = _colored(random_graph(11, 0.4, 5), k, 5)
    zero = build_tables(g, zero_root=True)
    full = build_tables(g, zero_root=False)
    # totals are once per copy in every regime; the k-fold root freedom
    # shows up only in the raw final-round rows
    copies = sum(copy_totals(g, k).values())
    assert zero.treelet_total == copies
    assert full.treelet_total == copies
    raw_zero = sum(_table_entries(zero, k).values())
    raw_full = sum(_table_entries(full, k).values())
    assert raw_full == k * raw_zero == k * copies


def test_zero_root_skeleton_totals_are_copy_counts():
    k = 4
    g = _colored(random_graph(11, 0.45, 6), k, 6)
    tab = build_tables(g, zero_root=True)
    assert tab.skeleton_totals == copy_totals(g, k)
    assert tab.star_total == 0


def test_skip_round_totals():
    k = 4
    g = _colored(random_graph(11, 0.45, 7), k, 7)
    tab = build_tables(g, skip_round=True, zero_root=False)
    want = {
        skel: c for skel, c in copy_totals(g, k).items() if not is_star(*skel)
    }
    assert tab.skeleton_totals == want
    assert tab.treelet_total == sum(want.values())
    # the star pool is colorless and comes straight from the degrees
    assert tab.star_total == sum(comb(g.degree(v), k - 1) for v in range(g.n))


def test_engines_agree():
    k = 4
    g = _colored(random_graph(10, 0.4, 8), k, 8)
    fast = build_tables(g, zero_root=True)
    exact = build_tables(g, zero_root=True, engine="exact")
    for h in round_sizes(k, False):
        assert _table_entries(fast, h) == _table_entries(exact, h)
    assert fast.treelet_total == exact.treelet_total
    assert fast.skeleton_totals == exact.skeleton_totals


def test_count_lookup(triangle):
    g = rainbow(triangle, 3)
    tab = build_tables(g, zero_root=True)
    # 0b1100 is the end-rooted chain, 0b1010 the two-leaf root
    chain = ColoredTreelet(Shape(3, 0b1100), 0b111)
    mid = ColoredTreelet(Shape(3, 0b1010), 0b111)
    assert tab.count(3, 0, chain) == 2
    assert tab.count(3, 0, mid) == 1
    assert tab.count(3, 1, chain) == 0  # color-1 root is not stored
    edge = ColoredTreelet(Shape(2, 0b10), 0b011)
    assert tab.count(2, 0, edge) == 1  # edge to the color-1 neighbor


@pytest.mark.parametrize("vlc", [False, True])
def test_save_load_round_trip(tmp_path, vlc):
    k = 4
    g = _colored(random_graph(10, 0.4, 12), k, 12)
    tab = build_tables(g, zero_root=True, vlc=vlc, out_dir=tmp_path / "t")
    back = load_tables(tmp_path / "t", graph=g)
    assert back.k == tab.k and back.n == tab.n
    assert back.vlc == vlc and back.zero_root and not back.skip_round
    assert back.lam is None
    assert back.treelet_total == tab.treelet_total
    assert back.skeleton_totals == tab.skeleton_totals
    for h in round_sizes(k, False):
        assert _table_entries(back, h) == _table_entries(tab, h)


def test_load_rejects_mismatched_graph(tmp_path):
    g = _colored(random_graph(10, 0.4, 13), 4, 13)
    build_tables(g, zero_root=True, out_dir=tmp_path / "t")
    other = random_graph(10, 0.4, 14)
    with pytest.raises(MismatchError):
        load_tables(tmp_path / "t", graph=other)
    assert load_tables(tmp_path / "t").treelet_total >= 0  # graphless load works


def test_build_out_dir_matches_save(tmp_path):
    g = _colored(random_graph(40, 0.15, 15), 5, 15)
    build_tables(g, zero_root=True, out_dir=tmp_path / "a")
    build_tables(g, zero_root=True).save(tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name


def _check_running_sums(rnd):
    for v in range(len(rnd.offsets) - 1):
        lo = int(rnd.offsets[v])
        run = 0
        for i, c in enumerate(rnd.record(v)[1].tolist(), start=lo):
            run += c
            assert rnd.cum[i] == run
            assert _locate(rnd, v, run - c) == i
            assert _locate(rnd, v, run - 1) == i
        assert rnd.eta(v) == run


@pytest.mark.parametrize("vlc", [False, True])
@pytest.mark.parametrize("wide", [False, True])
def test_wide_counts_round_trip(tmp_path, vlc, wide):
    k = 4
    g = _colored(random_graph(10, 0.4, 12), k, 12)
    tab = build_tables(g, zero_root=True, vlc=vlc)
    old = tab.rounds[3]
    if wide:  # every count past 2^64: exact Python ints
        cnt = old.cnt.astype(object) * (1 << 66) + 1
    else:  # int64 counts whose per-node sums pass 2^63
        cnt = (1 << 62) - old.cnt
    rnd = Round(3, old.offsets, old.keys, cnt, old.dense_keys)
    tab.rounds[3] = rnd
    assert max(rnd.eta(v) for v in range(g.n)) >= 1 << 63
    _check_running_sums(rnd)
    tab.save(tmp_path / "t")
    back = load_tables(tmp_path / "t", graph=g)
    assert back.rounds[3].cnt.dtype == rnd.cnt.dtype
    for h in round_sizes(k, False):
        assert _table_entries(back, h) == _table_entries(tab, h)
    _check_running_sums(back.rounds[3])


def test_build_validations(triangle):
    bare = triangle
    with pytest.raises(ValueError):
        build_tables(bare)
    g = rainbow(triangle, 3)
    with pytest.raises(ValueError):
        build_tables(g, skip_round=True, zero_root=True)
    with pytest.raises(ValueError):
        build_tables(g, engine="turbo")
    big = rainbow(complete_graph(9), 9)
    with pytest.raises(ValueError):
        build_tables(big, vlc=True)


def test_vlc_round_trip_values():
    probes = [0, 1, 127, 128, 129, (1 << 14) - 1, 1 << 14, (1 << 21) - 1, 1 << 40]
    for key in [0, 5, 1990]:
        for count in probes:
            buf = vlc_encode(key, count + 1)
            got_key, got_count, end = vlc_decode(buf)
            assert (got_key, got_count, end) == (key, count + 1, len(buf))


def test_vlc_stream_of_records():
    records = [(3, 1), (17, 128), (1990, (1 << 30) + 7)]
    buf = b"".join(vlc_encode(k, c) for k, c in records)
    pos = 0
    out = []
    while pos < len(buf):
        k, c, used = vlc_decode(buf, pos)
        out.append((k, c))
        pos += used
    assert out == records


def test_progress_events():
    g = _colored(random_graph(10, 0.4, 16), 4, 16)
    events = []
    build_tables(g, zero_root=True, progress=events.append)
    rounds = [e["h"] for e in events if e["event"] == "round_done"]
    assert rounds == [2, 3, 4]
