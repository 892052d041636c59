"""Seeded synthetic graphs and the commands each workload runs.

Every graph is generated in-process with numpy from the workload seed,
so nothing is downloaded and the same seed always yields the same edge
list.  The coloring seed and the graph seed come from a small pool of
variants (seed mod VARIANTS): the exact table totals of every variant
are frozen in references.json, so each timed build can be checked
against values that do not depend on the code under test.  The
sampling seeds derive from the full workload seed.
"""

from dataclasses import dataclass

import numpy as np

VARIANTS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    build_flags: tuple
    uniform_samples: int
    ags_samples: int
    ags_flags: tuple
    why: str
    graph: dict


def erdos_renyi(rng, ids: int, edges: int) -> np.ndarray:
    """Random multigraph: endpoints uniform over ids, loops and repeats kept
    (the loader collapses them)."""
    return rng.integers(0, ids, size=(edges, 2), dtype=np.int64)


def chung_lu(rng, ids: int, pairs: int, exponent: float) -> np.ndarray:
    """Power-law expected degrees w_i ~ (i+1)^(-1/(exponent-1)); both
    endpoints of each pair drawn proportionally to w."""
    w = np.arange(1, ids + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0))
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    ends = np.searchsorted(cdf, rng.random(2 * pairs), side="right")
    return np.minimum(ends, ids - 1).reshape(-1, 2).astype(np.int64)


def small_world(rng, n: int, side: int, rewire: float) -> np.ndarray:
    """Watts-Strogatz: a ring lattice with `side` neighbors on each side,
    each edge's far end rewired to a uniform node with probability
    `rewire`."""
    u = np.repeat(np.arange(n, dtype=np.int64), side)
    v = (u + np.tile(np.arange(1, side + 1, dtype=np.int64), n)) % n
    flip = rng.random(len(u)) < rewire
    v[flip] = rng.integers(0, n, size=int(flip.sum()), dtype=np.int64)
    return np.stack([u, v], axis=1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="er-k6",
            k=6,
            build_flags=(),
            uniform_samples=8000,
            ags_samples=8000,
            ags_flags=("--threshold", "800"),
            graph={"kind": "er", "ids": 25000, "edges": 75000},
            why="DP rounds, table write and table load dominate; sampling at "
            "low degree is cheap",
        ),
        Workload(
            name="powerlaw-k5-skip",
            k=5,
            build_flags=("--skip-round",),
            uniform_samples=200,
            ags_samples=600,
            ags_flags=("--eps", "0.5", "--delta", "0.1"),
            graph={"kind": "chung-lu", "ids": 50000, "pairs": 150000, "exponent": 2.3},
            why="hub above the 4096 buffer threshold: treelet unrolling, star "
            "draws, thinning and skeleton views dominate",
        ),
        Workload(
            name="smallworld-k8",
            k=8,
            build_flags=(),
            uniform_samples=2000,
            ags_samples=6000,
            ags_flags=("--eps", "0.5", "--delta", "0.1"),
            graph={"kind": "small-world", "n": 3000, "side": 3, "rewire": 0.1},
            why="cold census(8), classification and AGS shape selection "
            "dominate; the DP is tiny",
        ),
    )
}


def variant(seed: int) -> int:
    return seed % VARIANTS


def sampling_seed(seed: int, i: int) -> int:
    """Sampling seed of the i-th repetition in a run: each repetition
    draws a different sample."""
    return seed * 1000 + i


def edges_for(w: Workload, seed: int) -> np.ndarray:
    rng = np.random.default_rng([variant(seed), sum(map(ord, w.name))])
    spec = w.graph
    if spec["kind"] == "er":
        return erdos_renyi(rng, spec["ids"], spec["edges"])
    if spec["kind"] == "chung-lu":
        return chung_lu(rng, spec["ids"], spec["pairs"], spec["exponent"])
    return small_world(rng, spec["n"], spec["side"], spec["rewire"])


def write_edge_list(pairs: np.ndarray, fh) -> None:
    """One "u v" line per pair, to an open text file."""
    fh.write("\n".join(f"{u} {v}" for u, v in pairs.tolist()))
    fh.write("\n")
