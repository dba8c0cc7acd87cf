"""Reference verdicts computed apart from revca.

Nothing here imports revca. A rule is handled as its canonical text (the
next state of RMT 0 is the rightmost symbol) and decoded in this module.

The ring verdict comes from the matched-output pair graph, the
transfer-matrix view of periodic-boundary CAs (Sutner 1991; Nobe & Yura
2004). Its vertices are ordered pairs (u, v) of two-cell windows. There
is an edge (u, v) -> (u', v') when u can be extended by one cell to u' and
v to v' so that both three-cell neighbourhoods give the same next state.
A closed walk of length n is a pair of n-cell rings with equal images;
the two rings differ exactly when the walk passes an off-diagonal vertex,
and the walk can be rotated to start there. So the n-cell ring map is
non-injective (hence not bijective) exactly when some off-diagonal
vertex v has (A^n)[v, v] > 0. A^n is computed by boolean squaring.

On the unbounded lattice the map is non-injective exactly when some
off-diagonal vertex lies on a cycle of the same graph.

At small n the brute-force image count gives a second, direct verdict.
"""

from __future__ import annotations

import numpy as np


def table_of(text: str, d: int) -> tuple[int, ...]:
    """Next-state table indexed by RMT r = x*d*d + y*d + z."""
    if len(text) != d ** 3 or not text.isdigit():
        raise ValueError(f"not a {d}-state rule: {text!r}")
    table = tuple(int(ch) for ch in reversed(text))
    if max(table) >= d:
        raise ValueError(f"symbol out of range in {text!r}")
    return table


def step(table: tuple[int, ...], d: int, cells: tuple[int, ...]) -> tuple[int, ...]:
    """One update of the ring: out[i] = f(c[i], c[i+1], c[i+2])."""
    n = len(cells)
    return tuple(
        table[cells[i] * d * d + cells[(i + 1) % n] * d + cells[(i + 2) % n]]
        for i in range(n)
    )


def pair_adjacency(table: tuple[int, ...], d: int) -> np.ndarray:
    """Boolean d**4 x d**4 adjacency; vertex (u, v) has index u*d*d + v."""
    dd = d * d
    adj = np.zeros((dd * dd, dd * dd), dtype=bool)
    for u in range(dd):
        for v in range(dd):
            for cu in range(d):
                ru = u * d + cu
                for cv in range(d):
                    rv = v * d + cv
                    if table[ru] == table[rv]:
                        adj[u * dd + v, (ru % dd) * dd + rv % dd] = True
    return adj


def _cyclic_core(table: tuple[int, ...], d: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair graph with every vertex that lies on no closed walk removed,
    and the off-diagonal flags of the vertices kept.

    A vertex without an in-edge or an out-edge inside the remaining graph
    lies on no closed walk, so removing such vertices until none is left
    keeps every closed walk and its length.
    """
    adj = pair_adjacency(table, d)
    dd = d * d
    keep = np.arange(dd * dd)
    while True:
        live = adj.any(axis=1) & adj.any(axis=0)
        if live.all():
            break
        adj = adj[np.ix_(live, live)]
        keep = keep[live]
    return adj, keep // dd != keep % dd


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def _bool_power(adj: np.ndarray, k: int) -> np.ndarray:
    result = None
    base = adj
    while k:
        if k & 1:
            result = base if result is None else _bool_matmul(result, base)
        k >>= 1
        if k:
            base = _bool_matmul(base, base)
    return result


def ring_injective(table: tuple[int, ...], d: int, n: int) -> bool:
    """Whether the n-cell ring map is injective (equivalently bijective)."""
    if n < 3:
        raise ValueError("rings have at least 3 cells")
    adj, off = _cyclic_core(table, d)
    if not off.any():
        return True
    head = _bool_power(adj, n - 1)
    # (head @ adj)[v, v], without forming the whole last product
    closed = (head & adj.T).any(axis=1)
    return not bool(np.any(closed & off))


def ring_injective_range(table: tuple[int, ...], d: int, n_lo: int, n_hi: int) -> dict[int, bool]:
    """ring_injective for every n in [n_lo, n_hi], by successive products."""
    adj, off = _cyclic_core(table, d)
    out = {}
    power = adj
    for n in range(2, n_hi + 1):
        power = _bool_matmul(power, adj)
        if n >= n_lo:
            out[n] = not bool(np.any(np.diagonal(power) & off))
    return out


def lattice_injective(table: tuple[int, ...], d: int) -> bool:
    """Whether the global map on the unbounded lattice is injective."""
    adj, off = _cyclic_core(table, d)
    size = adj.shape[0]
    reach = adj | np.eye(size, dtype=bool)  # walks of length 0..1
    length = 1
    while length < size:
        reach = _bool_matmul(reach, reach)
        length *= 2
    # v lies on a cycle iff v -> w in one step and w reaches v
    on_cycle = np.diagonal(_bool_matmul(adj, reach))
    return not bool(np.any(on_cycle & off))


def brute_image(table: tuple[int, ...], d: int, n: int) -> tuple[int, int]:
    """(image size, largest number of preimages) over all d**n rings."""
    size = d ** n
    configs = np.arange(size, dtype=np.int64)
    cells = [(configs // d ** (n - 1 - i)) % d for i in range(n)]
    tab = np.asarray(table, dtype=np.int64)
    image = np.zeros(size, dtype=np.int64)
    for i in range(n):
        rmt = cells[i] * d * d + cells[(i + 1) % n] * d + cells[(i + 2) % n]
        image = image * d + tab[rmt]
    counts = np.bincount(image, minlength=size)
    return int(np.count_nonzero(counts)), int(counts.max())


def label_path_ok(table: tuple[int, ...], d: int, rmts: list[int]) -> bool:
    """Whether consecutive RMTs overlap in two cells, closing into a cycle."""
    dd = d * d
    if not rmts or any(not 0 <= r < d ** 3 for r in rmts):
        return False
    return all(rmts[i] % dd == rmts[(i + 1) % len(rmts)] // d for i in range(len(rmts)))
