"""Finite site sets with a metric: periodic grids and explicit metric tables."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EXHAUSTIVE_TRIANGLE_LIMIT = 512
SAMPLED_TRIANGLE_COUNT = 20_000


def _check_triangle_inequality(table: np.ndarray, rng_seed: int = 0) -> None:
    """Reject metric tables that violate the triangle inequality.

    Exhaustive over all (i, s, j) for N <= 512, random triples above.
    The decay certificates silently rely on delta(i,j) <= delta(i,s)+delta(s,j),
    so a violating table must never be accepted.  The exhaustive pass is
    O(N^3); on a 2-core Xeon it takes 1.3 ms at N = 64, 35 ms at 256, 0.35 s
    at 512 and 3.2 s at 1024, which is why the limit stops at 512.
    """
    n = table.shape[0]
    tol = 1e-12 * max(1.0, float(np.max(table)))
    if n <= EXHAUSTIVE_TRIANGLE_LIMIT:
        for s in range(n):
            slack = table[:, s][:, None] + table[s, :][None, :] - table
            if np.min(slack) < -tol:
                i, j = np.unravel_index(np.argmin(slack), slack.shape)
                raise ValueError(
                    f"metric table violates triangle inequality at "
                    f"({i},{s},{j}): {table[i, j]} > {table[i, s]} + {table[s, j]}"
                )
    else:
        rng = np.random.default_rng(rng_seed)
        idx = rng.integers(0, n, size=(SAMPLED_TRIANGLE_COUNT, 3))
        i, s, j = idx[:, 0], idx[:, 1], idx[:, 2]
        slack = table[i, s] + table[s, j] - table[i, j]
        if np.min(slack) < -tol:
            k = int(np.argmin(slack))
            raise ValueError(
                f"metric table violates triangle inequality at sampled triple "
                f"({i[k]},{s[k]},{j[k]})"
            )


@dataclass(frozen=True)
class LatticeGeometry:
    """Finite index set of sites together with the metric used in decay bounds.

    Two kinds are supported:
      * ``periodic_grid``: a d-dimensional torus with graph (L1 wrap-around)
        distance; sites are flat row-major indices.
      * ``explicit``: an arbitrary finite metric space given by a symmetric
        table, validated for metric axioms at construction.
    """

    kind: str
    dimension: int
    side_lengths: tuple[int, ...] | None = None
    metric_table: np.ndarray | None = field(default=None, repr=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "periodic_grid":
            if not self.side_lengths or len(self.side_lengths) != self.dimension:
                raise ValueError("periodic_grid needs one side length per dimension")
            if any(L < 1 for L in self.side_lengths):
                raise ValueError("side lengths must be positive")
        elif self.kind == "explicit":
            table = np.array(self.metric_table, dtype=float)
            if table.ndim != 2 or table.shape[0] != table.shape[1]:
                raise ValueError("metric table must be square")
            if not np.array_equal(table, table.T):
                raise ValueError("metric table must be symmetric")
            if np.any(np.diag(table) != 0.0):
                raise ValueError("metric table must be zero on the diagonal")
            off = table + np.eye(table.shape[0])
            if np.any(off <= 0.0):
                raise ValueError("metric must be positive off the diagonal")
            _check_triangle_inequality(table)
            table.flags.writeable = False
            object.__setattr__(self, "metric_table", table)
        else:
            raise ValueError(f"unknown geometry kind {self.kind!r}")

    @property
    def n_sites(self) -> int:
        if self.kind == "periodic_grid":
            return int(np.prod(self.side_lengths))
        return self.metric_table.shape[0]

    def coords(self, i: int) -> tuple[int, ...]:
        """Multi-index of flat site i on a periodic grid (row-major)."""
        if self.kind != "periodic_grid":
            raise ValueError("explicit geometries have no coordinates")
        self._check_index(i)
        return tuple(int(c) for c in np.unravel_index(i, self.side_lengths))

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n_sites:
            raise IndexError(f"site index {i} out of range [0, {self.n_sites})")


def periodic_grid(side_lengths) -> LatticeGeometry:
    side_lengths = tuple(int(L) for L in np.atleast_1d(side_lengths))
    return LatticeGeometry(
        kind="periodic_grid", dimension=len(side_lengths), side_lengths=side_lengths
    )


def explicit_metric(table) -> LatticeGeometry:
    return LatticeGeometry(kind="explicit", dimension=0, metric_table=np.asarray(table, float))


def _torus_coordinate_gaps(geom: LatticeGeometry, i: int, j: int) -> np.ndarray:
    ci = np.array(geom.coords(i))
    cj = np.array(geom.coords(j))
    L = np.array(geom.side_lengths)
    raw = np.abs(ci - cj)
    return np.minimum(raw, L - raw)


def graph_distance(geom: LatticeGeometry, i: int, j: int) -> float:
    """Metric delta(i, j).

    On a periodic grid this is the L1 torus distance
    sum_k min(|a_k - b_k|, L_k - |a_k - b_k|); for explicit geometries it is
    the stored table entry.
    """
    geom._check_index(i)
    geom._check_index(j)
    if geom.kind == "explicit":
        return float(geom.metric_table[i, j])
    return float(np.sum(_torus_coordinate_gaps(geom, i, j)))


def euclidean_site_distance(geom: LatticeGeometry, i: int, j: int) -> float:
    """Euclidean length of the torus-minimal displacement between sites.

    This is the |i - j| entering algebraically decaying couplings; any fixed
    norm works there by norm equivalence, Euclidean is the one we fix.
    """
    if geom.kind != "periodic_grid":
        raise ValueError("Euclidean site distance needs grid coordinates")
    geom._check_index(i)
    geom._check_index(j)
    return float(np.linalg.norm(_torus_coordinate_gaps(geom, i, j)))


def _torus_distance_table(geom: LatticeGeometry, euclidean: bool) -> np.ndarray:
    """All pairwise torus distances from broadcast coordinate gaps.

    The gaps are integers, so summing them (or their squares) is exact and the
    table equals the per-pair graph_distance / euclidean_site_distance values.
    """
    n = geom.n_sites
    coords = np.unravel_index(np.arange(n), geom.side_lengths)
    out = np.zeros((n, n))
    for c, L in zip(coords, geom.side_lengths):
        raw = np.abs(c[:, None] - c[None, :])
        gap = np.minimum(raw, L - raw)
        out += gap * gap if euclidean else gap
    return np.sqrt(out) if euclidean else out


def distance_matrix(geom: LatticeGeometry, euclidean: bool = False) -> np.ndarray:
    """All pairwise distances; graph metric by default.

    Each table is built once per geometry and returned read-only.
    """
    if geom.kind == "explicit":
        if euclidean:
            raise ValueError("Euclidean site distance needs grid coordinates")
        return geom.metric_table
    euclidean = bool(euclidean)
    table = geom._tables.get(euclidean)
    if table is None:
        table = _torus_distance_table(geom, euclidean)
        table.flags.writeable = False
        geom._tables[euclidean] = table
    return table
