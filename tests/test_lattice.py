import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbscert.lattice import distance_matrix, explicit_metric, periodic_grid


def per_pair_distances(sides):
    """Reference torus tables, one pair at a time in Python ints: the L1 graph
    metric sum_k min(|a_k - b_k|, L_k - |a_k - b_k|) and the Euclidean length
    of the same gaps."""
    coords = list(itertools.product(*(range(L) for L in sides)))  # row-major, as the flat site index
    graph, euclid = [], []
    for a in coords:
        gaps = [[min(abs(x - y), L - abs(x - y)) for x, y, L in zip(a, b, sides)] for b in coords]
        graph.append([float(sum(g)) for g in gaps])
        euclid.append([math.sqrt(sum(k * k for k in g)) for g in gaps])
    return np.array(graph), np.array(euclid)


def test_graph_distance_1d_examples():
    d = distance_matrix(periodic_grid([8]))
    assert d[0, 0] == 0.0
    assert d[0, 5] == 3.0  # min(5, 8-5)


def test_graph_distance_2d_example():
    d = distance_matrix(periodic_grid([4, 4]))
    i = 0  # (0, 0)
    j = 2 * 4 + 3  # (2, 3)
    assert d[i, j] == 3.0  # 2 + 1


def test_euclidean_distance_examples():
    r16 = distance_matrix(periodic_grid([16]), euclidean=True)
    assert r16[0, 4] == 4.0
    assert r16[0, 12] == 4.0  # torus wrap
    r88 = distance_matrix(periodic_grid([8, 8]), euclidean=True)
    i = 0
    j = 3 * 8 + 4  # (3, 4): a 3-4-5 triangle
    assert r88[i, j] == 5.0


def test_site_count_is_exact_past_int64():
    assert periodic_grid([3, 2**62]).n_sites == 3 * 2**62  # np.prod wraps this to a negative int64


def test_explicit_metric_requires_triangle_inequality():
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        explicit_metric(bad)


def test_explicit_metric_requires_symmetry_and_zero_diagonal():
    with pytest.raises(ValueError, match="symmetric"):
        explicit_metric([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="diagonal"):
        explicit_metric([[1.0, 1.0], [1.0, 0.0]])


def test_explicit_metric_accepts_valid_table():
    table = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    geom = explicit_metric(table)
    assert distance_matrix(geom)[0, 2] == 2.0


def test_explicit_geometry_has_no_euclidean_distance():
    geom = explicit_metric([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="coordinates"):
        distance_matrix(geom, euclidean=True)


def test_large_explicit_metric_accepted():
    # N = 520: a genuine metric passes the exhaustive check at any size
    n = 520
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(n, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    assert explicit_metric(d).n_sites == n


def test_triangle_violation_missed_by_sampling_is_rejected():
    # N = 520: one violating triple, delta(a, b) = 1.9 > delta(a, s) + delta(s, b) = 1.8
    n, a, s, b = 520, 5, 47, 90
    sample = np.random.default_rng(0).integers(0, n, size=(20_000, 3))
    drawn = set(map(tuple, sample.tolist()))
    assert (a, s, b) not in drawn and (b, s, a) not in drawn  # 20,000 random triples miss it
    table = np.ones((n, n))
    np.fill_diagonal(table, 0.0)
    table[a, b] = table[b, a] = 1.9
    table[a, s] = table[s, a] = table[s, b] = table[b, s] = 0.9
    with pytest.raises(ValueError, match="triangle"):
        explicit_metric(table)


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_torus_metric_axioms(side, dim, data):
    geom = periodic_grid([side] * dim)
    n = geom.n_sites
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    s = data.draw(st.integers(min_value=0, max_value=n - 1))
    d = distance_matrix(geom)
    dij = d[i, j]
    assert dij == d[j, i]
    assert d[i, i] == 0.0
    assert dij == int(dij)  # integer-valued on the torus
    assert dij <= d[i, s] + d[s, j]


def test_triangle_inequality_exhaustive_small_grids():
    for sides in ([8], [4, 4], [3, 3, 3]):
        geom = periodic_grid(sides)
        d = distance_matrix(geom)
        n = geom.n_sites
        assert n <= 64
        for s in range(n):
            assert np.all(d <= d[:, [s]] + d[[s], :] + 1e-12)


def test_distance_matrix_euclidean_matches_pointwise():
    geom = periodic_grid([4, 4])
    assert np.array_equal(distance_matrix(geom, euclidean=True), per_pair_distances([4, 4])[1])


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
)
@settings(max_examples=12, deadline=None)
def test_distance_tables_match_per_pair_distances(sides):
    geom = periodic_grid(sides)
    graph, euclid = per_pair_distances(sides)
    assert np.array_equal(distance_matrix(geom), graph)
    assert np.array_equal(distance_matrix(geom, euclidean=True), euclid)


def test_distance_tables_cached_read_only():
    for geom in (periodic_grid([5, 4]), explicit_metric([[0.0, 1.0], [1.0, 0.0]])):
        tables = [distance_matrix(geom)]
        if geom.kind == "periodic_grid":
            tables.append(distance_matrix(geom, euclidean=True))
            assert distance_matrix(geom, euclidean=True) is tables[1]
        assert distance_matrix(geom) is tables[0]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0, 1] = 7.0


@pytest.mark.parametrize(
    "sides", [[4.5], [True], "4", [0], [4, -1]], ids=["fractional", "bool", "text", "zero", "negative"]
)
def test_periodic_grid_rejects_bad_sides(sides):
    # int() read [4.5] as a 4-site ring, [True] as 1 site and "4" as [4]
    with pytest.raises(ValueError, match="side lengths must be"):
        periodic_grid(sides)


def test_explicit_metric_rejects_non_finite_entries():
    inf = float("inf")
    # the leading 3x3 block violates the triangle inequality; an inf entry
    # must not make the check's tolerance infinite and hide it
    table = [[0, 1, 5, inf], [1, 0, 1, inf], [5, 1, 0, inf], [inf, inf, inf, 0]]
    with pytest.raises(ValueError, match=r"entry \(0,3\) is inf"):
        explicit_metric(table)
    with pytest.raises(ValueError, match=r"entry \(0,1\) is nan"):
        explicit_metric([[0.0, float("nan")], [float("nan"), 0.0]])
