import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbscert.lattice import (
    EXHAUSTIVE_TRIANGLE_LIMIT,
    SAMPLED_TRIANGLE_COUNT,
    distance_matrix,
    euclidean_site_distance,
    explicit_metric,
    graph_distance,
    periodic_grid,
)


def test_graph_distance_1d_examples():
    geom = periodic_grid([8])
    assert graph_distance(geom, 0, 0) == 0.0
    assert graph_distance(geom, 0, 5) == 3.0  # min(5, 8-5)


def test_graph_distance_2d_example():
    geom = periodic_grid([4, 4])
    i = 0  # (0, 0)
    j = 2 * 4 + 3  # (2, 3)
    assert graph_distance(geom, i, j) == 3.0  # 2 + 1


def test_euclidean_distance_examples():
    g16 = periodic_grid([16])
    assert euclidean_site_distance(g16, 0, 4) == 4.0
    assert euclidean_site_distance(g16, 0, 12) == 4.0  # torus wrap
    g88 = periodic_grid([8, 8])
    i = 0
    j = 3 * 8 + 4  # (3, 4): a 3-4-5 triangle
    assert euclidean_site_distance(g88, i, j) == 5.0


def test_index_out_of_range():
    geom = periodic_grid([4])
    with pytest.raises(IndexError):
        graph_distance(geom, 0, 4)
    with pytest.raises(IndexError):
        euclidean_site_distance(geom, -1, 0)


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
    assert graph_distance(geom, 0, 2) == 2.0


def test_explicit_geometry_has_no_euclidean_distance():
    geom = explicit_metric([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="coordinates"):
        euclidean_site_distance(geom, 0, 1)


def test_large_explicit_metric_accepted_via_sampled_validation():
    # above the exhaustive limit the check samples triples; a genuine metric must pass
    n = EXHAUSTIVE_TRIANGLE_LIMIT + 8
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(n, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    assert explicit_metric(d).n_sites == n


def test_triangle_violation_missed_by_sampling_is_rejected():
    # N = 96: one violating triple, delta(a, b) = 1.9 > delta(a, s) + delta(s, b) = 1.8
    n, a, s, b = 96, 5, 47, 90
    sample = np.random.default_rng(0).integers(0, n, size=(SAMPLED_TRIANGLE_COUNT, 3))
    drawn = set(map(tuple, sample.tolist()))
    assert (a, s, b) not in drawn and (b, s, a) not in drawn  # random triples miss it
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
    dij = graph_distance(geom, i, j)
    assert dij == graph_distance(geom, j, i)
    assert graph_distance(geom, i, i) == 0.0
    assert dij == int(dij)  # integer-valued on the torus
    assert dij <= graph_distance(geom, i, s) + graph_distance(geom, s, j)


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
    r = distance_matrix(geom, euclidean=True)
    for i in range(geom.n_sites):
        for j in range(geom.n_sites):
            assert r[i, j] == euclidean_site_distance(geom, i, j)


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
)
@settings(max_examples=12, deadline=None)
def test_distance_tables_match_per_pair_distances(sides):
    geom = periodic_grid(sides)
    n = geom.n_sites
    graph = np.zeros((n, n))
    euclid = np.zeros((n, n))
    for i in range(n):  # both scalar distances are symmetric (see the axioms test)
        for j in range(i, n):
            graph[i, j] = graph[j, i] = graph_distance(geom, i, j)
            euclid[i, j] = euclid[j, i] = euclidean_site_distance(geom, i, j)
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
