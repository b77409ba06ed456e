import math

import numpy as np
import pytest
from conftest import tensor_lines
from dense_oracle import loop_cluster_regularity, loop_edges, min_direction_strength
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokes_fv import (
    ClusterError,
    GridError,
    build_tensor,
    build_uniform,
    cluster_regularity,
    make_clusters,
    parse_grid_config,
)


def closed_cell_sums(grid):
    s = np.zeros((grid.n_cells, 2))
    for e in range(grid.n_edges):
        k = grid.edge_cell_k[e]
        contrib = grid.edge_length[e] * grid.edge_normal[e]
        s[k] += contrib
        l = grid.edge_cell_l[e]
        if l >= 0:
            s[l] -= contrib
    return s


def test_uniform_n2_counts():
    g = build_uniform(2)
    assert g.n_cells == 4
    assert len(g.interior_edges) == 4
    assert len(g.boundary_edges) == 8


def test_uniform_measures():
    g = build_uniform(4)
    assert g.is_uniform and g.h == 0.25
    np.testing.assert_allclose(g.cell_centers[0], [0.125, 0.125])
    np.testing.assert_allclose(g.cell_areas, 0.25**2)
    ie = g.interior_edges
    np.testing.assert_allclose(g.edge_length[ie], g.h)
    np.testing.assert_allclose(g.edge_dist[ie], g.h)
    be = g.boundary_edges
    np.testing.assert_allclose(g.edge_dist[be], g.h / 2)


def test_closed_cell_identity():
    for g in (build_uniform(3), build_tensor([0, 0.2, 0.5, 1], [0, 0.3, 0.6, 0.8, 1])):
        assert np.abs(closed_cell_sums(g)).max() < 1e-15


def test_interior_edges_have_two_cells_boundary_one():
    g = build_uniform(3)
    assert np.all(g.edge_cell_l[g.interior_edges] >= 0)
    assert np.all(g.edge_cell_l[g.boundary_edges] == -1)


def test_tensor_reduces_to_uniform():
    gt = build_tensor([0, 0.5, 1], [0, 0.5, 1])
    gu = build_uniform(2)
    np.testing.assert_array_equal(gt.xs, gu.xs)
    np.testing.assert_allclose(gt.cell_centers, gu.cell_centers)
    np.testing.assert_allclose(gt.cell_areas, gu.cell_areas)
    assert gt.is_uniform


def test_tensor_center_distance():
    g = build_tensor([0, 0.25, 1], [0, 0.5, 1])
    # the interior edge between the two columns joins centers 0.125 and 0.625
    vertical = [
        e
        for e in g.interior_edges
        if g.edge_normal[e, 0] == 1.0
    ]
    assert len(vertical) == 2
    np.testing.assert_allclose(g.edge_dist[vertical], 0.5)


def test_grid_preconditions():
    with pytest.raises(GridError):
        build_uniform(1)
    with pytest.raises(GridError):
        build_tensor([0, 1], [0, 0.5, 1])
    with pytest.raises(GridError):
        build_tensor([0, 0.5, 0.4, 1], [0, 0.5, 1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "xs",
    [
        [0, "a", 1],
        [[0], 0.5, 1],
        [[0, 0.5, 1], [0, 0.5, 1]],
        [0, 0.5, math.inf],
        [-math.inf, 0.5, 1],
        [0, math.nan, 1],
        "012",
        None,
    ],
)
def test_grid_rejects_coordinates_that_are_not_a_flat_list_of_finite_numbers(xs):
    with pytest.raises(GridError, match="flat lists of finite numbers"):
        build_tensor(xs, [0, 0.5, 1])
    with pytest.raises(GridError, match="flat lists of finite numbers"):
        build_tensor([0, 0.5, 1], xs)


def test_clusters_n4_counts():
    g = build_uniform(4)
    part = make_clusters(g)
    assert part.n_clusters == 4
    assert len(g.interior_edges) == 24
    assert part.intra_edge_mask.sum() == 16
    assert part.cross_edge_mask.sum() == 8
    # the two edge families partition the interior edges
    assert part.intra_edge_mask.sum() + part.cross_edge_mask.sum() == len(g.interior_edges)
    assert np.all(np.bincount(part.cluster_of) == 4)


def test_clusters_n2_single():
    g = build_uniform(2)
    part = make_clusters(g)
    assert part.n_clusters == 1
    assert part.intra_edge_mask.sum() == 4
    assert part.cross_edge_mask.sum() == 0


def test_clusters_odd_rejected():
    with pytest.raises(ClusterError):
        make_clusters(build_uniform(3))


def test_cluster_regularity_uniform():
    for n in (4, 8):
        g = build_uniform(n)
        assert cluster_regularity(g, make_clusters(g)) == pytest.approx(1.0)


def test_cluster_regularity_takes_any_partition_of_the_same_shape():
    # the criterion reads only the partition's cross-cluster edges, which
    # depend on (nx, ny) alone
    g = build_tensor([0, 0.1, 0.4, 0.5, 0.8, 0.9, 1.0], [0, 0.3, 0.35, 0.9, 1.0])
    same_shape = build_tensor(np.linspace(0, 2, 7), np.linspace(0, 1, 5))
    own = cluster_regularity(g, make_clusters(g))
    assert cluster_regularity(g, make_clusters(same_shape)) == own
    transposed = build_tensor(np.linspace(0, 1, 5), np.linspace(0, 1, 7))
    for grid, other in ((g, build_uniform(6)), (build_uniform(6), g), (g, transposed)):
        with pytest.raises(ClusterError, match="does not fit"):
            cluster_regularity(grid, make_clusters(other))


def test_cluster_regularity_single_cluster_infinite():
    g = build_uniform(2)
    assert cluster_regularity(g, make_clusters(g)) == math.inf


def test_min_direction_strength():
    assert min_direction_strength([(1.0, 0.0), (0.0, 1.0)]) == pytest.approx(1.0)
    assert min_direction_strength([(1.0, 0.0)]) == pytest.approx(1.0)
    # a right kernel does not lower the row rank: N N^T = diag(2, 1)
    assert min_direction_strength([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]) == pytest.approx(1.0)


def test_cluster_regularity_anisotropic_tensor():
    # strongly stretched tensor grid: normals stay axis unit vectors
    xs = np.concatenate([[0], np.cumsum([0.001, 0.5, 0.001, 0.5])])
    ys = np.linspace(0, 1, 5)
    g = build_tensor(xs / xs[-1], ys)
    assert cluster_regularity(g, make_clusters(g)) == pytest.approx(1.0)


SETUP_PROPERTY = settings(max_examples=40, deadline=None)


@SETUP_PROPERTY
@given(tensor_lines(st.integers(2, 14)))
def test_edge_table_matches_loop_oracle(lines):
    g = build_tensor(*lines)
    for name, expected in loop_edges(*lines).items():
        got = getattr(g, name)
        assert got.dtype == expected.dtype, name
        np.testing.assert_array_equal(got, expected, err_msg=name)


@SETUP_PROPERTY
@given(tensor_lines(st.integers(1, 7).map(lambda h: 2 * h)))
@example(([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]))
def test_clusters_match_loop_oracle(lines):
    g = build_tensor(*lines)
    part = make_clusters(g)
    areas = [g.cell_areas[part.cluster_of == c].sum() for c in range(part.n_clusters)]
    np.testing.assert_allclose(part.cluster_areas, areas, rtol=1e-14)
    expected = loop_cluster_regularity(g, part)
    got = cluster_regularity(g, part)
    if math.isinf(expected):
        assert got == math.inf
    else:
        assert abs(got - expected) <= 1e-12


def test_parse_grid_config():
    g2 = parse_grid_config('{"x": [0, 0.25, 1], "y": [0, 0.5, 1]}')
    assert g2.nx == 2 and not g2.is_uniform
    for text in ["an invalid description", "uniform n=4", 'tensor:{"x": [0, 1], "y": [0, 1]}']:
        with pytest.raises(GridError):
            parse_grid_config(text)
