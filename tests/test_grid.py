import math

import numpy as np
import pytest
from conftest import tensor_lines, traced_peak
from dense_oracle import (
    array_edges,
    loop_cells,
    loop_cluster_regularity,
    loop_edges,
    min_direction_strength,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokes_fv import (
    ClusterError,
    GridError,
    build_tensor,
    build_uniform,
    make_clusters,
    parse_grid_config,
)
from stokes_fv.grid import cluster_regularity


def flat_edges(grid):
    """The grid's edge families flattened into the eight flat tables that
    `array_edges` builds: each family's values broadcast to its block,
    raveled, and the four families concatenated in edge order."""
    families = grid.families()

    def cat(parts):
        return np.concatenate(
            [np.broadcast_to(p, f.shape).ravel() for p, f in zip(parts, families)]
        )

    interior = np.arange(grid.n_edges) < grid.n_interior_edges
    return {
        "edge_cell_k": cat(f.k for f in families),
        "edge_cell_l": cat(f.k + f.step if f.step else -1 for f in families),
        "edge_normal": np.column_stack(
            [cat(f.sign if f.axis == c else 0.0 for f in families) for c in (0, 1)]
        ),
        "edge_length": cat(f.length for f in families),
        "edge_dist": cat(f.dist for f in families),
        "edge_weight_k": cat(f.weight_k for f in families),
        "interior_mask": interior,
        "boundary_edges": np.flatnonzero(~interior),
    }


def closed_cell_sums(grid):
    s = np.zeros((grid.n_cells, 2))
    t = flat_edges(grid)
    cell_k, cell_l = t["edge_cell_k"], t["edge_cell_l"]
    length, normal = t["edge_length"], t["edge_normal"]
    for e in range(grid.n_edges):
        k = cell_k[e]
        contrib = length[e] * normal[e]
        s[k] += contrib
        l = cell_l[e]
        if l >= 0:
            s[l] -= contrib
    return s


def test_uniform_n2_counts():
    g = build_uniform(2)
    assert g.n_cells == 4
    assert g.n_interior_edges == 4
    assert g.n_edges - g.n_interior_edges == 8


def test_uniform_measures():
    g = build_uniform(4)
    assert g.is_uniform and g.h == 0.25
    np.testing.assert_allclose(g.cell_centers[0], [0.125, 0.125])
    np.testing.assert_allclose(g.cell_areas, 0.25**2)
    t = flat_edges(g)
    ie, be = slice(0, g.n_interior_edges), slice(g.n_interior_edges, None)
    np.testing.assert_allclose(t["edge_length"][ie], g.h)
    np.testing.assert_allclose(t["edge_dist"][ie], g.h)
    np.testing.assert_allclose(t["edge_dist"][be], g.h / 2)


def test_closed_cell_identity():
    for g in (build_uniform(3), build_tensor([0, 0.2, 0.5, 1], [0, 0.3, 0.6, 0.8, 1])):
        assert np.abs(closed_cell_sums(g)).max() < 1e-15


def test_interior_edges_have_two_cells_boundary_one():
    g = build_uniform(3)
    cell_l = flat_edges(g)["edge_cell_l"]
    assert np.all(cell_l[: g.n_interior_edges] >= 0)
    assert np.all(cell_l[g.n_interior_edges :] == -1)


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
    t = flat_edges(g)
    vertical = [e for e in range(g.n_interior_edges) if t["edge_normal"][e, 0] == 1.0]
    assert len(vertical) == 2
    np.testing.assert_allclose(t["edge_dist"][vertical], 0.5)


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
    assert g.n_interior_edges == 24
    assert part.intra_edge_mask.sum() == 16
    assert part.cross_edge_mask.sum() == 8
    # the two edge families partition the interior edges
    assert part.intra_edge_mask.sum() + part.cross_edge_mask.sum() == g.n_interior_edges
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


DERIVED = ("cell_centers", "cell_ij")


def assert_same_table(got, table):
    """Bit for bit, dtypes included: each array of `table` against the one
    of the same name in `got`, a dict or a grid."""
    for name, expected in table.items():
        array = got[name] if isinstance(got, dict) else getattr(got, name)
        assert array.dtype == expected.dtype, name
        assert array.shape == expected.shape and array.tobytes() == expected.tobytes(), name


@SETUP_PROPERTY
@given(tensor_lines(st.integers(2, 14)))
def test_edge_table_matches_loop_oracle(lines):
    # the families flattened against the one-edge-at-a-time tables, whose
    # interior edges are the first n_interior_edges
    g = build_tensor(*lines)
    want = loop_edges(*lines)
    np.testing.assert_array_equal(want.pop("interior_edges"), np.arange(g.n_interior_edges))
    assert_same_table(flat_edges(g), want)


@SETUP_PROPERTY
@given(tensor_lines(st.integers(2, 14)))
@example(([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]))
@example(([0.0, 0.5, 1.0], [0.0, 0.1, 0.3, 0.45, 0.7, 1.0]))
@example(([0.0, 0.2, 0.3, 0.6, 0.8, 0.9, 1.0], [0.0, 0.4, 1.0]))
def test_derived_edge_tables_match_the_stored_build(lines):
    # the eight tables a grid once stored, flattened from its families:
    # bitwise the whole-array build
    g = build_tensor(*lines)
    got, want = flat_edges(g), array_edges(*lines)
    assert set(got) == set(want)
    assert_same_table(got, want)


@SETUP_PROPERTY
@given(tensor_lines(st.integers(2, 14)))
def test_cell_table_matches_loop_oracle(lines):
    assert_same_table(build_tensor(*lines), loop_cells(*lines))


def test_derived_arrays_are_not_stored():
    g = build_tensor([0, 0.2, 0.5, 0.7, 1.0], [0, 0.3, 1.0])
    assert not set(DERIVED) & set(vars(g))
    for name in DERIVED:
        assert getattr(g, name) is not getattr(g, name)  # a fresh array per read
        with pytest.raises(AttributeError):
            setattr(g, name, getattr(g, name))


def test_a_grid_stores_only_its_lines_and_cell_areas():
    # every array in a grid's own state is a coordinate line or a width
    # line, except the cell areas; the edges are derived per family
    g = build_tensor(np.linspace(0, 1, 9), [0, 0.1, 0.35, 0.7, 1.0])
    longest = max(g.nx, g.ny) + 1
    arrays = {name: a for name, a in vars(g).items() if isinstance(a, np.ndarray)}
    assert {name for name, a in arrays.items() if a.size > longest} == {"cell_areas"}
    # building a grid allocates little beyond its cell areas: the traced
    # peak of build_uniform(256) is 1.27x cell_areas.nbytes, against 18.1x
    # when the grid stored its eight edge tables (57 B per edge)
    area_bytes = build_uniform(256).cell_areas.nbytes
    assert traced_peak(build_uniform, 256) <= 2.0 * area_bytes


@SETUP_PROPERTY
@given(tensor_lines(st.integers(1, 7).map(lambda h: 2 * h)))
@example(([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]))
@example(([0.0, 0.5, 1.0], np.linspace(0.0, 1.0, 9)))
@example((np.linspace(0.0, 1.0, 9), [0.0, 0.5, 1.0]))
def test_clusters_match_loop_oracle(lines):
    g = build_tensor(*lines)
    part = make_clusters(g)
    # an interior edge is intra iff its two cells share a cluster
    t = loop_edges(*lines)
    k, l = t["edge_cell_k"], t["edge_cell_l"]
    same = [l[e] >= 0 and part.cluster_of[k[e]] == part.cluster_of[l[e]] for e in range(g.n_edges)]
    assert part.intra_edge_mask.tolist() == same
    assert part.cross_edge_mask.tolist() == [l[e] >= 0 and not same[e] for e in range(g.n_edges)]
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
