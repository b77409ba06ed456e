import csv
import math

import numpy as np
import pytest
import scipy.linalg
from dense_oracle import array_edges

from stokes_fv import (
    GridError,
    ScalarField,
    VectorField,
    build_tensor,
    build_uniform,
    h1_inner,
    h1_norm,
    h1_stiffness_matrix,
    jump_inner,
    jump_seminorm,
    l2_norm,
    make_clusters,
    split_seminorms,
    zero_mean_project,
)
from stokes_fv import fields
from stokes_fv.fields import _fmt, read_scalar_csv, read_vector_csv, write_scalar_csv, write_vector_csv
from stokes_fv.verify import checkerboard_field


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def corner_indicator(grid):
    v = np.zeros(grid.n_cells)
    v[0] = 1.0
    return ScalarField(grid, v)


def test_h1_inner_corner_indicator():
    g = build_uniform(2)
    v = corner_indicator(g)
    assert h1_inner(v, v) == pytest.approx(6.0)
    assert h1_norm(v) == pytest.approx(math.sqrt(6.0))


def test_h1_inner_constant_field():
    g = build_uniform(3)
    c = 2.5
    v = ScalarField(g, np.full(g.n_cells, c))
    # interior differences vanish; only the boundary weights remain
    t, be = array_edges(g.xs, g.ys), slice(g.n_interior_edges, None)
    expected = c * c * sum(t["edge_length"][be] / t["edge_dist"][be])
    assert h1_inner(v, v) == pytest.approx(expected)


def test_h1_inner_symmetric_bilinear(rng):
    g = build_tensor([0, 0.2, 0.5, 0.7, 1.0], [0, 0.3, 0.55, 0.8, 1.0])
    v = ScalarField(g, rng.standard_normal(g.n_cells))
    w = ScalarField(g, rng.standard_normal(g.n_cells))
    z = ScalarField(g, rng.standard_normal(g.n_cells))
    assert h1_inner(v, w) == pytest.approx(h1_inner(w, v))
    lhs = h1_inner(ScalarField(g, 2.0 * v.values + z.values), w)
    assert lhs == pytest.approx(2.0 * h1_inner(v, w) + h1_inner(z, w))


def test_h1_inner_matches_stiffness_matrix(rng):
    g = build_tensor([0, 0.2, 0.5, 1.0], [0, 0.4, 0.7, 1.0])
    A = h1_stiffness_matrix(g)
    v = rng.standard_normal(g.n_cells)
    w = rng.standard_normal(g.n_cells)
    direct = h1_inner(ScalarField(g, v), ScalarField(g, w))
    assert float(v @ (A @ w)) == pytest.approx(direct, rel=1e-13)


def test_norms_basics():
    g = build_uniform(2)
    zero = ScalarField.zeros(g)
    assert h1_norm(zero) == 0.0
    one = ScalarField(g, np.ones(g.n_cells))
    assert l2_norm(one) == pytest.approx(1.0)
    vec = VectorField(g, np.ones((g.n_cells, 2)))
    assert l2_norm(vec) == pytest.approx(math.sqrt(2.0))


def test_vector_h1_sums_components(rng):
    g = build_uniform(4)
    u = VectorField(g, rng.standard_normal((g.n_cells, 2)))
    total = h1_inner(u, u)
    parts = h1_inner(u.component(0), u.component(0)) + h1_inner(
        u.component(1), u.component(1)
    )
    assert total == pytest.approx(parts)


def test_jump_inner_checkerboard():
    g = build_uniform(2)
    cb = checkerboard_field(g)
    assert jump_inner(cb, cb) == pytest.approx(16.0)
    assert jump_seminorm(cb) == pytest.approx(4.0)


def test_jump_inner_constant_and_symmetry(rng):
    g = build_uniform(4)
    const = ScalarField(g, np.full(g.n_cells, 3.0))
    assert jump_inner(const, const) == 0.0
    p = ScalarField(g, rng.standard_normal(g.n_cells))
    q = ScalarField(g, rng.standard_normal(g.n_cells))
    assert jump_inner(p, q) == pytest.approx(jump_inner(q, p))


def test_split_seminorms_partition_identity(rng):
    g = build_uniform(4)
    part = make_clusters(g)
    q = ScalarField(g, rng.standard_normal(g.n_cells))
    cross, intra = split_seminorms(q)
    assert cross**2 + intra**2 == pytest.approx(jump_seminorm(q) ** 2, rel=1e-13)

    const = ScalarField(g, np.full(g.n_cells, 1.5))
    assert split_seminorms(const) == (0.0, 0.0)

    per_cluster = ScalarField(g, rng.standard_normal(part.n_clusters)[part.cluster_of])
    _, intra_pc = split_seminorms(per_cluster)
    assert intra_pc == 0.0


def test_zero_mean_project(rng):
    g = build_tensor([0, 0.3, 0.6, 1.0], [0, 0.5, 0.75, 1.0])
    const = ScalarField(g, np.full(g.n_cells, 5.0))
    assert np.abs(zero_mean_project(const).values).max() < 1e-14
    q = ScalarField(g, rng.standard_normal(g.n_cells))
    proj = zero_mean_project(q)
    assert abs(proj.mean()) < 1e-14
    again = zero_mean_project(proj)
    np.testing.assert_allclose(again.values, proj.values, atol=1e-14)

    g2 = build_uniform(4)
    cb = checkerboard_field(g2)
    np.testing.assert_array_equal(zero_mean_project(cb).values, cb.values)


def test_discrete_poincare_constant_non_increasing():
    # exact constant via the smallest stiffness eigenvalue in the area inner
    # product; refinement must not increase it (10 percent slack allowed)
    constants = []
    for n in (4, 8, 16):
        g = build_uniform(n)
        a = h1_stiffness_matrix(g).toarray()
        lam = scipy.linalg.eigh(
            a, np.diag(g.cell_areas), eigvals_only=True, subset_by_index=[0, 0]
        )[0]
        constants.append(1.0 / math.sqrt(lam))
    coarsest = constants[0]
    for c in constants[1:]:
        assert c <= 1.1 * coarsest
    assert constants == sorted(constants, reverse=True)


def test_mismatched_grids_rejected():
    a = ScalarField.zeros(build_uniform(2))
    b = ScalarField.zeros(build_uniform(4))
    with pytest.raises(GridError):
        h1_inner(a, b)
    with pytest.raises(GridError):
        jump_inner(a, b)


def test_field_validation():
    g = build_uniform(2)
    with pytest.raises(GridError):
        ScalarField(g, np.zeros(3))
    with pytest.raises(GridError):
        ScalarField(g, np.array([1.0, np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("cls, row", [(ScalarField, ()), (VectorField, (2,))], ids=["scalar", "vector"])
def test_field_classes_share_checks_and_arithmetic(cls, row, rng):
    g = build_uniform(3)
    shape = (g.n_cells, *row)
    with pytest.raises(GridError):
        cls(g, np.zeros((g.n_cells + 1, *row)))
    with pytest.raises(GridError):
        cls(g, np.zeros((g.n_cells, 3)))
    bad = np.zeros(shape)
    bad.flat[4] = np.inf
    with pytest.raises(GridError):
        cls(g, bad)

    zero = cls.zeros(g)
    assert zero.values.shape == shape and not zero.values.any()
    assert cls.zeros(g).values is not zero.values
    a = cls(g, rng.standard_normal(shape))
    b = cls(g, rng.standard_normal(shape))
    a_copy = a.copy()
    a_copy.values[0] += 1.0
    assert a_copy.values.flat[0] != a.values.flat[0]

    for result, expected in (
        (a + b, a.values + b.values),
        (a - b, a.values - b.values),
        (a * 2.5, a.values * 2.5),
        (2.5 * a, a.values * 2.5),
    ):
        assert type(result) is cls and result.grid is g
        assert np.array_equal(result.values, expected)

    other = cls.zeros(build_uniform(4))
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(GridError):
            op(a, other)


def test_csv_round_trip(tmp_path, rng):
    g = build_uniform(3)
    s = ScalarField(g, rng.standard_normal(g.n_cells))
    write_scalar_csv(s, tmp_path / "s.csv")
    np.testing.assert_array_equal(read_scalar_csv(g, tmp_path / "s.csv").values, s.values)

    v = VectorField(g, rng.standard_normal((g.n_cells, 2)))
    write_vector_csv(v, tmp_path / "v.csv")
    np.testing.assert_array_equal(read_vector_csv(g, tmp_path / "v.csv").values, v.values)


def test_csv_writers_match_csv_module_bytes(tmp_path, monkeypatch):
    g = build_uniform(2)
    # rows are written in blocks; make the four rows span two of them
    monkeypatch.setattr(fields, "_CSV_BLOCK_ROWS", 3)
    vals = np.array([-0.0, 5e-324, 1e300, 1.0])
    write_scalar_csv(ScalarField(g, vals), tmp_path / "s.csv")
    write_vector_csv(VectorField(g, np.column_stack([vals, vals[::-1]])), tmp_path / "v.csv")

    def reference(header, columns):
        path = tmp_path / "ref.csv"
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(header)
            for k in range(g.n_cells):
                i, j = g.cell_ij[k]
                out.writerow([i, j] + [_fmt(c[k]) for c in columns])
        return path.read_bytes()

    assert (tmp_path / "s.csv").read_bytes() == reference(["i", "j", "value"], [vals])
    assert (tmp_path / "v.csv").read_bytes() == reference(["i", "j", "vx", "vy"], [vals, vals[::-1]])


def test_write_table_formats_floats_and_empties_none(tmp_path):
    # the cells csv.writer gets: _fmt for floats (NumPy's too), "" for None
    rows = [[0.1, None, 3, "x,y", True], (np.float64(2.5), math.nan, -1, "", False)]
    fields.write_table(tmp_path / "t.csv", ["a", "b", "c", "d", "e"], iter(rows))
    expected = 'a,b,c,d,e\r\n0.10000000000000001,,3,"x,y",True\r\n2.5,nan,-1,,False\r\n'
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


GOOD_SCALAR_ROWS = ["0,0,1.5", "1,0,2.5", "0,1,3.5", "1,1,4.5"]


@pytest.mark.parametrize(
    "header, rows",
    [
        pytest.param("i,j,val", GOOD_SCALAR_ROWS, id="wrong-header"),
        pytest.param("i,j,value", GOOD_SCALAR_ROWS[:3] + ["1,1"], id="too-few-fields"),
        pytest.param("i,j,value", GOOD_SCALAR_ROWS[:3] + ["1,1,4.5,0"], id="too-many-fields"),
        pytest.param("i,j,value", GOOD_SCALAR_ROWS[:3] + ["1.0,1,4.5"], id="non-integer-index"),
        pytest.param("i,j,value", GOOD_SCALAR_ROWS[:3] + ["2,1,4.5"], id="i-out-of-range"),
        pytest.param("i,j,value", GOOD_SCALAR_ROWS[:3] + ["1,-1,4.5"], id="negative-j"),
        pytest.param("i,j,value", GOOD_SCALAR_ROWS + ["0,1,9.0"], id="duplicate-cell"),
        pytest.param("i,j,value", GOOD_SCALAR_ROWS[1:], id="missing-cell"),
    ],
)
def test_read_scalar_csv_rejects_malformed(tmp_path, header, rows):
    g = build_uniform(2)
    path = tmp_path / "s.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(GridError):
        read_scalar_csv(g, path)


def test_read_csv_accepts_any_row_order(tmp_path):
    g = build_uniform(2)
    path = tmp_path / "s.csv"
    path.write_text("\n".join(["i,j,value"] + GOOD_SCALAR_ROWS[::-1]) + "\n")
    np.testing.assert_array_equal(read_scalar_csv(g, path).values, [1.5, 2.5, 3.5, 4.5])


def test_read_vector_csv_rejects_malformed(tmp_path):
    g = build_uniform(2)
    path = tmp_path / "v.csv"
    rows = ["0,0,1,2", "1,0,1,2", "0,1,1,2", "1,1,1,2"]
    path.write_text("\n".join(["i,j,vx,vy"] + rows) + "\n")
    assert read_vector_csv(g, path).values.shape == (4, 2)
    for bad in (["i,j,vx"] + rows, ["i,j,vx,vy"] + rows[:3] + ["1,1,1"], ["i,j,vx,vy"] + rows[:3]):
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(GridError):
            read_vector_csv(g, path)
