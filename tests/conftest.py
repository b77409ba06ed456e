"""Shared test helpers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st


@st.composite
def tensor_lines(draw, counts):
    """Coordinate lines of a strictly increasing tensor grid with nx != ny."""
    nx = draw(counts)
    ny = draw(counts.filter(lambda n: n != nx))

    def lines(n):
        widths = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        coords = np.concatenate([[0.0], np.cumsum(widths)])
        return coords / coords[-1]

    return lines(nx), lines(ny)


def geometric_line(n, q):
    """Coordinate line of [0, 1] cut into n cells of widths growing as q^i."""
    coords = np.concatenate([[0.0], np.cumsum(q ** np.arange(n))])
    return coords / coords[-1]


@st.composite
def geometric_lines(draw, counts):
    """Coordinate lines of a tensor grid stretched geometrically, with one
    ratio q in [1, 1.5] per axis: at 64 cells and q = 1.5 the widest cell
    is 1.3e11 times the narrowest."""
    return tuple(geometric_line(draw(counts), draw(st.floats(1.0, 1.5))) for _ in "xy")


def matrix_bytes(mat):
    """Bytes held by a CSR or CSC matrix's three arrays."""
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def traced_peak(fn, *args):
    """Peak traced allocation of `fn(*args)` above what was live before it.

    `fn` runs once untraced first, so lazily built state is not counted."""
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def traced_peak_of_failure(error, match, fn, *args):
    """Peak traced allocation of `fn(*args)`, which must raise `error` with
    a message matching `match`."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_same_arrays(got, want):
    """Same format, shape and CSR/CSC arrays, bit for bit, dtypes included."""
    assert (got.format, got.shape) == (want.format, want.shape)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
