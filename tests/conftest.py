"""Shared test helpers."""

import numpy as np
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
