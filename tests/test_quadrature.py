import numpy as np
import pytest

from gwhf.errors import DecayViolationError
from gwhf.quadrature import adaptive_quad

# rows that settle at different panel doublings on [-1, 2]
_ROWS = (
    lambda t: np.exp(-t * t),
    lambda t: 1.0 / (1.0 + 400.0 * t * t),
    lambda t: 1.0 / (1.0 + 1e4 * t * t),
)


def _settled_nodes(f, a, b, **kw):
    """Result of the one-row call on f and the node count of its last level."""
    sizes = []

    def counted(t):
        sizes.append(t.size)
        return f(t)
    return adaptive_quad(counted, a, b, **kw), sizes[-1]


@pytest.mark.parametrize("initial_panels", [4, 12])
def test_multi_row_equals_one_row_calls(initial_panels):
    a, b = -1.0, 2.0
    one = [_settled_nodes(f, a, b, initial_panels=initial_panels) for f in _ROWS]
    assert len({nodes for _, nodes in one}) == len(_ROWS)  # distinct settling levels
    for stack in (lambda t: tuple(f(t) for f in _ROWS),
                  lambda t: np.stack([f(t) for f in _ROWS])):
        multi = adaptive_quad(stack, a, b, initial_panels=initial_panels)
        assert multi.shape == (len(_ROWS),)
        assert multi.tolist() == [v for v, _ in one]


def test_multi_row_keeps_each_row_layout():
    # .real and .imag are strided views, which numpy's matmul sums along
    # another path than contiguous rows; each row must match its own call
    def vals(t):
        return np.exp(-t * t + 3j * t) * (1.0 + 0.5j * t)

    a, b = -3.0, 3.0
    re = adaptive_quad(lambda t: vals(t).real, a, b, tol=1e-12)
    im = adaptive_quad(lambda t: vals(t).imag, a, b, tol=1e-12)

    def rows(t):
        v = vals(t)
        return v.real, v.imag
    assert adaptive_quad(rows, a, b, tol=1e-12).tolist() == [re, im]


def test_multi_row_unsettled_row_names_the_interval():
    def rows(t):
        return np.exp(-t), np.where(t < 1.0 / 3.0, 0.0, 1.0)

    with pytest.raises(DecayViolationError, match=r"quadrature on \[0\.0, 1\.0\]"):
        adaptive_quad(rows, 0.0, 1.0, tol=1e-14)
