"""Property tests (Hypothesis): Reynolds idempotence and the action's homomorphism law.

Examples are derandomized, so every run draws the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from haarkit.groups import improper_coset, rodrigues
from haarkit.reynolds import reynolds_matrix
from haarkit.tensors import Tensor, act

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

unit = st.floats(-1.0, 1.0, allow_nan=False)
angle = st.floats(-np.pi, np.pi, allow_nan=False)


@st.composite
def orthogonal(draw, dim: int) -> np.ndarray:
    """A rotation or, on a coin flip, a reflection of R^dim."""
    if dim == 2:
        a = draw(angle)
        g = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    else:
        axis = np.array([draw(unit), draw(unit), draw(unit)])
        norm = np.linalg.norm(axis)
        axis = axis / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])
        g = rodrigues(axis, draw(angle)).matrix
    return improper_coset(g[None])[0] if draw(st.booleans()) else g


@PROPERTY
@given(group=st.sampled_from(["so2", "o2", "so3", "o3"]), n=st.integers(0, 4))
def test_reynolds_matrix_is_idempotent(group, n):
    p = reynolds_matrix(group, n)
    assert np.abs(p @ p - p).max() < 1e-12


@PROPERTY
@given(data=st.data(), dim=st.sampled_from([2, 3]), order=st.integers(0, 4))
def test_action_is_a_homomorphism(data, dim, order):
    g = data.draw(orthogonal(dim))
    h = data.draw(orthogonal(dim))
    entries = data.draw(st.lists(unit, min_size=dim**order, max_size=dim**order))
    t = Tensor.from_array(np.reshape(entries, (dim,) * order), dim=dim)
    sequential = act(g, act(h, t)).array
    via_product = act(g @ h, t).array
    assert np.allclose(sequential, via_product, rtol=0.0, atol=1e-13)
