"""Property tests (Hypothesis): Reynolds idempotence, the action's homomorphism
law, sampler prefix stability, and the chart printer's round trip.

Examples are derandomized, so every run draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarkit.chartlang import (FUNCTIONS, GROUP_TAGS, BinOp, Call, ChartAst, Neg, Num, Param,
                               Pi, Pow, Var, parse_chart, print_chart)
from haarkit.groups import GROUPS, improper_coset, rodrigues
from haarkit.reynolds import reynolds_matrix
from haarkit.sampling import SamplerConfig, sample
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
        g = rodrigues(axis, draw(angle))
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


@pytest.mark.parametrize("group,chart", [(g, c) for g, row in GROUPS.items()
                                         for c in row.charts])
@PROPERTY
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 1000), data=st.data())
def test_sampler_batch_prefix_is_the_shorter_batch(group, chart, seed, n, data):
    k = data.draw(st.integers(1, n))
    full = sample(SamplerConfig(group, chart, seed, n))
    head = sample(SamplerConfig(group, chart, seed, k))
    assert np.array_equal(full.coordinates[:k], head.coordinates)
    assert np.array_equal(full.matrices[:k], head.matrices)
    assert (full.quaternions is None) == (head.quaternions is None)
    if head.quaternions is not None:
        assert np.array_equal(full.quaternions[:k], head.quaternions)


PARAMS = (Param("a", Num(0.0), Num(1.0)), Param("b", Neg(Pi()), Pi()))

# the parser reads nonnegative literals; a minus sign is a Neg node
leaves = st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Num),
                   st.just(Pi()), st.sampled_from([p.name for p in PARAMS]).map(Var))
expressions = st.recursive(leaves, lambda inner: st.one_of(
    inner.map(Neg),
    st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
    st.builds(Pow, inner, st.integers(-5, 5)),
    st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), inner)), max_leaves=12)


@PROPERTY
@given(data=st.data(), rows=st.integers(1, 3), cols=st.integers(1, 3),
       group=st.sampled_from([None, *GROUP_TAGS[:-1]]))
def test_print_parse_round_trip_on_generated_asts(data, rows, cols, group):
    matrix = tuple(tuple(data.draw(expressions) for _ in range(cols)) for _ in range(rows))
    ast = ChartAst(name="generated", params=PARAMS, group=group, matrix=matrix)
    assert parse_chart(print_chart(ast)) == ast
