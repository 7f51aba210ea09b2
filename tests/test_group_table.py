"""The group table: its rows agree with the built-in charts and the chart
language, every public function that takes a group tag rejects a tag that
is no row, and every average takes a FiniteGroup in the tag's place.
"""

import numpy as np
import pytest

from haarkit.chartlang import GROUP_TAGS, parse_chart
from haarkit.charts import BUILTIN_NAMES, builtin_chart
from haarkit.groups import GROUPS, FiniteGroup, UnknownGroupError, lookup_group
from haarkit.haar import class_nodes, exact_nodes, haar_nodes, integrate_tensor, normalize
from haarkit.orbit import OrbitSpec, covariance, moment
from haarkit.reynolds import (dim_invariants_closed, dim_invariants_quadrature,
                              invariant_rank, reynolds_continuous, reynolds_matrix)
from haarkit.sampling import SamplerConfig
from haarkit.tensors import Tensor


def test_rows_in_order_with_builtin_charts_of_their_dimension():
    assert list(GROUPS) == ["so2", "o2", "so3", "o3"]
    for tag, group in GROUPS.items():
        assert group.tag == tag
        assert group.charts
        for name in group.charts:
            assert name in BUILTIN_NAMES
            assert builtin_chart(name).parametrises.dim == group.dim
        assert group.proper == tag.startswith("so")
    assert GROUP_TAGS == (*(g.spelling for g in GROUPS.values()), "none")


@pytest.mark.parametrize("tag", list(GROUPS))
def test_each_spelling_parses_back_to_its_row(tag):
    group = GROUPS[tag]
    ast = parse_chart(f"chart g {{ params: a in [0, 1]; group: {group.spelling}; "
                      "matrix: [[a]]; }")
    assert ast.group == group.spelling
    assert lookup_group(ast.group) is group
    assert lookup_group(tag) is group


def test_the_first_charts_carry_the_exact_rule():
    for tag in GROUPS:
        _, stacks = exact_nodes(tag, 2)
        assert stacks[0].shape[-1] == GROUPS[tag].dim


def test_unknown_group_error_is_a_key_and_a_value_error():
    with pytest.raises(UnknownGroupError) as info:
        lookup_group("su2")
    assert isinstance(info.value, KeyError) and isinstance(info.value, ValueError)
    assert str(info.value) == "unknown group tag 'su2'; expected one of so2, o2, so3, o3"


def _density():
    return normalize(builtin_chart("so3-euler"), rule=4)


TAKES_A_TAG = {
    "lookup_group": lambda tag: lookup_group(tag),
    "exact_nodes": lambda tag: exact_nodes(tag, 2),
    "class_nodes": lambda tag: class_nodes(tag, 2),
    "haar_nodes": lambda tag: haar_nodes(tag, None, degree=2),
    "integrate_tensor": lambda tag: integrate_tensor(lambda m: m, tag, None, degree=1),
    "integrate_tensor/density": lambda tag: integrate_tensor(lambda m: m, tag, _density()),
    "reynolds_continuous": lambda tag: reynolds_continuous(tag, Tensor.zeros(3, 2)),
    "reynolds_matrix": lambda tag: reynolds_matrix(tag, 0),
    "reynolds_matrix/density": lambda tag: reynolds_matrix(tag, 0, _density()),
    "invariant_rank": lambda tag: invariant_rank(tag, 0),
    "dim_invariants_closed": lambda tag: dim_invariants_closed(tag, 2),
    "dim_invariants_quadrature": lambda tag: dim_invariants_quadrature(tag, 2),
    "dim_invariants_quadrature/density": lambda tag: dim_invariants_quadrature(
        tag, 2, _density()),
    "OrbitSpec": lambda tag: OrbitSpec(group=tag, representation="natural",
                                       seed=Tensor.from_array(np.ones(3))),
    "SamplerConfig": lambda tag: SamplerConfig(group=tag),
}


@pytest.mark.parametrize("tag", ["su2", "so4"])
@pytest.mark.parametrize("name", list(TAKES_A_TAG))
def test_every_function_taking_a_tag_rejects_an_unknown_tag(name, tag):
    with pytest.raises(UnknownGroupError, match=f"unknown group tag '{tag}'"):
        TAKES_A_TAG[name](tag)


@pytest.mark.parametrize("tag", list(GROUPS))
def test_either_spelling_names_the_same_group(tag):
    spelling = GROUPS[tag].spelling
    assert np.array_equal(reynolds_matrix(tag, 2), reynolds_matrix(spelling, 2))
    assert SamplerConfig(group=spelling, seed=3).chart == SamplerConfig(group=tag, seed=3).chart


def _orbit(group):
    return OrbitSpec(group, "sym2", Tensor.from_array(np.diag([1.0, 2.0, 3.0])))


# every average that takes a group tag, called with a group and a density
AVERAGES = {
    "haar_nodes": lambda g, d: haar_nodes(g, d, degree=2),
    "integrate_tensor": lambda g, d: integrate_tensor(lambda m: m, g, d, degree=1),
    "reynolds_continuous": lambda g, d: reynolds_continuous(g, Tensor.zeros(3, 2), d),
    "reynolds_matrix": lambda g, d: reynolds_matrix(g, 2, d),
    "invariant_rank": lambda g, d: invariant_rank(g, 2, d),
    "dim_invariants_quadrature": lambda g, d: dim_invariants_quadrature(g, 2, d),
    "moment": lambda g, d: moment(_orbit(g), 1, d),
    "covariance": lambda g, d: covariance(_orbit(g), d),
}


@pytest.mark.parametrize("name", list(AVERAGES))
def test_every_average_takes_a_finite_group_in_place_of_a_tag(name):
    c4 = FiniteGroup.cyclic([0.0, 0.0, 1.0], 4)
    AVERAGES[name](c4, None)
    with pytest.raises(ValueError, match="finite group averages over its elements"):
        AVERAGES[name](c4, _density())
    with pytest.raises(UnknownGroupError, match="unknown group tag 'su2'"):
        AVERAGES[name]("su2", None)


def test_a_finite_group_adds_no_coset_and_weighs_each_element_once():
    # the Klein four-group of sign flips, two of them improper
    klein = FiniteGroup([np.diag(s) for s in ((1.0, 1.0), (-1.0, 1.0),
                                                            (1.0, -1.0), (-1.0, -1.0))])
    weights, stacks = haar_nodes(klein, None)
    assert np.array_equal(weights, np.full(4, 0.25))
    assert len(stacks) == 1 and stacks[0] is klein.matrices
