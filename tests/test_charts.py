"""Chart objects: domains, evaluation, exact jacobians, validation.

Jacobian oracles are analytic: product-rule derivatives for the angle charts,
direct differentiation of the quaternion components, and complex steps
through the tree walk for a chart using every operator and function.
"""

import numpy as np
import pytest

from haarkit.chartlang import ChartError, evaluate_expr, parse_chart
from haarkit.charts import BUILTIN_NAMES, Chart, DomainError, _Plan, builtin_chart, load_chart
from haarkit.groups import GROUPS, hat, rodrigues
from haarkit.haar import normalize

RNG = np.random.default_rng(77)

E1, E2, E3 = np.eye(3)


def rz(a):
    return rodrigues(E3, a)


def rx(a):
    return rodrigues(E1, a)


def test_builtin_charts_load_and_validate():
    for name in BUILTIN_NAMES:
        chart = builtin_chart(name)
        assert chart.d in (1, 3)
        assert chart.shape in ((2, 2), (3, 3), (4, 1))


def test_builtin_chart_is_cached():
    assert builtin_chart("so3-euler") is builtin_chart("so3-euler")


def test_builtin_chart_unknown_name():
    with pytest.raises(KeyError):
        builtin_chart("so3-cayley")


def test_load_chart_builtin_prefix_and_path(tmp_path):
    assert load_chart("builtin:so2-angle").name == "so2_angle"
    path = tmp_path / "own.chart"
    path.write_text(builtin_chart("so2-angle").source())
    assert load_chart(str(path)).name == "so2_angle"


def test_domain_membership():
    chart = builtin_chart("so3-euler")
    assert chart.contains([0.0, np.pi / 2, 0.0])
    assert chart.contains([-np.pi, 0.0, np.pi])  # closed box
    assert not chart.contains([0.0, -0.1, 0.0])
    with pytest.raises(DomainError):
        chart.check_point([0.0, 4.0, 0.0])
    with pytest.raises(DomainError):
        chart.check_point([0.0, 1.0])  # wrong arity


def test_check_batch_checks_the_shape_only():
    chart = builtin_chart("so3-euler")
    pts = chart.check_batch([[0.0, 4.0, 0.0]])  # outside the box, but a (1, 3) batch
    assert pts.dtype == float and pts.shape == (1, 3)
    for bad in ([0.0, 1.0, 0.0], [[0.3]], np.zeros((2, 3, 1))):
        with pytest.raises(DomainError, match=r"expected an \(N, 3\) batch"):
            chart.check_batch(bad)


def test_jacobian_many_refuses_a_wider_batch_and_leaves_it_unchanged():
    # the plan reads parameter k from column k, so an unchecked wider batch would run
    # on its first column and quietly ignore the others
    batch = np.array([[0.5, 7.0, 8.0], [1.0, 9.0, 10.0]])
    with pytest.raises(DomainError, match=r"expected an \(N, 1\) batch, got shape \(2, 3\)"):
        builtin_chart("so2-angle").jacobian_many(batch)
    assert batch.tolist() == [[0.5, 7.0, 8.0], [1.0, 9.0, 10.0]]


def test_jacobian_many_refuses_a_narrower_batch():
    with pytest.raises(DomainError, match=r"expected an \(N, 3\) batch, got shape \(1, 1\)"):
        builtin_chart("so3-euler").jacobian_many(np.array([[0.3]]))


def test_domain_membership_of_a_batch():
    chart = builtin_chart("so3-euler")
    batch = np.array([[0.0, np.pi / 2, 0.0], [-np.pi, 0.0, np.pi], [0.0, -0.1, 0.0],
                      [np.nan, 1.0, 0.0]])
    assert chart.contains(batch).tolist() == [True, True, False, False]
    assert chart.contains(batch).tolist() == [chart.contains(u) for u in batch]


def test_random_interior_stays_inside():
    chart = builtin_chart("so3-polar")
    pts = chart.random_interior(200, RNG)
    assert pts.shape == (200, 3)
    lo, hi = chart.domain[:, 0], chart.domain[:, 1]
    assert (pts > lo).all() and (pts < hi).all()


def test_euler_chart_is_zxz_product():
    chart = builtin_chart("so3-euler")
    for _ in range(10):
        a, b, g = chart.random_interior(1, RNG)[0]
        expected = rz(a) @ rx(b) @ rz(g)
        assert np.allclose(chart.evaluate([a, b, g]), expected, atol=1e-13)


def test_polar_chart_is_axis_angle():
    chart = builtin_chart("so3-polar")
    for _ in range(10):
        phi, psi, alpha = chart.random_interior(1, RNG)[0]
        n = np.array([np.cos(psi) * np.cos(phi), np.cos(psi) * np.sin(phi), np.sin(psi)])
        assert np.allclose(chart.evaluate([phi, psi, alpha]),
                           rodrigues(n, alpha), atol=1e-13)


def test_evaluate_many_matches_evaluate():
    chart = builtin_chart("so3-euler")
    pts = chart.random_interior(17, RNG)
    mats = chart.evaluate_many(pts)
    assert mats.shape == (17, 3, 3)
    assert np.allclose(mats[5], chart.evaluate(pts[5]))


def test_quaternion_chart_unit_norm():
    chart = builtin_chart("so3-quat")
    assert chart.is_quaternion
    pts = chart.random_interior(50, RNG)
    q = chart.quaternions_at(pts)
    assert q.shape == (50, 4)
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-13)


def test_quaternions_of_a_matrix_chart_are_refused():
    with pytest.raises(ValueError, match="chart 'so3_euler' is not a quaternion chart"):
        builtin_chart("so3-euler").quaternions_at(np.zeros((2, 3)))


def test_euler_jacobian_product_rule():
    # p = Rz(a) Rx(b) Rz(g): da -> hat(e3) p, dg -> p hat(e3),
    # db -> Rz(a) hat(e1) Rx(b) Rz(g)
    chart = builtin_chart("so3-euler")
    u = np.array([0.4, 1.1, -0.8])
    a, b, g = u
    p = chart.evaluate(u)
    expected = [hat(E3) @ p,
                rz(a) @ hat(E1) @ rx(b) @ rz(g),
                p @ hat(E3)]
    jac = chart.jacobian(u)
    for got, ref in zip(jac, expected):
        assert np.allclose(got, ref, atol=1e-9)


def test_polar_jacobian_alpha_column():
    # d/dalpha exp(alpha hat(n)) = hat(n) exp(alpha hat(n))
    chart = builtin_chart("so3-polar")
    u = np.array([1.3, 0.4, 2.0])
    phi, psi, alpha = u
    n = np.array([np.cos(psi) * np.cos(phi), np.cos(psi) * np.sin(phi), np.sin(psi)])
    jac = chart.jacobian(u)
    assert np.allclose(jac[2], hat(n) @ chart.evaluate(u), atol=1e-9)


def test_jacobian_matches_higher_order_stencil():
    # 4th-order 5-point stencil at a coarser step, independent of the
    # 2nd-order central difference used internally
    for name in ("so3-polar", "so3-euler"):
        chart = builtin_chart(name)
        u = chart.random_interior(1, RNG, margin=0.05)[0]
        h = 1e-3
        for j in range(chart.d):
            e = np.zeros(chart.d)
            e[j] = 1.0
            stencil = (-chart.evaluate(u + 2 * h * e) + 8 * chart.evaluate(u + h * e)
                       - 8 * chart.evaluate(u - h * e) + chart.evaluate(u - 2 * h * e))
            ref = stencil / (12 * h)
            assert np.abs(chart.jacobian(u)[j] - ref).max() < 1e-8


def test_quaternion_jacobian_analytic():
    chart = builtin_chart("so3-quat")
    u = np.array([0.9, 1.2, 2.5])
    t, s, f = u
    expected = np.array([
        [-np.sin(t), 0.0, 0.0],
        [np.cos(t) * np.cos(s), -np.sin(t) * np.sin(s), 0.0],
        [np.cos(t) * np.sin(s) * np.cos(f), np.sin(t) * np.cos(s) * np.cos(f),
         -np.sin(t) * np.sin(s) * np.sin(f)],
        [np.cos(t) * np.sin(s) * np.sin(f), np.sin(t) * np.cos(s) * np.sin(f),
         np.sin(t) * np.sin(s) * np.cos(f)],
    ])
    jac = chart.jacobian_many(u[None])[0]
    assert jac.shape == (3, 4, 1)
    assert np.allclose(jac[:, :, 0].T, expected, atol=1e-9)


def test_jacobian_at_closed_box_point():
    # beta = 0 is on the edge of the box; the partials need no margin there
    chart = builtin_chart("so3-euler")
    for u in ([0.4, 0.0, -0.8], [-np.pi, 0.0, np.pi]):
        a, b, g = u
        p = chart.evaluate(u)
        expected = [hat(E3) @ p, rz(a) @ hat(E1) @ rx(b) @ rz(g), p @ hat(E3)]
        for got, ref in zip(chart.jacobian(u), expected):
            assert np.abs(got - ref).max() < 1e-15


def test_both_plans_are_compiled_at_construction():
    chart = Chart(parse_chart(builtin_chart("so3-polar").source()))  # not validated, never run
    assert isinstance(vars(chart)["_plan"], _Plan)
    assert isinstance(vars(chart)["_jacobian_plan"], _Plan)


EVERY_OPERATION = """chart every_op {
  params: a in [0.2, 1.2], b in [-0.5, 0.5], c in [0.5, 2];
  matrix: [[sin(a)*cos(b) - tan(a/c), sqrt(c + a^2)/(1 + b^2), c^0 + c^1],
           [arccos(a*b/2) + arcsin(b/c)^3, -(pi*a)^-2 + 2*c^-1, (a - b)/(c*sin(a))]];
}"""


def complex_step(chart: Chart, u, h: float = 1e-30) -> np.ndarray:
    """Im p(u + i h e_k) / h through the tree walk: exact to roundoff, no cancellation."""
    out = np.empty((chart.d, *chart.shape))
    for k in range(chart.d):
        env = {name: complex(x, h if j == k else 0.0)
               for j, (name, x) in enumerate(zip(chart.params, u))}
        for i, row in enumerate(chart.ast.matrix):
            for j, entry in enumerate(row):
                out[k, i, j] = complex(evaluate_expr(entry, env)).imag / h
    return out


def test_jacobian_matches_complex_step_on_every_operation():
    chart = Chart.from_source(EVERY_OPERATION)
    pts = chart.random_interior(20, RNG)
    batch = chart.jacobian_many(pts)
    for u, jac in zip(pts, batch):
        ref = complex_step(chart, u)
        for got, want in zip(chart.jacobian(u), ref):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(jac, np.stack(chart.jacobian(u)))


def test_validate_rejects_non_orthogonal_tagged_chart():
    src = """chart bad {
  params: t in [0, 1];
  group: so(2);
  matrix: [[1, t], [0, 1]];
}
"""
    with pytest.raises(ValueError, match="orthogonal"):
        Chart.from_source(src)
    Chart(parse_chart(src))  # an unvalidated chart stays usable


SHEAR = "chart shear { params: t in [0, 2*pi]; matrix: [[1, t], [0, 1]]; }"


@pytest.mark.parametrize("source,message", [
    (SHEAR, r"chart 'shear' is not orthogonal on its domain"),
    ("chart stretch { params: t in [0.5, 2]; "
     "matrix: [[t*cos(t), -sin(t)], [sin(t), t^2*cos(t)]]; }", "is not orthogonal"),
    ("chart two { params: a in [0, 1], b in [0, 1]; "
     "matrix: [[cos(a), -sin(a)], [sin(a), cos(a)]]; }",
     r"chart 'two' is untagged, so o\(2\), but has 2 parameters; the group needs 1"),
], ids=["shear", "stretch", "parameter count"])
def test_validate_holds_untagged_square_charts_to_o_d(source, message):
    # an untagged D x D chart parametrises O(D) and gets the checks of an o(D) tag
    with pytest.raises(ChartError, match=message) as info:
        Chart.from_source(source)
    assert (info.value.line, info.value.column) == (1, 1)
    chart = Chart(parse_chart(source))  # unvalidated, it still names its group
    assert chart.parametrises is GROUPS[f"o{chart.shape[0]}"]


@pytest.mark.parametrize("source,tag", [
    (builtin_chart("so2-angle").source(), "so2"),
    (builtin_chart("so3-euler").source(), "so3"),
    (builtin_chart("so3-quat").source(), "so3"),  # 4 x 1, group: none
    (builtin_chart("so2-angle").source().replace("group: so(2);", "group: o(2);"), "o2"),
    (builtin_chart("so2-angle").source().replace("group: so(2);", ""), "o2"),
    (builtin_chart("so3-euler").source().replace("group: so(3);", ""), "o3"),
    ("chart col { params: t in [0, 1]; matrix: [[t], [1], [0]]; }", None),
    ("chart one { params: t in [0, 1]; matrix: [[t]]; }", None),
    ("chart row { params: t in [0, 1]; matrix: [[t, 1, sqrt(t)]]; }", None),
], ids=["so(2)", "so(3)", "quaternion", "o(2)", "untagged 2x2", "untagged 3x3", "3x1", "1x1", "1x3"])
def test_parametrises_names_the_group_of_the_elements(source, tag):
    chart = Chart.from_source(source)
    assert chart.parametrises is (None if tag is None else GROUPS[tag])


def test_validate_rejects_improper_so_chart():
    src = """chart mirror {
  params: a in [0, 2*pi];
  group: so(2);
  matrix: [[cos(a), sin(a)], [sin(a), -cos(a)]];
}
"""
    with pytest.raises(ValueError, match="det p"):
        Chart.from_source(src)


def test_validate_rejects_non_unit_quaternion_chart():
    src = """chart stretched {
  params: t in [0, 1];
  matrix: [[1 + t], [0], [0], [0]];
}
"""
    with pytest.raises(ValueError, match="deviates from 1"):
        Chart.from_source(src)


def test_validate_rejects_group_dimension_mismatch():
    src = """chart wrong_dim {
  params: a in [0, 2*pi];
  group: so(3);
  matrix: [[cos(a), -sin(a)], [sin(a), cos(a)]];
}
"""
    with pytest.raises(ValueError):
        Chart.from_source(src)


EULER_REORDERED = """chart so3_euler {
  params: beta in [0, pi], alpha in [-pi, pi], gamma in [-pi, pi];
  group: so(3);
  matrix: [
    [cos(alpha)*cos(gamma) - cos(beta)*sin(alpha)*sin(gamma), -cos(alpha)*sin(gamma) - cos(beta)*cos(gamma)*sin(alpha), sin(alpha)*sin(beta)],
    [cos(gamma)*sin(alpha) + cos(alpha)*cos(beta)*sin(gamma), cos(alpha)*cos(beta)*cos(gamma) - sin(alpha)*sin(gamma), -cos(alpha)*sin(beta)],
    [sin(beta)*sin(gamma), cos(gamma)*sin(beta), cos(beta)]
  ];
}
"""


HALF_TURN = """chart half_turn {
  params: t in [0, pi];
  group: so(2);
  matrix: [[cos(2*t), -sin(2*t)], [sin(2*t), cos(2*t)]];
}"""

USER_CHARTS = {"euler-reordered": EULER_REORDERED, "half-turn": HALF_TURN}
NAMED_POINTS = {"so3-polar": [[2.0, 0.4, np.pi - 1e-3], [5.5, -1.2, np.pi - 1e-6]],
                "so3-euler": [[0.7, 0.01, -2.5], [-3.0, 0.01, 3.0]]}


@pytest.mark.parametrize("name", [*(t for t in BUILTIN_NAMES if t != "so3-quat"), *USER_CHARTS])
def test_coordinates_round_trip(name):
    # every single-cover chart, near polar's alpha = pi seam and Euler's beta = 0 too
    chart = Chart.from_source(USER_CHARTS[name]) if name in USER_CHARTS else builtin_chart(name)
    density = normalize(chart)
    points = [*chart.random_interior(30, RNG, margin=0.02), *NAMED_POINTS.get(name, [])]
    for u in points:
        assert np.abs(density.coordinates(chart.evaluate(u)) - u).max() <= 1e-12


def test_source_round_trip():
    chart = builtin_chart("so3-polar")
    again = Chart.from_source(chart.source())
    assert again.ast == chart.ast


@pytest.mark.parametrize("source", [
    "chart nanv { params: t in [0, 1]; group: so(2); "
    "matrix: [[sqrt(t-2), 0], [0, sqrt(t-2)]]; }",
    "chart nanq { params: t in [0, 1]; matrix: [[sqrt(t-2)], [0], [0], [0]]; }",
], ids=["so2", "quaternion"])
def test_entries_not_a_number_on_the_domain_fail_validation(source):
    import warnings

    from haarkit.chartlang import ChartError

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartError, match="nan"):
            Chart.from_source(source)
    Chart(parse_chart(source))  # the plan itself compiles


def test_untagged_chart_with_non_finite_entries_fails_validation():
    import warnings

    from haarkit.chartlang import ChartError

    source = "chart u { params: t in [0, 1]; matrix: [[sqrt(t-2), 0], [0, 1]]; }"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartError, match=r"chart 'u' is not finite on its domain: "
                                             r"entry \(0, 0\) is nan"):
            Chart.from_source(source)
    Chart(parse_chart(source))  # the plan itself compiles
    # finite untagged charts of any shape still load
    Chart.from_source("chart w { params: t in [0, 1]; matrix: [[t, 1, sqrt(t)]]; }")
