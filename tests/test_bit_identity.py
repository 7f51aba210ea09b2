"""Differential tests: the fast paths give the reference paths' exact bits.

Each fast path (the compiled chart plan, the compacting inverse CDF, the
in-place improper flip, the templated sample formatter) is compared with a
straightforward reference kept here, on bytes rather than on values, so a
flipped sign of zero counts as a difference.
"""

import numpy as np
import pytest

from haarkit.chartlang import evaluate_expr, parse_chart
from haarkit.charts import BUILTIN_NAMES, Chart, builtin_chart
from haarkit.cli import _row_template, format_float, format_rows, to_json
from haarkit.groups import GROUPS as GROUP_CHARTS, improper_coset
from haarkit.haar import NumericalError
from haarkit.sampling import (CDF_TOL, MAX_NEWTON, SamplerConfig, _angle_cdf,
                              _angle_cdf_slope, _axis_streams, _half_angle_cdf,
                              _half_angle_cdf_slope, invert_cdf, sample)

RNG = np.random.default_rng(20261018)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Compiled chart plan against the per-entry tree walk


def walk(chart: Chart, pts: np.ndarray) -> np.ndarray:
    env = {name: pts[:, k] for k, name in enumerate(chart.params)}
    out = np.empty((pts.shape[0], *chart.shape))
    for i, row in enumerate(chart.ast.matrix):
        for j, entry in enumerate(row):
            out[:, i, j] = evaluate_expr(entry, env)
    return out


USER_CHARTS = {
    "constant entries": """chart consts {
  params: t in [0, 1];
  matrix: [[1, 0, -0], [2*pi, sqrt(2)/3, -(pi/4)^2]];
}""",
    "bare variables": """chart bare {
  params: s in [-1, 1], t in [0, 2];
  matrix: [[t, s], [-s, t]];
}""",
    "powers": """chart powers {
  params: t in [0.5, 2];
  matrix: [[t^2, t^3, t^0, t^-1], [t^1, (t + 1)^2, sin(t)^4, (1 - cos(t))^-2]];
}""",
    "divisions": """chart divisions {
  params: t in [0.5, 2], s in [-1, 1];
  matrix: [[1/t, s/t, sin(t)/(1 + t), s/(2 + s)/t]];
}""",
    "shared subexpression": """chart shared {
  params: a in [0, 3], b in [-1, 1];
  matrix: [[cos(a)*sin(b) + 1, cos(a)*sin(b) - 1], [(cos(a)*sin(b))^2, cos(a)*sin(b)*cos(a)*sin(b)]];
}""",
    "entry inside another entry": """chart nested {
  params: a in [0, 3], b in [-1, 1];
  matrix: [[cos(a)*2 + b, cos(a)], [a*a, -(a*a) + cos(a)]];
}""",
    "folded constant inside a variable subtree": """chart folded {
  params: t in [0, 1];
  matrix: [[t*(2*pi) + arccos(1/2), tan(t)*sqrt(3) - arcsin(1/2)*t]];
}""",
}


def plan_points(chart: Chart, n: int = 257) -> np.ndarray:
    lo, hi = chart.domain[:, 0], chart.domain[:, 1]
    pts = RNG.uniform(lo, hi, size=(n, chart.d))
    pts[0], pts[1] = lo, hi  # the closed box's corners
    return pts


@pytest.mark.parametrize("tag", BUILTIN_NAMES)
def test_plan_matches_walk_on_builtin_charts(tag):
    chart = builtin_chart(tag)
    pts = plan_points(chart)
    assert same_bits(chart.evaluate_many(pts), walk(chart, pts))


@pytest.mark.parametrize("label", sorted(USER_CHARTS))
def test_plan_matches_walk_on_user_charts(label):
    chart = Chart(parse_chart(USER_CHARTS[label]))
    pts = plan_points(chart)
    assert same_bits(chart.evaluate_many(pts), walk(chart, pts))


def test_plan_on_fortran_ordered_and_single_point_batches():
    chart = builtin_chart("so3-polar")
    pts = np.asfortranarray(plan_points(chart, 33))
    assert same_bits(chart.evaluate_many(pts), walk(chart, pts))
    assert same_bits(chart.evaluate_many(pts[:1]), walk(chart, pts[:1]))
    assert chart.evaluate_many(np.empty((0, 3))).shape == (0, 3, 3)


def test_plan_computes_each_distinct_subtree_once():
    # cos(alpha), sin(alpha) and -sin(alpha): three steps for four entries
    assert len(builtin_chart("so2-angle")._plan.steps) == 3
    # the six cosines and sines of the Euler angles are shared by all entries
    euler = builtin_chart("so3-euler")._plan
    calls = [fn for fn, *_ in euler.steps if fn in (np.sin, np.cos)]
    assert len(calls) == 6
    assert euler.registers < len(euler.steps)


def test_plan_scalar_evaluate_agrees():
    chart = Chart(parse_chart(USER_CHARTS["entry inside another entry"]))
    pts = plan_points(chart, 5)
    batch = chart.evaluate_many(pts)
    for k in range(5):
        assert same_bits(batch[k], chart.evaluate(pts[k]))


# ---------------------------------------------------------------------------
# Compacting inverse CDF against the dense loop it replaced


def dense_invert_cdf(cdf, target, bracket, derivative):
    a, b = float(bracket[0]), float(bracket[1])
    t = np.atleast_1d(np.asarray(target, dtype=float)).copy()
    fa, fb = float(cdf(a)), float(cdf(b))
    lo = np.full_like(t, a)
    hi = np.full_like(t, b)
    x = a + (b - a) * np.clip((t - fa) / (fb - fa), 0.0, 1.0)
    for _ in range(MAX_NEWTON):
        r = np.asarray(cdf(x)) - t
        live = np.abs(r) >= CDF_TOL
        if not live.any():
            break
        hi = np.where(live & (r > 0), x, hi)
        lo = np.where(live & (r < 0), x, lo)
        d = np.asarray(derivative(x))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(d > 0, r / np.where(d > 0, d, 1.0), np.inf)
        candidate = x - step
        bad = ~np.isfinite(candidate) | (candidate <= lo) | (candidate >= hi)
        candidate = np.where(bad, 0.5 * (lo + hi), candidate)
        x = np.where(live, candidate, x)
    residual = np.abs(np.asarray(cdf(x)) - t)
    return x, residual


def cdf_targets(n: int = 20000) -> np.ndarray:
    t = RNG.random(n)
    t[:4] = [0.0, 1.0, 1e-300, 1.0 - 2**-53]  # endpoints and near-endpoints
    return t


@pytest.mark.parametrize("cdf, slope, bracket", [
    (_angle_cdf, _angle_cdf_slope, (0.0, np.pi)),
    (_half_angle_cdf, _half_angle_cdf_slope, (0.0, np.pi)),
    (lambda x: (1 - np.cos(x)) / 2, lambda x: np.sin(x) / 2, (0.0, np.pi)),
], ids=["angle-slope", "half-angle-slope", "cosine-slope"])
def test_compacted_invert_cdf_matches_dense_loop(cdf, slope, bracket):
    t = cdf_targets()
    ref, residual = dense_invert_cdf(cdf, t, bracket, derivative=slope)
    assert residual.max() < CDF_TOL
    assert same_bits(invert_cdf(cdf, t, bracket, derivative=slope), ref)
    scalar = invert_cdf(cdf, t[7], bracket, derivative=slope)
    assert isinstance(scalar, float) and same_bits(np.float64(scalar), ref[7])


def test_compacted_invert_cdf_reports_the_dense_residual():
    step_cdf = lambda x: np.where(np.asarray(x) < 0.5, 0.0, 1.0)
    step_slope = lambda x: np.zeros_like(x)
    t = np.array([0.25, 0.5, 0.75, 1.0])
    _, residual = dense_invert_cdf(step_cdf, t, (0.0, 1.0), step_slope)
    with pytest.raises(NumericalError, match=f"worst residual {float(residual.max()):.3g}"):
        invert_cdf(step_cdf, t, (0.0, 1.0), step_slope)


# ---------------------------------------------------------------------------
# In-place improper flip against the np.where form


@pytest.mark.parametrize("group", ["o2", "o3"])
def test_in_place_flip_matches_where(group):
    proper = "so" + group[1:]
    for chart in GROUP_CHARTS[group]:
        config = SamplerConfig(group=group, chart=chart, seed=4242, count=5000)
        mats = sample(SamplerConfig(group=proper, chart=chart, seed=4242, count=5000)).matrices
        d = builtin_chart(chart).d
        flip = _axis_streams(4242, d + 1)[d].random(5000) < 0.5
        ref = np.where(flip[:, None, None], improper_coset(mats), mats)
        assert same_bits(sample(config).matrices, ref)


# ---------------------------------------------------------------------------
# Templated sample formatting against format_float


SPECIAL = [-0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
           1e-310, 1.0 / 3.0, -2.0 / 3.0, 1e22, 123456789012345678.0, 1.0, -1.0]


def reference_lines(rows: np.ndarray, key) -> str:
    lines = []
    for value in rows:
        if key is None:
            lines.append(",".join(format_float(x) for x in value.ravel()))
        elif key == "q":
            lines.append(to_json({"q": list(value)}))
        else:
            lines.append(to_json({"R": value.tolist()}))
    return "\n".join(lines)


@pytest.mark.parametrize("shape, key", [((3, 3), "R"), ((2, 2), "R"), ((4,), "q"),
                                        ((3, 3), None), ((2, 2), None)])
@pytest.mark.parametrize("with_nan", [False, True])
def test_format_rows_matches_format_float(shape, key, with_nan):
    size = int(np.prod(shape))
    values = np.concatenate([SPECIAL, RNG.normal(size=60 * size - len(SPECIAL))])
    rows = RNG.permutation(values).reshape(60, *shape)
    if with_nan:
        rows.reshape(-1)[7] = np.nan
    assert format_rows(_row_template(shape, key), rows) == reference_lines(rows, key)
