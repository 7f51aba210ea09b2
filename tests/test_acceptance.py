"""Acceptance battery: the binding numerical contracts, one test per contract.

Each test carries its tolerance and runtime budget inline.  The covariance
clause of the orbit contract states a closed form that is not the measured
covariance (it would assign a negative variance to a diagonal component);
that assertion is kept as stated and is expected to fail.
"""

import time

import numpy as np
import pytest
from scipy import stats

from haarkit.chartlang import parse_chart, print_chart
from haarkit.charts import BUILTIN_NAMES, builtin_chart
from haarkit.cli import main as cli_main
from haarkit.haar import chart_change_check, integrate_tensor, normalize
from haarkit.orbit import (OrbitSpec, covariance, diagonal_delta,
                           identity_pair, mc_moments, moment)
from haarkit.quadrature import QuadratureRule
from haarkit.reynolds import (dim_invariants_closed, dim_invariants_quadrature,
                              invariant_rank, reynolds_continuous)
from haarkit.sampling import SamplerConfig, closed_form, sample
from haarkit.tensors import act, as_tensor

from malformed_charts import MALFORMED


class Budget:
    """Context manager asserting a wall-clock runtime budget."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.limit, f"runtime {elapsed:.2f}s over {self.limit}s budget"
        return False


def so3_setup(nodes=24):
    chart = builtin_chart("so3-quat")
    rule = QuadratureRule.for_domain(chart.domain, nodes)
    return normalize(chart, rule=rule), rule


def test_01_exact_dimension_table():
    # closed-form invariant dimensions at selected orders, exactly
    orders = [0, 1, 2, 3, 4, 5, 6, 8, 15, 16, 20]
    values = [1, 0, 1, 1, 3, 6, 15, 91, 83097, 227475, 13393689]
    with Budget(1.0):
        for n, expected in zip(orders, values):
            assert dim_invariants_closed("so3", n) == expected, n
            assert dim_invariants_closed("o3", n) == (expected if n % 2 == 0 else 0), n


def test_02_quadrature_matches_closed_dimensions():
    # the exact n + 2 angle rule reproduces every closed dimension through order 12
    with Budget(5.0):
        for group in ("so3", "o3"):
            for n in range(13):
                got = dim_invariants_quadrature(group, n)
                assert abs(got - dim_invariants_closed(group, n)) < 1e-6, (group, n)


def test_03_numeric_density_equals_closed_density():
    # 1000 random interior points per 3D chart, normalized numeric vs closed
    # form; for the axis-angle chart this pins the sin^2(alpha/2) profile
    rng = np.random.default_rng(1003)
    with Budget(30.0):
        for tag in ("so3-euler", "so3-polar", "so3-quat"):
            chart = builtin_chart(tag)
            density = normalize(chart)
            pts = chart.random_interior(1000, rng)
            got = density.density_many(pts)
            ref = np.array([closed_form(tag).density(u) for u in pts])
            assert np.abs(got - ref).max() < 1e-6, tag


def test_04_normalization_constants():
    expected = {"so2-angle": 2 * np.pi,
                "so3-euler": 8 * np.pi**2,
                "so3-quat": 2 * np.pi**2}
    with Budget(10.0):
        for tag, value in sorted(expected.items()):
            c = normalize(builtin_chart(tag)).C
            assert abs(c - value) / value < 1e-8, tag


def test_05_invariance_battery():
    # left, right, and inversion invariance of every entry monomial of
    # degree <= 2, plus the planar shifted-chart change residual
    rng = np.random.default_rng(1005)

    def transforms(improper):
        out = []
        for _ in range(3):
            h = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            if np.linalg.det(h) < 0:
                h[:, 0] = -h[:, 0]
            out.append(h)
        if improper:
            out.append(-out[0])
        return out

    with Budget(60.0):
        density, _ = so3_setup()
        for group in ("so3", "o3"):
            base1 = integrate_tensor(lambda m: m, group, density)
            base2 = integrate_tensor(
                lambda m: np.einsum("nij,nkl->nijkl", m, m), group, density)
            for h in transforms(improper=(group == "o3")):
                for push in (lambda m: np.einsum("ab,nbc->nac", h, m),
                             lambda m: np.einsum("nab,bc->nac", m, h)):
                    got1 = integrate_tensor(push, group, density)
                    got2 = integrate_tensor(
                        lambda m: np.einsum("nij,nkl->nijkl", push(m), push(m)),
                        group, density)
                    assert np.abs(got1 - base1).max() < 1e-7
                    assert np.abs(got2 - base2).max() < 1e-7
            inv = lambda m: np.swapaxes(m, -1, -2)
            got1 = integrate_tensor(inv, group, density)
            got2 = integrate_tensor(
                lambda m: np.einsum("nij,nkl->nijkl", inv(m), inv(m)),
                group, density)
            assert np.abs(got1 - base1).max() < 1e-7
            assert np.abs(got2 - base2).max() < 1e-7

        residual = chart_change_check(builtin_chart("so2-angle"),
                                      builtin_chart("so2-shifted"),
                                      [2.5], shift=[-np.pi])
        assert residual < 1e-9


def test_06_sampler_angle_law_and_trace_moments():
    # million-sample runs per chart: chi-squared against the rotation-angle
    # law (2/pi) sin^2(a/2) and trace moments within 5 standard errors
    n = 1_000_000
    bins = 50
    edges = np.linspace(0.0, np.pi, bins + 1)
    cdf = (edges - np.sin(edges)) / np.pi  # integral of the angle law
    expected = n * np.diff(cdf)
    with Budget(60.0):
        for chart in ("euler", "polar", "quaternion"):
            batch = sample(SamplerConfig(group="so3", chart=chart, seed=1006,
                                         count=n))
            tr = np.trace(batch.matrices, axis1=1, axis2=2)
            alpha = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
            counts, _ = np.histogram(alpha, bins=edges)
            chi2 = ((counts - expected) ** 2 / expected).sum()
            p = stats.chi2.sf(chi2, bins - 1)
            assert p > 0.001, (chart, chi2, p)
            # Tr has mean 0 and second moment 1
            se1 = tr.std(ddof=1) / np.sqrt(n)
            se2 = (tr**2).std(ddof=1) / np.sqrt(n)
            assert abs(tr.mean()) < 5 * se1, chart
            assert abs((tr**2).mean() - 1.0) < 5 * se2, chart


def test_07_reynolds_projector_properties():
    rng = np.random.default_rng(1007)
    with Budget(60.0):
        density, _ = so3_setup()
        for order in (1, 2, 3, 4):
            t = as_tensor(rng.normal(size=(3,) * order))
            avg = reynolds_continuous("so3", t, density)
            again = reynolds_continuous("so3", avg, density)
            assert np.abs(again.array - avg.array).max() < 1e-7, order
            h = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            if np.linalg.det(h) < 0:
                h[:, 0] = -h[:, 0]
            left = reynolds_continuous("so3", act(h, t), density)
            assert np.abs(left.array - avg.array).max() < 1e-7, order
        for group in ("so3", "o3"):
            for order in (2, 3, 4):
                rank = invariant_rank(group, order, density)
                assert rank == dim_invariants_closed(group, order), (group, order)


def test_08_orbit_moments_of_diagonal_seed():
    # quadrature mean, Monte Carlo agreement, and the stated covariance form
    v0 = np.diag([1.0, 2.0, 3.0])
    with Budget(60.0):
        density, rule = so3_setup()
        spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(v0))

        m1 = moment(spec, 1, density, rule=rule)
        assert np.abs(m1.array - 2.0 * np.eye(3)).max() < 1e-7

        config = SamplerConfig(group="so3", chart="quaternion", seed=1008,
                               count=100_000)
        for r in (1, 2):
            exact = moment(spec, r, density, rule=rule)
            est, err = mc_moments(spec, r, config)
            z = np.abs(est.array - exact.array) / np.maximum(err.array, 1e-12)
            assert z.max() < 5.0, r

        # stated closed form: coefficient 1 on (J2/3 - J1) with
        # J1[ijkl] = [i=j=k=l], J2 = I (x) I.  It is not the measured
        # covariance: at (0,0,0,0) it gives -2/3, a negative variance.
        claimed = 1.0 * (identity_pair().array / 3.0 - diagonal_delta().array)
        cov = covariance(spec, density, rule=rule)
        assert np.abs(cov.array - claimed).max() < 1e-7, (
            "stated covariance form differs from the measured covariance; "
            "the measured form is (3 T2 - T1^2)/15 times (Sym - J2/3)")


def test_09_parser_round_trip_and_malformed_corpus(tmp_path, capsys):
    with Budget(1.0):
        for name in BUILTIN_NAMES:
            source = builtin_chart(name).source()
            ast = parse_chart(source)
            assert parse_chart(print_chart(ast)) == ast, name
        for label, source in MALFORMED:
            path = tmp_path / "bad.chart"
            path.write_text(source)
            code = cli_main(["check-chart", "--chart", str(path)])
            captured = capsys.readouterr()
            assert code != 0, label
            assert "line" in captured.err and "column" in captured.err, label
