"""Seeded uniform sampling: CDF inversion, determinism, distribution laws.

The quaternion-chart law is cross-checked against the classic construction
of uniform points on the 3-sphere by normalizing 4D Gaussian draws.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from haarkit import sampling
from haarkit.charts import BUILTIN_NAMES, builtin_chart
from haarkit.groups import GROUPS
from haarkit.haar import NumericalError
from haarkit.quadrature import axis_rule
from haarkit.sampling import CDF_TOL, CHART_LAWS, SamplerConfig, invert_cdf, sample


def test_invert_cdf_square_law():
    cdf = lambda x: x**2
    targets = np.linspace(0.01, 0.99, 23)
    got = invert_cdf(cdf, targets, (0.0, 1.0), derivative=lambda x: 2 * x)
    # convergence contract is in CDF space
    assert np.abs(cdf(got) - targets).max() < 1e-12
    assert np.abs(got - np.sqrt(targets)).max() < 1e-10


def test_invert_cdf_with_derivative():
    cdf = lambda x: (1 - np.cos(x)) / 2
    pdf = lambda x: np.sin(x) / 2
    targets = np.array([0.1, 0.5, 0.9])
    got = invert_cdf(cdf, targets, (0.0, np.pi), derivative=pdf)
    assert np.abs(got - np.arccos(1 - 2 * targets)).max() < 1e-12


def test_invert_cdf_scalar_and_endpoints():
    cdf = lambda x: x
    pdf = lambda x: np.ones_like(x)
    assert np.isclose(invert_cdf(cdf, 0.0, (0.0, 1.0), pdf), 0.0, atol=1e-12)
    assert np.isclose(invert_cdf(cdf, 1.0, (0.0, 1.0), pdf), 1.0, atol=1e-12)


def test_invert_cdf_out_of_range_target():
    with pytest.raises(ValueError):
        invert_cdf(lambda x: 0.0 * x, 0.5, (0.0, 1.0), lambda x: 0.0 * x)


def test_invert_cdf_non_convergence():
    # a jump at 0.5 brackets the target but the residual never closes
    step_cdf = lambda x: np.where(np.asarray(x) < 0.5, 0.0, 1.0)
    with pytest.raises(NumericalError):
        invert_cdf(step_cdf, 0.5, (0.0, 1.0), lambda x: np.zeros_like(x))


COSINE_CDF = (lambda x: (1 - np.cos(x)) / 2, lambda x: np.sin(x) / 2)


@pytest.mark.parametrize("guess", [np.nan, np.inf, -np.inf])
def test_invert_cdf_starts_on_the_line_where_a_start_is_not_finite(guess):
    # a NaN first guess has a NaN residual, which no |r| >= tol test catches
    cdf, pdf = COSINE_CDF
    t = np.array([0.2, 0.7])
    got = invert_cdf(cdf, t, (0.0, np.pi), pdf, start=lambda u: np.full_like(u, guess))
    assert got.tobytes() == invert_cdf(cdf, t, (0.0, np.pi), pdf).tobytes()


def test_invert_cdf_clips_a_start_outside_the_bracket():
    cdf, pdf = COSINE_CDF
    t = np.array([0.0, 0.2, 0.7, 1.0])
    for guess in (-5.0, 10.0):
        got = invert_cdf(cdf, t, (0.0, np.pi), pdf, start=lambda u: np.full_like(u, guess))
        assert np.all((got >= 0.0) & (got <= np.pi))
        assert np.abs(cdf(got) - t).max() < CDF_TOL


@pytest.mark.parametrize("law, cdf_name", [(sampling.ANGLE, "_angle_cdf"),
                                           (sampling.HALF_ANGLE, "_half_angle_cdf")],
                         ids=["angle", "half-angle"])
def test_law_draws_from_their_start_take_few_cdf_evaluations(law, cdf_name, monkeypatch):
    # a straight-line start took 5.63 (angle) and 5.92 (half-angle) evaluations per target
    cdf = getattr(sampling, cdf_name)
    evaluated = []

    def counted(x):
        evaluated.append(np.size(x))
        return cdf(x)

    monkeypatch.setattr(sampling, cdf_name, counted)
    u = np.random.default_rng(34).random(100_000)
    u[:5] = [0.0, 1.0, 1e-300, 1.0 - 2**-53, 5e-324]
    x = law.draw(u, 0.0, np.pi)
    assert sum(evaluated) / u.size <= 3.5
    assert np.abs(cdf(x) - u).max() < CDF_TOL


# sha256 of coordinates then matrices of 1000 draws at seed 2026: these samplers
# never invert a CDF numerically, so a change to invert_cdf leaves their bytes alone
UNTOUCHED_SAMPLERS = {
    ("so2", "angle"): "b183ea50bd36ec2bf00c575418d41e90719b59489ee1d897871efd2f565bc501",
    ("so2", "shifted"): "00d9793e639972b06254bb71def5a6e7e30ad7c33c25e5f17a137278bbec2f6e",
    ("o2", "angle"): "85de25b74b05c81367b7328d884b63ca05fc6868f9d706fcee1a468a0c385b77",
    ("o2", "shifted"): "6d8a14e9a2aeb9a6977e939a7dc209181bdecee5a9f1226f82813477b87037d4",
    ("so3", "euler"): "08e0c88604b4ec2b6406120c714a67fea066c0ecadabb1dd4ac77f29fdebe067",
    ("o3", "euler"): "237421a59a6f6fcd40a454aca0461a7b59a6e29d791e06e471c1a1b5b002e1da",
}


@pytest.mark.parametrize("group, chart", sorted(UNTOUCHED_SAMPLERS))
def test_samplers_without_a_numeric_inversion_keep_their_bytes(group, chart):
    batch = sample(SamplerConfig(group=group, chart=chart, seed=2026, count=1000))
    digest = hashlib.sha256(batch.coordinates.tobytes() + batch.matrices.tobytes()).hexdigest()
    assert digest == UNTOUCHED_SAMPLERS[group, chart]


def test_config_defaults_and_aliases():
    assert SamplerConfig(group="so3").chart == "so3-euler"
    assert SamplerConfig(group="so3", chart="quaternion").chart == "so3-quat"
    assert SamplerConfig(group="so2", chart="shifted").chart == "so2-shifted"
    assert SamplerConfig(group="o3", chart="builtin:so3-polar").chart == "so3-polar"


def test_law_table_rows_are_the_builtin_charts():
    assert tuple(CHART_LAWS) == BUILTIN_NAMES
    for tag, (alias, laws) in CHART_LAWS.items():
        assert len(laws) == builtin_chart(tag).d
        for group in (g for g in GROUPS.values() if tag in g.charts):
            assert SamplerConfig(group=group.tag, chart=alias).chart == tag


@pytest.mark.parametrize("tag, axis", [(tag, axis) for tag, (_, laws) in CHART_LAWS.items()
                                       for axis in range(len(laws))])
def test_law_mass_pdf_and_draw_agree(tag, axis):
    law = CHART_LAWS[tag][1][axis]
    lo, hi = builtin_chart(tag).domain[axis]
    x, w = axis_rule(64, lo, hi)
    mass = law.mass(lo, hi)
    assert abs(mass - w @ law.pdf(x)) < 1e-12
    u = np.array([0.0, 0.05, 0.3, 0.5, 0.77, 0.999, 1.0])
    for target, drawn in zip(u, law.draw(u, lo, hi)):
        x, w = axis_rule(64, lo, drawn)  # the CDF at the draw
        assert abs(w @ law.pdf(x) / mass - target) < 1e-10


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(group="su2")
    with pytest.raises(ValueError):
        SamplerConfig(group="so3", chart="so2-angle")
    with pytest.raises(ValueError):
        SamplerConfig(group="so2", count=0)
    with pytest.raises(ValueError):
        SamplerConfig(group="so2", seed=-1)


def test_determinism_and_prefix_property():
    a = sample(SamplerConfig(group="so3", chart="polar", seed=9, count=8))
    b = sample(SamplerConfig(group="so3", chart="polar", seed=9, count=8))
    assert np.array_equal(a.coordinates, b.coordinates)
    assert np.array_equal(a.matrices, b.matrices)
    longer = sample(SamplerConfig(group="so3", chart="polar", seed=9, count=20))
    assert np.array_equal(longer.coordinates[:8], a.coordinates)
    other_seed = sample(SamplerConfig(group="so3", chart="polar", seed=10, count=8))
    assert not np.allclose(other_seed.coordinates, a.coordinates)


@pytest.mark.parametrize("group, chart", [("so3", "polar"), ("o3", "euler")])
def test_sampler_memory_is_its_output_plus_one_block(group, chart):
    # drawn in whole, the batch held about ten count-length temporaries per
    # Newton round and stage (18.3 and 12.2 MiB above the output at 2 * 10^5)
    config = SamplerConfig(group=group, chart=chart, seed=3, count=200_000)
    sample(SamplerConfig(group=group, chart=chart, count=2))  # compile the chart's plan
    tracemalloc.start()
    try:
        batch = sample(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = batch.coordinates.nbytes + batch.matrices.nbytes
    if batch.quaternions is not None:
        output += batch.quaternions.nbytes
    assert peak - output <= 8 * 2**20, (peak, output)


def test_improper_coin_does_not_disturb_rotation_stream():
    proper = sample(SamplerConfig(group="so3", seed=4, count=64))
    full = sample(SamplerConfig(group="o3", seed=4, count=64))
    dets = np.linalg.det(full.matrices)
    assert np.allclose(np.abs(dets), 1.0)
    keep = dets > 0
    assert 0.2 < keep.mean() < 0.8
    assert np.allclose(full.matrices[keep], proper.matrices[keep])
    assert np.allclose(full.matrices[~keep], -proper.matrices[~keep])


def test_o2_improper_coset():
    batch = sample(SamplerConfig(group="o2", seed=1, count=200))
    dets = np.linalg.det(batch.matrices)
    improper = batch.matrices[dets < 0]
    assert improper.shape[0] > 40
    # sigma g leaves the (1,1) slot as cos with flipped sign pattern: trace 0
    assert np.abs(np.trace(improper, axis1=1, axis2=2)).max() < 1e-12


def test_batch_elements_and_quaternions():
    batch = sample(SamplerConfig(group="so3", chart="quaternion", seed=2, count=6))
    assert len(batch) == 6
    assert batch.quaternions.shape == (6, 4)
    assert np.allclose(np.linalg.norm(batch.quaternions, axis=1), 1.0, atol=1e-12)
    euler = sample(SamplerConfig(group="so3", chart="euler", seed=2, count=6))
    assert euler.quaternions is None


def test_matrices_are_rotations():
    for group, chart in (("so2", ""), ("so3", "euler"), ("so3", "polar"),
                         ("so3", "quaternion")):
        batch = sample(SamplerConfig(group=group, chart=chart, seed=11, count=50))
        m = batch.matrices
        eye = np.eye(m.shape[-1])
        assert np.abs(np.einsum("nij,nkj->nik", m, m) - eye).max() < 1e-12
        assert np.allclose(np.linalg.det(m), 1.0)


def test_euler_beta_law_moments():
    # beta has density sin(b)/2: E[cos b] = 0, E[cos^2 b] = 1/3
    batch = sample(SamplerConfig(group="so3", chart="euler", seed=5, count=40000))
    beta = batch.coordinates[:, 1]
    assert abs(np.cos(beta).mean()) < 0.02
    assert abs((np.cos(beta) ** 2).mean() - 1 / 3) < 0.02


def test_polar_angle_laws():
    batch = sample(SamplerConfig(group="so3", chart="polar", seed=6, count=40000))
    phi, psi, alpha = batch.coordinates.T
    # alpha ~ (1 - cos a)/pi: E[cos a] = -1/2; psi ~ cos(psi)/2: E[sin^2] = 1/3
    assert abs(np.cos(alpha).mean() + 0.5) < 0.02
    assert abs((np.sin(psi) ** 2).mean() - 1 / 3) < 0.02
    assert abs(phi.mean() - np.pi) < 0.05


def test_trace_moments_all_charts():
    # E[Tr] = 0 and E[Tr^2] = 1 on SO(3) regardless of the chart sampled in
    for chart in ("euler", "polar", "quaternion"):
        batch = sample(SamplerConfig(group="so3", chart=chart, seed=7, count=40000))
        tr = np.trace(batch.matrices, axis1=1, axis2=2)
        assert abs(tr.mean()) < 0.03
        assert abs((tr**2).mean() - 1.0) < 0.05


def test_quaternion_chart_matches_gaussian_sphere_law():
    # uniform S^3 via normalized Gaussians gives theta = arccos(w) the
    # CDF (2 theta - sin 2 theta) / (2 pi); compare sampler quantiles to it
    batch = sample(SamplerConfig(group="so3", chart="quaternion", seed=8,
                                 count=50000))
    theta = np.arccos(np.clip(batch.quaternions[:, 0], -1, 1))
    grid = np.linspace(0.05, 0.95, 19)
    empirical = np.quantile(theta, grid)
    cdf_at_quantiles = (2 * empirical - np.sin(2 * empirical)) / (2 * np.pi)
    assert np.abs(cdf_at_quantiles - grid).max() < 0.01

    rng = np.random.default_rng(123)
    gauss = rng.normal(size=(50000, 4))
    gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
    theta_ref = np.arccos(np.clip(gauss[:, 0], -1, 1))
    assert abs(np.median(theta) - np.median(theta_ref)) < 0.02
    assert abs(np.cos(theta).mean() - np.cos(theta_ref).mean()) < 0.02


def test_so2_angles_uniform_chi2():
    batch = sample(SamplerConfig(group="so2", seed=12, count=30000))
    counts, _ = np.histogram(batch.coordinates[:, 0], bins=50,
                             range=(0, 2 * np.pi))
    expected = 30000 / 50
    chi2 = ((counts - expected) ** 2 / expected).sum()
    # 49 dof: far tails only
    assert chi2 < 95.0
