"""Seeded uniform sampling: coordinate laws, determinism, distribution laws.

The quaternion-chart law is cross-checked against the classic construction
of uniform points on the 3-sphere by normalizing 4D Gaussian draws.
"""

import hashlib
import itertools
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from haarkit import sampling
from haarkit.charts import BUILTIN_NAMES, builtin_chart
from haarkit.groups import GROUPS
from haarkit.quadrature import axis_rule
from haarkit.sampling import CHART_LAWS, SamplerConfig, _cycloid_cdf, sample


def dispatch_fingerprint() -> str:
    """sha256 of np.arccos, np.arcsin and np.arctan2 on a fixed probe.  Their last bits depend
    on the SIMD loops numpy dispatches them to (AVX-512 or AVX2 on x86), and so do the bytes of
    the samplers whose laws invert through them: the Euler law and the cycloid law."""
    x = np.linspace(-1.0, 1.0, 4099)[1:-1]
    y = np.sqrt(1.0 - x * x)
    return hashlib.sha256(np.arccos(x).tobytes() + np.arcsin(x).tobytes()
                          + np.arctan2(y, x).tobytes()).hexdigest()


# The fingerprints of numpy 2.4.6's AVX-512 loops and of its AVX2 loops, the latter taken under
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" on the same host.  A pin that depends
# on the path holds one digest per path, each computed on that path.
AVX512_LOOPS = "fca62eda43b79e9b5fad859e5a3936a24fb16349905a6af7556d9494800b8cae"
AVX2_LOOPS = "a32ceca17826a05a788f6f97401995954e432d00f8e58901ae035661304f90af"


def assert_pinned(digest: str, pin: str | dict[str, str]) -> None:
    """digest is the pin, or for a per-path pin the digest of this process's dispatch path."""
    if isinstance(pin, dict):
        path = dispatch_fingerprint()
        if path not in pin:
            pytest.fail(f"no pin for numpy dispatch path {path}; it draws {digest}")
        pin = pin[path]
    assert digest == pin


# sha256 of coordinates then matrices of 1000 draws at seed 2026: these samplers
# never run the cycloid law, so a change to it leaves their bytes alone.  so2 and o2
# draw through uniforms, sin and cos only, so one digest holds on every path;
# the Euler law's arccos rounds per path.
UNTOUCHED_SAMPLERS = {
    ("so2", "angle"): "b183ea50bd36ec2bf00c575418d41e90719b59489ee1d897871efd2f565bc501",
    ("so2", "shifted"): "00d9793e639972b06254bb71def5a6e7e30ad7c33c25e5f17a137278bbec2f6e",
    ("o2", "angle"): "85de25b74b05c81367b7328d884b63ca05fc6868f9d706fcee1a468a0c385b77",
    ("o2", "shifted"): "6d8a14e9a2aeb9a6977e939a7dc209181bdecee5a9f1226f82813477b87037d4",
    ("so3", "euler"): {
        AVX512_LOOPS: "08e0c88604b4ec2b6406120c714a67fea066c0ecadabb1dd4ac77f29fdebe067",
        AVX2_LOOPS: "f0496528e74602c8cad28eeba14fa21e7460bc2a7d04b2214e1cf0260a073418",
    },
    ("o3", "euler"): {
        AVX512_LOOPS: "237421a59a6f6fcd40a454aca0461a7b59a6e29d791e06e471c1a1b5b002e1da",
        AVX2_LOOPS: "1c911b30270b899e4fc5d8582c0912fd37dd3a179bdee283999fba205482977d",
    },
}


@pytest.mark.parametrize("group, chart", sorted(UNTOUCHED_SAMPLERS))
def test_samplers_without_a_numeric_inversion_keep_their_bytes(group, chart):
    batch = sample(SamplerConfig(group=group, chart=chart, seed=2026, count=1000))
    digest = hashlib.sha256(batch.coordinates.tobytes() + batch.matrices.tobytes()).hexdigest()
    assert_pinned(digest, UNTOUCHED_SAMPLERS[group, chart])


# sha256 of coordinates, matrices and quaternions (so3 quaternion only) of 1000
# draws at seed 2026, and of closed_form(tag).C then its densities at 1000 points:
# these run the cycloid law, and a rewrite of it that keeps every bit passes
INVERTED_SAMPLERS = {
    ("so3", "polar"): {
        AVX512_LOOPS: "a5bb57b3356db6a1567289c4ce0c96e978a74468ec1c69050dd7df4d9e0a3db1",
        AVX2_LOOPS: "8cc975d3b104b669b2bdcc5e58040c6f58711b75a640808803681ac0b631398d",
    },
    ("so3", "quaternion"): {
        AVX512_LOOPS: "2c5c80a2af495855cb1463c41bff0ae0a0ba00425b06aeae0344f98ce1a53fec",
        AVX2_LOOPS: "6c47fa87ab49d86819f38345bfb267fdd530d20258035279cf0068c1fc2892c0",
    },
    ("o3", "polar"): {
        AVX512_LOOPS: "388c2284070e99e4b6a83da308bd2a18e1f687bdb1fd471149e3120ef3633167",
        AVX2_LOOPS: "edc46635d5210309b067379b4ef4c8d1542e4f9a4418b4c8679f2dfece6c7f46",
    },
    ("o3", "quaternion"): {
        AVX512_LOOPS: "72435055d888dfbec7a03f767998b55705c003f0e9475dec89ec2cd818508db3",
        AVX2_LOOPS: "987b54e6c35b4143fe7aaf70295f85d1a1cd5efdb23b4a827196fe079ef1755c",
    },
}
CYCLOID_CLOSED_FORMS = {
    "so3-polar": "9c0af8b0891fbda3796e436351d295826af8824f7c6ab8d835317da791fe02e0",
    "so3-quat": "3a17b7adefaf615b5657ad8bc5b198b0b6f2d6e9c7e898af3f1a4945eb9779cd",
}


@pytest.mark.parametrize("group, chart", sorted(INVERTED_SAMPLERS))
def test_samplers_through_the_cycloid_law_keep_their_bytes(group, chart):
    batch = sample(SamplerConfig(group=group, chart=chart, seed=2026, count=1000))
    quats = b"" if batch.quaternions is None else batch.quaternions.tobytes()
    assert (batch.quaternions is not None) == ((group, chart) == ("so3", "quaternion"))
    digest = hashlib.sha256(batch.coordinates.tobytes() + batch.matrices.tobytes() + quats)
    assert_pinned(digest.hexdigest(), INVERTED_SAMPLERS[group, chart])


@pytest.mark.parametrize("tag", sorted(CYCLOID_CLOSED_FORMS))
def test_closed_forms_of_the_cycloid_law_keep_their_bytes(tag):
    domain = builtin_chart(tag).domain
    pts = np.random.default_rng(2026).uniform(domain[:, 0], domain[:, 1], (1000, len(domain)))
    reference = sampling.closed_form(tag)
    digest = hashlib.sha256(np.float64(reference.C).tobytes() + reference.density_many(pts).tobytes())
    assert digest.hexdigest() == CYCLOID_CLOSED_FORMS[tag]


def test_config_defaults_and_aliases():
    assert SamplerConfig(group="so3").chart == "so3-euler"
    assert SamplerConfig(group="so3", chart="quaternion").chart == "so3-quat"
    assert SamplerConfig(group="so2", chart="shifted").chart == "so2-shifted"
    assert SamplerConfig(group="o3", chart="builtin:so3-polar").chart == "so3-polar"
    assert SamplerConfig(group="o3", chart="builtin:euler").chart == "so3-euler"


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
    if law.width == 2:  # the cycloid law: a draw is no function of one target
        x = law.draw(*np.random.default_rng(36).random((100_000, 2)).T, lo, hi)
        assert ks_distance(x, lambda x: law.mass(lo, x) / mass) < KS_1_PERCENT
        return
    u = np.array([0.0, 0.05, 0.3, 0.5, 0.77, 0.999, 1.0])
    for target, drawn in zip(u, law.draw(u, lo, hi)):
        x, w = axis_rule(64, lo, drawn)  # the CDF at the draw
        assert abs(w @ law.pdf(x) / mass - target) < 1e-10


KS_1_PERCENT = 1.63  # sqrt(n) D exceeds this with probability 1% for draws of the law


def ks_distance(x: np.ndarray, cdf) -> float:
    """sqrt(n) times the Kolmogorov-Smirnov distance of the draws x from the law cdf."""
    f = cdf(np.sort(x))
    i = np.arange(f.size)
    return float(np.sqrt(f.size) * max((f - i / f.size).max(), ((i + 1) / f.size - f).max()))


CYCLOID_LAWS = pytest.mark.parametrize("law, k", [(sampling.ANGLE, 1.0), (sampling.HALF_ANGLE, 2.0)],
                                       ids=["angle", "half-angle"])


@CYCLOID_LAWS
def test_cycloid_law_draws_pass_a_ks_test(law, k):
    u1, u2 = np.random.default_rng(2026).random((100_000, 2)).T
    x = law.draw(u1, u2, 0.0, np.pi)
    assert ks_distance(x, lambda x: _cycloid_cdf(x, k)) < KS_1_PERCENT


@CYCLOID_LAWS
def test_cycloid_law_keeps_its_digits_where_w_nears_one(law, k):
    # at U2 = 0, w = sqrt(U1) and the draw is (2/k) asin(sqrt(1 - U1)); arccos(w)
    # would round w to 1 at U1 = 1 - 2^-53 and draw 0 for 1.05e-8 (or twice it)
    u1 = np.array([0.0, 0.25, 0.75, 1.0 - 2**-30, 1.0 - 2**-53])
    ref = 2.0 / k * np.arcsin(np.sqrt(1.0 - u1))
    got = law.draw(u1, np.zeros_like(u1), 0.0, np.pi)
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref)), (got, ref)


@CYCLOID_LAWS
def test_cycloid_law_draws_at_corner_uniforms_stay_on_the_half_turn(law, k):
    corners = [0.0, 2**-53, 0.5, 1.0 - 2**-53]
    u1, u2 = np.array([(a, b) for a in corners for b in corners]).T
    x = law.draw(u1, u2, 0.0, np.pi)
    assert np.all(np.isfinite(x) & (x >= 0.0) & (x <= np.pi)), x


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(group="su2")
    with pytest.raises(ValueError):
        SamplerConfig(group="so3", chart="so2-angle")
    with pytest.raises(ValueError):
        SamplerConfig(group="so2", count=0)
    with pytest.raises(ValueError):
        SamplerConfig(group="so2", seed=-1)
    # "builtin:" alone names no chart; it is refused, not read as the default chart
    with pytest.raises(ValueError, match="^chart 'builtin:' does not sample group 'so3'; valid: "):
        SamplerConfig(group="so3", chart="builtin:")


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", -0.5), ("seed", True),
                                          ("count", 2.5), ("count", True)])
def test_config_refuses_a_seed_or_count_that_is_not_an_integer(field, value):
    # int(1.5) would draw seed 1's bytes, and numpy would refuse count 2.5 untyped
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        SamplerConfig(group="so3", **{field: value})


def test_config_takes_numpy_integers():
    config = SamplerConfig(group="so3", chart="polar", seed=np.uint64(7), count=np.int64(5))
    assert sample(config).coordinates.tobytes() == sample(
        SamplerConfig(group="so3", chart="polar", seed=7, count=5)).coordinates.tobytes()


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
    # stage (18.3 and 12.2 MiB above the output at 2 * 10^5)
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


class DrawFailed(Exception):
    pass


def with_beta_draw(monkeypatch, draw):
    """so3-euler's sampler with its beta law drawn by draw, on two workers and in
    blocks of 5 rows, so that every batch below spans many blocks."""
    alias, (alpha, beta, gamma) = CHART_LAWS["so3-euler"]
    monkeypatch.setitem(CHART_LAWS, "so3-euler", (alias, (alpha, replace(beta, draw=draw), gamma)))
    monkeypatch.setattr(sampling, "WORKERS", 2)
    monkeypatch.setattr("haarkit.haar.BLOCK_ENTRIES", 97)


def test_a_failing_block_stops_every_worker_and_raises_in_the_caller(monkeypatch):
    calls = itertools.count(1)
    sine = CHART_LAWS["so3-euler"][1][1]

    def draw(u, lo, hi):
        if next(calls) == 3:
            raise DrawFailed("third block")
        return sine.draw(u, lo, hi)

    with_beta_draw(monkeypatch, draw)
    before = threading.active_count()
    with pytest.raises(DrawFailed, match="third block"):
        sample(SamplerConfig(group="o3", chart="euler", seed=5, count=1000))  # 200 blocks
    assert threading.active_count() == before
    assert next(calls) <= 6  # the failed block, and at most one more started by each runner


def test_workers_keep_the_callers_errstate(monkeypatch):
    # np.errstate is a context variable, which a new thread does not inherit unless
    # it runs in a copy of the caller's context
    drawn_on, both_drew = set(), threading.Barrier(2, timeout=30)
    sine = CHART_LAWS["so3-euler"][1][1]

    def draw(u, lo, hi):
        np.zeros(len(u)) / np.zeros(len(u))  # 0/0: a RuntimeWarning unless ignored
        if threading.get_ident() not in drawn_on:
            drawn_on.add(threading.get_ident())
            both_drew.wait()  # the caller's first block waits for the worker's
        return sine.draw(u, lo, hi)

    config = SamplerConfig(group="so3", chart="euler", seed=6, count=100)
    reference = sample(config)
    with_beta_draw(monkeypatch, draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(invalid="ignore"):
            batch = sample(config)
    assert len(drawn_on) == 2
    assert batch.matrices.tobytes() == reference.matrices.tobytes()


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
