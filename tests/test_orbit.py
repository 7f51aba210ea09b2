"""Orbit statistics: moments of g.v under uniform g.

Closed forms follow from the fourth-order column-moment identities
E[u_i u_j u_k u_l] = (d d + d d + d d)/15 and
E[u_i u_j v_k v_l] = (4 d_ij d_kl - d_ik d_jl - d_il d_jk)/30
for distinct columns u, v of a uniform rotation; Monte Carlo cross-checks
them through an entirely different code path.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from haarkit.charts import builtin_chart
from haarkit.groups import FiniteGroup
from haarkit.haar import NumericalError, normalize
from haarkit.orbit import (REPRESENTATIONS, OrbitSpec, covariance, decompose, identity_pair,
                           isotropic_basis, mc_moments, mc_moments_each, moment,
                           sym2_covariance_closed, sym2_mean_closed, sym2_second_moment_closed)
from haarkit.reynolds import reynolds_continuous
from haarkit.sampling import SampleBatch, SamplerConfig, sample
from haarkit.tensors import Tensor, as_tensor, outer_power, outer_power_batch

V0 = np.diag([1.0, 2.0, 3.0])


def so3_density(nodes=24):
    return normalize(builtin_chart("so3-quat"), rule=nodes)


def test_spec_validation():
    with pytest.raises(ValueError):
        OrbitSpec(group="so3", representation="sym2",
                  seed=as_tensor(np.array([[0.0, 1.0], [0.0, 0.0]])))  # dim mismatch
    with pytest.raises(ValueError):
        OrbitSpec(group="so3", representation="sym2",
                  seed=as_tensor(np.array([[0.0, 1.0, 0.0],
                                           [0.0, 0.0, 0.0],
                                           [0.0, 0.0, 0.0]])))  # not symmetric
    with pytest.raises(ValueError):
        OrbitSpec(group="so3", representation="natural", seed=as_tensor(V0))
    with pytest.raises(ValueError):
        OrbitSpec(group="so3", representation="spinor", seed=as_tensor(np.ones(3)))


def test_representations_are_listed_once():
    # the CLI's --representation choices read the same tuple, sym2 (the default) first
    assert REPRESENTATIONS == ("sym2", "natural", "tensor")
    with pytest.raises(ValueError, match="expected one of sym2, natural, tensor"):
        OrbitSpec(group="so3", representation="spinor", seed=as_tensor(np.ones(3)))


@pytest.mark.parametrize("dim", [2, 3])
def test_identity_pair_is_the_first_isotropic_tensor(dim):
    eye = np.eye(dim)
    assert np.array_equal(identity_pair(dim).array, isotropic_basis(dim)[0].array)
    assert np.array_equal(identity_pair(dim).array, np.einsum("ij,kl->ijkl", eye, eye))


def test_sym2_first_moment_is_isotropic():
    density = so3_density()
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    m1 = moment(spec, 1, density)
    assert np.abs(m1.array - 2.0 * np.eye(3)).max() < 1e-10
    assert np.abs(m1.array - sym2_mean_closed(V0).array).max() < 1e-10


def test_sym2_second_moment_closed_form():
    density = so3_density()
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    m2 = moment(spec, 2, density)
    assert np.abs(m2.array - sym2_second_moment_closed(V0).array).max() < 1e-10
    coeffs, residual = decompose(m2, isotropic_basis())
    # T1 = 6, T2 = 14: (2 T1^2 - T2)/15 = 58/15, (3 T2 - T1^2)/30 = 1/5
    assert np.allclose(coeffs, [58 / 15, 1 / 5, 1 / 5], atol=1e-10)
    assert residual < 1e-10


def test_sym2_covariance_closed_form():
    density = so3_density()
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    cov = covariance(spec, density)
    assert np.abs(cov.array - sym2_covariance_closed(V0).array).max() < 1e-10
    # as a 9x9 quadratic form the covariance is positive semidefinite
    eigvals = np.linalg.eigvalsh(cov.array.reshape(9, 9))
    assert eigvals.min() > -1e-10


def test_moment_equals_reynolds_of_tensor_power():
    # m_r is the group average of the r-fold outer power of the seed
    density = so3_density()
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    m2 = moment(spec, 2, density)
    averaged = reynolds_continuous("so3", outer_power(as_tensor(V0), 2), density)
    assert np.abs(m2.array - averaged.array).max() < 1e-10


def test_natural_representation_moments():
    density = so3_density()
    v = np.array([1.0, 2.0, 2.0])
    spec = OrbitSpec(group="so3", representation="natural", seed=as_tensor(v))
    m1 = moment(spec, 1, density)
    assert np.abs(m1.array).max() < 1e-10
    m2 = moment(spec, 2, density)
    assert np.abs(m2.array - (v @ v) / 3.0 * np.eye(3)).max() < 1e-10


def test_tensor_representation_order3():
    density = so3_density()
    seed = as_tensor(np.zeros((3, 3, 3)))
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    spec = OrbitSpec(group="so3", representation="tensor", seed=as_tensor(eps))
    # epsilon is a fixed point of the proper action
    m1 = moment(spec, 1, density)
    assert np.abs(m1.array - eps).max() < 1e-9


@pytest.mark.parametrize("group, density", [
    ("so3", None),
    ("o3", "so3-euler"),
    (FiniteGroup.cyclic([0, 0, 1], 4), None),
], ids=["so3 exact rule", "o3 on an so3 grid", "cyclic C4"])
def test_moments_of_an_order_0_seed_are_order_0_tensors(group, density):
    # a scalar is fixed by every element: m1 = v, m2 = v^2 and no covariance
    density = None if density is None else normalize(builtin_chart(density), 8)
    spec = OrbitSpec(group, "tensor", Tensor.from_array(2.0, dim=3))
    results = moment(spec, 1, density), moment(spec, 2, density), covariance(spec, density)
    for got, want in zip(results, (2.0, 4.0, 0.0)):
        assert (got.dim, got.order, got.array.shape) == (3, 0, ())
        assert got.array == pytest.approx(want, abs=1e-12)


def test_o3_odd_moments_vanish():
    density = so3_density()
    spec = OrbitSpec(group="o3", representation="natural",
                     seed=as_tensor(np.array([3.0, 0.0, 0.0])))
    m1 = moment(spec, 1, density)
    assert np.abs(m1.array).max() < 1e-12


def test_mc_agrees_with_quadrature():
    density = so3_density()
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    config = SamplerConfig(group="so3", chart="quaternion", seed=3, count=20000)
    for r in (1, 2):
        exact = moment(spec, r, density)
        est, err = mc_moments(spec, r, config)
        scale = np.maximum(err.array, 1e-12)
        z = np.abs(est.array - exact.array) / scale
        assert z.max() < 5.0, r


def test_mc_stderr_scales_like_sqrt_n():
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    _, err_small = mc_moments(spec, 1, SamplerConfig(group="so3", seed=5, count=2000))
    _, err_large = mc_moments(spec, 1, SamplerConfig(group="so3", seed=5, count=32000))
    ratio = err_small.array[0, 0] / err_large.array[0, 0]
    assert 2.5 < ratio < 6.5  # ideal 4


def mc_moments_peak(spec: OrbitSpec, r: int, count: int) -> int:
    """tracemalloc peak of mc_moments on `count` polar draws, after a warm-up call."""
    mc_moments(spec, r, SamplerConfig(group="so3", chart="polar", seed=2, count=10))
    tracemalloc.start()
    try:
        mc_moments(spec, r, SamplerConfig(group="so3", chart="polar", seed=2, count=count))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_moments_memory_per_draw():
    # one chunk of draws, its (n, 9) orbit points and one row block of outer powers at a time
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    peak = mc_moments_peak(spec, 2, 20000)
    assert peak / (8 * 20000) < 110, peak


def test_mc_moments_do_not_hold_the_stack_of_outer_powers():
    # sym2 at r = 2 and 10^5 draws: the (N, 81) stack alone would be 62 MiB
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    peak = mc_moments_peak(spec, 2, 100_000)
    assert peak < 32 * 2**20, peak


def test_mc_moments_hold_one_chunk_of_orbit_points():
    # 3 * 10^5 draws: all (N, 9) orbit points would be 20.6 MiB (27.9 MiB peak when they were
    # held, 61.8 MiB with the whole batch beside them); each chunk's are 2 MiB
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    peak = mc_moments_peak(spec, 2, 300_000)
    assert peak < 14 * 2**20, peak


def test_mc_moments_peak_does_not_grow_with_the_draw_count(monkeypatch):
    # each chunk's moments are merged into a running total, so 10^6 draws hold what 10^5 do
    # (76.0 against 14.2 MiB when every orbit point was held); on one worker, because how far
    # two threads' temporaries overlap moves the peak by up to one block's
    monkeypatch.setattr("haarkit.sampling.WORKERS", 1)
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    small, large = mc_moments_peak(spec, 2, 100_000), mc_moments_peak(spec, 2, 1_000_000)
    assert large < small + 2**20, (small, large)


def test_mc_moments_of_an_order_3_tensor_at_r_3_stay_small():
    # S^r = 3^9 entries per draw: the stack at 4000 draws would be 601 MiB
    seed = as_tensor(np.random.default_rng(3).normal(size=(3, 3, 3)))
    peak = mc_moments_peak(OrbitSpec(group="so3", representation="tensor", seed=seed), 3, 4000)
    assert peak < 16 * 2**20, peak


def test_mc_moments_form_each_row_block_of_outer_powers_once(monkeypatch):
    # sym2 at r = 2 and 10^5 draws: 4 chunks of at most 29 127 rows, cut into 10, 10, 10 and 4
    # row blocks of at most 3236 rows (S^r = 81); r = 1 is one block per chunk.  Each block's
    # outer powers are formed once (68 calls at r = 2 when each chunk formed them twice)
    calls = []

    def counting(values, r, out=None):
        calls.append(r)
        return outer_power_batch(values, r, out=out)

    monkeypatch.setattr("haarkit.orbit.outer_power_batch", counting)
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    config = SamplerConfig(group="so3", seed=7, count=100_000)
    mc_moments_each(spec, (2,), config)
    assert len(calls) == 34
    calls.clear()
    mc_moments_each(spec, (1, 2), config)
    assert (calls.count(1), calls.count(2)) == (4, 34)


def test_mc_moments_refuse_an_empty_batch(monkeypatch):
    # refused before any orbit point is formed
    monkeypatch.setattr("haarkit.orbit.act_batch", None)
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    empty = SampleBatch(config=SamplerConfig(group="so3"), coordinates=np.empty((0, 3)),
                        matrices=np.empty((0, 3, 3)))
    with pytest.raises(ValueError, match="the SampleBatch is empty"):
        mc_moments(spec, 1, empty)
    with pytest.raises(ValueError, match="the SampleBatch is empty"):
        mc_moments_each(spec, (1, 2), empty)


def levi_civita_spec(group="so3"):
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    return OrbitSpec(group=group, representation="tensor", seed=as_tensor(eps))


def test_mc_moments_refuses_a_config_of_another_group():
    # epsilon is SO(3)-invariant, so its exact first moment is epsilon itself;
    # O(3) draws average it towards 0
    spec = levi_civita_spec()
    assert moment(spec, 1).array[0, 1, 2] == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError, match="draws of group 'o3' cannot average an orbit of 'so3'"):
        mc_moments(spec, 1, SamplerConfig(group="o3", seed=1, count=4000))
    est, _ = mc_moments(spec, 1, SamplerConfig(group="so(3)", seed=1, count=400))
    assert est.array[0, 1, 2] == pytest.approx(1.0, abs=1e-12)


def test_mc_moments_refuses_a_batch_of_another_group():
    spec = levi_civita_spec("o3")
    with pytest.raises(ValueError, match="draws of group 'so3' cannot average an orbit of 'o3'"):
        mc_moments(spec, 2, sample(SamplerConfig(group="so3", seed=1, count=10)))
    spec = OrbitSpec(group="so2", representation="natural", seed=as_tensor([1.0, 0.0]))
    with pytest.raises(ValueError, match="draws of group 'o2'"):
        mc_moments(spec, 1, sample(SamplerConfig(group="o2", seed=1, count=10)))
    assert len(mc_moments(spec, 1, sample(SamplerConfig(group="so(2)", seed=1, count=10)))) == 2


def test_finite_group_spec_checks_the_seed_dimension():
    with pytest.raises(ValueError, match=r"^seed dimension 2 does not match group "
                                         r"FiniteGroup\(order=12, dim=3\)$"):
        OrbitSpec(FiniteGroup.cyclic([0.0, 0.0, 1.0], 12), "natural", as_tensor([1.0, 0.0]))


@pytest.mark.parametrize("r", [1, 2])
def test_mc_moments_refuse_a_moment_that_is_not_finite(r):
    # a 1e200 seed: its outer square, and the squared deviations of its draws, overflow
    spec = OrbitSpec("so3", "sym2", np.diag([1e200, 1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"moment of order {r} or its standard error"):
            mc_moments(spec, r, SamplerConfig(group="so3", count=100))


def test_mc_moments_refuses_a_finite_group():
    spec = OrbitSpec(FiniteGroup.cyclic([0.0, 0.0, 1.0], 4), "sym2", as_tensor(V0))
    with pytest.raises(ValueError, match="finite group has no sampler; moment"):
        mc_moments(spec, 1, SamplerConfig(group="so3", seed=1, count=10))


def test_decompose_reports_residual_off_span():
    basis = isotropic_basis()
    t = Tensor.basis_element(3, (0, 0, 0, 1))
    _, residual = decompose(t, basis)
    assert residual > 0.1


def test_moment_rule_may_only_restate_the_density_grid():
    # rule= names the grid normalize built; any other rule, or none to pair it with, is refused
    density = so3_density(nodes=8)
    rule = density.grid()[0]
    spec = OrbitSpec(group="so3", representation="sym2", seed=as_tensor(V0))
    assert np.array_equal(moment(spec, 1, density, rule=rule).array, moment(spec, 1, density).array)
    assert np.array_equal(covariance(spec, density, rule=rule).array, covariance(spec, density).array)
    other = normalize(builtin_chart("so3-quat"), rule=8).grid()[0]
    for dens, bad in ((density, other), (density, 8), (None, rule)):
        with pytest.raises(ValueError, match="leave rule out"):
            moment(spec, 1, dens, rule=bad)
        with pytest.raises(ValueError, match="leave rule out"):
            covariance(spec, dens, rule=bad)


def test_moments_refuse_an_order_past_the_entry_budget(monkeypatch):
    # a sym2 seed has 9 entries, so its order-6 moment would have 3^12 > 3^10
    spec = OrbitSpec("so3", "sym2", as_tensor(V0))
    with pytest.raises(ValueError, match="budget"):
        moment(spec, 6)

    def no_draws(config):
        raise AssertionError("sampled before the budget check")

    monkeypatch.setattr("haarkit.orbit.sample_chunks", no_draws)
    with pytest.raises(ValueError, match="budget"):
        mc_moments(spec, 6, SamplerConfig(group="so3", seed=1, count=10))


def test_moment_order_zero_and_an_order_1_sym2_seed_are_refused():
    spec = OrbitSpec("so3", "sym2", as_tensor(V0))
    with pytest.raises(ValueError, match="moment order must be positive"):
        moment(spec, 0)
    with pytest.raises(ValueError, match="moment order must be positive"):
        mc_moments(spec, 0, SamplerConfig(group="so3", seed=1, count=10))
    with pytest.raises(ValueError, match="order-2 tensors"):
        OrbitSpec("so3", "sym2", as_tensor([1.0, 2.0, 3.0]))
