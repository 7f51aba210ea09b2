"""Differential tests: the fast paths give the reference paths' exact bits.

Each fast path (the compiled chart plan, the Haar density kernel on entry
rows and in node blocks, the improper coset as a sign, the templated sample
formatter in row blocks, the Monte Carlo moments with their standard errors
summed in row blocks and merged chunk by chunk, the group averages summed in
node slices, the samplers drawn in row blocks on one or more threads and in
any block order) is compared with a straightforward reference kept here,
on bytes rather than on values, so a flipped sign of zero counts as a
difference.
The Hamilton product that the einsum reference kernel uses lives here too,
with tests of its own.
"""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarkit.chartlang import Num, differentiate, evaluate_expr, parse_chart
from haarkit.charts import BUILTIN_NAMES, Chart, builtin_chart
from haarkit.cli import _row_template, format_float, format_rows, main, to_json
from haarkit.groups import (GROUPS, FiniteGroup, improper_coset, quat_rotation_matrices,
                            so_algebra_basis)
from haarkit.haar import (BLOCK_ENTRIES, _density_and_elements, _node_blocks, haar_nodes,
                          integrate_tensor, normalize)
from haarkit.orbit import OrbitSpec, mc_moments, mc_moments_each
from haarkit.quadrature import QuadratureRule
from haarkit import haar
from haarkit.sampling import (CHART_LAWS, SampleBatch, SamplerConfig, _chunks, _cycloid_cdf,
                              _uniforms, sample, sample_chunks)
from haarkit.reynolds import reynolds_matrix
from haarkit.tensors import act_batch, as_tensor, outer_power_batch

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


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, *sorted(USER_CHARTS)])
def test_jacobian_plan_matches_walk_of_the_partials(name):
    chart = builtin_chart(name) if name in BUILTIN_NAMES else Chart(parse_chart(USER_CHARTS[name]))
    partials = tuple(tuple(differentiate(e, p) or Num(0.0) for e in row)
                     for p in chart.params for row in chart.ast.matrix)
    pts = plan_points(chart)
    with np.errstate(all="ignore"):  # some slopes are infinite at the box's corners
        expected = walk(Chart(replace(chart.ast, matrix=partials)), pts)
        assert same_bits(chart.jacobian_many(pts).reshape(expected.shape), expected)


def test_plan_computes_each_distinct_subtree_once():
    # cos(alpha), sin(alpha) and -sin(alpha): three steps for four entries
    assert len(builtin_chart("so2-angle")._plan.steps) == 3
    # the six cosines and sines of the Euler angles are shared by all entries
    euler = builtin_chart("so3-euler")._plan
    calls = [fn for fn, *_ in euler.steps if fn in (np.sin, np.cos)]
    assert len(calls) == 6
    assert most_alive(euler) < len(euler.steps)


def most_alive(plan) -> int:
    """The most step arrays a plan run holds at once, from its last-reader lists."""
    alive = top = 0
    for *_, drops in plan.steps:
        alive += 1
        top = max(top, alive)
        alive -= len(drops)
    return top


def test_jacobian_temporaries_are_the_live_steps_not_one_row_per_step():
    chart = builtin_chart("so3-euler")
    plan, n = chart._jacobian_plan, 20_000
    pts = plan_points(chart, n)
    chart.jacobian_many(pts[:2])
    tracemalloc.start()
    try:
        jac = chart.jacobian_many(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = (peak - jac.nbytes) / (8 * n)  # temporaries beyond the (d * 9, N) result, in rows of N
    assert rows < most_alive(plan) + 1 < len(plan.steps) / 4, (rows, most_alive(plan))


def test_plan_scalar_evaluate_agrees():
    chart = Chart(parse_chart(USER_CHARTS["entry inside another entry"]))
    pts = plan_points(chart, 5)
    batch = chart.evaluate_many(pts)
    for k in range(5):
        assert same_bits(batch[k], chart.evaluate(pts[k]))


# ---------------------------------------------------------------------------
# Haar density kernel on entry rows against the einsum kernel


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product of quaternions stored as (..., 4) arrays (w, x, y, z)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def quat_conjugate(q) -> np.ndarray:
    return np.asarray(q, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def test_quat_mul_hamilton_table():
    # i*j = k, j*k = i, k*i = j, i*i = -1
    w, i, j, k = np.eye(4)
    assert np.allclose(quat_mul(i, j), k)
    assert np.allclose(quat_mul(j, k), i)
    assert np.allclose(quat_mul(k, i), j)
    assert np.allclose(quat_mul(i, i), -w)
    assert np.allclose(quat_mul(w, j), j)


def test_quat_mul_broadcasts():
    rng = np.random.default_rng(1234)  # its own stream, so later draws of RNG stay put
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(5, 4))
    out = quat_mul(a, b)
    assert out.shape == (5, 4)
    for row, (x, y) in enumerate(zip(a, b)):
        assert np.allclose(out[row], quat_mul(x, y))


def test_quat_conjugate_gives_inverse():
    q = np.random.default_rng(1235).normal(size=4)
    q /= np.linalg.norm(q)
    assert np.allclose(quat_mul(q, quat_conjugate(q)), [1, 0, 0, 0], atol=1e-14)


@np.errstate(invalid="ignore")
def einsum_kernel(chart: Chart, pts: np.ndarray):
    """|det M| and elements from the full tau = p^-1 dp array and two einsums."""
    jac = np.ascontiguousarray(chart.jacobian_many(pts))  # (N, d, rows, cols)
    if chart.is_quaternion:
        q = chart.quaternions_at(pts)
        tau = quat_mul(quat_conjugate(q)[:, None, :], jac[..., 0])  # (N, d, 4)
        return np.abs(np.linalg.det(np.swapaxes(tau[..., 1:], 1, 2))), quat_rotation_matrices(q)
    mats = chart.evaluate_many(pts)
    tau = np.einsum("nki,njkl->njil", mats, jac)  # every square chart is orthogonal: p^-1 = p^T
    xi = np.stack(so_algebra_basis(chart.parametrises.dim))
    return np.abs(np.linalg.det(0.5 * np.einsum("njkl,ikl->nij", tau, xi))), mats


EULER_SOURCE = builtin_chart("so3-euler").source()
KERNEL_CHARTS = {
    "z-y-z": """chart zyz {
  params: a in [-pi, pi], b in [0, pi], c in [0, 2*pi];
  group: so(3);
  matrix: [
    [cos(a)*cos(b)*cos(c) - sin(a)*sin(c), -cos(a)*cos(b)*sin(c) - sin(a)*cos(c), cos(a)*sin(b)],
    [sin(a)*cos(b)*cos(c) + cos(a)*sin(c), -sin(a)*cos(b)*sin(c) + cos(a)*cos(c), sin(a)*sin(b)],
    [-sin(b)*cos(c), sin(b)*sin(c), cos(b)]
  ];
}""",
    "untagged euler": EULER_SOURCE.replace("group: so(3);", ""),
    "hopf quaternion": """chart hopf {
  params: eta in [0, pi/2], xi1 in [0, 2*pi], xi2 in [0, 2*pi];
  matrix: [[cos(xi1)*sin(eta)], [sin(xi1)*sin(eta)], [cos(xi2)*cos(eta)], [sin(xi2)*cos(eta)]];
}""",
    "sqrt so2": """chart root2 {
  params: t in [0, 4*pi^2];
  group: so(2);
  matrix: [[cos(sqrt(t)), -sin(sqrt(t))], [sin(sqrt(t)), cos(sqrt(t))]];
}""",
    "sqrt z-x-z": """chart root3 {
  params: a in [-pi, pi], t in [0, pi^2], c in [-pi, pi];
  group: so(3);
  matrix: [
    [cos(a)*cos(c) - cos(sqrt(t))*sin(a)*sin(c), -cos(a)*sin(c) - cos(sqrt(t))*cos(c)*sin(a), sin(a)*sin(sqrt(t))],
    [cos(c)*sin(a) + cos(a)*cos(sqrt(t))*sin(c), cos(a)*cos(sqrt(t))*cos(c) - sin(a)*sin(c), -cos(a)*sin(sqrt(t))],
    [sin(sqrt(t))*sin(c), cos(c)*sin(sqrt(t)), cos(sqrt(t))]
  ];
}""",
}
assert "group" not in KERNEL_CHARTS["untagged euler"]


def kernel_points(chart: Chart) -> np.ndarray:
    """A quadrature grid, then random points with the box's corners."""
    grid = QuadratureRule.for_domain(chart.domain, 12 if chart.d == 3 else 64).points
    return np.concatenate([grid, plan_points(chart, 500)])


def assert_kernels_agree(chart: Chart, pts: np.ndarray):
    raw, elements = _density_and_elements(chart, pts)
    ref_raw, ref_elements = einsum_kernel(chart, pts)
    assert same_bits(raw, ref_raw)
    assert same_bits(elements, ref_elements)
    return raw


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, *KERNEL_CHARTS])
def test_density_kernel_matches_einsum_kernel(name):
    chart = Chart.from_source(KERNEL_CHARTS[name]) if name in KERNEL_CHARTS else builtin_chart(name)
    raw = assert_kernels_agree(chart, kernel_points(chart))
    assert np.isfinite(raw).sum() > len(raw) // 2


@pytest.mark.parametrize("name", ["sqrt so2", "sqrt z-x-z"])
def test_density_kernel_matches_einsum_kernel_at_infinite_slopes(name):
    chart = Chart.from_source(KERNEL_CHARTS[name])
    pts = plan_points(chart, 64)
    t = chart.params.index("t")
    pts[::2, t] = 0.0  # sqrt's slope is infinite at t = 0
    raw = assert_kernels_agree(chart, pts)
    assert not np.isfinite(raw[::2]).any()
    assert np.isfinite(raw[1::2]).all()


def kernel_outputs(chart: Chart, pts: np.ndarray) -> list:
    """C, weighted values and elements of a normalized grid, then |det M| and elements at pts."""
    density = normalize(chart, 9 if chart.d == 3 else 33)
    _, weighted, elements = density.grid()
    return [np.float64(density.C), weighted, elements, *_density_and_elements(chart, pts)]


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, *KERNEL_CHARTS])
def test_density_kernel_in_small_blocks_matches_one_block(name, monkeypatch):
    chart = Chart.from_source(KERNEL_CHARTS[name]) if name in KERNEL_CHARTS else builtin_chart(name)
    pts = kernel_points(chart)
    if name.startswith("sqrt"):
        pts[::3, chart.params.index("t")] = 0.0  # inf and NaN rows keep their bits too
    monkeypatch.setattr("haarkit.haar.BLOCK_ENTRIES", 2**62)
    one_block = kernel_outputs(chart, pts)
    monkeypatch.setattr("haarkit.haar.BLOCK_ENTRIES", 50)  # one node per block on SO(3), 12 on SO(2)
    blocked = kernel_outputs(chart, pts)
    assert all(same_bits(a, b) for a, b in zip(blocked, one_block))
    assert np.isfinite(one_block[3]).all() != name.startswith("sqrt")


# ---------------------------------------------------------------------------
# Half-angle CDF against the expression that doubled theta twice


def test_half_angle_cdf_matches_doubling_twice():
    theta = np.concatenate([[0.0, -0.0, np.pi, np.pi / 2, 5e-324, np.nextafter(np.pi, 0)],
                            np.random.default_rng(2).uniform(0.0, np.pi, 20000)])
    ref = (2.0 * theta - np.sin(2.0 * theta)) / (2.0 * np.pi)
    assert same_bits(_cycloid_cdf(theta, 2.0), ref)


# ---------------------------------------------------------------------------
# Improper flip against the np.where form


def axis_stream(seed: int, axis: int) -> np.random.Generator:
    """Axis axis's whole stream, drawn in order from its start."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(axis))


@pytest.mark.parametrize("group", ["o2", "o3"])
def test_in_place_flip_matches_where(group):
    proper = "so" + group[1:]
    for chart in GROUPS[group].charts:
        config = SamplerConfig(group=group, chart=chart, seed=4242, count=5000)
        mats = sample(SamplerConfig(group=proper, chart=chart, seed=4242, count=5000)).matrices
        d = builtin_chart(chart).d
        flip = axis_stream(4242, d).random(5000) < 0.5
        ref = np.where(flip[:, None, None], improper_coset(mats), mats)
        assert same_bits(sample(config).matrices, ref)


# ---------------------------------------------------------------------------
# Samplers in row blocks against one draw of the whole batch


def reference_sample(config: SamplerConfig) -> SampleBatch:
    """The sampler with every stage on whole count-length arrays."""
    tag = config.chart
    chart = builtin_chart(tag)
    streams = [axis_stream(config.seed, j) for j in range(chart.d + 1)]
    coords = np.column_stack([law.draw(*stream.random((config.count, law.width)).T, lo, hi)
                              for law, stream, (lo, hi) in zip(CHART_LAWS[tag][1], streams, chart.domain)])
    quats = None
    if chart.is_quaternion:
        quats = chart.quaternions_at(coords)
        mats = quat_rotation_matrices(quats)
    else:
        mats = chart.evaluate_many(coords)
    if not GROUPS[config.group].proper:
        coin = streams[chart.d].random(config.count) < 0.5
        mats = np.where(coin[:, None, None], improper_coset(mats), mats)
        quats = None
    return SampleBatch(config=config, coordinates=coords, matrices=mats, quaternions=quats)


def assert_same_batch(config: SamplerConfig):
    got, ref = sample(config), reference_sample(config)
    assert same_bits(got.coordinates, ref.coordinates), config
    assert same_bits(got.matrices, ref.matrices), config
    assert (got.quaternions is None) == (ref.quaternions is None), config
    if ref.quaternions is not None:
        assert same_bits(got.quaternions, ref.quaternions), config


SAMPLERS = [(g, c) for g in GROUPS for c in GROUPS[g].charts]


@pytest.mark.parametrize("group, chart", SAMPLERS)
def test_sampler_in_small_blocks_matches_one_draw(group, chart, monkeypatch):
    monkeypatch.setattr("haarkit.haar.BLOCK_ENTRIES", 97)  # 10 rows per block on SO(3), 24 on SO(2)
    for count in (1, 9, 10, 11, 31):
        assert_same_batch(SamplerConfig(group=group, chart=chart, seed=31, count=count))


@pytest.mark.parametrize("group, chart", SAMPLERS)
def test_sampler_in_default_blocks_matches_one_draw(group, chart):
    assert_same_batch(SamplerConfig(group=group, chart=chart, seed=2027, count=100_003))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("group, chart", SAMPLERS)
def test_sampler_on_any_number_of_workers_matches_one_draw(group, chart, workers, monkeypatch):
    # three workers on two CPUs, and at 97 entries hundreds of blocks with a short
    # switch interval: a block that read another's place in a stream would move its bytes
    monkeypatch.setattr("haarkit.sampling.WORKERS", workers)
    dim = GROUPS[group].dim
    interval = sys.getswitchinterval()
    try:
        for entries, largest in ((BLOCK_ENTRIES, 100_003), (97, 1003)):
            monkeypatch.setattr("haarkit.haar.BLOCK_ENTRIES", entries)
            sys.setswitchinterval(1e-6 if entries == 97 else interval)
            block = len(range(largest)[_node_blocks(largest, dim * dim * workers)[0]])
            for count in (1, block + 1, largest):
                assert_same_batch(SamplerConfig(group=group, chart=chart, seed=2028, count=count))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("group, chart", [("o3", "polar"), ("so3", "quaternion")])
def test_sampler_in_any_block_order_matches_one_draw(group, chart, order, monkeypatch):
    # each block finds its own uniforms, so the order in which chunks, and so their blocks,
    # are drawn moves no bytes
    shuffle = np.random.default_rng(45).permutation

    def chunks(count, dim):
        found = list(_chunks(count, dim))
        return found[::-1] if order == "reversed" else [found[i] for i in shuffle(len(found))]

    monkeypatch.setattr("haarkit.sampling._chunks", chunks)
    monkeypatch.setattr("haarkit.haar.BLOCK_ENTRIES", 97)
    for workers in (1, 2, 3):
        monkeypatch.setattr("haarkit.sampling.WORKERS", workers)
        for count in (1, 11, 1003):
            assert_same_batch(SamplerConfig(group=group, chart=chart, seed=45, count=count))


def chunk_rows(config: SamplerConfig) -> int:
    """Rows in a full chunk of sample_chunks on config's group."""
    return len(next(sample_chunks(replace(config, count=2**40))))


@pytest.mark.parametrize("workers", [None, 1])
@pytest.mark.parametrize("group, chart", SAMPLERS)
def test_sampler_chunks_concatenate_to_one_draw(group, chart, workers, monkeypatch):
    if workers is not None:
        monkeypatch.setattr("haarkit.sampling.WORKERS", workers)
    config = SamplerConfig(group=group, chart=chart, seed=50, count=1)
    chunk = chunk_rows(config)
    assert chunk == BLOCK_ENTRIES // GROUPS[group].dim ** 2  # on any number of workers
    for count in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        config = replace(config, count=count)
        chunks = list(sample_chunks(config))
        assert [len(c) for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
        assert all(c.config is config for c in chunks)
        ref = sample(config)
        for name in ("coordinates", "matrices", "quaternions"):
            parts = [getattr(c, name) for c in chunks]
            if getattr(ref, name) is None:
                assert all(part is None for part in parts), (config, name)
            else:
                assert same_bits(np.concatenate(parts), getattr(ref, name)), (config, name)


@pytest.mark.parametrize("entries", [97, BLOCK_ENTRIES])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("group", ["so2", "o3"])
def test_every_sampler_chunk_is_split_evenly_over_the_workers(group, workers, entries, monkeypatch):
    # the tail too: each chunk is min(WORKERS, rows) blocks, read off axis 0's uniforms
    monkeypatch.setattr("haarkit.sampling.WORKERS", workers)
    monkeypatch.setattr("haarkit.haar.BLOCK_ENTRIES", entries)
    calls = []

    def recorded(seed, axis, start, rows, width=1):
        if axis == 0:
            calls.append((start, rows))
        return _uniforms(seed, axis, start, rows, width)

    monkeypatch.setattr("haarkit.sampling._uniforms", recorded)
    config = SamplerConfig(group=group, seed=51, count=1)
    chunk = chunk_rows(config)
    for count in (1, 2, 3 * chunk + 7):
        start = 0
        calls.clear()
        for drawn in sample_chunks(replace(config, count=count)):  # each drawn as it is asked for
            blocks, drawn = sorted(calls), len(drawn)
            calls.clear()
            sizes = [rows for _, rows in blocks]
            assert len(blocks) == min(workers, drawn), (count, start)
            assert max(sizes) - min(sizes) <= 1, (count, start, sizes)
            assert blocks[0][0] == start and sum(sizes) == drawn
            assert all(a + n == b for (a, n), (b, _) in zip(blocks, blocks[1:]))
            start += drawn
        assert start == count


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("axis", range(4))  # the three law axes of SO(3) and its coin axis
def test_block_uniforms_match_the_sequential_stream(axis, width):
    # a Philox counter step gives four doubles, so a block's first uniform can sit at any of
    # them: the starts cover every offset, near the stream's start and far into it
    seed = 2**64 - 45
    for start in (*range(10), 14_563, 10**6 + 3):
        whole = axis_stream(seed, axis).random((start + 8) * width)
        for rows in (1, 3, 8):
            assert same_bits(_uniforms(seed, axis, start, rows, width),
                             whole[start * width:(start + rows) * width].reshape(rows, width)), (start, rows)


# ---------------------------------------------------------------------------
# sigma as a sign against sigma as a matrix


SIGMA = {2: np.diag([-1.0, 1.0]), 3: -np.eye(3)}


def matrix_coset(mats: np.ndarray) -> np.ndarray:
    return np.einsum("ij,njk->nik", SIGMA[mats.shape[-1]], mats)


def signed_zero_stack(rng, dim: int, n: int = 400) -> np.ndarray:
    mats = rng.normal(size=(n, dim, dim))
    zeros = rng.random(mats.shape) < 0.3
    mats[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    mats[0], mats[1] = 0.0, -0.0  # whole matrices of one signed zero
    mats[2, :, 0] = -0.0  # a column of -0.0 under both signs of sigma
    return mats


@pytest.mark.parametrize("dim", [2, 3])
def test_improper_coset_matches_sigma_matrix(dim):
    mats = signed_zero_stack(np.random.default_rng(dim), dim)
    before = mats.copy()
    out = improper_coset(mats)
    assert np.array_equal(out.view(np.int64), matrix_coset(before).view(np.int64))
    assert np.array_equal(mats.view(np.int64), before.view(np.int64))  # input untouched


# ---------------------------------------------------------------------------
# Templated sample formatting against format_float


SPECIAL = [-0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
           1e-310, 1.0 / 3.0, -2.0 / 3.0, 1e22, 123456789012345678.0, 1.0, -1.0]


def ulp_neighbours(x: float) -> list[float]:
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# Where the numpy path of format_rows starts and stops: 1e-4 and the powers
# of ten around it, the doubles just below 1, and dyadic values whose 17-digit
# scaling odd / 2^(17-k) * 10^(16-k) is an exact half (rounding ties), each
# with its neighbours one ulp away.
BOUNDARY = [v for x in [1e-4] + [10.0**k for k in range(-5, 2)] for v in ulp_neighbours(x)]
BOUNDARY += [0.99999999999999994, 1.0 - 2**-53, 5e-324, 1.0, -1.0, 0.0, -0.0, np.inf, -np.inf]
BOUNDARY += [v for k, odd in [(-1, 26215), (-1, 262143), (-2, 5243), (-3, 1049), (-4, 211)]
             for v in ulp_neighbours(odd / 2.0 ** (17 - k))]
BOUNDARY += [-v for v in BOUNDARY]


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


TEMPLATES = [((3, 3), "R"), ((2, 2), "R"), ((4,), "q"), ((3, 3), None), ((2, 2), None)]


@pytest.mark.parametrize("shape, key", TEMPLATES)
@pytest.mark.parametrize("with_nan", [False, True])
def test_format_rows_matches_format_float(shape, key, with_nan):
    size = int(np.prod(shape))
    fixed = SPECIAL + BOUNDARY
    values = np.concatenate([fixed, RNG.normal(size=60 * size - len(fixed))])
    rows = RNG.permutation(values).reshape(60, *shape)
    if with_nan:
        rows.reshape(-1)[7] = np.nan
    assert "\n".join(format_rows(_row_template(shape, key), rows)) == reference_lines(rows, key)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(template=st.sampled_from(TEMPLATES), data=st.data())
def test_format_rows_matches_format_float_on_drawn_floats(template, data):
    shape, key = template
    size = int(np.prod(shape))
    count = data.draw(st.integers(1, 6))
    values = data.draw(st.lists(st.floats(), min_size=size * count, max_size=size * count))
    rows = np.array(values, dtype=float).reshape(count, *shape)
    assert "\n".join(format_rows(_row_template(shape, key), rows)) == reference_lines(rows, key)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("group, chart", [(g, c) for g in GROUPS for c in GROUPS[g].charts])
def test_sample_output_matches_format_float(group, chart, fmt, capsys):
    config = SamplerConfig(group=group, chart=chart, seed=9, count=3000)
    batch = sample(config)
    if fmt == "csv":
        rows, key = batch.matrices, None
    elif batch.quaternions is not None:
        rows, key = batch.quaternions, "q"
    else:
        rows, key = batch.matrices, "R"
    assert main(["sample", "--group", group, "--chart", chart, "-n", "3000", "--seed", "9",
                 "--format", fmt]) == 0
    assert capsys.readouterr().out == reference_lines(rows, key) + "\n"


# Values that format_float prints itself: zeros, +-1, NaN, +-inf, an exact
# rounding tie of the numpy path (26215 / 2^18) and its neighbours one ulp away.
SELF_PRINTED = [0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf,
                *ulp_neighbours(26215 / 2.0**18), -26215 / 2.0**18]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("group, chart", [(g, c) for g in GROUPS for c in GROUPS[g].charts])
def test_format_rows_in_small_blocks_matches_one_block(group, chart, fmt, monkeypatch):
    batch = sample(SamplerConfig(group=group, chart=chart, seed=4, count=301))
    if fmt == "csv":
        rows, key = batch.matrices.copy(), None
    elif batch.quaternions is not None:
        rows, key = batch.quaternions.copy(), "q"
    else:
        rows, key = batch.matrices.copy(), "R"
    row = rows[150].reshape(-1)  # one row of self-printed values, in the middle of a block
    row[:] = np.resize(SELF_PRINTED, row.size)
    template = _row_template(rows.shape[1:], key)
    monkeypatch.setattr("haarkit.haar.BLOCK_ENTRIES", 2**62)
    one_block = "\n".join(format_rows(template, rows))
    assert one_block == reference_lines(rows, key)
    for entries in (BLOCK_ENTRIES, 1000, 97):  # one block, then 6-15 rows, then 1 row per block
        monkeypatch.setattr("haarkit.haar.BLOCK_ENTRIES", entries)
        assert "\n".join(format_rows(template, rows)) == one_block, entries


# ---------------------------------------------------------------------------
# Monte Carlo orbit moments against numpy's per-block sums, merged block by block

ORBIT_SPECS = {
    "sym2": ("so3", "sym2", [[1.0, -0.4, 0.0], [-0.4, 2.0, 0.7], [0.0, 0.7, -3.0]]),
    "natural": ("o3", "natural", [0.3, -1.2, 2.0]),
    "tensor": ("so2", "tensor", [[0.3, -1.2], [2.0, 0.7]]),
}


def reference_mc_moments(spec: OrbitSpec, r: int,
                         mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's sum(axis=0) of each row block's outer powers (BLOCK_ENTRIES // S^r rows, cut inside
    each chunk of BLOCK_ENTRIES // D^2 rows) and of their squared deviations from the block's
    mean, merged in block order by Chan, Golub & LeVeque's pairwise update; in one block,
    numpy's mean and std(ddof=1) / sqrt(n)."""
    values = outer_power_batch(spec.values(mats), r).reshape(len(mats), -1)
    step = max(1, haar.BLOCK_ENTRIES // spec.seed.dim ** 2)
    rows = max(1, haar.BLOCK_ENTRIES // values.shape[1])
    n = 0
    for start in range(0, len(values), step):
        chunk = values[start:start + step]
        for first in range(0, len(chunk), rows):
            block = chunk[first:first + rows]
            nb = len(block)
            mb = block.sum(axis=0) / nb
            sb = ((block - mb) * (block - mb)).sum(axis=0)
            if n == 0:
                n, mean, squares = nb, mb, sb
                continue
            delta = mb - mean
            mean = mean + delta * (nb / (n + nb))
            squares = squares + sb + delta**2 * (n * nb / (n + nb))
            n += nb
    if n == 1:
        return mean, np.zeros_like(mean)
    return mean, np.sqrt(squares / (n - 1)) / np.sqrt(n)


@pytest.mark.parametrize("count", [1, 2, 700])
@pytest.mark.parametrize("name", ORBIT_SPECS)
def test_one_chunk_reference_is_numpy_mean_and_std(name, count, monkeypatch):
    # each count is one chunk, and on the rows of each of its row blocks the reference is numpy's
    # mean and std(ddof=1) / sqrt(n): every block at the default budget (sym2's 700 draws at
    # r = 3, S^r = 729, are two blocks of 359 and 341 rows), and the whole chunk as one at 2^62
    group, representation, seed = ORBIT_SPECS[name]
    spec = OrbitSpec(group, representation, as_tensor(seed))
    batch = sample(SamplerConfig(group=group, seed=11, count=count))
    for r in (1, 2, 3):
        values = outer_power_batch(spec.values(batch.matrices), r).reshape(count, -1)
        for entries in (BLOCK_ENTRIES, 2**62):
            monkeypatch.setattr("haarkit.haar.BLOCK_ENTRIES", entries)
            for s in _node_blocks(count, values.shape[1]):
                block = values[s]
                mean, stderr = reference_mc_moments(spec, r, batch.matrices[s])
                assert same_bits(mean, np.mean(block, axis=0)), (r, entries, s)
                if len(block) > 1:
                    assert same_bits(stderr, np.std(block, axis=0, ddof=1) / np.sqrt(len(block)))


@pytest.mark.parametrize("count", [1, 2, 700])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("name", ORBIT_SPECS)
def test_mc_moments_match_numpy_mean_and_std(name, r, count):
    group, representation, seed = ORBIT_SPECS[name]
    spec = OrbitSpec(group, representation, as_tensor(seed))
    config = SamplerConfig(group=group, seed=11, count=count)
    batch = sample(config)
    mean, stderr = reference_mc_moments(spec, r, batch.matrices)
    if count == 1:
        assert not stderr.any()
    for draws in (config, batch):  # a drawn batch gives its config's bytes
        got_mean, got_stderr = mc_moments(spec, r, draws)
        assert same_bits(got_mean.array.reshape(-1), mean), (name, r, count)
        assert same_bits(got_stderr.array.reshape(-1), stderr), (name, r, count)
    assert same_bits(batch.matrices, sample(config).matrices)  # the batch is only read


# (group, representation, seed, r, counts): every ORBIT_SPECS case, an order-3
# tensor at r = 3 (S^r = 3^9), the narrowest stack (natural on O(2) at r = 1,
# two columns) and a scalar seed, whose (N, 1) stack numpy sums pairwise.
# Each count list has 1, 2 and one past a default block; 700 draws of the
# order-3 case would hold a 110 MB reference stack, so it stops at 100.
BLOCKED_CASES = {
    **{f"{name} r={r}": (*ORBIT_SPECS[name], r, None) for name in ORBIT_SPECS for r in (1, 2, 3)},
    "order-3 tensor r=3": ("so3", "tensor", np.random.default_rng(3).normal(size=(3, 3, 3)), 3,
                           (1, 2, 14, 100)),
    "natural o2 r=1": ("o2", "natural", [0.6, -1.7], 1, None),
    "scalar r=2": ("so3", "tensor", 0.3, 2, None),
}


@pytest.mark.parametrize("case", BLOCKED_CASES)
def test_mc_moments_in_row_blocks_match_numpy_mean_and_std(case, monkeypatch):
    group, representation, seed, r, counts = BLOCKED_CASES[case]
    dim = 3 if group.endswith("3") else 2
    spec = OrbitSpec(group, representation, as_tensor(seed, dim=dim))
    width = int(np.prod(spec.seed.array.shape)) ** r
    past = len(range(BLOCK_ENTRIES)[_node_blocks(BLOCK_ENTRIES, width)[0]]) + 1
    for count in counts or (1, 2, 700, past):
        batch = sample(SamplerConfig(group=group, seed=13, count=count))
        # 50: chunks of 5 rows on SO(3)/O(3) and 12 on SO(2)/O(2), cut into row blocks of at most
        # 25 rows at S^r = 2 and of 1 row from S^r = 26 up
        for entries in (50, BLOCK_ENTRIES, 2**62):
            monkeypatch.setattr("haarkit.haar.BLOCK_ENTRIES", entries)
            mean, stderr = reference_mc_moments(spec, r, batch.matrices)
            got_mean, got_stderr = mc_moments(spec, r, batch)
            assert same_bits(got_mean.array.reshape(-1), mean), (case, count, entries)
            assert same_bits(got_stderr.array.reshape(-1), stderr), (case, count, entries)


# At the default budget only the cases whose whole-stack reference stays small at three chunks
CHUNKED_CASES = [(case, 97) for case in BLOCKED_CASES] + [
    (case, BLOCK_ENTRIES) for case in ("sym2 r=1", "natural r=1", "natural r=2", "tensor r=1",
                                       "natural o2 r=1", "scalar r=2")]


@pytest.mark.parametrize("case, entries", CHUNKED_CASES)
def test_mc_moments_across_chunks_match_their_batch_and_numpy(case, entries, monkeypatch):
    # a config is drawn chunk by chunk and its batch cut into the same chunks: both give the
    # reference's bits, whose orbit points are one act_batch call
    monkeypatch.setattr("haarkit.haar.BLOCK_ENTRIES", entries)
    group, representation, seed, r, _ = BLOCKED_CASES[case]
    spec = OrbitSpec(group, representation, as_tensor(seed, dim=GROUPS[group].dim))
    config = SamplerConfig(group=group, seed=50, count=1)
    config = replace(config, count=3 * chunk_rows(config) + 7)
    batch = sample(config)
    mean, stderr = reference_mc_moments(spec, r, batch.matrices)
    (got_mean, got_stderr), _ = mc_moments_each(spec, (r, 1), config)
    assert same_bits(got_mean.array.reshape(-1), mean), (case, entries)
    assert same_bits(got_stderr.array.reshape(-1), stderr), (case, entries)
    got_mean, got_stderr = mc_moments(spec, r, batch)
    assert same_bits(got_mean.array.reshape(-1), mean), (case, entries)
    assert same_bits(got_stderr.array.reshape(-1), stderr), (case, entries)


@pytest.mark.parametrize("case", ["sym2 r=2", "natural o2 r=1", "scalar r=2"])
def test_mc_moments_on_any_number_of_workers_keep_their_bytes(case, monkeypatch):
    # the chunks, and so the order their moments are merged in, do not follow the CPU count
    group, representation, seed, r, _ = BLOCKED_CASES[case]
    spec = OrbitSpec(group, representation, as_tensor(seed, dim=GROUPS[group].dim))
    config = SamplerConfig(group=group, seed=51, count=1)
    config = replace(config, count=3 * chunk_rows(config) + 7)
    mean, stderr = reference_mc_moments(spec, r, sample(config).matrices)
    for workers in (1, 2, 3):
        monkeypatch.setattr("haarkit.sampling.WORKERS", workers)
        got_mean, got_stderr = mc_moments(spec, r, config)
        assert same_bits(got_mean.array.reshape(-1), mean), (case, workers)
        assert same_bits(got_stderr.array.reshape(-1), stderr), (case, workers)


# ---------------------------------------------------------------------------
# Group averages within the node budget against one unsliced sum


def reference_integrate(f, weights: np.ndarray, stacks: list) -> np.ndarray:
    parts = [np.tensordot(weights, np.asarray(f(mats), dtype=float), axes=1) for mats in stacks]
    return sum(parts[1:], parts[0]) / len(parts)


def reference_reynolds_matrix(dim: int, n: int, weighted: np.ndarray, stacks: list) -> np.ndarray:
    total = np.zeros((dim**n, dim**n))
    for stack in stacks:
        powers = [np.ones((len(stack), 1, 1))]
        for _ in range((n + 1) // 2):
            m = powers[-1].shape[1] * dim
            powers.append(np.einsum("nab,ncd->nacbd", powers[-1], stack).reshape(-1, m, m))
        total += np.einsum("n,nab,ncd->acbd", weighted, powers[-1], powers[n // 2],
                           optimize=True).reshape(dim**n, dim**n)
    return total / len(stacks)


def acting(order: int, dim: int = 3):
    t = as_tensor(np.random.default_rng(order).normal(size=(dim,) * order))
    return lambda mats: act_batch(mats, t)


def trace_squared(mats):
    return np.trace(mats, axis1=-2, axis2=-1) ** 2


WITHIN_BUDGET = {  # (f, group, density, degree), each stack N * width <= BLOCK_ENTRIES
    "exact so3 order 6": lambda: (acting(6), "so3", None, 6),  # 196 nodes x 729
    "exact o3 order 4": lambda: (acting(4), "o3", None, 4),
    "so3-euler 12^3 order 2": lambda: (acting(2), "so3", normalize(builtin_chart("so3-euler"), 12), 2),
    "scalar on 64^3 = 2^18 nodes": lambda: (trace_squared, "so3",
                                            normalize(builtin_chart("so3-euler"), 64), None),
    "finite group order 4": lambda: (acting(4), FiniteGroup.cyclic([0.0, 0.0, 1.0], 6), None, None),
}


@pytest.mark.parametrize("case", WITHIN_BUDGET)
def test_integrate_tensor_within_the_budget_matches_one_tensordot(case):
    f, group, density, degree = WITHIN_BUDGET[case]()
    weights, stacks = haar_nodes(group, density, degree)
    assert all(len(s) * np.size(f(s[:1])) <= BLOCK_ENTRIES for s in stacks)
    assert same_bits(integrate_tensor(f, group, density, degree),
                     reference_integrate(f, weights, stacks)), case


@pytest.mark.parametrize("group, n, nodes", [("so3", 3, None), ("o3", 3, 8), ("so3", 2, 12),
                                             ("o2", 5, 64)])
def test_reynolds_matrix_within_the_budget_matches_one_contraction(group, n, nodes):
    chart = builtin_chart("so3-euler" if group.endswith("3") else "so2-angle")
    density = None if nodes is None else normalize(chart, nodes)
    weighted, stacks = haar_nodes(group, density, degree=n)
    dim = stacks[0].shape[-1]
    assert len(stacks[0]) * dim ** (2 * ((n + 1) // 2)) <= BLOCK_ENTRIES
    assert same_bits(reynolds_matrix(group, n, density),
                     reference_reynolds_matrix(dim, n, weighted, stacks))
