"""Tests of the benchmark's own logic: python -m pytest bench/test_bench.py"""

import math

import numpy as np
import pytest

import refs
import spans
from metrics import Tally, end_to_end


def test_self_time_subtracts_nested_children():
    # parent [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6]
    recorded = [["parent", 0.0, 10.0, None, "op"],
                ["a", 1.0, 4.0, 0, "op"],
                ["g", 2.0, 3.0, 1, "op"],
                ["b", 5.0, 6.0, 0, "op"]]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    recorded = [["p", 0.0, 4.0, None, None],
                ["c1", 1.0, 3.0, 0, None],
                ["c2", 2.0, 5.0, 0, None]]
    assert spans.self_times(recorded)[0] == 1.0


def test_merge_rebases_parents_and_summarize_totals_per_layer():
    merged = []
    one = [["haar.normalize", 0.0, 2.0, None, None],
           ["haar.density_numeric_many", 0.5, 1.5, 0, None]]
    spans.merge(merged, one, "op1")
    spans.merge(merged, one, "op2")
    assert [s[3] for s in merged] == [None, 0, None, 2]
    assert [s[4] for s in merged] == ["op1", "op1", "op2", "op2"]
    summary = spans.summarize(merged, {"haar.density_numeric_many.points": 7})
    assert summary["haar.normalize.self_s"] == 2.0
    assert summary["haar.normalize.calls"] == 2
    assert summary["haar.density_numeric_many.self_s"] == 2.0
    assert summary["haar.density_numeric_many.points"] == 7


def test_grid_hit_ratio_counts_grid_calls_without_computation():
    recorded = [["haar.HaarDensity.grid", 0.0, 1.0, None, None],
                ["haar.density_numeric_many", 0.1, 0.5, 0, None],
                ["haar.HaarDensity.grid", 2.0, 2.1, None, None]]
    assert spans.summarize(recorded, {})["haar.HaarDensity.grid.hit_ratio"] == 0.5


def test_recorder_wraps_and_counts():
    recorder = spans.Recorder()

    def outer(n):
        return inner(n) + [0]

    inner = recorder.wrap("inner", lambda n: list(range(n)), {"items": len})
    outer = recorder.wrap("outer", outer, {})
    recorder.op = "x"
    assert outer(3) == [0, 1, 2, 0]
    names = [(s[0], s[3], s[4]) for s in recorder.spans]
    assert names == [("outer", None, "x"), ("inner", 0, "x")]
    assert recorder.counts == {"inner.items": 3}


def test_riordan_numbers():
    assert [refs.riordan(n) for n in range(9)] == [1, 0, 1, 1, 3, 6, 15, 36, 91]
    assert refs.invariant_dim("o3", 7) == 0
    assert refs.invariant_dim("o3", 8) == 91


def test_pairings_count_double_factorials():
    assert [len(refs.pairings(n)) for n in (0, 2, 4, 6)] == [1, 1, 3, 15]
    assert refs.pairings(3) == []


def test_projection_of_order_two_is_the_trace_part():
    t = np.arange(9.0).reshape(3, 3)
    np.testing.assert_allclose(refs.project_invariant("o3", t), np.trace(t) / 3.0 * np.eye(3))


def test_projection_of_e1_fourth_power_is_the_isotropic_fourth_moment():
    # The Gram matrix of the three pairings is [[9,3,3],[3,9,3],[3,3,9]] and
    # each pairing has inner product 1 with e1^4, so every coefficient is 1/15.
    t = np.zeros((3,) * 4)
    t[0, 0, 0, 0] = 1.0
    basis = refs.pairing_basis(3, 4)
    np.testing.assert_allclose(refs.project_invariant("so3", t).ravel(), basis.sum(axis=1) / 15.0,
                               atol=1e-12)


def test_projection_fixes_invariants_and_kills_odd_orders():
    pairing = refs.pairing_basis(3, 6)[:, 4].reshape((3,) * 6)
    np.testing.assert_allclose(refs.project_invariant("so3", pairing), pairing, atol=1e-12)
    np.testing.assert_array_equal(refs.project_invariant("o3", np.ones((3, 3, 3))), 0.0)


def test_planar_pairings_are_dependent_but_project_onto_their_span():
    # In 2D the 15 order-6 pairings span only the 10 O(2) invariants.
    p = refs.invariant_projector("o2", 2, 6)
    assert round(float(np.trace(p))) == 10
    np.testing.assert_allclose(p @ p, p, atol=1e-12)


def test_invariant_projector_is_an_orthogonal_projector_of_riordan_rank():
    for n in (3, 4):
        p = refs.invariant_projector("so3", 3, n)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        assert round(float(np.trace(p))) == refs.riordan(n)


def test_sym2_moments_match_contractions():
    m1, m2, cov = refs.sym2_moments([1.0, 2.0, 3.0])
    np.testing.assert_allclose(m1, 2.0 * np.eye(3))
    assert math.isclose(np.einsum("iikk->", m2), 36.0)  # (tr v)^2
    assert math.isclose(np.einsum("ijij->", m2), 14.0)  # tr(v^2)
    assert math.isclose(cov[0, 0, 0, 0], (3 * 14 - 36) / 15 * (1 - 1 / 3))


def test_rotation_check_accepts_uniform_and_rejects_biased_samples():
    rng = np.random.default_rng(0)
    q, r = np.linalg.qr(rng.normal(size=(20000, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]  # Haar on O(3)
    assert refs.check_rotations(q, "o3").ok
    proper = q * np.sign(refs.determinants(q))[:, None, None]
    assert refs.check_rotations(proper, "so3").ok
    assert not refs.check_rotations(q, "so3").ok
    assert not refs.check_rotations(np.broadcast_to(np.eye(3), (100, 3, 3)), "so3").ok


def test_repeated_op_with_other_stdout_bytes_fails():
    tally = Tally()
    assert tally.record("op", digest="aa", wall=1.0, cpu=1.0)
    assert tally.record("op", digest="aa", wall=3.0, cpu=2.0)
    assert not tally.record("op", digest="bb", wall=2.0, cpu=1.0)
    assert tally.failed == 1 and tally.attempted == 3
    assert "differs" in tally.failures[0][1]
    assert tally.wall["op"] == [1.0, 3.0]


def test_end_to_end_sums_per_op_medians():
    tally = Tally()
    for op, walls in (("a", [1.0, 3.0, 2.0]), ("b", [5.0])):
        for w in walls:
            tally.record(op, digest=op, wall=w, cpu=w / 2, rss_mb=w)
    metrics = end_to_end(tally, [0.3, 0.1, 0.2])
    assert metrics["wall_s"]["value"] == pytest.approx(7.0)
    assert metrics["cpu_s"]["value"] == pytest.approx(3.5)
    assert metrics["op_p50_s"]["value"] == pytest.approx(3.5)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)
    assert metrics["peak_rss_mb"]["value"] == 5.0
