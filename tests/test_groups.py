"""Matrix group primitives: hat/vee, Rodrigues, group elements, quaternions."""

import numpy as np
import pytest

from haarkit.groups import (GroupElement, Quaternion, frobenius, hat, quat_conjugate,
                            quat_mul, quat_rotation_matrices, quat_to_rotation,
                            reflection, rodrigues, rotation_to_quat, so_algebra_basis,
                            vee)
from haarkit.groups import improper_coset

RNG = np.random.default_rng(1234)


def random_rotation(dim=3):
    q, _ = np.linalg.qr(RNG.normal(size=(dim, dim)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_hat_is_cross_product():
    for _ in range(20):
        x = RNG.normal(size=3)
        v = RNG.normal(size=3)
        assert np.allclose(hat(x) @ v, np.cross(x, v), atol=1e-14)


def test_hat_vee_round_trip():
    x = np.array([0.3, -1.2, 2.5])
    assert np.allclose(vee(hat(x)), x)


def test_vee_rejects_non_skew():
    with pytest.raises(ValueError):
        vee(np.eye(3))


def test_hat_commutator_matches_cross():
    # [hat(x), hat(y)] = hat(x cross y), the so(3) bracket
    x, y = RNG.normal(size=3), RNG.normal(size=3)
    lhs = hat(x) @ hat(y) - hat(y) @ hat(x)
    assert np.allclose(lhs, hat(np.cross(x, y)), atol=1e-13)


def test_algebra_basis_orthonormal():
    for dim in (2, 3):
        basis = so_algebra_basis(dim)
        assert len(basis) == (1 if dim == 2 else 3)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert abs(frobenius(a, b) - (i == j)) < 1e-15


def test_frobenius_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius(np.eye(2), np.eye(3))


def test_rodrigues_is_rotation_about_axis():
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    g = rodrigues(axis, 0.9)
    m = g.matrix
    assert np.allclose(m @ m.T, np.eye(3), atol=1e-14)
    assert np.isclose(np.linalg.det(m), 1.0)
    assert np.allclose(m @ axis, axis, atol=1e-14)
    # trace fixes the angle
    assert np.isclose((np.trace(m) - 1) / 2, np.cos(0.9))


def test_rodrigues_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        rodrigues([1.0, 2.0, 2.0], 0.5)


def test_reflection_matrix():
    n = np.array([1.0, 0.0, 0.0])
    g = reflection(n)
    assert np.allclose(g.matrix, np.diag([-1.0, 1.0, 1.0]))
    assert np.isclose(np.linalg.det(g.matrix), -1.0)


def test_group_element_validates_orthogonality():
    with pytest.raises(ValueError):
        GroupElement.from_matrix(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_group_element_inverse_and_compose():
    g = GroupElement.from_matrix(random_rotation())
    h = GroupElement.from_matrix(random_rotation())
    assert np.allclose((g @ g.inverse()).matrix, np.eye(3), atol=1e-13)
    assert np.allclose((g @ h).matrix, g.matrix @ h.matrix)


def test_quat_mul_hamilton_table():
    # i*j = k, j*k = i, k*i = j, i*i = -1
    e = np.eye(4)
    w, i, j, k = e
    assert np.allclose(quat_mul(i, j), k)
    assert np.allclose(quat_mul(j, k), i)
    assert np.allclose(quat_mul(k, i), j)
    assert np.allclose(quat_mul(i, i), -w)
    assert np.allclose(quat_mul(w, j), j)


def test_quat_mul_broadcasts():
    a = RNG.normal(size=(5, 4))
    b = RNG.normal(size=(5, 4))
    out = quat_mul(a, b)
    assert out.shape == (5, 4)
    for row, (x, y) in enumerate(zip(a, b)):
        assert np.allclose(out[row], quat_mul(x, y))


def test_quat_conjugate_gives_inverse():
    q = RNG.normal(size=4)
    q /= np.linalg.norm(q)
    assert np.allclose(quat_mul(q, quat_conjugate(q)), [1, 0, 0, 0], atol=1e-14)


def test_quat_rotation_matches_rodrigues():
    axis = np.array([0.0, 0.6, 0.8])
    angle = 1.1
    q = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis])
    m = quat_rotation_matrices(q[None])[0]
    assert np.allclose(m, rodrigues(axis, angle).matrix, atol=1e-13)


def test_quat_double_cover():
    q = RNG.normal(size=4)
    q /= np.linalg.norm(q)
    assert np.allclose(quat_rotation_matrices(q[None]), quat_rotation_matrices(-q[None]))


def test_quaternion_rotate_agrees_with_matrix():
    q = Quaternion.from_axis_angle([0.0, 0.0, 1.0], 0.7)
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(q.rotate(v), quat_to_rotation(q).matrix @ v, atol=1e-13)


def test_quat_to_rotation_requires_unit():
    with pytest.raises(ValueError):
        quat_to_rotation(np.array([1.0, 1.0, 0.0, 0.0]))


def test_rotation_to_quat_round_trip():
    for _ in range(50):
        m = random_rotation()
        q = rotation_to_quat(m)
        assert q[0] >= 0.0
        assert np.isclose(np.linalg.norm(q), 1.0, atol=1e-12)
        assert np.allclose(quat_rotation_matrices(q[None])[0], m, atol=1e-12)


def test_rotation_to_quat_all_branches():
    # near-pi rotations about each axis exercise the non-trace branches
    for axis in np.eye(3):
        m = rodrigues(axis, np.pi - 1e-3).matrix
        q = rotation_to_quat(m)
        assert np.allclose(quat_rotation_matrices(q[None])[0], m, atol=1e-10)
    q = rotation_to_quat(np.eye(3))
    assert np.allclose(q, [1, 0, 0, 0])


def test_rotation_to_quat_rejects_improper():
    with pytest.raises(ValueError):
        rotation_to_quat(np.diag([-1.0, 1.0, 1.0]))


def test_improper_coset_representatives():
    mats = np.stack([rodrigues([0.0, 0.0, 1.0], a).matrix for a in (0.0, 0.7)])
    assert np.array_equal(improper_coset(mats), -mats)
    planar = np.stack([np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])])
    assert np.array_equal(improper_coset(planar), np.diag([-1.0, 1.0]) @ planar)
    assert np.all(np.linalg.det(improper_coset(planar)) < 0)
    with pytest.raises(ValueError):
        improper_coset(np.eye(4)[None])
