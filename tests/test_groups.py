"""Matrix group primitives: hat/vee, Rodrigues, the element validator, quaternion rotations."""

import numpy as np
import pytest

from haarkit.groups import (FiniteGroup, as_orthogonal, frobenius, hat, quat_rotation_matrices,
                            reflection, rodrigues, so_algebra_basis, vee)
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


def test_cyclic_order_and_algebra_dimension_are_checked():
    with pytest.raises(ValueError, match="cyclic group order must be positive"):
        FiniteGroup.cyclic([0.0, 0.0, 1.0], 0)
    with pytest.raises(ValueError, match="no algebra basis for dimension 4"):
        so_algebra_basis(4)


def test_frobenius_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius(np.eye(2), np.eye(3))


def test_rodrigues_is_rotation_about_axis():
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    m = rodrigues(axis, 0.9)
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
    assert np.allclose(g, np.diag([-1.0, 1.0, 1.0]))
    assert np.isclose(np.linalg.det(g), -1.0)


def test_group_element_validates_orthogonality():
    with pytest.raises(ValueError, match="not orthogonal"):
        as_orthogonal(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_as_orthogonal_checks_every_element_of_a_stack():
    good = np.stack([random_rotation() for _ in range(4)])
    out = as_orthogonal(good)
    assert np.array_equal(out, good) and out is not good
    assert not out.flags.writeable and good.flags.writeable
    for bad in (np.diag([1.0, 1.0, 1.0 + 1e-6]), np.full((3, 3), np.nan)):
        stack = good.copy()
        stack[2] = bad
        with pytest.raises(ValueError, match="not orthogonal"):
            as_orthogonal(stack)


def test_as_orthogonal_refuses_non_square_and_wrong_rank():
    for shape in ((2, 3), (4, 2, 3), (3,), (1, 1, 3, 3)):
        with pytest.raises(ValueError, match="must be square"):
            as_orthogonal(np.ones(shape))


def test_rodrigues_and_reflection_are_read_only():
    for g in (rodrigues([0.0, 0.0, 1.0], 0.4), reflection([0.0, 1.0])):
        assert isinstance(g, np.ndarray) and not g.flags.writeable


def test_finite_group_from_a_list_equals_from_a_stack():
    mats = [np.eye(3), -np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, 1.0])]
    from_list, from_stack = FiniteGroup(mats), FiniteGroup(np.stack(mats))
    assert len(from_list) == len(from_stack) == 4
    assert np.array_equal(from_list.matrices, from_stack.matrices)
    assert not from_list.matrices.flags.writeable
    with pytest.raises(ValueError, match="nonempty"):
        FiniteGroup([])
    with pytest.raises(ValueError, match="nonempty"):
        FiniteGroup(np.eye(3))  # one matrix, not a stack


def test_finite_group_of_the_identity_and_its_negative():
    # -I is improper and its own inverse: {I, -I} is a group of two elements
    assert len(FiniteGroup([np.eye(3), -np.eye(3)])) == 2


def test_finite_group_refuses_a_repeated_member():
    # {I, R, R} passed every check and weighted R twice: the average of e1 read (-1/3, 0, 0)
    half_turn = rodrigues([0.0, 0.0, 1.0], np.pi)
    with pytest.raises(ValueError, match="element 1 and element 2 are the same member"):
        FiniteGroup([np.eye(3), half_turn, half_turn])
    with pytest.raises(ValueError, match="element 0 and element 2 are the same member"):
        FiniteGroup([half_turn, np.eye(3), rodrigues([0.0, 0.0, 1.0], np.pi + 1e-10)])
    assert len(FiniteGroup([np.eye(3), half_turn])) == 2


def test_finite_group_refuses_a_set_not_closed_under_inverses():
    # Each member is orthogonal, and each product lies within 8.0e-10 of a member, so the
    # identity, repeated-member and product checks pass at INPUT_TOL = 1e-9.  The
    # transposes of the two rotations lie 1.79e-9 from every member.
    def rotation(angle):
        return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])

    members = [np.eye(2),
               rotation(2 * np.pi / 3) + 1e-9 * np.array([[0.8, 0.0], [0.0, -0.1238]]),
               rotation(4 * np.pi / 3) + 1e-9 * np.array([[-0.9856, -0.1072], [0.1072, -0.0619]])]
    with pytest.raises(ValueError, match="^not closed under inverses$"):
        FiniteGroup(members)


@pytest.mark.parametrize("build, message", [
    (lambda: hat([1.0, 2.0]), r"hat expects a 3-vector, got shape \(2,\)"),
    (lambda: vee(np.eye(2)), r"vee expects a 3x3 matrix, got shape \(2, 2\)"),
    (lambda: rodrigues([1.0, 0.0], 0.3), r"rodrigues expects a 3-vector axis, got shape \(2,\)"),
    (lambda: reflection([[1.0]]), r"reflection expects a vector of length >= 2, got shape \(1, 1\)"),
], ids=["hat", "vee", "rodrigues", "reflection"])
def test_constructors_refuse_the_wrong_shape(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_determinant_refusal_shows_the_deviation():
    # orthogonal within INPUT_TOL (error 0.9e-9) but |det| - 1 = 1.35e-9; six digits printed 1
    with pytest.raises(ValueError, match=r"determinant 1\.00000000135\d* is not \+-1 within tolerance"):
        as_orthogonal(np.sqrt(1 + 0.9e-9) * np.eye(3))


def test_quat_rotation_matches_rodrigues():
    axis = np.array([0.0, 0.6, 0.8])
    angle = 1.1
    q = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis])
    m = quat_rotation_matrices(q[None])[0]
    assert np.allclose(m, rodrigues(axis, angle), atol=1e-13)


def test_quat_double_cover():
    q = RNG.normal(size=4)
    q /= np.linalg.norm(q)
    assert np.allclose(quat_rotation_matrices(q[None]), quat_rotation_matrices(-q[None]))


def test_improper_coset_representatives():
    mats = np.stack([rodrigues([0.0, 0.0, 1.0], a) for a in (0.0, 0.7)])
    assert np.array_equal(improper_coset(mats), -mats)
    planar = np.stack([np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])])
    assert np.array_equal(improper_coset(planar), np.diag([-1.0, 1.0]) @ planar)
    assert np.all(np.linalg.det(improper_coset(planar)) < 0)
    with pytest.raises(ValueError):
        improper_coset(np.eye(4)[None])
