"""The four groups, their elements, and the constructions built on them.

GROUPS is the one table of SO(2), O(2), SO(3) and O(3): every module reads
a group's dimension, properness, spelling and charts from its row, found by
lookup_group under either spelling (``so3`` or ``so(3)``).  Also provides
orthogonality_error, hat/vee between R^3 and skew-symmetric matrices, the
Olinde-Rodrigues rotation formula, plane reflections, the half-trace
Frobenius product, and quaternions with their action on R^3.

Conventions: hat(x) @ v == cross(x, v) (right-hand rule), so that
exp(alpha * hat(n)) is the counterclockwise rotation by alpha about n,
[hat(a), hat(b)] = hat(cross(a, b)), and the quaternion
(cos(alpha/2), sin(alpha/2) * n) maps to the same rotation as
rodrigues(n, alpha).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Orthogonality tolerances: matrices constructed here vs user-supplied input.
CONSTRUCTED_TOL = 1e-12
INPUT_TOL = 1e-9

# Generator of so(2), unit norm under the half-trace Frobenius product.
SO2_GENERATOR = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class Group:
    """A row of GROUPS; iterating it yields its charts."""

    tag: str  # "so3"
    spelling: str  # "so(3)", as a chart's group tag
    dim: int  # elements are dim x dim
    proper: bool  # SO(D); O(D) adds the improper coset
    charts: tuple[str, ...]  # of the proper part; the first samples by default, exact rule

    def __iter__(self):
        return iter(self.charts)


GROUPS = {g.tag: g for g in (
    Group("so2", "so(2)", 2, True, ("so2-angle", "so2-shifted")),
    Group("o2", "o(2)", 2, False, ("so2-angle", "so2-shifted")),
    Group("so3", "so(3)", 3, True, ("so3-euler", "so3-polar", "so3-quat")),
    Group("o3", "o(3)", 3, False, ("so3-euler", "so3-polar", "so3-quat")),
)}


class UnknownGroupError(KeyError, ValueError):
    """A tag of no row of GROUPS: a KeyError and a ValueError, printed unquoted."""

    __str__ = ValueError.__str__


def lookup_group(tag: str) -> Group:
    """The row of GROUPS whose tag or spelling is ``tag``."""
    for group in GROUPS.values():
        if tag in (group.tag, group.spelling):
            return group
    raise UnknownGroupError(f"unknown group tag {tag!r}; expected one of {', '.join(GROUPS)}")


def hat(x) -> np.ndarray:
    """Map a 3-vector to the skew matrix with ``hat(x) @ v == cross(x, v)``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError(f"hat expects a 3-vector, got shape {x.shape}")
    return np.array([
        [0.0, -x[2], x[1]],
        [x[2], 0.0, -x[0]],
        [-x[1], x[0], 0.0],
    ])


def vee(m) -> np.ndarray:
    """Inverse of :func:`hat`.  Rejects matrices that are not skew within INPUT_TOL."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"vee expects a 3x3 matrix, got shape {m.shape}")
    if not np.abs(m + m.T).max() <= INPUT_TOL:
        raise ValueError("vee: matrix is not skew-symmetric")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def frobenius(a, b) -> float:
    """Half-trace inner product tr(A B^T) / 2.

    Under this product the basis hat(e_1), hat(e_2), hat(e_3) of the
    skew matrices is orthonormal, as is the single so(2) generator.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"frobenius expects equal square matrices, got {a.shape} and {b.shape}")
    return 0.5 * float(np.tensordot(a, b, axes=2))


def so_algebra_basis(dim: int) -> list[np.ndarray]:
    """Orthonormal basis of so(dim) under :func:`frobenius`, dim in {2, 3}."""
    if dim == 2:
        return [SO2_GENERATOR.copy()]
    if dim == 3:
        return [hat(e) for e in np.eye(3)]
    raise ValueError(f"no algebra basis for dimension {dim}")


def improper_coset(mats) -> np.ndarray:
    """sigma g for an (N, D, D) stack of proper elements g.

    sigma = diag(-1, 1) on O(2) and -I on O(3); every O-group average,
    sampler and averaging operator uses this one representative.
    """
    mats = np.asarray(mats, dtype=float)
    dim = mats.shape[-1]
    if dim == 2:
        sigma = np.diag([-1.0, 1.0])
    elif dim == 3:
        sigma = -np.eye(3)
    else:
        raise ValueError(f"no improper coset for dimension {dim}")
    return np.einsum("ij,njk->nik", sigma, mats)


def orthogonality_error(mats) -> float:
    """max |g g^T - I| over a matrix or an (N, D, D) stack; NaN if an entry is NaN."""
    mats = np.asarray(mats, dtype=float)
    with np.errstate(all="ignore"):  # inf gives NaN quietly; callers test "not err <= tol"
        return float(np.abs(mats @ np.swapaxes(mats, -1, -2) - np.eye(mats.shape[-1])).max())


def _check_unit(n: np.ndarray, what: str) -> None:
    norm = float(np.linalg.norm(n))
    if not abs(norm - 1.0) <= INPUT_TOL:
        raise ValueError(f"{what} must be a unit vector (norm {norm:.6g}); not normalizing silently")


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A dense D x D orthogonal matrix with validated group invariants."""

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, matrix, tol: float = INPUT_TOL) -> "GroupElement":
        """Validate orthogonality and |det| = 1 within tol, then wrap."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"group element must be square, got shape {m.shape}")
        if not orthogonality_error(m) <= tol:
            raise ValueError("matrix is not orthogonal within tolerance")
        det = float(np.linalg.det(m))
        if not abs(abs(det) - 1.0) <= tol:
            raise ValueError(f"matrix determinant {det:.6g} is not +-1 within tolerance")
        elem = cls(m.copy())
        elem.matrix.setflags(write=False)
        return elem

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.matrix))

    @property
    def proper(self) -> bool:
        """True iff det = +1 (a rotation, no reflection)."""
        return self.determinant > 0.0

    def inverse(self) -> "GroupElement":
        return GroupElement.from_matrix(self.matrix.T, tol=CONSTRUCTED_TOL)

    def __matmul__(self, other):
        if isinstance(other, GroupElement):
            return GroupElement.from_matrix(self.matrix @ other.matrix, tol=INPUT_TOL)
        return self.matrix @ np.asarray(other, dtype=float)

    def __array__(self, dtype=None):
        return np.asarray(self.matrix, dtype=dtype)

    def __repr__(self) -> str:
        kind = "proper" if self.proper else "improper"
        return f"GroupElement(dim={self.dim}, {kind})"


def as_matrix(g) -> np.ndarray:
    """Coerce a GroupElement or array-like to a float ndarray."""
    if isinstance(g, GroupElement):
        return g.matrix
    return np.asarray(g, dtype=float)


def rodrigues(axis, angle: float) -> GroupElement:
    """Rotation about a unit axis: I + sin(a) hat(n) + (1 - cos(a)) hat(n)^2."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"rodrigues expects a 3-vector axis, got shape {n.shape}")
    _check_unit(n, "rotation axis")
    k = hat(n)
    m = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    return GroupElement.from_matrix(m, tol=CONSTRUCTED_TOL)


def reflection(normal) -> GroupElement:
    """Reflection through the plane orthogonal to a unit normal: I - 2 n n^T."""
    n = np.asarray(normal, dtype=float)
    if n.ndim != 1 or n.size < 2:
        raise ValueError(f"reflection expects a vector of length >= 2, got shape {n.shape}")
    _check_unit(n, "reflection normal")
    m = np.eye(n.size) - 2.0 * np.outer(n, n)
    return GroupElement.from_matrix(m, tol=CONSTRUCTED_TOL)


# ---------------------------------------------------------------------------
# Quaternions.  Components ordered (w, x, y, z); Hamilton product, so that
# ij = k and unit quaternions act on R^3 by v -> q v conj(q).


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product of quaternions stored as (..., 4) arrays."""
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
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_rotation_matrices(q) -> np.ndarray:
    """Rotation matrices of unit quaternions stored as (..., 4) arrays."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    m = np.empty(q.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    m[..., 0, 1] = 2.0 * (x * y - w * z)
    m[..., 0, 2] = 2.0 * (x * z + w * y)
    m[..., 1, 0] = 2.0 * (x * y + w * z)
    m[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    m[..., 1, 2] = 2.0 * (y * z - w * x)
    m[..., 2, 0] = 2.0 * (x * z - w * y)
    m[..., 2, 1] = 2.0 * (y * z + w * x)
    m[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return m


@dataclass(frozen=True)
class Quaternion:
    """A quaternion w + xi + yj + zk."""

    w: float
    x: float
    y: float
    z: float

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Quaternion":
        n = np.asarray(axis, dtype=float)
        _check_unit(n, "rotation axis")
        h = 0.5 * angle
        s = np.sin(h)
        return cls(float(np.cos(h)), float(s * n[0]), float(s * n[1]), float(s * n[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def rotate(self, v) -> np.ndarray:
        """Apply v -> q v conj(q) to a 3-vector through the quaternion algebra."""
        v = np.asarray(v, dtype=float)
        pure = np.concatenate([[0.0], v])
        out = quat_mul(quat_mul(self.as_array(), pure), quat_conjugate(self.as_array()))
        return out[1:]


def quat_to_rotation(q: Quaternion | np.ndarray) -> GroupElement:
    """The rotation acting as v -> q v conj(q); q and -q give the same matrix."""
    arr = q.as_array() if isinstance(q, Quaternion) else np.asarray(q, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"quaternion needs 4 components, got shape {arr.shape}")
    if not abs(float(np.linalg.norm(arr)) - 1.0) <= INPUT_TOL:
        raise ValueError("quaternion must be unit norm; not normalizing silently")
    return GroupElement.from_matrix(quat_rotation_matrices(arr), tol=CONSTRUCTED_TOL)


def rotation_to_quat(m) -> np.ndarray:
    """The unit quaternion (w >= 0) of a rotation matrix.

    Inverse of quat_rotation_matrices up to the q / -q double cover; the
    branch on the largest of trace and diagonal keeps the division stable.
    """
    m = np.asarray(as_matrix(m), dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 rotation, got shape {m.shape}")
    if not orthogonality_error(m) <= INPUT_TOL or not np.linalg.det(m) > 0:
        raise ValueError("expected a proper rotation (orthogonal, det +1)")
    d0, d1, d2 = m[0, 0], m[1, 1], m[2, 2]
    t = d0 + d1 + d2
    if t >= max(d0, d1, d2):
        r = np.sqrt(1.0 + t)
        q = np.array([0.5 * r, (m[2, 1] - m[1, 2]) / (2.0 * r),
                      (m[0, 2] - m[2, 0]) / (2.0 * r), (m[1, 0] - m[0, 1]) / (2.0 * r)])
    elif d0 >= max(d1, d2):
        r = np.sqrt(1.0 + d0 - d1 - d2)
        q = np.array([(m[2, 1] - m[1, 2]) / (2.0 * r), 0.5 * r,
                      (m[0, 1] + m[1, 0]) / (2.0 * r), (m[0, 2] + m[2, 0]) / (2.0 * r)])
    elif d1 >= d2:
        r = np.sqrt(1.0 - d0 + d1 - d2)
        q = np.array([(m[0, 2] - m[2, 0]) / (2.0 * r), (m[0, 1] + m[1, 0]) / (2.0 * r),
                      0.5 * r, (m[1, 2] + m[2, 1]) / (2.0 * r)])
    else:
        r = np.sqrt(1.0 - d0 - d1 + d2)
        q = np.array([(m[1, 0] - m[0, 1]) / (2.0 * r), (m[0, 2] + m[2, 0]) / (2.0 * r),
                      (m[1, 2] + m[2, 1]) / (2.0 * r), 0.5 * r])
    q /= np.linalg.norm(q)
    return -q if q[0] < 0 else q
