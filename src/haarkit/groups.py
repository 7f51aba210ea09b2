"""The four groups, finite subgroups, their elements, and the constructions built on them.

GROUPS is the one table of SO(2), O(2), SO(3) and O(3): every module reads
a group's dimension, properness, spelling and charts from its row, found by
lookup_group under either spelling (``so3`` or ``so(3)``).  A group element
is a plain D x D orthogonal ndarray, and a stack of them is (n, D, D);
as_orthogonal is the one validator, and rodrigues and reflection return
its read-only arrays.  A FiniteGroup is one validated stack, which stands
in for a tag in every group average (haar.haar_nodes gives its elements
weight 1/|G| each).  Also provides orthogonality_error, hat/vee between
R^3 and skew-symmetric matrices, the Olinde-Rodrigues rotation formula,
plane reflections, the half-trace Frobenius product, and the rotation
matrices of unit quaternions.

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
    """A row of GROUPS."""

    tag: str  # "so3"
    spelling: str  # "so(3)", as a chart's group tag
    dim: int  # elements are dim x dim
    proper: bool  # SO(D); O(D) adds the improper coset
    charts: tuple[str, ...]  # of the proper part; the first samples by default, exact rule


GROUPS = {g.tag: g for g in (
    Group("so2", "so(2)", 2, True, ("so2-angle", "so2-shifted")),
    Group("o2", "o(2)", 2, False, ("so2-angle", "so2-shifted")),
    Group("so3", "so(3)", 3, True, ("so3-euler", "so3-polar", "so3-quat")),
    Group("o3", "o(3)", 3, False, ("so3-euler", "so3-polar", "so3-quat")),
)}


class UnknownNameError(KeyError, ValueError):
    """A name of no table row (a group tag, a built-in chart): a KeyError and
    a ValueError, printed unquoted."""

    __str__ = ValueError.__str__


class UnknownGroupError(UnknownNameError):
    """A tag of no row of GROUPS."""


def lookup_group(tag: str) -> Group:
    """The row of GROUPS whose tag or spelling is ``tag``."""
    for group in GROUPS.values():
        if tag in (group.tag, group.spelling):
            return group
    raise UnknownGroupError(f"unknown group tag {tag!r}; expected one of {', '.join(GROUPS)}")


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite set of orthogonal matrices verified to form a group.

    Built from an (n, D, D) stack or a list of D x D matrices, which
    as_orthogonal validates into the read-only stack ``matrices``, each member once.  Every
    average that takes a group tag takes a FiniteGroup in its place and
    sums over the elements, improper ones included, at weight 1/|G|.
    """

    matrices: np.ndarray  # (n, D, D), read-only

    def __post_init__(self):
        arr = np.asarray(self.matrices, dtype=float)
        if arr.ndim != 3 or not len(arr):
            raise ValueError("a finite group needs a nonempty (n, D, D) stack of matrices, "
                             f"got shape {arr.shape}")
        arr = as_orthogonal(arr)
        object.__setattr__(self, "matrices", arr)
        n, dim = arr.shape[0], arr.shape[1]
        if not np.abs(arr - np.eye(dim)).max(axis=(1, 2)).min() <= INPUT_TOL:
            raise ValueError("the identity is not among the elements")
        def gap(a):  # (n, n) max-abs distance from each a[i] to each member
            return np.abs(a[:, None] - arr[None]).max(axis=(2, 3))
        twins = gap(arr) + np.tril(np.full((n, n), np.inf))
        i, j = divmod(int(twins.argmin()), n)  # the closest pair i < j
        if twins[i, j] <= INPUT_TOL:
            raise ValueError(f"element {i} and element {j} are the same member; list each once")
        products = np.einsum("aij,bjk->abik", arr, arr).reshape(n * n, dim, dim)
        gaps = np.full(n * n, np.inf)
        for g in arr:  # one member at a time keeps memory O(n^2 D^2)
            gaps = np.minimum(gaps, np.abs(products - g).max(axis=(1, 2)))
        if not gaps.max() <= INPUT_TOL:
            i, j = divmod(int(gaps.argmax()), n)
            raise ValueError(f"not closed under products: element {i} * element {j} "
                             f"is {gaps.max():.3g} away from every member")
        if not gap(arr.transpose(0, 2, 1)).min(axis=1).max() <= INPUT_TOL:
            raise ValueError("not closed under inverses")

    @classmethod
    def cyclic(cls, axis, k: int) -> "FiniteGroup":
        """The k rotations by multiples of 2*pi/k about an axis of R^3."""
        if k < 1:
            raise ValueError("cyclic group order must be positive")
        return cls([rodrigues(axis, 2.0 * np.pi * j / k) for j in range(k)])

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def __len__(self) -> int:
        return len(self.matrices)

    def __repr__(self) -> str:  # short, as error messages print it
        return f"FiniteGroup(order={len(self)}, dim={self.dim})"


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
    """sigma g for an (N, D, D) stack of proper elements g, as a new array.

    sigma = diag(-1, 1) on O(2) and -I on O(3); every O-group average,
    sampler and averaging operator uses this one representative.  sigma is
    diagonal, so it acts as a sign per row; adding 0.0 turns -0.0 into 0.0,
    which gives the bits of the matrix product sigma @ g on finite entries.
    """
    mats = np.asarray(mats, dtype=float)
    sign = {2: np.array([[-1.0], [1.0]]), 3: -1.0}.get(mats.shape[-1])
    if sign is None:
        raise ValueError(f"no improper coset for dimension {mats.shape[-1]}")
    out = sign * mats
    out += 0.0
    return out


def orthogonality_error(mats) -> float:
    """max |g g^T - I| over a matrix or an (N, D, D) stack; NaN if an entry is NaN."""
    mats = np.asarray(mats, dtype=float)
    with np.errstate(all="ignore"):  # inf gives NaN quietly; callers test "not err <= tol"
        return float(np.abs(mats @ np.swapaxes(mats, -1, -2) - np.eye(mats.shape[-1])).max())


def _check_unit(n: np.ndarray, what: str) -> None:
    norm = float(np.linalg.norm(n))
    if not abs(norm - 1.0) <= INPUT_TOL:
        raise ValueError(f"{what} must be a unit vector (norm {norm:.6g}); not normalizing silently")


def as_orthogonal(matrices, tol: float = INPUT_TOL) -> np.ndarray:
    """A read-only copy of one D x D matrix or an (n, D, D) stack, validated as group elements.

    Each matrix must be square, with orthogonality_error and ||det| - 1| at
    most tol; NaN fails both.
    """
    m = np.array(matrices, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"group element must be square, got shape {m.shape}")
    if not orthogonality_error(m) <= tol:
        raise ValueError("matrix is not orthogonal within tolerance")
    dets = np.linalg.det(m).ravel()
    det = dets[np.abs(np.abs(dets) - 1.0).argmax()]  # the furthest from +-1
    if not abs(abs(det) - 1.0) <= tol:
        raise ValueError(f"matrix determinant {det:.17g} is not +-1 within tolerance")
    m.setflags(write=False)
    return m


def rodrigues(axis, angle: float) -> np.ndarray:
    """Rotation about a unit axis: I + sin(a) hat(n) + (1 - cos(a)) hat(n)^2."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"rodrigues expects a 3-vector axis, got shape {n.shape}")
    _check_unit(n, "rotation axis")
    k = hat(n)
    m = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    return as_orthogonal(m, tol=CONSTRUCTED_TOL)


def reflection(normal) -> np.ndarray:
    """Reflection through the plane orthogonal to a unit normal: I - 2 n n^T."""
    n = np.asarray(normal, dtype=float)
    if n.ndim != 1 or n.size < 2:
        raise ValueError(f"reflection expects a vector of length >= 2, got shape {n.shape}")
    _check_unit(n, "reflection normal")
    m = np.eye(n.size) - 2.0 * np.outer(n, n)
    return as_orthogonal(m, tol=CONSTRUCTED_TOL)


def quat_rotation_matrices(q) -> np.ndarray:
    """Rotations v -> q v conj(q) of unit quaternions, (..., 4) arrays ordered (w, x, y, z)."""
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
