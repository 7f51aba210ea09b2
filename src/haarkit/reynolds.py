"""Group averaging of tensors and dimensions of invariant subspaces.

The Reynolds projector sends a tensor to its group average: a finite
group averages over its elements, a compact group integrates against the
uniform measure.  The trace formula turns the same integral into the
dimension of the invariant subspace of order-n tensors; for the rotation
groups that reduces to a 1D integral in the rotation angle, and binomial
sums give the SO(3)/O(3) dimensions exactly.

The action on order-n tensors is a polynomial of degree n in the entries
of g, so without a density the continuous averages run on the exact rule
of haar.exact_nodes at degree n and are exact up to roundoff.  Passing a
HaarDensity integrates in its chart instead, which cross-checks user charts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .groups import GroupElement, rodrigues
from .haar import (HaarDensity, NumericalError, coset_stacks, haar_nodes, integrate_scalar,
                   integrate_tensor)
from .quadrature import axis_rule
from .tensors import MAX_ENTRIES, Tensor, act, act_batch

FINITE_GROUP_TOL = 1e-9
RANK_THRESHOLD = 1e-6
REDUCED_NODES = 256
INTEGER_SLACK = 1e-3


# ---------------------------------------------------------------------------
# Finite groups


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite set of orthogonal matrices verified to form a group."""

    elements: tuple[GroupElement, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a finite group needs at least one element")
        arr = np.stack([g.matrix for g in self.elements])
        n, dim = arr.shape[0], arr.shape[1]
        if np.abs(arr - np.eye(dim)).max(axis=(1, 2)).min() > FINITE_GROUP_TOL:
            raise ValueError("the identity is not among the elements")
        products = np.einsum("aij,bjk->abik", arr, arr).reshape(n * n, dim, dim)
        gaps = np.abs(products[:, None] - arr[None]).max(axis=(2, 3)).min(axis=1)
        if gaps.max() > FINITE_GROUP_TOL:
            i, j = divmod(int(gaps.argmax()), n)
            raise ValueError(f"not closed under products: element {i} * element {j} "
                             f"is {gaps.max():.3g} away from every member")
        inv_gaps = np.abs(arr.transpose(0, 2, 1)[:, None] - arr[None]).max(axis=(2, 3)).min(axis=1)
        if inv_gaps.max() > FINITE_GROUP_TOL:
            raise ValueError("not closed under inverses")

    @classmethod
    def from_matrices(cls, matrices) -> "FiniteGroup":
        return cls(tuple(GroupElement.from_matrix(m) for m in matrices))

    @classmethod
    def cyclic(cls, axis, k: int) -> "FiniteGroup":
        """The k rotations by multiples of 2*pi/k about an axis of R^3."""
        if k < 1:
            raise ValueError("cyclic group order must be positive")
        return cls(tuple(rodrigues(axis, 2.0 * np.pi * j / k) for j in range(k)))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def reynolds_finite(group: FiniteGroup, t: Tensor) -> Tensor:
    """Average of a tensor over a finite group."""
    total = Tensor.zeros(t.dim, t.order)
    for g in group:
        total = total + act(g, t)
    return total * (1.0 / len(group))


# ---------------------------------------------------------------------------
# Continuous Reynolds projector


def reynolds_continuous(group_tag: str, density: HaarDensity | None, rule, t: Tensor) -> Tensor:
    """Group average of a tensor, exact without a density, else by chart quadrature."""
    out = integrate_tensor(lambda mats: act_batch(mats, t), group_tag, density,
                           rule=rule, vectorized=True, degree=t.order)
    return Tensor.from_array(np.asarray(out), dim=t.dim)


def reynolds_matrix(group_tag: str, n: int, density: HaarDensity | None = None, rule=None,
                    chunk: int = 512) -> np.ndarray:
    """The averaging operator on order-n tensors as a (D^n, D^n) matrix.

    Column (j1..jn) is the group average of the canonical basis tensor
    e_{j1} x ... x e_{jn}.  Without a density the exact rule of degree n
    makes the operator exact up to roundoff; with one it is integrated on
    the chart grid.  Nodes are processed in chunks to bound the
    (chunk, D^n, D^n) workspace.
    """
    weighted, elements = haar_nodes(group_tag, density, rule, degree=n)
    dim = elements.shape[-1]
    size = dim**n
    if size * size > MAX_ENTRIES:
        raise ValueError(f"order-{n} operator over dimension {dim} exceeds the "
                         f"{MAX_ENTRIES}-entry budget")
    if n == 0:
        # scalars are fixed by every group element; both cosets integrate to 1
        return np.array([[float(weighted.sum())]])
    total = np.zeros((size, size))
    for start in range(0, elements.shape[0], chunk):
        w = weighted[start:start + chunk]
        stacks = coset_stacks(group_tag, elements[start:start + chunk])
        for stack in stacks:
            power = stack
            for _ in range(n - 1):
                m = power.shape[1]
                power = np.einsum("nab,ncd->nacbd", power, stack).reshape(-1, m * dim, m * dim)
            total += np.tensordot(w, power, axes=1)
    return total / len(stacks)


def invariant_rank(group_tag: str, n: int, density: HaarDensity | None = None, rule=None,
                   threshold: float = RANK_THRESHOLD) -> int:
    """Numerical rank of the order-n averaging operator (exact rule without a density)."""
    op = reynolds_matrix(group_tag, n, density, rule=rule)
    singular = np.linalg.svd(op, compute_uv=False)
    return int(np.sum(singular > threshold))


# ---------------------------------------------------------------------------
# Invariant dimensions


def dim_invariants_closed(group_tag: str, n: int) -> int:
    """Exact dimension of order-n invariant tensors over SO(3) or O(3)."""
    if group_tag not in ("so3", "o3"):
        raise ValueError(f"closed-form dimensions cover so3 and o3, not {group_tag!r}")
    if n < 0:
        raise ValueError("tensor order must be nonnegative")
    if group_tag == "o3" and n % 2 == 1:
        return 0
    m = n // 2
    if n % 2 == 0:
        twice = sum(comb(2 * k, k) * (3 * comb(2 * m, 2 * k) - comb(2 * m + 1, 2 * k))
                    for k in range(m + 1))
    else:
        twice = sum(comb(2 * k, k) * (3 * comb(2 * m + 1, 2 * k) - comb(2 * m + 2, 2 * k))
                    for k in range(m + 1)) - comb(2 * m + 2, m + 1)
    if twice % 2:
        raise NumericalError(f"half-integer dimension sum for n = {n}; formula misapplied")
    return twice // 2


def dim_invariants_quadrature(group_tag: str, n: int, density: HaarDensity | None = None,
                              rule=None, nodes: int = REDUCED_NODES) -> float:
    """Dimension of order-n invariant tensors as the integral of Tr(g)^n.

    Without a density the integral reduces to one dimension: the trace
    depends only on the rotation angle, whose marginal is (2/pi)sin^2(a/2)
    on SO(3) and uniform on SO(2); O-groups average the two cosets.  With
    a density the full chart quadrature of integrate_scalar is used.
    A result further than 1e-3 from an integer reports under-resolution.
    """
    if n < 0:
        raise ValueError("tensor order must be nonnegative")
    if density is not None:
        value = integrate_scalar(
            lambda mats: np.trace(mats, axis1=-2, axis2=-1) ** n,
            group_tag, density, rule=rule, vectorized=True)
    elif group_tag in ("so3", "o3"):
        x, w = axis_rule(nodes, 0.0, np.pi)
        weight = (2.0 / np.pi) * np.sin(x / 2.0) ** 2
        trace = 1.0 + 2.0 * np.cos(x)
        value = float(np.dot(w * weight, trace**n))
        if group_tag == "o3":
            value = 0.5 * (value + float(np.dot(w * weight, (-trace) ** n)))
    elif group_tag in ("so2", "o2"):
        x, w = axis_rule(nodes, 0.0, 2.0 * np.pi)
        trace = 2.0 * np.cos(x)
        value = float(np.dot(w, trace**n)) / (2.0 * np.pi)
        if group_tag == "o2":
            # the improper coset of O(2) is traceless
            value = 0.5 * (value + (1.0 if n == 0 else 0.0))
    else:
        raise KeyError(f"unknown group tag {group_tag!r}")
    if abs(value - round(value)) > INTEGER_SLACK:
        raise NumericalError(f"quadrature under-resolved: Tr^{n} integral {value!r} "
                             f"is {abs(value - round(value)):.3g} from an integer")
    return value
