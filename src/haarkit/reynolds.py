"""Group averaging of tensors and dimensions of invariant subspaces.

The Reynolds projector sends a tensor to its group average: a finite
group averages over its elements, a compact group integrates against the
uniform measure.  The trace formula turns the same integral into the
dimension of the invariant subspace of order-n tensors; for the rotation
groups that reduces to a 1D integral in the rotation angle, exact on n + 2
equispaced angles, and binomial sums give the SO(3)/O(3) dimensions.

The action on order-n tensors is a polynomial of degree n in the entries
of g, so without a density the continuous averages run on the exact rule
of haar.exact_nodes at degree n and are exact up to roundoff.  A density
averages on the grid it was normalized on, which cross-checks user charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .charts import builtin_chart
from .groups import INPUT_TOL, GroupElement, lookup_group, rodrigues
from .haar import HaarDensity, NumericalError, coset_stacks, haar_nodes, integrate_tensor
from .tensors import MAX_ENTRIES, Tensor, act_batch

RANK_THRESHOLD = 1e-6
INTEGER_SLACK = 1e-3


# ---------------------------------------------------------------------------
# Finite groups


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite set of orthogonal matrices verified to form a group."""

    elements: tuple[GroupElement, ...]
    matrices: np.ndarray = field(init=False, repr=False)  # (n, D, D) stack of the elements

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a finite group needs at least one element")
        arr = np.stack([g.matrix for g in self.elements])
        arr.setflags(write=False)
        object.__setattr__(self, "matrices", arr)
        n, dim = arr.shape[0], arr.shape[1]
        if not np.abs(arr - np.eye(dim)).max(axis=(1, 2)).min() <= INPUT_TOL:
            raise ValueError("the identity is not among the elements")
        products = np.einsum("aij,bjk->abik", arr, arr).reshape(n * n, dim, dim)
        gaps = np.full(n * n, np.inf)
        for g in arr:  # one member at a time keeps memory O(n^2 D^2); NaN propagates
            gaps = np.minimum(gaps, np.abs(products - g).max(axis=(1, 2)))
        if not gaps.max() <= INPUT_TOL:
            i, j = divmod(int(gaps.argmax()), n)
            raise ValueError(f"not closed under products: element {i} * element {j} "
                             f"is {gaps.max():.3g} away from every member")
        inv_gaps = np.abs(arr.transpose(0, 2, 1)[:, None] - arr[None]).max(axis=(2, 3)).min(axis=1)
        if not inv_gaps.max() <= INPUT_TOL:
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
    """Average of a tensor over a finite group: one act_batch over its elements."""
    return Tensor.from_array(act_batch(group.matrices, t).mean(axis=0), dim=t.dim)


# ---------------------------------------------------------------------------
# Continuous Reynolds projector


def reynolds_continuous(group_tag: str, t: Tensor, density: HaarDensity | None = None) -> Tensor:
    """Group average of a tensor, exact without a density, else by chart quadrature."""
    out = integrate_tensor(lambda mats: act_batch(mats, t), group_tag, density, degree=t.order)
    return Tensor.from_array(np.asarray(out), dim=t.dim)


def reynolds_matrix(group_tag: str, n: int, density: HaarDensity | None = None) -> np.ndarray:
    """The averaging operator on order-n tensors as a (D^n, D^n) matrix.

    Column (j1..jn) is the group average of the canonical basis tensor
    e_{j1} x ... x e_{jn}.  Without a density the exact rule of degree n
    makes the operator exact up to roundoff; with one it is integrated on
    the density's grid.  As g^(x)n = g^(x)a (x) g^(x)b, a = ceil(n/2), b = n - a,
    the node sum is one contraction of the two half Kronecker powers (at
    n = 0 both are 1, and it is the weight sum).
    """
    weighted, elements = haar_nodes(group_tag, density, degree=n)
    dim = elements.shape[-1]
    size = dim**n
    if size * size > MAX_ENTRIES:
        raise ValueError(f"order-{n} operator over dimension {dim} exceeds the "
                         f"{MAX_ENTRIES}-entry budget")
    stacks = coset_stacks(group_tag, elements)
    total = np.zeros((size, size))
    for stack in stacks:
        powers = [np.ones((len(stack), 1, 1))]  # g^(x)k at each node, k = 0..a
        for _ in range((n + 1) // 2):
            m = powers[-1].shape[1] * dim
            powers.append(np.einsum("nab,ncd->nacbd", powers[-1], stack).reshape(-1, m, m))
        total += np.einsum("n,nab,ncd->acbd", weighted, powers[-1], powers[n // 2],
                           optimize=True).reshape(size, size)
    return total / len(stacks)


def invariant_rank(group_tag: str, n: int, density: HaarDensity | None = None) -> int:
    """Numerical rank of the order-n averaging operator (singular values > RANK_THRESHOLD)."""
    op = reynolds_matrix(group_tag, n, density)
    singular = np.linalg.svd(op, compute_uv=False)
    return int(np.sum(singular > RANK_THRESHOLD))


# ---------------------------------------------------------------------------
# Invariant dimensions


def dim_invariants_closed(group_tag: str, n: int) -> int:
    """Exact dimension of order-n invariant tensors over SO(3) or O(3)."""
    group = lookup_group(group_tag)
    if group.dim != 3:
        raise ValueError(f"closed-form dimensions cover so3 and o3, not {group_tag!r}")
    if n < 0:
        raise ValueError("tensor order must be nonnegative")
    if not group.proper and n % 2 == 1:
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


def dim_invariants_quadrature(group_tag: str, n: int, density: HaarDensity | None = None) -> float:
    """Dimension of order-n invariant tensors as the integral of Tr(g)^n.

    With a density it runs on the grid the density was normalized on.
    Without, it is exact up to roundoff: by Weyl's formula the class
    function Tr(g)^n averages over rotations by a about one axis, weighted
    by 1 - cos a on SO(3); the m = n + 2 angles a = 2 pi j / m, in the
    group's first chart at (a) or (a, 0, 0), integrate that degree-(n + 1)
    trigonometric polynomial exactly.  Starting at the identity, where Tr^n
    peaks, spares its largest terms cancellation in a.  O-groups add the
    improper coset.  With r = 4 (n + 2) eps sum|w Tr(g)^n| bounding roundoff,
    a result that is not finite or further than max(INTEGER_SLACK, r) from an
    integer is a NumericalError, as is r >= 1/2 on the exact rule or, on a
    density's grid, whose one resolution check is this test, r >= INTEGER_SLACK.
    """
    group = lookup_group(group_tag)
    if n < 0:
        raise ValueError("tensor order must be nonnegative")
    if density is not None:
        weights, elements = haar_nodes(group_tag, density)
    else:
        chart = builtin_chart(group.charts[0])
        m = n + 2
        angles = 2.0 * np.pi * np.arange(m) / m
        points = np.zeros((m, chart.d))
        points[:, 0] = np.where(angles > chart.domain[0, 1], angles - 2.0 * np.pi, angles)
        weights = (1.0 - np.cos(points[:, 0])) / m if group.dim == 3 else np.full(m, 1.0 / m)
        elements = chart.evaluate_many(points)
    with np.errstate(over="ignore", invalid="ignore"):  # 3^n overflows past n = 646
        powers = [np.trace(s, axis1=-2, axis2=-1) ** n for s in coset_stacks(group_tag, elements)]
        value = sum(float(np.dot(weights, p)) for p in powers) / len(powers)
        scale = sum(float(np.dot(weights, np.abs(p))) for p in powers) / len(powers)  # w >= 0
    if not np.isfinite(value):
        raise NumericalError(f"Tr^{n} integral is not finite ({value!r})")
    roundoff = 4.0 * (n + 2) * np.finfo(float).eps * scale
    if roundoff >= (0.5 if density is None else INTEGER_SLACK):
        raise NumericalError(f"Tr^{n} integral {value!r} carries roundoff up to {roundoff:.3g}, "
                             "too much to tell an integer; use the closed form")
    if abs(value - round(value)) > max(INTEGER_SLACK, roundoff):
        raise NumericalError(f"quadrature under-resolved: Tr^{n} integral {value!r} "
                             f"is {abs(value - round(value)):.3g} from an integer")
    return value
