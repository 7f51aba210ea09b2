"""Group averaging of tensors and dimensions of invariant subspaces.

The Reynolds projector sends a tensor to its group average.  Every average
here takes a group tag or a groups.FiniteGroup in the same argument and
runs on the one averaging engine of haar: haar_nodes gives the weights and
elements, coset_stacks adds the improper coset of an O-group.  A finite
group averages exactly over its elements; a compact group integrates
against the uniform measure.  The trace formula turns the same average
into the dimension of the invariant subspace of order-n tensors; for the
rotation groups that reduces to a 1D integral in the rotation angle, exact
on n + 2 equispaced angles, and binomial sums give the SO(3)/O(3)
dimensions.

The action on order-n tensors is a polynomial of degree n in the entries
of g, so without a density the continuous averages run on the exact rule
of haar.exact_nodes at degree n and are exact up to roundoff.  A density
averages on the grid it was normalized on, which cross-checks user charts.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .charts import builtin_chart
from .groups import FiniteGroup, lookup_group
from .haar import HaarDensity, NumericalError, coset_stacks, haar_nodes, integrate_tensor
from .tensors import MAX_ENTRIES, Tensor, act_batch

RANK_THRESHOLD = 1e-6
INTEGER_SLACK = 1e-3


# ---------------------------------------------------------------------------
# Reynolds projector


def reynolds_continuous(group, t: Tensor, density: HaarDensity | None = None) -> Tensor:
    """Group average of a tensor, exact without a density, else by chart quadrature."""
    out = integrate_tensor(lambda mats: act_batch(mats, t), group, density, degree=t.order)
    return Tensor.from_array(np.asarray(out), dim=t.dim)


def reynolds_matrix(group, n: int, density: HaarDensity | None = None) -> np.ndarray:
    """The averaging operator on order-n tensors as a (D^n, D^n) matrix.

    Column (j1..jn) is the group average of the canonical basis tensor
    e_{j1} x ... x e_{jn}.  A FiniteGroup sums over its elements; for a tag
    without a density the exact rule of degree n makes the operator exact
    up to roundoff; with one it is integrated on the density's grid.  As g^(x)n = g^(x)a (x) g^(x)b, a = ceil(n/2), b = n - a,
    the node sum is one contraction of the two half Kronecker powers (at
    n = 0 both are 1, and it is the weight sum).
    """
    weighted, elements = haar_nodes(group, density, degree=n)
    dim = elements.shape[-1]
    size = dim**n
    if size * size > MAX_ENTRIES:
        raise ValueError(f"order-{n} operator over dimension {dim} exceeds the "
                         f"{MAX_ENTRIES}-entry budget")
    stacks = coset_stacks(group, elements)
    total = np.zeros((size, size))
    for stack in stacks:
        powers = [np.ones((len(stack), 1, 1))]  # g^(x)k at each node, k = 0..a
        for _ in range((n + 1) // 2):
            m = powers[-1].shape[1] * dim
            powers.append(np.einsum("nab,ncd->nacbd", powers[-1], stack).reshape(-1, m, m))
        total += np.einsum("n,nab,ncd->acbd", weighted, powers[-1], powers[n // 2],
                           optimize=True).reshape(size, size)
    return total / len(stacks)


def invariant_rank(group, n: int, density: HaarDensity | None = None) -> int:
    """Numerical rank of the order-n averaging operator (singular values > RANK_THRESHOLD)."""
    op = reynolds_matrix(group, n, density)
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


def dim_invariants_quadrature(group, n: int, density: HaarDensity | None = None) -> float:
    """Dimension of order-n invariant tensors as the average of Tr(g)^n.

    On a FiniteGroup it is the exact finite sum over the elements.  For a
    tag with a density it runs on the grid the density was normalized on.
    Without, it is exact up to roundoff: by Weyl's formula the class
    function Tr(g)^n averages over rotations by a about one axis, weighted
    by 1 - cos a on SO(3); the m = n + 2 angles a = 2 pi j / m, in the
    group's first chart at (a) or (a, 0, 0), integrate that degree-(n + 1)
    trigonometric polynomial exactly.  Starting at the identity, where Tr^n
    peaks, spares its largest terms cancellation in a.  O-groups add the
    improper coset.  With r = 4 m eps sum|w Tr(g)^n| bounding roundoff,
    m = max(n + 2, |G|) on a finite group and n + 2 otherwise, a result that
    is not finite or further than max(INTEGER_SLACK, r) from an integer is a
    NumericalError, as is r >= 1/2 on an exact sum (a finite group or the
    Weyl rule) or, on a density's grid, whose one resolution check is this
    test, r >= INTEGER_SLACK.
    """
    if n < 0:
        raise ValueError("tensor order must be nonnegative")
    m = n + 2  # summed terms, for the roundoff bound
    if isinstance(group, FiniteGroup) or density is not None:
        weights, elements = haar_nodes(group, density)  # a FiniteGroup refuses a density
        if density is None:
            m = max(m, len(weights))
    else:
        row = lookup_group(group)
        chart = builtin_chart(row.charts[0])
        angles = 2.0 * np.pi * np.arange(m) / m
        points = np.zeros((m, chart.d))
        points[:, 0] = np.where(angles > chart.domain[0, 1], angles - 2.0 * np.pi, angles)
        weights = (1.0 - np.cos(points[:, 0])) / m if row.dim == 3 else np.full(m, 1.0 / m)
        elements = chart.evaluate_many(points)
    with np.errstate(over="ignore", invalid="ignore"):  # 3^n overflows past n = 646
        powers = [np.trace(s, axis1=-2, axis2=-1) ** n for s in coset_stacks(group, elements)]
        value = sum(float(np.dot(weights, p)) for p in powers) / len(powers)
        scale = sum(float(np.dot(weights, np.abs(p))) for p in powers) / len(powers)  # w >= 0
    if not np.isfinite(value):
        raise NumericalError(f"Tr^{n} integral is not finite ({value!r})")
    roundoff = 4.0 * m * np.finfo(float).eps * scale
    if roundoff >= (0.5 if density is None else INTEGER_SLACK):
        raise NumericalError(f"Tr^{n} integral {value!r} carries roundoff up to {roundoff:.3g}, "
                             "too much to tell an integer; use the closed form")
    if abs(value - round(value)) > max(INTEGER_SLACK, roundoff):
        raise NumericalError(f"quadrature under-resolved: Tr^{n} integral {value!r} "
                             f"is {abs(value - round(value)):.3g} from an integer")
    return value
