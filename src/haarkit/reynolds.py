"""Group averaging of tensors and dimensions of invariant subspaces.

The Reynolds projector sends a tensor to its group average.  Every average
here takes a group tag or a groups.FiniteGroup in the same argument and
runs on the one averaging engine of haar: haar_nodes gives the weights and
element stacks, O(D)'s improper coset included, and each average hands its
sum over one node slice to haar.node_mean, which walks the stacks.  A
finite group averages exactly over its elements; a compact group
integrates against the uniform measure.  The trace formula turns the same
average into the dimension of the invariant subspace of order-n tensors,
the projector's trace and so its rank; for the rotation groups that is a
class function, exact on the n + 2 angles of haar.class_nodes, and
the Riordan recurrence gives the SO(3)/O(3) dimensions in exact integers.

The action on order-n tensors is a polynomial of degree n in the entries
of g, so without a density the continuous averages run on the exact rule
of haar.exact_nodes at degree n and are exact up to roundoff.  A density
averages on the grid it was normalized on, which cross-checks user charts.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import FiniteGroup, lookup_group
from .haar import (HaarDensity, NumericalError, _node_blocks, class_nodes, haar_nodes, integrate_tensor,
                   node_mean)
from .tensors import Tensor, act_batch, check_budget, outer_power_batch

INTEGER_SLACK = 1e-3
MAX_CLOSED_ORDER = 50_000  # the Riordan recurrence's time is quadratic in n: about 1 s at 50 000


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
    up to roundoff; with one it is integrated on the density's grid.  As
    g^(x)n = g^(x)a (x) g^(x)b, a = ceil(n/2), b = n - a, the node sum is a
    contraction of the outer powers of the flattened elements, of widths
    D^(2a) and D^(2b) (at n = 0 both are 1, and it is the weight sum), over
    haar.node_mean's slices; at even n, a = b and one power serves as both.
    Its axes (i1 j1 .. in jn) are put in rows (i1..in) and columns (j1..jn)
    once, after the sum.  The contraction is a BLAS matrix multiply, so its
    last bits also follow the BLAS thread count.  It stays one: a
    fixed-order np.einsum("na,nb->ab") on the weighted power took about
    five times as long (114 ms against 20 ms for the bare n = 4 contraction
    on 32^3 nodes, 1 BLAS thread, on a 2-vCPU x86 host).
    """
    if n < 0:
        raise ValueError("tensor order must be nonnegative")
    dim = group.dim if isinstance(group, FiniteGroup) else lookup_group(group).dim
    check_budget(dim, 2 * n)  # the operator's D^(2n) entries, before any node is built
    weighted, stacks = haar_nodes(group, density, degree=n)
    half = (n + 1) // 2
    width = dim ** (2 * half)
    power = np.empty((_node_blocks(len(stacks[0]), width)[0].stop, width))  # faulted in once a call

    def term(w, mats):  # g^(x)a and g^(x)b of a node slice, one array at even n
        high = outer_power_batch(mats, half, out=power)
        low = outer_power_batch(mats, n // 2) if n % 2 else high
        return np.einsum("n,na,nb->ab", w, high, low, optimize=True)

    total = node_mean(weighted, stacks, width, term)
    axes = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return total.reshape((dim,) * 2 * n).transpose(axes).reshape(dim**n, dim**n)


def moment_gap(density: HaarDensity) -> float:
    """Largest entry gap between the density grid's moments E[g] and E[g (x) g]
    and the exact rule's, on the group its chart parametrises.  Any
    invariance test of an integrand of degree <= 2 in g, such as Tr(h g) or
    Tr(g h)^2, is a linear functional of these two moments, so a grid that
    covers the group unevenly shows here."""
    tag = density.chart.parametrises.tag
    return max(float(np.abs(reynolds_matrix(tag, n, density) - reynolds_matrix(tag, n)).max())
               for n in (1, 2))


def invariant_rank(group, n: int, density: HaarDensity | None = None) -> int:
    """Rank of the order-n averaging operator: the integer of its trace, on the nodes and
    with the refusals of dim_invariants_quadrature (an uneven grid is a NumericalError)."""
    return round(dim_invariants_quadrature(group, n, density))


# ---------------------------------------------------------------------------
# Invariant dimensions


def dim_invariants_closed(group_tag: str, n: int) -> int:
    """Exact dimension of order-n invariant tensors over SO(3) or O(3).

    Over SO(3) it is the Riordan number R_n (OEIS A005043), the integer
    average of Tr(g)^n, from the recurrence R_0 = 1, R_1 = 0,
    R_m = (m - 1)(2 R_{m-1} + 3 R_{m-2}) / (m + 1), whose divisions are exact.
    Over O(3), -I sends Tr(g)^n to (-1)^n Tr(g)^n: odd orders have none and
    even ones R_n.  An order past MAX_CLOSED_ORDER is a ValueError, on both
    groups: the recurrence's big-integer steps make its time quadratic in n.
    """
    group = lookup_group(group_tag)
    if group.dim != 3:
        raise ValueError(f"closed-form dimensions cover so3 and o3, not {group_tag!r}")
    if n < 0:
        raise ValueError("tensor order must be nonnegative")
    if n > MAX_CLOSED_ORDER:
        raise ValueError(f"order {n} exceeds the closed form's limit of MAX_CLOSED_ORDER = "
                         f"{MAX_CLOSED_ORDER}")
    if not group.proper and n % 2 == 1:
        return 0
    before, count = 0, 1  # R_{m-2} and R_{m-1}, from m = 1 on (R_{-1} is multiplied by 0)
    for m in range(1, n + 1):
        before, count = count, (m - 1) * (2 * count + 3 * before) // (m + 1)
    return count


def dim_invariants_quadrature(group, n: int, density: HaarDensity | None = None) -> float:
    """Dimension of order-n invariant tensors as the average of Tr(g)^n.

    On a FiniteGroup it is the exact finite sum over the elements.  For a
    tag with a density it runs on the grid the density was normalized on.
    Without, it runs on haar.class_nodes(group, n), the n + 2 angles of
    Weyl's rule, and is exact up to roundoff; as the identity is one of
    them, an order with D^n past float64's range is refused before any node
    is built.  With r = 4 m eps
    sum|w Tr(g)^n| bounding roundoff, m = max(n + 2, |G|) on a finite group
    and n + 2 otherwise, a result that is not finite or further than
    max(INTEGER_SLACK, r) from an integer is a NumericalError, as is r >= 1/2
    on an exact sum (a finite group or the Weyl rule) or, on a density's
    grid, whose one resolution check is this test, r >= INTEGER_SLACK.
    The weighted sums run in np.sum's fixed order, not a BLAS dot, so the
    value does not depend on the BLAS thread count.
    """
    if n < 0:
        raise ValueError("tensor order must be nonnegative")
    if isinstance(group, FiniteGroup) or density is not None:
        weights, stacks = haar_nodes(group, density)  # a FiniteGroup refuses a density
    else:
        dim = lookup_group(group).dim
        if n >= 1024 / math.log2(dim):  # D^n at the identity node is past float64's range
            raise NumericalError(f"Tr^{n} integral is not finite: its identity term {dim}^n overflows")
        weights, stacks = class_nodes(group, n)
    m = n + 2 if density is not None else max(n + 2, len(weights))  # summed terms, for roundoff

    def sums(w, mats):  # the weighted Tr(g)^n and |Tr(g)^n| sums of a slice, w >= 0
        p = np.trace(mats, axis1=-2, axis2=-1) ** n
        return np.array([np.sum(w * p), np.sum(w * np.abs(p))])

    with np.errstate(over="ignore", invalid="ignore"):  # 3^n overflows past n = 646
        value, scale = node_mean(weights, stacks, 1, sums).tolist()
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
