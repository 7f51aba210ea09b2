"""Group averaging of tensors and dimensions of invariant subspaces.

The Reynolds projector sends a tensor to its group average.  Every average
here takes a group tag or a groups.FiniteGroup in the same argument and
runs on the one averaging engine of haar: haar_nodes gives the weights and
element stacks, O(D)'s improper coset included, and each average is its
reduction over the stacks.  A finite group averages exactly over its
elements; a compact group integrates against the uniform measure.  The
trace formula turns the same average into the dimension of the invariant
subspace of order-n tensors, the projector's trace and so its rank; for the
rotation groups that is a class function, exact on the n + 2 angles of
haar.class_nodes, and binomial sums give the SO(3)/O(3) dimensions.

The action on order-n tensors is a polynomial of degree n in the entries
of g, so without a density the continuous averages run on the exact rule
of haar.exact_nodes at degree n and are exact up to roundoff.  A density
averages on the grid it was normalized on, which cross-checks user charts.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .groups import FiniteGroup, lookup_group
from .haar import (HaarDensity, NumericalError, _node_blocks, class_nodes, haar_nodes,
                   integrate_tensor)
from .tensors import Tensor, act_batch, check_budget

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
    up to roundoff; with one it is integrated on the density's grid.  As
    g^(x)n = g^(x)a (x) g^(x)b, a = ceil(n/2), b = n - a, the node sum is a
    contraction of the two half Kronecker powers (at n = 0 both are 1, and
    it is the weight sum), accumulated over node slices of at most
    haar.BLOCK_ENTRIES entries of width D^(2a).  A stack of at most that
    many entries is one slice and keeps the bytes of the unsliced sum;
    above that the operator can change in the last bits.  The contraction
    is a BLAS matrix multiply, so its last bits also follow the BLAS thread
    count.  It stays one: a fixed-order np.einsum("na,nb->ab") took about
    six times as long (80 ms against 13 ms for the bare n = 4 contraction
    on 32^3 nodes, on a 2-vCPU x86 host).
    """
    if n < 0:
        raise ValueError("tensor order must be nonnegative")
    dim = group.dim if isinstance(group, FiniteGroup) else lookup_group(group).dim
    check_budget(dim, 2 * n)  # the operator's D^(2n) entries, before any node is built
    weighted, stacks = haar_nodes(group, density, degree=n)
    size = dim**n
    total = np.zeros((size, size))
    half = (n + 1) // 2
    for stack in stacks:
        for s in _node_blocks(len(stack), dim ** (2 * half)):
            block = stack[s]
            powers = [np.ones((len(block), 1, 1))]  # g^(x)k at each node, k = 0..a
            for _ in range(half):
                m = powers[-1].shape[1] * dim
                powers.append(np.einsum("nab,ncd->nacbd", powers[-1], block).reshape(-1, m, m))
            total += np.einsum("n,nab,ncd->acbd", weighted[s], powers[-1], powers[n // 2],
                               optimize=True).reshape(size, size)
    return total / len(stacks)


def invariant_rank(group, n: int, density: HaarDensity | None = None) -> int:
    """Rank of the order-n averaging operator: the integer of its trace, on the nodes and
    with the refusals of dim_invariants_quadrature (an uneven grid is a NumericalError)."""
    return round(dim_invariants_quadrature(group, n, density))


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
    Without, it runs on haar.class_nodes(group, n), the n + 2 angles of
    Weyl's rule, and is exact up to roundoff.  With r = 4 m eps
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
        weights, stacks = class_nodes(group, n)
    m = n + 2 if density is not None else max(n + 2, len(weights))  # summed terms, for roundoff
    with np.errstate(over="ignore", invalid="ignore"):  # 3^n overflows past n = 646
        powers = [np.trace(s, axis1=-2, axis2=-1) ** n for s in stacks]
        value = sum(float(np.sum(weights * p)) for p in powers) / len(powers)
        scale = sum(float(np.sum(weights * np.abs(p))) for p in powers) / len(powers)  # w >= 0
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
