"""Tensor-product Gauss-Legendre quadrature on box domains.

Integrands here are smooth trigonometric polynomials, for which
Gauss-Legendre converges spectrally; 32 nodes per axis resolves every
built-in density to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_NODES = 32
# Nodes per axis.  leggauss(n) solves an n x n companion eigenproblem: 8 MiB and
# about 0.1 s at 1024, growing as n^2 in memory and n^3 in time (2^18 would ask
# for 512 GiB).  Built-in densities resolve to roundoff at 32.
MAX_NODES_PER_AXIS = 1024
# Nodes of a whole grid, the product of the per-axis counts.  normalize keeps a
# grid's points, its two weight vectors and its (N, D, D) elements, 14 doubles a
# node on SO(3): 1.9 GB at 2^24 nodes (256^3), beside 0.4 GB of meshgrid while
# the rule is built.  600^3 nodes, each axis within the cap above, would ask for
# 24 GB, which the OOM killer, not a refusal, would end.
MAX_GRID_NODES = 2**24


def axis_rule(n: int, lower: float, upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [lower, upper]."""
    if n < 1:
        raise ValueError("quadrature needs at least one node per axis")
    if n > MAX_NODES_PER_AXIS:
        raise ValueError(f"{n} quadrature nodes per axis exceed the limit of {MAX_NODES_PER_AXIS}")
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (upper - lower)
    return lower + half * (x + 1.0), half * w


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A per-axis node count list bound to a box domain.

    ``domain`` is the read-only (d, 2) box, ``points`` the flattened tensor
    grid (N, d) and ``weights`` the matching product weights (N,); N is the
    product of the axis counts.
    """

    domain: np.ndarray
    nodes_per_axis: tuple[int, ...]
    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def for_domain(cls, domain, nodes_per_axis: int | tuple[int, ...] = DEFAULT_NODES) -> "QuadratureRule":
        dom = np.array(domain, dtype=float)
        d = dom.shape[0]
        counts = (nodes_per_axis,) * d if np.ndim(nodes_per_axis) == 0 else tuple(nodes_per_axis)
        for n in counts:  # not 8.9, "8" or True
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError(f"quadrature node counts must be integers, got {n!r}")
        if len(counts) != d:
            raise ValueError(f"domain has {d} axes but got {len(counts)} node counts")
        counts = tuple(map(int, counts))
        axes = [axis_rule(n, lo, hi) for n, (lo, hi) in zip(counts, dom)]
        if (total := math.prod(counts)) > MAX_GRID_NODES:
            raise ValueError(f"a grid of {' x '.join(map(str, counts))} = {total} quadrature nodes "
                             f"exceeds the limit of {MAX_GRID_NODES}")
        grids = np.meshgrid(*[x for x, _ in axes], indexing="ij")
        points = np.stack([g.ravel() for g in grids], axis=-1)
        weights = axes[0][1]
        for _, w in axes[1:]:
            weights = np.multiply.outer(weights, w)
        weights = np.asarray(weights).ravel()
        for array in (dom, points, weights):
            array.setflags(write=False)
        return cls(domain=dom, nodes_per_axis=counts, points=points, weights=weights)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def integrate(self, values) -> float | np.ndarray:
        """Weighted sum of per-node values; values may have trailing axes.

        numpy's own reduction over the node axis adds in a fixed order; a BLAS
        dot product would change its last bits with the BLAS thread count.
        """
        vals = np.asarray(values, dtype=float)
        if vals.shape[0] != self.size:
            raise ValueError(f"expected {self.size} node values, got {vals.shape[0]}")
        return np.sum(self.weights.reshape((-1,) + (1,) * (vals.ndim - 1)) * vals, axis=0)
