"""Tensor-product Gauss-Legendre quadrature on box domains.

Integrands here are smooth trigonometric polynomials, for which
Gauss-Legendre converges spectrally; 32 nodes per axis resolves every
built-in density to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_NODES = 32
# Nodes per axis.  leggauss(n) solves an n x n companion eigenproblem: 8 MiB and
# about 0.1 s at 1024, growing as n^2 in memory and n^3 in time (2^18 would ask
# for 512 GiB).  Built-in densities resolve to roundoff at 32.
MAX_NODES_PER_AXIS = 1024


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def axis_rule(n: int, lower: float, upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [lower, upper]."""
    if n < 1:
        raise ValueError("quadrature needs at least one node per axis")
    if n > MAX_NODES_PER_AXIS:
        raise ValueError(f"{n} quadrature nodes per axis exceed the limit of {MAX_NODES_PER_AXIS}")
    x, w = _leggauss(n)
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
        if isinstance(nodes_per_axis, (int, np.integer)):
            counts = (int(nodes_per_axis),) * d
        else:
            counts = tuple(int(n) for n in nodes_per_axis)
            if len(counts) != d:
                raise ValueError(f"domain has {d} axes but got {len(counts)} node counts")
        axes = [axis_rule(n, lo, hi) for n, (lo, hi) in zip(counts, dom)]
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
