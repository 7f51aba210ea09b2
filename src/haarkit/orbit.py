"""Moments of group-orbit random variables X: g -> rho(g) v.

Supported representations: the natural action on vectors, the order-n
tensor action, and conjugation g v g^T on symmetric matrices, under a
group tag or a groups.FiniteGroup.  Moments come from quadrature (the
Reynolds average of tensor powers of X, on the exact rule, on the grid a
density was normalized on, or over a finite group's elements) or, for a
tag, from Monte Carlo sampling with entry-wise standard errors.  A Monte
Carlo moment walks the draws once, in the chunks of sampling._chunks: a
SamplerConfig drawn one chunk at a time, a SampleBatch cut at the same
rows.  It acts on each chunk once and walks the points' S^r-entry outer
powers in row blocks of haar.BLOCK_ENTRIES entries (haar._node_blocks),
each formed once in one reused buffer, where its squared deviations from
its own mean replace it.  The blocks' (n, mean, squared deviations) are
merged in order by Chan, Golub & LeVeque's pairwise update (Am. Stat. 37,
1983), so nothing of size N is held.  mc_moments_each takes several
orders from one walk, as ``orbit-moments --mc`` takes its first and
second.

For conjugation orbits of symmetric 3x3 seeds the first two moments have
closed forms in the isotropic tensors; see the *_closed functions.  They
follow from the fourth-order column moments of a uniform rotation:

    E[u_i u_j u_k u_l] = (d_ij d_kl + d_ik d_jl + d_il d_jk) / 15
    E[u_i u_j v_k v_l] = (4 d_ij d_kl - d_ik d_jl - d_il d_jk) / 30

for distinct orthonormal columns u, v (d is the Kronecker delta).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .groups import FiniteGroup, lookup_group
from .haar import HaarDensity, NumericalError, _block_rows, _node_blocks, integrate_tensor
from .sampling import SampleBatch, SamplerConfig, _chunks, sample_chunks
from .tensors import Tensor, act_batch, as_tensor, check_budget, outer_power, outer_power_batch

REPRESENTATIONS = ("sym2", "natural", "tensor")

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OrbitSpec:
    """A group (tag or FiniteGroup), a representation, and the seed the orbit passes through."""

    group: str | FiniteGroup
    representation: str
    seed: Tensor

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}; "
                             f"expected one of {', '.join(REPRESENTATIONS)}")
        object.__setattr__(self, "seed", as_tensor(self.seed))
        if not np.isfinite(self.seed.array).all():
            raise ValueError("the orbit seed's entries must be finite")
        if self.representation == "natural" and self.seed.order != 1:
            raise ValueError("the natural representation acts on vectors (order-1 tensors)")
        if self.representation == "sym2":
            if self.seed.order != 2:
                raise ValueError("conjugation acts on matrices (order-2 tensors)")
            a = self.seed.array
            if not np.abs(a - a.T).max() <= SYMMETRY_TOL:
                raise ValueError("conjugation orbits need a symmetric seed")
        group = self.group if isinstance(self.group, FiniteGroup) else lookup_group(self.group)
        if self.seed.dim != group.dim:
            raise ValueError(f"seed dimension {self.seed.dim} does not match group {self.group}")

    def values(self, mats: np.ndarray) -> np.ndarray:
        """Orbit points rho(g) v for a stack of group elements, (N, ...)."""
        return act_batch(mats, self.seed)


def _power_shape(spec: OrbitSpec, r: int) -> tuple[int, ...]:
    check_budget(spec.seed.dim, spec.seed.order * r)
    return spec.seed.array.shape * r


def moment(spec: OrbitSpec, r: int, density: HaarDensity | None = None, rule=None) -> Tensor:
    """The r-th moment m_r(X), an order r*n tensor, by quadrature.

    X^{(x) r} is a polynomial of degree r * n in the entries of g (n the
    seed order), so without a density the exact rule of that degree gives
    the moment up to roundoff; with one it is integrated on the density's grid.
    ``rule`` may only restate the QuadratureRule the density was normalized on.
    """
    if r < 1:
        raise ValueError("moment order must be positive")
    if rule is not None and (density is None or rule is not density.grid()[0]):
        raise ValueError("moment runs on the grid of normalize(chart, rule); leave rule out")
    shape = _power_shape(spec, r)
    out = integrate_tensor(lambda mats: outer_power_batch(spec.values(mats), r).reshape((-1,) + shape),
                           spec.group, density, degree=r * spec.seed.order)
    return Tensor.from_array(out, dim=spec.seed.dim)


def covariance(spec: OrbitSpec, density: HaarDensity | None = None, rule=None) -> Tensor:
    """Cov(X) = m2 - m1 (x) m1, the standard (positive-semidefinite) convention."""
    m1 = moment(spec, 1, density, rule)
    m2 = moment(spec, 2, density, rule)
    return m2 - outer_power(m1, 2)


def mc_moments(spec: OrbitSpec, r: int,
               config: SamplerConfig | SampleBatch) -> tuple[Tensor, Tensor]:
    """Monte Carlo m_r(X) with entry-wise standard errors of the mean.

    ``config`` is a SamplerConfig to draw from or a SampleBatch already drawn,
    which gives the same bytes as its own config.  Either must draw the
    spec's group and hold a draw; a FiniteGroup has no sampler, and moment()
    gives its moments exactly.  Each chunk of BLOCK_ENTRIES // D^2 draws is
    cut into row blocks of BLOCK_ENTRIES // S^r outer powers.  Within one
    block, the results are numpy's ``mean`` and ``std(ddof=1) / sqrt(n)``,
    bit for bit; the blocks' means and summed squared deviations M2 are
    merged in order by Chan, Golub & LeVeque's update, and the standard
    error is sqrt(M2 / (n - 1)) / sqrt(n).  So the bytes depend on neither
    the CPU count nor the kind of ``config``.  A mean or standard error
    that overflows is a NumericalError.
    """
    return mc_moments_each(spec, (r,), config)[0]


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, not warned of
def mc_moments_each(spec: OrbitSpec, orders: tuple[int, ...],
                    config: SamplerConfig | SampleBatch) -> list[tuple[Tensor, Tensor]]:
    """mc_moments(spec, r, config) for each r of ``orders``, in that order, from one draw:
    each draw's orbit point is computed once, and every order reads the same points."""
    if any(r < 1 for r in orders):
        raise ValueError("moment order must be positive")
    if isinstance(spec.group, FiniteGroup):
        raise ValueError("a finite group has no sampler; moment(spec, r) averages over "
                         "its elements exactly")
    if isinstance(config, SampleBatch) and not len(config):
        raise ValueError("the SampleBatch is empty: a Monte Carlo moment needs at least one draw")
    drawn = (config.config if isinstance(config, SampleBatch) else config).group
    if lookup_group(drawn) is not lookup_group(spec.group):
        raise ValueError(f"draws of group {drawn!r} cannot average an orbit of {spec.group!r}")
    shapes = [_power_shape(spec, r) for r in orders]
    if isinstance(config, SampleBatch):  # cut where sample_chunks cuts its draws
        stacks = (config.matrices[c.start:c.stop] for c in _chunks(len(config), spec.seed.dim))
    else:
        stacks = map(attrgetter("matrices"), sample_chunks(config))  # keeps no chunk it passed on
    totals = [None] * len(orders)
    for mats in stacks:
        points = spec.values(mats).reshape(len(mats), -1)
        del mats  # before the points' outer powers are formed
        totals = [_chunk_moments(total, points, r) for total, r in zip(totals, orders)]
        del points  # before the next chunk is drawn
    out = []
    for (n, mean, squares), r, shape in zip(totals, orders, shapes):
        pair = mean, (np.sqrt(squares / (n - 1)) / np.sqrt(n) if n > 1 else np.zeros_like(mean))
        if not np.isfinite(pair).all():
            raise NumericalError(f"Monte Carlo moment of order {r} or its standard error is not "
                                 "finite: the orbit's values overflow")
        out.append(tuple(Tensor.from_array(a.reshape(shape), dim=spec.seed.dim) for a in pair))
    return out


def _chunk_moments(total, points: np.ndarray, r: int) -> tuple[int, np.ndarray, np.ndarray]:
    """total merged, in order, with the n, mean (numpy's sum(axis=0) / n) and summed squared
    deviations of each row block of the r-th outer powers of one chunk's (n, S) orbit points."""
    width = points.shape[1] ** r
    buffer = np.empty((min(len(points), _block_rows(width)), width))
    for s in _node_blocks(len(points), width):
        part = buffer[:len(points[s])]
        powers = outer_power_batch(points[s], r, out=part)  # at r = 1 a view of the points
        mean = powers.sum(axis=0) / len(part)
        np.square(np.subtract(powers, mean, out=part), out=part)  # into part, never the points
        total = _merge(total, (len(part), mean, part.sum(axis=0)))
    return total


def _merge(a, b):
    """(n, mean, squares) of two sets of rows from each one's, in order: the pairwise update of
    Chan, Golub & LeVeque (Am. Stat. 37, 1983).  None stands for no rows."""
    if a is None:
        return b
    (na, ma, sa), (nb, mb, sb) = a, b
    n, delta = na + nb, mb - ma
    return n, ma + delta * (nb / n), sa + sb + delta**2 * (na * nb / n)


# ---------------------------------------------------------------------------
# Isotropic order-4 tensors and the conjugation-orbit closed forms (D = 3)


def diagonal_delta(dim: int = 3) -> Tensor:
    """The order-4 tensor with 1 where i = j = k = l (not rotation-invariant)."""
    arr = np.zeros((dim,) * 4)
    for i in range(dim):
        arr[i, i, i, i] = 1.0
    return Tensor.from_array(arr, dim=dim)


def identity_pair(dim: int = 3) -> Tensor:
    """delta_ij delta_kl."""
    return isotropic_basis(dim)[0]


def isotropic_basis(dim: int = 3) -> list[Tensor]:
    """The three products of Kronecker deltas spanning invariant order-4 tensors."""
    eye = np.eye(dim)
    return [
        Tensor.from_array(np.einsum("ij,kl->ijkl", eye, eye), dim=dim),
        Tensor.from_array(np.einsum("ik,jl->ijkl", eye, eye), dim=dim),
        Tensor.from_array(np.einsum("il,jk->ijkl", eye, eye), dim=dim),
    ]


def decompose(t: Tensor, basis: list[Tensor]) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of t in a tensor basis and the residual."""
    a = np.stack([b.array.ravel() for b in basis], axis=1)
    coeffs, *_ = np.linalg.lstsq(a, t.array.ravel(), rcond=None)
    residual = float(np.abs(t.array.ravel() - a @ coeffs).max())
    return coeffs, residual


def _invariants(v) -> tuple[float, float]:
    a = as_tensor(v).array
    return float(np.trace(a)), float(np.trace(a @ a))


def sym2_mean_closed(v) -> Tensor:
    """E[g v g^T] = (Tr v / 3) I for uniform g in SO(3) or O(3)."""
    t1, _ = _invariants(v)
    return Tensor.from_array(t1 / 3.0 * np.eye(3))


def sym2_second_moment_closed(v) -> Tensor:
    """E[(g v g^T) (x) (g v g^T)] in the isotropic basis."""
    t1, t2 = _invariants(v)
    j_pair, j_ik, j_il = isotropic_basis(3)
    c_pair = (2.0 * t1**2 - t2) / 15.0
    c_cross = (3.0 * t2 - t1**2) / 30.0
    return c_pair * j_pair + c_cross * (j_ik + j_il)


def sym2_covariance_closed(v) -> Tensor:
    """Cov of a conjugation orbit: a multiple of the symmetric traceless projector.

    Cov = ((3 Tr(v^2) - (Tr v)^2) / 15) * (Sym - (1/3) delta_ij delta_kl),
    with Sym_ijkl = (delta_ik delta_jl + delta_il delta_jk) / 2.  Zero
    exactly when v is a multiple of the identity.
    """
    t1, t2 = _invariants(v)
    j_pair, j_ik, j_il = isotropic_basis(3)
    sym = 0.5 * (j_ik + j_il)
    return ((3.0 * t2 - t1**2) / 15.0) * (sym + (-1.0 / 3.0) * j_pair)
