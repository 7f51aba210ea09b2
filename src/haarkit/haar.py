"""Haar densities in arbitrary charts and normalized integration.

The unnormalized density at u is |det M(u)| with

    M(u)_ij = <p(u)^-1 dp/du_j, xi_i>,

the bracket being the half-trace Frobenius product and (xi_i) the basis
groups.so_algebra_basis(D); another orthonormal basis would only scale
|det M| by a constant, which normalization cancels.  Each xi_i is -1 at
one entry (a, b), +1 at (b, a) and 0 elsewhere, so with tau = p^-1 dp/du_j

    M_ij = (tau[b, a] - tau[a, b]) / 2,

and only those two entries of tau are formed.  The partials dp/du_j are
exact, from the chart's compiled derivative plan, read as its contiguous
entry rows (one (N,) row per partial of an entry; see
Chart.jacobian_many).  Every square chart with a density is orthogonal
(Chart.parametrises), so p^-1 is the transpose and tau[x, y] =
sum_k p[k, x] dp[k, y]/du_j, summed over k in order and read from p's
strided columns (a contiguous copy of p would raise peak memory).  A 4 x 1
chart is a unit-quaternion parametrisation and M_ij is the i-th imaginary
part of conj(q) dq/du_j, with the pure imaginaries (i, j, k) as basis.

The sign of det M is an orientation artifact of basis and parameter
order, so the absolute value is taken before normalizing, on the grid that
averages reuse.  Group averages read groups.GROUPS: dimension, properness
(an O-group adds the improper coset) and first chart (the exact rule).  A
groups.FiniteGroup in place of a tag averages over its elements at weight
1/|G| each.  haar_nodes, exact_nodes and class_nodes are the one place either
is turned into weights and element stacks, O(D)'s improper coset included,
and haar_nodes the one check that a density's chart parametrises the
averaged group (Chart.parametrises).  Every pass over the grid runs in node
blocks (_node_blocks) of at most BLOCK_ENTRIES float64 entries.  The density
kernel fills |det M| and the elements block by block, so normalize holds one
block of jacobian rows and chart temporaries beside the grid; every group
average sums its node blocks through node_mean, so it holds 2 MiB of
integrand, not N times its width, and adds each block's sum into one
running total in place.  The kernel's bytes do not depend on the block
size; a sum over more than one slice is added up in another order and can
change in the last bits, and one within the budget keeps the bytes of the
unsliced sum.  The same budget sizes the samplers' chunks and blocks
(sampling), whose bytes do not depend on it either.

A density also inverts its chart: ``coordinates(g)`` runs batch
Gauss-Newton (Nocedal & Wright, *Numerical Optimization*, 2006, ch. 10) on
the exact derivative plan from the grid nodes nearest g.  Changes of chart
differentiate through the two jacobians, so no step size appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import Chart, builtin_chart
from .groups import (FiniteGroup, Group, improper_coset, lookup_group, quat_rotation_matrices,
                     so_algebra_basis)
from .quadrature import DEFAULT_NODES, MAX_GRID_NODES, QuadratureRule, axis_rule

DEGENERATE_C = 1e-12
_SEEDS = 64  # grid nodes nearest g that coordinates() starts from
_ROUNDS = 12  # Gauss-Newton rounds per seed
_HALVINGS = 8  # halvings of a Gauss-Newton step that would leave the box
_GAP = 1e-13  # largest entry gap |p(u) - g| of an accepted root
BLOCK_ENTRIES = 2**18  # float64 entries per node block of a grid pass or sampler (2 MiB)


class NumericalError(RuntimeError):
    """A computation failed numerically (degenerate chart, NaN, no convergence)."""


# ---------------------------------------------------------------------------
# Unnormalized density


@np.errstate(invalid="ignore", over="ignore")  # an infinite or huge partial gives inf or NaN
def _density_and_elements(chart: Chart, pts: np.ndarray):
    """|det M| at an (N, d) batch and the group elements there (no domain checks).

    Quaternion charts push their quaternions to rotation matrices.  Sums run
    in np.einsum's order (k = 0, 1, ... for p^T dp) and in the Hamilton
    product's term order (for conj(q) dq), so |det M| has the bits of the
    einsum and Hamilton-product forms.
    M is built transposed, mt[j, i] = M_ij at every point, so each entry is
    one contiguous row.
    The (N,) values and (N, D, D) elements are allocated once and filled
    over node blocks of at most BLOCK_ENTRIES // (d D^2) nodes
    (_node_blocks), so the jacobian rows, the plan's live step arrays, M
    and det's copy exist for one block at a time.  That is the jacobian's
    width for a D x D chart; a quaternion chart's 4d rows take its
    elements' wider d D^2, which lowers its peak.  Every step works node by
    node and np.linalg.det factors each matrix on its own, so the bytes do
    not depend on the block size.
    """
    group = chart.parametrises
    if group is None:
        raise ValueError(f"chart {chart.name!r} has {chart.shape} matrices: no group, no Haar density")
    n, d, dim = len(pts), chart.d, group.dim
    raw = np.empty(n)
    elements = np.empty((n, dim, dim))
    pairs = [tuple(np.argwhere(xi == -1.0)[0]) for xi in so_algebra_basis(dim)]
    for s in _node_blocks(n, d * dim * dim):
        mats = elements[s]
        # row (j * rows + k) * cols + l of the jacobian block: dp_kl/du_j
        rows = chart.jacobian_many(pts[s]).reshape(len(mats), -1).T
        mt = np.empty((d, len(pairs), len(mats)))
        if chart.is_quaternion:
            q = chart.quaternions_at(pts[s])
            w, x, y, z = q.T
            for j in range(d):
                bw, bx, by, bz = rows[4 * j:4 * j + 4]
                mt[j, 0] = w * bx - x * bw - y * bz + z * by
                mt[j, 1] = w * by + x * bz - y * bw - z * bx
                mt[j, 2] = w * bz - x * by + y * bx - z * bw
            mats[...] = quat_rotation_matrices(q)
        else:
            mats[...] = chart.evaluate_many(pts[s])

            def tau(j, x, y):  # (p^T dp/du_j)[x, y]
                total = mats[:, 0, x] * rows[j * dim * dim + y]
                for k in range(1, dim):
                    total += mats[:, k, x] * rows[(j * dim + k) * dim + y]
                return total

            for j in range(d):
                for i, (a, b) in enumerate(pairs):
                    mt[j, i] = 0.5 * (tau(j, b, a) - tau(j, a, b))
        raw[s] = np.abs(np.linalg.det(mt.T))
    return raw, elements


def density_numeric_many(chart: Chart, points) -> np.ndarray:
    """|det M| at an (N, d) batch of points (no domain checks)."""
    return _density_and_elements(chart, np.asarray(points, dtype=float))[0]


def density_numeric(chart: Chart, u) -> float:
    """Unnormalized |det M(u)| at a single point of the closed domain, or
    NumericalError where it is not finite (sqrt's infinite slope at 0, say).
    """
    return HaarDensity(chart, 1.0, lambda pts: density_numeric_many(chart, pts)).density(u)


# ---------------------------------------------------------------------------
# Normalized densities


def _single_cover(chart: Chart) -> Chart:
    if chart.is_quaternion:
        raise ValueError(f"chart {chart.name!r} covers the rotations twice (double-cover "
                         "quaternions), so a rotation has no unique coordinates in it")
    return chart


def _check_shape(chart: Chart, shape: tuple) -> None:
    if shape != chart.shape:
        raise ValueError(f"chart {chart.name!r} has {chart.shape} matrices, got {shape}")


@dataclass(frozen=True, eq=False)
class HaarDensity:
    """A chart with its normalized Haar density k(u) = unnormalized(u) / C.

    ``unnormalized`` maps an (N, d) batch to (N,) values and C is its
    integral over the domain: |det M| for normalize, the product of the
    coordinate laws for sampling.closed_form.
    """

    chart: Chart
    C: float
    unnormalized: object
    _grid: tuple | None = field(default=None, repr=False)  # (rule, weighted, elements)

    def density_many(self, points) -> np.ndarray:
        return self.unnormalized(self.chart.check_batch(points)) / self.C

    def density(self, u) -> float:
        """k(u) at a point of the closed domain, or NumericalError where it is not finite."""
        u = self.chart.check_point(u)
        value = float(self.density_many(u[None, :])[0])
        if not np.isfinite(value):
            raise NumericalError(
                f"density of chart {self.chart.name!r} is not finite at {u.tolist()}")
        return value

    __call__ = density

    def grid(self):
        """The quadrature grid this density was normalized on.

        Returns (rule, weighted, elements): ``weighted`` are quadrature
        weights times normalized density, and ``elements`` the rotation
        matrices at the nodes (quaternion charts are pushed to matrices).
        """
        if self._grid is None:
            raise ValueError(f"density of chart {self.chart.name!r} has no quadrature grid; "
                             "build one with normalize(chart, rule)")
        return self._grid

    def coordinates(self, g) -> np.ndarray:
        """The point u of the chart's box with p(u) = g.

        Starts from the _SEEDS grid nodes with the largest tr(p^T g), runs
        _ROUNDS batch Gauss-Newton steps on the exact jacobians, and returns
        the root of the nearest seed that lies in the box within entry gap
        _GAP.  A step that would leave the box is halved, up to _HALVINGS
        times (a chart like sqrt(t) overshoots below 0 from its first grid
        node); a seed whose value or jacobian turns non-finite is dropped.
        NumericalError when no seed gets there, ValueError for quaternions.
        """
        chart = _single_cover(self.chart)
        g = np.asarray(g, dtype=float)
        _check_shape(chart, g.shape)
        rule, _, elements = self.grid()
        score = elements.reshape(len(elements), -1) @ g.ravel()
        u = rule.points[np.argsort(-score, kind="stable")[:_SEEDS]]
        live = np.ones(len(u), dtype=bool)
        with np.errstate(all="ignore"):  # a seed leaving sqrt's or arccos's domain turns NaN
            for _ in range(_ROUNDS):
                gap = (chart.evaluate_many(u) - g).reshape(len(u), -1)
                jac = chart.jacobian_many(u).reshape(len(u), chart.d, -1)
                live &= np.isfinite(gap).all(axis=1) & np.isfinite(jac).all(axis=(1, 2))
                step = (np.linalg.pinv(np.swapaxes(jac[live], 1, 2)) @ gap[live, :, None])[:, :, 0]
                for _ in range(_HALVINGS):
                    out = ~chart.contains(u[live] - step)
                    if not out.any():
                        break
                    step[out] *= 0.5
                u[live] -= step
            gap = np.abs(chart.evaluate_many(u) - g).reshape(len(u), -1).max(axis=1)
        inside = live & chart.contains(u)
        hits = np.flatnonzero(inside & (gap <= _GAP))
        if len(hits) == 0:
            best = f"best entry gap {gap[inside].min():.3g}" if inside.any() else "no root"
            raise NumericalError(f"no coordinates of chart {chart.name!r} reach the element: "
                                 f"{best} in the box, above {_GAP:g}")
        return u[hits[0]]


def normalize(chart: Chart, rule=None) -> HaarDensity:
    """Normalize the numeric density of a chart by tensor-product quadrature.

    ``rule`` is a QuadratureRule on the chart's box (ValueError for another
    box) or node counts per axis (None: DEFAULT_NODES).  The density and
    elements computed on its nodes are kept as the density's grid(), so
    every average against it does no chart work.
    """
    if not isinstance(rule, QuadratureRule):
        rule = QuadratureRule.for_domain(chart.domain, DEFAULT_NODES if rule is None else rule)
    elif not np.array_equal(rule.domain, chart.domain):
        raise ValueError(f"quadrature rule on box {rule.domain.tolist()} does not fit "
                         f"chart {chart.name!r} on box {chart.domain.tolist()}")
    raw, elements = _density_and_elements(chart, rule.points)
    if not np.all(np.isfinite(raw)):
        raise NumericalError(f"density of chart {chart.name!r} is not finite on the grid")
    c = float(rule.integrate(raw))
    if c < DEGENERATE_C:
        raise NumericalError(f"chart {chart.name!r} is degenerate: C = {c:.3g} below {DEGENERATE_C:g}")
    return HaarDensity(chart=chart, C=c, unnormalized=lambda pts: density_numeric_many(chart, pts),
                       _grid=(rule, rule.weights * (raw / c), elements))


# ---------------------------------------------------------------------------
# Chart cross-validation


def chart_change_check(chart1: Chart, chart2: Chart, u, shift=None, rule=None) -> float:
    """Residual |k1(u) - |det Dphi(u)| * k2(phi(u))| of a change of chart.

    Without ``shift``, phi goes through the group element: w = phi(u) is
    chart2's coordinates of p1(u), and Dphi solves J2(w) Dphi = J1(u) from
    the charts' exact jacobians, which needs J2(w) of full column rank.
    With ``shift``, phi(u) = u + shift and Dphi = I.  Both charts are
    normalized on ``rule``, as normalize takes it, but only after the
    refusals that read the charts alone: u outside chart1 (DomainError);
    without ``shift`` a double-cover (quaternion) chart on either side or
    matrices of different shapes, with it a shift of another length than u
    or a u + shift outside chart2 or of another length than its points.
    """
    u = chart1.check_point(u)
    if shift is None:
        _single_cover(chart1)
        _check_shape(_single_cover(chart2), chart1.shape)
    elif np.shape(shift) != u.shape:
        raise ValueError(f"shift has length {np.size(shift)}, but chart {chart1.name!r} "
                         f"has {chart1.d} coordinates")
    elif not chart2.contains(w := u + np.asarray(shift, dtype=float)):
        raise ValueError(f"phi({u.tolist()}) = {w.tolist()} lands outside chart {chart2.name!r}")
    d1, d2 = normalize(chart1, rule), normalize(chart2, rule)
    if shift is not None:
        return float(abs(d1.density(u) - d2.density(w)))
    k1 = d1.density(u)  # NumericalError where a slope is infinite, before any solve
    w = d2.coordinates(chart1.evaluate(u))
    k2 = d2.density(w)
    j1 = np.reshape(chart1.jacobian(u), (len(u), -1)).T  # column k: dp/du_k, flattened
    j2 = np.reshape(chart2.jacobian(w), (len(w), -1)).T
    if np.linalg.matrix_rank(j2) < len(w):
        raise ValueError(f"chart {chart2.name!r} is singular at {w.tolist()}: "
                         "its jacobian lacks full column rank")
    return float(abs(k1 - abs(np.linalg.det(np.linalg.lstsq(j2, j1, rcond=None)[0])) * k2))


# ---------------------------------------------------------------------------
# Normalized integration over SO / O groups and finite groups


def _block_rows(width: int) -> int:
    """Nodes per block of _node_blocks at width entries per node (at least one)."""
    return max(1, BLOCK_ENTRIES // max(1, width))


def _node_blocks(count: int, width: int) -> list[slice]:
    """Slices of range(count), each of _block_rows(width) nodes (the last may have fewer)."""
    step = _block_rows(width)
    return [slice(start, start + step) for start in range(0, count, step)]


def _with_cosets(row: Group, weights: np.ndarray,
                 elements: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(weights, stacks): SO(D) averages f over the proper elements; O(D)
    integrates (1/2)[f(g) + f(sigma g)], so its stacks add the improper coset."""
    return weights, [elements] if row.proper else [elements, improper_coset(elements)]


def _first_chart(group_tag: str, degree: int) -> tuple[Group, Chart]:
    """The row of a group tag and its first chart, where the exact rules of a degree lie."""
    if degree < 0:
        raise ValueError("polynomial degree must be nonnegative")
    row = lookup_group(group_tag)
    return row, builtin_chart(row.charts[0])


def exact_nodes(group_tag: str, degree: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """(weights, stacks) of a Haar rule exact up to polynomial degree n.

    Averages of polynomials of degree <= n = ``degree`` in the entries of g
    are exact up to roundoff.  SO(2) uses n + 1 equispaced angles.  SO(3)
    uses the z-x-z Euler product grid: n + 1 equispaced alpha and gamma,
    and beta = arccos x_k at the floor(n/2) + 1 Gauss-Legendre nodes x_k of
    [-1, 1], weighted w_k / (2 (n + 1)^2).  The alpha and gamma rules are
    exact for trigonometric polynomials of degree <= n; terms odd in
    sin(beta) cancel, because Rz(pi) Rx(beta) Rz(-pi) = Rx(-beta) and the
    exact alpha and gamma averages are invariant under a shift by pi; what
    remains is a polynomial of degree <= n in cos(beta), which Gauss-Legendre
    integrates exactly (Graf & Potts, Numer. Funct. Anal. Optim. 2009).
    The nodes lie in the group's first chart, so2-angle or so3-euler; O(D)
    adds their improper coset as a second stack, as class_nodes does.  More
    than MAX_GRID_NODES nodes, from degree 322 on SO(3), is a ValueError.
    """
    row, chart = _first_chart(group_tag, degree)
    m = degree + 1
    if (total := m if chart.d == 1 else m * m * (degree // 2 + 1)) > MAX_GRID_NODES:
        raise ValueError(f"the exact rule of degree {degree} on {group_tag} has {total} nodes, "
                         f"which exceeds the limit of {MAX_GRID_NODES}")
    turns = chart.domain[0, 0] + 2.0 * np.pi * np.arange(m) / m
    if chart.d == 1:
        return _with_cosets(row, np.full(m, 1.0 / m), chart.evaluate_many(turns[:, None]))
    x, w = axis_rule(degree // 2 + 1, -1.0, 1.0)
    alpha, beta, gamma = np.meshgrid(turns, np.arccos(x), turns, indexing="ij")
    points = np.stack([alpha.ravel(), beta.ravel(), gamma.ravel()], axis=-1)
    weights = np.broadcast_to(w[None, :, None], alpha.shape).ravel() / (2.0 * m * m)
    return _with_cosets(row, weights, chart.evaluate_many(points))


def class_nodes(group_tag: str, degree: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """(weights, stacks) exact for class functions of degree <= n = ``degree``, as Tr(g)^n.

    By Weyl's formula they average over rotations by a about one axis, weighted
    by 1 - cos a on SO(3); the m = n + 2 angles a = 2 pi j / m, in the group's
    first chart at (a) or (a, 0, 0), integrate that degree-(n + 1)
    trigonometric polynomial exactly.  Starting at the identity, where Tr^n
    peaks, spares its largest terms cancellation in a.
    """
    row, chart = _first_chart(group_tag, degree)
    m = degree + 2
    angles = 2.0 * np.pi * np.arange(m) / m
    points = np.zeros((m, chart.d))
    points[:, 0] = np.where(angles > chart.domain[0, 1], angles - 2.0 * np.pi, angles)
    weights = (1.0 - np.cos(points[:, 0])) / m if row.dim == 3 else np.full(m, 1.0 / m)
    return _with_cosets(row, weights, chart.evaluate_many(points))


def haar_nodes(group, density: HaarDensity | None,
               degree: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """(weights, stacks) of a group average, the mean of its weighted sums over the stacks.

    A FiniteGroup gives its one stack at weight 1/|G| each and takes no density;
    a tag gives the exact rule, or the grid of a density whose chart
    parametrises the group or, for O(D), its SO(D).
    """
    if isinstance(group, FiniteGroup):
        if density is not None:
            raise ValueError("a finite group averages over its elements and takes no density")
        return np.full(len(group), 1.0 / len(group)), [group.matrices]
    if density is None:
        if degree is None:
            raise ValueError("without a density the exact rule needs the integrand's polynomial degree")
        return exact_nodes(group, degree)
    row, own = lookup_group(group), density.chart.parametrises
    if own.dim != row.dim or (row.proper and not own.proper):
        raise ValueError(f"a density of {own.spelling} chart {density.chart.name!r} cannot average {group}")
    return _with_cosets(row, *density.grid()[1:])


def node_mean(weights: np.ndarray, stacks: list[np.ndarray], width: int, term) -> np.ndarray:
    """Mean over haar_nodes' stacks of the sums term(w, mats) of an integrand of ``width``
    entries per node, weighted by w, on node slices of at most BLOCK_ENTRIES // width nodes,
    added in order into one running total in place: the one walk of every group average.  A
    stack within the budget is one slice, with the bytes of term on the whole stack."""
    parts = (term(weights[s], mats[s]) for mats in stacks for s in _node_blocks(len(mats), width))
    total = np.array(next(parts))  # a copy: a term may return its own buffer
    for part in parts:
        np.add(total, part, out=total)
    return total / len(stacks)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, not warned of
def integrate_tensor(f, group, density: HaarDensity | None,
                     degree: int | None = None) -> np.ndarray:
    """Entry-wise normalized integral of a tensor-valued function.

    The integrand maps the (N, D, D) element stack to (N, *shape).  On a
    FiniteGroup it is the exact mean over the elements.  For a group tag,
    with a density the integral runs on the grid it was normalized on; with
    ``density=None`` it runs on exact_nodes(group, degree), which is exact
    when f is a polynomial of degree <= ``degree`` in the entries of g.
    f runs on one node for its width w, then on node_mean's slices, each
    summed by np.tensordot(weights, f(slice), axes=1).  An integral that
    overflows or turns NaN is a NumericalError.
    """
    weights, stacks = haar_nodes(group, density, degree)
    out = node_mean(weights, stacks, np.size(f(stacks[0][:1])),
                    lambda w, mats: np.tensordot(w, np.asarray(f(mats), dtype=float), axes=1))
    if not np.isfinite(out).all():
        raise NumericalError("the group average is not finite: the integrand overflows or is NaN")
    return out
