"""Haar densities in arbitrary charts and normalized integration.

The unnormalized density at u is |det M(u)| with

    M(u)_ij = <p(u)^-1 dp/du_j, xi_i>,

the bracket being the half-trace Frobenius product and (xi_i) the basis
groups.so_algebra_basis(D); another orthonormal basis would only scale
|det M| by a constant, which normalization cancels.  The partials dp/du_j
are exact, from the chart's compiled derivative plan.  For charts tagged
as rotation groups p^-1 is the transpose; untagged square charts go through
an LU solve.  A 4 x 1 chart is treated as a unit-quaternion parametrisation
and the same formula is evaluated in the quaternion algebra with the pure
imaginaries (i, j, k) as basis.

The sign of det M is an orientation artifact of basis and parameter
order, so the absolute value is taken before normalizing.  Group averages
read the group's row of groups.GROUPS: its dimension, its properness (an
O-group adds the improper coset) and its first chart (the exact rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import Chart, builtin_chart
from .groups import (improper_coset, lookup_group, quat_conjugate, quat_mul,
                     quat_rotation_matrices, so_algebra_basis)
from .quadrature import DEFAULT_NODES, QuadratureRule, axis_rule

DEGENERATE_C = 1e-12
_FD_STEP = 1e-5  # central differences for the Python callable of chart_change_check


class NumericalError(RuntimeError):
    """A computation failed numerically (degenerate chart, NaN, no convergence)."""


def _rule_for(chart: Chart, rule) -> QuadratureRule:
    if isinstance(rule, QuadratureRule):
        return rule
    return QuadratureRule.for_domain(chart.domain, DEFAULT_NODES if rule is None else rule)


# ---------------------------------------------------------------------------
# Unnormalized density


@np.errstate(invalid="ignore")  # an infinite partial gives inf or NaN quietly; callers check
def _density_and_elements(chart: Chart, pts: np.ndarray):
    """|det M| at an (N, d) batch and the group elements there (no domain checks).

    Quaternion charts push their quaternions to rotation matrices.
    """
    if chart.is_quaternion:
        q = chart.quaternions_at(pts)
        dq = chart.jacobian_many(pts)[..., 0]  # (N, d, 4)
        tau = quat_mul(quat_conjugate(q)[:, None, :], dq)  # (N, d, 4)
        m = np.swapaxes(tau[..., 1:], 1, 2)  # components on (i, j, k); M_ij = <tau_j, xi_i>
        return np.abs(np.linalg.det(m)), quat_rotation_matrices(q)
    mats = chart.evaluate_many(pts)
    jac = chart.jacobian_many(pts)  # (N, d, D, D)
    if chart.group is not None:
        tau = np.einsum("nki,njkl->njil", mats, jac)
    else:
        tau = np.linalg.solve(mats[:, None, :, :], jac)
    xi = np.stack(so_algebra_basis(chart.matrix_dim))
    m = 0.5 * np.einsum("njkl,ikl->nij", tau, xi)
    return np.abs(np.linalg.det(m)), mats


def density_numeric_many(chart: Chart, points) -> np.ndarray:
    """|det M| at an (N, d) batch of points (no domain checks)."""
    return _density_and_elements(chart, np.asarray(points, dtype=float))[0]


def density_numeric(chart: Chart, u) -> float:
    """Unnormalized |det M(u)| at a single point of the closed domain, or
    NumericalError where it is not finite (sqrt's infinite slope at 0, say).
    """
    u = chart.check_point(u)
    value = float(density_numeric_many(chart, u[None, :])[0])
    if not np.isfinite(value):
        raise NumericalError(
            f"density of chart {chart.name!r} is not finite at {u.tolist()}")
    return value


# ---------------------------------------------------------------------------
# Normalized densities


@dataclass(frozen=True, eq=False)
class HaarDensity:
    """A chart with its normalized Haar density k(u) = |det M(u)| / C."""

    chart: Chart
    C: float
    mode: str  # "numeric" | "closed-form"
    _closed_unnormalized: object = None  # (N, d) -> (N,); C is its integral over the domain
    _grids: dict = field(default_factory=dict, repr=False)

    def density_many(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self.mode == "closed-form":
            raw = self._closed_unnormalized(pts)
        else:
            raw = density_numeric_many(self.chart, pts)
        return raw / self.C

    def density(self, u) -> float:
        if self.mode == "numeric":  # NumericalError where |det M| is not finite
            return density_numeric(self.chart, u) / self.C
        return float(self.density_many(self.chart.check_point(u)[None, :])[0])

    __call__ = density

    def grid(self, rule=None):
        """Quadrature nodes with cached density and group elements.

        Returns (rule, weighted, elements): ``weighted`` are quadrature
        weights times normalized density, and ``elements`` the rotation
        matrices at the nodes (quaternion charts are pushed to matrices).
        The cache is keyed on the rule's node counts and domain, and the
        rule returned is the one asked for; normalize seeds it at its rule.
        """
        rule = _rule_for(self.chart, rule)
        key = _grid_key(rule)
        if key not in self._grids:
            if self.mode == "numeric":  # one chart pass gives density and elements
                raw, elements = _density_and_elements(self.chart, rule.points)
            else:
                raw = self._closed_unnormalized(rule.points)
                elements = (quat_rotation_matrices(self.chart.quaternions_at(rule.points))
                            if self.chart.is_quaternion else self.chart.evaluate_many(rule.points))
            self._grids[key] = (rule, rule.weights * (raw / self.C), elements)
        elif self._grids[key][0] is not rule:
            # an equal rule built elsewhere, as normalize's: hand back the caller's
            self._grids[key] = (rule, *self._grids[key][1:])
        return self._grids[key]


def _grid_key(rule: QuadratureRule) -> tuple:
    return (rule.nodes_per_axis, rule.domain.tobytes())


def normalize(chart: Chart, rule=None) -> HaarDensity:
    """Normalize the numeric density of a chart by tensor-product quadrature.

    The density and elements computed on the rule's nodes also seed the
    density's grid cache, so grid() at the same rule does no chart work.
    """
    rule = _rule_for(chart, rule)
    raw, elements = _density_and_elements(chart, rule.points)
    if not np.all(np.isfinite(raw)):
        raise NumericalError(f"density of chart {chart.name!r} is not finite on the grid")
    c = float(rule.integrate(raw))
    if c < DEGENERATE_C:
        raise NumericalError(f"chart {chart.name!r} is degenerate: C = {c:.3g} below {DEGENERATE_C:g}")
    density = HaarDensity(chart=chart, C=c, mode="numeric")
    density._grids[_grid_key(rule)] = (rule, rule.weights * (raw / c), elements)
    return density


# Closed forms for the built-in charts: unnormalized integrand and its C.
# Each C is the exact integral of its own integrand over the chart domain,
# so the normalized closed and numeric densities agree even where the two
# constants differ: the axis-angle integrand cos(psi) sin^2(alpha/2)
# integrates to 2 pi^2, while the numeric |det M| = 4 cos(psi) sin^2(alpha/2)
# gives 8 pi^2.  The numeric engine above is the arbiter and the acceptance
# suite checks agreement at 1e-6.


def _closed_so2(pts):
    return np.ones(pts.shape[0])


def _closed_euler(pts):
    return np.sin(pts[:, 1])


def _closed_polar(pts):
    return np.cos(pts[:, 1]) * np.sin(pts[:, 2] / 2.0) ** 2


def _closed_quat(pts):
    return np.sin(pts[:, 0]) ** 2 * np.sin(pts[:, 1])


_CLOSED_FORMS = {
    "so2-angle": (_closed_so2, 2.0 * np.pi),
    "so2-shifted": (_closed_so2, 2.0 * np.pi),
    "so3-euler": (_closed_euler, 8.0 * np.pi**2),
    "so3-polar": (_closed_polar, 2.0 * np.pi**2),
    "so3-quat": (_closed_quat, 2.0 * np.pi**2),
}


def closed_form(tag: str) -> HaarDensity:
    """The reference density of a built-in chart with its exact constant."""
    if tag not in _CLOSED_FORMS:
        raise KeyError(f"no closed-form density for tag {tag!r}; "
                       f"available: {', '.join(sorted(_CLOSED_FORMS))}")
    fn, c = _CLOSED_FORMS[tag]
    return HaarDensity(chart=builtin_chart(tag), C=c, mode="closed-form",
                       _closed_unnormalized=fn)


def closed_form_density(tag: str, u) -> float:
    """Normalized closed-form density of a built-in chart at a point."""
    return closed_form(tag).density(u)


# ---------------------------------------------------------------------------
# Chart cross-validation


def _as_density(chart_or_density, rule=None) -> HaarDensity:
    if isinstance(chart_or_density, HaarDensity):
        return chart_or_density
    return normalize(chart_or_density, rule=rule)


def chart_change_check(c1, c2, phi, u, rule=None) -> float:
    """Residual |k1(u) - |det Dphi(u)| * k2(phi(u))| of a change of chart.

    ``phi`` maps coordinates of c1 to coordinates of c2; being a Python
    callable, it is differentiated by central differences.  Accepts Chart or
    HaarDensity arguments; charts are normalized on the fly.
    """
    d1 = _as_density(c1, rule=rule)
    d2 = _as_density(c2, rule=rule)
    u = d1.chart.check_point(u)
    w = np.asarray(phi(u), dtype=float)
    if not d2.chart.contains(w):
        raise ValueError(f"phi({u.tolist()}) = {w.tolist()} lands outside chart {d2.chart.name!r}")
    jac = np.column_stack([np.asarray(phi(u + h), dtype=float) - np.asarray(phi(u - h), dtype=float)
                           for h in _FD_STEP * np.eye(u.shape[0])]) / (2.0 * _FD_STEP)
    return float(abs(d1.density(u) - abs(np.linalg.det(jac)) * d2.density(w)))


# ---------------------------------------------------------------------------
# Normalized integration over SO / O groups


def coset_stacks(group_tag: str, elements: np.ndarray) -> list[np.ndarray]:
    """The element stacks a group average runs over.

    SO(D) averages f over the proper elements; O(D) integrates
    (1/2)[f(g) + f(sigma g)], so its list adds the improper coset.
    """
    group = lookup_group(group_tag)
    if elements.shape[-1] != group.dim:
        raise ValueError(f"group {group_tag} needs {group.dim}x{group.dim} elements, got {elements.shape}")
    return [elements] if group.proper else [elements, improper_coset(elements)]


def exact_nodes(group_tag: str, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights and proper elements of a Haar rule exact up to polynomial degree n.

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
    The nodes lie in the group's first chart, so2-angle or so3-euler.
    """
    if degree < 0:
        raise ValueError("polynomial degree must be nonnegative")
    chart = builtin_chart(lookup_group(group_tag).charts[0])
    m = degree + 1
    turns = chart.domain[0, 0] + 2.0 * np.pi * np.arange(m) / m
    if chart.d == 1:
        return np.full(m, 1.0 / m), chart.evaluate_many(turns[:, None])
    x, w = axis_rule(degree // 2 + 1, -1.0, 1.0)
    alpha, beta, gamma = np.meshgrid(turns, np.arccos(x), turns, indexing="ij")
    points = np.stack([alpha.ravel(), beta.ravel(), gamma.ravel()], axis=-1)
    weights = np.broadcast_to(w[None, :, None], alpha.shape).ravel() / (2.0 * m * m)
    return weights, chart.evaluate_many(points)


def haar_nodes(group_tag: str, density: HaarDensity | None, rule=None,
               degree: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(weights, proper elements): the chart grid of a density, else the exact rule."""
    if density is not None:
        return density.grid(rule)[1:]
    if degree is None:
        raise ValueError("without a density the exact rule needs the integrand's polynomial degree")
    return exact_nodes(group_tag, degree)


def integrate_scalar(f, group_tag: str, density: HaarDensity, rule=None) -> float:
    """Normalized integral of f, which maps the (N, D, D) element stack to (N,) values."""
    return float(integrate_tensor(f, group_tag, density, rule=rule))


def integrate_tensor(f, group_tag: str, density: HaarDensity | None, rule=None,
                     degree: int | None = None) -> np.ndarray:
    """Entry-wise normalized integral of a tensor-valued function.

    The integrand maps the (N, D, D) element stack to (N, *shape).
    With a density the integral runs on its chart grid at ``rule``; with
    ``density=None`` it runs on exact_nodes(group_tag, degree), which is
    exact when f is a polynomial of degree <= ``degree`` in the entries of g.
    """
    weights, elements = haar_nodes(group_tag, density, rule, degree)
    parts = [np.tensordot(weights, np.asarray(f(mats), dtype=float), axes=1)
             for mats in coset_stacks(group_tag, elements)]
    return sum(parts[1:], parts[0]) / len(parts)
