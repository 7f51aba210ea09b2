"""Uniform sampling of SO(2), O(2), SO(3), O(3) via per-coordinate inverse CDFs.

A group samples through the built-in charts of its row of groups.GROUPS,
the first by default.  Each chart factorizes the uniform density into
independent coordinate laws, so sampling reduces to inverting one scalar
CDF per coordinate: Euler needs beta = arccos(1 - 2U); the axis-angle chart
needs the angle CDF (alpha - sin alpha)/pi; the hyperpolar chart needs
(2 theta - sin 2 theta)/(2 pi).  The two non-elementary inversions run
Newton iterations inside a bisection bracket, since both CDFs have zero
slope at an endpoint where pure Newton stalls.

Determinism contract: a fresh sampler with the same seed reproduces the
same batch bit for bit.  Each coordinate axis draws from its own Philox
substream (counter-jumped per axis), and O-group coin flips use a further
substream, so coordinate laws stay independent of batch layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import Chart, builtin_chart
from .groups import GroupElement, improper_coset, lookup_group, quat_rotation_matrices
from .haar import NumericalError

CDF_TOL = 1e-12
MAX_NEWTON = 64

CHART_ALIASES = {
    "angle": "so2-angle",
    "shifted": "so2-shifted",
    "euler": "so3-euler",
    "polar": "so3-polar",
    "quaternion": "so3-quat",
}


# ---------------------------------------------------------------------------
# Inverse CDF


def invert_cdf(cdf, target, bracket, derivative) -> np.ndarray | float:
    """Solve cdf(x) = target on the bracket to |cdf(x) - target| < 1e-12.

    Newton steps on the slope ``derivative`` (the density), constrained to
    a shrinking bisection bracket.  ``target`` may be an array; the result
    matches its shape.
    """
    a, b = float(bracket[0]), float(bracket[1])
    t = np.asarray(target, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t).copy()
    fa, fb = float(cdf(a)), float(cdf(b))
    if not np.all((t >= fa - CDF_TOL) & (t <= fb + CDF_TOL)):  # NaN fails too
        raise ValueError(f"targets outside [cdf({a:g}), cdf({b:g})] = [{fa:g}, {fb:g}]")
    x = a + (b - a) * np.clip((t - fa) / (fb - fa), 0.0, 1.0)
    # A converged target's x never moves again, so each iteration runs on
    # the still-live targets only; idx holds their positions in x.
    idx, xs, ts = np.arange(t.size), x, t
    lo, hi = np.full_like(t, a), np.full_like(t, b)
    for _ in range(MAX_NEWTON):
        r = np.asarray(cdf(xs)) - ts
        live = np.flatnonzero(np.abs(r) >= CDF_TOL)
        if not live.size:
            break
        if live.size < r.size:
            idx, xs, ts, r, lo, hi = idx[live], xs[live], ts[live], r[live], lo[live], hi[live]
        hi = np.where(r > 0, xs, hi)
        lo = np.where(r < 0, xs, lo)
        d = np.asarray(derivative(xs))
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = xs - r / d
        # A Newton step that is not finite or lands on or outside the bracket
        # bisects: so does a zero or NaN slope (a step that is not finite) and a
        # negative one (it steps away from the root, past the end set to old x).
        bad = np.flatnonzero(~np.isfinite(xs) | (xs <= lo) | (xs >= hi))
        xs[bad] = 0.5 * (lo[bad] + hi[bad])
        x[idx] = xs
    else:
        # Targets that left the loop earlier passed this check at the same x.
        residual = np.abs(np.asarray(cdf(xs)) - ts)
        if np.any(residual >= CDF_TOL):
            raise NumericalError(
                f"cdf inversion did not reach {CDF_TOL:g} in {MAX_NEWTON} iterations "
                f"(worst residual {float(residual.max()):.3g})")
    return float(x[0]) if scalar else x


def _angle_cdf(alpha):
    return (alpha - np.sin(alpha)) / np.pi


def _angle_cdf_slope(alpha):
    return (1.0 - np.cos(alpha)) / np.pi


def _half_angle_cdf(theta):
    two_theta = 2.0 * theta
    return (two_theta - np.sin(two_theta)) / (2.0 * np.pi)


def _half_angle_cdf_slope(theta):
    return (1.0 - np.cos(2.0 * theta)) / np.pi


# ---------------------------------------------------------------------------
# Samplers


@dataclass(frozen=True)
class SamplerConfig:
    group: str  # a tag of groups.GROUPS
    chart: str = ""  # built-in chart tag or alias; default: the group's first chart
    seed: int = 0
    count: int = 1

    def __post_init__(self):
        charts = lookup_group(self.group).charts
        tag = CHART_ALIASES.get(name := self.chart.removeprefix("builtin:"), name) or charts[0]
        if tag not in charts:
            raise ValueError(f"chart {self.chart!r} does not sample group {self.group!r}; "
                             f"valid: {', '.join(charts)}")
        object.__setattr__(self, "chart", tag)
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.count < 1:
            raise ValueError("count must be positive")


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Samples with coordinates, matrices, and quaternions when applicable.

    Iterates as GroupElement instances; bulk consumers should read the
    arrays directly.
    """

    config: SamplerConfig
    coordinates: np.ndarray  # (N, d) chart coordinates of the proper part
    matrices: np.ndarray  # (N, D, D), improper elements already composed
    quaternions: np.ndarray | None = None  # (N, 4) for proper quaternion batches

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def __getitem__(self, i) -> GroupElement:
        return GroupElement.from_matrix(self.matrices[i])

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def _axis_streams(seed: int, axes: int) -> list[np.random.Generator]:
    base = np.random.Philox(key=int(seed))
    return [np.random.Generator(base.jumped(j)) for j in range(axes)]


def _draw_coordinates(tag: str, chart: Chart, streams, n: int) -> np.ndarray:
    u = np.column_stack([s.random(n) for s in streams])
    lo, hi = chart.domain[:, 0], chart.domain[:, 1]
    if tag in ("so2-angle", "so2-shifted"):
        return lo + (hi - lo) * u
    if tag == "so3-euler":
        alpha = -np.pi + 2.0 * np.pi * u[:, 0]
        beta = np.arccos(1.0 - 2.0 * u[:, 1])
        gamma = -np.pi + 2.0 * np.pi * u[:, 2]
        return np.column_stack([alpha, beta, gamma])
    if tag == "so3-polar":
        phi = 2.0 * np.pi * u[:, 0]
        psi = np.arcsin(2.0 * u[:, 1] - 1.0)
        alpha = invert_cdf(_angle_cdf, u[:, 2], (0.0, np.pi), derivative=_angle_cdf_slope)
        return np.column_stack([phi, psi, alpha])
    if tag == "so3-quat":
        theta = invert_cdf(_half_angle_cdf, u[:, 0], (0.0, np.pi), derivative=_half_angle_cdf_slope)
        psi = np.arccos(1.0 - 2.0 * u[:, 1])
        phi = 2.0 * np.pi * u[:, 2]
        return np.column_stack([theta, psi, phi])
    raise KeyError(f"no sampler for chart tag {tag!r}")


def sample(config: SamplerConfig) -> SampleBatch:
    """Draw config.count uniform elements of config.group through its chart."""
    tag = config.chart
    chart = builtin_chart(tag)
    streams = _axis_streams(config.seed, chart.d + 1)
    coords = _draw_coordinates(tag, chart, streams[: chart.d], config.count)
    quats = None
    if chart.is_quaternion:
        quats = chart.quaternions_at(coords)
        mats = quat_rotation_matrices(quats)
    else:
        mats = chart.evaluate_many(coords)
    if not lookup_group(config.group).proper:
        improper_coset(mats, where=streams[chart.d].random(config.count) < 0.5)
        quats = None
    return SampleBatch(config=config, coordinates=coords, matrices=mats, quaternions=quats)
