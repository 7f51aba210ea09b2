"""Uniform sampling of SO(2), O(2), SO(3), O(3) via per-coordinate inverse CDFs.

A group samples through the built-in charts of its row of groups.GROUPS,
the first by default.  Each built-in chart factorizes the uniform density
into independent coordinate laws, its row of CHART_LAWS, which gives both
the sampler (one scalar inverse CDF per coordinate) and the closed-form
density.  Euler needs beta = arccos(1 - 2U); the axis-angle chart needs
the angle CDF (alpha - sin alpha)/pi; the hyperpolar chart needs
(2 theta - sin 2 theta)/(2 pi).  The two non-elementary inversions run
Newton iterations inside a bisection bracket, since both CDFs have zero
slope at an endpoint where pure Newton stalls.

Determinism contract: a fresh sampler with the same seed reproduces the
same batch bit for bit.  Each coordinate axis draws from its own Philox
substream (counter-jumped per axis), and O-group coin flips use a further
substream, so coordinate laws stay independent of batch layout.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .charts import builtin_chart
from .groups import improper_coset, lookup_group, quat_rotation_matrices
from .haar import HaarDensity, NumericalError

CDF_TOL = 1e-12
MAX_NEWTON = 64


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
# Coordinate laws of the built-in charts


@dataclass(frozen=True)
class Law:
    """One coordinate's factor of a built-in chart's Haar density.  All but
    the uniform draw assume the half-turn axis the built-in charts give them."""

    pdf: Callable  # x -> unnormalized density factor
    mass: Callable  # (lo, hi) -> integral of pdf over [lo, hi]
    draw: Callable  # (u, lo, hi) -> x whose CDF, integral of pdf / mass from lo, is u


UNIFORM = Law(np.ones_like, lambda lo, hi: hi - lo, lambda u, lo, hi: lo + (hi - lo) * u)
SINE = Law(np.sin, lambda lo, hi: np.cos(lo) - np.cos(hi), lambda u, lo, hi: np.arccos(1.0 - 2.0 * u))
COSINE = Law(np.cos, lambda lo, hi: np.sin(hi) - np.sin(lo), lambda u, lo, hi: np.arcsin(2.0 * u - 1.0))
# pdf = pi/2 times the CDF's slope.  Draws look invert_cdf up when they run, so a
# wrapper set on the module attribute sees every call.
ANGLE = Law(lambda x: np.sin(x / 2.0) ** 2,
            lambda lo, hi: np.pi / 2.0 * (_angle_cdf(hi) - _angle_cdf(lo)),
            lambda u, lo, hi: invert_cdf(_angle_cdf, u, (lo, hi), derivative=_angle_cdf_slope))
HALF_ANGLE = Law(lambda x: np.sin(x) ** 2,
                 lambda lo, hi: np.pi / 2.0 * (_half_angle_cdf(hi) - _half_angle_cdf(lo)),
                 lambda u, lo, hi: invert_cdf(_half_angle_cdf, u, (lo, hi),
                                              derivative=_half_angle_cdf_slope))

# Built-in chart tag -> (sampler alias, one law per coordinate).
CHART_LAWS = {
    "so2-angle": ("angle", (UNIFORM,)),
    "so2-shifted": ("shifted", (UNIFORM,)),
    "so3-euler": ("euler", (UNIFORM, SINE, UNIFORM)),
    "so3-polar": ("polar", (UNIFORM, COSINE, ANGLE)),
    "so3-quat": ("quaternion", (HALF_ANGLE, SINE, UNIFORM)),
}


def closed_form(tag: str) -> HaarDensity:
    """The reference density of a built-in chart with its exact constant.

    The density is the product of the chart's coordinate laws and C the
    product of their masses, the exact integral of that product over the
    domain.  The normalized closed and numeric densities agree even where
    the two constants differ: the axis-angle product cos(psi) sin^2(alpha/2)
    integrates to 2 pi^2, while the numeric |det M| = 4 cos(psi) sin^2(alpha/2)
    gives 8 pi^2.  The numeric engine is the arbiter and the acceptance
    suite checks agreement at 1e-6.
    """
    if tag not in CHART_LAWS:
        raise KeyError(f"no closed-form density for tag {tag!r}; "
                       f"available: {', '.join(sorted(CHART_LAWS))}")
    laws = CHART_LAWS[tag][1]
    chart = builtin_chart(tag)
    c = float(math.prod(law.mass(lo, hi) for law, (lo, hi) in zip(laws, chart.domain)))
    return HaarDensity(chart=chart, C=c, unnormalized=lambda pts: math.prod(
        law.pdf(x) for law, x in zip(laws, pts.T)))


def closed_form_density(tag: str, u) -> float:
    """Normalized closed-form density of a built-in chart at a point."""
    return closed_form(tag).density(u)


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
        name = self.chart.removeprefix("builtin:")
        tag = next((t for t, (alias, _) in CHART_LAWS.items() if alias == name), name) or charts[0]
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
    """Samples with coordinates, matrices, and quaternions when applicable."""

    config: SamplerConfig
    coordinates: np.ndarray  # (N, d) chart coordinates of the proper part
    matrices: np.ndarray  # (N, D, D), improper elements already composed
    quaternions: np.ndarray | None = None  # (N, 4) for proper quaternion batches

    def __len__(self) -> int:
        return self.matrices.shape[0]


def _axis_streams(seed: int, axes: int) -> list[np.random.Generator]:
    base = np.random.Philox(key=int(seed))
    return [np.random.Generator(base.jumped(j)) for j in range(axes)]


def sample(config: SamplerConfig) -> SampleBatch:
    """Draw config.count uniform elements of config.group through its chart."""
    tag = config.chart
    chart = builtin_chart(tag)
    streams = _axis_streams(config.seed, chart.d + 1)
    coords = np.column_stack([law.draw(stream.random(config.count), lo, hi) for law, stream, (lo, hi)
                              in zip(CHART_LAWS[tag][1], streams, chart.domain)])
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
