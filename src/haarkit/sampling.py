"""Uniform sampling of SO(2), O(2), SO(3), O(3) via per-coordinate inverse CDFs.

A group samples through the built-in charts of its row of groups.GROUPS,
the first by default.  Each built-in chart factorizes the uniform density
into independent coordinate laws, its row of CHART_LAWS, which gives both
the sampler (one scalar inverse CDF per coordinate) and the closed-form
density.  Euler needs beta = arccos(1 - 2U); the axis-angle chart needs
the angle CDF (alpha - sin alpha)/pi; the hyperpolar chart needs
(2 theta - sin 2 theta)/(2 pi).  The two non-elementary inversions run
Newton iterations inside a bisection bracket, since both CDFs have zero
slope at an endpoint where pure Newton stalls.  Both are Kepler's equation
E - sin E = M at eccentricity 1 (E = alpha, M = pi u; E = 2 theta,
M = 2 pi u), so their Newton solves start from its cube-root series
(_cycloid_start): about 3.4 CDF evaluations per draw, against 5.6-5.9 from
a straight line across the bracket.

Determinism contract: a fresh sampler with the same seed reproduces the
same batch bit for bit.  Each coordinate axis draws from its own Philox
substream (counter-jumped per axis), and O-group coin flips use a further
substream, so coordinate laws stay independent of batch layout.

A batch is drawn in row blocks of haar.BLOCK_ENTRIES // D^2 elements
(haar._node_blocks): each block's uniforms are drawn, inverted, charted and
flipped while they are in cache, and written into the batch's arrays, so a
sampler holds one block of temporaries beside its output.  The bytes do not
depend on the block size: each Philox stream carries on from where its last
call stopped, so the blocks' draws are the whole batch's, and every later
stage works row by row.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .charts import builtin_chart
from .groups import UnknownNameError, improper_coset, lookup_group, quat_rotation_matrices
from .haar import HaarDensity, NumericalError, _node_blocks

CDF_TOL = 1e-12
MAX_NEWTON = 64


# ---------------------------------------------------------------------------
# Inverse CDF


def invert_cdf(cdf, target, bracket, derivative, start=None) -> np.ndarray | float:
    """Solve cdf(x) = target on the bracket to |cdf(x) - target| < 1e-12.

    Newton steps on the slope ``derivative`` (the density), constrained to
    a shrinking bisection bracket.  ``target`` may be an array; the result
    matches its shape.  ``start`` maps the targets to first guesses, which
    are clipped into the bracket; without it, or where a guess is not
    finite, the first guess is the straight line across the bracket.
    """
    a, b = float(bracket[0]), float(bracket[1])
    t = np.asarray(target, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t).copy()
    fa, fb = float(cdf(a)), float(cdf(b))
    if not np.all((t >= fa - CDF_TOL) & (t <= fb + CDF_TOL)):  # NaN fails too
        raise ValueError(f"targets outside [cdf({a:g}), cdf({b:g})] = [{fa:g}, {fb:g}]")
    x = a + (b - a) * np.clip((t - fa) / (fb - fa), 0.0, 1.0)
    if start is not None:
        guess = np.asarray(start(t), dtype=float)
        x = np.where(np.isfinite(guess), np.clip(guess, a, b), x)
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


def _cycloid_start(m):
    """A first guess at E in Kepler's equation E - sin E = m at eccentricity 1.

    For m <= pi it is the cube-root series E = s + s^3/60 + s^5/1400 +
    s^7/25200 with s = (6m)^(1/3) (Mikkola, Celest. Mech. 40, 1987); above
    pi it mirrors as 2 pi - E(2 pi - m), since E - sin E is odd about pi.
    """
    m = np.asarray(m, dtype=float)
    s = np.cbrt(6.0 * np.minimum(m, 2.0 * np.pi - m))
    s2 = s * s
    e = s * (1.0 + s2 * (1.0 / 60.0 + s2 * (1.0 / 1400.0 + s2 / 25200.0)))
    return np.where(m <= np.pi, e, 2.0 * np.pi - e)


def _angle_start(u):
    return _cycloid_start(np.pi * u)  # alpha - sin alpha = pi u


def _half_angle_start(u):
    return 0.5 * _cycloid_start(2.0 * np.pi * u)  # 2 theta - sin 2 theta = 2 pi u


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
            lambda u, lo, hi: invert_cdf(_angle_cdf, u, (lo, hi), derivative=_angle_cdf_slope,
                                         start=_angle_start))
HALF_ANGLE = Law(lambda x: np.sin(x) ** 2,
                 lambda lo, hi: np.pi / 2.0 * (_half_angle_cdf(hi) - _half_angle_cdf(lo)),
                 lambda u, lo, hi: invert_cdf(_half_angle_cdf, u, (lo, hi),
                                              derivative=_half_angle_cdf_slope,
                                              start=_half_angle_start))

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
        raise UnknownNameError(f"no closed-form density for tag {tag!r}; "
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
    """Draw config.count uniform elements of config.group through its chart, block by block."""
    tag = config.chart
    chart = builtin_chart(tag)
    group = lookup_group(config.group)
    streams = _axis_streams(config.seed, chart.d + 1)
    count, dim = config.count, group.dim
    coords = np.empty((count, chart.d))
    mats = np.empty((count, dim, dim))
    quats = np.empty((count, 4)) if chart.is_quaternion and group.proper else None
    for s in _node_blocks(count, dim * dim):
        rows = len(coords[s])
        for j, (law, stream, (lo, hi)) in enumerate(zip(CHART_LAWS[tag][1], streams, chart.domain)):
            coords[s, j] = law.draw(stream.random(rows), lo, hi)
        if chart.is_quaternion:
            q = chart.quaternions_at(coords[s])
            mats[s] = quat_rotation_matrices(q)
            if quats is not None:
                quats[s] = q
        else:
            mats[s] = chart.evaluate_many(coords[s])
        if not group.proper:
            improper_coset(mats[s], where=streams[chart.d].random(rows) < 0.5)
    return SampleBatch(config=config, coordinates=coords, matrices=mats, quaternions=quats)
